//! Deterministic random-number plumbing.
//!
//! All stochastic components in this workspace take explicit `u64` seeds and
//! build a [`rand_chacha::ChaCha8Rng`] from them, so every experiment —
//! tables, figures, tests — replays bit-identically across platforms.

use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Creates the workspace-standard deterministic RNG from a seed.
///
/// ```
/// use rand::Rng;
/// let mut a = saim_machine::new_rng(7);
/// let mut b = saim_machine::new_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn new_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives an independent stream seed from a master seed and a stream index.
///
/// Uses the SplitMix64 finalizer, which is a bijection on `u64`, so distinct
/// `(master, stream)` pairs never collide for a fixed master.
///
/// ```
/// let a = saim_machine::derive_seed(1, 0);
/// let b = saim_machine::derive_seed(1, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, saim_machine::derive_seed(1, 0));
/// ```
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Words buffered per [`NoiseSource`] refill (one refill = 64 `u64` draws =
/// 8 ChaCha blocks, as many as one generator refill computes).
const NOISE_BLOCK: usize = 64;

/// A block-buffered tap on a [`ChaCha8Rng`] stream for the sweep hot path.
///
/// The p-bit update draws one `U(-1, 1)` noise value per undecided spin.
/// Going through `Rng::gen_range` costs a full generator round trip (two
/// word fetches with exhaustion checks plus the range arithmetic) *per
/// decision*; this source instead fills a block of 64 raw `u64`s at a time
/// and converts on consumption, so the common case is an indexed load.
/// A stream fed only through the source stays on the generator's 8-block
/// boundaries, so each noise refill runs exactly one generator refill.
///
/// **Draw-order contract:** the values produced are exactly the stream's
/// `next_u64` sequence in order — buffering changes *when* words are pulled
/// from the generator, never *which* word the k-th draw maps to. A sweep
/// loop fed from a `NoiseSource` therefore replays bit-identically against
/// the same loop drawing `rng.gen_range(-1.0..1.0)` / `rng.gen::<f64>()`
/// per decision, as long as nothing else consumes the underlying stream
/// in between (interleave via [`NoiseSource::rng_mut`] only after a
/// [`NoiseSource::reset`]).
#[derive(Debug, Clone)]
pub struct NoiseSource {
    rng: ChaCha8Rng,
    buf: [u64; NOISE_BLOCK],
    pos: usize,
}

impl NoiseSource {
    /// Wraps an existing generator; the buffer starts empty.
    pub fn new(rng: ChaCha8Rng) -> Self {
        NoiseSource {
            rng,
            buf: [0; NOISE_BLOCK],
            pos: NOISE_BLOCK,
        }
    }

    /// Builds a source over the workspace-standard stream for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self::new(new_rng(seed))
    }

    /// Discards any buffered words.
    ///
    /// Call before touching the raw stream through
    /// [`NoiseSource::rng_mut`] so raw draws and buffered draws never
    /// interleave mid-block.
    pub fn reset(&mut self) {
        self.pos = NOISE_BLOCK;
    }

    /// The underlying generator, for draws outside the noise path (e.g. the
    /// coin flips of a state re-randomization). [`NoiseSource::reset`]
    /// first.
    pub fn rng_mut(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Captures the source's complete state: the generator's state words
    /// plus every buffered-but-unconsumed word.
    ///
    /// The buffer must be part of the snapshot — a refill pulls 64 words
    /// from the stream at once, so at a sweep boundary the buffer typically
    /// straddles into draws the next sweep will consume. Dropping it and
    /// re-buffering from the generator position would skip those words and
    /// silently fork the trajectory.
    pub(crate) fn snapshot(&self) -> NoiseSnapshot {
        let (key, counter, word_pos) = self.rng.state_words();
        NoiseSnapshot {
            key,
            counter,
            word_pos,
            buf: self.buf.to_vec(),
            pos: self.pos,
        }
    }

    /// Rebuilds a source from a [`NoiseSource::snapshot`]; the restored
    /// source continues the draw sequence bit-identically.
    pub(crate) fn from_snapshot(snap: &NoiseSnapshot) -> Self {
        let mut buf = [0u64; NOISE_BLOCK];
        buf.copy_from_slice(&snap.buf);
        NoiseSource {
            rng: ChaCha8Rng::from_state_words(snap.key, snap.counter, snap.word_pos),
            buf,
            pos: snap.pos,
        }
    }

    #[inline]
    fn next_raw(&mut self) -> u64 {
        if self.pos == NOISE_BLOCK {
            for slot in &mut self.buf {
                *slot = self.rng.next_u64();
            }
            self.pos = 0;
        }
        let word = self.buf[self.pos];
        self.pos += 1;
        word
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision — bit-identical to
    /// `rng.gen::<f64>()` on the same stream position.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[-1, 1)` — bit-identical to
    /// `rng.gen_range(-1.0..1.0)` on the same stream position.
    #[inline]
    pub fn symmetric(&mut self) -> f64 {
        -1.0 + self.unit() * 2.0
    }
}

/// A plain-data image of a [`NoiseSource`]'s state, used by the checkpoint
/// layer. `buf` always holds exactly [`NOISE_BLOCK`] words (the checkpoint
/// parser enforces this before [`NoiseSource::from_snapshot`] runs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NoiseSnapshot {
    /// ChaCha key words.
    pub key: [u32; 8],
    /// ChaCha block counter.
    pub counter: u64,
    /// Next unread word index in the generator's current block.
    pub word_pos: usize,
    /// The buffered `u64` words (length [`NOISE_BLOCK`]).
    pub buf: Vec<u64>,
    /// Next unconsumed index into `buf`; [`NOISE_BLOCK`] = empty.
    pub pos: usize,
}

/// Number of buffered words a [`NoiseSnapshot`] must carry.
pub(crate) const NOISE_SNAPSHOT_WORDS: usize = NOISE_BLOCK;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn rng_is_deterministic() {
        let mut a = new_rng(123);
        let mut b = new_rng(123);
        for _ in 0..16 {
            assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = new_rng(1);
        let mut b = new_rng(2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn derived_streams_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..256 {
            assert!(
                seen.insert(derive_seed(42, stream)),
                "collision at {stream}"
            );
        }
    }

    #[test]
    fn derive_is_stable_across_calls() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn buffered_noise_replays_the_per_decision_draws() {
        // the k-th buffered draw must be bit-identical to the k-th direct
        // gen_range / gen draw on the same stream, across refill boundaries
        let mut direct = new_rng(99);
        let mut buffered = NoiseSource::from_seed(99);
        for k in 0..3 * super::NOISE_BLOCK {
            if k % 2 == 0 {
                let a: f64 = direct.gen_range(-1.0..1.0);
                assert_eq!(a.to_bits(), buffered.symmetric().to_bits(), "draw {k}");
            } else {
                let a: f64 = direct.gen();
                assert_eq!(a.to_bits(), buffered.unit().to_bits(), "draw {k}");
            }
        }
    }

    #[test]
    fn snapshot_restores_mid_buffer_draw_sequence() {
        // interrupt a draw sequence mid-buffer, restore, and check the
        // restored source replays the rest of the stream bit-identically
        let mut original = NoiseSource::from_seed(17);
        for _ in 0..super::NOISE_BLOCK + 13 {
            let _ = original.symmetric();
        }
        let snap = original.snapshot();
        let mut restored = NoiseSource::from_snapshot(&snap);
        for k in 0..2 * super::NOISE_BLOCK {
            assert_eq!(
                original.symmetric().to_bits(),
                restored.symmetric().to_bits(),
                "draw {k}"
            );
        }
    }

    #[test]
    fn reset_discards_buffered_words() {
        let mut a = NoiseSource::from_seed(4);
        let _ = a.symmetric(); // fills a block, consumes one word
        a.reset();
        // after the reset the next draw comes from a fresh block at the
        // stream's advanced position, not from the discarded buffer
        let mut reference = new_rng(4);
        for _ in 0..super::NOISE_BLOCK {
            let _ = reference.next_u64();
        }
        assert_eq!(
            a.symmetric().to_bits(),
            ((-1.0) + ((reference.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) * 2.0)
                .to_bits()
        );
    }
}
