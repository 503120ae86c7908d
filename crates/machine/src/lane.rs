//! The one p-bit lane kernel.
//!
//! A *lane* is one replica's books over one [`IsingModel`]: `±1.0` spins,
//! the incrementally maintained local fields `I_i = Σ_j J_ij s_j + h_i`,
//! the energy and a flip counter. Every sweep of every engine runs here: a
//! [`ReplicaBatch`](crate::ReplicaBatch) holds `R` lanes' books lane-major
//! and borrows one [`Lane`] view at a time (the ensemble, PT, SA and greedy
//! descent all sweep batch lanes). So every per-lane step exists once:
//!
//! - the coin-flip init and the field and energy computation
//!   ([`Lane::randomize`], [`Lane::recompute_books`]);
//! - the Gibbs scan ([`Lane::scan_gibbs`]): the blocked settled scan
//!   ([`settled_run`]) and the three-tier decision ([`gibbs_up`]; the
//!   tiers and the RNG-consumption contract are described on
//!   [`ReplicaBatch`](crate::ReplicaBatch));
//! - the Metropolis sweep ([`Lane::metropolis`]);
//! - the greedy sweep ([`Lane::greedy`]);
//! - the flip and its field propagation ([`Lane::flip`]);
//! - the checkpoint gather and scatter ([`MachineSnapshot::gather`],
//!   [`Lane::restore`]).
//!
//! Every lane sweeps the same way: the plain scan over every spin, with
//! one-pass flip propagation. Every noise draw comes from the lane's
//! block-buffered [`NoiseSource`], the one noise path. The hidden
//! test-support `PbitMachine` is one more caller of this kernel (one lane
//! with its own books), kept as the serial replay reference and the home
//! of the exact-`tanh` oracle.

use crate::bracket::gibbs_decision;
use crate::rng::NoiseSource;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use saim_ising::{Couplings, IsingModel, SpinState};

/// Beyond this drive, `tanh(x)` rounds to exactly `±1.0` in `f64`
/// (`2e^{-2x} < 2^{-53}` ulp), and `sign(±1 + u)` with `u ∈ [-1, 1)` is the
/// sign of the saturated activation for every drawable `u` — the update is
/// deterministic, so both the tanh and the noise draw are skipped. This is
/// exact, not approximate: cold sweeps (large `β·I`) cost a compare instead
/// of a transcendental plus an RNG advance.
pub(crate) const SATURATION: f64 = 20.0;

/// Relative pad (`1 + 2⁻¹⁶`) on the per-spin saturation classification: a
/// spin counts as *never-saturating* at β only when `β · D_i · CLASS_PAD`
/// stays below [`SATURATION`], where `D_i = |h_i| + Σ_j |J_ij|` bounds the
/// true local field ([`IsingModel::drive_bounds`]).
///
/// The pad is what makes dropping the per-update saturation compares sound:
/// the incrementally-maintained field can exceed the real bound only by
/// accumulated rounding — about one part in 2⁵² per neighbour flip — so the
/// classification would need on the order of 2³⁶ flips *of one spin's
/// neighbours between resyncs* to be breached, far beyond any realizable
/// run. The oracle replay proptests and the determinism suites pin the
/// contract empirically.
pub(crate) const CLASS_PAD: f64 = 1.0 + 1.0 / (1u64 << 16) as f64;

/// Upward pad on the settled-filter thresholds: `field · spin ≥
/// (SATURATION / β) · SETTLE_PAD_UP` *certifies* `β · field · spin ≥
/// SATURATION` despite the rounding of the division and the final multiply
/// (the products themselves are exact — spin is ±1.0) — so a spin passing
/// the settled test provably takes the exact kernel's deterministic
/// short-circuit with no flip and no draw, independent of any
/// classification. Division rounding can only make the filter
/// conservative: a settled spin that fails it merely pays the exact
/// compares.
const SETTLE_PAD_UP: f64 = 1.0 + 16.0 * f64::EPSILON;

/// The settled-scan threshold at `beta`: `field · spin ≥` it certifies the
/// spin saturated *and* aligned (see [`SETTLE_PAD_UP`]), independent of any
/// per-spin bound, so one scalar serves a whole scan. β = 0 maps to +∞
/// (nothing settles).
fn settle_threshold(beta: f64) -> f64 {
    if beta > 0.0 {
        (SATURATION / beta) * SETTLE_PAD_UP
    } else {
        f64::INFINITY
    }
}

/// Plain-data image of one lane's books — exact field and energy values
/// included — used by the checkpoint layer. The fields must be the
/// *incrementally maintained* values, not a recompute: a recomputed field
/// is summed in a different association order, so resuming through a
/// resync would fork the trajectory from the uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MachineSnapshot {
    /// Spin values in index order.
    pub spins: SpinState,
    /// Incrementally-maintained local fields, exact.
    pub fields: Vec<f64>,
    /// Incrementally-maintained energy, exact.
    pub energy: f64,
    /// Lifetime flip counter.
    pub flips: u64,
}

impl MachineSnapshot {
    /// Gathers one lane's books: the layout-independent image both engines
    /// write, so a checkpoint taken by one restores under the other.
    pub(crate) fn gather(spins: &[f64], fields: &[f64], energy: f64, flips: u64) -> Self {
        MachineSnapshot {
            spins: SpinState::from_signs(spins),
            fields: fields.to_vec(),
            energy,
            flips,
        }
    }
}

/// A mutable view of one lane's books: the spin and field vectors, energy
/// and flip count, plus the per-spin drive bounds its Gibbs decisions
/// classify against. Every sweep of every engine runs through these
/// methods; see the [module docs](self).
pub(crate) struct Lane<'a> {
    pub spins: &'a mut [f64],
    pub fields: &'a mut [f64],
    pub energy: &'a mut f64,
    pub flips: &'a mut u64,
    /// `D_i = |h_i| + Σ_j |J_ij|` per spin ([`IsingModel::drive_bounds`]);
    /// read only by the Gibbs paths.
    pub drive_bounds: &'a [f64],
}

impl Lane<'_> {
    /// Draws a uniformly random state — one `rng.gen::<bool>()` coin flip
    /// per spin, in index order — and recomputes the books for it.
    pub(crate) fn randomize(&mut self, model: &IsingModel, rng: &mut ChaCha8Rng) {
        for s in self.spins.iter_mut() {
            *s = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        }
        self.recompute_books(model);
    }

    /// Recomputes every local field from the spins (one blocked row-dot
    /// per spin: O(N²) dense, O(nnz) sparse) and, in the same pass, the
    /// energy `H = offset − ½ Σ_i s_i (I_i + h_i)`.
    pub(crate) fn recompute_books(&mut self, model: &IsingModel) {
        let couplings = model.couplings();
        let mut acc = 0.0;
        for (i, &h) in model.fields().iter().enumerate() {
            let field = couplings.row_dot_f64(i, self.spins) + h;
            self.fields[i] = field;
            acc += self.spins[i] * (field + h);
        }
        *self.energy = model.offset() - 0.5 * acc;
    }

    /// Installs a [`MachineSnapshot`] verbatim — stored fields and energy
    /// included, **no resync** (see the snapshot's docs for why).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's length does not match the lane's (the
    /// checkpoint loader validates sizes first).
    pub(crate) fn restore(&mut self, snap: &MachineSnapshot) {
        assert_eq!(
            snap.spins.len(),
            self.spins.len(),
            "snapshot length mismatch"
        );
        assert_eq!(
            snap.fields.len(),
            self.fields.len(),
            "snapshot field mismatch"
        );
        for (s, &v) in self.spins.iter_mut().zip(snap.spins.values()) {
            *s = f64::from(v);
        }
        self.fields.copy_from_slice(&snap.fields);
        *self.energy = snap.energy;
        *self.flips = snap.flips;
    }

    /// The serial-shaped Gibbs scan over every spin: a blocked settled
    /// scan skips whole runs of settled spins, then each unsettled spin
    /// takes the three-tier decision ([`gibbs_up`]) and flips in place.
    pub(crate) fn scan_gibbs(&mut self, couplings: &Couplings, noise: &mut NoiseSource, beta: f64) {
        let settle = settle_threshold(beta);
        let n = self.spins.len();
        let mut i = 0;
        while i < n {
            // a whole run of settled spins — each of which the exact rule
            // keeps with no draw — costs one blocked multiply-compare per
            // spin; never-saturating spins can never pass the test (their
            // field bound sits below `SATURATION / β`), so they always
            // stop it
            i += settled_run(&self.fields[i..n], &self.spins[i..n], settle);
            // then a run of unsettled spins — the hot knapsack slack bits
            // sit on consecutive indices, so deciding them in one tight
            // loop (one settled re-test per spin, fields re-read after any
            // flip) avoids re-entering the scan per decision
            while i < n {
                if self.fields[i] * self.spins[i] >= settle {
                    break;
                }
                let up = gibbs_up(beta, self.fields[i], self.drive_bounds[i], || {
                    noise.symmetric()
                });
                if up != (self.spins[i] > 0.0) {
                    self.flip(couplings, i);
                }
                i += 1;
            }
        }
    }

    /// One Metropolis sweep: proposes every spin in order and accepts with
    /// probability `min(1, exp(-β ΔH))`; the accept test draws only when
    /// `ΔH > 0`.
    pub(crate) fn metropolis(&mut self, couplings: &Couplings, noise: &mut NoiseSource, beta: f64) {
        for i in 0..self.spins.len() {
            let delta_h = 2.0 * self.spins[i] * self.fields[i];
            if delta_h <= 0.0 || noise.unit() < (-beta * delta_h).exp() {
                self.flip(couplings, i);
            }
        }
    }

    /// One greedy sweep — the β → ∞, zero-noise limit: flips, in order,
    /// every spin whose flip strictly lowers the energy. Draws nothing and
    /// never reads the drive bounds. Returns the number of spins flipped.
    pub(crate) fn greedy(&mut self, couplings: &Couplings) -> usize {
        let mut changed = 0;
        for i in 0..self.spins.len() {
            let delta_h = 2.0 * self.spins[i] * self.fields[i];
            if delta_h < 0.0 {
                self.flip(couplings, i);
                changed += 1;
            }
        }
        changed
    }

    /// Flips spin `i` and keeps the books: the energy (`ΔH = 2 s_i I_i`),
    /// the spin, the flip count, and the one-pass coupling-row propagation
    /// into the fields ([`Couplings::row_axpy`]).
    #[inline(always)]
    pub(crate) fn flip(&mut self, couplings: &Couplings, i: usize) {
        let old = self.spins[i];
        *self.energy += 2.0 * old * self.fields[i];
        self.spins[i] = -old;
        *self.flips += 1;
        let delta = -2.0 * old; // new - old spin value
        couplings.row_axpy(i, delta, self.fields);
    }
}

/// Length of the leading *settled run*: the largest `k` such that
/// `fields[j] · spins[j] ≥ thresh` for every `j < k`.
///
/// The hot loop of the settled scan: whole blocks of 8 spins are tested
/// with a branchless compare-count the compiler keeps in vector registers,
/// and only the breaking block is refined element-wise. Purely a read-only
/// count — the caller decides the first unsettled spin through the full
/// kernel, so blocking can never change a decision or a draw.
#[inline(always)]
pub(crate) fn settled_run(fields: &[f64], spins: &[f64], thresh: f64) -> usize {
    const BLOCK: usize = 8;
    let n = fields.len();
    let mut i = 0;
    while i + BLOCK <= n {
        let f: &[f64; BLOCK] = fields[i..i + BLOCK].try_into().expect("blocked slice");
        let s: &[f64; BLOCK] = spins[i..i + BLOCK].try_into().expect("blocked slice");
        let mut settled = 0u32;
        for lane in 0..BLOCK {
            settled += u32::from(f[lane] * s[lane] >= thresh);
        }
        if settled != BLOCK as u32 {
            break;
        }
        i += BLOCK;
    }
    while i < n && fields[i] * spins[i] >= thresh {
        i += 1;
    }
    i
}

/// The three-tier Gibbs decision for one spin the settled scan left
/// undecided (tiers 1–3 in [`ReplicaBatch`](crate::ReplicaBatch)'s docs):
/// whether the spin comes up, given its local `field`, its drive bound
/// `D_i` and the inverse temperature.
///
/// A spin whose drive bound can reach saturation at this β runs the exact
/// saturation compares, which decide without a draw past `±SATURATION`;
/// never-saturating spins — the hot regime's majority — go straight to
/// the drawn bracket decision ([`gibbs_decision`]). `noise` is called
/// exactly once on the drawn path and never otherwise, which is the
/// kernel's RNG-consumption contract: the kernel replays the exact-`tanh`
/// rule bit-for-bit.
#[inline(always)]
pub(crate) fn gibbs_up(
    beta: f64,
    field: f64,
    drive_bound: f64,
    noise: impl FnOnce() -> f64,
) -> bool {
    let drive = beta * field;
    if beta * drive_bound * CLASS_PAD >= SATURATION {
        if drive >= SATURATION {
            return true;
        }
        if drive <= -SATURATION {
            return false;
        }
    }
    gibbs_decision(drive, noise())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settled_run_counts_leading_settled_prefix() {
        // blocked and element-wise refinement must agree with the naive
        // definition across block boundaries
        let thresh = 2.0;
        for break_at in [0usize, 1, 7, 8, 9, 15, 16, 20] {
            let n = 21;
            let fields: Vec<f64> = (0..n)
                .map(|i| if i == break_at { 1.0 } else { 3.0 })
                .collect();
            let spins = vec![1.0; n];
            assert_eq!(settled_run(&fields, &spins, thresh), break_at, "{break_at}");
        }
        assert_eq!(settled_run(&[], &[], 1.0), 0);
        assert_eq!(settled_run(&[5.0; 19], &[1.0; 19], 2.0), 19);
    }
}
