//! Batched lane-major multi-replica sweep engine.
//!
//! [`ReplicaBatch`] advances `R` replicas of **one** [`IsingModel`] through
//! Monte Carlo sweeps together. Every lane is a view of the one lane kernel
//! in [`crate::lane`] — the code a [`PbitMachine`](crate::PbitMachine)
//! sweeps its single lane with — over its own contiguous plane slice. The
//! batch keeps only its sweep policy on top of that kernel:
//!
//! - **settled-set lists**: a quenched lane at a held β visits only a short
//!   candidate list while a slack budget proves every other spin settled;
//! - **split flip propagation**: in wide batches of large models the
//!   **backward half of every flip's propagation is deferred into a
//!   per-sweep flip buffer and applied at the end of the sweep in one
//!   coalesced pass**, spin-by-spin across all lanes, so a coupling row that
//!   several lanes flipped is loaded once and reused.
//!
//! # Memory layout
//!
//! All per-replica data is *lane-major*: lane `r` owns the contiguous
//! slices `spins[r·n .. (r+1)·n]` and `fields[r·n .. (r+1)·n]` — each lane
//! is bit-for-bit the spin/field vector of a serial machine on its stream:
//!
//! ```text
//!           lane 0 (n floats)      lane 1 (n floats)
//! spins  = [ s₀⁰ s₁⁰ … sₙ₋₁⁰ | s₀¹ s₁¹ … sₙ₋₁¹ | … ]   (±1.0 floats)
//! fields = [ I₀⁰ I₁⁰ … Iₙ₋₁⁰ | I₀¹ I₁¹ … Iₙ₋₁¹ | … ]
//! ```
//!
//! The previous spin-major `n × R` plane (`i·R + r`) optimized for the
//! broadcast write `fields[j·R + r] += J_ij · delta[r]` — but that shape
//! loses whenever lanes flip *different* spins, which is the common case:
//! an uncorrelated single-lane flip either strides the whole plane (one
//! useful f64 per 64-byte line) or broadcasts `±0.0` adds over the full
//! slab (`R×` the memory traffic of one lane). In the lane-major layout
//! every per-lane operation — the settled scan, the forward suffix
//! propagation, the deferred prefix pass, checkpoint gather/scatter, and
//! the parallel-tempering lane swaps — streams a contiguous vector, so a
//! lane's plane slice is exactly the slice shape the lane kernel takes,
//! each lane costs what a serial sweep costs, and the batch wins by sharing
//! the coupling row between lanes. This is also the layout the planned GPU
//! batch sweep wants: one lane per thread block row, coalesced loads along
//! the spin axis, the coupling row broadcast from shared memory.
//!
//! # Split flip propagation and the flip buffer
//!
//! A serial flip of spin `i` applies `fields[j] += J_ij · delta` for every
//! `j` in ascending order, in one pass. The lane scan splits that row pass
//! at `i`:
//!
//! * **suffix** (`j ≥ i`): applied immediately
//!   ([`Couplings::row_axpy_suffix`]) — these are the fields the scan has
//!   yet to read this sweep, so they must be current;
//! * **prefix** (`j < i`): recorded in the flip buffer as
//!   `(spin, lane, delta)` and applied after every lane has finished its
//!   scan ([`Couplings::row_axpy_prefix`]) — the scan never re-reads
//!   `fields[j < i]` within a sweep, so deferral is invisible to every
//!   decision.
//!
//! The end-of-sweep pass sorts the buffer by spin and walks it groupwise:
//! row `i` is fetched once and applied to every lane that flipped spin `i`
//! this sweep. The buffer invariants that make this bit-exact:
//!
//! 1. a lane records at most one entry per spin per sweep (one visit per
//!    spin per sweep), appended in ascending spin order;
//! 2. the sort groups by spin and per lane preserves ascending spin order
//!    (cross-lane order within a spin group is irrelevant — lanes' planes
//!    are disjoint);
//! 3. `fields[j]` therefore receives this sweep's adds from flips at
//!    `i ≤ j` immediately (ascending `i`) and from flips at `i > j` in the
//!    deferred pass (ascending `i`) — the same adds in the same order as
//!    the one-pass propagation's chronological `i = 0, 1, …, n-1` pass, so
//!    every field is **bitwise identical** to the serial replay, signed
//!    zeros included;
//! 4. the buffer is empty between sweeps — checkpoints only ever observe
//!    fully-propagated fields, so per-lane snapshot images are unaffected
//!    by the deferral.
//!
//! Single-lane batches and cache-resident models skip the buffer entirely
//! (see `SPLIT_MIN_LEN`): every one-lane group of both batched engines — a
//! width-1 ensemble group (`batch_width: 1`, or the adaptive width on a
//! pool with as many workers as replicas) and a narrow parallel-tempering
//! ladder group alike — propagates each flip in one full-row pass
//! ([`Couplings::row_axpy`]).
//!
//! # Decision kernel
//!
//! Per lane the decisions are the lane kernel's three-tier rule (tiers
//! described on [`PbitMachine`](crate::PbitMachine)): the blocked settled
//! scan, per-spin saturation classification from the model's drive bounds,
//! and the certified tanh bracket ([`crate::bracket`]) on everything else.
//! The batch holds one shared `drive_bounds` vector (the bound depends only
//! on the model) and runs each lane against it at that lane's β.
//!
//! # RNG-stream layout
//!
//! Replica lane `r` owns the ChaCha8 stream seeded with `seeds[r]`,
//! consumed by the one lane init and sweep code: `n` coin flips for the
//! initial state, then one block-buffered `U(-1, 1)` draw per undecided
//! spin in spin order (see [`NoiseSource`] for why buffering preserves the
//! draw order). Lanes never share a stream, so the batch width and the
//! processing order of other lanes cannot influence a lane's trajectory.
//!
//! # Batch-width invariance
//!
//! Replica `r`'s trajectory — every spin, field, energy and flip count —
//! is identical whether it runs in a batch of 1, a batch of 8, or on a
//! serial [`PbitMachine`](crate::PbitMachine) fed the same stream: lanes
//! are data-disjoint, decisions use only lane-`r` data, and the split
//! propagation applies the one-pass adds in the one-pass order (see the
//! flip buffer invariants above). The machine crate's proptests assert the
//! contract for R = 1 vs R = 8 vs serial replay, on dense and CSR models,
//! including n = 0/1 and widths that are not a multiple of any block size.
//! Since both sides of that replay call the same lane kernel, the kernel
//! itself is pinned by the exact-`tanh` oracle replays
//! (`tests/bracket_cert.rs`) and by the recorded golden trajectories in
//! `tests/determinism.rs`.
//!
//! ```
//! use saim_ising::QuboBuilder;
//! use saim_machine::{derive_seed, ReplicaBatch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = QuboBuilder::new(4);
//! for i in 0..4 { b.add_linear(i, -1.0)?; }
//! let model = b.build().to_ising();
//! let seeds: Vec<u64> = (0..8).map(|r| derive_seed(3, r)).collect();
//! let mut batch = ReplicaBatch::new(&model, &seeds);
//! for _ in 0..50 {
//!     batch.sweep_uniform(&model, 6.0);
//! }
//! // every replica of this trivial model reaches the ground state
//! for r in 0..batch.width() {
//!     assert!((batch.energy(r) - (-4.0)).abs() < 1e-9);
//! }
//! # Ok(())
//! # }
//! ```

use crate::lane::{settle_threshold, FlipRec, Lane, MachineSnapshot};
use crate::rng::{NoiseSnapshot, NoiseSource};
use saim_ising::{Couplings, IsingModel, SpinState};

/// Split flip propagation (suffix now, prefix deferred to the coalesced
/// drain) engages only when one dense coupling row outgrows the caches:
/// below this size the whole matrix stays resident, the drain's row reuse
/// saves nothing, and the second pass plus sort measurably lose to the
/// serial one-pass propagation (5–15% on the n = 213 bench model).
const SPLIT_MIN_LEN: usize = 1024;

/// A lane keeps its settled-set candidate list only while at most
/// `n / ACTIVE_DIV` spins are unsettled — beyond that the masked visit
/// approaches a full scan and the bookkeeping is pure overhead.
const ACTIVE_DIV: usize = 8;

/// Multiplicative pad on the per-flip slack charge `2 · max_j |J_ij|`,
/// covering the (exact-in-theory) product's headroom with margin to spare.
const CHARGE_PAD: f64 = 1.0 + 1e-9;

/// Absolute per-flip pad, in units of the model's global field bound:
/// one field update `f += J · ±2` rounds by at most
/// `ε · (|f| + 2 max|J|) ≈ 2.2e-16 · field_bound`, and the rebuild's margin
/// subtraction rounds once by the same order — `1e-12 · field_bound` per
/// flip dominates both by four orders of magnitude.
const CHARGE_ABS: f64 = 1e-12;

/// Target lifetime, in worst-case flips, of a freshly rebuilt settled set.
///
/// A list of *only* the unsettled spins can be worthless: on quenched
/// knapsack models the binary-weighted slack bits leave a few settled
/// spins barely over threshold, so the budget (the smallest out-of-list
/// margin) dies after one flip and the lane thrashes between masked
/// visits, fallback scans, and rebuilds. The rebuild therefore absorbs
/// near-threshold *settled* spins into the list too, widening the guard
/// band until the out-of-list margin would survive `GUARD_HORIZON`
/// worst-case flips. The band is auto-tuned by trying geometric rungs
/// `L, L/4, L/16, L/64` (with `L = GUARD_HORIZON · c_max`, `c_max` the
/// largest per-flip charge among unsettled spins) and keeping the widest
/// rung whose list still fits `n / ACTIVE_DIV`; typical flips charge far
/// less than `c_max`, so accepted budgets usually last much longer than
/// the nominal horizon.
const GUARD_HORIZON: f64 = 64.0;

/// A settled-set list must survive this many masked sweeps to pay for its
/// rebuild scan; a list that dies younger puts its lane on rebuild
/// cooldown instead of rebuilding straight away.
const MIN_LIST_AGE: u32 = 8;

/// Plain sweeps a lane waits after a short-lived list or an abandoned
/// rebuild before trying another one. Hot lanes flip spins faster than
/// any slack budget survives; without this back-off they would pay a
/// masked visit, a fallback scan, *and* a rebuild every sweep — slower
/// than never masking at all.
const REBUILD_COOLDOWN: u32 = 256;

/// `R` replicas of one Ising model in lane-major layout, advanced by
/// batched Monte Carlo sweeps with coalesced flip propagation.
///
/// See the [module docs](self) for the memory layout, the flip-buffer
/// invariants, the RNG-stream layout and the batch-width-invariance
/// contract.
#[derive(Debug, Clone)]
pub struct ReplicaBatch {
    n: usize,
    width: usize,
    /// `±1.0` spin planes, lane-major: lane `r` of spin `i` at `r * n + i`.
    spins: Vec<f64>,
    /// Local-field planes `I_i = Σ_j J_ij s_j + h_i`, same indexing.
    fields: Vec<f64>,
    /// Per-replica model energy, maintained incrementally.
    energies: Vec<f64>,
    /// Per-replica flip counters.
    flips: Vec<u64>,
    /// Per-replica noise streams (block-buffered ChaCha8).
    streams: Vec<NoiseSource>,
    /// Scratch: per-lane β for the uniform-temperature sweeps.
    betas_uniform: Vec<f64>,
    /// Per-spin drive bounds `D_i = |h_i| + Σ_j |J_ij|` of the construction
    /// model (a batch is bound to one model for its lifetime): every lane's
    /// Gibbs scan classifies undecided spins from them on demand. The bound
    /// depends only on the model, so one vector serves all lanes.
    drive_bounds: Vec<f64>,
    /// The per-sweep flip buffer: backward (`j < i`) propagation owed by
    /// this sweep's flips, drained by the end-of-sweep coalesced pass.
    /// Empty between sweeps (flip-buffer invariant 4).
    flip_log: Vec<FlipRec>,
    /// Per-lane settled-set candidate lists (ascending spin indices): while
    /// `slack[r] > 0`, every spin *not* in `active[r]` is provably settled
    /// at threshold `active_settle[r]`, so the sweep may skip the full scan
    /// and visit only the list (see the module docs for the slack-budget
    /// proof).
    active: Vec<Vec<u32>>,
    /// The settle threshold each lane's active list certifies against;
    /// `NaN` marks the list invalid (compared bitwise, so a β change of any
    /// size invalidates).
    active_settle: Vec<f64>,
    /// Per-lane remaining slack budget: the minimum settled margin observed
    /// at the last rebuild, minus a conservative charge for every flip
    /// since. Non-positive means out-of-list spins are no longer provably
    /// settled.
    slack: Vec<f64>,
    /// The settle threshold of each lane's previous Gibbs sweep (`NaN`
    /// before the first): rebuilds only trigger while β is stable across
    /// consecutive sweeps, so annealed schedules never pay the rebuild
    /// scan.
    last_settle: Vec<f64>,
    /// Per-lane rebuild requests, honoured after the flip-buffer drain (the
    /// rebuild scan must observe fully-propagated fields).
    rebuild: Vec<bool>,
    /// Masked sweeps each lane's current list has survived — lists dying
    /// under [`MIN_LIST_AGE`] trigger the rebuild cooldown.
    age: Vec<u32>,
    /// Plain sweeps left before lane `r` may request another rebuild
    /// ([`REBUILD_COOLDOWN`]).
    cooldown: Vec<u32>,
    /// `max_j |J_ij|` per spin — the bound on how far one flip of `i` can
    /// move any other spin's field, the slack-budget charge. An O(n²) pass
    /// on dense models, so it stays empty until a lane first needs it
    /// ([`ReplicaBatch::ensure_row_max_abs`]): an annealed schedule never
    /// builds a settled-set list, so it never pays for the table.
    row_max_abs: Vec<f64>,
    /// `max_i D_i`, a global bound on every `|field|` this model can
    /// produce; scales the absolute rounding pad of the slack charges.
    field_bound: f64,
    /// Test/bench override for the split-propagation policy
    /// ([`ReplicaBatch::force_split_propagation`]).
    split_override: Option<bool>,
}

impl ReplicaBatch {
    /// Builds a batch of `seeds.len()` replicas, lane `r` initialized from
    /// the stream seeded `seeds[r]` exactly like a serial
    /// [`PbitMachine::new`](crate::PbitMachine::new): the one lane init
    /// ([`Lane::randomize`]) — `n` coin flips for the state, then one
    /// blocked row-dot per spin for the fields.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new(model: &IsingModel, seeds: &[u64]) -> Self {
        let streams = seeds.iter().map(|&s| NoiseSource::from_seed(s)).collect();
        let mut batch = Self::with_streams(model, streams);
        for r in 0..batch.width {
            // the buffer is still empty, so the coin flips read the raw
            // stream exactly as a serial machine's construction does
            let (mut lane, stream) = batch.lane(r);
            lane.randomize(model, stream.rng_mut());
        }
        batch
    }

    /// Captures lane `r`'s complete trajectory state — spins, exact
    /// incrementally-maintained fields and energy, flip counter, and the
    /// lane's noise-stream state — for the checkpoint layer.
    ///
    /// The snapshot is the layout-independent lane image a
    /// [`PbitMachine`](crate::PbitMachine) writes too (the lane-major plane
    /// slice gathered into per-lane vectors), so checkpoints written by one
    /// plane layout restore under any other.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub(crate) fn lane_snapshot(&self, r: usize) -> (MachineSnapshot, NoiseSnapshot) {
        assert!(r < self.width, "lane index out of bounds");
        let lane = r * self.n..(r + 1) * self.n;
        (
            MachineSnapshot::gather(
                &self.spins[lane.clone()],
                &self.fields[lane],
                self.energies[r],
                self.flips[r],
            ),
            self.streams[r].snapshot(),
        )
    }

    /// Rebuilds a batch from per-lane snapshots **without recomputing the
    /// books**: each lane installs its snapshot verbatim ([`Lane::restore`]),
    /// so the restored batch continues every lane's trajectory
    /// bit-identically. Snapshots are per-lane images, so this is a pure
    /// scatter at the checkpoint boundary — the plane layout never leaks
    /// into the format.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or a snapshot's length does not match
    /// `model.len()` (the checkpoint loader validates sizes first).
    pub(crate) fn from_lane_snapshots(
        model: &IsingModel,
        lanes: &[(MachineSnapshot, NoiseSnapshot)],
    ) -> Self {
        let streams = lanes
            .iter()
            .map(|(_, noise)| NoiseSource::from_snapshot(noise))
            .collect();
        let mut batch = Self::with_streams(model, streams);
        for (r, (machine, _)) in lanes.iter().enumerate() {
            batch.lane(r).0.restore(machine);
        }
        batch
    }

    /// A batch with one lane per stream and zeroed books, for the lane init
    /// or a snapshot scatter to fill.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty.
    fn with_streams(model: &IsingModel, streams: Vec<NoiseSource>) -> Self {
        assert!(
            !streams.is_empty(),
            "a batch needs at least one replica lane"
        );
        let n = model.len();
        let width = streams.len();
        let drive_bounds = model.drive_bounds();
        let field_bound = drive_bounds.iter().fold(0.0_f64, |a, &b| a.max(b));
        ReplicaBatch {
            n,
            width,
            spins: vec![0.0; n * width],
            fields: vec![0.0; n * width],
            energies: vec![0.0; width],
            flips: vec![0; width],
            streams,
            betas_uniform: vec![0.0; width],
            drive_bounds,
            flip_log: Vec::new(),
            active: vec![Vec::new(); width],
            active_settle: vec![f64::NAN; width],
            slack: vec![0.0; width],
            last_settle: vec![f64::NAN; width],
            rebuild: vec![false; width],
            age: vec![0; width],
            cooldown: vec![0; width],
            row_max_abs: Vec::new(),
            field_bound,
            split_override: None,
        }
    }

    /// Number of replica lanes `R`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of spins per replica.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the model has zero spins.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The current model energy of replica `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn energy(&self, r: usize) -> f64 {
        self.energies[r]
    }

    /// Total spin flips replica `r` has performed.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn flips(&self, r: usize) -> u64 {
        self.flips[r]
    }

    /// The current local field `I_i` of spin `i` in replica `r`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `r` is out of bounds.
    pub fn local_field(&self, r: usize, i: usize) -> f64 {
        assert!(r < self.width, "lane index out of bounds");
        assert!(i < self.n, "spin index out of bounds");
        self.fields[r * self.n + i]
    }

    /// The spin configuration of replica `r` as a fresh [`SpinState`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn state(&self, r: usize) -> SpinState {
        assert!(r < self.width, "lane index out of bounds");
        SpinState::from_signs(&self.spins[r * self.n..(r + 1) * self.n])
    }

    /// Gathers replica `r`'s spins into `out` without allocating — the
    /// best-state tracking path.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds or `out.len() != self.len()`.
    pub fn copy_state_into(&self, r: usize, out: &mut SpinState) {
        assert!(r < self.width, "lane index out of bounds");
        out.copy_from_signs(&self.spins[r * self.n..(r + 1) * self.n]);
    }

    /// Exchanges the full replica payload (spins, fields, energy, flips) of
    /// lanes `a` and `b`. Noise streams stay attached to their lanes — the
    /// parallel-tempering exchange semantics, where machines move between
    /// ladder slots but each slot keeps its stream. In the lane-major
    /// layout this is two contiguous `n`-vector swaps.
    ///
    /// # Panics
    ///
    /// Panics if either lane is out of bounds.
    pub fn swap_lanes(&mut self, a: usize, b: usize) {
        assert!(a < self.width && b < self.width, "lane index out of bounds");
        if a == b {
            return;
        }
        let n = self.n;
        let swap_ranges = |v: &mut [f64]| {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            let (head, tail) = v.split_at_mut(hi * n);
            head[lo * n..lo * n + n].swap_with_slice(&mut tail[..n]);
        };
        swap_ranges(&mut self.spins);
        swap_ranges(&mut self.fields);
        self.energies.swap(a, b);
        self.flips.swap(a, b);
        // the settled-set cache describes a configuration at a tagged
        // threshold, so it travels with the payload; a β mismatch in the
        // new slot shows up as a tag mismatch and falls back to the scan
        self.active.swap(a, b);
        self.active_settle.swap(a, b);
        self.slack.swap(a, b);
        self.age.swap(a, b);
    }

    /// [`ReplicaBatch::swap_lanes`] across two batches of the same model —
    /// the cross-group exchange of a ladder partitioned into several
    /// batches.
    ///
    /// # Panics
    ///
    /// Panics if the batches have different spin counts or a lane is out of
    /// bounds.
    pub fn swap_lanes_between(x: &mut ReplicaBatch, a: usize, y: &mut ReplicaBatch, b: usize) {
        assert_eq!(x.n, y.n, "batches must share one model size");
        assert!(a < x.width && b < y.width, "lane index out of bounds");
        let n = x.n;
        x.spins[a * n..(a + 1) * n].swap_with_slice(&mut y.spins[b * n..(b + 1) * n]);
        x.fields[a * n..(a + 1) * n].swap_with_slice(&mut y.fields[b * n..(b + 1) * n]);
        std::mem::swap(&mut x.energies[a], &mut y.energies[b]);
        std::mem::swap(&mut x.flips[a], &mut y.flips[b]);
        std::mem::swap(&mut x.active[a], &mut y.active[b]);
        std::mem::swap(&mut x.active_settle[a], &mut y.active_settle[b]);
        std::mem::swap(&mut x.slack[a], &mut y.slack[b]);
        std::mem::swap(&mut x.age[a], &mut y.age[b]);
    }

    /// One batched Gibbs sweep with per-lane inverse temperatures (the
    /// parallel-tempering shape: lane `r` samples at `betas[r]`).
    ///
    /// Every lane runs the lane kernel's Gibbs scan on its own stream, so
    /// each replays [`PbitMachine::sweep`](crate::PbitMachine::sweep)
    /// bit-for-bit; see the module docs. Width-1 groups of either batched
    /// engine propagate flips in one pass with no flip buffer.
    ///
    /// # Panics
    ///
    /// Panics if `betas.len() != self.width()`.
    pub fn sweep(&mut self, model: &IsingModel, betas: &[f64]) {
        assert_eq!(betas.len(), self.width, "one β per replica lane");
        assert_eq!(self.n, model.len(), "batch built for a different model");
        let couplings = model.couplings();
        if self.split_propagation() {
            for (r, &beta) in betas.iter().enumerate() {
                self.sweep_lane_gibbs::<true>(couplings, r, beta);
            }
            self.apply_deferred(couplings);
        } else {
            // single lanes and cache-resident models take the serial-shaped
            // one-pass propagation; the flip buffer is never touched
            for (r, &beta) in betas.iter().enumerate() {
                self.sweep_lane_gibbs::<false>(couplings, r, beta);
            }
        }
        // rebuilds observe fully-propagated fields, so they run after the
        // drain, against the settle threshold each lane just swept at
        for r in 0..self.width {
            if self.rebuild[r] {
                self.rebuild[r] = false;
                self.rebuild_active(couplings, r, self.last_settle[r]);
            }
        }
    }

    /// Whether multi-lane sweeps split flip propagation through the flip
    /// buffer: only once coupling rows outgrow the caches
    /// ([`SPLIT_MIN_LEN`]) does the drain's cross-lane row reuse pay for
    /// the second pass; an override from
    /// [`ReplicaBatch::force_split_propagation`] wins.
    fn split_propagation(&self) -> bool {
        self.split_override
            .unwrap_or(self.width >= 2 && self.n >= SPLIT_MIN_LEN)
    }

    /// Forces the split-propagation policy for tests and benches. Both
    /// settings are bit-identical (module docs); only throughput differs.
    #[doc(hidden)]
    pub fn force_split_propagation(&mut self, on: bool) {
        self.split_override = Some(on);
    }

    /// One lane's Gibbs sweep. If the lane's settled-set candidate list is
    /// valid for this β it takes the masked visit
    /// ([`ReplicaBatch::masked_lane_gibbs`]); otherwise the serial-shaped
    /// full scan ([`Lane::scan_gibbs`]), which may request a
    /// rebuild of the list when the lane has quenched and β is stable.
    /// Both visit exactly the unsettled spins in ascending order and decide
    /// each with [`Lane::gibbs_update`], so both replay the full scan
    /// bit-for-bit.
    fn sweep_lane_gibbs<const DEFER: bool>(&mut self, couplings: &Couplings, r: usize, beta: f64) {
        let settle = settle_threshold(beta);
        let masked = self.n > 0
            && self.slack[r] > 0.0
            && self.active_settle[r].to_bits() == settle.to_bits();
        if masked {
            self.age[r] = self.age[r].saturating_add(1);
            self.masked_lane_gibbs::<DEFER>(couplings, r, beta, settle);
        } else {
            // this scan can flip any spin without charging the slack
            // budget, so a list built under an earlier β is stale the
            // moment it runs — kill the tag or a later sweep at that β
            // would resume the old certificate against a moved state
            self.active_settle[r] = f64::NAN;
            let (mut lane, stream) = self.lane(r);
            let settled = lane.scan_gibbs::<DEFER, _>(couplings, stream, beta, settle, 0);
            // quenched, β stable for two sweeps, and not cooling off after
            // a short-lived list: invest one predicate scan after the
            // drain to skip the full scan from next sweep on
            let quenched = self.n > 0 && settled >= self.n - self.n / ACTIVE_DIV;
            if self.cooldown[r] > 0 {
                self.cooldown[r] -= 1;
            } else if quenched
                && settle.is_finite()
                && self.last_settle[r].to_bits() == settle.to_bits()
            {
                self.rebuild[r] = true;
            }
        }
        self.last_settle[r] = settle;
    }

    /// Borrows lane `r`'s share of the batch as a [`Lane`] of the lane
    /// kernel — its plane slices, energy and flip count, with the shared
    /// drive bounds and flip buffer — together with the lane's stream.
    #[inline(always)]
    fn lane(&mut self, r: usize) -> (Lane<'_>, &mut NoiseSource) {
        let base = r * self.n;
        (
            Lane {
                spins: &mut self.spins[base..base + self.n],
                fields: &mut self.fields[base..base + self.n],
                energy: &mut self.energies[r],
                flips: &mut self.flips[r],
                drive_bounds: &self.drive_bounds,
                defer_to: Some((r as u32, &mut self.flip_log)),
            },
            &mut self.streams[r],
        )
    }

    /// Builds the slack-charge table `max_j |J_ij|` on first use.
    fn ensure_row_max_abs(&mut self, couplings: &Couplings) {
        if self.row_max_abs.is_empty() {
            self.row_max_abs = (0..self.n).map(|i| couplings.row_max_abs(i)).collect();
        }
    }

    /// The masked Gibbs visit: only the lane's settled-set candidates are
    /// tested — every other spin is provably settled while the slack budget
    /// is positive (module docs), and a settled skip has no observable
    /// effect (no draw, no write), so skipping its certificate test is
    /// invisible. Each candidate re-tests the exact certificate before
    /// deciding, in ascending order, replaying the serial scan bit-for-bit.
    ///
    /// Every flip charges the budget `2 · max_j |J_ij|` (padded): the most
    /// it can move any other spin's field. If the budget runs out
    /// mid-sweep, out-of-list spins beyond that point are no longer
    /// certified — the sweep finishes as a serial-shaped scan from the next
    /// spin and the list is dropped.
    fn masked_lane_gibbs<const DEFER: bool>(
        &mut self,
        couplings: &Couplings,
        r: usize,
        beta: f64,
        settle: f64,
    ) {
        // a list can arrive from another batch through a lane swap
        self.ensure_row_max_abs(couplings);
        let mut fallback = None;
        for k in 0..self.active[r].len() {
            let i = self.active[r][k] as usize;
            let (mut lane, stream) = self.lane(r);
            if lane.fields[i] * lane.spins[i] >= settle {
                continue;
            }
            if lane.gibbs_update::<DEFER, _>(couplings, stream, beta, i) {
                self.slack[r] -=
                    2.0 * self.row_max_abs[i] * CHARGE_PAD + self.field_bound * CHARGE_ABS;
                if self.slack[r] <= 0.0 {
                    fallback = Some(i + 1);
                    break;
                }
            }
        }
        if let Some(from) = fallback {
            // budget exhausted: spins beyond `from` lost their certificate —
            // drop the list and finish this sweep in serial shape (spins
            // before `from` were already visited or certified in time)
            self.active_settle[r] = f64::NAN;
            let (mut lane, stream) = self.lane(r);
            lane.scan_gibbs::<DEFER, _>(couplings, stream, beta, settle, from);
            if self.age[r] >= MIN_LIST_AGE {
                // the list paid for itself — rebuild right after the drain
                // instead of wasting a plain-scan sweep first
                self.rebuild[r] = true;
            } else {
                // died young: this regime flips too fast for any budget
                self.cooldown[r] = REBUILD_COOLDOWN;
            }
        }
    }

    /// Rebuilds lane `r`'s settled-set candidate list against `settle` from
    /// fully-propagated fields.
    ///
    /// Every unsettled spin must join the list, but listing *only* them
    /// seeds the budget with the raw minimum settled margin, which can be
    /// one flip deep (see [`GUARD_HORIZON`]). So the rebuild also pulls
    /// near-threshold settled spins in: it measures every spin's margin
    /// `f·s − settle` (negative ⇔ unsettled), then widens a guard band
    /// over geometric rungs `L, L/4, L/16, L/64` — `L` sized for
    /// [`GUARD_HORIZON`] worst-case flips — keeping the widest band whose
    /// list fits `n / ACTIVE_DIV`. Listed settled spins cost only a failed
    /// certificate re-test per masked sweep; out-of-list spins all clear
    /// the band, so the budget starts at the first margin *beyond* it.
    /// Abandons the list if the unsettled spins alone overflow the cap or
    /// no budget survives the rounding pad.
    fn rebuild_active(&mut self, couplings: &Couplings, r: usize, settle: f64) {
        self.ensure_row_max_abs(couplings);
        let n = self.n;
        let base = r * n;
        let cap = n / ACTIVE_DIV + 1;
        // pessimistic until a list validates: invalid tag, and a cooldown
        // so an abandoned rebuild isn't re-attempted every sweep
        self.active_settle[r] = f64::NAN;
        self.cooldown[r] = REBUILD_COOLDOWN;

        // pass 1: margins for every spin, plus the worst per-flip charge
        // among the unsettled (the only spins guaranteed into the list)
        let mut margins = vec![0.0_f64; n];
        let mut unsettled = 0usize;
        let mut c_max = 0.0_f64;
        for (i, margin) in margins.iter_mut().enumerate() {
            let m = self.fields[base + i] * self.spins[base + i] - settle;
            *margin = m;
            if m < 0.0 {
                unsettled += 1;
                c_max = c_max.max(2.0 * self.row_max_abs[i] * CHARGE_PAD);
            }
        }
        if unsettled > cap {
            return;
        }

        // pass 2: widest guard band whose candidate list fits the cap
        let top = GUARD_HORIZON * (c_max + self.field_bound * CHARGE_ABS);
        for rung in [top, top / 4.0, top / 16.0, top / 64.0] {
            let list = &mut self.active[r];
            list.clear();
            let mut out_min = f64::INFINITY;
            let mut fits = true;
            for (i, &m) in margins.iter().enumerate() {
                if m < rung {
                    if list.len() >= cap {
                        fits = false;
                        break;
                    }
                    list.push(i as u32);
                } else {
                    out_min = out_min.min(m);
                }
            }
            if fits {
                // lower rungs only shrink out_min, so accept or abandon here
                let slack = out_min - self.field_bound * CHARGE_ABS;
                if slack > 0.0 {
                    self.slack[r] = slack;
                    self.active_settle[r] = settle;
                    self.age[r] = 0;
                    self.cooldown[r] = 0;
                }
                return;
            }
        }
    }

    /// Drains the flip buffer: the backward (`j < i`) halves of this
    /// sweep's flip propagations, applied in ascending spin order with the
    /// coupling row of each flipped spin fetched once and reused across
    /// every lane that flipped it. Restores flip-buffer invariant 4 (empty
    /// between sweeps).
    fn apply_deferred(&mut self, couplings: &Couplings) {
        if self.flip_log.is_empty() {
            return;
        }
        let mut log = std::mem::take(&mut self.flip_log);
        // records per lane arrive in ascending spin order and a lane holds
        // at most one record per spin, so grouping by spin preserves each
        // lane's ascending-spin application order (invariants 1–2); the
        // sort key ignores lanes because their planes are disjoint
        log.sort_unstable_by_key(|rec| rec.spin);
        let n = self.n;
        let mut k = 0;
        while k < log.len() {
            let spin = log[k].spin;
            let i = spin as usize;
            let mut end = k + 1;
            while end < log.len() && log[end].spin == spin {
                end += 1;
            }
            for rec in &log[k..end] {
                let base = rec.lane as usize * n;
                couplings.row_axpy_prefix(i, rec.delta, &mut self.fields[base..base + n]);
            }
            k = end;
        }
        log.clear();
        self.flip_log = log;
    }

    /// One batched Gibbs sweep with a single inverse temperature shared by
    /// every lane (the replica-ensemble shape).
    ///
    /// # Panics
    ///
    /// Panics if the batch was built for a different model size.
    pub fn sweep_uniform(&mut self, model: &IsingModel, beta: f64) {
        self.betas_uniform.fill(beta);
        let betas = std::mem::take(&mut self.betas_uniform);
        self.sweep(model, &betas);
        self.betas_uniform = betas;
    }

    /// One batched Metropolis sweep with per-lane inverse temperatures.
    ///
    /// Every lane runs the lane kernel's Metropolis sweep on its own
    /// stream, so each replays
    /// [`PbitMachine::metropolis_sweep`](crate::PbitMachine::metropolis_sweep)
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `betas.len() != self.width()`.
    pub fn metropolis_sweep(&mut self, model: &IsingModel, betas: &[f64]) {
        assert_eq!(betas.len(), self.width, "one β per replica lane");
        assert_eq!(self.n, model.len(), "batch built for a different model");
        let couplings = model.couplings();
        if self.split_propagation() {
            for (r, &beta) in betas.iter().enumerate() {
                let (mut lane, stream) = self.lane(r);
                lane.metropolis::<true, _>(couplings, stream, beta);
            }
            self.apply_deferred(couplings);
        } else {
            for (r, &beta) in betas.iter().enumerate() {
                let (mut lane, stream) = self.lane(r);
                lane.metropolis::<false, _>(couplings, stream, beta);
            }
        }
        // Metropolis flips are not slack-charged, so the settled-set caches
        // are stale after this sweep; drop them
        self.active_settle.fill(f64::NAN);
        self.last_settle.fill(f64::NAN);
    }

    /// One batched Metropolis sweep at a single shared inverse temperature.
    ///
    /// # Panics
    ///
    /// Panics if the batch was built for a different model size.
    pub fn metropolis_sweep_uniform(&mut self, model: &IsingModel, beta: f64) {
        self.betas_uniform.fill(beta);
        let betas = std::mem::take(&mut self.betas_uniform);
        self.metropolis_sweep(model, &betas);
        self.betas_uniform = betas;
    }
}

/// Per-lane best-sample tracking over a [`ReplicaBatch`]'s sweeps.
///
/// Both batched engines (the replica ensemble and the parallel-tempering
/// ladder) keep, for every lane, the lowest-energy state observed after any
/// sweep, with the serial engines' strict-improvement rule (`<`, so the
/// earliest sample wins ties). Centralizing the rule here keeps the two
/// engines from drifting apart.
#[derive(Debug, Clone)]
pub(crate) struct LaneBests {
    energies: Vec<f64>,
    states: Vec<SpinState>,
}

impl LaneBests {
    /// Seeds the tracker with every lane's initial state and energy.
    pub(crate) fn new(batch: &ReplicaBatch) -> Self {
        LaneBests {
            energies: (0..batch.width()).map(|r| batch.energy(r)).collect(),
            states: (0..batch.width()).map(|r| batch.state(r)).collect(),
        }
    }

    /// Records every lane that strictly improved on its best (call once
    /// after each sweep). Improvements overwrite in place — no allocation.
    pub(crate) fn update(&mut self, batch: &ReplicaBatch) {
        for (r, (e, b)) in self.energies.iter_mut().zip(&mut self.states).enumerate() {
            if batch.energy(r) < *e {
                *e = batch.energy(r);
                batch.copy_state_into(r, b);
            }
        }
    }

    /// Lane `r`'s best energy so far.
    pub(crate) fn energy(&self, r: usize) -> f64 {
        self.energies[r]
    }

    /// Lane `r`'s best state so far.
    pub(crate) fn state(&self, r: usize) -> &SpinState {
        &self.states[r]
    }

    /// Decomposes into `(energies, states)`, in lane order.
    pub(crate) fn into_parts(self) -> (Vec<f64>, Vec<SpinState>) {
        (self.energies, self.states)
    }

    /// Rebuilds a tracker from previously-captured parts (the checkpoint
    /// restore path).
    ///
    /// # Panics
    ///
    /// Panics if the vectors disagree in length.
    pub(crate) fn from_parts(energies: Vec<f64>, states: Vec<SpinState>) -> Self {
        assert_eq!(energies.len(), states.len(), "lane count mismatch");
        LaneBests { energies, states }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbit::PbitMachine;
    use crate::rng::{derive_seed, new_rng};
    use saim_ising::{Couplings, QuboBuilder};

    fn frustrated_model() -> IsingModel {
        let mut b = QuboBuilder::new(5);
        b.add_pair(0, 1, 2.0).unwrap();
        b.add_pair(1, 2, -1.5).unwrap();
        b.add_pair(2, 3, 1.0).unwrap();
        b.add_pair(3, 4, -0.5).unwrap();
        b.add_linear(0, -1.0).unwrap();
        b.add_linear(4, 0.5).unwrap();
        b.build().to_ising()
    }

    /// A ring model big and sparse enough that `to_ising` stores it as CSR.
    fn sparse_ring_model(n: usize) -> IsingModel {
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_pair(i, (i + 1) % n, if i % 2 == 0 { 1.0 } else { -1.5 })
                .unwrap();
            b.add_linear(i, 0.3 - 0.1 * (i % 5) as f64).unwrap();
        }
        b.build().to_ising()
    }

    /// A model whose leading `strong` spins carry a drive far past any
    /// realistic `SATURATION / β` threshold, so the settled scan's blocked
    /// prefix skip engages and ends exactly where the strong run ends —
    /// the tile-boundary shapes the lane scan must survive.
    fn settled_prefix_model(n: usize, strong: usize) -> IsingModel {
        let mut b = QuboBuilder::new(n);
        for i in 0..strong {
            b.add_linear(i, -50.0).unwrap();
        }
        for i in strong..n {
            b.add_linear(i, 0.2 - 0.1 * (i % 3) as f64).unwrap();
        }
        for i in 1..n {
            b.add_pair(i - 1, i, if i % 2 == 0 { 0.4 } else { -0.3 })
                .unwrap();
        }
        b.build().to_ising()
    }

    /// Serial replay: a fresh machine on lane `r`'s stream must match the
    /// lane exactly after every sweep.
    fn assert_matches_serial(model: &IsingModel, seeds: &[u64], sweeps: usize) {
        let mut batch = ReplicaBatch::new(model, seeds);
        let mut serial: Vec<(PbitMachine, NoiseSource)> = seeds
            .iter()
            .map(|&s| {
                let mut rng = new_rng(s);
                let machine = PbitMachine::new(model, &mut rng);
                (machine, NoiseSource::new(rng))
            })
            .collect();
        for (r, (machine, _)) in serial.iter().enumerate() {
            assert_eq!(batch.state(r), machine.state(), "initial state lane {r}");
            assert_eq!(
                batch.energy(r).to_bits(),
                machine.energy().to_bits(),
                "initial energy lane {r}"
            );
        }
        for sweep in 0..sweeps {
            let beta = 0.15 * sweep as f64;
            batch.sweep_uniform(model, beta);
            for (r, (machine, noise)) in serial.iter_mut().enumerate() {
                machine.sweep_buffered(model, beta, noise);
                assert_eq!(batch.state(r), machine.state(), "sweep {sweep} lane {r}");
                assert_eq!(
                    batch.energy(r).to_bits(),
                    machine.energy().to_bits(),
                    "sweep {sweep} lane {r}"
                );
                assert_eq!(batch.flips(r), machine.flips(), "sweep {sweep} lane {r}");
            }
        }
        for (r, (machine, _)) in serial.iter().enumerate() {
            for i in 0..model.len() {
                assert_eq!(
                    batch.local_field(r, i),
                    machine.local_field(i),
                    "field {i} lane {r}"
                );
            }
        }
    }

    #[test]
    fn dense_batch_replays_serial_machines() {
        let model = frustrated_model();
        let seeds: Vec<u64> = (0..8).map(|r| derive_seed(11, r)).collect();
        assert_matches_serial(&model, &seeds, 60);
    }

    #[test]
    fn csr_batch_replays_serial_machines() {
        let model = sparse_ring_model(80);
        assert!(matches!(model.couplings(), Couplings::Sparse(_)));
        let seeds: Vec<u64> = (0..4).map(|r| derive_seed(23, r)).collect();
        assert_matches_serial(&model, &seeds, 40);
    }

    #[test]
    fn width_one_batch_replays_serial_machines() {
        let model = frustrated_model();
        assert_matches_serial(&model, &[derive_seed(5, 0)], 50);
    }

    #[test]
    fn odd_widths_replay_serial_machines() {
        // widths that are not a multiple of any tile/SIMD block: the lane
        // loop and the flip buffer must not care
        let model = frustrated_model();
        for width in [3usize, 5, 7, 17] {
            let seeds: Vec<u64> = (0..width as u64).map(|r| derive_seed(61, r)).collect();
            assert_matches_serial(&model, &seeds, 30);
        }
    }

    #[test]
    fn settled_tile_boundaries_replay_serial_machines() {
        // saturated prefixes ending exactly at, one short of, and one past
        // the settled scan's 8-spin block boundary, plus deep into the
        // vector — the scan must hand over to the decision loop at the
        // right spin in every lane
        for strong in [7usize, 8, 9, 16, 23] {
            let model = settled_prefix_model(32, strong);
            let seeds: Vec<u64> = (0..5).map(|r| derive_seed(strong as u64, r)).collect();
            assert_matches_serial(&model, &seeds, 25);
        }
    }

    #[test]
    fn forced_split_propagation_replays_serial_machines() {
        // the coalescing flip buffer is policy-gated off below
        // SPLIT_MIN_LEN, so force it on to pin that the split path stays
        // bit-exact on both coupling representations — including a held
        // quench, where the masked settled-set sweeps defer flips too
        for model in [frustrated_model(), sparse_ring_model(80)] {
            let seeds: Vec<u64> = (0..5).map(|r| derive_seed(31, r)).collect();
            let mut batch = ReplicaBatch::new(&model, &seeds);
            batch.force_split_propagation(true);
            let mut serial: Vec<(PbitMachine, NoiseSource)> = seeds
                .iter()
                .map(|&s| {
                    let mut rng = new_rng(s);
                    let machine = PbitMachine::new(&model, &mut rng);
                    (machine, NoiseSource::new(rng))
                })
                .collect();
            for sweep in 0..40 {
                let beta = if sweep < 20 { 0.3 * sweep as f64 } else { 25.0 };
                batch.sweep_uniform(&model, beta);
                for (r, (machine, noise)) in serial.iter_mut().enumerate() {
                    machine.sweep_buffered(&model, beta, noise);
                    assert_eq!(batch.state(r), machine.state(), "sweep {sweep} lane {r}");
                    assert_eq!(batch.energy(r).to_bits(), machine.energy().to_bits());
                    assert_eq!(batch.flips(r), machine.flips());
                }
            }
        }
    }

    #[test]
    fn slack_exhaustion_mid_masked_sweep_replays_serial_machines() {
        // a long settled prefix plus four weak coin-flip tail spins: at a
        // held β = 2 the lanes go masked with a finite budget (~40, the
        // strong spins' margin) that the tail flips erode by ~0.8 each, so
        // within this horizon every lane repeatedly crosses the mid-sweep
        // budget-exhaustion fallback and the post-fallback rebuild — all
        // of it pinned bit-for-bit to the serial oracle
        let model = settled_prefix_model(32, 28);
        let seeds: Vec<u64> = (0..3).map(|r| derive_seed(9, r)).collect();
        let mut batch = ReplicaBatch::new(&model, &seeds);
        let mut serial: Vec<(PbitMachine, NoiseSource)> = seeds
            .iter()
            .map(|&s| {
                let mut rng = new_rng(s);
                let machine = PbitMachine::new(&model, &mut rng);
                (machine, NoiseSource::new(rng))
            })
            .collect();
        for sweep in 0..200 {
            batch.sweep_uniform(&model, 2.0);
            for (r, (machine, noise)) in serial.iter_mut().enumerate() {
                machine.sweep_buffered(&model, 2.0, noise);
                assert_eq!(batch.state(r), machine.state(), "sweep {sweep} lane {r}");
                assert_eq!(batch.energy(r).to_bits(), machine.energy().to_bits());
                assert_eq!(batch.flips(r), machine.flips());
            }
        }
    }

    #[test]
    fn lanes_are_independent_of_batch_width() {
        let model = frustrated_model();
        let seeds: Vec<u64> = (0..6).map(|r| derive_seed(77, r)).collect();
        let mut wide = ReplicaBatch::new(&model, &seeds);
        let mut narrow: Vec<ReplicaBatch> = seeds
            .iter()
            .map(|&s| ReplicaBatch::new(&model, &[s]))
            .collect();
        for sweep in 0..50 {
            let beta = 0.1 * sweep as f64;
            wide.sweep_uniform(&model, beta);
            for (r, solo) in narrow.iter_mut().enumerate() {
                solo.sweep_uniform(&model, beta);
                assert_eq!(wide.state(r), solo.state(0), "sweep {sweep} lane {r}");
                assert_eq!(wide.energy(r).to_bits(), solo.energy(0).to_bits());
            }
        }
    }

    #[test]
    fn fields_match_serial_bitwise_after_hot_sweeps() {
        // the split propagation applies the serial adds in the serial
        // order, so even the signs of zero must agree with the serial
        // machine after flip-heavy sweeps
        let model = frustrated_model();
        let seeds: Vec<u64> = (0..4).map(|r| derive_seed(95, r)).collect();
        let mut batch = ReplicaBatch::new(&model, &seeds);
        let mut serial: Vec<(PbitMachine, NoiseSource)> = seeds
            .iter()
            .map(|&s| {
                let mut rng = new_rng(s);
                let machine = PbitMachine::new(&model, &mut rng);
                (machine, NoiseSource::new(rng))
            })
            .collect();
        for _ in 0..40 {
            batch.sweep_uniform(&model, 2.0);
            for (machine, noise) in serial.iter_mut() {
                machine.sweep_buffered(&model, 2.0, noise);
            }
        }
        for (r, (machine, _)) in serial.iter().enumerate() {
            for i in 0..model.len() {
                assert_eq!(
                    batch.local_field(r, i).to_bits(),
                    machine.local_field(i).to_bits(),
                    "field bits {i} lane {r}"
                );
            }
        }
    }

    #[test]
    fn metropolis_batch_replays_serial_machines() {
        let model = frustrated_model();
        let seeds: Vec<u64> = (0..5).map(|r| derive_seed(3, r)).collect();
        let mut batch = ReplicaBatch::new(&model, &seeds);
        let mut serial: Vec<(PbitMachine, NoiseSource)> = seeds
            .iter()
            .map(|&s| {
                let mut rng = new_rng(s);
                let machine = PbitMachine::new(&model, &mut rng);
                (machine, NoiseSource::new(rng))
            })
            .collect();
        for sweep in 0..60 {
            let beta = 0.08 * sweep as f64;
            batch.metropolis_sweep_uniform(&model, beta);
            for (r, (machine, noise)) in serial.iter_mut().enumerate() {
                machine.metropolis_sweep_buffered(&model, beta, noise);
                assert_eq!(batch.state(r), machine.state(), "sweep {sweep} lane {r}");
                assert_eq!(batch.energy(r).to_bits(), machine.energy().to_bits());
            }
        }
    }

    #[test]
    fn energies_never_drift_from_the_model() {
        let model = frustrated_model();
        let seeds: Vec<u64> = (0..4).map(|r| derive_seed(9, r)).collect();
        let mut batch = ReplicaBatch::new(&model, &seeds);
        for sweep in 0..100 {
            batch.sweep_uniform(&model, 0.07 * sweep as f64);
            for r in 0..batch.width() {
                let full = model.energy(&batch.state(r));
                assert!(
                    (batch.energy(r) - full).abs() < 1e-9,
                    "lane {r} drifted at sweep {sweep}"
                );
            }
        }
    }

    #[test]
    fn swap_lanes_exchanges_full_payload() {
        let model = frustrated_model();
        let seeds: Vec<u64> = (0..3).map(|r| derive_seed(31, r)).collect();
        let mut batch = ReplicaBatch::new(&model, &seeds);
        batch.sweep_uniform(&model, 1.0);
        let (s0, e0, f0) = (batch.state(0), batch.energy(0), batch.flips(0));
        let (s2, e2, f2) = (batch.state(2), batch.energy(2), batch.flips(2));
        batch.swap_lanes(0, 2);
        assert_eq!(batch.state(0), s2);
        assert_eq!(batch.state(2), s0);
        assert_eq!(batch.energy(0), e2);
        assert_eq!(batch.energy(2), e0);
        assert_eq!(batch.flips(0), f2);
        assert_eq!(batch.flips(2), f0);
        // fields travelled with the payload: books must still be exact
        for r in [0usize, 2] {
            for i in 0..model.len() {
                let expected = model.local_field(&batch.state(r), i);
                assert!((batch.local_field(r, i) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn swap_lanes_between_batches_matches_in_batch_swap() {
        let model = frustrated_model();
        let seeds: Vec<u64> = (0..4).map(|r| derive_seed(41, r)).collect();
        // one 4-lane batch vs two 2-lane batches over the same streams
        let mut whole = ReplicaBatch::new(&model, &seeds);
        let mut left = ReplicaBatch::new(&model, &seeds[..2]);
        let mut right = ReplicaBatch::new(&model, &seeds[2..]);
        whole.sweep_uniform(&model, 0.8);
        left.sweep_uniform(&model, 0.8);
        right.sweep_uniform(&model, 0.8);
        whole.swap_lanes(1, 2);
        ReplicaBatch::swap_lanes_between(&mut left, 1, &mut right, 0);
        let views: [(&ReplicaBatch, usize); 4] = [(&left, 0), (&left, 1), (&right, 0), (&right, 1)];
        for (lane, &(batch, local)) in views.iter().enumerate() {
            assert_eq!(whole.state(lane), batch.state(local), "lane {lane}");
            assert_eq!(whole.energy(lane).to_bits(), batch.energy(local).to_bits());
        }
    }

    #[test]
    fn zero_and_one_spin_models_work() {
        for n in [0usize, 1] {
            let mut b = QuboBuilder::new(n);
            if n == 1 {
                b.add_linear(0, -1.0).unwrap();
            }
            let model = b.build().to_ising();
            let seeds: Vec<u64> = (0..3).map(|r| derive_seed(1, r)).collect();
            let mut batch = ReplicaBatch::new(&model, &seeds);
            assert_eq!(batch.len(), n);
            batch.sweep_uniform(&model, 2.0);
            batch.metropolis_sweep_uniform(&model, 2.0);
            for r in 0..batch.width() {
                assert_eq!(batch.state(r).len(), n);
                assert!((batch.energy(r) - model.energy(&batch.state(r))).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica lane")]
    fn rejects_empty_seed_list() {
        let model = frustrated_model();
        let _ = ReplicaBatch::new(&model, &[]);
    }
}
