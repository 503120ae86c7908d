//! Batched lane-major multi-replica sweep engine.
//!
//! [`ReplicaBatch`] advances `R` replicas of **one** [`IsingModel`] through
//! Monte Carlo sweeps together. Every lane is a view of the one lane kernel
//! in [`crate::lane`] — the code a [`PbitMachine`](crate::PbitMachine)
//! sweeps its single lane with — over its own contiguous plane slice, and
//! every sweep runs each lane in turn through that kernel's plain scan with
//! one-pass flip propagation
//! ([`Couplings::row_axpy`](saim_ising::Couplings::row_axpy)).
//! The batch adds no sweep policy of its own: a lane sweeps exactly as a
//! serial machine does, and lanes in one batch share no coupling pass.
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
//! every per-lane operation — the settled scan, the flip propagation,
//! checkpoint gather/scatter, and the parallel-tempering lane swaps —
//! streams a contiguous vector, so a lane's plane slice is exactly the
//! slice shape the lane kernel takes and each lane costs what a serial
//! sweep costs.
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
//! are data-disjoint, decisions use only lane-`r` data, and every lane
//! runs the serial machine's own scan. The machine crate's proptests assert
//! the contract for R = 1 vs R = 8 vs serial replay, on dense and CSR
//! models, including n = 0/1 and widths that are not a multiple of any
//! block size. Since both sides of that replay call the same lane kernel,
//! the kernel itself is pinned by the exact-`tanh` oracle replays
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

use crate::lane::{Lane, MachineSnapshot};
use crate::rng::{NoiseSnapshot, NoiseSource};
use saim_ising::{Couplings, IsingModel, SpinState};

/// `R` replicas of one Ising model in lane-major layout, advanced by
/// batched Monte Carlo sweeps, each lane through the lane kernel's plain
/// scan.
///
/// See the [module docs](self) for the memory layout, the RNG-stream
/// layout and the batch-width-invariance contract.
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
    /// Per-spin drive bounds `D_i = |h_i| + Σ_j |J_ij|` of the construction
    /// model (a batch is bound to one model for its lifetime): every lane's
    /// Gibbs scan classifies undecided spins from them on demand. The bound
    /// depends only on the model, so one vector serves all lanes.
    drive_bounds: Vec<f64>,
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

    /// A one-lane batch on a lent stream: the lane init draws its coin flips
    /// from `stream`'s generator (reset it first) and its flip counter
    /// continues from `flips`; [`ReplicaBatch::return_lane`] hands both back.
    pub(crate) fn lend_lane(model: &IsingModel, stream: NoiseSource, flips: u64) -> Self {
        let mut batch = Self::with_streams(model, vec![stream]);
        batch.flips[0] = flips;
        let (mut lane, stream) = batch.lane(0);
        lane.randomize(model, stream.rng_mut());
        batch
    }

    /// Ends a [`ReplicaBatch::lend_lane`]: lane 0's stream and flip count.
    pub(crate) fn return_lane(self) -> (NoiseSource, u64) {
        let flips = self.flips[0];
        let stream = self.streams.into_iter().next().expect("a batch has a lane");
        (stream, flips)
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
        ReplicaBatch {
            n,
            width,
            spins: vec![0.0; n * width],
            fields: vec![0.0; n * width],
            energies: vec![0.0; width],
            flips: vec![0; width],
            streams,
            drive_bounds: model.drive_bounds(),
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
    }

    /// One batched Gibbs sweep with per-lane inverse temperatures (the
    /// parallel-tempering shape: lane `r` samples at `betas[r]`).
    ///
    /// Every lane runs the lane kernel's Gibbs scan on its own stream, so
    /// each replays [`PbitMachine::sweep`](crate::PbitMachine::sweep)
    /// bit-for-bit; see the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `betas.len() != self.width()`.
    pub fn sweep(&mut self, model: &IsingModel, betas: &[f64]) {
        assert_eq!(betas.len(), self.width, "one β per replica lane");
        self.each_lane(
            model,
            |r| betas[r],
            |lane, c, noise, beta| lane.scan_gibbs(c, noise, beta),
        );
    }

    /// One batched Gibbs sweep with a single inverse temperature shared by
    /// every lane (the replica-ensemble shape).
    ///
    /// # Panics
    ///
    /// Panics if the batch was built for a different model size.
    pub fn sweep_uniform(&mut self, model: &IsingModel, beta: f64) {
        self.each_lane(
            model,
            |_| beta,
            |lane, c, noise, beta| lane.scan_gibbs(c, noise, beta),
        );
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
        self.each_lane(
            model,
            |r| betas[r],
            |lane, c, noise, beta| lane.metropolis(c, noise, beta),
        );
    }

    /// One batched Metropolis sweep at a single shared inverse temperature.
    ///
    /// # Panics
    ///
    /// Panics if the batch was built for a different model size.
    pub fn metropolis_sweep_uniform(&mut self, model: &IsingModel, beta: f64) {
        self.each_lane(
            model,
            |_| beta,
            |lane, c, noise, beta| lane.metropolis(c, noise, beta),
        );
    }

    /// Runs `step` on every lane in turn, lane `r` on its own stream at
    /// `beta(r)`.
    #[inline(always)]
    fn each_lane(
        &mut self,
        model: &IsingModel,
        beta: impl Fn(usize) -> f64,
        step: impl Fn(&mut Lane<'_>, &Couplings, &mut NoiseSource, f64),
    ) {
        assert_eq!(self.n, model.len(), "batch built for a different model");
        let couplings = model.couplings();
        for r in 0..self.width {
            let (mut lane, stream) = self.lane(r);
            step(&mut lane, couplings, stream, beta(r));
        }
    }

    /// Borrows lane `r`'s share of the batch as a [`Lane`] of the lane
    /// kernel — its plane slices, energy and flip count, with the shared
    /// drive bounds — together with the lane's stream.
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
            },
            &mut self.streams[r],
        )
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
    use saim_ising::QuboBuilder;

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

    /// The annealing ramp most replays sweep: β = 0.15 · sweep.
    fn ramp(sweeps: usize) -> impl Iterator<Item = f64> {
        (0..sweeps).map(|sweep| 0.15 * sweep as f64)
    }

    /// Serial replay: a fresh machine on lane `r`'s stream must match the
    /// lane exactly after every sweep of `schedule`.
    fn assert_matches_serial(
        model: &IsingModel,
        seeds: &[u64],
        schedule: impl IntoIterator<Item = f64>,
    ) {
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
        for (sweep, beta) in schedule.into_iter().enumerate() {
            batch.sweep_uniform(model, beta);
            for (r, (machine, noise)) in serial.iter_mut().enumerate() {
                machine.sweep_buffered(model, beta, noise);
                let at = format!("sweep {sweep} (beta {beta}) lane {r}");
                assert_eq!(batch.state(r), machine.state(), "{at}");
                assert_eq!(
                    batch.energy(r).to_bits(),
                    machine.energy().to_bits(),
                    "{at}"
                );
                assert_eq!(batch.flips(r), machine.flips(), "{at}");
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
        assert_matches_serial(&model, &seeds, ramp(60));
    }

    #[test]
    fn csr_batch_replays_serial_machines() {
        let model = sparse_ring_model(80);
        assert!(matches!(model.couplings(), Couplings::Sparse(_)));
        let seeds: Vec<u64> = (0..4).map(|r| derive_seed(23, r)).collect();
        assert_matches_serial(&model, &seeds, ramp(40));
    }

    #[test]
    fn width_one_batch_replays_serial_machines() {
        let model = frustrated_model();
        assert_matches_serial(&model, &[derive_seed(5, 0)], ramp(50));
    }

    #[test]
    fn odd_widths_replay_serial_machines() {
        // widths that are not a multiple of any tile/SIMD block: the lane
        // loop must not care
        let model = frustrated_model();
        for width in [3usize, 5, 7, 17] {
            let seeds: Vec<u64> = (0..width as u64).map(|r| derive_seed(61, r)).collect();
            assert_matches_serial(&model, &seeds, ramp(30));
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
            assert_matches_serial(&model, &seeds, ramp(25));
        }
    }

    #[test]
    fn held_beta_replays_serial_machines() {
        // a long settled prefix plus four weak coin-flip tail spins at a
        // held β = 2: the scan skips the prefix every sweep while the tail
        // keeps flipping, pinned bit-for-bit to the serial oracle
        let model = settled_prefix_model(32, 28);
        let seeds: Vec<u64> = (0..3).map(|r| derive_seed(9, r)).collect();
        assert_matches_serial(&model, &seeds, std::iter::repeat_n(2.0, 200));

        // every spin strongly biased: held at β = 2 the lanes fully settle,
        // one β = 0 sweep scrambles them, then β = 2 re-quenches — the
        // scan must re-read every moved field after the excursion
        let mut b = QuboBuilder::new(16);
        for i in 0..16 {
            b.add_linear(i, -50.0).unwrap();
        }
        let biased = b.build().to_ising();
        let excursion = std::iter::repeat_n(2.0, 10)
            .chain(std::iter::once(0.0))
            .chain(std::iter::repeat_n(2.0, 5));
        assert_matches_serial(&biased, &seeds, excursion);
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
        // every lane applies the serial adds in the serial order, so even
        // the signs of zero must agree with the serial machine after
        // flip-heavy sweeps
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
