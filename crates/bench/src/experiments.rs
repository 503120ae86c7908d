//! Shared experiment drivers used by the table/figure binaries.
//!
//! Each driver runs one *method* (SAIM, fixed-penalty SA, tuned-penalty SA,
//! parallel tempering, GA, branch & bound) on one instance and reports a
//! [`MethodResult`] in a common shape, so the binaries only format rows.
//!
//! Budgets follow the paper's Table I at `scale = 1.0` and shrink
//! proportionally below; sweep counts per run stay at the paper's 1000 MCS
//! so a "run" keeps its meaning.
//!
//! Every binary scores accuracy by one reference rule: the denominator is
//! [`best_known`] over the instance's reference ([`qkp_reference`] /
//! [`mkp_reference`]) and every method compared on that instance.
//!
//! The `ablation_*` binaries run on [`AblationGrid`]. It generates each
//! instance and computes its reference once per bin run, however many rows
//! the table has. A row is one cell closure that builds the row's solver or
//! config for one instance and returns its [`MethodResult`]s; the grid
//! runs it on every instance and folds the results, in instance order, into
//! an [`AblationRow`] of formatted means.

use saim_core::presets::ExperimentPreset;
use saim_core::{ConstrainedProblem, PenaltyMethod, PenaltyOutcome, SaimOutcome, SaimRunner};
use saim_exact::bb::{self, BbLimits};
use saim_heuristics::ga::{ChuBeasleyGa, GaConfig};
use saim_heuristics::{greedy, local};
use saim_knapsack::{generate, MkpEncoded, MkpInstance, QkpEncoded, QkpInstance};
use saim_machine::parallel::parallel_map_indexed;
use saim_machine::{derive_seed, IsingSolver, ParallelTempering, PtConfig};
use std::time::Duration;

/// One method's outcome on one instance, in profit units (higher is better).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method name for reports.
    pub method: &'static str,
    /// Best feasible profit found (`None` if no feasible sample appeared).
    pub best_profit: Option<u64>,
    /// Profits of every feasible sample, in measurement order.
    pub feasible_profits: Vec<u64>,
    /// Fraction of measured samples that were feasible.
    pub feasibility: f64,
    /// Monte Carlo sweeps consumed (0 for non-IM methods).
    pub mcs: u64,
}

impl MethodResult {
    /// Mean feasible profit, if any sample was feasible.
    pub fn mean_profit(&self) -> Option<f64> {
        if self.feasible_profits.is_empty() {
            None
        } else {
            Some(
                self.feasible_profits.iter().map(|&p| p as f64).sum::<f64>()
                    / self.feasible_profits.len() as f64,
            )
        }
    }

    /// Accuracy (paper eq. 13) of the best sample against a reference profit.
    pub fn best_accuracy(&self, reference: u64) -> Option<f64> {
        self.best_profit
            .map(|p| 100.0 * p as f64 / reference as f64)
    }

    /// Accuracy of the mean feasible sample against a reference profit.
    pub fn mean_accuracy(&self, reference: u64) -> Option<f64> {
        self.mean_profit().map(|p| 100.0 * p / reference as f64)
    }

    /// Fraction of feasible samples that hit the reference profit exactly
    /// (the paper's "optimality" column).
    pub fn optimality(&self, reference: u64) -> f64 {
        if self.feasible_profits.is_empty() {
            return 0.0;
        }
        let hits = self
            .feasible_profits
            .iter()
            .filter(|&&p| p == reference)
            .count();
        hits as f64 / self.feasible_profits.len() as f64
    }
}

/// Digests a SAIM run: its best and every feasible sample, in profit units.
pub fn result_from_saim(method: &'static str, outcome: &SaimOutcome) -> MethodResult {
    MethodResult {
        method,
        best_profit: outcome.best.as_ref().map(|b| (-b.cost) as u64),
        feasible_profits: outcome
            .records
            .iter()
            .filter(|r| r.feasible)
            .map(|r| (-r.cost) as u64)
            .collect(),
        feasibility: outcome.feasibility,
        mcs: outcome.mcs_total,
    }
}

/// Digests a penalty-method run: its best and every feasible sample, in
/// profit units.
pub fn result_from_penalty(method: &'static str, outcome: &PenaltyOutcome) -> MethodResult {
    MethodResult {
        method,
        best_profit: outcome.best.as_ref().map(|(_, c)| (-c) as u64),
        feasible_profits: outcome
            .feasible_costs
            .iter()
            .map(|&c| (-c) as u64)
            .collect(),
        feasibility: outcome.feasibility,
        mcs: outcome.mcs_total,
    }
}

/// Runs SAIM on an encoded QKP with the paper's preset, returning both the
/// digest and the full outcome (for trace figures).
pub fn saim_qkp(
    enc: &QkpEncoded,
    preset: ExperimentPreset,
    scale: f64,
    seed: u64,
) -> (MethodResult, SaimOutcome) {
    let config = preset.config_for(enc, scale, seed);
    let solver = preset.solver(derive_seed(seed, 1));
    let outcome = SaimRunner::new(config).run(enc, solver);
    (result_from_saim("SAIM", &outcome), outcome)
}

/// Runs SAIM on an encoded MKP with the paper's preset.
pub fn saim_mkp(
    enc: &MkpEncoded,
    preset: ExperimentPreset,
    scale: f64,
    seed: u64,
) -> (MethodResult, SaimOutcome) {
    let config = preset.config_for(enc, scale, seed);
    let solver = preset.solver(derive_seed(seed, 2));
    let outcome = SaimRunner::new(config).run(enc, solver);
    (result_from_saim("SAIM", &outcome), outcome)
}

/// The fixed-penalty baseline at the same run structure and total budget as
/// SAIM (paper Table II, "2000 SA runs of 10³ MCS" column), run at
/// `P = alpha·d·N`. Pass the α found by [`penalty_tuned`]: with the paper's
/// small `α = 2` the energy minimum is infeasible by construction (that is
/// the whole point of SAIM), so the static baseline needs the tuned penalty
/// to produce feasible samples at all.
pub fn penalty_same_budget<P: ConstrainedProblem>(
    problem: &P,
    preset: ExperimentPreset,
    scale: f64,
    seed: u64,
    alpha: f64,
) -> MethodResult {
    let runs = ((preset.runs as f64 * scale).round() as usize).max(1);
    let penalty = problem.penalty_for_alpha(alpha);
    // the K independent runs anneal in parallel on the replica-ensemble
    // engine; per-run derived streams keep the digest thread-count invariant
    let mut engine = preset.ensemble(runs, derive_seed(seed, 3));
    let out = PenaltyMethod::new(penalty, runs)
        .expect("preset penalties are valid")
        .run_parallel(problem, &mut engine)
        .expect("encoded problems are consistent");
    result_from_penalty("penalty (same budget)", &out)
}

/// The α grid the tuned baseline sweeps, mirroring the paper's coarse
/// increase from small P (tuned values in Table II range from 40·dN to
/// 500·dN).
pub const TUNING_ALPHAS: [f64; 6] = [2.0, 10.0, 40.0, 100.0, 250.0, 500.0];

/// The tuned-penalty baseline (paper Table II, "10 SA runs of 2·10⁵ MCS"
/// column): fewer, longer runs, with P coarsely increased until ≥ 20%
/// feasibility. Returns the result and the chosen `α` (P = α·d·N).
pub fn penalty_tuned<P: ConstrainedProblem>(
    problem: &P,
    preset: ExperimentPreset,
    scale: f64,
    seed: u64,
) -> (MethodResult, f64) {
    // same total budget, split into 10 long runs annealed in parallel
    let total = (preset.total_mcs() as f64 * scale) as usize;
    let runs = 10usize;
    let mcs_per_run = (total / runs).max(100);
    let out = PenaltyMethod::run_tuned_parallel(problem, runs, &TUNING_ALPHAS, 0.2, |attempt| {
        let config = saim_machine::EnsembleConfig {
            replicas: runs,
            mcs_per_run,
            schedule: saim_machine::BetaSchedule::linear(preset.beta_max),
            ..saim_machine::EnsembleConfig::default()
        };
        saim_machine::EnsembleAnnealer::new(config, derive_seed(seed, 100 + attempt as u64))
    })
    .expect("tuning grid is non-empty");
    let alpha = out
        .tuning_trace
        .last()
        .map(|t| t.alpha)
        .unwrap_or(preset.alpha);
    (result_from_penalty("penalty (tuned P)", &out), alpha)
}

/// Parallel tempering at the paper's tuned penalty, standing in for PT-DA
/// \[17\]. Gets `budget_factor` × SAIM's sweep budget (PT-DA used 7500×; the
/// default keeps laptop runtimes while preserving the "more samples, worse
/// accuracy" comparison — the harness reports the *actual* MCS so Fig. 4b's
/// speedup is measured, not assumed).
pub fn pt_baseline<P: ConstrainedProblem>(
    problem: &P,
    preset: ExperimentPreset,
    scale: f64,
    seed: u64,
    budget_factor: f64,
    alpha: f64,
) -> MethodResult {
    let total = (preset.total_mcs() as f64 * scale * budget_factor) as usize;
    let cfg = PtConfig {
        replicas: 26,
        beta_min: 0.05,
        beta_max: preset.beta_max,
        sweeps: (total / 26).max(50),
        swap_interval: 10,
        // auto-sized: ladder rounds fan out across cores, except inside an
        // outer instance grid where the nested map runs inline (no
        // oversubscription) — results are identical either way
        threads: 0,
    };
    // PT works on a fixed penalty landscape; like the DA runs it needs the
    // tuned penalty `P = alpha·d·N`.
    let penalty = problem.penalty_for_alpha(alpha);
    let model = saim_core::penalty_qubo(problem, penalty)
        .expect("valid penalty")
        .to_ising();
    // sample in chunks so we collect a population of measurements, as the
    // DA implementation reports its per-trial bests
    let trials = 10usize;
    let chunk = PtConfig {
        sweeps: (cfg.sweeps / trials).max(10),
        ..cfg
    };
    let mut pt_chunk = ParallelTempering::new(chunk, derive_seed(seed, 6));
    let mut feasible_profits = Vec::new();
    let mut best: Option<u64> = None;
    let mut mcs = 0u64;
    let mut feasible = 0usize;
    for _ in 0..trials {
        let out = pt_chunk.solve(&model);
        mcs += out.mcs;
        let x = out.best.to_binary();
        let eval = problem.evaluate(&x);
        if eval.feasible {
            feasible += 1;
            let p = (-eval.cost) as u64;
            feasible_profits.push(p);
            best = Some(best.map_or(p, |b| b.max(p)));
        }
    }
    MethodResult {
        method: "parallel tempering",
        best_profit: best,
        feasible_profits,
        feasibility: feasible as f64 / trials as f64,
        mcs,
    }
}

/// The Chu–Beasley GA baseline for MKP (paper Table V, \[28\]).
pub fn ga_mkp(instance: &MkpInstance, scale: f64, seed: u64) -> MethodResult {
    let generations = ((200_000.0 * scale) as usize).max(500);
    let cfg = GaConfig {
        generations,
        ..GaConfig::default()
    };
    let best = ChuBeasleyGa::new(cfg, derive_seed(seed, 7)).run(instance);
    MethodResult {
        method: "Chu-Beasley GA",
        best_profit: Some(best.profit),
        feasible_profits: vec![best.profit],
        feasibility: 1.0,
        mcs: 0,
    }
}

/// QKP branch & bound expands about this many nodes per second, divided by
/// the item count `n`, on one of two busy cores of a 2-vCPU VM (the bins
/// run two instances at once). Fitted to the bins' own `--full` instances
/// at n = 100, 200 and 300: their 94 reference calls took 0.1–4× their
/// budget, median 0.9× (at n = 40–60 the search runs 1–1.7× faster than
/// the fit). The bound costs O(n²) per node at worst, but most
/// nodes lie deep in the tree, where few items are still undecided.
const QKP_NODES_PER_SECOND_TIMES_N: f64 = 6e6;

/// MKP branch & bound expands about this many nodes per second, divided by
/// `m·√n` for `n` items and `m` constraints, on the same busy core:
/// fitted at n = 40–250 and m = 5–10; every `--full` row took 0.55–1.05×
/// its budget.
const MKP_NODES_PER_SECOND_TIMES_M_SQRT_N: f64 = 9e7;

/// B&B limits worth about `core_seconds` of one core at `nodes_per_second`,
/// as a node budget with no wall-clock limit. The node budget makes the
/// reference, and whether it is certified, a function of the instance
/// alone, never of the machine's speed or load; the size-aware rate keeps
/// a reference's cost near `core_seconds` at every instance size.
fn node_budget(core_seconds: f64, nodes_per_second: f64) -> BbLimits {
    BbLimits {
        max_nodes: (core_seconds * nodes_per_second) as u64,
        time_limit: Duration::MAX,
    }
}

/// The best profit this workspace can certify or witness for a QKP instance:
/// branch & bound within a node budget worth about `core_seconds` (certified
/// when it completes) cross-checked against greedy + local search. Returns
/// `(profit, certified)`.
pub fn qkp_reference(instance: &QkpInstance, core_seconds: f64) -> (u64, bool) {
    let rate = QKP_NODES_PER_SECOND_TIMES_N / instance.len() as f64;
    let bnb = bb::solve_qkp(instance, node_budget(core_seconds, rate));
    let mut sel = greedy::qkp(instance);
    local::improve_qkp(instance, &mut sel);
    let heuristic = instance.profit(&sel);
    if bnb.proven_optimal {
        debug_assert!(bnb.profit >= heuristic);
        (bnb.profit.max(heuristic), true)
    } else {
        (bnb.profit.max(heuristic), false)
    }
}

/// The best profit this workspace can certify or witness for an MKP
/// instance, with B&B limited to a node budget worth about `core_seconds`.
/// Returns `(profit, certified, elapsed)` — elapsed is the Table V "B&B
/// time" column, the one measured (machine-dependent) figure.
pub fn mkp_reference(instance: &MkpInstance, core_seconds: f64) -> (u64, bool, Duration) {
    let m_sqrt_n = instance.num_constraints() as f64 * (instance.len() as f64).sqrt();
    let rate = MKP_NODES_PER_SECOND_TIMES_M_SQRT_N / m_sqrt_n;
    let bnb = bb::solve_mkp(instance, node_budget(core_seconds, rate));
    let mut sel = greedy::mkp(instance);
    local::improve_mkp(instance, &mut sel);
    let heuristic = instance.profit(&sel);
    (bnb.profit.max(heuristic), bnb.proven_optimal, bnb.elapsed)
}

/// Folds method results into a best-known reference profit: the max over the
/// certified/witnessed reference and every method's best. Using the best
/// *known* value as the accuracy denominator is standard when optima are
/// unavailable; the binaries annotate uncertified rows.
pub fn best_known(reference: u64, results: &[&MethodResult]) -> u64 {
    results
        .iter()
        .filter_map(|r| r.best_profit)
        .fold(reference, u64::max)
}

/// One instance of an ablation grid, with its seed and reference profit.
#[derive(Debug, Clone)]
pub struct AblationInstance<I> {
    /// `derive_seed(master seed, instance index)`.
    pub seed: u64,
    /// The generated instance.
    pub instance: I,
    /// Its [`qkp_reference`] / [`mkp_reference`] profit.
    pub reference: u64,
}

/// What a row's cell closure reports for one instance.
#[derive(Debug, Clone, Default)]
pub struct AblationCell {
    /// One result per method the row compares, in column order. A cell
    /// with no results (an instance the row cannot encode) adds nothing to
    /// the row.
    pub methods: Vec<MethodResult>,
    /// The row's extra per-instance figures (slack bits, first feasible
    /// iteration), each averaged over the instances that report it.
    pub extras: Vec<Option<f64>>,
}

impl From<MethodResult> for AblationCell {
    fn from(result: MethodResult) -> Self {
        AblationCell {
            methods: vec![result],
            extras: Vec::new(),
        }
    }
}

/// One method's per-instance figures in a row, in instance order.
#[derive(Debug, Clone, Default)]
struct MethodColumns {
    best: Vec<f64>,
    avg: Vec<f64>,
    feasibility: Vec<f64>,
}

/// One ablation table row: its cells folded in instance order. Each
/// accessor formats a column's mean over the instances that have a value,
/// or `-` when none has.
#[derive(Debug, Clone, Default)]
pub struct AblationRow {
    methods: Vec<MethodColumns>,
    extras: Vec<Vec<f64>>,
}

impl AblationRow {
    fn push(&mut self, cell: AblationCell, reference: u64) {
        let reference = best_known(reference, &cell.methods.iter().collect::<Vec<_>>());
        let width = self.methods.len().max(cell.methods.len());
        self.methods.resize_with(width, Default::default);
        for (columns, result) in self.methods.iter_mut().zip(&cell.methods) {
            columns.best.extend(result.best_accuracy(reference));
            columns.avg.extend(result.mean_accuracy(reference));
            columns.feasibility.push(100.0 * result.feasibility);
        }
        let width = self.extras.len().max(cell.extras.len());
        self.extras.resize_with(width, Vec::new);
        for (column, value) in self.extras.iter_mut().zip(cell.extras) {
            column.extend(value);
        }
    }

    fn column(&self, method: usize, pick: fn(&MethodColumns) -> &[f64]) -> String {
        format_mean(self.methods.get(method).map_or(&[], pick))
    }

    /// Mean best accuracy (%) of the cell's `method`-th result.
    pub fn best(&self, method: usize) -> String {
        self.column(method, |c| &c.best)
    }

    /// Mean average accuracy (%) of the cell's `method`-th result.
    pub fn avg(&self, method: usize) -> String {
        self.column(method, |c| &c.avg)
    }

    /// Mean feasibility (%) of the cell's `method`-th result.
    pub fn feasibility(&self, method: usize) -> String {
        self.column(method, |c| &c.feasibility)
    }

    /// Mean of the cell's `k`-th extra figure.
    pub fn extra(&self, k: usize) -> String {
        format_mean(self.extras.get(k).map_or(&[], Vec::as_slice))
    }
}

/// A column's mean to one decimal, or `-` when no instance has a value:
/// the one mean format of the ablation rows and the tables' summaries.
pub fn format_mean(values: &[f64]) -> String {
    if values.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1}", values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// [`format_mean`] followed by how many of the table's `instances` it
/// averages: `97.1 (4 of 8)`, or `- (0 of 6)`.
pub fn format_mean_of(values: &[f64], instances: usize) -> String {
    format!("{} ({} of {instances})", format_mean(values), values.len())
}

/// The instances of an ablation table. Each is generated, and its
/// reference computed, once per grid, however many rows run on it.
#[derive(Debug, Clone)]
pub struct AblationGrid<I> {
    instances: Vec<AblationInstance<I>>,
}

impl AblationGrid<QkpInstance> {
    /// `count` QKP instances of `n` items at density 0.5, each with its
    /// [`qkp_reference`] at 2 core-seconds.
    pub fn qkp(n: usize, count: usize, seed: u64) -> Self {
        Self::generate(count, seed, |seed| {
            let instance = generate::qkp(n, 0.5, seed).expect("valid parameters");
            let (reference, _) = qkp_reference(&instance, 2.0);
            (instance, reference)
        })
    }
}

impl AblationGrid<MkpInstance> {
    /// `count` MKP instances of `n` items and `m` constraints at tightness
    /// 0.5 and weights up to 100, each with its [`mkp_reference`] at 3
    /// core-seconds.
    pub fn mkp(n: usize, m: usize, count: usize, seed: u64) -> Self {
        Self::generate(count, seed, |seed| {
            let instance =
                generate::mkp_with_max_weight(n, m, 0.5, 100, seed).expect("valid parameters");
            let (reference, _, _) = mkp_reference(&instance, 3.0);
            (instance, reference)
        })
    }
}

impl<I: Send + Sync> AblationGrid<I> {
    fn generate(count: usize, seed: u64, make: impl Fn(u64) -> (I, u64) + Sync) -> Self {
        let instances = parallel_map_indexed(count, 0, |idx| {
            let seed = derive_seed(seed, idx as u64);
            let (instance, reference) = make(seed);
            AblationInstance {
                seed,
                instance,
                reference,
            }
        });
        AblationGrid { instances }
    }

    /// Runs one table row: `cell` on every instance, across cores, folded
    /// in instance order (solver results are thread-count invariant).
    pub fn row(&self, cell: impl Fn(&AblationInstance<I>) -> AblationCell + Sync) -> AblationRow {
        let cells = parallel_map_indexed(self.instances.len(), 0, |idx| cell(&self.instances[idx]));
        let mut row = AblationRow::default();
        for (cell, instance) in cells.into_iter().zip(&self.instances) {
            row.push(cell, instance.reference);
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saim_core::presets;
    use saim_knapsack::generate;

    #[test]
    fn saim_qkp_driver_runs_and_scores() {
        let inst = generate::qkp(12, 0.5, 1).unwrap();
        let enc = inst.encode().unwrap();
        let (res, outcome) = saim_qkp(&enc, presets::qkp(), 0.02, 1);
        assert_eq!(outcome.records.len(), 40);
        let (opt, certified) = qkp_reference(&inst, 5.0);
        assert!(certified);
        if let Some(best) = res.best_profit {
            assert!(best <= opt);
            assert!(res.best_accuracy(opt).unwrap() <= 100.0);
        }
    }

    #[test]
    fn penalty_drivers_run() {
        let inst = generate::qkp(10, 0.5, 2).unwrap();
        let enc = inst.encode().unwrap();
        let same = penalty_same_budget(&enc, presets::qkp(), 0.01, 2, 40.0);
        assert_eq!(same.mcs, 20 * 1000);
        let (tuned, alpha) = penalty_tuned(&enc, presets::qkp(), 0.01, 2);
        assert!(TUNING_ALPHAS.contains(&alpha));
        assert!(tuned.mcs > 0);
    }

    #[test]
    fn pt_driver_runs() {
        let inst = generate::qkp(10, 0.5, 3).unwrap();
        let enc = inst.encode().unwrap();
        let res = pt_baseline(&enc, presets::qkp(), 0.005, 3, 2.0, 40.0);
        assert_eq!(res.method, "parallel tempering");
        assert!(res.mcs > 0);
    }

    #[test]
    fn ga_and_reference_drivers_run() {
        let inst = generate::mkp(14, 3, 0.5, 4).unwrap();
        let res = ga_mkp(&inst, 0.005, 4);
        let (opt, certified, _) = mkp_reference(&inst, 5.0);
        assert!(certified);
        assert!(res.best_profit.unwrap() <= opt);
    }

    #[test]
    fn optimality_counts_exact_hits() {
        let r = MethodResult {
            method: "x",
            best_profit: Some(10),
            feasible_profits: vec![10, 9, 10, 8],
            feasibility: 1.0,
            mcs: 0,
        };
        assert_eq!(r.optimality(10), 0.5);
        assert_eq!(r.mean_profit(), Some(9.25));
        assert!(r.best_accuracy(10).unwrap() >= 99.9);
    }

    #[test]
    fn ablation_rows_clamp_each_cell_and_skip_empty_cells() {
        let result = |best, feasible_profits, feasibility| MethodResult {
            method: "m",
            best_profit: best,
            feasible_profits,
            feasibility,
            mcs: 0,
        };
        let mut row = AblationRow::default();
        // the second method beats the reference: 120 is the cell's denominator
        row.push(
            AblationCell {
                methods: vec![
                    result(Some(90), vec![90, 80], 0.5),
                    result(Some(120), vec![120], 0.25),
                ],
                extras: vec![Some(3.0)],
            },
            100,
        );
        row.push(AblationCell::default(), 100);
        row.push(
            AblationCell {
                methods: vec![result(None, vec![], 0.0), result(Some(50), vec![50], 1.0)],
                extras: vec![None],
            },
            100,
        );
        assert_eq!(row.best(0), "75.0");
        assert_eq!(row.avg(0), "70.8");
        assert_eq!(row.feasibility(0), "25.0");
        assert_eq!(row.best(1), "75.0");
        assert_eq!(row.feasibility(1), "62.5");
        assert_eq!(row.extra(0), "3.0");
        assert_eq!(row.extra(1), "-");
        assert_eq!(row.best(2), "-");
    }

    #[test]
    fn ablation_grid_seeds_and_references_each_instance_once() {
        let grid = AblationGrid::qkp(10, 2, 7);
        let row = grid.row(|inst| AblationCell {
            methods: Vec::new(),
            extras: vec![Some(inst.reference as f64)],
        });
        let references: Vec<f64> = (0..2)
            .map(|idx| {
                let instance = generate::qkp(10, 0.5, derive_seed(7, idx)).unwrap();
                qkp_reference(&instance, 2.0).0 as f64
            })
            .collect();
        assert_eq!(row.extra(0), format_mean(&references));
    }

    #[test]
    fn summary_means_state_their_instance_count() {
        assert_eq!(format_mean_of(&[96.7, 97.5], 8), "97.1 (2 of 8)");
        assert_eq!(format_mean_of(&[], 6), "- (0 of 6)");
    }

    #[test]
    fn best_known_folds_maxima() {
        let a = MethodResult {
            method: "a",
            best_profit: Some(12),
            feasible_profits: vec![],
            feasibility: 0.0,
            mcs: 0,
        };
        let b = MethodResult {
            best_profit: None,
            ..a.clone()
        };
        assert_eq!(best_known(10, &[&a, &b]), 12);
        assert_eq!(best_known(20, &[&a, &b]), 20);
    }
}
