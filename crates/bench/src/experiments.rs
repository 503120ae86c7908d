//! Shared experiment drivers used by the table/figure binaries.
//!
//! Each driver runs one *method* (SAIM, fixed-penalty SA, tuned-penalty SA,
//! parallel tempering, GA, branch & bound) on one instance and reports a
//! [`MethodResult`] in a common shape, so the binaries only format rows.
//!
//! Budgets follow the paper's Table I at `scale = 1.0` and shrink
//! proportionally below; sweep counts per run stay at the paper's 1000 MCS
//! so a "run" keeps its meaning.

use saim_core::presets::ExperimentPreset;
use saim_core::{ConstrainedProblem, PenaltyMethod, SaimOutcome, SaimRunner};
use saim_exact::bb::{self, BbLimits};
use saim_heuristics::ga::{ChuBeasleyGa, GaConfig};
use saim_heuristics::{greedy, local};
use saim_knapsack::{MkpEncoded, MkpInstance, QkpEncoded, QkpInstance};
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

fn result_from_saim(method: &'static str, outcome: &SaimOutcome) -> MethodResult {
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

/// SAIM with the replica-ensemble inner minimizer: every λ iteration anneals
/// `replicas` independent runs in parallel and reads the best replica's
/// sample. Same outer budget as [`saim_qkp`], `replicas`× the samples per
/// iteration — thread-count invariant by construction.
pub fn saim_qkp_ensemble(
    enc: &QkpEncoded,
    preset: ExperimentPreset,
    scale: f64,
    seed: u64,
    replicas: usize,
) -> (MethodResult, SaimOutcome) {
    let config = preset.config_for(enc, scale, derive_seed(seed, 1));
    let outcome = SaimRunner::new(config).run_ensemble(enc, preset.ensemble_config(replicas));
    (result_from_saim("SAIM (ensemble)", &outcome), outcome)
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
    MethodResult {
        method: "penalty (same budget)",
        best_profit: out.best.as_ref().map(|(_, c)| (-c) as u64),
        feasible_profits: out.feasible_costs.iter().map(|&c| (-c) as u64).collect(),
        feasibility: out.feasibility,
        mcs: out.mcs_total,
    }
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
    (
        MethodResult {
            method: "penalty (tuned P)",
            best_profit: out.best.as_ref().map(|(_, c)| (-c) as u64),
            feasible_profits: out.feasible_costs.iter().map(|&c| (-c) as u64).collect(),
            feasibility: out.feasibility,
            mcs: out.mcs_total,
        },
        alpha,
    )
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

/// The best profit this workspace can certify or witness for a QKP instance:
/// branch & bound (certified when it completes) cross-checked against
/// greedy + local search. Returns `(profit, certified)`.
pub fn qkp_reference(instance: &QkpInstance, time_limit: Duration) -> (u64, bool) {
    let bnb = bb::solve_qkp(
        instance,
        BbLimits {
            max_nodes: u64::MAX,
            time_limit,
        },
    );
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
/// instance. Returns `(profit, certified, elapsed)` — elapsed is the
/// Table V "B&B time" column.
pub fn mkp_reference(instance: &MkpInstance, time_limit: Duration) -> (u64, bool, Duration) {
    let bnb = bb::solve_mkp(
        instance,
        BbLimits {
            max_nodes: u64::MAX,
            time_limit,
        },
    );
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
        let (opt, certified) = qkp_reference(&inst, Duration::from_secs(5));
        assert!(certified);
        if let Some(best) = res.best_profit {
            assert!(best <= opt);
            assert!(res.best_accuracy(opt).unwrap() <= 100.0);
        }
    }

    #[test]
    fn saim_ensemble_driver_matches_budget_and_threads() {
        let inst = generate::qkp(12, 0.5, 1).unwrap();
        let enc = inst.encode().unwrap();
        let (res, outcome) = saim_qkp_ensemble(&enc, presets::qkp(), 0.01, 1, 4);
        assert_eq!(outcome.records.len(), 20);
        // every iteration consumed 4 replicas x 1000 MCS
        assert_eq!(res.mcs, 20 * 4 * 1000);
        // thread-count invariance carries through the whole SAIM loop
        let (res1, outcome1) = saim_qkp_ensemble(&enc, presets::qkp(), 0.01, 1, 4);
        assert_eq!(res, res1);
        assert_eq!(outcome, outcome1);
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
        let (opt, certified, _) = mkp_reference(&inst, Duration::from_secs(5));
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
