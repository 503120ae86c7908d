//! The penalty baseline is SAIM with λ held at 0: the same model at the
//! same `P`, scored by the same per-sample fold, with no ascent step. These
//! tests pin that on a knapsack instance, and check that every outcome the
//! baseline returns is self-consistent.

use saim_core::{ConstrainedProblem, PenaltyMethod, SaimConfig, SaimOutcome, SaimRunner};
use saim_knapsack::{generate, QkpEncoded};
use saim_machine::{BetaSchedule, EnsembleAnnealer, EnsembleConfig, SimulatedAnnealing};

fn instance() -> QkpEncoded {
    generate::qkp(30, 0.5, 12)
        .expect("valid parameters")
        .encode()
        .expect("encodes")
}

fn solver(seed: u64) -> SimulatedAnnealing {
    SimulatedAnnealing::new(BetaSchedule::linear(10.0), 300, seed)
}

fn ensemble(seed: u64) -> EnsembleAnnealer {
    let config = EnsembleConfig {
        schedule: BetaSchedule::linear(10.0),
        mcs_per_run: 300,
        ..EnsembleConfig::default()
    };
    EnsembleAnnealer::new(config, seed)
}

#[test]
fn saim_record_zero_is_the_penalty_baselines_record_zero() {
    let enc = instance();
    let penalty = enc.penalty_for_alpha(2.0);
    let config = SaimConfig {
        penalty,
        eta: 20.0,
        iterations: 4,
        seed: 7,
    };
    let saim = SaimRunner::new(config).run(&enc, solver(7));
    let baseline = PenaltyMethod::new(penalty, 4)
        .expect("valid penalty")
        .run(&enc, solver(7))
        .expect("consistent model");
    let (s, b) = (&saim.records[0], &baseline.records[0]);
    assert_eq!(s.iteration, b.iteration);
    assert_eq!(s.cost, b.cost);
    assert_eq!(s.feasible, b.feasible);
    assert_eq!(s.lagrangian_energy, b.lagrangian_energy);
    assert_eq!(s.lambda, vec![0.0; enc.constraints().len()]);
    assert_eq!(s.lambda, b.lambda);
    assert_eq!(s.violations, b.violations);
    assert_eq!(s.mcs_cumulative, b.mcs_cumulative);
    // the two part at the first λ step, which only SAIM takes
    assert!(saim.records[1].lambda.iter().any(|&l| l != 0.0));
    assert!(baseline.records.iter().all(|r| r.lambda == b.lambda));
}

/// The invariants every baseline outcome keeps: its sweep total is its
/// last record's, its feasibility is the share of feasible records, its
/// best is the cheapest feasible record, and λ never moved.
fn assert_self_consistent(out: &SaimOutcome) {
    let last = out.records.last().expect("at least one run");
    assert_eq!(out.mcs_total, last.mcs_cumulative);
    let feasible = out.records.iter().filter(|r| r.feasible).count();
    assert_eq!(out.feasibility, feasible as f64 / out.records.len() as f64);
    let cheapest = out.feasible_costs().into_iter().reduce(f64::min);
    assert_eq!(out.best.as_ref().map(|b| b.cost), cheapest);
    assert!(out.final_lambda.iter().all(|&l| l == 0.0));
}

#[test]
fn every_penalty_outcome_is_self_consistent() {
    let enc = instance();
    let method = PenaltyMethod::new(enc.penalty_for_alpha(100.0), 12).expect("valid penalty");

    let serial = method.run(&enc, solver(3)).expect("consistent model");
    assert!(serial.best.is_some(), "a large P yields feasible samples");
    assert_self_consistent(&serial);

    let parallel = method
        .run_parallel(&enc, &mut ensemble(3))
        .expect("consistent model");
    assert!(parallel.best.is_some(), "a large P yields feasible samples");
    assert_self_consistent(&parallel);

    let (tuned, trace) =
        PenaltyMethod::run_tuned_parallel(&enc, 12, &[0.5, 2.0, 100.0, 400.0], 0.2, |attempt| {
            ensemble(10 + attempt as u64)
        })
        .expect("non-empty grid");
    assert!(tuned.best.is_some());
    assert_self_consistent(&tuned);
    // the sweep's whole budget sits beside the chosen attempt's outcome
    assert!(trace.len() > 1, "the small penalties miss the threshold");
    assert!(trace.iter().any(|t| t.mcs == tuned.mcs_total));
    assert_eq!(
        trace.iter().map(|t| t.mcs).sum::<u64>(),
        trace.len() as u64 * tuned.mcs_total
    );
}
