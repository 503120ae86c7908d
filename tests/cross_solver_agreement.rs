//! Cross-solver agreement: every independent solver in the workspace must
//! agree on small instances where enumeration is the ground truth. The
//! multi-solver runs also go through serialized job specs, with the direct
//! calls kept as the oracle — agreement must survive the job layer.

use saim_core::dual;
use saim_core::{BinaryProblem, LinearConstraint};
use saim_exact::{bb, brute, dp};
use saim_heuristics::ga::{ChuBeasleyGa, GaConfig};
use saim_ising::QuboBuilder;
use saim_knapsack::generate;
use saim_machine::service::{JobOutcome, JobSpec, SolverSpec};
use saim_machine::{
    BetaSchedule, Dynamics, EnsembleAnnealer, EnsembleConfig, IsingSolver, ParallelTempering,
    PtConfig, SimulatedAnnealing,
};

#[test]
fn bb_equals_brute_force_qkp_and_mkp() {
    for seed in 0..8 {
        let q = generate::qkp(13, 0.75, seed).expect("valid parameters");
        let qb = bb::solve_qkp(&q, bb::BbLimits::default());
        assert!(qb.proven_optimal);
        assert_eq!(qb.profit, brute::qkp(&q).profit, "qkp seed {seed}");

        let m = generate::mkp(13, 3, 0.5, seed).expect("valid parameters");
        let mb = bb::solve_mkp(&m, bb::BbLimits::default());
        assert!(mb.proven_optimal);
        assert_eq!(mb.profit, brute::mkp(&m).profit, "mkp seed {seed}");
    }
}

#[test]
fn dp_equals_bb_on_single_constraint() {
    for seed in 0..6 {
        let m = generate::mkp_with_max_weight(18, 1, 0.5, 100, seed).expect("valid parameters");
        let bnb = bb::solve_mkp(&m, bb::BbLimits::default());
        let dp_res = dp::knapsack(m.values(), m.weights(0), m.capacities()[0]);
        assert!(bnb.proven_optimal);
        assert_eq!(bnb.profit, dp_res.profit, "seed {seed}");
    }
}

#[test]
fn sa_and_pt_find_the_same_ground_state_on_small_models() {
    // a frustrated 10-spin model solved by brute force, SA, and PT —
    // directly (the oracle) and as serialized jobs
    let mut b = QuboBuilder::new(10);
    for i in 0..10 {
        for j in (i + 1)..10 {
            let v = if (i * 7 + j * 3) % 4 == 0 { 1.0 } else { -0.6 };
            b.add_pair(i, j, v).expect("valid pair");
        }
        b.add_linear(i, if i % 2 == 0 { -0.4 } else { 0.3 })
            .expect("valid index");
    }
    let qubo = b.build();
    let model = qubo.to_ising();
    let brute_min = (0u64..1024)
        .map(|m| model.energy(&saim_ising::BinaryState::from_mask(m, 10).to_spins()))
        .fold(f64::INFINITY, f64::min);

    let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(12.0), 600, 2);
    let sa_best = sa.solve(&model).best_energy;
    assert!(
        (sa_best - brute_min).abs() < 1e-9,
        "SA missed: {sa_best} vs {brute_min}"
    );

    let cfg = PtConfig {
        replicas: 8,
        sweeps: 400,
        ..PtConfig::default()
    };
    let mut pt = ParallelTempering::new(cfg, 2);
    let pt_direct = pt.solve(&model);
    assert!(
        (pt_direct.best_energy - brute_min).abs() < 1e-9,
        "PT missed: {} vs {brute_min}",
        pt_direct.best_energy
    );

    // the same multi-solver agreement through the job layer: an ensemble
    // of SA runs, the PT solve above, and greedy descent run as specs
    let ens_cfg = EnsembleConfig {
        replicas: 4,
        threads: 1,
        batch_width: 0,
        schedule: BetaSchedule::linear(12.0),
        mcs_per_run: 600,
        dynamics: Dynamics::Gibbs,
    };
    let specs = [
        JobSpec::new(0, qubo.clone(), SolverSpec::Ensemble(ens_cfg), 2),
        JobSpec::new(1, qubo.clone(), SolverSpec::Pt(cfg), 2),
        JobSpec::new(2, qubo.clone(), SolverSpec::Descent { max_sweeps: 500 }, 3),
    ];
    let outcomes: Vec<JobOutcome> = specs.iter().map(JobSpec::run).collect();

    // bit-exact against the direct oracle calls...
    let ens_direct = EnsembleAnnealer::new(ens_cfg, 2).solve(&model);
    assert_eq!(
        outcomes[0].canonical(),
        JobOutcome::new(&specs[0], &ens_direct, std::time::Duration::ZERO).canonical()
    );
    assert_eq!(
        outcomes[1].canonical(),
        JobOutcome::new(&specs[1], &pt_direct, std::time::Duration::ZERO).canonical()
    );
    // ...and still in agreement on the ground state (descent is a local
    // heuristic, so it only bounds from above)
    assert!((outcomes[0].best_energy - brute_min).abs() < 1e-9);
    assert!((outcomes[1].best_energy - brute_min).abs() < 1e-9);
    assert!(outcomes[2].best_energy >= brute_min - 1e-9);
    assert_eq!(outcomes[2].job, 2);
}

#[test]
fn ga_never_exceeds_certified_optimum() {
    for seed in 0..4 {
        let m = generate::mkp(12, 2, 0.5, seed).expect("valid parameters");
        let exact = brute::mkp(&m);
        let ga = ChuBeasleyGa::new(
            GaConfig {
                population: 30,
                generations: 800,
                ..GaConfig::default()
            },
            seed,
        )
        .run(&m);
        assert!(ga.profit <= exact.profit, "seed {seed}");
    }
}

#[test]
fn exact_dual_never_exceeds_opt_and_penalty_bound_never_exceeds_dual() {
    // weak duality chain on a toy problem, LB_P(λ=0) <= MD <= OPT
    let mut f = QuboBuilder::new(5);
    for (i, v) in [5.0, 4.0, 3.0, 2.0, 1.0].into_iter().enumerate() {
        f.add_linear(i, -v).expect("valid index");
    }
    let p = BinaryProblem::new(
        f.build(),
        vec![LinearConstraint::new(vec![1.0; 5], -2.0).expect("finite")],
    )
    .expect("dims agree");
    let (_, opt) = dual::exact_opt(&p).expect("feasible states exist");
    let penalty = 0.3;
    let (_, lb_p) = dual::exact_penalty_bound(&p, penalty);
    let (_, md) = dual::exact_dual_ascent(&p, penalty, 0.05, 300);
    assert!(lb_p <= md + 1e-9, "λ = 0 is in the dual feasible set");
    assert!(md <= opt + 1e-9, "weak duality");
    // and with this small penalty the chain is strict at the bottom
    assert!(lb_p < opt);
}
