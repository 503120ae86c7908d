//! Ablation — annealing schedule of SAIM's inner solver.
//!
//! The paper uses a linear β sweep 0 → β_max per run. This ablation compares
//! linear, geometric, and constant schedules at the same sweep budget.
//! Expected shape: linear and geometric perform comparably (both end cold);
//! a constant hot schedule fails to refine and a constant cold schedule
//! quenches into local minima — the sweep matters more than its exact shape.
//!
//! ```text
//! cargo run -p saim-bench --release --bin ablation_schedule
//! ```

use saim_bench::args::HarnessArgs;
use saim_bench::experiments;
use saim_bench::report::Table;
use saim_core::presets;
use saim_core::SaimRunner;
use saim_knapsack::generate;
use saim_machine::{derive_seed, parallel, BetaSchedule, SimulatedAnnealing};

fn main() {
    let args = HarnessArgs::parse(0.08, std::env::args().skip(1));
    let n = if args.scale >= 1.0 { 100 } else { 40 };
    let preset = presets::qkp();
    let instances = 3;
    let schedules: [(&str, BetaSchedule); 5] = [
        ("linear 0->10 (paper)", BetaSchedule::linear(10.0)),
        ("linear 0->40", BetaSchedule::linear(40.0)),
        ("geometric 0.1->10", BetaSchedule::geometric(0.1, 10.0)),
        ("constant beta=1 (hot)", BetaSchedule::constant(1.0)),
        ("constant beta=10 (cold)", BetaSchedule::constant(10.0)),
    ];

    println!("Ablation: SAIM accuracy vs inner annealing schedule (QKP N = {n}, d = 0.5)\n");
    let mut table = Table::new(&["schedule", "best acc (%)", "avg acc (%)", "feasibility (%)"]);

    for (name, schedule) in schedules {
        let mut best_acc = Vec::new();
        let mut avg_acc = Vec::new();
        let mut feas = Vec::new();
        // independent instances anneal across cores; fold in instance order
        // (solver results and the node-budgeted B&B reference are both
        // thread-count invariant)
        let cells = parallel::parallel_map_indexed(instances, 0, |idx| {
            let inst_seed = derive_seed(args.seed, idx as u64);
            let instance = generate::qkp(n, 0.5, inst_seed).expect("valid parameters");
            let enc = instance.encode().expect("encodes");
            let config = preset.config_for(&enc, args.scale, inst_seed);
            let solver =
                SimulatedAnnealing::new(schedule, preset.mcs_per_run, derive_seed(inst_seed, 1));
            let outcome = SaimRunner::new(config).run(&enc, solver);
            let (reference, _) = experiments::qkp_reference(&instance, 2.0);
            let reference =
                reference.max(outcome.best.as_ref().map(|b| (-b.cost) as u64).unwrap_or(0));
            (
                outcome
                    .best
                    .as_ref()
                    .map(|b| 100.0 * (-b.cost) / reference as f64),
                outcome
                    .mean_feasible_cost()
                    .map(|mean| 100.0 * (-mean) / reference as f64),
                100.0 * outcome.feasibility,
            )
        });
        for (best, avg, f) in cells {
            best_acc.extend(best);
            avg_acc.extend(avg);
            feas.push(f);
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", v.iter().sum::<f64>() / v.len() as f64)
            }
        };
        table.row_owned(vec![
            name.to_string(),
            mean(&best_acc),
            mean(&avg_acc),
            mean(&feas),
        ]);
    }
    print!("{}", table.render());
    if args.csv {
        print!("{}", table.to_csv());
    }
}
