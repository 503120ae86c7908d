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
use saim_bench::experiments::{result_from_saim, AblationGrid};
use saim_bench::report::Table;
use saim_core::presets;
use saim_core::SaimRunner;
use saim_machine::{derive_seed, BetaSchedule, SimulatedAnnealing};

fn main() {
    let args = HarnessArgs::parse(0.08, std::env::args().skip(1));
    let n = if args.scale >= 1.0 { 100 } else { 40 };
    let preset = presets::qkp();
    let schedules: [(&str, BetaSchedule); 5] = [
        ("linear 0->10 (paper)", BetaSchedule::linear(10.0)),
        ("linear 0->40", BetaSchedule::linear(40.0)),
        ("geometric 0.1->10", BetaSchedule::geometric(0.1, 10.0)),
        ("constant beta=1 (hot)", BetaSchedule::constant(1.0)),
        ("constant beta=10 (cold)", BetaSchedule::constant(10.0)),
    ];

    println!("Ablation: SAIM accuracy vs inner annealing schedule (QKP N = {n}, d = 0.5)\n");
    let mut table = Table::new(&["schedule", "best acc (%)", "avg acc (%)", "feasibility (%)"]);

    let grid = AblationGrid::qkp(n, 3, args.seed);
    for (name, schedule) in schedules {
        let row = grid.row(|inst| {
            let enc = inst.instance.encode().expect("encodes");
            let config = preset.config_for(&enc, args.scale, inst.seed);
            let solver =
                SimulatedAnnealing::new(schedule, preset.mcs_per_run, derive_seed(inst.seed, 1));
            let outcome = SaimRunner::new(config).run(&enc, solver);
            result_from_saim("SAIM", &outcome).into()
        });
        table.row_owned(vec![
            name.to_string(),
            row.best(0),
            row.avg(0),
            row.feasibility(0),
        ]);
    }
    print!("{}", table.render());
    if args.csv {
        print!("{}", table.to_csv());
    }
}
