//! Ablation — how to split a fixed sweep budget between run length and
//! run count.
//!
//! SAIM's outer loop gets one λ update per run, so at a fixed total budget
//! `K × MCS`, more/shorter runs mean more λ adaptation but shallower
//! annealing per sample. The paper picks 10³ MCS × 2000 runs; this ablation
//! sweeps the split. Expected shape: very short runs produce noisy samples
//! (bad subgradients), very long runs starve the λ ascent; a broad optimum
//! sits near the paper's split.
//!
//! ```text
//! cargo run -p saim-bench --release --bin ablation_budget_split
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
    let total: u64 = (preset.total_mcs() as f64 * args.scale) as u64;
    // (mcs_per_run, runs) pairs at the same total budget
    let splits: Vec<(usize, usize)> = [10usize, 100, 1000, 10_000]
        .into_iter()
        .map(|mcs| (mcs, ((total / mcs as u64) as usize).max(2)))
        .collect();

    println!("Ablation: fixed budget of {total} MCS split as K runs x MCS (QKP N = {n}, d = 0.5)");
    println!("paper split: 1000 MCS/run\n");

    let mut table = Table::new(&[
        "MCS/run",
        "runs K",
        "best acc (%)",
        "avg acc (%)",
        "feasibility (%)",
    ]);
    let grid = AblationGrid::qkp(n, 3, args.seed);
    for (mcs, runs) in splits {
        let row = grid.row(|inst| {
            let enc = inst.instance.encode().expect("encodes");
            let mut config = preset.config_for(&enc, args.scale, inst.seed);
            config.iterations = runs;
            let solver = SimulatedAnnealing::new(
                BetaSchedule::linear(preset.beta_max),
                mcs,
                derive_seed(inst.seed, 1),
            );
            let outcome = SaimRunner::new(config).run(&enc, solver);
            result_from_saim("SAIM", &outcome).into()
        });
        table.row_owned(vec![
            mcs.to_string(),
            runs.to_string(),
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
