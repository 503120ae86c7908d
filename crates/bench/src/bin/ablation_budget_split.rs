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
use saim_bench::experiments;
use saim_bench::report::Table;
use saim_core::presets;
use saim_core::{SaimConfig, SaimRunner};
use saim_knapsack::generate;
use saim_machine::{derive_seed, parallel, BetaSchedule, SimulatedAnnealing};

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
    let instances = 3;

    println!("Ablation: fixed budget of {total} MCS split as K runs x MCS (QKP N = {n}, d = 0.5)");
    println!("paper split: 1000 MCS/run\n");

    let mut table = Table::new(&[
        "MCS/run",
        "runs K",
        "best acc (%)",
        "avg acc (%)",
        "feasibility (%)",
    ]);
    for (mcs, runs) in splits {
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
            use saim_core::ConstrainedProblem;
            let config = SaimConfig {
                penalty: enc.penalty_for_alpha(preset.alpha),
                eta: preset.eta,
                iterations: runs,
                seed: inst_seed,
            };
            let solver = SimulatedAnnealing::new(
                BetaSchedule::linear(preset.beta_max),
                mcs,
                derive_seed(inst_seed, 1),
            );
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
            mcs.to_string(),
            runs.to_string(),
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
