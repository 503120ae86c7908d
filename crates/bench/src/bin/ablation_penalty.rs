//! Ablation — SAIM vs the static penalty method across the penalty α.
//!
//! The paper claims SAIM "is less parameter-sensitive as P is set once to
//! 2dN for all instances" while the penalty method needs per-instance tuned
//! values between 40·dN and 500·dN. This ablation sweeps `α` for both
//! methods at equal budgets. Expected shape: the static method's accuracy
//! has a narrow sweet spot in α (feasibility collapses below it, landscape
//! ruggedness degrades quality above it), while SAIM's accuracy is flat in
//! α across orders of magnitude.
//!
//! ```text
//! cargo run -p saim-bench --release --bin ablation_penalty
//! ```

use saim_bench::args::HarnessArgs;
use saim_bench::experiments;
use saim_bench::report::Table;
use saim_core::presets;
use saim_core::{PenaltyMethod, SaimConfig, SaimRunner};
use saim_knapsack::generate;
use saim_machine::{derive_seed, parallel};

fn main() {
    let args = HarnessArgs::parse(0.08, std::env::args().skip(1));
    let n = if args.scale >= 1.0 { 100 } else { 40 };
    let preset = presets::qkp();
    let alphas = [0.5, 2.0, 10.0, 40.0, 160.0, 640.0];
    let instances = 3;

    println!("Ablation: accuracy vs penalty multiplier α (P = α·d·N), QKP N = {n}, d = 0.5");
    println!("paper: SAIM uses α = 2 everywhere; the tuned penalty method needs α in 40..500\n");

    let mut table = Table::new(&[
        "alpha",
        "SAIM best (%)",
        "SAIM feas (%)",
        "penalty best (%)",
        "penalty feas (%)",
    ]);

    for alpha in alphas {
        let mut saim_best = Vec::new();
        let mut saim_feas = Vec::new();
        let mut pen_best = Vec::new();
        let mut pen_feas = Vec::new();
        // independent instances anneal across cores; fold in instance order
        // (solver results and the node-budgeted B&B reference are both
        // thread-count invariant)
        let cells = parallel::parallel_map_indexed(instances, 0, |idx| {
            let inst_seed = derive_seed(args.seed, idx as u64);
            let instance = generate::qkp(n, 0.5, inst_seed).expect("valid parameters");
            let enc = instance.encode().expect("encodes");
            let (reference, _) = experiments::qkp_reference(&instance, 2.0);

            // SAIM at this α
            use saim_core::ConstrainedProblem;
            let config = SaimConfig {
                penalty: enc.penalty_for_alpha(alpha),
                eta: preset.eta,
                iterations: ((preset.runs as f64 * args.scale) as usize).max(10),
                seed: inst_seed,
            };
            let saim = SaimRunner::new(config).run(&enc, preset.solver(derive_seed(inst_seed, 1)));
            let reference =
                reference.max(saim.best.as_ref().map(|b| (-b.cost) as u64).unwrap_or(0));

            // static penalty at this α, same run structure, parallel runs
            let runs = ((preset.runs as f64 * args.scale) as usize).max(10);
            let mut engine = preset.ensemble(runs, derive_seed(inst_seed, 2));
            let pen = PenaltyMethod::new(enc.penalty_for_alpha(alpha), runs)
                .expect("valid penalty")
                .run_parallel(&enc, &mut engine)
                .expect("consistent model");
            (
                saim.best
                    .as_ref()
                    .map(|b| 100.0 * (-b.cost) / reference as f64),
                100.0 * saim.feasibility,
                pen.best
                    .as_ref()
                    .map(|(_, c)| 100.0 * (-c) / reference as f64),
                100.0 * pen.feasibility,
            )
        });
        for (sb, sf, pb, pf) in cells {
            saim_best.extend(sb);
            saim_feas.push(sf);
            pen_best.extend(pb);
            pen_feas.push(pf);
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", v.iter().sum::<f64>() / v.len() as f64)
            }
        };
        table.row_owned(vec![
            format!("{alpha}"),
            mean(&saim_best),
            mean(&saim_feas),
            mean(&pen_best),
            mean(&pen_feas),
        ]);
    }
    print!("{}", table.render());
    println!("\nReading: the static penalty needs a large α before any sample is feasible and");
    println!("then degrades; SAIM holds its accuracy from α ≈ 0.5 to α ≈ 100+ because the λ");
    println!("ascent supplies whatever constraint pressure P lacks.");
    if args.csv {
        print!("{}", table.to_csv());
    }
}
