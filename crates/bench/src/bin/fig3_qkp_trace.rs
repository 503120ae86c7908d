//! Fig. 3 — SAIM cost evolution and Lagrange-multiplier staircase on a QKP.
//!
//! The paper shows instance 300-50-8 with `P = 2dN = 313`: early samples are
//! all unfeasible with cost *below* OPT (the chosen penalty is deliberately
//! too small), then λ converges to a steady λ* and the machine emits good
//! feasible solutions.
//!
//! ```text
//! cargo run -p saim-bench --release --bin fig3_qkp_trace            # 60-var stand-in
//! cargo run -p saim-bench --release --bin fig3_qkp_trace -- --full  # 300-var, paper budget
//! ```

use saim_bench::args::HarnessArgs;
use saim_bench::experiments;
use saim_bench::report::{downsample, sparkline, Table};
use saim_core::presets;
use saim_knapsack::generate;

fn main() {
    let args = HarnessArgs::parse(0.1, std::env::args().skip(1));
    let n = if args.scale >= 1.0 { 300 } else { 60 };
    let density = 0.5;
    let instance = generate::qkp(n, density, args.seed).expect("valid generator parameters");
    let enc = instance.encode().expect("instance encodes");
    let preset = presets::qkp();
    let penalty = {
        use saim_core::ConstrainedProblem;
        enc.penalty_for_alpha(preset.alpha)
    };

    println!(
        "Fig. 3: SAIM trace on QKP instance {} (d = {density})",
        instance.label()
    );
    println!(
        "N = {n} items + {} slack bits, P = 2dN = {penalty:.1}\n",
        enc.slack().num_bits()
    );

    let (result, outcome) = experiments::saim_qkp(&enc, preset, args.scale, args.seed);
    let (reference, certified) = experiments::qkp_reference(&instance, 5.0);
    let reference = experiments::best_known(reference, &[&result]);

    // b) cost trace: feasible (green triangles in the paper) vs unfeasible (red)
    let costs: Vec<f64> = outcome.records.iter().map(|r| r.cost).collect();
    let feasible_flags: Vec<bool> = outcome.records.iter().map(|r| r.feasible).collect();
    println!(
        "b) sample cost per iteration (cost of x_k; OPT{} = {})",
        if certified { "" } else { " [best known]" },
        -(reference as f64),
    );
    println!("   cost:       {}", sparkline(&downsample(&costs, 80)));
    let feas_series: Vec<f64> = feasible_flags
        .iter()
        .map(|&f| if f { 1.0 } else { 0.0 })
        .collect();
    println!(
        "   feasible?:  {}  (▁ = unfeasible, █ = feasible)",
        sparkline(&downsample(&feas_series, 80))
    );

    let first_feasible = outcome.records.iter().position(|r| r.feasible);
    let undercut = outcome
        .records
        .iter()
        .filter(|r| !r.feasible && r.cost < -(reference as f64))
        .count();
    println!(
        "\n   unfeasible samples with cost < OPT (the paper's red-below-OPT transient): {undercut}"
    );
    match first_feasible {
        Some(k) => println!("   first feasible sample at iteration {k}"),
        None => println!("   no feasible sample found at this scale; rerun with a larger --scale"),
    }

    // c) λ staircase
    let lambdas: Vec<f64> = outcome.records.iter().map(|r| r.lambda[0]).collect();
    println!("\nc) Lagrange multiplier (staircase; constant within each SA run)");
    println!("   lambda:     {}", sparkline(&downsample(&lambdas, 80)));
    println!(
        "   λ₀ = {:.3} → λ_K = {:.3} (steady λ* once samples turn feasible)",
        lambdas.first().copied().unwrap_or(0.0),
        outcome.final_lambda[0]
    );

    // numeric digest
    let mut digest = Table::new(&["metric", "value"]);
    digest.row_owned(vec![
        "iterations K".into(),
        outcome.records.len().to_string(),
    ]);
    digest.row_owned(vec!["MCS total".into(), outcome.mcs_total.to_string()]);
    digest.row_owned(vec![
        "best feasible accuracy (%)".into(),
        result
            .best_accuracy(reference)
            .map_or("-".into(), |a| format!("{a:.2}")),
    ]);
    digest.row_owned(vec![
        "feasibility (%)".into(),
        format!("{:.1}", 100.0 * result.feasibility),
    ]);
    println!("\n{}", digest.render());

    if args.csv {
        println!("iteration,cost,feasible,lambda,mcs_cumulative");
        for r in &outcome.records {
            println!(
                "{},{},{},{},{}",
                r.iteration, r.cost, r.feasible, r.lambda[0], r.mcs_cumulative
            );
        }
    }
}
