//! Fig. 5 — SAIM cost evolution and the five Lagrange multipliers on an MKP.
//!
//! The paper shows instance 250-5-8 at fixed `P = 10`: constraints start
//! unsatisfied (`Ax > B`, so every λ_m climbs), then around iteration ~1000
//! the multipliers stabilize and near-optimal feasible samples appear.
//!
//! ```text
//! cargo run -p saim-bench --release --bin fig5_mkp_trace            # 50-var stand-in
//! cargo run -p saim-bench --release --bin fig5_mkp_trace -- --full  # 250-var, paper budget
//! ```

use saim_bench::args::HarnessArgs;
use saim_bench::experiments;
use saim_bench::report::{downsample, sparkline, Table};
use saim_core::presets;
use saim_knapsack::generate;

fn main() {
    let args = HarnessArgs::parse(0.3, std::env::args().skip(1));
    let n = if args.scale >= 1.0 { 250 } else { 50 };
    let m = 5;
    let instance = generate::mkp(n, m, 0.5, args.seed).expect("valid generator parameters");
    let enc = instance.encode().expect("instance encodes");
    let preset = presets::mkp();
    let penalty = {
        use saim_core::ConstrainedProblem;
        enc.penalty_for_alpha(preset.alpha)
    };

    println!(
        "Fig. 5: SAIM trace on MKP instance {} ({} knapsacks)",
        instance.label(),
        m
    );
    println!("N = {n} items, P = 5dN ≈ {penalty:.1} (the paper's P = 10 for N = 250)\n");

    let (result, outcome) = experiments::saim_mkp(&enc, preset, args.scale, args.seed);
    let (reference, certified, _) = experiments::mkp_reference(&instance, 10.0);
    let reference = experiments::best_known(reference, &[&result]);

    // a) cost trace
    let costs: Vec<f64> = outcome.records.iter().map(|r| r.cost).collect();
    println!(
        "a) sample cost per iteration (OPT{} = {})",
        if certified { "" } else { " [best known]" },
        -(reference as f64)
    );
    println!("   cost:      {}", sparkline(&downsample(&costs, 80)));
    let feas: Vec<f64> = outcome
        .records
        .iter()
        .map(|r| if r.feasible { 1.0 } else { 0.0 })
        .collect();
    println!(
        "   feasible?: {}  (▁ = unfeasible, █ = feasible)",
        sparkline(&downsample(&feas, 80))
    );

    // b) the five multipliers
    println!("\nb) Lagrange multipliers λ_1..λ_{m} (staircase; constant within each run)");
    for c in 0..m {
        let series: Vec<f64> = outcome.records.iter().map(|r| r.lambda[c]).collect();
        println!(
            "   λ_{}: {}  final = {:.4}",
            c + 1,
            sparkline(&downsample(&series, 70)),
            outcome.final_lambda[c]
        );
    }

    // early iterations must push multipliers up (Ax > B initially)
    let early_up = outcome
        .records
        .iter()
        .take(5)
        .all(|r| r.violations.iter().sum::<f64>() >= 0.0);
    println!(
        "\n   initial constraint pressure: {}",
        if early_up {
            "Ax ≥ B on early samples → all λ_m increase (as in the paper)"
        } else {
            "mixed signs on early samples"
        }
    );

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
        print!("iteration,cost,feasible");
        for c in 0..m {
            print!(",lambda{}", c + 1);
        }
        println!();
        for r in &outcome.records {
            print!("{},{},{}", r.iteration, r.cost, r.feasible);
            for c in 0..m {
                print!(",{}", r.lambda[c]);
            }
            println!();
        }
    }
}
