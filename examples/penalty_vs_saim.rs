//! Head-to-head: classical penalty method vs SAIM on one QKP instance —
//! the paper's Fig. 1/2 story in runnable form.
//!
//! ```text
//! cargo run --release --example penalty_vs_saim
//! ```
//!
//! Both methods get the same machine and total sweep budget. The penalty
//! method is run at several fixed `P` values to expose its dilemma (small P:
//! infeasible minima; large P: rugged landscape); SAIM uses the small
//! `P = 2dN` and lets λ do the rest.

use saim_core::{ConstrainedProblem, PenaltyMethod, SaimConfig, SaimRunner};
use saim_knapsack::generate;
use saim_machine::{derive_seed, BetaSchedule, SimulatedAnnealing};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let instance = generate::qkp(50, 0.5, 99)?;
    let encoded = instance.encode()?;
    let runs = 120;
    let mcs = 1000;
    println!(
        "instance {}: N = {} (+{} slack), capacity {}",
        instance.label(),
        instance.len(),
        encoded.slack().num_bits(),
        instance.capacity()
    );
    println!("budget per method: {runs} runs x {mcs} MCS\n");

    // --- penalty method across fixed P values
    println!("penalty method (fixed P, best feasible sample over all runs):");
    for alpha in [2.0, 20.0, 100.0, 400.0] {
        let p = encoded.penalty_for_alpha(alpha);
        let solver = SimulatedAnnealing::new(
            BetaSchedule::linear(10.0),
            mcs,
            derive_seed(99, alpha as u64),
        );
        let out = PenaltyMethod::new(p, runs)?.run(&encoded, solver)?;
        match &out.best {
            Some(best) => println!(
                "  P = {alpha:>5}dN: best profit {:>6}, feasibility {:>5.1}%",
                -best.cost,
                100.0 * out.feasibility
            ),
            None => println!(
                "  P = {alpha:>5}dN: NO feasible sample ({}% feasibility) — P below critical",
                100.0 * out.feasibility
            ),
        }
    }

    // --- SAIM at the small P
    let config = SaimConfig {
        penalty: encoded.penalty_for_alpha(2.0),
        eta: 20.0,
        iterations: runs,
        seed: 99,
    };
    let solver = SimulatedAnnealing::new(BetaSchedule::linear(10.0), mcs, derive_seed(99, 1000));
    let outcome = SaimRunner::new(config).run(&encoded, solver);
    println!("\nSAIM (P = 2dN, λ self-adapted):");
    match &outcome.best {
        Some(best) => println!(
            "  best profit {:>6} at iteration {}, feasibility {:.1}%, final λ = {:.2}",
            -best.cost,
            best.iteration,
            100.0 * outcome.feasibility,
            outcome.final_lambda[0]
        ),
        None => println!("  no feasible sample — increase iterations"),
    }
    println!(
        "\nthe point: the penalty method needs the right P per instance; SAIM finds the\n\
         equivalent constraint pressure automatically from the same small P."
    );
    Ok(())
}
