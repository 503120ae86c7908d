//! Capital budgeting / portfolio selection as a multidimensional knapsack,
//! solved with SAIM — one of the constrained applications motivating the
//! paper's introduction ("constraints on limited resources are found in
//! capital budgeting, portfolio optimization, or production planning").
//!
//! ```text
//! cargo run --release --example portfolio
//! ```
//!
//! We pick a subset of candidate projects maximizing expected return under
//! three simultaneous resource limits (capital, engineering head-count,
//! compliance review hours), then cross-check SAIM against the exact
//! branch-and-bound reference.

use saim_core::{ConstrainedProblem, SaimConfig, SaimRunner};
use saim_exact::bb::{self, BbLimits};
use saim_knapsack::MkpInstance;
use saim_machine::{BetaSchedule, SimulatedAnnealing};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 14 candidate projects with expected returns (k$)
    let names = [
        "datacenter-retrofit",
        "edge-cache",
        "mobile-app-v2",
        "ml-pipeline",
        "billing-rework",
        "iot-gateway",
        "partner-api",
        "security-audit",
        "greenfield-cms",
        "latency-program",
        "ads-platform",
        "sso-rollout",
        "warehouse-robots",
        "support-portal",
    ];
    let returns = vec![
        180, 95, 130, 220, 75, 60, 110, 45, 150, 85, 240, 55, 200, 70,
    ];
    // resource consumption per project: capital (k$), engineers, review hours
    let capital = vec![120, 40, 80, 150, 30, 25, 60, 20, 90, 45, 160, 35, 140, 30];
    let engineers = vec![6, 3, 5, 8, 2, 2, 4, 1, 6, 3, 9, 2, 7, 2];
    let review = vec![20, 10, 25, 40, 15, 10, 20, 30, 25, 10, 45, 25, 35, 10];
    // budgets: 500 k$ capital, 25 engineers, 120 review hours
    let instance = MkpInstance::new(
        returns.clone(),
        vec![capital.clone(), engineers.clone(), review.clone()],
        vec![500, 25, 120],
    )?
    .with_label("portfolio-14-3");

    let encoded = instance.encode()?;
    println!(
        "portfolio: {} projects, {} resource constraints, {} Ising spins after slack",
        instance.len(),
        instance.num_constraints(),
        encoded.num_vars()
    );

    // the paper's MKP parameters: P = 5dN ≈ 10, η = 0.05, β up to 50
    let config = SaimConfig {
        penalty: encoded.penalty_for_alpha(5.0),
        eta: 0.05,
        iterations: 1500,
        seed: 7,
    };
    let solver = SimulatedAnnealing::new(BetaSchedule::linear(50.0), 500, 7);
    let outcome = SaimRunner::new(config).run(&encoded, solver);
    let best = outcome.best.as_ref().ok_or("no feasible portfolio found")?;
    let selection = encoded.decode(&best.state);

    println!("\nselected projects (expected return {} k$):", -best.cost);
    for (i, name) in names.iter().enumerate() {
        if selection[i] == 1 {
            println!(
                "  - {name}: return {} k$, capital {}, engineers {}, review {}h",
                returns[i], capital[i], engineers[i], review[i]
            );
        }
    }
    println!(
        "\nresource usage: capital {}/500 k$, engineers {}/25, review {}/120 h",
        instance.load(&selection, 0),
        instance.load(&selection, 1),
        instance.load(&selection, 2)
    );

    // cross-check against the exact reference
    let exact = bb::solve_mkp(&instance, BbLimits::default());
    println!(
        "\nexact optimum (branch & bound): {} k$ — SAIM reached {:.1}% of it",
        exact.profit,
        100.0 * (-best.cost) / exact.profit as f64
    );
    Ok(())
}
