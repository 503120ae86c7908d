//! Quickstart: solve a small quadratic knapsack problem with the
//! Self-Adaptive Ising Machine.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The flow is the one every SAIM application follows:
//!
//! 1. state the problem (here: a QKP instance),
//! 2. encode it for the Ising machine (normalization + binary slack),
//! 3. pick the paper's parameters (`P = 2dN`, η = 20, linear β schedule),
//! 4. run Algorithm 1 and read back the best feasible sample.

use saim_core::{ConstrainedProblem, SaimConfig, SaimRunner};
use saim_knapsack::QkpInstance;
use saim_machine::{BetaSchedule, SimulatedAnnealing};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. A 12-item quadratic knapsack: item values, synergy values for pairs
    //    packed together, weights, and one capacity.
    let values = vec![64, 250, 21, 122, 15, 6, 28, 34, 12, 90, 55, 44];
    let pairs = vec![
        (0, 1, 45),
        (0, 3, 20),
        (1, 2, 15),
        (2, 5, 30),
        (3, 4, 12),
        (4, 7, 25),
        (5, 8, 18),
        (6, 9, 40),
        (7, 10, 22),
        (8, 11, 35),
        (9, 11, 28),
        (1, 6, 50),
    ];
    let weights = vec![26, 11, 8, 3, 5, 9, 14, 7, 12, 10, 6, 4];
    let capacity = 42;
    let instance = QkpInstance::new(values, pairs, weights, capacity)?.with_label("quickstart-12");

    // 2. Encode: normalizes W, h, A, b and appends binary slack bits that
    //    turn `weight ≤ capacity` into an equality the IM can penalize.
    let encoded = instance.encode()?;
    println!(
        "instance {}: {} items + {} slack bits, density {:.2}",
        instance.label(),
        instance.len(),
        encoded.slack().num_bits(),
        instance.density()
    );

    // 3. The paper's QKP parameters: P = 2dN (deliberately below critical),
    //    η = 20, and a linear 0→10 β schedule over 1000-sweep runs.
    let config = SaimConfig {
        penalty: encoded.penalty_for_alpha(2.0),
        eta: 20.0,
        iterations: 150,
        seed: 42,
    };
    let solver = SimulatedAnnealing::new(BetaSchedule::linear(10.0), 1000, 42);

    // 4. Run Algorithm 1.
    let outcome = SaimRunner::new(config).run(&encoded, solver);
    let best = outcome.best.as_ref().ok_or("no feasible sample found")?;
    let selection = encoded.decode(&best.state);

    println!(
        "best feasible profit: {} (found at iteration {})",
        -best.cost, best.iteration
    );
    println!(
        "packed items: {:?}",
        (0..selection.len())
            .filter(|&i| selection[i] == 1)
            .collect::<Vec<_>>()
    );
    println!(
        "weight used: {}/{}",
        instance.weight(&selection),
        instance.capacity()
    );
    println!(
        "feasible samples: {:.0}% of {} runs; final λ = {:.2}",
        100.0 * outcome.feasibility,
        outcome.records.len(),
        outcome.final_lambda[0]
    );
    Ok(())
}
