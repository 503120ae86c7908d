//! Max-cut on the raw p-bit Ising machine — the *unconstrained* workload
//! Ising machines were built for (paper introduction: minimizing eq. 1 is
//! equivalent to maximizing a graph cut with `W_ij = −J_ij`).
//!
//! ```text
//! cargo run --release --example maxcut
//! ```
//!
//! No penalties, no Lagrange multipliers: just the graph → Ising mapping and
//! annealed Gibbs sampling, demonstrating the substrate SAIM builds on. The
//! annealer is compared with greedy descent and, on the small graph, the
//! exact optimum.

use saim_ising::graph::Graph;
use saim_ising::BinaryState;
use saim_machine::{BetaSchedule, GreedyDescent, IsingSolver, SimulatedAnnealing};
use std::error::Error;

/// A deterministic pseudo-random weighted graph.
fn ring_with_chords(n: usize) -> Result<Graph, Box<dyn Error>> {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n, 1.0 + (i % 3) as f64)?;
        if i % 2 == 0 {
            g.add_edge(i, (i + n / 2) % n, 2.0)?;
        }
    }
    Ok(g)
}

fn main() -> Result<(), Box<dyn Error>> {
    // small graph: verify against brute force
    let small = ring_with_chords(16)?;
    let model = small.to_ising();
    let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 1500, 3);
    let out = sa.solve(&model);
    let sa_cut = small.cut_weight(&out.best);

    let exact_cut = (0u64..(1 << small.len()))
        .map(|mask| small.cut_weight(&BinaryState::from_mask(mask, small.len()).to_spins()))
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "16-vertex graph: annealed cut = {sa_cut}, exact max cut = {exact_cut} ({})",
        if (sa_cut - exact_cut).abs() < 1e-9 {
            "optimal"
        } else {
            "suboptimal"
        }
    );
    // the energy identity cut = (W_total - H)/2
    let recovered = small.cut_from_energy(out.best_energy);
    println!("energy identity check: cut from H = {recovered}, direct = {sa_cut}");

    // larger graph: annealing vs greedy descent
    let big = ring_with_chords(400)?;
    let model = big.to_ising();
    let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(6.0), 800, 11);
    let annealed = big.cut_weight(&sa.solve(&model).best);
    let mut gd = GreedyDescent::new(11);
    let greedy = big.cut_weight(&gd.solve(&model).best);
    println!("\n400-vertex graph (sparse CSR couplings):");
    println!("  annealed cut: {annealed}");
    println!("  greedy descent cut: {greedy}");
    println!("  total edge weight: {}", big.total_weight());
    if annealed < greedy {
        println!("  note: greedy won this seed — rerun with more sweeps to flip it");
    }
    Ok(())
}
