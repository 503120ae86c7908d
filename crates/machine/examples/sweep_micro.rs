//! Micro-measure of single-thread Gibbs-sweep cost on a synthetic dense
//! model (no knapsack encoding so it builds against the machine crate
//! alone). Used to compare hot-path revisions.

use saim_ising::{Couplings, IsingModel, SymmetricMatrix};
use saim_machine::{new_rng, NoiseSource, PbitMachine};
use std::time::Instant;

fn dense_model(n: usize) -> IsingModel {
    let mut j = SymmetricMatrix::zeros(n);
    let mut v = 0.17_f64;
    for i in 0..n {
        for k in (i + 1)..n {
            v = (v * 1.3 + 0.7).rem_euclid(2.0) - 1.0;
            j.set(i, k, v).expect("valid");
        }
    }
    let fields = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    IsingModel::new(Couplings::Dense(j), fields, 0.0).expect("valid")
}

fn main() {
    for n in [100usize, 200, 300] {
        let model = dense_model(n);
        let mut rng = new_rng(1);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut noise = NoiseSource::new(rng);
        for _ in 0..50 {
            machine.sweep_buffered(&model, 5.0, &mut noise);
        }
        let sweeps = (2_000_000 / n).clamp(200, 50_000);
        let start = Instant::now();
        for _ in 0..sweeps {
            machine.sweep_buffered(&model, 5.0, &mut noise);
        }
        let secs = start.elapsed().as_secs_f64();
        println!(
            "n={n:4}: {:9.1} ns/sweep  {:6.2} Mupd/s  (flips={})",
            secs * 1e9 / sweeps as f64,
            (sweeps * n) as f64 / secs / 1e6,
            machine.flips()
        );
    }
}
