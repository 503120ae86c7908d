//! Criterion bench — batched-sweep throughput vs batch width R.
//!
//! Measures aggregate spin updates of one [`saim_machine::ReplicaBatch`]
//! sweep as the lane count R grows, against R independent serial
//! [`saim_machine::PbitMachine`] sweeps over the same streams. Every lane
//! runs the serial machine's own scan and lanes share no coupling pass, so
//! the two series should track each other until the lane-major planes
//! outgrow the cache — the per-width series shows where that happens.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saim_core::{penalty_qubo, ConstrainedProblem};
use saim_knapsack::generate;
use saim_machine::{derive_seed, new_rng, NoiseSource, PbitMachine, ReplicaBatch};

// the cold regime: most spins saturated, sweep cost = the settled scan plus
// row traffic of the few flips (hot sweeps are tanh/noise-bound)
const BETA: f64 = 20.0;
const WARMUP_SWEEPS: usize = 50;

fn qkp_model(n: usize) -> saim_ising::IsingModel {
    let inst = generate::qkp(n, 0.5, 7).expect("valid parameters");
    let enc = inst.encode().expect("encodes");
    penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising()
}

fn bench_batch_width(c: &mut Criterion) {
    let model = qkp_model(200);
    let mut group = c.benchmark_group("batch_width_n213");
    group.sample_size(10);
    for width in [1usize, 2, 4, 8, 16] {
        group.throughput(Throughput::Elements((model.len() * width) as u64));
        group.bench_with_input(
            BenchmarkId::new("batched", width),
            &model,
            |bencher, model| {
                let seeds: Vec<u64> = (0..width as u64).map(|r| derive_seed(1, r)).collect();
                let mut batch = ReplicaBatch::new(model, &seeds);
                for _ in 0..WARMUP_SWEEPS {
                    batch.sweep_uniform(model, BETA);
                }
                bencher.iter(|| batch.sweep_uniform(model, BETA));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("serial", width),
            &model,
            |bencher, model| {
                let mut machines: Vec<(PbitMachine, NoiseSource)> = (0..width as u64)
                    .map(|r| {
                        let mut rng = new_rng(derive_seed(1, r));
                        let machine = PbitMachine::new(model, &mut rng);
                        (machine, NoiseSource::new(rng))
                    })
                    .collect();
                for _ in 0..WARMUP_SWEEPS {
                    for (machine, noise) in &mut machines {
                        machine.sweep_buffered(model, BETA, noise);
                    }
                }
                bencher.iter(|| {
                    for (machine, noise) in &mut machines {
                        machine.sweep_buffered(model, BETA, noise);
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_width);
criterion_main!(benches);
