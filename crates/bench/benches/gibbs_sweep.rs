//! Criterion bench — p-bit Gibbs sweep throughput.
//!
//! One Monte Carlo sweep is the unit of cost in every paper budget (Table I,
//! Fig. 4b), so sweep throughput determines wall-clock for all experiments.
//! Measures sweeps across problem sizes and coupling densities, plus the
//! sparse-storage path on a bounded-degree graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saim_core::{penalty_qubo, ConstrainedProblem};
use saim_knapsack::generate;
use saim_machine::{new_rng, NoiseSource, PbitMachine};

fn qkp_model(n: usize, density: f64) -> saim_ising::IsingModel {
    let inst = generate::qkp(n, density, 7).expect("valid parameters");
    let enc = inst.encode().expect("encodes");
    penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising()
}

fn sparse_ring_model(n: usize) -> saim_ising::IsingModel {
    let mut g = saim_ising::graph::Graph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n, 1.0)
            .expect("ring edges are valid");
        g.add_edge(i, (i + 7) % n, -0.5)
            .expect("chord edges are valid");
    }
    g.to_ising()
}

fn bench_dense_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gibbs_sweep_dense");
    for n in [50usize, 100, 200, 300] {
        let model = qkp_model(n, 0.5);
        let spins = model.len() as u64;
        group.throughput(Throughput::Elements(spins));
        group.bench_with_input(BenchmarkId::from_parameter(n), &model, |b, model| {
            let mut rng = new_rng(1);
            let mut machine = PbitMachine::new(model, &mut rng);
            let mut noise = NoiseSource::new(rng);
            b.iter(|| machine.sweep_buffered(model, 5.0, &mut noise));
        });
    }
    group.finish();
}

fn bench_density_effect(c: &mut Criterion) {
    let mut group = c.benchmark_group("gibbs_sweep_density");
    for d in [0.25, 0.5, 1.0] {
        let model = qkp_model(100, d);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{:02}", (d * 100.0) as u32)),
            &model,
            |b, model| {
                let mut rng = new_rng(2);
                let mut machine = PbitMachine::new(model, &mut rng);
                let mut noise = NoiseSource::new(rng);
                b.iter(|| machine.sweep_buffered(model, 5.0, &mut noise));
            },
        );
    }
    group.finish();
}

fn bench_sparse_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gibbs_sweep_sparse_ring");
    for n in [100usize, 1000, 10_000] {
        let model = sparse_ring_model(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &model, |b, model| {
            let mut rng = new_rng(3);
            let mut machine = PbitMachine::new(model, &mut rng);
            let mut noise = NoiseSource::new(rng);
            b.iter(|| machine.sweep_buffered(model, 2.0, &mut noise));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dense_sweep,
    bench_density_effect,
    bench_sparse_sweep
);
criterion_main!(benches);
