//! Repro: settled-set cache survives a β excursion whose flips were never
//! slack-charged, so masked sweeps resume against a stale certificate.

use saim_ising::QuboBuilder;
use saim_machine::{derive_seed, new_rng, NoiseSource, PbitMachine, ReplicaBatch};

#[test]
fn hot_excursion_then_requench_replays_serial_machines() {
    // every spin strongly biased: at a held β = 2 the lane fully settles,
    // rebuilds an (empty) settled-set list with a positive slack budget
    let mut b = QuboBuilder::new(16);
    for i in 0..16 {
        b.add_linear(i, -50.0).unwrap();
    }
    let model = b.build().to_ising();
    let seeds: Vec<u64> = (0..3).map(|r| derive_seed(9, r)).collect();
    let mut batch = ReplicaBatch::new(&model, &seeds);
    let mut serial: Vec<(PbitMachine, NoiseSource)> = seeds
        .iter()
        .map(|&s| {
            let mut rng = new_rng(s);
            let machine = PbitMachine::new(&model, &mut rng);
            (machine, NoiseSource::new(rng))
        })
        .collect();
    // hold β=2 (list builds), one β=0 scramble sweep (flips never charged
    // against the slack budget), then back to β=2 (tag matches again)
    let schedule: Vec<f64> = std::iter::repeat_n(2.0, 10)
        .chain(std::iter::once(0.0))
        .chain(std::iter::repeat_n(2.0, 5))
        .collect();
    for (sweep, &beta) in schedule.iter().enumerate() {
        batch.sweep_uniform(&model, beta);
        for (r, (machine, noise)) in serial.iter_mut().enumerate() {
            machine.sweep_buffered(&model, beta, noise);
            assert_eq!(
                batch.state(r),
                machine.state(),
                "sweep {sweep} (beta {beta}) lane {r}"
            );
            assert_eq!(
                batch.flips(r),
                machine.flips(),
                "flips at sweep {sweep} lane {r}"
            );
        }
    }
}
