//! Certification suite for the tanh bracket behind the three-tier decision
//! kernel: `lo(x) ≤ tanh(x) ≤ hi(x)` against the *platform* `tanh` (the
//! value the exact kernel actually compares), monotonicity, the saturation
//! boundary, subnormals and `x = 0` — plus the oracle replay property:
//! bracket-kernel trajectories are bit-identical to the retained
//! exact-tanh reference kernel.

use proptest::prelude::*;
use saim_ising::QuboBuilder;
use saim_machine::bracket::{gibbs_decision, tanh_bracket, KNEE, SERIES_CUT};
use saim_machine::{derive_seed, new_rng, NoiseSource, PbitMachine, ReplicaBatch};

/// Asserts the bracket certificate at one point.
fn assert_brackets(x: f64) {
    let (lo, hi) = tanh_bracket(x);
    let t = x.tanh();
    assert!(
        lo <= t && t <= hi,
        "bracket [{lo:e}, {hi:e}] misses tanh({x:e}) = {t:e}"
    );
    assert!(lo >= -1.0 && hi <= 1.0, "bracket escapes [-1, 1] at {x:e}");
    assert!(lo <= hi, "inverted bracket at {x:e}");
}

#[test]
fn bracket_certified_on_dense_uniform_grid() {
    // dense uniform grid across the whole unsaturated range and beyond,
    // deliberately incommensurate with the knee so points land on both
    // sides of every regime boundary
    let steps = 400_000;
    for k in 0..=steps {
        let x = -22.0 + 44.0 * k as f64 / steps as f64;
        assert_brackets(x);
    }
}

#[test]
fn bracket_certified_on_log_grid_down_to_subnormals() {
    // geometric grid over the full exponent range, both signs: magnitudes
    // from the smallest subnormal up to past saturation
    for sign in [1.0f64, -1.0] {
        for e in -1074..6 {
            for frac in 0..16 {
                let x = sign * 2f64.powi(e) * (1.0 + frac as f64 / 16.0);
                if x.is_finite() {
                    assert_brackets(x);
                }
            }
        }
    }
    // the very edge cases by construction
    for bits in [1u64, 2, 3, 0x000F_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000] {
        let x = f64::from_bits(bits); // subnormals and the smallest normal
        assert_brackets(x);
        assert_brackets(-x);
    }
}

#[test]
fn bracket_certified_at_boundaries_and_zero() {
    for x in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        SERIES_CUT,
        -SERIES_CUT,
        SERIES_CUT - f64::EPSILON,
        SERIES_CUT + f64::EPSILON,
        KNEE,
        -KNEE,
        KNEE - f64::EPSILON,
        KNEE + f64::EPSILON,
        20.0, // the saturation constant of the sweep engines
        -20.0,
        20.0 - 1e-12,
        -(20.0 - 1e-12),
        1e300,
        -1e300,
    ] {
        assert_brackets(x);
    }
    assert_eq!(tanh_bracket(0.0), (0.0, 0.0));
}

#[test]
fn bracket_is_monotone_on_sampled_grids() {
    // Both bounds must be non-decreasing like tanh — exactly within each
    // approximation regime, and globally up to the one harmless exception:
    // where a regime boundary switches to a *tighter* approximant, the
    // upper bound may step down (and, mirrored, the lower bound on the
    // negative side) by less than 5 × 10⁻⁴. A downward step of an upper
    // bound never weakens the certificate; this test guards against real
    // misbehavior (an approximant peaking or decaying inside its regime).
    let regime = |x: f64| -> i32 {
        let a = x.abs();
        let band = if a <= SERIES_CUT {
            0
        } else if a < KNEE {
            1
        } else {
            2
        };
        if x < 0.0 {
            -1 - band
        } else {
            band
        }
    };
    let steps = 200_000;
    let mut prev: Option<(f64, f64, f64)> = None;
    for k in 0..=steps {
        let x = -21.0 + 42.0 * k as f64 / steps as f64;
        let (lo, hi) = tanh_bracket(x);
        if let Some((px, plo, phi)) = prev {
            if regime(px) == regime(x) {
                assert!(lo >= plo, "lo decreases at x = {x}");
                assert!(hi >= phi, "hi decreases at x = {x}");
            } else {
                assert!(lo >= plo - 5e-4, "lo drops too far at boundary {x}");
                assert!(hi >= phi - 5e-4, "hi drops too far at boundary {x}");
            }
        }
        prev = Some((x, lo, hi));
    }
}

proptest! {
    /// Random drives, including the saturation boundary neighbourhood.
    #[test]
    fn bracket_certified_on_random_drives(x in -25.0..25.0f64) {
        assert_brackets(x);
    }

    /// The drawn decision agrees with the exact kernel's comparison for
    /// every (drive, noise) pair — the bit-exactness workhorse.
    #[test]
    fn decision_matches_exact_comparison(x in -25.0..25.0f64, u in -1.0..1.0f64) {
        prop_assert_eq!(gibbs_decision(x, u), x.tanh() + u >= 0.0);
    }

    /// Odd-symmetry sanity: the bracket of `-x` mirrors the bracket of `x`.
    #[test]
    fn bracket_mirrors_under_negation(x in 0.0..25.0f64) {
        let (lo, hi) = tanh_bracket(x);
        prop_assert_eq!(tanh_bracket(-x), (-hi, -lo));
    }
}

/// A small random QKP-shaped QUBO for the replay properties.
fn arb_model() -> impl Strategy<Value = saim_ising::IsingModel> {
    (3usize..8).prop_flat_map(|n| {
        let pairs = proptest::collection::vec(((0..n, 0..n), -3.0..3.0f64), 0..12);
        let linear = proptest::collection::vec(-3.0..3.0f64, n);
        (pairs, linear).prop_map(move |(pairs, linear)| {
            let mut b = QuboBuilder::new(n);
            for ((i, j), v) in pairs {
                if i != j {
                    b.add_pair(i, j, v).expect("indices in range");
                }
            }
            for (i, v) in linear.into_iter().enumerate() {
                b.add_linear(i, v).expect("index in range");
            }
            b.build().to_ising()
        })
    })
}

proptest! {
    /// Oracle replay: the three-tier bracket kernel is bit-identical to
    /// the pre-bracket exact-tanh kernel — same states, energies, flip
    /// counts and RNG consumption — over schedules crossing the whole hot
    /// regime into saturation.
    #[test]
    fn bracket_kernel_replays_exact_oracle(model in arb_model(), seed in 0u64..500) {
        let mut rng_a = new_rng(seed);
        let mut a = PbitMachine::new(&model, &mut rng_a);
        let mut noise_a = NoiseSource::new(rng_a);
        let mut rng_b = new_rng(seed);
        let mut b = PbitMachine::new(&model, &mut rng_b);
        let mut noise_b = NoiseSource::new(rng_b);
        for sweep in 0..40 {
            let beta = 0.3 * sweep as f64; // 0 → 12: hot through saturated
            a.sweep_buffered(&model, beta, &mut noise_a);
            b.sweep_exact_oracle_buffered(&model, beta, &mut noise_b);
            prop_assert_eq!(a.state(), b.state(), "sweep {}", sweep);
            prop_assert_eq!(a.energy().to_bits(), b.energy().to_bits());
            prop_assert_eq!(a.flips(), b.flips());
        }
        // RNG consumption matched throughout iff the streams still agree
        prop_assert_eq!(noise_a.unit().to_bits(), noise_b.unit().to_bits());
    }

    /// The batched engine's lanes replay the exact oracle too (through the
    /// serial equivalence): every lane of a width-4 batch matches an
    /// oracle machine on the same stream at hot-regime temperatures.
    #[test]
    fn batch_lanes_replay_exact_oracle(model in arb_model(), seed in 0u64..200) {
        let seeds: Vec<u64> = (0..4).map(|r| derive_seed(seed, r)).collect();
        let mut batch = ReplicaBatch::new(&model, &seeds);
        let mut oracles: Vec<(PbitMachine, NoiseSource)> = seeds
            .iter()
            .map(|&s| {
                let mut rng = new_rng(s);
                let machine = PbitMachine::new(&model, &mut rng);
                (machine, NoiseSource::new(rng))
            })
            .collect();
        for sweep in 0..25 {
            let beta = 0.35 * sweep as f64;
            batch.sweep_uniform(&model, beta);
            for (r, (machine, noise)) in oracles.iter_mut().enumerate() {
                machine.sweep_exact_oracle_buffered(&model, beta, noise);
                prop_assert_eq!(batch.state(r), machine.state(), "lane {}", r);
                prop_assert_eq!(batch.energy(r).to_bits(), machine.energy().to_bits());
                prop_assert_eq!(batch.flips(r), machine.flips());
            }
        }
    }
}
