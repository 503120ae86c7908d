//! The SAIM leg: time-to-target of `SaimRunner::run` on generated knapsack
//! instances with the paper's Table I presets.
//!
//! One *attempt* is one `SaimRunner::run` on one instance with a fresh seed,
//! capped at a fixed iteration budget. The inner solver is the preset's
//! serial simulated annealer behind a bench-side [`Probe`] wrapper, which
//! timestamps every solve. Once the sample of an iteration reaches the
//! target (feasible and at least `target · reference` profit), the probe
//! stops annealing and hands the runner that sample again, so the rest of
//! the budget costs microseconds; nothing after the target iteration is
//! measured. The probe's own scoring work is timed and subtracted.

use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use saim_core::presets::{self, ExperimentPreset};
use saim_core::{ConstrainedProblem, LagrangianSystem, SaimOutcome, SaimRunner};
use saim_exact::bb::{self, BbLimits};
use saim_heuristics::{greedy, local};
use saim_ising::{BinaryState, IsingModel};
use saim_knapsack::{generate, MkpEncoded, MkpInstance, QkpEncoded, QkpInstance};
use saim_machine::parallel::parallel_map_indexed;
use saim_machine::{
    derive_seed, new_rng, BetaSchedule, IsingSolver, NoiseSource, PbitMachine, SimulatedAnnealing,
    SolveOutcome,
};
use std::time::{Duration, Instant};

/// β at or below which a sweep counts as *hot* (the bracket-kernel regime);
/// above it the settled-set scan does most of the work.
pub const HOT_BETA_MAX: f64 = 8.0;

/// Which knapsack family and preset an attempt runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Billionnet–Soutif QKP, density 0.5, Table I QKP preset.
    Qkp,
    /// Chu–Beasley MKP, m = 5, weights up to 100, Table I MKP preset.
    Mkp,
}

/// What the leg runs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub family: Family,
    /// Item counts; attempt `i` uses `sizes[i % sizes.len()]`.
    pub sizes: Vec<usize>,
    pub attempts: usize,
    /// SAIM iterations an attempt may use before it counts as a miss.
    pub budget_iters: usize,
    /// Fraction of the reference profit an attempt must reach.
    pub target: f64,
    /// Node cap of the reference branch and bound (no time cap, so the
    /// reference does not depend on machine load).
    pub bb_nodes: u64,
    /// Draw every attempt's SAIM and annealer streams from the suite's seed
    /// instead of the run's, so the leg does the same work in every run.
    pub fixed_streams: bool,
}

/// A generated, encoded instance.
pub enum Instance {
    Qkp(QkpInstance, QkpEncoded),
    Mkp(MkpInstance, MkpEncoded),
}

/// QKP instances are drawn from `generate::qkp` conditioned on a capacity
/// of at most this share of the total weight (the generator draws it
/// uniformly from 50 up to the total). Above about 0.35 the Table I preset
/// often finds no feasible sample at all within a thousand iterations, and
/// misses that common would make the time-to-target tail infinite.
const QKP_MAX_CAPACITY_SHARE: f64 = 0.3;

/// MKP constraints per instance.
const MKP_M: usize = 5;
/// MKP weight ceiling: keeps the binary slack at 11 bits per constraint.
const MKP_MAX_WEIGHT: u32 = 100;

/// Seed of the instance suite. Like the paper's fixed benchmark sets, the
/// suite is the same in every run; a run's seed draws the SAIM and annealer
/// streams of each attempt, unless the plan fixes them too.
const SUITE_SEED: u64 = 0x5A1A_2025;

impl Instance {
    /// Generates and encodes the suite's instance `index`.
    pub fn generate(plan: &Plan, index: usize) -> Instance {
        let n = plan.sizes[index % plan.sizes.len()];
        let s = derive_seed(SUITE_SEED, index as u64);
        match plan.family {
            Family::Qkp => {
                let inst = (0..)
                    .map(|draw| {
                        generate::qkp(n, 0.5, derive_seed(s, draw)).expect("valid QKP parameters")
                    })
                    .find(|i| {
                        let total: u64 = i.weights().iter().map(|&w| u64::from(w)).sum();
                        i.capacity() as f64 <= QKP_MAX_CAPACITY_SHARE * total as f64
                    })
                    .expect("the generator draws small capacities");
                let enc = inst.encode().expect("QKP instance encodes");
                Instance::Qkp(inst, enc)
            }
            Family::Mkp => {
                let inst = generate::mkp_with_max_weight(n, MKP_M, 0.5, MKP_MAX_WEIGHT, s)
                    .expect("valid MKP parameters");
                let enc = inst.encode().expect("MKP instance encodes");
                Instance::Mkp(inst, enc)
            }
        }
    }

    pub fn spins(&self) -> usize {
        match self {
            Instance::Qkp(_, e) => e.num_vars(),
            Instance::Mkp(_, e) => e.num_vars(),
        }
    }

    fn preset(&self) -> ExperimentPreset {
        match self {
            Instance::Qkp(..) => presets::qkp(),
            Instance::Mkp(..) => presets::mkp(),
        }
    }

    fn penalty(&self) -> f64 {
        let alpha = self.preset().alpha;
        match self {
            Instance::Qkp(_, e) => e.penalty_for_alpha(alpha),
            Instance::Mkp(_, e) => e.penalty_for_alpha(alpha),
        }
    }

    /// Builds the Lagrangian system SAIM anneals (`penalty_qubo` then
    /// `to_ising`) at λ = 0.
    pub fn lagrangian(&self) -> LagrangianSystem {
        let p = self.penalty();
        match self {
            Instance::Qkp(_, e) => LagrangianSystem::new(e, p),
            Instance::Mkp(_, e) => LagrangianSystem::new(e, p),
        }
        .expect("encoded instances are consistent")
    }

    /// Decodes an extended state and scores the selection on the
    /// un-encoded instance: `(profit, feasible)`.
    pub fn score(&self, x: &BinaryState) -> (u64, bool) {
        match self {
            Instance::Qkp(i, e) => {
                let sel = e.decode(x);
                (i.profit(&sel), i.is_feasible(&sel))
            }
            Instance::Mkp(i, e) => {
                let sel = e.decode(x);
                (i.profit(&sel), i.is_feasible(&sel))
            }
        }
    }

    /// The reference: greedy plus local search plus branch and bound capped
    /// by node count only.
    pub fn reference(&self, bb_nodes: u64) -> Reference {
        let limits = BbLimits {
            max_nodes: bb_nodes,
            time_limit: Duration::MAX,
        };
        let (mut sel, bnb) = match self {
            Instance::Qkp(i, _) => {
                let mut sel = greedy::qkp(i);
                local::improve_qkp(i, &mut sel);
                (sel, bb::solve_qkp(i, limits))
            }
            Instance::Mkp(i, _) => {
                let mut sel = greedy::mkp(i);
                local::improve_mkp(i, &mut sel);
                (sel, bb::solve_mkp(i, limits))
            }
        };
        let (heuristic, _) = self.score_selection(&sel);
        if bnb.profit >= heuristic {
            sel = bnb.selection.clone();
        }
        let (profit, feasible) = self.score_selection(&sel);
        Reference {
            profit,
            feasible,
            certified: bnb.proven_optimal,
            claimed: bnb.profit.max(heuristic),
        }
    }

    fn score_selection(&self, sel: &[u8]) -> (u64, bool) {
        match self {
            Instance::Qkp(i, _) => (i.profit(sel), i.is_feasible(sel)),
            Instance::Mkp(i, _) => (i.profit(sel), i.is_feasible(sel)),
        }
    }

    fn run_saim(&self, iterations: usize, seed: u64, probe: Probe<'_>) -> SaimOutcome {
        let preset = self.preset();
        match self {
            Instance::Qkp(_, e) => {
                let config = saim_core::SaimConfig {
                    iterations,
                    ..preset.config_for(e, 1.0, seed)
                };
                SaimRunner::new(config).run(e, probe)
            }
            Instance::Mkp(_, e) => {
                let config = saim_core::SaimConfig {
                    iterations,
                    ..preset.config_for(e, 1.0, seed)
                };
                SaimRunner::new(config).run(e, probe)
            }
        }
    }
}

/// An instance's reference profit, re-scored from its selection.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub profit: u64,
    pub feasible: bool,
    /// Branch and bound exhausted its tree: the profit is optimal.
    pub certified: bool,
    /// The profit the solvers reported, to cross-check the re-score.
    pub claimed: u64,
}

/// One instance ready to attempt.
pub struct Prepared {
    pub instance: Instance,
    pub reference: Reference,
    pub target_profit: u64,
}

/// Generates and encodes every instance of the plan, building each one's
/// Lagrangian system once as SAIM will. This is the leg's set-up.
pub fn setup(plan: &Plan) -> Vec<Instance> {
    (0..plan.attempts)
        .map(|i| {
            let instance = Instance::generate(plan, i);
            std::hint::black_box(instance.lagrangian());
            instance
        })
        .collect()
}

/// Computes references and targets (bench-side preparation, untimed).
pub fn prepare(plan: &Plan, instances: Vec<Instance>) -> Vec<Prepared> {
    let references = parallel_map_indexed(instances.len(), 2, |i| {
        instances[i].reference(plan.bb_nodes)
    });
    instances
        .into_iter()
        .zip(references)
        .map(|(instance, reference)| {
            let target_profit = (plan.target * reference.profit as f64).ceil() as u64;
            Prepared {
                instance,
                reference,
                target_profit,
            }
        })
        .collect()
}

/// The iteration whose sample first reached the target.
#[derive(Debug, Clone, Copy)]
pub struct Reached {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// Wall time from run start to the end of that iteration, less the
    /// probe's own scoring time.
    pub wall: Duration,
    /// Solve time up to and including that iteration.
    pub solve: Duration,
}

/// Everything the probe observed during one attempt.
#[derive(Debug, Default)]
struct ProbeLog {
    start: Option<Instant>,
    reached: Option<Reached>,
    /// Iterations annealed (at most the target iteration + 1).
    annealed: usize,
    solve: Duration,
    /// The probe's own work (scoring, copying), excluded from timings.
    overhead: Duration,
    last: Option<SolveOutcome>,
}

impl ProbeLog {
    /// Scores the last annealed sample unless the target was already met;
    /// `now` is the end of that sample's iteration.
    fn check_last(&mut self, p: &Prepared, now: Instant) {
        if self.reached.is_some() {
            return;
        }
        let Some(last) = &self.last else { return };
        let t = Instant::now();
        let (profit, feasible) = p.instance.score(&last.last.to_binary());
        if feasible && profit >= p.target_profit {
            let start = self.start.expect("set before the run");
            self.reached = Some(Reached {
                iteration: self.annealed - 1,
                wall: now.duration_since(start).saturating_sub(self.overhead),
                solve: self.solve,
            });
        }
        self.overhead += t.elapsed();
    }
}

/// The bench-side `IsingSolver` wrapper; see the module docs.
struct Probe<'a> {
    inner: SimulatedAnnealing,
    target: &'a Prepared,
    log: &'a mut ProbeLog,
    /// Where `sa.solve` spans go, and the attempt's trace id.
    tracer: Option<(&'a Tracer, u64)>,
}

impl IsingSolver for Probe<'_> {
    fn solve(&mut self, model: &IsingModel) -> SolveOutcome {
        self.log.check_last(self.target, Instant::now());
        if self.log.reached.is_some() {
            // target met: the rest of the budget replays the last sample
            return self.log.last.clone().expect("a sample exists once reached");
        }
        let t = Instant::now();
        let out = self.inner.solve(model);
        let end = Instant::now();
        self.log.solve += end - t;
        if let Some((tracer, attempt)) = self.tracer {
            tracer.record(
                attempt,
                0,
                "sa.solve",
                t,
                end,
                (out.mcs as usize * model.len()) as f64,
            );
        }
        self.log.annealed += 1;
        self.log.last = Some(out.clone());
        self.log.overhead += end.elapsed();
        out
    }

    fn mcs_per_solve(&self, n: usize) -> u64 {
        self.inner.mcs_per_solve(n)
    }

    fn name(&self) -> &'static str {
        "bench probe over simulated annealing"
    }
}

/// One attempt's result.
pub struct Attempt {
    pub index: usize,
    pub spins: usize,
    pub reached: Option<Reached>,
    /// Wall time of the run up to the target (the full run on a miss),
    /// less probe overhead.
    pub wall: Duration,
    /// Solve time within `wall`.
    pub solve: Duration,
    /// Iterations within `wall`.
    pub iterations: usize,
    /// Sweeps per SAIM iteration.
    pub mcs_per_run: usize,
    /// Feasible samples over iterations, up to the target.
    pub feasible_share: f64,
    pub outcome: SaimOutcome,
}

impl Attempt {
    /// Seconds to target; infinite for a miss.
    pub fn tts_s(&self) -> f64 {
        self.reached.map_or(f64::INFINITY, |r| r.wall.as_secs_f64())
    }

    /// Monte Carlo sweeps to target; infinite for a miss.
    pub fn mcs_to_target(&self) -> f64 {
        self.reached.map_or(f64::INFINITY, |r| {
            ((r.iteration + 1) * self.mcs_per_run) as f64
        })
    }
}

/// Runs every attempt of the plan.
pub fn run(plan: &Plan, prepared: &[Prepared], seed: u64, tracer: Option<&Tracer>) -> Vec<Attempt> {
    let seed = if plan.fixed_streams { SUITE_SEED } else { seed };
    prepared
        .iter()
        .enumerate()
        .map(|(index, p)| attempt(plan, p, seed, index, tracer))
        .collect()
}

fn attempt(plan: &Plan, p: &Prepared, seed: u64, index: usize, tracer: Option<&Tracer>) -> Attempt {
    let preset = p.instance.preset();
    let solver = preset.solver(derive_seed(seed, 1_000_000 + index as u64));
    let mut log = ProbeLog::default();
    let trace_id = index as u64 + 1;
    let start = Instant::now();
    log.start = Some(start);
    let probe = Probe {
        inner: solver,
        target: p,
        log: &mut log,
        tracer: tracer.map(|t| (t, trace_id)),
    };
    let outcome = p.instance.run_saim(
        plan.budget_iters,
        derive_seed(seed, 2_000_000 + index as u64),
        probe,
    );
    let end = Instant::now();
    // the last annealed iteration has no following solve call to score it
    log.check_last(p, end);
    let (wall, solve, iterations) = match log.reached {
        Some(r) => (r.wall, r.solve, r.iteration + 1),
        None => (
            end.duration_since(start).saturating_sub(log.overhead),
            log.solve,
            plan.budget_iters,
        ),
    };
    if let Some(t) = tracer {
        t.record(
            trace_id,
            0,
            "saim.attempt",
            start,
            start + wall,
            iterations as f64,
        );
    }
    let feasible = outcome.records[..iterations]
        .iter()
        .filter(|r| r.feasible)
        .count();
    Attempt {
        index,
        spins: p.instance.spins(),
        reached: log.reached,
        wall,
        solve,
        iterations,
        mcs_per_run: preset.mcs_per_run,
        feasible_share: feasible as f64 / iterations as f64,
        outcome,
    }
}

/// Re-verifies every attempt from raw state; returns one line per mismatch.
pub fn verify(prepared: &[Prepared], attempts: &[Attempt]) -> Vec<String> {
    let mut errors = Vec::new();
    for (p, a) in prepared.iter().zip(attempts) {
        let r = p.reference;
        if !r.feasible || r.profit != r.claimed {
            errors.push(format!(
                "attempt {}: reference selection re-scores to {} (feasible {}) but {} was claimed",
                a.index, r.profit, r.feasible, r.claimed
            ));
        }
        if let Some(best) = &a.outcome.best {
            let (profit, feasible) = p.instance.score(&best.state);
            if !feasible || profit as f64 != -best.cost {
                errors.push(format!(
                    "attempt {}: best sample re-scores to profit {profit} (feasible {feasible}), \
                     SAIM reported cost {}",
                    a.index, best.cost
                ));
            }
        }
        if let Some(reached) = a.reached {
            let record = &a.outcome.records[reached.iteration];
            let best_profit = a.outcome.best.as_ref().map_or(0.0, |b| -b.cost);
            if !record.feasible
                || -record.cost < p.target_profit as f64
                || best_profit < p.target_profit as f64
            {
                errors.push(format!(
                    "attempt {}: iteration {} was taken as reaching {} but SAIM recorded \
                     cost {} (feasible {})",
                    a.index, reached.iteration, p.target_profit, record.cost, record.feasible
                ));
            }
        } else if let Some(best) = &a.outcome.best {
            if -best.cost >= p.target_profit as f64 {
                errors.push(format!(
                    "attempt {}: SAIM's best {} reaches the target {} the probe never saw",
                    a.index, -best.cost, p.target_profit
                ));
            }
        }
    }
    errors
}

/// Adds the traced pass's per-layer metrics to `m`: the engine and outer
/// step from the probe's timings, the encode step timed once per instance,
/// and the kernel from replaying each attempt's schedule through
/// `PbitMachine::sweep_buffered` on the model SAIM annealed at the attempt's
/// last measured iteration, timing the β ≤ [`HOT_BETA_MAX`] and
/// β > [`HOT_BETA_MAX`] sweeps apart.
pub fn layers(
    prepared: &[Prepared],
    attempts: &[Attempt],
    seed: u64,
    tracer: &Tracer,
    m: &mut Values,
) {
    let solve_s: f64 = attempts.iter().map(|a| a.solve.as_secs_f64()).sum();
    let wall_s: f64 = attempts.iter().map(|a| a.wall.as_secs_f64()).sum();
    let iters: usize = attempts.iter().map(|a| a.iterations).sum();
    let updates: usize = attempts
        .iter()
        .map(|a| a.iterations * a.mcs_per_run * a.spins)
        .sum();
    let iters_to_target: Vec<f64> = attempts
        .iter()
        .map(|a| {
            a.reached
                .map_or(f64::INFINITY, |r| (r.iteration + 1) as f64)
        })
        .collect();
    let feasible: Vec<f64> = attempts.iter().map(|a| a.feasible_share).collect();
    m.insert("sa.solve_ms", solve_s * 1e3 / iters as f64);
    m.insert("sa.ns_per_update", solve_s * 1e9 / updates as f64);
    m.insert("sa.busy_share", solve_s / wall_s);
    m.insert(
        "saim.outer_step_us",
        (wall_s - solve_s) * 1e6 / iters as f64,
    );
    m.insert("saim.iters_to_target", stats::median(&iters_to_target));
    m.insert("saim.feasible_share", stats::mean(&feasible));

    let mut encode_ms = Vec::new();
    // [ns, updates, sweeps, flips] for the hot and the deep sweeps
    let mut kernel = [[0.0f64; 4]; 2];
    for (p, a) in prepared.iter().zip(attempts) {
        let trace = a.index as u64 + 1;
        let t = Instant::now();
        let mut system = p.instance.lagrangian();
        let end = Instant::now();
        tracer.record(
            trace,
            0,
            "encode.lagrangian",
            t,
            end,
            p.instance.spins() as f64,
        );
        encode_ms.push((end - t).as_secs_f64() * 1e3);

        let preset = p.instance.preset();
        let lambda = &a.outcome.records[a.iterations - 1].lambda;
        system
            .set_lambda(lambda)
            .expect("recorded multipliers are valid");
        let model = system.model();
        let s = derive_seed(seed, 3_000_000 + a.index as u64);
        let mut machine = PbitMachine::new(model, &mut new_rng(s));
        let mut noise = NoiseSource::from_seed(derive_seed(s, 1));
        let schedule = BetaSchedule::linear(preset.beta_max);
        let steps = preset.mcs_per_run;
        let betas: Vec<f64> = (0..steps).map(|t| schedule.beta_at(t, steps)).collect();
        // a linear schedule is hot on a prefix and deep on the suffix
        let split = betas.partition_point(|&b| b <= HOT_BETA_MAX);
        let n = model.len() as f64;
        for (k, range, name) in [(0, 0..split, "pbit.hot"), (1, split..steps, "pbit.deep")] {
            let sweeps = range.len() as f64;
            let t = Instant::now();
            let mut flips = 0usize;
            for &beta in &betas[range] {
                flips += machine.sweep_buffered(model, beta, &mut noise);
            }
            let end = Instant::now();
            tracer.record(trace, 0, name, t, end, sweeps * n);
            let add = [
                (end - t).as_nanos() as f64,
                sweeps * n,
                sweeps,
                flips as f64,
            ];
            for (acc, x) in kernel[k].iter_mut().zip(add) {
                *acc += x;
            }
        }
        std::hint::black_box(machine.energy());
    }
    m.insert("encode.lagrangian_ms", stats::median(&encode_ms));
    let [hot, deep] = kernel;
    m.insert("pbit.hot.ns_per_update", hot[0] / hot[1]);
    m.insert("pbit.hot.flips_per_sweep", hot[3] / hot[2]);
    m.insert("pbit.deep.ns_per_update", deep[0] / deep[1]);
    m.insert("pbit.deep.flips_per_sweep", deep[3] / deep[2]);
}

/// End-to-end figures of the leg.
pub struct Summary {
    pub tts_p50_s: f64,
    pub tts_tail: stats::Tail,
    pub mcs_to_target_p50: f64,
    pub ok_share: f64,
}

pub fn summarize(attempts: &[Attempt]) -> Summary {
    let tts: Vec<f64> = attempts.iter().map(Attempt::tts_s).collect();
    let mcs: Vec<f64> = attempts.iter().map(Attempt::mcs_to_target).collect();
    let ok = attempts.iter().filter(|a| a.reached.is_some()).count();
    Summary {
        tts_p50_s: stats::median(&tts),
        tts_tail: stats::tail(&tts),
        mcs_to_target_p50: stats::median(&mcs),
        ok_share: ok as f64 / attempts.len() as f64,
    }
}
