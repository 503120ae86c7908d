//! The benchmark's metric catalogue and its result line.
//!
//! Every metric is defined once here with its unit, its direction and — for
//! the per-layer metrics — the end-to-end metric and workload it should
//! move. A run must produce every end-to-end metric (untraced run) or every
//! per-layer metric (traced run); a missing or non-finite value is an error.
//! `BENCHMARK.json` at the repository root lists the same names, which the
//! tests check.

use std::collections::BTreeMap;

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What the metric is and what it should move.
    pub about: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        about,
    }
}

/// Metrics a user of the system sees; measured with tracing off.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower", "median set-up: instance generation + encoding, plus fleet start until the router accepts a first job"),
    def("peak_rss_mb", "MB", "lower", "peak resident memory of the benchmark process through set-up, the SAIM leg and the fixed serving rates"),
    def("mcs_to_target_p50", "mcs", "lower", "SAIM attempts: median Monte Carlo sweeps to target (exact for fixed seeds)"),
    def("tts_ok_share", "share", "higher", "SAIM attempts that reached the target within their budget"),
    def("p50_ms.low", "ms", "lower", "served jobs at the low rate: median latency from due time"),
    def("p50_ms.mid", "ms", "lower", "served jobs at the mid rate: median latency from due time"),
    def("serve_ok_share", "share", "higher", "served jobs settled as completed (not refused, failed, shed or lost)"),
];

/// Metrics of single layers; measured in the traced run. It also reports
/// the untraced pass's times to target, tail latencies, high-rate median and
/// capacity: they are end-to-end figures, but on a shared 2-vCPU machine
/// their run-to-run spread exceeded the largest bound a regression check may
/// use, so they are recorded here without one.
pub const PER_LAYER: &[Def] = &[
    def("encode.lagrangian_ms", "ms", "lower", "core.lagrangian: LagrangianSystem::new per instance -> setup_s, both workloads"),
    def("sa.solve_ms", "ms", "lower", "machine.sa: one SA solve (1000 MCS) -> tts_p50_s, tts_tail_s, both workloads"),
    def("sa.ns_per_update", "ns", "lower", "machine.sa: solve time per spin update -> tts_p50_s, tts_tail_s, both workloads"),
    def("sa.busy_share", "share", "lower", "machine.sa: solve time over SAIM wall time -> bounds what a faster SA saves in tts_*"),
    def("pbit.hot.ns_per_update", "ns", "lower", "machine.pbit: sweep_buffered at beta <= 8 -> tts_p50_s on qkp_unique"),
    def("pbit.hot.flips_per_sweep", "count", "lower", "machine.pbit: spins flipped per hot sweep -> tts_p50_s on qkp_unique"),
    def("pbit.deep.ns_per_update", "ns", "lower", "machine.pbit: sweep_buffered at beta > 8 -> tts_p50_s on mkp_repeat"),
    def("pbit.deep.flips_per_sweep", "count", "lower", "machine.pbit: spins flipped per deep sweep -> tts_p50_s on mkp_repeat"),
    def("saim.outer_step_us", "us", "lower", "core.saim: wall minus solve time per iteration -> tts_p50_s, by at most its share"),
    def("saim.iters_to_target", "count", "lower", "core.saim: median iterations to target -> mcs_to_target_p50"),
    def("saim.feasible_share", "share", "higher", "core.saim: feasible samples over iterations -> mcs_to_target_p50"),
    def("codec.submit_bytes", "bytes", "lower", "machine.service: mean submit frame size -> p50_ms.*, max_rate_jobs_s; nothing on SAIM"),
    def("codec.submit_encode_us", "us", "lower", "machine.service: Request::to_line per submit -> p50_ms.*, max_rate_jobs_s"),
    def("codec.submit_decode_us", "us", "lower", "machine.service: Request::from_line per submit -> p50_ms.*, max_rate_jobs_s"),
    def("codec.outcome_decode_us", "us", "lower", "machine.service: Response::from_line per outcome -> p50_ms.*"),
    def("frontend.backend_ms", "ms", "lower", "machine.frontend: link send to outcome poll, median -> tail_ms.high, max_rate_jobs_s"),
    def("job.solve_ms", "ms", "lower", "machine.frontend: JobOutcome::elapsed_ns, median -> tail_ms.high, max_rate_jobs_s"),
    def("frontend.queue_ms", "ms", "lower", "machine.frontend: backend minus solve (queue wait + backend codec) -> tail_ms.high, max_rate_jobs_s"),
    def("frontend.overloaded", "count", "lower", "machine.frontend: overloaded responses -> tail_ms.high, max_rate_jobs_s"),
    def("cluster.route_ms", "ms", "lower", "machine.cluster: client write to link send, median -> p50_ms.low, both workloads"),
    def("cluster.settle_ms", "ms", "lower", "machine.cluster: link poll to client read, median -> p50_ms.*"),
    def("cluster.journal_bytes_per_job", "bytes", "lower", "machine.cluster: journal size over jobs -> p50_ms.*"),
    def("cluster.placement_skew", "ratio", "lower", "machine.cluster: most over fewest jobs per backend -> tail_ms.* on mkp_repeat only"),
    def("cluster.reroutes", "count", "lower", "machine.cluster: failovers from ClusterReport -> serve_ok_share"),
    def("tts_p50_s", "s", "lower", "untraced: SAIM attempts' median wall time to the end of the iteration reaching the target"),
    def("tts_tail_s", "s", "lower", "untraced: SAIM attempts' tail time to target (a miss is +inf)"),
    def("p50_ms.high", "ms", "lower", "untraced: served jobs at the high rate, median latency from due time"),
    def("tail_ms.low", "ms", "lower", "untraced: served jobs at the low rate, tail latency (a miss is +inf)"),
    def("tail_ms.mid", "ms", "lower", "untraced: served jobs at the mid rate, tail latency (a miss is +inf)"),
    def("tail_ms.high", "ms", "lower", "untraced: served jobs at the high rate, tail latency (a miss is +inf)"),
    def("max_rate_jobs_s", "jobs/s", "higher", "untraced: settled jobs/s at the highest ladder rate meeting the tail limit with no growing backlog"),
    def("gen.lag_p99_ms", "ms", "lower", "load generator: p99 lateness against its schedule; a validity check, not a goal"),
    def("trace.overhead.tts_p50_s", "s", "lower", "tracing cost: traced minus untraced tts_p50_s on the same inputs"),
    def("trace.overhead.p50_ms.mid", "ms", "lower", "tracing cost: traced minus untraced p50_ms.mid on the same inputs"),
];

/// Whether a name is made only of the characters the result format allows.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Checks that `values` holds exactly the metrics of `defs`, each a number.
pub fn check_complete(defs: &[Def], values: &Values) -> Result<(), String> {
    for d in defs {
        if !valid_name(d.name) {
            return Err(format!("metric name `{}` is malformed", d.name));
        }
        match values.get(d.name) {
            None => return Err(format!("metric `{}` was not measured", d.name)),
            Some(v) if v.is_nan() => return Err(format!("metric `{}` is not a number", d.name)),
            Some(_) => {}
        }
    }
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric `{extra}` has no definition"));
    }
    Ok(())
}

/// Formats a value for JSON: every digit kept, infinity written as
/// [`crate::stats::INFINITE_AS`].
fn json_number(v: f64) -> String {
    let v = if v.is_infinite() {
        crate::stats::INFINITE_AS.copysign(v)
    } else {
        v
    };
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    defs: &[Def],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            values.get(d.name).map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(*v),
                    d.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// Metrics as a JSON object body, for the history record.
pub fn json_object(values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert_eq!(
                all.iter().filter(|n| *n == name).count(),
                1,
                "`{name}` repeats"
            );
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{}`",
                d.unit
            );
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(!valid_name("p50 ms"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let listed: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let defined: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &defined {
            assert!(
                listed.contains(name),
                "`{name}` is missing from BENCHMARK.json"
            );
        }
        for name in &listed {
            let is_workload = text.contains(&format!("\"name\": \"{name}\", \"why\""));
            assert!(
                is_workload || defined.contains(name),
                "`{name}` is not defined"
            );
        }
    }

    #[test]
    fn incomplete_results_are_refused() {
        let mut values: Values = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
        assert!(check_complete(END_TO_END, &values).is_ok());
        values.remove("p50_ms.mid");
        assert!(check_complete(END_TO_END, &values).is_err());
        values.insert("p50_ms.mid", f64::NAN);
        assert!(check_complete(END_TO_END, &values).is_err());
        values.insert("p50_ms.mid", 1.0);
        values.insert("sa.solve_ms", 1.0);
        assert!(check_complete(END_TO_END, &values).is_err());
    }

    #[test]
    fn result_line_keeps_digits_and_finite_infinity() {
        let values: Values = [
            ("setup_s", 0.8127),
            ("mcs_to_target_p50", f64::INFINITY),
            ("peak_rss_mb", 3.0),
        ]
        .into_iter()
        .collect();
        let line = result_line(true, 5, 0, END_TO_END, &values);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(
            line.contains("\"mcs_to_target_p50\": {\"value\": 1000000000000.0, \"unit\": \"mcs\"}")
        );
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 3.0, \"unit\": \"MB\"}"));
    }
}
