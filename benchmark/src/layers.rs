//! The metric tables (names, units, directions) and the ledger that turns
//! one traced pass's spans, counts and probes into per-layer metrics.
//!
//! A span is named after the metric it feeds, so a spans file reads with the
//! same vocabulary as the result line.

use crate::spans::{self_times_ns, Span};
use crate::stats;
use std::collections::BTreeMap;

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const END_TO_END: [MetricDef; 5] = [
    ("setup_s", "s", "lower"),
    ("verdict_s", "s", "lower"),
    ("cpu_s_per_op", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pes_used", "count", "lower"),
];

/// The `bound` of each end-to-end metric in `BENCHMARK.json`, in that order:
/// the share of the parent's median by which a later change may worsen it.
/// `pes_used` repeats exactly; its bound is below one PE on every workload.
pub const BOUNDS: [f64; 5] = [0.25, 0.25, 0.25, 0.15, 0.000001];

/// The root span of every op, and the span around `compile()`. Both are
/// reported whole; what their children leave over goes to the name beside.
pub const VERDICT: &str = "driver.verdict_s";
pub const COMPILE: &str = "compiler.compile_s";
const PARENTS: [(&str, &str); 2] = [
    (VERDICT, "driver.unattributed_s"),
    (COMPILE, "compiler.unattributed_s"),
];

/// The layers must sum to the whole: an op whose direct children leave more
/// than this share of it unattributed fails the traced run. `compile()`'s
/// remainder is only reported, because its children are a replay, run later
/// on warm caches, and so come up short by more than this on some hosts.
pub const CLOSURE_LIMIT: f64 = 0.10;

pub const PER_LAYER: [MetricDef; 82] = [
    ("apps.build_s", "s", "lower"),
    ("compiler.compile_s", "s", "lower"),
    ("compiler.validate_s", "s", "lower"),
    ("compiler.align_s", "s", "lower"),
    ("compiler.buffering_s", "s", "lower"),
    ("compiler.parallelize_s", "s", "lower"),
    ("compiler.fuse_s", "s", "lower"),
    ("compiler.dataflow_s", "s", "lower"),
    ("compiler.multiplex_s", "s", "lower"),
    ("compiler.capacities_s", "s", "lower"),
    ("compiler.report_s", "s", "lower"),
    ("compiler.check_s", "s", "lower"),
    ("compiler.unattributed_s", "s", "lower"),
    ("compiler.nodes_out", "count", "lower"),
    ("compiler.channels_out", "count", "lower"),
    ("compiler.buffers_inserted", "count", "lower"),
    ("compiler.align_inserted", "count", "lower"),
    ("compiler.replicas_granted", "count", "lower"),
    ("compiler.fused_pairs", "count", "higher"),
    ("compiler.est_utilization", "ratio", "higher"),
    ("compiler.check_violations", "count", "lower"),
    ("compiler.pes_used", "count", "lower"),
    ("compiler.place_s", "s", "lower"),
    ("codegen.lower_s", "s", "lower"),
    ("codegen.shape_key_s", "s", "lower"),
    ("codegen.lower_failed", "count", "lower"),
    ("sim.instantiate_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.firings", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.ns_per_firing", "ns", "lower"),
    ("sim.functional_s", "s", "lower"),
    ("sim.fire_share", "ratio", "lower"),
    ("sim.queue_hold_ns", "ns", "lower"),
    ("sim.queue_est_share", "ratio", "lower"),
    ("sim.interp_run_s", "s", "lower"),
    ("sim.comm_run_s", "s", "lower"),
    ("sim.model_sim_time_s", "s", "lower"),
    ("sim.model_utilization", "ratio", "higher"),
    ("sim.model_frame_latency_max_s", "s", "lower"),
    ("sim.model_violations", "count", "lower"),
    ("metrics.recorder_s", "s", "lower"),
    ("metrics.tape_jsonl_s", "s", "lower"),
    ("metrics.tape_bytes", "bytes", "lower"),
    ("metrics.snapshots", "count", "lower"),
    ("trace.record_s", "s", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.chrome_export_s", "s", "lower"),
    ("trace.chrome_bytes", "bytes", "lower"),
    ("trace.validate_s", "s", "lower"),
    ("parallel.instantiate_s", "s", "lower"),
    ("parallel.run_s", "s", "lower"),
    ("parallel.shards", "count", "higher"),
    ("parallel.windows", "count", "lower"),
    ("parallel.shard_imbalance", "ratio", "lower"),
    ("parallel.speedup", "ratio", "higher"),
    ("parallel.cpu_ratio", "ratio", "lower"),
    ("step.instantiate_s", "s", "lower"),
    ("step.step_s", "s", "lower"),
    ("step.calls", "count", "lower"),
    ("step.finish_s", "s", "lower"),
    ("serve.generate_s", "s", "lower"),
    ("serve.run_s", "s", "lower"),
    ("serve.solo_s", "s", "lower"),
    ("serve.overhead_ratio", "ratio", "lower"),
    ("serve.workers_speedup", "ratio", "higher"),
    ("serve.rounds", "count", "lower"),
    ("serve.events", "count", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.deferred", "count", "lower"),
    ("serve.promoted", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.identical_to_solo", "count", "higher"),
    ("serve.qos_met", "count", "higher"),
    ("explore.config_p50_s", "s", "lower"),
    ("explore.config_p99_s", "s", "lower"),
    ("explore.infeasible", "count", "lower"),
    ("driver.verdict_s", "s", "lower"),
    ("driver.unattributed_s", "s", "lower"),
    ("driver.replay_mismatches", "count", "lower"),
    ("driver.trace_overhead_ratio", "ratio", "lower"),
];

/// Samples per metric name; a metric's value is the median of its samples.
#[derive(Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Replace whatever `name` holds with one derived value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.samples.insert(name, vec![value]);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| stats::median(v))
    }

    /// Add one sample per op and span name: the self time that name's spans
    /// sum to within the op — except the parents, which get their whole
    /// duration while their remainder goes to their `unattributed` name.
    pub fn add_spans(&mut self, spans: &[Span]) {
        let own = self_times_ns(spans);
        let mut sums: BTreeMap<(u32, &'static str), f64> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(&own) {
            let self_s = *self_ns as f64 * 1e-9;
            match PARENTS.iter().find(|(parent, _)| *parent == span.name) {
                Some((parent, rest)) => {
                    *sums.entry((span.op, parent)).or_default() += span.duration_ns() as f64 * 1e-9;
                    *sums.entry((span.op, rest)).or_default() += self_s;
                }
                None => *sums.entry((span.op, span.name)).or_default() += self_s,
            }
        }
        for ((_, name), sum) in sums {
            self.add(name, sum);
        }
    }

    /// The share of the op that its direct children leave unattributed,
    /// when it exceeds [`CLOSURE_LIMIT`].
    pub fn closure_failure(&self) -> Option<f64> {
        let share = self.get("driver.unattributed_s")?.abs() / self.get(VERDICT)?;
        (share > CLOSURE_LIMIT).then_some(share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u32, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn ledger_reports_parents_whole_and_their_remainder_apart() {
        let ms = 1_000_000;
        let spans = [
            span(VERDICT, 0, None, 0, 100 * ms),
            span("apps.build_s", 0, Some(0), 0, 10 * ms),
            span(COMPILE, 0, Some(0), 10 * ms, 40 * ms),
            span("sim.run_s", 0, Some(0), 40 * ms, 95 * ms),
            span("compiler.align_s", 0, Some(2), 200 * ms, 224 * ms),
        ];
        let mut ledger = Ledger::default();
        ledger.add_spans(&spans);
        let near = |ledger: &Ledger, name: &str, want: f64| {
            let got = ledger.get(name).unwrap();
            assert!((got - want).abs() < 1e-12, "{name}: {got} vs {want}");
        };
        near(&ledger, "driver.verdict_s", 0.100);
        near(&ledger, "driver.unattributed_s", 0.005);
        near(&ledger, "compiler.compile_s", 0.030);
        near(&ledger, "compiler.unattributed_s", 0.006);
        near(&ledger, "compiler.align_s", 0.024);
        near(&ledger, "sim.run_s", 0.055);
        assert_eq!(ledger.closure_failure(), None, "5 % unattributed closes");
        // A second op adds a second sample, not a longer first one.
        ledger.add_spans(&[span(VERDICT, 1, None, 0, 300 * ms)]);
        near(&ledger, "driver.verdict_s", 0.200);
        let share = ledger
            .closure_failure()
            .expect("the bare op leaves everything over");
        assert!((share - 0.7625).abs() < 1e-9, "{share}");
    }

    #[test]
    fn every_span_and_metric_name_is_in_the_tables_once() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
        for (parent, rest) in PARENTS {
            assert!(PER_LAYER.iter().any(|m| m.0 == parent));
            assert!(PER_LAYER.iter().any(|m| m.0 == rest));
        }
    }

    /// `BENCHMARK.json` at the repository root must list exactly the metrics
    /// this binary prints, with the same units and directions, the workloads
    /// it runs, and the run length it defaults to. The file keeps the key
    /// order of the contract, so it is compared as text, whitespace removed.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        // The text of the array under `key`; none of them nests an array.
        let array = |key: &str| {
            let open = format!("\"{key}\":[");
            let start = doc.find(&open).unwrap_or_else(|| panic!("{key} missing")) + open.len();
            &doc[start..start + doc[start..].find(']').expect("array closes")]
        };
        let entry = |m: &MetricDef| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                m.0, m.1, m.2
            )
        };
        let per_layer: Vec<String> = PER_LAYER.iter().map(|m| entry(m) + "}").collect();
        assert_eq!(array("per_layer"), per_layer.join(","));
        let end_to_end: Vec<&str> = array("end_to_end").split("},").collect();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for ((listed, m), want) in end_to_end.iter().zip(&END_TO_END).zip(BOUNDS) {
            let bound = listed.strip_prefix(&(entry(m) + ",\"bound\":"));
            let bound = bound.unwrap_or_else(|| panic!("{listed} is not {}", m.0));
            assert_eq!(bound.trim_end_matches('}').parse(), Ok(want), "{}", m.0);
        }
        let workloads: Vec<&str> = array("workloads").split("},").collect();
        assert_eq!(workloads.len(), crate::workloads::NAMES.len());
        for (listed, name) in workloads.iter().zip(crate::workloads::NAMES) {
            assert!(listed.starts_with(&format!("{{\"name\":\"{name}\",\"why\":")));
        }
        let seconds = format!("\"run_seconds\":{},", crate::DEFAULT_SECONDS);
        assert!(doc.contains(&seconds), "run_seconds is not {seconds}");
    }
}
