//! The deterministic snapshot tape: periodic metrics snapshots plus a
//! final summary and QoS report, assembled from the run's recorder and
//! its frame completion times. Export as JSON lines or a human summary
//! table; `digest()` pins the whole tape bitwise for the cross-backend
//! determinism tests.

use crate::histogram::LogHistogram;
use crate::recorder::MetricsRecorder;
use bp_core::QosSpec;

/// One periodic snapshot covering simulated time `[index·Δ, t_end)`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Interval index (0-based).
    pub index: u32,
    /// End of the interval in simulated seconds.
    pub t_end: f64,
    /// Cumulative events created since t=0.
    pub pushed: u64,
    /// Cumulative events processed since t=0.
    pub popped: u64,
    /// Event-queue depth at the end of the interval (`pushed - popped`).
    pub queue_depth: u64,
    /// Firings completed during this interval.
    pub firings: u64,
    /// Per-PE utilization over the sliding window ending at this interval.
    pub pe_util: Vec<f64>,
    /// Frames completed (all sinks EOF) by `t_end`, cumulative.
    pub frames_completed: u32,
    /// Cumulative source input overruns.
    pub input_overruns: u64,
    /// Cumulative budget overruns.
    pub budget_overruns: u64,
    /// Cumulative downstream-space stalls.
    pub stalls: u64,
}

/// Final per-node firing statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeMetrics {
    /// Completed (triggered) firings.
    pub firings: u64,
    /// Median firing latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile firing latency in nanoseconds.
    pub p99_ns: u64,
    /// Maximum firing latency in nanoseconds.
    pub max_ns: u64,
}

/// Final per-channel statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelMetrics {
    /// Queue-occupancy high-water mark (tokens).
    pub hwm: u32,
    /// Times a firing was declined for lack of space on this channel.
    pub stalls: u64,
}

/// Outcome of evaluating the declared [`QosSpec`] contracts against the
/// run, with first-violation timestamps (`INFINITY` = never violated).
#[derive(Clone, Debug, PartialEq)]
pub struct QosReport {
    /// True when every declared contract held and no input overran.
    pub met: bool,
    /// Source input overruns — the same count as
    /// `RealTimeVerdict.violations` (single code path).
    pub input_overruns: u64,
    /// Time of the first input overrun.
    pub first_input_overrun_t: f64,
    /// Frames whose end-to-end latency exceeded `max_frame_latency_s`.
    pub frame_latency_violations: u64,
    /// Completion time of the first late frame.
    pub first_frame_latency_violation_t: f64,
    /// Frame-completion gaps slower than `min_sink_rate_hz`.
    pub sink_rate_violations: u64,
    /// Completion time ending the first slow gap.
    pub first_sink_rate_violation_t: f64,
    /// Total per-node budget overruns.
    pub budget_overruns: u64,
    /// Time of the first budget overrun.
    pub first_budget_overrun_t: f64,
    /// True when `budget_overruns` exceeded `max_budget_overruns`.
    pub budget_violated: bool,
    /// Worst observed end-to-end frame latency in seconds (0 if no frame).
    pub worst_frame_latency_s: f64,
    /// Worst observed gap between frame completions in seconds.
    pub worst_sink_gap_s: f64,
}

/// Final (end-of-run) summary block.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsFinal {
    /// Total simulated time.
    pub sim_time: f64,
    /// Total completed (triggered) firings.
    pub total_firings: u64,
    /// Aggregate firing-latency quantiles in nanoseconds.
    pub firing_p50_ns: u64,
    /// 99th percentile of aggregate firing latency.
    pub firing_p99_ns: u64,
    /// Maximum aggregate firing latency.
    pub firing_max_ns: u64,
    /// Per-node firing statistics, indexed by node id.
    pub nodes: Vec<NodeMetrics>,
    /// Per-channel statistics, indexed by channel id.
    pub channels: Vec<ChannelMetrics>,
    /// Completed frames.
    pub frames_completed: u32,
    /// Median end-to-end frame latency in nanoseconds.
    pub frame_latency_p50_ns: u64,
    /// 99th-percentile end-to-end frame latency in nanoseconds.
    pub frame_latency_p99_ns: u64,
    /// Maximum end-to-end frame latency in nanoseconds.
    pub frame_latency_max_ns: u64,
    /// The QoS contract evaluation.
    pub qos: QosReport,
}

/// The full metrics tape for one run.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsTape {
    /// Snapshot interval in simulated seconds.
    pub interval_s: f64,
    /// Periodic snapshots, one per interval with recorded activity.
    pub snapshots: Vec<MetricsSnapshot>,
    /// End-of-run summary and QoS report.
    pub fin: MetricsFinal,
}

fn quantiles(h: &LogHistogram) -> (u64, u64, u64) {
    (h.value_at_quantile(0.5), h.value_at_quantile(0.99), h.max())
}

fn evaluate_qos(
    contracts: &QosSpec,
    completions: &[f64],
    latencies: &[f64],
    input_overruns: u64,
    first_input_overrun_t: f64,
    budget_overruns: u64,
    first_budget_overrun_t: f64,
) -> QosReport {
    let mut frame_latency_violations = 0u64;
    let mut first_late = f64::INFINITY;
    let mut worst_latency = 0.0f64;
    for (&c, &lat) in completions.iter().zip(latencies.iter()) {
        if lat > worst_latency {
            worst_latency = lat;
        }
        if let Some(bound) = contracts.max_frame_latency_s {
            if lat > bound {
                frame_latency_violations += 1;
                if first_late.is_infinite() {
                    first_late = c;
                }
            }
        }
    }
    let mut sink_rate_violations = 0u64;
    let mut first_slow = f64::INFINITY;
    let mut worst_gap = 0.0f64;
    for pair in completions.windows(2) {
        let gap = pair[1] - pair[0];
        if gap > worst_gap {
            worst_gap = gap;
        }
        if let Some(hz) = contracts.min_sink_rate_hz {
            if gap > 1.0 / hz {
                sink_rate_violations += 1;
                if first_slow.is_infinite() {
                    first_slow = pair[1];
                }
            }
        }
    }
    let budget_violated = contracts
        .max_budget_overruns
        .map(|cap| budget_overruns > cap)
        .unwrap_or(false);
    let met = input_overruns == 0
        && frame_latency_violations == 0
        && sink_rate_violations == 0
        && !budget_violated;
    QosReport {
        met,
        input_overruns,
        first_input_overrun_t,
        frame_latency_violations,
        first_frame_latency_violation_t: first_late,
        sink_rate_violations,
        first_sink_rate_violation_t: first_slow,
        budget_overruns,
        first_budget_overrun_t,
        budget_violated,
        worst_frame_latency_s: worst_latency,
        worst_sink_gap_s: worst_gap,
    }
}

impl MetricsTape {
    /// Assemble the tape from the run's recorder plus its frame
    /// completion times and end-to-end latencies (both in frame order,
    /// completed frames only) and the total simulated time. Every input
    /// is already deterministic across backends, so the tape — and its
    /// digest — is too.
    pub fn assemble(
        rec: &mut MetricsRecorder,
        contracts: &QosSpec,
        completions: &[f64],
        latencies: &[f64],
        sim_time: f64,
    ) -> Self {
        rec.seal();
        let rec = &*rec;
        let dt = rec.interval_s();
        let window = rec.window();
        let ivs = rec.intervals();
        let mut snapshots = Vec::with_capacity(ivs.len());
        let (mut pushed, mut popped, mut overruns, mut budget, mut stalls) = (0u64, 0, 0, 0, 0);
        for (k, iv) in ivs.iter().enumerate() {
            pushed += iv.pushes;
            popped += iv.pops;
            overruns += iv.input_overruns;
            budget += iv.budget_overruns;
            stalls += iv.stalls;
            let t_end = (k + 1) as f64 * dt;
            let lo = (k + 1).saturating_sub(window);
            let span = (k + 1 - lo) as f64 * dt;
            let pe_util = (0..rec.num_pes())
                .map(|pe| {
                    let mut busy = 0.0f64;
                    for iv in &ivs[lo..=k] {
                        busy += iv.pe_busy[pe];
                    }
                    busy / span
                })
                .collect();
            let frames_completed = completions.iter().filter(|&&c| c <= t_end).count() as u32;
            snapshots.push(MetricsSnapshot {
                index: k as u32,
                t_end,
                pushed,
                popped,
                queue_depth: pushed - popped,
                firings: iv.firings,
                pe_util,
                frames_completed,
                input_overruns: overruns,
                budget_overruns: budget,
                stalls,
            });
        }

        let mut frame_hist = LogHistogram::new();
        for &lat in latencies {
            frame_hist.record_seconds(lat);
        }
        let (fp50, fp99, fmax) = quantiles(&frame_hist);
        let (p50, p99, pmax) = quantiles(rec.agg_hist());
        let nodes = rec
            .node_firings()
            .iter()
            .zip(rec.node_hist().iter())
            .map(|(&firings, h)| {
                let (p50_ns, p99_ns, max_ns) = quantiles(h);
                NodeMetrics {
                    firings,
                    p50_ns,
                    p99_ns,
                    max_ns,
                }
            })
            .collect();
        let channels = rec
            .chan_hwm()
            .iter()
            .zip(rec.chan_stalls().iter())
            .map(|(&hwm, &stalls)| ChannelMetrics { hwm, stalls })
            .collect();
        let qos = evaluate_qos(
            contracts,
            completions,
            latencies,
            overruns,
            rec.first_input_overrun_t(),
            budget,
            rec.first_budget_overrun_t(),
        );
        MetricsTape {
            interval_s: dt,
            snapshots,
            fin: MetricsFinal {
                sim_time,
                total_firings: rec.agg_hist().count(),
                firing_p50_ns: p50,
                firing_p99_ns: p99,
                firing_max_ns: pmax,
                nodes,
                channels,
                frames_completed: completions.len() as u32,
                frame_latency_p50_ns: fp50,
                frame_latency_p99_ns: fp99,
                frame_latency_max_ns: fmax,
                qos,
            },
        }
    }

    /// FNV-1a digest over every field of the tape (floats by bit
    /// pattern, vectors length-separated). Bitwise-equal tapes — and only
    /// those — digest equal.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.f64(self.interval_s);
        h.u64(self.snapshots.len() as u64);
        for s in &self.snapshots {
            h.u64(s.index as u64);
            h.f64(s.t_end);
            h.u64(s.pushed);
            h.u64(s.popped);
            h.u64(s.queue_depth);
            h.u64(s.firings);
            h.u64(s.pe_util.len() as u64);
            for &u in &s.pe_util {
                h.f64(u);
            }
            h.u64(s.frames_completed as u64);
            h.u64(s.input_overruns);
            h.u64(s.budget_overruns);
            h.u64(s.stalls);
        }
        let f = &self.fin;
        h.f64(f.sim_time);
        h.u64(f.total_firings);
        h.u64(f.firing_p50_ns);
        h.u64(f.firing_p99_ns);
        h.u64(f.firing_max_ns);
        h.u64(f.nodes.len() as u64);
        for n in &f.nodes {
            h.u64(n.firings);
            h.u64(n.p50_ns);
            h.u64(n.p99_ns);
            h.u64(n.max_ns);
        }
        h.u64(f.channels.len() as u64);
        for c in &f.channels {
            h.u64(c.hwm as u64);
            h.u64(c.stalls);
        }
        h.u64(f.frames_completed as u64);
        h.u64(f.frame_latency_p50_ns);
        h.u64(f.frame_latency_p99_ns);
        h.u64(f.frame_latency_max_ns);
        let q = &f.qos;
        h.u64(q.met as u64);
        h.u64(q.input_overruns);
        h.f64(q.first_input_overrun_t);
        h.u64(q.frame_latency_violations);
        h.f64(q.first_frame_latency_violation_t);
        h.u64(q.sink_rate_violations);
        h.f64(q.first_sink_rate_violation_t);
        h.u64(q.budget_overruns);
        h.f64(q.first_budget_overrun_t);
        h.u64(q.budget_violated as u64);
        h.f64(q.worst_frame_latency_s);
        h.f64(q.worst_sink_gap_s);
        h.finish()
    }

    /// Export as JSON lines: one object per snapshot, then one
    /// `{"final": ...}` object. Floats use Rust's shortest round-trip
    /// formatting; non-finite timestamps (never-violated) become `null`.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.snapshots {
            let util: Vec<String> = s.pe_util.iter().map(|&u| jf(u)).collect();
            let _ = writeln!(
                out,
                "{{\"snapshot\":{},\"t\":{},\"queue_depth\":{},\"pushed\":{},\"popped\":{},\
                 \"firings\":{},\"frames\":{},\"input_overruns\":{},\"budget_overruns\":{},\
                 \"stalls\":{},\"pe_util\":[{}]}}",
                s.index,
                jf(s.t_end),
                s.queue_depth,
                s.pushed,
                s.popped,
                s.firings,
                s.frames_completed,
                s.input_overruns,
                s.budget_overruns,
                s.stalls,
                util.join(",")
            );
        }
        let f = &self.fin;
        let nodes: Vec<String> = f
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"firings\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                    n.firings, n.p50_ns, n.p99_ns, n.max_ns
                )
            })
            .collect();
        let chans: Vec<String> = f
            .channels
            .iter()
            .map(|c| format!("{{\"hwm\":{},\"stalls\":{}}}", c.hwm, c.stalls))
            .collect();
        let q = &f.qos;
        let _ = writeln!(
            out,
            "{{\"final\":{{\"sim_time\":{},\"total_firings\":{},\
             \"firing_ns\":{{\"p50\":{},\"p99\":{},\"max\":{}}},\
             \"frames_completed\":{},\
             \"frame_latency_ns\":{{\"p50\":{},\"p99\":{},\"max\":{}}},\
             \"nodes\":[{}],\"channels\":[{}],\
             \"qos\":{{\"met\":{},\"input_overruns\":{},\"first_input_overrun_t\":{},\
             \"frame_latency_violations\":{},\"first_frame_latency_violation_t\":{},\
             \"sink_rate_violations\":{},\"first_sink_rate_violation_t\":{},\
             \"budget_overruns\":{},\"first_budget_overrun_t\":{},\"budget_violated\":{},\
             \"worst_frame_latency_s\":{},\"worst_sink_gap_s\":{}}}}}}}",
            jf(f.sim_time),
            f.total_firings,
            f.firing_p50_ns,
            f.firing_p99_ns,
            f.firing_max_ns,
            f.frames_completed,
            f.frame_latency_p50_ns,
            f.frame_latency_p99_ns,
            f.frame_latency_max_ns,
            nodes.join(","),
            chans.join(","),
            q.met,
            q.input_overruns,
            jf(q.first_input_overrun_t),
            q.frame_latency_violations,
            jf(q.first_frame_latency_violation_t),
            q.sink_rate_violations,
            jf(q.first_sink_rate_violation_t),
            q.budget_overruns,
            jf(q.first_budget_overrun_t),
            q.budget_violated,
            jf(q.worst_frame_latency_s),
            jf(q.worst_sink_gap_s)
        );
        out
    }

    /// Human-readable summary table. `node_names` labels the per-node
    /// rows when provided (falls back to `node<i>`).
    pub fn summary(&self, node_names: &[String]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let f = &self.fin;
        let _ = writeln!(
            out,
            "metrics: {} snapshots @ {} s, {} firings, {} frames in {:.6} s",
            self.snapshots.len(),
            jf(self.interval_s),
            f.total_firings,
            f.frames_completed,
            f.sim_time
        );
        let _ = writeln!(
            out,
            "  firing latency: p50 {} us, p99 {} us, max {} us",
            f.firing_p50_ns as f64 / 1e3,
            f.firing_p99_ns as f64 / 1e3,
            f.firing_max_ns as f64 / 1e3
        );
        if f.frames_completed > 0 {
            let _ = writeln!(
                out,
                "  frame latency:  p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
                f.frame_latency_p50_ns as f64 / 1e6,
                f.frame_latency_p99_ns as f64 / 1e6,
                f.frame_latency_max_ns as f64 / 1e6
            );
        }
        if let Some(last) = self.snapshots.last() {
            let util: Vec<String> = last
                .pe_util
                .iter()
                .enumerate()
                .filter(|(_, &u)| u > 0.0)
                .map(|(pe, &u)| format!("pe{} {:.1}%", pe, u * 100.0))
                .collect();
            if !util.is_empty() {
                let _ = writeln!(out, "  pe util (last window): {}", util.join("  "));
            }
        }
        let mut busiest: Vec<(usize, &NodeMetrics)> = f
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.firings > 0)
            .collect();
        busiest.sort_by(|a, b| b.1.firings.cmp(&a.1.firings).then(a.0.cmp(&b.0)));
        for (i, n) in busiest.iter().take(8) {
            let name = node_names
                .get(*i)
                .map(|s| s.as_str())
                .unwrap_or("")
                .to_string();
            let label = if name.is_empty() {
                format!("node{i}")
            } else {
                name
            };
            let _ = writeln!(
                out,
                "    {:<20} {:>8} firings  p50 {:>8} ns  p99 {:>8} ns  max {:>8} ns",
                label, n.firings, n.p50_ns, n.p99_ns, n.max_ns
            );
        }
        let stalled: Vec<String> = f
            .channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.stalls > 0)
            .map(|(i, c)| format!("ch{} ×{} (hwm {})", i, c.stalls, c.hwm))
            .collect();
        if !stalled.is_empty() {
            let _ = writeln!(out, "  stalled channels: {}", stalled.join("  "));
        }
        let q = &f.qos;
        let _ = writeln!(
            out,
            "  qos: {} — {} input overruns, {} late frames, {} slow gaps, {} budget overruns{}",
            if q.met { "MET" } else { "VIOLATED" },
            q.input_overruns,
            q.frame_latency_violations,
            q.sink_rate_violations,
            q.budget_overruns,
            if q.first_input_overrun_t.is_finite() {
                format!(" (first overrun at {:.6} s)", q.first_input_overrun_t)
            } else {
                String::new()
            }
        );
        out
    }
}

/// JSON float: shortest round-trip for finite values, `null` otherwise
/// (non-finite encodes "never" for first-violation timestamps).
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// FNV-1a, the same construction `SimReport::fingerprint` uses. Shared
/// with the fleet-merge module so tenant-scoped digests stay in the same
/// hash family.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Strings hash length-first so concatenations cannot collide.
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tape() -> MetricsTape {
        let mut r = MetricsRecorder::new(0.5, 2, 2, 2, 1);
        r.event_pushed(0.0);
        r.event_popped(0.1);
        r.firing_complete(0.1, 0, 0, 0.05);
        r.event_pushed(0.6);
        r.event_popped(0.7);
        r.firing_complete(0.7, 1, 1, 0.2);
        r.chan_depth(0, 3);
        let contracts = QosSpec::none().with_max_frame_latency_s(0.5);
        MetricsTape::assemble(&mut r, &contracts, &[0.4, 1.1], &[0.4, 0.7], 1.2)
    }

    #[test]
    fn assemble_builds_cumulative_snapshots() {
        let t = sample_tape();
        assert_eq!(t.snapshots.len(), 2);
        assert_eq!(t.snapshots[0].pushed, 1);
        assert_eq!(t.snapshots[0].queue_depth, 0);
        assert_eq!(t.snapshots[0].frames_completed, 1);
        assert_eq!(t.snapshots[1].pushed, 2);
        // Frame 2 completes at 1.1, past snapshot 1's t_end of 1.0.
        assert_eq!(t.snapshots[1].frames_completed, 1);
        assert_eq!(t.fin.total_firings, 2);
        assert_eq!(t.fin.frames_completed, 2);
        assert_eq!(t.fin.channels[0].hwm, 3);
        // Frame 2 (latency 0.7 > 0.5) violates the contract.
        assert!(!t.fin.qos.met);
        assert_eq!(t.fin.qos.frame_latency_violations, 1);
        assert_eq!(t.fin.qos.first_frame_latency_violation_t, 1.1);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = sample_tape();
        let b = sample_tape();
        assert_eq!(a.digest(), b.digest());
        let mut c = sample_tape();
        c.snapshots[0].pushed += 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn jsonl_is_line_per_snapshot_plus_final() {
        let t = sample_tape();
        let s = t.to_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"snapshot\":0,"));
        assert!(lines[2].starts_with("{\"final\":"));
        // Never-violated timestamps encode as null.
        assert!(lines[2].contains("\"first_input_overrun_t\":null"));
        // Summary renders without panicking.
        let sum = t.summary(&["a".into(), "b".into()]);
        assert!(sum.contains("qos: VIOLATED"));
    }

    #[test]
    fn sink_rate_contract_counts_slow_gaps() {
        let mut r = MetricsRecorder::new(1.0, 1, 1, 1, 1);
        let contracts = QosSpec::none().with_min_sink_rate_hz(2.0);
        // Gaps: 0.4 (ok), 0.8 (slow).
        let t = MetricsTape::assemble(&mut r, &contracts, &[0.5, 0.9, 1.7], &[0.1, 0.1, 0.1], 2.0);
        assert_eq!(t.fin.qos.sink_rate_violations, 1);
        assert_eq!(t.fin.qos.first_sink_rate_violation_t, 1.7);
        assert!(!t.fin.qos.met);
    }
}
