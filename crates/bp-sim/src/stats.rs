//! Simulation statistics: per-PE utilization broken down into run/read/write
//! time (as in the paper's Fig. 13) and real-time verdicts.

/// Busy-time accounting for one processing element, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PeStats {
    /// Time spent executing kernel method bodies.
    pub run: f64,
    /// Time spent reading kernel inputs.
    pub read: f64,
    /// Time spent writing kernel outputs.
    pub write: f64,
}

impl PeStats {
    /// Total busy time.
    pub fn busy(&self) -> f64 {
        self.run + self.read + self.write
    }
}

/// Outcome of checking the simulated execution against the application's
/// real-time input rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RealTimeVerdict {
    /// True when every input pixel could be accepted on schedule and all
    /// frames completed.
    pub met: bool,
    /// Number of input samples that found their destination queue full at
    /// their scheduled arrival time (each is a missed real-time deadline).
    pub violations: u64,
    /// The required frame rate (from the application input specification).
    pub required_rate_hz: f64,
    /// The achieved steady-state output frame rate.
    pub achieved_rate_hz: f64,
}

/// Full report of one timed simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-PE busy time.
    pub pe_stats: Vec<PeStats>,
    /// Per-node firing counts (indexed like the graph's nodes).
    pub node_firings: Vec<u64>,
    /// Per-node busy seconds (run+read+write attributed to the node).
    pub node_busy: Vec<f64>,
    /// Total simulated time in seconds.
    pub sim_time: f64,
    /// Frames observed complete at each sink (EOF arrivals).
    pub frames_completed: u32,
    /// Items left queued at the end (nonzero only for feedback loops, whose
    /// final frame legitimately keeps circulating).
    pub residual_items: u64,
    /// Per-node count of firings whose reported actual cycles exceeded the
    /// method's declared budget — the runtime resource exceptions of §VII.
    pub budget_overruns: Vec<u64>,
    /// Deepest single input queue observed at each node — how much of the
    /// channel slack the schedule actually used.
    pub node_max_queue: Vec<usize>,
    /// Latency of each completed frame: first sample injection to the last
    /// sink's end-of-frame. Communication/placement delay would add to this
    /// but not to throughput, as §IV-D observes.
    pub frame_latencies: Vec<f64>,
    /// Kernels that emitted user-defined control tokens faster than their
    /// declared §II-C bound: `(name, observed Hz, declared Hz)`.
    pub token_rate_violations: Vec<(String, f64, f64)>,
    /// Real-time verdict.
    pub verdict: RealTimeVerdict,
}

impl SimReport {
    /// Mean utilization across PEs: busy time / simulated time.
    pub fn avg_utilization(&self) -> f64 {
        if self.pe_stats.is_empty() || self.sim_time <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.pe_stats.iter().map(|p| p.busy()).sum();
        busy / (self.pe_stats.len() as f64 * self.sim_time)
    }

    /// Aggregate utilization split into (run, read, write) fractions of
    /// total PE-time, matching the stacked bars of Fig. 13.
    pub fn utilization_breakdown(&self) -> (f64, f64, f64) {
        if self.pe_stats.is_empty() || self.sim_time <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let denom = self.pe_stats.len() as f64 * self.sim_time;
        let run: f64 = self.pe_stats.iter().map(|p| p.run).sum();
        let read: f64 = self.pe_stats.iter().map(|p| p.read).sum();
        let write: f64 = self.pe_stats.iter().map(|p| p.write).sum();
        (run / denom, read / denom, write / denom)
    }

    /// Number of PEs used.
    pub fn num_pes(&self) -> usize {
        self.pe_stats.len()
    }

    /// Total runtime resource exceptions across all nodes (§VII).
    pub fn total_budget_overruns(&self) -> u64 {
        self.budget_overruns.iter().sum()
    }

    /// Mean per-frame latency in seconds (0 when no frame completed).
    pub fn avg_latency(&self) -> f64 {
        if self.frame_latencies.is_empty() {
            return 0.0;
        }
        self.frame_latencies.iter().sum::<f64>() / self.frame_latencies.len() as f64
    }

    /// FNV-1a hash over every field of the report, with floats folded in by
    /// their exact bit patterns. Two reports fingerprint equal iff they are
    /// bitwise identical — the equivalence the backends, stepping and the
    /// fleet host all guarantee against a plain run, checked in tests and
    /// by the benchmark.
    pub fn fingerprint(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn byte(&mut self, b: u8) {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
            fn word(&mut self, v: u64) {
                for b in v.to_le_bytes() {
                    self.byte(b);
                }
            }
            fn float(&mut self, v: f64) {
                self.word(v.to_bits());
            }
        }
        let mut h = Fnv(0xcbf29ce484222325);
        // Every variable-length field folds its length in first, so data
        // sliding across the boundary of two adjacent vectors (or two
        // adjacent strings) can never collide.
        h.word(self.pe_stats.len() as u64);
        for p in &self.pe_stats {
            h.float(p.run);
            h.float(p.read);
            h.float(p.write);
        }
        h.word(self.node_firings.len() as u64);
        for &f in &self.node_firings {
            h.word(f);
        }
        h.word(self.node_busy.len() as u64);
        for &b in &self.node_busy {
            h.float(b);
        }
        h.float(self.sim_time);
        h.word(self.frames_completed as u64);
        h.word(self.residual_items);
        h.word(self.budget_overruns.len() as u64);
        for &b in &self.budget_overruns {
            h.word(b);
        }
        h.word(self.node_max_queue.len() as u64);
        for &q in &self.node_max_queue {
            h.word(q as u64);
        }
        h.word(self.frame_latencies.len() as u64);
        for &l in &self.frame_latencies {
            h.float(l);
        }
        h.word(self.token_rate_violations.len() as u64);
        for (name, obs, decl) in &self.token_rate_violations {
            h.word(name.len() as u64);
            for b in name.bytes() {
                h.byte(b);
            }
            h.float(*obs);
            h.float(*decl);
        }
        h.word(self.verdict.met as u64);
        h.word(self.verdict.violations);
        h.float(self.verdict.required_rate_hz);
        h.float(self.verdict.achieved_rate_hz);
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            pe_stats: vec![
                PeStats {
                    run: 0.5,
                    read: 0.25,
                    write: 0.25,
                },
                PeStats {
                    run: 0.0,
                    read: 0.0,
                    write: 0.0,
                },
            ],
            node_firings: vec![1, 2],
            node_busy: vec![1.0, 0.0],
            sim_time: 1.0,
            frames_completed: 1,
            residual_items: 0,
            budget_overruns: vec![0, 0],
            node_max_queue: vec![1, 1],
            frame_latencies: vec![0.01],
            token_rate_violations: vec![],
            verdict: RealTimeVerdict {
                met: true,
                violations: 0,
                required_rate_hz: 50.0,
                achieved_rate_hz: 50.0,
            },
        }
    }

    #[test]
    fn utilization_averages_over_pes() {
        let r = report();
        assert!((r.avg_utilization() - 0.5).abs() < 1e-12);
        let (run, read, write) = r.utilization_breakdown();
        assert!((run - 0.25).abs() < 1e-12);
        assert!((read - 0.125).abs() < 1e-12);
        assert!((write - 0.125).abs() < 1e-12);
        assert_eq!(r.num_pes(), 2);
    }

    /// Moving a value across the boundary of two adjacent vectors must
    /// change the fingerprint (the length separators at work): without
    /// them, `node_firings = [1, 2]` and `node_firings = [1]` followed by
    /// a `node_busy` entry with bit pattern 2 hash the same byte stream.
    #[test]
    fn fingerprint_separates_vector_boundaries() {
        let mut a = report();
        a.node_firings = vec![1, 2];
        a.node_busy = vec![];
        let mut b = report();
        b.node_firings = vec![1];
        b.node_busy = vec![f64::from_bits(2)];
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_report_is_zero() {
        let r = SimReport {
            pe_stats: vec![],
            node_firings: vec![],
            node_busy: vec![],
            sim_time: 0.0,
            frames_completed: 0,
            residual_items: 0,
            budget_overruns: vec![],
            node_max_queue: vec![],
            frame_latencies: vec![],
            token_rate_violations: vec![],
            verdict: RealTimeVerdict {
                met: false,
                violations: 0,
                required_rate_hz: 0.0,
                achieved_rate_hz: 0.0,
            },
        };
        assert_eq!(r.avg_utilization(), 0.0);
        assert_eq!(r.utilization_breakdown(), (0.0, 0.0, 0.0));
    }
}
