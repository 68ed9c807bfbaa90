//! The streaming metrics recorder.
//!
//! One `MetricsRecorder` lives inside a timed simulation; the engine calls
//! the hook methods from its event loop, each behind a test for the
//! recorder, so a run without metrics records nothing. Counters are
//! bucketed into fixed simulated-time intervals: every count is attributed
//! to the interval of the simulated time at which the triggering event was
//! processed (or, for event pushes, created) — a pure function of `t`,
//! independent of wall-clock timing, so the recorder is as deterministic as
//! the schedule it observes.
//!
//! Steady-state recording is allocation-free: the only allocations happen
//! when simulated time first crosses into a new interval (amortized one
//! `IntervalAcc` per interval) and when a node's firing latency first lands
//! in a bucket outside its histogram's window (a few times per node).

use crate::histogram::LogHistogram;

/// Hard cap on tracked intervals — later activity clamps into the last
/// interval rather than growing memory without bound. At the default
/// interval (one frame period) this covers ~10^6 frames.
const MAX_INTERVALS: usize = 1 << 20;

/// Per-interval accumulator. All fields are deltas for that interval.
#[derive(Clone, Debug)]
pub struct IntervalAcc {
    /// Events created (pushed) during the interval.
    pub pushes: u64,
    /// Events processed (popped) during the interval.
    pub pops: u64,
    /// Kernel firings completed during the interval.
    pub firings: u64,
    /// Source input overruns (the `RealTimeVerdict.violations` events).
    pub input_overruns: u64,
    /// Per-node budget overruns observed.
    pub budget_overruns: u64,
    /// Downstream-space stalls (credit or queue-capacity declines).
    pub stalls: u64,
    /// Busy seconds per PE accumulated at firing completion.
    pub pe_busy: Vec<f64>,
}

impl IntervalAcc {
    fn new(num_pes: usize) -> Self {
        Self {
            pushes: 0,
            pops: 0,
            firings: 0,
            input_overruns: 0,
            budget_overruns: 0,
            stalls: 0,
            pe_busy: vec![0.0; num_pes],
        }
    }
}

/// One pending run of equal firing-latency values for one node, not yet
/// flushed into that node's [`LogHistogram`]. Per-node firing costs are
/// near-constant, so the common case is a long run of one value; caching
/// it here keeps the hot path inside one compact array (the node's
/// histogram, a separate heap window of buckets, is only touched when the
/// value changes or at [`seal`]).
/// Flushing via [`LogHistogram::record_n`] is bitwise identical to
/// recording each value directly — counts are additive — so the cache
/// changes nothing observable.
///
/// [`seal`]: MetricsRecorder::seal
#[derive(Clone, Debug)]
struct HotCell {
    ns: u64,
    count: u64,
}

/// Streaming metrics state for one run.
#[derive(Clone, Debug)]
pub struct MetricsRecorder {
    interval_s: f64,
    window: usize,
    num_pes: usize,
    cur: usize,
    cur_end_t: f64,
    intervals: Vec<IntervalAcc>,
    node_firings: Vec<u64>,
    node_hist: Vec<LogHistogram>,
    node_hot: Vec<HotCell>,
    agg_hist: LogHistogram,
    chan_hwm: Vec<u32>,
    chan_stalls: Vec<u64>,
    first_input_overrun_t: f64,
    first_budget_overrun_t: f64,
    first_stall_t: f64,
}

impl MetricsRecorder {
    /// A fresh recorder for a machine with `num_pes` PEs, a graph with
    /// `num_nodes` nodes and `num_chans` channels, bucketing at
    /// `interval_s` simulated seconds with a `window`-interval sliding
    /// utilization window.
    pub fn new(
        interval_s: f64,
        window: usize,
        num_pes: usize,
        num_nodes: usize,
        num_chans: usize,
    ) -> Self {
        assert!(interval_s > 0.0 && interval_s.is_finite());
        assert!(window > 0);
        Self {
            interval_s,
            window,
            num_pes,
            cur: 0,
            cur_end_t: interval_s,
            intervals: vec![IntervalAcc::new(num_pes)],
            node_firings: vec![0; num_nodes],
            node_hist: vec![LogHistogram::new(); num_nodes],
            node_hot: vec![HotCell { ns: 0, count: 0 }; num_nodes],
            agg_hist: LogHistogram::new(),
            chan_hwm: vec![0; num_chans],
            chan_stalls: vec![0; num_chans],
            first_input_overrun_t: f64::INFINITY,
            first_budget_overrun_t: f64::INFINITY,
            first_stall_t: f64::INFINITY,
        }
    }

    /// Snapshot interval in simulated seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Sliding utilization window, in intervals.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of PEs tracked.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// The recorded intervals (index k covers `[k·Δ, (k+1)·Δ)`).
    pub fn intervals(&self) -> &[IntervalAcc] {
        &self.intervals
    }

    /// Cumulative firings per node. Derived from the per-node histograms
    /// at [`seal`](Self::seal) — valid only after sealing.
    pub fn node_firings(&self) -> &[u64] {
        &self.node_firings
    }

    /// Per-node firing-latency histograms.
    pub fn node_hist(&self) -> &[LogHistogram] {
        &self.node_hist
    }

    /// Aggregate firing-latency histogram across all nodes. Derived from
    /// the per-node histograms at [`seal`](Self::seal) — valid only after
    /// sealing.
    pub fn agg_hist(&self) -> &LogHistogram {
        &self.agg_hist
    }

    /// Per-channel occupancy high-water marks.
    pub fn chan_hwm(&self) -> &[u32] {
        &self.chan_hwm
    }

    /// Per-channel stall counters (credit or queue-capacity declines).
    pub fn chan_stalls(&self) -> &[u64] {
        &self.chan_stalls
    }

    /// Simulated time of the first input overrun (`INFINITY` if none).
    pub fn first_input_overrun_t(&self) -> f64 {
        self.first_input_overrun_t
    }

    /// Simulated time of the first budget overrun (`INFINITY` if none).
    pub fn first_budget_overrun_t(&self) -> f64 {
        self.first_budget_overrun_t
    }

    /// Simulated time of the first downstream stall (`INFINITY` if none).
    pub fn first_stall_t(&self) -> f64 {
        self.first_stall_t
    }

    #[cold]
    fn advance(&mut self, t: f64) {
        let k = ((t / self.interval_s) as usize).min(MAX_INTERVALS - 1);
        while self.intervals.len() <= k {
            self.intervals.push(IntervalAcc::new(self.num_pes));
        }
        self.cur = k;
        self.cur_end_t = if k == MAX_INTERVALS - 1 {
            f64::INFINITY
        } else {
            (k + 1) as f64 * self.interval_s
        };
    }

    /// Accumulator for simulated time `t`. Event times are non-decreasing,
    /// so this is a branch-and-index in steady state.
    #[inline]
    fn acc(&mut self, t: f64) -> &mut IntervalAcc {
        if t >= self.cur_end_t {
            self.advance(t);
        }
        &mut self.intervals[self.cur]
    }

    /// An event was created at simulated time `t` (the clock of the event
    /// that created it, not the time it is scheduled for).
    #[inline]
    pub fn event_pushed(&mut self, t: f64) {
        self.acc(t).pushes += 1;
    }

    /// An event was popped for processing at simulated time `t`.
    #[inline]
    pub fn event_popped(&mut self, t: f64) {
        self.acc(t).pops += 1;
    }

    /// A firing of `node` on `pe` completed at `t`, having occupied the PE
    /// for `busy_s` seconds (read + run + write).
    #[inline]
    pub fn firing_complete(&mut self, t: f64, pe: usize, node: usize, busy_s: f64) {
        let a = self.acc(t);
        a.firings += 1;
        a.pe_busy[pe] += busy_s;
        let ns = (busy_s * 1e9) as u64;
        let hot = &mut self.node_hot[node];
        if hot.ns == ns {
            hot.count += 1;
        } else {
            if hot.count > 0 {
                self.node_hist[node].record_n(hot.ns, hot.count);
            }
            hot.ns = ns;
            hot.count = 1;
        }
    }

    /// Flush every pending `HotCell` run into its node's histogram and
    /// rebuild the derived aggregates (`agg_hist`, `node_firings`) from
    /// the sealed per-node histograms. Must be called before any of those
    /// are read (tape assembly does); idempotent.
    ///
    /// Deriving the aggregates here instead of in `firing_complete` keeps
    /// two more scattered arrays out of the per-firing path, and is
    /// bitwise identical to recording into them directly: histogram
    /// counts are additive and the aggregate max is the max of per-node
    /// maxes.
    pub fn seal(&mut self) {
        for (hot, hist) in self.node_hot.iter_mut().zip(self.node_hist.iter_mut()) {
            if hot.count > 0 {
                hist.record_n(hot.ns, hot.count);
                hot.count = 0;
            }
        }
        let mut agg = LogHistogram::new();
        for (firings, hist) in self.node_firings.iter_mut().zip(self.node_hist.iter()) {
            *firings = hist.count();
            agg.merge(hist);
        }
        self.agg_hist = agg;
    }

    /// Channel `chan` reached queue `depth`; track the high-water mark.
    #[inline]
    pub fn chan_depth(&mut self, chan: usize, depth: usize) {
        let d = depth.min(u32::MAX as usize) as u32;
        if d > self.chan_hwm[chan] {
            self.chan_hwm[chan] = d;
        }
    }

    /// A firing was declined at `t` because channel `chan` had no space
    /// (no credits on a delayed channel, or a full direct queue).
    #[inline]
    pub fn chan_stall(&mut self, t: f64, chan: usize) {
        self.acc(t).stalls += 1;
        self.chan_stalls[chan] += 1;
        if self.first_stall_t.is_infinite() {
            self.first_stall_t = t;
        }
    }

    /// A source input overrun occurred at `t` (the event counted by
    /// `RealTimeVerdict.violations`).
    #[inline]
    pub fn input_overrun(&mut self, t: f64) {
        self.acc(t).input_overruns += 1;
        if self.first_input_overrun_t.is_infinite() {
            self.first_input_overrun_t = t;
        }
    }

    /// A node exceeded its declared cycle budget at `t`.
    #[inline]
    pub fn budget_overrun(&mut self, t: f64) {
        self.acc(t).budget_overruns += 1;
        if self.first_budget_overrun_t.is_infinite() {
            self.first_budget_overrun_t = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> MetricsRecorder {
        MetricsRecorder::new(1.0, 2, 2, 3, 2)
    }

    #[test]
    fn counts_land_in_time_intervals() {
        let mut r = rec();
        r.event_pushed(0.0);
        r.event_popped(0.5);
        r.event_pushed(2.25); // skips interval 1
        r.firing_complete(2.5, 1, 0, 0.125);
        assert_eq!(r.intervals().len(), 3);
        assert_eq!(r.intervals()[0].pushes, 1);
        assert_eq!(r.intervals()[0].pops, 1);
        assert_eq!(r.intervals()[1].pushes, 0);
        assert_eq!(r.intervals()[2].pushes, 1);
        assert_eq!(r.intervals()[2].firings, 1);
        assert_eq!(r.intervals()[2].pe_busy[1], 0.125);
        r.seal();
        assert_eq!(r.node_firings()[0], 1);
        assert_eq!(r.agg_hist().count(), 1);
    }

    #[test]
    fn first_occurrence_timestamps_stick() {
        let mut r = rec();
        r.input_overrun(3.5);
        r.input_overrun(4.5);
        r.budget_overrun(1.25);
        assert_eq!(r.first_input_overrun_t(), 3.5);
        assert_eq!(r.first_budget_overrun_t(), 1.25);
        assert!(r.first_stall_t().is_infinite());
    }
}
