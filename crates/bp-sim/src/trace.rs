//! Deterministic event tracing for the timed simulator.
//!
//! A `TraceRecorder` rides inside the engine (`timed::Engine`) and
//! captures the per-event dynamics the aggregate [`crate::SimReport`]
//! throws away: firing begin/end per PE, queue-depth changes per channel,
//! control-token arrivals, and PE stall transitions with cause attribution
//! ([`StallCause`]). Recording is strictly read-only with respect to the
//! simulation — every recorded value is computed from state the engine
//! already produced — so enabling tracing cannot change a single bit of
//! the `SimReport` (pinned by `tests/trace_determinism.rs`). The engine
//! records in event-pop order, so its ring *is* the trace; a ring that
//! fills drops its oldest events and counts them in [`Trace::dropped`].
//!
//! On top of the raw stream, [`Trace`] derives per-node event counts,
//! per-channel occupancy high-water marks, sliding-window PE utilization
//! and the channel-dwell profile a [`bp_core::CommModel`] is calibrated
//! from. The [`crate::chrome`] module exports the stream as Chrome
//! trace-event JSON loadable in Perfetto.

use crate::runtime::RtNode;
use bp_core::token::ControlToken;
use bp_core::Fnv;
use std::collections::VecDeque;

/// Why a PE is not executing a firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// No resident node has any queued input: the PE has nothing to do.
    Idle,
    /// Some resident node has queued items but no method's trigger group is
    /// complete — the PE is waiting for upstream data.
    InputStarved,
    /// A resident node could fire right now but a destination queue lacks
    /// space — the PE is back-pressured by a downstream consumer.
    OutputBlocked,
}

impl StallCause {
    /// Stable short name (used by the Chrome exporter and diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            StallCause::Idle => "idle",
            StallCause::InputStarved => "input-starved",
            StallCause::OutputBlocked => "output-blocked",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            StallCause::Idle => 0,
            StallCause::InputStarved => 1,
            StallCause::OutputBlocked => 2,
        }
    }
}

/// One traced simulator event. Timestamps are simulated seconds; node,
/// method, port and PE values are the dense indices the engines use, with
/// names resolved via [`TraceMeta`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A node began a firing on its PE. `cycles` is the charged cycle count
    /// (actual for data-dependent-cost kernels, declared otherwise); source
    /// and const firings are recorded with `cycles == 0` and a matching
    /// [`TraceEvent::FiringEnd`] at the same timestamp, since the engine
    /// charges them no PE time.
    FiringBegin {
        /// Event time in simulated seconds.
        t: f64,
        /// Firing node index.
        node: u32,
        /// Method index into the node's compiled table.
        method: u32,
        /// PE the node is resident on.
        pe: u32,
        /// Charged cycle count.
        cycles: u64,
    },
    /// The firing begun by the matching [`TraceEvent::FiringBegin`] on this
    /// PE completed.
    FiringEnd {
        /// Event time in simulated seconds.
        t: f64,
        /// Firing node index.
        node: u32,
        /// PE the node is resident on.
        pe: u32,
    },
    /// An input queue's depth changed (an item was enqueued or consumed).
    QueueDepth {
        /// Event time in simulated seconds.
        t: f64,
        /// Owning (destination) node index.
        node: u32,
        /// Input port index on that node.
        port: u32,
        /// Depth after the change.
        depth: u32,
    },
    /// A control token arrived at an input queue.
    Token {
        /// Event time in simulated seconds.
        t: f64,
        /// Destination node index.
        node: u32,
        /// Input port index on that node.
        port: u32,
        /// The token.
        token: ControlToken,
    },
    /// A PE transitioned into a stalled state (recorded only when the
    /// attributed cause differs from the PE's previous state).
    Stall {
        /// Event time in simulated seconds.
        t: f64,
        /// The stalled PE.
        pe: u32,
        /// Attributed cause.
        cause: StallCause,
    },
    /// An item was launched onto a delayed channel (nonzero
    /// [`bp_core::CommModel`] only). Paired with the
    /// [`TraceEvent::CommArrival`] at `arrival`, this attributes in-flight
    /// network occupancy per channel.
    CommSend {
        /// Send (push) time in simulated seconds.
        t: f64,
        /// Channel index into [`TraceMeta::channels`].
        chan: u32,
        /// Payload size in words (drives the serialization term).
        words: u32,
        /// Scheduled arrival time (send + serialization + latency).
        arrival: f64,
    },
    /// An in-flight item landed in its destination queue (the matching
    /// [`TraceEvent::QueueDepth`] follows at the same timestamp).
    CommArrival {
        /// Arrival time in simulated seconds.
        t: f64,
        /// Channel index into [`TraceMeta::channels`].
        chan: u32,
    },
}

impl TraceEvent {
    /// Simulated time of the event.
    pub fn t(&self) -> f64 {
        match *self {
            TraceEvent::FiringBegin { t, .. }
            | TraceEvent::FiringEnd { t, .. }
            | TraceEvent::QueueDepth { t, .. }
            | TraceEvent::Token { t, .. }
            | TraceEvent::Stall { t, .. }
            | TraceEvent::CommSend { t, .. }
            | TraceEvent::CommArrival { t, .. } => t,
        }
    }

    /// Node the event is attributed to, if any (stalls attribute to a PE).
    pub fn node(&self) -> Option<u32> {
        match *self {
            TraceEvent::FiringBegin { node, .. }
            | TraceEvent::FiringEnd { node, .. }
            | TraceEvent::QueueDepth { node, .. }
            | TraceEvent::Token { node, .. } => Some(node),
            TraceEvent::Stall { .. }
            | TraceEvent::CommSend { .. }
            | TraceEvent::CommArrival { .. } => None,
        }
    }

    /// Fold the event into an FNV-1a stream by its exact bit patterns
    /// (used by [`Trace::digest`]).
    fn fold(&self, h: &mut Fnv) {
        match *self {
            TraceEvent::FiringBegin {
                t,
                node,
                method,
                pe,
                cycles,
            } => {
                h.byte(0);
                h.u64(t.to_bits());
                h.u64(node as u64);
                h.u64(method as u64);
                h.u64(pe as u64);
                h.u64(cycles);
            }
            TraceEvent::FiringEnd { t, node, pe } => {
                h.byte(1);
                h.u64(t.to_bits());
                h.u64(node as u64);
                h.u64(pe as u64);
            }
            TraceEvent::QueueDepth {
                t,
                node,
                port,
                depth,
            } => {
                h.byte(2);
                h.u64(t.to_bits());
                h.u64(node as u64);
                h.u64(port as u64);
                h.u64(depth as u64);
            }
            TraceEvent::Token {
                t,
                node,
                port,
                token,
            } => {
                h.byte(3);
                h.u64(t.to_bits());
                h.u64(node as u64);
                h.u64(port as u64);
                match token {
                    ControlToken::EndOfLine => h.byte(0),
                    ControlToken::EndOfFrame => h.byte(1),
                    ControlToken::Custom(id) => {
                        h.byte(2);
                        h.u64(id as u64);
                    }
                }
            }
            TraceEvent::Stall { t, pe, cause } => {
                h.byte(4);
                h.u64(t.to_bits());
                h.u64(pe as u64);
                h.byte(cause.tag());
            }
            TraceEvent::CommSend {
                t,
                chan,
                words,
                arrival,
            } => {
                h.byte(5);
                h.u64(t.to_bits());
                h.u64(chan as u64);
                h.u64(words as u64);
                h.u64(arrival.to_bits());
            }
            TraceEvent::CommArrival { t, chan } => {
                h.byte(6);
                h.u64(t.to_bits());
                h.u64(chan as u64);
            }
        }
    }
}

/// Tracing configuration carried inside [`crate::SimConfig`].
#[derive(Clone, Copy, Debug)]
pub struct TraceOptions {
    /// Ring capacity in events. When the recorder fills, the oldest events
    /// are dropped (counted in [`Trace::dropped`]); a trace with
    /// `dropped == 0` is complete. Must be at least 1.
    pub capacity: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        // 2^20 events of `size_of::<TraceEvent>()` = 32 bytes each: a
        // 32 MiB ring, far beyond any bundled app's run, so default traces
        // never wrap. The cap is a memory safety valve for long custom
        // simulations.
        Self { capacity: 1 << 20 }
    }
}

impl TraceOptions {
    /// A ring bounded at `capacity` events. A ring of 0 events records
    /// nothing, so [`crate::TimedSimulator::new`] refuses it.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity }
    }
}

/// Bounded event ring: the newest `capacity` events, in recording order.
pub(crate) struct TraceRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    /// Oldest events discarded after the ring filled.
    dropped: u64,
}

impl TraceRecorder {
    pub(crate) fn new(opts: TraceOptions) -> Self {
        Self {
            capacity: opts.capacity,
            // The whole default ring is reserved up front: a 32 MiB request
            // is always its own mapping, resident only where written and
            // unmapped on drop. Growing by doubling instead left the ring's
            // 8 MiB predecessors on the heap or not depending on allocator
            // history, which moved a traced run's peak RSS by 15 %.
            events: VecDeque::with_capacity(opts.capacity.min(1 << 20)),
            dropped: 0,
        }
    }

    /// Append one event, dropping the oldest if the ring is full.
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The whole ring in recording order, and the drop count. The ring's
    /// own allocation becomes the trace — rotated in place if it wrapped —
    /// not a second copy of it.
    pub(crate) fn into_events(self) -> (Vec<TraceEvent>, u64) {
        (Vec::from(self.events), self.dropped)
    }
}

/// One channel's endpoints and resolved latency, for resolving the `chan`
/// indices in [`TraceEvent::CommSend`]/[`TraceEvent::CommArrival`] and for
/// restricting trace analyses to cross-PE channels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceChannel {
    /// Producing node index.
    pub src_node: u32,
    /// Output port index on the producer.
    pub src_port: u32,
    /// Consuming node index.
    pub dst_node: u32,
    /// Input port index on the consumer.
    pub dst_port: u32,
    /// Resolved one-way latency (0 = direct same-cycle delivery).
    pub latency_s: f64,
}

/// Name tables resolving the dense indices in [`TraceEvent`]s, captured
/// from the instantiated program at trace-assembly time.
#[derive(Clone, Debug)]
pub struct TraceMeta {
    /// Node instance names, indexed by node.
    pub node_names: Vec<String>,
    /// Input port names per node.
    pub input_ports: Vec<Vec<String>>,
    /// Method names per node.
    pub methods: Vec<Vec<String>>,
    /// PE each node is resident on.
    pub pe_of_node: Vec<usize>,
    /// Number of PEs in the simulated machine.
    pub num_pes: usize,
    /// PE clock, for cycle/second conversions in viewers.
    pub pe_clock_hz: f64,
    /// Every graph channel in runtime channel order.
    pub channels: Vec<TraceChannel>,
}

impl TraceMeta {
    pub(crate) fn from_parts(
        nodes: &[RtNode],
        pe_of_node: &[usize],
        num_pes: usize,
        pe_clock_hz: f64,
        channels: &[crate::timed::ChannelRt],
    ) -> Self {
        Self {
            node_names: nodes.iter().map(|n| n.name.to_string()).collect(),
            input_ports: nodes
                .iter()
                .map(|n| n.spec.inputs.iter().map(|i| i.name.to_string()).collect())
                .collect(),
            methods: nodes
                .iter()
                .map(|n| n.spec.methods.iter().map(|m| m.name.to_string()).collect())
                .collect(),
            pe_of_node: pe_of_node.to_vec(),
            num_pes,
            pe_clock_hz,
            channels: channels
                .iter()
                .map(|c| TraceChannel {
                    src_node: c.src as u32,
                    src_port: c.src_port as u32,
                    dst_node: c.dst as u32,
                    dst_port: c.dst_port as u32,
                    latency_s: c.latency_s,
                })
                .collect(),
        }
    }
}

/// Occupancy high-water mark of one channel (input queue).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelHighWater {
    /// Destination node index.
    pub node: usize,
    /// Input port index.
    pub port: usize,
    /// Deepest observed queue depth.
    pub depth: u32,
    /// First simulated time the high-water mark was reached.
    pub t: f64,
}

/// A complete deterministic trace of one timed simulation.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Index-to-name resolution tables.
    pub meta: TraceMeta,
    /// Events in event-pop order: the newest ones, if the ring filled.
    pub events: Vec<TraceEvent>,
    /// Oldest events discarded because the ring filled. The retained
    /// stream is still deterministic.
    pub dropped: u64,
}

impl Trace {
    /// FNV-1a digest over every event's exact bit patterns: two traces
    /// digest equal iff they are bitwise identical.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.events.len() as u64);
        for e in &self.events {
            e.fold(&mut h);
        }
        h.finish()
    }

    /// Total traced events attributed to each node (firings, queue
    /// movement, token arrivals): where a run's simulation work went.
    pub fn node_event_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.meta.node_names.len()];
        for e in &self.events {
            if let Some(n) = e.node() {
                counts[n as usize] += 1;
            }
        }
        counts
    }

    /// Per-channel occupancy high-water marks, ordered by `(node, port)`.
    /// `SimReport::node_max_queue` keeps only the per-node max; this adds
    /// the port and *when* the peak first occurred — the signal a future
    /// buffer-sizing pass needs.
    pub fn channel_high_water(&self) -> Vec<ChannelHighWater> {
        let mut best: Vec<Vec<Option<(u32, f64)>>> = self
            .meta
            .input_ports
            .iter()
            .map(|ports| vec![None; ports.len()])
            .collect();
        for e in &self.events {
            if let TraceEvent::QueueDepth {
                t,
                node,
                port,
                depth,
            } = *e
            {
                let slot = &mut best[node as usize][port as usize];
                match slot {
                    Some((d, _)) if *d >= depth => {}
                    _ => *slot = Some((depth, t)),
                }
            }
        }
        let mut out = Vec::new();
        for (node, ports) in best.iter().enumerate() {
            for (port, slot) in ports.iter().enumerate() {
                if let Some((depth, t)) = *slot {
                    out.push(ChannelHighWater {
                        node,
                        port,
                        depth,
                        t,
                    });
                }
            }
        }
        out
    }

    /// Busy fraction of each PE over consecutive windows of `window_s`
    /// simulated seconds: `result[pe][w]` covers
    /// `[w * window_s, (w + 1) * window_s)`. Derived from firing
    /// begin/end pairs, so it resolves the within-run utilization
    /// *timeline* that `SimReport`'s whole-run averages flatten.
    pub fn pe_utilization(&self, window_s: f64) -> Vec<Vec<f64>> {
        assert!(window_s > 0.0, "window must be positive");
        let end = self.events.last().map_or(0.0, |e| e.t());
        let windows = (end / window_s).floor() as usize + 1;
        let mut util = vec![vec![0.0f64; windows]; self.meta.num_pes];
        // Begin/end pairs nest only for the zero-duration source/const
        // firings recorded while a real firing is in flight on the same
        // PE, so a per-PE stack pairs them correctly.
        let mut open: Vec<Vec<f64>> = vec![Vec::new(); self.meta.num_pes];
        for e in &self.events {
            match *e {
                TraceEvent::FiringBegin { t, pe, .. } => open[pe as usize].push(t),
                TraceEvent::FiringEnd { t, pe, .. } => {
                    if let Some(t0) = open[pe as usize].pop() {
                        let (mut w, last) = ((t0 / window_s) as usize, (t / window_s) as usize);
                        while w <= last.min(windows - 1) {
                            let lo = t0.max(w as f64 * window_s);
                            let hi = t.min((w + 1) as f64 * window_s);
                            util[pe as usize][w] += (hi - lo).max(0.0);
                            w += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        for row in &mut util {
            for v in row.iter_mut() {
                *v /= window_s;
            }
        }
        util
    }

    /// Per-channel send/consume dwell statistics for cross-PE channels,
    /// the input to [`bp_core::CommModel::from_profile`] (ROADMAP:
    /// calibrate a delay model from traces). Each item's dwell is the time
    /// from its hand-off on the producer to its consumption, FIFO-matched
    /// per destination port. For delayed channels the hand-off is the
    /// [`TraceEvent::CommSend`] departure — so the dwell *includes* wire
    /// time and the calibrated base latency never undercuts the true
    /// model; for direct channels it is the enqueue seen in the
    /// [`TraceEvent::QueueDepth`] stream — measurable under the zero
    /// model too, which is what makes calibration from an undelayed
    /// baseline trace possible.
    pub fn comm_profile(&self) -> bp_core::CommProfile {
        let mut profile = bp_core::CommProfile::default();
        let mut cross: Vec<Vec<bool>> = self
            .meta
            .input_ports
            .iter()
            .map(|ports| vec![false; ports.len()])
            .collect();
        // Ports fed by a delayed channel take their enqueue times from the
        // CommSend stream instead (each input port has exactly one
        // in-channel, so the (node, port) key is unambiguous).
        let mut delayed = cross.clone();
        for c in &self.meta.channels {
            if self.meta.pe_of_node[c.src_node as usize]
                != self.meta.pe_of_node[c.dst_node as usize]
            {
                cross[c.dst_node as usize][c.dst_port as usize] = true;
                if c.latency_s > 0.0 {
                    delayed[c.dst_node as usize][c.dst_port as usize] = true;
                }
            }
        }
        let mut prev: Vec<Vec<u32>> = cross.iter().map(|p| vec![0; p.len()]).collect();
        let mut pending: Vec<Vec<VecDeque<f64>>> = cross
            .iter()
            .map(|p| p.iter().map(|_| VecDeque::new()).collect())
            .collect();
        for e in &self.events {
            match *e {
                TraceEvent::CommSend { t, chan, .. } => {
                    let c = &self.meta.channels[chan as usize];
                    let (n, p) = (c.dst_node as usize, c.dst_port as usize);
                    if cross[n][p] {
                        pending[n][p].push_back(t);
                    }
                }
                TraceEvent::QueueDepth {
                    t,
                    node,
                    port,
                    depth,
                } => {
                    let (n, p) = (node as usize, port as usize);
                    if !cross[n][p] {
                        continue;
                    }
                    let old = prev[n][p];
                    if depth > old {
                        if !delayed[n][p] {
                            for _ in 0..depth - old {
                                pending[n][p].push_back(t);
                            }
                        }
                    } else {
                        for _ in 0..old - depth {
                            if let Some(t0) = pending[n][p].pop_front() {
                                profile.push(t - t0);
                            }
                        }
                    }
                    prev[n][p] = depth;
                }
                _ => {}
            }
        }
        profile
    }

    /// Maximum number of simultaneously in-flight items per channel,
    /// derived from [`TraceEvent::CommSend`]/[`TraceEvent::CommArrival`]
    /// pairs (all zeros under the zero model, which has no flight time).
    /// Indexed like [`TraceMeta::channels`].
    pub fn comm_in_flight_peak(&self) -> Vec<u32> {
        let mut cur = vec![0i64; self.meta.channels.len()];
        let mut peak = vec![0u32; self.meta.channels.len()];
        for e in &self.events {
            match *e {
                TraceEvent::CommSend { chan, .. } => {
                    let c = chan as usize;
                    cur[c] += 1;
                    peak[c] = peak[c].max(cur[c] as u32);
                }
                TraceEvent::CommArrival { chan, .. } => cur[chan as usize] -= 1,
                _ => {}
            }
        }
        peak
    }

    /// Number of stall transitions per cause, across all PEs.
    pub fn stall_counts(&self) -> [(StallCause, u64); 3] {
        let mut counts = [
            (StallCause::Idle, 0u64),
            (StallCause::InputStarved, 0),
            (StallCause::OutputBlocked, 0),
        ];
        for e in &self.events {
            if let TraceEvent::Stall { cause, .. } = e {
                counts[cause.tag() as usize].1 += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(t: f64, node: u32, pe: u32, cycles: u64) -> TraceEvent {
        TraceEvent::FiringBegin {
            t,
            node,
            method: 0,
            pe,
            cycles,
        }
    }
    fn fe(t: f64, node: u32, pe: u32) -> TraceEvent {
        TraceEvent::FiringEnd { t, node, pe }
    }

    fn meta(nodes: usize, pes: usize) -> TraceMeta {
        TraceMeta {
            node_names: (0..nodes).map(|i| format!("n{i}")).collect(),
            input_ports: vec![vec!["in".into()]; nodes],
            methods: vec![vec!["run".into()]; nodes],
            pe_of_node: (0..nodes).map(|i| i % pes).collect(),
            num_pes: pes,
            pe_clock_hz: 1e6,
            channels: vec![],
        }
    }

    /// The default ring's documented footprint (`TraceOptions::default`)
    /// is this size times 2^20.
    #[test]
    fn trace_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = TraceRecorder::new(TraceOptions::with_capacity(2));
        r.record(fb(0.0, 0, 0, 1));
        r.record(fb(1.0, 1, 0, 1));
        r.record(fb(2.0, 2, 0, 1));
        assert_eq!(r.dropped, 1);
        let (events, dropped) = r.into_events();
        assert_eq!(dropped, 1);
        assert_eq!(events, vec![fb(1.0, 1, 0, 1), fb(2.0, 2, 0, 1)]);
    }

    #[test]
    fn default_ring_never_reallocates() {
        let mut r = TraceRecorder::new(TraceOptions::default());
        let reserved = r.events.capacity();
        for i in 0..300_000 {
            r.record(fe(i as f64, 0, 0));
        }
        assert_eq!(r.events.capacity(), reserved);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn digest_detects_any_change() {
        let t = Trace {
            meta: meta(2, 1),
            events: vec![fb(0.0, 0, 0, 5), fe(5e-6, 0, 0)],
            dropped: 0,
        };
        let mut t2 = t.clone();
        let d = t.digest();
        assert_eq!(d, t2.digest());
        t2.events[0] = fb(0.0, 0, 0, 6);
        assert_ne!(d, t2.digest());
    }

    #[test]
    fn node_event_counts_attribute_per_node() {
        let t = Trace {
            meta: meta(3, 1),
            events: vec![
                fb(0.0, 0, 0, 1),
                fe(1e-6, 0, 0),
                TraceEvent::QueueDepth {
                    t: 1e-6,
                    node: 1,
                    port: 0,
                    depth: 1,
                },
                TraceEvent::Stall {
                    t: 1e-6,
                    pe: 0,
                    cause: StallCause::Idle,
                },
            ],
            dropped: 0,
        };
        assert_eq!(t.node_event_counts(), vec![2, 1, 0]);
        assert_eq!(t.stall_counts()[0].1, 1);
    }

    #[test]
    fn channel_high_water_tracks_first_peak() {
        let q = |t: f64, depth: u32| TraceEvent::QueueDepth {
            t,
            node: 1,
            port: 0,
            depth,
        };
        let t = Trace {
            meta: meta(2, 1),
            events: vec![q(1.0, 1), q(2.0, 3), q(3.0, 3), q(4.0, 2)],
            dropped: 0,
        };
        let hw = t.channel_high_water();
        assert_eq!(hw.len(), 1);
        assert_eq!(
            hw[0],
            ChannelHighWater {
                node: 1,
                port: 0,
                depth: 3,
                t: 2.0,
            }
        );
    }

    #[test]
    fn comm_profile_fifo_matches_cross_pe_dwell() {
        // Two nodes on different PEs connected by one channel; items queue
        // at t=1,2 and are consumed at t=3,5 → dwells 2 and 3.
        let mut m = meta(2, 2);
        m.channels = vec![TraceChannel {
            src_node: 0,
            src_port: 0,
            dst_node: 1,
            dst_port: 0,
            latency_s: 0.0,
        }];
        let q = |t: f64, depth: u32| TraceEvent::QueueDepth {
            t,
            node: 1,
            port: 0,
            depth,
        };
        let t = Trace {
            meta: m,
            events: vec![q(1.0, 1), q(2.0, 2), q(3.0, 1), q(5.0, 0)],
            dropped: 0,
        };
        let p = t.comm_profile();
        assert_eq!(p.samples, 2);
        assert_eq!(p.min_dwell_s, 2.0);
        assert_eq!(p.mean_dwell_s(), 2.5);
        // Same-PE traffic is excluded: with both nodes on PE 0 the profile
        // is empty.
        let mut t2 = t.clone();
        t2.meta.pe_of_node = vec![0, 0];
        assert_eq!(t2.comm_profile().samples, 0);
    }

    #[test]
    fn comm_profile_counts_wire_time_for_delayed_channels() {
        // One delayed channel (latency 1): the item departs at t=1,
        // arrives (enqueues) at t=2, is consumed at t=3. The dwell must be
        // measured from departure — 2.0, not the 1.0 of queue time alone —
        // so a model calibrated from the profile never undercuts the wire.
        let mut m = meta(2, 2);
        m.channels = vec![TraceChannel {
            src_node: 0,
            src_port: 0,
            dst_node: 1,
            dst_port: 0,
            latency_s: 1.0,
        }];
        let q = |t: f64, depth: u32| TraceEvent::QueueDepth {
            t,
            node: 1,
            port: 0,
            depth,
        };
        let t = Trace {
            meta: m,
            events: vec![
                TraceEvent::CommSend {
                    t: 1.0,
                    chan: 0,
                    words: 1,
                    arrival: 2.0,
                },
                q(2.0, 1),
                TraceEvent::CommArrival { t: 2.0, chan: 0 },
                q(3.0, 0),
            ],
            dropped: 0,
        };
        let p = t.comm_profile();
        assert_eq!(p.samples, 1);
        assert_eq!(p.min_dwell_s, 2.0);
    }

    #[test]
    fn comm_in_flight_peak_pairs_sends_and_arrivals() {
        let mut m = meta(2, 2);
        m.channels = vec![TraceChannel {
            src_node: 0,
            src_port: 0,
            dst_node: 1,
            dst_port: 0,
            latency_s: 1.0,
        }];
        let send = |t: f64, arrival: f64| TraceEvent::CommSend {
            t,
            chan: 0,
            words: 4,
            arrival,
        };
        let arr = |t: f64| TraceEvent::CommArrival { t, chan: 0 };
        let t = Trace {
            meta: m,
            events: vec![
                send(0.0, 1.0),
                send(0.5, 1.5),
                arr(1.0),
                send(1.2, 2.2),
                arr(1.5),
            ],
            dropped: 0,
        };
        assert_eq!(t.comm_in_flight_peak(), vec![2]);
    }

    #[test]
    fn pe_utilization_windows_split_firings() {
        // One firing spanning [0.5, 2.5) over 1-second windows on PE 0.
        let t = Trace {
            meta: meta(1, 2),
            events: vec![fb(0.5, 0, 0, 1), fe(2.5, 0, 0)],
            dropped: 0,
        };
        let u = t.pe_utilization(1.0);
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].len(), 3);
        assert!((u[0][0] - 0.5).abs() < 1e-12);
        assert!((u[0][1] - 1.0).abs() < 1e-12);
        assert!((u[0][2] - 0.5).abs() < 1e-12);
        assert!(u[1].iter().all(|&v| v == 0.0));
    }
}
