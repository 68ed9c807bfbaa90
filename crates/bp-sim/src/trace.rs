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
//! records in event-pop order, so its log *is* the trace; a log that
//! fills drops its oldest events and counts them in [`Trace::dropped`].
//!
//! The log ([`TraceLog`]) holds the events encoded, about 5.4 bytes each
//! where a [`TraceEvent`] takes 32: one tag byte (variant, "same time as
//! the previous record", and the stall cause or token kind), the time's
//! raw bits only when they changed — every event popped at one instant
//! shares it — and LEB128 varints for the indices and counts. Consumers
//! iterate it and get the decoded events back bit for bit.
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
use std::fmt;

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
    /// Log capacity in events. When the recorder fills, the oldest events
    /// are dropped (counted in [`Trace::dropped`]); a trace with
    /// `dropped == 0` is complete. Must be at least 1.
    pub capacity: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        // 2^20 events, far beyond any bundled app's run, so default traces
        // never wrap: a 34 MiB reservation at the longest record's 34
        // bytes, resident only where written (about 5.4 bytes per event).
        // The cap is a memory safety valve for long custom simulations.
        Self { capacity: 1 << 20 }
    }
}

impl TraceOptions {
    /// A log bounded at `capacity` events. A log of 0 events records
    /// nothing, so [`crate::TimedSimulator::new`] refuses it.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity }
    }
}

/// Longest encoded record: `FiringBegin`'s tag byte, time bits, three
/// `u32` varints of up to 5 bytes and a `u64` varint of up to 10.
const MAX_RECORD: usize = 1 + 8 + 3 * 5 + 10;

// A record's tag byte: the variant in bits 0–2 (numbered as in
// `TraceEvent::fold`), `SAME_TIME` in bit 3, and the stall cause or token
// kind in bits 4–5.
const KIND: u8 = 0b111;
const SAME_TIME: u8 = 1 << 3;
const SUB_SHIFT: u32 = 4;
const FIRING_BEGIN: u8 = 0;
const FIRING_END: u8 = 1;
const QUEUE_DEPTH: u8 = 2;
const TOKEN: u8 = 3;
const STALL: u8 = 4;
const COMM_SEND: u8 = 5;
const COMM_ARRIVAL: u8 = 6;

/// One record being encoded, on the stack.
struct Writer {
    buf: [u8; MAX_RECORD],
    n: usize,
}

impl Writer {
    #[inline]
    fn byte(&mut self, b: u8) {
        self.buf[self.n] = b;
        self.n += 1;
    }

    #[inline]
    fn raw(&mut self, bits: u64) {
        self.buf[self.n..self.n + 8].copy_from_slice(&bits.to_le_bytes());
        self.n += 8;
    }

    /// LEB128: seven bits a byte, low first, the high bit set on all but
    /// the last.
    #[inline]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }
}

/// Decodes records from `bytes[pos..]`; `prev` is the time bits a
/// `SAME_TIME` record takes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev: u64,
}

impl Reader<'_> {
    #[inline]
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    #[inline]
    fn raw(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        u64::from_le_bytes(b)
    }

    #[inline]
    fn varint(&mut self) -> u64 {
        let mut b = self.byte();
        let mut v = u64::from(b & 0x7f);
        let mut shift = 0;
        while b >= 0x80 {
            b = self.byte();
            shift += 7;
            v |= u64::from(b & 0x7f) << shift;
        }
        v
    }

    #[inline]
    fn u32(&mut self) -> u32 {
        self.varint() as u32
    }

    #[inline]
    fn event(&mut self) -> TraceEvent {
        let tag = self.byte();
        if tag & SAME_TIME == 0 {
            self.prev = self.raw();
        }
        let t = f64::from_bits(self.prev);
        let sub = tag >> SUB_SHIFT;
        // Struct fields are evaluated in the order written, which is the
        // order they were encoded in.
        match tag & KIND {
            FIRING_BEGIN => TraceEvent::FiringBegin {
                t,
                node: self.u32(),
                method: self.u32(),
                pe: self.u32(),
                cycles: self.varint(),
            },
            FIRING_END => TraceEvent::FiringEnd {
                t,
                node: self.u32(),
                pe: self.u32(),
            },
            QUEUE_DEPTH => TraceEvent::QueueDepth {
                t,
                node: self.u32(),
                port: self.u32(),
                depth: self.u32(),
            },
            TOKEN => TraceEvent::Token {
                t,
                node: self.u32(),
                port: self.u32(),
                token: match sub {
                    0 => ControlToken::EndOfLine,
                    1 => ControlToken::EndOfFrame,
                    _ => ControlToken::Custom(self.varint() as u16),
                },
            },
            STALL => TraceEvent::Stall {
                t,
                pe: self.u32(),
                cause: match sub {
                    0 => StallCause::Idle,
                    1 => StallCause::InputStarved,
                    _ => StallCause::OutputBlocked,
                },
            },
            COMM_SEND => TraceEvent::CommSend {
                t,
                chan: self.u32(),
                words: self.u32(),
                arrival: f64::from_bits(self.raw()),
            },
            kind => {
                debug_assert_eq!(kind, COMM_ARRIVAL, "trace record tag {tag:#04x}");
                TraceEvent::CommArrival {
                    t,
                    chan: self.u32(),
                }
            }
        }
    }
}

/// The FNV-1a fold of one event: equal exactly when the events are equal
/// bit for bit (up to hash collisions), where `==` on the `f64` fields is
/// not.
fn event_bits(e: &TraceEvent) -> u64 {
    let mut h = Fnv::new();
    e.fold(&mut h);
    h.finish()
}

/// A trace's events, encoded in recording order (see the module docs for
/// the record format). Iterating decodes them: [`TraceLog::iter`] yields
/// the [`TraceEvent`]s that were recorded, bit for bit.
///
/// The log is append-only; dropping its oldest event (a bounded recorder
/// that filled) moves a start offset past that record and keeps the
/// time the new oldest record decodes against as the log's anchor.
#[derive(Clone, Default)]
pub struct TraceLog {
    bytes: Vec<u8>,
    /// Offset of the oldest retained record in `bytes`.
    head: usize,
    /// Retained events.
    len: usize,
    /// Time bits the oldest retained record decodes against: its own.
    anchor: u64,
    /// Time bits of the newest record (the anchor when the log is empty),
    /// against which the next record is encoded.
    last: u64,
    /// Retained `CommSend` records.
    comm_sends: usize,
}

impl TraceLog {
    /// Retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no event is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The retained events, decoded, oldest first.
    pub fn iter(&self) -> Events<'_> {
        Events {
            r: Reader {
                bytes: &self.bytes[self.head..],
                pos: 0,
                prev: self.anchor,
            },
            left: self.len,
        }
    }

    /// Bytes the retained events take encoded.
    pub fn byte_len(&self) -> usize {
        self.bytes.len() - self.head
    }

    /// Retained [`TraceEvent::CommSend`] events: nonzero only on a run
    /// with a delayed channel.
    pub(crate) fn comm_sends(&self) -> usize {
        self.comm_sends
    }

    /// Time of the newest event, if any.
    pub(crate) fn last_t(&self) -> Option<f64> {
        (self.len > 0).then(|| f64::from_bits(self.last))
    }

    /// Append one event.
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        let t = ev.t().to_bits();
        let same = t == self.last;
        let mut w = Writer {
            buf: [0; MAX_RECORD],
            n: 1,
        };
        if !same {
            w.raw(t);
        }
        let tag = match ev {
            TraceEvent::FiringBegin {
                node,
                method,
                pe,
                cycles,
                ..
            } => {
                w.varint(node.into());
                w.varint(method.into());
                w.varint(pe.into());
                w.varint(cycles);
                FIRING_BEGIN
            }
            TraceEvent::FiringEnd { node, pe, .. } => {
                w.varint(node.into());
                w.varint(pe.into());
                FIRING_END
            }
            TraceEvent::QueueDepth {
                node, port, depth, ..
            } => {
                w.varint(node.into());
                w.varint(port.into());
                w.varint(depth.into());
                QUEUE_DEPTH
            }
            TraceEvent::Token {
                node, port, token, ..
            } => {
                w.varint(node.into());
                w.varint(port.into());
                TOKEN
                    | match token {
                        ControlToken::EndOfLine => 0,
                        ControlToken::EndOfFrame => 1 << SUB_SHIFT,
                        ControlToken::Custom(id) => {
                            w.varint(id.into());
                            2 << SUB_SHIFT
                        }
                    }
            }
            TraceEvent::Stall { pe, cause, .. } => {
                w.varint(pe.into());
                STALL | cause.tag() << SUB_SHIFT
            }
            TraceEvent::CommSend {
                chan,
                words,
                arrival,
                ..
            } => {
                w.varint(chan.into());
                w.varint(words.into());
                w.raw(arrival.to_bits());
                self.comm_sends += 1;
                COMM_SEND
            }
            TraceEvent::CommArrival { chan, .. } => {
                w.varint(chan.into());
                COMM_ARRIVAL
            }
        };
        w.buf[0] = tag | if same { SAME_TIME } else { 0 };
        let record = &w.buf[..w.n];
        if self.bytes.capacity() - self.bytes.len() < record.len() && self.head > 0 {
            // Reclaim the dropped records' bytes in place: a bounded
            // recorder's reservation holds its capacity in longest records,
            // so this always makes room without reallocating.
            self.bytes.drain(..self.head);
            self.head = 0;
        }
        let at = self.bytes.len();
        self.bytes.extend_from_slice(record);
        debug_assert!(
            {
                let mut r = Reader {
                    bytes: &self.bytes,
                    pos: at,
                    prev: self.last,
                };
                event_bits(&r.event()) == event_bits(&ev) && r.pos == self.bytes.len()
            },
            "trace record {record:02x?} does not decode to {ev:?}"
        );
        self.last = t;
        self.len += 1;
    }

    /// Drop the oldest event, moving the anchor to the time of the one
    /// after it.
    pub(crate) fn drop_oldest(&mut self) {
        debug_assert!(self.len > 0, "drop from an empty trace log");
        let mut r = Reader {
            bytes: &self.bytes,
            pos: self.head,
            prev: self.anchor,
        };
        if let TraceEvent::CommSend { .. } = r.event() {
            self.comm_sends -= 1;
        }
        // The next record shares the dropped one's time unless it stores
        // its own.
        let (pos, dropped_t) = (r.pos, r.prev);
        self.head = pos;
        self.len -= 1;
        self.anchor = dropped_t;
        if self.len == 0 {
            debug_assert_eq!(pos, self.bytes.len(), "records past the trace log's count");
            debug_assert_eq!(
                self.anchor, self.last,
                "an empty trace log encodes against its anchor"
            );
            self.bytes.clear();
            self.head = 0;
        } else if self.bytes[pos] & SAME_TIME == 0 {
            self.anchor = Reader {
                bytes: &self.bytes,
                pos: pos + 1,
                prev: 0,
            }
            .raw();
        }
        debug_assert!(
            self.iter()
                .next()
                .is_none_or(|e| e.t().to_bits() == self.anchor),
            "trace log anchor is not its oldest record's time"
        );
    }
}

/// Iterator over a [`TraceLog`]'s events, decoded, oldest first.
pub struct Events<'a> {
    r: Reader<'a>,
    left: usize,
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.r.event())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Events<'_> {}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = TraceEvent;
    type IntoIter = Events<'a>;

    fn into_iter(self) -> Events<'a> {
        self.iter()
    }
}

impl FromIterator<TraceEvent> for TraceLog {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(events: I) -> Self {
        let mut log = TraceLog::default();
        for e in events {
            log.push(e);
        }
        log
    }
}

/// Equal when the decoded event streams are (`TraceEvent`'s `==`).
impl PartialEq for TraceLog {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Bounded event log: the newest `capacity` events, in recording order.
pub(crate) struct TraceRecorder {
    capacity: usize,
    log: TraceLog,
    /// Oldest events discarded after the log filled.
    dropped: u64,
}

impl TraceRecorder {
    pub(crate) fn new(opts: TraceOptions) -> Self {
        Self {
            capacity: opts.capacity,
            // Reserved once, at the longest record, so a log bounded at
            // 2^20 events or fewer never reallocates: a 34 MiB request is
            // always its own mapping, resident only where written and
            // unmapped on drop. Growing by doubling instead left the old
            // ring's predecessors on the heap or not depending on allocator
            // history, which moved a traced run's peak RSS by 15 %.
            log: TraceLog {
                bytes: Vec::with_capacity(opts.capacity.min(1 << 20) * MAX_RECORD),
                ..TraceLog::default()
            },
            dropped: 0,
        }
    }

    /// Append one event, dropping the oldest if the log is full.
    #[inline]
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.log.len == self.capacity {
            self.log.drop_oldest();
            self.dropped += 1;
        }
        self.log.push(ev);
    }

    /// The log and the drop count. The log's own allocation becomes the
    /// trace, not a copy of it.
    pub(crate) fn into_events(self) -> (TraceLog, u64) {
        (self.log, self.dropped)
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

/// Pairs each [`TraceEvent::FiringEnd`] with its
/// [`TraceEvent::FiringBegin`]: what a caller keeps of a begin (`B`) is
/// held until its end pops it. Begin/end pairs nest only for the
/// zero-duration source/const firings recorded while a real firing is in
/// flight on the same PE, so a per-PE stack pairs them correctly; an end
/// whose begin the log dropped pairs with nothing.
pub(crate) struct OpenFirings<B> {
    open: Vec<Vec<B>>,
}

impl<B> OpenFirings<B> {
    pub(crate) fn new(num_pes: usize) -> Self {
        Self {
            open: (0..num_pes).map(|_| Vec::new()).collect(),
        }
    }

    pub(crate) fn begin(&mut self, pe: u32, b: B) {
        self.open[pe as usize].push(b);
    }

    /// The innermost open begin on `pe`, now closed.
    pub(crate) fn end(&mut self, pe: u32) -> Option<B> {
        self.open[pe as usize].pop()
    }

    /// The begins never closed, by PE and then in log order.
    pub(crate) fn into_open(self) -> impl Iterator<Item = (u32, B)> {
        (0u32..)
            .zip(self.open)
            .flat_map(|(pe, open)| open.into_iter().map(move |b| (pe, b)))
    }
}

/// A complete deterministic trace of one timed simulation.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Index-to-name resolution tables.
    pub meta: TraceMeta,
    /// Events in event-pop order: the newest ones, if the log filled.
    pub events: TraceLog,
    /// Oldest events discarded because the log filled. The retained
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
            } = e
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
        let end = self.events.last_t().unwrap_or(0.0);
        let windows = (end / window_s).floor() as usize + 1;
        let mut util = vec![vec![0.0f64; windows]; self.meta.num_pes];
        let mut open = OpenFirings::new(self.meta.num_pes);
        for e in &self.events {
            match e {
                TraceEvent::FiringBegin { t, pe, .. } => open.begin(pe, t),
                TraceEvent::FiringEnd { t, pe, .. } => {
                    if let Some(t0) = open.end(pe) {
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
            match e {
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

    /// Items in flight on each channel when the log starts, indexed like
    /// [`TraceMeta::channels`]: none for a complete log. A truncated log
    /// may hold arrivals whose sends were dropped; each channel then
    /// starts at its deficit, the most arrivals any prefix of the log
    /// holds beyond its sends. That is never negative, and exact once the
    /// channel drains within the log.
    pub(crate) fn in_flight_at_start(&self) -> Vec<i64> {
        let mut start = vec![0i64; self.meta.channels.len()];
        if self.dropped == 0 {
            return start;
        }
        let mut excess = start.clone();
        for e in &self.events {
            match e {
                TraceEvent::CommSend { chan, .. } => excess[chan as usize] -= 1,
                TraceEvent::CommArrival { chan, .. } => {
                    let c = chan as usize;
                    excess[c] += 1;
                    start[c] = start[c].max(excess[c]);
                }
                _ => {}
            }
        }
        start
    }

    /// Maximum number of simultaneously in-flight items per channel,
    /// derived from [`TraceEvent::CommSend`]/[`TraceEvent::CommArrival`]
    /// pairs (all zeros under the zero model, which has no flight time)
    /// on top of what was in flight when the log starts. Indexed like
    /// [`TraceMeta::channels`].
    pub fn comm_in_flight_peak(&self) -> Vec<u32> {
        let mut cur = self.in_flight_at_start();
        let mut peak: Vec<u32> = cur.iter().map(|&c| c as u32).collect();
        for e in &self.events {
            match e {
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

    fn log<const N: usize>(events: [TraceEvent; N]) -> TraceLog {
        events.into_iter().collect()
    }

    /// What each event took in the ring the log replaced, and what the
    /// bytes-per-event gate in `tests/setup_allocations.rs` compares with.
    #[test]
    fn trace_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
    }

    /// The longest record, `MAX_RECORD` bytes.
    fn longest(t: f64) -> TraceEvent {
        TraceEvent::FiringBegin {
            t,
            node: u32::MAX,
            method: u32::MAX,
            pe: u32::MAX,
            cycles: u64::MAX,
        }
    }

    #[test]
    fn records_at_one_instant_omit_the_time() {
        let mut l = log([fb(1.0, 3, 0, 200)]);
        // Tag, time bits, node, method, pe, and two bytes of cycles.
        assert_eq!(l.byte_len(), 1 + 8 + 3 + 2);
        l.push(fe(1.0, 3, 0));
        assert_eq!(l.byte_len(), 14 + 3);
        l.push(longest(2.0));
        assert_eq!(l.byte_len(), 17 + MAX_RECORD);
        assert_eq!(l, log([fb(1.0, 3, 0, 200), fe(1.0, 3, 0), longest(2.0)]));
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
        assert_eq!(events, log([fb(1.0, 1, 0, 1), fb(2.0, 2, 0, 1)]));
    }

    #[test]
    fn reserved_log_never_reallocates() {
        // The default log holds 2^20 longest records unmoved ...
        let mut r = TraceRecorder::new(TraceOptions::default());
        let reserved = r.log.bytes.capacity();
        for i in 0..300_000 {
            r.record(longest((i + 1) as f64));
        }
        assert_eq!(r.log.bytes.capacity(), reserved);
        assert_eq!(r.log.byte_len(), 300_000 * MAX_RECORD);
        assert_eq!(r.dropped, 0);
        // ... and a bounded log that wraps reclaims its dropped records'
        // bytes in place.
        let mut r = TraceRecorder::new(TraceOptions::with_capacity(100));
        let reserved = r.log.bytes.capacity();
        for i in 0..5_000 {
            r.record(longest((i + 1) as f64));
        }
        assert_eq!(r.log.bytes.capacity(), reserved);
        assert_eq!((r.log.len(), r.dropped), (100, 4_900));
        assert_eq!(r.log.iter().next(), Some(longest(4_901.0)));
    }

    /// The `VecDeque` ring the log replaced, kept as its oracle: the
    /// newest `capacity` events, the oldest dropped and counted.
    struct Ring {
        capacity: usize,
        events: VecDeque<TraceEvent>,
        dropped: u64,
    }

    impl Ring {
        fn record(&mut self, ev: TraceEvent) {
            if self.events.len() == self.capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(ev);
        }

        /// `Trace::digest` as it was over the ring's events.
        fn digest(&self) -> u64 {
            let mut h = Fnv::new();
            h.u64(self.events.len() as u64);
            for e in &self.events {
                e.fold(&mut h);
            }
            h.finish()
        }
    }

    /// A random event of any of the seven variants. Indices and counts
    /// sit on the varint edges (0, the last one-byte and first two-byte
    /// values, the type's maximum) or are drawn at random; the time
    /// repeats, steps by one ulp, jumps, flips to a signed zero or takes
    /// arbitrary bits, NaNs included.
    fn random_event(rng: &mut bp_core::Rng64, t: &mut f64) -> TraceEvent {
        let u32v = |rng: &mut bp_core::Rng64| match rng.gen_index(6) {
            0 => 0,
            1 => 127,
            2 => 128,
            3 => u32::MAX,
            4 => rng.gen_range_u32(0, 64),
            _ => rng.next_u64() as u32,
        };
        *t = match rng.gen_index(10) {
            0..=4 => *t,
            5 => f64::from_bits(t.to_bits().wrapping_add(1)),
            6 => *t + rng.gen_f64(),
            7 => 0.0,
            8 => -0.0,
            _ => f64::from_bits(rng.next_u64()),
        };
        let t = *t;
        match rng.gen_index(7) {
            0 => TraceEvent::FiringBegin {
                t,
                node: u32v(rng),
                method: u32v(rng),
                pe: u32v(rng),
                cycles: match rng.gen_index(4) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => rng.gen_range_u32(0, 300).into(),
                    _ => rng.next_u64(),
                },
            },
            1 => TraceEvent::FiringEnd {
                t,
                node: u32v(rng),
                pe: u32v(rng),
            },
            2 => TraceEvent::QueueDepth {
                t,
                node: u32v(rng),
                port: u32v(rng),
                depth: u32v(rng),
            },
            3 => TraceEvent::Token {
                t,
                node: u32v(rng),
                port: u32v(rng),
                token: match rng.gen_index(5) {
                    0 => ControlToken::EndOfLine,
                    1 => ControlToken::EndOfFrame,
                    2 => ControlToken::Custom(0),
                    3 => ControlToken::Custom(u16::MAX),
                    _ => ControlToken::Custom(rng.next_u64() as u16),
                },
            },
            4 => TraceEvent::Stall {
                t,
                pe: u32v(rng),
                cause: [
                    StallCause::Idle,
                    StallCause::InputStarved,
                    StallCause::OutputBlocked,
                ][rng.gen_index(3)],
            },
            5 => TraceEvent::CommSend {
                t,
                chan: u32v(rng),
                words: u32v(rng),
                arrival: match rng.gen_index(3) {
                    0 => t,
                    1 => t + rng.gen_f64(),
                    _ => f64::from_bits(rng.next_u64()),
                },
            },
            _ => TraceEvent::CommArrival { t, chan: u32v(rng) },
        }
    }

    /// The log against the ring it replaced, on seeded streams of every
    /// variant: after every event, the same length, drop count, events
    /// (bit for bit) and digest, through wraps and drops at every
    /// capacity. With debug assertions on, every record is also decoded
    /// as it is written and every anchor checked as it moves.
    #[test]
    fn log_matches_the_ring_it_replaced() {
        for seed in 0..32u64 {
            for capacity in [1, 2, 3, 64, usize::MAX] {
                let mut rng = bp_core::Rng64::seed_from_u64(0x7ace_0000 + seed);
                let mut log = TraceRecorder::new(TraceOptions::with_capacity(capacity));
                let mut ring = Ring {
                    capacity,
                    events: VecDeque::new(),
                    dropped: 0,
                };
                let mut t = 0.0;
                for step in 0..200 {
                    let ev = random_event(&mut rng, &mut t);
                    log.record(ev);
                    ring.record(ev);
                    let at = format!("seed {seed}, capacity {capacity}, step {step}: {ev:?}");
                    assert_eq!(log.log.len(), ring.events.len(), "{at}");
                    assert_eq!(log.dropped, ring.dropped, "{at}");
                    assert_eq!(log.log.iter().len(), ring.events.len(), "{at}");
                    assert!(
                        log.log
                            .iter()
                            .map(|e| event_bits(&e))
                            .eq(ring.events.iter().map(event_bits)),
                        "{at}"
                    );
                    let comm_sends = ring
                        .events
                        .iter()
                        .filter(|e| matches!(e, TraceEvent::CommSend { .. }));
                    assert_eq!(log.log.comm_sends(), comm_sends.count(), "{at}");
                    let trace = Trace {
                        meta: meta(1, 1),
                        events: log.log.clone(),
                        dropped: log.dropped,
                    };
                    assert_eq!(trace.digest(), ring.digest(), "{at}");
                }
            }
        }
    }

    #[test]
    fn digest_detects_any_change() {
        let t = Trace {
            meta: meta(2, 1),
            events: log([fb(0.0, 0, 0, 5), fe(5e-6, 0, 0)]),
            dropped: 0,
        };
        let mut t2 = t.clone();
        let d = t.digest();
        assert_eq!(d, t2.digest());
        t2.events = log([fb(0.0, 0, 0, 6), fe(5e-6, 0, 0)]);
        assert_ne!(d, t2.digest());
    }

    #[test]
    fn node_event_counts_attribute_per_node() {
        let t = Trace {
            meta: meta(3, 1),
            events: log([
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
            ]),
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
            events: log([q(1.0, 1), q(2.0, 3), q(3.0, 3), q(4.0, 2)]),
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
            events: log([q(1.0, 1), q(2.0, 2), q(3.0, 1), q(5.0, 0)]),
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
            events: log([
                TraceEvent::CommSend {
                    t: 1.0,
                    chan: 0,
                    words: 1,
                    arrival: 2.0,
                },
                q(2.0, 1),
                TraceEvent::CommArrival { t: 2.0, chan: 0 },
                q(3.0, 0),
            ]),
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
            events: log([
                send(0.0, 1.0),
                send(0.5, 1.5),
                arr(1.0),
                send(1.2, 2.2),
                arr(1.5),
            ]),
            dropped: 0,
        };
        assert_eq!(t.comm_in_flight_peak(), vec![2]);
    }

    /// Two arrivals whose sends the ring dropped: the channel starts with
    /// both in flight, and the peak counts them.
    #[test]
    fn comm_in_flight_peak_starts_a_truncated_log_at_its_deficit() {
        let mut m = meta(2, 2);
        m.channels = vec![TraceChannel {
            src_node: 0,
            src_port: 0,
            dst_node: 1,
            dst_port: 0,
            latency_s: 1.0,
        }];
        let arr = |t: f64| TraceEvent::CommArrival { t, chan: 0 };
        let t = Trace {
            meta: m,
            events: log([
                arr(1.0),
                arr(1.5),
                TraceEvent::CommSend {
                    t: 1.6,
                    chan: 0,
                    words: 4,
                    arrival: 2.6,
                },
            ]),
            dropped: 2,
        };
        assert_eq!(t.in_flight_at_start(), vec![2]);
        assert_eq!(t.comm_in_flight_peak(), vec![2]);
    }

    #[test]
    fn pe_utilization_windows_split_firings() {
        // One firing spanning [0.5, 2.5) over 1-second windows on PE 0.
        let t = Trace {
            meta: meta(1, 2),
            events: log([fb(0.5, 0, 0, 1), fe(2.5, 0, 0)]),
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
