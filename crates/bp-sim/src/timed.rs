//! The timing-accurate functional simulator (§IV-D of the paper).
//!
//! Models kernel execution time (method cycles), data access time (per-word
//! input reads and output writes), channel buffering (bounded queues, one
//! iteration of implicit buffering per port plus configurable slack), and
//! per-PE scheduling (round-robin time multiplexing of resident kernels).
//! Inter-PE communication delay is configurable via
//! [`SimConfig::with_comm`]: under the default [`CommModel::zero`] the
//! engine reproduces the paper's zero-delay network bit for bit, while a
//! nonzero model turns each cross-PE channel push into a *delayed arrival
//! event* (base latency + per-hop distance + per-word serialization)
//! scheduled through the ordinary event queue. Delayed channels use
//! sender-side credit flow control: capacity is checked against a local
//! credit counter instead of the receiver's queue, and consuming a delayed
//! item schedules a credit-return event after the same latency — so no
//! send-time decision ever reads receiver state (DESIGN.md §11).
//!
//! Application inputs inject samples on a strict schedule derived from their
//! declared rate; an injection that finds a full queue is recorded as a
//! real-time violation. This is the mechanism used to "simulate to verify
//! that the application meets its real-time constraints".
//!
//! Scheduling uses a per-PE *ready set*: a node is marked dirty when an
//! item lands on one of its queues or when it fires, and cleaned when a
//! scan finds it unable to progress. A node whose inputs have not changed
//! cannot have gained a plan, so clean nodes are skipped without
//! re-planning and a PE whose dirty count is zero is dispatched in O(1).
//! The round-robin pointer advances exactly as in a full scan, so the
//! schedule — and therefore every simulation result — is bit-identical to
//! the exhaustive version.
//!
//! The engine itself is one discrete-event loop that owns its nodes,
//! queues and recorders outright; its trace and metrics hooks each test
//! their own recorder. [`TimedSimulator`] drains it in one call or a
//! bounded number of events at a time. The loop is written once, over
//! routing/space/credit/cost tables resolved at build time, and plans
//! every kernel at one site: by the readiness masks when the kernel's
//! table fits them, by the trigger scan when it does not (or when
//! [`Backend::Interpreted`] asks for the scan everywhere). Under debug
//! assertions every masked plan is checked against the scan.

use crate::deadlock::{CapacityBump, DeadlockHop, DeadlockReport, SimOutcome};
use crate::events::EventQueue;
use crate::runtime::{
    head_masks, slot_bases, stuck_report, Action, ProgramTables, ResolvedNode, Rows, RtNode,
    MAX_PORTS,
};
use crate::stats::{PeStats, RealTimeVerdict, SimReport};
use crate::trace::{StallCause, Trace, TraceEvent, TraceMeta, TraceOptions, TraceRecorder};
use bp_core::capacity::{derive_channel_capacities, ChannelCapacities};
use bp_core::graph::{AppGraph, NodeId};
use bp_core::item::Item;
use bp_core::kernel::NodeRole;
use bp_core::machine::{CommModel, MachineSpec, Mapping};
use bp_core::token::ControlToken;
use bp_core::{BpError, MetricsPolicy, Result};
use bp_metrics::{MetricsRecorder, MetricsTape};
use std::collections::VecDeque;
use std::sync::Arc;

/// Band-1 marker bit for explicit event ordinals (see [`EventQueue::push_ord`]):
/// communication events (arrivals, credit returns) sort after band-0 events
/// (source emissions, PE completions) at equal timestamps, and among
/// themselves by `(stream, sequence)` — both assigned at *creation* time, so
/// equal-time comm events order by channel and per-channel count, not by
/// the order in which they were pushed.
const BAND1: u64 = 1 << 63;

/// Build the band-1 ordinal for communication stream `stream` (2·chan for
/// arrivals, 2·chan+1 for credit returns) at per-stream sequence number
/// `seq`.
#[inline]
fn band1_ord(stream: u64, seq: u32) -> u64 {
    BAND1 | (stream << 32) | seq as u64
}

/// Free items a firing needs on every output channel before it starts: the
/// room for its worst-case emissions. A channel that holds fewer can never
/// carry a kernel's output, so `build_shared` refuses it.
const HEADROOM: usize = 2;

/// How the timed engine plans a kernel's next action. Everything else —
/// the event loop, firing, routing, dispatch, space, credits, cost — is one
/// scheduler over tables built from the instantiated nodes, and both
/// planners answer every plan identically, so both values produce
/// bitwise-identical [`SimReport`]s and traces (DESIGN.md §13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// [`RtNode::plan_masked`]'s readiness mask test for every kernel
    /// whose table fits the masks, [`RtNode::plan`]'s trigger scan for a
    /// kernel wider than [`MAX_PORTS`] inputs. Under debug assertions
    /// every masked plan is checked against the scan.
    #[default]
    Auto,
    /// [`RtNode::plan`]'s linear trigger scan for every kernel: the oracle
    /// the mask planner is held to.
    Interpreted,
}

/// Timed simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Target machine.
    pub machine: MachineSpec,
    /// Planner choice (default [`Backend::Auto`]).
    pub backend: Backend,
    /// Inter-PE communication delay model. The default, [`CommModel::zero`],
    /// delivers cross-PE pushes in the same cycle (the paper's §IV-D
    /// simplification) and reproduces every pre-model result bit for bit.
    pub comm: CommModel,
    /// Per-channel capacity plan (e.g. from the compiler's buffering pass,
    /// or one pinned value for every channel from
    /// [`with_channel_capacity`](Self::with_channel_capacity)). `None` (the
    /// default) derives one from the graph being simulated — the
    /// widest-row default of
    /// [`derive_default_capacity`](bp_core::capacity::derive_default_capacity) plus
    /// feedback-aware back-edge overrides
    /// ([`bp_core::capacity::derive_channel_capacities`]). Every capacity
    /// must be at least 2, the room a firing needs on each output:
    /// construction rejects a plan holding a 0 or a 1.
    pub capacities: Option<ChannelCapacities>,
    /// Frames to push through every application input.
    pub frames: u32,
    /// Event tracing (`None`, the default, records nothing and adds no
    /// per-event work beyond a branch). Tracing is *inert*: it cannot
    /// change the schedule, the [`SimReport`], or its fingerprint — see
    /// [`crate::trace`].
    pub trace: Option<TraceOptions>,
    /// Always-on runtime metrics (`None`, the default, records nothing and
    /// adds no per-event work beyond a branch per hook). Metrics are
    /// *inert* like tracing:
    /// they cannot change the schedule, the [`SimReport`], or its
    /// fingerprint.
    pub metrics: Option<MetricsPolicy>,
}

impl SimConfig {
    /// Default configuration on the evaluation machine, with the channel
    /// capacity derived per graph (a window-row of slack; see
    /// [`bp_core::capacity::derive_default_capacity`]).
    pub fn new(frames: u32) -> Self {
        Self {
            machine: MachineSpec::default_eval(),
            backend: Backend::Auto,
            comm: CommModel::zero(),
            capacities: None,
            frames,
            trace: None,
            metrics: None,
        }
    }

    /// Select the planner (default [`Backend::Auto`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Use a specific machine.
    pub fn with_machine(mut self, machine: MachineSpec) -> Self {
        self.machine = machine;
        self
    }

    /// Use a specific inter-PE communication delay model.
    pub fn with_comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Pin one explicit capacity for *every* queue instead of deriving a
    /// plan from the graph: sets [`capacities`](Self::capacities) to
    /// [`ChannelCapacities::uniform`]`(items)`, replacing any plan an
    /// earlier builder call set (the last call wins). This disables the
    /// feedback-aware back-edge sizing, so a feedback loop whose primed
    /// population exceeds what the pinned value can hold will
    /// capacity-deadlock (and be diagnosed by a
    /// [`crate::deadlock::DeadlockReport`]).
    pub fn with_channel_capacity(self, items: usize) -> Self {
        self.with_channel_capacities(ChannelCapacities::uniform(items))
    }

    /// Use an explicit per-channel capacity plan (keyed by the graph's
    /// [`bp_core::ChannelId`]s), replacing any plan an earlier builder call
    /// set, [`with_channel_capacity`](Self::with_channel_capacity)'s
    /// included.
    pub fn with_channel_capacities(mut self, plan: ChannelCapacities) -> Self {
        self.capacities = Some(plan);
        self
    }

    /// Enable deterministic event tracing; retrieve the [`Trace`] via
    /// [`TimedSimulator::run_with_artifacts`] or
    /// [`TimedSimulator::finish`].
    pub fn with_trace(mut self, options: TraceOptions) -> Self {
        self.trace = Some(options);
        self
    }

    /// Enable always-on runtime metrics under `policy`; retrieve the
    /// [`bp_metrics::MetricsTape`] via
    /// [`TimedSimulator::run_with_artifacts`] or
    /// [`TimedSimulator::finish_report`].
    pub fn with_metrics(mut self, policy: MetricsPolicy) -> Self {
        self.metrics = Some(policy);
        self
    }

    /// Does nothing: the masked planner reads the method table every
    /// node already holds, so there is no program to hand in. Kept only
    /// because the frozen benchmark package still calls it; the next
    /// benchmark-only change removes both.
    pub fn with_lowered(self, _program: Arc<bp_codegen::ThreadedProgram>) -> Self {
        self
    }
}

/// What a pending simulator event does when it fires.
#[derive(Clone, Copy, Debug)]
enum EventKind {
    /// Inject the next sample of a source (index into
    /// [`ProgramTables::sources`]).
    SourceEmit {
        /// Global source index.
        source: usize,
    },
    /// A PE finishes its current firing.
    PeDone {
        /// Global PE index.
        pe: usize,
    },
    /// An in-flight item reaches the head of a delayed channel's wire and
    /// lands in the destination queue. Band-1: ordinal `2·chan`, sequenced
    /// by the sender.
    ChannelArrival {
        /// Runtime channel index (into [`Shared::channels`]).
        chan: u32,
    },
    /// A consumed delayed item's buffer slot becomes visible to the sender
    /// again. Band-1: ordinal `2·chan + 1`, sequenced by the receiver.
    CreditReturn {
        /// Runtime channel index (into [`Shared::channels`]).
        chan: u32,
    },
}

/// Resolved per-channel communication parameters. `latency_s > 0` marks the
/// channel *delayed*: pushes become [`EventKind::ChannelArrival`] events and
/// capacity is enforced by sender-side credits. Channels between nodes on
/// the same PE are always direct (local memory), whatever the model.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChannelRt {
    pub(crate) src: usize,
    pub(crate) src_port: usize,
    pub(crate) dst: usize,
    pub(crate) dst_port: usize,
    /// One-way flight time of an item; 0 means direct same-cycle delivery.
    pub(crate) latency_s: f64,
    /// Serialization cost per payload word (store-and-forward: items on one
    /// channel serialize behind each other at this rate).
    pub(crate) ser_per_word_s: f64,
    /// Resolved buffer capacity of this channel in items (the plan default,
    /// or a feedback back-edge override).
    pub(crate) cap: usize,
}

#[derive(Clone)]
struct Inflight {
    node: usize,
    emitted: Vec<(usize, Item)>,
    run_s: f64,
    read_s: f64,
    write_s: f64,
}

/// One pre-resolved routing destination: the per-push
/// `chan_into`/`latency_s`/`node_roles` lookups folded into a record at
/// simulator-build time.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RouteDest {
    dn: u32,
    dp: u32,
    /// Delayed channel carrying this edge, or `u32::MAX` for direct
    /// same-cycle delivery into the destination queue.
    chan: u32,
    /// Destination is a sink (EOF arrival timestamps are recorded).
    sink: bool,
}

/// One pre-resolved downstream-space check: a method's outputs × their
/// routes, flattened in scan order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum SpaceCheck {
    /// Delayed edge: the sender-side credit count must be ≥ 2.
    Credit {
        /// Channel index into [`Shared::channels`].
        chan: u32,
    },
    /// Direct edge: the destination queue must have 2 items of headroom.
    /// `chan` is the channel feeding that queue (`u32::MAX` if none), used
    /// only to attribute metrics stall counts.
    Queue {
        dn: u32,
        dp: u32,
        cap: u32,
        chan: u32,
    },
}

/// Per-method memo of the last read/write word-cost conversions. Word
/// counts are data-dependent but almost always repeat (window shapes are
/// static per port), and IEEE-754 division is deterministic, so reusing
/// the quotient computed for the *same* word count is bitwise identical to
/// dividing per firing — it just skips two `f64` divides on the hot path.
#[derive(Clone, Copy)]
struct RwMemo {
    read_words: u64,
    read_s: f64,
    write_words: u64,
    write_s: f64,
}

impl Default for RwMemo {
    fn default() -> Self {
        // `u64::MAX` words can never be observed (it would overflow every
        // window allocation), so the first firing always misses.
        Self {
            read_words: u64::MAX,
            read_s: 0.0,
            write_words: u64::MAX,
            write_s: 0.0,
        }
    }
}

/// Everything the event loop reads but never writes: the resolved graph
/// nodes the engine instantiates when it starts, routing/pacing tables,
/// the mapping, and resolved configuration. The
/// per-port and per-method tables are flat — one row (or entry) per *slot*,
/// a node's first slot plus the port or method index — and read through
/// the accessors below.
pub(crate) struct Shared {
    /// The graph's nodes with their method tables, in node order.
    nodes: Vec<ResolvedNode>,
    tables: ProgramTables,
    /// Distinct upstream producer nodes per node (for dispatch waves).
    /// Covers *direct* channels only: a delayed channel's producer is
    /// re-dispatched by its [`EventKind::CreditReturn`] instead, so freeing
    /// space synchronously never reaches across a delayed edge.
    upstream: Rows<usize>,
    /// Every graph channel with its resolved communication parameters, in
    /// graph channel-slot order.
    channels: Vec<ChannelRt>,
    /// First input-port slot of each node.
    in_base: Vec<u32>,
    /// Per input-port slot: the channel feeding that port (graph
    /// validation guarantees at most one).
    chan_into: Vec<Option<u32>>,
    /// Per input-port slot: the resolved capacity of the queue on that
    /// port (the feeding channel's capacity; the plan default for
    /// unconnected ports), read on every space check.
    cap_into: Vec<usize>,
    /// True when any channel is delayed; false short-circuits every
    /// comm-model branch so the zero model costs one load per routing fan-out.
    any_delayed: bool,
    pe_of_node: Vec<usize>,
    /// Nodes resident on each PE, ascending: one row per PE.
    residents: Rows<usize>,
    node_roles: Vec<NodeRole>,
    machine: MachineSpec,
    frames: u32,
    required_rate_hz: f64,
    num_sinks: usize,
    trace: Option<TraceOptions>,
    /// Resolved metrics policy (`None` = metrics off).
    metrics: Option<ResolvedMetrics>,
    /// Per output-port slot ([`Routes::slot`](crate::runtime::Routes::slot))
    /// — fused destination records in route order.
    dests: Rows<RouteDest>,
    /// Per method slot — flattened downstream-space checks.
    space: Rows<SpaceCheck>,
    /// Per method slot — declared cost in seconds, the quotient
    /// `cycles as f64 / pe_clock_hz` taken once. Used only when the
    /// behavior's actual cycles equal the declared cost; otherwise the
    /// same division runs live (identical operation ⇒ identical bits).
    run_s: Vec<f64>,
    /// Per method slot — input ports a firing pops, in trigger order
    /// (duplicates preserved).
    trigger_ports: Rows<usize>,
    /// Per method slot — delayed channels to credit after a firing, in
    /// trigger order (duplicate trigger ports preserved).
    credit_chans: Rows<u32>,
    /// Declared seconds of a token forward (1 cycle), precomputed once.
    forward_run_s: f64,
    /// First method slot of each node, then the total. A node's base plus
    /// a method index ([`method_slot`](Self::method_slot)) indexes the
    /// per-method tables here and the engine's read/write-cost memo cache.
    method_base: Vec<u32>,
    /// Per node: `true` plans by [`RtNode::plan_masked`], `false` by
    /// [`RtNode::plan`] (a kernel wider than [`MAX_PORTS`] inputs, or
    /// every kernel under [`Backend::Interpreted`]).
    masked: Vec<bool>,
}

impl Shared {
    /// The flat slot of `(node, method)`.
    #[inline]
    fn method_slot(&self, node: usize, method: usize) -> usize {
        self.method_base[node] as usize + method
    }

    /// Total method slots across all nodes (the memo cache's length).
    fn num_method_slots(&self) -> usize {
        self.method_base[self.method_base.len() - 1] as usize
    }

    #[inline]
    fn in_slot(&self, node: usize, port: usize) -> usize {
        self.in_base[node] as usize + port
    }

    /// Fused destination records of `(node, out_port)`, in route order.
    #[inline]
    fn dests(&self, node: usize, port: usize) -> &[RouteDest] {
        self.dests.row(self.tables.routes.slot(node, port))
    }

    /// The downstream-space checks of `(node, method)`, in scan order.
    #[inline]
    fn space(&self, node: usize, method: usize) -> &[SpaceCheck] {
        self.space.row(self.method_slot(node, method))
    }

    /// Declared cost of `(node, method)` in seconds.
    #[inline]
    fn run_s(&self, node: usize, method: usize) -> f64 {
        self.run_s[self.method_slot(node, method)]
    }

    /// Input ports a firing of `(node, method)` pops, in trigger order.
    #[inline]
    fn trigger_ports(&self, node: usize, method: usize) -> &[usize] {
        self.trigger_ports.row(self.method_slot(node, method))
    }

    /// Delayed channels a firing of `(node, method)` credits.
    #[inline]
    fn credit_chans(&self, node: usize, method: usize) -> &[u32] {
        self.credit_chans.row(self.method_slot(node, method))
    }

    /// The channel feeding `(node, in_port)`, if any.
    #[inline]
    fn chan_into(&self, node: usize, port: usize) -> Option<u32> {
        self.chan_into[self.in_slot(node, port)]
    }

    /// The resolved capacity of the queue on `(node, in_port)`.
    #[inline]
    fn cap_into(&self, node: usize, port: usize) -> usize {
        self.cap_into[self.in_slot(node, port)]
    }

    /// Distinct producers feeding `node` over direct channels.
    #[inline]
    fn upstream(&self, node: usize) -> &[usize] {
        self.upstream.row(node)
    }
}

/// [`bp_core::MetricsPolicy`] with every default resolved against the
/// application: the snapshot interval defaults to one frame period.
#[derive(Clone, Debug)]
struct ResolvedMetrics {
    interval_s: f64,
    window: usize,
    contracts: bp_core::QosSpec,
}

/// Refuse timing inputs that would schedule an infinite or NaN event time:
/// a firing lasts its cycles plus word costs over the PE clock, and a
/// delayed channel adds the communication model's terms.
fn check_timing(machine: &MachineSpec, comm: &CommModel) -> Result<()> {
    let clock = machine.pe_clock_hz;
    if !(clock.is_finite() && clock > 0.0) {
        return Err(BpError::Simulation(format!(
            "machine pe_clock_hz is {clock}; it must be finite and positive"
        )));
    }
    for (what, v) in [
        ("machine read_cost_per_word", machine.read_cost_per_word),
        ("machine write_cost_per_word", machine.write_cost_per_word),
        ("comm base_latency_s", comm.base_latency_s),
        ("comm per_hop_s", comm.per_hop_s),
        ("comm per_word_s", comm.per_word_s),
    ] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(BpError::Simulation(format!(
                "{what} is {v}; it must be finite and non-negative"
            )));
        }
    }
    Ok(())
}

/// Resolve `graph` under `mapping` and `config` into the read-only
/// [`Shared`] tables the engine runs over, the graph's nodes included. No
/// node is instantiated: [`Engine::init`] does that.
pub(crate) fn build_shared(
    graph: &AppGraph,
    mapping: &Mapping,
    config: SimConfig,
) -> Result<Shared> {
    if mapping.pe_of_node.len() != graph.node_count() {
        return Err(BpError::Simulation(format!(
            "mapping covers {} nodes but graph has {}",
            mapping.pe_of_node.len(),
            graph.node_count()
        )));
    }
    let off_machine = mapping
        .pe_of_node
        .iter()
        .position(|&pe| pe >= mapping.num_pes);
    if let Some(node) = off_machine {
        return Err(BpError::Simulation(format!(
            "mapping puts node '{}' on PE {}, but it has {} PEs",
            graph.node(NodeId(node)).name,
            mapping.pe_of_node[node],
            mapping.num_pes
        )));
    }
    if config.frames == 0 {
        // No frame would complete, yet no frame would miss either: a
        // zero-frame run verifies nothing, so it must not read as met.
        return Err(BpError::Simulation(
            "frames is 0; a run must push at least one frame".to_string(),
        ));
    }
    if config.trace.is_some_and(|t| t.capacity == 0) {
        return Err(BpError::Simulation(
            "trace capacity is 0; the ring must hold at least one event".to_string(),
        ));
    }
    check_timing(&config.machine, &config.comm)?;
    // An explicit plan (uniform or per channel) wins over the
    // feedback-aware derivation.
    let plan = config
        .capacities
        .unwrap_or_else(|| derive_channel_capacities(graph));
    let (nodes, tables) = ProgramTables::of(graph)?;
    let n = nodes.len();
    let spec = |node: usize| nodes[node].node.spec();
    // Resolve every channel's communication parameters once. Same-PE
    // channels are local memory (latency 0) regardless of the model.
    let in_base = slot_bases((0..n).map(|node| spec(node).inputs.len()));
    let in_slot = |node: usize, port: usize| in_base[node] as usize + port;
    let mut channels = Vec::with_capacity(graph.channel_count());
    let mut chan_into: Vec<Option<u32>> = vec![None; in_base[n] as usize];
    let mut cap_into: Vec<usize> = vec![plan.default; in_base[n] as usize];
    for (cid, c) in graph.channels() {
        let (src, dst) = (c.src.node.0, c.dst.node.0);
        let latency_s = config.comm.channel_latency_s(
            mapping.pe_of_node[src],
            mapping.pe_of_node[dst],
            mapping.num_pes,
        );
        let delayed = latency_s > 0.0;
        let (src_port, dst_port) = (c.src.port, c.dst.port);
        let chan = channels.len() as u32;
        let cap = plan.capacity(cid);
        if cap < HEADROOM {
            // A firing starts only with HEADROOM free items on each output,
            // so a smaller queue blocks its producer from the first firing.
            return Err(BpError::Simulation(format!(
                "channel {}.{} -> {}.{} has capacity {cap}; every channel must hold at least \
                 {HEADROOM} items, the room a firing needs on each output",
                nodes[src].node.name,
                spec(src).outputs[src_port].name,
                nodes[dst].node.name,
                spec(dst).inputs[dst_port].name,
            )));
        }
        channels.push(ChannelRt {
            src,
            src_port,
            dst,
            dst_port,
            latency_s,
            ser_per_word_s: if delayed { config.comm.per_word_s } else { 0.0 },
            cap,
        });
        chan_into[in_slot(dst, dst_port)] = Some(chan);
        cap_into[in_slot(dst, dst_port)] = cap;
    }
    let any_delayed = channels.iter().any(|c| c.latency_s > 0.0);
    let delayed_chan = |dn: usize, dp: usize| -> Option<u32> {
        chan_into[in_slot(dn, dp)].filter(|&c| channels[c as usize].latency_s > 0.0)
    };
    // Dispatch waves walk upstream over direct channels only; delayed
    // producers are woken by credit returns instead. Each node's distinct
    // producers, in the order its in-channels name them.
    let mut upstream = Rows::with_capacity(n);
    let mut producers: Vec<usize> = Vec::new();
    for node in 0..n {
        producers.clear();
        for (_, c) in graph.channels_into(NodeId(node)) {
            let direct = delayed_chan(node, c.dst.port).is_none();
            if direct && !producers.contains(&c.src.node.0) {
                producers.push(c.src.node.0);
            }
        }
        upstream.push_row(producers.iter().copied());
    }
    let node_roles: Vec<NodeRole> = (0..n).map(|node| spec(node).role).collect();
    // Each node plans by masks when its table fits them, by the scan when
    // it does not; `Interpreted` scans every node. Only planning differs
    // (DESIGN.md §13): every table below serves both planners.
    let masked = (nodes.iter())
        .map(|rn| config.backend == Backend::Auto && rn.methods.fits_masks())
        .collect();
    let dests = tables.routes.rows().map(|&(dn, dp)| RouteDest {
        dn: dn as u32,
        dp: dp as u32,
        chan: delayed_chan(dn, dp).unwrap_or(u32::MAX),
        sink: node_roles[dn] == NodeRole::Sink,
    });
    // One row (or entry) per method of every node, in node then method
    // order, from the method table each node shares with its spec.
    let method_base = slot_bases(nodes.iter().map(|rn| rn.methods.len()));
    let num_method_slots = method_base[n] as usize;
    let clock = config.machine.pe_clock_hz;
    let mut space = Rows::with_capacity(num_method_slots);
    let mut run_s = Vec::with_capacity(num_method_slots);
    let mut trigger_ports = Rows::with_capacity(num_method_slots);
    let mut credit_chans = Rows::with_capacity(num_method_slots);
    for (node, rn) in nodes.iter().enumerate() {
        for m in rn.methods.iter() {
            let routes = m.outputs.iter();
            let routes = routes.flat_map(|&port| tables.routes.from(node, port));
            space.push_row(routes.map(|&(dn, dp)| match delayed_chan(dn, dp) {
                Some(chan) => SpaceCheck::Credit { chan },
                None => SpaceCheck::Queue {
                    dn: dn as u32,
                    dp: dp as u32,
                    cap: cap_into[in_slot(dn, dp)] as u32,
                    chan: chan_into[in_slot(dn, dp)].unwrap_or(u32::MAX),
                },
            }));
            run_s.push(m.cost_cycles as f64 / clock);
            let ports = m.triggers.iter().map(|&(p, _)| p);
            trigger_ports.push_row(ports.clone());
            credit_chans.push_row(ports.filter_map(|p| delayed_chan(node, p)));
        }
    }
    let num_sinks = node_roles
        .iter()
        .filter(|r| **r == NodeRole::Sink)
        .count()
        .max(1);
    let required_rate_hz = graph
        .sources()
        .iter()
        .map(|s| s.rate_hz)
        .fold(0.0f64, f64::max);
    let metrics = config.metrics.map(|p| ResolvedMetrics {
        interval_s: p.interval_s.unwrap_or(if required_rate_hz > 0.0 {
            1.0 / required_rate_hz
        } else {
            1e-3
        }),
        window: p.window.unwrap_or(5),
        contracts: p.contracts,
    });
    if let Some(m) = &metrics {
        if !(m.interval_s.is_finite() && m.interval_s > 0.0) || m.window == 0 {
            return Err(BpError::Simulation(format!(
                "metrics interval {} s over a window of {}: the interval must be finite and \
                 positive and the window at least 1",
                m.interval_s, m.window
            )));
        }
    }
    let residents = Rows::bucketed(mapping.num_pes, || {
        (mapping.pe_of_node.iter().enumerate()).map(|(node, &pe)| (pe, node))
    });
    Ok(Shared {
        nodes,
        tables,
        upstream,
        channels,
        in_base,
        chan_into,
        cap_into,
        any_delayed,
        pe_of_node: mapping.pe_of_node.clone(),
        residents,
        node_roles,
        machine: config.machine,
        frames: config.frames,
        required_rate_hz,
        num_sinks,
        trace: config.trace,
        metrics,
        dests,
        space,
        run_s,
        trigger_ports,
        credit_chans,
        forward_run_s: 1.0 / clock,
        method_base,
        masked,
    })
}

/// The discrete-event engine: every PE, node, queue and recorder of one
/// simulation, owned outright. It holds its read-only tables by `Arc` so a
/// handler can read them while mutating the engine, and so it is a plain
/// movable, `Send` value the fleet host may step on any worker.
pub(crate) struct Engine {
    shared: Arc<Shared>,
    nodes: Vec<RtNode>,
    rr: Vec<usize>,
    pe_inflight: Vec<Option<Inflight>>,
    /// Ready-set state: `dirty[node]` is true when the node's inputs or
    /// private state changed since its last failed plan; a clean node is
    /// guaranteed unable to fire and is skipped without re-planning.
    dirty: Vec<bool>,
    /// Number of dirty residents per PE; zero means the PE has no work.
    dirty_count: Vec<usize>,
    events: EventQueue<EventKind>,
    now: f64,
    stats: Vec<PeStats>,
    node_busy: Vec<f64>,
    violations: u64,
    sink_eof_times: Vec<f64>,
    /// Injection time of each frame's first sample (global source 0 only).
    frame_start_times: Vec<f64>,
    /// Custom-token emissions per node, for §II-C rate-bound checking.
    custom_token_emissions: Vec<u64>,
    source_progress: Vec<u64>,
    budget_overruns: Vec<u64>,
    node_max_queue: Vec<usize>,
    /// Sender-side credit count per channel (delayed channels only; direct
    /// channels read the receiver queue instead). Starts at capacity; a
    /// send spends one, a [`EventKind::CreditReturn`] restores one. May go
    /// negative under source overfill, exactly mirroring the direct path's
    /// behavior of counting a violation but still injecting.
    credits: Vec<i64>,
    /// Store-and-forward: when each delayed channel's wire is free again.
    busy_until: Vec<f64>,
    /// In-flight items per delayed channel, in send order; arrivals pop
    /// from the front (arrival times are non-decreasing per channel, and
    /// equal-time arrivals pop in ordinal = send order).
    wire: Vec<VecDeque<Item>>,
    /// Next arrival sequence number per channel.
    send_seq: Vec<u32>,
    /// Next credit-return sequence number per channel.
    credit_seq: Vec<u32>,
    /// Event recorder, present only when [`SimConfig::trace`] is set.
    /// Recording is read-only with respect to simulation state, so its
    /// presence cannot perturb the schedule.
    trace: Option<TraceRecorder>,
    /// Streaming metrics recorder, present only when
    /// [`SimConfig::metrics`] is set. Like tracing it is inert: hooks
    /// observe but never influence the schedule.
    metrics: Option<MetricsRecorder>,
    /// Last recorded stall cause per PE (`None` = running); transitions
    /// are traced only on change. Unused when tracing is off.
    pe_stall: Vec<Option<StallCause>>,
    /// Bit `p` set when the node's input queue `p` (`p <` [`MAX_PORTS`])
    /// currently has a window at its head. Maintained incrementally at
    /// every queue mutation, on every node; [`head_masks`] is the oracle
    /// (checked before every masked plan under debug assertions).
    head_data: Vec<u64>,
    /// As [`head_data`](Self::head_data), for control tokens.
    head_ctrl: Vec<u64>,
    /// Recycled routing scratch: the PEs a routed firing touched.
    touched_buf: Vec<usize>,
    /// Recycled dispatch worklist for the single-PE waves of
    /// arrival/credit events.
    wave_buf: Vec<usize>,
    /// One bit per PE, set while the PE sits in the current dispatch
    /// worklist — O(1) membership for the worklist dedup. Insertions set
    /// the bit, pops clear it, so the mask is all-zero between waves (the
    /// unconditional own-PE push in `handle_pe_done` bypasses the mask;
    /// pops tolerate the resulting duplicate).
    wave_mask: Vec<u64>,
    /// Per-method [`RwMemo`] slots (flat-indexed via
    /// [`Shared::method_base`]).
    rw_memo: Vec<RwMemo>,
    /// True when the node's last plan succeeded but `space_ok` declined
    /// it, so it is waiting on downstream consumption.
    /// The untraced dispatcher wakes upstream PEs only for flagged nodes —
    /// a firing's consumption is the *only* new information an upstream
    /// wake carries (data arrivals wake destinations through the routing
    /// path, and a fireable-with-space resident was already started, or
    /// its PE is busy and revisited at `PeDone`). Conservatively cleared
    /// only when the node starts; stale flags cost a no-op pop, never a
    /// missed wake.
    space_waiting: Vec<bool>,
}

impl Engine {
    /// An engine over its tables. It allocates nothing: the nodes and the
    /// run state are created by [`init`](Self::init), so a simulator that
    /// is built and never run costs only its build.
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        Self {
            shared,
            nodes: Vec::new(),
            rr: Vec::new(),
            pe_inflight: Vec::new(),
            dirty: Vec::new(),
            dirty_count: Vec::new(),
            events: EventQueue::default(),
            now: 0.0,
            stats: Vec::new(),
            node_busy: Vec::new(),
            violations: 0,
            sink_eof_times: Vec::new(),
            frame_start_times: Vec::new(),
            custom_token_emissions: Vec::new(),
            source_progress: Vec::new(),
            budget_overruns: Vec::new(),
            node_max_queue: Vec::new(),
            credits: Vec::new(),
            busy_until: Vec::new(),
            wire: Vec::new(),
            send_seq: Vec::new(),
            credit_seq: Vec::new(),
            trace: None,
            metrics: None,
            pe_stall: Vec::new(),
            head_data: Vec::new(),
            head_ctrl: Vec::new(),
            touched_buf: Vec::new(),
            wave_buf: Vec::new(),
            wave_mask: Vec::new(),
            rw_memo: Vec::new(),
            space_waiting: Vec::new(),
        }
    }

    /// Wave-membership test-and-set for the dispatcher's O(1) worklist
    /// dedup. Returns `true` when `pe` was not yet a member.
    #[inline]
    fn wave_test_set(&mut self, pe: usize) -> bool {
        let (w, b) = (pe / 64, 1u64 << (pe % 64));
        let newly = self.wave_mask[w] & b == 0;
        self.wave_mask[w] |= b;
        newly
    }

    #[inline]
    fn wave_clear(&mut self, pe: usize) {
        self.wave_mask[pe / 64] &= !(1u64 << (pe % 64));
    }

    /// Metrics hook: an event was created now, attributed to the clock of
    /// the event that created it.
    #[inline]
    fn note_push(&mut self) {
        if let Some(m) = self.metrics.as_mut() {
            m.event_pushed(self.now);
        }
    }

    /// Push a band-0 event (source emission / PE completion).
    #[inline]
    fn push_event(&mut self, t: f64, kind: EventKind) {
        self.note_push();
        self.events.push(t, kind);
    }

    /// Push a band-1 communication event.
    fn push_event_ord(&mut self, t: f64, ord: u64, kind: EventKind) {
        self.note_push();
        self.events.push_ord(t, ord, kind);
    }

    /// Mark a node as possibly able to fire. Sources are paced externally
    /// and never enter the ready set.
    #[inline]
    fn mark_dirty(&mut self, node: usize) {
        if !self.dirty[node] && self.shared.node_roles[node] != NodeRole::Source {
            self.dirty[node] = true;
            self.dirty_count[self.shared.pe_of_node[node]] += 1;
        }
    }

    #[inline]
    fn clear_dirty(&mut self, node: usize) {
        if self.dirty[node] {
            self.dirty[node] = false;
            self.dirty_count[self.shared.pe_of_node[node]] -= 1;
        }
    }

    /// Instantiate the nodes and allocate the run state, then fire the
    /// startup constants (in program order) and seed the sources —
    /// everything that happens before the first event pop.
    pub(crate) fn init(&mut self) {
        let shared = Arc::clone(&self.shared);
        let sh = &*shared;
        self.nodes = sh.nodes.iter().map(RtNode::new).collect();
        let n = self.nodes.len();
        let num_pes = sh.residents.num_rows();
        let num_chans = sh.channels.len();
        self.rr = vec![0; num_pes];
        self.pe_inflight = (0..num_pes).map(|_| None).collect();
        self.dirty = vec![false; n];
        self.dirty_count = vec![0; num_pes];
        self.stats = vec![PeStats::default(); num_pes];
        self.node_busy = vec![0.0; n];
        self.custom_token_emissions = vec![0; n];
        self.source_progress = vec![0; sh.tables.sources.len()];
        self.budget_overruns = vec![0; n];
        self.node_max_queue = vec![0; n];
        self.credits = sh.channels.iter().map(|c| c.cap as i64).collect();
        self.busy_until = vec![0.0; num_chans];
        self.wire = (0..num_chans).map(|_| VecDeque::new()).collect();
        self.send_seq = vec![0; num_chans];
        self.credit_seq = vec![0; num_chans];
        self.trace = sh.trace.map(TraceRecorder::new);
        self.metrics = (sh.metrics.as_ref())
            .map(|m| MetricsRecorder::new(m.interval_s, m.window, num_pes, n, num_chans));
        self.pe_stall = vec![None; num_pes];
        self.head_data = vec![0; n];
        self.head_ctrl = vec![0; n];
        self.wave_mask = vec![0; num_pes.div_ceil(64)];
        self.rw_memo = vec![RwMemo::default(); sh.num_method_slots()];
        self.space_waiting = vec![false; n];
        // Constants fire at t = 0, before any source sample.
        for &(node, method) in &sh.tables.consts {
            self.record_untriggered_begin(node, method);
            let emitted = self.nodes[node].fire_untriggered(method);
            // The firing may change the node's private state (e.g. a
            // feedback primer becoming ready), so re-plan it.
            self.mark_dirty(node);
            let mut touched = std::mem::take(&mut self.touched_buf);
            touched.clear();
            self.route(sh, node, emitted, &mut touched);
            self.record_untriggered_end(node);
            self.dispatch_wave(sh, &mut touched);
            self.touched_buf = touched;
        }
        for source in 0..sh.tables.sources.len() {
            self.push_event(0.0, EventKind::SourceEmit { source });
        }
    }

    /// The event loop: process pending events in `(t, ord)` order until
    /// `budget` events have been handled or the queue drains; returns the
    /// number processed. A one-shot run is one call with an open budget,
    /// the fleet host's stepping (DESIGN.md §16) one call per step.
    /// Chunking the drain cannot change any result: every iteration pops
    /// and handles exactly the event an unbounded call would have handled
    /// next. Every observer hook tests its own recorder.
    pub(crate) fn run(&mut self, budget: usize) -> usize {
        let shared = Arc::clone(&self.shared);
        let sh = &*shared;
        let mut done = 0;
        while done < budget {
            let Some(ev) = self.events.pop() else { break };
            self.now = ev.t;
            if let Some(m) = self.metrics.as_mut() {
                m.event_popped(ev.t);
            }
            match ev.payload {
                EventKind::SourceEmit { source } => self.handle_source_emit(sh, source),
                EventKind::PeDone { pe } => self.handle_pe_done(sh, pe),
                EventKind::ChannelArrival { chan } => self.handle_channel_arrival(sh, chan),
                EventKind::CreditReturn { chan } => self.handle_credit_return(sh, chan),
            }
            done += 1;
        }
        done
    }

    /// True when no event is pending.
    pub(crate) fn is_idle(&self) -> bool {
        self.events.is_empty()
    }

    /// Trace a zero-cost untriggered (source/const) firing: the engine
    /// charges it no PE time, so it is recorded as a begin/end pair at the
    /// current instant, bracketing its routing effects.
    fn record_untriggered_begin(&mut self, node: usize, method: usize) {
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::FiringBegin {
                t: self.now,
                node: node as u32,
                method: method as u32,
                pe: self.shared.pe_of_node[node] as u32,
                cycles: 0,
            });
        }
    }

    fn record_untriggered_end(&mut self, node: usize) {
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::FiringEnd {
                t: self.now,
                node: node as u32,
                pe: self.shared.pe_of_node[node] as u32,
            });
        }
    }

    /// The single violation-counting code path: every source input
    /// overrun increments the always-on counter behind
    /// [`RealTimeVerdict::violations`] *and* feeds the deadline monitor
    /// (interval count + first-violation timestamp) when metrics are on.
    #[inline]
    fn record_input_overrun(&mut self) {
        self.violations += 1;
        if let Some(m) = self.metrics.as_mut() {
            m.input_overrun(self.now);
        }
    }

    fn handle_source_emit(&mut self, sh: &Shared, source: usize) {
        let s = self.shared.tables.sources[source];
        if source == 0 && self.source_progress[source].is_multiple_of(s.frame.area()) {
            self.frame_start_times.push(self.now);
        }
        // Check capacity at the destinations before injecting; a full queue
        // at the scheduled time is a missed deadline (counted once per
        // injection, however many destinations are saturated). Delayed
        // destinations are judged by the sender-side credit count — the
        // receiver queue may be remote.
        let full = sh.dests(s.node, 0).iter().any(|d| {
            if d.chan != u32::MAX {
                self.credits[d.chan as usize] <= 0
            } else {
                let (dn, dp) = (d.dn as usize, d.dp as usize);
                self.nodes[dn].queues[dp].len() >= sh.cap_into(dn, dp)
            }
        });
        if full {
            self.record_input_overrun();
        }
        self.record_untriggered_begin(s.node, s.method);
        let emitted = self.nodes[s.node].fire_untriggered(s.method);
        let mut touched = std::mem::take(&mut self.touched_buf);
        touched.clear();
        self.route(sh, s.node, emitted, &mut touched);
        self.record_untriggered_end(s.node);
        self.dispatch_wave(sh, &mut touched);
        self.touched_buf = touched;

        self.source_progress[source] += 1;
        let total = s.frame.area() * self.shared.frames as u64;
        if self.source_progress[source] < total {
            let period = 1.0 / (s.rate_hz * s.frame.area() as f64);
            let t_next = self.source_progress[source] as f64 * period;
            self.push_event(t_next, EventKind::SourceEmit { source });
        }
    }

    /// The own-PE push is unconditional (bypassing the wave mask): the PE
    /// just came free, whatever routing touched.
    fn handle_pe_done(&mut self, sh: &Shared, pe: usize) {
        let inflight = self.pe_inflight[pe]
            .take()
            .expect("PeDone without inflight");
        self.stats[pe].run += inflight.run_s;
        self.stats[pe].read += inflight.read_s;
        self.stats[pe].write += inflight.write_s;
        self.node_busy[inflight.node] += inflight.run_s + inflight.read_s + inflight.write_s;
        if let Some(m) = self.metrics.as_mut() {
            m.firing_complete(
                self.now,
                pe,
                inflight.node,
                inflight.run_s + inflight.read_s + inflight.write_s,
            );
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::FiringEnd {
                t: self.now,
                node: inflight.node as u32,
                pe: pe as u32,
            });
        }
        let mut touched = std::mem::take(&mut self.touched_buf);
        touched.clear();
        self.route(sh, inflight.node, inflight.emitted, &mut touched);
        touched.push(pe);
        self.dispatch_wave(sh, &mut touched);
        self.touched_buf = touched;
    }

    /// Dispatch a single-PE wave (arrival/credit events), allocation-free,
    /// when `pe` is idle. A busy PE is skipped as `route` skips it: the
    /// wave's first pop would drop it unplanned, and `handle_pe_done`
    /// dispatches it when it comes free.
    #[inline]
    fn dispatch_idle_pe(&mut self, sh: &Shared, pe: usize) {
        if self.pe_inflight[pe].is_some() {
            return;
        }
        let mut wave = std::mem::take(&mut self.wave_buf);
        wave.clear();
        wave.push(pe);
        self.dispatch_wave(sh, &mut wave);
        self.wave_buf = wave;
    }

    /// Recompute the head-mask bit of one input port after its queue head
    /// changed (a firing popped it). Ports past [`MAX_PORTS`] have no bit.
    #[inline]
    fn refresh_head(&mut self, node: usize, port: usize) {
        if port >= MAX_PORTS {
            return;
        }
        let bit = 1u64 << port;
        self.head_data[node] &= !bit;
        self.head_ctrl[node] &= !bit;
        match self.nodes[node].queues[port].front() {
            Some(Item::Window(_)) => self.head_data[node] |= bit,
            Some(Item::Control(_)) => self.head_ctrl[node] |= bit,
            None => {}
        }
    }

    /// Launch `item` onto delayed channel `chan`: spend a credit, serialize
    /// behind earlier items on the wire (store-and-forward), and schedule
    /// the arrival.
    fn delayed_send(&mut self, chan: u32, item: Item) {
        let c = self.shared.channels[chan as usize];
        let ci = chan as usize;
        self.credits[ci] -= 1;
        let words = item.words();
        let depart = self.now.max(self.busy_until[ci]);
        let ser = words as f64 * c.ser_per_word_s;
        let arrival = depart + ser + c.latency_s;
        self.busy_until[ci] = depart + ser;
        let seq = self.send_seq[ci];
        self.send_seq[ci] += 1;
        let ord = band1_ord(2 * chan as u64, seq);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::CommSend {
                t: self.now,
                chan,
                words: words as u32,
                arrival,
            });
        }
        self.wire[ci].push_back(item);
        self.push_event_ord(arrival, ord, EventKind::ChannelArrival { chan });
    }

    /// An in-flight item lands: pop it off the wire into the destination
    /// queue, then dispatch the destination PE.
    fn handle_channel_arrival(&mut self, sh: &Shared, chan: u32) {
        let c = self.shared.channels[chan as usize];
        let item = self.wire[chan as usize]
            .pop_front()
            .expect("arrival without in-flight item");
        let tok = match &item {
            Item::Control(t) => Some(*t),
            Item::Window(_) => None,
        };
        let (dn, dp) = (c.dst, c.dst_port);
        if self.shared.node_roles[dn] == NodeRole::Sink {
            if let Some(ControlToken::EndOfFrame) = tok {
                self.sink_eof_times.push(self.now);
            }
        }
        let depth = {
            let queue = &mut self.nodes[dn].queues[dp];
            queue.push_back(item);
            queue.len()
        };
        if depth == 1 && dp < MAX_PORTS {
            // The item became the queue head; update the planning mask.
            let bit = 1u64 << dp;
            if tok.is_none() {
                self.head_data[dn] |= bit;
            } else {
                self.head_ctrl[dn] |= bit;
            }
        }
        if depth > self.node_max_queue[dn] {
            self.node_max_queue[dn] = depth;
        }
        if let Some(m) = self.metrics.as_mut() {
            m.chan_depth(chan as usize, depth);
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::CommArrival { t: self.now, chan });
            trace.record(TraceEvent::QueueDepth {
                t: self.now,
                node: dn as u32,
                port: dp as u32,
                depth: depth as u32,
            });
            if let Some(token) = tok {
                trace.record(TraceEvent::Token {
                    t: self.now,
                    node: dn as u32,
                    port: dp as u32,
                    token,
                });
            }
        }
        self.mark_dirty(dn);
        self.dispatch_idle_pe(sh, self.shared.pe_of_node[dn]);
    }

    /// A credit comes home: the channel's producer may have been blocked on
    /// it (it stayed dirty when declined for space), so dispatch its PE.
    fn handle_credit_return(&mut self, sh: &Shared, chan: u32) {
        self.credits[chan as usize] += 1;
        let src = self.shared.channels[chan as usize].src;
        self.dispatch_idle_pe(sh, self.shared.pe_of_node[src]);
    }

    /// `node`'s next action: the engine's one planning site. A node whose
    /// table fits the masks plans by [`RtNode::plan_masked`] (unless the
    /// run asked for [`Backend::Interpreted`]), any other by
    /// [`RtNode::plan`]'s scan. Under debug assertions a masked plan is
    /// checked twice first: the incremental head masks against
    /// [`head_masks`], and the plan itself against the scan's.
    #[inline]
    fn plan(&self, node: usize) -> Option<Action> {
        let rt = &self.nodes[node];
        if !self.shared.masked[node] {
            return rt.plan();
        }
        let (data, ctrl) = (self.head_data[node], self.head_ctrl[node]);
        debug_assert_eq!(
            head_masks(&rt.queues),
            (data, ctrl),
            "stale head masks for node {node} ('{}')",
            rt.name
        );
        let planned = rt.plan_masked(data, ctrl);
        debug_assert_eq!(
            planned,
            rt.plan(),
            "masked plan of node {node} ('{}') differs from the scan",
            rt.name
        );
        planned
    }

    /// Attribute why `pe` failed to start a firing just now, from pure
    /// reads of its residents' state. Any resident with a fireable plan
    /// must have been blocked by `space_ok` (that is the only way
    /// `try_start` declines a plan), so back-pressure wins the
    /// attribution; otherwise queued-but-untriggerable inputs mean the PE
    /// is starved, and an empty PE is idle.
    fn stall_cause(&self, pe: usize) -> StallCause {
        let mut has_items = false;
        for &node in self.shared.residents.row(pe) {
            if self.shared.node_roles[node] == NodeRole::Source {
                continue;
            }
            if self.plan(node).is_some() {
                return StallCause::OutputBlocked;
            }
            has_items = has_items || self.nodes[node].queued_items() > 0;
        }
        if has_items {
            StallCause::InputStarved
        } else {
            StallCause::Idle
        }
    }

    /// Record a stall transition for `pe` if its attributed cause changed
    /// since the last record. Only called when tracing is enabled.
    fn record_stall(&mut self, pe: usize) {
        let cause = self.stall_cause(pe);
        if self.pe_stall[pe] != Some(cause) {
            self.pe_stall[pe] = Some(cause);
            let t = self.now;
            self.trace.as_mut().unwrap().record(TraceEvent::Stall {
                t,
                pe: pe as u32,
                cause,
            });
        }
    }

    /// Metrics hook: a plannable firing was declined for downstream space
    /// on `chan` (`u32::MAX` = a queue with no feeding channel; not
    /// attributed).
    #[inline]
    fn note_stall(&mut self, chan: u32) {
        if chan == u32::MAX {
            return;
        }
        if let Some(m) = self.metrics.as_mut() {
            m.chan_stall(self.now, chan as usize);
        }
    }

    /// Deliver items, recording sink EOF arrival times and marking the
    /// receiving nodes dirty; the PEs that may now have new work accumulate
    /// into `touched`, and the drained buffer is recycled to the emitting
    /// node. Head masks are maintained at each push, and the final
    /// destination of a fan-out receives the item by move. A destination
    /// behind a delayed channel receives nothing now — the item goes onto
    /// the wire and lands at its [`EventKind::ChannelArrival`].
    fn route(
        &mut self,
        sh: &Shared,
        from: usize,
        mut emitted: Vec<(usize, Item)>,
        touched: &mut Vec<usize>,
    ) {
        for (port, item) in emitted.drain(..) {
            let tok = match &item {
                Item::Control(t) => Some(*t),
                Item::Window(_) => None,
            };
            if let Some(ControlToken::Custom(_)) = tok {
                self.custom_token_emissions[from] += 1;
            }
            let dests = sh.dests(from, port);
            let n_dests = dests.len();
            if n_dests == 0 {
                continue;
            }
            let mut item = Some(item);
            for (di, &d) in dests.iter().enumerate() {
                let it = if di + 1 == n_dests {
                    item.take().expect("item moved early")
                } else {
                    item.as_ref().expect("item moved early").clone()
                };
                if d.chan != u32::MAX {
                    self.delayed_send(d.chan, it);
                    continue;
                }
                let (dn, dp) = (d.dn as usize, d.dp as usize);
                if d.sink {
                    if let Some(ControlToken::EndOfFrame) = tok {
                        self.sink_eof_times.push(self.now);
                    }
                }
                let depth = {
                    let queue = &mut self.nodes[dn].queues[dp];
                    queue.push_back(it);
                    queue.len()
                };
                if depth == 1 && dp < MAX_PORTS {
                    let bit = 1u64 << dp;
                    if tok.is_none() {
                        self.head_data[dn] |= bit;
                    } else {
                        self.head_ctrl[dn] |= bit;
                    }
                }
                if depth > self.node_max_queue[dn] {
                    self.node_max_queue[dn] = depth;
                }
                if let Some(m) = self.metrics.as_mut() {
                    if let Some(chan) = sh.chan_into(dn, dp) {
                        m.chan_depth(chan as usize, depth);
                    }
                }
                if let Some(trace) = self.trace.as_mut() {
                    trace.record(TraceEvent::QueueDepth {
                        t: self.now,
                        node: dn as u32,
                        port: dp as u32,
                        depth: depth as u32,
                    });
                    if let Some(token) = tok {
                        trace.record(TraceEvent::Token {
                            t: self.now,
                            node: dn as u32,
                            port: dp as u32,
                            token,
                        });
                    }
                }
                self.mark_dirty(dn);
                // Busy PEs are filtered here instead of at pop time: a PE
                // in flight cannot come free within this wave (only
                // `handle_pe_done` clears it, one per event), so skipping
                // the push elides a guaranteed no-op pop without changing
                // the order of the pops that do work.
                let pe = self.shared.pe_of_node[dn];
                if self.pe_inflight[pe].is_none() && self.wave_test_set(pe) {
                    touched.push(pe);
                }
            }
        }
        self.nodes[from].recycle_out_buf(emitted);
    }

    /// Attempt to start work on each PE in the (borrowed, caller-recycled)
    /// worklist; starting a firing frees upstream queue space, so upstream
    /// PEs are re-attempted transitively.
    fn dispatch_wave(&mut self, sh: &Shared, worklist: &mut Vec<usize>) {
        // An upstream wake's only new information is the space a firing's
        // consumption freed, so the untraced dispatcher wakes only
        // `space_waiting` producers (see the field's invariant). A *trace*
        // keeps the exhaustive pushes: those extra scans are
        // outcome-free but trace-observable, as each may record a stall
        // transition. Metrics do NOT need them — a metrics stall is only
        // counted on a failing space check of a fireable plan, and any
        // such node is already `space_waiting` (marked by the scan that
        // first stalled it), so the filtered dispatcher re-scans exactly
        // the nodes whose stalls the exhaustive one would count.
        let exhaustive = self.trace.is_some();
        while let Some(pe) = worklist.pop() {
            self.wave_clear(pe);
            if self.pe_inflight[pe].is_some() {
                continue;
            }
            if let Some(node) = self.try_start(sh, pe) {
                for &up in sh.upstream(node) {
                    if exhaustive || self.space_waiting[up] {
                        let up_pe = self.shared.pe_of_node[up];
                        // Same busy-at-push filter as `route`:
                        // the started PEs only accumulate within a wave,
                        // so a busy upstream PE would be skipped at its
                        // pop anyway.
                        if self.pe_inflight[up_pe].is_none() && self.wave_test_set(up_pe) {
                            worklist.push(up_pe);
                        }
                    }
                }
            } else if self.trace.is_some() {
                self.record_stall(pe);
            }
        }
    }

    /// `Ok` when every destination queue of the method's outputs has room
    /// for this firing's worst-case emissions ([`HEADROOM`] items); `Err`
    /// identifies the first check that declined (the channel feeding the
    /// full queue, or `u32::MAX` for a channel-less queue) so the caller
    /// can attribute the stall. Delayed channels are judged by the
    /// sender-side credit count — never by receiver state.
    #[inline]
    fn space_ok(&self, checks: &[SpaceCheck]) -> std::result::Result<(), u32> {
        for c in checks {
            match *c {
                SpaceCheck::Credit { chan } => {
                    if self.credits[chan as usize] < HEADROOM as i64 {
                        return Err(chan);
                    }
                }
                SpaceCheck::Queue { dn, dp, cap, chan } => {
                    if self.nodes[dn as usize].queues[dp as usize].len() + HEADROOM > cap as usize {
                        return Err(chan);
                    }
                }
            }
        }
        Ok(())
    }

    /// After a firing consumed one item from each trigger port, schedule a
    /// credit return (delayed by the channel latency) for every consumed
    /// port fed by a delayed channel (`chans`, resolved at build time).
    fn return_credits(&mut self, chans: &[u32]) {
        for &chan in chans {
            let ci = chan as usize;
            let c = self.shared.channels[ci];
            let seq = self.credit_seq[ci];
            self.credit_seq[ci] += 1;
            let ord = band1_ord(2 * chan as u64 + 1, seq);
            let t = self.now + c.latency_s;
            self.push_event_ord(t, ord, EventKind::CreditReturn { chan });
        }
    }

    /// Try to begin one firing on `pe`; returns the node that fired.
    ///
    /// Residents are scanned in round-robin order, skipping clean nodes
    /// (their inputs have not changed since they last failed to plan, so
    /// they still cannot fire). A dirty node that plans `None` is cleaned;
    /// one that is only blocked on downstream space stays dirty, because
    /// space freeing re-triggers a dispatch of this PE. The round-robin
    /// pointer advances exactly as in an exhaustive scan. Planning goes
    /// through [`plan`](Self::plan); the space/credit/cost lookups hit the
    /// precomputed tables.
    fn try_start(&mut self, sh: &Shared, pe: usize) -> Option<usize> {
        if self.dirty_count[pe] == 0 {
            return None;
        }
        let len = self.shared.residents.row(pe).len();
        // Round-robin over the residents starting at `rr[pe]`, with the
        // wraparound as a compare instead of a modulo.
        let mut idx = self.rr[pe];
        for _ in 0..len {
            let cur = idx;
            idx += 1;
            if idx == len {
                idx = 0;
            }
            let node = self.shared.residents.row(pe)[cur];
            if !self.dirty[node] {
                continue;
            }
            let Some(action) = self.plan(node) else {
                self.clear_dirty(node);
                continue;
            };
            let mi = match action {
                Action::Fire { method } | Action::Forward { method, .. } => method,
            };
            if let Err(chan) = self.space_ok(sh.space(node, mi)) {
                // Plannable but space-blocked: only downstream consumption
                // can unblock it, so flag it for the consumers' upstream
                // wakes (the node stays dirty).
                self.note_stall(chan);
                self.space_waiting[node] = true;
                continue;
            }
            let (emitted, read_words, actual) = self.nodes[node].fire(action);
            let (declared, declared_s) = match action {
                Action::Fire { .. } => {
                    (self.nodes[node].methods.cost_cycles(mi), sh.run_s(node, mi))
                }
                Action::Forward { .. } => (1, sh.forward_run_s),
            };
            // Data-dependent-cost kernels report their actual work. Equal
            // cycle counts reuse the build-time quotient (identical
            // operands ⇒ identical bits); a different count divides live.
            let cycles = actual.unwrap_or(declared);
            let run_s = if cycles == declared {
                declared_s
            } else {
                cycles as f64 / self.shared.machine.pe_clock_hz
            };
            let trigger_ports = sh.trigger_ports(node, mi);
            for &p in trigger_ports {
                self.refresh_head(node, p);
            }
            // Firing consumed inputs and may have changed private state;
            // the node must be re-planned before it can be skipped again.
            self.mark_dirty(node);
            // Consumption freed buffer space on the consumed channels.
            if self.shared.any_delayed {
                self.return_credits(sh.credit_chans(node, mi));
            }
            // Running past the declared budget is a runtime resource
            // exception (§VII) recorded per node.
            if cycles > declared {
                self.budget_overruns[node] += 1;
                if let Some(m) = self.metrics.as_mut() {
                    m.budget_overrun(self.now);
                }
            }
            let write_words: u64 = emitted.iter().map(|(_, i)| i.words()).sum();
            let m = &self.shared.machine;
            // Memoized word-cost conversions: a hit replays the quotient
            // the expression produced for the same operands (bitwise
            // identical by IEEE-754 determinism), a miss runs the
            // expression live and refills the slot.
            let memo = &mut self.rw_memo[sh.method_slot(node, mi)];
            let read_s = if memo.read_words == read_words {
                memo.read_s
            } else {
                let v = read_words as f64 * m.read_cost_per_word / m.pe_clock_hz;
                memo.read_words = read_words;
                memo.read_s = v;
                v
            };
            let write_s = if memo.write_words == write_words {
                memo.write_s
            } else {
                let v = write_words as f64 * m.write_cost_per_word / m.pe_clock_hz;
                memo.write_words = write_words;
                memo.write_s = v;
                v
            };
            let dt = run_s + read_s + write_s;
            self.pe_inflight[pe] = Some(Inflight {
                node,
                emitted,
                run_s,
                read_s,
                write_s,
            });
            self.rr[pe] = idx;
            self.space_waiting[node] = false;
            if let Some(trace) = self.trace.as_mut() {
                self.pe_stall[pe] = None;
                let t = self.now;
                trace.record(TraceEvent::FiringBegin {
                    t,
                    node: node as u32,
                    method: mi as u32,
                    pe: pe as u32,
                    cycles,
                });
                // The firing consumed one item from each trigger port.
                let queues = &self.nodes[node].queues;
                for &port in trigger_ports {
                    trace.record(TraceEvent::QueueDepth {
                        t,
                        node: node as u32,
                        port: port as u32,
                        depth: queues[port].len() as u32,
                    });
                }
            }
            let t_done = self.now + dt;
            self.push_event(t_done, EventKind::PeDone { pe });
            return Some(node);
        }
        None
    }
}

/// Walk the wait-for graph of a capacity-deadlocked program and return the
/// cycle of filled channels as structured hops.
///
/// A blocked node (fireable plan, all PEs idle) is waiting on its first
/// output channel that fails the downstream-space check; following those
/// edges from each blocked node in index order either revisits a node —
/// the wait-for cycle (in a feedback loop, the channel chain that filled)
/// — or dead-ends. Pure reads of the settled node state and sender-side
/// credits, so the resulting hops — channel names, occupancies, and
/// capacities included — are a pure function of the schedule.
fn deadlock_wait_cycle(
    shared: &Shared,
    nodes: &[RtNode],
    credits: &[i64],
) -> Option<Vec<DeadlockHop>> {
    let n = nodes.len();
    let blocked: Vec<bool> = (0..n)
        .map(|i| shared.node_roles[i] != NodeRole::Source && nodes[i].plan().is_some())
        .collect();
    // The first full output channel of a blocked node: the first of its
    // planned method's space checks to decline, on the settled state.
    let wait_edge = |i: usize| -> Option<usize> {
        let method = match nodes[i].plan()? {
            Action::Fire { method } | Action::Forward { method, .. } => method,
        };
        let full = |check: &SpaceCheck| match *check {
            SpaceCheck::Credit { chan } => {
                (credits[chan as usize] < HEADROOM as i64).then_some(chan)
            }
            SpaceCheck::Queue { dn, dp, cap, chan } => {
                let depth = nodes[dn as usize].queues[dp as usize].len();
                (depth + HEADROOM > cap as usize).then_some(chan)
            }
        };
        shared
            .space(i, method)
            .iter()
            .find_map(full)
            .map(|c| c as usize)
    };
    for start in (0..n).filter(|&i| blocked[i]) {
        // Channels waited on, hop by hop from `start`.
        let mut path: Vec<usize> = Vec::new();
        let mut pos = vec![usize::MAX; n];
        let mut cur = start;
        while blocked[cur] && pos[cur] == usize::MAX {
            let Some(ci) = wait_edge(cur) else {
                break;
            };
            pos[cur] = path.len();
            path.push(ci);
            cur = shared.channels[ci].dst;
        }
        if blocked[cur] && pos[cur] != usize::MAX {
            let cycle = path[pos[cur]..].iter();
            return Some(
                cycle
                    .map(|&ci| channel_hop(shared, nodes, credits, ci))
                    .collect(),
            );
        }
    }
    None
}

/// One hop for a channel in the settled program, with its resolved
/// capacity and occupancy (sender-side credit accounting for delayed
/// channels, direct queue inspection otherwise).
fn channel_hop(shared: &Shared, nodes: &[RtNode], credits: &[i64], ci: usize) -> DeadlockHop {
    let c = &shared.channels[ci];
    let capacity = c.cap;
    let delayed = shared.any_delayed && c.latency_s > 0.0;
    let occupancy = if delayed {
        (capacity as i64 - credits[ci]).max(0) as usize
    } else {
        nodes[c.dst].queues[c.dst_port].len()
    };
    DeadlockHop {
        src: nodes[c.src].name.to_string(),
        src_port: nodes[c.src].spec.outputs[c.src_port].name.to_string(),
        dst: nodes[c.dst].name.to_string(),
        dst_port: nodes[c.dst].spec.inputs[c.dst_port].name.to_string(),
        occupancy,
        capacity,
    }
}

/// When the blocked producers form a chain rather than a wait-for cycle
/// (the chain's head is stuck behind a consumer legitimately waiting for
/// external input — the parked-population deadlock of an under-sized
/// feedback back edge), find the *structural* channel cycle through a
/// blocked node: the loop whose circulating population no longer fits.
/// Deterministic — blocked nodes are scanned in index order and the DFS
/// explores channels in slot order.
fn starved_loop_cycle(
    shared: &Shared,
    nodes: &[RtNode],
    credits: &[i64],
) -> Option<Vec<DeadlockHop>> {
    let n = nodes.len();
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, c) in shared.channels.iter().enumerate() {
        out[c.src].push(ci);
    }
    let blocked =
        (0..n).filter(|&i| shared.node_roles[i] != NodeRole::Source && nodes[i].plan().is_some());
    for start in blocked {
        // Iterative DFS for the first channel path start -> ... -> start.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)]; // (node, next edge)
        let mut path: Vec<usize> = Vec::new(); // channel per stack frame after the first
        let mut on_path = vec![false; n];
        on_path[start] = true;
        while let Some(&(v, ei)) = stack.last() {
            if let Some(&ci) = out[v].get(ei) {
                stack.last_mut().expect("frame present").1 += 1;
                let dst = shared.channels[ci].dst;
                if dst == start {
                    path.push(ci);
                    return Some(
                        path.iter()
                            .map(|&ci| channel_hop(shared, nodes, credits, ci))
                            .collect(),
                    );
                }
                if !on_path[dst] {
                    on_path[dst] = true;
                    path.push(ci);
                    stack.push((dst, 0));
                }
            } else {
                stack.pop();
                on_path[v] = false;
                if !stack.is_empty() {
                    path.pop();
                }
            }
        }
    }
    None
}

impl Engine {
    /// Settle the run as it stands — finished, or stopped early — into its
    /// outcome, the trace (when tracing) and the metrics tape (when a
    /// metrics policy was set).
    pub(crate) fn finish(mut self) -> (SimOutcome, Option<Trace>, Option<MetricsTape>) {
        // The engine records in event-pop order, so its log is already
        // the trace.
        let trace = self.trace.take().map(|rec| {
            let (events, dropped) = rec.into_events();
            let sh = &self.shared;
            Trace {
                meta: TraceMeta::from_parts(
                    &self.nodes,
                    &sh.pe_of_node,
                    sh.residents.num_rows(),
                    sh.machine.pe_clock_hz,
                    &sh.channels,
                ),
                events,
                dropped,
            }
        });
        let (outcome, tape) = self.settle();
        (outcome, trace, tape)
    }

    /// Check the program for a capacity deadlock and build a completed
    /// [`SimReport`] or a structured [`DeadlockReport`], plus the metrics
    /// tape.
    fn settle(self) -> (SimOutcome, Option<MetricsTape>) {
        let Engine {
            shared,
            nodes,
            stats,
            node_busy,
            violations,
            sink_eof_times,
            frame_start_times,
            custom_token_emissions,
            budget_overruns,
            node_max_queue,
            credits,
            now,
            metrics,
            ..
        } = self;
        let (shared, nodes) = (&*shared, &nodes[..]);
        // One frame completes when all sinks have seen its end-of-frame:
        // group the EOF arrivals per frame, the last EOF of a group being
        // the frame's completion. Only whole groups count, so a frame some
        // sink has not finished has neither a completion nor a latency
        // (first sample injection -> completion). The tape and the report
        // take both from this one grouping.
        let completions: Vec<f64> = sink_eof_times
            .chunks_exact(shared.num_sinks)
            .map(|c| c.iter().cloned().fold(0.0f64, f64::max))
            .collect();
        let frame_latencies: Vec<f64> = (completions.iter())
            .zip(&frame_start_times)
            .map(|(c, s)| c - s)
            .collect();
        // (A recorder exists only when a metrics policy was resolved.)
        let tape = metrics
            .zip(shared.metrics.as_ref())
            .map(|(mut rec, policy)| {
                let contracts = &policy.contracts;
                MetricsTape::assemble(&mut rec, contracts, &completions, &frame_latencies, now)
            });
        // Everything settled. If any node still has a fireable plan, the
        // only thing that can have stopped it is downstream capacity — with
        // all PEs idle that is a genuine capacity deadlock. Residual items
        // with no fireable plan are legitimate (e.g. the final frame
        // circulating in a feedback loop) and are reported, not fatal.
        let deadlocked = (0..nodes.len())
            .any(|i| shared.node_roles[i] != NodeRole::Source && nodes[i].plan().is_some());
        if deadlocked {
            let queued: usize = nodes.iter().map(|n| n.queued_items()).sum();
            let (cycle, blocked_cycle) = match deadlock_wait_cycle(shared, nodes, &credits) {
                Some(hops) => (hops, true),
                None => (
                    starved_loop_cycle(shared, nodes, &credits).unwrap_or_default(),
                    false,
                ),
            };
            // The full hop whose producer the smallest single-channel capacity
            // increase would unblock: minimize `occupancy + HEADROOM - capacity` over
            // hops that are actually blocking (ties break to the earliest hop
            // in walk order, deterministic on both backends).
            let min_capacity_bump = cycle
                .iter()
                .filter(|h| h.occupancy + HEADROOM > h.capacity)
                .min_by_key(|h| h.occupancy + HEADROOM - h.capacity)
                .map(|h| CapacityBump {
                    channel: format!("{}.{} -> {}.{}", h.src, h.src_port, h.dst, h.dst_port),
                    current: h.capacity,
                    required: h.occupancy + HEADROOM,
                });
            let report = DeadlockReport {
                queued_items: queued,
                cycle,
                blocked_cycle,
                min_capacity_bump,
                stuck: stuck_report(nodes),
            };
            return (SimOutcome::Deadlocked(report), tape);
        }
        let residual: u64 = nodes.iter().map(|n| n.queued_items() as u64).sum();

        let frames_completed = completions.len() as u32;
        // Rate the completions.
        let achieved = if completions.len() >= 2 && *completions.last().unwrap() > completions[0] {
            (completions.len() - 1) as f64 / (completions.last().unwrap() - completions[0])
        } else if now > 0.0 {
            frames_completed as f64 / now
        } else {
            0.0
        };
        let met = violations == 0 && frames_completed >= shared.frames;
        // §II-C: verify every kernel stayed within its declared custom-token
        // rate bounds over the simulated interval.
        let mut token_rate_violations = Vec::new();
        if now > 0.0 {
            for (i, rt) in nodes.iter().enumerate() {
                let emitted = custom_token_emissions[i];
                if emitted == 0 {
                    continue;
                }
                let declared: f64 = rt.spec.custom_tokens.iter().map(|t| t.max_rate_hz).sum();
                let observed = emitted as f64 / now;
                // Allow one token of slack for startup transients.
                if observed > declared + 1.0 / now {
                    token_rate_violations.push((rt.name.to_string(), observed, declared));
                }
            }
        }
        let report = SimReport {
            pe_stats: stats,
            node_firings: nodes.iter().map(|n| n.firings).collect(),
            node_busy,
            sim_time: now,
            frames_completed,
            residual_items: residual,
            budget_overruns,
            node_max_queue,
            frame_latencies,
            token_rate_violations,
            verdict: RealTimeVerdict {
                met,
                violations,
                required_rate_hz: shared.required_rate_hz,
                achieved_rate_hz: achieved,
            },
        };
        (SimOutcome::Completed(report), tape)
    }
}

/// The timing-accurate simulator. Construct with a graph, a kernel-to-PE
/// mapping, and a configuration, then either [`run`](Self::run) it in one
/// call or advance it a bounded number of events at a time with
/// [`step`](Self::step) and settle it with [`finish`](Self::finish).
///
/// Stepping is *chunk-invariant*: every `step` pops and handles exactly
/// the events an unbounded run would have handled next, in the same
/// `(t, ord)` order, with the same per-event code — a one-shot run is one
/// step with an open budget. The simulator owns everything it runs over
/// (event queue, clock, nodes, recorders), so interleaving other
/// simulations between two steps, or moving it to another thread, cannot
/// perturb it: the settled [`SimReport`] fingerprint and [`MetricsTape`]
/// digest are bitwise those of an uninterrupted run, whatever the step
/// sizes. The fleet host co-schedules its tenants this way (DESIGN.md §16).
pub struct TimedSimulator {
    engine: Engine,
    started: bool,
    processed: u64,
}

/// The name the frozen benchmark package imports for the stepping entry
/// point; it is [`TimedSimulator`] and goes with the next benchmark-only
/// change.
pub type SteppableSim = TimedSimulator;

impl TimedSimulator {
    /// Instantiate the graph under the given mapping. No constant fires
    /// and no event is processed until the first [`step`](Self::step) (or
    /// a run), and the run state is not allocated until then either.
    pub fn new(graph: &AppGraph, mapping: &Mapping, config: SimConfig) -> Result<Self> {
        let shared = build_shared(graph, mapping, config)?;
        Ok(Self {
            engine: Engine::new(Arc::new(shared)),
            started: false,
            processed: 0,
        })
    }

    /// Advance the simulation by at most `max_events` events and return
    /// how many were processed. The first call additionally fires the
    /// startup constants and seeds the sources (outside the budget: they
    /// precede the first pop). A short count means the simulation
    /// settled: the queue drained before the budget did.
    pub fn step(&mut self, max_events: usize) -> usize {
        self.start();
        let done = self.engine.run(max_events);
        self.processed += done as u64;
        done
    }

    /// True when the simulation has settled: it was started and no pending
    /// event remains. Further [`step`](Self::step) calls process nothing.
    pub fn is_done(&self) -> bool {
        self.started && self.engine.is_idle()
    }

    /// Total events processed across all [`step`](Self::step) calls.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Settle the simulation as it stands into its outcome, the recorded
    /// [`Trace`] (when [`SimConfig::trace`] was set) and the metrics tape
    /// (when a metrics policy was set). After [`is_done`](Self::is_done)
    /// this is the full run's result; finishing early reports the
    /// simulation as it stands (typically a capacity-deadlock diagnosis or
    /// an incomplete frame count). A simulator never stepped is started
    /// first, so its constants and seeds are in what it reports.
    pub fn finish(mut self) -> (SimOutcome, Option<Trace>, Option<MetricsTape>) {
        self.start();
        self.engine.finish()
    }

    /// [`finish`](Self::finish) without the trace, unwrapped to a
    /// completed [`SimReport`] (a capacity deadlock becomes a simulation
    /// error carrying the rendered diagnosis).
    pub fn finish_report(self) -> Result<(SimReport, Option<MetricsTape>)> {
        let (outcome, _, tape) = self.finish();
        Ok((outcome.into_report()?, tape))
    }

    /// Run the simulation to completion and report. A capacity deadlock
    /// becomes a simulation error carrying the rendered
    /// [`DeadlockReport`]; use [`run_outcome`](Self::run_outcome) to get
    /// the structured diagnosis instead.
    pub fn run(self) -> Result<SimReport> {
        self.run_with_artifacts().map(|(report, _, _)| report)
    }

    /// Run the simulation and report how it settled: completed, or
    /// capacity-deadlocked with a structured [`DeadlockReport`].
    pub fn run_outcome(mut self) -> SimOutcome {
        self.step(usize::MAX);
        self.finish().0
    }

    /// Run the simulation and return every observation artifact at once:
    /// the report, the trace (when tracing), and the metrics tape (when a
    /// metrics policy was set). Both are inert: the report is bit-identical
    /// to [`run`](Self::run)'s.
    pub fn run_with_artifacts(mut self) -> Result<(SimReport, Option<Trace>, Option<MetricsTape>)> {
        self.step(usize::MAX);
        let (outcome, trace, tape) = self.finish();
        Ok((outcome.into_report()?, trace, tape))
    }

    /// Allocate the run state, fire the constants and seed the sources,
    /// once.
    fn start(&mut self) {
        if !self.started {
            self.started = true;
            self.engine.init();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::capacity::derive_default_capacity;
    use bp_core::{Dim2, GraphBuilder};

    fn chain_graph(kernel: bp_core::KernelDef) -> AppGraph {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 50.0);
        let k = b.add("K", kernel);
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        b.build().unwrap()
    }

    /// Stepping in any chunk size reproduces the one-shot run bit for bit.
    #[test]
    fn stepped_run_matches_one_shot() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let mapping = Mapping::one_to_one(g.node_count());
        let config = SimConfig::new(2);
        let want = TimedSimulator::new(&g, &mapping, config.clone())
            .unwrap()
            .run()
            .unwrap()
            .fingerprint();
        for budget in [1usize, 3, 7, 1024] {
            let mut sim = TimedSimulator::new(&g, &mapping, config.clone()).unwrap();
            while !sim.is_done() {
                sim.step(budget);
            }
            let (report, _) = sim.finish_report().unwrap();
            assert_eq!(report.fingerprint(), want, "budget {budget} diverged");
        }
    }

    /// A simulator stepped on one thread, moved, and finished on another —
    /// what the fleet host does between rounds. `Send` is derived from the
    /// fields, not asserted by hand.
    #[test]
    fn stepping_survives_a_thread_hop() {
        fn assert_send<T: Send>() {}
        assert_send::<TimedSimulator>();
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let mapping = Mapping::one_to_one(g.node_count());
        let want = TimedSimulator::new(&g, &mapping, SimConfig::new(2))
            .unwrap()
            .run()
            .unwrap()
            .fingerprint();
        let mut sim = TimedSimulator::new(&g, &mapping, SimConfig::new(2)).unwrap();
        sim.step(9);
        let report = std::thread::spawn(move || {
            while !sim.is_done() {
                sim.step(13);
            }
            sim.finish_report().unwrap().0
        })
        .join()
        .expect("stepping thread panicked");
        assert_eq!(report.fingerprint(), want);
    }

    /// The simulator stays valid when moved between steps.
    #[test]
    fn stepping_survives_moves() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let mapping = Mapping::one_to_one(g.node_count());
        let want = TimedSimulator::new(&g, &mapping, SimConfig::new(1))
            .unwrap()
            .run()
            .unwrap()
            .fingerprint();
        let mut sim = TimedSimulator::new(&g, &mapping, SimConfig::new(1)).unwrap();
        sim.step(5);
        let mut moved = Box::new(sim);
        moved.step(5);
        let mut back = *moved;
        while !back.is_done() {
            back.step(11);
        }
        let (report, _) = back.finish_report().unwrap();
        assert_eq!(report.fingerprint(), want);
    }

    /// A report carries a latency only for a frame every sink finished. Two
    /// sinks at different depths finish each frame at different events, so
    /// stopping after every possible number of events also stops between
    /// them: each settled report must hold as many frame latencies as
    /// completed frames, with the comm model off and on.
    #[test]
    fn a_frame_some_sink_has_not_finished_has_no_latency() {
        let dim = Dim2::new(8, 6);
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 50.0);
        let k1 = b.add("K1", bp_kernels::scale(2.0, 0.0));
        let k2 = b.add("K2", bp_kernels::scale(2.0, 0.0));
        let k3 = b.add("K3", bp_kernels::scale(2.0, 0.0));
        let out1 = b.add("Out1", bp_kernels::sink().0);
        let out2 = b.add("Out2", bp_kernels::sink().0);
        b.connect(src, "out", k1, "in");
        b.connect(k1, "out", out1, "in");
        b.connect(src, "out", k2, "in");
        b.connect(k2, "out", k3, "in");
        b.connect(k3, "out", out2, "in");
        let g = b.build().unwrap();
        let mapping = Mapping::one_to_one(g.node_count());
        for comm in [CommModel::zero(), CommModel::uniform(1e-3, 0.0)] {
            let config = SimConfig::new(2).with_comm(comm);
            let mut full = TimedSimulator::new(&g, &mapping, config.clone()).unwrap();
            let total = full.step(usize::MAX);
            for k in 0..=total {
                let mut sim = TimedSimulator::new(&g, &mapping, config.clone()).unwrap();
                sim.step(k);
                if let SimOutcome::Completed(report) = sim.finish().0 {
                    let frames = report.frames_completed as usize;
                    assert_eq!(report.frame_latencies.len(), frames, "after {k} events");
                }
            }
        }
    }

    /// Every field of [`SimConfig`] is a run configuration someone must
    /// test and measure; DESIGN.md's "Mode audit (PR 16)" table has a row
    /// for each axis these seven span. An eighth does not arrive without
    /// editing this pattern — and that table.
    #[test]
    fn sim_config_has_exactly_the_audited_fields() {
        let SimConfig {
            machine,
            backend,
            comm,
            capacities,
            frames,
            trace,
            metrics,
        } = SimConfig::new(1);
        assert_eq!(machine, MachineSpec::default_eval());
        assert_eq!(backend, Backend::Auto);
        assert!(comm.is_zero());
        assert!(capacities.is_none());
        assert_eq!(frames, 1);
        assert!(trace.is_none() && metrics.is_none());
    }

    /// The tables every event reads equal the per-event lookups they
    /// replaced — written here as the deleted handlers had them, over the
    /// graph and the instantiated nodes, never over the flat tables' own
    /// offsets — for every example app as compiled, under direct, uniform
    /// and grid comm models. The flat layout is pinned too: every accessor
    /// is compared slot by slot against nested tables built the way
    /// `build_shared` used to build them.
    #[test]
    fn tables_equal_the_lookups_they_replace() {
        use bp_apps::{apps, SLOW, SMALL};
        let built = [
            apps::fig1b(SMALL, SLOW),
            apps::bayer(SMALL, SLOW),
            apps::histogram_app(SMALL, SLOW, 32),
            apps::parallel_buffer_test(Dim2::new(64, 12), 10.0),
            apps::multi_conv(SMALL, SLOW, 3),
            apps::temporal_iir(SMALL, SLOW),
            apps::fir_radio(72, 100.0),
            apps::edge_detect(SMALL, SLOW, 0.5),
            apps::analytics(SMALL, SLOW),
            apps::stereo_diff(SMALL, SLOW),
            apps::camera_bank(3, SMALL, SLOW),
        ];
        let models = [
            CommModel::zero(),
            CommModel::uniform(64e-9, 1e-9),
            CommModel::grid(32e-9, 8e-9, 1e-9),
        ];
        for (app, comm) in built
            .iter()
            .flat_map(|a| models.iter().map(move |m| (a, m)))
        {
            let c = bp_compiler::compile(&app.graph, &Default::default()).expect("compile");
            let config = SimConfig::new(1).with_comm(comm.clone());
            let sh = build_shared(&c.graph, &c.mapping, config).unwrap();
            let nodes = &sh.nodes;
            // The nested tables, from the graph's channels alone.
            let default_cap = derive_channel_capacities(&c.graph).default;
            let mut routes: Vec<Vec<Vec<(usize, usize)>>> = nodes
                .iter()
                .map(|rn| vec![Vec::new(); rn.node.spec().outputs.len()])
                .collect();
            let inputs = |rn: &ResolvedNode| rn.node.spec().inputs.len();
            let mut chan_into: Vec<Vec<Option<u32>>> =
                nodes.iter().map(|rn| vec![None; inputs(rn)]).collect();
            let mut cap_into: Vec<Vec<usize>> = nodes
                .iter()
                .map(|rn| vec![default_cap; inputs(rn)])
                .collect();
            let mut upstream: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
            for (ci, (_, ch)) in c.graph.channels().enumerate() {
                let rt = &sh.channels[ci];
                assert_eq!((rt.src, rt.src_port), (ch.src.node.0, ch.src.port));
                assert_eq!((rt.dst, rt.dst_port), (ch.dst.node.0, ch.dst.port));
                routes[rt.src][rt.src_port].push((rt.dst, rt.dst_port));
                chan_into[rt.dst][rt.dst_port] = Some(ci as u32);
                cap_into[rt.dst][rt.dst_port] = rt.cap;
                if rt.latency_s <= 0.0 && !upstream[rt.dst].contains(&rt.src) {
                    upstream[rt.dst].push(rt.src);
                }
            }
            let delayed_chan = |dn: usize, dp: usize| {
                chan_into[dn][dp].filter(|&c| sh.channels[c as usize].latency_s > 0.0)
            };
            let mut slot = 0;
            for (node, rn) in nodes.iter().enumerate() {
                assert_eq!(sh.upstream(node), upstream[node]);
                for port in 0..inputs(rn) {
                    assert_eq!(sh.chan_into(node, port), chan_into[node][port]);
                    assert_eq!(sh.cap_into(node, port), cap_into[node][port]);
                }
                // `route_timed`: one lookup per destination per push.
                for (port, routes) in routes[node].iter().enumerate() {
                    assert_eq!(sh.tables.routes.from(node, port), routes);
                    let want = routes.iter().map(|&(dn, dp)| RouteDest {
                        dn: dn as u32,
                        dp: dp as u32,
                        chan: delayed_chan(dn, dp).unwrap_or(u32::MAX),
                        sink: sh.node_roles[dn] == NodeRole::Sink,
                    });
                    assert_eq!(sh.dests(node, port), want.collect::<Vec<_>>());
                }
                // `return_credits`: the node's delayed in-ports, searched
                // once per trigger.
                let into = |(ci, c): (usize, &ChannelRt)| {
                    (c.dst == node && c.latency_s > 0.0).then_some((c.dst_port, ci as u32))
                };
                let delayed_in: Vec<_> = sh.channels.iter().enumerate().filter_map(into).collect();
                for (m, cm) in rn.methods.iter().enumerate() {
                    assert_eq!(sh.method_slot(node, m), slot);
                    slot += 1;
                    // `downstream_space`: outputs × routes, in scan order.
                    let mut want = Vec::new();
                    for &port in cm.outputs {
                        for &(dn, dp) in &routes[node][port] {
                            want.push(match delayed_chan(dn, dp) {
                                Some(chan) => SpaceCheck::Credit { chan },
                                None => SpaceCheck::Queue {
                                    dn: dn as u32,
                                    dp: dp as u32,
                                    cap: cap_into[dn][dp] as u32,
                                    chan: chan_into[dn][dp].unwrap_or(u32::MAX),
                                },
                            });
                        }
                    }
                    assert_eq!(sh.space(node, m), want);
                    let popped: Vec<usize> = cm.triggers.iter().map(|&(port, _)| port).collect();
                    assert_eq!(sh.trigger_ports(node, m), popped);
                    let credited = cm.triggers.iter().filter_map(|&(port, _)| {
                        let fed = delayed_in.iter().find(|&&(p, _)| p == port);
                        fed.map(|&(_, chan)| chan)
                    });
                    assert_eq!(sh.credit_chans(node, m), credited.collect::<Vec<_>>());
                    let run_s = cm.cost_cycles as f64 / sh.machine.pe_clock_hz;
                    assert_eq!(sh.run_s(node, m).to_bits(), run_s.to_bits());
                }
            }
            assert_eq!(sh.num_method_slots(), slot);
            // Each PE's residents, ascending.
            let mut residents = vec![Vec::new(); c.mapping.num_pes];
            for (node, &pe) in c.mapping.pe_of_node.iter().enumerate() {
                residents[pe].push(node);
            }
            assert_eq!(sh.residents.num_rows(), residents.len());
            for (pe, want) in residents.iter().enumerate() {
                assert_eq!(sh.residents.row(pe), want);
            }
        }
    }

    #[test]
    fn capacity_derives_floor_for_narrow_windows() {
        // Every input window in this graph is narrower than 64, so the
        // derived capacity is the 64-item floor (the historical default).
        let g = chain_graph(bp_kernels::median(5, 5));
        assert_eq!(derive_default_capacity(&g), 64);
    }

    #[test]
    fn capacity_derives_from_widest_input_row() {
        // A 100-tap FIR consumes a 100-wide window row: capacity rounds up
        // to the next power of two.
        let dim = Dim2::new(200, 1);
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 100.0);
        let fir = b.add("Fir", bp_kernels::fir(100));
        let taps = b.add(
            "Taps",
            bp_kernels::const_source("taps", bp_kernels::boxcar_taps(100)),
        );
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", fir, "in");
        b.connect(taps, "out", fir, "taps");
        b.connect(fir, "out", snk, "in");
        let g = b.build().unwrap();
        assert_eq!(derive_default_capacity(&g), 128);
    }

    #[test]
    fn explicit_capacity_overrides_derivation() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let cfg = SimConfig::new(1).with_channel_capacity(16);
        assert_eq!(
            cfg.capacities,
            Some(bp_core::ChannelCapacities::uniform(16))
        );
        // The uniform pin is what the simulator resolves, not the derived
        // plan.
        let mapping = Mapping::one_to_one(g.node_count());
        let shared = build_shared(&g, &mapping, cfg).unwrap();
        assert!(shared.channels.iter().all(|c| c.cap == 16));
        let shared = build_shared(&g, &mapping, SimConfig::new(1)).unwrap();
        assert!(shared.channels.iter().all(|c| c.cap == 64));
        // cap_into mirrors the per-channel resolution at the consumer side.
        for c in &shared.channels {
            assert_eq!(shared.cap_into(c.dst, c.dst_port), c.cap);
        }
    }

    #[test]
    fn explicit_plan_overrides_derivation_per_channel() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        // Override one channel (the first) and keep the default elsewhere.
        let (first_cid, _) = g.channels().next().unwrap();
        let plan = bp_core::ChannelCapacities::uniform(64).with_override(first_cid, 96);
        let cfg = SimConfig::new(1).with_channel_capacities(plan);
        let mapping = Mapping::one_to_one(g.node_count());
        let shared = build_shared(&g, &mapping, cfg).unwrap();
        assert_eq!(shared.channels[0].cap, 96);
        assert!(shared.channels[1..].iter().all(|c| c.cap == 64));
        // One capacity knob: the last builder call wins, either way round.
        let pinned = SimConfig::new(1)
            .with_channel_capacities(bp_core::ChannelCapacities::uniform(64))
            .with_channel_capacity(8);
        let shared = build_shared(&g, &mapping, pinned).unwrap();
        assert!(shared.channels.iter().all(|c| c.cap == 8));
        let plan = bp_core::ChannelCapacities::uniform(64).with_override(first_cid, 96);
        let planned = SimConfig::new(1)
            .with_channel_capacity(8)
            .with_channel_capacities(plan);
        let shared = build_shared(&g, &mapping, planned).unwrap();
        assert_eq!(shared.channels[0].cap, 96);
    }

    /// A firing starts only with 2 free items on each output, so a queue
    /// that holds fewer can never carry a kernel's output: a plan giving any
    /// channel capacity 0 or 1 — by its default or by an override — is a
    /// typed error naming that channel, not a run that wedges on its first
    /// firing.
    #[test]
    fn zero_capacity_is_a_typed_error_naming_the_channel() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let mapping = Mapping::one_to_one(g.node_count());
        let err = |cfg: SimConfig| match build_shared(&g, &mapping, cfg) {
            Err(BpError::Simulation(msg)) => msg,
            Err(e) => panic!("expected a simulation error, got {e}"),
            Ok(_) => panic!("a capacity below 2 was accepted"),
        };
        let refusal = |chan: &str, cap: usize| {
            format!(
                "channel {chan} has capacity {cap}; every channel must hold at least 2 items, \
                 the room a firing needs on each output"
            )
        };
        let second_cid = g.channels().nth(1).unwrap().0;
        for cap in [0, 1] {
            let cfg = SimConfig::new(1).with_channel_capacity(cap);
            assert_eq!(err(cfg), refusal("Input.out -> K.in", cap));
            let plan = bp_core::ChannelCapacities::uniform(64).with_override(second_cid, cap);
            let cfg = SimConfig::new(1).with_channel_capacities(plan);
            assert_eq!(err(cfg), refusal("K.out -> Out.in", cap));
        }
        // Two items are enough to run.
        let cfg = SimConfig::new(1).with_channel_capacity(2);
        assert!(TimedSimulator::new(&g, &mapping, cfg)
            .unwrap()
            .run()
            .is_ok());
    }

    /// Under a uniform delay every arrival and credit return is scheduled
    /// at `now + latency`, so the event queue's lane, not its heap, takes
    /// them: on fig1b under `uniform:64`, at least 99 % of them.
    #[test]
    fn uniform_delay_sends_comm_events_to_the_lane() {
        use bp_apps::{apps, SLOW, SMALL};
        let app = apps::fig1b(SMALL, SLOW);
        let c = bp_compiler::compile(&app.graph, &Default::default()).expect("compile");
        let clock = MachineSpec::default().pe_clock_hz;
        let config = SimConfig::new(2).with_comm(CommModel::uniform(64.0 / clock, 0.0));
        let mut sim = TimedSimulator::new(&c.graph, &c.mapping, config).unwrap();
        sim.step(usize::MAX);
        assert!(sim.is_done());
        let [lane, heap] = sim.engine.events.routed();
        assert!(lane > 1000, "only {lane} comm events");
        assert!(
            lane >= 99 * (lane + heap) / 100,
            "{heap} of {} comm events went to the heap",
            lane + heap
        );
    }

    /// The planner is chosen per node from its table: under `Auto` only a
    /// kernel wider than the masks is scanned, under `Interpreted` every
    /// kernel is.
    #[test]
    fn only_the_wide_kernel_is_scanned() {
        const K: usize = MAX_PORTS + 1;
        let dim = Dim2::new(K as u32, 2);
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 50.0);
        let split = b.add("Split", bp_kernels::split_rr(K, Dim2::ONE));
        let join = b.add("Join", bp_kernels::join_rr(K, Dim2::ONE));
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", split, "in");
        for i in 0..K {
            b.connect(split, &format!("out{i}"), join, &format!("in{i}"));
        }
        b.connect(join, "out", snk, "in");
        let g = b.build().unwrap();
        let mapping = Mapping::one_to_one(g.node_count());
        let masked = |backend| {
            let config = SimConfig::new(1).with_backend(backend);
            build_shared(&g, &mapping, config).unwrap().masked
        };
        assert_eq!(masked(Backend::Auto), [true, true, false, true]);
        assert_eq!(masked(Backend::Interpreted), [false; 4]);
    }

    /// `Mapping`'s fields are public, so a mapping may name a PE past its
    /// own count: a typed error naming the node and the PE, not an index
    /// out of bounds while laying out the residents.
    #[test]
    fn a_mapping_onto_a_missing_pe_is_a_typed_error() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let mapping = Mapping {
            pe_of_node: vec![0, 3, 1],
            num_pes: 2,
        };
        match TimedSimulator::new(&g, &mapping, SimConfig::new(1)) {
            Err(BpError::Simulation(msg)) => {
                assert_eq!(msg, "mapping puts node 'K' on PE 3, but it has 2 PEs");
            }
            Err(e) => panic!("expected a simulation error, got {e}"),
            Ok(_) => panic!("a mapping onto a missing PE was accepted"),
        }
    }

    /// Every event time is built from the PE clock, the word costs, the
    /// comm model's terms and (for metrics) the snapshot interval. One that
    /// is infinite, NaN or out of range is a typed error naming the input,
    /// not a run to a +inf verdict, a panic in the metrics recorder, or a
    /// NaN event time. So is a run of no frames, which verifies nothing yet
    /// would report the real-time constraint met at 0 Hz, and a trace ring
    /// of no events, however it was spelled.
    #[test]
    fn non_finite_timing_inputs_are_typed_errors() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let mapping = Mapping::one_to_one(g.node_count());
        let err = |cfg: SimConfig| match TimedSimulator::new(&g, &mapping, cfg) {
            Err(BpError::Simulation(msg)) => msg,
            Err(e) => panic!("expected a simulation error, got {e}"),
            Ok(_) => panic!("an out-of-range input was accepted"),
        };
        let machine = |f: fn(&mut MachineSpec)| {
            let mut m = MachineSpec::default_eval();
            f(&mut m);
            SimConfig::new(1).with_machine(m)
        };
        let cases = [
            (
                SimConfig::new(0),
                "frames is 0; a run must push at least one frame",
            ),
            (machine(|m| m.pe_clock_hz = 0.0), "machine pe_clock_hz is 0"),
            (machine(|m| m.pe_clock_hz = f64::NAN), "pe_clock_hz is NaN"),
            (
                machine(|m| m.read_cost_per_word = -1.0),
                "read_cost_per_word",
            ),
            (
                machine(|m| m.write_cost_per_word = f64::INFINITY),
                "write_cost",
            ),
            (
                SimConfig::new(1).with_comm(CommModel::uniform(f64::INFINITY, 0.0)),
                "comm base_latency_s is inf",
            ),
            (
                SimConfig::new(1).with_comm(CommModel::grid(0.0, -1e-6, 0.0)),
                "comm per_hop_s",
            ),
            (
                SimConfig::new(1).with_comm(CommModel::uniform(0.0, f64::NAN)),
                "comm per_word_s",
            ),
            (
                SimConfig::new(1).with_trace(TraceOptions::with_capacity(0)),
                "trace capacity is 0; the ring must hold at least one event",
            ),
            (
                SimConfig::new(1).with_trace(TraceOptions { capacity: 0 }),
                "trace capacity is 0",
            ),
            (
                SimConfig::new(1).with_metrics(MetricsPolicy::new().with_interval_s(f64::INFINITY)),
                "metrics interval inf s",
            ),
            (
                SimConfig::new(1).with_metrics(MetricsPolicy {
                    window: Some(0),
                    ..MetricsPolicy::new()
                }),
                "over a window of 0",
            ),
        ];
        for (cfg, want) in cases {
            let msg = err(cfg);
            assert!(msg.contains(want), "{msg:?} does not contain {want:?}");
        }
        // The same inputs in range still build and run.
        let ok = SimConfig::new(1)
            .with_comm(CommModel::uniform(1e-6, 0.0))
            .with_metrics(MetricsPolicy::new().with_interval_s(1e-3));
        let report = TimedSimulator::new(&g, &mapping, ok)
            .unwrap()
            .run()
            .unwrap();
        assert!(report.sim_time.is_finite() && report.frames_completed == 1);
    }
}
