//! Shared runtime machinery: node instances, method trigger matching, and
//! automatic control-token forwarding (§II-C of the paper).
//!
//! Both the untimed functional executor and the timing-accurate simulator
//! drive the same [`Program`] structure and fire every node through the
//! same routine, [`RtNode::fire`], into the kernel's index-dispatched
//! [`KernelBehavior::fire`] — so functional results are identical between
//! the two by construction.
//!
//! A node plans its next action in one of two ways over the one table it
//! holds: [`RtNode::plan`], a linear scan of every method's triggers, and
//! [`RtNode::plan_masked`], which first tests the trigger / data masks
//! of each [`MethodRow`](bp_core::MethodRow) against the node's
//! queue-head masks ([`head_masks`]). The timed engine plans each node by
//! masks when its table fits them and by the scan otherwise, and the scan
//! is the oracle for the masked planner (DESIGN.md §13).
//!
//! No name is resolved here: every method's trigger inputs, outputs, masks
//! and cost come index-resolved from the spec's own [`MethodTable`]
//! ([`KernelSpec::method_table`](bp_core::KernelSpec::method_table), built
//! once per spec and shared by every node holding it), so the per-firing hot
//! path — planning, consuming, firing, routing — touches no strings and, in
//! steady state, performs no allocation (consume/emit buffers are recycled
//! per node).

use bp_core::graph::AppGraph;
use bp_core::item::Item;
use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelSpec, NodeRole};
use bp_core::method::{MethodTable, TriggerOn};
use bp_core::token::ControlToken;
use bp_core::{BpError, Result};
use std::collections::VecDeque;
use std::sync::Arc;

/// What a node can do next, given its input queue heads: fire a method on
/// its matched triggers, or pass an unhandled control token through a data
/// method's trigger group (§II-C). Actions are plain indices into the node's
/// method table, so planning allocates nothing and actions are freely
/// copyable. Both planners answer with it, and [`RtNode::fire`] takes it
/// from either, which is what lets one scheduler drive both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Fire method `method` on its matched triggers.
    Fire {
        /// Method index in the node's [`MethodTable`].
        method: usize,
    },
    /// Forward `token` through data method `method`'s trigger group.
    Forward {
        /// The control token at the head of every trigger input.
        token: ControlToken,
        /// Method index whose trigger group forwards the token.
        method: usize,
    },
}

/// Widest kernel the mask planner plans: one bit per input port of a
/// `u64` head mask. A table past it says so
/// ([`MethodTable::fits_masks`]) and runs on the scan planner only.
pub const MAX_PORTS: usize = 64;

/// Compute the head-state masks for a node's queues from scratch:
/// `(data, ctrl)` where bit `p` of `data` is set when `queues[p]` has a
/// window at its head and bit `p` of `ctrl` when it has a control token.
/// The timed engine maintains these incrementally; this is the oracle used
/// to check them under debug assertions. Ports past [`MAX_PORTS`] get no
/// bit, as in the method table's masks.
pub fn head_masks(queues: &[VecDeque<Item>]) -> (u64, u64) {
    let mut data = 0u64;
    let mut ctrl = 0u64;
    for (p, q) in queues.iter().take(MAX_PORTS).enumerate() {
        match q.front() {
            Some(Item::Window(_)) => data |= 1 << p,
            Some(Item::Control(_)) => ctrl |= 1 << p,
            None => {}
        }
    }
    (data, ctrl)
}

/// Rows of varying length in one allocation: row `r` is
/// `data[starts[r]..starts[r + 1]]`. The shape of every per-node,
/// per-port and per-method table the simulators read.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Rows<T> {
    starts: Vec<u32>,
    data: Vec<T>,
}

impl<T> Rows<T> {
    /// No rows yet, with room for `rows` of them.
    pub fn with_capacity(rows: usize) -> Self {
        let mut starts = Vec::with_capacity(rows + 1);
        starts.push(0);
        Self {
            starts,
            data: Vec::new(),
        }
    }

    /// Append one row.
    pub fn push_row(&mut self, items: impl IntoIterator<Item = T>) {
        self.data.extend(items);
        self.starts.push(self.data.len() as u32);
    }

    /// `rows` rows holding the `(row, value)` pairs `items` yields, each
    /// value in the row it names, in the order yielded. `items` is walked
    /// twice: once to size the rows, once to fill them.
    pub fn bucketed<I>(rows: usize, items: impl Fn() -> I) -> Self
    where
        T: Copy + Default,
        I: Iterator<Item = (usize, T)>,
    {
        let mut starts = vec![0u32; rows + 1];
        for (r, _) in items() {
            starts[r + 1] += 1;
        }
        for r in 0..rows {
            starts[r + 1] += starts[r];
        }
        let mut data = vec![T::default(); starts[rows] as usize];
        let mut next = starts.clone();
        for (r, item) in items() {
            data[next[r] as usize] = item;
            next[r] += 1;
        }
        Self { starts, data }
    }

    /// Row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[self.starts[r] as usize..self.starts[r + 1] as usize]
    }

    /// The same rows with every item mapped through `f`.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Rows<U> {
        Rows {
            starts: self.starts.clone(),
            data: self.data.iter().map(f).collect(),
        }
    }
}

/// The first flat slot of each node in a table with one row (or entry) per
/// port or method: `base[node] + index` is the slot. One extra entry holds
/// the total.
pub(crate) fn slot_bases(counts: impl Iterator<Item = usize>) -> Vec<u32> {
    let mut bases = vec![0u32];
    for count in counts {
        bases.push(bases[bases.len() - 1] + count as u32);
    }
    bases
}

/// A kernel instance at run time: spec, private behavior state, and one FIFO
/// queue per input port.
pub struct RtNode {
    /// Instance name (for diagnostics), shared with the graph node.
    pub name: Arc<str>,
    /// Static spec, shared with the graph node and its replicas.
    pub spec: Arc<KernelSpec>,
    /// The spec's index-resolved firing plans, one per method.
    pub methods: Arc<MethodTable>,
    /// Executable state.
    pub behavior: Box<dyn KernelBehavior>,
    /// One queue per input port.
    pub queues: Vec<VecDeque<Item>>,
    /// Total firings, for reports.
    pub firings: u64,
    /// Recycled consume buffer (steady-state firing allocates nothing).
    consumed_buf: Vec<(usize, Item)>,
    /// Recycled emit buffer, handed back by the routing code.
    out_buf: Vec<(usize, Item)>,
}

impl RtNode {
    fn new(node: &bp_core::Node) -> Result<Self> {
        let methods = Arc::clone(node.method_table()?);
        let spec = Arc::clone(&node.def.spec);
        Ok(Self {
            name: Arc::clone(&node.name),
            queues: vec![VecDeque::new(); spec.inputs.len()],
            spec,
            methods,
            behavior: (node.def.factory)(),
            firings: 0,
            consumed_buf: Vec::new(),
            out_buf: Vec::new(),
        })
    }

    #[inline]
    fn matches(&self, port: usize, on: TriggerOn) -> bool {
        match self.queues[port].front() {
            None => false,
            Some(Item::Window(_)) => on == TriggerOn::Data,
            Some(Item::Control(t)) => on == TriggerOn::Token(t.kind()),
        }
    }

    /// Decide the next action for this node, or `None` if it cannot progress.
    ///
    /// Methods are tried in registration order; automatic token forwarding is
    /// considered only when no method fires. A token is forwarded for a data
    /// method's trigger group when the *same* token kind is at the head of
    /// every input in the group and no method of the kernel handles that
    /// token on any of those inputs — this implements both the single-input
    /// pass-through and the "same control token must arrive on both inputs"
    /// rule for multi-input kernels.
    pub fn plan(&self) -> Option<Action> {
        for (mi, cm) in self.methods.iter().enumerate() {
            if cm.triggers.is_empty() {
                continue; // source method; fired externally
            }
            let all = cm.triggers.iter().all(|&(p, on)| self.matches(p, on));
            if all && self.behavior.ready(mi) {
                return Some(Action::Fire { method: mi });
            }
        }
        (self.methods.rows().iter().enumerate())
            .filter(|(_, row)| row.is_data)
            .find_map(|(mi, _)| self.forward(mi))
    }

    /// [`plan`](Self::plan) with each method's trigger scan replaced by a
    /// test of its [`MethodRow`](bp_core::MethodRow) masks against the
    /// node's head masks (`head_data` / `head_ctrl`, as [`head_masks`]
    /// computes them), so an all-data method plans with one AND and one
    /// compare. Token triggers and forwarding still read the queue fronts,
    /// since token *identity* decides them, but only after the masks have
    /// matched. Returns exactly what [`plan`](Self::plan) returns; the
    /// table must [fit the masks](MethodTable::fits_masks).
    #[inline]
    pub fn plan_masked(&self, head_data: u64, head_ctrl: u64) -> Option<Action> {
        let rows = self.methods.rows();
        for (mi, row) in rows.iter().enumerate() {
            if row.trigger_mask == 0 {
                continue; // source method; fired externally
            }
            // Every data trigger needs a window at its head.
            if head_data & row.data_mask != row.data_mask {
                continue;
            }
            // Token triggers additionally need the right token *kind*.
            if !row.is_data {
                let ok = self.methods.triggers(mi).iter().all(|&(p, on)| match on {
                    TriggerOn::Data => true,
                    TriggerOn::Token(_) => self.matches(p, on),
                });
                if !ok {
                    continue;
                }
            }
            if self.behavior.ready(mi) {
                return Some(Action::Fire { method: mi });
            }
        }
        // Forwarding needs a control token at every trigger head.
        (rows.iter().enumerate())
            .filter(|(_, row)| row.is_data && head_ctrl & row.trigger_mask == row.trigger_mask)
            .find_map(|(mi, _)| self.forward(mi))
    }

    /// Token forwarding through data method `mi`'s trigger group, shared by
    /// both planners: when every trigger input holds the *same* token (full
    /// equality, not just kind) at its head, forward it — unless some
    /// method handles that kind on one of those inputs, which will fire
    /// through its own triggers once they align.
    #[inline]
    fn forward(&self, mi: usize) -> Option<Action> {
        let cm = self.methods.method(mi);
        debug_assert!(cm.is_data, "only data methods forward");
        let mut token: Option<ControlToken> = None;
        for &(i, _) in cm.triggers {
            match self.queues[i].front() {
                Some(Item::Control(t)) if token.is_none_or(|prev| prev == *t) => token = Some(*t),
                _ => return None,
            }
        }
        let tok = token?;
        if cm.handled_tokens.contains(&tok.kind()) {
            return None;
        }
        Some(Action::Forward {
            token: tok,
            method: mi,
        })
    }

    /// Fire a planned action: pop the fired method's trigger inputs (or
    /// the forwarded token from every input of the group), run the
    /// behavior, and return the emitted `(output port, item)` pairs, the
    /// data words read from the popped items, and the behavior's reported
    /// actual cycle count (for data-dependent-cost kernels; `None` means
    /// the declared method cost applies). The emitted vector is the node's
    /// recycled emit buffer — hand it back via
    /// [`recycle_out_buf`](Self::recycle_out_buf) after routing. The
    /// timed engine and the functional executor fire through this one
    /// routine, whichever planner produced the action.
    #[inline]
    pub fn fire(&mut self, action: Action) -> (Vec<(usize, Item)>, u64, Option<u64>) {
        self.firings += 1;
        let mut out = std::mem::take(&mut self.out_buf);
        match action {
            Action::Fire { method } => {
                let mut consumed = std::mem::take(&mut self.consumed_buf);
                let mut read_words = 0;
                for &(p, _) in self.methods.triggers(method) {
                    let it = self.queues[p]
                        .pop_front()
                        .expect("planned input disappeared");
                    read_words += it.words();
                    consumed.push((p, it));
                }
                let data = FireData::new(&self.spec, &consumed);
                let mut emitter = Emitter::with_buffer(&self.spec, out);
                self.behavior.fire(method, &data, &mut emitter);
                let (emitted, actual) = emitter.into_parts();
                consumed.clear();
                self.consumed_buf = consumed;
                (emitted, read_words, actual)
            }
            Action::Forward { token, method } => {
                let m = self.methods.method(method);
                for &(p, _) in m.triggers {
                    let popped = self.queues[p]
                        .pop_front()
                        .expect("planned token disappeared");
                    debug_assert!(matches!(popped, Item::Control(t) if t == token));
                }
                out.clear();
                out.extend(m.outputs.iter().map(|&o| (o, Item::Control(token))));
                (out, 0, None)
            }
        }
    }

    /// Fire a trigger-less (source/const/init) method, returning the emitted
    /// items in the node's recycled emit buffer.
    pub fn fire_untriggered(&mut self, method: usize) -> Vec<(usize, Item)> {
        self.firings += 1;
        let data = FireData::new(&self.spec, &[]);
        let mut out = Emitter::with_buffer(&self.spec, std::mem::take(&mut self.out_buf));
        self.behavior.fire(method, &data, &mut out);
        out.into_items()
    }

    /// Return a drained emit buffer to this node for reuse by its next
    /// firing.
    pub fn recycle_out_buf(&mut self, mut buf: Vec<(usize, Item)>) {
        buf.clear();
        if buf.capacity() > self.out_buf.capacity() {
            self.out_buf = buf;
        }
    }

    /// Total items currently queued on this node's inputs.
    pub fn queued_items(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

/// Per-source runtime info: how the scheduler paces its firings.
#[derive(Clone, Copy, Debug)]
pub struct SourceRt {
    /// Node index in [`Program::nodes`].
    pub node: usize,
    /// Index of the source method to fire.
    pub method: usize,
    /// Frame dimensions (pixels are emitted one per firing).
    pub frame: bp_core::Dim2,
    /// Frames per second.
    pub rate_hz: f64,
}

/// Where every output port's items go: `(node, out_port)` → destinations
/// `(node, in_port)` in channel order, as one row per output port.
#[derive(Clone, Debug, PartialEq)]
pub struct Routes {
    /// First row of each node ([`slot_bases`] over the output counts).
    out_base: Vec<u32>,
    rows: Rows<(usize, usize)>,
}

impl Routes {
    fn of(graph: &AppGraph) -> Self {
        let out_base = slot_bases(graph.nodes().map(|(_, n)| n.spec().outputs.len()));
        let slot = |node: usize, port: usize| out_base[node] as usize + port;
        let edge = |(_, c): (_, bp_core::Channel)| {
            (slot(c.src.node.0, c.src.port), (c.dst.node.0, c.dst.port))
        };
        let rows = Rows::bucketed(out_base[graph.node_count()] as usize, || {
            graph.channels().map(edge)
        });
        Self { out_base, rows }
    }

    /// The row index of `(node, out_port)`, shared by every table with one
    /// row per output port.
    #[inline]
    pub(crate) fn slot(&self, node: usize, port: usize) -> usize {
        debug_assert!(port < (self.out_base[node + 1] - self.out_base[node]) as usize);
        self.out_base[node] as usize + port
    }

    /// Destinations of `(node, out_port)`.
    #[inline]
    pub fn from(&self, node: usize, port: usize) -> &[(usize, usize)] {
        self.rows.row(self.slot(node, port))
    }

    /// One row per output port, in [`slot`](Self::slot) order.
    pub(crate) fn rows(&self) -> &Rows<(usize, usize)> {
        &self.rows
    }
}

/// The read-only half of an instantiated program: routing tables and
/// source/const pacing info. Splitting this from the mutable node instances
/// (see [`Program::split`]) lets the timed engine read the tables while it
/// mutates the [`RtNode`]s.
pub struct ProgramTables {
    /// `(node, out_port)` → destinations `(node, in_port)`.
    pub routes: Routes,
    /// Application inputs (role `Source`), paced per their rate.
    pub sources: Vec<SourceRt>,
    /// Constant providers (role `Const`) and feedback primers, fired once
    /// at startup in node order.
    pub consts: Vec<(usize, usize)>,
}

/// An executable instantiation of an [`AppGraph`].
pub struct Program {
    /// Node instances, indexed like the graph's nodes.
    pub nodes: Vec<RtNode>,
    /// `(node, out_port)` → destinations `(node, in_port)`.
    pub routes: Routes,
    /// Application inputs (role `Source`), paced per their rate.
    pub sources: Vec<SourceRt>,
    /// Constant providers (role `Const`), fired once at startup.
    pub consts: Vec<(usize, usize)>,
}

impl Program {
    /// Instantiate a validated graph: create behaviors, take each node's
    /// method table from its spec, and build routing tables. Specs, names
    /// and method tables are shared with the graph, not copied.
    pub fn instantiate(graph: &AppGraph) -> Result<Self> {
        graph.validate()?;
        let nodes = graph
            .nodes()
            .map(|(_, n)| RtNode::new(n))
            .collect::<Result<Vec<_>>>()?;
        let routes = Routes::of(graph);
        let mut sources = Vec::new();
        let mut consts = Vec::new();
        for (id, n) in graph.nodes() {
            let spec = n.spec();
            let src_method = spec.methods.iter().position(|m| m.is_source());
            match spec.role {
                NodeRole::Source => {
                    let method = src_method.ok_or_else(|| {
                        BpError::Validation(format!(
                            "source node '{}' has no source method",
                            n.name
                        ))
                    })?;
                    let info = graph.source_info(id).ok_or_else(|| {
                        BpError::Validation(format!("source node '{}' missing info", n.name))
                    })?;
                    sources.push(SourceRt {
                        node: id.0,
                        method,
                        frame: info.frame,
                        rate_hz: info.rate_hz,
                    });
                }
                NodeRole::Const => {
                    let method = src_method.ok_or_else(|| {
                        BpError::Validation(format!("const node '{}' has no source method", n.name))
                    })?;
                    consts.push((id.0, method));
                }
                // Feedback kernels prime their loop once at startup
                // (§III-D) via their trigger-less init method.
                NodeRole::Feedback => {
                    if let Some(method) = src_method {
                        consts.push((id.0, method));
                    }
                }
                _ => {}
            }
        }
        Ok(Self {
            nodes,
            routes,
            sources,
            consts,
        })
    }

    /// Split into mutable node instances and shared read-only tables.
    pub fn split(self) -> (Vec<RtNode>, ProgramTables) {
        (
            self.nodes,
            ProgramTables {
                routes: self.routes,
                sources: self.sources,
                consts: self.consts,
            },
        )
    }

    /// Deliver emitted items to the successor queues (fan-out clones share
    /// window storage). The drained buffer is recycled to the firing node.
    pub fn route(&mut self, from: usize, mut emitted: Vec<(usize, Item)>) {
        for (port, item) in emitted.drain(..) {
            match *self.routes.from(from, port) {
                [] => {} // unconnected output: items are dropped
                [(dn, dp)] => self.nodes[dn].queues[dp].push_back(item),
                ref dests => {
                    for &(dn, dp) in dests {
                        self.nodes[dn].queues[dp].push_back(item.clone());
                    }
                }
            }
        }
        self.nodes[from].recycle_out_buf(emitted);
    }

    /// Fire a node's externally-driven (source) method once and route the
    /// emissions.
    pub fn fire_source_method(&mut self, node: usize, method: usize) {
        let emitted = self.nodes[node].fire_untriggered(method);
        self.route(node, emitted);
    }

    /// Fire the node's next planned action if any; returns whether it fired.
    pub fn step_node(&mut self, node: usize) -> bool {
        let Some(action) = self.nodes[node].plan() else {
            return false;
        };
        let (emitted, _, _) = self.nodes[node].fire(action);
        self.route(node, emitted);
        true
    }

    /// Total queued items across all nodes (0 = quiescent).
    pub fn queued_items(&self) -> usize {
        self.nodes.iter().map(|n| n.queued_items()).sum()
    }

    /// Node id for a given instance name (diagnostics helper).
    pub fn find(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| &*n.name == name)
    }

    /// Describe stuck state for deadlock diagnostics: nodes with queued
    /// input that cannot fire.
    pub fn stuck_report(&self) -> String {
        stuck_report(&self.nodes)
    }
}

/// Describe stuck state for deadlock diagnostics over a bare node slice
/// (the timed simulators hold nodes outside a [`Program`]).
pub fn stuck_report(nodes: &[RtNode]) -> String {
    let mut s = String::new();
    for n in nodes {
        if n.queued_items() > 0 && n.plan().is_none() {
            let heads: Vec<String> = n
                .queues
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let head = match q.front() {
                        None => "-".to_string(),
                        Some(Item::Window(w)) => format!("W{}", w.dim()),
                        Some(Item::Control(t)) => t.to_string(),
                    };
                    format!("{}:{} (depth {})", n.spec.inputs[i].name, head, q.len())
                })
                .collect();
            s.push_str(&format!("  node '{}': {}\n", n.name, heads.join(", ")));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::token::TokenKind;
    use bp_core::Dim2;

    /// What `compile_methods` built per node before the spec owned the
    /// table: every port looked up by name, per method, per node.
    struct ByName {
        triggers: Vec<(usize, TriggerOn)>,
        outputs: Vec<usize>,
        cost_cycles: u64,
        is_data: bool,
        handled_tokens: Vec<TokenKind>,
    }

    fn resolve_by_name(spec: &KernelSpec) -> Vec<ByName> {
        let resolve = |m: &bp_core::MethodSpec| {
            let port = |t: &bp_core::Trigger| spec.input_index(&t.input).expect("known input");
            let triggers: Vec<_> = m.triggers.iter().map(|t| (port(t), t.on)).collect();
            let outputs = m.outputs.iter().filter_map(|o| spec.output_index(o));
            let ins: Vec<usize> = triggers.iter().map(|&(p, _)| p).collect();
            let mut handled_tokens = Vec::new();
            for t in spec.methods.iter().flat_map(|h| &h.triggers) {
                if let TriggerOn::Token(kind) = t.on {
                    if ins.contains(&port(t)) && !handled_tokens.contains(&kind) {
                        handled_tokens.push(kind);
                    }
                }
            }
            ByName {
                outputs: outputs.collect(),
                triggers,
                cost_cycles: m.cost.cycles,
                is_data: m.is_data_method(),
                handled_tokens,
            }
        };
        spec.methods.iter().map(resolve).collect()
    }

    fn assert_tables_equal_name_resolution(graph: &AppGraph) {
        let program = Program::instantiate(graph).expect("instantiate");
        for (rt, (_, node)) in program.nodes.iter().zip(graph.nodes()) {
            // Shared with the graph node, not rebuilt.
            assert!(Arc::ptr_eq(&rt.methods, node.method_table().unwrap()));
            assert!(Arc::ptr_eq(&rt.spec, &node.def.spec) && Arc::ptr_eq(&rt.name, &node.name));
            let by_name = resolve_by_name(&rt.spec);
            assert_eq!(rt.methods.len(), by_name.len(), "{}", rt.name);
            for (mi, (m, want)) in rt.methods.iter().zip(&by_name).enumerate() {
                let at = format!("method {mi} of '{}'", rt.name);
                assert_eq!(m.triggers, want.triggers, "{at}");
                assert_eq!(m.outputs, want.outputs, "{at}");
                assert_eq!(m.handled_tokens, want.handled_tokens, "{at}");
                assert_eq!(m.cost_cycles, want.cost_cycles, "{at}");
                assert_eq!(rt.methods.cost_cycles(mi), want.cost_cycles, "{at}");
                assert_eq!(m.is_data, want.is_data, "{at}");
            }
        }
    }

    /// The eleven apps, compiled at a rate that replicates (so split /
    /// join / replicate plumbing of several widths is in the graphs).
    fn compiled_apps() -> Vec<AppGraph> {
        use bp_apps::{apps, SLOW, SMALL};
        [
            apps::fig1b(SMALL, 200.0),
            apps::bayer(SMALL, 200.0),
            apps::histogram_app(SMALL, 200.0, 32),
            apps::parallel_buffer_test(Dim2::new(64, 12), 10.0),
            apps::multi_conv(SMALL, 200.0, 3),
            apps::temporal_iir(SMALL, SLOW),
            apps::fir_radio(72, 100.0),
            apps::edge_detect(SMALL, 200.0, 0.5),
            apps::analytics(SMALL, SLOW),
            apps::stereo_diff(SMALL, 200.0),
            apps::camera_bank(3, SMALL, SLOW),
        ]
        .iter()
        .map(|app| {
            let c = bp_compiler::compile(&app.graph, &Default::default()).expect("compile");
            c.graph
        })
        .collect()
    }

    /// A source feeding `k` lanes through a `k`-way split into a `k`-way
    /// join and a sink.
    fn wide_join_graph(k: usize) -> AppGraph {
        let dim = Dim2::new(k as u32, 2);
        let mut b = bp_core::GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 10.0);
        let split = b.add("Split", bp_kernels::split_rr(k, Dim2::ONE));
        let join = b.add("Join", bp_kernels::join_rr(k, Dim2::ONE));
        let (sdef, _sink) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", split, "in");
        for i in 0..k {
            let lane = b.add(format!("Lane{i}"), bp_kernels::scale(2.0, 0.0));
            b.connect(split, &format!("out{i}"), lane, "in");
            b.connect(lane, "out", join, &format!("in{i}"));
        }
        b.connect(join, "out", snk, "in");
        b.build().expect("wide join graph")
    }

    #[test]
    fn spec_owned_tables_equal_name_based_resolution() {
        for graph in compiled_apps() {
            assert_tables_equal_name_resolution(&graph);
        }
        // A join wider than the mask planner: 65 take methods and two
        // 65-trigger token synchronizers.
        assert_tables_equal_name_resolution(&wide_join_graph(65));
    }

    /// The node of `graph` whose kernel is `kind`, instantiated.
    fn node_of(graph: &AppGraph, kind: &str) -> RtNode {
        let nodes = Program::instantiate(graph).expect("instantiate").nodes;
        let found = nodes.into_iter().find(|n| n.spec.kind == kind);
        found.expect("a node of that kind")
    }

    /// The masked planner's answer for `rt`'s current queues.
    fn plan_masked(rt: &RtNode) -> Option<Action> {
        let (data, ctrl) = head_masks(&rt.queues);
        rt.plan_masked(data, ctrl)
    }

    #[test]
    fn masks_mirror_queue_fronts() {
        let mut queues = vec![VecDeque::new(), VecDeque::new(), VecDeque::new()];
        queues[0].push_back(Item::Window(bp_core::Window::zeros(Dim2::new(2, 2))));
        queues[2].push_back(Item::Control(ControlToken::EndOfFrame));
        assert_eq!(head_masks(&queues), (0b001, 0b100));
        queues[0].clear();
        assert_eq!(head_masks(&queues), (0b000, 0b100));
    }

    #[test]
    fn forwards_unhandled_tokens_and_suppresses_handled() {
        let both = |rt: &RtNode| (rt.plan(), plan_masked(rt));
        // `scale` handles no token: an end of frame at its head forwards
        // through its one data method, and a window fires it.
        let mut scale = node_of(&wide_join_graph(1), "scale");
        scale.queues[0].push_back(Item::Control(ControlToken::EndOfFrame));
        let forward = Some(Action::Forward {
            token: ControlToken::EndOfFrame,
            method: 0,
        });
        assert_eq!(both(&scale), (forward, forward));
        scale.queues[0].clear();
        scale.queues[0].push_back(Item::Window(bp_core::Window::scalar(1.0)));
        let fire = Some(Action::Fire { method: 0 });
        assert_eq!(both(&scale), (fire, fire));
        scale.queues[0].clear();
        assert_eq!(both(&scale), (None, None));
        // `histogram` handles end of frame and end of line on `in`: neither
        // is ever forwarded, while a token it does not handle is.
        let app = bp_apps::apps::histogram_app(Dim2::new(20, 12), 50.0, 32);
        let c = bp_compiler::compile(&app.graph, &Default::default()).expect("compile");
        let mut hist = node_of(&c.graph, "histogram");
        for token in [ControlToken::EndOfFrame, ControlToken::EndOfLine] {
            hist.queues[0].clear();
            hist.queues[0].push_back(Item::Control(token));
            let (plan, masked) = both(&hist);
            assert!(!matches!(plan, Some(Action::Forward { .. })), "{token:?}");
            assert_eq!(plan, masked, "{token:?}");
        }
        hist.queues[0].clear();
        hist.queues[0].push_back(Item::Control(ControlToken::Custom(7)));
        let forward = Some(Action::Forward {
            token: ControlToken::Custom(7),
            method: 0,
        });
        assert_eq!(both(&hist), (forward, forward));
    }

    /// The masked planner against its oracle, the scan, on every method
    /// table of the eleven compiled apps: `Rng64`-seeded head states —
    /// each queue empty, holding a window, or holding one of the token
    /// kinds, independently or mostly alike so that multi-input methods
    /// fire and multi-input groups forward.
    #[test]
    fn masked_plan_equals_the_scan_on_every_app_table() {
        let mut rng = bp_core::Rng64::seed_from_u64(0x6d61_736b);
        let tokens = [
            ControlToken::EndOfLine,
            ControlToken::EndOfFrame,
            ControlToken::Custom(0),
            ControlToken::Custom(1),
        ];
        let head = |rng: &mut bp_core::Rng64| match rng.gen_index(2 + tokens.len()) {
            0 => None,
            1 => Some(Item::Window(bp_core::Window::scalar(1.0))),
            t => Some(Item::Control(tokens[t - 2])),
        };
        let (mut fired, mut forwarded, mut idle) = (0, 0, 0);
        for graph in compiled_apps() {
            for mut rt in Program::instantiate(&graph).expect("instantiate").nodes {
                assert!(rt.methods.fits_masks(), "'{}' is too wide", rt.name);
                for _ in 0..64 {
                    let alike = rng.gen_bool().then(|| head(&mut rng));
                    for q in &mut rt.queues {
                        q.clear();
                        let item = match &alike {
                            Some(item) if rng.gen_index(8) > 0 => item.clone(),
                            _ => head(&mut rng),
                        };
                        q.extend(item);
                    }
                    let plan = rt.plan();
                    assert_eq!(plan, plan_masked(&rt), "node '{}'", rt.name);
                    match plan {
                        Some(Action::Fire { .. }) => fired += 1,
                        Some(Action::Forward { .. }) => forwarded += 1,
                        None => idle += 1,
                    }
                }
            }
        }
        let outcomes = format!("{fired} fired, {forwarded} forwarded, {idle} idle");
        assert!(fired > 0 && forwarded > 0 && idle > 0, "{outcomes}");
    }

    /// Past 64 inputs the table still builds — the ports above the mask
    /// width get no bit, where a plain shift would overflow under debug
    /// assertions — and says it does not fit; at 64 every port has its bit.
    #[test]
    fn tables_past_the_mask_width_build_and_say_so() {
        let wide = bp_kernels::join_rr(MAX_PORTS + 1, Dim2::ONE);
        let table = wide.spec.method_table().expect("65-input table");
        assert!(!table.fits_masks());
        let masks: Vec<u64> = table.rows().iter().map(|r| r.trigger_mask).collect();
        assert!(masks.contains(&(1 << 63)), "port 63 keeps its bit");
        assert!(masks.contains(&0), "port 64's take method has none");
        let join = bp_kernels::join_rr(MAX_PORTS, Dim2::ONE);
        let table = join.spec.method_table().expect("64-input table");
        assert!(table.fits_masks());
        let masks = table.rows().iter().map(|r| r.trigger_mask);
        assert_eq!(masks.fold(0, |all, m| all | m), u64::MAX);
    }

    #[test]
    fn rows_hold_what_was_pushed_and_bucketed() {
        let mut rows = Rows::with_capacity(3);
        rows.push_row([1, 2]);
        rows.push_row([]);
        rows.push_row([3]);
        assert_eq!(
            (rows.row(0), rows.row(1), rows.row(2)),
            (&[1, 2][..], &[][..], &[3][..])
        );
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd')];
        let bucketed = Rows::bucketed(3, || pairs.iter().copied());
        assert_eq!(bucketed.row(0), ['b', 'd']);
        assert!(bucketed.row(1).is_empty());
        assert_eq!(bucketed.row(2), ['a', 'c']);
        assert_eq!(bucketed.map(|c| c.to_ascii_uppercase()).row(2), ['A', 'C']);
        assert_eq!(slot_bases([2, 0, 3].into_iter()), [0, 2, 2, 5]);
    }
}
