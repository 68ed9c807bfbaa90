//! Shared runtime machinery: node instances, method trigger matching, and
//! automatic control-token forwarding (§II-C of the paper).
//!
//! Both the untimed functional executor and the timing-accurate simulator
//! drive the same [`Program`] structure, so functional results are identical
//! between the two by construction.
//!
//! No name is resolved here: every method's trigger inputs, outputs and cost
//! come index-resolved from the spec's own [`MethodTable`]
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
/// copyable. The interpreter and the lowered planner
/// ([`bp_codegen::ThreadedNode::plan`]) answer with the same type, which is
/// what lets one scheduler drive either.
pub type Action = bp_codegen::PlannedAction;

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
            if all && self.behavior.ready(&self.spec.methods[mi].name) {
                return Some(Action::Fire { method: mi });
            }
        }
        // Token forwarding over data-method trigger groups.
        for (mi, cm) in self.methods.iter().enumerate() {
            if !cm.is_data {
                continue;
            }
            let mut token: Option<ControlToken> = None;
            let mut all_tokens = true;
            for &(i, _) in cm.triggers {
                match self.queues[i].front() {
                    Some(Item::Control(t)) => match token {
                        None => token = Some(*t),
                        Some(prev) if prev == *t => {}
                        Some(_) => {
                            all_tokens = false;
                            break;
                        }
                    },
                    _ => {
                        all_tokens = false;
                        break;
                    }
                }
            }
            let Some(tok) = token else { continue };
            if !all_tokens {
                continue;
            }
            // Suppress forwarding when any method handles this token on any
            // input of the group (it will fire via the rules above once its
            // own triggers align).
            if cm.handled_tokens.contains(&tok.kind()) {
                continue;
            }
            return Some(Action::Forward {
                token: tok,
                method: mi,
            });
        }
        None
    }

    /// Execute an action, returning the emitted `(output port, item)` pairs.
    pub fn execute(&mut self, action: Action) -> Vec<(usize, Item)> {
        self.execute_with_cost(action).0
    }

    /// Execute an action, returning the emitted items plus the behavior's
    /// reported actual cycle count (for data-dependent-cost kernels; `None`
    /// means the declared method cost applies). The returned vector is the
    /// node's recycled emit buffer — hand it back via
    /// [`recycle_out_buf`](Self::recycle_out_buf) after routing.
    pub fn execute_with_cost(&mut self, action: Action) -> (Vec<(usize, Item)>, Option<u64>) {
        self.firings += 1;
        match action {
            Action::Fire { method } => {
                let mut consumed = std::mem::take(&mut self.consumed_buf);
                let out_storage = std::mem::take(&mut self.out_buf);
                consumed.clear();
                {
                    let RtNode {
                        methods, queues, ..
                    } = self;
                    for &(p, _) in methods.method(method).triggers {
                        consumed
                            .push((p, queues[p].pop_front().expect("planned input disappeared")));
                    }
                }
                let RtNode {
                    ref spec,
                    ref mut behavior,
                    ..
                } = *self;
                let mname: &str = &spec.methods[method].name;
                let data = FireData::new(spec, &consumed);
                let mut out = Emitter::with_buffer(spec, out_storage);
                behavior.fire(mname, &data, &mut out);
                let parts = out.into_parts();
                consumed.clear();
                self.consumed_buf = consumed;
                parts
            }
            Action::Forward { token, method } => {
                {
                    let RtNode {
                        methods, queues, ..
                    } = self;
                    for &(p, _) in methods.method(method).triggers {
                        let it = queues[p].pop_front().expect("planned token disappeared");
                        debug_assert!(matches!(it, Item::Control(t) if t == token));
                    }
                }
                let mut out = std::mem::take(&mut self.out_buf);
                out.clear();
                let outputs = self.methods.method(method).outputs;
                out.extend(outputs.iter().map(|&o| (o, Item::Control(token))));
                (out, None)
            }
        }
    }

    /// Fire a trigger-less (source/const/init) method, returning the emitted
    /// items in the node's recycled emit buffer.
    pub fn fire_untriggered(&mut self, method: usize) -> Vec<(usize, Item)> {
        self.firings += 1;
        let out_storage = std::mem::take(&mut self.out_buf);
        let RtNode {
            ref spec,
            ref mut behavior,
            ..
        } = *self;
        let mname: &str = &spec.methods[method].name;
        let consumed: [(usize, Item); 0] = [];
        let data = FireData::new(spec, &consumed);
        let mut out = Emitter::with_buffer(spec, out_storage);
        behavior.fire(mname, &data, &mut out);
        out.into_items()
    }

    /// [`fire_untriggered`](Self::fire_untriggered) through the behavior's
    /// index-dispatched fast path (compiled backend), falling back to the
    /// name dispatch when the kernel has none.
    pub(crate) fn fire_untriggered_fast(&mut self, method: usize) -> Vec<(usize, Item)> {
        self.firings += 1;
        let out_storage = std::mem::take(&mut self.out_buf);
        let RtNode {
            ref spec,
            ref mut behavior,
            ..
        } = *self;
        let consumed: [(usize, Item); 0] = [];
        let data = FireData::new(spec, &consumed);
        let mut out = Emitter::with_buffer(spec, out_storage);
        if !behavior.fire_fast(method, &data, &mut out) {
            behavior.fire(&spec.methods[method].name, &data, &mut out);
        }
        out.into_items()
    }

    /// Run a direct-threaded fire routine (compiled backend) against this
    /// node's queues, behavior, and recycled buffers. The returned vector
    /// is the node's emit buffer — hand it back via
    /// [`recycle_out_buf`](Self::recycle_out_buf) after routing, exactly
    /// like [`execute_with_cost`](Self::execute_with_cost).
    pub(crate) fn fire_threaded(
        &mut self,
        fire: &bp_codegen::FireFn,
    ) -> (Vec<(usize, Item)>, bp_codegen::FireResult) {
        self.firings += 1;
        let mut consumed = std::mem::take(&mut self.consumed_buf);
        let mut emitted = std::mem::take(&mut self.out_buf);
        let res = fire(&mut bp_codegen::FireArgs {
            spec: &self.spec,
            queues: &mut self.queues,
            behavior: self.behavior.as_mut(),
            consumed: &mut consumed,
            emitted: &mut emitted,
        });
        self.consumed_buf = consumed;
        (emitted, res)
    }

    /// Direct-threaded token forward (compiled backend): pop the trigger
    /// group's tokens and emit the token on every output — the lowered
    /// equivalent of [`Action::Forward`] under
    /// [`execute_with_cost`](Self::execute_with_cost).
    pub(crate) fn forward_threaded(
        &mut self,
        method: usize,
        token: ControlToken,
    ) -> Vec<(usize, Item)> {
        self.firings += 1;
        let m = self.methods.method(method);
        for &(p, _) in m.triggers {
            let popped = self.queues[p]
                .pop_front()
                .expect("planned token disappeared");
            debug_assert!(matches!(popped, Item::Control(t) if t == token));
            drop(popped);
        }
        let mut out = std::mem::take(&mut self.out_buf);
        out.clear();
        out.extend(m.outputs.iter().map(|&o| (o, Item::Control(token))));
        out
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
        let emitted = self.nodes[node].execute(action);
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

    #[test]
    fn spec_owned_tables_equal_name_based_resolution() {
        use bp_apps::{apps, SLOW, SMALL};
        // The eleven apps, at a rate that replicates (so split / join /
        // replicate plumbing of several widths is in the graphs).
        for app in [
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
        ] {
            let c = bp_compiler::compile(&app.graph, &Default::default()).expect("compile");
            assert_tables_equal_name_resolution(&c.graph);
        }
        // A join wider than the mask planner: 65 take methods and two
        // 65-trigger token synchronizers.
        const K: usize = 65;
        let dim = Dim2::new(K as u32, 2);
        let mut b = bp_core::GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 10.0);
        let split = b.add("Split", bp_kernels::split_rr(K, Dim2::ONE));
        let join = b.add("Join", bp_kernels::join_rr(K, Dim2::ONE));
        let (sdef, _sink) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", split, "in");
        for i in 0..K {
            let lane = b.add(format!("Lane{i}"), bp_kernels::scale(2.0, 0.0));
            b.connect(split, &format!("out{i}"), lane, "in");
            b.connect(lane, "out", join, &format!("in{i}"));
        }
        b.connect(join, "out", snk, "in");
        assert_tables_equal_name_resolution(&b.build().expect("wide join graph"));
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
