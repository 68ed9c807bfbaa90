//! Shared runtime machinery: node instances, method trigger matching, and
//! automatic control-token forwarding (§II-C of the paper).
//!
//! Both the untimed functional executor and the timing-accurate simulator
//! drive the same [`Program`] structure, so functional results are identical
//! between the two by construction.
//!
//! All name resolution happens once, at [`Program::instantiate`]: every
//! method's trigger inputs, outputs, and cost are compiled into index
//! tables ([`CompiledMethod`]), so the per-firing hot path — planning,
//! consuming, firing, routing — touches no strings and, in steady state,
//! performs no allocation (consume/emit buffers are recycled per node).

use bp_core::graph::AppGraph;
use bp_core::item::Item;
use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelSpec, NodeRole};
use bp_core::method::TriggerOn;
use bp_core::token::{ControlToken, TokenKind};
use bp_core::{BpError, Result};
use std::collections::VecDeque;

/// What a node can do next, given its input queue heads: fire a method on
/// its matched triggers, or pass an unhandled control token through a data
/// method's trigger group (§II-C). Actions are plain indices into the node's
/// compiled method table, so planning allocates nothing and actions are
/// freely copyable. The interpreter and the lowered planner
/// ([`bp_codegen::ThreadedNode::plan`]) answer with the same type, which is
/// what lets one scheduler drive either.
pub type Action = bp_codegen::PlannedAction;

/// A method's firing plan with every port name resolved to an index,
/// computed once at instantiation.
#[derive(Debug, Clone)]
pub struct CompiledMethod {
    /// `(input port index, trigger condition)` per trigger.
    pub triggers: Vec<(usize, TriggerOn)>,
    /// Output port indices, in declaration order.
    pub outputs: Vec<usize>,
    /// Declared cycle cost.
    pub cost_cycles: u64,
    /// True for data methods (every trigger fires on data).
    pub is_data: bool,
    /// Token kinds some method of this kernel handles on one of this
    /// method's trigger inputs — these suppress automatic forwarding.
    pub handled_tokens: Vec<TokenKind>,
}

fn compile_methods(spec: &KernelSpec) -> Vec<CompiledMethod> {
    spec.methods
        .iter()
        .map(|m| {
            let triggers: Vec<(usize, TriggerOn)> = m
                .triggers
                .iter()
                .map(|t| {
                    (
                        spec.input_index(&t.input).expect("validated trigger input"),
                        t.on,
                    )
                })
                .collect();
            let outputs: Vec<usize> = m
                .outputs
                .iter()
                .filter_map(|o| spec.output_index(o))
                .collect();
            let ins: Vec<usize> = triggers.iter().map(|&(p, _)| p).collect();
            let mut handled_tokens = Vec::new();
            for h in &spec.methods {
                for t in &h.triggers {
                    if let TriggerOn::Token(kind) = t.on {
                        if ins.contains(&spec.input_index(&t.input).expect("validated input"))
                            && !handled_tokens.contains(&kind)
                        {
                            handled_tokens.push(kind);
                        }
                    }
                }
            }
            CompiledMethod {
                triggers,
                outputs,
                cost_cycles: m.cost.cycles,
                is_data: m.is_data_method(),
                handled_tokens,
            }
        })
        .collect()
}

/// A kernel instance at run time: spec, private behavior state, and one FIFO
/// queue per input port.
pub struct RtNode {
    /// Instance name (for diagnostics).
    pub name: String,
    /// Static spec (cloned from the graph node).
    pub spec: KernelSpec,
    /// Index-resolved firing plans, one per method.
    pub compiled: Vec<CompiledMethod>,
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
    fn new(name: String, spec: KernelSpec, behavior: Box<dyn KernelBehavior>) -> Self {
        let compiled = compile_methods(&spec);
        let queues = vec![VecDeque::new(); spec.inputs.len()];
        Self {
            name,
            spec,
            compiled,
            behavior,
            queues,
            firings: 0,
            consumed_buf: Vec::new(),
            out_buf: Vec::new(),
        }
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
        for (mi, cm) in self.compiled.iter().enumerate() {
            if cm.triggers.is_empty() {
                continue; // source method; fired externally
            }
            let all = cm.triggers.iter().all(|&(p, on)| self.matches(p, on));
            if all && self.behavior.ready(&self.spec.methods[mi].name) {
                return Some(Action::Fire { method: mi });
            }
        }
        // Token forwarding over data-method trigger groups.
        for (mi, cm) in self.compiled.iter().enumerate() {
            if !cm.is_data {
                continue;
            }
            let mut token: Option<ControlToken> = None;
            let mut all_tokens = true;
            for &(i, _) in &cm.triggers {
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
                        compiled, queues, ..
                    } = self;
                    for &(p, _) in &compiled[method].triggers {
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
                        compiled, queues, ..
                    } = self;
                    for &(p, _) in &compiled[method].triggers {
                        let it = queues[p].pop_front().expect("planned token disappeared");
                        debug_assert!(matches!(it, Item::Control(t) if t == token));
                    }
                }
                let mut out = std::mem::take(&mut self.out_buf);
                out.clear();
                out.extend(
                    self.compiled[method]
                        .outputs
                        .iter()
                        .map(|&o| (o, Item::Control(token))),
                );
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
        tm: &bp_codegen::ThreadedMethod,
        token: ControlToken,
    ) -> Vec<(usize, Item)> {
        self.firings += 1;
        for &p in &tm.trigger_ports {
            let popped = self.queues[p]
                .pop_front()
                .expect("planned token disappeared");
            debug_assert!(matches!(popped, Item::Control(t) if t == token));
            drop(popped);
        }
        let mut out = std::mem::take(&mut self.out_buf);
        out.clear();
        out.extend(tm.outputs.iter().map(|&o| (o, Item::Control(token))));
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

/// The read-only half of an instantiated program: routing tables and
/// source/const pacing info. Splitting this from the mutable node instances
/// (see [`Program::split`]) lets the sharded timed simulator share one
/// `ProgramTables` across worker threads while each worker mutably owns a
/// disjoint subset of the [`RtNode`]s.
pub struct ProgramTables {
    /// `routes[node][out_port]` → destinations `(node, in_port)`.
    pub routes: Vec<Vec<Vec<(usize, usize)>>>,
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
    /// `routes[node][out_port]` → destinations `(node, in_port)`.
    pub routes: Vec<Vec<Vec<(usize, usize)>>>,
    /// Application inputs (role `Source`), paced per their rate.
    pub sources: Vec<SourceRt>,
    /// Constant providers (role `Const`), fired once at startup.
    pub consts: Vec<(usize, usize)>,
}

impl Program {
    /// Instantiate a validated graph: create behaviors, compile method
    /// tables, and build routing tables.
    pub fn instantiate(graph: &AppGraph) -> Result<Self> {
        graph.validate()?;
        let mut nodes = Vec::with_capacity(graph.node_count());
        let mut routes = Vec::with_capacity(graph.node_count());
        for (_, n) in graph.nodes() {
            let spec = n.spec().clone();
            routes.push(vec![Vec::new(); spec.outputs.len()]);
            nodes.push(RtNode::new(n.name.clone(), spec, (n.def.factory)()));
        }
        for (_, c) in graph.channels() {
            routes[c.src.node.0][c.src.port].push((c.dst.node.0, c.dst.port));
        }
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
            let n_dests = self.routes[from][port].len();
            match n_dests {
                0 => {} // unconnected output: items are dropped
                1 => {
                    let (dn, dp) = self.routes[from][port][0];
                    self.nodes[dn].queues[dp].push_back(item);
                }
                _ => {
                    for di in 0..n_dests {
                        let (dn, dp) = self.routes[from][port][di];
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
        self.nodes.iter().position(|n| n.name == name)
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
