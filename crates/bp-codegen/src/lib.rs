//! # bp-codegen — mask-planned lowering of block-parallel graphs
//!
//! Lowers an application graph into a [`ThreadedProgram`]: one
//! [`ThreadedNode`] per graph node holding the precomputed bitmasks that
//! turn the interpreter's linear trigger scan into a readiness mask test.
//!
//! Planning is the one thing the timed engine's two backends differ in:
//! both fire a planned action through the same `bp-sim` routine
//! (`RtNode::fire`), into the same index-dispatched
//! [`KernelBehavior::fire`], so the interpreter's `RtNode::plan` is the
//! differential oracle for exactly what this crate lowers (DESIGN.md §13).
//! Both planners read the same index-resolved [`MethodTable`], which the
//! kernel spec owns ([`KernelSpec::method_table`]); the lowering adds only
//! what the table does not hold — bitmasks — and does so once per distinct
//! spec, however many nodes share it.
//!
//! Each method carries a `trigger_mask`/`data_mask` over its input ports.
//! A node-level pair of *head masks* (bit `p` set when input queue `p`
//! currently has a window / control token at its head) is maintained
//! incrementally by the engine, so the all-data common case plans with two
//! AND/compare instructions ([`ThreadedNode::plan`]). Token triggers and
//! the forwarding scan still read the actual queue fronts — token
//! *identity* (not just presence) decides both — but only after the mask
//! pre-check has already matched. [`KernelBehavior::ready`] is always
//! consulted, exactly like the interpreter: kernels (join, histogram, FIR,
//! conv) override it with dynamic state.
//!
//! What is deliberately *not* folded: anything mapping- or
//! machine-dependent (channel latencies, capacities, slot indices into the
//! engine's node array). The engine builds those tables
//! from its own instantiated nodes at simulator-build time, for either
//! backend, and checks a program against them before running it —
//! keeping this crate dependent on `bp-core` alone.

#![warn(missing_docs)]

mod shape;

pub use shape::shape_key;

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bp_core::{
    AppGraph, BpError, ControlToken, Item, KernelBehavior, KernelSpec, MethodTable, Result,
    TokenKind, TriggerOn,
};

/// What lowering adds to one method of the spec's [`MethodTable`]: its
/// trigger conditions folded into bitmasks. Ports, outputs, cost and
/// handled tokens stay in the table ([`ThreadedNode::table`]).
#[derive(Debug)]
pub struct ThreadedMethod {
    /// Bit `p` set when port `p` is one of the method's trigger inputs.
    pub trigger_mask: u64,
    /// Bit `p` set when port `p` has a `TriggerOn::Data` trigger.
    pub data_mask: u64,
    /// `(port, kind)` for each `TriggerOn::Token` trigger, in order.
    pub token_triggers: Vec<(usize, TokenKind)>,
}

/// A planning decision: what [`ThreadedNode::plan`] and the interpreter's
/// `RtNode::plan` (where it is `bp_sim::Action`) both answer with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannedAction {
    /// Fire method `method` on its matched triggers.
    Fire {
        /// Method index into [`ThreadedNode::methods`].
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

/// One lowered node: the per-method masks the engine's incremental
/// head-state planner tests against. A handle — nodes lowered from one
/// spec share the masks and the spec's table.
#[derive(Clone, Debug)]
pub struct ThreadedNode {
    /// Lowered methods in registration order.
    pub methods: Arc<[ThreadedMethod]>,
    /// Number of input ports (head masks use the low `inputs` bits).
    pub inputs: usize,
    table: Arc<MethodTable>,
}

/// A fully lowered graph: one [`ThreadedNode`] per graph node, in node
/// order (indices line up with the engine's node array).
#[derive(Debug)]
pub struct ThreadedProgram {
    /// Lowered nodes, indexed by node id.
    pub nodes: Vec<ThreadedNode>,
}

/// Maximum input-port arity the mask planner supports (one bit per port).
pub const MAX_PORTS: usize = 64;

/// Compute the head-state masks for a node's queues from scratch:
/// `(data, ctrl)` where bit `p` of `data` is set when `queues[p]` has a
/// window at its head and bit `p` of `ctrl` when it has a control token.
/// The engine maintains these incrementally; this is the oracle used to
/// seed them and to validate under debug assertions.
pub fn head_masks(queues: &[VecDeque<Item>]) -> (u64, u64) {
    let mut data = 0u64;
    let mut ctrl = 0u64;
    for (p, q) in queues.iter().enumerate() {
        match q.front() {
            Some(Item::Window(_)) => data |= 1 << p,
            Some(Item::Control(_)) => ctrl |= 1 << p,
            None => {}
        }
    }
    (data, ctrl)
}

impl ThreadedNode {
    /// The index-resolved method table of the spec this node was lowered
    /// from: trigger ports, outputs, cost and handled tokens per method.
    pub fn table(&self) -> &Arc<MethodTable> {
        &self.table
    }

    /// Decide the next action, or `None` if the node cannot progress.
    ///
    /// `head_data`/`head_ctrl` are the node's incrementally maintained head
    /// masks (see [`head_masks`]). Must return exactly what the
    /// interpreter's `RtNode::plan` returns for the same queue and behavior
    /// state; the differential suite in `bp-sim` pins this.
    #[inline]
    pub fn plan(
        &self,
        head_data: u64,
        head_ctrl: u64,
        queues: &[VecDeque<Item>],
        behavior: &dyn KernelBehavior,
    ) -> Option<PlannedAction> {
        for (mi, m) in self.methods.iter().enumerate() {
            if m.trigger_mask == 0 {
                continue; // source method; fired externally
            }
            // Every data trigger needs a window at its head.
            if head_data & m.data_mask != m.data_mask {
                continue;
            }
            // Token triggers additionally need the right token *kind*.
            if !m.token_triggers.is_empty() {
                let ok = m.token_triggers.iter().all(|&(p, kind)| {
                    matches!(queues[p].front(), Some(Item::Control(t)) if t.kind() == kind)
                });
                if !ok {
                    continue;
                }
            }
            if behavior.ready(mi) {
                return Some(PlannedAction::Fire { method: mi });
            }
        }
        // Token forwarding over data-method trigger groups: the *same*
        // token (full equality, not just kind) must head every trigger
        // input, and no method may handle that kind on any of them.
        for (mi, m) in self.methods.iter().enumerate() {
            // Mask pre-check: every trigger head must be a control token.
            if head_ctrl & m.trigger_mask != m.trigger_mask {
                continue;
            }
            let group = self.table.method(mi);
            if !group.is_data {
                continue;
            }
            let mut token: Option<ControlToken> = None;
            let mut all_tokens = true;
            for &(p, _) in group.triggers {
                match queues[p].front() {
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
            if group.handled_tokens.contains(&tok.kind()) {
                continue;
            }
            return Some(PlannedAction::Forward {
                token: tok,
                method: mi,
            });
        }
        None
    }
}

/// Lower one kernel spec: fold each method of its [`MethodTable`] into
/// masks. The engine reads only the plan half of the result; what a firing
/// pops, emits and costs it takes from the same table the lowered node
/// points at, which is also how it checks a program against the nodes it is
/// about to run. Fails when the kernel has more than [`MAX_PORTS`] inputs.
pub fn lower_spec(spec: &Arc<KernelSpec>) -> Result<ThreadedNode> {
    lower(spec, spec.method_table()?)
}

fn lower(spec: &KernelSpec, table: &Arc<MethodTable>) -> Result<ThreadedNode> {
    if spec.inputs.len() > MAX_PORTS {
        return Err(BpError::Validation(format!(
            "kernel '{}' has {} input ports; the mask planner supports at most {}",
            spec.kind,
            spec.inputs.len(),
            MAX_PORTS
        )));
    }
    let lower_method = |m: bp_core::ResolvedMethod<'_>| {
        let mut trigger_mask = 0u64;
        let mut data_mask = 0u64;
        let mut token_triggers = Vec::new();
        for &(p, on) in m.triggers {
            trigger_mask |= 1 << p;
            match on {
                TriggerOn::Data => data_mask |= 1 << p,
                TriggerOn::Token(kind) => token_triggers.push((p, kind)),
            }
        }
        ThreadedMethod {
            trigger_mask,
            data_mask,
            token_triggers,
        }
    };
    Ok(ThreadedNode {
        methods: table.iter().map(lower_method).collect(),
        inputs: spec.inputs.len(),
        table: Arc::clone(table),
    })
}

/// Lower every node of a graph into a [`ThreadedProgram`], once per
/// distinct spec: replicas, and every other node sharing a spec `Arc`,
/// share one lowering. Fails when a kernel exceeds [`MAX_PORTS`] input
/// ports (the engine then falls back to — or the caller explicitly
/// requests — the interpreted backend), or when a method names a port its
/// kernel does not have (a graph that was never validated).
pub fn lower_graph(graph: &AppGraph) -> Result<ThreadedProgram> {
    let mut lowered: HashMap<*const KernelSpec, ThreadedNode> = HashMap::new();
    let nodes = graph
        .nodes()
        .map(|(_, n)| {
            let spec = &n.def.spec;
            if let Some(shared) = lowered.get(&Arc::as_ptr(spec)) {
                return Ok(shared.clone());
            }
            let tn = lower(spec, n.method_table()?)?;
            lowered.insert(Arc::as_ptr(spec), tn.clone());
            Ok(tn)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ThreadedProgram { nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Dim2;

    fn fill(q: &mut VecDeque<Item>, items: Vec<Item>) {
        q.extend(items);
    }

    fn win(dim: Dim2) -> Item {
        Item::Window(bp_core::Window::zeros(dim))
    }

    #[test]
    fn masks_mirror_queue_fronts() {
        let mut queues = vec![VecDeque::new(), VecDeque::new(), VecDeque::new()];
        fill(&mut queues[0], vec![win(Dim2::new(2, 2))]);
        fill(
            &mut queues[2],
            vec![Item::Control(ControlToken::EndOfFrame)],
        );
        let (d, c) = head_masks(&queues);
        assert_eq!(d, 0b001);
        assert_eq!(c, 0b100);
    }

    #[test]
    fn lowers_scale_kernel_and_plans() {
        let def = bp_kernels::scale(2.0, 1.0);
        let tn = lower_spec(&def.spec).unwrap();
        assert_eq!(tn.methods.len(), 1);
        let m = &tn.methods[0];
        assert_eq!(tn.table().method(0).triggers, [(0, TriggerOn::Data)]);
        assert_eq!(m.trigger_mask, 1);
        assert_eq!(m.data_mask, 1);
        assert!(m.token_triggers.is_empty());
        assert!(tn.table().method(0).is_data);

        let behavior = (def.factory)();
        let mut queues = vec![VecDeque::new()];
        queues[0].push_back(win(Dim2::new(1, 1)));
        let (d, c) = head_masks(&queues);
        let plan = tn.plan(d, c, &queues, behavior.as_ref());
        assert_eq!(plan, Some(PlannedAction::Fire { method: 0 }));
        assert_eq!(tn.plan(0, 0, &[VecDeque::new()], behavior.as_ref()), None);
    }

    #[test]
    fn forwards_unhandled_tokens_and_suppresses_handled() {
        // join has an EOL-handling method on its inputs in some kernels;
        // use scale (no token methods): EOF at head forwards.
        let def = bp_kernels::scale(1.0, 0.0);
        let tn = lower_spec(&def.spec).unwrap();
        let behavior = (def.factory)();
        let mut queues = vec![VecDeque::new()];
        queues[0].push_back(Item::Control(ControlToken::EndOfFrame));
        let (d, c) = head_masks(&queues);
        match tn.plan(d, c, &queues, behavior.as_ref()) {
            Some(PlannedAction::Forward { token, method }) => {
                assert_eq!(token, ControlToken::EndOfFrame);
                assert_eq!(method, 0);
            }
            other => panic!("expected forward, got {other:?}"),
        }
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
    fn rejects_over_wide_kernels() {
        let want = BpError::Validation(
            "kernel 'join_rr' has 65 input ports; the mask planner supports at most 64".into(),
        );
        let join = bp_kernels::join_rr(MAX_PORTS + 1, Dim2::ONE);
        assert_eq!(lower_spec(&join.spec).unwrap_err(), want);
        assert_eq!(lower_graph(&wide_join_graph(65)).unwrap_err(), want);
        // One port fewer is what the planner holds.
        let join = bp_kernels::join_rr(MAX_PORTS, Dim2::ONE);
        assert_eq!(lower_spec(&join.spec).unwrap().inputs, 64);
        let program = lower_graph(&wide_join_graph(64)).expect("64 inputs lower");
        assert!(program.nodes.iter().any(|n| n.inputs == 64));
    }
}
