//! Feedback-aware channel capacity derivation.
//!
//! The paper's compiler sizes intermediate buffers automatically (§III).
//! Two mechanisms live here:
//!
//! 1. A **default capacity** shared by every channel, derived from the
//!    widest input-window row any kernel consumes (within-frame burstiness
//!    slack), with a floor of 64 items. This is the historical rule and is
//!    unchanged for acyclic graphs.
//!
//! 2. **Back-edge overrides** for feedback loops (§III-D). A feedback
//!    kernel's initialization primes a whole frame of initial values into
//!    its output channel before any input arrives; that population then
//!    circulates the loop forever (loop kernels are rate 1:1, so it is
//!    conserved). Whenever the loop's external input pauses — between
//!    real-time frames, and permanently once the source finishes — the
//!    circulating population drains downstream until all of it parks on
//!    the back edge: every other loop node still holds a fireable plan
//!    while its input queue is nonempty, so a settled, deadlock-free
//!    program can hold loop items *only* on the back edge (its consumer,
//!    the loop's merge point, is legitimately waiting for external data).
//!    The engine lets a producer fire while the destination holds at most
//!    `cap - 2` items, so absorbing the whole population `P` needs
//!
//!    ```text
//!    cap_back = P + 1
//!    ```
//!
//!    clamped below by the flat default `d`. One below this bound the
//!    loop deadlocks (the last circulating item can never leave the
//!    feedback kernel), which is exactly the sharpness the liveness
//!    property suite pins. No power-of-two rounding is applied to
//!    overrides, so the bound stays sharp.

use crate::graph::{AppGraph, ChannelId, NodeId};
use crate::kernel::NodeRole;

/// A resolved per-channel capacity plan: one default for every channel plus
/// sparse overrides for feedback back edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelCapacities {
    /// Capacity of every channel without an override.
    pub default: usize,
    /// `(channel, capacity)` overrides, sorted by channel id.
    overrides: Vec<(ChannelId, usize)>,
}

impl ChannelCapacities {
    /// A flat plan: every channel gets `items`.
    pub fn uniform(items: usize) -> Self {
        Self {
            default: items,
            overrides: Vec::new(),
        }
    }

    /// The capacity of a channel under this plan.
    pub fn capacity(&self, id: ChannelId) -> usize {
        self.overrides
            .iter()
            .find(|(c, _)| *c == id)
            .map(|&(_, cap)| cap)
            .unwrap_or(self.default)
    }

    /// The sparse overrides, sorted by channel id.
    pub fn overrides(&self) -> &[(ChannelId, usize)] {
        &self.overrides
    }

    /// Add (or replace) an override for one channel.
    pub fn with_override(mut self, id: ChannelId, cap: usize) -> Self {
        self.set_override(id, cap);
        self
    }

    /// Add (or replace) an override for one channel, in place.
    pub fn set_override(&mut self, id: ChannelId, cap: usize) {
        match self.overrides.binary_search_by_key(&id.0, |(c, _)| c.0) {
            Ok(i) => self.overrides[i].1 = cap,
            Err(i) => self.overrides.insert(i, (id, cap)),
        }
    }
}

/// One feedback loop found by the derivation: a cyclic strongly connected
/// component of the data-channel graph, its primed population, and the
/// back-edge capacity that keeps it live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInfo {
    /// Member nodes, sorted by id.
    pub nodes: Vec<NodeId>,
    /// Channels with both endpoints inside the component.
    pub channels: Vec<ChannelId>,
    /// Channels leaving a [`NodeRole::Feedback`] node inside the component
    /// — where the primed population starts.
    pub back_edges: Vec<ChannelId>,
    /// Total initial tokens primed by the component's feedback kernels.
    pub initial_tokens: u64,
    /// Derived capacity of each back edge (`>= default`).
    pub back_edge_capacity: usize,
}

/// The widest-input-row default capacity (the historical flat rule): the
/// widest input-window row any kernel consumes, rounded up to a power of
/// two, with a floor of 64 items. That is enough slack that within-frame
/// burstiness — a windowed kernel receives its row of windows faster than
/// it drains them, catching up during the halo rows — does not register as
/// a missed deadline, while sustained overload still does.
pub fn derive_default_capacity(graph: &AppGraph) -> usize {
    let widest = graph
        .nodes()
        .flat_map(|(_, n)| n.spec().inputs.iter().map(|i| i.size.w as usize))
        .max()
        .unwrap_or(0);
    widest.next_power_of_two().max(64)
}

/// The feedback loops of `graph` with their derived back-edge capacities,
/// one entry per cyclic SCC with a nonzero primed population.
pub fn feedback_loops(graph: &AppGraph) -> Vec<LoopInfo> {
    let default = derive_default_capacity(graph);
    let mut loops = Vec::new();
    for comp in graph.cyclic_sccs() {
        let initial_tokens: u64 = comp
            .iter()
            .map(|&id| graph.node(id).spec().initial_tokens)
            .sum();
        if initial_tokens == 0 {
            // A cycle no kernel ever primes can never drain anyway; the
            // compiler's loop-liveness check flags it instead.
            continue;
        }
        // The component's internal channels, off its members' out-lists,
        // in channel order.
        let member = |id: NodeId| comp.binary_search(&id).is_ok();
        let outgoing = comp.iter().flat_map(|&id| graph.channels_out_of(id));
        let mut channels: Vec<ChannelId> = outgoing
            .filter(|(_, c)| member(c.dst.node))
            .map(|(cid, _)| cid)
            .collect();
        channels.sort_unstable_by_key(|cid| cid.0);
        let from_feedback = |cid: ChannelId| {
            graph.node(graph.channel(cid).src.node).spec().role == NodeRole::Feedback
        };
        let back_edges = channels
            .iter()
            .copied()
            .filter(|&cid| from_feedback(cid))
            .collect();
        // The whole circulating population parks on the back edge whenever
        // external input pauses; a producer may fire while the destination
        // holds at most `cap - 2` items, so absorbing all `P` items needs
        // `P + 1`.
        let back_edge_capacity = (initial_tokens as usize + 1).max(default);
        loops.push(LoopInfo {
            nodes: comp,
            channels,
            back_edges,
            initial_tokens,
            back_edge_capacity,
        });
    }
    loops
}

/// Derive the per-channel capacity plan for `graph`: the widest-row default
/// everywhere, plus back-edge overrides sized so every feedback loop can
/// drain. Acyclic graphs get no overrides, so their plan is byte-identical
/// to the historical flat rule.
pub fn derive_channel_capacities(graph: &AppGraph) -> ChannelCapacities {
    let mut plan = ChannelCapacities::uniform(derive_default_capacity(graph));
    for lp in feedback_loops(graph) {
        if lp.back_edge_capacity > plan.default {
            for &be in &lp.back_edges {
                let cap = lp.back_edge_capacity.max(plan.capacity(be));
                plan.set_override(be, cap);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dim2;
    use crate::graph::GraphBuilder;
    use crate::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, ShapeTransform};
    use crate::method::{MethodCost, MethodSpec};
    use crate::port::{InputSpec, OutputSpec};

    struct Nop;
    impl KernelBehavior for Nop {
        fn fire(&mut self, _m: usize, _d: &FireData<'_>, _o: &mut Emitter<'_>) {}
    }

    fn source_def() -> KernelDef {
        KernelDef::new(
            KernelSpec::new("source")
                .with_role(NodeRole::Source)
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::source(
                    "gen",
                    vec!["out".into()],
                    MethodCost::new(0, 0),
                )),
            || Nop,
        )
    }

    fn pass_def() -> KernelDef {
        KernelDef::new(
            KernelSpec::new("pass")
                .input(InputSpec::stream("in"))
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::on_data(
                    "run",
                    "in",
                    vec!["out".into()],
                    MethodCost::new(1, 0),
                )),
            || Nop,
        )
    }

    fn merge_def() -> KernelDef {
        KernelDef::new(
            KernelSpec::new("merge")
                .input(InputSpec::stream("in0"))
                .input(InputSpec::stream("in1"))
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::on_all_data(
                    "run",
                    &["in0", "in1"],
                    vec!["out".into()],
                    MethodCost::new(1, 0),
                )),
            || Nop,
        )
    }

    fn feedback_def(primed: u64) -> KernelDef {
        KernelDef::new(
            KernelSpec::new("feedback")
                .with_role(NodeRole::Feedback)
                .with_shape(ShapeTransform::Transparent)
                .with_initial_tokens(primed)
                .input(InputSpec::stream("in"))
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::source(
                    "init",
                    vec!["out".into()],
                    MethodCost::new(0, 0),
                ))
                .method(MethodSpec::on_data(
                    "pass",
                    "in",
                    vec!["out".into()],
                    MethodCost::new(1, 0),
                )),
            || Nop,
        )
    }

    fn sink_def() -> KernelDef {
        KernelDef::new(
            KernelSpec::new("sink")
                .with_role(NodeRole::Sink)
                .input(InputSpec::stream("in"))
                .method(MethodSpec::on_data(
                    "take",
                    "in",
                    vec![],
                    MethodCost::new(0, 0),
                )),
            || Nop,
        )
    }

    /// source -> merge -> pass -> feedback(primed) -> merge.in1, pass -> sink
    fn loop_graph(primed: u64) -> (AppGraph, ChannelId) {
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", source_def(), Dim2::new(4, 4), 10.0);
        let mix = b.add("Mix", merge_def());
        let half = b.add("Half", pass_def());
        let fb = b.add("Delay", feedback_def(primed));
        let snk = b.add("Out", sink_def());
        b.connect(src, "out", mix, "in0");
        let back = b.connect(fb, "out", mix, "in1");
        b.connect(mix, "out", half, "in");
        b.connect(half, "out", fb, "in");
        b.connect(half, "out", snk, "in");
        (b.build().unwrap(), back)
    }

    #[test]
    fn acyclic_graph_gets_no_overrides() {
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", source_def(), Dim2::new(4, 4), 10.0);
        let k = b.add("K", pass_def());
        let snk = b.add("Out", sink_def());
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        let g = b.build().unwrap();
        assert!(g.cyclic_sccs().is_empty());
        let plan = derive_channel_capacities(&g);
        assert_eq!(plan.default, 64);
        assert!(plan.overrides().is_empty());
    }

    #[test]
    fn sccs_find_the_feedback_loop() {
        let (g, _) = loop_graph(253);
        let cyclic = g.cyclic_sccs();
        assert_eq!(cyclic.len(), 1);
        let names: Vec<&str> = cyclic[0].iter().map(|&id| &*g.node(id).name).collect();
        assert_eq!(names, ["Mix", "Half", "Delay"]);
    }

    #[test]
    fn back_edge_capacity_covers_the_primed_population() {
        let (g, back) = loop_graph(253);
        let loops = feedback_loops(&g);
        assert_eq!(loops.len(), 1);
        let lp = &loops[0];
        assert_eq!(lp.initial_tokens, 253);
        assert_eq!(lp.back_edges, vec![back]);
        assert_eq!(lp.channels.len(), 3);
        // The whole population must park on the back edge, plus the one
        // item of headroom the `len <= cap - 2` firing rule demands.
        assert_eq!(lp.back_edge_capacity, 254);
        let plan = derive_channel_capacities(&g);
        assert_eq!(plan.capacity(back), lp.back_edge_capacity);
        assert_eq!(plan.overrides().len(), 1);
    }

    #[test]
    fn small_populations_need_no_override() {
        // 29 primed items fit the flat default with room to spare.
        let (g, back) = loop_graph(29);
        let plan = derive_channel_capacities(&g);
        assert!(plan.overrides().is_empty());
        assert_eq!(plan.capacity(back), 64);
    }

    #[test]
    fn unprimed_cycles_are_skipped() {
        let (g, _) = loop_graph(0);
        assert_eq!(g.cyclic_sccs().len(), 1);
        assert!(feedback_loops(&g).is_empty());
        assert!(derive_channel_capacities(&g).overrides().is_empty());
    }
}
