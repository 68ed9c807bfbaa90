//! Pipeline fusion (§IV-B's "multiple parallel pipelines"): when a
//! round-robin join immediately feeds a round-robin split of the same
//! width, the pair is an identity routing — item `j` leaves replica
//! `j mod k` of the producer and re-enters replica `j mod k` of the
//! consumer. Fusing bypasses both FSMs, wiring replica `i` of the upstream
//! stage directly to replica `i` of the downstream stage: the compiler's
//! realization of parallel pipelines, saving two kernels, their PE time,
//! and a hop of latency per stage boundary.
//!
//! The rewrite is safe for the automatic tokens too: the split broadcast
//! every EOL/EOF to all upstream replicas, so each replica's output stream
//! already carries the full token sequence the downstream replica expects.

use bp_core::graph::{AppGraph, NodeId};
use bp_core::kernel::NodeRole;
use bp_core::{BpError, Result};

/// Report of the fusion pass.
#[derive(Clone, Debug, Default)]
pub struct FuseReport {
    /// `(join, split)` pairs bypassed, by node name.
    pub fused: Vec<(String, String)>,
}

/// Fuse every `join_rr -> split_rr` pair of matching width whose join output
/// has the split as its only consumer. Returns what was fused; the graph is
/// compacted (the orphaned FSM nodes disappear and node ids are renumbered).
pub fn fuse_pipelines(graph: &mut AppGraph) -> Result<FuseReport> {
    let mut report = FuseReport::default();
    while let Some((join, split)) = find_candidate(graph) {
        let k = graph.node(join).spec().inputs.len();
        let jname = graph.node(join).name.to_string();
        let sname = graph.node(split).name.to_string();

        // Per lane i: retarget the channel feeding join.in_i to the
        // destination of split.out_i, then drop the split-side channel.
        for i in 0..k {
            let (a_cid, _a_ch) = graph.channel_into(join, i).ok_or_else(|| {
                BpError::Transform(format!("join '{jname}' input {i} unconnected"))
            })?;
            let outs = graph.channels_from(split, i);
            if outs.len() != 1 {
                return Err(BpError::Transform(format!(
                    "split '{sname}' output {i} has fan-out {}, expected 1",
                    outs.len()
                )));
            }
            let (b_cid, b_ch) = outs[0];
            let a_ch = graph.channel(a_cid);
            graph.set_channel(
                a_cid,
                bp_core::Channel {
                    src: a_ch.src,
                    dst: b_ch.dst,
                },
            );
            graph.remove_channel(b_cid);
        }
        // Drop the join -> split link; both nodes are now fully detached.
        let (js_cid, _) = graph
            .channel_into(split, 0)
            .ok_or_else(|| BpError::Transform(format!("split '{sname}' input unconnected")))?;
        graph.remove_channel(js_cid);
        graph.compact();
        report.fused.push((jname, sname));
    }
    if !report.fused.is_empty() {
        graph.validate()?;
    }
    Ok(report)
}

/// Find one fusable `join_rr -> split_rr` pair.
fn find_candidate(graph: &AppGraph) -> Option<(NodeId, NodeId)> {
    for (id, node) in graph.nodes() {
        let spec = node.spec();
        if spec.role != NodeRole::Join || spec.kind != "join_rr" {
            continue;
        }
        let outs = graph.channels_from(id, 0);
        if outs.len() != 1 {
            continue;
        }
        let consumer = outs[0].1.dst.node;
        let cspec = graph.node(consumer).spec();
        if cspec.role != NodeRole::Split || cspec.kind != "split_rr" {
            continue;
        }
        if cspec.outputs.len() != spec.inputs.len() {
            continue; // widths differ: routing is not the identity
        }
        // Every split output must have exactly one consumer for a clean
        // lane-to-lane rewrite.
        let k = cspec.outputs.len();
        if (0..k).any(|i| graph.channels_from(consumer, i).len() != 1) {
            continue;
        }
        return Some((id, consumer));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::{align, AlignPolicy};
    use crate::buffering::insert_buffers;
    use crate::parallelize::parallelize;
    use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
    use bp_core::method::{MethodCost, MethodSpec};
    use bp_core::port::{InputSpec, OutputSpec};
    use bp_core::{Dim2, GraphBuilder, MachineSpec, Window};
    use bp_kernels as k;
    use bp_sim::FunctionalExecutor;

    fn heavy(name_cost: u64) -> KernelDef {
        struct H;
        impl KernelBehavior for H {
            fn fire(&mut self, _m: &str, d: &FireData<'_>, out: &mut Emitter<'_>) {
                out.window("out", Window::scalar(d.window("in").as_scalar() + 1.0));
            }
        }
        KernelDef::new(
            KernelSpec::new("heavy")
                .input(InputSpec::stream("in"))
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::on_data(
                    "run",
                    "in",
                    vec!["out".into()],
                    MethodCost::new(name_cost, 1),
                )),
            || H,
        )
    }

    /// A -> B pipeline where both stages want the same replica count.
    fn pipeline_graph() -> (AppGraph, k::SinkHandle) {
        let dim = Dim2::new(16, 8);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 100.0);
        let a = b.add("A", heavy(200));
        let bb = b.add("B", heavy(200));
        let (sdef, h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", a, "in");
        b.connect(a, "out", bb, "in");
        b.connect(bb, "out", snk, "in");
        b.dep_edge(a, bb);
        (b.build().unwrap(), h)
    }

    fn prepared() -> (AppGraph, k::SinkHandle) {
        let (mut g, h) = pipeline_graph();
        align(&mut g, AlignPolicy::Trim).unwrap();
        insert_buffers(&mut g).unwrap();
        parallelize(&mut g, &MachineSpec::default_eval()).unwrap();
        (g, h)
    }

    #[test]
    fn fuses_matched_join_split_pair() {
        let (mut g, _h) = prepared();
        assert!(g.find_node("Join(A.out)").is_some());
        assert!(g.find_node("Split(B.in)").is_some());
        let before = g.node_count();
        let report = fuse_pipelines(&mut g).unwrap();
        assert_eq!(report.fused.len(), 1);
        assert_eq!(report.fused[0].0, "Join(A.out)");
        assert_eq!(report.fused[0].1, "Split(B.in)");
        assert!(g.find_node("Join(A.out)").is_none());
        assert!(g.find_node("Split(B.in)").is_none());
        assert_eq!(g.node_count(), before - 2);
        // Replica lanes wired through: A_i -> B_i.
        let a0 = g.find_node("A_0").unwrap();
        let (_, ch) = g.out_channels(a0)[0];
        assert!(g.node(ch.dst.node).name.starts_with("B_"));
        g.validate().unwrap();
    }

    #[test]
    fn fused_pipeline_is_bit_identical() {
        let (mut fused, hf) = prepared();
        fuse_pipelines(&mut fused).unwrap();
        let (unfused, hu) = prepared();

        let mut ex = FunctionalExecutor::new(&fused).unwrap();
        ex.run_frames(2).unwrap();
        assert_eq!(ex.residual_items(), 0);
        let mut ex = FunctionalExecutor::new(&unfused).unwrap();
        ex.run_frames(2).unwrap();

        assert_eq!(hf.frames(), hu.frames());
        assert_eq!(hf.frames().len(), 2);
        // Values: pattern + 2 (two +1 stages).
        assert_eq!(
            hf.frames()[0][0],
            bp_apps::reference::pattern_pixel(0, 0, 0) + 2.0
        );
    }

    #[test]
    fn mismatched_widths_are_not_fused() {
        // A x2 feeding B x3 (different costs): widths differ, no fusion.
        let dim = Dim2::new(16, 8);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 100.0);
        let a = b.add("A", heavy(150)); // ~2 replicas
        let bb = b.add("B", heavy(350)); // ~5 replicas
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", a, "in");
        b.connect(a, "out", bb, "in");
        b.connect(bb, "out", snk, "in");
        let mut g = b.build().unwrap();
        align(&mut g, AlignPolicy::Trim).unwrap();
        insert_buffers(&mut g).unwrap();
        let rep = parallelize(&mut g, &MachineSpec::default_eval()).unwrap();
        let ka = rep.plan_for("A").unwrap().granted;
        let kb = rep.plan_for("B").unwrap().granted;
        assert_ne!(ka, kb, "test requires differing widths");
        let report = fuse_pipelines(&mut g).unwrap();
        assert!(report.fused.is_empty());
        g.validate().unwrap();
    }

    #[test]
    fn graph_without_pairs_is_untouched() {
        let (g0, _h) = pipeline_graph();
        let mut g = g0.clone();
        let report = fuse_pipelines(&mut g).unwrap();
        assert!(report.fused.is_empty());
        assert_eq!(g.node_count(), g0.node_count());
    }
}
