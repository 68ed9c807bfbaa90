//! # bp-codegen — canonical app shapes
//!
//! [`shape_key`] hashes the structural facts of an application graph —
//! kernel specs, port geometry, method triggers and costs, channel
//! topology, source pacing — and nothing of its instance names, so two
//! tenants of one shape share a key. The fleet host keys tenant tapes, the
//! fleet digest and its shape counts on it (DESIGN.md §16).
//!
//! Planning needs nothing from this crate: the mask planner the timed
//! engine runs for every kernel that fits it (`bp_sim::RtNode::plan_masked`)
//! reads the trigger / data masks every spec's
//! [`MethodTable`](bp_core::MethodTable) already holds (DESIGN.md §13).
//! [`lower_graph`] and [`ThreadedProgram`] remain only because the frozen
//! benchmark package still calls them; they refuse a kernel the mask
//! planner cannot hold and hand back a program nothing reads.

#![warn(missing_docs)]

mod shape;

pub use shape::shape_key;

use bp_core::{AppGraph, BpError, Result};

/// What [`lower_graph`] returns: a receipt that the graph's tables
/// resolve and fit the mask planner. Nothing reads it; kept so the frozen
/// benchmark package compiles, and removed with it.
#[derive(Debug)]
pub struct ThreadedProgram {
    /// Number of graph nodes checked.
    pub nodes: usize,
}

/// Check every node of `graph` for the mask planner: its
/// method table resolves (a method naming a port its kernel lacks — a
/// graph that was never validated — is an error naming the node), and its
/// kernel has at most 64 input ports
/// ([`MethodTable::fits_masks`](bp_core::MethodTable::fits_masks)). Kept
/// only for the frozen benchmark package, whose `codegen.lower_failed`
/// count reads these refusals.
pub fn lower_graph(graph: &AppGraph) -> Result<ThreadedProgram> {
    for (_, n) in graph.nodes() {
        if !n.method_table()?.fits_masks() {
            let spec = n.spec();
            return Err(BpError::Validation(format!(
                "kernel '{}' has {} input ports; the mask planner supports at most 64",
                spec.kind,
                spec.inputs.len(),
            )));
        }
    }
    Ok(ThreadedProgram {
        nodes: graph.node_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Dim2;

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
        assert_eq!(lower_graph(&wide_join_graph(65)).unwrap_err(), want);
        // One port fewer is what the planner holds.
        let graph = wide_join_graph(64);
        let program = lower_graph(&graph).expect("64 inputs lower");
        assert_eq!(program.nodes, graph.node_count());
    }
}
