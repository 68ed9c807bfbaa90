//! Liveness properties of the feedback-aware capacity derivation
//! (DESIGN.md §12), seeded with the in-tree `bp_core::Rng64` (no external
//! property-testing crate).
//!
//! Each case builds a random chain of 1:1 kernels threaded through 1–3
//! node-disjoint feedback loops (merge + loop body + primed feedback
//! kernel, the `temporal_iir` shape at random sizes) and checks the two
//! halves of the §III-D sizing rule:
//!
//! - **Sufficiency**: under the derived per-channel plan, every graph
//!   completes under zero and nonzero comm models.
//! - **Sharpness**: lowering any one derived back-edge capacity by a
//!   single item deadlocks the graph, and the structured
//!   `DeadlockReport` names exactly the starved loop (a starved-loop
//!   cycle, not a wait-for cycle: the merge node is waiting for external
//!   data, so only the back edge is full) with the minimal capacity bump
//!   pointing back at the derived bound.

use bp_compiler::{compile, CompileOptions};
use bp_core::capacity::{derive_channel_capacities, feedback_loops};
use bp_core::graph::AppGraph;
use bp_core::{ChannelId, CommModel, Dim2, Rng64};
use bp_kernels as k;
use bp_sim::{SimConfig, SimOutcome, TimedSimulator};

const FRAMES: u32 = 2;
const CASES: u64 = 8;

/// Frame sizes whose primed population `w·h + h + 1` exceeds the 64-item
/// flat default, so the back-edge override is always load-bearing.
const DIMS: &[Dim2] = &[
    Dim2::new(10, 8),
    Dim2::new(12, 6),
    Dim2::new(16, 8),
    Dim2::new(20, 12),
];

/// A random loop chain: source → [optional pre-scale] → 1..=3 feedback
/// loop segments → sink. Each segment is `Mix(add) → 1..=2 scale nodes →
/// FeedbackFrame → Mix.in1`, with the chain continuing from the last
/// body node — every kernel is rate 1:1, so each loop's primed
/// population is conserved and circulates forever.
fn random_loop_chain(rng: &mut Rng64) -> (AppGraph, usize) {
    let dim = DIMS[rng.gen_index(DIMS.len())];
    let mut b = bp_core::GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, 50.0);
    let mut prev = src;
    if rng.gen_bool() {
        let p = b.add("Pre", k::scale(0.9, 0.0));
        b.connect(prev, "out", p, "in");
        prev = p;
    }
    let n_loops = 1 + rng.gen_index(3);
    for i in 0..n_loops {
        let mix = b.add(format!("Mix{i}"), k::add());
        b.connect(prev, "out", mix, "in0");
        let mut body = mix;
        // Keep the loop gain below 1 so the recirculating sum stays finite.
        for j in 0..=rng.gen_index(2) {
            let s = b.add(
                format!("S{i}_{j}"),
                k::scale(rng.gen_range_f64(0.3, 0.6), 0.0),
            );
            b.connect(body, "out", s, "in");
            body = s;
        }
        let fb = b.add(format!("FB{i}"), k::feedback_frame(dim, 0.0));
        b.connect(body, "out", fb, "in");
        b.connect(fb, "out", mix, "in1");
        prev = body;
    }
    let (sdef, _h) = k::sink();
    let snk = b.add("Out", sdef);
    b.connect(prev, "out", snk, "in");
    (b.build().expect("loop chain is well-formed"), n_loops)
}

fn channel_name(graph: &AppGraph, cid: ChannelId) -> String {
    let c = graph.channel(cid);
    let src = graph.node(c.src.node);
    let dst = graph.node(c.dst.node);
    format!(
        "{}.{} -> {}.{}",
        src.name,
        src.spec().outputs[c.src.port].name,
        dst.name,
        dst.spec().inputs[c.dst.port].name
    )
}

fn hop_name(h: &bp_sim::DeadlockHop) -> String {
    format!("{}.{} -> {}.{}", h.src, h.src_port, h.dst, h.dst_port)
}

/// Sufficiency: the derived plan keeps every random loop chain live under
/// zero and nonzero delay.
#[test]
fn derived_capacities_never_deadlock() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x11fe_0000 + case);
        let (graph, n_loops) = random_loop_chain(&mut rng);
        let compiled = compile(&graph, &CompileOptions::default()).expect("compile loop chain");
        let loops = feedback_loops(&compiled.graph);
        assert_eq!(loops.len(), n_loops, "case {case}: loop census");
        for lp in &loops {
            assert!(
                lp.back_edge_capacity > 64,
                "case {case}: premise — every loop's bound must exceed the flat default"
            );
        }
        for (mname, comm) in [
            ("zero", CommModel::zero()),
            ("uniform", CommModel::uniform(64e-9, 1e-9)),
        ] {
            let config = SimConfig::new(FRAMES).with_comm(comm);
            let outcome = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
                .expect("instantiate")
                .run_outcome();
            if let SimOutcome::Deadlocked(d) = outcome {
                panic!(
                    "case {case} under {mname}: derived plan deadlocked:\n{}",
                    d.render()
                );
            }
        }
    }
}

/// Sharpness: one item below the derived bound on any single back edge
/// deadlocks the chain, and the report names that loop precisely.
#[test]
fn one_below_the_bound_starves_the_loop() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x11fe_0000 + case);
        let (graph, _) = random_loop_chain(&mut rng);
        let compiled = compile(&graph, &CompileOptions::default()).expect("compile loop chain");
        let loops = feedback_loops(&compiled.graph);
        let lp = &loops[rng.gen_index(loops.len())];
        let be = lp.back_edges[0];
        let be_name = channel_name(&compiled.graph, be);
        let lowered =
            derive_channel_capacities(&compiled.graph).with_override(be, lp.back_edge_capacity - 1);
        let config = SimConfig::new(FRAMES).with_channel_capacities(lowered);

        let outcome = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
            .expect("instantiate")
            .run_outcome();
        let SimOutcome::Deadlocked(seq) = outcome else {
            panic!(
                "case {case}: '{be_name}' at {} (one below the bound {}) should deadlock",
                lp.back_edge_capacity - 1,
                lp.back_edge_capacity
            );
        };

        // The walk of blocked producers dead-ends at the starved merge
        // node (it has no plan — its external input is exhausted), so the
        // diagnosis is a starved-loop cycle, not a wait-for cycle.
        assert!(
            !seq.blocked_cycle,
            "case {case}: expected a starved loop, got a wait-for cycle:\n{}",
            seq.render()
        );
        let loop_nodes: Vec<&str> = lp
            .nodes
            .iter()
            .map(|&id| &*compiled.graph.node(id).name)
            .collect();
        assert_eq!(
            seq.cycle.len(),
            lp.channels.len(),
            "case {case}: cycle should trace the whole starved loop:\n{}",
            seq.render()
        );
        assert!(
            seq.cycle.iter().any(|h| hop_name(h) == be_name),
            "case {case}: cycle missing the starved back edge '{be_name}':\n{}",
            seq.render()
        );
        for h in &seq.cycle {
            assert!(
                loop_nodes.contains(&h.src.as_str()) && loop_nodes.contains(&h.dst.as_str()),
                "case {case}: hop {} strayed outside loop {loop_nodes:?}",
                hop_name(h)
            );
        }
        // The minimal fix is the derived bound itself — the sizing rule
        // is sharp, not merely sufficient.
        let bump = seq
            .min_capacity_bump
            .as_ref()
            .expect("a starved loop admits a capacity bump");
        assert_eq!(
            bump.channel, be_name,
            "case {case}: bump names the wrong channel"
        );
        assert_eq!(
            bump.current,
            lp.back_edge_capacity - 1,
            "case {case}: bump current"
        );
        assert_eq!(
            bump.required, lp.back_edge_capacity,
            "case {case}: minimal fix must equal the derived bound"
        );
    }
}
