//! Automatic parallelization (§IV): replicate kernels to meet the real-time
//! throughput constraint, inserting split/join FSM kernels to distribute
//! and collect the data, replicating coefficient-style inputs, honoring
//! data-dependency edges (§IV-B), and splitting storage-bound buffers
//! column-wise with halo replication (§IV-C, Fig. 10).

use crate::dataflow::{analyze, Dataflow};
use bp_core::graph::{AppGraph, Channel, ChannelId, NodeId, PortRef};
use bp_core::kernel::{NodeRole, Parallelism};
use bp_core::machine::MachineSpec;
use bp_core::{BpError, Dim2, Result};
use bp_kernels::split::plan_column_ranges;
use std::sync::Arc;

/// Why a node received its replica count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaReason {
    /// One instance suffices.
    Single,
    /// Compute (cycles + I/O time) exceeded one PE.
    Compute,
    /// Storage exceeded one PE's memory (buffers).
    Memory,
    /// A data-dependency edge capped the count (§IV-B).
    DepEdgeCapped,
    /// The kernel sits inside a primed feedback loop: round-robin
    /// split/join replication would break the loop-carried recurrence (each
    /// replica would see every k-th state update), so one instance stands.
    InLoop,
}

/// Per-node parallelization decision.
#[derive(Clone, Debug)]
pub struct NodePlan {
    /// Node name before transformation (shared with the node).
    pub name: Arc<str>,
    /// Replicas demanded by resources alone.
    pub desired: u32,
    /// Replicas actually instantiated.
    pub granted: u32,
    /// Why.
    pub reason: ReplicaReason,
    /// PE-utilization estimate of one instance before replication.
    pub utilization: f64,
}

/// Report of the parallelization pass.
#[derive(Clone, Debug, Default)]
pub struct ParallelizeReport {
    /// Decisions for every node considered.
    pub plans: Vec<NodePlan>,
    /// Names of serial kernels whose single instance exceeds one PE — the
    /// application cannot meet its rate (reported, not fatal, so callers
    /// can present diagnostics).
    pub infeasible_serial: Vec<String>,
    /// Split kernels inserted.
    pub splits_inserted: usize,
    /// Join kernels inserted.
    pub joins_inserted: usize,
    /// Replicate kernels inserted.
    pub replicates_inserted: usize,
}

impl ParallelizeReport {
    /// Total replicas across all parallelized kernels.
    pub fn total_replicas(&self) -> u32 {
        self.plans.iter().map(|p| p.granted).sum()
    }

    /// The plan for a node by (pre-transformation) name.
    pub fn plan_for(&self, name: &str) -> Option<&NodePlan> {
        self.plans.iter().find(|p| &*p.name == name)
    }
}

/// Compute required replicas for every node and transform the graph.
/// Requires a buffered, aligned graph (run §III passes first).
pub fn parallelize(graph: &mut AppGraph, machine: &MachineSpec) -> Result<ParallelizeReport> {
    let df = analyze(graph)?;
    parallelize_analyzed(graph, machine, &df)
}

/// [`parallelize`] on a graph whose data-flow analysis `df` is at hand.
pub(crate) fn parallelize_analyzed(
    graph: &mut AppGraph,
    machine: &MachineSpec,
    df: &Dataflow,
) -> Result<ParallelizeReport> {
    let mut report = ParallelizeReport::default();

    // Desired replica counts.
    let n = graph.node_count();
    let mut desired: Vec<u32> = vec![1; n];
    let mut reasons: Vec<ReplicaReason> = vec![ReplicaReason::Single; n];
    let mut utils: Vec<f64> = vec![0.0; n];
    for (id, node) in graph.nodes() {
        let spec = node.spec();
        let na = &df.nodes[id.0];
        let cpu = na.total_cycles_per_sec(machine) / machine.usable_cycles_per_sec();
        utils[id.0] = cpu;
        let k_cpu = cpu.ceil().max(1.0) as u32;
        let k_mem = if spec.role == NodeRole::Buffer {
            (spec.memory_words() as f64 / machine.pe_memory_words as f64)
                .ceil()
                .max(1.0) as u32
        } else {
            1
        };
        match spec.parallelism {
            Parallelism::DataParallel if spec.role == NodeRole::User => {
                if spec.memory_words() > machine.pe_memory_words {
                    return Err(BpError::Transform(format!(
                        "kernel '{}' needs {} words but a PE has {}; \
                         data-parallel kernels cannot be split across PEs",
                        node.name,
                        spec.memory_words(),
                        machine.pe_memory_words
                    )));
                }
                desired[id.0] = k_cpu;
                if k_cpu > 1 {
                    reasons[id.0] = ReplicaReason::Compute;
                }
            }
            Parallelism::ColumnSplit => {
                desired[id.0] = k_cpu.max(k_mem);
                if desired[id.0] > 1 {
                    reasons[id.0] = if k_mem >= k_cpu {
                        ReplicaReason::Memory
                    } else {
                        ReplicaReason::Compute
                    };
                }
            }
            _ => {
                // Serial kernels, sources, sinks, consts, plumbing.
                if cpu > 1.0 && spec.parallelism == Parallelism::Serial {
                    report.infeasible_serial.push(node.name.to_string());
                }
            }
        }
    }

    // In-loop replication guard: a kernel on a primed feedback cycle cannot
    // be replicated — the split/join round-robin would interleave replicas
    // into the loop-carried stream and change the recurrence — so every
    // member of a cyclic SCC keeps one instance.
    for comp in graph.cyclic_sccs() {
        for id in comp {
            if desired[id.0] > 1 {
                desired[id.0] = 1;
                reasons[id.0] = ReplicaReason::InLoop;
            }
        }
    }

    // Data-dependency caps (§IV-B), to fixpoint.
    let deps: Vec<_> = graph.dep_edges().to_vec();
    loop {
        let mut changed = false;
        for d in &deps {
            let cap = desired[d.src.0];
            if desired[d.dst.0] > cap {
                desired[d.dst.0] = cap.max(1);
                reasons[d.dst.0] = ReplicaReason::DepEdgeCapped;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Room for everything the transform adds: per replicated node, its
    // k - 1 replicas, a distributor per input and a join per output, and
    // k channels on each of those; per column-split buffer at most k - 1
    // parts, a split and a join, and 2k channels.
    let (mut more_nodes, mut more_channels) = (0, 0);
    for (id, node) in graph.nodes() {
        let (k, spec) = (desired[id.0] as usize, node.spec());
        if k > 1 {
            let ports = spec.inputs.len() + spec.outputs.len();
            more_nodes += k - 1 + ports.max(2);
            more_channels += k * ports.max(2);
        }
    }
    graph.reserve(more_nodes, more_channels);

    // Transform. Node ids are stable (nodes are only added), so we iterate
    // over the original id range.
    let mut scratch = Scratch::default();
    for idx in 0..n {
        let id = NodeId(idx);
        let k = desired[idx];
        report.plans.push(NodePlan {
            name: Arc::clone(&graph.node(id).name),
            desired: desired[idx],
            granted: k,
            reason: reasons[idx],
            utilization: utils[idx],
        });
        if k <= 1 {
            continue;
        }
        match graph.node(id).spec().parallelism {
            Parallelism::DataParallel => {
                replicate_data_parallel(graph, df, id, k, &mut report, &mut scratch)?;
            }
            Parallelism::ColumnSplit => {
                split_buffer_columns(graph, df, id, k, &mut report, &mut scratch)?;
            }
            Parallelism::Serial => unreachable!("serial kernels keep k = 1"),
        }
    }

    graph.validate()?;
    Ok(report)
}

/// The transform's working storage, reused from node to node: names are
/// formatted into one buffer and each copied once into its `Arc<str>`.
#[derive(Default)]
struct Scratch {
    name: String,
    channels: Vec<(ChannelId, Channel)>,
}

impl Scratch {
    fn name(&mut self, args: std::fmt::Arguments<'_>) -> Arc<str> {
        use std::fmt::Write;
        self.name.clear();
        self.name
            .write_fmt(args)
            .expect("formatting into a String cannot fail");
        Arc::from(self.name.as_str())
    }

    /// The channels leaving `(node, port)`, in channel order.
    fn channels_from(&mut self, graph: &AppGraph, node: NodeId, port: usize) {
        self.channels.clear();
        let from_port = graph
            .channels_out_of(node)
            .filter(|(_, c)| c.src.port == port);
        self.channels.extend(from_port);
    }
}

/// Replicate a data-parallel kernel behind round-robin split/join kernels
/// (§IV-A). Replicated inputs get replicate fan-outs instead of splits.
fn replicate_data_parallel(
    graph: &mut AppGraph,
    df: &Dataflow,
    id: NodeId,
    k: u32,
    report: &mut ParallelizeReport,
    scratch: &mut Scratch,
) -> Result<()> {
    let base_name = graph.node(id).name.clone();
    // Replicas share the original's spec (and everything resolved from it).
    let def = graph.node(id).def.clone();
    let spec = Arc::clone(&def.spec);

    // Create replicas 1..k; the original node becomes replica 0.
    graph.node_mut(id).name = scratch.name(format_args!("{base_name}_0"));
    let first = graph.node_count();
    for r in 1..k {
        let name = scratch.name(format_args!("{base_name}_{r}"));
        graph.add_node(name, def.clone());
    }
    let replicas = std::iter::once(id).chain((first..graph.node_count()).map(NodeId));

    // Inputs: split or replicate.
    for (port, input) in spec.inputs.iter().enumerate() {
        let (cid, ch) = graph.channel_into(id, port).ok_or_else(|| {
            BpError::Transform(format!(
                "input '{}' of '{base_name}' unconnected",
                input.name
            ))
        })?;
        let grain = df
            .channels
            .get(&cid)
            .map(|c| c.item_dim)
            .unwrap_or(input.size);
        let (node_def, label) = if input.replicated {
            report.replicates_inserted += 1;
            (
                bp_kernels::replicate(k as usize, grain),
                scratch.name(format_args!("Replicate({base_name}.{})", input.name)),
            )
        } else {
            report.splits_inserted += 1;
            (
                bp_kernels::split_rr(k as usize, grain),
                scratch.name(format_args!("Split({base_name}.{})", input.name)),
            )
        };
        let dist = graph.add_node(label, node_def);
        // Retarget the original channel to the distributor...
        graph.set_channel(
            cid,
            bp_core::Channel {
                src: ch.src,
                dst: PortRef {
                    node: dist,
                    port: 0,
                },
            },
        );
        // ...and fan out to the replicas.
        for (r, rep) in replicas.clone().enumerate() {
            graph.add_channel(
                PortRef {
                    node: dist,
                    port: r,
                },
                PortRef { node: rep, port },
            );
        }
    }

    // Outputs: join back in order.
    for (port, output) in spec.outputs.iter().enumerate() {
        scratch.channels_from(graph, id, port);
        if scratch.channels.is_empty() {
            continue;
        }
        report.joins_inserted += 1;
        let join = graph.add_node(
            scratch.name(format_args!("Join({base_name}.{})", output.name)),
            bp_kernels::join_rr(k as usize, output.size),
        );
        // Original consumers now read from the join.
        for &(cid, ch) in &scratch.channels {
            graph.set_channel(
                cid,
                bp_core::Channel {
                    src: PortRef {
                        node: join,
                        port: 0,
                    },
                    dst: ch.dst,
                },
            );
        }
        // Replicas feed the join.
        for (r, rep) in replicas.clone().enumerate() {
            graph.add_channel(
                PortRef { node: rep, port },
                PortRef {
                    node: join,
                    port: r,
                },
            );
        }
    }
    Ok(())
}

/// Split a storage-bound buffer column-wise (§IV-C, Fig. 10): overlapping
/// column ranges with the consumer window's halo replicated, collected by a
/// column-group join that restores scan-line order.
fn split_buffer_columns(
    graph: &mut AppGraph,
    df: &Dataflow,
    id: NodeId,
    k: u32,
    report: &mut ParallelizeReport,
    scratch: &mut Scratch,
) -> Result<()> {
    let base_name = graph.node(id).name.clone();
    let spec = Arc::clone(&graph.node(id).def.spec);
    let out = spec.outputs[0].clone();
    let producer = spec.inputs[0].size;
    if producer != Dim2::ONE {
        return Err(BpError::Transform(format!(
            "buffer '{base_name}' with non-pixel producer grain {} cannot be column-split",
            producer
        )));
    }

    let (in_cid, in_ch) = graph
        .channel_into(id, 0)
        .ok_or_else(|| BpError::Transform(format!("buffer '{base_name}' unconnected")))?;
    let data = df
        .channels
        .get(&in_cid)
        .map(|c| c.shape)
        .ok_or_else(|| BpError::Transform("no shape for buffer input".into()))?;

    let ranges = plan_column_ranges(data.w, out.size.w, out.step.x, k as usize);
    let kk = ranges.len();
    if kk < 2 {
        return Ok(()); // cannot split further; single instance stands
    }
    let counts: Vec<u32> = ranges
        .iter()
        .map(|r| (r.width() - out.size.w) / out.step.x + 1)
        .collect();

    // Split FSM in front.
    report.splits_inserted += 1;
    let split = graph.add_node(
        scratch.name(format_args!("Split({base_name})")),
        bp_kernels::split_columns(ranges.clone()),
    );
    graph.set_channel(
        in_cid,
        bp_core::Channel {
            src: in_ch.src,
            dst: PortRef {
                node: split,
                port: 0,
            },
        },
    );

    // Sub-buffers: the original node becomes part 0 with a narrower extent.
    let mut parts = Vec::with_capacity(kk);
    for (i, r) in ranges.iter().enumerate() {
        let part_data = Dim2::new(r.width(), data.h);
        let def = bp_kernels::buffer(producer, out.size, out.step, part_data);
        let name = scratch.name(format_args!("{base_name}_{i}"));
        if i == 0 {
            graph.node_mut(id).name = name;
            graph.node_mut(id).def = def;
            parts.push(id);
        } else {
            parts.push(graph.add_node(name, def));
        }
    }
    for (i, part) in parts.iter().enumerate() {
        graph.add_channel(
            PortRef {
                node: split,
                port: i,
            },
            PortRef {
                node: *part,
                port: 0,
            },
        );
    }

    // Column-group join behind.
    report.joins_inserted += 1;
    let join = graph.add_node(
        scratch.name(format_args!("Join({base_name})")),
        bp_kernels::join_columns(counts, out.size, data),
    );
    scratch.channels_from(graph, id, 0);
    for &(cid, ch) in &scratch.channels {
        // Skip the channels we just added from split to part 0.
        if ch.dst.node == id || parts.contains(&ch.dst.node) {
            continue;
        }
        graph.set_channel(
            cid,
            bp_core::Channel {
                src: PortRef {
                    node: join,
                    port: 0,
                },
                dst: ch.dst,
            },
        );
    }
    for (i, part) in parts.iter().enumerate() {
        graph.add_channel(
            PortRef {
                node: *part,
                port: 0,
            },
            PortRef {
                node: join,
                port: i,
            },
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GraphCensus;
    use bp_core::{GraphBuilder, Step2};
    use bp_kernels as k;

    fn machine() -> MachineSpec {
        MachineSpec::default_eval()
    }

    /// Buffered conv pipeline at a rate that demands ~3 replicas:
    /// 16x8 iterations/frame * 200 Hz * (85 + 25r + 1w) cycles ≈ 2.8 PEs.
    fn conv_pipeline(rate: f64) -> AppGraph {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, rate);
        let buf = b.add(
            "Buffer(Conv.in)",
            k::buffer(Dim2::ONE, Dim2::new(5, 5), Step2::ONE, dim),
        );
        let conv = b.add("Conv", k::conv2d(5, 5));
        let coeff = b.add("Coeff", k::const_source("coeff", k::box_coefficients(5, 5)));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", buf, "in");
        b.connect(buf, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(conv, "out", snk, "in");
        b.build().unwrap()
    }

    #[test]
    fn fast_input_replicates_conv_three_ways() {
        let mut g = conv_pipeline(200.0);
        let report = parallelize(&mut g, &machine()).unwrap();
        let plan = report.plan_for("Conv").unwrap();
        assert_eq!(plan.granted, 3, "utilization {:.2}", plan.utilization);
        assert_eq!(plan.reason, ReplicaReason::Compute);
        // Conv_0..2 exist, one split on the data path, one replicate for
        // the coefficients, one join on the output.
        assert!(g.find_node("Conv_0").is_some());
        assert!(g.find_node("Conv_2").is_some());
        assert!(g.find_node("Split(Conv.in)").is_some());
        assert!(g.find_node("Replicate(Conv.coeff)").is_some());
        assert!(g.find_node("Join(Conv.out)").is_some());
        g.validate().unwrap();
    }

    #[test]
    fn slow_input_needs_no_replication() {
        let mut g = conv_pipeline(50.0);
        let before = g.node_count();
        let report = parallelize(&mut g, &machine()).unwrap();
        assert_eq!(report.plan_for("Conv").unwrap().granted, 1);
        assert_eq!(g.node_count(), before);
    }

    #[test]
    fn dep_edge_caps_merge_parallelism() {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        // Very fast input: histogram alone would want several replicas.
        let src = b.add_source("Input", k::pattern_source(dim), dim, 400.0);
        let hist = b.add("Histogram", k::histogram(32));
        let bins = b.add(
            "Bins",
            k::const_source("bins", k::uniform_bins(32, 0.0, 256.0)),
        );
        let merge = b.add("Merge", k::histogram_merge(32));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", hist, "in");
        b.connect(bins, "out", hist, "bins");
        b.connect(hist, "out", merge, "in");
        b.connect(merge, "out", snk, "in");
        b.dep_edge(src, merge);
        let mut g = b.build().unwrap();
        let report = parallelize(&mut g, &machine()).unwrap();
        let hp = report.plan_for("Histogram").unwrap();
        assert!(hp.granted > 1, "histogram should replicate: {hp:?}");
        let mp = report.plan_for("Merge").unwrap();
        assert_eq!(mp.granted, 1);
        g.validate().unwrap();
    }

    #[test]
    fn oversized_buffer_splits_by_columns() {
        // 64-wide data: buffer storage 64*10=640 words > 320/PE => 2+ parts.
        let dim = Dim2::new(64, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 10.0);
        let buf = b.add(
            "Buffer(Conv.in)",
            k::buffer(Dim2::ONE, Dim2::new(5, 5), Step2::ONE, dim),
        );
        let conv = b.add("Conv", k::conv2d(5, 5));
        let coeff = b.add("Coeff", k::const_source("coeff", k::box_coefficients(5, 5)));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", buf, "in");
        b.connect(buf, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(conv, "out", snk, "in");
        let mut g = b.build().unwrap();
        let report = parallelize(&mut g, &machine()).unwrap();
        let bp = report.plan_for("Buffer(Conv.in)").unwrap();
        assert!(bp.granted >= 2, "{bp:?}");
        assert_eq!(bp.reason, ReplicaReason::Memory);
        assert!(g.find_node("Split(Buffer(Conv.in))").is_some());
        assert!(g.find_node("Join(Buffer(Conv.in))").is_some());
        assert!(g.find_node("Buffer(Conv.in)_0").is_some());
        assert!(g.find_node("Buffer(Conv.in)_1").is_some());
        // Each part's storage now fits a PE.
        let p0 = g.find_node("Buffer(Conv.in)_0").unwrap();
        assert!(g.node(p0).spec().state_words <= machine().pe_memory_words);
        g.validate().unwrap();
    }

    /// Regression for the in-loop replication guard, on the
    /// `examples/feedback_loop.rs` graph (`bp_apps::apps::temporal_iir`):
    /// at a frame rate where `Mix`/`Half` exceed one PE, the old pass
    /// would wrap them in round-robin split/join — interleaving replicas
    /// into the loop-carried stream and silently corrupting the IIR
    /// recurrence. Every member of the feedback cycle must instead keep a
    /// single instance, reported as [`ReplicaReason::InLoop`].
    #[test]
    fn feedback_loop_kernels_are_never_replicated() {
        let mut app = bp_apps::apps::temporal_iir(Dim2::new(20, 12), 50_000.0);
        let report = parallelize(&mut app.graph, &machine()).unwrap();
        let mut in_loop_caps = 0;
        for name in ["Mix", "Half", "FrameDelay"] {
            let plan = report.plan_for(name).unwrap();
            assert_eq!(
                plan.granted, 1,
                "{name} replicated inside the loop: {plan:?}"
            );
            if plan.reason == ReplicaReason::InLoop {
                in_loop_caps += 1;
                assert!(
                    plan.utilization > 1.0,
                    "{name} capped without over-utilization: {plan:?}"
                );
            }
        }
        assert!(
            in_loop_caps >= 1,
            "rate too low to exercise the guard: {:?}",
            report.plans
        );
        // No split/join/replicate plumbing appeared around loop members.
        assert!(app.graph.find_node("Mix_1").is_none());
        assert!(app.graph.find_node("Split(Mix.in0)").is_none());
        app.graph.validate().unwrap();

        // The recurrence still holds end to end: out_f = (in_f + out_{f-1})/2.
        let mut ex = bp_sim::FunctionalExecutor::new(&app.graph).unwrap();
        ex.run_frames(3).unwrap();
        let frames = app.sinks[0].1.frames();
        assert_eq!(frames.len(), 3);
        let mut prev = vec![0.0; 20 * 12];
        for (f, got) in frames.iter().enumerate() {
            let input: Vec<f64> = bp_apps::reference::pattern_frame(20, 12, f as u32)
                .into_iter()
                .flatten()
                .collect();
            let expected: Vec<f64> = input
                .iter()
                .zip(&prev)
                .map(|(i, p)| 0.5 * (i + p))
                .collect();
            for (g, e) in got.iter().zip(&expected) {
                assert!((g - e).abs() < 1e-12, "frame {f} diverged after the guard");
            }
            prev = expected;
        }
    }

    #[test]
    fn role_census_matches_fig4_shape() {
        // Small/fast: conv x3 and its split/join/replicate set.
        let mut g = conv_pipeline(200.0);
        parallelize(&mut g, &machine()).unwrap();
        let census = GraphCensus::of(&g);
        assert_eq!(census.role("Split"), 1);
        assert_eq!(census.role("Join"), 1);
        assert_eq!(census.role("Replicate"), 1);
        assert_eq!(census.role("User"), 3);
    }
}
