//! Reuse-optimized buffering (Fig. 9): an alternative parallelization for
//! buffer→kernel pairs.
//!
//! The default transformation (Fig. 9a) round-robins windows from one
//! buffer to the kernel replicas, which destroys the in-order data reuse a
//! windowed kernel could otherwise exploit (each replica sees every k-th
//! window, so consecutive windows share nothing). The reuse-optimized form
//! replicates the *input buffer* column-wise so each replica consumes its
//! own column range in order (Fig. 9b), recovering the `(wh - s_x s_y)/wh`
//! steady-state reuse; correct output buffering (Fig. 9c) adds slack after
//! each replica so none stalls the in-order collection. The paper describes
//! this optimization but did not evaluate it; here it is implemented and
//! benchmarked as an ablation.

use crate::dataflow::analyze;
use crate::parallelize::{parallelize, ParallelizeReport};
use bp_core::geometry::steady_state_reuse;
use bp_core::graph::{AppGraph, NodeId, PortRef};
use bp_core::kernel::{NodeRole, Parallelism};
use bp_core::machine::MachineSpec;
use bp_core::{BpError, Dim2, Result, Step2};
use bp_kernels::split::plan_column_ranges;
use std::sync::Arc;

/// Which Fig. 9 buffering strategy to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReuseVariant {
    /// Fig. 9a: single input buffer, round-robin split (the default pass).
    RoundRobin,
    /// Fig. 9b: column-split input buffers feeding replicas directly, no
    /// extra output buffering.
    SplitInput,
    /// Fig. 9c: 9b plus pass-through output buffers for stall-free
    /// collection.
    SplitInputBufferedOutput,
}

/// Report of the reuse transformation.
#[derive(Clone, Debug)]
pub struct ReuseReport {
    /// Variant applied.
    pub variant: ReuseVariant,
    /// `(buffer, kernel, replicas)` groups transformed.
    pub groups: Vec<(String, String, u32)>,
    /// Steady-state reuse fraction each replica now enjoys at the
    /// buffer→kernel interface (0 under round-robin distribution).
    pub reuse_fraction: f64,
    /// The standard parallelization report for the rest of the graph.
    pub parallelize: ParallelizeReport,
}

/// Apply the selected Fig. 9 strategy to every buffer→kernel pair that
/// needs compute replication, then run the standard parallelization pass
/// for everything else. Expects an aligned, buffered graph.
pub fn parallelize_with_reuse(
    graph: &mut AppGraph,
    machine: &MachineSpec,
    variant: ReuseVariant,
) -> Result<ReuseReport> {
    let mut groups = Vec::new();
    let mut reuse_fraction = 0.0;
    if variant != ReuseVariant::RoundRobin {
        let df = analyze(graph)?;
        // Find candidates first (immutable scan), then transform.
        let mut candidates: Vec<(NodeId, NodeId, u32)> = Vec::new();
        for (id, node) in graph.nodes() {
            let spec = node.spec();
            if spec.role != NodeRole::Buffer {
                continue;
            }
            let outs = graph.out_channels(id);
            if outs.len() != 1 {
                continue;
            }
            let consumer = outs[0].1.dst.node;
            let cspec = graph.node(consumer).spec();
            if cspec.role != NodeRole::User
                || cspec.parallelism != Parallelism::DataParallel
                || cspec.outputs.len() != 1
            {
                continue;
            }
            // Consumer must have exactly one non-replicated data input (the
            // buffered one).
            let data_inputs = cspec.inputs.iter().filter(|i| !i.replicated).count();
            if data_inputs != 1 {
                continue;
            }
            let util = df.nodes[consumer.0].total_cycles_per_sec(machine)
                / machine.usable_cycles_per_sec();
            let k = util.ceil().max(1.0) as u32;
            if k < 2 {
                continue;
            }
            candidates.push((id, consumer, k));
        }
        for (buf, consumer, k) in candidates {
            let spec = Arc::clone(&graph.node(consumer).def.spec);
            let input = spec.inputs.iter().find(|i| !i.replicated).unwrap();
            reuse_fraction = steady_state_reuse(input.size, input.step);
            let bname = graph.node(buf).name.to_string();
            let cname = graph.node(consumer).name.to_string();
            transform_group(graph, &df, buf, consumer, k, variant)?;
            groups.push((bname, cname, k));
        }
    }
    let parallelize_report = parallelize(graph, machine)?;
    Ok(ReuseReport {
        variant,
        groups,
        reuse_fraction,
        parallelize: parallelize_report,
    })
}

fn transform_group(
    graph: &mut AppGraph,
    df: &crate::dataflow::Dataflow,
    buf: NodeId,
    consumer: NodeId,
    k: u32,
    variant: ReuseVariant,
) -> Result<()> {
    let bspec = Arc::clone(&graph.node(buf).def.spec);
    let cspec = Arc::clone(&graph.node(consumer).def.spec);
    let out = bspec.outputs[0].clone();
    let producer = bspec.inputs[0].size;
    if producer != Dim2::ONE {
        return Err(BpError::Transform(
            "reuse optimization requires pixel-grain buffer input".into(),
        ));
    }
    let (in_cid, in_ch) = graph.channel_into(buf, 0).unwrap();
    let data = df
        .channels
        .get(&in_cid)
        .map(|c| c.shape)
        .ok_or_else(|| BpError::Transform("no shape at reuse buffer".into()))?;
    let ranges = plan_column_ranges(data.w, out.size.w, out.step.x, k as usize);
    let kk = ranges.len();
    if kk < 2 {
        return Ok(());
    }
    let counts: Vec<u32> = ranges
        .iter()
        .map(|r| (r.width() - out.size.w) / out.step.x + 1)
        .collect();
    let iters_y = (data.h - out.size.h) / out.step.y + 1;

    let bname = graph.node(buf).name.clone();
    let cname = graph.node(consumer).name.clone();

    // Split FSM on the pixel stream.
    let split = graph.add_node(
        format!("Split({bname})"),
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

    // Column-range sub-buffers; the original becomes part 0.
    let mut bufs = Vec::with_capacity(kk);
    for (i, r) in ranges.iter().enumerate() {
        let part_data = Dim2::new(r.width(), data.h);
        let def = bp_kernels::buffer(producer, out.size, out.step, part_data);
        if i == 0 {
            graph.node_mut(buf).name = format!("{bname}_0").into();
            graph.node_mut(buf).def = def;
            bufs.push(buf);
        } else {
            bufs.push(graph.add_node(format!("{bname}_{i}"), def));
        }
        graph.add_channel(
            PortRef {
                node: split,
                port: i,
            },
            PortRef {
                node: bufs[i],
                port: 0,
            },
        );
    }

    // Consumer replicas, each fed in-order by its own buffer.
    let cdef = graph.node(consumer).def.clone();
    let data_port = cspec.inputs.iter().position(|i| !i.replicated).unwrap();
    let mut reps = Vec::with_capacity(kk);
    graph.node_mut(consumer).name = format!("{cname}_0").into();
    reps.push(consumer);
    for i in 1..kk {
        reps.push(graph.add_node(format!("{cname}_{i}"), cdef.clone()));
    }
    // Retarget the buffer->consumer channel to buffer_0 -> consumer_0; it
    // already points there (buf is part 0, consumer is replica 0).
    for (i, (&b, &c)) in bufs.iter().zip(&reps).enumerate() {
        if i == 0 {
            continue;
        }
        graph.add_channel(
            PortRef { node: b, port: 0 },
            PortRef {
                node: c,
                port: data_port,
            },
        );
    }

    // Replicated (coefficient) inputs fan out to every replica.
    for (port, input) in cspec.inputs.iter().enumerate() {
        if !input.replicated {
            continue;
        }
        let (cid, ch) = graph.channel_into(consumer, port).unwrap();
        let rep = graph.add_node(
            format!("Replicate({cname}.{})", input.name),
            bp_kernels::replicate(kk, input.size),
        );
        graph.set_channel(
            cid,
            bp_core::Channel {
                src: ch.src,
                dst: PortRef { node: rep, port: 0 },
            },
        );
        for (i, &c) in reps.iter().enumerate() {
            graph.add_channel(PortRef { node: rep, port: i }, PortRef { node: c, port });
        }
    }

    // Optional pass-through output buffers (Fig. 9c).
    let tails: Vec<NodeId> = if variant == ReuseVariant::SplitInputBufferedOutput {
        reps.iter()
            .enumerate()
            .map(|(i, &c)| {
                let ob = graph.add_node(
                    format!("OutBuf({cname}_{i})"),
                    bp_kernels::buffer(
                        cspec.outputs[0].size,
                        cspec.outputs[0].size,
                        Step2::new(cspec.outputs[0].size.w, cspec.outputs[0].size.h),
                        Dim2::new(counts[i] * cspec.outputs[0].size.w, iters_y),
                    ),
                );
                graph.add_channel(PortRef { node: c, port: 0 }, PortRef { node: ob, port: 0 });
                ob
            })
            .collect()
    } else {
        reps.clone()
    };

    // Column-group join restores scan order.
    let join = graph.add_node(
        format!("Join({cname})"),
        bp_kernels::join_columns(
            counts.clone(),
            cspec.outputs[0].size,
            Dim2::new(
                counts.iter().sum::<u32>() * cspec.outputs[0].size.w,
                iters_y * cspec.outputs[0].size.h,
            ),
        ),
    );
    for (cid, ch) in graph.channels_from(consumer, 0) {
        if ch.dst.node == join || bufs.contains(&ch.dst.node) || tails.contains(&ch.dst.node) {
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
    for (i, &t) in tails.iter().enumerate() {
        graph.add_channel(
            PortRef { node: t, port: 0 },
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
    use crate::align::{align, AlignPolicy};
    use crate::buffering::insert_buffers;
    use bp_core::GraphBuilder;
    use bp_kernels as k;

    fn conv_app(rate: f64) -> (AppGraph, k::SinkHandle) {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, rate);
        let conv = b.add("Conv", k::conv2d(5, 5));
        let coeff = b.add("Coeff", k::const_source("coeff", k::box_coefficients(5, 5)));
        let (sdef, h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(conv, "out", snk, "in");
        (b.build().unwrap(), h)
    }

    fn prepared(rate: f64) -> (AppGraph, k::SinkHandle) {
        let (mut g, h) = conv_app(rate);
        align(&mut g, AlignPolicy::Trim).unwrap();
        insert_buffers(&mut g).unwrap();
        (g, h)
    }

    #[test]
    fn split_input_variant_builds_per_replica_buffers() {
        let (mut g, _h) = prepared(200.0);
        let report = parallelize_with_reuse(
            &mut g,
            &MachineSpec::default_eval(),
            ReuseVariant::SplitInput,
        )
        .unwrap();
        assert_eq!(report.groups.len(), 1);
        let (_, _, k) = report.groups[0];
        assert!(k >= 2);
        assert!((report.reuse_fraction - 24.0 / 25.0).abs() < 1e-12);
        assert!(g.find_node("Conv_0").is_some());
        assert!(g.find_node("Buffer(Conv.in)_0").is_some());
        assert!(g.find_node("Join(Conv)").is_some());
        // No round-robin split of windows was inserted for the conv.
        assert!(g.find_node("Split(Conv.in)").is_none());
        g.validate().unwrap();
    }

    #[test]
    fn buffered_output_variant_adds_out_buffers() {
        let (mut g, _h) = prepared(200.0);
        parallelize_with_reuse(
            &mut g,
            &MachineSpec::default_eval(),
            ReuseVariant::SplitInputBufferedOutput,
        )
        .unwrap();
        assert!(g.find_node("OutBuf(Conv_0)").is_some());
        g.validate().unwrap();
    }

    #[test]
    fn round_robin_variant_is_the_default_pass() {
        let (mut g, _h) = prepared(200.0);
        let report = parallelize_with_reuse(
            &mut g,
            &MachineSpec::default_eval(),
            ReuseVariant::RoundRobin,
        )
        .unwrap();
        assert!(report.groups.is_empty());
        assert_eq!(report.reuse_fraction, 0.0);
        assert!(g.find_node("Split(Conv.in)").is_some());
    }

    #[test]
    fn slow_rate_leaves_graph_unchanged() {
        let (mut g, _h) = prepared(50.0);
        let report = parallelize_with_reuse(
            &mut g,
            &MachineSpec::default_eval(),
            ReuseVariant::SplitInput,
        )
        .unwrap();
        assert!(report.groups.is_empty());
    }

    #[test]
    fn all_variants_are_functionally_identical() {
        use bp_sim::FunctionalExecutor;
        let mut outputs = Vec::new();
        for variant in [
            ReuseVariant::RoundRobin,
            ReuseVariant::SplitInput,
            ReuseVariant::SplitInputBufferedOutput,
        ] {
            let (mut g, h) = prepared(200.0);
            parallelize_with_reuse(&mut g, &MachineSpec::default_eval(), variant).unwrap();
            let mut ex = FunctionalExecutor::new(&g).unwrap();
            ex.run_frames(2).unwrap();
            assert_eq!(ex.residual_items(), 0, "{variant:?}");
            outputs.push(h.frames());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
        assert_eq!(outputs[0].len(), 2);
    }
}
