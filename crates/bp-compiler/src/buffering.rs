//! Automatic buffer insertion (§III-B): wherever a channel's producer grain
//! differs from its consumer's window parameterization, splice in a
//! parameterized buffer kernel sized from the data-flow analysis — plus the
//! feedback-aware channel-capacity derivation (§III-D) that sizes loop
//! back edges so every primed feedback cycle can drain.

use crate::dataflow::{analyze, Dataflow};
use bp_core::capacity::{derive_channel_capacities, feedback_loops, ChannelCapacities};
use bp_core::graph::AppGraph;
use bp_core::kernel::NodeRole;
use bp_core::{BpError, Dim2, Result, Step2};
use std::sync::Arc;

/// One inserted buffer.
#[derive(Clone, Debug)]
pub struct InsertedBuffer {
    /// Node name, e.g. `"Buffer(Median.in)"` (shared with the node).
    pub name: Arc<str>,
    /// Producer grain entering the buffer.
    pub producer: Dim2,
    /// Window emitted to the consumer.
    pub window: Dim2,
    /// Window step.
    pub step: Step2,
    /// Logical data extent buffered over.
    pub data: Dim2,
    /// Paper-rule storage size in words (double buffer of the larger grain
    /// across the data width) — the `[20x10]`-style annotations of Fig. 11.
    pub storage_words: u64,
}

impl InsertedBuffer {
    /// The paper's `[WxH]` annotation: data width × double the window rows.
    pub fn annotation(&self) -> String {
        format!(
            "[{}x{}]",
            self.data.w,
            2 * self.window.h.max(self.producer.h)
        )
    }
}

/// Report of the buffering pass.
#[derive(Clone, Debug, Default)]
pub struct BufferingReport {
    /// Buffers inserted, in insertion order.
    pub inserted: Vec<InsertedBuffer>,
}

/// One feedback loop with its derived back-edge capacity, rendered with
/// node and channel names for compile reports.
#[derive(Clone, Debug)]
pub struct LoopCapacity {
    /// Loop member node names, in node-id order.
    pub nodes: Vec<String>,
    /// Back edges (channels leaving the loop's feedback kernels), as
    /// `"Src.out -> Dst.in"`.
    pub back_edges: Vec<String>,
    /// Items the loop's feedback kernels prime before any input arrives.
    pub initial_tokens: u64,
    /// Derived capacity of each back edge.
    pub capacity: usize,
}

/// Report of the capacity derivation pass: the resolved per-channel plan
/// plus one human-readable entry per feedback loop that needed sizing.
#[derive(Clone, Debug)]
pub struct CapacityReport {
    /// The per-channel plan the simulator resolves by default.
    pub plan: ChannelCapacities,
    /// Every primed feedback loop, with names (including loops whose
    /// population already fits the flat default).
    pub loops: Vec<LoopCapacity>,
}

/// Derive the per-channel capacity plan for a (compiled) graph and render
/// the feedback-loop entries for reporting. Pure analysis — the simulator
/// runs the same derivation itself when no explicit plan is configured, so
/// this exists for visibility (`bpc`, compile summaries) rather than
/// correctness.
pub fn derive_capacities(graph: &AppGraph) -> CapacityReport {
    let plan = derive_channel_capacities(graph);
    let chan_name = |cid| {
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
    };
    let loops = feedback_loops(graph)
        .into_iter()
        .map(|lp| LoopCapacity {
            nodes: lp
                .nodes
                .iter()
                .map(|&id| graph.node(id).name.to_string())
                .collect(),
            back_edges: lp.back_edges.iter().map(|&cid| chan_name(cid)).collect(),
            initial_tokens: lp.initial_tokens,
            capacity: lp.back_edge_capacity,
        })
        .collect();
    CapacityReport { plan, loops }
}

/// Insert buffers on every grain-mismatched channel. Must run after
/// alignment (§III-C) and before parallelization (§IV).
pub fn insert_buffers(graph: &mut AppGraph) -> Result<BufferingReport> {
    let df = analyze(graph)?;
    insert_buffers_analyzed(graph, df).map(|(report, _)| report)
}

/// [`insert_buffers`] on a graph whose data-flow analysis `df` is at hand,
/// also returning the analysis of the buffered graph — `df` itself when
/// no buffer went in.
pub(crate) fn insert_buffers_analyzed(
    graph: &mut AppGraph,
    df: Dataflow,
) -> Result<(BufferingReport, Dataflow)> {
    let mut report = BufferingReport::default();

    let channels: Vec<_> = graph.channels().collect();
    for (cid, ch) in channels {
        let dst_node = graph.node(ch.dst.node);
        let dspec = dst_node.spec();
        // Sinks accept any grain; buffers themselves and other plumbing are
        // inserted with matching grains by construction.
        if matches!(dspec.role, NodeRole::Sink) {
            continue;
        }
        let din = &dspec.inputs[ch.dst.port];
        let src_node = graph.node(ch.src.node);
        let sout = &src_node.spec().outputs[ch.src.port];
        if sout.size == din.size && sout.step == din.step {
            continue; // grains agree; the ports' implicit buffers suffice
        }
        let info = df.channels.get(&cid).ok_or_else(|| {
            BpError::Transform(format!(
                "no data-flow info for channel into '{}'",
                dst_node.name
            ))
        })?;
        let producer = sout.size;
        let window = din.size;
        let step = din.step;
        let data = info.shape;
        let name: Arc<str> = format!("Buffer({}.{})", dst_node.name, din.name).into();
        let def = bp_kernels::buffer(producer, window, step, data);
        let storage = def.spec.state_words;
        graph.splice(cid, Arc::clone(&name), def, 0, 0);
        report.inserted.push(InsertedBuffer {
            name,
            producer,
            window,
            step,
            data,
            storage_words: storage,
        });
    }
    // The transformed graph must still analyze cleanly.
    let df = if report.inserted.is_empty() {
        df
    } else {
        analyze(graph)?
    };
    Ok((report, df))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::GraphBuilder;
    use bp_kernels as k;

    /// Unbuffered Fig. 1(a)-style pipeline: source feeds median and conv
    /// directly; subtract needs alignment first, so here we use a single
    /// filter path to isolate buffering.
    #[test]
    fn inserts_buffer_between_source_and_windowed_kernel() {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 50.0);
        let med = b.add("Median", k::median(3, 3));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", med, "in");
        b.connect(med, "out", snk, "in");
        let mut g = b.build().unwrap();

        let report = insert_buffers(&mut g).unwrap();
        assert_eq!(report.inserted.len(), 1);
        let buf = &report.inserted[0];
        assert_eq!(buf.window, Dim2::new(3, 3));
        assert_eq!(buf.data, dim);
        assert_eq!(buf.storage_words, 2 * 20 * 3);
        assert_eq!(buf.annotation(), "[20x6]");
        // Topology: Input -> Buffer -> Median.
        let med = g.find_node("Median").unwrap();
        let (_, ch) = g.channel_into(med, 0).unwrap();
        assert_eq!(&*g.node(ch.src.node).name, "Buffer(Median.in)");
        g.validate().unwrap();
    }

    #[test]
    fn matched_grains_get_no_buffer() {
        let dim = Dim2::new(8, 8);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 10.0);
        let sc = b.add("Scale", k::scale(1.0, 0.0));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", sc, "in");
        b.connect(sc, "out", snk, "in");
        let mut g = b.build().unwrap();
        let report = insert_buffers(&mut g).unwrap();
        assert!(report.inserted.is_empty());
    }

    #[test]
    fn coefficient_inputs_are_not_buffered() {
        let dim = Dim2::new(12, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 10.0);
        let conv = b.add("Conv", k::conv2d(5, 5));
        let coeff = b.add("Coeff", k::const_source("coeff", k::box_coefficients(5, 5)));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(conv, "out", snk, "in");
        let mut g = b.build().unwrap();
        let report = insert_buffers(&mut g).unwrap();
        // Only the data path gets a buffer; the coeff grain already matches.
        assert_eq!(report.inserted.len(), 1);
        assert_eq!(report.inserted[0].window, Dim2::new(5, 5));
        assert_eq!(report.inserted[0].annotation(), "[12x10]");
    }

    #[test]
    fn capacity_report_names_the_feedback_loop() {
        // A temporal-IIR-shaped loop at 20x12: FrameDelay primes
        // 20*12 + 12 + 1 = 253 items, so the back edge must grow to 254
        // (the whole population parks there whenever external input
        // pauses) while everything else keeps the default.
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 50.0);
        let mix = b.add("Mix", k::add());
        let half = b.add("Half", k::scale(0.5, 0.0));
        let fb = b.add("FrameDelay", k::feedback_frame(dim, 0.0));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", mix, "in0");
        b.connect(fb, "out", mix, "in1");
        b.connect(mix, "out", half, "in");
        b.connect(half, "out", fb, "in");
        b.connect(half, "out", snk, "in");
        let g = b.build().unwrap();

        let report = derive_capacities(&g);
        assert_eq!(report.plan.default, 64);
        assert_eq!(report.loops.len(), 1);
        let lp = &report.loops[0];
        assert_eq!(lp.nodes, ["Mix", "Half", "FrameDelay"]);
        assert_eq!(lp.back_edges, ["FrameDelay.out -> Mix.in1"]);
        assert_eq!(lp.initial_tokens, 253);
        assert_eq!(lp.capacity, 254);
        assert_eq!(report.plan.overrides().len(), 1);
    }

    #[test]
    fn acyclic_capacity_report_has_no_loops() {
        let dim = Dim2::new(8, 8);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 10.0);
        let sc = b.add("Scale", k::scale(1.0, 0.0));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", sc, "in");
        b.connect(sc, "out", snk, "in");
        let g = b.build().unwrap();
        let report = derive_capacities(&g);
        assert!(report.loops.is_empty());
        assert!(report.plan.overrides().is_empty());
    }

    #[test]
    fn paper_fig3_buffer_sizes() {
        // The running example at 20x12: conv path [20x10], median [20x6].
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 50.0);
        let med = b.add("Median", k::median(3, 3));
        let conv = b.add("Conv", k::conv2d(5, 5));
        let coeff = b.add("Coeff", k::const_source("coeff", k::box_coefficients(5, 5)));
        let (s1, _h1) = k::sink();
        let (s2, _h2) = k::sink();
        let o1 = b.add("O1", s1);
        let o2 = b.add("O2", s2);
        b.connect(src, "out", med, "in");
        b.connect(src, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(med, "out", o1, "in");
        b.connect(conv, "out", o2, "in");
        let mut g = b.build().unwrap();
        let report = insert_buffers(&mut g).unwrap();
        let mut annotations: Vec<String> = report.inserted.iter().map(|b| b.annotation()).collect();
        annotations.sort();
        assert_eq!(annotations, vec!["[20x10]", "[20x6]"]);
    }
}
