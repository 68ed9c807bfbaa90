//! Data-flow analysis (§III-A): propagate the application inputs' statically
//! known sizes and rates through the graph, producing per-channel logical
//! shapes and item rates and per-kernel iteration sizes, method rates, and
//! resource demands.
//!
//! The analysis runs as a work-list fixpoint (rather than a strict
//! topological sweep) so that feedback loops broken by feedback kernels
//! (§III-D) converge: a feedback kernel's output shape becomes known once
//! its input shape does.

use bp_core::geometry::{iterations, Dim2};
use bp_core::graph::{AppGraph, ChannelMap, NodeId};
use bp_core::kernel::{NodeRole, ShapeTransform};
use bp_core::method::{MethodSpec, MethodTable, TriggerOn};
use bp_core::token::TokenKind;
use bp_core::{BpError, Result};

/// Everything the analysis knows about the data on one channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelInfo {
    /// Logical extent of one dataset (e.g. one image) flowing here.
    pub shape: Dim2,
    /// Datasets per source frame (1 for ordinary image paths; e.g. the
    /// per-line outputs of an end-of-line-triggered method have one dataset
    /// per row).
    pub per_frame: f64,
    /// Source frame rate in Hz.
    pub frame_rate_hz: f64,
    /// Size of each transferred item (the producing port's grain).
    pub item_dim: Dim2,
    /// Items per second.
    pub items_per_sec: f64,
    /// Item rows per second — the rate of `EndOfLine` tokens.
    pub rows_per_sec: f64,
    /// `EndOfFrame` tokens per second.
    pub eof_per_sec: f64,
}

impl ChannelInfo {
    /// Datasets per second.
    pub fn datasets_per_sec(&self) -> f64 {
        self.per_frame * self.frame_rate_hz
    }

    /// Data words per second.
    pub fn words_per_sec(&self) -> f64 {
        self.items_per_sec * self.item_dim.area() as f64
    }
}

/// Per-node analysis results.
#[derive(Clone, Debug, Default)]
pub struct NodeAnalysis {
    /// Iteration grid of the node's primary windowed data method, if any.
    pub iterations: Option<Dim2>,
    /// Total compute demand (method cycles only).
    pub compute_cycles_per_sec: f64,
    /// Words read from inputs per second.
    pub read_words_per_sec: f64,
    /// Words written to outputs per second.
    pub write_words_per_sec: f64,
}

impl NodeAnalysis {
    /// Total PE cycles per second demanded, charging reads and writes at
    /// the machine's per-word costs — this is what parallelization divides
    /// by the PE capacity (§IV).
    pub fn total_cycles_per_sec(&self, machine: &bp_core::MachineSpec) -> f64 {
        self.compute_cycles_per_sec
            + self.read_words_per_sec * machine.read_cost_per_word
            + self.write_words_per_sec * machine.write_cost_per_word
    }
}

/// How the analysis reacts to inputs that disagree on iteration counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strictness {
    /// Disagreement is an error (the language's static guarantee).
    Strict,
    /// Disagreement is recorded as a [`Misalignment`] and analysis continues
    /// with the intersection of the input shapes — used by the alignment
    /// pass (§III-C) to decide where to insert trim/pad kernels.
    Lenient,
}

/// A multi-input data method whose inputs carry differently-sized data
/// (differing halos, Fig. 8).
#[derive(Clone, Debug, PartialEq)]
pub struct Misalignment {
    /// The affected node.
    pub node: NodeId,
    /// Index of the method whose trigger inputs disagree.
    pub method: usize,
    /// `(input port, logical shape)` for every non-replicated trigger input.
    pub inputs: Vec<(usize, Dim2)>,
}

/// Result of the data-flow analysis.
#[derive(Clone, Debug, Default)]
pub struct Dataflow {
    /// Per-channel info, keyed by channel id (dense by channel slot).
    pub channels: ChannelMap<ChannelInfo>,
    /// Per-node analysis, indexed by node id.
    pub nodes: Vec<NodeAnalysis>,
    /// Misalignments found (lenient mode only).
    pub misalignments: Vec<Misalignment>,
    /// Every node's method rates, flat: node `i`'s are
    /// `method_rates[method_base[i]..method_base[i + 1]]`.
    method_rates: Vec<f64>,
    method_base: Vec<u32>,
}

impl Dataflow {
    /// Invocations per second of each method of `node` (indexed like its
    /// spec's methods).
    pub fn method_rate_hz(&self, node: NodeId) -> &[f64] {
        &self.method_rates[self.method_range(node)]
    }

    fn method_range(&self, node: NodeId) -> std::ops::Range<usize> {
        self.method_base[node.0] as usize..self.method_base[node.0 + 1] as usize
    }
}

fn token_rate(info: &ChannelInfo, kind: TokenKind, method: &MethodSpec) -> f64 {
    match kind {
        TokenKind::EndOfLine => info.rows_per_sec,
        TokenKind::EndOfFrame => info.eof_per_sec,
        TokenKind::Custom(_) => method.max_rate_hz.unwrap_or(0.0),
    }
}

/// Run the analysis strictly. Errors if data inputs of a method disagree on
/// shape or iteration counts, or if a windowed access does not tile its
/// input — the static guarantees the language requires (§II).
pub fn analyze(graph: &AppGraph) -> Result<Dataflow> {
    analyze_with(graph, Strictness::Strict)
}

/// Run the analysis with the given strictness.
pub fn analyze_with(graph: &AppGraph, mode: Strictness) -> Result<Dataflow> {
    let n = graph.node_count();
    let mut method_base = Vec::with_capacity(n + 1);
    method_base.push(0u32);
    for (_, node) in graph.nodes() {
        method_base.push(method_base[method_base.len() - 1] + node.spec().methods.len() as u32);
    }
    let mut df = Dataflow {
        channels: ChannelMap::for_graph(graph),
        nodes: vec![NodeAnalysis::default(); n],
        misalignments: Vec::new(),
        method_rates: vec![0.0; method_base[n] as usize],
        method_base,
    };
    let mut scratch = Scratch::default();

    // Seed sources.
    let mut ready: Vec<bool> = vec![false; n];
    let mut pending: Vec<NodeId> = graph.topo_order()?;
    // Fixpoint over the (mostly topological) order; feedback nodes may need
    // a second visit once their in-channel is known.
    let mut guard = 0usize;
    while !pending.is_empty() {
        guard += 1;
        if guard > 4 * n + 8 {
            return Err(BpError::Analysis(
                "data-flow analysis did not converge (unbroken cycle?)".into(),
            ));
        }
        let mut next = Vec::new();
        let mut progressed = false;
        for id in pending {
            if ready[id.0] {
                continue;
            }
            match try_analyze_node(graph, &mut df, &mut scratch, id, mode)? {
                true => {
                    ready[id.0] = true;
                    progressed = true;
                }
                false => next.push(id),
            }
        }
        if !next.is_empty() && !progressed {
            // No ordinary progress: a feedback node may need its output
            // shape seeded lazily (§III-D work-list rule). Otherwise we are
            // stuck.
            let forced = force_feedback(graph, &mut df, &mut ready, &next)?;
            if !forced {
                let names: Vec<&str> = next.iter().map(|id| &*graph.node(*id).name).collect();
                return Err(BpError::Analysis(format!(
                    "data-flow analysis stuck at nodes: {}",
                    names.join(", ")
                )));
            }
        }
        pending = next;
    }
    Ok(df)
}

/// A feedback node whose input shape is still unknown can be seeded from
/// the shape that will eventually feed it — for frame-delay loops that is
/// the shape of the loop's forward input. We seed it from its *downstream*
/// consumer's other inputs once those are known; failing that, from the
/// application source shape.
fn force_feedback(
    graph: &AppGraph,
    df: &mut Dataflow,
    ready: &mut [bool],
    pending: &[NodeId],
) -> Result<bool> {
    for id in pending {
        let node = graph.node(*id);
        if node.spec().role != NodeRole::Feedback {
            continue;
        }
        // Find the consumer of the feedback output and any of its *other*
        // input channels that is already analyzed; mirror that shape.
        for (_, out_ch) in graph.out_channels(*id) {
            let consumer = out_ch.dst.node;
            for (cid, ch) in graph.in_channels(consumer) {
                if ch.src.node == *id {
                    continue;
                }
                if let Some(info) = df.channels.get(&cid).copied() {
                    for (ocid, _) in graph.out_channels(*id) {
                        df.channels.insert(ocid, info);
                    }
                    ready[id.0] = true;
                    // Leave the node analysis rates to a later visit; the
                    // pass below recomputes them when the in-channel is
                    // known. For now approximate with the mirrored info.
                    let mut na = NodeAnalysis::default();
                    let range = df.method_range(*id);
                    let rates = &mut df.method_rates[range];
                    rates.fill(0.0);
                    if let Some(mi) = node.spec().methods.iter().position(|m| m.is_data_method()) {
                        rates[mi] = info.items_per_sec;
                        na.compute_cycles_per_sec =
                            info.items_per_sec * node.spec().methods[mi].cost.cycles as f64;
                        na.read_words_per_sec = info.words_per_sec();
                        na.write_words_per_sec = info.words_per_sec();
                    }
                    df.nodes[id.0] = na;
                    return Ok(true);
                }
            }
        }
    }
    Ok(false)
}

/// Per-node working storage of the analysis, reused from node to node.
#[derive(Default)]
struct Scratch {
    /// What is known about the channel into each input port.
    inputs: Vec<Option<ChannelInfo>>,
    /// Input ports whose channel has been found.
    fed: Vec<bool>,
    /// What the node puts on the channels out of each output port.
    out_info: Vec<Option<ChannelInfo>>,
    /// Invocations per second of each of the node's methods.
    rates: Vec<f64>,
    windowed: WindowedScratch,
}

/// [`analyze_windowed`]'s share of the [`Scratch`].
#[derive(Default)]
struct WindowedScratch {
    /// Outputs whose shape a data method defines.
    data_owned: Vec<bool>,
    /// `(port, iterations, info)` per iteration-defining trigger input.
    contributions: Vec<(usize, Dim2, ChannelInfo)>,
}

/// Try to compute a node's analysis; returns false when its inputs are not
/// all known yet.
fn try_analyze_node(
    graph: &AppGraph,
    df: &mut Dataflow,
    scratch: &mut Scratch,
    id: NodeId,
    mode: Strictness,
) -> Result<bool> {
    let node = graph.node(id);
    let spec = node.spec();
    let table = node.method_table()?;
    let Scratch {
        inputs,
        fed,
        out_info,
        rates,
        windowed,
    } = scratch;

    // Collect input infos (by port).
    inputs.clear();
    inputs.resize(spec.inputs.len(), None);
    fed.clear();
    fed.resize(spec.inputs.len(), false);
    for (cid, c) in graph.channels_into(id) {
        // The first channel into a port is the one `channel_into` names.
        if let Some(fed @ false) = fed.get_mut(c.dst.port) {
            *fed = true;
            inputs[c.dst.port] = df.channels.get(&cid).copied();
        }
    }
    // Constant inputs (fed by Const nodes) get rate-zero info immediately,
    // so they never block readiness.
    if spec.role != NodeRole::Source && inputs.iter().any(|i| i.is_none()) {
        return Ok(false);
    }

    let mut na = NodeAnalysis::default();
    rates.clear();
    rates.resize(spec.methods.len(), 0.0);

    // Per-port output info to install on out channels.
    out_info.clear();
    out_info.resize(spec.outputs.len(), None);

    match spec.role {
        NodeRole::Source => {
            let info = graph.source_info(id).ok_or_else(|| {
                BpError::Analysis(format!("source '{}' missing rate info", node.name))
            })?;
            let ci = ChannelInfo {
                shape: info.frame,
                per_frame: 1.0,
                frame_rate_hz: info.rate_hz,
                item_dim: Dim2::ONE,
                items_per_sec: info.frame.area() as f64 * info.rate_hz,
                rows_per_sec: info.frame.h as f64 * info.rate_hz,
                eof_per_sec: info.rate_hz,
            };
            for oi in out_info.iter_mut() {
                *oi = Some(ci);
            }
            if let Some(mi) = spec.methods.iter().position(|m| m.is_source()) {
                rates[mi] = ci.items_per_sec;
                na.compute_cycles_per_sec = ci.items_per_sec * spec.methods[mi].cost.cycles as f64;
                na.write_words_per_sec = ci.items_per_sec;
            }
        }
        NodeRole::Const => {
            // Fires once: rates are ~0; downstream sees the block shape.
            let dim = spec.outputs.first().map(|o| o.size).unwrap_or(Dim2::ONE);
            let ci = ChannelInfo {
                shape: dim,
                per_frame: 0.0,
                frame_rate_hz: 0.0,
                item_dim: dim,
                items_per_sec: 0.0,
                rows_per_sec: 0.0,
                eof_per_sec: 0.0,
            };
            for oi in out_info.iter_mut() {
                *oi = Some(ci);
            }
        }
        NodeRole::Buffer => {
            let in_info = inputs[0].unwrap();
            let out = &spec.outputs[0];
            // Buffers know the data extent they were constructed for; a
            // column-split buffer's input channel still carries the full
            // stream's nominal shape, so the constructed extent governs.
            let data = match spec.shape {
                ShapeTransform::Fixed { data } => data,
                _ => in_info.shape,
            };
            let iters = iterations(data, out.size, out.step).ok_or_else(|| {
                BpError::Analysis(format!(
                    "buffer '{}': window {} step {} does not tile data {}",
                    node.name, out.size, out.step, data
                ))
            })?;
            na.iterations = Some(iters);
            let items = iters.area() as f64 * in_info.datasets_per_sec();
            out_info[0] = Some(ChannelInfo {
                shape: data,
                per_frame: in_info.per_frame,
                frame_rate_hz: in_info.frame_rate_hz,
                item_dim: out.size,
                items_per_sec: items,
                rows_per_sec: iters.h as f64 * in_info.datasets_per_sec(),
                eof_per_sec: in_info.eof_per_sec,
            });
            rate_methods(spec, table, inputs, rates);
        }
        NodeRole::Split => {
            let in_info = inputs[0].unwrap();
            let k = spec.outputs.len() as f64;
            match &*spec.kind {
                "split_cols" => {
                    // Pixel-routed by column range; approximate each branch
                    // by its width share (overlap makes the total slightly
                    // exceed 1.0, which is faithful: shared columns are
                    // sent twice).
                    for (i, oi) in out_info.iter_mut().enumerate() {
                        let _ = i;
                        *oi = Some(ChannelInfo {
                            items_per_sec: in_info.items_per_sec / k,
                            ..in_info
                        });
                    }
                }
                _ => {
                    for oi in out_info.iter_mut() {
                        *oi = Some(ChannelInfo {
                            items_per_sec: in_info.items_per_sec / k,
                            ..in_info
                        });
                    }
                }
            }
            rate_methods(spec, table, inputs, rates);
        }
        NodeRole::Join => {
            let total: f64 = inputs.iter().map(|i| i.unwrap().items_per_sec).sum();
            let first = inputs[0].unwrap();
            // Column-group joins reassemble the full extent recorded at
            // construction; round-robin joins pass the branch shape through.
            let shape = match spec.shape {
                ShapeTransform::Fixed { data } => data,
                _ => first.shape,
            };
            out_info[0] = Some(ChannelInfo {
                shape,
                items_per_sec: total,
                ..first
            });
            rate_methods(spec, table, inputs, rates);
        }
        NodeRole::Replicate => {
            let in_info = inputs[0].unwrap();
            for oi in out_info.iter_mut() {
                *oi = Some(in_info);
            }
            rate_methods(spec, table, inputs, rates);
        }
        NodeRole::Feedback => {
            // Pass-through; shape mirrors the input.
            let in_info = inputs[0].unwrap();
            out_info[0] = Some(in_info);
            rate_methods(spec, table, inputs, rates);
        }
        NodeRole::Sink => {
            rate_methods(spec, table, inputs, rates);
        }
        NodeRole::Inset | NodeRole::Pad | NodeRole::User => {
            analyze_windowed(
                id,
                &node.name,
                spec,
                table,
                inputs,
                &mut na,
                rates,
                out_info,
                windowed,
                mode,
                &mut df.misalignments,
            )?;
        }
    }

    // Charge read/write words from the rates (generic path; sources set
    // their own above).
    if spec.role != NodeRole::Source {
        for (mi, m) in table.iter().enumerate() {
            let ports = m.triggers.iter();
            let words: u64 = ports.map(|&(p, _)| spec.inputs[p].size.area()).sum();
            na.read_words_per_sec += rates[mi] * words as f64;
        }
        na.compute_cycles_per_sec = spec
            .methods
            .iter()
            .enumerate()
            .map(|(mi, m)| rates[mi] * m.cost.cycles as f64)
            .sum();
        // Writes follow the out-channel item rates (exact for buffers too).
        na.write_words_per_sec = out_info.iter().flatten().map(|ci| ci.words_per_sec()).sum();
    }

    // Install out-channel infos.
    for (cid, c) in graph.channels_out_of(id) {
        if let Some(Some(ci)) = out_info.get(c.src.port) {
            df.channels.insert(cid, *ci);
        }
    }
    df.nodes[id.0] = na;
    let range = df.method_range(id);
    df.method_rates[range].copy_from_slice(rates);
    Ok(true)
}

/// Method rates for plumbing kernels: data methods fire per incoming item,
/// token methods per incoming token.
fn rate_methods(
    spec: &bp_core::KernelSpec,
    table: &MethodTable,
    inputs: &[Option<ChannelInfo>],
    rates: &mut [f64],
) {
    for (mi, m) in table.iter().enumerate() {
        let Some(&(pi, on)) = m.triggers.first() else {
            continue;
        };
        let Some(info) = inputs[pi] else { continue };
        rates[mi] = match on {
            TriggerOn::Data => info.items_per_sec,
            TriggerOn::Token(kind) => token_rate(&info, kind, &spec.methods[mi]),
        };
    }
}

/// The general §III-A rule for user/inset/pad kernels: iteration counts from
/// each data method's windowed inputs, output shapes from iteration grid ×
/// output size (or token-rate blocks for token-triggered outputs).
#[allow(clippy::too_many_arguments)]
fn analyze_windowed(
    id: NodeId,
    name: &str,
    spec: &bp_core::KernelSpec,
    table: &MethodTable,
    inputs: &[Option<ChannelInfo>],
    na: &mut NodeAnalysis,
    rates: &mut [f64],
    out_info: &mut [Option<ChannelInfo>],
    scratch: &mut WindowedScratch,
    mode: Strictness,
    misalignments: &mut Vec<Misalignment>,
) -> Result<()> {
    // Data methods run first: when a data method and a token method write
    // the same output (e.g. a trim kernel's pass-through of EOL/EOF), the
    // data method defines the output's shape; the tokens merely punctuate
    // the same stream.
    let WindowedScratch {
        data_owned,
        contributions,
    } = scratch;
    data_owned.clear();
    data_owned.resize(spec.outputs.len(), false);
    for (mi, m) in table.iter().enumerate() {
        if !m.is_data {
            continue;
        }
        // Data method: every non-replicated trigger input contributes an
        // iteration count; all must agree.
        contributions.clear();
        for &(pi, _) in m.triggers {
            let inp = &spec.inputs[pi];
            let info = inputs[pi].unwrap();
            if inp.replicated {
                // Coefficient-style: does not constrain iteration space.
                rates[mi] = rates[mi].max(info.items_per_sec);
                continue;
            }
            let it = iterations(info.shape, inp.size, inp.step).ok_or_else(|| {
                BpError::Analysis(format!(
                    "kernel '{name}': input '{}' {}{} does not tile data {}",
                    inp.name, inp.size, inp.step, info.shape
                ))
            })?;
            contributions.push((pi, it, info));
        }
        if contributions.is_empty() {
            // Pure replicated-input method (e.g. loadCoeff): rate set above.
            continue;
        }
        let agreed = contributions.windows(2).all(|w| w[0].1 == w[1].1);
        if !agreed {
            match mode {
                Strictness::Strict => {
                    let detail: Vec<String> = contributions
                        .iter()
                        .map(|(pi, it, ci)| {
                            let input = &spec.inputs[*pi].name;
                            format!("'{input}': data {} -> {it} iters", ci.shape)
                        })
                        .collect();
                    return Err(BpError::Analysis(format!(
                        "kernel '{name}': inputs disagree on iteration count \
                         ({}); run the alignment pass (§III-C)",
                        detail.join(", ")
                    )));
                }
                Strictness::Lenient => {
                    misalignments.push(Misalignment {
                        node: id,
                        method: mi,
                        inputs: contributions
                            .iter()
                            .map(|(pi, _, ci)| (*pi, ci.shape))
                            .collect(),
                    });
                }
            }
        }
        // Proceed with the intersection of the iteration grids (exact when
        // aligned; the lenient approximation otherwise).
        let it = contributions
            .iter()
            .map(|(_, it, _)| *it)
            .reduce(|a, b| Dim2::new(a.w.min(b.w), a.h.min(b.h)))
            .unwrap();
        let info = contributions[0].2;
        // The firing rate is the *item* rate of the trigger channels when
        // that is lower than the logical iteration rate: a round-robin
        // split hands each replica only its share of the windows, while a
        // raw (not yet buffered) pixel channel carries more items than the
        // kernel has iterations.
        let logical_rate = it.area() as f64 * info.datasets_per_sec();
        let channel_rate = contributions
            .iter()
            .map(|(_, _, ci)| ci.items_per_sec)
            .fold(f64::MAX, f64::min);
        let rate = logical_rate.min(channel_rate);
        let division = if logical_rate > 0.0 {
            rate / logical_rate
        } else {
            0.0
        };
        rates[mi] = rate;
        if na.iterations.is_none() || it.area() > na.iterations.unwrap().area() {
            na.iterations = Some(it);
        }
        // Output shapes.
        for &oi in m.outputs {
            let o = &spec.outputs[oi];
            let shape = match spec.shape {
                ShapeTransform::Crop {
                    left,
                    right,
                    top,
                    bottom,
                } => Dim2::new(info.shape.w - left - right, info.shape.h - top - bottom),
                ShapeTransform::Pad {
                    left,
                    right,
                    top,
                    bottom,
                } => Dim2::new(info.shape.w + left + right, info.shape.h + top + bottom),
                _ => Dim2::new(it.w * o.size.w, it.h * o.size.h),
            };
            let items =
                shape.area() as f64 / o.size.area() as f64 * info.datasets_per_sec() * division;
            out_info[oi] = Some(ChannelInfo {
                shape,
                per_frame: info.per_frame,
                frame_rate_hz: info.frame_rate_hz,
                item_dim: o.size,
                items_per_sec: items,
                rows_per_sec: (shape.h / o.size.h) as f64 * info.datasets_per_sec(),
                eof_per_sec: info.eof_per_sec,
            });
            data_owned[oi] = true;
        }
    }
    // Token-triggered methods second; they only define outputs no data
    // method owns (e.g. the histogram's per-frame counts block).
    for (mi, m) in table.iter().enumerate() {
        let Some(&(pi, on)) = m.triggers.first() else {
            continue;
        };
        if m.is_data {
            continue;
        }
        let info = inputs[pi].unwrap();
        let TriggerOn::Token(kind) = on else {
            unreachable!()
        };
        let rate = token_rate(&info, kind, &spec.methods[mi]);
        rates[mi] = rate;
        for &oi in m.outputs {
            if data_owned[oi] {
                continue;
            }
            let o = &spec.outputs[oi];
            out_info[oi] = Some(ChannelInfo {
                shape: o.size,
                per_frame: match kind {
                    TokenKind::EndOfFrame => info.per_frame,
                    TokenKind::EndOfLine => info.per_frame * info.shape.h as f64,
                    TokenKind::Custom(_) => 0.0,
                },
                frame_rate_hz: info.frame_rate_hz,
                item_dim: o.size,
                items_per_sec: rate,
                rows_per_sec: rate,
                eof_per_sec: rate,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{GraphBuilder, Step2};
    use bp_kernels as k;

    /// source(100x100 @50) -> buffer -> conv5x5 -> sink, per the paper's
    /// §III-A example: conv iterates 96x96 at 50 Hz.
    fn conv_app() -> (AppGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let src = b.add_source(
            "Input",
            k::pattern_source(Dim2::new(100, 100)),
            Dim2::new(100, 100),
            50.0,
        );
        let buf = b.add(
            "Buf",
            k::buffer(Dim2::ONE, Dim2::new(5, 5), Step2::ONE, Dim2::new(100, 100)),
        );
        let conv = b.add("Conv", k::conv2d(5, 5));
        let coeff = b.add("Coeff", k::const_source("coeff", k::box_coefficients(5, 5)));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", buf, "in");
        b.connect(buf, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(conv, "out", snk, "in");
        let g = b.build().unwrap();
        (g, conv, buf)
    }

    #[test]
    fn paper_example_iteration_counts() {
        let (g, conv, buf) = conv_app();
        let df = analyze(&g).unwrap();
        assert_eq!(df.nodes[conv.0].iterations, Some(Dim2::new(96, 96)));
        assert_eq!(df.nodes[buf.0].iterations, Some(Dim2::new(96, 96)));
        // Conv fires 96*96*50 times per second.
        let run_idx = g.node(conv).spec().method_index("runConvolve").unwrap();
        let rate = df.method_rate_hz(conv)[run_idx];
        assert!((rate - 96.0 * 96.0 * 50.0).abs() < 1e-6);
        // Output shape is 96x96 at 50 Hz.
        let (ocid, _) = g.out_channels(conv)[0];
        let info = df.channels[&ocid];
        assert_eq!(info.shape, Dim2::new(96, 96));
        assert_eq!(info.frame_rate_hz, 50.0);
        assert_eq!(info.item_dim, Dim2::ONE);
    }

    #[test]
    fn buffer_output_item_rate_is_iteration_rate() {
        let (g, _conv, buf) = conv_app();
        let df = analyze(&g).unwrap();
        let (ocid, _) = g.out_channels(buf)[0];
        let info = df.channels[&ocid];
        assert_eq!(info.item_dim, Dim2::new(5, 5));
        assert!((info.items_per_sec - 96.0 * 96.0 * 50.0).abs() < 1e-6);
        // Logical shape is unchanged by the buffer.
        assert_eq!(info.shape, Dim2::new(100, 100));
    }

    #[test]
    fn compute_demand_follows_costs() {
        let (g, conv, _buf) = conv_app();
        let df = analyze(&g).unwrap();
        let rate = 96.0 * 96.0 * 50.0;
        let expected = rate * (10.0 + 3.0 * 25.0);
        assert!((df.nodes[conv.0].compute_cycles_per_sec - expected).abs() < 1.0);
        // Reads: 25 words per firing.
        assert!((df.nodes[conv.0].read_words_per_sec - rate * 25.0).abs() < 1.0);
        // Writes: 1 word per firing.
        assert!((df.nodes[conv.0].write_words_per_sec - rate).abs() < 1.0);
    }

    #[test]
    fn misaligned_multi_input_kernel_is_detected() {
        // source -> median(3x3) path and direct path into subtract: the
        // median output is 2 smaller, so subtract's inputs disagree.
        let mut b = GraphBuilder::new();
        let src = b.add_source(
            "Input",
            k::pattern_source(Dim2::new(8, 8)),
            Dim2::new(8, 8),
            10.0,
        );
        let buf = b.add(
            "Buf",
            k::buffer(Dim2::ONE, Dim2::new(3, 3), Step2::ONE, Dim2::new(8, 8)),
        );
        let med = b.add("Med", k::median(3, 3));
        let sub = b.add("Sub", k::subtract());
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", buf, "in");
        b.connect(buf, "out", med, "in");
        b.connect(med, "out", sub, "in0");
        b.connect(src, "out", sub, "in1");
        b.connect(sub, "out", snk, "in");
        let g = b.build().unwrap();
        let err = analyze(&g).unwrap_err();
        assert!(err.to_string().contains("disagree"), "{err}");
    }

    #[test]
    fn histogram_rates_per_frame() {
        let mut b = GraphBuilder::new();
        let dim = Dim2::new(16, 8);
        let src = b.add_source("Input", k::pattern_source(dim), dim, 30.0);
        let hist = b.add("Hist", k::histogram(32));
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
        let g = b.build().unwrap();
        let df = analyze(&g).unwrap();
        let spec = g.node(hist).spec().clone();
        let count_i = spec.method_index("count").unwrap();
        let finish_i = spec.method_index("finishCount").unwrap();
        let rates = df.method_rate_hz(hist);
        assert!((rates[count_i] - 16.0 * 8.0 * 30.0).abs() < 1e-6);
        assert!((rates[finish_i] - 30.0).abs() < 1e-9);
        // Histogram output: one 32x1 block per frame.
        let (ocid, _) = g.out_channels(hist)[0];
        let info = df.channels[&ocid];
        assert_eq!(info.shape, Dim2::new(32, 1));
        assert!((info.items_per_sec - 30.0).abs() < 1e-9);
        // Merge accumulates once per frame.
        let merge_rates = df.method_rate_hz(merge);
        let acc_i = g.node(merge).spec().method_index("accumulate").unwrap();
        assert!((merge_rates[acc_i] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn feedback_loop_converges() {
        let mut b = GraphBuilder::new();
        let dim = Dim2::new(4, 4);
        let src = b.add_source("Input", k::pattern_source(dim), dim, 10.0);
        let mix = b.add("Mix", k::add());
        let sc = b.add("Scale", k::scale(0.5, 0.0));
        let fb = b.add("Fb", k::feedback_frame(dim, 0.0));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", mix, "in0");
        b.connect(fb, "out", mix, "in1");
        b.connect(mix, "out", sc, "in");
        b.connect(sc, "out", fb, "in");
        b.connect(sc, "out", snk, "in");
        let g = b.build().unwrap();
        let df = analyze(&g).unwrap();
        assert_eq!(df.nodes[mix.0].iterations, Some(dim));
        let (ocid, _) = g.out_channels(fb)[0];
        assert_eq!(df.channels[&ocid].shape, dim);
    }
}
