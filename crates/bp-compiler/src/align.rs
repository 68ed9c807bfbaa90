//! Automatic trimming and padding (§III-C): reconcile differently-haloed
//! data at multi-input kernels by inserting inset (trim) or pad kernels.
//!
//! Whether to pad or trim is the programmer's choice — it changes the
//! result — but the margins and insertion points are computed by the
//! compiler from the inset analysis (Fig. 8).

use crate::dataflow::{analyze_with, Dataflow, Strictness};
use crate::inset::{analyze_insets, regions_for};
use bp_core::graph::{AppGraph, NodeId};
use bp_core::kernel::NodeRole;
use bp_core::{BpError, Dim2, Name, Result};
use bp_kernels::inset::Margins;
use bp_kernels::pad::PadMode;
use std::sync::Arc;

/// Alignment policy chosen by the programmer (§III-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlignPolicy {
    /// Discard margin samples from the larger outputs (inset kernels).
    Trim,
    /// Zero-pad the inputs of the deeper-halo kernels so their outputs grow.
    PadZero,
    /// Mirror-pad the inputs of the deeper-halo kernels.
    PadMirror,
}

/// One inserted adjustment kernel.
#[derive(Clone, Debug)]
pub struct InsertedAdjust {
    /// Name of the inserted node (shared with the node).
    pub name: Arc<str>,
    /// `"inset"`, `"pad_zero"` or `"pad_mirror"`.
    pub kind: Name,
    /// Margins in samples (left, right, top, bottom).
    pub margins: (u32, u32, u32, u32),
    /// The consumer `(node name, input name)` this adjustment aligns.
    pub for_input: (Arc<str>, Name),
}

/// Report of the alignment pass.
#[derive(Clone, Debug, Default)]
pub struct AlignReport {
    /// Adjustment kernels inserted, in insertion order.
    pub inserted: Vec<InsertedAdjust>,
}

fn to_margin(v: f64, what: &str) -> Result<u32> {
    if v < -1e-9 {
        return Err(BpError::Transform(format!(
            "negative {what} margin {v}; inputs overlap inconsistently"
        )));
    }
    let r = v.max(0.0).round();
    if (v - r).abs() > 1e-9 {
        return Err(BpError::Transform(format!(
            "fractional {what} margin {v}: pad/trim requires integral insets \
             (downsampled paths must be aligned manually)"
        )));
    }
    Ok(r as u32)
}

/// Run the alignment pass until every multi-input kernel sees consistent
/// data, inserting trim or pad kernels per the policy. Returns what was
/// inserted.
pub fn align(graph: &mut AppGraph, policy: AlignPolicy) -> Result<AlignReport> {
    align_analyzed(graph, policy).map(|(report, _)| report)
}

/// [`align`], also returning the data-flow analysis of the aligned graph.
/// A lenient analysis that finds no misalignment is the strict one: the
/// two modes differ only where inputs disagree.
pub(crate) fn align_analyzed(
    graph: &mut AppGraph,
    policy: AlignPolicy,
) -> Result<(AlignReport, Dataflow)> {
    let mut report = AlignReport::default();
    for _round in 0..8 {
        let df = analyze_with(graph, Strictness::Lenient)?;
        if df.misalignments.is_empty() {
            return Ok((report, df));
        }
        let insets = analyze_insets(graph)?;
        // Fix the first misalignment, then re-analyze (fixes can interact).
        let mis = &df.misalignments[0];
        let regions = regions_for(graph, &df, &insets, mis.node, &mis.inputs)?;
        match policy {
            AlignPolicy::Trim => {
                let (lo_x, lo_y, hi_x, hi_y) = regions.intersection();
                if hi_x <= lo_x || hi_y <= lo_y {
                    return Err(BpError::Transform(format!(
                        "inputs of '{}' have an empty intersection; trimming impossible",
                        graph.node(mis.node).name
                    )));
                }
                for (port, inset, shape) in regions.inputs.clone() {
                    let left = to_margin(lo_x - inset.x, "left")?;
                    let top = to_margin(lo_y - inset.y, "top")?;
                    let right = to_margin(inset.x + shape.w as f64 - hi_x, "right")?;
                    let bottom = to_margin(inset.y + shape.h as f64 - hi_y, "bottom")?;
                    if left + right + top + bottom == 0 {
                        continue;
                    }
                    insert_trim(
                        graph,
                        &mut report,
                        mis.node,
                        port,
                        Margins {
                            left,
                            right,
                            top,
                            bottom,
                        },
                        shape,
                    )?;
                }
            }
            AlignPolicy::PadZero | AlignPolicy::PadMirror => {
                let (lo_x, lo_y, hi_x, hi_y) = regions.union();
                let mode = if policy == AlignPolicy::PadZero {
                    PadMode::Zero
                } else {
                    PadMode::Mirror
                };
                for (port, inset, shape) in regions.inputs.clone() {
                    let left = to_margin(inset.x - lo_x, "left")?;
                    let top = to_margin(inset.y - lo_y, "top")?;
                    let right = to_margin(hi_x - (inset.x + shape.w as f64), "right")?;
                    let bottom = to_margin(hi_y - (inset.y + shape.h as f64), "bottom")?;
                    if left + right + top + bottom == 0 {
                        continue;
                    }
                    insert_pad_upstream(
                        graph,
                        &mut report,
                        mis.node,
                        port,
                        Margins {
                            left,
                            right,
                            top,
                            bottom,
                        },
                        mode,
                    )?;
                }
            }
        }
    }
    // Final consistency check.
    let df = analyze_with(graph, Strictness::Strict)?;
    Ok((report, df))
}

/// Insert an inset kernel on the channel feeding `(node, port)`.
fn insert_trim(
    graph: &mut AppGraph,
    report: &mut AlignReport,
    node: NodeId,
    port: usize,
    margins: Margins,
    data: Dim2,
) -> Result<()> {
    let (cid, _ch) = graph
        .channel_into(node, port)
        .ok_or_else(|| BpError::Transform("misaligned input has no channel".into()))?;
    let consumer = Arc::clone(&graph.node(node).name);
    let input_name = graph.node(node).spec().inputs[port].name.clone();
    let name: Arc<str> = format!("Inset({consumer}.{input_name})").into();
    let def = bp_kernels::inset(margins, data);
    graph.splice(cid, Arc::clone(&name), def, 0, 0);
    report.inserted.push(InsertedAdjust {
        name,
        kind: "inset".into(),
        margins: (margins.left, margins.right, margins.top, margins.bottom),
        for_input: (consumer, input_name),
    });
    Ok(())
}

/// Insert a pad kernel on the *windowed input* of the kernel producing the
/// too-small data, so that its output grows (the paper pads the input to
/// the convolution filter rather than its output).
fn insert_pad_upstream(
    graph: &mut AppGraph,
    report: &mut AlignReport,
    node: NodeId,
    port: usize,
    margins: Margins,
    mode: PadMode,
) -> Result<()> {
    let (_cid, ch) = graph
        .channel_into(node, port)
        .ok_or_else(|| BpError::Transform("misaligned input has no channel".into()))?;
    let producer = ch.src.node;
    let pspec = Arc::clone(&graph.node(producer).def.spec);
    if pspec.role != NodeRole::User {
        return Err(BpError::Transform(format!(
            "cannot pad upstream of '{}': producer '{}' is not a windowed kernel; \
             use the Trim policy instead",
            graph.node(node).name,
            graph.node(producer).name
        )));
    }
    // Find the producer's windowed (non-replicated) data input.
    let win_port = pspec
        .inputs
        .iter()
        .position(|i| !i.replicated && i.is_windowed())
        .ok_or_else(|| {
            BpError::Transform(format!(
                "producer '{}' has no windowed input to pad; use the Trim policy",
                graph.node(producer).name
            ))
        })?;
    let (mut wcid, mut wch) = graph
        .channel_into(producer, win_port)
        .ok_or_else(|| BpError::Transform("windowed input has no channel".into()))?;
    // Pad the raw pixel stream: walk upstream through any single-input
    // plumbing (buffers) so the pad sees 1x1 items. When this pass runs in
    // its intended position — before buffering — this is a no-op.
    while graph.node(wch.src.node).spec().role.is_plumbing()
        && graph.node(wch.src.node).spec().inputs.len() == 1
    {
        let up = graph
            .channel_into(wch.src.node, 0)
            .ok_or_else(|| BpError::Transform("plumbing input has no channel".into()))?;
        wcid = up.0;
        wch = up.1;
    }
    // Logical shape of the data feeding that input.
    let df = analyze_with(graph, Strictness::Lenient)?;
    let data = df
        .channels
        .get(&wcid)
        .map(|c| c.shape)
        .ok_or_else(|| BpError::Transform("no shape for pad insertion point".into()))?;
    let name: Arc<str> = format!("Pad({}.in)", graph.node(producer).name).into();
    let def = bp_kernels::pad(margins, mode, data);
    let kind = def.spec.kind.clone();
    graph.splice(wcid, Arc::clone(&name), def, 0, 0);
    let consumer = Arc::clone(&graph.node(node).name);
    let input_name = graph.node(node).spec().inputs[port].name.clone();
    report.inserted.push(InsertedAdjust {
        name,
        kind,
        margins: (margins.left, margins.right, margins.top, margins.bottom),
        for_input: (consumer, input_name),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::analyze;
    use bp_core::GraphBuilder;
    use bp_kernels as k;

    /// The Fig. 8 situation as the programmer writes it (unbuffered — this
    /// pass runs before buffering): median and conv paths into a subtract.
    fn fig8_graph() -> AppGraph {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 50.0);
        let med = b.add("Median", k::median(3, 3));
        let conv = b.add("Conv", k::conv2d(5, 5));
        let coeff = b.add("Coeff", k::const_source("coeff", k::box_coefficients(5, 5)));
        let sub = b.add("Subtract", k::subtract());
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", med, "in");
        b.connect(src, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(med, "out", sub, "in0");
        b.connect(conv, "out", sub, "in1");
        b.connect(sub, "out", snk, "in");
        b.build().unwrap()
    }

    #[test]
    fn trim_policy_inserts_single_inset_on_median_path() {
        let mut g = fig8_graph();
        let report = align(&mut g, AlignPolicy::Trim).unwrap();
        // Median output (18x10 at inset 1) trims 1 on each side; conv output
        // (16x8 at inset 2) is already the intersection.
        assert_eq!(report.inserted.len(), 1);
        let adj = &report.inserted[0];
        assert_eq!(adj.kind, "inset");
        assert_eq!(adj.margins, (1, 1, 1, 1));
        assert_eq!(&*adj.for_input.0, "Subtract");
        // Strict analysis now succeeds with 16x8 at the subtract.
        let df = analyze(&g).unwrap();
        let sub = g.find_node("Subtract").unwrap();
        assert_eq!(df.nodes[sub.0].iterations, Some(Dim2::new(16, 8)));
    }

    #[test]
    fn pad_policy_pads_conv_input() {
        let mut g = fig8_graph();
        let report = align(&mut g, AlignPolicy::PadZero).unwrap();
        assert_eq!(report.inserted.len(), 1);
        let adj = &report.inserted[0];
        assert_eq!(adj.kind, "pad_zero");
        assert_eq!(adj.margins, (1, 1, 1, 1));
        // Strict analysis: subtract now sees 18x10 on both inputs.
        let df = analyze(&g).unwrap();
        let sub = g.find_node("Subtract").unwrap();
        assert_eq!(df.nodes[sub.0].iterations, Some(Dim2::new(18, 10)));
        // The pad sits on the raw pixel stream, upstream of the conv's
        // buffer (walked back through the plumbing).
        let pad = g.find_node("Pad(Conv.in)").expect("pad inserted");
        let (_, ch) = g.channel_into(pad, 0).unwrap();
        assert_eq!(&*g.node(ch.src.node).name, "Input");
    }

    #[test]
    fn aligned_graph_is_untouched() {
        let dim = Dim2::new(8, 8);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 10.0);
        let s1 = b.add("S1", k::scale(2.0, 0.0));
        let s2 = b.add("S2", k::scale(3.0, 0.0));
        let sub = b.add("Sub", k::subtract());
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", s1, "in");
        b.connect(src, "out", s2, "in");
        b.connect(s1, "out", sub, "in0");
        b.connect(s2, "out", sub, "in1");
        b.connect(sub, "out", snk, "in");
        let mut g = b.build().unwrap();
        let before = g.node_count();
        let report = align(&mut g, AlignPolicy::Trim).unwrap();
        assert!(report.inserted.is_empty());
        assert_eq!(g.node_count(), before);
    }
}
