//! Inset analysis (§III-C): how far each intermediate result is offset from
//! the original application input, propagated through the graph so the
//! compiler can detect unaligned data at multi-input kernels (Fig. 8) and
//! compute the trim or pad margins that reconcile them.

use crate::dataflow::Dataflow;
use bp_core::graph::{AppGraph, ChannelMap, NodeId};
use bp_core::kernel::{NodeRole, ShapeTransform};
use bp_core::{BpError, Result};

/// Offset of a channel's data origin relative to its application input's
/// origin, in source pixels (fractional for downsampled paths).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InsetInfo {
    /// Columns between the source origin and this data's first column.
    pub x: f64,
    /// Rows between the source origin and this data's first row.
    pub y: f64,
    /// The application input this data derives from, when unique.
    pub source: Option<NodeId>,
}

impl InsetInfo {
    /// Zero inset from the given source.
    pub fn origin(source: NodeId) -> Self {
        Self {
            x: 0.0,
            y: 0.0,
            source: Some(source),
        }
    }
}

/// Result of the inset analysis: per-channel insets.
#[derive(Clone, Debug, Default)]
pub struct InsetAnalysis {
    /// Inset of the data on each channel (dense by channel slot).
    pub channels: ChannelMap<InsetInfo>,
}

impl InsetAnalysis {
    /// The inset of the channel feeding `(node, port)`.
    pub fn input_inset(&self, graph: &AppGraph, node: NodeId, port: usize) -> Option<InsetInfo> {
        let (cid, _) = graph.channel_into(node, port)?;
        self.channels.get(&cid).copied()
    }
}

/// Propagate insets through the graph in topological order. Requires a
/// completed [`Dataflow`] only for consistency of traversal (shapes are not
/// needed to accumulate offsets).
pub fn analyze_insets(graph: &AppGraph) -> Result<InsetAnalysis> {
    let order = graph.topo_order()?;
    let mut out = InsetAnalysis {
        channels: ChannelMap::for_graph(graph),
    };

    for id in order {
        let node = graph.node(id);
        let spec = node.spec();
        // Gather input insets by port.
        let in_insets: Vec<Option<InsetInfo>> = (0..spec.inputs.len())
            .map(|p| out.input_inset(graph, id, p))
            .collect();

        let produced: Option<InsetInfo> = match spec.role {
            NodeRole::Source => Some(InsetInfo::origin(id)),
            NodeRole::Const => None,
            NodeRole::Buffer
            | NodeRole::Split
            | NodeRole::Join
            | NodeRole::Replicate
            | NodeRole::Feedback
            | NodeRole::Sink => in_insets.first().copied().flatten(),
            NodeRole::Inset | NodeRole::Pad | NodeRole::User => {
                windowed_inset(spec, node.method_table()?, &in_insets)
            }
        };

        if let Some(inset) = produced {
            for (cid, c) in graph.channels_out_of(id) {
                if c.src.port < spec.outputs.len() {
                    out.channels.insert(cid, inset);
                }
            }
        }
    }
    Ok(out)
}

/// Inset produced by a windowed kernel: the data input's inset plus the
/// input's declared offset. Multiple data inputs contribute the
/// element-wise maximum (the intersection origin); the alignment pass is
/// responsible for making them equal.
fn windowed_inset(
    spec: &bp_core::KernelSpec,
    table: &bp_core::MethodTable,
    in_insets: &[Option<InsetInfo>],
) -> Option<InsetInfo> {
    let mut acc: Option<InsetInfo> = None;
    for m in table.iter() {
        if !m.is_data {
            continue;
        }
        for &(pi, _) in m.triggers {
            let inp = &spec.inputs[pi];
            if inp.replicated {
                continue;
            }
            let base = in_insets[pi]?;
            let adj = match spec.shape {
                ShapeTransform::Crop { left, top, .. } => InsetInfo {
                    x: base.x + left as f64,
                    y: base.y + top as f64,
                    source: base.source,
                },
                ShapeTransform::Pad { left, top, .. } => InsetInfo {
                    x: base.x - left as f64,
                    y: base.y - top as f64,
                    source: base.source,
                },
                _ => InsetInfo {
                    x: base.x + inp.offset.x,
                    y: base.y + inp.offset.y,
                    source: base.source,
                },
            };
            acc = Some(match acc {
                None => adj,
                Some(prev) => InsetInfo {
                    x: prev.x.max(adj.x),
                    y: prev.y.max(adj.y),
                    source: if prev.source == adj.source {
                        prev.source
                    } else {
                        None
                    },
                },
            });
        }
    }
    acc
}

/// The per-input alignment regions at a multi-input kernel: each input's
/// data occupies `[inset, inset + shape)` in source coordinates (Fig. 8).
#[derive(Clone, Debug, PartialEq)]
pub struct AlignmentRegions {
    /// `(port, inset, shape)` for every non-replicated data-method input.
    pub inputs: Vec<(usize, InsetInfo, bp_core::Dim2)>,
}

impl AlignmentRegions {
    /// The intersection of the input regions: `(lo_x, lo_y, hi_x, hi_y)`.
    pub fn intersection(&self) -> (f64, f64, f64, f64) {
        let lo_x = self
            .inputs
            .iter()
            .map(|(_, i, _)| i.x)
            .fold(f64::MIN, f64::max);
        let lo_y = self
            .inputs
            .iter()
            .map(|(_, i, _)| i.y)
            .fold(f64::MIN, f64::max);
        let hi_x = self
            .inputs
            .iter()
            .map(|(_, i, s)| i.x + s.w as f64)
            .fold(f64::MAX, f64::min);
        let hi_y = self
            .inputs
            .iter()
            .map(|(_, i, s)| i.y + s.h as f64)
            .fold(f64::MAX, f64::min);
        (lo_x, lo_y, hi_x, hi_y)
    }

    /// The union of the input regions: `(lo_x, lo_y, hi_x, hi_y)`.
    pub fn union(&self) -> (f64, f64, f64, f64) {
        let lo_x = self
            .inputs
            .iter()
            .map(|(_, i, _)| i.x)
            .fold(f64::MAX, f64::min);
        let lo_y = self
            .inputs
            .iter()
            .map(|(_, i, _)| i.y)
            .fold(f64::MAX, f64::min);
        let hi_x = self
            .inputs
            .iter()
            .map(|(_, i, s)| i.x + s.w as f64)
            .fold(f64::MIN, f64::max);
        let hi_y = self
            .inputs
            .iter()
            .map(|(_, i, s)| i.y + s.h as f64)
            .fold(f64::MIN, f64::max);
        (lo_x, lo_y, hi_x, hi_y)
    }
}

/// Compute the alignment regions for one misaligned node, combining the
/// lenient data-flow shapes with the inset analysis.
pub fn regions_for(
    graph: &AppGraph,
    df: &Dataflow,
    insets: &InsetAnalysis,
    node: NodeId,
    input_ports: &[(usize, bp_core::Dim2)],
) -> Result<AlignmentRegions> {
    let _ = df;
    let mut inputs = Vec::new();
    for (port, shape) in input_ports {
        let inset = insets.input_inset(graph, node, *port).ok_or_else(|| {
            BpError::Analysis(format!(
                "no inset information for input {port} of node '{}'",
                graph.node(node).name
            ))
        })?;
        inputs.push((*port, inset, *shape));
    }
    Ok(AlignmentRegions { inputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{Dim2, GraphBuilder, Step2};
    use bp_kernels as k;

    /// The paper's Fig. 8 situation: 3x3 median and 5x5 conv outputs feeding
    /// a subtract.
    fn fig8_graph() -> (AppGraph, NodeId) {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 50.0);
        let mbuf = b.add(
            "BufM",
            k::buffer(Dim2::ONE, Dim2::new(3, 3), Step2::ONE, dim),
        );
        let med = b.add("Median", k::median(3, 3));
        let cbuf = b.add(
            "BufC",
            k::buffer(Dim2::ONE, Dim2::new(5, 5), Step2::ONE, dim),
        );
        let conv = b.add("Conv", k::conv2d(5, 5));
        let coeff = b.add("Coeff", k::const_source("coeff", k::box_coefficients(5, 5)));
        let sub = b.add("Subtract", k::subtract());
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", mbuf, "in");
        b.connect(mbuf, "out", med, "in");
        b.connect(src, "out", cbuf, "in");
        b.connect(cbuf, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(med, "out", sub, "in0");
        b.connect(conv, "out", sub, "in1");
        b.connect(sub, "out", snk, "in");
        (b.build().unwrap(), sub)
    }

    #[test]
    fn fig8_insets_are_1_and_2() {
        let (g, sub) = fig8_graph();
        let insets = analyze_insets(&g).unwrap();
        let med_in = insets.input_inset(&g, sub, 0).unwrap();
        let conv_in = insets.input_inset(&g, sub, 1).unwrap();
        assert_eq!((med_in.x, med_in.y), (1.0, 1.0));
        assert_eq!((conv_in.x, conv_in.y), (2.0, 2.0));
        assert_eq!(med_in.source, conv_in.source);
    }

    #[test]
    fn fig8_regions_and_margins() {
        let (g, sub) = fig8_graph();
        let insets = analyze_insets(&g).unwrap();
        let df = crate::dataflow::analyze_with(&g, crate::dataflow::Strictness::Lenient).unwrap();
        assert_eq!(df.misalignments.len(), 1);
        let mis = &df.misalignments[0];
        assert_eq!(mis.node, sub);
        let regions = regions_for(&g, &df, &insets, sub, &mis.inputs).unwrap();
        // Median output 18x10 at (1,1); conv output 16x8 at (2,2).
        let (lo_x, lo_y, hi_x, hi_y) = regions.intersection();
        assert_eq!((lo_x, lo_y, hi_x, hi_y), (2.0, 2.0, 18.0, 10.0));
        let (ux, uy, uhx, uhy) = regions.union();
        assert_eq!((ux, uy, uhx, uhy), (1.0, 1.0, 19.0, 11.0));
    }

    #[test]
    fn source_channels_have_zero_inset() {
        let (g, _) = fig8_graph();
        let insets = analyze_insets(&g).unwrap();
        let src = g.find_node("Input").unwrap();
        for (cid, _) in g.out_channels(src) {
            let i = insets.channels[&cid];
            assert_eq!((i.x, i.y), (0.0, 0.0));
            assert_eq!(i.source, Some(src));
        }
    }
}
