//! The compiler driver: analyze → align → buffer → parallelize → map.
//!
//! Mirrors the paper's flow: the programmer supplies the application graph
//! with real-time input rates and an alignment policy; the compiler handles
//! buffering, data sizing, parallelization and processor mapping.

use crate::align::{align_analyzed, AlignPolicy, AlignReport};
use crate::buffering::{
    derive_capacities, insert_buffers_analyzed, BufferingReport, CapacityReport,
};
use crate::dataflow::{analyze, Dataflow};
use crate::fuse::{fuse_pipelines, FuseReport};
use crate::multiplex::{map, MappingKind};
use crate::parallelize::{parallelize_analyzed, ParallelizeReport};
use bp_core::graph::AppGraph;
use bp_core::kernel::NodeRole;
use bp_core::machine::{MachineSpec, Mapping};
use bp_core::Result;

/// Compilation options.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Target machine.
    pub machine: MachineSpec,
    /// Alignment policy (§III-C); programmer-chosen because it changes the
    /// result.
    pub align: AlignPolicy,
    /// Kernel-to-PE mapping strategy (§V).
    pub mapping: MappingKind,
    /// Fuse matched join/split pairs into direct replica-to-replica lanes
    /// (§IV-B's parallel pipelines). On by default; results are identical
    /// either way.
    pub fuse: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            machine: MachineSpec::default_eval(),
            align: AlignPolicy::Trim,
            mapping: MappingKind::Greedy,
            fuse: true,
        }
    }
}

/// Summary statistics of a compiled graph, for reports and the figure
/// harnesses.
#[derive(Clone, Debug, Default)]
pub struct GraphCensus {
    /// Node count per role, indexed by `NodeRole as usize`.
    by_role: [usize; NodeRole::ALL.len()],
    /// Total nodes.
    pub nodes: usize,
    /// Total channels.
    pub channels: usize,
}

impl GraphCensus {
    /// Build from a graph.
    pub fn of(graph: &AppGraph) -> Self {
        let mut by_role = [0; NodeRole::ALL.len()];
        for (_, n) in graph.nodes() {
            by_role[n.spec().role as usize] += 1;
        }
        Self {
            by_role,
            nodes: graph.node_count(),
            channels: graph.channel_count(),
        }
    }

    /// Count for a role name (e.g. `"Buffer"`), as `{:?}` prints the role.
    pub fn role(&self, name: &str) -> usize {
        self.roles()
            .into_iter()
            .find_map(|(role, count)| (role == name).then_some(count))
            .unwrap_or(0)
    }

    /// `(role name, count)` for every role present, by name.
    pub fn roles(&self) -> Vec<(String, usize)> {
        let present = NodeRole::ALL.into_iter().zip(self.by_role);
        let mut roles: Vec<_> = present
            .filter(|&(_, count)| count > 0)
            .map(|(role, count)| (format!("{role:?}"), count))
            .collect();
        roles.sort_unstable();
        roles
    }
}

/// Everything the compiler produced.
pub struct Compiled {
    /// The transformed, parallelized graph.
    pub graph: AppGraph,
    /// Kernel-to-PE mapping.
    pub mapping: Mapping,
    /// Final data-flow analysis of the transformed graph.
    pub dataflow: Dataflow,
    /// Pass reports.
    pub report: CompileReport,
}

/// Reports from each pass plus final statistics.
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// Alignment insertions (§III-C).
    pub align: AlignReport,
    /// Buffer insertions (§III-B).
    pub buffering: BufferingReport,
    /// Feedback-aware channel-capacity derivation (§III-D) over the final
    /// graph: the per-channel plan the simulator resolves by default, plus
    /// one entry per primed feedback loop.
    pub capacities: CapacityReport,
    /// Parallelization decisions (§IV).
    pub parallelize: ParallelizeReport,
    /// Pipeline fusions applied (§IV-B).
    pub fuse: FuseReport,
    /// Census of the final graph.
    pub census: GraphCensus,
    /// PEs used by the final mapping.
    pub pes_used: usize,
    /// Estimated mean PE utilization under the final mapping.
    pub estimated_utilization: f64,
}

/// Compile an application graph for the given machine. The input graph is
/// left untouched; the transformed copy is returned.
pub fn compile(graph: &AppGraph, opts: &CompileOptions) -> Result<Compiled> {
    let mut g = graph.clone();
    g.validate()?;

    // Each pass hands the next the analysis of the graph it leaves, so no
    // revision of the graph is analyzed twice.
    let (align_report, df) = align_analyzed(&mut g, opts.align)?;
    let (buffering_report, df) = insert_buffers_analyzed(&mut g, df)?;
    let parallelize_report = parallelize_analyzed(&mut g, &opts.machine, &df)?;
    let fuse_report = if opts.fuse {
        fuse_pipelines(&mut g)?
    } else {
        FuseReport::default()
    };

    let dataflow = analyze(&g)?;
    let mapping = map(&g, &dataflow, &opts.machine, opts.mapping);
    let capacities = derive_capacities(&g);

    // Estimated utilization: total demand over allocated capacity.
    let total_demand: f64 = (0..g.node_count())
        .map(|i| dataflow.nodes[i].total_cycles_per_sec(&opts.machine))
        .sum();
    let estimated_utilization = total_demand / (mapping.num_pes as f64 * opts.machine.pe_clock_hz);

    let census = GraphCensus::of(&g);
    Ok(Compiled {
        dataflow,
        report: CompileReport {
            align: align_report,
            buffering: buffering_report,
            capacities,
            parallelize: parallelize_report,
            fuse: fuse_report,
            census,
            pes_used: mapping.num_pes,
            estimated_utilization,
        },
        mapping,
        graph: g,
    })
}

/// Render a human-readable summary of a compilation (used by examples and
/// the figure harnesses).
pub fn summarize(c: &Compiled) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "graph: {} nodes, {} channels\n",
        c.report.census.nodes, c.report.census.channels
    ));
    for (role, count) in c.report.census.roles() {
        s.push_str(&format!("  {role:<10} {count}\n"));
    }
    for b in &c.report.buffering.inserted {
        s.push_str(&format!(
            "buffer {} {} ({}x{})[{}..] over {}\n",
            b.name,
            b.annotation(),
            b.window.w,
            b.window.h,
            b.step.x,
            b.data
        ));
    }
    for (join, split) in &c.report.fuse.fused {
        s.push_str(&format!("fused pipeline lanes: {join} + {split}\n"));
    }
    for lp in &c.report.capacities.loops {
        s.push_str(&format!(
            "feedback loop [{}]: {} primed items, back edge {} sized to {} \
             (default {})\n",
            lp.nodes.join(", "),
            lp.initial_tokens,
            lp.back_edges.join(", "),
            lp.capacity,
            c.report.capacities.plan.default
        ));
    }
    for p in &c.report.parallelize.plans {
        if p.granted > 1 {
            s.push_str(&format!(
                "parallelize {} -> x{} ({:?}, util {:.2})\n",
                p.name, p.granted, p.reason, p.utilization
            ));
        }
    }
    s.push_str(&format!(
        "mapping: {} PEs, estimated utilization {:.1}%\n",
        c.report.pes_used,
        100.0 * c.report.estimated_utilization
    ));
    s
}

/// Export the graph in Graphviz dot format (buffers as parallelograms,
/// split/join as diamonds, insets as inverted houses — echoing the paper's
/// figure conventions).
pub fn to_dot(graph: &AppGraph) -> String {
    let mut s = String::from("digraph app {\n  rankdir=LR;\n");
    for (id, node) in graph.nodes() {
        let shape = match node.spec().role {
            NodeRole::Buffer => "parallelogram",
            NodeRole::Split | NodeRole::Join => "diamond",
            NodeRole::Inset => "invhouse",
            NodeRole::Pad => "house",
            NodeRole::Source | NodeRole::Sink => "oval",
            NodeRole::Replicate => "triangle",
            _ => "box",
        };
        s.push_str(&format!("  n{} [label=\"", id.0));
        // A quoted DOT string ends at an unescaped `"`, and a `\` escapes
        // the character after it.
        for c in node.name.chars() {
            if matches!(c, '"' | '\\') {
                s.push('\\');
            }
            s.push(c);
        }
        s.push_str(&format!("\", shape={shape}];\n"));
    }
    for (_, ch) in graph.channels() {
        let style = if graph.node(ch.dst.node).spec().inputs[ch.dst.port].replicated {
            " [style=dashed]"
        } else {
            ""
        };
        s.push_str(&format!(
            "  n{} -> n{}{};\n",
            ch.src.node.0, ch.dst.node.0, style
        ));
    }
    for d in graph.dep_edges() {
        s.push_str(&format!(
            "  n{} -> n{} [style=dotted, constraint=false];\n",
            d.src.0, d.dst.0
        ));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{Dim2, GraphBuilder};
    use bp_kernels as k;

    /// The full Fig. 1(b) application, unbuffered and unaligned, exactly as
    /// a programmer would write it.
    pub fn fig1b(dim: Dim2, rate: f64) -> (AppGraph, k::SinkHandle) {
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, rate);
        let med = b.add("3x3 Median", k::median(3, 3));
        let conv = b.add("5x5 Conv", k::conv2d(5, 5));
        let coeff = b.add(
            "5x5 Coeff",
            k::const_source("coeff", k::box_coefficients(5, 5)),
        );
        let sub = b.add("Subtract", k::subtract());
        let hist = b.add("Histogram", k::histogram(32));
        let bins = b.add(
            "Hist Bins",
            k::const_source("bins", k::uniform_bins(32, -128.0, 128.0)),
        );
        let merge = b.add("Merge", k::histogram_merge(32));
        let (sdef, handle) = k::sink();
        let snk = b.add("result", sdef);
        b.connect(src, "out", med, "in");
        b.connect(src, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(med, "out", sub, "in0");
        b.connect(conv, "out", sub, "in1");
        b.connect(sub, "out", hist, "in");
        b.connect(bins, "out", hist, "bins");
        b.connect(hist, "out", merge, "in");
        b.connect(merge, "out", snk, "in");
        b.dep_edge(src, merge);
        (b.build().unwrap(), handle)
    }

    #[test]
    fn compiles_the_running_example() {
        let (g, _h) = fig1b(Dim2::new(20, 12), 50.0);
        let c = compile(&g, &CompileOptions::default()).unwrap();
        // Buffers on both filter paths, an inset on the median path.
        assert_eq!(c.report.buffering.inserted.len(), 2);
        assert_eq!(c.report.align.inserted.len(), 1);
        assert!(c.report.pes_used > 0);
        assert!(c.report.estimated_utilization > 0.0);
        c.graph.validate().unwrap();
        let dot = to_dot(&c.graph);
        assert!(dot.contains("parallelogram"));
        let summary = summarize(&c);
        assert!(summary.contains("mapping:"));
    }

    /// The labels of `dot`, unescaped, in node order. Panics unless each
    /// is a well-formed quoted string followed by the node's shape.
    fn dot_labels(dot: &str) -> Vec<String> {
        let labels = dot.split("[label=\"").skip(1).map(|rest| {
            let mut label = String::new();
            let mut chars = rest.chars();
            loop {
                match chars.next() {
                    Some('\\') => label.push(chars.next().expect("the file ends after an escape")),
                    Some('"') => break,
                    Some(c) => label.push(c),
                    None => panic!("unterminated label in {dot}"),
                }
            }
            let after = chars.as_str();
            assert!(after.starts_with(", shape="), "label ends early: {after}");
            label
        });
        labels.collect()
    }

    #[test]
    fn dot_labels_escape_quotes_and_backslashes() {
        let dim = Dim2::new(4, 2);
        let names = ["Cam \"left\"", "Out\\", "Plain"];
        let mut b = GraphBuilder::new();
        let src = b.add_source(names[0], k::pattern_source(dim), dim, 10.0);
        let snk = b.add(names[1], k::sink().0);
        let mid = b.add(names[2], k::scale(1.0, 0.0));
        b.connect(src, "out", mid, "in");
        b.connect(mid, "out", snk, "in");
        let dot = to_dot(&b.build().unwrap());
        assert!(dot.contains("label=\"Cam \\\"left\\\"\""), "{dot}");
        assert!(dot.contains("label=\"Out\\\\\""), "{dot}");
        assert_eq!(dot_labels(&dot), names);
        // Names without either character are written as they are.
        let (g, _h) = fig1b(Dim2::new(20, 12), 50.0);
        let plain = to_dot(&g);
        let written: Vec<String> = g.nodes().map(|(_, n)| n.name.to_string()).collect();
        assert_eq!(dot_labels(&plain), written);
    }

    #[test]
    fn fast_rate_parallelizes_compute() {
        let (g, _h) = fig1b(Dim2::new(20, 12), 200.0);
        let c = compile(&g, &CompileOptions::default()).unwrap();
        let conv = c.report.parallelize.plan_for("5x5 Conv").unwrap();
        let med = c.report.parallelize.plan_for("3x3 Median").unwrap();
        assert_eq!(conv.granted, 3, "{conv:?}");
        assert_eq!(med.granted, 2, "{med:?}");
        // Merge stays serial via the dep edge.
        let merge = c.report.parallelize.plan_for("Merge").unwrap();
        assert_eq!(merge.granted, 1);
    }

    #[test]
    fn greedy_mapping_beats_one_to_one_on_pe_count() {
        let (g, _h) = fig1b(Dim2::new(20, 12), 50.0);
        let one = compile(
            &g,
            &CompileOptions {
                mapping: MappingKind::OneToOne,
                ..Default::default()
            },
        )
        .unwrap();
        let greedy = compile(&g, &CompileOptions::default()).unwrap();
        assert!(greedy.report.pes_used < one.report.pes_used);
        assert!(greedy.report.estimated_utilization > one.report.estimated_utilization);
    }
}
