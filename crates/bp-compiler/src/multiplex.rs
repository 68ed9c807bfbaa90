//! Kernel-to-processor mapping (§V): the naive 1:1 mapping and the greedy
//! multiplexing algorithm that merges neighboring low-utilization kernels
//! onto one PE when their combined CPU/memory demand fits, raising overall
//! utilization (the paper reports a 1.5× average improvement, 20% → 37% on
//! the running example).

use crate::dataflow::Dataflow;
use bp_core::graph::{AppGraph, Channel, ChannelId, NodeId};
use bp_core::kernel::NodeRole;
use bp_core::machine::{MachineSpec, Mapping};

/// Which mapping to produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MappingKind {
    /// Every kernel on its own PE.
    OneToOne,
    /// Greedy multiplexing of neighbors (§V).
    Greedy,
    /// First-fit-decreasing bin packing, ignoring adjacency (an ablation of
    /// the paper's neighbor rule).
    Packed,
}

/// The naive mapping: one PE per kernel.
pub fn map_one_to_one(graph: &AppGraph) -> Mapping {
    Mapping::one_to_one(graph.node_count())
}

/// Estimated PE utilization of each node: total cycle demand (compute +
/// I/O) over one PE's clock.
pub fn node_utilizations(graph: &AppGraph, df: &Dataflow, machine: &MachineSpec) -> Vec<f64> {
    (0..graph.node_count())
        .map(|i| df.nodes[i].total_cycles_per_sec(machine) / machine.pe_clock_hz)
        .collect()
}

/// True for nodes the greedy pass must not multiplex: application inputs
/// and the initial input buffers directly downstream of them, which "may
/// block the input if they are not serviced in time" (§V). The upstream
/// walk crosses compiler plumbing (splits, replicates) so column-split
/// input buffers stay pinned too.
pub fn is_pinned(graph: &AppGraph, id: NodeId) -> bool {
    let spec = graph.node(id).spec();
    match spec.role {
        NodeRole::Source => true,
        NodeRole::Buffer => fed_from_source(graph, id, 8),
        _ => false,
    }
}

fn fed_from_source(graph: &AppGraph, id: NodeId, depth: usize) -> bool {
    if depth == 0 {
        return false;
    }
    for (_, ch) in graph.channels_into(id) {
        let up = ch.src.node;
        let role = graph.node(up).spec().role;
        match role {
            NodeRole::Source => return true,
            NodeRole::Split | NodeRole::Replicate if fed_from_source(graph, up, depth - 1) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Greedy multiplexing (§V): walk the graph in topological order; merge
/// each kernel onto a neighboring kernel's PE when the combined CPU
/// utilization stays below the machine's cap and the combined storage fits
/// one PE. Unmergeable kernels get fresh PEs.
pub fn map_greedy(graph: &AppGraph, df: &Dataflow, machine: &MachineSpec) -> Mapping {
    let n = graph.node_count();
    let util = node_utilizations(graph, df, machine);
    let mem: Vec<u64> = graph
        .nodes()
        .map(|(_, node)| node.spec().memory_words())
        .collect();

    let order = graph
        .topo_order()
        .unwrap_or_else(|_| (0..n).map(NodeId).collect());
    let mut assign: Vec<Option<usize>> = vec![None; n];
    let mut pe_util: Vec<f64> = Vec::with_capacity(n);
    let mut pe_mem: Vec<u64> = Vec::with_capacity(n);
    let mut pe_pinned: Vec<bool> = Vec::with_capacity(n);
    // Per-node working storage, reused from node to node.
    let mut adjacent: Vec<(ChannelId, Channel)> = Vec::new();
    let mut candidates: Vec<usize> = Vec::new();

    for id in order {
        let i = id.0;
        if is_pinned(graph, id) {
            assign[i] = Some(pe_util.len());
            pe_util.push(util[i]);
            pe_mem.push(mem[i]);
            pe_pinned.push(true);
            continue;
        }
        // Candidate PEs: those of already-assigned graph neighbors, most
        // utilized first (pack tightly), excluding pinned PEs.
        // Neighbors in input-port order, then output-port order: candidate
        // ties keep this order through the stable sort below.
        candidates.clear();
        adjacent.clear();
        adjacent.extend(graph.channels_into(id));
        adjacent.sort_by_key(|(_, c)| c.dst.port);
        for (_, ch) in &adjacent {
            if let Some(pe) = assign[ch.src.node.0] {
                if !candidates.contains(&pe) {
                    candidates.push(pe);
                }
            }
        }
        adjacent.clear();
        adjacent.extend(graph.channels_out_of(id));
        adjacent.sort_by_key(|(_, c)| c.src.port);
        for (_, ch) in &adjacent {
            if let Some(pe) = assign[ch.dst.node.0] {
                if !candidates.contains(&pe) {
                    candidates.push(pe);
                }
            }
        }
        candidates.sort_by(|a, b| {
            pe_util[*b]
                .partial_cmp(&pe_util[*a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut placed = false;
        for &pe in &candidates {
            if pe_pinned[pe] {
                continue;
            }
            if pe_util[pe] + util[i] <= machine.utilization_cap
                && pe_mem[pe] + mem[i] <= machine.pe_memory_words
            {
                assign[i] = Some(pe);
                pe_util[pe] += util[i];
                pe_mem[pe] += mem[i];
                placed = true;
                break;
            }
        }
        if !placed {
            assign[i] = Some(pe_util.len());
            pe_util.push(util[i]);
            pe_mem.push(mem[i]);
            pe_pinned.push(false);
        }
    }
    Mapping::from_assignment(assign.into_iter().map(|a| a.unwrap()).collect())
}

/// First-fit-decreasing bin packing by utilization — an ablation of the
/// paper's neighbor-greedy rule. It packs *any* kernels together when their
/// combined CPU/memory fits, ignoring graph adjacency, which minimizes PE
/// count but scatters communicating kernels across PEs (costly once
/// placement/NoC energy matters — see the placement pass).
pub fn map_packed(graph: &AppGraph, df: &Dataflow, machine: &MachineSpec) -> Mapping {
    let n = graph.node_count();
    let util = node_utilizations(graph, df, machine);
    let mem: Vec<u64> = graph
        .nodes()
        .map(|(_, node)| node.spec().memory_words())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|a, b| {
        util[*b]
            .partial_cmp(&util[*a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut assign: Vec<Option<usize>> = vec![None; n];
    let mut pe_util: Vec<f64> = Vec::new();
    let mut pe_mem: Vec<u64> = Vec::new();
    let mut pe_pinned: Vec<bool> = Vec::new();
    for i in order {
        if is_pinned(graph, NodeId(i)) {
            assign[i] = Some(pe_util.len());
            pe_util.push(util[i]);
            pe_mem.push(mem[i]);
            pe_pinned.push(true);
            continue;
        }
        let slot = (0..pe_util.len()).find(|&pe| {
            !pe_pinned[pe]
                && pe_util[pe] + util[i] <= machine.utilization_cap
                && pe_mem[pe] + mem[i] <= machine.pe_memory_words
        });
        match slot {
            Some(pe) => {
                assign[i] = Some(pe);
                pe_util[pe] += util[i];
                pe_mem[pe] += mem[i];
            }
            None => {
                assign[i] = Some(pe_util.len());
                pe_util.push(util[i]);
                pe_mem.push(mem[i]);
                pe_pinned.push(false);
            }
        }
    }
    Mapping::from_assignment(assign.into_iter().map(|a| a.unwrap()).collect())
}

/// Produce the requested mapping.
pub fn map(graph: &AppGraph, df: &Dataflow, machine: &MachineSpec, kind: MappingKind) -> Mapping {
    match kind {
        MappingKind::OneToOne => map_one_to_one(graph),
        MappingKind::Greedy => map_greedy(graph, df, machine),
        MappingKind::Packed => map_packed(graph, df, machine),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::analyze;
    use bp_core::{Dim2, GraphBuilder, Step2};
    use bp_kernels as k;

    fn pipeline() -> AppGraph {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", k::pattern_source(dim), dim, 50.0);
        let buf = b.add(
            "Buf",
            k::buffer(Dim2::ONE, Dim2::new(3, 3), Step2::ONE, dim),
        );
        let med = b.add("Median", k::median(3, 3));
        let sc = b.add("Scale", k::scale(1.0, 0.0));
        let (sdef, _h) = k::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", buf, "in");
        b.connect(buf, "out", med, "in");
        b.connect(med, "out", sc, "in");
        b.connect(sc, "out", snk, "in");
        b.build().unwrap()
    }

    #[test]
    fn one_to_one_uses_a_pe_per_kernel() {
        let g = pipeline();
        let m = map_one_to_one(&g);
        assert_eq!(m.num_pes, g.node_count());
    }

    #[test]
    fn greedy_uses_fewer_pes_than_one_to_one() {
        let g = pipeline();
        let df = analyze(&g).unwrap();
        let machine = bp_core::MachineSpec::default_eval();
        let greedy = map_greedy(&g, &df, &machine);
        assert!(greedy.num_pes < g.node_count(), "greedy {}", greedy.num_pes);
        // Every node is mapped.
        assert_eq!(greedy.pe_of_node.len(), g.node_count());
    }

    #[test]
    fn input_buffer_stays_pinned_alone() {
        let g = pipeline();
        let df = analyze(&g).unwrap();
        let machine = bp_core::MachineSpec::default_eval();
        let greedy = map_greedy(&g, &df, &machine);
        let buf = g.find_node("Buf").unwrap();
        let buf_pe = greedy.pe_of_node[buf.0];
        let sharers = greedy.pe_of_node.iter().filter(|pe| **pe == buf_pe).count();
        assert_eq!(sharers, 1, "initial input buffer must not be multiplexed");
        assert!(is_pinned(&g, buf));
        assert!(is_pinned(&g, g.find_node("Input").unwrap()));
        assert!(!is_pinned(&g, g.find_node("Median").unwrap()));
    }

    #[test]
    fn packed_uses_no_more_pes_than_greedy() {
        let g = pipeline();
        let df = analyze(&g).unwrap();
        let machine = bp_core::MachineSpec::default_eval();
        let greedy = map_greedy(&g, &df, &machine);
        let packed = map_packed(&g, &df, &machine);
        assert!(packed.num_pes <= greedy.num_pes);
        assert_eq!(packed.pe_of_node.len(), g.node_count());
        // Pinned nodes stay alone under packing too.
        let buf = g.find_node("Buf").unwrap();
        let pe = packed.pe_of_node[buf.0];
        assert_eq!(packed.pe_of_node.iter().filter(|p| **p == pe).count(), 1);
    }

    #[test]
    fn packed_respects_capacity_constraints() {
        let g = pipeline();
        let df = analyze(&g).unwrap();
        let machine = bp_core::MachineSpec::default_eval();
        let packed = map_packed(&g, &df, &machine);
        let util = node_utilizations(&g, &df, &machine);
        let mut pe_util = vec![0.0; packed.num_pes];
        let mut pe_mem = vec![0u64; packed.num_pes];
        for (id, node) in g.nodes() {
            pe_util[packed.pe_of_node[id.0]] += util[id.0];
            pe_mem[packed.pe_of_node[id.0]] += node.spec().memory_words();
        }
        for (u, m) in pe_util.iter().zip(&pe_mem) {
            assert!(*u <= machine.utilization_cap + 1e-9);
            assert!(*m <= machine.pe_memory_words);
        }
    }

    #[test]
    fn greedy_respects_memory_capacity() {
        let g = pipeline();
        let df = analyze(&g).unwrap();
        let machine = bp_core::MachineSpec::default_eval();
        let greedy = map_greedy(&g, &df, &machine);
        let mut pe_mem = vec![0u64; greedy.num_pes];
        for (id, node) in g.nodes() {
            pe_mem[greedy.pe_of_node[id.0]] += node.spec().memory_words();
        }
        for m in pe_mem {
            assert!(m <= machine.pe_memory_words, "PE over memory: {m}");
        }
    }
}
