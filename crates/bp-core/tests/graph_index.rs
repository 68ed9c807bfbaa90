//! The adjacency index equals the scans it replaced.
//!
//! `AppGraph` keeps, per node, the live channels entering and leaving it,
//! and `in_channels` / `out_channels` / `channel_into` / `channels_from`,
//! `validate`, `topo_order`, `sccs` and `cyclic_sccs` read that index
//! instead of scanning every channel. This suite drives seeded random
//! sequences of every mutator and, after each step, holds all of them to
//! the pre-index implementations, kept here as oracles over nothing but
//! `channels()` and `nodes()`. Debug builds additionally run the graph's own
//! index-consistency assertion inside every mutator.

use bp_core::{
    AppGraph, BpError, Channel, ChannelId, Dim2, Emitter, FireData, InputSpec, KernelBehavior,
    KernelDef, KernelSpec, MethodCost, MethodSpec, Name, NodeId, NodeRole, OutputSpec, PortRef,
    Result, Rng64, SourceInfo,
};

struct Nop;
impl KernelBehavior for Nop {
    fn fire(&mut self, _m: usize, _d: &FireData<'_>, _o: &mut Emitter<'_>) {}
}

/// A kernel of the given role with `ins` inputs and `outs` outputs, one data
/// method per input writing every output (a source method when `ins == 0`).
fn def(role: NodeRole, ins: usize, outs: usize) -> KernelDef {
    let outputs: Vec<Name> = (0..outs).map(|o| format!("out{o}").into()).collect();
    let mut spec = KernelSpec::new("k").with_role(role);
    for o in &outputs {
        spec = spec.output(OutputSpec::stream(o.clone()));
    }
    for i in 0..ins {
        spec = spec.input(InputSpec::stream(format!("in{i}")));
        let cost = MethodCost::new(1, 0);
        let method = MethodSpec::on_data(format!("m{i}"), format!("in{i}"), outputs.clone(), cost);
        spec = spec.method(method);
    }
    if ins == 0 {
        spec = spec.method(MethodSpec::source("gen", outputs, MethodCost::new(0, 0)));
    }
    KernelDef::new(spec, || Nop)
}

// ---- the scans the index replaced -------------------------------------

fn scan_in(g: &AppGraph, node: NodeId) -> Vec<(ChannelId, Channel)> {
    let mut v: Vec<_> = g.channels().filter(|(_, c)| c.dst.node == node).collect();
    v.sort_by_key(|(_, c)| c.dst.port);
    v
}

fn scan_out(g: &AppGraph, node: NodeId) -> Vec<(ChannelId, Channel)> {
    let mut v: Vec<_> = g.channels().filter(|(_, c)| c.src.node == node).collect();
    v.sort_by_key(|(_, c)| c.src.port);
    v
}

fn scan_into(g: &AppGraph, node: NodeId, port: usize) -> Option<(ChannelId, Channel)> {
    g.channels()
        .find(|(_, c)| c.dst.node == node && c.dst.port == port)
}

fn scan_from(g: &AppGraph, node: NodeId, port: usize) -> Vec<(ChannelId, Channel)> {
    g.channels()
        .filter(|(_, c)| c.src.node == node && c.src.port == port)
        .collect()
}

/// `topo_order` as it was: per-node successor vectors filled by one scan.
fn old_topo_order(g: &AppGraph) -> Result<Vec<NodeId>> {
    let n = g.node_count();
    let mut indeg = vec![0usize; n];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (_, c) in g.channels() {
        if g.node(c.src.node).spec().role == NodeRole::Feedback {
            continue;
        }
        succ[c.src.node.0].push(c.dst.node.0);
        indeg[c.dst.node.0] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    queue.sort_unstable();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(NodeId(u));
        for &v in &succ[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    if order.len() != n {
        return Err(BpError::Validation(
            "application graph contains a cycle without a feedback kernel".into(),
        ));
    }
    Ok(order)
}

/// `sccs` as it was: iterative Tarjan over per-node successor vectors, one
/// `Vec` per component, singletons included.
fn old_sccs(g: &AppGraph) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (_, c) in g.channels() {
        succ[c.src.node.0].push(c.dst.node.0);
    }
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut comps: Vec<Vec<NodeId>> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, si)) = call.last() {
            if si == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(si) {
                call.last_mut().expect("frame present").1 += 1;
                if index[w] == UNSEEN {
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(NodeId(w));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

fn old_cyclic_sccs(g: &AppGraph) -> Vec<Vec<NodeId>> {
    old_sccs(g)
        .into_iter()
        .filter(|comp| {
            comp.len() > 1
                || g.channels()
                    .any(|(_, c)| c.src.node == comp[0] && c.dst.node == comp[0])
        })
        .collect()
}

/// The structural half of `validate` as it was — endpoints in range, one
/// scan of every channel per input port, sources, dependency edges, order.
/// (The per-spec half, port names and trigger disjointness, is resolved
/// from the spec's method table now and pinned by unit tests beside it;
/// the kernels here are well-formed.)
fn old_validate(g: &AppGraph) -> Result<()> {
    let invalid = |msg: String| Err(BpError::Validation(msg));
    for (_, ch) in g.channels() {
        if ch.src.node.0 >= g.node_count() {
            return invalid(format!("channel source node {:?} missing", ch.src.node));
        }
        let s = g.node(ch.src.node);
        if ch.src.port >= s.spec().outputs.len() {
            let port = ch.src.port;
            return invalid(format!(
                "channel source port {port} out of range on node '{}'",
                s.name
            ));
        }
        if ch.dst.node.0 >= g.node_count() {
            return invalid(format!("channel dest node {:?} missing", ch.dst.node));
        }
        let d = g.node(ch.dst.node);
        if ch.dst.port >= d.spec().inputs.len() {
            let port = ch.dst.port;
            return invalid(format!(
                "channel dest port {port} out of range on node '{}'",
                d.name
            ));
        }
    }
    for (id, node) in g.nodes() {
        let spec = node.spec();
        for (pi, input) in spec.inputs.iter().enumerate() {
            let into_port = |(_, c): &(ChannelId, Channel)| c.dst.node == id && c.dst.port == pi;
            let feeds = g.channels().filter(into_port).count();
            if feeds != 1 {
                return invalid(format!(
                    "input '{}' of node '{}' has {} incoming channels (need exactly 1)",
                    input.name, node.name, feeds
                ));
            }
        }
        if spec.role == NodeRole::Source {
            if !spec.inputs.is_empty() {
                return invalid(format!("source node '{}' must not have inputs", node.name));
            }
            if g.source_info(id).is_none() {
                return invalid(format!(
                    "source node '{}' has no registered frame size/rate",
                    node.name
                ));
            }
        }
    }
    for dep in g.dep_edges() {
        if dep.src.0 >= g.node_count() || dep.dst.0 >= g.node_count() {
            return invalid("dependency edge references missing node".into());
        }
    }
    old_topo_order(g).map(|_| ())
}

/// Every indexed answer against its scan, for every node and port.
fn assert_index_equals_scans(g: &AppGraph, step: &str) {
    for (id, node) in g.nodes() {
        assert_eq!(g.in_channels(id), scan_in(g, id), "{step}: in_channels");
        assert_eq!(g.out_channels(id), scan_out(g, id), "{step}: out_channels");
        let ascending_in: Vec<_> = g.channels().filter(|(_, c)| c.dst.node == id).collect();
        let ascending_out: Vec<_> = g.channels().filter(|(_, c)| c.src.node == id).collect();
        assert_eq!(
            g.channels_into(id).collect::<Vec<_>>(),
            ascending_in,
            "{step}"
        );
        assert_eq!(
            g.channels_out_of(id).collect::<Vec<_>>(),
            ascending_out,
            "{step}"
        );
        // One port past the widest the generator draws.
        let ports = node.spec().inputs.len().max(node.spec().outputs.len());
        for port in 0..ports.max(MAX_PORTS) + 1 {
            assert_eq!(g.channel_into(id, port), scan_into(g, id, port), "{step}");
            assert_eq!(g.channels_from(id, port), scan_from(g, id, port), "{step}");
        }
    }
    assert_eq!(g.topo_order(), old_topo_order(g), "{step}: topo_order");
    assert_eq!(g.sccs(), old_sccs(g), "{step}: sccs");
    assert_eq!(g.cyclic_sccs(), old_cyclic_sccs(g), "{step}: cyclic_sccs");
    assert_eq!(g.validate(), old_validate(g), "{step}: validate");
}

const MAX_PORTS: usize = 3;

fn random_port(rng: &mut Rng64) -> usize {
    rng.gen_index(MAX_PORTS)
}

fn random_endpoints(rng: &mut Rng64, g: &AppGraph) -> (PortRef, PortRef) {
    let n = g.node_count();
    // One draw in eight is a self-loop, so singleton cycles occur.
    let src = NodeId(rng.gen_index(n));
    let dst = if rng.gen_index(8) == 0 {
        src
    } else {
        NodeId(rng.gen_index(n))
    };
    let src = PortRef {
        node: src,
        port: random_port(rng),
    };
    let dst = PortRef {
        node: dst,
        port: random_port(rng),
    };
    (src, dst)
}

fn add_random_node(rng: &mut Rng64, g: &mut AppGraph) -> NodeId {
    let name = format!("n{}", g.node_count());
    match rng.gen_index(6) {
        0 => {
            let id = g.add_node(name, def(NodeRole::Source, 0, 1));
            // Most, not all, sources are registered.
            if rng.gen_index(4) != 0 {
                g.set_source_info(SourceInfo {
                    node: id,
                    frame: Dim2::new(4, 4),
                    rate_hz: 10.0,
                });
            }
            id
        }
        // Feedback kernels are where `topo_order` cuts and `sccs` does not.
        1 => g.add_node(name, def(NodeRole::Feedback, 1, 1)),
        // Plumbing is what `compact` may drop.
        2 => g.add_node(name, def(NodeRole::Split, 1, 2)),
        3 => g.add_node(name, def(NodeRole::Join, 2, 1)),
        _ => {
            let (ins, outs) = (1 + rng.gen_index(MAX_PORTS), rng.gen_index(MAX_PORTS));
            g.add_node(name, def(NodeRole::User, ins, outs))
        }
    }
}

#[test]
fn random_mutation_sequences_keep_the_index_equal_to_the_scans() {
    for seed in 0..24u64 {
        let mut rng = Rng64::seed_from_u64(0x1d3a_0000 + seed);
        let mut g = AppGraph::new();
        for _ in 0..3 {
            add_random_node(&mut rng, &mut g);
        }
        for step in 0..120 {
            let slots = g.channels().map(|(id, _)| id.0 + 1).max().unwrap_or(0);
            let live: Vec<ChannelId> = g.channels().map(|(id, _)| id).collect();
            let what = match rng.gen_index(12) {
                0 | 1 => {
                    add_random_node(&mut rng, &mut g);
                    "add_node"
                }
                2..=5 => {
                    let (src, dst) = random_endpoints(&mut rng, &g);
                    g.add_channel(src, dst);
                    "add_channel"
                }
                6 | 7 if slots > 0 => {
                    // Any slot ever used: retargeting a live channel moves
                    // it between lists, naming a removed one revives it.
                    let id = ChannelId(rng.gen_index(slots));
                    let (src, dst) = random_endpoints(&mut rng, &g);
                    g.set_channel(id, Channel { src, dst });
                    "set_channel"
                }
                8 if !live.is_empty() => {
                    g.remove_channel(live[rng.gen_index(live.len())]);
                    "remove_channel"
                }
                9 if !live.is_empty() => {
                    let ch = live[rng.gen_index(live.len())];
                    let name = format!("n{}", g.node_count());
                    g.splice(ch, name, def(NodeRole::User, 1, 1), 0, 0);
                    "splice"
                }
                10 => {
                    let before: Vec<_> = g.nodes().map(|(_, n)| n.name.clone()).collect();
                    let remap = g.compact();
                    // Survivors keep their relative order under new ids.
                    for (old, new) in remap.iter().enumerate() {
                        if let Some(new) = new {
                            assert_eq!(g.node(*new).name, before[old]);
                        }
                    }
                    "compact"
                }
                _ => {
                    let (src, dst) = random_endpoints(&mut rng, &g);
                    g.add_channel(src, dst);
                    "add_channel"
                }
            };
            assert_index_equals_scans(&g, &format!("seed {seed} step {step} ({what})"));
        }
        // A clone carries the index with it.
        let copy = g.clone();
        assert_index_equals_scans(&copy, &format!("seed {seed} clone"));
    }
}

/// The cases the walks special-case: a singleton with a self-loop is a
/// cyclic component, one without is not; a loop through a feedback kernel
/// is ordered by `topo_order` (which cuts it) and found by `sccs` (which
/// does not); the same loop without the feedback kernel is an error.
#[test]
fn self_loops_and_feedback_cuts() {
    let mut g = AppGraph::new();
    let a = g.add_node("a", def(NodeRole::User, 1, 1));
    let b = g.add_node("b", def(NodeRole::User, 1, 1));
    let port = |node| PortRef { node, port: 0 };
    g.add_channel(port(a), port(a));
    g.add_channel(port(a), port(b));
    assert_eq!(g.cyclic_sccs(), vec![vec![a]]);
    assert_eq!(g.sccs(), old_sccs(&g));
    assert!(g.topo_order().is_err());

    for (role, ordered) in [(NodeRole::Feedback, true), (NodeRole::User, false)] {
        let mut g = AppGraph::new();
        let mix = g.add_node("mix", def(NodeRole::User, 2, 1));
        let half = g.add_node("half", def(NodeRole::User, 1, 1));
        let delay = g.add_node("delay", def(role, 1, 1));
        g.add_channel(port(mix), port(half));
        g.add_channel(port(half), port(delay));
        g.add_channel(port(delay), PortRef { node: mix, port: 1 });
        assert_eq!(g.cyclic_sccs(), vec![vec![mix, half, delay]]);
        assert_eq!(g.cyclic_sccs(), old_cyclic_sccs(&g));
        assert_eq!(g.topo_order().is_ok(), ordered);
        assert_eq!(g.topo_order(), old_topo_order(&g));
    }
}
