//! The application graph: kernels connected by data channels, plus
//! data-dependency edges and real-time input specifications (§II).
//!
//! The graph keeps an *adjacency index* next to its channel slots: for every
//! node, the live channels entering it and the live channels leaving it, in
//! ascending channel-id order. Every mutator that touches a channel —
//! [`AppGraph::add_channel`], [`AppGraph::set_channel`],
//! [`AppGraph::remove_channel`], [`AppGraph::compact`] — keeps it exact, so
//! the per-node lookups cost O(degree) and answer with the ids, in the
//! order, a scan of [`AppGraph::channels`] would.

use crate::error::{BpError, Result};
use crate::geometry::Dim2;
use crate::kernel::{KernelDef, KernelSpec, NodeRole};
use crate::method::MethodTable;
use std::sync::Arc;

/// Identifier of a node in the application graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a channel in the application graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChannelId(pub usize);

/// A (node, port index) endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The node.
    pub node: NodeId,
    /// Input or output port index on that node, depending on context.
    pub port: usize,
}

/// A FIFO data channel from an output port to an input port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Channel {
    /// Producing (node, output port).
    pub src: PortRef,
    /// Consuming (node, input port).
    pub dst: PortRef,
}

/// A data-dependency edge limiting the parallelism of `dst` to the replica
/// count of `src` (§IV-B) — e.g. an edge from the application input to a
/// histogram merge restricts the merge to one instance per frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// The node whose parallelism bounds the sink.
    pub src: NodeId,
    /// The node being limited.
    pub dst: NodeId,
}

/// Real-time specification of an application input: its frame size and the
/// fixed rate at which frames arrive. This is what imposes the throughput
/// constraint the compiler must meet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SourceInfo {
    /// The source node (role [`NodeRole::Source`]).
    pub node: NodeId,
    /// Frame dimensions.
    pub frame: Dim2,
    /// Frames per second.
    pub rate_hz: f64,
}

/// A node: a named kernel instance.
#[derive(Clone)]
pub struct Node {
    /// Instance name, unique in the graph (e.g. `"5x5 Conv_2"`). Shared, so
    /// graph copies and simulator instances hold it without copying it.
    pub name: Arc<str>,
    /// The kernel definition (spec + behavior factory).
    pub def: KernelDef,
}

impl Node {
    /// The node's kernel spec.
    pub fn spec(&self) -> &KernelSpec {
        &self.def.spec
    }

    /// The spec's index-resolved methods
    /// ([`KernelSpec::method_table`]); an unknown or repeated name is
    /// reported against this node.
    pub fn method_table(&self) -> Result<&Arc<MethodTable>> {
        self.def
            .spec
            .method_table_of(format_args!("node '{}'", self.name))
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("kind", &self.def.spec.kind)
            .finish_non_exhaustive()
    }
}

/// A dense map keyed by channel slot — what per-channel analysis results
/// live in. Lookups are an index, and filling one allocates once.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for ChannelMap<T> {
    fn default() -> Self {
        Self { slots: Vec::new() }
    }
}

impl<T> ChannelMap<T> {
    /// An empty map with room for every channel slot of `graph`.
    pub fn for_graph(graph: &AppGraph) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(graph.channels.len(), || None);
        Self { slots }
    }

    /// The value stored for `id`, if any.
    pub fn get(&self, id: &ChannelId) -> Option<&T> {
        self.slots.get(id.0)?.as_ref()
    }

    /// Store `value` for `id`, returning what it replaces.
    pub fn insert(&mut self, id: ChannelId, value: T) -> Option<T> {
        if id.0 >= self.slots.len() {
            self.slots.resize_with(id.0 + 1, || None);
        }
        self.slots[id.0].replace(value)
    }
}

impl<T> std::ops::Index<&ChannelId> for ChannelMap<T> {
    type Output = T;

    fn index(&self, id: &ChannelId) -> &T {
        self.get(id).expect("no value for this channel")
    }
}

/// End-of-list marker of [`ChannelLists`].
const NIL: u32 = u32::MAX;

/// One direction of the adjacency index: per node, a singly linked list of
/// channel ids in ascending order, threaded through one `next` entry per
/// channel slot. A channel is on exactly one list per direction (its
/// destination's in-list, its source's out-list), so the lists need no
/// storage of their own beyond these two arrays.
#[derive(Clone, Default)]
struct ChannelLists {
    /// `(first, last)` channel of each node's list; `(NIL, NIL)` when empty.
    ends: Vec<(u32, u32)>,
    /// The channel after each channel slot on its list.
    next: Vec<u32>,
}

impl ChannelLists {
    /// Put channel `cid` on `node`'s list, keeping it ascending. A fresh
    /// channel has the largest id and is appended in O(1).
    fn insert(&mut self, node: usize, cid: usize) {
        if node >= self.ends.len() {
            // A channel may name a node that does not exist (yet);
            // validation reports it, the index just has to hold it.
            self.ends.resize(node + 1, (NIL, NIL));
        }
        if cid >= self.next.len() {
            self.next.resize(cid + 1, NIL);
        }
        let id = cid as u32;
        let (first, last) = self.ends[node];
        if last == NIL {
            self.next[cid] = NIL;
            self.ends[node] = (id, id);
        } else if last < id {
            self.next[cid] = NIL;
            self.next[last as usize] = id;
            self.ends[node].1 = id;
        } else {
            let (mut prev, mut cur) = (NIL, first);
            while cur < id {
                (prev, cur) = (cur, self.next[cur as usize]);
            }
            debug_assert_ne!(cur, id, "channel {cid} is already on the list");
            self.next[cid] = cur;
            match prev {
                NIL => self.ends[node].0 = id,
                p => self.next[p as usize] = id,
            }
        }
    }

    /// Room for the lists of `nodes` nodes over `channels` channel slots
    /// in all.
    fn reserve(&mut self, nodes: usize, channels: usize) {
        self.ends
            .reserve_exact(nodes.saturating_sub(self.ends.len()));
        self.next
            .reserve_exact(channels.saturating_sub(self.next.len()));
    }

    /// Take channel `cid` off `node`'s list.
    fn remove(&mut self, node: usize, cid: usize) {
        let id = cid as u32;
        let (mut prev, mut cur) = (NIL, self.ends[node].0);
        while cur != id {
            assert_ne!(cur, NIL, "channel {cid} is not on node {node}'s list");
            (prev, cur) = (cur, self.next[cur as usize]);
        }
        let after = std::mem::replace(&mut self.next[cid], NIL);
        match prev {
            NIL => self.ends[node].0 = after,
            p => self.next[p as usize] = after,
        }
        if after == NIL {
            self.ends[node].1 = prev;
        }
    }

    /// The channels on `node`'s list, ascending.
    fn of(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let first = self.ends.get(node).map_or(NIL, |e| e.0);
        std::iter::successors((first != NIL).then_some(first as usize), |&c| {
            let next = self.next[c];
            (next != NIL).then_some(next as usize)
        })
    }
}

/// The application graph.
///
/// Nodes are never removed (transformations rename/augment instead), so
/// [`NodeId`]s stay stable across passes. Channels may be retargeted or
/// removed by passes; removed slots are tombstoned so [`ChannelId`]s of the
/// survivors stay stable too.
#[derive(Clone, Default)]
pub struct AppGraph {
    nodes: Vec<Node>,
    channels: Vec<Option<Channel>>,
    dep_edges: Vec<DepEdge>,
    sources: Vec<SourceInfo>,
    /// Adjacency index (see the module docs): channels by destination node.
    /// Invariant: channel `c` is on `ins`'s list of node `n` exactly when
    /// `channels[c]` is live with `dst.node == n`; likewise `outs` and
    /// `src.node`. Only the four channel mutators write it.
    ins: ChannelLists,
    /// Adjacency index: channels by source node.
    outs: ChannelLists,
}

impl std::fmt::Debug for AppGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppGraph")
            .field("nodes", &self.nodes.len())
            .field("channels", &self.channel_count())
            .field("dep_edges", &self.dep_edges.len())
            .field("sources", &self.sources.len())
            .finish()
    }
}

impl AppGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, name: impl Into<Arc<str>>, def: KernelDef) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            def,
        });
        id
    }

    /// Reserve room for `nodes` more nodes and `channels` more channels,
    /// index included, so a pass that knows how much it will add grows
    /// each array once.
    pub fn reserve(&mut self, nodes: usize, channels: usize) {
        self.nodes.reserve_exact(nodes);
        self.channels.reserve_exact(channels);
        let (nodes, channels) = (self.nodes.len() + nodes, self.channels.len() + channels);
        self.ins.reserve(nodes, channels);
        self.outs.reserve(nodes, channels);
    }

    /// Register a source node's real-time input specification.
    pub fn set_source_info(&mut self, info: SourceInfo) {
        self.sources.retain(|s| s.node != info.node);
        self.sources.push(info);
    }

    /// Enter a live channel into both directions of the adjacency index.
    fn link(&mut self, id: ChannelId, ch: Channel) {
        self.ins.insert(ch.dst.node.0, id.0);
        self.outs.insert(ch.src.node.0, id.0);
    }

    /// Take a live channel out of both directions of the adjacency index.
    fn unlink(&mut self, id: ChannelId, ch: Channel) {
        self.ins.remove(ch.dst.node.0, id.0);
        self.outs.remove(ch.src.node.0, id.0);
    }

    /// Whether the adjacency index lists, under each of `nodes`, exactly the
    /// live channels a scan finds there, ascending. Debug builds check the
    /// endpoints a mutator touched after every mutation.
    fn indexes(&self, nodes: impl IntoIterator<Item = NodeId>) -> bool {
        nodes.into_iter().all(|n| {
            let scan_in = self.channels().filter(|(_, c)| c.dst.node == n);
            let scan_out = self.channels().filter(|(_, c)| c.src.node == n);
            self.ins.of(n.0).eq(scan_in.map(|(id, _)| id.0))
                && self.outs.of(n.0).eq(scan_out.map(|(id, _)| id.0))
        })
    }

    /// Add a channel; returns its id.
    pub fn add_channel(&mut self, src: PortRef, dst: PortRef) -> ChannelId {
        let id = ChannelId(self.channels.len());
        let ch = Channel { src, dst };
        self.channels.push(Some(ch));
        self.link(id, ch);
        debug_assert!(self.indexes([src.node, dst.node]));
        id
    }

    /// Remove a channel (tombstoned).
    pub fn remove_channel(&mut self, id: ChannelId) {
        if let Some(old) = self.channels[id.0].take() {
            self.unlink(id, old);
            debug_assert!(self.indexes([old.src.node, old.dst.node]));
        }
    }

    /// Retarget an existing channel.
    pub fn set_channel(&mut self, id: ChannelId, ch: Channel) {
        let old = self.channels[id.0].replace(ch);
        if let Some(old) = old {
            self.unlink(id, old);
        }
        self.link(id, ch);
        let was = old.iter().flat_map(|c| [c.src.node, c.dst.node]);
        debug_assert!(self.indexes(was.chain([ch.src.node, ch.dst.node])));
    }

    /// Add a data-dependency edge.
    pub fn add_dep_edge(&mut self, src: NodeId, dst: NodeId) {
        self.dep_edges.push(DepEdge { src, dst });
    }

    /// All nodes, by id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable node lookup.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Find a node by instance name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| &*n.name == name).map(NodeId)
    }

    /// Live channels.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, Channel)> + '_ {
        self.channels
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (ChannelId(i), c)))
    }

    /// Number of live channels.
    pub fn channel_count(&self) -> usize {
        self.channels.iter().flatten().count()
    }

    /// Channel lookup (panics on a tombstoned id).
    pub fn channel(&self, id: ChannelId) -> Channel {
        self.channels[id.0].expect("channel was removed")
    }

    /// Data-dependency edges.
    pub fn dep_edges(&self) -> &[DepEdge] {
        &self.dep_edges
    }

    /// Real-time input specifications.
    pub fn sources(&self) -> &[SourceInfo] {
        &self.sources
    }

    /// The source info for a node, if it is a registered application input.
    pub fn source_info(&self, node: NodeId) -> Option<SourceInfo> {
        self.sources.iter().copied().find(|s| s.node == node)
    }

    /// The live channels on one of the index's lists, ascending by id.
    fn listed<'a>(
        &'a self,
        lists: &'a ChannelLists,
        node: NodeId,
    ) -> impl Iterator<Item = (ChannelId, Channel)> + 'a {
        lists.of(node.0).map(|c| {
            let ch = self.channels[c].expect("indexed channel is live");
            (ChannelId(c), ch)
        })
    }

    /// Channels entering `node`, ascending by channel id — what
    /// [`in_channels`](Self::in_channels) sorts by port, without the `Vec`.
    pub fn channels_into(&self, node: NodeId) -> impl Iterator<Item = (ChannelId, Channel)> + '_ {
        self.listed(&self.ins, node)
    }

    /// Channels leaving `node`, ascending by channel id — what
    /// [`out_channels`](Self::out_channels) sorts by port, without the `Vec`.
    pub fn channels_out_of(&self, node: NodeId) -> impl Iterator<Item = (ChannelId, Channel)> + '_ {
        self.listed(&self.outs, node)
    }

    /// Channels entering `node`, ordered by input port index.
    pub fn in_channels(&self, node: NodeId) -> Vec<(ChannelId, Channel)> {
        let mut v: Vec<_> = self.channels_into(node).collect();
        v.sort_by_key(|(_, c)| c.dst.port);
        v
    }

    /// Channels leaving `node`, ordered by output port index.
    pub fn out_channels(&self, node: NodeId) -> Vec<(ChannelId, Channel)> {
        let mut v: Vec<_> = self.channels_out_of(node).collect();
        v.sort_by_key(|(_, c)| c.src.port);
        v
    }

    /// The single channel feeding the given input port, if any.
    pub fn channel_into(&self, node: NodeId, port: usize) -> Option<(ChannelId, Channel)> {
        self.channels_into(node).find(|(_, c)| c.dst.port == port)
    }

    /// All channels leaving the given output port (fan-out).
    pub fn channels_from(&self, node: NodeId, port: usize) -> Vec<(ChannelId, Channel)> {
        self.channels_out_of(node)
            .filter(|(_, c)| c.src.port == port)
            .collect()
    }

    /// Splice a single-input single-output node into an existing channel:
    /// `src -> dst` becomes `src -> mid -> dst`. Returns the new node id.
    pub fn splice(
        &mut self,
        ch: ChannelId,
        name: impl Into<Arc<str>>,
        def: KernelDef,
        in_port: usize,
        out_port: usize,
    ) -> NodeId {
        let old = self.channel(ch);
        let mid = self.add_node(name, def);
        self.set_channel(
            ch,
            Channel {
                src: old.src,
                dst: PortRef {
                    node: mid,
                    port: in_port,
                },
            },
        );
        self.add_channel(
            PortRef {
                node: mid,
                port: out_port,
            },
            old.dst,
        );
        mid
    }

    /// Topological order of nodes over data channels; edges whose source is
    /// a [`NodeRole::Feedback`] node are ignored so feedback loops (§III-D)
    /// do not prevent ordering. Errors if a non-feedback cycle remains.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let n = self.nodes.len();
        let cut = |u: usize| self.nodes[u].spec().role == NodeRole::Feedback;
        let mut indeg = vec![0usize; n];
        for (_, c) in self.channels() {
            if !cut(c.src.node.0) {
                indeg[c.dst.node.0] += 1;
            }
        }
        // Kahn's algorithm; `order` doubles as the queue. Successors are
        // visited in channel order, which is the order of the out-lists.
        let mut order = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| indeg[i] == 0).map(NodeId));
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            if cut(u.0) {
                continue;
            }
            for (_, c) in self.channels_out_of(u) {
                let v = c.dst.node;
                indeg[v.0] -= 1;
                if indeg[v.0] == 0 {
                    order.push(v);
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

    /// Iterative Tarjan walk over the data-channel graph (feedback edges
    /// included), successors in channel order. Components complete in
    /// reverse topological order of the condensation; each is handed out
    /// with its members sorted by id. A component of one node without a
    /// self-loop channel is only materialised when `singletons` is set.
    fn tarjan(&self, singletons: bool) -> Vec<Vec<NodeId>> {
        let n = self.nodes.len();
        // The next out-channel to follow per open frame; `NIL` when done.
        let first_out = |v: usize| self.outs.ends.get(v).map_or(NIL, |e| e.0);
        const UNSEEN: usize = usize::MAX;
        let mut index = vec![UNSEEN; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::with_capacity(n);
        let mut call: Vec<(usize, u32)> = Vec::with_capacity(n);
        let mut next_index = 0usize;
        let mut comps: Vec<Vec<NodeId>> = Vec::new();
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            call.push((root, first_out(root)));
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(&(v, edge)) = call.last() {
                if edge != NIL {
                    call.last_mut().expect("frame present").1 = self.outs.next[edge as usize];
                    let ch = self.channels[edge as usize].expect("indexed channel is live");
                    let w = ch.dst.node.0;
                    if index[w] == UNSEEN {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, first_out(w)));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                    continue;
                }
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] != index[v] {
                    continue;
                }
                if stack.last() == Some(&v) {
                    // A component of one: the common case in a pipeline.
                    stack.pop();
                    on_stack[v] = false;
                    let self_loop = || {
                        self.channels_out_of(NodeId(v))
                            .any(|(_, c)| c.dst.node.0 == v)
                    };
                    if singletons || self_loop() {
                        comps.push(vec![NodeId(v)]);
                    }
                    continue;
                }
                let at = stack.iter().rposition(|&w| w == v).expect("root on stack");
                let mut comp: Vec<NodeId> = stack.drain(at..).map(NodeId).collect();
                for w in &comp {
                    on_stack[w.0] = false;
                }
                comp.sort_unstable();
                comps.push(comp);
            }
        }
        comps
    }

    /// Strongly connected components of the *data-channel* graph (feedback
    /// edges included — unlike [`topo_order`](Self::topo_order), which cuts
    /// them), via an iterative Tarjan walk. Components come back in reverse
    /// topological order of the condensation with members sorted by id; the
    /// order is fully deterministic for a given graph.
    ///
    /// Used by the feedback-aware capacity derivation
    /// (`bp_core::capacity`) to find the channel loops that a feedback
    /// kernel's primed population circulates through.
    pub fn sccs(&self) -> Vec<Vec<NodeId>> {
        self.tarjan(true)
    }

    /// The cyclic strongly connected components: those with more than one
    /// node, or a single node with a self-loop channel. The order is that of
    /// [`sccs`](Self::sccs); the acyclic singletons are never built.
    pub fn cyclic_sccs(&self) -> Vec<Vec<NodeId>> {
        self.tarjan(false)
    }

    /// Structural validation (§II):
    /// - every input port has exactly one incoming channel,
    /// - channel endpoints reference existing ports,
    /// - no two methods of a kernel trigger on the same (input, arrival),
    /// - method port references resolve,
    /// - source nodes have no inputs and a registered frame with both
    ///   dimensions nonzero arriving at a finite, positive rate,
    /// - every registered input specification names a source node,
    /// - the graph is acyclic up to feedback kernels.
    pub fn validate(&self) -> Result<()> {
        for (_, ch) in self.channels() {
            let s = &self.nodes.get(ch.src.node.0).ok_or_else(|| {
                BpError::Validation(format!("channel source node {:?} missing", ch.src.node))
            })?;
            if ch.src.port >= s.spec().outputs.len() {
                return Err(BpError::Validation(format!(
                    "channel source port {} out of range on node '{}'",
                    ch.src.port, s.name
                )));
            }
            let d = &self.nodes.get(ch.dst.node.0).ok_or_else(|| {
                BpError::Validation(format!("channel dest node {:?} missing", ch.dst.node))
            })?;
            if ch.dst.port >= d.spec().inputs.len() {
                return Err(BpError::Validation(format!(
                    "channel dest port {} out of range on node '{}'",
                    ch.dst.port, d.name
                )));
            }
        }

        // Incoming channels per input port of the node at hand.
        let mut feeds: Vec<u32> = Vec::new();
        for (id, node) in self.nodes() {
            let spec = node.spec();
            // Input connectivity: one walk of the node's in-list.
            feeds.clear();
            feeds.resize(spec.inputs.len(), 0);
            for (_, c) in self.channels_into(id) {
                feeds[c.dst.port] += 1;
            }
            if let Some(pi) = feeds.iter().position(|&f| f != 1) {
                return Err(BpError::Validation(format!(
                    "input '{}' of node '{}' has {} incoming channels (need exactly 1)",
                    spec.inputs[pi].name, node.name, feeds[pi]
                )));
            }
            // Method/port references and trigger disjointness: facts of
            // the spec, established once with its method table.
            if let Some((a, b, port)) = node.method_table()?.trigger_conflict() {
                return Err(BpError::Validation(format!(
                    "node '{}': methods '{}' and '{}' both trigger on input '{}' with the same arrival",
                    node.name, spec.methods[a].name, spec.methods[b].name, spec.inputs[port].name
                )));
            }
            // Sources.
            if spec.role == NodeRole::Source {
                if !spec.inputs.is_empty() {
                    return Err(BpError::Validation(format!(
                        "source node '{}' must not have inputs",
                        node.name
                    )));
                }
                let Some(info) = self.source_info(id) else {
                    return Err(BpError::Validation(format!(
                        "source node '{}' has no registered frame size/rate",
                        node.name
                    )));
                };
                // The sample period is 1 / (rate × frame area): both must
                // be positive and finite or the event schedule is not.
                if !(info.rate_hz.is_finite() && info.rate_hz > 0.0) {
                    return Err(BpError::Validation(format!(
                        "source node '{}' has rate {} Hz (need a finite rate > 0)",
                        node.name, info.rate_hz
                    )));
                }
                if info.frame.w == 0 || info.frame.h == 0 {
                    return Err(BpError::Validation(format!(
                        "source node '{}' has an empty frame {}",
                        node.name, info.frame
                    )));
                }
            }
        }

        // An input specification on anything but a source would set a rate
        // no node paces, and the real-time verdict would check against it.
        for info in &self.sources {
            match self.nodes.get(info.node.0) {
                None => {
                    return Err(BpError::Validation(format!(
                        "an application input names node {:?}, which does not exist",
                        info.node
                    )))
                }
                Some(node) if node.spec().role != NodeRole::Source => {
                    return Err(BpError::Validation(format!(
                        "node '{}' is registered as an application input but is a {:?} \
                         kernel, not a source",
                        node.name,
                        node.spec().role
                    )))
                }
                Some(_) => {}
            }
        }

        for dep in &self.dep_edges {
            if dep.src.0 >= self.nodes.len() || dep.dst.0 >= self.nodes.len() {
                return Err(BpError::Validation(
                    "dependency edge references missing node".into(),
                ));
            }
        }

        self.topo_order().map(|_| ())
    }

    /// Drop *plumbing* nodes that have no attached channels at all (both
    /// directions disconnected — e.g. a join/split pair bypassed by the
    /// pipeline-fusion pass), renumbering the survivors densely. Returns
    /// `old id -> new id` (`None` for dropped nodes). Only plumbing roles
    /// are ever dropped; fully disconnected user kernels are left in place
    /// so mistakes stay visible to validation.
    pub fn compact(&mut self) -> Vec<Option<NodeId>> {
        let n = self.nodes.len();
        let attached = |i: usize| {
            let linked = |lists: &ChannelLists| lists.ends.get(i).is_some_and(|e| e.0 != NIL);
            linked(&self.ins) || linked(&self.outs)
        };
        let keep: Vec<bool> = (0..n)
            .map(|i| attached(i) || !self.nodes[i].spec().role.is_plumbing())
            .collect();
        if keep.iter().all(|k| *k) {
            return (0..n).map(|i| Some(NodeId(i))).collect();
        }
        let mut remap: Vec<Option<NodeId>> = Vec::with_capacity(n);
        let mut next = 0usize;
        for k in &keep {
            if *k {
                remap.push(Some(NodeId(next)));
                next += 1;
            } else {
                remap.push(None);
            }
        }
        let mut kept = keep.iter();
        self.nodes
            .retain(|_| *kept.next().expect("one flag per node"));
        for c in self.channels.iter_mut().flatten() {
            let src = remap[c.src.node.0].expect("channel endpoint kept");
            let dst = remap[c.dst.node.0].expect("channel endpoint kept");
            c.src.node = src;
            c.dst.node = dst;
        }
        // The index follows the renumbering: a dropped node's lists are
        // empty, a kept node's lists move with it, the threading stays.
        for lists in [&mut self.ins, &mut self.outs] {
            lists.ends.resize(n, (NIL, NIL));
            let mut kept = keep.iter();
            lists
                .ends
                .retain(|_| *kept.next().expect("one flag per node"));
        }
        for d in self.dep_edges.iter_mut() {
            d.src = remap[d.src.0].expect("dep edge endpoint kept");
            d.dst = remap[d.dst.0].expect("dep edge endpoint kept");
        }
        for s in self.sources.iter_mut() {
            s.node = remap[s.node.0].expect("source kept");
        }
        debug_assert!(self.indexes((0..self.nodes.len()).map(NodeId)));
        remap
    }
}

/// Convenience builder offering name-based connection of kernels.
#[derive(Default)]
pub struct GraphBuilder {
    graph: AppGraph,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a kernel instance.
    pub fn add(&mut self, name: impl Into<Arc<str>>, def: KernelDef) -> NodeId {
        self.graph.add_node(name, def)
    }

    /// Add an application input: a source node with its frame size and rate.
    /// `def` must be a [`NodeRole::Source`] kernel; [`build`](Self::build)
    /// refuses any other role.
    pub fn add_source(
        &mut self,
        name: impl Into<Arc<str>>,
        def: KernelDef,
        frame: Dim2,
        rate_hz: f64,
    ) -> NodeId {
        let id = self.graph.add_node(name, def);
        self.graph.set_source_info(SourceInfo {
            node: id,
            frame,
            rate_hz,
        });
        id
    }

    /// Connect `src_node.output` to `dst_node.input` by port name.
    /// Panics on unknown port names — those are programming errors in the
    /// application description.
    pub fn connect(&mut self, src: NodeId, output: &str, dst: NodeId, input: &str) -> ChannelId {
        let sp = self
            .graph
            .node(src)
            .spec()
            .output_index(output)
            .unwrap_or_else(|| {
                panic!(
                    "node '{}' has no output named '{output}'",
                    self.graph.node(src).name
                )
            });
        let dp = self
            .graph
            .node(dst)
            .spec()
            .input_index(input)
            .unwrap_or_else(|| {
                panic!(
                    "node '{}' has no input named '{input}'",
                    self.graph.node(dst).name
                )
            });
        self.graph.add_channel(
            PortRef {
                node: src,
                port: sp,
            },
            PortRef {
                node: dst,
                port: dp,
            },
        )
    }

    /// Add a data-dependency edge (§IV-B).
    pub fn dep_edge(&mut self, src: NodeId, dst: NodeId) {
        self.graph.add_dep_edge(src, dst);
    }

    /// Validate and return the graph.
    pub fn build(self) -> Result<AppGraph> {
        self.graph.validate()?;
        Ok(self.graph)
    }

    /// Return the graph without validation: for tests constructing
    /// deliberately broken graphs, and for builders whose structure is
    /// fixed by code and whose caller-supplied parameters are checked by
    /// the consumer (`compile` and every simulator validate on entry).
    pub fn build_unchecked(self) -> AppGraph {
        self.graph
    }

    /// Access the graph under construction.
    pub fn graph(&self) -> &AppGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Emitter, FireData, KernelBehavior, KernelSpec};
    use crate::method::{MethodCost, MethodSpec};
    use crate::port::{InputSpec, OutputSpec};

    struct Nop;
    impl KernelBehavior for Nop {
        fn fire(&mut self, _m: usize, _d: &FireData<'_>, _o: &mut Emitter<'_>) {}
    }

    fn passthrough_def() -> KernelDef {
        KernelDef::new(
            KernelSpec::new("pass")
                .input(InputSpec::stream("in"))
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::on_data(
                    "run",
                    "in",
                    vec!["out".into()],
                    MethodCost::new(1, 0),
                )),
            || Nop,
        )
    }

    fn source_def() -> KernelDef {
        KernelDef::new(
            KernelSpec::new("source")
                .with_role(NodeRole::Source)
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::source(
                    "gen",
                    vec!["out".into()],
                    MethodCost::new(0, 0),
                )),
            || Nop,
        )
    }

    fn sink_def() -> KernelDef {
        KernelDef::new(
            KernelSpec::new("sink")
                .with_role(NodeRole::Sink)
                .input(InputSpec::stream("in"))
                .method(MethodSpec::on_data(
                    "take",
                    "in",
                    vec![],
                    MethodCost::new(0, 0),
                )),
            || Nop,
        )
    }

    fn small_pipeline() -> GraphBuilder {
        let mut b = GraphBuilder::new();
        let s = b.add_source("Input", source_def(), Dim2::new(4, 4), 10.0);
        let k = b.add("K", passthrough_def());
        let t = b.add("Out", sink_def());
        b.connect(s, "out", k, "in");
        b.connect(k, "out", t, "in");
        b
    }

    #[test]
    fn builds_and_validates() {
        let g = small_pipeline().build().expect("valid graph");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.channel_count(), 2);
        assert_eq!(g.sources().len(), 1);
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], NodeId(0));
    }

    #[test]
    fn unconnected_input_fails_validation() {
        let mut b = GraphBuilder::new();
        b.add("K", passthrough_def());
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("incoming channels"));
    }

    #[test]
    fn bad_source_rate_or_frame_fails_validation() {
        let with_source = |frame: Dim2, rate_hz: f64| {
            let mut b = GraphBuilder::new();
            let s = b.add_source("Input", source_def(), frame, rate_hz);
            let t = b.add("Out", sink_def());
            b.connect(s, "out", t, "in");
            b.build()
        };
        with_source(Dim2::new(4, 4), 10.0).expect("the control case is valid");
        for rate_hz in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = with_source(Dim2::new(4, 4), rate_hz).unwrap_err();
            assert!(matches!(err, BpError::Validation(_)), "{rate_hz}: {err}");
            assert!(err.to_string().contains("finite rate"), "{rate_hz}: {err}");
        }
        let err = with_source(Dim2::new(0, 12), 10.0).unwrap_err();
        assert!(matches!(err, BpError::Validation(_)), "{err}");
        assert!(err.to_string().contains("empty frame"), "{err}");
    }

    /// An input specification names the node the scheduler paces; on a
    /// node that is not a source nothing paces it, yet the real-time
    /// verdict would be checked against its rate.
    #[test]
    fn an_input_registered_on_a_non_source_fails_validation() {
        let mut b = GraphBuilder::new();
        let s = b.add_source("Input", source_def(), Dim2::new(4, 4), 10.0);
        let k = b.add_source("K", passthrough_def(), Dim2::new(4, 4), 1000.0);
        let t = b.add("Out", sink_def());
        b.connect(s, "out", k, "in");
        b.connect(k, "out", t, "in");
        let err = b.build().unwrap_err();
        assert!(matches!(err, BpError::Validation(_)), "{err}");
        assert!(err.to_string().contains("node 'K'"), "{err}");
        assert!(err.to_string().contains("not a source"), "{err}");
        // One naming no node at all.
        let mut g = small_pipeline().build().expect("valid graph");
        g.set_source_info(SourceInfo {
            node: NodeId(7),
            frame: Dim2::new(4, 4),
            rate_hz: 10.0,
        });
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("NodeId(7)"), "{err}");
    }

    #[test]
    fn duplicate_trigger_fails_validation() {
        let spec = KernelSpec::new("dup")
            .input(InputSpec::stream("in"))
            .output(OutputSpec::stream("out"))
            .method(MethodSpec::on_data(
                "a",
                "in",
                vec![],
                MethodCost::default(),
            ))
            .method(MethodSpec::on_data(
                "b",
                "in",
                vec![],
                MethodCost::default(),
            ));
        let def = KernelDef::new(spec, || Nop);
        let mut b = GraphBuilder::new();
        let s = b.add_source("Input", source_def(), Dim2::new(4, 4), 10.0);
        let k = b.add("K", def);
        b.connect(s, "out", k, "in");
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("both trigger"));
    }

    #[test]
    fn unknown_method_ports_fail_validation_naming_the_node() {
        let with_method = |m: MethodSpec| {
            let spec = KernelSpec::new("pass")
                .input(InputSpec::stream("in"))
                .output(OutputSpec::stream("out"))
                .method(m);
            let mut b = GraphBuilder::new();
            let s = b.add_source("Input", source_def(), Dim2::new(4, 4), 10.0);
            let k = b.add("Bad", KernelDef::new(spec, || Nop));
            b.connect(s, "out", k, "in");
            b.build().unwrap_err().to_string()
        };
        let cost = MethodCost::new(1, 0);
        assert_eq!(
            with_method(MethodSpec::on_data("run", "nope", vec!["out".into()], cost)),
            "validation error: method 'run' of node 'Bad' triggers on unknown input 'nope'"
        );
        assert_eq!(
            with_method(MethodSpec::on_data("run", "in", vec!["gone".into()], cost)),
            "validation error: method 'run' of node 'Bad' writes unknown output 'gone'"
        );
    }

    #[test]
    fn cycle_without_feedback_fails() {
        let mut b = GraphBuilder::new();
        let a = b.add("A", passthrough_def());
        let c = b.add("C", passthrough_def());
        b.connect(a, "out", c, "in");
        b.connect(c, "out", a, "in");
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn splice_inserts_between() {
        let b = small_pipeline();
        let mut g = b.build_unchecked();
        let k = g.find_node("K").unwrap();
        let (ch, _) = g.channel_into(k, 0).unwrap();
        let mid = g.splice(ch, "Mid", passthrough_def(), 0, 0);
        g.validate().expect("still valid");
        let (_, into_mid) = g.channel_into(mid, 0).unwrap();
        assert_eq!(into_mid.src.node, g.find_node("Input").unwrap());
        let (_, into_k) = g.channel_into(k, 0).unwrap();
        assert_eq!(into_k.src.node, mid);
    }

    #[test]
    fn a_repeated_output_name_fails_validation() {
        // Two outputs named `out`: the second would silently get nothing.
        let twin = passthrough_def().map_spec(|s| s.outputs.push(OutputSpec::stream("out")));
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", source_def(), Dim2::new(4, 2), 10.0);
        let k = b.add("K", twin);
        let out = b.add("Out", sink_def());
        b.connect(src, "out", k, "in");
        b.connect(k, "out", out, "in");
        assert_eq!(
            b.build().unwrap_err(),
            BpError::Validation("node 'K' has two outputs named 'out'".into())
        );
    }

    #[test]
    fn source_without_info_fails() {
        let mut b = GraphBuilder::new();
        let s = b.graph.add_node("Input", source_def()); // bypass add_source
        let t = b.add("Out", sink_def());
        b.graph
            .add_channel(PortRef { node: s, port: 0 }, PortRef { node: t, port: 0 });
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("no registered frame"));
    }

    #[test]
    fn compact_drops_detached_plumbing_only() {
        let mut b = GraphBuilder::new();
        let s = b.add_source("Input", source_def(), Dim2::new(4, 4), 10.0);
        let k = b.add("K", passthrough_def());
        let t = b.add("Out", sink_def());
        let c1 = b.connect(s, "out", k, "in");
        let c2 = b.connect(k, "out", t, "in");
        let mut g = b.build_unchecked();
        // Add a split node, then detach it completely.
        let split_spec = KernelSpec::new("split_rr")
            .with_role(NodeRole::Split)
            .input(InputSpec::stream("in"))
            .output(OutputSpec::stream("out0"))
            .method(MethodSpec::on_data(
                "dispatch",
                "in",
                vec!["out0".into()],
                MethodCost::new(1, 0),
            ));
        let orphan = g.add_node("Orphan", KernelDef::new(split_spec, || Nop));
        assert_eq!(g.node_count(), 4);
        let remap = g.compact();
        assert_eq!(g.node_count(), 3);
        assert!(remap[orphan.0].is_none());
        assert!(g.find_node("Orphan").is_none());
        // Surviving channels still line up after renumbering.
        g.validate().unwrap();
        let (_, ch1) = (c1, g.channel(c1));
        let (_, ch2) = (c2, g.channel(c2));
        assert_eq!(&*g.node(ch1.src.node).name, "Input");
        assert_eq!(&*g.node(ch2.dst.node).name, "Out");
        // Source info was remapped.
        assert_eq!(g.sources().len(), 1);
        assert_eq!(&*g.node(g.sources()[0].node).name, "Input");
    }

    #[test]
    fn compact_keeps_disconnected_user_kernels() {
        let mut b = GraphBuilder::new();
        b.add("Lonely", passthrough_def());
        let mut g = b.build_unchecked();
        g.compact();
        assert!(g.find_node("Lonely").is_some(), "user kernels stay visible");
    }

    #[test]
    fn fanout_and_queries() {
        let mut b = GraphBuilder::new();
        let s = b.add_source("Input", source_def(), Dim2::new(4, 4), 10.0);
        let k1 = b.add("K1", passthrough_def());
        let k2 = b.add("K2", passthrough_def());
        let t1 = b.add("O1", sink_def());
        let t2 = b.add("O2", sink_def());
        b.connect(s, "out", k1, "in");
        b.connect(s, "out", k2, "in");
        b.connect(k1, "out", t1, "in");
        b.connect(k2, "out", t2, "in");
        let g = b.build().unwrap();
        assert_eq!(g.channels_from(s, 0).len(), 2);
        assert_eq!(g.out_channels(s).len(), 2);
        assert_eq!(g.in_channels(k1).len(), 1);
        let count = |role| g.nodes().filter(|(_, n)| n.spec().role == role).count();
        assert_eq!(count(NodeRole::Sink), 2);
        assert_eq!(count(NodeRole::User), 2);
    }
}
