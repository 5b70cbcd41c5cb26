//! The core directed multigraph type.

use std::fmt;

/// Dense identifier of a node in a [`DiGraph`].
///
/// Node ids are assigned sequentially by [`DiGraph::add_node`] and are valid
/// for the lifetime of the graph (nodes are never removed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(pub u32);

/// Dense identifier of an edge in a [`DiGraph`].
///
/// Edge ids are assigned sequentially by [`DiGraph::add_edge`] and are valid
/// for the lifetime of the graph (edges are never removed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a `usize`, for indexing per-node side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize`, for indexing per-edge side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed edge together with its weight (label).
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Edge<E> {
    /// Node the edge leaves from.
    pub source: NodeId,
    /// Node the edge points to.
    pub target: NodeId,
    /// User payload. In schema graphs this is the relationship descriptor.
    pub weight: E,
}

/// An append-only directed multigraph with node weights `N` and edge
/// weights `E`.
///
/// Parallel edges and self-loops are allowed: an OO schema routinely has two
/// distinct relationships between the same pair of classes (e.g. a
/// department's `student` association and its `professor` part-of edge may
/// both point at `person` subclasses), and `person.friend -> person` is a
/// legal self-loop.
///
/// # Example
///
/// ```
/// use ipe_graph::DiGraph;
///
/// let mut g: DiGraph<&str, u32> = DiGraph::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let e = g.add_edge(a, b, 7);
/// assert_eq!(g.edge(e).weight, 7);
/// assert_eq!(g.out_edge_ids(a), &[e]);
/// assert_eq!(g.in_edge_ids(b), &[e]);
/// ```
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    /// Outgoing edge ids per node, in insertion order.
    out: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node, in insertion order.
    inn: Vec<Vec<EdgeId>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            inn: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds `u32::MAX` nodes.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count overflow"));
        self.nodes.push(weight);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        id
    }

    /// Adds a directed edge from `source` to `target` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph, or if the
    /// graph already holds `u32::MAX` edges.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: E) -> EdgeId {
        assert!(
            source.index() < self.nodes.len(),
            "source node out of range"
        );
        assert!(
            target.index() < self.nodes.len(),
            "target node out of range"
        );
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge count overflow"));
        self.edges.push(Edge {
            source,
            target,
            weight,
        });
        self.out[source.index()].push(id);
        self.inn[target.index()].push(id);
        id
    }

    /// Immutable access to a node weight.
    #[inline]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Immutable access to an edge.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge<E> {
        &self.edges[id.index()]
    }

    /// Mutable access to an edge weight. Endpoints are immutable by design.
    #[inline]
    pub fn edge_weight_mut(&mut self, id: EdgeId) -> &mut E {
        &mut self.edges[id.index()].weight
    }

    /// Iterates over all node ids in ascending order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over `(id, weight)` for all nodes.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &N)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over all edge ids in ascending order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterates over `(id, edge)` for all edges.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, &Edge<E>)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Out-edge ids of `node` in insertion order.
    #[inline]
    pub fn out_edge_ids(&self, node: NodeId) -> &[EdgeId] {
        &self.out[node.index()]
    }

    /// In-edge ids of `node` in insertion order.
    #[inline]
    pub fn in_edge_ids(&self, node: NodeId) -> &[EdgeId] {
        &self.inn[node.index()]
    }

    /// Iterates over `(id, edge)` for the out-edges of `node`.
    pub fn out_edges(
        &self,
        node: NodeId,
    ) -> impl ExactSizeIterator<Item = (EdgeId, &Edge<E>)> + '_ {
        self.out[node.index()]
            .iter()
            .map(move |&id| (id, self.edge(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, &'static str>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, "ab");
        g.add_edge(a, c, "ac");
        g.add_edge(b, d, "bd");
        g.add_edge(c, d, "cd");
        (g, [a, b, c, d])
    }

    #[test]
    fn counts_and_degrees() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_edge_ids(a).len(), 2);
        assert_eq!(g.in_edge_ids(a).len(), 0);
        assert_eq!(g.out_edge_ids(d).len(), 0);
        assert_eq!(g.in_edge_ids(d).len(), 2);
        assert_eq!(g.out_edge_ids(b).len(), 1);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        g.add_edge(a, a, 3);
        assert_eq!(g.out_edge_ids(a).len(), 3);
        assert_eq!(g.in_edge_ids(b).len(), 2);
        assert_eq!(g.in_edge_ids(a).len(), 1);
        let weights: Vec<u32> = g.out_edges(a).map(|(_, e)| e.weight).collect();
        assert_eq!(weights, vec![1, 2, 3]);
    }

    #[test]
    fn out_edges_in_insertion_order() {
        let (g, [a, b, c, _]) = diamond();
        let targets: Vec<NodeId> = g.out_edges(a).map(|(_, e)| e.target).collect();
        assert_eq!(targets, vec![b, c]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_checks_endpoints() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(5), ());
    }

    #[test]
    fn edge_weight_mut_keeps_endpoints() {
        let mut g: DiGraph<u32, u32> = DiGraph::new();
        let a = g.add_node(0);
        let e = g.add_edge(a, a, 10);
        *g.edge_weight_mut(e) += 1;
        assert_eq!(*g.node(a), 0);
        assert_eq!(g.edge(e).weight, 11);
        assert_eq!((g.edge(e).source, g.edge(e).target), (a, a));
    }
}
