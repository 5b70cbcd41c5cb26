//! Bounded enumeration of simple (node-acyclic) paths.
//!
//! The paper ignores cyclic path expressions ("humans do not think
//! circularly"), so the set of candidate completions for an incomplete path
//! expression is exactly the set of *simple* paths with the right endpoints.
//! This module provides that enumerator; the algebra crate's path-problem
//! solver is checked against it.

use crate::digraph::{DiGraph, EdgeId, NodeId};

/// A simple path: the ordered list of edges traversed.
///
/// The empty path (source == target, no edges) is represented by an empty
/// edge list together with the source node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimplePath {
    /// Start node of the path.
    pub source: NodeId,
    /// Edges in traversal order. May be empty.
    pub edges: Vec<EdgeId>,
}

impl SimplePath {
    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// End node of the path within `graph`.
    pub fn target<N, E>(&self, graph: &DiGraph<N, E>) -> NodeId {
        self.edges
            .last()
            .map(|&e| graph.edge(e).target)
            .unwrap_or(self.source)
    }

    /// The node sequence source..=target.
    pub fn nodes<N, E>(&self, graph: &DiGraph<N, E>) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.edges.len() + 1);
        out.push(self.source);
        for &e in &self.edges {
            out.push(graph.edge(e).target);
        }
        out
    }
}

/// Enumerates all simple paths from `source` to `target` with at most
/// `max_len` edges.
///
/// A path is *simple* when no node repeats; in particular a path that
/// reaches `target` may not continue through it and come back. The
/// zero-length path is reported when `source == target`.
///
/// The search is a depth-first backtracking walk, so memory is O(longest
/// path) plus the collected results.
pub fn simple_paths<N, E>(
    graph: &DiGraph<N, E>,
    source: NodeId,
    target: NodeId,
    max_len: usize,
) -> Vec<SimplePath> {
    let mut results = Vec::new();
    let mut on_path = vec![false; graph.node_count()];
    on_path[source.index()] = true;
    let mut edge_stack: Vec<EdgeId> = Vec::new();
    // Frame: iterator position into out-edges of the node at that depth.
    let mut frames: Vec<(NodeId, usize)> = vec![(source, 0)];

    if source == target {
        results.push(SimplePath {
            source,
            edges: Vec::new(),
        });
    }

    while let Some(&mut (node, ref mut idx)) = frames.last_mut() {
        let out = graph.out_edge_ids(node);
        let depth = edge_stack.len();
        let mut advanced = false;
        while *idx < out.len() {
            let eid = out[*idx];
            *idx += 1;
            let t = graph.edge(eid).target;
            if on_path[t.index()] || depth >= max_len {
                continue;
            }
            // Take the edge.
            edge_stack.push(eid);
            on_path[t.index()] = true;
            if t == target {
                results.push(SimplePath {
                    source,
                    edges: edge_stack.clone(),
                });
            }
            frames.push((t, 0));
            advanced = true;
            break;
        }
        if !advanced {
            frames.pop();
            if let Some(e) = edge_stack.pop() {
                on_path[graph.edge(e).target.index()] = false;
            } else {
                on_path[source.index()] = false;
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond with an extra long route: a->b->d, a->c->d, a->d, d->e.
    fn fixture() -> (DiGraph<(), char>, [NodeId; 5]) {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        let e = g.add_node(());
        g.add_edge(a, b, 'x');
        g.add_edge(a, c, 'y');
        g.add_edge(b, d, 'z');
        g.add_edge(c, d, 'w');
        g.add_edge(a, d, 'v');
        g.add_edge(d, e, 'u');
        (g, [a, b, c, d, e])
    }

    #[test]
    fn finds_all_routes_in_diamond() {
        let (g, [a, _, _, d, _]) = fixture();
        let paths = simple_paths(&g, a, d, 10);
        assert_eq!(paths.len(), 3);
        let lens: Vec<usize> = {
            let mut l: Vec<usize> = paths.iter().map(|p| p.len()).collect();
            l.sort();
            l
        };
        assert_eq!(lens, vec![1, 2, 2]);
        for p in &paths {
            assert_eq!(p.target(&g), d);
        }
    }

    #[test]
    fn max_len_prunes_long_routes() {
        let (g, [a, _, _, d, _]) = fixture();
        let paths = simple_paths(&g, a, d, 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 1);
    }

    #[test]
    fn zero_length_path_when_source_is_target() {
        let (g, [a, ..]) = fixture();
        let paths = simple_paths(&g, a, a, 10);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].is_empty());
        assert_eq!(paths[0].target(&g), a);
    }

    #[test]
    fn cycles_are_not_traversed() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        let paths = simple_paths(&g, a, b, 10);
        assert_eq!(paths.len(), 1, "only a->b, never a->b->a->b");
    }

    #[test]
    fn node_sequence_matches_edges() {
        let (g, [a, b, _, d, e]) = fixture();
        let paths = simple_paths(&g, a, e, 10);
        let via_b = paths
            .iter()
            .find(|p| p.nodes(&g).contains(&b))
            .expect("route via b exists");
        assert_eq!(via_b.nodes(&g), vec![a, b, d, e]);
    }

    /// The enumerator agrees with a brute-force recursive reference on small
    /// random graphs.
    #[test]
    fn matches_reference_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        fn reference(
            g: &DiGraph<(), ()>,
            node: NodeId,
            target: NodeId,
            on_path: &mut Vec<bool>,
            acc: &mut usize,
            depth: usize,
            max_len: usize,
        ) {
            if node == target {
                *acc += 1;
                // Simple paths stop at the target: do not extend through it.
                return;
            }
            if depth == max_len {
                return;
            }
            for s in g.out_edges(node).map(|(_, e)| e.target) {
                if !on_path[s.index()] {
                    on_path[s.index()] = true;
                    reference(g, s, target, on_path, acc, depth + 1, max_len);
                    on_path[s.index()] = false;
                }
            }
        }

        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let n = rng.random_range(2..8usize);
            let m = rng.random_range(0..16usize);
            let mut g: DiGraph<(), ()> = DiGraph::new();
            let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for _ in 0..m {
                let s = nodes[rng.random_range(0..n)];
                let t = nodes[rng.random_range(0..n)];
                if s != t {
                    g.add_edge(s, t, ());
                }
            }
            let s = nodes[0];
            let t = nodes[n - 1];
            let got = simple_paths(&g, s, t, n).len();
            let mut on_path = vec![false; n];
            on_path[s.index()] = true;
            let mut want = 0;
            reference(&g, s, t, &mut on_path, &mut want, 0, n);
            assert_eq!(got, want);
        }
    }
}
