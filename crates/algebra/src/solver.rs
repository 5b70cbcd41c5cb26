//! Generic depth-first path computation — the paper's Algorithm 1.
//!
//! Computes the optimal label(s) of paths from a source to a target node of
//! a labelled digraph, for any [`PathAlgebra`] satisfying Carré's axioms
//! (properties 1–6) plus monotonicity (property 7). The pruning steps of
//! lines (7)–(9) are only correct under those assumptions; the Moose
//! algebra violates distributivity, which is why `ipe-core` implements the
//! enhanced Algorithm 2 instead of reusing this solver. This solver exists
//! as the faithful baseline and is validated against textbook algorithms on
//! the classic algebras.

use crate::framework::{agg_into, PathAlgebra};
use ipe_graph::{DiGraph, Edge, EdgeId, NodeId};

/// Statistics of a solver run, mirroring the measurements of Section 5.4
/// (the paper reports recursive-call counts and their average cost).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of recursive `traverse` calls (node explorations).
    pub calls: u64,
    /// Number of edges considered across all calls.
    pub edges_considered: u64,
}

/// Computes the AGG-optimal labels of all simple paths `source → target`
/// with the given algebra (Algorithm 1 of the paper).
///
/// `edge_label` maps each edge to its label. Returns the optimal label set
/// (empty when the target is unreachable). Paths through cycles are ignored
/// per the paper's semantics (the `visited` discipline of line (7)).
pub fn optimal_path_labels<N, Ed, A: PathAlgebra>(
    graph: &DiGraph<N, Ed>,
    algebra: &A,
    edge_label: impl Fn(EdgeId, &Edge<Ed>) -> A::Label,
    source: NodeId,
    target: NodeId,
) -> (Vec<A::Label>, SolveStats) {
    let mut state = Solver {
        graph,
        algebra,
        edge_label,
        target,
        visited: vec![false; graph.node_count()],
        best: vec![Vec::new(); graph.node_count()],
        best_t: Vec::new(),
        stats: SolveStats::default(),
    };
    if source == target {
        // The optimal path from a node to itself is the empty path with
        // label Θ (anything longer is a cycle, which AGG's annihilator
        // discards).
        return (vec![algebra.identity()], state.stats);
    }
    state.traverse(source, algebra.identity());
    ipe_obs::counter!("algebra.solver.calls", state.stats.calls);
    ipe_obs::counter!("algebra.solver.edges", state.stats.edges_considered);
    (state.best_t, state.stats)
}

struct Solver<'g, N, Ed, A: PathAlgebra, F> {
    graph: &'g DiGraph<N, Ed>,
    algebra: &'g A,
    edge_label: F,
    target: NodeId,
    visited: Vec<bool>,
    best: Vec<Vec<A::Label>>,
    best_t: Vec<A::Label>,
    stats: SolveStats,
}

impl<N, Ed, A, F> Solver<'_, N, Ed, A, F>
where
    A: PathAlgebra,
    F: Fn(EdgeId, &Edge<Ed>) -> A::Label,
{
    fn traverse(&mut self, v: NodeId, l_v: A::Label) {
        self.stats.calls += 1;
        self.visited[v.index()] = true;
        // Lines (2)-(4): explore edges into T out of order, so complete
        // paths are discovered as early as possible.
        for &eid in self.graph.out_edge_ids(v) {
            let edge = self.graph.edge(eid);
            if edge.target == self.target {
                self.stats.edges_considered += 1;
                let label = self.algebra.con(&l_v, &(self.edge_label)(eid, edge));
                agg_into(self.algebra, &mut self.best_t, &label);
            }
        }
        // Lines (5)-(12).
        for &eid in self.graph.out_edge_ids(v) {
            let edge = self.graph.edge(eid);
            let u = edge.target;
            if u == self.target {
                continue;
            }
            self.stats.edges_considered += 1;
            let l_u = self.algebra.con(&l_v, &(self.edge_label)(eid, edge));
            // Line (7): acyclicity. Line (8): monotonicity bound against
            // best[T]. Line (9): distributivity bound against best[u].
            if !self.visited[u.index()]
                && !self
                    .best_t
                    .iter()
                    .any(|b| self.algebra.dominates(b, &l_u) || *b == l_u)
                && !self.best[u.index()]
                    .iter()
                    .any(|b| self.algebra.dominates(b, &l_u) || *b == l_u)
            {
                agg_into(self.algebra, &mut self.best[u.index()], &l_u);
                self.traverse(u, l_u);
            }
        }
        self.visited[v.index()] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::{MostReliable, Prob, ShortestPath, WidestPath};

    /// Bellman-Ford over simple paths as a reference for shortest path.
    fn reference_shortest(g: &DiGraph<(), u64>, s: NodeId, t: NodeId) -> Option<u64> {
        ipe_graph::simple_paths(g, s, t, g.node_count())
            .into_iter()
            .map(|p| p.edges.iter().map(|&e| g.edge(e).weight).sum())
            .min()
    }

    #[test]
    fn shortest_path_on_diamond() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, d, 1);
        g.add_edge(a, c, 5);
        g.add_edge(c, d, 1);
        g.add_edge(a, d, 3);
        let (labels, stats) = optimal_path_labels(&g, &ShortestPath, |_, e| e.weight, a, d);
        assert_eq!(labels, vec![2]);
        assert!(stats.calls >= 1);
    }

    #[test]
    fn unreachable_target_yields_empty() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let (labels, _) = optimal_path_labels(&g, &ShortestPath, |_, e| e.weight, a, b);
        assert!(labels.is_empty());
    }

    #[test]
    fn source_equals_target_gives_identity() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, 9);
        let (labels, _) = optimal_path_labels(&g, &ShortestPath, |_, e| e.weight, a, a);
        assert_eq!(labels, vec![0]);
    }

    #[test]
    fn most_reliable_path_prefers_product() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        // Direct hop is weak (0.5); detour is strong (0.9 * 0.9 = 0.81).
        g.add_edge(a, c, 0.5);
        g.add_edge(a, b, 0.9);
        g.add_edge(b, c, 0.9);
        let (labels, _) = optimal_path_labels(&g, &MostReliable, |_, e| Prob::new(e.weight), a, c);
        assert_eq!(labels.len(), 1);
        assert!((labels[0].value() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn widest_path_prefers_bottleneck() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, 4);
        g.add_edge(a, b, 10);
        g.add_edge(b, c, 7);
        let (labels, _) = optimal_path_labels(&g, &WidestPath, |_, e| e.weight, a, c);
        assert_eq!(labels, vec![7]);
    }

    #[test]
    fn cycles_are_ignored() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, a, 0); // tempting zero-cost cycle
        g.add_edge(b, c, 1);
        let (labels, _) = optimal_path_labels(&g, &ShortestPath, |_, e| e.weight, a, c);
        assert_eq!(labels, vec![2]);
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let n = rng.random_range(2..9usize);
            let m = rng.random_range(1..20usize);
            let mut g: DiGraph<(), u64> = DiGraph::new();
            let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for _ in 0..m {
                let s = nodes[rng.random_range(0..n)];
                let t = nodes[rng.random_range(0..n)];
                if s != t {
                    g.add_edge(s, t, rng.random_range(0..10u64));
                }
            }
            let s = nodes[0];
            let t = nodes[n - 1];
            let (labels, _) = optimal_path_labels(&g, &ShortestPath, |_, e| e.weight, s, t);
            let want = reference_shortest(&g, s, t);
            match want {
                None => assert!(labels.is_empty()),
                Some(w) => assert_eq!(labels, vec![w]),
            }
        }
    }
}
