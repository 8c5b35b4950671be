//! Graph snapshots and structural analysis helpers.
//!
//! Overlay topologies (LDS, LDG, the baselines) all produce an [`OverlayGraph`]
//! snapshot: a directed graph whose vertices are node identifiers. The
//! impossibility experiments and the maintenance experiments need connectivity,
//! largest-component and degree statistics over such snapshots.

use std::collections::{HashMap, HashSet, VecDeque};

use tsa_sim::NodeId;

/// A directed graph snapshot over node identifiers.
#[derive(Clone, Debug, Default)]
pub struct OverlayGraph {
    adjacency: HashMap<NodeId, Vec<NodeId>>,
}

impl OverlayGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with the given vertices and no edges.
    pub fn with_vertices<I: IntoIterator<Item = NodeId>>(vertices: I) -> Self {
        let adjacency = vertices.into_iter().map(|v| (v, Vec::new())).collect();
        OverlayGraph { adjacency }
    }

    /// Adds a vertex (no-op if present).
    pub fn add_vertex(&mut self, v: NodeId) {
        self.adjacency.entry(v).or_default();
    }

    /// Adds the directed edge `from → to`, creating missing vertices.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.adjacency.entry(to).or_default();
        let out = self.adjacency.entry(from).or_default();
        if !out.contains(&to) {
            out.push(to);
        }
    }

    /// Adds both `a → b` and `b → a`.
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(|v| v.len()).sum()
    }

    /// All vertices (unordered).
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency.keys().copied()
    }

    /// Out-neighbours of `v`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.adjacency.get(&v).map(|n| n.as_slice()).unwrap_or(&[])
    }

    /// `true` if the edge `from → to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.adjacency
            .get(&from)
            .map(|n| n.contains(&to))
            .unwrap_or(false)
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum out-degree over all vertices.
    pub fn max_out_degree(&self) -> usize {
        self.adjacency.values().map(|v| v.len()).max().unwrap_or(0)
    }

    /// Mean out-degree over all vertices.
    pub fn mean_out_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            return 0.0;
        }
        self.edge_count() as f64 / self.vertex_count() as f64
    }

    /// Connected components of the *undirected* version of the graph
    /// (treating every edge as bidirectional), as sets of vertices.
    pub fn undirected_components(&self) -> Vec<Vec<NodeId>> {
        // Build an undirected adjacency view.
        let mut undirected: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (&v, outs) in &self.adjacency {
            undirected.entry(v).or_default();
            for &w in outs {
                undirected.entry(v).or_default().push(w);
                undirected.entry(w).or_default().push(v);
            }
        }
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut components = Vec::new();
        for &start in undirected.keys() {
            if seen.contains(&start) {
                continue;
            }
            let mut component = Vec::new();
            let mut queue = VecDeque::from([start]);
            seen.insert(start);
            while let Some(v) = queue.pop_front() {
                component.push(v);
                for &w in undirected.get(&v).into_iter().flatten() {
                    if seen.insert(w) {
                        queue.push_back(w);
                    }
                }
            }
            component.sort();
            components.push(component);
        }
        components.sort_by_key(|c| std::cmp::Reverse(c.len()));
        components
    }

    /// `true` if the undirected version of the graph is connected (or empty).
    pub fn is_connected(&self) -> bool {
        let comps = self.undirected_components();
        comps.len() <= 1
    }

    /// Fraction of vertices in the largest undirected component (1.0 for an
    /// empty graph).
    pub fn largest_component_fraction(&self) -> f64 {
        if self.adjacency.is_empty() {
            return 1.0;
        }
        let comps = self.undirected_components();
        comps[0].len() as f64 / self.vertex_count() as f64
    }

    /// BFS hop distances from `start` following directed edges; unreachable
    /// vertices are absent from the map.
    pub fn bfs_distances(&self, start: NodeId) -> HashMap<NodeId, usize> {
        let mut dist = HashMap::new();
        if !self.adjacency.contains_key(&start) {
            return dist;
        }
        dist.insert(start, 0);
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            for &w in self.neighbors(v) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                    e.insert(d + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Restricts the graph to the vertices in `keep` (simulating churn: all
    /// other vertices disappear along with their edges).
    pub fn restrict_to(&self, keep: &HashSet<NodeId>) -> OverlayGraph {
        let mut g = OverlayGraph::new();
        for (&v, outs) in &self.adjacency {
            if !keep.contains(&v) {
                continue;
            }
            g.add_vertex(v);
            for &w in outs {
                if keep.contains(&w) {
                    g.add_edge(v, w);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = OverlayGraph::new();
        assert!(g.is_connected());
        assert_eq!(g.largest_component_fraction(), 1.0);
        assert_eq!(g.max_out_degree(), 0);
    }

    #[test]
    fn edges_and_degrees() {
        let mut g = OverlayGraph::new();
        g.add_edge(n(1), n(2));
        g.add_edge(n(1), n(3));
        g.add_edge(n(1), n(2)); // duplicate ignored
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(n(1)), 2);
        assert_eq!(g.max_out_degree(), 2);
        assert!(g.has_edge(n(1), n(2)));
        assert!(!g.has_edge(n(2), n(1)));
        assert!((g.mean_out_degree() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn components_detect_partition() {
        let mut g = OverlayGraph::new();
        g.add_undirected_edge(n(1), n(2));
        g.add_undirected_edge(n(3), n(4));
        g.add_vertex(n(5));
        let comps = g.undirected_components();
        assert_eq!(comps.len(), 3);
        assert!(!g.is_connected());
        assert!((g.largest_component_fraction() - 0.4).abs() < 1e-12);
        g.add_undirected_edge(n(2), n(3));
        g.add_undirected_edge(n(4), n(5));
        assert!(g.is_connected());
    }

    #[test]
    fn bfs_distances_follow_directed_edges() {
        let mut g = OverlayGraph::new();
        for i in 0..5 {
            g.add_edge(n(i), n(i + 1));
        }
        let d = g.bfs_distances(n(0));
        assert_eq!(d[&n(5)], 5);
        assert_eq!(
            g.bfs_distances(n(5)).len(),
            1,
            "directed edges only go forward"
        );
        assert!(g.bfs_distances(n(99)).is_empty());
    }

    #[test]
    fn restriction_removes_vertices_and_edges() {
        let mut g = OverlayGraph::new();
        g.add_undirected_edge(n(1), n(2));
        g.add_undirected_edge(n(2), n(3));
        let keep: HashSet<NodeId> = [n(1), n(2)].into_iter().collect();
        let r = g.restrict_to(&keep);
        assert_eq!(r.vertex_count(), 2);
        assert!(r.has_edge(n(1), n(2)));
        assert!(!r.has_edge(n(2), n(3)));
    }

    #[test]
    fn with_vertices_initializes_isolated_nodes() {
        let g = OverlayGraph::with_vertices([n(1), n(2), n(3)]);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_connected());
    }
}
