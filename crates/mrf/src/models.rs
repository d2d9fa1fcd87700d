//! Named MRF constructors — the running examples of the paper's §2.2.

use crate::activity::{EdgeActivity, VertexActivity};
use crate::model::Mrf;
use lsl_graph::Graph;
use std::collections::HashMap;
use std::sync::Arc;

/// Uniform proper `q`-colorings of `graph`.
///
/// # Panics
/// Panics if `q < 2`.
///
/// # Example
/// ```
/// use lsl_graph::generators;
/// let mrf = lsl_mrf::models::proper_coloring(generators::cycle(4), 3);
/// assert!(mrf.is_feasible(&[0, 1, 0, 1]));
/// ```
pub fn proper_coloring(graph: impl Into<Arc<Graph>>, q: usize) -> Mrf {
    Mrf::homogeneous(graph, EdgeActivity::coloring(q), VertexActivity::uniform(q))
}

/// Uniform proper *list* colorings: vertex `v` may only use colors in
/// `lists[v] ⊆ [q]`.
///
/// # Panics
/// Panics if `lists.len() != n`, a list is empty, or a color is `>= q`.
pub fn list_coloring(graph: impl Into<Arc<Graph>>, q: usize, lists: &[Vec<u32>]) -> Mrf {
    let graph = graph.into();
    assert_eq!(
        lists.len(),
        graph.num_vertices(),
        "need one color list per vertex"
    );
    // One vertex kind per distinct color set: building an activity
    // computes its proposal breakpoints, so equal lists share one.
    let mut kind_of: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut palette = Vec::new();
    let kinds = lists
        .iter()
        .map(|list| {
            let mut set = list.clone();
            set.sort_unstable();
            set.dedup();
            *kind_of.entry(set).or_insert_with(|| {
                palette.push(VertexActivity::list_indicator(q, list));
                palette.len() as u32 - 1
            })
        })
        .collect();
    Mrf::with_vertex_kinds(graph, EdgeActivity::coloring(q), palette, kinds)
}

/// The hardcore model with fugacity `λ`: spin 1 = "in the independent
/// set", weight `λ^{|I|}` per independent set, 0 for non-independent sets.
///
/// `λ = 1` gives the uniform distribution over independent sets — the
/// model of the paper's Theorem 1.3.
pub fn hardcore(graph: impl Into<Arc<Graph>>, lambda: f64) -> Mrf {
    Mrf::homogeneous(
        graph,
        EdgeActivity::hardcore(),
        VertexActivity::hardcore(lambda),
    )
}

/// Uniform independent sets (`hardcore` with `λ = 1`).
pub fn uniform_independent_set(graph: impl Into<Arc<Graph>>) -> Mrf {
    hardcore(graph, 1.0)
}

/// Uniform vertex covers: spin 1 = "in the cover"; every edge must have a
/// covered endpoint. (Complements of independent sets.)
pub fn vertex_cover(graph: impl Into<Arc<Graph>>) -> Mrf {
    Mrf::homogeneous(
        graph,
        EdgeActivity::vertex_cover(),
        VertexActivity::uniform(2),
    )
}

/// The Ising model with edge activity `A(i,i) = beta`, `A(i,j) = 1`
/// (`beta > 1` ferromagnetic, `beta < 1` antiferromagnetic).
pub fn ising(graph: impl Into<Arc<Graph>>, beta: f64) -> Mrf {
    Mrf::homogeneous(graph, EdgeActivity::ising(beta), VertexActivity::uniform(2))
}

/// The `q`-state Potts model with diagonal activity `beta`.
pub fn potts(graph: impl Into<Arc<Graph>>, q: usize, beta: f64) -> Mrf {
    Mrf::homogeneous(
        graph,
        EdgeActivity::potts(q, beta),
        VertexActivity::uniform(q),
    )
}

/// The uniqueness threshold `λ_c(Δ) = (Δ-1)^(Δ-1) / (Δ-2)^Δ` of the
/// hardcore model (paper §5.1): sampling is tractable for `λ < λ_c` and
/// intractable (and, by Theorem 5.2, non-local) for `λ > λ_c`.
///
/// # Panics
/// Panics if `delta < 3` (the threshold is defined for Δ ≥ 3).
pub fn hardcore_uniqueness_threshold(delta: usize) -> f64 {
    assert!(delta >= 3, "uniqueness threshold needs Δ >= 3");
    let d = delta as f64;
    (d - 1.0).powf(d - 1.0) / (d - 2.0).powf(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_graph::generators;

    #[test]
    fn list_coloring_respects_lists() {
        let g = generators::path(3);
        let lists = vec![vec![0], vec![1, 2], vec![0]];
        let mrf = list_coloring(g, 3, &lists);
        assert!(mrf.is_feasible(&[0, 1, 0]));
        assert!(mrf.is_feasible(&[0, 2, 0]));
        assert!(!mrf.is_feasible(&[1, 2, 0])); // v0 must use 0
        assert!(!mrf.is_feasible(&[0, 0, 0])); // improper AND off-list
    }

    #[test]
    fn list_coloring_shares_one_kind_per_color_set() {
        let lists = vec![vec![0, 1], vec![2], vec![1, 0], vec![2], vec![0, 1, 1]];
        let mrf = list_coloring(generators::path(5), 3, &lists);
        assert_eq!(mrf.vertex_palette().len(), 2);
        let kinds: Vec<u32> = mrf
            .graph()
            .vertices()
            .map(|v| mrf.vertex_kind_of(v))
            .collect();
        assert_eq!(kinds, [0, 1, 0, 1, 0]);
        for (v, list) in mrf.graph().vertices().zip(&lists) {
            let b = mrf.vertex_activity(v);
            assert!((0..3).all(|c| (b.get(c) > 0.0) == list.contains(&c)));
        }
    }

    #[test]
    fn vertex_cover_complements_independent_set() {
        let g = generators::cycle(4);
        let vc = vertex_cover(g.clone());
        let is = uniform_independent_set(g);
        for idx in 0..16u32 {
            let config: Vec<u32> = (0..4).map(|i| (idx >> i) & 1).collect();
            let complement: Vec<u32> = config.iter().map(|&c| 1 - c).collect();
            assert_eq!(vc.is_feasible(&config), is.is_feasible(&complement));
        }
    }

    #[test]
    fn ising_ferro_prefers_agreement() {
        let mrf = ising(generators::path(2), 2.0);
        assert!(mrf.weight(&[0, 0]) > mrf.weight(&[0, 1]));
        let anti = ising(generators::path(2), 0.5);
        assert!(anti.weight(&[0, 0]) < anti.weight(&[0, 1]));
    }

    #[test]
    fn potts_diagonal() {
        let mrf = potts(generators::path(2), 3, 0.25);
        assert_eq!(mrf.weight(&[1, 1]), 0.25);
        assert_eq!(mrf.weight(&[1, 2]), 1.0);
    }

    #[test]
    fn uniqueness_threshold_values() {
        // λ_c(3) = 2²/1³ = 4, λ_c(4) = 27/16, λ_c(5) = 256/243,
        // λ_c(6) = 3125/4096 < 1 — hence uniform independent sets (λ = 1)
        // are non-unique exactly when Δ ≥ 6 (Theorem 1.3's condition).
        assert!((hardcore_uniqueness_threshold(3) - 4.0).abs() < 1e-12);
        assert!((hardcore_uniqueness_threshold(4) - 27.0 / 16.0).abs() < 1e-12);
        assert!(hardcore_uniqueness_threshold(5) > 1.0);
        assert!(hardcore_uniqueness_threshold(6) < 1.0);
    }
}
