//! The [`Mrf`] type: a Markov random field bound to a network.

use crate::activity::{EdgeActivity, VertexActivity};
use lsl_graph::{EdgeId, Graph, VertexId};
use rand::{Rng, RngExt};
use std::sync::Arc;

/// A spin value in the domain `[q] = {0, 1, ..., q-1}`.
///
/// (The paper indexes spins from 1; we index from 0.)
pub type Spin = u32;

/// A Markov random field on a network.
///
/// The network is shared behind an [`Arc`] so that chains, couplings, and
/// replicas can all reference the same topology without cloning it —
/// the main ownership friction in a Rust reproduction of shared-graph
/// distributed algorithms.
///
/// Activities are stored in small *palettes* with per-edge / per-vertex
/// indices, so a 10⁶-edge model with one shared activity costs O(q²), not
/// O(m q²).
///
/// # Example
/// ```
/// use lsl_graph::generators;
/// use lsl_mrf::models;
///
/// let mrf = models::proper_coloring(generators::cycle(5), 3);
/// assert_eq!(mrf.q(), 3);
/// assert!(mrf.is_feasible(&[0, 1, 0, 1, 2]));
/// assert!(!mrf.is_feasible(&[0, 0, 1, 2, 1]));
/// ```
#[derive(Clone, Debug)]
pub struct Mrf {
    graph: Arc<Graph>,
    q: usize,
    edge_palette: Vec<EdgeActivity>,
    edge_kind: Vec<u32>,
    vertex_palette: Vec<VertexActivity>,
    vertex_kind: Vec<u32>,
}

impl Mrf {
    /// Builds an MRF in which every edge shares `edge_act` and every vertex
    /// shares `vertex_act`.
    ///
    /// # Panics
    /// Panics if the two activities disagree on `q`.
    pub fn homogeneous(
        graph: impl Into<Arc<Graph>>,
        edge_act: EdgeActivity,
        vertex_act: VertexActivity,
    ) -> Self {
        assert_eq!(
            edge_act.q(),
            vertex_act.q(),
            "edge and vertex activities disagree on q"
        );
        let graph = graph.into();
        let q = edge_act.q();
        let m = graph.num_edges();
        let n = graph.num_vertices();
        Mrf {
            graph,
            q,
            edge_palette: vec![edge_act],
            edge_kind: vec![0; m],
            vertex_palette: vec![vertex_act],
            vertex_kind: vec![0; n],
        }
    }

    /// Builds an MRF with one shared edge activity and a vertex-activity
    /// `palette`, vertex `v` taking `palette[kinds[v]]` (the
    /// list-coloring shape: one kind per distinct list).
    ///
    /// # Panics
    /// Panics if `kinds.len()` differs from `n`, a kind is outside the
    /// palette, or an activity disagrees on `q`.
    pub fn with_vertex_kinds(
        graph: impl Into<Arc<Graph>>,
        edge_act: EdgeActivity,
        palette: Vec<VertexActivity>,
        kinds: Vec<u32>,
    ) -> Self {
        let graph = graph.into();
        let q = edge_act.q();
        assert_eq!(
            kinds.len(),
            graph.num_vertices(),
            "need one vertex kind per vertex"
        );
        assert!(
            kinds.iter().all(|&k| (k as usize) < palette.len()),
            "every vertex kind must name a palette entry"
        );
        assert!(
            palette.iter().all(|b| b.q() == q),
            "every vertex activity must have the same q"
        );
        let m = graph.num_edges();
        Mrf {
            graph,
            q,
            edge_palette: vec![edge_act],
            edge_kind: vec![0; m],
            vertex_palette: palette,
            vertex_kind: kinds,
        }
    }

    /// Replaces the activity of a single vertex (palette grows by one).
    pub fn set_vertex_activity(&mut self, v: VertexId, act: VertexActivity) {
        assert_eq!(act.q(), self.q, "activity q mismatch");
        self.vertex_kind[v.index()] = self.vertex_palette.len() as u32;
        self.vertex_palette.push(act);
    }

    /// Replaces the activity of a single edge (palette grows by one).
    pub fn set_edge_activity(&mut self, e: EdgeId, act: EdgeActivity) {
        assert_eq!(act.q(), self.q, "activity q mismatch");
        self.edge_kind[e.index()] = self.edge_palette.len() as u32;
        self.edge_palette.push(act);
    }

    /// The underlying network.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A shareable handle to the underlying network.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Domain size `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of vertices (shorthand for `graph().num_vertices()`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// The activity of edge `e`.
    #[inline]
    pub fn edge_activity(&self, e: EdgeId) -> &EdgeActivity {
        &self.edge_palette[self.edge_kind[e.index()] as usize]
    }

    /// The activity of vertex `v`.
    #[inline]
    pub fn vertex_activity(&self, v: VertexId) -> &VertexActivity {
        &self.vertex_palette[self.vertex_kind[v.index()] as usize]
    }

    /// The palette index of edge `e`'s activity (see [`Mrf::edge_palette`]).
    #[inline]
    pub fn edge_kind_of(&self, e: EdgeId) -> u32 {
        self.edge_kind[e.index()]
    }

    /// The palette index of vertex `v`'s activity (see
    /// [`Mrf::vertex_palette`]).
    #[inline]
    pub fn vertex_kind_of(&self, v: VertexId) -> u32 {
        self.vertex_kind[v.index()]
    }

    /// The edge-activity palette, indexed by [`Mrf::edge_kind_of`]. Kernels
    /// precompute per-kind tables (e.g. normalized filter factors) against
    /// this instead of one table per edge.
    #[inline]
    pub fn edge_palette(&self) -> &[EdgeActivity] {
        &self.edge_palette
    }

    /// The vertex-activity palette, indexed by [`Mrf::vertex_kind_of`].
    #[inline]
    pub fn vertex_palette(&self) -> &[VertexActivity] {
        &self.vertex_palette
    }

    /// The weight `w(σ)` of a configuration (paper eq. 1). May underflow to
    /// zero for large instances; use [`Mrf::log_weight`] there.
    ///
    /// # Panics
    /// Panics if `config.len() != n` or a spin is out of range.
    pub fn weight(&self, config: &[Spin]) -> f64 {
        self.check_config(config);
        let mut w = 1.0;
        for (e, u, v) in self.graph.edges() {
            w *= self
                .edge_activity(e)
                .get(config[u.index()], config[v.index()]);
            if w == 0.0 {
                return 0.0;
            }
        }
        for v in self.graph.vertices() {
            w *= self.vertex_activity(v).get(config[v.index()]);
            if w == 0.0 {
                return 0.0;
            }
        }
        w
    }

    /// The log-weight `ln w(σ)`, `-∞` for infeasible configurations.
    pub fn log_weight(&self, config: &[Spin]) -> f64 {
        self.check_config(config);
        let mut lw = 0.0;
        for (e, u, v) in self.graph.edges() {
            let a = self
                .edge_activity(e)
                .get(config[u.index()], config[v.index()]);
            if a == 0.0 {
                return f64::NEG_INFINITY;
            }
            lw += a.ln();
        }
        for v in self.graph.vertices() {
            let b = self.vertex_activity(v).get(config[v.index()]);
            if b == 0.0 {
                return f64::NEG_INFINITY;
            }
            lw += b.ln();
        }
        lw
    }

    /// Whether `µ(σ) > 0`: a scan for a zero factor, so unlike
    /// `weight(σ) > 0` it stays exact where the product underflows.
    ///
    /// # Panics
    /// Panics if `config.len() != n` or a spin is out of range.
    pub fn is_feasible(&self, config: &[Spin]) -> bool {
        self.check_config(config);
        self.graph.edges().all(|(e, u, v)| {
            self.edge_activity(e)
                .get(config[u.index()], config[v.index()])
                > 0.0
        }) && self
            .graph
            .vertices()
            .all(|v| self.vertex_activity(v).get(config[v.index()]) > 0.0)
    }

    /// The unnormalized conditional marginal of eq. (2) at `v`:
    /// `weights[c] = b_v(c) · Π_{u ∈ Γ(v)} A_uv(c, X_u)`.
    ///
    /// Returns the weights *unnormalized*; the caller checks positivity of
    /// the sum (the paper's well-definedness assumption).
    pub fn marginal_weights(&self, v: VertexId, config: &[Spin]) -> Vec<f64> {
        let mut weights = vec![0.0; self.q];
        self.marginal_weights_into(v, config, &mut weights);
        weights
    }

    /// In-place variant of [`Mrf::marginal_weights`] for hot loops.
    ///
    /// # Panics
    /// Panics if `out.len() != q`.
    pub fn marginal_weights_into(&self, v: VertexId, config: &[Spin], out: &mut [f64]) {
        self.marginal_weights_with(v, |u| config[u.index()], out);
    }

    /// [`Mrf::marginal_weights_into`] over an arbitrary spin accessor —
    /// the slice variant delegates here, so any representation (flat
    /// slice, packed slab, sharded halo) sees bit-identical weights.
    ///
    /// # Panics
    /// Panics if `out.len() != q`.
    pub fn marginal_weights_with(
        &self,
        v: VertexId,
        spin_of: impl Fn(VertexId) -> Spin,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), self.q, "output buffer must have length q");
        let b = self.vertex_activity(v);
        for c in 0..self.q {
            out[c] = b.get(c as Spin);
        }
        for (e, u) in self.graph.incident_edges(v) {
            let a = self.edge_activity(e);
            let xu = spin_of(u);
            for (c, w) in out.iter_mut().enumerate() {
                if *w > 0.0 {
                    *w *= a.get(c as Spin, xu);
                }
            }
        }
    }

    /// Samples from the conditional marginal µ_v(· | X_Γ(v)) — one
    /// heat-bath (Glauber) update.
    ///
    /// Returns `None` if the marginal is not well-defined (all weights
    /// zero), which the paper rules out by assumption; callers treat this
    /// as an invariant violation.
    pub fn sample_marginal(
        &self,
        v: VertexId,
        config: &[Spin],
        rng: &mut impl Rng,
    ) -> Option<Spin> {
        let weights = self.marginal_weights(v, config);
        sample_weighted(&weights, rng)
    }

    /// The LocalMetropolis pass probability of edge `e` (Algorithm 2 line
    /// 6): `Ã(σ_u, σ_v) · Ã(X_u, σ_v) · Ã(σ_u, X_v)`.
    #[inline]
    pub fn pass_probability(&self, e: EdgeId, xu: Spin, xv: Spin, su: Spin, sv: Spin) -> f64 {
        let a = self.edge_activity(e);
        a.normalized(su, sv) * a.normalized(xu, sv) * a.normalized(su, xv)
    }

    /// Whether every edge activity is a hard constraint (entries ∈ {0, max}),
    /// making every LocalMetropolis coin deterministic.
    pub fn all_hard_constraints(&self) -> bool {
        self.edge_palette.iter().all(|a| a.is_hard_constraint())
    }

    /// Exhaustively checks the paper's condition (6) — the well-definedness
    /// assumption for LocalMetropolis from *any* (possibly infeasible)
    /// start: for all `X ∈ [q]^V` and all `v`,
    /// `Σ_i b_v(i) Π_{u∈Γ(v)} [ A_uv(i, X_u) Σ_j b_u(j) A_uv(X_v, j) A_uv(i, j) ] > 0`.
    ///
    /// Exponential in `n`; intended for the small instances of the exact
    /// experiments.
    ///
    /// # Panics
    /// Panics if `q^n` exceeds `2^24` (guard against runaway enumeration).
    pub fn condition6_holds_exhaustive(&self) -> bool {
        let n = self.num_vertices();
        let total = crate::gibbs::checked_pow(self.q, n).expect("q^n too large for enumeration");
        assert!(total <= 1 << 24, "q^n too large for exhaustive check");
        let mut config = vec![0 as Spin; n];
        for idx in 0..total {
            crate::gibbs::decode_config(idx, self.q, &mut config);
            for v in self.graph.vertices() {
                let mut outer = 0.0;
                for i in 0..self.q as Spin {
                    let mut term = self.vertex_activity(v).get(i);
                    if term == 0.0 {
                        continue;
                    }
                    for (e, u) in self.graph.incident_edges(v) {
                        let a = self.edge_activity(e);
                        let mut inner = 0.0;
                        for j in 0..self.q as Spin {
                            inner += self.vertex_activity(u).get(j)
                                * a.get(config[v.index()], j)
                                * a.get(i, j);
                        }
                        term *= a.get(i, config[u.index()]) * inner;
                        if term == 0.0 {
                            break;
                        }
                    }
                    outer += term;
                }
                if outer <= 0.0 {
                    return false;
                }
            }
        }
        true
    }

    /// Exhaustively checks that the Glauber marginal (eq. 2) is
    /// well-defined from every configuration in `[q]^V` (the paper's
    /// assumption for LubyGlauber started from arbitrary states).
    ///
    /// # Panics
    /// Panics if `q^n` exceeds `2^24`.
    pub fn marginals_well_defined_exhaustive(&self) -> bool {
        let n = self.num_vertices();
        let total = crate::gibbs::checked_pow(self.q, n).expect("q^n too large for enumeration");
        assert!(total <= 1 << 24, "q^n too large for exhaustive check");
        let mut config = vec![0 as Spin; n];
        for idx in 0..total {
            crate::gibbs::decode_config(idx, self.q, &mut config);
            for v in self.graph.vertices() {
                let w = self.marginal_weights(v, &config);
                if w.iter().sum::<f64>() <= 0.0 {
                    return false;
                }
            }
        }
        true
    }

    fn check_config(&self, config: &[Spin]) {
        assert_eq!(
            config.len(),
            self.num_vertices(),
            "configuration length must equal n"
        );
        debug_assert!(
            config.iter().all(|&c| (c as usize) < self.q),
            "spin out of range"
        );
    }
}

/// Clones the model into a fresh shared handle.
///
/// Chains and samplers *own* their model as an `Arc<Mrf>` (so they are
/// `'static` and can be served concurrently); this impl lets borrowed
/// call sites keep compiling by cloning into a new allocation. The
/// graph itself is already behind an `Arc` and is shared, not copied —
/// only the O(n + m) activity-index tables are duplicated. Hot paths
/// that build many chains from one model should hold an `Arc<Mrf>` and
/// pass `Arc::clone` instead.
impl From<&Mrf> for std::sync::Arc<Mrf> {
    fn from(mrf: &Mrf) -> Self {
        Arc::new(mrf.clone())
    }
}

/// Samples an index with probability proportional to `weights`; `None` if
/// all weights are zero (or the sum is not positive).
pub fn sample_weighted(weights: &[f64], rng: &mut impl Rng) -> Option<u32> {
    let total: f64 = weights.iter().sum();
    if !(total > 0.0) {
        return None;
    }
    let mut target = rng.random::<f64>() * total;
    for (c, &w) in weights.iter().enumerate() {
        target -= w;
        if target < 0.0 && w > 0.0 {
            return Some(c as u32);
        }
    }
    weights.iter().rposition(|&w| w > 0.0).map(|c| c as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use lsl_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn coloring_weights() {
        let mrf = models::proper_coloring(generators::path(3), 3);
        assert_eq!(mrf.weight(&[0, 1, 0]), 1.0);
        assert_eq!(mrf.weight(&[0, 0, 1]), 0.0);
        assert!(mrf.log_weight(&[0, 0, 1]).is_infinite());
        assert_eq!(mrf.log_weight(&[0, 1, 2]), 0.0);
    }

    #[test]
    fn hardcore_weights_count_occupied() {
        let mrf = models::hardcore(generators::path(3), 2.0);
        // Independent set {0, 2}: weight λ².
        assert_eq!(mrf.weight(&[1, 0, 1]), 4.0);
        assert_eq!(mrf.weight(&[1, 1, 0]), 0.0);
        assert_eq!(mrf.weight(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn marginal_matches_eq2_for_coloring() {
        // Path 0-1-2, q = 3, neighbors of 1 colored 0 and 2:
        // available color for v1 is only {1}.
        let mrf = models::proper_coloring(generators::path(3), 3);
        let w = mrf.marginal_weights(VertexId(1), &[0, 0, 2]);
        assert_eq!(w, vec![0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            mrf.sample_marginal(VertexId(1), &[0, 0, 2], &mut rng),
            Some(1)
        );
    }

    #[test]
    fn marginal_none_when_no_color_available() {
        // Star with 3 leaves colored 0,1,2 leaves nothing for the hub at q=3.
        let mrf = models::proper_coloring(generators::star(3), 3);
        let w = mrf.marginal_weights(VertexId(0), &[0, 0, 1, 2]);
        assert_eq!(w.iter().sum::<f64>(), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            mrf.sample_marginal(VertexId(0), &[0, 0, 1, 2], &mut rng),
            None
        );
    }

    #[test]
    fn pass_probability_truth_table() {
        let mrf = models::proper_coloring(generators::path(2), 4);
        let e = EdgeId(0);
        let (xu, xv) = (0, 1);
        // Proposals that conflict with nothing pass with probability 1.
        assert_eq!(mrf.pass_probability(e, xu, xv, 2, 3), 1.0);
        // Same proposals on both endpoints: rule 2.
        assert_eq!(mrf.pass_probability(e, xu, xv, 2, 2), 0.0);
        // u proposes v's current color: Ã(σu, Xv) = 0 — rule 3/1 symmetric.
        assert_eq!(mrf.pass_probability(e, xu, xv, 1, 3), 0.0);
        // v proposes u's current color.
        assert_eq!(mrf.pass_probability(e, xu, xv, 2, 0), 0.0);
    }

    #[test]
    fn condition6_for_colorings() {
        // Paper: for colorings condition (6) holds as long as q ≥ Δ+1, q ≥ 3.
        let g = generators::path(3); // Δ = 2
        let ok = models::proper_coloring(g.clone(), 3);
        assert!(ok.condition6_holds_exhaustive());
        let too_few = models::proper_coloring(g, 2); // q = 2 < 3
        assert!(!too_few.condition6_holds_exhaustive());
    }

    #[test]
    fn marginals_well_defined_threshold() {
        // q ≥ Δ+1 needed for well-defined marginals from arbitrary states.
        let g = generators::star(3); // Δ = 3
        assert!(models::proper_coloring(g.clone(), 4).marginals_well_defined_exhaustive());
        assert!(!models::proper_coloring(g, 3).marginals_well_defined_exhaustive());
    }

    #[test]
    fn per_vertex_and_per_edge_overrides() {
        let g = generators::path(2);
        let mut mrf = models::proper_coloring(g, 3);
        mrf.set_vertex_activity(VertexId(0), VertexActivity::list_indicator(3, &[1]));
        assert_eq!(mrf.weight(&[0, 1]), 0.0); // color 0 not in v0's list
        assert_eq!(mrf.weight(&[1, 0]), 1.0);
        mrf.set_edge_activity(EdgeId(0), EdgeActivity::uniform(3));
        assert_eq!(mrf.weight(&[1, 1]), 1.0); // constraint dropped
    }

    #[test]
    fn sample_weighted_edge_cases() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(sample_weighted(&[0.0, 0.0], &mut rng), None);
        assert_eq!(sample_weighted(&[0.0, 5.0, 0.0], &mut rng), Some(1));
        let got = sample_weighted(&[1.0, 1.0], &mut rng).unwrap();
        assert!(got < 2);
    }

    #[test]
    fn all_hard_constraints_flags() {
        assert!(models::proper_coloring(generators::path(2), 3).all_hard_constraints());
        assert!(models::hardcore(generators::path(2), 1.5).all_hard_constraints());
        assert!(!models::ising(generators::path(2), 0.5).all_hard_constraints());
    }
}
