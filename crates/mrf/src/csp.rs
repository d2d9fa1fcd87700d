//! Weighted local CSPs (factor graphs) — the paper's §2.2 generalization
//! of MRFs to multivariate constraints `c = (f_c, S_c)`.
//!
//! A weighted CSP assigns each configuration the weight
//! `w(σ) = Π_c f_c(σ|S_c)`; Boolean-valued factors give the uniform
//! distribution over CSP solutions. The paper's examples — dominating sets
//! and maximal independent sets — are provided as constructors, and the
//! hypergraph neighborhood structure needed by the LubyGlauber extension
//! (strongly independent scheduling) is exposed via
//! [`Csp::scope_hypergraph`].

use crate::model::{sample_weighted, Spin};
use lsl_graph::hypergraph::Hypergraph;
use lsl_graph::{Graph, VertexId};
use rand::Rng;
use std::sync::Arc;

/// A single weighted constraint: a factor `f_c : [q]^{|S_c|} → R≥0` with
/// scope `S_c` (vertices, in a fixed order).
#[derive(Clone, Debug)]
pub struct Constraint {
    scope: Vec<u32>,
    /// Row-major table of size `q^{|scope|}`; index built with
    /// `scope[0]` as the least significant digit.
    table: Vec<f64>,
}

impl Constraint {
    /// Builds a constraint from a scope and a dense factor table.
    ///
    /// # Errors
    /// Returns a message if the table size is not `q^{|scope|}`, an entry
    /// is negative/non-finite, or the scope repeats a vertex.
    pub fn new(q: usize, scope: Vec<u32>, table: Vec<f64>) -> Result<Self, String> {
        let expect = crate::gibbs::checked_pow(q, scope.len())
            .ok_or("scope too large for a dense factor table")?;
        if table.len() != expect {
            return Err(format!(
                "factor table has {} entries; expected q^|S| = {expect}",
                table.len()
            ));
        }
        if table.iter().any(|&x| !x.is_finite() || x < 0.0) {
            return Err("factor entries must be finite and non-negative".into());
        }
        let mut seen = std::collections::HashSet::new();
        if !scope.iter().all(|&v| seen.insert(v)) {
            return Err("scope repeats a vertex".into());
        }
        Ok(Constraint { scope, table })
    }

    /// Builds a Boolean constraint from a predicate over local assignments.
    pub fn from_predicate(
        q: usize,
        scope: Vec<u32>,
        pred: impl Fn(&[Spin]) -> bool,
    ) -> Result<Self, String> {
        let size = crate::gibbs::checked_pow(q, scope.len())
            .ok_or("scope too large for a dense factor table")?;
        let k = scope.len();
        let mut local = vec![0 as Spin; k];
        let table = (0..size)
            .map(|idx| {
                crate::gibbs::decode_config(idx, q, &mut local);
                if pred(&local) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        Constraint::new(q, scope, table)
    }

    /// The constraint's scope.
    pub fn scope(&self) -> &[u32] {
        &self.scope
    }

    /// Evaluates the factor on a *global* configuration.
    pub fn evaluate(&self, q: usize, config: &[Spin]) -> f64 {
        let mut idx = 0usize;
        for &v in self.scope.iter().rev() {
            idx = idx * q + config[v as usize] as usize;
        }
        self.table[idx]
    }

    /// Largest factor value (normalizer for Metropolis-style filters).
    pub fn max_value(&self) -> f64 {
        self.table.iter().copied().fold(0.0, f64::max)
    }

    /// Evaluates the factor on a *local* assignment aligned with the
    /// scope order (`local[i]` is the spin of `scope()[i]`).
    ///
    /// # Panics
    /// Panics if `local.len() != scope len` (debug) or a spin is out of
    /// range.
    pub fn evaluate_local(&self, q: usize, local: &[Spin]) -> f64 {
        debug_assert_eq!(local.len(), self.scope.len());
        let mut idx = 0usize;
        for &s in local.iter().rev() {
            idx = idx * q + s as usize;
        }
        self.table[idx]
    }
}

/// A weighted CSP over a network, with locality bookkeeping.
///
/// # Example
/// ```
/// use lsl_graph::generators;
/// use lsl_mrf::csp::Csp;
///
/// let g = generators::cycle(4);
/// let csp = Csp::dominating_set(g.into());
/// assert!(csp.is_feasible(&[1, 0, 1, 0]));
/// assert!(!csp.is_feasible(&[0, 0, 0, 0]));
/// ```
#[derive(Clone, Debug)]
pub struct Csp {
    graph: Arc<Graph>,
    q: usize,
    constraints: Vec<Constraint>,
    /// For each vertex, indices of constraints whose scope contains it.
    incident: Vec<Vec<u32>>,
}

impl Csp {
    /// Builds a CSP from constraints on a network.
    ///
    /// # Panics
    /// Panics if a scope member is out of range.
    pub fn new(graph: Arc<Graph>, q: usize, constraints: Vec<Constraint>) -> Self {
        let n = graph.num_vertices();
        let mut incident = vec![Vec::new(); n];
        for (ci, c) in constraints.iter().enumerate() {
            for &v in c.scope() {
                assert!((v as usize) < n, "scope member {v} out of range");
                incident[v as usize].push(ci as u32);
            }
        }
        Csp {
            graph,
            q,
            constraints,
            incident,
        }
    }

    /// Uniform dominating sets of `graph`: spin 1 = "chosen"; every closed
    /// neighborhood `Γ⁺(v)` must contain a chosen vertex.
    pub fn dominating_set(graph: Arc<Graph>) -> Self {
        let constraints = graph
            .vertices()
            .map(|v| {
                let mut scope: Vec<u32> = graph.neighbors(v).map(|u| u.0).collect();
                scope.push(v.0);
                scope.sort_unstable();
                scope.dedup();
                Constraint::from_predicate(2, scope, |local| local.contains(&1))
                    .expect("dominating-set constraint is valid")
            })
            .collect();
        Csp::new(graph, 2, constraints)
    }

    /// Uniform *maximal* independent sets: independence per edge plus
    /// domination per closed neighborhood (an MIS is a dominating
    /// independent set — paper §2.2).
    pub fn maximal_independent_set(graph: Arc<Graph>) -> Self {
        let mut constraints: Vec<Constraint> = graph
            .edges()
            .map(|(_, u, v)| {
                Constraint::from_predicate(2, vec![u.0, v.0], |local| {
                    !(local[0] == 1 && local[1] == 1)
                })
                .expect("independence constraint is valid")
            })
            .collect();
        for v in graph.vertices() {
            let mut scope: Vec<u32> = graph.neighbors(v).map(|u| u.0).collect();
            scope.push(v.0);
            scope.sort_unstable();
            scope.dedup();
            constraints.push(
                Constraint::from_predicate(2, scope, |local| local.contains(&1))
                    .expect("domination constraint is valid"),
            );
        }
        Csp::new(graph, 2, constraints)
    }

    /// The underlying network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Domain size `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Weight `w(σ) = Π_c f_c(σ|S_c)`.
    pub fn weight(&self, config: &[Spin]) -> f64 {
        assert_eq!(config.len(), self.graph.num_vertices());
        let mut w = 1.0;
        for c in &self.constraints {
            w *= c.evaluate(self.q, config);
            if w == 0.0 {
                return 0.0;
            }
        }
        w
    }

    /// Whether `w(σ) > 0`: a scan for a zero factor, so unlike
    /// `weight(σ) > 0` it stays exact where the product underflows.
    pub fn is_feasible(&self, config: &[Spin]) -> bool {
        assert_eq!(config.len(), self.graph.num_vertices());
        self.constraints
            .iter()
            .all(|c| c.evaluate(self.q, config) > 0.0)
    }

    /// Unnormalized conditional marginal of `v` given the rest of `config`:
    /// `weights[s] = Π_{c ∋ v} f_c(config with σ_v = s)`.
    pub fn marginal_weights(&self, v: VertexId, config: &[Spin]) -> Vec<f64> {
        let mut scratch = MarginalScratch::new(self);
        self.marginal_weights_into(v, config, &mut scratch);
        scratch.weights
    }

    /// In-place variant of [`Csp::marginal_weights`] for hot loops: the
    /// trial configuration and the weight vector both live in `scratch`.
    pub fn marginal_weights_into(
        &self,
        v: VertexId,
        config: &[Spin],
        scratch: &mut MarginalScratch,
    ) {
        scratch.config.clear();
        scratch.config.extend_from_slice(config);
        scratch.weights.resize(self.q, 0.0);
        for (s, slot) in scratch.weights.iter_mut().enumerate() {
            scratch.config[v.index()] = s as Spin;
            let mut w = 1.0;
            for &ci in &self.incident[v.index()] {
                w *= self.constraints[ci as usize].evaluate(self.q, &scratch.config);
                if w == 0.0 {
                    break;
                }
            }
            *slot = w;
        }
    }

    /// Heat-bath resample of `σ_v` from the conditional marginal; `None` if
    /// the marginal is ill-defined (all weights zero).
    pub fn sample_marginal(
        &self,
        v: VertexId,
        config: &[Spin],
        rng: &mut impl Rng,
    ) -> Option<Spin> {
        let mut scratch = MarginalScratch::new(self);
        self.sample_marginal_with(v, config, rng, &mut scratch)
    }

    /// Allocation-free variant of [`Csp::sample_marginal`] for hot loops.
    pub fn sample_marginal_with(
        &self,
        v: VertexId,
        config: &[Spin],
        rng: &mut impl Rng,
        scratch: &mut MarginalScratch,
    ) -> Option<Spin> {
        self.marginal_weights_into(v, config, scratch);
        sample_weighted(&scratch.weights, rng)
    }

    /// The hypergraph of constraint scopes — LubyGlauber's strongly
    /// independent scheduling operates on this structure.
    pub fn scope_hypergraph(&self) -> Hypergraph {
        Hypergraph::new(
            self.graph.num_vertices(),
            self.constraints.iter().map(|c| c.scope.clone()).collect(),
        )
    }

    /// Exhaustive enumeration: all feasible configurations with weights.
    /// Intended for small instances.
    ///
    /// # Panics
    /// Panics if `q^n > 2^24`.
    pub fn enumerate(&self) -> Vec<(Vec<Spin>, f64)> {
        let n = self.graph.num_vertices();
        let total = crate::gibbs::checked_pow(self.q, n).expect("q^n overflow");
        assert!(total <= 1 << 24, "state space too large to enumerate");
        let mut out = Vec::new();
        let mut config = vec![0 as Spin; n];
        for idx in 0..total {
            crate::gibbs::decode_config(idx, self.q, &mut config);
            let w = self.weight(&config);
            if w > 0.0 {
                out.push((config.clone(), w));
            }
        }
        out
    }
}

/// Clones the CSP into a fresh shared handle (the CSP counterpart of
/// `From<&Mrf> for Arc<Mrf>`): borrowed call sites keep compiling
/// against chain constructors that take `impl Into<Arc<Csp>>`, at the
/// cost of duplicating the constraint tables. Hold an `Arc<Csp>` and
/// pass `Arc::clone` on hot paths.
impl From<&Csp> for Arc<Csp> {
    fn from(csp: &Csp) -> Self {
        Arc::new(csp.clone())
    }
}

/// Reusable buffers for allocation-free CSP marginals: the trial
/// configuration written per candidate spin and the resulting weights.
#[derive(Clone, Debug)]
pub struct MarginalScratch {
    config: Vec<Spin>,
    weights: Vec<f64>,
}

impl MarginalScratch {
    /// Builds scratch sized for `csp`.
    pub fn new(csp: &Csp) -> Self {
        MarginalScratch {
            config: Vec::with_capacity(csp.graph.num_vertices()),
            weights: vec![0.0; csp.q],
        }
    }

    /// The marginal weights of the most recent
    /// [`Csp::marginal_weights_into`] call.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_graph::generators;

    #[test]
    fn dominating_sets_of_path3() {
        // P3: dominating sets are all sets containing v1, plus {0,2}:
        // {1},{0,1},{1,2},{0,1,2},{0,2} — and {0} fails (2 uncovered), etc.
        let csp = Csp::dominating_set(Arc::new(generators::path(3)));
        let sols = csp.enumerate();
        assert_eq!(sols.len(), 5);
        assert!(csp.is_feasible(&[0, 1, 0]));
        assert!(csp.is_feasible(&[1, 0, 1]));
        assert!(!csp.is_feasible(&[1, 0, 0]));
    }

    #[test]
    fn mis_of_cycle4() {
        // C4 has exactly 2 maximal independent sets: {0,2} and {1,3}.
        let csp = Csp::maximal_independent_set(Arc::new(generators::cycle(4)));
        let sols = csp.enumerate();
        assert_eq!(sols.len(), 2);
        assert!(csp.is_feasible(&[1, 0, 1, 0]));
        assert!(csp.is_feasible(&[0, 1, 0, 1]));
        assert!(!csp.is_feasible(&[1, 0, 0, 0])); // not maximal
        assert!(!csp.is_feasible(&[1, 1, 0, 0])); // not independent
    }

    #[test]
    fn mis_of_star() {
        // Star K_{1,3}: MISs are {hub} and {all leaves}.
        let csp = Csp::maximal_independent_set(Arc::new(generators::star(3)));
        assert_eq!(csp.enumerate().len(), 2);
    }

    #[test]
    fn marginal_weights_respect_constraints() {
        let csp = Csp::maximal_independent_set(Arc::new(generators::path(3)));
        // Config [1,0,?]: v2 must be 1 (else Γ+(2) = {1,2} undominated).
        let w = csp.marginal_weights(VertexId(2), &[1, 0, 0]);
        assert_eq!(w[0], 0.0);
        assert!(w[1] > 0.0);
    }

    #[test]
    fn scope_hypergraph_strong_independence() {
        let csp = Csp::maximal_independent_set(Arc::new(generators::path(3)));
        let h = csp.scope_hypergraph();
        // v0 and v2 share the domination scope of v1 = {0,1,2}.
        assert!(!h.is_strongly_independent(&[true, false, true]));
        assert!(h.is_strongly_independent(&[true, false, false]));
    }

    #[test]
    fn weighted_factor_tables() {
        let g = Arc::new(generators::path(2));
        // Soft agreement factor on the edge.
        let c = Constraint::new(2, vec![0, 1], vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let csp = Csp::new(g, 2, vec![c]);
        assert_eq!(csp.weight(&[0, 0]), 2.0);
        assert_eq!(csp.weight(&[0, 1]), 1.0);
        assert_eq!(csp.constraints()[0].max_value(), 2.0);
    }

    #[test]
    fn constraint_validation() {
        assert!(Constraint::new(2, vec![0, 1], vec![1.0; 3]).is_err());
        assert!(Constraint::new(2, vec![0, 0], vec![1.0; 4]).is_err());
        assert!(Constraint::new(2, vec![0, 1], vec![1.0, -1.0, 0.0, 1.0]).is_err());
    }
}
