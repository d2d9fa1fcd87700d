//! The paper's chains as vertex-step rules for the step engine.
//!
//! Each rule is the *chain logic* only — what one vertex draws and how
//! it combines its neighborhood — with execution (order, parallelism,
//! batching) left to the engine backends:
//!
//! * [`LocalMetropolisRule`] — Algorithm 2: propose per vertex, filter
//!   by shared per-edge coins (with the rule-3 ablation switch);
//! * [`LubyGlauberRule`] — Algorithm 1 generalized over any
//!   [`VertexScheduler`]: mark, select an independent set, heat-bath
//!   resample the selected vertices;
//! * [`GlauberRule`] / [`MetropolisRule`] — the sequential single-site
//!   baselines, expressed as rounds whose active vertex comes from the
//!   round-shared stream (so even they are pure functions of
//!   `(master, round)` and batch across replicas).

use super::{hotpath, HotKernel, KernelRange, RoundCtx, SyncRule};
use crate::schedule::{LubyScheduler, VertexScheduler};
use crate::update::Resampler;
use lsl_graph::VertexId;
use lsl_local::rng::Xoshiro256pp;
use lsl_mrf::{Mrf, Spin};
use std::sync::Arc;

/// Reusable per-worker scratch for heat-bath rules: a marginal-weight
/// buffer and a coupling-friendly resampler. (Distinct from
/// `lsl_mrf::csp::MarginalScratch`, which carries a CSP trial
/// configuration instead of a resampler.)
pub struct HeatBathScratch {
    weights: Vec<f64>,
    resampler: Resampler,
}

impl HeatBathScratch {
    /// Builds scratch sized for `mrf`.
    pub fn new(mrf: &Mrf) -> Self {
        HeatBathScratch {
            weights: vec![0.0; mrf.q()],
            resampler: Resampler::new(mrf),
        }
    }

    /// Heat-bath resample of `v` given `state`, drawing from `rng`.
    /// Where every marginal weight vanishes (a state the paper's
    /// well-definedness assumption excludes, reachable from an
    /// infeasible start), `v` keeps its spin; the draw is consumed
    /// either way.
    fn resample(&mut self, mrf: &Mrf, v: VertexId, state: &[Spin], rng: &mut Xoshiro256pp) -> Spin {
        mrf.marginal_weights_with(v, |u| state[u.index()], &mut self.weights);
        self.resampler
            .resample(&self.weights, rng)
            .unwrap_or_else(|| state[v.index()])
    }
}

/// Algorithm 2 (LocalMetropolis) as a vertex-step rule.
///
/// Propose phase: `σ_v ∼ b_v`. Resolve phase: `v` accepts iff every
/// incident edge's shared coin passes the three-factor filter
/// `Ã_e(σ_u, σ_v) · Ã_e(X_u, σ_v) · Ã_e(σ_u, X_v)`. Coins with pass
/// probability exactly 0 or 1 are decided without consulting the coin
/// stream (identically in every backend), which makes hard-constraint
/// models — where *every* coin is deterministic — coin-free.
///
/// # Example (through the sampler facade)
/// ```
/// use lsl_core::prelude::*;
/// use lsl_graph::generators;
/// use lsl_mrf::models;
///
/// let mrf = models::proper_coloring(generators::complete_bipartite(6, 6), 24);
/// let mut sampler = Sampler::for_mrf(&mrf)
///     .algorithm(Algorithm::LocalMetropolis)
///     .seed(2)
///     .build()
///     .unwrap();
/// sampler.run(50);
/// assert!(mrf.is_feasible(sampler.state()));
/// ```
#[derive(Clone, Debug)]
pub struct LocalMetropolisRule {
    rule3: bool,
}

impl LocalMetropolisRule {
    /// The full (correct) chain.
    pub fn new() -> Self {
        LocalMetropolisRule { rule3: true }
    }

    /// The ablation omitting the third filter factor `Ã_e(σ_u, X_v)`
    /// (the paper warns this breaks reversibility; experiment E9
    /// quantifies the failure).
    pub fn without_rule3() -> Self {
        LocalMetropolisRule { rule3: false }
    }

    /// Whether the full filter is active.
    pub fn rule3_enabled(&self) -> bool {
        self.rule3
    }
}

impl Default for LocalMetropolisRule {
    fn default() -> Self {
        Self::new()
    }
}

impl SyncRule for LocalMetropolisRule {
    type Local = Spin;
    type Scratch = ();

    const STATE_FREE_PROPOSE: bool = true;

    fn name(&self) -> &'static str {
        if self.rule3 {
            "LocalMetropolis"
        } else {
            "LocalMetropolis(no rule 3)"
        }
    }

    fn make_scratch(&self, _mrf: &Mrf) -> Self::Scratch {}

    fn propose(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        _state: &[Spin],
        rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) -> Spin {
        ctx.mrf().vertex_activity(v).sample(rng)
    }

    fn resolve(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &[Spin],
        locals: &[Spin],
        _rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) -> Spin {
        let mrf = ctx.mrf();
        let g = mrf.graph();
        let old = state[v.index()];
        for (e, _) in g.incident_edges(v) {
            // Evaluate the filter in the edge's stored orientation so
            // both endpoints agree on the factors bit-for-bit.
            let (a, b) = g.endpoints(e);
            let (xu, xv) = (state[a.index()], state[b.index()]);
            let (su, sv) = (locals[a.index()], locals[b.index()]);
            let act = mrf.edge_activity(e);
            let mut p = act.normalized(su, sv) * act.normalized(xu, sv);
            if self.rule3 {
                p *= act.normalized(su, xv);
            }
            if p <= 0.0 {
                return old;
            }
            if p < 1.0 && ctx.edge_coin(e) >= p {
                return old;
            }
        }
        locals[v.index()]
    }

    fn hot_kernel(&self, mrf: &Arc<Mrf>, range: KernelRange) -> Option<Box<dyn HotKernel>> {
        Some(hotpath::local_metropolis_kernel(mrf, range, self.rule3))
    }
}

/// Algorithm 1 (LubyGlauber) as a vertex-step rule, generic over the
/// independent-set scheduler.
///
/// Propose phase: the scheduler's per-vertex mark (the Luby `β_v`, a
/// Bernoulli volunteer bit, ...). Resolve phase: vertices the scheduler
/// selects resample from their conditional marginal µ_v(· | X_Γ(v));
/// everyone else keeps their spin.
///
/// # Example (through the sampler facade)
/// ```
/// use lsl_core::prelude::*;
/// use lsl_graph::generators;
/// use lsl_mrf::models;
///
/// let mrf = models::proper_coloring(generators::torus(4, 4), 10);
/// let mut sampler = Sampler::for_mrf(&mrf)
///     .algorithm(Algorithm::LubyGlauber)
///     .scheduler(Sched::Luby)
///     .seed(5)
///     .build()
///     .unwrap();
/// sampler.run(80);
/// assert!(mrf.is_feasible(sampler.state()));
/// ```
#[derive(Clone, Debug)]
pub struct LubyGlauberRule<S: VertexScheduler = LubyScheduler> {
    scheduler: S,
}

impl LubyGlauberRule<LubyScheduler> {
    /// The paper's chain: Luby-step scheduling.
    pub fn luby() -> Self {
        LubyGlauberRule {
            scheduler: LubyScheduler::new(),
        }
    }
}

impl<S: VertexScheduler> LubyGlauberRule<S> {
    /// The chain under a custom scheduler.
    pub fn with_scheduler(scheduler: S) -> Self {
        LubyGlauberRule { scheduler }
    }

    /// The scheduler in use.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }
}

impl<S: VertexScheduler> SyncRule for LubyGlauberRule<S> {
    type Local = S::Mark;
    type Scratch = HeatBathScratch;

    const STATE_FREE_PROPOSE: bool = true;

    fn name(&self) -> &'static str {
        "LubyGlauber"
    }

    fn make_scratch(&self, mrf: &Mrf) -> Self::Scratch {
        HeatBathScratch::new(mrf)
    }

    fn active_vertex(&self, ctx: &RoundCtx) -> Option<VertexId> {
        // Single-vertex schedulers (e.g. Singleton) take the engine's
        // single-site fast path; `resolve` re-checks `selected`, which
        // must agree, so the trajectory is identical to the full sweep.
        self.scheduler.single_vertex(ctx)
    }

    fn propose(
        &self,
        _ctx: &RoundCtx,
        v: VertexId,
        _state: &[Spin],
        rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) -> S::Mark {
        self.scheduler.mark(v, rng.next())
    }

    fn resolve(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &[Spin],
        locals: &[S::Mark],
        rng: &mut Xoshiro256pp,
        scratch: &mut Self::Scratch,
    ) -> Spin {
        if !self.scheduler.selected(ctx, v, locals) {
            return state[v.index()];
        }
        scratch.resample(ctx.mrf(), v, state, rng)
    }

    fn hot_kernel(&self, mrf: &Arc<Mrf>, range: KernelRange) -> Option<Box<dyn HotKernel>> {
        Some(hotpath::luby_glauber_kernel(
            mrf,
            range,
            self.scheduler.clone(),
        ))
    }
}

/// Computes the update mask of a round from its published marks (for
/// instrumentation: which vertices the scheduler selected).
pub fn scheduled_mask<S: VertexScheduler>(
    scheduler: &S,
    ctx: &RoundCtx,
    marks: &[S::Mark],
    out: &mut [bool],
) {
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = scheduler.selected(ctx, VertexId(i as u32), marks);
    }
}

/// The single-site heat-bath Glauber dynamics as an engine rule: each
/// round, the round-shared stream picks one vertex, which resamples from
/// its conditional marginal.
///
/// # Example (through the sampler facade)
/// ```
/// use lsl_core::prelude::*;
/// use lsl_graph::generators;
/// use lsl_mrf::models;
///
/// let mrf = models::proper_coloring(generators::cycle(8), 5);
/// let mut sampler = Sampler::for_mrf(&mrf)
///     .algorithm(Algorithm::Glauber)
///     .build()
///     .unwrap();
/// sampler.run(200);
/// assert!(mrf.is_feasible(sampler.state()));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct GlauberRule;

impl SyncRule for GlauberRule {
    type Local = ();
    type Scratch = HeatBathScratch;

    const HAS_PROPOSE: bool = false;

    fn name(&self) -> &'static str {
        "Glauber"
    }

    fn make_scratch(&self, mrf: &Mrf) -> Self::Scratch {
        HeatBathScratch::new(mrf)
    }

    fn active_vertex(&self, ctx: &RoundCtx) -> Option<VertexId> {
        Some(ctx.shared_vertex())
    }

    fn propose(
        &self,
        _ctx: &RoundCtx,
        _v: VertexId,
        _state: &[Spin],
        _rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) {
    }

    fn resolve(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &[Spin],
        _locals: &[()],
        rng: &mut Xoshiro256pp,
        scratch: &mut Self::Scratch,
    ) -> Spin {
        scratch.resample(ctx.mrf(), v, state, rng)
    }
}

/// The single-site Metropolis chain as an engine rule: the active vertex
/// proposes `c ∼ b_v` and accepts with probability
/// `Π_{u ∼ v} Ã_uv(c, X_u)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetropolisRule;

impl SyncRule for MetropolisRule {
    type Local = ();
    type Scratch = ();

    const HAS_PROPOSE: bool = false;

    fn name(&self) -> &'static str {
        "Metropolis"
    }

    fn make_scratch(&self, _mrf: &Mrf) -> Self::Scratch {}

    fn active_vertex(&self, ctx: &RoundCtx) -> Option<VertexId> {
        Some(ctx.shared_vertex())
    }

    fn propose(
        &self,
        _ctx: &RoundCtx,
        _v: VertexId,
        _state: &[Spin],
        _rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) {
    }

    fn resolve(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &[Spin],
        _locals: &[()],
        rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) -> Spin {
        let mrf = ctx.mrf();
        let proposal = mrf.vertex_activity(v).sample(rng);
        let mut accept_prob = 1.0;
        for (e, u) in mrf.graph().incident_edges(v) {
            accept_prob *= mrf.edge_activity(e).normalized(proposal, state[u.index()]);
        }
        // One coin per step keeps coupled streams aligned.
        let coin = rng.uniform_f64();
        if coin < accept_prob {
            proposal
        } else {
            state[v.index()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncChain;
    use lsl_graph::generators;
    use lsl_mrf::models;

    #[test]
    fn local_metropolis_rule_preserves_feasibility() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 8);
        let mut chain = SyncChain::new(&mrf, LocalMetropolisRule::new(), 11);
        chain.run(60);
        assert!(mrf.is_feasible(chain.state()));
        for _ in 0..40 {
            chain.step();
            assert!(mrf.is_feasible(chain.state()));
        }
    }

    #[test]
    fn never_moves_to_less_proper() {
        // Once feasible, the facade's LocalMetropolis stays feasible
        // (absorption, Thm 4.1 proof).
        use crate::sampler::{Algorithm, Sampler};
        let mrf = models::proper_coloring(generators::torus(4, 4), 8);
        let mut sampler = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LocalMetropolis)
            .seed(4)
            .build()
            .unwrap();
        sampler.run(30);
        assert!(mrf.is_feasible(sampler.state()));
        for _ in 0..50 {
            sampler.step();
            assert!(mrf.is_feasible(sampler.state()));
        }
    }

    /// TV between the exact Gibbs distribution and the facade's
    /// LocalMetropolis at `steps` rounds.
    fn local_metropolis_tv(mrf: &Mrf, steps: usize, replicas: usize) -> f64 {
        use crate::sampler::{Algorithm, Sampler};
        let exact = lsl_mrf::gibbs::Enumeration::new(mrf).unwrap();
        Sampler::for_mrf(mrf)
            .algorithm(Algorithm::LocalMetropolis)
            .seed(77)
            .tv(&exact, steps, replicas)
            .unwrap()
    }

    #[test]
    fn absorbs_from_infeasible_start() {
        // Start all-same-color (maximally infeasible); with q ≥ Δ+2 the
        // chain must become proper quickly.
        let mrf = models::proper_coloring(generators::cycle(8), 5);
        let mut chain = SyncChain::with_state(&mrf, LocalMetropolisRule::new(), 6, vec![0; 8]);
        let became_proper = (0..200).any(|_| {
            chain.step();
            mrf.is_feasible(chain.state())
        });
        assert!(became_proper, "never became proper");
    }

    #[test]
    fn samples_gibbs_colorings_small() {
        let mrf = models::proper_coloring(generators::cycle(4), 4);
        let tv = local_metropolis_tv(&mrf, 80, 8000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn samples_soft_constraint_models() {
        // Ising (soft activities exercise the fractional coin path).
        let mrf = models::ising(generators::path(3), 0.6);
        let tv = local_metropolis_tv(&mrf, 80, 8000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn samples_hardcore() {
        let mrf = models::hardcore(generators::path(3), 1.0);
        let tv = local_metropolis_tv(&mrf, 60, 8000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn rule3_chain_correct_where_ablation_differs() {
        // The full chain stays correct on instances where the rule-3
        // ablation changes the transition structure (the exact-kernel
        // tests in `kernel` quantify the ablation's failure).
        let mrf = models::proper_coloring(generators::path(3), 3);
        let tv = local_metropolis_tv(&mrf, 400, 8000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn large_degree_still_correct() {
        // LocalMetropolis correctness (not mixing speed) only needs the
        // chain rules; test on a star with ample colors.
        let mrf = models::proper_coloring(generators::star(3), 4);
        let tv = local_metropolis_tv(&mrf, 300, 20_000);
        assert!(tv < 0.06, "tv = {tv}");
    }

    #[test]
    fn coloring_filter_rules_truth_table() {
        // On one edge u–v with q = 4, v keeps its proposal `sv` iff the
        // filter passes for (xu, xv, su, sv). Coloring coins are 0 or 1,
        // so the coin stream is never consulted.
        let mrf = models::proper_coloring(generators::path(2), 4);
        let ctx = RoundCtx::new(&mrf, 0, 0);
        let passes = |rule: &LocalMetropolisRule, [xu, xv, su, sv]: [Spin; 4]| {
            let mut rng = Xoshiro256pp::seed_from(0);
            rule.resolve(
                &ctx,
                VertexId(1),
                &[xu, xv][..],
                &[su, sv],
                &mut rng,
                &mut (),
            ) == sv
        };
        let full = LocalMetropolisRule::new();
        // No conflicts: pass with certainty.
        assert!(passes(&full, [0, 1, 2, 3]));
        // Rule 1 at v: v proposed u's current color (sv = xu).
        assert!(!passes(&full, [0, 1, 2, 0]));
        // Rule 2: identical proposals.
        assert!(!passes(&full, [0, 1, 3, 3]));
        // Rule 3: u proposed v's current color (su = xv).
        assert!(!passes(&full, [0, 1, 1, 3]));
        // The ablated chain ignores rule 3 only.
        let ablated = LocalMetropolisRule::without_rule3();
        assert!(passes(&ablated, [0, 1, 1, 3]));
        assert!(!passes(&ablated, [0, 1, 2, 0]));
    }

    #[test]
    fn luby_rule_masks_are_independent_sets() {
        // Rebuild each round's marks from its key: every mark is a
        // function of its vertex's first propose draw.
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let rule = LubyGlauberRule::luby();
        let mut chain = SyncChain::new(&mrf, rule, 5);
        let mut mask = vec![false; mrf.num_vertices()];
        for _ in 0..30 {
            chain.step();
            let (master, round) = chain.last_round_key().unwrap();
            let ctx = crate::engine::RoundCtx::new(&mrf, master, round);
            let scheduler = chain.rule().scheduler();
            let marks: Vec<_> = mrf
                .graph()
                .vertices()
                .map(|v| scheduler.mark(v, ctx.propose_rng(v).raw().next()))
                .collect();
            scheduled_mask(scheduler, &ctx, &marks, &mut mask);
            assert!(mrf.graph().is_independent_set(&mask));
        }
    }

    #[test]
    fn metropolis_rule_single_site_moves() {
        let mrf = models::proper_coloring(generators::cycle(6), 4);
        let mut chain = SyncChain::new(&mrf, MetropolisRule, 2);
        for _ in 0..50 {
            let before = chain.state().to_vec();
            chain.step();
            let diff = before
                .iter()
                .zip(chain.state())
                .filter(|(a, b)| a != b)
                .count();
            assert!(diff <= 1);
        }
    }
}
