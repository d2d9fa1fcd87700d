//! Independent-set schedulers for parallel Glauber updates.
//!
//! The paper's generic parallelization (§3) updates, each round, a random
//! independent set `I`. Its Remark after Theorem 3.2 notes the analysis
//! holds for *any* subroutine that independently samples `I` with
//! `Pr[v ∈ I] ≥ γ > 0`, with mixing rate `O(1/((1−α)γ) · log(n/ε))`.
//! This module provides that abstraction and four instances:
//!
//! * [`LubyScheduler`] — the paper's "Luby step": iid `β_v ∈ [0, 1]`,
//!   select local maxima of the inclusive neighborhood. `Pr[v ∈ I] =
//!   1/(deg(v)+1) ≥ 1/(Δ+1)`.
//! * [`SingletonScheduler`] — one uniform vertex (`γ = 1/n`): recovers the
//!   sequential Glauber dynamics, used to cross-validate kernels.
//! * [`BernoulliFilterScheduler`] — each vertex volunteers with probability
//!   `p`, conflicts are dropped (both endpoints of a volunteering edge
//!   withdraw): `Pr[v ∈ I] = p(1−p)^deg(v)`, an ablation knob for γ.
//! * [`ChromaticScheduler`] — the chromatic scheduler of Gonzalez et al.
//!   \[28\]: cycles deterministically through the classes of a proper
//!   coloring. *Not* an independent sampler (it is a systematic scan), so
//!   Proposition 3.1's proof does not apply round-by-round — it is here as
//!   the baseline the paper contrasts with.

use crate::engine::RoundCtx;
use lsl_graph::coloring::ProperColoring;
use lsl_graph::{Graph, VertexId};
use lsl_local::rng::head_to_f64;

/// A strategy for picking the set of vertices to update this round, in
/// the step engine's per-vertex form: a **mark** drawn from each
/// vertex's private round stream, then a pure **selection** rule over
/// the neighborhood's marks (plus the round-shared stream for global
/// draws). This is what lets LubyGlauber rounds execute in parallel —
/// or batched across replicas — without changing the scheduled set's
/// distribution. The γ of each scheduler is
/// [`Sched::gamma`](crate::sampler::Sched::gamma). Schedulers are
/// `Send + Sync` so the rules that embed them make `Send` chains, and
/// `Clone + 'static` so the hot-path kernels can own a copy.
///
/// The selection rule is written once, in two halves: a per-vertex
/// test ([`VertexScheduler::eligible`]) and a per-neighbour test
/// ([`VertexScheduler::survives`]); `v` is selected iff it is eligible
/// and survives every neighbour. [`VertexScheduler::selected`] composes
/// them per vertex (the scalar oracle's view); the LubyGlauber kernel
/// evaluates the same two functions as one pass over the edges,
/// ANDing each edge's two outcomes into its endpoints — the same
/// conjunction, so the same set.
pub trait VertexScheduler: Send + Sync + Clone + 'static {
    /// The per-vertex mark published by the propose phase.
    type Mark: Copy + Send + Sync + Default;

    /// Vertex `v`'s mark, from `draw`: the first `u64` of its private
    /// propose stream this round. A mark is a function of that one
    /// draw — every scheduler here needs at most one uniform — which is
    /// what lets the lane kernels fill a round's marks from one block
    /// of stream heads ([`lsl_local::rng::fill_stream_heads`]) instead
    /// of building a generator per vertex.
    fn mark(&self, v: VertexId, draw: u64) -> Self::Mark;

    /// The per-vertex half of the selection rule: whether `v`, marked
    /// `mark`, is a candidate this round before any neighbour is
    /// consulted.
    fn eligible(&self, ctx: &RoundCtx, v: VertexId, mark: Self::Mark) -> bool;

    /// The per-neighbour half of the selection rule: whether candidate
    /// `v` (marked `mark_v`) stays selected next to its neighbour `u`
    /// (marked `mark_u`). Must be a pure function of its arguments, and
    /// no edge may let both of two eligible endpoints survive each
    /// other — that is what makes every selected set independent.
    fn survives(&self, v: VertexId, mark_v: Self::Mark, u: VertexId, mark_u: Self::Mark) -> bool;

    /// Whether `v` is in this round's update set: eligible, and
    /// surviving every neighbour.
    fn selected(&self, ctx: &RoundCtx, v: VertexId, marks: &[Self::Mark]) -> bool {
        let mark = marks[v.index()];
        self.eligible(ctx, v, mark)
            && ctx
                .mrf()
                .graph()
                .neighbors(v)
                .all(|u| self.survives(v, mark, u, marks[u.index()]))
    }

    /// For schedulers that select exactly one, mark-independent vertex
    /// per round: the engine then takes its single-site fast path (no
    /// propose sweep, no double-buffering) instead of resolving every
    /// vertex. Must agree with [`VertexScheduler::selected`].
    fn single_vertex(&self, ctx: &RoundCtx) -> Option<VertexId> {
        let _ = ctx;
        None
    }
}

/// The paper's Luby step (Algorithm 1, lines 3–4).
///
/// Every vertex draws an iid uniform `β_v`; `v` joins `I` iff
/// `β_v > max{β_u : u ∈ Γ(v)}`. Ties (probability ~2⁻⁵³ per pair) are
/// broken by vertex id, preserving independence.
///
/// The mark `β_v` is the integer `head >> 11` times `2⁻⁵³`, exactly
/// (a 53-bit integer and a power-of-two scale), so marks compare
/// exactly as those integers do — no rounding can merge or reorder
/// two draws.
#[derive(Clone, Debug, Default)]
pub struct LubyScheduler;

impl LubyScheduler {
    /// Creates a Luby scheduler.
    pub fn new() -> Self {
        LubyScheduler
    }
}

impl VertexScheduler for LubyScheduler {
    type Mark = f64;

    fn mark(&self, _v: VertexId, draw: u64) -> f64 {
        head_to_f64(draw)
    }

    fn eligible(&self, _ctx: &RoundCtx, _v: VertexId, _mark: f64) -> bool {
        true
    }

    #[inline]
    fn survives(&self, v: VertexId, mark_v: f64, u: VertexId, mark_u: f64) -> bool {
        // `(β_v, v) > (β_u, u)`, without branches.
        (mark_v > mark_u) | ((mark_v == mark_u) & (v.0 > u.0))
    }
}

/// One uniform vertex per round: the sequential Glauber dynamics as a
/// degenerate scheduler (`γ = 1/n`).
#[derive(Clone, Debug, Default)]
pub struct SingletonScheduler;

impl VertexScheduler for SingletonScheduler {
    type Mark = ();

    fn mark(&self, _v: VertexId, _draw: u64) {}

    fn eligible(&self, ctx: &RoundCtx, v: VertexId, _mark: ()) -> bool {
        // Every vertex evaluates the same shared draw, so exactly one is
        // selected per round.
        ctx.mrf().num_vertices() > 0 && v == ctx.shared_vertex()
    }

    fn survives(&self, _v: VertexId, _mark_v: (), _u: VertexId, _mark_u: ()) -> bool {
        true
    }

    fn single_vertex(&self, ctx: &RoundCtx) -> Option<VertexId> {
        if ctx.mrf().num_vertices() == 0 {
            return None;
        }
        Some(ctx.shared_vertex())
    }
}

/// Bernoulli volunteering with conflict withdrawal: `v` volunteers with
/// probability `p` and stays in `I` iff no neighbor volunteered.
#[derive(Clone, Debug)]
pub struct BernoulliFilterScheduler {
    p: f64,
}

impl BernoulliFilterScheduler {
    /// Creates the scheduler with volunteering probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "volunteering probability must be in (0, 1]"
        );
        BernoulliFilterScheduler { p }
    }
}

impl VertexScheduler for BernoulliFilterScheduler {
    type Mark = bool;

    fn mark(&self, _v: VertexId, draw: u64) -> bool {
        head_to_f64(draw) < self.p
    }

    fn eligible(&self, _ctx: &RoundCtx, _v: VertexId, mark: bool) -> bool {
        mark
    }

    #[inline]
    fn survives(&self, _v: VertexId, _mark_v: bool, _u: VertexId, mark_u: bool) -> bool {
        !mark_u
    }
}

/// The chromatic scheduler of Gonzalez et al.: cycles through the classes
/// of a proper coloring deterministically.
#[derive(Clone, Debug)]
pub struct ChromaticScheduler {
    coloring: ProperColoring,
}

impl ChromaticScheduler {
    /// Builds the scheduler from a proper coloring of the network.
    pub fn new(coloring: ProperColoring) -> Self {
        ChromaticScheduler { coloring }
    }

    /// Builds the scheduler from the greedy (Δ+1)-coloring of `g`.
    pub fn greedy(g: &Graph) -> Self {
        Self::new(lsl_graph::coloring::greedy(g))
    }

    /// Number of classes (rounds per full sweep).
    pub fn num_classes(&self) -> usize {
        self.coloring.num_classes()
    }
}

impl VertexScheduler for ChromaticScheduler {
    type Mark = ();

    fn mark(&self, _v: VertexId, _draw: u64) {}

    fn eligible(&self, ctx: &RoundCtx, v: VertexId, _mark: ()) -> bool {
        // The class is a function of the round index.
        let classes = self.coloring.num_classes().max(1) as u64;
        self.coloring.color(v) == (ctx.round() % classes) as u32
    }

    fn survives(&self, _v: VertexId, _mark_v: (), _u: VertexId, _mark_u: ()) -> bool {
        // Classes of a proper coloring are independent already.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::rules::scheduled_mask;
    use crate::sampler::Sched;
    use lsl_graph::generators;
    use lsl_mrf::models;

    /// The update mask of round `round` of a chain keyed by `master` on
    /// `g`: every vertex's mark from its propose stream, then the
    /// selection predicate — exactly what a LubyGlauber round schedules.
    fn draw<S: VertexScheduler>(sched: &S, g: &Graph, master: u64, round: u64) -> Vec<bool> {
        let mrf = models::uniform_independent_set(g.clone());
        let ctx = RoundCtx::new(&mrf, master, round);
        let marks: Vec<S::Mark> = g
            .vertices()
            .map(|v| sched.mark(v, ctx.propose_rng(v).raw().next()))
            .collect();
        let mut out = vec![false; g.num_vertices()];
        scheduled_mask(sched, &ctx, &marks, &mut out);
        out
    }

    fn check_independent<S: VertexScheduler + std::fmt::Debug>(g: &Graph, s: &S, seeds: u64) {
        for seed in 0..seeds {
            let out = draw(s, g, seed, seed);
            assert!(g.is_independent_set(&out), "{s:?} produced a dependent set");
        }
    }

    #[test]
    fn all_schedulers_produce_independent_sets() {
        let g = generators::torus(4, 4);
        check_independent(&g, &LubyScheduler::new(), 50);
        check_independent(&g, &SingletonScheduler, 50);
        check_independent(&g, &BernoulliFilterScheduler::new(0.4), 50);
        check_independent(&g, &ChromaticScheduler::greedy(&g), 50);
    }

    /// Per-vertex inclusion frequencies of `sched` over `trials` rounds.
    fn inclusion_frequencies<S: VertexScheduler>(sched: &S, g: &Graph, trials: u64) -> Vec<f64> {
        let mut counts = vec![0usize; g.num_vertices()];
        for round in 0..trials {
            for (c, b) in counts.iter_mut().zip(draw(sched, g, 7, round)) {
                *c += b as usize;
            }
        }
        counts.iter().map(|&c| c as f64 / trials as f64).collect()
    }

    #[test]
    fn luby_inclusion_probability_matches_theory() {
        // Pr[v ∈ I] = 1/(deg(v)+1) exactly: on a star, hub has 1/(n+1),
        // leaves 1/2.
        let g = generators::star(4);
        let freq = inclusion_frequencies(&LubyScheduler::new(), &g, 60_000);
        assert!((freq[0] - 0.2).abs() < 0.01, "hub = {}", freq[0]);
        assert!((freq[1] - 0.5).abs() < 0.01, "leaf = {}", freq[1]);
    }

    #[test]
    fn luby_gamma_lower_bound_holds() {
        // Empirical Pr[v ∈ I] ≥ γ = 1/(Δ+1) for every vertex on an
        // irregular graph.
        let g = generators::caterpillar(4, 2);
        let gamma = Sched::Luby.gamma(&g).unwrap();
        let freq = inclusion_frequencies(&LubyScheduler::new(), &g, 40_000);
        for (v, &f) in freq.iter().enumerate() {
            assert!(f >= gamma - 0.01, "vertex {v}: freq {f} < gamma {gamma}");
        }
    }

    #[test]
    fn chromatic_covers_everyone_per_sweep() {
        let g = generators::cycle(6);
        let sched = ChromaticScheduler::greedy(&g);
        let mut covered = [false; 6];
        for round in 0..sched.num_classes() as u64 {
            for (c, b) in covered.iter_mut().zip(draw(&sched, &g, 0, round)) {
                *c |= b;
            }
        }
        assert!(
            covered.iter().all(|&b| b),
            "a sweep must cover all vertices"
        );
    }

    #[test]
    fn singleton_picks_exactly_one() {
        let g = generators::complete(5);
        for round in 0..20 {
            let out = draw(&SingletonScheduler, &g, 8, round);
            assert_eq!(out.iter().filter(|&&b| b).count(), 1);
        }
    }

    #[test]
    fn bernoulli_gamma_formula() {
        let g = generators::cycle(5);
        let gamma = Sched::Bernoulli(0.25).gamma(&g).unwrap();
        assert!((gamma - 0.25 * 0.75 * 0.75).abs() < 1e-12);
    }

    #[test]
    fn luby_ties_break_by_vertex_id() {
        // Equal marks everywhere: the per-neighbour test is the id
        // order, so on a path each vertex beats exactly its lower
        // neighbour and only the last vertex is selected.
        let sched = LubyScheduler::new();
        let (a, b) = (VertexId(3), VertexId(5));
        assert!(sched.survives(b, 0.5, a, 0.5));
        assert!(!sched.survives(a, 0.5, b, 0.5));
        assert!(
            sched.survives(a, 0.75, b, 0.5),
            "a larger mark wins whatever the ids"
        );
        let g = generators::path(4);
        let mrf = models::uniform_independent_set(g.clone());
        let ctx = RoundCtx::new(&mrf, 0, 0);
        let marks = [0.25; 4];
        let selected: Vec<bool> = g
            .vertices()
            .map(|v| sched.selected(&ctx, v, &marks))
            .collect();
        assert_eq!(selected, [false, false, false, true]);
    }

    #[test]
    fn luby_marks_order_like_their_integer_draws() {
        // Marks compare exactly as the integers `head >> 11`: adjacent
        // draws stay distinct, and heads differing only below bit 11
        // tie (and fall to the id order).
        let heads = [0u64, (1 << 11) - 1, 1 << 11, 12345 << 11, 1 << 63, u64::MAX];
        let sched = LubyScheduler::new();
        for &x in &heads {
            for &y in &heads {
                let (mx, my) = (sched.mark(VertexId(0), x), sched.mark(VertexId(0), y));
                assert_eq!(
                    mx.partial_cmp(&my),
                    Some((x >> 11).cmp(&(y >> 11))),
                    "{x:#x} {y:#x}"
                );
            }
        }
    }

    #[test]
    fn luby_empty_graph_selects_all() {
        // With no neighbors everyone is a local maximum.
        let g = Graph::from_edges(3, &[]);
        assert!(draw(&LubyScheduler::new(), &g, 0, 0).iter().all(|&b| b));
    }
}
