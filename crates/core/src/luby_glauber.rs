//! Algorithm 1 (LubyGlauber) on weighted CSPs (paper remark after
//! Algorithm 1).
//!
//! Each round: sample a random independent set `I` (by default the Luby
//! step), then resample every `v ∈ I` in parallel from its conditional
//! marginal µ_v(·|X_Γ(v)) (paper eq. 2). On an MRF the chain is the
//! engine rule [`LubyGlauberRule`](crate::engine::rules::LubyGlauberRule).
//! On a CSP, neighborhoods are redefined through shared constraint
//! scopes, so the scheduled set must be *strongly* independent: the
//! scheduler runs on the primal graph of the scope hypergraph. This
//! module holds that CSP round; the facade's CSP sampler drives it.
//!
//! Theorem 3.2: under Dobrushin's condition (total influence `α < 1`) the
//! chain mixes in `O(Δ/(1−α) · log(n/ε))` rounds — and more generally
//! `O(1/((1−α)γ) · log(n/ε))` for any scheduler with `Pr[v ∈ I] ≥ γ`.

use crate::sampler::Sched;
use lsl_graph::coloring::ProperColoring;
use lsl_graph::{Graph, VertexId};
use lsl_local::rng::Xoshiro256pp;
use lsl_mrf::csp::{Csp, MarginalScratch};
use lsl_mrf::Spin;
use rand::RngExt;

/// Fills `out` with round `round`'s update set on the primal graph —
/// an independent set there is a strongly independent set of the scope
/// hypergraph. Every draw comes from `rng`, in a fixed order:
///
/// * Luby: `n` uniforms `β_v`, then the local maxima of `(β_v, v)`;
/// * Bernoulli(p): `n` uniforms, volunteers are those `< p`, then every
///   volunteer with a volunteering neighbor withdraws;
/// * Singleton: one `random_range(0..n)`;
/// * Chromatic: no draw; class `round mod classes` of `coloring`.
///
/// `draws` is reusable scratch for the per-vertex uniforms.
pub(crate) fn select(
    sched: Sched,
    primal: &Graph,
    coloring: Option<&ProperColoring>,
    round: u64,
    rng: &mut Xoshiro256pp,
    draws: &mut Vec<f64>,
    out: &mut [bool],
) {
    let n = primal.num_vertices();
    match sched {
        Sched::Luby => {
            draws.clear();
            draws.extend((0..n).map(|_| rng.uniform_f64()));
            for v in primal.vertices() {
                let key = (draws[v.index()], v.0);
                out[v.index()] = primal.neighbors(v).all(|u| key > (draws[u.index()], u.0));
            }
        }
        Sched::Bernoulli(p) => {
            draws.clear();
            draws.extend((0..n).map(|_| rng.uniform_f64()));
            for v in primal.vertices() {
                out[v.index()] =
                    draws[v.index()] < p && primal.neighbors(v).all(|u| draws[u.index()] >= p);
            }
        }
        Sched::Singleton => {
            out.fill(false);
            if n > 0 {
                out[rng.random_range(0..n)] = true;
            }
        }
        Sched::Chromatic => {
            let coloring = coloring.expect("the chromatic schedule needs its coloring");
            let class = (round % coloring.num_classes().max(1) as u64) as u32;
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = coloring.color(VertexId(i as u32)) == class;
            }
        }
    }
}

/// Resamples every vertex in `mask` from its conditional marginal, in
/// vertex order. The mask is strongly independent, so the in-place
/// sweep equals the simultaneous update.
pub(crate) fn heat_bath(
    csp: &Csp,
    mask: &[bool],
    state: &mut [Spin],
    rng: &mut Xoshiro256pp,
    scratch: &mut MarginalScratch,
) {
    for (i, &scheduled) in mask.iter().enumerate() {
        if !scheduled {
            continue;
        }
        // An ill-defined marginal (all-zero weights) can only occur from
        // infeasible starts; keeping the old spin preserves correctness
        // on the feasible space.
        if let Some(pick) = csp.sample_marginal_with(VertexId(i as u32), state, rng, scratch) {
            state[i] = pick;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{Algorithm, Sampler};
    use lsl_analysis::EmpiricalDistribution;
    use lsl_graph::generators;
    use lsl_mrf::gibbs::{encode_config, Enumeration};
    use lsl_mrf::models;
    use std::sync::Arc;

    /// TV between the exact Gibbs distribution and the facade's
    /// LubyGlauber at `steps` rounds under `sched`.
    fn luby_glauber_tv(mrf: &lsl_mrf::Mrf, sched: Sched, steps: usize, replicas: usize) -> f64 {
        let exact = Enumeration::new(mrf).unwrap();
        Sampler::for_mrf(mrf)
            .algorithm(Algorithm::LubyGlauber)
            .scheduler(sched)
            .seed(31)
            .tv(&exact, steps, replicas)
            .unwrap()
    }

    #[test]
    fn luby_glauber_updates_are_independent_sets() {
        // Every scheduler's CSP update set is independent on the primal
        // graph, i.e. strongly independent on the scope hypergraph.
        let csp = Csp::dominating_set(Arc::new(generators::torus(4, 4)));
        let primal = csp.scope_hypergraph().primal_graph();
        let coloring = lsl_graph::coloring::greedy(&primal);
        let mut draws = Vec::new();
        let mut mask = vec![false; primal.num_vertices()];
        for sched in [
            Sched::Luby,
            Sched::Singleton,
            Sched::Bernoulli(0.3),
            Sched::Chromatic,
        ] {
            let mut rng = Xoshiro256pp::seed_from(1);
            for round in 0..30 {
                select(
                    sched,
                    &primal,
                    Some(&coloring),
                    round,
                    &mut rng,
                    &mut draws,
                    &mut mask,
                );
                assert!(primal.is_independent_set(&mask), "{sched:?} round {round}");
            }
        }
    }

    #[test]
    fn luby_glauber_samples_gibbs_small() {
        // Colorings of C4 with q = 3: TV to exact must vanish.
        let mrf = models::proper_coloring(generators::cycle(4), 3);
        let tv = luby_glauber_tv(&mrf, Sched::Luby, 120, 6000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn luby_glauber_hardcore_small() {
        let mrf = models::hardcore(generators::path(4), 1.5);
        let tv = luby_glauber_tv(&mrf, Sched::Luby, 100, 6000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn singleton_scheduler_equals_glauber_distribution() {
        let mrf = models::uniform_independent_set(generators::path(3));
        let tv = luby_glauber_tv(&mrf, Sched::Singleton, 80, 6000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn bernoulli_scheduler_also_converges() {
        let mrf = models::proper_coloring(generators::path(3), 3);
        let tv = luby_glauber_tv(&mrf, Sched::Bernoulli(0.3), 100, 6000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn chromatic_scheduler_converges_over_sweeps() {
        // The chromatic scheduler is a systematic scan; after whole sweeps
        // it still targets the Gibbs distribution.
        let mrf = models::proper_coloring(generators::cycle(4), 3);
        // classes = 2, so 121 rounds ≈ 60.5 sweeps.
        let tv = luby_glauber_tv(&mrf, Sched::Chromatic, 121, 6000);
        assert!(tv < 0.06, "tv = {tv}");
    }

    /// Empirical distribution of `reps` CSP LubyGlauber runs of `rounds`
    /// rounds each (seeds `seed..seed + reps`), each from `start()`.
    fn csp_runs(
        csp: &Arc<Csp>,
        reps: u64,
        rounds: usize,
        seed: u64,
        mut start: impl FnMut() -> Vec<Spin>,
    ) -> EmpiricalDistribution {
        let mut emp = EmpiricalDistribution::new();
        for rep in 0..reps {
            let mut sampler = Sampler::for_csp(Arc::clone(csp))
                .start(start())
                .seed(seed + rep)
                .build()
                .unwrap();
            sampler.run(rounds);
            assert!(csp.is_feasible(sampler.state()), "left the feasible space");
            emp.record(encode_config(sampler.state(), 2));
        }
        emp
    }

    #[test]
    fn csp_luby_glauber_samples_uniform_mis() {
        // MIS of C5: its 5 MISs are the pairs of non-adjacent vertices,
        // and moving between them one flip at a time passes through
        // non-maximal (infeasible) sets, so single-site dynamics cannot
        // mix here. Validate *invariance* instead: starting from a
        // uniform random MIS, the chain keeps the uniform distribution.
        let csp = Arc::new(Csp::maximal_independent_set(Arc::new(generators::cycle(5))));
        let sols = csp.enumerate();
        assert_eq!(sols.len(), 5);
        let mut pick = Xoshiro256pp::seed_from(900);
        let emp = csp_runs(&csp, 8000, 20, 900, || {
            sols[pick.random_range(0..sols.len())].0.clone()
        });
        for (sol, _) in &sols {
            let f = emp.frequency(encode_config(sol, 2));
            assert!((f - 0.2).abs() < 0.02, "sol {sol:?}: freq {f}");
        }
    }

    #[test]
    fn csp_luby_glauber_dominating_sets_mix() {
        // Dominating sets of P3 are connected under single-site moves:
        // {1} ↔ {0,1} ↔ {0,1,2} etc. The chain should reach uniform.
        let csp = Arc::new(Csp::dominating_set(Arc::new(generators::path(3))));
        let sols = csp.enumerate();
        assert_eq!(sols.len(), 5);
        let emp = csp_runs(&csp, 10_000, 60, 1700, || vec![1, 1, 1]);
        for (sol, _) in &sols {
            let f = emp.frequency(encode_config(sol, 2));
            assert!((f - 0.2).abs() < 0.025, "sol {sol:?}: freq {f}");
        }
    }
}
