//! Property-based tests for the sampling chains: structural invariants
//! that must hold for every model, seed, and schedule.

use lsl_core::coupling::hamming;
use lsl_core::engine::replicas::ReplicaSet;
use lsl_core::engine::rules::{scheduled_mask, GlauberRule, LocalMetropolisRule, LubyGlauberRule};
use lsl_core::engine::{Backend, RoundCtx, SyncChain, SyncRule};
use lsl_core::kernel::{glauber_kernel, local_metropolis_kernel, luby_set_distribution};
use lsl_core::sampler::{Algorithm, Sampler};
use lsl_core::schedule::{LubyScheduler, VertexScheduler};
use lsl_graph::generators;
use lsl_mrf::gibbs::Enumeration;
use lsl_mrf::{models, Mrf, Spin};
use proptest::prelude::*;

/// The facade's `alg` sampler on `mrf`, from `start` when given.
fn sampler(mrf: &Mrf, alg: Algorithm, seed: u64, start: Option<Vec<Spin>>) -> Sampler {
    let mut b = Sampler::for_mrf(mrf).algorithm(alg).seed(seed);
    if let Some(start) = start {
        b = b.start(start);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn local_metropolis_preserves_feasibility(seed in 0u64..5000, q in 4usize..8) {
        // Once proper, forever proper (absorption direction of Thm 4.1).
        let mrf = models::proper_coloring(generators::cycle(6), q);
        let start = vec![0, 1, 0, 1, 0, 1];
        let mut chain = sampler(&mrf, Algorithm::LocalMetropolis, seed, Some(start));
        for _ in 0..20 {
            chain.step();
            prop_assert!(mrf.is_feasible(chain.state()));
        }
    }

    #[test]
    fn luby_glauber_spins_in_range(seed in 0u64..5000) {
        let mrf = models::proper_coloring(generators::torus(3, 3), 9);
        let mut chain = sampler(&mrf, Algorithm::LubyGlauber, seed, None);
        chain.run(10);
        prop_assert!(chain.state().iter().all(|&c| c < 9));
    }

    #[test]
    fn glauber_single_site_moves(seed in 0u64..5000) {
        // One Glauber step changes at most one coordinate.
        let mrf = models::proper_coloring(generators::cycle(5), 4);
        let start = vec![0, 1, 0, 1, 2];
        let mut chain = sampler(&mrf, Algorithm::Glauber, seed, Some(start));
        let before = chain.state().to_vec();
        chain.step();
        prop_assert!(hamming(&before, chain.state()) <= 1);
    }

    #[test]
    fn luby_scheduler_respects_independence(seed in 0u64..5000, rows in 3usize..5, cols in 3usize..5) {
        // One round's Luby step: marks from the per-vertex propose
        // streams, then the local-maximum selection.
        let mrf = models::uniform_independent_set(generators::torus(rows, cols));
        let g = mrf.graph();
        let sched = LubyScheduler::new();
        let ctx = RoundCtx::new(&mrf, seed, 0);
        let marks: Vec<f64> = g.vertices().map(|v| sched.mark(v, ctx.propose_rng(v).raw())).collect();
        let mut out = vec![false; g.num_vertices()];
        scheduled_mask(&sched, &ctx, &marks, &mut out);
        prop_assert!(g.is_independent_set(&out));
        // Nonempty: the global maximum is always selected.
        prop_assert!(out.iter().any(|&b| b));
    }

    #[test]
    fn identical_seeds_give_identical_trajectories(seed in 0u64..5000) {
        let mrf = models::hardcore(generators::cycle(6), 1.3);
        let mut a = sampler(&mrf, Algorithm::LocalMetropolis, seed, None);
        let mut b = sampler(&mrf, Algorithm::LocalMetropolis, seed, None);
        for _ in 0..15 {
            a.step();
            b.step();
            prop_assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    fn kernels_are_stochastic_and_gibbs_stationary(lambda in 0.3f64..3.0) {
        let mrf = models::hardcore(generators::path(3), lambda);
        let pi = Enumeration::new(&mrf).unwrap().distribution();
        for k in [glauber_kernel(&mrf), local_metropolis_kernel(&mrf, true)] {
            prop_assert!(k.stationarity_residual(&pi) < 1e-10);
            prop_assert!(k.detailed_balance_residual(&pi) < 1e-10);
        }
    }

    #[test]
    fn luby_set_distribution_inclusion_exact(n in 2usize..6) {
        // Pr[v ∈ I] = 1/(deg(v)+1), exactly, on random trees too.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let g = generators::random_tree(n, &mut rng);
        let sets = luby_set_distribution(&g);
        for v in g.vertices() {
            let p: f64 = sets
                .iter()
                .filter(|&&(mask, _)| mask >> v.index() & 1 == 1)
                .map(|&(_, p)| p)
                .sum();
            let expect = 1.0 / (g.degree(v) as f64 + 1.0);
            prop_assert!((p - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn ising_chain_spins_binary(beta in 0.2f64..3.0, seed in 0u64..1000) {
        let mrf = models::ising(generators::grid(3, 3), beta);
        let mut chain = sampler(&mrf, Algorithm::LocalMetropolis, seed, None);
        chain.run(10);
        prop_assert!(chain.state().iter().all(|&s| s < 2));
    }
}

/// The engine's determinism contract: for a fixed master seed, the
/// parallel backend must produce the state sequence of the sequential
/// backend bit-for-bit, on every graph family and for both synchronous
/// chains.
fn assert_backends_agree<R: SyncRule + Clone>(
    mrf: &Mrf,
    rule: R,
    master: u64,
    threads: usize,
    rounds: usize,
) {
    let mut seq = SyncChain::new(mrf, rule.clone(), master);
    let mut par = SyncChain::new(mrf, rule, master);
    par.set_backend(Backend::Parallel { threads });
    for r in 0..rounds {
        seq.step();
        par.step();
        assert_eq!(
            seq.state(),
            par.state(),
            "backends diverged at round {r} with {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_backends_bit_identical_on_torus(
        master in 0u64..10_000, rows in 3usize..6, cols in 3usize..6, threads in 2usize..5
    ) {
        let mrf = models::proper_coloring(generators::torus(rows, cols), 9);
        assert_backends_agree(&mrf, LocalMetropolisRule::new(), master, threads, 12);
        assert_backends_agree(&mrf, LubyGlauberRule::luby(), master, threads, 12);
    }

    #[test]
    fn engine_backends_bit_identical_on_cycle(
        master in 0u64..10_000, len in 4usize..24, threads in 2usize..7
    ) {
        let mrf = models::proper_coloring(generators::cycle(len), 5);
        assert_backends_agree(&mrf, LocalMetropolisRule::new(), master, threads, 12);
        assert_backends_agree(&mrf, LubyGlauberRule::luby(), master, threads, 12);
    }

    #[test]
    fn engine_backends_bit_identical_on_random_graphs(
        master in 0u64..10_000, seed in 0u64..500, threads in 2usize..5
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::gnp(14, 0.3, &mut rng);
        let q = 2 * g.max_degree() + 2;
        let mrf = models::proper_coloring(g, q.max(3));
        assert_backends_agree(&mrf, LocalMetropolisRule::new(), master, threads, 12);
        assert_backends_agree(&mrf, LubyGlauberRule::luby(), master, threads, 12);
    }

    #[test]
    fn engine_backends_bit_identical_on_soft_models(
        master in 0u64..10_000, beta in 0.2f64..2.0
    ) {
        // Soft constraints exercise the fractional edge coins.
        let mrf = models::ising(generators::torus(4, 4), beta);
        assert_backends_agree(&mrf, LocalMetropolisRule::new(), master, 3, 12);
    }

    #[test]
    fn replica_sharding_is_pure_execution_strategy(
        seed in 0u64..10_000, count in 2usize..7, threads in 2usize..5
    ) {
        // Sharding replicas over threads must not change any trajectory.
        let mrf = models::proper_coloring(generators::torus(3, 3), 8);
        let mut a = ReplicaSet::independent(&mrf, GlauberRule, count, seed);
        let mut b = ReplicaSet::independent(&mrf, GlauberRule, count, seed);
        b.set_backend(Backend::Parallel { threads });
        a.run(30);
        b.run(30);
        for i in 0..count {
            prop_assert_eq!(a.state(i), b.state(i));
        }
    }
}
