//! The sampler facade's contract:
//!
//! 1. **Pure wiring** — builder-constructed samplers produce exactly
//!    the trajectories of engine chains built by hand from the same
//!    rule, on torus, cycle, and G(n,p) instances, across all three
//!    execution backends (sequential, parallel, batched replicas). The
//!    facade must never change a single spin.
//! 2. **Typed rejection** — every invalid builder combination returns a
//!    [`BuildError`] value; nothing panics.

use lsl_core::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule};
use lsl_core::engine::{SyncChain, SyncRule};
use lsl_core::prelude::*;
use lsl_core::schedule::{BernoulliFilterScheduler, SingletonScheduler};
use lsl_graph::generators;
use lsl_mrf::{models, Mrf};
use proptest::prelude::*;

/// Drives a facade sampler and a hand-built engine chain
/// (`SyncChain::new(mrf, rule, 0)`) with the *same* stream of per-round
/// keys and asserts the trajectories never diverge.
fn assert_keyed_identity<R: SyncRule>(
    mut facade: Sampler,
    mrf: &Mrf,
    rule: R,
    seed: u64,
    rounds: usize,
) {
    let mut engine = SyncChain::new(mrf, rule, 0);
    let mut keys = Xoshiro256pp::seed_from(seed);
    for r in 0..rounds {
        let key = keys.next();
        facade.step_keyed(key);
        engine.step_keyed(key);
        assert_eq!(
            facade.state(),
            engine.state(),
            "facade and engine diverged at round {r}"
        );
    }
}

/// Bit-identity of every (algorithm, backend) pair on one instance:
/// sequential and parallel facades vs hand-built engine chains, and the
/// batched replica backend (coupled replicas vs per-start engine chains
/// keyed by the same master).
fn assert_facade_matches_engine(mrf: &Mrf, seed: u64, threads: usize, rounds: usize) {
    // LocalMetropolis and LubyGlauber: sequential and parallel backends.
    for backend in [Backend::Sequential, Backend::Parallel { threads }] {
        let facade = Sampler::for_mrf(mrf)
            .algorithm(Algorithm::LocalMetropolis)
            .backend(backend)
            .build()
            .unwrap();
        assert_keyed_identity(facade, mrf, LocalMetropolisRule::new(), seed, rounds);

        let facade = Sampler::for_mrf(mrf)
            .algorithm(Algorithm::LubyGlauber)
            .backend(backend)
            .build()
            .unwrap();
        assert_keyed_identity(facade, mrf, LubyGlauberRule::luby(), seed, rounds);
    }

    // Glauber (single-site fast path), sequential.
    let facade = Sampler::for_mrf(mrf)
        .algorithm(Algorithm::Glauber)
        .build()
        .unwrap();
    assert_keyed_identity(facade, mrf, GlauberRule, seed, rounds);

    // Batched replica backend: a coupled facade batch from adversarial
    // starts must reproduce, copy for copy, engine chains built from
    // the same starts under the same master seed.
    let starts = lsl_core::coupling::adversarial_starts(mrf, 2, seed);
    let mut batch = Sampler::for_mrf(mrf)
        .algorithm(Algorithm::LocalMetropolis)
        .backend(Backend::Parallel { threads })
        .seed(seed)
        .replicas(starts.len())
        .starts(starts.clone())
        .coupled()
        .build()
        .unwrap();
    let mut singles: Vec<SyncChain<LocalMetropolisRule>> = starts
        .iter()
        .map(|s| SyncChain::with_state(mrf, LocalMetropolisRule::new(), seed, s.clone()))
        .collect();
    for _ in 0..rounds {
        batch.step();
        for c in singles.iter_mut() {
            c.step();
        }
    }
    for (b, c) in singles.iter().enumerate() {
        assert_eq!(batch.state(b), c.state(), "replica {b} diverged");
    }

    // And iid facade replicas must match an independent ReplicaSet
    // under the same seed (the facade adds no randomness of its own).
    let mut iid = Sampler::for_mrf(mrf)
        .algorithm(Algorithm::LubyGlauber)
        .seed(seed)
        .replicas(3)
        .build()
        .unwrap();
    let mut engine_set =
        lsl_core::engine::replicas::ReplicaSet::independent(mrf, LubyGlauberRule::luby(), 3, seed);
    iid.run(rounds);
    engine_set.run(rounds);
    for b in 0..3 {
        assert_eq!(
            iid.state(b),
            engine_set.state(b),
            "iid replica {b} diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn facade_bit_identical_on_torus(
        seed in 0u64..10_000, rows in 3usize..6, cols in 3usize..6, threads in 2usize..5
    ) {
        let mrf = models::proper_coloring(generators::torus(rows, cols), 9);
        assert_facade_matches_engine(&mrf, seed, threads, 10);
    }

    #[test]
    fn facade_bit_identical_on_cycle(
        seed in 0u64..10_000, len in 4usize..24, threads in 2usize..7
    ) {
        let mrf = models::proper_coloring(generators::cycle(len), 5);
        assert_facade_matches_engine(&mrf, seed, threads, 10);
    }

    #[test]
    fn facade_bit_identical_on_random_graphs(
        seed in 0u64..10_000, gseed in 0u64..500, threads in 2usize..5
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(gseed);
        let g = generators::gnp(12, 0.3, &mut rng);
        let q = 2 * g.max_degree() + 2;
        let mrf = models::proper_coloring(g, q.max(3));
        assert_facade_matches_engine(&mrf, seed, threads, 10);
    }

    #[test]
    fn facade_scheduler_chains_bit_identical(seed in 0u64..10_000) {
        // Custom schedulers route through the same rules as a
        // hand-built engine chain.
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let facade = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LubyGlauber)
            .scheduler(Sched::Singleton)
            .build()
            .unwrap();
        let rule = LubyGlauberRule::with_scheduler(SingletonScheduler);
        assert_keyed_identity(facade, &mrf, rule, seed, 15);

        let facade = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LubyGlauber)
            .scheduler(Sched::Bernoulli(0.3))
            .build()
            .unwrap();
        let rule = LubyGlauberRule::with_scheduler(BernoulliFilterScheduler::new(0.3));
        assert_keyed_identity(facade, &mrf, rule, seed, 15);
    }
}

// ----- typed rejection: invalid combinations are errors, not panics ---

#[test]
fn zero_replicas_is_a_typed_error() {
    let mrf = models::proper_coloring(generators::cycle(4), 3);
    let err = Sampler::for_mrf(&mrf).replicas(0).build().unwrap_err();
    assert_eq!(err, BuildError::ZeroReplicas);
}

#[test]
fn scheduler_on_unscheduled_algorithms_is_a_typed_error() {
    let mrf = models::proper_coloring(generators::cycle(4), 3);
    for alg in [
        Algorithm::LocalMetropolis,
        Algorithm::LocalMetropolisNoRule3,
        Algorithm::Glauber,
        Algorithm::Metropolis,
    ] {
        let err = Sampler::for_mrf(&mrf)
            .algorithm(alg)
            .scheduler(Sched::Luby)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::SchedulerNotApplicable { algorithm: alg });
    }
}

#[test]
fn invalid_bernoulli_probability_is_a_typed_error() {
    let mrf = models::proper_coloring(generators::cycle(4), 3);
    for p in [0.0, -0.5, 1.5, f64::NAN] {
        let err = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LubyGlauber)
            .scheduler(Sched::Bernoulli(p))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, BuildError::InvalidBernoulliProbability { .. }),
            "p = {p}: got {err:?}"
        );
    }
}

#[test]
fn wrong_start_length_is_a_typed_error() {
    let mrf = models::proper_coloring(generators::cycle(6), 4);
    let err = Sampler::for_mrf(&mrf)
        .start(vec![0; 5])
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::StartLength {
            expected: 6,
            got: 5
        }
    );
    // And on replica batches, including per-replica starts.
    let err = Sampler::for_mrf(&mrf)
        .replicas(2)
        .starts(vec![vec![0; 6], vec![0; 3]])
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::StartLength {
            expected: 6,
            got: 3
        }
    );
}

#[test]
fn start_count_mismatch_is_a_typed_error() {
    let mrf = models::proper_coloring(generators::cycle(6), 4);
    let err = Sampler::for_mrf(&mrf)
        .replicas(3)
        .starts(vec![vec![0; 6]; 2])
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::StartCount {
            expected: 3,
            got: 2
        }
    );
}

#[test]
fn csp_restrictions_are_typed_errors() {
    use std::sync::Arc;
    let csp = lsl_mrf::csp::Csp::dominating_set(Arc::new(generators::path(4)));

    // No default start on constrained solution spaces.
    let err = Sampler::for_csp(&csp).build().unwrap_err();
    assert_eq!(err, BuildError::StartRequiredForCsp);

    // Sequential baselines are not defined on CSPs.
    let err = Sampler::for_csp(&csp)
        .algorithm(Algorithm::Glauber)
        .start(vec![1; 4])
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::UnsupportedOnCsp { .. }));

    // CSP chains run sequentially: the distributed backends are
    // rejected rather than silently ignored.
    for backend in [
        Backend::Sharded { shards: 2 },
        Backend::Cluster { shards: 2 },
    ] {
        let err = Sampler::for_csp(&csp)
            .start(vec![1; 4])
            .backend(backend)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, BuildError::UnsupportedOnCsp { .. }),
            "{err:?}"
        );
    }

    // Neither is replica batching (engine rules only).
    let err = Sampler::for_csp(&csp)
        .start(vec![1; 4])
        .replicas(2)
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::UnsupportedOnCsp { .. }));

    // Neither are the batched measurement jobs.
    let err = Sampler::for_csp(&csp)
        .start(vec![1; 4])
        .coalescence(2, 100)
        .unwrap_err();
    assert!(matches!(err, BuildError::UnsupportedOnCsp { .. }));
}

#[test]
fn empty_model_is_a_typed_error() {
    let mrf = models::proper_coloring(lsl_graph::Graph::from_edges(0, &[]), 3);
    let err = Sampler::for_mrf(&mrf).build().unwrap_err();
    assert_eq!(err, BuildError::EmptyModel);
}

#[test]
fn glauber_facade_replicas_match_glauber_rule_set() {
    // The single-site fast path survives the facade's replica backend.
    let mrf = models::proper_coloring(generators::cycle(8), 5);
    let mut facade = Sampler::for_mrf(&mrf)
        .algorithm(Algorithm::Glauber)
        .seed(2)
        .replicas(6)
        .build()
        .unwrap();
    let mut engine = lsl_core::engine::replicas::ReplicaSet::independent(&mrf, GlauberRule, 6, 2);
    facade.run(200);
    engine.run(200);
    for b in 0..6 {
        assert_eq!(facade.state(b), engine.state(b));
    }
}
