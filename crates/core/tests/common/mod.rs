//! Strategies shared by the integration suites: generators over the
//! whole scenario registry (every graph family × model × workload
//! knob), used by the spec-grammar roundtrip suite and the result-store
//! identity suite. Each test binary compiles its own copy via
//! `mod common;` — unused strategies in one binary are expected.
#![allow(dead_code)]

use lsl_core::engine::{Backend, HotPath};
use lsl_core::sampler::{Algorithm, Sched};
use lsl_core::spec::{GraphSpec, JobKind, JobSpec, ModelSpec};
use lsl_graph::partition::Partitioner;
use proptest::prelude::*;

pub fn arb_graph() -> impl Strategy<Value = GraphSpec> {
    prop_oneof![
        (1usize..40).prop_map(|n| GraphSpec::Path { n }),
        (3usize..40).prop_map(|n| GraphSpec::Cycle { n }),
        (1usize..9).prop_map(|n| GraphSpec::Complete { n }),
        (1usize..6, 1usize..6).prop_map(|(a, b)| GraphSpec::CompleteBipartite { a, b }),
        (1usize..12).prop_map(|n| GraphSpec::Star { n }),
        (2usize..7, 2usize..7).prop_map(|(rows, cols)| GraphSpec::Grid { rows, cols }),
        (3usize..7, 3usize..7).prop_map(|(rows, cols)| GraphSpec::Torus { rows, cols }),
        (1u32..5).prop_map(|dim| GraphSpec::Hypercube { dim }),
        (1usize..10).prop_map(|pages| GraphSpec::Book { pages }),
        (1usize..6, 1usize..4).prop_map(|(spine, legs)| GraphSpec::Caterpillar { spine, legs }),
        (4usize..24, 0u32..=10).prop_map(|(n, tenths)| GraphSpec::Gnp {
            n,
            p: f64::from(tenths) / 10.0,
        }),
        // d < n and n*d even, by construction.
        (2usize..5, 3usize..8).prop_map(|(half_d, extra)| {
            let d = 2 * half_d - 2;
            GraphSpec::RandomRegular { n: d + extra, d }
        }),
        (1usize..20).prop_map(|n| GraphSpec::RandomTree { n }),
    ]
}

pub fn arb_model() -> impl Strategy<Value = ModelSpec> {
    prop_oneof![
        (2usize..12).prop_map(|q| ModelSpec::Coloring { q }),
        (2usize..9, 1usize..3).prop_map(|(q, size)| ModelSpec::ListColoring {
            q,
            size: size.min(q)
        }),
        (1u32..=30).prop_map(|tenths| ModelSpec::Hardcore {
            lambda: f64::from(tenths) / 10.0,
        }),
        Just(ModelSpec::IndependentSet),
        Just(ModelSpec::VertexCover),
        (1u32..=30).prop_map(|tenths| ModelSpec::Ising {
            beta: f64::from(tenths) / 10.0,
        }),
        (2usize..5, 1u32..=30).prop_map(|(q, tenths)| ModelSpec::Potts {
            q,
            beta: f64::from(tenths) / 10.0,
        }),
        Just(ModelSpec::DominatingSet),
        Just(ModelSpec::Mis),
    ]
}

pub fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::LocalMetropolis),
        Just(Algorithm::LocalMetropolisNoRule3),
        Just(Algorithm::LubyGlauber),
        Just(Algorithm::Glauber),
        Just(Algorithm::Metropolis),
    ]
}

pub fn arb_sched() -> impl Strategy<Value = Sched> {
    prop_oneof![
        Just(Sched::Luby),
        Just(Sched::Singleton),
        (1u32..=10).prop_map(|tenths| Sched::Bernoulli(f64::from(tenths) / 10.0)),
        Just(Sched::Chromatic),
    ]
}

pub fn arb_backend() -> impl Strategy<Value = Backend> {
    prop_oneof![
        Just(Backend::Sequential),
        (0usize..8).prop_map(|threads| Backend::Parallel { threads }),
        (0usize..8).prop_map(|shards| Backend::Sharded { shards }),
    ]
}

pub fn arb_partitioner() -> impl Strategy<Value = Partitioner> {
    prop_oneof![
        Just(Partitioner::Contiguous),
        Just(Partitioner::Bfs),
        Just(Partitioner::GreedyEdgeCut),
    ]
}

pub fn arb_hotpath() -> impl Strategy<Value = HotPath> {
    prop_oneof![Just(HotPath::Scalar), Just(HotPath::Lanes)]
}

pub fn arb_job() -> impl Strategy<Value = JobKind> {
    prop_oneof![
        (1usize..500).prop_map(|rounds| JobKind::Run { rounds }),
        (1usize..100, 1usize..200)
            .prop_map(|(rounds, replicas)| JobKind::Distribution { rounds, replicas }),
        (1usize..100, 1usize..200).prop_map(|(rounds, replicas)| JobKind::Tv { rounds, replicas }),
        (1usize..5, 100usize..10_000)
            .prop_map(|(trials, max_rounds)| JobKind::Coalescence { trials, max_rounds }),
        (1usize..500, 1usize..8).prop_map(|(rounds, count)| JobKind::Sample { rounds, count }),
        (1usize..500, 1usize..50).prop_map(|(rounds, every)| JobKind::Stream { rounds, every }),
    ]
}

/// Jobs small enough to *execute* (not just parse) inside a property
/// test — the grammar-sized [`arb_job`] ranges are fine to print but
/// would make a 200-replica distribution per case too slow.
pub fn arb_small_job() -> impl Strategy<Value = JobKind> {
    prop_oneof![
        (1usize..40).prop_map(|rounds| JobKind::Run { rounds }),
        (1usize..10, 1usize..12)
            .prop_map(|(rounds, replicas)| JobKind::Distribution { rounds, replicas }),
        (1usize..10, 1usize..12).prop_map(|(rounds, replicas)| JobKind::Tv { rounds, replicas }),
        (1usize..3, 10usize..100)
            .prop_map(|(trials, max_rounds)| JobKind::Coalescence { trials, max_rounds }),
        (1usize..40, 1usize..4).prop_map(|(rounds, count)| JobKind::Sample { rounds, count }),
        (1usize..40, 1usize..10).prop_map(|(rounds, every)| JobKind::Stream { rounds, every }),
    ]
}

prop_compose! {
    pub fn arb_spec()(
        graph in arb_graph(),
        model in arb_model(),
        algorithm in proptest::option::of(arb_algorithm()),
        scheduler in proptest::option::of(arb_sched()),
        backend in proptest::option::of(arb_backend()),
        partitioner in proptest::option::of(arb_partitioner()),
        hotpath in proptest::option::of(arb_hotpath()),
        seed in proptest::option::of(0u64..1_000_000),
        graph_seed in proptest::option::of(0u64..1_000_000),
        burn_in in proptest::option::of(0usize..100),
        job in proptest::option::of(arb_job()),
    ) -> JobSpec {
        JobSpec {
            graph,
            model,
            algorithm,
            scheduler,
            backend,
            partitioner,
            hotpath,
            seed,
            graph_seed,
            burn_in,
            job,
        }
    }
}

prop_compose! {
    /// Like [`arb_spec`], but guaranteed cheap to actually run: small
    /// workloads ([`arb_small_job`]), bounded burn-in. The spec may
    /// still *fail* to run (incompatible algorithm/model combos are
    /// part of the space) — callers treat `Err` as a valid outcome.
    pub fn arb_runnable_spec()(
        graph in arb_graph(),
        model in arb_model(),
        algorithm in proptest::option::of(arb_algorithm()),
        scheduler in proptest::option::of(arb_sched()),
        backend in proptest::option::of(arb_backend()),
        partitioner in proptest::option::of(arb_partitioner()),
        hotpath in proptest::option::of(arb_hotpath()),
        seed in proptest::option::of(0u64..1_000_000),
        graph_seed in proptest::option::of(0u64..1_000_000),
        burn_in in proptest::option::of(0usize..10),
        job in proptest::option::of(arb_small_job()),
    ) -> JobSpec {
        JobSpec {
            graph,
            model,
            algorithm,
            scheduler,
            backend,
            partitioner,
            hotpath,
            seed,
            graph_seed,
            burn_in,
            job,
        }
    }
}
