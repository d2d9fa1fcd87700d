//! The sharded backend's determinism contract: owner-computes shards
//! with boundary exchange are **bit-identical** to the sequential
//! backend — for every partitioner, every algorithm, every scheduler,
//! on torus, cycle, and G(n,p) instances — and the communication
//! accounting obeys the cut bound.

use lsl_core::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule, MetropolisRule};
use lsl_core::engine::sharded::ShardedChain;
use lsl_core::engine::{HotPath, SyncChain, SyncRule};
use lsl_core::prelude::*;
use lsl_core::schedule::{BernoulliFilterScheduler, ChromaticScheduler, SingletonScheduler};
use lsl_core::spec::{JobOutput, JobSpec};
use lsl_graph::partition::{Partition, Partitioner};
use lsl_graph::Graph;
use lsl_mrf::{models, Mrf};
use proptest::prelude::*;
use rand::rngs::StdRng;
// Redundant under the offline proptest stand-in (its macro injects the
// trait), but required if the stand-ins are swapped for the real crates.
#[allow(unused_imports)]
use rand::SeedableRng;

/// Strategy: one of the three instance families the contract is stated
/// over — torus, cycle, and G(n,p).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (0u8..3, 0u64..1_000).prop_map(|(family, seed)| match family {
        0 => lsl_graph::generators::torus(3 + (seed % 4) as usize, 3 + (seed / 4 % 4) as usize),
        1 => lsl_graph::generators::cycle(5 + (seed % 20) as usize),
        _ => {
            let mut rng = StdRng::seed_from_u64(seed);
            lsl_graph::generators::gnp(8 + (seed % 17) as usize, 0.25, &mut rng)
        }
    })
}

/// Runs `rule` under the sequential backend's scalar oracle
/// (`hotpath=scalar`) and under every partitioner at `k` shards (with
/// the default lane kernels wherever the rule has one), asserting the
/// trajectories never diverge.
fn assert_sharded_identity<R: SyncRule + Clone>(
    mrf: &Mrf,
    rule: R,
    seed: u64,
    k: usize,
    rounds: usize,
) {
    let mut seq = SyncChain::new(mrf, rule.clone(), seed);
    seq.set_hotpath(HotPath::Scalar);
    let mut sharded: Vec<(&'static str, ShardedChain<R>)> = Partitioner::ALL
        .iter()
        .map(|p| {
            let part = p.partition(mrf.graph(), k);
            (p.name(), ShardedChain::new(mrf, rule.clone(), seed, part))
        })
        .collect();
    for r in 0..rounds {
        seq.step();
        for (name, chain) in sharded.iter_mut() {
            chain.step();
            assert_eq!(
                seq.state(),
                chain.state(),
                "{name} partition diverged at round {r} with {k} shards"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn local_metropolis_sharded_matches_sequential(
        g in arb_graph(), seed in 0u64..1_000, k in 1usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        assert_sharded_identity(&mrf, LocalMetropolisRule::new(), seed, k, 12);
    }

    #[test]
    fn local_metropolis_soft_model_sharded_matches_sequential(
        g in arb_graph(), seed in 0u64..1_000, k in 1usize..6
    ) {
        // Ising exercises the fractional-coin path (coins actually drawn).
        let mrf = models::ising(g, 0.4);
        assert_sharded_identity(&mrf, LocalMetropolisRule::new(), seed, k, 12);
    }

    #[test]
    fn luby_glauber_sharded_matches_sequential_under_every_scheduler(
        g in arb_graph(), seed in 0u64..1_000, k in 1usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        assert_sharded_identity(&mrf, LubyGlauberRule::luby(), seed, k, 10);
        assert_sharded_identity(
            &mrf,
            LubyGlauberRule::with_scheduler(BernoulliFilterScheduler::new(0.3)),
            seed, k, 10,
        );
        assert_sharded_identity(
            &mrf,
            LubyGlauberRule::with_scheduler(SingletonScheduler),
            seed, k, 10,
        );
        assert_sharded_identity(
            &mrf,
            LubyGlauberRule::with_scheduler(ChromaticScheduler::greedy(mrf.graph())),
            seed, k, 10,
        );
    }

    #[test]
    fn single_site_rules_sharded_match_sequential(
        g in arb_graph(), seed in 0u64..1_000, k in 1usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        assert_sharded_identity(&mrf, GlauberRule, seed, k, 40);
        assert_sharded_identity(&mrf, MetropolisRule, seed, k, 40);
    }

    #[test]
    fn facade_sharded_backend_matches_sequential(
        g in arb_graph(), seed in 0u64..1_000, shards in 1usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        for alg in [
            Algorithm::LocalMetropolis,
            Algorithm::LubyGlauber,
            Algorithm::Glauber,
        ] {
            let build = |backend| {
                let mut s = Sampler::for_mrf(&mrf)
                    .algorithm(alg)
                    .backend(backend)
                    .seed(seed)
                    .build()
                    .unwrap();
                s.run(15);
                s.state().to_vec()
            };
            prop_assert_eq!(
                build(Backend::Sequential),
                build(Backend::Sharded { shards }),
                "facade sharded diverged: {:?}",
                alg
            );
        }
    }

    #[test]
    fn per_round_messages_respect_the_cut_bound(
        g in arb_graph(), seed in 0u64..1_000, k in 2usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        for p in Partitioner::ALL {
            let part = p.partition(mrf.graph(), k);
            let cut = part.stats(mrf.graph()).cut_size as u64;
            let mut chain = ShardedChain::new(&mrf, LocalMetropolisRule::new(), seed, part);
            chain.run(6);
            for rc in chain.comm().per_round() {
                // One message per (boundary vertex, subscriber) pair,
                // and each cut edge induces at most two such pairs.
                prop_assert!(rc.messages <= 2 * cut, "{} > 2*{cut}", rc.messages);
                prop_assert!(rc.changed <= rc.messages);
                // Payload is charged at the packed width.
                let bits = u64::from(chain.packing().bits_per_spin());
                prop_assert_eq!(rc.bytes, (rc.messages * bits).div_ceil(8));
            }
        }
    }
}

/// The sharded backend composes with the rest of the facade surface:
/// burn-in, explicit starts, and `step_keyed` grand couplings.
#[test]
fn facade_sharded_composes_with_builder_options() {
    let mrf = models::proper_coloring(lsl_graph::generators::torus(5, 5), 12);
    let start = lsl_core::single_site::default_start(&mrf);
    let build = |backend| {
        Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LocalMetropolis)
            .backend(backend)
            .start(start.clone())
            .seed(9)
            .burn_in(20)
            .build()
            .unwrap()
    };
    let mut a = build(Backend::Sequential);
    let mut b = build(Backend::Sharded { shards: 4 });
    assert_eq!(a.round(), 20);
    assert_eq!(b.round(), 20);
    assert_eq!(a.state(), b.state());
    // Externally keyed rounds stay coupled too.
    let mut keys = Xoshiro256pp::seed_from(31);
    for _ in 0..10 {
        let k = keys.next();
        a.step_keyed(k);
        b.step_keyed(k);
        assert_eq!(a.state(), b.state());
    }
}

/// The facade surfaces the sharded executor's communication record:
/// `Some` (growing, resettable) on `Backend::Sharded`, `None` on the
/// flat backends.
#[test]
fn facade_exposes_comm_stats_on_sharded_only() {
    let mrf = models::proper_coloring(lsl_graph::generators::torus(5, 5), 12);
    let mut sharded = Sampler::for_mrf(&mrf)
        .backend(Backend::Sharded { shards: 4 })
        .seed(2)
        .build()
        .unwrap();
    sharded.run(8);
    let comm = sharded.comm_stats().expect("sharded has accounting");
    assert_eq!(comm.rounds_seen(), 8);
    assert!(comm.total_messages() > 0);
    assert!(comm.total_changed() <= comm.total_messages());
    sharded.reset_comm_stats();
    assert_eq!(sharded.comm_stats().unwrap().rounds_seen(), 0);

    let mut flat = Sampler::for_mrf(&mrf).seed(2).build().unwrap();
    flat.run(8);
    assert!(flat.comm_stats().is_none(), "flat backends cross no cut");
    flat.reset_comm_stats(); // documented no-op
}

/// `Backend::Sharded { shards: 0 }` resolves to the available cores and
/// still builds (clamped to the vertex count for small models).
#[test]
fn facade_sharded_auto_shard_count_builds() {
    let mrf = models::proper_coloring(lsl_graph::generators::cycle(6), 4);
    let mut s = Sampler::for_mrf(&mrf)
        .backend(Backend::Sharded { shards: 0 })
        .seed(3)
        .build()
        .unwrap();
    s.run(25);
    assert!(mrf.is_feasible(s.state()));
}

/// A partition with more shards than boundary structure (every vertex
/// its own shard) is the fully-distributed extreme: one slab per
/// vertex, all neighbors ghosts — still bit-identical.
#[test]
fn one_shard_per_vertex_matches_sequential() {
    let mrf = models::proper_coloring(lsl_graph::generators::cycle(8), 5);
    let part = Partition::contiguous(mrf.graph(), 8);
    let mut seq = SyncChain::new(&mrf, LubyGlauberRule::luby(), 6);
    let mut sharded = ShardedChain::new(&mrf, LubyGlauberRule::luby(), 6, part);
    for _ in 0..20 {
        seq.step();
        sharded.step();
        assert_eq!(seq.state(), sharded.state());
    }
    // Every edge is cut: per synchronous round the exchange ships both
    // endpoints of every edge exactly once.
    let m = mrf.graph().num_edges() as u64;
    for rc in sharded.comm().per_round() {
        assert_eq!(rc.messages, 2 * m);
    }
}

/// The `sharded:k` spec lines the golden pins cover, in pin order:
/// every synchronous and single-site rule, k ∈ {2, 3}, contiguous and
/// BFS partitions, with and without burn-in.
fn golden_lines() -> Vec<String> {
    let chains = [
        ("model=potts:q=3,beta=0.5 algorithm=local-metropolis", 30),
        (
            "model=coloring:q=11 algorithm=local-metropolis-no-rule3",
            30,
        ),
        (
            "model=coloring:q=11 algorithm=luby-glauber scheduler=luby",
            30,
        ),
        (
            "model=coloring:q=11 algorithm=luby-glauber scheduler=singleton",
            30,
        ),
        (
            "model=hardcore:lambda=1.5 algorithm=luby-glauber scheduler=bernoulli:0.3",
            30,
        ),
        (
            "model=coloring:q=11 algorithm=luby-glauber scheduler=chromatic",
            30,
        ),
        ("model=ising:beta=0.4 algorithm=glauber", 120),
        ("model=coloring:q=11 algorithm=metropolis", 120),
    ];
    let mut lines = Vec::new();
    for (chain, rounds) in chains {
        for k in [2, 3] {
            for part in ["contiguous", "bfs"] {
                for burn in ["", " burn-in=7"] {
                    lines.push(format!(
                        "graph=torus:6x6 {chain} backend=sharded:{k} partitioner={part} \
                         seed=5{burn} job=run:rounds={rounds}"
                    ));
                }
            }
        }
    }
    lines
}

/// `(fingerprint, [rounds_seen, total_messages, total_bytes,
/// total_changed])` of each [`golden_lines`] run, recorded before the
/// in-process exchange and the cluster relay were folded into one
/// exchange type. Any change to the shard loop must keep these.
const GOLDEN: [(u64, [u64; 4]); 64] = [
    (0xe3754c17845131b6, [30, 720, 720, 47]),
    (0x3259b1f8c70ad1d7, [37, 888, 888, 58]),
    (0xe3754c17845131b6, [30, 600, 600, 33]),
    (0x3259b1f8c70ad1d7, [37, 740, 740, 45]),
    (0xe3754c17845131b6, [30, 1080, 1080, 70]),
    (0x3259b1f8c70ad1d7, [37, 1332, 1332, 87]),
    (0xe3754c17845131b6, [30, 1050, 1050, 65]),
    (0x3259b1f8c70ad1d7, [37, 1295, 1295, 79]),
    (0x093e2758e337b77f, [30, 720, 720, 277]),
    (0x24bef6c1d9cdabe7, [37, 888, 888, 341]),
    (0x093e2758e337b77f, [30, 600, 600, 228]),
    (0x24bef6c1d9cdabe7, [37, 740, 740, 285]),
    (0x093e2758e337b77f, [30, 1080, 1080, 424]),
    (0x24bef6c1d9cdabe7, [37, 1332, 1332, 524]),
    (0x093e2758e337b77f, [30, 1050, 1050, 417]),
    (0x24bef6c1d9cdabe7, [37, 1295, 1295, 511]),
    (0x1393a8efee06a234, [30, 720, 720, 122]),
    (0x76910bf502412d1c, [37, 888, 888, 148]),
    (0x1393a8efee06a234, [30, 600, 600, 105]),
    (0x76910bf502412d1c, [37, 740, 740, 125]),
    (0x1393a8efee06a234, [30, 1080, 1080, 186]),
    (0x76910bf502412d1c, [37, 1332, 1332, 223]),
    (0x1393a8efee06a234, [30, 1050, 1050, 180]),
    (0x76910bf502412d1c, [37, 1295, 1295, 218]),
    (0xc8a6c9091c71dc48, [30, 24, 24, 23]),
    (0xb4b4faab3f8ecd1c, [37, 26, 26, 25]),
    (0xc8a6c9091c71dc48, [30, 15, 15, 15]),
    (0xb4b4faab3f8ecd1c, [37, 21, 21, 21]),
    (0xc8a6c9091c71dc48, [30, 30, 30, 29]),
    (0xb4b4faab3f8ecd1c, [37, 37, 37, 36]),
    (0xc8a6c9091c71dc48, [30, 26, 26, 25]),
    (0xb4b4faab3f8ecd1c, [37, 35, 35, 34]),
    (0xc1213898edf3dd35, [30, 720, 90, 9]),
    (0x26a97c9d61222dd5, [37, 888, 111, 13]),
    (0xc1213898edf3dd35, [30, 600, 90, 11]),
    (0x26a97c9d61222dd5, [37, 740, 111, 14]),
    (0xc1213898edf3dd35, [30, 1080, 150, 14]),
    (0x26a97c9d61222dd5, [37, 1332, 185, 20]),
    (0xc1213898edf3dd35, [30, 1050, 150, 14]),
    (0x26a97c9d61222dd5, [37, 1295, 185, 17]),
    (0x332522328ce6bba2, [30, 720, 720, 307]),
    (0x050222a04f9b6b1e, [37, 888, 888, 378]),
    (0x332522328ce6bba2, [30, 600, 600, 259]),
    (0x050222a04f9b6b1e, [37, 740, 740, 318]),
    (0x332522328ce6bba2, [30, 1080, 1080, 465]),
    (0x050222a04f9b6b1e, [37, 1332, 1332, 574]),
    (0x332522328ce6bba2, [30, 1050, 1050, 453]),
    (0x050222a04f9b6b1e, [37, 1295, 1295, 557]),
    (0x8205df03ca1406b5, [120, 80, 80, 28]),
    (0x2fe5b7785ec811b4, [127, 84, 84, 30]),
    (0x8205df03ca1406b5, [120, 67, 67, 26]),
    (0x2fe5b7785ec811b4, [127, 72, 72, 28]),
    (0x8205df03ca1406b5, [120, 120, 120, 44]),
    (0x2fe5b7785ec811b4, [127, 127, 127, 47]),
    (0x8205df03ca1406b5, [120, 127, 93, 51]),
    (0x2fe5b7785ec811b4, [127, 132, 97, 54]),
    (0x31bec89820e69263, [120, 80, 80, 46]),
    (0x27c0dd87c3ef52cf, [127, 84, 84, 50]),
    (0x31bec89820e69263, [120, 67, 67, 41]),
    (0x27c0dd87c3ef52cf, [127, 72, 72, 46]),
    (0x31bec89820e69263, [120, 120, 120, 75]),
    (0x27c0dd87c3ef52cf, [127, 127, 127, 82]),
    (0x31bec89820e69263, [120, 127, 127, 78]),
    (0x27c0dd87c3ef52cf, [127, 132, 132, 83]),
];

/// Trajectories and communication accounting of `sharded:k` runs are
/// pinned: the fingerprint and every `CommSummary` field must equal the
/// recorded values. `cluster_identity` ties `cluster:k` to these runs.
#[test]
fn sharded_runs_match_golden_pins() {
    let lines = golden_lines();
    assert_eq!(lines.len(), GOLDEN.len());
    for (line, &(fingerprint, comm)) in lines.iter().zip(&GOLDEN) {
        let result = line.parse::<JobSpec>().unwrap().run().unwrap();
        let JobOutput::Run {
            fingerprint: got,
            comm: Some(c),
            ..
        } = result.output
        else {
            panic!("{line}: expected a run with comm stats, got {result:?}");
        };
        let got_comm = [
            c.rounds_seen,
            c.total_messages,
            c.total_bytes,
            c.total_changed,
        ];
        assert_eq!((got, got_comm), (fingerprint, comm), "{line}");
    }
}
