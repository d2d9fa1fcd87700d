//! Bit-identity of the lane-batched hot path with the scalar oracle.
//!
//! The tentpole claim of the hot-path engine is that packing, block
//! RNG, and kernel restructuring are *implementation* choices: for
//! every model, seed, packing, and RNG mode, the kernel trajectory is
//! bit-for-bit the scalar phases' trajectory — on every backend that
//! runs kernels: one range over the whole graph (`sequential`), one
//! contiguous range per worker (`parallel:k`), and one range per shard
//! under every partitioner (`sharded:k`, whose round the cluster tier
//! also runs). These properties pin that across algorithms
//! (LocalMetropolis with and without rule 3, LubyGlauber under two
//! schedulers), hard and soft constraints (edge coins deterministic vs
//! fractional), and graph families (torus, cycle, G(n, p)).

use lsl_core::engine::rules::{LocalMetropolisRule, LubyGlauberRule};
use lsl_core::engine::sharded::ShardedChain;
use lsl_core::engine::{Backend, HotPath, Packing, SyncChain, SyncRule};
use lsl_core::schedule::BernoulliFilterScheduler;
use lsl_graph::generators;
use lsl_graph::partition::Partitioner;
use lsl_mrf::models;
use proptest::prelude::*;

/// Every lane variant a `q`-spin model admits: the packing × RNG-mode
/// matrix, with bit lanes included only when they can hold the spins.
fn lane_variants(q: usize) -> Vec<HotPath> {
    let mut packings = vec![None, Some(Packing::Wide), Some(Packing::Byte)];
    if q == 2 {
        packings.push(Some(Packing::Bit));
    }
    packings
        .into_iter()
        .flat_map(|packing| {
            [true, false]
                .into_iter()
                .map(move |block_rng| HotPath::Lanes { packing, block_rng })
        })
        .collect()
}

/// A kernel chain on one backend: flat (`sequential` / `parallel:k`)
/// or sharded.
enum KernelChain<R: SyncRule> {
    Flat(SyncChain<R>),
    Sharded(ShardedChain<R>),
}

impl<R: SyncRule> KernelChain<R> {
    fn step(&mut self) {
        match self {
            KernelChain::Flat(c) => c.step(),
            KernelChain::Sharded(c) => c.step(),
        }
    }

    fn state(&self) -> &[lsl_mrf::Spin] {
        match self {
            KernelChain::Flat(c) => c.state(),
            KernelChain::Sharded(c) => c.state(),
        }
    }

    fn kernel_engaged(&self) -> bool {
        match self {
            KernelChain::Flat(c) => c.kernel_engaged(),
            KernelChain::Sharded(c) => c.kernel_engaged(),
        }
    }
}

/// Every kernel chain of one lane variant, labelled: `sequential`,
/// `parallel:{2,3}`, and `sharded:{2,3}` under every partitioner.
fn kernel_chains<R: SyncRule + Clone>(
    mrf: &lsl_mrf::Mrf,
    rule: &R,
    master: u64,
    hp: HotPath,
) -> Vec<(String, KernelChain<R>)> {
    let mut chains = Vec::new();
    for backend in [
        Backend::Sequential,
        Backend::Parallel { threads: 2 },
        Backend::Parallel { threads: 3 },
    ] {
        let mut chain = SyncChain::new(mrf, rule.clone(), master);
        chain.set_backend(backend);
        chain.set_hotpath(hp);
        chains.push((format!("{backend}"), KernelChain::Flat(chain)));
    }
    for p in Partitioner::ALL {
        for k in [2, 3] {
            let part = p.partition(mrf.graph(), k);
            let mut chain = ShardedChain::new(mrf, rule.clone(), master, part);
            chain.set_hotpath(hp);
            let label = format!("sharded:{k} partitioner={}", p.name());
            chains.push((label, KernelChain::Sharded(chain)));
        }
    }
    chains
}

/// Steps a `sequential` scalar-oracle chain and, per lane variant, a
/// kernel chain on every backend in lockstep, comparing full states
/// every round.
fn assert_hotpaths_agree<R: SyncRule + Clone>(mrf: &lsl_mrf::Mrf, rule: R, master: u64) {
    let mut oracle = SyncChain::new(mrf, rule.clone(), master);
    oracle.set_hotpath(HotPath::Scalar);
    assert!(
        !oracle.kernel_engaged(),
        "the scalar oracle must run the scalar phases"
    );
    let mut lanes: Vec<(HotPath, String, KernelChain<R>)> = Vec::new();
    for hp in lane_variants(mrf.q()) {
        for (label, chain) in kernel_chains(mrf, &rule, master, hp) {
            assert!(
                chain.kernel_engaged(),
                "hotpath={hp} {label} built no kernel"
            );
            lanes.push((hp, label, chain));
        }
    }
    for round in 0..8 {
        oracle.step();
        for (hp, label, chain) in &mut lanes {
            chain.step();
            assert_eq!(
                oracle.state(),
                chain.state(),
                "hotpath={hp} on {label} diverged from the scalar oracle at round {round}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn local_metropolis_lanes_match_scalar_on_torus_coloring(
        master in 0u64..10_000, rows in 3usize..6, cols in 3usize..6
    ) {
        // Hard constraints: every edge coin is deterministic.
        let mrf = models::proper_coloring(generators::torus(rows, cols), 9);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
    }

    #[test]
    fn local_metropolis_lanes_match_scalar_on_cycle_ising(
        master in 0u64..10_000, len in 4usize..24, beta in 0.2f64..2.0
    ) {
        // q = 2 and soft constraints: the bit-packed slabs, the
        // interleaved edge pass, integer coin thresholds, and the
        // vectorized proposal ladder all engage here.
        let mrf = models::ising(generators::cycle(len), beta);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
    }

    #[test]
    fn local_metropolis_lanes_match_scalar_on_gnp_hardcore(
        master in 0u64..10_000, seed in 0u64..500, lambda in 0.3f64..3.0
    ) {
        // q = 2 and hard constraints (the coin-free bit path), with and
        // without the rule-3 factor, on irregular graphs.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::gnp(12, 0.3, &mut rng);
        let mrf = models::hardcore(g, lambda);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::without_rule3(), master);
    }

    #[test]
    fn luby_glauber_lanes_match_scalar(
        master in 0u64..10_000, rows in 3usize..6, cols in 3usize..6
    ) {
        let mrf = models::proper_coloring(generators::torus(rows, cols), 9);
        assert_hotpaths_agree(&mrf, LubyGlauberRule::luby(), master);
    }

    #[test]
    fn bernoulli_scheduled_lanes_match_scalar(
        master in 0u64..10_000, len in 4usize..20, p in 0.1f64..0.9
    ) {
        // A scheduler whose mark is a Bernoulli(p) draw, not a raw
        // uniform: one draw per stream, like every scheduler, taken
        // from the head block through a threshold compare.
        let mrf = models::proper_coloring(generators::cycle(len), 5);
        let rule = LubyGlauberRule::with_scheduler(BernoulliFilterScheduler::new(p));
        assert_hotpaths_agree(&mrf, rule, master);
    }

    #[test]
    fn local_metropolis_lanes_match_scalar_on_list_coloring(
        master in 0u64..10_000, rows in 3usize..6, cols in 3usize..6, seed in 0u64..500
    ) {
        // Several vertex kinds with q > 2: each vertex's proposal is
        // counted off its own kind's breakpoint table.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let g = generators::torus(rows, cols);
        let q = 7;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let lists: Vec<Vec<u32>> = (0..g.num_vertices())
            .map(|_| {
                let mut colors: Vec<u32> = (0..q as u32).collect();
                colors.shuffle(&mut rng);
                colors.truncate(5);
                colors
            })
            .collect();
        let mrf = models::list_coloring(g, q, &lists);
        assert!(mrf.vertex_palette().len() > 1);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
    }
}

/// Ranges longer than one block-RNG chunk (1,024 indices), with coins
/// drawn (a soft model), and coupled replicas whose kernels see each
/// round once per copy — the repeated-round coin block.
#[test]
fn kernels_match_scalar_across_rng_chunks_and_repeated_rounds() {
    use lsl_core::engine::replicas::ReplicaSet;
    let ising = models::ising(generators::torus(40, 40), 0.4);
    assert_hotpaths_agree(&ising, LocalMetropolisRule::new(), 3);
    let coloring = models::proper_coloring(generators::torus(40, 40), 9);
    assert_hotpaths_agree(&coloring, LubyGlauberRule::luby(), 4);

    let n = ising.num_vertices();
    let starts = vec![
        vec![0; n],
        vec![1; n],
        lsl_core::single_site::default_start(&ising),
    ];
    let mut oracle = ReplicaSet::coupled(&ising, LocalMetropolisRule::new(), &starts, 9);
    oracle.set_hotpath(HotPath::Scalar);
    let mut lanes = ReplicaSet::coupled(&ising, LocalMetropolisRule::new(), &starts, 9);
    for round in 0..8 {
        oracle.step_all();
        lanes.step_all();
        for b in 0..starts.len() {
            assert_eq!(oracle.state(b), lanes.state(b), "copy {b} at round {round}");
        }
    }
}
