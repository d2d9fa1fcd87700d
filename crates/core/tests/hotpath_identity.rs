//! Bit-identity of the lane-batched hot path with the scalar oracle.
//!
//! The tentpole claim of the hot-path engine is that lane packing,
//! block RNG, and kernel restructuring are *implementation* choices:
//! for every model and seed, the kernel trajectory is bit-for-bit the
//! scalar phases' trajectory — on every backend that
//! runs kernels: one range over the whole graph (`sequential`), one
//! contiguous range per worker (`parallel:k`), and one range per shard
//! under every partitioner (`sharded:k`, whose round the cluster tier
//! also runs). These properties pin that across algorithms
//! (LocalMetropolis with and without rule 3, LubyGlauber under two
//! schedulers), hard and soft constraints (edge coins deterministic vs
//! fractional), lane widths (`u8` lanes up to `q = 256`, `u32` above),
//! and graph families (torus, cycle, G(n, p)).

use lsl_core::engine::rules::{LocalMetropolisRule, LubyGlauberRule};
use lsl_core::engine::sharded::ShardedChain;
use lsl_core::engine::{Backend, HotPath, SyncChain, SyncRule};
use lsl_core::schedule::{BernoulliFilterScheduler, ChromaticScheduler};
use lsl_core::spec::{JobOutput, JobSpec};
use lsl_graph::partition::Partitioner;
use lsl_graph::{generators, Graph};
use lsl_mrf::models;
use proptest::prelude::*;

/// Every lane variant: the kernels, whose lane width follows `q`.
fn lane_variants() -> [HotPath; 1] {
    [HotPath::Lanes]
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
    for hp in lane_variants() {
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
        // q = 2 and soft constraints: the product-table edge pass and
        // the vectorized proposal ladder engage here.
        let mrf = models::ising(generators::cycle(len), beta);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
    }

    #[test]
    fn local_metropolis_lanes_match_scalar_on_gnp_hardcore(
        master in 0u64..10_000, seed in 0u64..500, lambda in 0.3f64..3.0
    ) {
        // q = 2 and hard constraints (the coin-free byte-table path),
        // with and without the rule-3 factor, on irregular graphs.
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
    fn luby_glauber_lanes_match_scalar_on_gnp_hardcore(
        master in 0u64..10_000, seed in 0u64..500, lambda in 0.3f64..3.0
    ) {
        // Irregular degrees plus two isolated vertices; λ ≠ 1 takes the
        // CDF resample scheme, λ = 1 the permutation scheme.
        let g = gnp_with_isolated(seed);
        assert_hotpaths_agree(&models::hardcore(g.clone(), lambda), LubyGlauberRule::luby(), master);
        assert_hotpaths_agree(&models::hardcore(g, 1.0), LubyGlauberRule::luby(), master);
    }

    #[test]
    fn luby_glauber_lanes_match_scalar_on_torus_ising(
        master in 0u64..10_000, rows in 3usize..6, cols in 3usize..6, beta in 0.2f64..2.0
    ) {
        // Soft edge activities: every marginal weight is a product of
        // fractional factors.
        let mrf = models::ising(generators::torus(rows, cols), beta);
        assert_hotpaths_agree(&mrf, LubyGlauberRule::luby(), master);
    }

    #[test]
    fn luby_glauber_lanes_match_scalar_on_list_coloring(
        master in 0u64..10_000, rows in 3usize..6, cols in 3usize..6, seed in 0u64..500
    ) {
        // Several vertex kinds: each marginal starts from its own
        // kind's activity.
        let mrf = random_list_coloring(rows, cols, seed);
        assert!(mrf.vertex_palette().len() > 1);
        assert_hotpaths_agree(&mrf, LubyGlauberRule::luby(), master);
    }

    #[test]
    fn chromatic_scheduled_lanes_match_scalar(
        master in 0u64..10_000, seed in 0u64..500
    ) {
        // A mark-free scheduler whose selection is a function of the
        // round index.
        let g = gnp_with_isolated(seed);
        let rule = LubyGlauberRule::with_scheduler(ChromaticScheduler::greedy(&g));
        assert_hotpaths_agree(&models::proper_coloring(g, 9), rule, master);
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

    #[test]
    fn local_metropolis_lanes_match_scalar_on_gnp_hard_edge_kinds(
        master in 0u64..10_000, seed in 0u64..500
    ) {
        // Several hard edge kinds, q = 6: some edges forbid a different
        // spin pattern, and their activities' max is 2.5, not 1.
        let mrf = gnp_hard_edge_kinds(seed);
        assert!(mrf.all_hard_constraints());
        assert!(mrf.edge_palette().len() > 1);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::without_rule3(), master);
    }
}

/// A `q = 6` proper coloring of `G(12, 0.3)` in which the first edge
/// and about every third other edge (by a seeded draw) carry their own
/// hard activity: entries 0 or 2.5,
/// forbidding `a == b` and `(a + b) mod 6 == r` for an edge-chosen `r`.
fn gnp_hard_edge_kinds(seed: u64) -> lsl_mrf::Mrf {
    use lsl_mrf::EdgeActivity;
    use rand::{RngExt, SeedableRng};
    let q = 6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let g = generators::gnp(12, 0.3, &mut rng);
    let edges: Vec<_> = g.edges().map(|(e, _, _)| e).collect();
    let mut mrf = models::proper_coloring(g, q);
    for (i, e) in edges.into_iter().enumerate() {
        if i > 0 && rng.random_range(0..3) != 0 {
            continue;
        }
        let r = rng.random_range(0..q);
        let data = (0..q)
            .flat_map(|a| (0..q).map(move |b| (a, b)))
            .map(|(a, b)| if a == b || (a + b) % q == r { 0.0 } else { 2.5 })
            .collect();
        mrf.set_edge_activity(e, EdgeActivity::new(q, data).unwrap());
    }
    mrf
}

/// A `G(12, 0.3)` graph with two isolated vertices appended.
fn gnp_with_isolated(seed: u64) -> Graph {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let g = generators::gnp(12, 0.3, &mut rng);
    let edges: Vec<(u32, u32)> = g.edges().map(|(_, a, b)| (a.0, b.0)).collect();
    Graph::from_edges(g.num_vertices() + 2, &edges)
}

/// A `q = 7` list coloring of a torus, each vertex drawing a random
/// list of 5 colors (more than any torus degree, so no marginal
/// vanishes) — the lists of the LocalMetropolis list-coloring case.
fn random_list_coloring(rows: usize, cols: usize, seed: u64) -> lsl_mrf::Mrf {
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
    models::list_coloring(g, q, &lists)
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

/// Above `q = 256` the kernel runs `u32` lanes, the only kernel for
/// such models: a hard q = 300 coloring (with and without rule 3) and
/// a soft q = 300 Potts model, on every backend.
#[test]
fn local_metropolis_lanes_match_scalar_above_byte_range() {
    let g = generators::torus(5, 5);
    let coloring = models::proper_coloring(g.clone(), 300);
    assert_hotpaths_agree(&coloring, LocalMetropolisRule::new(), 8);
    assert_hotpaths_agree(&coloring, LocalMetropolisRule::without_rule3(), 8);
    let potts = models::potts(g, 300, 0.7);
    assert!(!potts.all_hard_constraints());
    assert_hotpaths_agree(&potts, LocalMetropolisRule::new(), 9);
}

/// A hard q = 7 coloring without rule 3 on a range longer than one
/// block-RNG chunk: seven uniform proposals put the breakpoints at
/// non-dyadic draws, and the hard edge pass tests two factors per edge.
#[test]
fn coloring_without_rule3_matches_scalar_across_rng_chunks() {
    let mrf = models::proper_coloring(generators::torus(40, 40), 7);
    assert_hotpaths_agree(&mrf, LocalMetropolisRule::without_rule3(), 6);
}

/// Coupled LubyGlauber replicas on a range longer than one block-RNG
/// chunk: each round's kernel sees the same randomness once per copy,
/// so whatever it keys by the round must serve every copy alike.
#[test]
fn coupled_luby_glauber_replicas_match_scalar() {
    use lsl_core::engine::replicas::ReplicaSet;
    let mrf = models::proper_coloring(generators::torus(40, 40), 9);
    let n = mrf.num_vertices();
    let starts = vec![
        vec![0; n],
        (0..n as u32).map(|v| v % 9).collect(),
        lsl_core::single_site::default_start(&mrf),
    ];
    let mut oracle = ReplicaSet::coupled(&mrf, LubyGlauberRule::luby(), &starts, 12);
    oracle.set_hotpath(HotPath::Scalar);
    let mut lanes = ReplicaSet::coupled(&mrf, LubyGlauberRule::luby(), &starts, 12);
    for round in 0..8 {
        oracle.step_all();
        lanes.step_all();
        for b in 0..starts.len() {
            assert_eq!(oracle.state(b), lanes.state(b), "copy {b} at round {round}");
        }
    }
}

/// List-coloring trajectories are pinned to fingerprints recorded
/// before the model builder shared one activity between vertices with
/// equal lists: the sharing must not change a single spin.
#[test]
fn list_coloring_fingerprints_are_pinned() {
    for (algorithm, pinned) in [
        ("local-metropolis", 0x48cf_e201_6b0b_7247u64),
        ("luby-glauber", 0xd8c8_5f10_37c7_b9e3),
    ] {
        for hotpath in ["scalar", "lanes"] {
            let line = format!(
                "graph=torus:16x16 model=list-coloring:q=8,size=5 algorithm={algorithm} \
                 seed=3 hotpath={hotpath} job=run:rounds=40"
            );
            let result = line.parse::<JobSpec>().unwrap().run().unwrap();
            let JobOutput::Run { fingerprint, .. } = result.output else {
                panic!("{line}: expected a run, got {result:?}");
            };
            assert_eq!(fingerprint, pinned, "{line}");
        }
    }
}

/// A q = 4 coloring of a degree-4 torus reaches vertices whose every
/// color is taken by a neighbour. Such a vertex keeps its spin, so the
/// job completes, and the rule holds identically in the scalar phases
/// and the kernel on every backend.
#[test]
fn vanished_marginals_keep_the_spin_on_every_backend() {
    let spec = "graph=torus:8x8 model=coloring:q=4 algorithm=luby-glauber seed=1 job=run:rounds=50";
    let mut seen = Vec::new();
    for backend in ["sequential", "parallel:2", "sharded:2"] {
        for hotpath in ["scalar", "lanes"] {
            let line = format!("{spec} backend={backend} hotpath={hotpath}");
            let result = line.parse::<JobSpec>().unwrap().run().unwrap();
            let JobOutput::Run { fingerprint, .. } = result.output else {
                panic!("{line}: expected a run, got {result:?}");
            };
            seen.push((line, fingerprint));
        }
    }
    for (line, fingerprint) in &seen {
        assert_eq!(*fingerprint, seen[0].1, "{line} vs {}", seen[0].0);
    }
}

/// On K4 with q = 3, the coloring `[0, 1, 2, 0]` is frozen: vertices 0
/// and 3 see all three colors around them (a vanished marginal), and
/// vertices 1 and 2 have one color left, their own. Every round must
/// leave it as it is, in the scalar phases and the kernel alike.
#[test]
fn vanished_marginals_freeze_a_stuck_coloring() {
    let mrf = models::proper_coloring(generators::complete(4), 3);
    let stuck = vec![0, 1, 2, 0];
    for hp in [HotPath::Scalar, HotPath::default()] {
        let mut chain = SyncChain::with_state(&mrf, LubyGlauberRule::luby(), 5, stuck.clone());
        chain.set_hotpath(hp);
        for _ in 0..20 {
            chain.step();
            assert_eq!(chain.state(), &stuck[..], "hotpath={hp}");
        }
        assert!(!mrf.is_feasible(chain.state()));
    }
}
