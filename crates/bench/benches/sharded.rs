//! Criterion bench: sharded backend step cost vs shard count.
//!
//! One synchronous LocalMetropolis round on a 64×64 torus coloring,
//! through the flat sequential engine and through owner-computes
//! shards at increasing shard counts (contiguous partition — row
//! bands on the torus). The gap between `sequential` and `sharded/1`
//! is the pure slab/exchange bookkeeping overhead; growth past the
//! core count shows the floor of dispatching a round to the chain's
//! persistent round pool when shards outnumber cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsl_core::engine::rules::LocalMetropolisRule;
use lsl_core::engine::sharded::ShardedChain;
use lsl_core::engine::SyncChain;
use lsl_graph::partition::Partition;
use lsl_mrf::models;

fn sharded_step(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "quick")
        || std::env::var("LSL_BENCH_QUICK").is_ok_and(|v| v != "0");
    if quick {
        std::env::set_var("LSL_BENCH_WINDOW_MS", "60");
    }
    let side = if quick { 24 } else { 64 };
    let mrf = models::proper_coloring(lsl_graph::generators::torus(side, side), 16);

    let mut group = c.benchmark_group(format!("sharded_step/torus{side}x{side}"));
    group.bench_function("sequential", |b| {
        let mut chain = SyncChain::new(&mrf, LocalMetropolisRule::new(), 1);
        b.iter(|| chain.step());
    });
    for shards in [1usize, 2, 4, 8] {
        let partition = Partition::contiguous(mrf.graph(), shards);
        group.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &partition,
            |b, partition| {
                let mut chain =
                    ShardedChain::new(&mrf, LocalMetropolisRule::new(), 1, partition.clone());
                b.iter(|| chain.step());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, sharded_step);
criterion_main!(benches);
