//! Criterion benches for the hot-path engine: scalar oracle vs
//! lane-batched kernels on the E17 reference workloads, small enough to
//! double as a CI smoke test that both hot paths still build and step.
//!
//! The recorded full-workload datapoint lives in `BENCH_hotpath.json`
//! (written by `e17_hotpath`); this harness is for quick relative
//! comparisons during development.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsl_core::engine::rules::LocalMetropolisRule;
use lsl_core::engine::{HotPath, SyncChain};
use lsl_graph::generators;
use lsl_mrf::models;
use std::hint::black_box;

fn bench_hotpaths(c: &mut Criterion) {
    let workloads: [(&str, lsl_mrf::Mrf); 2] = [
        (
            "torus64x64_ising_b0.4",
            models::ising(generators::torus(64, 64), 0.4),
        ),
        (
            "torus64x64_coloring_q16",
            models::proper_coloring(generators::torus(64, 64), 16),
        ),
    ];
    for (name, mrf) in workloads {
        let mut group = c.benchmark_group(format!("hotpath_round/{name}"));
        for hotpath in [HotPath::Scalar, HotPath::Lanes] {
            let id = BenchmarkId::from_parameter(hotpath);
            group.bench_with_input(id, &hotpath, |b, &hotpath| {
                let mut chain = SyncChain::new(&mrf, LocalMetropolisRule::new(), 1);
                chain.set_hotpath(hotpath);
                chain.step(); // allocate lanes/blocks outside the timing loop
                b.iter(|| {
                    chain.step();
                    black_box(chain.state()[0])
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_hotpaths);
criterion_main!(benches);
