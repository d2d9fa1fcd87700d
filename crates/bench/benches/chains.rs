//! Criterion throughput benches for the four sampling chains.
//!
//! Wall-clock per chain step across graph families and degrees — the
//! systems-side context for the round-complexity experiments E1/E2 (a
//! LocalMetropolis round touches every edge; a LubyGlauber round every
//! vertex plus scheduled marginals; Glauber one vertex). All chains are
//! constructed through the sampler facade and stepped self-keyed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsl_core::sampler::{Algorithm, Sampler};
use lsl_core::single_site::ScanChain;
use lsl_graph::generators;
use lsl_local::rng::Xoshiro256pp;
use lsl_mrf::models;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_chain_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_step/torus32x32_q20");
    let mrf = models::proper_coloring(generators::torus(32, 32), 20);
    let build = |alg, seed| {
        Sampler::for_mrf(&mrf)
            .algorithm(alg)
            .seed(seed)
            .build()
            .expect("valid configuration")
    };

    group.bench_function("glauber_sweep", |b| {
        let mut chain = build(Algorithm::Glauber, 1);
        let n = mrf.num_vertices();
        b.iter(|| {
            chain.run(n);
            black_box(chain.state()[0])
        });
    });

    group.bench_function("scan_sweep", |b| {
        let mut chain = ScanChain::new(&mrf);
        let mut rng = Xoshiro256pp::seed_from(2);
        b.iter(|| {
            chain.step(&mut rng);
            black_box(chain.state()[0])
        });
    });

    group.bench_function("luby_glauber_round", |b| {
        let mut chain = build(Algorithm::LubyGlauber, 3);
        b.iter(|| {
            chain.step();
            black_box(chain.state()[0])
        });
    });

    group.bench_function("local_metropolis_round", |b| {
        let mut chain = build(Algorithm::LocalMetropolis, 4);
        b.iter(|| {
            chain.step();
            black_box(chain.state()[0])
        });
    });
    group.finish();
}

fn bench_degree_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_cost_vs_delta/n256");
    for delta in [4usize, 8, 16, 32] {
        let mut rng = StdRng::seed_from_u64(delta as u64);
        let g = generators::random_regular(256, delta, &mut rng);
        let mrf = models::proper_coloring(g, 4 * delta);
        group.bench_with_input(
            BenchmarkId::new("local_metropolis", delta),
            &delta,
            |b, _| {
                let mut chain = Sampler::for_mrf(&mrf)
                    .algorithm(Algorithm::LocalMetropolis)
                    .seed(9)
                    .build()
                    .expect("valid configuration");
                b.iter(|| {
                    chain.step();
                    black_box(chain.state()[0])
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("luby_glauber", delta), &delta, |b, _| {
            let mut chain = Sampler::for_mrf(&mrf)
                .algorithm(Algorithm::LubyGlauber)
                .seed(10)
                .build()
                .expect("valid configuration");
            b.iter(|| {
                chain.step();
                black_box(chain.state()[0])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chain_steps, bench_degree_scaling);
criterion_main!(benches);
