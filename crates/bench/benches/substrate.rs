//! Criterion benches for the substrates: scheduling, marginals, graph
//! algorithms, exact machinery, and the LOCAL simulator's overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use lsl_core::engine::rules::scheduled_mask;
use lsl_core::engine::RoundCtx;
use lsl_core::kernel::{local_metropolis_kernel, luby_set_distribution};
use lsl_core::programs::LocalMetropolisProgram;
use lsl_core::schedule::{LubyScheduler, VertexScheduler};
use lsl_graph::{generators, traversal, VertexId};
use lsl_local::runtime::Simulator;
use lsl_lowerbound::gadget::{Gadget, GadgetParams};
use lsl_mrf::models;
use lsl_mrf::transfer::PathDp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_substrate(c: &mut Criterion) {
    let torus = generators::torus(32, 32);

    c.bench_function("luby_step/torus32x32", |b| {
        // One round's marks from the per-vertex propose streams, then
        // the local-maximum selection — the Luby step of a LubyGlauber
        // round.
        let sched = LubyScheduler::new();
        let mrf = models::uniform_independent_set(torus.clone());
        let mut marks = vec![0.0; torus.num_vertices()];
        let mut mask = vec![false; torus.num_vertices()];
        let mut round = 0u64;
        b.iter(|| {
            let ctx = RoundCtx::new(&mrf, 1, round);
            for v in torus.vertices() {
                marks[v.index()] = sched.mark(v, ctx.propose_rng(v).raw().next());
            }
            scheduled_mask(&sched, &ctx, &marks, &mut mask);
            round += 1;
            black_box(mask[0])
        });
    });

    c.bench_function("marginal/torus32x32_q20", |b| {
        let mrf = models::proper_coloring(torus.clone(), 20);
        let config = vec![0u32; mrf.num_vertices()];
        let mut buf = vec![0.0; 20];
        b.iter(|| {
            mrf.marginal_weights_into(VertexId(500), &config, &mut buf);
            black_box(buf[0])
        });
    });

    c.bench_function("bfs_diameter/torus16x16", |b| {
        let g = generators::torus(16, 16);
        b.iter(|| black_box(traversal::diameter(&g)));
    });

    c.bench_function("transfer_marginal/path1000_q3", |b| {
        let mrf = models::proper_coloring(generators::path(1000), 3);
        let dp = PathDp::new(&mrf).unwrap();
        b.iter(|| black_box(dp.marginal(VertexId(500)).unwrap()[0]));
    });

    c.bench_function("gadget_sample/side10", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let params = GadgetParams {
            side: 10,
            terminals: 4,
            delta: 4,
        };
        b.iter(|| black_box(Gadget::sample(params, &mut rng).num_vertices()));
    });

    c.bench_function("exact_kernel/lm_path3_q3", |b| {
        let mrf = models::proper_coloring(generators::path(3), 3);
        b.iter(|| black_box(local_metropolis_kernel(&mrf, true).num_states()));
    });

    c.bench_function("luby_set_distribution/path6", |b| {
        let g = generators::path(6);
        b.iter(|| black_box(luby_set_distribution(&g).len()));
    });

    c.bench_function("local_simulator/lm_torus16x16_10rounds", |b| {
        let mrf = models::proper_coloring(generators::torus(16, 16), 12);
        b.iter(|| {
            let sim = Simulator::new(mrf.graph_arc(), 7);
            black_box(sim.run_with::<LocalMetropolisProgram>(10, &mrf).outputs[0])
        });
    });
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
