//! Lifecycle of the persistent round pool behind the multi-worker
//! backends: a panic in a worker's job surfaces on the caller (no hang,
//! no leaked thread), and every pool thread is joined when its sampler
//! drops.
//!
//! Both checks read the process's thread count, so they run in one
//! test: a second test's harness thread would move the count.

use lsl_core::engine::rules::LocalMetropolisRule;
use lsl_core::engine::{Backend, HotKernel, HotPath, KernelRange, RoundCtx, SyncChain, SyncRule};
use lsl_core::prelude::*;
use lsl_graph::{generators, VertexId};
use lsl_local::rng::Xoshiro256pp;
use lsl_mrf::{models, Mrf, Spin};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Waits until the thread count is back at `baseline`: a joined thread
/// may leave the count a moment after `join` returns.
fn settles_to(baseline: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != baseline {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// LocalMetropolis whose second kernel (the range the pool's first
/// worker thread runs) panics on its first round.
struct PanickyRule {
    inner: LocalMetropolisRule,
    built: Arc<AtomicUsize>,
}

struct PanickyKernel;

impl HotKernel for PanickyKernel {
    fn advance(&mut self, _: &RoundCtx, _: &[Spin], _: &mut [Spin]) {
        panic!("kernel on the worker fails");
    }
}

impl SyncRule for PanickyRule {
    type Local = Spin;
    type Scratch = ();
    const STATE_FREE_PROPOSE: bool = true;

    fn name(&self) -> &'static str {
        "panicky"
    }

    fn make_scratch(&self, _mrf: &Mrf) {}

    fn propose(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &[Spin],
        rng: &mut Xoshiro256pp,
        scratch: &mut (),
    ) -> Spin {
        self.inner.propose(ctx, v, state, rng, scratch)
    }

    fn resolve(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &[Spin],
        locals: &[Spin],
        rng: &mut Xoshiro256pp,
        scratch: &mut (),
    ) -> Spin {
        self.inner.resolve(ctx, v, state, locals, rng, scratch)
    }

    fn hot_kernel(&self, mrf: &Arc<Mrf>, range: KernelRange) -> Option<Box<dyn HotKernel>> {
        if self.built.fetch_add(1, Ordering::Relaxed) == 1 {
            return Some(Box::new(PanickyKernel));
        }
        self.inner.hot_kernel(mrf, range)
    }
}

#[test]
fn pool_threads_live_and_die_with_their_chains() {
    let baseline = threads();
    worker_panics_re_raise_on_the_caller(baseline);
    dropped_samplers_join_their_pool_threads(baseline);
}

/// A panic in a worker's job surfaces on the calling thread; the pool
/// keeps its worker until the chain drops.
fn worker_panics_re_raise_on_the_caller(baseline: usize) {
    let mrf = Arc::new(models::ising(generators::torus(16, 16), 0.4));
    let rule = PanickyRule {
        inner: LocalMetropolisRule::new(),
        built: Arc::new(AtomicUsize::new(0)),
    };
    let start = lsl_core::single_site::default_start(&mrf);
    let parallel = Backend::Parallel { threads: 2 };
    let mut chain = SyncChain::configured(mrf, rule, 3, start, parallel, HotPath::default());
    let caught = panic::catch_unwind(AssertUnwindSafe(|| chain.step()));
    let payload = caught.expect_err("the worker's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"kernel on the worker fails")
    );
    assert_eq!(threads(), baseline + 1, "the pool keeps its one worker");
    drop(chain);
    assert!(settles_to(baseline), "the pool's thread outlived its chain");
}

/// Building, stepping and dropping 500 two-worker samplers leaves no
/// thread behind.
fn dropped_samplers_join_their_pool_threads(baseline: usize) {
    let mrf = models::ising(generators::torus(16, 16), 0.4);
    for i in 0..500 {
        let backend = if i % 2 == 0 {
            Backend::Parallel { threads: 2 }
        } else {
            Backend::Sharded { shards: 2 }
        };
        let mut sampler = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LocalMetropolis)
            .backend(backend)
            .seed(i)
            .build()
            .expect("a valid sampler");
        sampler.run(2);
    }
    assert!(
        settles_to(baseline),
        "{} threads after 500 samplers, {baseline} before",
        threads()
    );
}
