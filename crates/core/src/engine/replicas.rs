//! The batched-replica backend: advance `B` chains in one pass.
//!
//! Every empirical claim in the paper needs many independent replicas
//! (TV estimation) or many coupled copies (coalescence measurement).
//! Running them as separate chains costs a per-replica setup (buffers,
//! generators) per chain and, for grand couplings, re-derives identical
//! randomness once per copy. [`ReplicaSet`] stores all configurations in
//! one replica-major arena and advances every replica per round with
//! shared buffers:
//!
//! * **independent mode** — replica `b` runs under its own master seed
//!   `derive_seed(seed, REPLICA, b)`: iid chains for TV estimation;
//! * **coupled mode** — every replica shares one master seed: the grand
//!   coupling of the coupling lemma, by the determinism contract. For
//!   rules with state-free proposals (both synchronous chains), the
//!   propose phase is computed **once per round** and shared across all
//!   `B` copies — the batch does `1/B` of the proposal randomness work.
//!
//! Replicas are embarrassingly parallel, so the set also accepts a
//! [`Backend`] that splits replicas over the workers of a persistent
//! round pool.

use super::{HotKernel, HotPath, KernelRange, RoundCtx, RoundPool, SyncRule};
use crate::engine::Backend;
use lsl_local::rng::derive_seed;
use lsl_mrf::{Mrf, Spin};
use std::sync::Arc;

/// Label under which per-replica master seeds are derived.
const REPLICA_LABEL: u64 = 0x5245_504c_4943_4100; // "REPLICA\0"

/// A batch of `B` chains of one rule advanced together.
///
/// The set *owns* its model as an `Arc<Mrf>` (constructors take
/// `impl Into<Arc<Mrf>>`), so it is a `'static`, `Send` handle.
///
/// # Example
/// ```
/// use lsl_core::engine::replicas::ReplicaSet;
/// use lsl_core::engine::rules::LocalMetropolisRule;
/// use lsl_graph::generators;
/// use lsl_mrf::models;
/// use std::sync::Arc;
///
/// let mrf = Arc::new(models::proper_coloring(generators::torus(4, 4), 8));
/// let mut set = ReplicaSet::independent(Arc::clone(&mrf), LocalMetropolisRule::new(), 16, 7);
/// set.run(50);
/// for state in set.states() {
///     assert!(mrf.is_feasible(state));
/// }
/// ```
pub struct ReplicaSet<R: SyncRule> {
    mrf: Arc<Mrf>,
    rule: R,
    backend: Backend,
    n: usize,
    count: usize,
    /// Replica-major arena: replica `b` lives in `b*n..(b+1)*n`.
    states: Vec<Spin>,
    next: Vec<Spin>,
    masters: Vec<u64>,
    coupled: bool,
    /// Shared locals for coupled state-free proposals.
    shared_locals: Vec<R::Local>,
    /// Per-worker state, built on the first round that uses the
    /// worker: each worker's locals (scalar phases only), scratch, and
    /// whole-graph kernel (replicas are split by whole replica, so
    /// per-worker kernels preserve trajectories at any worker count).
    /// A kernel's proposal cache is keyed by the round's propose
    /// master, which is what amortizes the coupled batch's shared
    /// randomness without a separate shared propose pass.
    workers: Vec<Worker<R>>,
    /// The hot-path selection every worker's kernel follows.
    hotpath: HotPath,
    /// The round pool, sized to the backend's resolved worker count
    /// (resolved once: probing available parallelism per round is not
    /// free).
    pool: RoundPool,
    round: u64,
}

/// One worker's reusable buffers.
struct Worker<R: SyncRule> {
    locals: Vec<R::Local>,
    scratch: R::Scratch,
    kernel: Option<Box<dyn HotKernel>>,
}

impl<R: SyncRule> std::fmt::Debug for ReplicaSet<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("rule", &self.rule.name())
            .field("backend", &self.backend)
            .field("replicas", &self.count)
            .field("coupled", &self.coupled)
            .field("round", &self.round)
            .finish()
    }
}

impl<R: SyncRule> ReplicaSet<R> {
    fn build(mrf: Arc<Mrf>, rule: R, states: Vec<Spin>, masters: Vec<u64>, coupled: bool) -> Self {
        let n = mrf.num_vertices();
        assert!(n > 0, "replica sets need a non-empty model");
        let count = masters.len();
        assert_eq!(states.len(), n * count);
        ReplicaSet {
            rule,
            backend: Backend::Sequential,
            n,
            count,
            next: vec![0; states.len()],
            states,
            masters,
            coupled,
            shared_locals: vec![R::Local::default(); n],
            workers: Vec::new(),
            hotpath: HotPath::default(),
            pool: RoundPool::new(1),
            round: 0,
            mrf,
        }
    }

    /// `count` iid replicas from the deterministic default start, each
    /// under its own master seed derived from `seed`.
    pub fn independent(mrf: impl Into<Arc<Mrf>>, rule: R, count: usize, seed: u64) -> Self {
        assert!(count > 0, "need at least one replica");
        let mrf = mrf.into();
        let start = crate::single_site::default_start(&mrf);
        let starts: Vec<&[Spin]> = (0..count).map(|_| &start[..]).collect();
        Self::independent_from(mrf, rule, &starts, seed)
    }

    /// `starts.len()` iid replicas from explicit starts.
    ///
    /// # Panics
    /// Panics if `starts` is empty or any start has the wrong length.
    pub fn independent_from(
        mrf: impl Into<Arc<Mrf>>,
        rule: R,
        starts: &[&[Spin]],
        seed: u64,
    ) -> Self {
        assert!(!starts.is_empty(), "need at least one replica");
        let mrf = mrf.into();
        let n = mrf.num_vertices();
        let mut states = Vec::with_capacity(n * starts.len());
        for s in starts {
            assert_eq!(s.len(), n, "start length must be n");
            states.extend_from_slice(s);
        }
        let masters = (0..starts.len() as u64)
            .map(|b| derive_seed(seed, REPLICA_LABEL, b))
            .collect();
        Self::build(mrf, rule, states, masters, false)
    }

    /// A grand coupling: one copy per start, all sharing the single
    /// master seed `master` (identical randomness every round).
    ///
    /// # Panics
    /// Panics if `starts` is empty or any start has the wrong length.
    pub fn coupled(mrf: impl Into<Arc<Mrf>>, rule: R, starts: &[Vec<Spin>], master: u64) -> Self {
        assert!(!starts.is_empty(), "need at least one copy");
        let mrf = mrf.into();
        let n = mrf.num_vertices();
        let mut states = Vec::with_capacity(n * starts.len());
        for s in starts {
            assert_eq!(s.len(), n, "start length must be n");
            states.extend_from_slice(s);
        }
        let masters = vec![master; starts.len()];
        Self::build(mrf, rule, states, masters, true)
    }

    /// Splits replicas over `backend`'s workers (trajectories are
    /// unaffected).
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
        let want = backend.worker_count();
        if want != self.pool.workers() {
            self.pool = RoundPool::new(want);
        }
    }

    /// Selects the hot path for the synchronous rounds (trajectories are
    /// unaffected — kernels are bit-identical to the scalar phases).
    pub fn set_hotpath(&mut self, hotpath: HotPath) {
        self.hotpath = hotpath;
        // Kernels are rebuilt, under the new selection, as rounds need
        // them.
        self.workers.clear();
    }

    /// Builds the per-worker buffers of the first `count` workers.
    fn ensure_workers(&mut self, count: usize) {
        while self.workers.len() < count {
            let kernel = self.hotpath.build_kernel(
                &self.mrf,
                &self.rule,
                KernelRange::whole(self.mrf.graph()),
            );
            // Only the scalar phases publish locals.
            let locals = match kernel {
                Some(_) => Vec::new(),
                None => vec![R::Local::default(); self.n],
            };
            self.workers.push(Worker {
                locals,
                scratch: self.rule.make_scratch(&self.mrf),
                kernel,
            });
        }
    }

    /// The hot-path selection in effect.
    pub fn hotpath(&self) -> HotPath {
        self.hotpath
    }

    /// Number of replicas `B`.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Replica `b`'s configuration.
    pub fn state(&self, b: usize) -> &[Spin] {
        &self.states[b * self.n..(b + 1) * self.n]
    }

    /// All configurations, in replica order.
    pub fn states(&self) -> impl ExactSizeIterator<Item = &[Spin]> {
        self.states.chunks(self.n)
    }

    /// Whether all replicas coincide (the grand coupling has coalesced).
    pub fn coalesced(&self) -> bool {
        let first = self.state(0);
        (1..self.count).all(|b| self.state(b) == first)
    }

    /// Advances every replica by one round.
    pub fn step_all(&mut self) {
        let round = self.round;
        // Single-site rules update one vertex in place; synchronous rules
        // double-buffer. The branch is rule-constant (checked below).
        let probe = RoundCtx::new(&self.mrf, self.masters[0], round);
        let single_site = self.rule.active_vertex(&probe).is_some();

        // Below this much per-round work (spins actually touched: one per
        // replica for single-site rules, the whole arena otherwise), a
        // round's dispatch rivals the work itself — run on the calling
        // thread.
        const MIN_PARALLEL_SPINS: usize = 1 << 14;
        let touched = if single_site {
            self.count
        } else {
            self.count * self.n
        };
        let workers = if touched < MIN_PARALLEL_SPINS {
            1
        } else {
            self.pool.workers().min(self.count)
        };
        self.ensure_workers(workers);

        // Coupled + state-free proposals: one propose phase serves every
        // replica (they share all randomness, and proposals ignore the
        // state) — the batch's 1/B randomness amortization. Engaged
        // kernels get the same amortization from their propose cache
        // (keyed by the shared propose master), so the precompute is
        // skipped for them.
        let kernels_engaged = !single_site && self.workers[0].kernel.is_some();
        let share_propose = !single_site
            && self.coupled
            && R::HAS_PROPOSE
            && R::STATE_FREE_PROPOSE
            && !kernels_engaged;
        if share_propose {
            let ctx = RoundCtx::new(&self.mrf, self.masters[0], round);
            super::propose_phase(
                &self.rule,
                &ctx,
                &self.states[..self.n],
                &mut self.shared_locals,
                std::slice::from_mut(&mut self.workers[0].scratch),
                None,
            );
        }

        let per_worker = self.count.div_ceil(workers);
        let n = self.n;
        let mrf: &Mrf = &self.mrf;
        let rule = &self.rule;
        let masters = &self.masters;
        let shared_locals = &self.shared_locals;
        let pool = &mut self.pool;

        if single_site {
            // In-place: only the active vertex of each replica changes.
            // Job `wi` runs a contiguous run of replicas starting at
            // replica index `wi * per_worker`.
            let mut jobs: Vec<_> = self
                .states
                .chunks_mut(per_worker * n)
                .zip(&mut self.workers)
                .collect();
            pool.run(&mut jobs, |wi, (chunk, worker)| {
                for (bi, state) in chunk.chunks_mut(n).enumerate() {
                    let ctx = RoundCtx::new(mrf, masters[wi * per_worker + bi], round);
                    let v = rule
                        .active_vertex(&ctx)
                        .expect("active_vertex must be rule-constant");
                    let mut rng = ctx.resolve_rng(v);
                    // Single-site rules skip the propose phase, so the
                    // (default-valued) shared buffer stands in for locals
                    // — same as SyncChain's fast path, and safely
                    // indexable by any rule.
                    state[v.index()] = rule.resolve(
                        &ctx,
                        v,
                        state,
                        shared_locals,
                        rng.raw(),
                        &mut worker.scratch,
                    );
                }
            });
        } else {
            let mut jobs: Vec<_> = self
                .states
                .chunks(per_worker * n)
                .zip(self.next.chunks_mut(per_worker * n))
                .zip(&mut self.workers)
                .collect();
            pool.run(&mut jobs, |wi, ((states, next), worker)| {
                let Worker {
                    locals,
                    scratch,
                    kernel,
                } = worker;
                for (bi, (state, next)) in states.chunks(n).zip(next.chunks_mut(n)).enumerate() {
                    let ctx = RoundCtx::new(mrf, masters[wi * per_worker + bi], round);
                    if let Some(k) = kernel.as_mut() {
                        k.advance(&ctx, state, next);
                        continue;
                    }
                    let locals_for_replica: &[R::Local] = if share_propose {
                        shared_locals
                    } else {
                        if R::HAS_PROPOSE {
                            super::propose_phase(
                                rule,
                                &ctx,
                                state,
                                locals,
                                std::slice::from_mut(scratch),
                                None,
                            );
                        }
                        locals
                    };
                    super::resolve_phase(
                        rule,
                        &ctx,
                        state,
                        locals_for_replica,
                        next,
                        std::slice::from_mut(scratch),
                        None,
                    );
                }
            });
            std::mem::swap(&mut self.states, &mut self.next);
        }
        self.round += 1;
    }

    /// Advances every replica by `t` rounds.
    pub fn run(&mut self, t: usize) {
        for _ in 0..t {
            self.step_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule};
    use crate::engine::SyncChain;
    use lsl_graph::generators;
    use lsl_mrf::models;

    #[test]
    fn independent_replicas_match_individual_chains() {
        // Replica b of an independent set must reproduce a SyncChain run
        // under the replica's derived master seed — batching is purely an
        // execution strategy.
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let mut set = ReplicaSet::independent(&mrf, LocalMetropolisRule::new(), 5, 123);
        set.run(20);
        for b in 0..5 {
            let master = derive_seed(123, REPLICA_LABEL, b as u64);
            let mut single = SyncChain::new(&mrf, LocalMetropolisRule::new(), master);
            single.run(20);
            assert_eq!(set.state(b), single.state(), "replica {b} diverged");
        }
    }

    #[test]
    fn sharded_replicas_match_sequential_replicas() {
        let mrf = models::proper_coloring(generators::cycle(9), 4);
        let mut a = ReplicaSet::independent(&mrf, LubyGlauberRule::luby(), 7, 3);
        let mut b = ReplicaSet::independent(&mrf, LubyGlauberRule::luby(), 7, 3);
        b.set_backend(Backend::Parallel { threads: 3 });
        for _ in 0..15 {
            a.step_all();
            b.step_all();
        }
        for i in 0..7 {
            assert_eq!(a.state(i), b.state(i));
        }
    }

    #[test]
    fn coupled_replicas_share_randomness_exactly() {
        // Copies started equal stay equal; the shared-propose fast path
        // must not break the coupling.
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let same = vec![crate::single_site::default_start(&mrf); 3];
        let mut set = ReplicaSet::coupled(&mrf, LocalMetropolisRule::new(), &same, 17);
        for _ in 0..25 {
            set.step_all();
            assert!(set.coalesced());
        }
    }

    #[test]
    fn coupled_matches_per_chain_grand_coupling() {
        // A coupled set must be bit-identical to stepping SyncChains that
        // share one master seed.
        let mrf = models::proper_coloring(generators::torus(4, 4), 16);
        let starts = crate::coupling::adversarial_starts(&mrf, 2, 5);
        let mut set = ReplicaSet::coupled(&mrf, LocalMetropolisRule::new(), &starts, 77);
        let mut singles: Vec<SyncChain<LocalMetropolisRule>> = starts
            .iter()
            .map(|s| SyncChain::with_state(&mrf, LocalMetropolisRule::new(), 77, s.clone()))
            .collect();
        for _ in 0..15 {
            set.step_all();
            for c in singles.iter_mut() {
                c.step();
            }
        }
        for (b, c) in singles.iter().enumerate() {
            assert_eq!(set.state(b), c.state(), "copy {b} diverged");
        }
    }

    #[test]
    fn coupled_copies_coalesce_on_easy_instance() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 24);
        let starts = crate::coupling::adversarial_starts(&mrf, 2, 3);
        let mut set = ReplicaSet::coupled(&mrf, LocalMetropolisRule::new(), &starts, 13);
        let mut coalesced_at = None;
        for t in 0..3000 {
            if set.coalesced() {
                coalesced_at = Some(t);
                break;
            }
            set.step_all();
        }
        assert!(coalesced_at.is_some(), "grand coupling never coalesced");
    }

    #[test]
    fn single_site_replicas_batch() {
        let mrf = models::proper_coloring(generators::cycle(8), 5);
        let mut set = ReplicaSet::independent(&mrf, GlauberRule, 6, 2);
        set.run(300);
        for s in set.states() {
            assert!(mrf.is_feasible(s));
        }
        // And they genuinely differ (independent randomness).
        assert!(!set.coalesced() || mrf.num_vertices() == 0);
    }
}
