//! The step engine: *what a chain does at a vertex* separated from *how a
//! sweep executes*.
//!
//! The paper's samplers are synchronous distributed chains — every vertex
//! acts simultaneously each round — but an implementation must pick an
//! execution order. This module makes that choice a swappable backend:
//!
//! * a [`SyncRule`] describes one chain round as two per-vertex phases
//!   over CSR neighborhoods — **propose** (draw per-vertex randomness,
//!   publish a `Local` value) and **resolve** (combine the old state, the
//!   neighborhood's locals, and per-edge coins into the vertex's next
//!   spin);
//! * a [`Backend`] says how the sweep runs — four execution backends,
//!   all bit-identical by the determinism contract:
//!   [`Backend::Sequential`] (one vertex after another),
//!   [`Backend::Parallel`] (a scoped-thread fork-join over vertex
//!   ranges), [`Backend::Sharded`] (owner-computes graph shards with
//!   boundary exchange and communication accounting — see
//!   [`sharded::ShardedChain`]), and the batched-replica backend
//!   ([`replicas::ReplicaSet`], which advances a whole batch of chains
//!   in one cache-friendly pass — the workhorse for TV estimation and
//!   grand couplings);
//! * [`SyncChain`] owns the buffers and advances one chain.
//!
//! # The determinism contract
//!
//! Every random draw of round `r` is a pure function of
//! `(master_seed, r, vertex-or-edge id)`, via the counter-style streams
//! of [`lsl_local::rng::round_key`]: vertex streams for the two phases,
//! one shared coin stream per edge, and one round-shared stream (used
//! e.g. for single-site vertex selection). No generator is ever shared
//! between two vertices, two edges, or two rounds, so **execution order
//! cannot affect the trajectory**: sequential and parallel sweeps are
//! bit-identical, and replicas coupled on the same master seed realize
//! the paper's grand coupling by construction.

pub mod hotpath;
pub mod replicas;
pub mod rules;
pub mod sharded;
pub mod slab;

pub use hotpath::{HotKernel, HotPath};
pub use slab::{Packing, StateSlab, StateView};

use lsl_graph::{EdgeId, VertexId};
use lsl_local::rng::{derive_seed, round_key, VertexRng, Xoshiro256pp};
use lsl_mrf::{Mrf, Spin};
use std::sync::Arc;

/// Phase labels under which round-local streams are derived.
const PROPOSE_LABEL: u64 = 0x5052_4f50_4f53_4500; // "PROPOSE\0"
const RESOLVE_LABEL: u64 = 0x5245_534f_4c56_4500; // "RESOLVE\0"
const EDGE_LABEL: u64 = 0x4544_4745_434f_494e; // "EDGECOIN"
const SHARED_LABEL: u64 = 0x5348_4152_4544_5244; // "SHAREDRD"

/// The randomness context of one synchronous round.
///
/// Derived once per round from `(master, round)`; hands out the
/// counter-style streams of the determinism contract.
pub struct RoundCtx<'a> {
    mrf: &'a Mrf,
    round: u64,
    propose_master: u64,
    resolve_master: u64,
    edge_master: u64,
    shared_seed: u64,
}

impl<'a> RoundCtx<'a> {
    /// The context of round `round` of the chain seeded by `master`.
    pub fn new(mrf: &'a Mrf, master: u64, round: u64) -> Self {
        let key = round_key(master, round);
        RoundCtx {
            mrf,
            round,
            propose_master: derive_seed(key, PROPOSE_LABEL, 0),
            resolve_master: derive_seed(key, RESOLVE_LABEL, 0),
            edge_master: derive_seed(key, EDGE_LABEL, 0),
            shared_seed: derive_seed(key, SHARED_LABEL, 0),
        }
    }

    /// The model being sampled.
    #[inline]
    pub fn mrf(&self) -> &'a Mrf {
        self.mrf
    }

    /// The round index (drives deterministic schedules, e.g. chromatic
    /// classes).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Vertex `v`'s private stream for the propose phase.
    #[inline]
    pub fn propose_rng(&self, v: VertexId) -> VertexRng {
        VertexRng::for_vertex(self.propose_master, v.0)
    }

    /// Vertex `v`'s private stream for the resolve phase (independent of
    /// the propose stream).
    #[inline]
    pub fn resolve_rng(&self, v: VertexId) -> VertexRng {
        VertexRng::for_vertex(self.resolve_master, v.0)
    }

    /// The shared coin of edge `e`: uniform in `[0, 1)`, identical for
    /// both endpoints (each evaluates it independently).
    #[inline]
    pub fn edge_coin(&self, e: EdgeId) -> f64 {
        Xoshiro256pp::seed_from(derive_seed(self.edge_master, EDGE_LABEL, e.0 as u64)).uniform_f64()
    }

    /// The round-shared stream: every vertex that evaluates it sees the
    /// same draws (e.g. the single-site chains' vertex selection).
    #[inline]
    pub fn shared_rng(&self) -> Xoshiro256pp {
        Xoshiro256pp::seed_from(self.shared_seed)
    }

    /// The round's shared uniformly-picked vertex (one truncation-mapped
    /// draw from the shared stream) — the single selection used by both
    /// the single-site rules and the singleton scheduler, kept in one
    /// place so their trajectories correspond under one master seed.
    #[inline]
    pub fn shared_vertex(&self) -> VertexId {
        let n = self.mrf.num_vertices();
        let i = (self.shared_rng().uniform_f64() * n as f64) as usize;
        VertexId(i.min(n.saturating_sub(1)) as u32)
    }
}

/// What a chain does at one vertex in one synchronous round.
///
/// Implementations must be pure per-vertex functions of the inputs they
/// are handed — the engine exploits this to run phases in any order (or
/// in parallel) without changing the trajectory. Rules are `Send + Sync`
/// so chains that own them are `Send` handles servable from worker
/// threads (see `lsl_core::service`).
pub trait SyncRule: Send + Sync {
    /// The per-vertex value published by the propose phase (a proposal
    /// spin, a Luby `β_v`, ...).
    type Local: Copy + Send + Sync + Default;

    /// Reusable per-worker scratch (marginal buffers, resamplers, ...).
    type Scratch: Send;

    /// Whether the propose phase runs at all (single-site rules skip it).
    const HAS_PROPOSE: bool = true;

    /// Whether `propose` reads only its stream — never the state. State-
    /// free proposals are identical across replicas coupled on one master
    /// seed, so the batched backend computes them once per round.
    const STATE_FREE_PROPOSE: bool = false;

    /// Chain name for experiment output.
    fn name(&self) -> &'static str;

    /// Builds one worker's scratch.
    fn make_scratch(&self, mrf: &Mrf) -> Self::Scratch;

    /// For single-site chains: the unique vertex that can change this
    /// round (a pure function of the round's shared stream). Engines
    /// then touch only that vertex. `None` for synchronous chains.
    fn active_vertex(&self, ctx: &RoundCtx) -> Option<VertexId> {
        let _ = ctx;
        None
    }

    /// Propose phase at `v`: draw from `rng` (and, unless
    /// [`SyncRule::STATE_FREE_PROPOSE`], read the state) and publish a
    /// local value. Generic over the state representation (see
    /// [`StateView`]): the scalar oracle hands a flat slice, packed
    /// executors hand a [`StateSlab`] — one rule body, identical
    /// trajectories.
    fn propose<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &Sv,
        rng: &mut Xoshiro256pp,
        scratch: &mut Self::Scratch,
    ) -> Self::Local;

    /// Resolve phase at `v`: combine the old state, the locals of `v`'s
    /// inclusive neighborhood, the edge coins of incident edges, and the
    /// resolve stream into `v`'s next spin.
    fn resolve<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &Sv,
        locals: &[Self::Local],
        rng: &mut Xoshiro256pp,
        scratch: &mut Self::Scratch,
    ) -> Spin;

    /// Builds this rule's lane-batched hot kernel for `mrf`, if it has
    /// one (see [`hotpath`]). `None` — the default — means the engine
    /// always runs the scalar per-vertex phases; rules that return a
    /// kernel must make it bit-identical to those phases, which stay
    /// compiled and selectable ([`HotPath::Scalar`]) as the regression
    /// oracle.
    fn hot_kernel(
        &self,
        mrf: &Arc<Mrf>,
        packing: Packing,
        block_rng: bool,
    ) -> Option<Box<dyn HotKernel<Self::Local>>> {
        let _ = (mrf, packing, block_rng);
        None
    }
}

/// How a sweep executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One vertex after another on the calling thread.
    Sequential,
    /// Fork-join over contiguous vertex ranges with scoped threads.
    /// Bit-identical to [`Backend::Sequential`] by the determinism
    /// contract.
    ///
    /// **`threads == 0` means auto-detect**: the worker count resolves
    /// to [`std::thread::available_parallelism`] (clamped to at least
    /// one worker if the probe fails) at the moment the backend is
    /// installed — see [`Backend::worker_count`].
    Parallel {
        /// Worker count (0 = auto-detect; see the variant docs).
        threads: usize,
    },
    /// Owner-computes graph shards with per-round boundary exchange;
    /// bit-identical to the other backends by the determinism contract.
    ///
    /// **`shards == 0` means auto-detect**: the shard count resolves to
    /// [`std::thread::available_parallelism`] (clamped to at least one
    /// shard if the probe fails), and executors additionally clamp it
    /// to the vertex count so a small model never gets empty shards.
    ///
    /// The sampler facade builds a [`sharded::ShardedChain`] (private
    /// state slabs, frontier buffers, communication accounting) for
    /// this backend, partitioning with
    /// [`Partition::contiguous`](lsl_graph::partition::Partition::contiguous);
    /// construct a `ShardedChain` directly to choose the partitioner.
    /// [`SyncChain`] and [`replicas::ReplicaSet`], whose state is one
    /// flat arena by design, treat it as [`Backend::Parallel`] with
    /// `shards` workers.
    Sharded {
        /// Shard count (0 = auto-detect; see the variant docs).
        shards: usize,
    },
    /// Cross-process sharding: the owner-computes plan of
    /// [`Backend::Sharded`], but with each shard owned by a separate
    /// worker *process* exchanging boundary states as `shard-sync`
    /// frames over TCP (see `lsl_core::cluster`). Run in-process (a
    /// plain `JobSpec::run`, or the facade), it falls back to the
    /// sharded executor with the same partition — bit-identical to
    /// the distributed run by the determinism contract, which is
    /// exactly what `tests/cluster_identity.rs` asserts.
    ///
    /// **`shards == 0` means auto-detect**, like [`Backend::Sharded`].
    Cluster {
        /// Shard count = worker-process count (0 = auto-detect).
        shards: usize,
    },
}

impl Backend {
    /// The number of workers this backend will use. The `0 = auto`
    /// variants resolve to [`std::thread::available_parallelism`],
    /// never less than one worker.
    pub fn worker_count(self) -> usize {
        match self {
            Backend::Sequential => 1,
            Backend::Parallel { threads: 0 }
            | Backend::Sharded { shards: 0 }
            | Backend::Cluster { shards: 0 } => {
                // NonZeroUsize: the probe cannot yield 0, and a failed
                // probe falls back to one worker.
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }
            Backend::Parallel { threads } => threads,
            Backend::Sharded { shards } | Backend::Cluster { shards } => shards,
        }
    }
}

/// Canonical spec-string form, accepted back by the `FromStr` impl:
/// `sequential`, `parallel:<threads>`, `sharded:<shards>` (0 = auto).
impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Sequential => write!(f, "sequential"),
            Backend::Parallel { threads } => write!(f, "parallel:{threads}"),
            Backend::Sharded { shards } => write!(f, "sharded:{shards}"),
            Backend::Cluster { shards } => write!(f, "cluster:{shards}"),
        }
    }
}

/// Parses the [`Display`](Backend#impl-Display-for-Backend) form;
/// `parallel` and `sharded` without a count mean auto (0).
impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let count = |arg: Option<&str>| -> Result<usize, String> {
            match arg {
                None => Ok(0),
                Some(a) => a
                    .parse::<usize>()
                    .map_err(|_| format!("backend count {a:?} is not a non-negative integer")),
            }
        };
        match name {
            "sequential" => match arg {
                None => Ok(Backend::Sequential),
                Some(a) => Err(format!("sequential takes no argument, got {a:?}")),
            },
            "parallel" => Ok(Backend::Parallel {
                threads: count(arg)?,
            }),
            "sharded" => Ok(Backend::Sharded {
                shards: count(arg)?,
            }),
            "cluster" => Ok(Backend::Cluster {
                shards: count(arg)?,
            }),
            other => Err(format!(
                "unknown backend {other:?} (expected sequential | parallel[:t] | sharded[:k] \
                 | cluster[:k])"
            )),
        }
    }
}

/// Fills `out[i] = f(offset + i, scratch)` using `workers` threads over
/// contiguous chunks. `f` must be a pure function of the index (plus
/// its captured shared references) — the chunking is then unobservable.
fn fill_indexed<T: Send, S: Send>(
    workers: usize,
    out: &mut [T],
    scratches: &mut [S],
    f: impl Fn(usize, &mut T, &mut S) + Sync,
) {
    if workers <= 1 || out.len() < 2 * workers {
        let s = &mut scratches[0];
        for (i, slot) in out.iter_mut().enumerate() {
            f(i, slot, s);
        }
        return;
    }
    let chunk = out.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, (chunk_out, scratch)) in
            out.chunks_mut(chunk).zip(scratches.iter_mut()).enumerate()
        {
            let f = &f;
            scope.spawn(move || {
                let base = ci * chunk;
                for (i, slot) in chunk_out.iter_mut().enumerate() {
                    f(base + i, slot, scratch);
                }
            });
        }
    });
}

/// Runs the propose phase of `ctx` into `locals`.
fn propose_phase<R: SyncRule>(
    rule: &R,
    ctx: &RoundCtx,
    state: &[Spin],
    locals: &mut [R::Local],
    scratches: &mut [R::Scratch],
    workers: usize,
) {
    fill_indexed(workers, locals, scratches, |i, slot, scratch| {
        let v = VertexId(i as u32);
        let mut rng = ctx.propose_rng(v);
        *slot = rule.propose(ctx, v, state, rng.raw(), scratch);
    });
}

/// Runs the resolve phase of `ctx` into `next`.
fn resolve_phase<R: SyncRule>(
    rule: &R,
    ctx: &RoundCtx,
    state: &[Spin],
    locals: &[R::Local],
    next: &mut [Spin],
    scratches: &mut [R::Scratch],
    workers: usize,
) {
    fill_indexed(workers, next, scratches, |i, slot, scratch| {
        let v = VertexId(i as u32);
        let mut rng = ctx.resolve_rng(v);
        *slot = rule.resolve(ctx, v, state, locals, rng.raw(), scratch);
    });
}

/// One full round of `rule` on `state` under `ctx`, with the single-site
/// fast path (only the active vertex is touched). `state` and `next` are
/// swapped on synchronous rounds.
#[allow(clippy::too_many_arguments)]
fn run_round<R: SyncRule>(
    rule: &R,
    ctx: &RoundCtx,
    state: &mut Vec<Spin>,
    next: &mut Vec<Spin>,
    locals: &mut [R::Local],
    scratches: &mut [R::Scratch],
    workers: usize,
) {
    if let Some(v) = rule.active_vertex(ctx) {
        let mut rng = ctx.resolve_rng(v);
        let spin = rule.resolve(ctx, v, state, locals, rng.raw(), &mut scratches[0]);
        state[v.index()] = spin;
        return;
    }
    if R::HAS_PROPOSE {
        propose_phase(rule, ctx, state, locals, scratches, workers);
    }
    resolve_phase(rule, ctx, state, locals, next, scratches, workers);
    std::mem::swap(state, next);
}

/// One chain advanced by the step engine.
///
/// The chain *owns* its model as an `Arc<Mrf>`, so it is a `'static`,
/// `Send` handle: build it, hand it to a worker thread, serve it for as
/// long as the process lives. Constructors take `impl Into<Arc<Mrf>>` —
/// pass an `Arc<Mrf>` (cheap, shared), an owned `Mrf`, or `&Mrf` (which
/// clones into a fresh handle; fine for tests, avoid in loops).
///
/// # Example
/// ```
/// use lsl_core::engine::rules::LocalMetropolisRule;
/// use lsl_core::engine::{Backend, SyncChain};
/// use lsl_graph::generators;
/// use lsl_mrf::models;
/// use std::sync::Arc;
///
/// let mrf = Arc::new(models::proper_coloring(generators::torus(6, 6), 12));
/// let mut chain = SyncChain::new(Arc::clone(&mrf), LocalMetropolisRule::new(), 7);
/// chain.set_backend(Backend::Parallel { threads: 0 });
/// chain.run(40);
/// assert!(mrf.is_feasible(chain.state()));
/// ```
pub struct SyncChain<R: SyncRule> {
    mrf: Arc<Mrf>,
    rule: R,
    backend: Backend,
    state: Vec<Spin>,
    next: Vec<Spin>,
    locals: Vec<R::Local>,
    scratches: Vec<R::Scratch>,
    /// Resolved worker count (cached at `set_backend`; probing
    /// available parallelism per round is not free).
    workers: usize,
    /// The hot-path selection (see [`HotPath`]).
    hotpath: HotPath,
    /// The rule's lane-batched kernel under `hotpath`, if any. Engaged
    /// on single-worker synchronous rounds; the scalar phases remain
    /// the multi-worker path and the oracle.
    kernel: Option<Box<dyn HotKernel<R::Local>>>,
    master: u64,
    round: u64,
    last_key: Option<(u64, u64)>,
}

impl<R: SyncRule> std::fmt::Debug for SyncChain<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncChain")
            .field("rule", &self.rule.name())
            .field("backend", &self.backend)
            .field("n", &self.state.len())
            .field("round", &self.round)
            .finish()
    }
}

impl<R: SyncRule> SyncChain<R> {
    /// Builds the chain on the deterministic default start with the
    /// sequential backend.
    pub fn new(mrf: impl Into<Arc<Mrf>>, rule: R, master: u64) -> Self {
        let mrf = mrf.into();
        let start = crate::single_site::default_start(&mrf);
        Self::with_state(mrf, rule, master, start)
    }

    /// Builds the chain from an explicit start.
    ///
    /// # Panics
    /// Panics if the configuration has the wrong length.
    pub fn with_state(mrf: impl Into<Arc<Mrf>>, rule: R, master: u64, state: Vec<Spin>) -> Self {
        let mrf = mrf.into();
        assert_eq!(state.len(), mrf.num_vertices(), "state length must be n");
        let n = state.len();
        let scratches = vec![rule.make_scratch(&mrf)];
        let hotpath = HotPath::default();
        let kernel = hotpath.build_kernel(&mrf, &rule);
        SyncChain {
            mrf,
            rule,
            backend: Backend::Sequential,
            state,
            next: vec![0; n],
            locals: vec![R::Local::default(); n],
            scratches,
            workers: 1,
            hotpath,
            kernel,
            master,
            round: 0,
            last_key: None,
        }
    }

    /// Switches the execution backend (trajectories are unaffected).
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
        let want = backend.worker_count();
        while self.scratches.len() < want {
            self.scratches.push(self.rule.make_scratch(&self.mrf));
        }
        self.workers = want;
    }

    /// Switches the hot-path selection (trajectories are unaffected —
    /// kernels are bit-identical to the scalar phases by contract, and
    /// property-tested to be).
    ///
    /// # Panics
    /// Panics if an explicitly requested packing cannot hold this
    /// model's spins (e.g. [`Packing::Bit`] with `q > 2`).
    pub fn set_hotpath(&mut self, hotpath: HotPath) {
        hotpath
            .validate_for(self.mrf.q())
            .expect("invalid hot path");
        self.hotpath = hotpath;
        self.kernel = hotpath.build_kernel(&self.mrf, &self.rule);
    }

    /// The hot-path selection in use.
    pub fn hotpath(&self) -> HotPath {
        self.hotpath
    }

    /// Whether rounds are currently served by a lane-batched kernel
    /// (rule has one, hot path enabled, single-worker backend).
    pub fn kernel_engaged(&self) -> bool {
        self.kernel.is_some() && self.workers <= 1
    }

    /// The execution backend in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The model being sampled.
    pub fn mrf(&self) -> &Mrf {
        &self.mrf
    }

    /// The owning handle of the model (cheap to clone and share).
    pub fn mrf_handle(&self) -> &Arc<Mrf> {
        &self.mrf
    }

    /// The vertex-step rule.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// The current configuration.
    pub fn state(&self) -> &[Spin] {
        &self.state
    }

    /// Overwrites the current configuration.
    ///
    /// # Panics
    /// Panics if the length is wrong.
    pub fn set_state(&mut self, state: &[Spin]) {
        assert_eq!(state.len(), self.state.len());
        self.state.copy_from_slice(state);
    }

    /// The number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The locals published by the most recent synchronous round (for
    /// instrumentation, e.g. recovering the scheduled set).
    pub fn locals(&self) -> &[R::Local] {
        &self.locals
    }

    /// The `(master, round)` pair of the most recent round, if any.
    pub fn last_round_key(&self) -> Option<(u64, u64)> {
        self.last_key
    }

    /// Advances one round using this chain's own master seed.
    pub fn step(&mut self) {
        self.step_keyed(self.master);
    }

    /// Advances one round whose randomness is keyed by an externally
    /// supplied master seed (what [`Sampler::step_keyed`] runs: copies
    /// fed the same keys at equal rounds share every draw, which
    /// realizes grand couplings driven from outside).
    ///
    /// [`Sampler::step_keyed`]: crate::sampler::Sampler::step_keyed
    pub fn step_keyed(&mut self, master: u64) {
        let ctx = RoundCtx::new(&self.mrf, master, self.round);
        let workers = self.workers.min(self.scratches.len());
        // Lane-batched fast path: single-worker synchronous rounds of a
        // rule with a kernel. Multi-worker sweeps keep the scalar
        // phases (the kernel is one strided pass; splitting it would
        // re-introduce the per-vertex plumbing it removes), as do
        // single-site rounds.
        match self.kernel.as_mut() {
            Some(kernel) if workers <= 1 && self.rule.active_vertex(&ctx).is_none() => {
                kernel.round(&ctx, &self.state, &mut self.next, &mut self.locals);
                std::mem::swap(&mut self.state, &mut self.next);
            }
            _ => run_round(
                &self.rule,
                &ctx,
                &mut self.state,
                &mut self.next,
                &mut self.locals,
                &mut self.scratches,
                workers,
            ),
        }
        self.last_key = Some((master, self.round));
        self.round += 1;
    }

    /// Advances `t` rounds.
    pub fn run(&mut self, t: usize) {
        for _ in 0..t {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule};
    use super::*;
    use lsl_graph::generators;
    use lsl_mrf::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trajectories_match<R: SyncRule + Clone>(mrf: &Mrf, rule: R, rounds: usize) {
        let mut seq = SyncChain::new(mrf, rule.clone(), 99);
        let mut par = SyncChain::new(mrf, rule, 99);
        par.set_backend(Backend::Parallel { threads: 3 });
        for r in 0..rounds {
            seq.step();
            par.step();
            assert_eq!(seq.state(), par.state(), "diverged at round {r}");
        }
    }

    #[test]
    fn local_metropolis_parallel_matches_sequential() {
        let mrf = models::proper_coloring(generators::torus(5, 5), 10);
        trajectories_match(&mrf, LocalMetropolisRule::new(), 30);
    }

    #[test]
    fn local_metropolis_soft_model_parallel_matches_sequential() {
        // Ising exercises the fractional-coin path (coins actually drawn).
        let mrf = models::ising(generators::torus(4, 4), 0.4);
        trajectories_match(&mrf, LocalMetropolisRule::new(), 30);
    }

    #[test]
    fn luby_glauber_parallel_matches_sequential() {
        let mrf = models::proper_coloring(generators::cycle(17), 5);
        trajectories_match(&mrf, LubyGlauberRule::luby(), 30);
    }

    #[test]
    fn single_site_runs_through_engine() {
        let mrf = models::proper_coloring(generators::cycle(8), 5);
        let mut chain = SyncChain::new(&mrf, GlauberRule, 3);
        chain.run(200);
        assert!(mrf.is_feasible(chain.state()));
        // Single-site fast path touches one vertex per round.
        let before = chain.state().to_vec();
        chain.step();
        let diff = before
            .iter()
            .zip(chain.state())
            .filter(|(a, b)| a != b)
            .count();
        assert!(diff <= 1);
    }

    #[test]
    fn step_keyed_is_deterministic_in_the_key() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let mut a = SyncChain::new(&mrf, LocalMetropolisRule::new(), 0);
        let mut b = SyncChain::new(&mrf, LocalMetropolisRule::new(), 0);
        let mut keys = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let k = rand::RngExt::random::<u64>(&mut keys);
            a.step_keyed(k);
            b.step_keyed(k);
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    fn worker_count_resolves() {
        assert_eq!(Backend::Sequential.worker_count(), 1);
        assert_eq!(Backend::Parallel { threads: 4 }.worker_count(), 4);
        assert!(Backend::Parallel { threads: 0 }.worker_count() >= 1);
        // The 0-means-auto contract: sharded auto-detection clamps to
        // available parallelism and never resolves below one shard.
        let auto = Backend::Sharded { shards: 0 }.worker_count();
        assert!(auto >= 1);
        assert_eq!(
            auto,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
    }

    #[test]
    fn backend_display_parses_back() {
        for b in [
            Backend::Sequential,
            Backend::Parallel { threads: 0 },
            Backend::Parallel { threads: 6 },
            Backend::Sharded { shards: 0 },
            Backend::Sharded { shards: 8 },
            Backend::Cluster { shards: 0 },
            Backend::Cluster { shards: 3 },
        ] {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert_eq!(
            "parallel".parse::<Backend>().unwrap(),
            Backend::Parallel { threads: 0 }
        );
        assert_eq!(
            "sharded".parse::<Backend>().unwrap(),
            Backend::Sharded { shards: 0 }
        );
        assert_eq!(
            "cluster".parse::<Backend>().unwrap(),
            Backend::Cluster { shards: 0 }
        );
        assert!("sequential:2".parse::<Backend>().is_err());
        assert!("gpu".parse::<Backend>().is_err());
        assert!("parallel:x".parse::<Backend>().is_err());
    }
}
