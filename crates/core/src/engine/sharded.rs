//! The sharded backend: owner-computes graph shards with boundary
//! exchange.
//!
//! The paper's model of computation is a *network*: each vertex holds
//! its own state, and per-round cost is the communication crossing
//! edges. The other backends simulate that on one flat address space;
//! this module simulates it honestly. The graph is split into `K`
//! shards by an [`lsl_graph::partition::Partition`]; each shard runs on
//! its own worker with a **private state copy** and advances only the
//! vertices it owns. Between rounds, shards exchange exactly the
//! **boundary-vertex states** the cut demands, and the exchange volume
//! is recorded per round ([`CommStats`]) so experiments can plot
//! communication against the `O(Δ·cut)` the LOCAL model charges for
//! (experiment E14).
//!
//! # The owner-computes contract
//!
//! Shard `s` maintains valid state for its owned vertices plus a
//! distance-1 **halo** (the ghost copies of neighbors owned
//! elsewhere). One round proceeds as:
//!
//! 1. **Propose** (parallel, per shard): locals are computed for the
//!    owned set *and* the halo. Halo proposals are recomputed rather
//!    than communicated — they are pure functions of
//!    `(master, round, vertex)` by the determinism contract, so owner
//!    and subscriber compute bit-identical values. This is why the
//!    backend requires [`SyncRule::STATE_FREE_PROPOSE`] of rules that
//!    propose (asserted at construction; both synchronous chains
//!    qualify, and the single-site rules have no propose phase).
//! 2. **Resolve** (parallel, per shard): each owned vertex combines its
//!    neighborhood's states and locals — all within the shard's valid
//!    region — into its next spin, written to a per-shard next buffer.
//!
//!    Steps 1–2 run as the shard's lane-batched kernel
//!    ([`super::hotpath`]) over its owned set and halo whenever the
//!    rule has one and the hot path is enabled (the default): the
//!    kernel fills the round's block RNG over owned ∪ halo and
//!    evaluates every edge with an owned endpoint — a cut edge is
//!    decided by both shards that see it, identically. Otherwise (under
//!    `hotpath=scalar`, or for rules without a kernel) they run the
//!    scalar per-vertex phases.
//! 3. **Exchange** (the only cross-shard step): owners publish their
//!    frontier states and one `Exchange` routes each to every
//!    subscribing halo. One state crossing one shard boundary is one
//!    message. The cluster coordinator ([`crate::cluster`]) runs the
//!    same `Exchange` over frontiers that arrive by wire, so both tiers
//!    count communication with one piece of code.
//!
//! Because every random draw of round `r` is already keyed by
//! `(master, r, vertex-or-edge)`, sharded trajectories are
//! **bit-identical** to the sequential backend by construction, for
//! every partition — property-tested across partitioners, algorithms,
//! and schedulers in `tests/sharded.rs`.

use super::{
    assert_in_domain, round_pool, HotKernel, HotPath, KernelRange, Packing, RoundCtx, RoundPool,
    SyncRule,
};
use lsl_graph::partition::Partition;
use lsl_graph::{Graph, VertexId};
use lsl_mrf::{Mrf, Spin};
use std::sync::Arc;

/// The boundary structure a [`Partition`] induces: per shard, the halo
/// it subscribes to and the owned frontier it publishes, plus one
/// [`Route`] per (boundary vertex, subscriber) pair. Owned by an
/// [`Exchange`], which the in-process [`ShardedChain`] and the cluster
/// coordinator both build from the same partition.
pub(crate) struct ExchangePlan {
    /// Per-shard halo: vertices owned elsewhere whose state the shard
    /// must mirror (ascending).
    pub(crate) halos: Vec<Vec<VertexId>>,
    /// Per-shard published frontier: owned vertices some other shard's
    /// halo subscribes to (ascending).
    pub(crate) boundary_out: Vec<Vec<VertexId>>,
    /// Every (boundary vertex, subscriber) pair, sorted by vertex —
    /// one message each when the vertex ships.
    routes: Vec<Route>,
}

/// Where one boundary state travels: from slot `from` of its owner's
/// frontier to slot `to` of a subscriber's halo.
#[derive(Clone, Copy)]
struct Route {
    vertex: VertexId,
    owner: usize,
    from: usize,
    subscriber: usize,
    to: usize,
}

impl ExchangePlan {
    /// Computes the plan of a partition: per-shard distance-1 halos,
    /// the frontiers they subscribe to, and the routes between them.
    fn new(g: &Graph, partition: &Partition) -> Self {
        let k = partition.num_shards();
        let halos: Vec<Vec<VertexId>> = (0..k)
            .map(|s| {
                let mut halo: Vec<VertexId> = partition
                    .members(s)
                    .iter()
                    .flat_map(|&v| g.neighbors(v))
                    .filter(|&u| partition.shard_of(u) != s)
                    .collect();
                halo.sort_unstable();
                halo.dedup();
                halo
            })
            .collect();
        let mut routes: Vec<Route> = halos
            .iter()
            .enumerate()
            .flat_map(|(subscriber, halo)| {
                halo.iter().enumerate().map(move |(to, &vertex)| Route {
                    vertex,
                    owner: partition.shard_of(vertex),
                    from: 0,
                    subscriber,
                    to,
                })
            })
            .collect();
        routes.sort_unstable_by_key(|r| (r.vertex, r.subscriber));
        // Frontiers come out ascending because the routes are sorted.
        let mut boundary_out: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for r in &mut routes {
            let frontier = &mut boundary_out[r.owner];
            if frontier.last() != Some(&r.vertex) {
                frontier.push(r.vertex);
            }
            r.from = frontier.len() - 1;
        }
        ExchangePlan {
            halos,
            boundary_out,
            routes,
        }
    }

    /// The routes a round ships: all of them on a synchronous round,
    /// only the active vertex's on a single-site round (none when it
    /// is interior to its shard).
    fn routes_of(&self, active: Option<VertexId>) -> &[Route] {
        match active {
            None => &self.routes,
            Some(v) => {
                let lo = self.routes.partition_point(|r| r.vertex < v);
                let len = self.routes[lo..].partition_point(|r| r.vertex == v);
                &self.routes[lo..lo + len]
            }
        }
    }
}

/// The boundary exchange of one sharded chain, counted once: the
/// [`ExchangePlan`], each shard's published frontier, each subscriber's
/// ghost copies, and the [`CommStats`] record. Owners publish into it,
/// [`Exchange::ship`] routes and accounts a round, and subscribers read
/// their halo values back: the in-process [`ShardedChain`] through the
/// delivery callback, the cluster coordinator through
/// [`Exchange::halo`].
pub(crate) struct Exchange {
    plan: ExchangePlan,
    /// Published values, parallel to `plan.boundary_out`.
    frontiers: Vec<Vec<Spin>>,
    /// Last received values, parallel to `plan.halos`.
    ghosts: Vec<Vec<Spin>>,
    /// The packed width, which the byte accounting charges for.
    bits_per_spin: u32,
    comm: CommStats,
}

impl Exchange {
    /// The exchange of `partition` over `mrf`'s graph, ghost copies
    /// seeded from the start configuration `state`.
    pub(crate) fn new(mrf: &Mrf, partition: &Partition, state: &[Spin]) -> Self {
        let plan = ExchangePlan::new(mrf.graph(), partition);
        let mut exchange = Exchange {
            frontiers: plan.boundary_out.iter().map(|f| vec![0; f.len()]).collect(),
            ghosts: Vec::new(),
            plan,
            bits_per_spin: Packing::auto_for(mrf.q()).bits_per_spin(),
            comm: CommStats::default(),
        };
        exchange.reset(state);
        exchange
    }

    /// The boundary structure.
    pub(crate) fn plan(&self) -> &ExchangePlan {
        &self.plan
    }

    /// The communication record so far.
    pub(crate) fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// Overwrites every ghost copy from a full configuration.
    fn reset(&mut self, state: &[Spin]) {
        let halo_of = |h: &Vec<VertexId>| h.iter().map(|v| state[v.index()]).collect();
        self.ghosts = self.plan.halos.iter().map(halo_of).collect();
    }

    /// Shard `s`'s frontier buffer, for the owner to publish into
    /// (parallel to `plan().boundary_out[s]`).
    pub(crate) fn frontier_mut(&mut self, s: usize) -> &mut [Spin] {
        &mut self.frontiers[s]
    }

    /// Publishes one vertex's new state — all a single-site round
    /// changes. A no-op for vertices interior to their shard.
    fn publish(&mut self, v: VertexId, spin: Spin) {
        if let Some(r) = self.plan.routes_of(Some(v)).first() {
            self.frontiers[r.owner][r.from] = spin;
        }
    }

    /// Shard `s`'s halo values as of the last [`Exchange::ship`]
    /// (parallel to `plan().halos[s]`).
    pub(crate) fn halo(&self, s: usize) -> &[Spin] {
        &self.ghosts[s]
    }

    /// Ships round `round`'s published states into the ghost copies —
    /// all of them on a synchronous round, only `active`'s on a
    /// single-site round — calling `deliver(subscriber, vertex, spin)`
    /// per message, and accounts the round.
    pub(crate) fn ship(
        &mut self,
        round: u64,
        active: Option<VertexId>,
        mut deliver: impl FnMut(usize, VertexId, Spin),
    ) {
        let routes = self.plan.routes_of(active);
        let mut changed = 0u64;
        for r in routes {
            let spin = self.frontiers[r.owner][r.from];
            let ghost = &mut self.ghosts[r.subscriber][r.to];
            changed += u64::from(*ghost != spin);
            *ghost = spin;
            deliver(r.subscriber, r.vertex, spin);
        }
        self.comm
            .record(round, routes.len() as u64, changed, self.bits_per_spin);
    }
}

/// One shard's private execution state — the per-shard unit shared by
/// the in-process [`ShardedChain`] and the cross-process cluster
/// workers ([`crate::cluster`]). Both advance it with the same
/// [`ShardCore::advance`], which is what makes distributed trajectories
/// bit-identical to local ones by construction.
pub(crate) struct ShardCore<R: SyncRule> {
    /// Vertices this shard owns (ascending).
    owned: Vec<VertexId>,
    /// Halo vertices (ascending). Owned ∪ halo is the set whose state
    /// entries are maintained, and over which proposals are computed.
    halo: Vec<VertexId>,
    /// Owned frontier vertices (ascending).
    boundary_out: Vec<VertexId>,
    /// Full-length private state. Global indexing keeps the
    /// [`SyncRule`] and [`HotKernel`] interfaces unchanged; only owned
    /// and halo entries are maintained, everything else goes stale
    /// after round 0.
    state: Vec<Spin>,
    /// Next spins of owned vertices (parallel to `owned`) — the private
    /// half of the double buffering.
    next_owned: Vec<Spin>,
    /// Full-length locals, allocated on first use (a kernel shard
    /// needs them only as the default-valued stand-ins of single-site
    /// rounds); valid at owned ∪ halo after a scalar propose.
    locals: Vec<R::Local>,
    scratch: R::Scratch,
    /// The rule's lane-batched kernel over this shard's owned set and
    /// halo, if the hot path and the rule provide one; `None` runs the
    /// scalar phases.
    kernel: Option<Box<dyn HotKernel>>,
}

impl<R: SyncRule> ShardCore<R> {
    /// Builds shard `s`'s core from the shared plan and a full start
    /// configuration, with its kernel under `hotpath`.
    ///
    /// # Panics
    /// Panics if the rule has a state-dependent propose phase (see the
    /// module docs for the owner-computes contract).
    pub(crate) fn build(
        mrf: &Arc<Mrf>,
        rule: &R,
        partition: &Partition,
        plan: &ExchangePlan,
        s: usize,
        state: &[Spin],
        hotpath: HotPath,
    ) -> Self {
        assert!(
            !R::HAS_PROPOSE || R::STATE_FREE_PROPOSE,
            "the sharded backend recomputes halo proposals locally, which \
             requires state-free proposals (SyncRule::STATE_FREE_PROPOSE)"
        );
        let owned: Vec<VertexId> = partition.members(s).to_vec();
        let halo = plan.halos[s].clone();
        let next_owned = vec![0; owned.len()];
        let mut core = ShardCore {
            owned,
            halo,
            boundary_out: plan.boundary_out[s].clone(),
            state: state.to_vec(),
            next_owned,
            locals: Vec::new(),
            scratch: rule.make_scratch(mrf),
            kernel: None,
        };
        core.set_hotpath(mrf, rule, hotpath);
        core
    }

    /// Rebuilds this shard's kernel under `hotpath`.
    fn set_hotpath(&mut self, mrf: &Arc<Mrf>, rule: &R, hotpath: HotPath) {
        let range = KernelRange::new(mrf.graph(), &self.owned);
        self.kernel = hotpath.build_kernel(mrf, rule, range);
    }

    /// Advances this shard through the round `ctx` keys, whose active
    /// vertex (if any) is `active`. A single-site round resolves and
    /// commits the active vertex when this shard owns it and does
    /// nothing otherwise; a synchronous round proposes over owned ∪
    /// halo (halo proposals recomputed locally — see the module docs),
    /// resolves the owned vertices, and commits them — through the
    /// shard's kernel when it has one, else the scalar phases.
    pub(crate) fn advance(&mut self, rule: &R, ctx: &RoundCtx, active: Option<VertexId>) {
        if (active.is_some() || self.kernel.is_none()) && self.locals.is_empty() {
            self.locals = vec![R::Local::default(); self.state.len()];
        }
        match active {
            Some(v) => {
                if self.owned.binary_search(&v).is_ok() {
                    // Single-site rules skip the propose phase, so the
                    // (default-valued) locals stand in, exactly as in
                    // the flat backends.
                    let mut rng = ctx.resolve_rng(v);
                    self.state[v.index()] = rule.resolve(
                        ctx,
                        v,
                        &self.state,
                        &self.locals,
                        rng.raw(),
                        &mut self.scratch,
                    );
                }
            }
            None => {
                // Resolve into the private next buffer, then commit: no
                // state entry is written while the round still reads it.
                if let Some(kernel) = self.kernel.as_mut() {
                    kernel.advance(ctx, &self.state, &mut self.next_owned);
                } else {
                    if R::HAS_PROPOSE {
                        for &v in self.owned.iter().chain(&self.halo) {
                            let mut rng = ctx.propose_rng(v);
                            self.locals[v.index()] =
                                rule.propose(ctx, v, &self.state, rng.raw(), &mut self.scratch);
                        }
                    }
                    for (i, &v) in self.owned.iter().enumerate() {
                        let mut rng = ctx.resolve_rng(v);
                        self.next_owned[i] = rule.resolve(
                            ctx,
                            v,
                            &self.state,
                            &self.locals,
                            rng.raw(),
                            &mut self.scratch,
                        );
                    }
                }
                for (&v, &spin) in self.owned.iter().zip(&self.next_owned) {
                    self.state[v.index()] = spin;
                }
            }
        }
    }

    /// Copies the owned vertices' states into a full configuration
    /// (valid after a synchronous round, from its next buffer).
    fn mirror_into(&self, state: &mut [Spin]) {
        for (i, &v) in self.owned.iter().enumerate() {
            state[v.index()] = self.next_owned[i];
        }
    }

    /// The state at `v` (valid for owned and halo vertices).
    fn get(&self, v: VertexId) -> Spin {
        self.state[v.index()]
    }

    /// Writes the frontier's states into `out` (parallel to
    /// `boundary_out`).
    pub(crate) fn publish(&self, out: &mut [Spin]) {
        for (o, &v) in out.iter_mut().zip(&self.boundary_out) {
            *o = self.get(v);
        }
    }

    /// Overwrites one ghost copy with a delivered state.
    fn set_ghost(&mut self, v: VertexId, spin: Spin) {
        self.state[v.index()] = spin;
    }

    /// Overwrites the whole halo (parallel to `halo`).
    pub(crate) fn set_halo(&mut self, spins: &[Spin]) {
        for (&v, &spin) in self.halo.iter().zip(spins) {
            self.state[v.index()] = spin;
        }
    }

    /// The owned vertices' states, in `owned` order.
    pub(crate) fn owned_spins(&self) -> Vec<Spin> {
        self.owned.iter().map(|&v| self.get(v)).collect()
    }

    /// Refreshes every maintained state entry from a full
    /// configuration.
    fn refresh(&mut self, state: &[Spin]) {
        for &v in self.owned.iter().chain(&self.halo) {
            self.state[v.index()] = state[v.index()];
        }
    }
}

/// Per-round boundary-communication record of a [`ShardedChain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundComm {
    /// The round the exchange followed.
    pub round: u64,
    /// Boundary-vertex states that crossed a shard boundary (one
    /// vertex-state to one subscriber = one message).
    pub messages: u64,
    /// Payload bytes at the exchange packing ([`Packing::auto_for`]):
    /// `ceil(messages × bits_per_spin / 8)` — 1 byte per message for
    /// `q ≤ 256`, 1 *bit* per message for two-spin models.
    pub bytes: u64,
    /// Messages whose state actually differed from the subscriber's
    /// ghost copy — the volume a delta-compressing implementation
    /// would send.
    pub changed: u64,
}

/// Per-round records retained before the history stops growing (the
/// running totals keep counting): bounds memory on long-lived chains
/// at ~2 MiB.
const MAX_ROUND_RECORDS: usize = 1 << 16;

/// Boundary-communication accounting of a [`ShardedChain`]: one
/// [`RoundComm`] per executed round (up to a retention cap) plus
/// running totals over *all* rounds.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    rounds: Vec<RoundComm>,
    rounds_seen: u64,
    total_messages: u64,
    total_bytes: u64,
    total_changed: u64,
}

impl CommStats {
    /// The per-round records, oldest first. Only the first `2^16`
    /// rounds since the last [`CommStats::clear`] are retained; the
    /// totals keep counting past the cap.
    pub fn per_round(&self) -> &[RoundComm] {
        &self.rounds
    }

    /// Number of rounds accounted for (including any past the
    /// per-round retention cap).
    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen
    }

    /// Total messages across all accounted rounds.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Total payload bytes across all accounted rounds.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total changed-state messages across all accounted rounds (see
    /// [`RoundComm::changed`]).
    pub fn total_changed(&self) -> u64 {
        self.total_changed
    }

    /// Drops the per-round history and totals (and re-arms the
    /// per-round retention cap).
    pub fn clear(&mut self) {
        self.rounds.clear();
        self.rounds_seen = 0;
        self.total_messages = 0;
        self.total_bytes = 0;
        self.total_changed = 0;
    }

    /// Accounts one round — called only by [`Exchange::ship`].
    fn record(&mut self, round: u64, messages: u64, changed: u64, bits_per_spin: u32) {
        let bytes = (messages * u64::from(bits_per_spin)).div_ceil(8);
        if self.rounds.len() < MAX_ROUND_RECORDS {
            self.rounds.push(RoundComm {
                round,
                messages,
                bytes,
                changed,
            });
        }
        self.rounds_seen += 1;
        self.total_messages += messages;
        self.total_bytes += bytes;
        self.total_changed += changed;
    }
}

/// One chain advanced by owner-computes shards with boundary exchange.
///
/// Bit-identical to [`SyncChain`](super::SyncChain) under
/// [`Backend::Sequential`](super::Backend::Sequential) for every
/// partition, by the determinism contract. The facade builds one of
/// these for `.backend(Backend::Sharded { .. })`.
///
/// Like [`SyncChain`](super::SyncChain), the chain *owns* its model as
/// an `Arc<Mrf>` (constructors take `impl Into<Arc<Mrf>>`), so it is a
/// `'static`, `Send` handle servable from worker threads.
///
/// # Example
/// ```
/// use lsl_core::engine::sharded::ShardedChain;
/// use lsl_core::engine::rules::LocalMetropolisRule;
/// use lsl_graph::partition::Partition;
/// use lsl_graph::generators;
/// use lsl_mrf::models;
/// use std::sync::Arc;
///
/// let mrf = Arc::new(models::proper_coloring(generators::torus(6, 6), 12));
/// let part = Partition::bfs(mrf.graph(), 4);
/// let mut chain = ShardedChain::new(Arc::clone(&mrf), LocalMetropolisRule::new(), 7, part);
/// chain.run(40);
/// assert!(mrf.is_feasible(chain.state()));
/// assert!(chain.comm().total_messages() > 0);
/// ```
pub struct ShardedChain<R: SyncRule> {
    mrf: Arc<Mrf>,
    rule: R,
    partition: Partition,
    shards: Vec<ShardCore<R>>,
    /// One worker per shard (shard `s` always advances on worker `s`),
    /// or none for a small model (see [`round_pool`]).
    pool: RoundPool,
    exchange: Exchange,
    /// The hot-path selection every shard's kernel follows.
    hotpath: HotPath,
    /// Canonical observer-facing configuration, refreshed from the
    /// owners every round.
    state: Vec<Spin>,
    master: u64,
    round: u64,
    last_key: Option<(u64, u64)>,
}

impl<R: SyncRule> std::fmt::Debug for ShardedChain<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedChain")
            .field("rule", &self.rule.name())
            .field("shards", &self.partition.num_shards())
            .field("n", &self.state.len())
            .field("round", &self.round)
            .finish()
    }
}

impl<R: SyncRule> ShardedChain<R> {
    /// Builds the sharded chain on the deterministic default start.
    ///
    /// # Panics
    /// Panics if the partition does not cover `mrf`'s vertices, or if
    /// the rule has a state-dependent propose phase (see the module
    /// docs for the owner-computes contract).
    pub fn new(mrf: impl Into<Arc<Mrf>>, rule: R, master: u64, partition: Partition) -> Self {
        let mrf = mrf.into();
        let start = crate::single_site::default_start(&mrf);
        Self::with_state(mrf, rule, master, start, partition)
    }

    /// Builds the sharded chain from an explicit start, with the
    /// default hot path.
    ///
    /// # Panics
    /// As [`ShardedChain::new`], plus if the configuration has the
    /// wrong length or a spin outside the model's domain.
    pub fn with_state(
        mrf: impl Into<Arc<Mrf>>,
        rule: R,
        master: u64,
        state: Vec<Spin>,
        partition: Partition,
    ) -> Self {
        Self::configured(mrf, rule, master, state, partition, HotPath::default())
    }

    /// Builds the sharded chain from an explicit start for its final
    /// hot path: each shard's kernel is built once (what the sampler
    /// facade builds). Equivalent to [`ShardedChain::with_state`]
    /// followed by [`ShardedChain::set_hotpath`], without the kernels
    /// that would build and drop.
    ///
    /// # Panics
    /// As [`ShardedChain::with_state`].
    pub fn configured(
        mrf: impl Into<Arc<Mrf>>,
        rule: R,
        master: u64,
        state: Vec<Spin>,
        partition: Partition,
        hotpath: HotPath,
    ) -> Self {
        let mrf = mrf.into();
        let n = mrf.num_vertices();
        assert_eq!(state.len(), n, "state length must be n");
        assert_in_domain(&state, mrf.q());
        assert_eq!(
            partition.len(),
            n,
            "partition covers {} vertices, model has {n}",
            partition.len()
        );
        let exchange = Exchange::new(&mrf, &partition, &state);
        let shards = (0..partition.num_shards())
            .map(|s| ShardCore::build(&mrf, &rule, &partition, exchange.plan(), s, &state, hotpath))
            .collect();
        ShardedChain {
            mrf,
            rule,
            pool: round_pool(partition.num_shards(), n),
            partition,
            shards,
            exchange,
            hotpath,
            state,
            master,
            round: 0,
            last_key: None,
        }
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

    /// The partition the shards follow.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of shards `K`.
    pub fn num_shards(&self) -> usize {
        self.partition.num_shards()
    }

    /// The packing the exchange accounting charges for
    /// ([`Packing::auto_for`] the model's `q`).
    pub fn packing(&self) -> Packing {
        Packing::auto_for(self.mrf.q())
    }

    /// Switches every shard's hot-path selection (trajectories are
    /// unaffected — kernels are bit-identical to the scalar phases).
    pub fn set_hotpath(&mut self, hotpath: HotPath) {
        self.hotpath = hotpath;
        for w in &mut self.shards {
            w.set_hotpath(&self.mrf, &self.rule, hotpath);
        }
    }

    /// The hot-path selection in use.
    pub fn hotpath(&self) -> HotPath {
        self.hotpath
    }

    /// Whether synchronous rounds are served by lane-batched kernels,
    /// one per shard over its owned set and halo (the rule has one and
    /// the hot path is enabled).
    pub fn kernel_engaged(&self) -> bool {
        self.shards.iter().all(|w| w.kernel.is_some())
    }

    /// The current configuration.
    pub fn state(&self) -> &[Spin] {
        &self.state
    }

    /// Overwrites the current configuration (every shard's private
    /// state is refreshed in its maintained region).
    ///
    /// # Panics
    /// Panics if the length is wrong or a spin is outside the model's
    /// domain.
    pub fn set_state(&mut self, state: &[Spin]) {
        assert_eq!(state.len(), self.state.len());
        assert_in_domain(state, self.mrf.q());
        self.state.copy_from_slice(state);
        for w in &mut self.shards {
            w.refresh(state);
        }
        self.exchange.reset(state);
    }

    /// The number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The `(master, round)` pair of the most recent round, if any.
    pub fn last_round_key(&self) -> Option<(u64, u64)> {
        self.last_key
    }

    /// The boundary-communication record so far.
    pub fn comm(&self) -> &CommStats {
        self.exchange.comm()
    }

    /// Clears the boundary-communication record (e.g. after burn-in).
    pub fn reset_comm(&mut self) {
        self.exchange.comm.clear();
    }

    /// Advances one round using this chain's own master seed.
    pub fn step(&mut self) {
        self.step_keyed(self.master);
    }

    /// Advances one round keyed by an externally supplied master seed
    /// (the sharded counterpart of
    /// [`SyncChain::step_keyed`](super::SyncChain::step_keyed)).
    pub fn step_keyed(&mut self, master: u64) {
        // A cheap handle clone keeps `ctx` independent of `self`, so the
        // shards can be borrowed mutably below.
        let mrf = Arc::clone(&self.mrf);
        let ctx = &RoundCtx::new(&mrf, master, self.round);
        let rule = &self.rule;
        let active = rule.active_vertex(ctx);
        // Every shard advances; only a synchronous round has enough
        // work per shard to be worth a worker each (the calling thread
        // takes the first shard).
        if active.is_some() {
            for w in &mut self.shards {
                w.advance(rule, ctx, active);
            }
        } else {
            self.pool
                .run(&mut self.shards, |_, w| w.advance(rule, ctx, None));
        }

        // Owners publish into the exchange and the canonical mirror —
        // on a single-site round, only the active vertex moved.
        match active {
            Some(v) => {
                let spin = self.shards[self.partition.shard_of(v)].get(v);
                self.state[v.index()] = spin;
                self.exchange.publish(v, spin);
            }
            None => {
                for (s, w) in self.shards.iter().enumerate() {
                    w.mirror_into(&mut self.state);
                    w.publish(self.exchange.frontier_mut(s));
                }
            }
        }
        let shards = &mut self.shards;
        self.exchange.ship(self.round, active, |s, v, spin| {
            shards[s].set_ghost(v, spin)
        });
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
    use super::*;
    use crate::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule};
    use crate::engine::SyncChain;
    use lsl_graph::generators;
    use lsl_mrf::models;

    #[test]
    fn sharded_matches_sequential_trajectory() {
        let mrf = models::proper_coloring(generators::torus(5, 5), 10);
        let part = Partition::contiguous(mrf.graph(), 4);
        let mut seq = SyncChain::new(&mrf, LocalMetropolisRule::new(), 42);
        let mut sharded = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 42, part);
        for r in 0..30 {
            seq.step();
            sharded.step();
            assert_eq!(seq.state(), sharded.state(), "diverged at round {r}");
        }
    }

    #[test]
    fn single_shard_sends_nothing() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let part = Partition::contiguous(mrf.graph(), 1);
        let mut chain = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 7, part);
        chain.run(10);
        assert_eq!(chain.comm().total_messages(), 0);
        assert_eq!(chain.comm().per_round().len(), 10);
    }

    #[test]
    fn synchronous_round_messages_are_bounded_by_twice_the_cut() {
        // One message per (boundary vertex, subscriber) pair; each cut
        // edge induces at most two such pairs.
        let mrf = models::proper_coloring(generators::torus(6, 6), 12);
        for k in [2, 3, 4] {
            let part = Partition::bfs(mrf.graph(), k);
            let cut = part.stats(mrf.graph()).cut_size as u64;
            let mut chain = ShardedChain::new(&mrf, LubyGlauberRule::luby(), 3, part);
            chain.run(5);
            // q = 12 packs into byte lanes: one byte per message.
            assert_eq!(chain.packing(), Packing::Byte);
            for rc in chain.comm().per_round() {
                assert!(rc.messages > 0, "a cut partition must communicate");
                assert!(rc.messages <= 2 * cut, "{} > 2*{cut}", rc.messages);
                assert_eq!(rc.bytes, rc.messages);
                assert!(rc.changed <= rc.messages);
            }
        }
    }

    #[test]
    fn two_spin_models_exchange_bits() {
        // Ising spins pack into bit lanes: a round's payload is
        // ceil(messages / 8) bytes, not 4 bytes per message.
        let mrf = models::ising(generators::torus(6, 6), 0.3);
        let part = Partition::bfs(mrf.graph(), 3);
        let mut chain = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 9, part);
        assert_eq!(chain.packing(), Packing::Bit);
        chain.run(5);
        for rc in chain.comm().per_round() {
            assert!(rc.messages > 0);
            assert_eq!(rc.bytes, rc.messages.div_ceil(8));
        }
    }

    #[test]
    fn single_site_rounds_ship_at_most_the_active_vertex() {
        let mrf = models::proper_coloring(generators::cycle(12), 5);
        let part = Partition::contiguous(mrf.graph(), 3);
        let mut chain = ShardedChain::new(&mrf, GlauberRule, 11, part);
        let mut seq = SyncChain::new(&mrf, GlauberRule, 11);
        for _ in 0..200 {
            chain.step();
            seq.step();
            assert_eq!(chain.state(), seq.state());
        }
        let max_degree = mrf.graph().max_degree() as u64;
        for rc in chain.comm().per_round() {
            assert!(rc.messages <= max_degree, "one vertex to ≤ Δ shards");
        }
    }

    #[test]
    fn set_state_reaches_every_slab() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let part = Partition::bfs(mrf.graph(), 4);
        let mut a = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 5, part.clone());
        let mut b = SyncChain::new(&mrf, LocalMetropolisRule::new(), 5);
        a.run(7);
        b.run(7);
        let fresh = crate::single_site::default_start(&mrf);
        a.set_state(&fresh);
        b.set_state(&fresh);
        for _ in 0..10 {
            a.step();
            b.step();
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    #[should_panic(expected = "state spins must be below q")]
    fn configured_rejects_a_spin_outside_the_domain() {
        let mrf = models::ising(generators::torus(4, 4), 0.4);
        let part = Partition::contiguous(mrf.graph(), 2);
        let mut state = vec![0; 16];
        state[9] = 2;
        let _ = ShardedChain::with_state(&mrf, LocalMetropolisRule::new(), 1, state, part);
    }

    #[test]
    fn reset_comm_clears_history() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let part = Partition::contiguous(mrf.graph(), 2);
        let mut chain = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 1, part);
        chain.run(5);
        assert!(chain.comm().total_messages() > 0);
        chain.reset_comm();
        assert_eq!(chain.comm().total_messages(), 0);
        assert!(chain.comm().per_round().is_empty());
    }
}
