//! Lane-batched hot kernels for the synchronous chains.
//!
//! The scalar engine phases ([`super::SyncRule::propose`] /
//! [`super::SyncRule::resolve`]) pay a fixed per-vertex toll: a
//! generator construction per phase per vertex (six SplitMix64 steps
//! each, drawn from or not), an edge-coin stream construction per
//! *endpoint* (each shared coin is evaluated twice), and a normalizing
//! division per filter factor. None of that is the chain — it is
//! plumbing. A [`HotKernel`] removes it by restructuring one round as a
//! few strided passes over packed lanes:
//!
//! * **block RNG** — the round's single-draw randomness (proposal
//!   draws, scheduler marks, edge coins) is generated once per phase as
//!   a block of stream *heads* gathered over the range
//!   ([`lsl_local::rng::fill_stream_heads_at`]). The per-index streams are
//!   unchanged — each head is still the pure function of
//!   `(master, round, vertex-or-edge)` the determinism contract
//!   demands — so trajectories are provably unchanged, and each edge
//!   coin is computed **once**, not once per endpoint. Proposals are
//!   counted off each vertex kind's breakpoint table
//!   ([`lsl_mrf::VertexActivity::breakpoints`]) rather than walked
//!   down the sampler's ladder — for a single-kind model in one
//!   compare-and-add pass per breakpoint, runtime-dispatched to
//!   AVX2/AVX-512 clones like the head fills — and marks are functions
//!   of one head ([`crate::schedule::VertexScheduler::mark`]).
//! * **packed lanes** — LocalMetropolis states and proposals live in
//!   `u8` lanes (`u32` lanes above `q = 256`: the lane width follows
//!   `q`, it is not an option), so the edge pass's endpoint gathers
//!   touch a quarter of the cache lines.
//! * **precomputed filter tables** — the LocalMetropolis factors
//!   `Ã_e(a, b)` are tabled per edge *kind* at construction (the same
//!   `get / max` division, done `q²` times instead of `3·2m` times per
//!   round). Hard models also table `Ã_e(a, b) > 0` as bytes, so their
//!   edge pass ANDs bytes instead of multiplying `f64` factors, and
//!   soft `q = 2` models table the whole filter product per state
//!   nibble.
//! * **edge-pass selection, gathered resolve heads** — LubyGlauber's
//!   selection rule runs as one branch-free pass over the range's
//!   edges (each scheduler's per-neighbour test, ANDed into both
//!   endpoints), the selected owned vertices compact into an id list,
//!   and one gathered block of resolve-stream heads — one per selected
//!   vertex; the scalar path builds a generator for all `n` — drives
//!   the heat-bath resamples over kernel-local activity tables. The
//!   selected set is independent, so every write is conflict-free and
//!   the kernel writes `next` straight from `state`.
//!
//! A kernel advances one [`KernelRange`]: an owned vertex set plus its
//! distance-1 halo. Halo proposals, marks and edge coins are recomputed
//! rather than communicated — each is a pure function of
//! `(master, round, id)` — and only edges with an owned endpoint are
//! evaluated, so a cut edge is decided identically by both ranges that
//! see it and every write lands on an owned vertex. That one entry
//! serves every backend: `sequential` runs the whole graph as one
//! range, `parallel:k` one contiguous range per worker, and each shard
//! of `sharded:k` / `cluster:k` its owned set.
//!
//! Every kernel is **bit-identical** to the scalar phases by
//! construction, and property-tested to be (`tests/hotpath_identity.rs`). The
//! scalar path stays compiled and selectable ([`HotPath::Scalar`]) as
//! the regression oracle.

use super::{RoundCtx, EDGE_LABEL};
use crate::schedule::VertexScheduler;
use crate::update::Resampler;
use lsl_graph::{EdgeId, Graph, VertexId};
use lsl_local::rng::{
    fill_stream_heads, fill_stream_heads_at, head_to_f64, SimdLevel, VERTEX_STREAM_LABEL,
};
use lsl_mrf::{Mrf, Spin};
use std::sync::Arc;

/// Which implementation serves a chain's synchronous rounds.
///
/// The default is the lane-batched hot path — always bit-identical to
/// [`HotPath::Scalar`], which remains available as the regression
/// oracle. The selection applies on every backend: kernels advance the
/// whole graph on `sequential`, one contiguous range per worker on
/// `parallel:k`, and each shard's owned set on `sharded:k` and
/// `cluster:k`. Single-site rounds and rules without a kernel always
/// run the scalar phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HotPath {
    /// The scalar per-vertex phases — the oracle.
    Scalar,
    /// Lane-batched kernels: block-filled stream heads, `u8` lanes for
    /// `q ≤ 256` (`u32` above), filter tables per edge kind.
    #[default]
    Lanes,
}

impl HotPath {
    /// Builds `rule`'s kernel over `range` under this selection: `None`
    /// for [`HotPath::Scalar`] and for rules without a kernel — the
    /// engine then runs the scalar phases.
    pub fn build_kernel<R: super::SyncRule>(
        &self,
        mrf: &Arc<Mrf>,
        rule: &R,
        range: KernelRange,
    ) -> Option<Box<dyn HotKernel>> {
        match self {
            HotPath::Scalar => None,
            HotPath::Lanes => rule.hot_kernel(mrf, range),
        }
    }
}

/// Canonical spec-string form, accepted back by the `FromStr` impl:
/// `scalar` or `lanes`.
impl std::fmt::Display for HotPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HotPath::Scalar => "scalar",
            HotPath::Lanes => "lanes",
        })
    }
}

impl std::str::FromStr for HotPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(HotPath::Scalar),
            "lanes" => Ok(HotPath::Lanes),
            _ => Err(format!("unknown hot path {s:?} (expected scalar | lanes)")),
        }
    }
}

/// The vertex set one kernel advances: an owned set plus its distance-1
/// halo, indexed locally (`0..len()`, ascending global id).
///
/// The whole graph is the identity range (no index lists at all — its
/// block fills and loads are the plain contiguous ones).
///
/// # Example
/// ```
/// use lsl_core::engine::hotpath::KernelRange;
/// use lsl_graph::generators;
///
/// let g = generators::cycle(8);
/// let range = KernelRange::contiguous(&g, 2..5);
/// assert_eq!(range.num_owned(), 3);
/// assert_eq!(range.len(), 5); // owned 2, 3, 4 plus halo 1 and 5
/// assert_eq!(KernelRange::whole(&g).len(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct KernelRange {
    /// Owned ∪ halo, ascending: local index → global vertex id.
    /// `None` for the whole graph (the identity on `0..len`).
    verts: Option<Vec<u32>>,
    owned: Owned,
    len: usize,
    num_owned: usize,
}

/// Where a [`KernelRange`]'s owned vertices sit among its local
/// indices.
#[derive(Clone, Debug)]
enum Owned {
    /// Consecutive local indices from `local`, whose global ids are
    /// consecutive from `global` (the whole graph, and any contiguous
    /// id range) — the combine pass then runs over plain slices.
    Run { local: usize, global: usize },
    /// Local indices, ascending.
    List(Vec<u32>),
}

impl KernelRange {
    /// The range owning `owned` (ascending, distinct) in `g`.
    ///
    /// # Panics
    /// Panics if `owned` is not strictly ascending or names a vertex
    /// outside `g`.
    pub fn new(g: &Graph, owned: &[VertexId]) -> Self {
        assert!(
            owned.windows(2).all(|w| w[0] < w[1]),
            "owned vertices must be strictly ascending"
        );
        let n = g.num_vertices();
        if owned.len() == n {
            // Strictly ascending and in range: exactly `0..n`.
            return Self::whole(g);
        }
        let mut is_owned = vec![false; n];
        for &v in owned {
            is_owned[v.index()] = true;
        }
        let mut verts: Vec<u32> = owned.iter().map(|v| v.0).collect();
        for &v in owned {
            verts.extend(g.neighbors(v).filter(|u| !is_owned[u.index()]).map(|u| u.0));
        }
        verts.sort_unstable();
        verts.dedup();
        let local: Vec<u32> = verts
            .iter()
            .enumerate()
            .filter(|&(_, &v)| is_owned[v as usize])
            .map(|(i, _)| i as u32)
            .collect();
        let run = match (local.first(), owned.first()) {
            (Some(&l), Some(g))
                if local.windows(2).all(|w| w[1] == w[0] + 1)
                    && owned.windows(2).all(|w| w[1].0 == w[0].0 + 1) =>
            {
                Owned::Run {
                    local: l as usize,
                    global: g.index(),
                }
            }
            _ => Owned::List(local),
        };
        KernelRange {
            len: verts.len(),
            num_owned: owned.len(),
            verts: Some(verts),
            owned: run,
        }
    }

    /// The range owning every vertex of `g` (no halo).
    pub fn whole(g: &Graph) -> Self {
        let n = g.num_vertices();
        KernelRange {
            verts: None,
            owned: Owned::Run {
                local: 0,
                global: 0,
            },
            len: n,
            num_owned: n,
        }
    }

    /// The range owning the contiguous vertex ids `owned`.
    pub fn contiguous(g: &Graph, owned: std::ops::Range<usize>) -> Self {
        let owned: Vec<VertexId> = owned.map(|v| VertexId(v as u32)).collect();
        Self::new(g, &owned)
    }

    /// Owned plus halo vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the range holds no vertex.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Owned vertices — the length of a kernel's `next` output.
    pub fn num_owned(&self) -> usize {
        self.num_owned
    }

    /// The global vertex at local index `i`.
    #[inline]
    fn vertex(&self, i: usize) -> VertexId {
        VertexId(self.verts.as_ref().map_or(i as u32, |v| v[i]))
    }

    /// The owned vertices' local indices, ascending.
    fn owned(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_owned).map(move |k| match &self.owned {
            Owned::Run { local, .. } => local + k,
            Owned::List(list) => list[k] as usize,
        })
    }

    /// `(first local index, first global id)` when the owned vertices
    /// are one run of both.
    fn owned_run(&self) -> Option<(usize, usize)> {
        match self.owned {
            Owned::Run { local, global } => Some((local, global)),
            Owned::List(_) => None,
        }
    }

    /// `out[k]` = the head of stream `(master, label, vertex(lo + k))`.
    fn fill_heads(&self, master: u64, label: u64, lo: usize, out: &mut [u64]) {
        match &self.verts {
            None => fill_stream_heads(master, label, lo as u64, out),
            Some(v) => fill_stream_heads_at(master, label, &v[lo..], out),
        }
    }

    /// Loads local lanes from a full configuration; returns the largest
    /// spin loaded.
    fn gather<L: LaneBuf>(&self, state: &[Spin], lanes: &mut L) -> Spin {
        match &self.verts {
            None => lanes.load(state),
            Some(v) => lanes.gather(state, v),
        }
    }

    /// The edges with at least one owned endpoint (`None`: all of
    /// them, in id order) and their stored-orientation endpoints as
    /// local indices, packed `v << 32 | u` (one load per edge).
    fn edges(&self, g: &Graph) -> (Option<Vec<u32>>, Vec<u64>) {
        let pack = |a: u32, b: u32| u64::from(b) << 32 | u64::from(a);
        let Some(verts) = &self.verts else {
            return (None, g.edges().map(|(_, a, b)| pack(a.0, b.0)).collect());
        };
        const NONE: u32 = u32::MAX;
        let mut local = vec![NONE; g.num_vertices()];
        for (i, &v) in verts.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut is_owned = vec![false; verts.len()];
        for i in self.owned() {
            is_owned[i] = true;
        }
        let owns = |v: VertexId| local[v.index()] != NONE && is_owned[local[v.index()] as usize];
        let (mut edges, mut euv) = (Vec::new(), Vec::new());
        for (e, a, b) in g.edges() {
            if owns(a) || owns(b) {
                edges.push(e.0);
                euv.push(pack(local[a.index()], local[b.index()]));
            }
        }
        (Some(edges), euv)
    }
}

/// One rule's lane-batched round implementation over a [`KernelRange`].
///
/// `advance` must be bit-identical, on the range's owned vertices, to
/// running the scalar propose + resolve phases of the same rule under
/// the same [`RoundCtx`]. It reads `state` (a full configuration, valid
/// at least on owned ∪ halo) and writes the owned vertices' next spins
/// into `next`, parallel to the range's owned vertices in ascending
/// order.
pub trait HotKernel: Send {
    /// Executes one synchronous round over this kernel's range.
    fn advance(&mut self, ctx: &RoundCtx, state: &[Spin], next: &mut [Spin]);
}

/// Monomorphic packed lanes — the kernels' private storage, resolved at
/// compile time so the gather loops stay branch-free.
/// Loads return the largest spin they read (0 for no spin), so the
/// edge pass can index its `q²` tables unchecked once every lane is
/// known to be below `q`.
trait LaneBuf: Send + 'static {
    fn with_len(len: usize) -> Self;
    /// `self[i] = wide[i]`.
    fn load(&mut self, wide: &[Spin]) -> Spin;
    /// `self[i] = wide[idx[i]]`: a range's local lanes from a full
    /// configuration.
    fn gather(&mut self, wide: &[Spin], idx: &[u32]) -> Spin;
    /// Lane `i`.
    ///
    /// # Safety
    /// `i` must be below the length the buffer was built with.
    unsafe fn get_unchecked(&self, i: usize) -> Spin;
}

impl LaneBuf for Vec<Spin> {
    fn with_len(len: usize) -> Self {
        vec![0; len]
    }

    fn load(&mut self, wide: &[Spin]) -> Spin {
        self.copy_from_slice(wide);
        wide.iter().fold(0, |m, &s| m.max(s))
    }

    fn gather(&mut self, wide: &[Spin], idx: &[u32]) -> Spin {
        let mut max = 0;
        for (slot, &g) in self.iter_mut().zip(idx) {
            *slot = wide[g as usize];
            max = max.max(*slot);
        }
        max
    }

    #[inline]
    unsafe fn get_unchecked(&self, i: usize) -> Spin {
        // SAFETY: `i < len`, per the trait's contract.
        unsafe { *<[Spin]>::get_unchecked(self, i) }
    }
}

impl LaneBuf for Vec<u8> {
    fn with_len(len: usize) -> Self {
        vec![0; len]
    }

    fn load(&mut self, wide: &[Spin]) -> Spin {
        let mut max = 0;
        for (slot, &s) in self.iter_mut().zip(wide) {
            *slot = s as u8;
            max = max.max(s);
        }
        max
    }

    fn gather(&mut self, wide: &[Spin], idx: &[u32]) -> Spin {
        let mut max = 0;
        for (slot, &g) in self.iter_mut().zip(idx) {
            let s = wide[g as usize];
            *slot = s as u8;
            max = max.max(s);
        }
        max
    }

    #[inline]
    unsafe fn get_unchecked(&self, i: usize) -> Spin {
        // SAFETY: `i < len`, per the trait's contract.
        Spin::from(unsafe { *<[u8]>::get_unchecked(self, i) })
    }
}

/// Block-RNG fills run a chunk of this many indices at a time, into a
/// buffer that stays in L1 while its consumer reads it back.
const RNG_CHUNK: usize = 1024;

/// The LocalMetropolis kernel: one proposal pass, one edge pass ANDing
/// accepts into a per-vertex byte (coins filled a chunk at a time), one
/// combine pass — all over one [`KernelRange`], in its local indexing.
struct LmKernel<L: LaneBuf> {
    mrf: Arc<Mrf>,
    range: KernelRange,
    rule3: bool,
    /// Every edge activity is 0/max — every coin is deterministic and
    /// the coin block is never filled (the coloring/hardcore fast path,
    /// same branch the scalar rule takes per edge).
    hard: bool,
    q: usize,
    /// Global ids of the edges with an owned endpoint (`None`: every
    /// edge, in id order).
    edges: Option<Vec<u32>>,
    /// Their stored-orientation endpoints as local indices, packed
    /// `v << 32 | u` (one load per edge). Both endpoints of an edge
    /// evaluate the *same* stored-orientation filter product against
    /// the *same* coin, so one edge-pass evaluation serves both — the
    /// scalar path pays it twice.
    euv: Vec<u64>,
    /// Base offset of each range edge's kind table in `tables` (empty
    /// when `kind0` is set).
    etbl: Vec<u32>,
    /// `Some(0)` when the model has a single edge kind (the usual
    /// generator output) — lets the edge pass skip the per-edge `etbl`
    /// load, and construction skip building it.
    kind0: Option<u32>,
    /// The proposal table of the model's single vertex kind (`None`
    /// with several kinds, which look theirs up per vertex): see
    /// [`lsl_mrf::VertexActivity::breakpoints`].
    breakpoints: Option<Vec<u64>>,
    /// Per-edge-kind normalized activities, `q²` entries each: the same
    /// `get / max` values [`lsl_mrf::EdgeActivity::normalized`]
    /// computes, divided once at construction.
    tables: Vec<f64>,
    /// Hard models only (else empty): `tables > 0` as bytes, at the
    /// same offsets. A hard activity's normalized entries are exactly
    /// 0.0 or 1.0, so a filter product is positive exactly when every
    /// factor's byte is 1 — the hard edge pass ANDs bytes instead of
    /// multiplying `f64`s.
    allow: Vec<u8>,
    /// Soft `q == 2` models only (else empty): the filter *products*
    /// per edge kind, 16 entries indexed by the state nibble
    /// `sp(u)·8 + sp(v)·4 + sx(u)·2 + sx(v)`, multiplied at
    /// construction in the exact factor order of the scalar rule — the
    /// Ising edge pass becomes one table load per edge.
    products: Vec<f64>,
    /// Packed current state / proposals over owned ∪ halo.
    sx: L,
    sp: L,
    /// One chunk of stream heads: proposal draws in the propose pass,
    /// then shared edge coins in the edge pass — one per range *edge*
    /// (the scalar path evaluates each from both endpoints), consumed
    /// via [`head_to_f64`].
    chunk: Vec<u64>,
    /// Every range edge's coin for the round `coins_key` names. Kept
    /// only once a round repeats — coupled replicas advancing the same
    /// round in turn fill it once for the batch; otherwise coins never
    /// leave `chunk`.
    coins: Vec<u64>,
    coins_key: Option<u64>,
    /// Per-vertex accept accumulator: `1` until some incident edge's
    /// filter rejects (complete for owned vertices only — a halo
    /// vertex's edges to the rest of the graph are not in the range).
    ok: Vec<u8>,
    /// Wide mirror of the proposals, for the combine pass.
    proposals_wide: Vec<Spin>,
    /// Propose-master the current proposal block belongs to: coupled
    /// replicas share one master per round, so a batch of `B` replicas
    /// fills and samples the block once.
    proposals_key: Option<u64>,
}

impl<L: LaneBuf> LmKernel<L> {
    fn new(mrf: Arc<Mrf>, range: KernelRange, rule3: bool) -> Self {
        let (edges, euv) = range.edges(mrf.graph());
        let (len, m) = (range.len(), euv.len());
        // The edge pass indexes `ok` and the lanes (all `len` long) by
        // these endpoints without bounds checks.
        assert!(
            euv.iter()
                .all(|&uv| (uv as u32).max((uv >> 32) as u32) < len as u32),
            "range edge endpoints must be local indices"
        );
        let q = mrf.q();
        let qq = (q * q) as u32;
        let mut tables = Vec::with_capacity(mrf.edge_palette().len() * (q * q));
        for act in mrf.edge_palette() {
            for a in 0..q as Spin {
                for b in 0..q as Spin {
                    tables.push(act.normalized(a, b));
                }
            }
        }
        // One edge kind (the usual generator output): no per-edge table.
        let kind0 = (mrf.edge_palette().len() == 1).then_some(0);
        let etbl: Vec<u32> = if kind0.is_some() {
            Vec::new()
        } else {
            (0..m)
                .map(|e| {
                    let id = edges.as_ref().map_or(e as u32, |ids| ids[e]);
                    mrf.edge_kind_of(EdgeId(id)) * qq
                })
                .collect()
        };
        let breakpoints = match mrf.vertex_palette() {
            [act] => Some(act.breakpoints().to_vec()),
            _ => None,
        };
        let hard = mrf.all_hard_constraints();
        let allow = if hard {
            tables.iter().map(|&p| u8::from(p > 0.0)).collect()
        } else {
            Vec::new()
        };
        let mut products = Vec::new();
        if q == 2 && !hard {
            for tbl in tables.chunks(4) {
                for idx in 0..16usize {
                    let (su, sv) = (idx >> 3 & 1, idx >> 2 & 1);
                    let (xu, xv) = (idx >> 1 & 1, idx & 1);
                    let mut p = tbl[su * 2 + sv] * tbl[xu * 2 + sv];
                    if rule3 {
                        p *= tbl[su * 2 + xv];
                    }
                    products.push(p);
                }
            }
        }
        LmKernel {
            rule3,
            hard,
            q,
            edges,
            euv,
            etbl,
            kind0,
            breakpoints,
            tables,
            allow,
            products,
            // Sized up front: a kernel advanced on a per-round worker
            // thread must not allocate there.
            sx: L::with_len(len),
            sp: L::with_len(len),
            // Always a full chunk: the edge pass walks it as a
            // placeholder when no coin block is drawn.
            chunk: vec![0; RNG_CHUNK],
            coins: Vec::new(),
            coins_key: None,
            ok: vec![0; len],
            proposals_wide: vec![0; len],
            proposals_key: None,
            range,
            mrf,
        }
    }
}

impl<L: LaneBuf> HotKernel for LmKernel<L> {
    fn advance(&mut self, ctx: &RoundCtx, state: &[Spin], next: &mut [Spin]) {
        let range = &self.range;
        let q = self.q as Spin;
        // The edge pass indexes its tables by lanes unchecked: every
        // spin must be below `q`.
        assert!(
            range.gather(state, &mut self.sx) < q,
            "state spins must be below q = {q}"
        );

        // Propose over owned ∪ halo: blocks of stream heads serve every
        // vertex's single proposal draw (halo proposals are recomputed,
        // not communicated — they are pure functions of
        // `(master, round, vertex)`). The proposals are keyed by the
        // propose master, so coupled replicas sharing a round's
        // randomness reuse them for free.
        let repeat = self.proposals_key == Some(ctx.propose_master);
        if !repeat {
            for lo in (0..range.len()).step_by(RNG_CHUNK) {
                let heads = &mut self.chunk[..RNG_CHUNK.min(range.len() - lo)];
                range.fill_heads(ctx.propose_master, VERTEX_STREAM_LABEL, lo, heads);
                let proposals = &mut self.proposals_wide[lo..][..heads.len()];
                // The proposal is the number of the vertex kind's
                // breakpoints at or below the head's 53-bit draw —
                // exactly the scalar sampler's subtraction ladder (see
                // `VertexActivity::breakpoints`). With one kind, one
                // counting pass over the block.
                if let Some(bps) = &self.breakpoints {
                    count_breakpoints(SimdLevel::detected(), bps, heads, proposals);
                } else {
                    for (k, (slot, &head)) in proposals.iter_mut().zip(heads.iter()).enumerate() {
                        let act = self.mrf.vertex_activity(range.vertex(lo + k));
                        *slot = act.sample_head(head);
                    }
                }
            }
            // Proposals count at most `q − 1` breakpoints.
            assert!(self.sp.load(&self.proposals_wide) < q);
            self.proposals_key = Some(ctx.propose_master);
        }
        // Coins: one evaluation per range edge (the scalar path pays one
        // per endpoint), filled a chunk at a time inside the edge pass —
        // or, once rounds repeat, once per round into `coins`. Never
        // filled for hard-constraint models, whose coins are all
        // deterministic.
        let draw_coins = !self.hard;
        let edge_master = ctx.edge_master;
        if draw_coins && (repeat || !self.coins.is_empty()) && self.coins_key != Some(edge_master) {
            self.coins.resize(self.euv.len(), 0);
            fill_coins(&self.edges, edge_master, 0, &mut self.coins);
            self.coins_key = Some(edge_master);
        }
        let cached = self.coins_key == Some(edge_master);

        // Resolve as an edge pass over the edges with an owned
        // endpoint. The scalar rule's per-vertex view evaluates, at
        // *both* endpoints of each edge, the identical stored-
        // orientation factor product `p` against the identical shared
        // coin — so one evaluation per edge decides both, ANDed into
        // the accept byte of each endpoint (a cut edge is evaluated by
        // both ranges that see it, with identical results). Its early-
        // exit is droppable because coins are pure functions of
        // `(edge_master, edge)`: no stream state is consumed by the
        // extra evaluations. The coin test folds the scalar ladder
        // (`p ≤ 0` reject, `p ≥ 1` accept, else reject iff `coin ≥ p`)
        // into one branchless `coin < p` — coins live in `[0, 1)`, so
        // all three rungs agree. Factors multiply in the exact order of
        // the scalar rule for f64-identical products.
        let (rule3, hard, q) = (self.rule3, self.hard, self.q);
        let qq = q * q;
        let Self {
            range,
            edges,
            euv,
            etbl,
            kind0,
            tables,
            allow,
            products,
            sx,
            sp,
            chunk,
            coins,
            ok,
            ..
        } = self;
        ok.fill(1);
        let m = euv.len();
        // One loop shape, pluggable accept test over `(edge, coin head,
        // endpoints)`; the coin head is meaningful only when coins are
        // drawn. The test is written inside the `unsafe` block: it reads
        // the endpoints' lanes, and indexes tables by them, unchecked.
        macro_rules! edge_pass {
            ($acc_of:expr) => {
                for lo in (0..m).step_by(RNG_CHUNK) {
                    let hi = m.min(lo + RNG_CHUNK);
                    let heads: &[u64] = if cached {
                        &coins[lo..hi]
                    } else {
                        let heads = &mut chunk[..hi - lo];
                        if draw_coins {
                            fill_coins(edges, edge_master, lo, heads);
                        }
                        heads
                    };
                    // SAFETY: `new` asserted both endpoints of every
                    // `euv` entry are below `range.len()`: the length of
                    // `ok` and of both lane buffers. Every lane was
                    // asserted below `q` when loaded, so a `q × q` table
                    // entry `a·q + b` of two lanes is in bounds.
                    unsafe { accept_edges(lo, &euv[lo..hi], heads, ok, $acc_of) };
                }
            };
        }
        // Range edge `e`'s kind-table base.
        let kind = |e: usize| kind0.unwrap_or_else(|| etbl[e]) as usize;
        if hard {
            // Hard constraints: every coin is deterministic (the branch
            // the scalar rule takes per edge), and the product is
            // positive iff every factor's byte is 1.
            edge_pass!(|e: usize, _, u: usize, v: usize| {
                let tbl = &allow[kind(e)..][..qq];
                let (su, sv) = (sp.get_unchecked(u) as usize, sp.get_unchecked(v) as usize);
                let (xu, xv) = (sx.get_unchecked(u) as usize, sx.get_unchecked(v) as usize);
                let mut acc = tbl.get_unchecked(su * q + sv) & tbl.get_unchecked(xu * q + sv);
                if rule3 {
                    acc &= tbl.get_unchecked(su * q + xv);
                }
                acc
            });
        } else if q == 2 {
            // Soft, q = 2: one product-table load in place of the
            // factor gathers and multiplies.
            // Expanded inside the edge pass's unchecked block.
            macro_rules! idx_of {
                ($u:expr, $v:expr) => {{
                    let (u, v): (usize, usize) = ($u, $v);
                    let (su, sv) = (sp.get_unchecked(u), sp.get_unchecked(v));
                    (su << 3 | sv << 2 | sx.get_unchecked(u) << 1 | sx.get_unchecked(v)) as usize
                }};
            }
            if let Some(b) = *kind0 {
                let pt: &[f64] = &products[b as usize * 4..][..16];
                edge_pass!(|_, c: u64, u, v| u8::from(head_to_f64(c) < pt[idx_of!(u, v)]));
            } else {
                edge_pass!(|e: usize, c: u64, u, v| u8::from(
                    head_to_f64(c) < products[etbl[e] as usize * 4 + idx_of!(u, v)]
                ));
            }
        } else {
            // Soft constraints, q > 2: the factors multiply in the
            // exact order of the scalar rule.
            edge_pass!(|e: usize, c: u64, u: usize, v: usize| {
                let tbl = &tables[kind(e)..][..qq];
                let (su, sv) = (sp.get_unchecked(u) as usize, sp.get_unchecked(v) as usize);
                let (xu, xv) = (sx.get_unchecked(u) as usize, sx.get_unchecked(v) as usize);
                let mut p = tbl.get_unchecked(su * q + sv) * tbl.get_unchecked(xu * q + sv);
                if rule3 {
                    p *= tbl.get_unchecked(su * q + xv);
                }
                u8::from(head_to_f64(c) < p)
            });
        }

        // Combine: an owned vertex keeps its proposal iff every incident
        // edge accepted (vacuously for isolated vertices, as in the
        // scalar rule).
        let keep = |ok: u8, proposal: Spin, old: Spin| if ok != 0 { proposal } else { old };
        match range.owned_run() {
            Some((a, g)) => {
                let k = next.len();
                let lanes = ok[a..][..k].iter().zip(&self.proposals_wide[a..][..k]);
                for ((slot, (&ok, &p)), &x) in next.iter_mut().zip(lanes).zip(&state[g..][..k]) {
                    *slot = keep(ok, p, x);
                }
            }
            None => {
                for (slot, i) in next.iter_mut().zip(range.owned()) {
                    *slot = keep(
                        ok[i],
                        self.proposals_wide[i],
                        state[range.vertex(i).index()],
                    );
                }
            }
        }
    }
}

/// ANDs each edge's accept byte `acc_of(e, coin head, u, v)` into both
/// endpoints' `ok` bytes, for the edges `e = lo + k` whose local
/// endpoints `(u, v)` are packed in `euv[k]` and whose coin heads are
/// `heads[k]`. Taking `ok` as an argument of its own tells the compiler
/// that its stores alias nothing else the loop reads, so lane and table
/// pointers stay in registers: on a 256² q = 16 coloring the edge pass
/// ran about a third faster than with `ok` and the lanes borrowed from
/// one struct (2-CPU x86-64 host).
///
/// # Safety
/// Both endpoints packed in every `euv` entry must be below `ok.len()`
/// (and valid wherever `acc_of` reads by them unchecked).
#[inline(always)]
unsafe fn accept_edges(
    lo: usize,
    euv: &[u64],
    heads: &[u64],
    ok: &mut [u8],
    acc_of: impl Fn(usize, u64, usize, usize) -> u8,
) {
    for (e, (&uv, &c)) in (lo..).zip(euv.iter().zip(heads)) {
        let (u, v) = (uv as u32 as usize, (uv >> 32) as usize);
        let acc = acc_of(e, c, u, v);
        // SAFETY: `u` and `v` are below `ok.len()`, per this function's
        // contract.
        unsafe {
            *ok.get_unchecked_mut(u) &= acc;
            *ok.get_unchecked_mut(v) &= acc;
        }
    }
}

/// `out[k]` = the coin head of range edge `lo + k`, whose global ids are
/// `edges` (`None`: every edge, in id order).
fn fill_coins(edges: &Option<Vec<u32>>, edge_master: u64, lo: usize, out: &mut [u64]) {
    match edges {
        None => fill_stream_heads(edge_master, EDGE_LABEL, lo as u64, out),
        Some(ids) => fill_stream_heads_at(edge_master, EDGE_LABEL, &ids[lo..], out),
    }
}

/// `out[k]` = the number of breakpoints `bps` at or below the 53-bit
/// draw of `heads[k]` — [`lsl_mrf::VertexActivity::sample_head`] over a
/// block, as one compare-and-add pass per breakpoint. Runs in the clone
/// of `level` (capped at what the host supports): baseline x86-64 has
/// no 64-bit vector compare, so only the AVX2/AVX-512 clones vectorize.
///
/// # Panics
/// Panics if `heads` is shorter than `out`.
fn count_breakpoints(level: SimdLevel, bps: &[u64], heads: &[u64], out: &mut [Spin]) {
    #[inline(always)]
    fn portable(bps: &[u64], heads: &[u64], out: &mut [Spin]) {
        let heads = &heads[..out.len()];
        out.fill(0);
        for &b in bps {
            for (slot, &head) in out.iter_mut().zip(heads) {
                *slot += Spin::from(head >> 11 >= b);
            }
        }
    }
    lsl_local::simd_dispatch!(@at level, portable(bps: &[u64], heads: &[u64], out: &mut [Spin]))
}

/// Builds the LocalMetropolis kernel over `range`: `u8` lanes when
/// every spin fits a byte (`q ≤ 256`), `u32` lanes above.
pub(crate) fn local_metropolis_kernel(
    mrf: &Arc<Mrf>,
    range: KernelRange,
    rule3: bool,
) -> Box<dyn HotKernel> {
    let mrf = Arc::clone(mrf);
    if mrf.q() <= 256 {
        Box::new(LmKernel::<Vec<u8>>::new(mrf, range, rule3))
    } else {
        Box::new(LmKernel::<Vec<Spin>>::new(mrf, range, rule3))
    }
}

/// The LubyGlauber kernel, three passes over one [`KernelRange`]:
///
/// 1. **marks** — the scheduler marks owned ∪ halo from one block of
///    propose-stream heads (each mark's single draw);
/// 2. **selection** — every vertex starts at its
///    [`VertexScheduler::eligible`] bit, then one branch-free pass over
///    the range's edges ANDs [`VertexScheduler::survives`] into both
///    endpoints, and the selected owned vertices are compacted, again
///    without branches, into an id list;
/// 3. **resolve** — one gathered block of resolve-stream heads, one per
///    selected vertex (the scalar path builds a generator for every
///    vertex and reads only the selected ones), drives the heat-bath
///    resamples ([`Resampler::resample_head`]), whose marginals come
///    from kernel-local activity tables.
///
/// Marks, selection, id list and heads are functions of the round's
/// randomness only, so they are keyed by the propose master: coupled
/// replicas advancing one round in turn compute them once. The
/// selected set is independent, so every write is conflict-free and
/// the resolve reads `state` directly — no lanes.
struct LgKernel<S: VertexScheduler> {
    mrf: Arc<Mrf>,
    range: KernelRange,
    scheduler: S,
    /// The edges with an owned endpoint, as local endpoint pairs packed
    /// `v << 32 | u` (see [`KernelRange::edges`]).
    euv: Vec<u64>,
    /// One chunk of mark-stream heads (a mark is a function of its
    /// stream's first draw; see [`VertexScheduler::mark`]).
    heads: Vec<u64>,
    /// Marks and selection bytes over owned ∪ halo, in local indexing.
    marks: Vec<S::Mark>,
    sel: Vec<u8>,
    /// The first `picked` entries: the selected owned vertices' owned
    /// positions, global ids and resolve-stream heads (sized for every
    /// owned vertex, so advancing never allocates).
    pos: Vec<u32>,
    ids: Vec<u32>,
    resolve_heads: Vec<u64>,
    picked: usize,
    /// Propose master that marks, selection and heads belong to.
    key: Option<u64>,
    tables: MarginalTables,
    weights: Vec<f64>,
    resampler: Resampler,
}

impl<S: VertexScheduler> LgKernel<S> {
    fn new(mrf: Arc<Mrf>, range: KernelRange, scheduler: S) -> Self {
        let (_, euv) = range.edges(mrf.graph());
        let (len, owned) = (range.len(), range.num_owned());
        // The selection pass indexes `marks` and `sel` (both `len`
        // long) by these endpoints without bounds checks.
        assert!(
            euv.iter()
                .all(|&uv| (uv as u32).max((uv >> 32) as u32) < len as u32),
            "range edge endpoints must be local indices"
        );
        LgKernel {
            scheduler,
            euv,
            heads: vec![0; RNG_CHUNK],
            marks: vec![S::Mark::default(); len],
            sel: vec![0; len],
            pos: vec![0; owned],
            ids: vec![0; owned],
            resolve_heads: vec![0; owned],
            picked: 0,
            key: None,
            tables: MarginalTables::new(&mrf),
            weights: vec![0.0; mrf.q()],
            resampler: Resampler::new(&mrf),
            range,
            mrf,
        }
    }

    /// Marks, selects and compacts the round's update set, and fills
    /// its resolve-stream heads.
    fn schedule(&mut self, ctx: &RoundCtx) {
        let Self {
            range,
            scheduler,
            euv,
            heads,
            marks,
            sel,
            pos,
            ids,
            resolve_heads,
            ..
        } = self;
        for lo in (0..range.len()).step_by(RNG_CHUNK) {
            let heads = &mut heads[..RNG_CHUNK.min(range.len() - lo)];
            range.fill_heads(ctx.propose_master, VERTEX_STREAM_LABEL, lo, heads);
            // One loop per id map, so neither indexes per element.
            let marks = marks[lo..].iter_mut().zip(heads.iter());
            match &range.verts {
                None => {
                    for (k, (slot, &head)) in marks.enumerate() {
                        *slot = scheduler.mark(VertexId((lo + k) as u32), head);
                    }
                }
                Some(verts) => {
                    for ((slot, &head), &v) in marks.zip(&verts[lo..]) {
                        *slot = scheduler.mark(VertexId(v), head);
                    }
                }
            }
        }
        // SAFETY: `new` asserted every endpoint in `euv` is below
        // `range.len()`, the length `marks` and `sel` were allocated
        // with; none of the three changes after construction.
        unsafe {
            match &range.verts {
                None => select(scheduler, ctx, euv, marks, sel, |i| VertexId(i as u32)),
                Some(verts) => select(scheduler, ctx, euv, marks, sel, |i| VertexId(verts[i])),
            }
        }
        // Branch-free compaction: every owned vertex writes its slot,
        // and only the selected advance the cursor.
        let mut picked = 0;
        match range.owned_run() {
            Some((a, g)) => {
                for (k, &s) in sel[a..][..range.num_owned()].iter().enumerate() {
                    pos[picked] = k as u32;
                    ids[picked] = (g + k) as u32;
                    picked += usize::from(s);
                }
            }
            None => {
                for (k, i) in range.owned().enumerate() {
                    pos[picked] = k as u32;
                    ids[picked] = range.vertex(i).0;
                    picked += usize::from(sel[i]);
                }
            }
        }
        fill_stream_heads_at(
            ctx.resolve_master,
            VERTEX_STREAM_LABEL,
            &ids[..picked],
            &mut resolve_heads[..picked],
        );
        self.picked = picked;
        self.key = Some(ctx.propose_master);
    }
}

/// The selection passes: every vertex's byte starts at its
/// [`VertexScheduler::eligible`] bit, then, for each range edge, ANDs
/// whether each endpoint survives the other. Runs every edge (no early
/// exit), so the loop carries no data-dependent branch. `id` maps a
/// local index to its global vertex.
///
/// # Safety
/// Both endpoints packed in every `euv` entry must be below
/// `marks.len()` and `sel.len()`: the edge loop indexes them without
/// bounds checks, which cost about a quarter of the pass's time on a
/// 256² torus (2-CPU x86-64 host).
#[inline(always)]
unsafe fn select<S: VertexScheduler>(
    scheduler: &S,
    ctx: &RoundCtx,
    euv: &[u64],
    marks: &[S::Mark],
    sel: &mut [u8],
    id: impl Fn(usize) -> VertexId,
) {
    for (i, (slot, &mark)) in sel.iter_mut().zip(marks).enumerate() {
        *slot = u8::from(scheduler.eligible(ctx, id(i), mark));
    }
    for &uv in euv {
        let (a, b) = (uv as u32 as usize, (uv >> 32) as usize);
        // SAFETY: `a` and `b` are in bounds of both slices, per this
        // function's contract.
        let (ma, mb) = unsafe { (*marks.get_unchecked(a), *marks.get_unchecked(b)) };
        let (va, vb) = (id(a), id(b));
        let (keep_a, keep_b) = (
            scheduler.survives(va, ma, vb, mb),
            scheduler.survives(vb, mb, va, ma),
        );
        // SAFETY: as above.
        unsafe {
            *sel.get_unchecked_mut(a) &= u8::from(keep_a);
            *sel.get_unchecked_mut(b) &= u8::from(keep_b);
        }
    }
}

impl<S: VertexScheduler> HotKernel for LgKernel<S> {
    fn advance(&mut self, ctx: &RoundCtx, state: &[Spin], next: &mut [Spin]) {
        if self.key != Some(ctx.propose_master) {
            self.schedule(ctx);
        }
        let Self {
            mrf,
            range,
            pos,
            ids,
            resolve_heads,
            picked,
            tables,
            weights,
            resampler,
            ..
        } = self;
        match range.owned_run() {
            Some((_, g)) => next.copy_from_slice(&state[g..][..next.len()]),
            None => {
                for (slot, i) in next.iter_mut().zip(range.owned()) {
                    *slot = state[range.vertex(i).index()];
                }
            }
        }
        // Resolve: only the selected vertices, each from its head; a
        // vanished marginal keeps the spin, as the scalar rule does.
        let picked = *picked;
        for ((&k, &v), &head) in pos[..picked]
            .iter()
            .zip(&ids[..picked])
            .zip(&resolve_heads[..picked])
        {
            let v = VertexId(v);
            tables.weights(mrf, v, state, weights);
            next[k as usize] = resampler
                .resample_head(weights, head)
                .unwrap_or(state[v.index()]);
        }
    }
}

/// Kernel-local activity tables for heat-bath marginals: `b(c)` per
/// vertex kind and `A(c, x)` per edge kind, laid out so the factors one
/// neighbour contributes are one contiguous row.
struct MarginalTables {
    q: usize,
    /// `q` entries per vertex kind: `b(c)` at `kind·q + c`.
    vertex: Vec<f64>,
    /// `q²` entries per edge kind: `A(c, x)` at `(kind·q + x)·q + c`.
    edge: Vec<f64>,
    /// Whether the model has one vertex (edge) kind — the common case,
    /// which skips the per-vertex (per-edge) kind lookup.
    one_vertex_kind: bool,
    one_edge_kind: bool,
}

impl MarginalTables {
    fn new(mrf: &Mrf) -> Self {
        let q = mrf.q() as Spin;
        let vertex = mrf
            .vertex_palette()
            .iter()
            .flat_map(|b| (0..q).map(|c| b.get(c)))
            .collect();
        let edge = mrf
            .edge_palette()
            .iter()
            .flat_map(|a| (0..q).flat_map(move |x| (0..q).map(move |c| a.get(c, x))))
            .collect();
        MarginalTables {
            q: q as usize,
            vertex,
            edge,
            one_vertex_kind: mrf.vertex_palette().len() == 1,
            one_edge_kind: mrf.edge_palette().len() == 1,
        }
    }

    /// `out[c] = b_v(c) · Π A_uv(c, X_u)` over `v`'s incident edges —
    /// [`Mrf::marginal_weights_with`]'s factors in its order, so the
    /// `f64`s are identical. That method skips a weight once it is
    /// zero; here every factor multiplies, which yields the same bits:
    /// activities are finite and non-negative, so a zero weight stays
    /// `+0.0` either way — and the loop keeps no data-dependent branch.
    #[inline]
    fn weights(&self, mrf: &Mrf, v: VertexId, state: &[Spin], out: &mut [f64]) {
        let q = self.q;
        let vk = if self.one_vertex_kind {
            0
        } else {
            mrf.vertex_kind_of(v) as usize
        };
        out.copy_from_slice(&self.vertex[vk * q..][..q]);
        let mut times = |ek: usize, u: VertexId| {
            let row = &self.edge[(ek * q + state[u.index()] as usize) * q..][..q];
            for (w, &a) in out.iter_mut().zip(row) {
                *w *= a;
            }
        };
        let g = mrf.graph();
        if self.one_edge_kind {
            g.neighbors(v).for_each(|u| times(0, u));
        } else {
            for (e, u) in g.incident_edges(v) {
                times(mrf.edge_kind_of(e) as usize, u);
            }
        }
    }
}

/// Builds the LubyGlauber kernel over `range`. It reads the state
/// directly, so it keeps no lanes.
pub(crate) fn luby_glauber_kernel<S: VertexScheduler>(
    mrf: &Arc<Mrf>,
    range: KernelRange,
    scheduler: S,
) -> Box<dyn HotKernel> {
    Box::new(LgKernel::new(Arc::clone(mrf), range, scheduler))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_local::rng::Xoshiro256pp;

    #[test]
    fn hotpath_display_parses_back() {
        for hp in [HotPath::Scalar, HotPath::Lanes] {
            assert_eq!(hp.to_string().parse::<HotPath>().unwrap(), hp);
        }
        assert_eq!(HotPath::default(), HotPath::Lanes);
        assert!("scalar:2".parse::<HotPath>().is_err());
        assert!("simd".parse::<HotPath>().is_err());
        assert!("lanes:byte".parse::<HotPath>().is_err());
        assert!("lanes:bit:block".parse::<HotPath>().is_err());
    }

    #[test]
    fn edge_pass_breaks_equal_marks_by_vertex_id() {
        // Equal marks everywhere: the edge pass must settle every edge
        // by vertex id exactly as the per-vertex test does — on the
        // whole graph and on a range whose local indices are not the
        // global ids. The 6-cycle stores its edges in alternating
        // orientations, so both endpoints' outcomes of each edge count.
        use crate::schedule::LubyScheduler;
        let sched = LubyScheduler::new();
        let g = Graph::from_edges(6, &[(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (0, 5)]);
        let mrf = lsl_mrf::models::uniform_independent_set(g.clone());
        let ctx = RoundCtx::new(&mrf, 0, 0);
        let marks_wide = [0.25; 6];
        for range in [KernelRange::whole(&g), KernelRange::contiguous(&g, 3..6)] {
            let (_, euv) = range.edges(&g);
            let marks = vec![0.25; range.len()];
            let mut sel = vec![0u8; range.len()];
            let id = |i: usize| range.vertex(i);
            // SAFETY: `edges` packs local indices of `range`, and both
            // slices are `range.len()` long.
            unsafe { select(&sched, &ctx, &euv, &marks, &mut sel, id) };
            for i in range.owned() {
                let v = range.vertex(i);
                let oracle = sched.selected(&ctx, v, &marks_wide);
                assert_eq!(sel[i] != 0, oracle, "{v:?}");
                assert_eq!(oracle, v.0 == 5, "only vertex 5 beats both neighbours");
            }
        }
    }

    #[test]
    fn breakpoint_count_matches_sample_head_in_every_clone() {
        use lsl_mrf::VertexActivity;
        let acts = [
            VertexActivity::uniform(3),
            VertexActivity::uniform(7),
            VertexActivity::uniform(16),
            VertexActivity::new(vec![0.3, 0.0, 2.5, 1.0 / 3.0, 0.0, 1e-9, 4.0, 0.0]).unwrap(),
        ];
        let mut rng = Xoshiro256pp::seed_from(17);
        for act in &acts {
            // Random heads, then every breakpoint's least draw and its
            // neighbours: ±{0, 1, 2} draws, each with random low bits.
            let mut heads: Vec<u64> = (0..700).map(|_| rng.next()).collect();
            for &b in act.breakpoints() {
                for d in [-2i64, -1, 0, 1, 2] {
                    let k = b.saturating_add_signed(d).min((1 << 53) - 1);
                    heads.push(k << 11 | (rng.next() & 0x7FF));
                }
            }
            let oracle: Vec<Spin> = heads.iter().map(|&h| act.sample_head(h)).collect();
            for level in [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > SimdLevel::detected() {
                    continue;
                }
                let mut out = vec![Spin::MAX; heads.len()];
                count_breakpoints(level, act.breakpoints(), &heads, &mut out);
                assert_eq!(out, oracle, "{level:?} on {act:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "state spins must be below q")]
    fn lanes_reject_a_spin_outside_the_domain() {
        // Byte lanes hold 16, but the edge pass indexes its 16 × 16
        // tables by lanes unchecked: the round must refuse it, even
        // handed a state no chain constructor would accept.
        let g = lsl_graph::generators::cycle(6);
        let mrf = Arc::new(lsl_mrf::models::proper_coloring(g.clone(), 16));
        let mut kernel = local_metropolis_kernel(&mrf, KernelRange::whole(&g), true);
        let ctx = RoundCtx::new(&mrf, 1, 0);
        kernel.advance(&ctx, &[16; 6], &mut [0; 6]);
    }

    #[test]
    fn head_mapping_matches_uniform_f64() {
        for seed in 0..64 {
            let mut rng = Xoshiro256pp::seed_from(seed);
            let head = rng.clone().next();
            assert_eq!(head_to_f64(head), rng.uniform_f64());
        }
    }
}
