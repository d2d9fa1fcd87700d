//! Declarative job specifications: a parse/print round-trippable,
//! hand-rolled spec format naming a complete workload.
//!
//! The paper frames sampling as a *service the network provides*: a
//! query names a local Gibbs distribution and the system returns a
//! sample. [`JobSpec`] is that query as a value — one line of
//! whitespace-separated `key=value` tokens covering every scenario the
//! workspace can run:
//!
//! ```text
//! graph=torus:256x256 model=ising:beta=0.4 algorithm=local-metropolis \
//!     scheduler=luby backend=sharded:8 seed=7 job=coalescence:trials=5,max-rounds=2000000
//! ```
//!
//! * `graph=` — every [`lsl_graph::generators`] family
//!   (`torus:RxC`, `cycle:N`, `gnp:n=N,p=P`, ...);
//! * `model=` — every [`lsl_mrf::models`] constructor
//!   (`coloring:q=Q`, `ising:beta=B`, ...) plus the CSP scenarios
//!   (`dominating-set`, `mis`);
//! * `algorithm=` / `scheduler=` / `backend=` / `partitioner=` /
//!   `hotpath=` — the facade's [`Algorithm`], [`Sched`], [`Backend`],
//!   [`Partitioner`], and [`HotPath`], via their `FromStr`/`Display`
//!   forms;
//! * `seed=` / `graph-seed=` / `burn-in=` — determinism knobs (the
//!   graph seed defaults to the chain seed);
//! * `job=` — what to measure: `run:rounds=N` (default),
//!   `distribution:rounds=N,replicas=B`, `tv:rounds=N,replicas=B`,
//!   `coalescence:trials=T,max-rounds=M`.
//!
//! Parsing is total and typed: anything wrong — an unknown key, a bad
//! arity, an invalid combination — surfaces as a [`SpecError`] value
//! (facade rejections are wrapped [`BuildError`]s), never a panic, and
//! graph-constructor preconditions (`cycle` needs `n ≥ 3`, ...) are
//! checked at *parse* time so a validated spec cannot blow up a
//! service worker later. Printing ([`std::fmt::Display`]) emits a
//! canonical form that parses back to the identical spec —
//! property-tested across the registry in `tests/spec_roundtrip.rs`.
//!
//! [`ScenarioRegistry`] enumerates every recognized scenario with its
//! syntax — the data behind `lsl list scenarios`.
//!
//! Running a spec ([`JobSpec::run`]) goes through the sampler facade,
//! so the result is bit-identical to building the same workload by
//! hand; [`Service`](crate::service::Service) runs specs concurrently
//! with a model cache and the same guarantee.

use crate::codec::StateBlob;
use crate::engine::sharded::CommStats;
use crate::engine::{Backend, HotPath};
use crate::sampler::{Algorithm, BuildError, Sampler, SamplerBuilder, Sched};
use lsl_graph::partition::Partitioner;
use lsl_graph::Graph;
use lsl_mrf::csp::Csp;
use lsl_mrf::gibbs::Enumeration;
use lsl_mrf::{models, Mrf, Spin};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Why a spec string was rejected. Every failure is a value — the spec
/// layer never panics on user input.
#[derive(Clone, Debug, PartialEq)]
#[must_use = "a rejected spec explains what to fix"]
pub enum SpecError {
    /// A token was not of the form `key=value`.
    NotKeyValue {
        /// The offending token.
        token: String,
    },
    /// An unrecognized top-level key.
    UnknownKey {
        /// The offending key.
        key: String,
    },
    /// The same key appeared twice.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
    /// A required key was missing.
    MissingKey {
        /// The missing key (`graph` or `model`).
        key: &'static str,
    },
    /// A scenario name (graph family, model, job) was not recognized.
    UnknownScenario {
        /// Which key the name appeared under.
        kind: &'static str,
        /// The unrecognized name.
        name: String,
    },
    /// A value failed to parse or violated a constructor precondition
    /// (wrong arity, non-numeric argument, `cycle` with `n < 3`, ...).
    BadValue {
        /// The key whose value was rejected.
        key: String,
        /// What was wrong.
        message: String,
    },
    /// The facade rejected the (algorithm, scheduler, model)
    /// combination — the spec layer reuses [`BuildError`] unchanged.
    Combo(BuildError),
    /// The job is not runnable on this workload (e.g. `tv` needs a
    /// state space small enough to enumerate exactly).
    Unsupported {
        /// What was requested and why it cannot run.
        message: String,
    },
    /// The job body panicked; the panic was contained to the job (the
    /// worker survives) and its message is carried here.
    JobPanicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The service owning this job shut down before answering.
    ServiceStopped,
    /// The job was cancelled (handle, client frame, or server drain)
    /// before it produced a result.
    Cancelled,
    /// The job was refused admission; the reason says which limit.
    Rejected(crate::lifecycle::RejectReason),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NotKeyValue { token } => {
                write!(f, "token {token:?} is not of the form key=value")
            }
            SpecError::UnknownKey { key } => write!(
                f,
                "unknown key {key:?} (expected graph | model | algorithm | scheduler | \
                 backend | partitioner | hotpath | seed | graph-seed | burn-in | job)"
            ),
            SpecError::DuplicateKey { key } => write!(f, "key {key:?} given twice"),
            SpecError::MissingKey { key } => write!(f, "required key {key:?} is missing"),
            SpecError::UnknownScenario { kind, name } => {
                write!(
                    f,
                    "unknown {kind} {name:?} (run `lsl list scenarios` for the registry)"
                )
            }
            SpecError::BadValue { key, message } => write!(f, "bad value for {key:?}: {message}"),
            SpecError::Combo(e) => write!(f, "invalid combination: {e}"),
            SpecError::Unsupported { message } => f.write_str(message),
            SpecError::JobPanicked { message } => {
                write!(f, "the job panicked: {message}")
            }
            SpecError::ServiceStopped => f.write_str("the sampling service shut down"),
            SpecError::Cancelled => f.write_str("the job was cancelled"),
            SpecError::Rejected(reason) => write!(f, "the job was rejected: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<BuildError> for SpecError {
    fn from(e: BuildError) -> Self {
        SpecError::Combo(e)
    }
}

/// Shorthand for the `BadValue` constructor used throughout parsing.
fn bad(key: &str, message: impl Into<String>) -> SpecError {
    SpecError::BadValue {
        key: key.to_string(),
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Graph scenarios
// ---------------------------------------------------------------------

/// A named graph family with its parameters — every
/// [`lsl_graph::generators`] entry. Random families (`gnp`,
/// `random-regular`, `random-tree`) are generated deterministically
/// from the spec's graph seed.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // variants mirror `lsl_graph::generators` 1:1
pub enum GraphSpec {
    Path { n: usize },
    Cycle { n: usize },
    Complete { n: usize },
    CompleteBipartite { a: usize, b: usize },
    Star { n: usize },
    Grid { rows: usize, cols: usize },
    Torus { rows: usize, cols: usize },
    Hypercube { dim: u32 },
    Book { pages: usize },
    Caterpillar { spine: usize, legs: usize },
    Gnp { n: usize, p: f64 },
    RandomRegular { n: usize, d: usize },
    RandomTree { n: usize },
}

/// Splits `args` as `<a>x<b>` into two integers.
fn parse_axb(key: &str, args: &str) -> Result<(usize, usize), SpecError> {
    let (a, b) = args
        .split_once('x')
        .ok_or_else(|| bad(key, format!("expected <a>x<b>, got {args:?}")))?;
    let a = a
        .parse::<usize>()
        .map_err(|_| bad(key, format!("{a:?} is not an integer")))?;
    let b = b
        .parse::<usize>()
        .map_err(|_| bad(key, format!("{b:?} is not an integer")))?;
    Ok((a, b))
}

/// Parses `name=value,name=value` argument lists (the named-argument
/// scenario syntax), validating the exact expected name set.
fn parse_named(key: &str, args: &str, expected: &[&str]) -> Result<Vec<String>, SpecError> {
    let mut out = vec![None; expected.len()];
    for piece in args.split(',') {
        let (name, value) = piece
            .split_once('=')
            .ok_or_else(|| bad(key, format!("expected name=value, got {piece:?}")))?;
        let slot = expected.iter().position(|&e| e == name).ok_or_else(|| {
            bad(
                key,
                format!("unknown argument {name:?} (expected {expected:?})"),
            )
        })?;
        if out[slot].is_some() {
            return Err(bad(key, format!("argument {name:?} given twice")));
        }
        out[slot] = Some(value.to_string());
    }
    expected
        .iter()
        .zip(out)
        .map(|(&name, v)| v.ok_or_else(|| bad(key, format!("missing argument {name:?}"))))
        .collect()
}

/// Like [`parse_named`], but missing arguments fall back to
/// `defaults` (parallel to `expected`), and an empty argument string
/// yields all defaults — the syntax behind `sample` / `sample:count=8`.
fn parse_named_defaults(
    key: &str,
    args: &str,
    expected: &[&str],
    defaults: &[&str],
) -> Result<Vec<String>, SpecError> {
    debug_assert_eq!(expected.len(), defaults.len());
    let mut out: Vec<Option<String>> = vec![None; expected.len()];
    if !args.is_empty() {
        for piece in args.split(',') {
            let (name, value) = piece
                .split_once('=')
                .ok_or_else(|| bad(key, format!("expected name=value, got {piece:?}")))?;
            let slot = expected.iter().position(|&e| e == name).ok_or_else(|| {
                bad(
                    key,
                    format!("unknown argument {name:?} (expected {expected:?})"),
                )
            })?;
            if out[slot].is_some() {
                return Err(bad(key, format!("argument {name:?} given twice")));
            }
            out[slot] = Some(value.to_string());
        }
    }
    Ok(defaults
        .iter()
        .zip(out)
        .map(|(&d, v)| v.unwrap_or_else(|| d.to_string()))
        .collect())
}

fn parse_int<T: FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse::<T>()
        .map_err(|_| bad(key, format!("{value:?} is not a valid number")))
}

impl GraphSpec {
    /// Parses the value of a `graph=` key (e.g. `torus:256x256`).
    /// Constructor preconditions are checked here so a parsed spec can
    /// never panic a worker at build time.
    pub fn parse(value: &str) -> Result<Self, SpecError> {
        const KEY: &str = "graph";
        let (name, args) = match value.split_once(':') {
            Some((n, a)) => (n, a),
            None => (value, ""),
        };
        let one = |what: &str| -> Result<usize, SpecError> {
            if args.is_empty() {
                return Err(bad(KEY, format!("{name} needs {what}, e.g. {name}:16")));
            }
            parse_int::<usize>(KEY, args)
        };
        // Empty vertex sets are rejected here, not deep in a worker:
        // replica jobs on a 0-vertex model would otherwise panic the
        // engine (the facade's EmptyModel check covers only `build()`).
        let nonzero = |key_name: &str, n: usize| -> Result<usize, SpecError> {
            if n == 0 {
                Err(bad(KEY, format!("{key_name} needs at least 1 vertex")))
            } else {
                Ok(n)
            }
        };
        // Size arithmetic is checked: a product that overflows usize
        // must become a BadValue, not a debug-build panic (or a
        // silently wrapped size in release).
        let checked_area = |key_name: &str, a: usize, b: usize| -> Result<usize, SpecError> {
            a.checked_mul(b)
                .ok_or_else(|| bad(KEY, format!("{key_name} size {a}x{b} overflows")))
        };
        let spec = match name {
            "path" => GraphSpec::Path {
                n: nonzero("path", one("a size")?)?,
            },
            "cycle" => {
                let n = one("a size")?;
                if n < 3 {
                    return Err(bad(KEY, "a cycle needs at least 3 vertices"));
                }
                GraphSpec::Cycle { n }
            }
            "complete" => GraphSpec::Complete {
                n: nonzero("complete", one("a size")?)?,
            },
            "complete-bipartite" => {
                let (a, b) = parse_axb(KEY, args)?;
                let n = a.checked_add(b).ok_or_else(|| {
                    bad(KEY, format!("complete-bipartite size {a}+{b} overflows"))
                })?;
                nonzero("complete-bipartite", n)?;
                GraphSpec::CompleteBipartite { a, b }
            }
            "star" => GraphSpec::Star { n: one("a size")? },
            "grid" => {
                let (rows, cols) = parse_axb(KEY, args)?;
                nonzero("grid", checked_area("grid", rows, cols)?)?;
                GraphSpec::Grid { rows, cols }
            }
            "torus" => {
                let (rows, cols) = parse_axb(KEY, args)?;
                if rows < 3 || cols < 3 {
                    return Err(bad(KEY, "torus sides must be >= 3"));
                }
                checked_area("torus", rows, cols)?;
                GraphSpec::Torus { rows, cols }
            }
            "hypercube" => {
                if args.is_empty() {
                    return Err(bad(KEY, "hypercube needs a dimension, e.g. hypercube:8"));
                }
                // Parsed as u32 directly: a usize-then-truncate would
                // let values like 2^32 wrap past the cap.
                let dim = parse_int::<u32>(KEY, args)?;
                if dim > 24 {
                    return Err(bad(KEY, "hypercube dimension capped at 24"));
                }
                GraphSpec::Hypercube { dim }
            }
            "book" => GraphSpec::Book {
                pages: one("a page count")?,
            },
            "caterpillar" => {
                let (spine, legs) = parse_axb(KEY, args)?;
                nonzero("caterpillar", spine)?;
                checked_area("caterpillar", spine, legs)?
                    .checked_add(spine)
                    .ok_or_else(|| bad(KEY, "caterpillar size overflows"))?;
                GraphSpec::Caterpillar { spine, legs }
            }
            "gnp" => {
                let vals = parse_named(KEY, args, &["n", "p"])?;
                let n = nonzero("gnp", parse_int::<usize>(KEY, &vals[0])?)?;
                let p = parse_int::<f64>(KEY, &vals[1])?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(bad(KEY, format!("gnp probability {p} not in [0, 1]")));
                }
                GraphSpec::Gnp { n, p }
            }
            "random-regular" => {
                let vals = parse_named(KEY, args, &["n", "d"])?;
                let n = parse_int::<usize>(KEY, &vals[0])?;
                let d = parse_int::<usize>(KEY, &vals[1])?;
                let stubs = checked_area("random-regular", n, d)?;
                if stubs % 2 != 0 {
                    return Err(bad(KEY, "random-regular needs n*d even"));
                }
                if d >= n {
                    return Err(bad(KEY, "random-regular needs d < n"));
                }
                GraphSpec::RandomRegular { n, d }
            }
            "random-tree" => {
                let vals = parse_named(KEY, args, &["n"])?;
                GraphSpec::RandomTree {
                    n: nonzero("random-tree", parse_int::<usize>(KEY, &vals[0])?)?,
                }
            }
            other => {
                return Err(SpecError::UnknownScenario {
                    kind: "graph family",
                    name: other.to_string(),
                })
            }
        };
        Ok(spec)
    }

    /// Builds the graph. Random families draw from a generator seeded
    /// by `graph_seed` — the same seed always yields the same graph.
    pub fn build(&self, graph_seed: u64) -> Graph {
        use lsl_graph::generators as g;
        let mut rng = StdRng::seed_from_u64(graph_seed);
        match *self {
            GraphSpec::Path { n } => g::path(n),
            GraphSpec::Cycle { n } => g::cycle(n),
            GraphSpec::Complete { n } => g::complete(n),
            GraphSpec::CompleteBipartite { a, b } => g::complete_bipartite(a, b),
            GraphSpec::Star { n } => g::star(n),
            GraphSpec::Grid { rows, cols } => g::grid(rows, cols),
            GraphSpec::Torus { rows, cols } => g::torus(rows, cols),
            GraphSpec::Hypercube { dim } => g::hypercube(dim),
            GraphSpec::Book { pages } => g::book(pages),
            GraphSpec::Caterpillar { spine, legs } => g::caterpillar(spine, legs),
            GraphSpec::Gnp { n, p } => g::gnp(n, p, &mut rng),
            GraphSpec::RandomRegular { n, d } => g::random_regular(n, d, &mut rng),
            GraphSpec::RandomTree { n } => g::random_tree(n, &mut rng),
        }
    }

    /// Whether building consults the graph seed.
    pub fn is_random(&self) -> bool {
        matches!(
            self,
            GraphSpec::Gnp { .. } | GraphSpec::RandomRegular { .. } | GraphSpec::RandomTree { .. }
        )
    }
}

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphSpec::Path { n } => write!(f, "path:{n}"),
            GraphSpec::Cycle { n } => write!(f, "cycle:{n}"),
            GraphSpec::Complete { n } => write!(f, "complete:{n}"),
            GraphSpec::CompleteBipartite { a, b } => write!(f, "complete-bipartite:{a}x{b}"),
            GraphSpec::Star { n } => write!(f, "star:{n}"),
            GraphSpec::Grid { rows, cols } => write!(f, "grid:{rows}x{cols}"),
            GraphSpec::Torus { rows, cols } => write!(f, "torus:{rows}x{cols}"),
            GraphSpec::Hypercube { dim } => write!(f, "hypercube:{dim}"),
            GraphSpec::Book { pages } => write!(f, "book:{pages}"),
            GraphSpec::Caterpillar { spine, legs } => write!(f, "caterpillar:{spine}x{legs}"),
            GraphSpec::Gnp { n, p } => write!(f, "gnp:n={n},p={p}"),
            GraphSpec::RandomRegular { n, d } => write!(f, "random-regular:n={n},d={d}"),
            GraphSpec::RandomTree { n } => write!(f, "random-tree:n={n}"),
        }
    }
}

// ---------------------------------------------------------------------
// Model scenarios
// ---------------------------------------------------------------------

/// A named distribution over configurations of the graph — every
/// [`lsl_mrf::models`] constructor plus the weighted-CSP scenarios.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // variants mirror `lsl_mrf::models` / `Csp` 1:1
pub enum ModelSpec {
    /// `coloring:q=Q` — uniform proper q-colorings.
    Coloring { q: usize },
    /// `list-coloring:q=Q,size=K` — proper list colorings with
    /// pseudorandom per-vertex lists of `K` colors out of `[Q]`,
    /// derived deterministically from the graph seed.
    ListColoring { q: usize, size: usize },
    /// `hardcore:lambda=L` — independent sets weighted `λ^|I|`.
    Hardcore { lambda: f64 },
    /// `independent-set` — uniform independent sets (`hardcore`, λ=1).
    IndependentSet,
    /// `vertex-cover` — uniform vertex covers.
    VertexCover,
    /// `ising:beta=B` — the Ising model.
    Ising { beta: f64 },
    /// `potts:q=Q,beta=B` — the q-state Potts model.
    Potts { q: usize, beta: f64 },
    /// `dominating-set` — uniform dominating sets (a weighted CSP; the
    /// all-ones configuration is the canonical feasible start).
    DominatingSet,
    /// `mis` — uniform maximal independent sets (a weighted CSP; a
    /// greedy MIS is the canonical feasible start).
    Mis,
}

impl ModelSpec {
    /// Parses the value of a `model=` key (e.g. `ising:beta=0.4`).
    pub fn parse(value: &str) -> Result<Self, SpecError> {
        const KEY: &str = "model";
        let (name, args) = match value.split_once(':') {
            Some((n, a)) => (n, a),
            None => (value, ""),
        };
        let no_args = |spec: ModelSpec| -> Result<ModelSpec, SpecError> {
            if args.is_empty() {
                Ok(spec)
            } else {
                Err(bad(KEY, format!("{name} takes no arguments, got {args:?}")))
            }
        };
        match name {
            "coloring" => {
                let vals = parse_named(KEY, args, &["q"])?;
                let q = parse_int::<usize>(KEY, &vals[0])?;
                if q < 2 {
                    return Err(bad(KEY, "coloring needs q >= 2"));
                }
                Ok(ModelSpec::Coloring { q })
            }
            "list-coloring" => {
                let vals = parse_named(KEY, args, &["q", "size"])?;
                let q = parse_int::<usize>(KEY, &vals[0])?;
                let size = parse_int::<usize>(KEY, &vals[1])?;
                if q < 2 {
                    return Err(bad(KEY, "list-coloring needs q >= 2"));
                }
                if size == 0 || size > q {
                    return Err(bad(KEY, "list-coloring needs 1 <= size <= q"));
                }
                Ok(ModelSpec::ListColoring { q, size })
            }
            "hardcore" => {
                let vals = parse_named(KEY, args, &["lambda"])?;
                let lambda = parse_int::<f64>(KEY, &vals[0])?;
                if !(lambda > 0.0) {
                    return Err(bad(KEY, "hardcore needs lambda > 0"));
                }
                Ok(ModelSpec::Hardcore { lambda })
            }
            "independent-set" => no_args(ModelSpec::IndependentSet),
            "vertex-cover" => no_args(ModelSpec::VertexCover),
            "ising" => {
                let vals = parse_named(KEY, args, &["beta"])?;
                let beta = parse_int::<f64>(KEY, &vals[0])?;
                if !(beta > 0.0) {
                    return Err(bad(KEY, "ising needs beta > 0"));
                }
                Ok(ModelSpec::Ising { beta })
            }
            "potts" => {
                let vals = parse_named(KEY, args, &["q", "beta"])?;
                let q = parse_int::<usize>(KEY, &vals[0])?;
                let beta = parse_int::<f64>(KEY, &vals[1])?;
                if q < 2 {
                    return Err(bad(KEY, "potts needs q >= 2"));
                }
                if !(beta > 0.0) {
                    return Err(bad(KEY, "potts needs beta > 0"));
                }
                Ok(ModelSpec::Potts { q, beta })
            }
            "dominating-set" => no_args(ModelSpec::DominatingSet),
            "mis" => no_args(ModelSpec::Mis),
            other => Err(SpecError::UnknownScenario {
                kind: "model",
                name: other.to_string(),
            }),
        }
    }

    /// Whether the model is a weighted CSP (built through
    /// [`Sampler::for_csp`] with a canonical feasible start).
    pub fn is_csp(&self) -> bool {
        matches!(self, ModelSpec::DominatingSet | ModelSpec::Mis)
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelSpec::Coloring { q } => write!(f, "coloring:q={q}"),
            ModelSpec::ListColoring { q, size } => write!(f, "list-coloring:q={q},size={size}"),
            ModelSpec::Hardcore { lambda } => write!(f, "hardcore:lambda={lambda}"),
            ModelSpec::IndependentSet => f.write_str("independent-set"),
            ModelSpec::VertexCover => f.write_str("vertex-cover"),
            ModelSpec::Ising { beta } => write!(f, "ising:beta={beta}"),
            ModelSpec::Potts { q, beta } => write!(f, "potts:q={q},beta={beta}"),
            ModelSpec::DominatingSet => f.write_str("dominating-set"),
            ModelSpec::Mis => f.write_str("mis"),
        }
    }
}

/// A built model: the owned handles a spec's workload samples from.
/// Cached by [`Service`](crate::service::Service) under the spec's
/// [`JobSpec::model_key`].
#[derive(Clone, Debug)]
pub enum BuiltModel {
    /// An MRF workload.
    Mrf(Arc<Mrf>),
    /// A CSP workload with its canonical feasible start.
    Csp {
        /// The CSP.
        csp: Arc<Csp>,
        /// The canonical feasible start configuration.
        start: Vec<Spin>,
    },
}

/// Greedy maximal independent set by ascending vertex id — the
/// canonical feasible start of the `mis` scenario.
fn greedy_mis(g: &Graph) -> Vec<Spin> {
    let n = g.num_vertices();
    let mut in_set = vec![0 as Spin; n];
    for v in g.vertices() {
        if g.neighbors(v).all(|u| in_set[u.index()] == 0) {
            in_set[v.index()] = 1;
        }
    }
    in_set
}

/// The domain size `q` of a built model — what a
/// [`StateBlob`] packs against.
fn domain_size(model: &BuiltModel) -> usize {
    match model {
        BuiltModel::Mrf(mrf) => mrf.q(),
        BuiltModel::Csp { csp, .. } => csp.q(),
    }
}

// ---------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------

/// A full-state delivery sink: `stream` jobs hand `(round, blob)`
/// pairs here, with the same preemption contract as
/// [`ProgressSink`](crate::mixing::ProgressSink) — `Break` stops the
/// job at the current slice boundary.
pub type StateSink<'a> = &'a mut dyn FnMut(u64, StateBlob) -> std::ops::ControlFlow<()>;

/// What a spec measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobKind {
    /// `run:rounds=N` — advance one trajectory and report the final
    /// configuration (the default job, `rounds=100`).
    Run {
        /// Rounds to advance after burn-in.
        rounds: usize,
    },
    /// `distribution:rounds=N,replicas=B` — the empirical distribution
    /// of `B` iid replicas after `N` rounds (MRF only).
    Distribution {
        /// Rounds per replica.
        rounds: usize,
        /// Number of iid replicas.
        replicas: usize,
    },
    /// `tv:rounds=N,replicas=B` — empirical total-variation distance to
    /// the exactly enumerated Gibbs distribution (MRF only; the state
    /// space must be small enough to enumerate).
    Tv {
        /// Rounds per replica.
        rounds: usize,
        /// Number of iid replicas.
        replicas: usize,
    },
    /// `coalescence:trials=T,max-rounds=M` — grand-coupling coalescence
    /// rounds from adversarial starts (MRF only).
    Coalescence {
        /// Independent grand couplings.
        trials: usize,
        /// Per-trial round budget.
        max_rounds: usize,
    },
    /// `sample[:rounds=N,count=K]` — advance `K` iid replicas and
    /// return their final configurations as packed
    /// [`StateBlob`]s (defaults
    /// `rounds=100,count=1`; `count > 1` is MRF only, like every
    /// replica job).
    Sample {
        /// Rounds to advance after burn-in.
        rounds: usize,
        /// Number of iid replicas whose final states ship.
        count: usize,
    },
    /// `stream[:rounds=N,every=K]` — advance one trajectory,
    /// delivering the full configuration every `K` rounds as
    /// [`JobEvent::State`](crate::service::JobEvent::State) (defaults
    /// `rounds=100,every=1`; the final round always ships).
    Stream {
        /// Rounds to advance after burn-in.
        rounds: usize,
        /// Rounds between state deliveries.
        every: usize,
    },
}

impl JobKind {
    fn parse(value: &str) -> Result<Self, SpecError> {
        const KEY: &str = "job";
        let (name, args) = match value.split_once(':') {
            Some((n, a)) => (n, a),
            None => (value, ""),
        };
        match name {
            "run" => {
                if args.is_empty() {
                    return Ok(JobKind::Run { rounds: 100 });
                }
                let vals = parse_named(KEY, args, &["rounds"])?;
                Ok(JobKind::Run {
                    rounds: parse_int::<usize>(KEY, &vals[0])?,
                })
            }
            "distribution" => {
                let vals = parse_named(KEY, args, &["rounds", "replicas"])?;
                Ok(JobKind::Distribution {
                    rounds: parse_int::<usize>(KEY, &vals[0])?,
                    replicas: parse_int::<usize>(KEY, &vals[1])?,
                })
            }
            "tv" => {
                let vals = parse_named(KEY, args, &["rounds", "replicas"])?;
                Ok(JobKind::Tv {
                    rounds: parse_int::<usize>(KEY, &vals[0])?,
                    replicas: parse_int::<usize>(KEY, &vals[1])?,
                })
            }
            "coalescence" => {
                let vals = parse_named(KEY, args, &["trials", "max-rounds"])?;
                Ok(JobKind::Coalescence {
                    trials: parse_int::<usize>(KEY, &vals[0])?,
                    max_rounds: parse_int::<usize>(KEY, &vals[1])?,
                })
            }
            "sample" => {
                let vals = parse_named_defaults(KEY, args, &["rounds", "count"], &["100", "1"])?;
                let count = parse_int::<usize>(KEY, &vals[1])?;
                if count == 0 {
                    return Err(bad(KEY, "sample needs count >= 1"));
                }
                Ok(JobKind::Sample {
                    rounds: parse_int::<usize>(KEY, &vals[0])?,
                    count,
                })
            }
            "stream" => {
                let vals = parse_named_defaults(KEY, args, &["rounds", "every"], &["100", "1"])?;
                let every = parse_int::<usize>(KEY, &vals[1])?;
                if every == 0 {
                    return Err(bad(KEY, "stream needs every >= 1"));
                }
                Ok(JobKind::Stream {
                    rounds: parse_int::<usize>(KEY, &vals[0])?,
                    every,
                })
            }
            other => Err(SpecError::UnknownScenario {
                kind: "job",
                name: other.to_string(),
            }),
        }
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            JobKind::Run { rounds } => write!(f, "run:rounds={rounds}"),
            JobKind::Distribution { rounds, replicas } => {
                write!(f, "distribution:rounds={rounds},replicas={replicas}")
            }
            JobKind::Tv { rounds, replicas } => {
                write!(f, "tv:rounds={rounds},replicas={replicas}")
            }
            JobKind::Coalescence { trials, max_rounds } => {
                write!(f, "coalescence:trials={trials},max-rounds={max_rounds}")
            }
            JobKind::Sample { rounds, count } => {
                write!(f, "sample:rounds={rounds},count={count}")
            }
            JobKind::Stream { rounds, every } => {
                write!(f, "stream:rounds={rounds},every={every}")
            }
        }
    }
}

// ---------------------------------------------------------------------
// The spec itself
// ---------------------------------------------------------------------

/// A complete declarative workload: graph × model × algorithm ×
/// scheduler × backend × job, parseable from (and printable to) one
/// spec line. See the [module docs](self) for the grammar.
///
/// Optional keys are stored as `Option` so printing reproduces exactly
/// what was written: `spec.to_string().parse()` returns an identical
/// `JobSpec`. Effective defaults are resolved at run time
/// ([`JobSpec::algorithm_or_default`] and friends).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The graph scenario (required).
    pub graph: GraphSpec,
    /// The model scenario (required).
    pub model: ModelSpec,
    /// The chain (default: the facade's per-model default).
    pub algorithm: Option<Algorithm>,
    /// The LubyGlauber scheduler (default: Luby, facade-side).
    pub scheduler: Option<Sched>,
    /// The execution backend (default: sequential).
    pub backend: Option<Backend>,
    /// The sharded partitioner (default: contiguous).
    pub partitioner: Option<Partitioner>,
    /// The engine hot path (default: the engine default, lane-batched
    /// kernels). Trajectories are hot-path-independent.
    pub hotpath: Option<HotPath>,
    /// The chain master seed (default: 0).
    pub seed: Option<u64>,
    /// The random-graph seed (default: the chain seed).
    pub graph_seed: Option<u64>,
    /// Burn-in rounds before the job's measured rounds (default: 0;
    /// `run` jobs only).
    pub burn_in: Option<usize>,
    /// What to measure (default: `run:rounds=100`).
    pub job: Option<JobKind>,
}

impl JobSpec {
    /// A minimal spec for `graph` × `model`, defaults everywhere else.
    pub fn new(graph: GraphSpec, model: ModelSpec) -> Self {
        JobSpec {
            graph,
            model,
            algorithm: None,
            scheduler: None,
            backend: None,
            partitioner: None,
            hotpath: None,
            seed: None,
            graph_seed: None,
            burn_in: None,
            job: None,
        }
    }

    /// The effective algorithm (the facade's per-model default when
    /// unset: LocalMetropolis on MRFs, LubyGlauber on CSPs).
    pub fn algorithm_or_default(&self) -> Algorithm {
        self.algorithm.unwrap_or(if self.model.is_csp() {
            Algorithm::LubyGlauber
        } else {
            Algorithm::LocalMetropolis
        })
    }

    /// The effective chain seed (0 when unset).
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(0)
    }

    /// The effective graph seed (the chain seed when unset).
    pub fn graph_seed_or_default(&self) -> u64 {
        self.graph_seed.unwrap_or_else(|| self.seed_or_default())
    }

    /// The effective backend (sequential when unset).
    pub fn backend_or_default(&self) -> Backend {
        self.backend.unwrap_or(Backend::Sequential)
    }

    /// The effective job (`run:rounds=100` when unset).
    pub fn job_or_default(&self) -> JobKind {
        self.job.unwrap_or(JobKind::Run { rounds: 100 })
    }

    /// The cache key of the built model: the part of the canonical form
    /// that determines the graph and model bit-for-bit. Two specs with
    /// equal keys build identical models, so a
    /// [`Service`](crate::service::Service) shares one build.
    pub fn model_key(&self) -> String {
        let mut key = format!("graph={} model={}", self.graph, self.model);
        // The graph seed only matters for random families; the list
        // coloring also derives its lists from it.
        let seeded = self.graph.is_random() || matches!(self.model, ModelSpec::ListColoring { .. });
        if seeded {
            key.push_str(&format!(" graph-seed={}", self.graph_seed_or_default()));
        }
        key
    }

    /// Builds the model (graph included), deterministically: equal
    /// [`JobSpec::model_key`]s yield bit-identical models.
    pub fn build_model(&self) -> BuiltModel {
        let graph_seed = self.graph_seed_or_default();
        let graph = Arc::new(self.graph.build(graph_seed));
        match self.model {
            ModelSpec::Coloring { q } => {
                BuiltModel::Mrf(Arc::new(models::proper_coloring(graph, q)))
            }
            ModelSpec::ListColoring { q, size } => {
                // Deterministic pseudorandom lists: shuffle [q] per
                // vertex under a seed derived from the graph seed.
                let mut rng = StdRng::seed_from_u64(graph_seed ^ 0x4c49_5354_434f_4c52); // "LISTCOLR"
                let lists: Vec<Vec<u32>> = (0..graph.num_vertices())
                    .map(|_| {
                        let mut colors: Vec<u32> = (0..q as u32).collect();
                        colors.shuffle(&mut rng);
                        colors.truncate(size);
                        colors.sort_unstable();
                        colors
                    })
                    .collect();
                BuiltModel::Mrf(Arc::new(models::list_coloring(graph, q, &lists)))
            }
            ModelSpec::Hardcore { lambda } => {
                BuiltModel::Mrf(Arc::new(models::hardcore(graph, lambda)))
            }
            ModelSpec::IndependentSet => {
                BuiltModel::Mrf(Arc::new(models::uniform_independent_set(graph)))
            }
            ModelSpec::VertexCover => BuiltModel::Mrf(Arc::new(models::vertex_cover(graph))),
            ModelSpec::Ising { beta } => BuiltModel::Mrf(Arc::new(models::ising(graph, beta))),
            ModelSpec::Potts { q, beta } => {
                BuiltModel::Mrf(Arc::new(models::potts(graph, q, beta)))
            }
            ModelSpec::DominatingSet => {
                let start = vec![1; graph.num_vertices()];
                BuiltModel::Csp {
                    csp: Arc::new(Csp::dominating_set(graph)),
                    start,
                }
            }
            ModelSpec::Mis => {
                let start = greedy_mis(&graph);
                BuiltModel::Csp {
                    csp: Arc::new(Csp::maximal_independent_set(graph)),
                    start,
                }
            }
        }
    }

    /// Opens the facade builder this spec describes, over an
    /// already-built model (so services can reuse cached builds).
    pub fn sampler_builder(&self, model: &BuiltModel) -> SamplerBuilder {
        let mut b = match model {
            BuiltModel::Mrf(mrf) => Sampler::for_mrf(Arc::clone(mrf)),
            BuiltModel::Csp { csp, start } => {
                Sampler::for_csp(Arc::clone(csp)).start(start.clone())
            }
        };
        b = b
            .algorithm(self.algorithm_or_default())
            .backend(self.backend_or_default())
            .seed(self.seed_or_default());
        if let Some(sched) = self.scheduler {
            b = b.scheduler(sched);
        }
        if let Some(p) = self.partitioner {
            b = b.partitioner(p);
        }
        if let Some(h) = self.hotpath {
            b = b.hotpath(h);
        }
        b
    }

    /// A static upper bound on the engine rounds this job may execute —
    /// the admission proxy behind
    /// [`Limits::max_rounds`](crate::lifecycle::Limits::max_rounds).
    /// Saturating, so absurd specs rank as "infinite" rather than wrap.
    pub fn round_budget(&self) -> u64 {
        let budget = match self.job_or_default() {
            JobKind::Run { rounds } => {
                (rounds as u64).saturating_add(self.burn_in.unwrap_or(0) as u64)
            }
            JobKind::Distribution { rounds, replicas } | JobKind::Tv { rounds, replicas } => {
                (rounds as u64).saturating_mul(replicas as u64)
            }
            JobKind::Coalescence { trials, max_rounds } => {
                (trials as u64).saturating_mul(max_rounds as u64)
            }
            JobKind::Sample { rounds, count } => (rounds as u64)
                .saturating_add(self.burn_in.unwrap_or(0) as u64)
                .saturating_mul(count as u64),
            JobKind::Stream { rounds, .. } => {
                (rounds as u64).saturating_add(self.burn_in.unwrap_or(0) as u64)
            }
        };
        budget.max(1)
    }

    /// Builds the model and runs the job — the one-call entry point.
    /// Bit-identical to hand-building the same workload through the
    /// facade (property-tested in `tests/service_identity.rs`).
    pub fn run(&self) -> Result<JobResult, SpecError> {
        let model = self.build_model();
        self.run_on(&model)
    }

    /// Runs the job on an already-built model (the service's path).
    pub fn run_on(&self, model: &BuiltModel) -> Result<JobResult, SpecError> {
        self.run_on_observed(model, &mut |_, _| std::ops::ControlFlow::Continue(()))
    }

    /// [`JobSpec::run_on`] reporting progress through `progress` with
    /// monotone `(done, total)` work units — what a service worker
    /// runs so in-flight jobs stream `Progress` events from the
    /// long-running round loops. Observation never changes the result:
    /// `run` jobs are advanced in round slices (bit-identical under
    /// the engine's counter-keyed randomness) and the measurement jobs
    /// call the `*_observed` facade verbs, which batch and seed
    /// exactly like their silent forms.
    pub fn run_on_observed(
        &self,
        model: &BuiltModel,
        progress: crate::mixing::ProgressSink<'_>,
    ) -> Result<JobResult, SpecError> {
        self.run_on_streamed(model, progress, &mut |_, _| {
            std::ops::ControlFlow::Continue(())
        })
    }

    /// [`JobSpec::run_on_observed`] with a second sink for full-state
    /// delivery: `stream` jobs hand every `every`-th configuration to
    /// `states` as a packed [`StateBlob`]
    /// (final round included). Like progress observation, state
    /// extraction never perturbs the trajectory — states are read at
    /// slice boundaries, where `run(a); run(b)` ≡ `run(a+b)` holds by
    /// the determinism contract. Non-streaming jobs never call
    /// `states`.
    pub fn run_on_streamed(
        &self,
        model: &BuiltModel,
        progress: crate::mixing::ProgressSink<'_>,
        states: StateSink<'_>,
    ) -> Result<JobResult, SpecError> {
        let started = std::time::Instant::now();
        let output = match self.job_or_default() {
            JobKind::Run { rounds } => {
                let mut sampler = self
                    .sampler_builder(model)
                    .burn_in(self.burn_in.unwrap_or(0))
                    .build()?;
                run_sliced(rounds, progress, |now| sampler.run(now));
                let state = sampler.state();
                let feasible = match model {
                    BuiltModel::Mrf(mrf) => mrf.is_feasible(state),
                    BuiltModel::Csp { csp, .. } => csp.is_feasible(state),
                };
                JobOutput::Run {
                    rounds: sampler.round(),
                    n: state.len(),
                    feasible,
                    fingerprint: fingerprint(state),
                    comm: sampler.comm_stats().map(CommSummary::of),
                }
            }
            JobKind::Distribution { rounds, replicas } => {
                let emp = self
                    .sampler_builder(model)
                    .distribution_observed(rounds, replicas, progress)?;
                JobOutput::Distribution {
                    replicas: emp.total(),
                    support: emp.support_size(),
                }
            }
            JobKind::Tv { rounds, replicas } => {
                let mrf = match model {
                    BuiltModel::Mrf(mrf) => mrf,
                    BuiltModel::Csp { .. } => {
                        return Err(SpecError::Unsupported {
                            message: "the tv job needs an MRF (exact enumeration)".into(),
                        })
                    }
                };
                let exact = Enumeration::new(mrf).map_err(|e| SpecError::Unsupported {
                    message: format!("the tv job cannot enumerate this model exactly: {e}"),
                })?;
                let tv = self
                    .sampler_builder(model)
                    .tv_observed(&exact, rounds, replicas, progress)?;
                JobOutput::Tv {
                    rounds,
                    replicas,
                    tv,
                }
            }
            JobKind::Coalescence { trials, max_rounds } => {
                let report = self
                    .sampler_builder(model)
                    .coalescence_observed(trials, max_rounds, progress)?;
                JobOutput::Coalescence {
                    trials,
                    mean_rounds: report.summary.mean,
                    std_error: report.summary.std_error,
                    timeouts: report.timeouts,
                }
            }
            JobKind::Sample { rounds, count } => {
                let q = domain_size(model);
                if count == 1 {
                    // One replica rides the plain sampler path, so
                    // single-sample jobs work on CSPs too.
                    let mut sampler = self
                        .sampler_builder(model)
                        .burn_in(self.burn_in.unwrap_or(0))
                        .build()?;
                    run_sliced(rounds, progress, |now| sampler.run(now));
                    JobOutput::Sample {
                        rounds: sampler.round(),
                        states: vec![StateBlob::pack(sampler.state(), q)],
                    }
                } else {
                    let mut replicas = self
                        .sampler_builder(model)
                        .burn_in(self.burn_in.unwrap_or(0))
                        .replicas(count)
                        .build()?;
                    run_sliced(rounds, progress, |now| replicas.run(now));
                    JobOutput::Sample {
                        rounds: replicas.round(),
                        states: (0..count)
                            .map(|b| StateBlob::pack(replicas.state(b), q))
                            .collect(),
                    }
                }
            }
            JobKind::Stream { rounds, every } => {
                let q = domain_size(model);
                let mut sampler = self
                    .sampler_builder(model)
                    .burn_in(self.burn_in.unwrap_or(0))
                    .build()?;
                let n = sampler.state().len();
                let mut ran = 0usize;
                let mut shipped = 0u64;
                while ran < rounds {
                    // Slices of `every` rounds: each boundary is a
                    // delivery point, and the last (possibly partial)
                    // slice ships the final configuration.
                    let now = every.min(rounds - ran);
                    sampler.run(now);
                    ran += now;
                    if states(sampler.round(), StateBlob::pack(sampler.state(), q)).is_break() {
                        break;
                    }
                    shipped += 1;
                    if progress(ran as u64, rounds.max(1) as u64).is_break() {
                        break;
                    }
                }
                if rounds == 0 {
                    // Degenerate stream: deliver the start state once.
                    if states(sampler.round(), StateBlob::pack(sampler.state(), q)).is_continue() {
                        shipped += 1;
                    }
                    let _ = progress(1, 1);
                }
                JobOutput::Stream {
                    rounds: sampler.round(),
                    every,
                    n,
                    states: shipped,
                    fingerprint: fingerprint(sampler.state()),
                }
            }
        };
        Ok(JobResult {
            spec: self.to_string(),
            output,
            elapsed_secs: started.elapsed().as_secs_f64(),
        })
    }
}

/// Advances `rounds` rounds through `run` in up to 16 slices, ticking
/// `progress` after each (once, at `(1, 1)`, for zero rounds). Sliced
/// stepping is free of observable effect on the trajectory:
/// `run(a); run(b)` equals `run(a+b)` by the determinism contract. A
/// break from `progress` (cancellation) stops at the slice boundary;
/// the caller discards the result.
fn run_sliced(
    rounds: usize,
    progress: crate::mixing::ProgressSink<'_>,
    mut run: impl FnMut(usize),
) {
    if rounds == 0 {
        let _ = progress(1, 1);
        return;
    }
    let slice = (rounds / 16).max(1);
    let mut ran = 0usize;
    while ran < rounds {
        let now = slice.min(rounds - ran);
        run(now);
        ran += now;
        if progress(ran as u64, rounds as u64).is_break() {
            break;
        }
    }
}

impl fmt::Display for JobSpec {
    /// The canonical form: keys in fixed order, unset keys omitted.
    /// Parsing the printed form reproduces the identical spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph={} model={}", self.graph, self.model)?;
        if let Some(a) = self.algorithm {
            write!(f, " algorithm={a}")?;
        }
        if let Some(s) = self.scheduler {
            write!(f, " scheduler={s}")?;
        }
        if let Some(b) = self.backend {
            write!(f, " backend={b}")?;
        }
        if let Some(p) = self.partitioner {
            write!(f, " partitioner={p}")?;
        }
        if let Some(h) = self.hotpath {
            write!(f, " hotpath={h}")?;
        }
        if let Some(s) = self.seed {
            write!(f, " seed={s}")?;
        }
        if let Some(s) = self.graph_seed {
            write!(f, " graph-seed={s}")?;
        }
        if let Some(b) = self.burn_in {
            write!(f, " burn-in={b}")?;
        }
        if let Some(j) = self.job {
            write!(f, " job={j}")?;
        }
        Ok(())
    }
}

impl FromStr for JobSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut graph = None;
        let mut model = None;
        let mut algorithm = None;
        let mut scheduler = None;
        let mut backend = None;
        let mut partitioner = None;
        let mut hotpath = None;
        let mut seed = None;
        let mut graph_seed = None;
        let mut burn_in = None;
        let mut job = None;

        fn set<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), SpecError> {
            if slot.is_some() {
                return Err(SpecError::DuplicateKey {
                    key: key.to_string(),
                });
            }
            *slot = Some(value);
            Ok(())
        }

        for token in s.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| SpecError::NotKeyValue {
                    token: token.to_string(),
                })?;
            match key {
                "graph" => set(&mut graph, key, GraphSpec::parse(value)?)?,
                "model" => set(&mut model, key, ModelSpec::parse(value)?)?,
                "algorithm" => set(
                    &mut algorithm,
                    key,
                    value.parse::<Algorithm>().map_err(|m| bad(key, m))?,
                )?,
                "scheduler" => set(
                    &mut scheduler,
                    key,
                    value.parse::<Sched>().map_err(|m| bad(key, m))?,
                )?,
                "backend" => set(
                    &mut backend,
                    key,
                    value.parse::<Backend>().map_err(|m| bad(key, m))?,
                )?,
                "partitioner" => set(
                    &mut partitioner,
                    key,
                    value.parse::<Partitioner>().map_err(|m| bad(key, m))?,
                )?,
                "hotpath" => set(
                    &mut hotpath,
                    key,
                    value.parse::<HotPath>().map_err(|m| bad(key, m))?,
                )?,
                "seed" => set(&mut seed, key, parse_int::<u64>(key, value)?)?,
                "graph-seed" => set(&mut graph_seed, key, parse_int::<u64>(key, value)?)?,
                "burn-in" => set(&mut burn_in, key, parse_int::<usize>(key, value)?)?,
                "job" => set(&mut job, key, JobKind::parse(value)?)?,
                other => {
                    return Err(SpecError::UnknownKey {
                        key: other.to_string(),
                    })
                }
            }
        }

        Ok(JobSpec {
            graph: graph.ok_or(SpecError::MissingKey { key: "graph" })?,
            model: model.ok_or(SpecError::MissingKey { key: "model" })?,
            algorithm,
            scheduler,
            backend,
            partitioner,
            hotpath,
            seed,
            graph_seed,
            burn_in,
            job,
        })
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// FNV-1a over the configuration — a stable fingerprint for comparing
/// trajectories without shipping whole states around.
pub fn fingerprint(state: &[Spin]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &s in state {
        for byte in s.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Boundary-communication totals of a sharded run (a `PartialEq`
/// condensation of [`CommStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommSummary {
    /// Rounds accounted for.
    pub rounds_seen: u64,
    /// Total boundary messages.
    pub total_messages: u64,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Messages whose state actually changed.
    pub total_changed: u64,
}

impl CommSummary {
    /// Condenses a [`CommStats`] record.
    pub fn of(stats: &CommStats) -> Self {
        CommSummary {
            rounds_seen: stats.rounds_seen(),
            total_messages: stats.total_messages(),
            total_bytes: stats.total_bytes(),
            total_changed: stats.total_changed(),
        }
    }
}

/// What a job measured. Everything here is a deterministic function of
/// the spec (the determinism contract extended to jobs), so equality
/// across runs — or across service workers — is exact.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// A `run` job: one trajectory's endpoint.
    Run {
        /// Total rounds executed (burn-in included).
        rounds: u64,
        /// Number of vertices.
        n: usize,
        /// Whether the final configuration is feasible.
        feasible: bool,
        /// FNV-1a fingerprint of the final configuration.
        fingerprint: u64,
        /// Boundary-communication totals (sharded backend only).
        comm: Option<CommSummary>,
    },
    /// A `distribution` job: the empirical distribution's shape.
    Distribution {
        /// Replicas recorded.
        replicas: u64,
        /// Distinct configurations observed.
        support: usize,
    },
    /// A `tv` job: empirical distance to exact.
    Tv {
        /// Rounds per replica.
        rounds: usize,
        /// Replicas.
        replicas: usize,
        /// Empirical total-variation distance to the exact Gibbs
        /// distribution.
        tv: f64,
    },
    /// A `coalescence` job: grand-coupling summary.
    Coalescence {
        /// Trials run.
        trials: usize,
        /// Mean coalescence round over completed trials.
        mean_rounds: f64,
        /// Standard error of the mean.
        std_error: f64,
        /// Trials that exhausted the budget.
        timeouts: usize,
    },
    /// A `sample` job: the final configurations themselves — what the
    /// paper's samplers exist to produce.
    Sample {
        /// Total rounds executed per replica (burn-in included).
        rounds: u64,
        /// One packed configuration per replica, in replica order.
        states: Vec<StateBlob>,
    },
    /// A `stream` job's summary: the per-round states went out as
    /// [`JobEvent::State`](crate::service::JobEvent::State) events;
    /// the result records the stream's shape and the final
    /// fingerprint for cross-checking against a `run` job.
    Stream {
        /// Total rounds executed (burn-in included).
        rounds: u64,
        /// Rounds between deliveries.
        every: usize,
        /// Number of vertices per delivered state.
        n: usize,
        /// States delivered.
        states: u64,
        /// FNV-1a fingerprint of the final configuration.
        fingerprint: u64,
    },
}

impl JobOutput {
    /// The one scalar a sweep summarizes per job, chosen per kind:
    /// `run` → feasibility as 1.0/0.0 (so a sweep's mean is the
    /// feasibility rate), `distribution` → support size, `tv` → the
    /// TV distance, `coalescence` → mean coalescence rounds. A
    /// deterministic function of the output, so sweep summaries are
    /// covered by the determinism contract.
    #[must_use]
    pub fn metric(&self) -> f64 {
        match *self {
            JobOutput::Run { feasible, .. } => {
                if feasible {
                    1.0
                } else {
                    0.0
                }
            }
            JobOutput::Distribution { support, .. } => support as f64,
            JobOutput::Tv { tv, .. } => tv,
            JobOutput::Coalescence { mean_rounds, .. } => mean_rounds,
            JobOutput::Sample { ref states, .. } => states.len() as f64,
            JobOutput::Stream { states, .. } => states as f64,
        }
    }
}

impl fmt::Display for JobOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutput::Run {
                rounds,
                n,
                feasible,
                fingerprint,
                comm,
            } => {
                write!(
                    f,
                    "run: rounds={rounds} n={n} feasible={feasible} fingerprint={fingerprint:016x}"
                )?;
                if let Some(c) = comm {
                    write!(
                        f,
                        " messages={} bytes={} changed={}",
                        c.total_messages, c.total_bytes, c.total_changed
                    )?;
                }
                Ok(())
            }
            JobOutput::Distribution { replicas, support } => {
                write!(f, "distribution: replicas={replicas} support={support}")
            }
            JobOutput::Tv {
                rounds,
                replicas,
                tv,
            } => write!(f, "tv: rounds={rounds} replicas={replicas} tv={tv:.6}"),
            JobOutput::Coalescence {
                trials,
                mean_rounds,
                std_error,
                timeouts,
            } => write!(
                f,
                "coalescence: trials={trials} mean_rounds={mean_rounds:.2} \
                 se={std_error:.2} timeouts={timeouts}"
            ),
            JobOutput::Sample { rounds, states } => {
                // Human form: shape only — the blobs themselves go to
                // `--out`, not the terminal.
                let (n, bytes) = states
                    .first()
                    .map(|b| (b.n(), b.byte_len()))
                    .unwrap_or((0, 0));
                write!(
                    f,
                    "sample: rounds={rounds} count={} n={n} bytes-per-state={bytes}",
                    states.len()
                )
            }
            JobOutput::Stream {
                rounds,
                every,
                n,
                states,
                fingerprint,
            } => write!(
                f,
                "stream: rounds={rounds} every={every} n={n} states={states} \
                 fingerprint={fingerprint:016x}"
            ),
        }
    }
}

/// A finished job: the canonical spec it ran, what it measured, and
/// how long it took. Equality compares the spec and the output — the
/// wall-clock field is excluded, so bit-identity assertions between a
/// service run and a direct run are exact.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The canonical form of the spec that ran.
    pub spec: String,
    /// What the job measured.
    pub output: JobOutput,
    /// Wall-clock seconds (excluded from equality).
    pub elapsed_secs: f64,
}

impl PartialEq for JobResult {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec && self.output == other.output
    }
}

// ---------------------------------------------------------------------
// Sweeps: one spec line, many deterministic jobs
// ---------------------------------------------------------------------

/// Cap on the jobs one sweep line may expand into — a typo like
/// `seeds=0..999999999` must be a parse error, not a queue flood.
pub const MAX_SWEEP_JOBS: usize = 4096;

/// Which model parameter a `sweep=` clause varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepParam {
    /// The inverse temperature of `ising` / `potts`.
    Beta,
    /// The fugacity of `hardcore`.
    Lambda,
}

impl SweepParam {
    /// The spec-string name.
    pub fn name(self) -> &'static str {
        match self {
            SweepParam::Beta => "beta",
            SweepParam::Lambda => "lambda",
        }
    }
}

impl fmt::Display for SweepParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A `sweep=param:start..end:step` clause: an inclusive arithmetic
/// ladder of model-parameter values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParamSweep {
    /// The swept parameter.
    pub param: SweepParam,
    /// First value (must be > 0: every swept model requires it).
    pub start: f64,
    /// Last value covered (inclusive up to float rounding).
    pub end: f64,
    /// Ladder step (must be > 0).
    pub step: f64,
}

impl ParamSweep {
    fn parse(value: &str) -> Result<Self, SpecError> {
        const KEY: &str = "sweep";
        let (name, rest) = value.split_once(':').ok_or_else(|| {
            bad(
                KEY,
                format!("expected param:start..end:step, got {value:?}"),
            )
        })?;
        let param = match name {
            "beta" => SweepParam::Beta,
            "lambda" => SweepParam::Lambda,
            other => {
                return Err(bad(
                    KEY,
                    format!("unknown sweep parameter {other:?} (expected beta | lambda)"),
                ))
            }
        };
        let (range, step) = rest
            .rsplit_once(':')
            .ok_or_else(|| bad(KEY, format!("expected start..end:step, got {rest:?}")))?;
        let (start, end) = range
            .split_once("..")
            .ok_or_else(|| bad(KEY, format!("expected start..end, got {range:?}")))?;
        let start = parse_int::<f64>(KEY, start)?;
        let end = parse_int::<f64>(KEY, end)?;
        let step = parse_int::<f64>(KEY, step)?;
        if !(start > 0.0) || !start.is_finite() {
            return Err(bad(KEY, "sweep start must be a finite number > 0"));
        }
        if !(step > 0.0) || !step.is_finite() {
            return Err(bad(KEY, "sweep step must be a finite number > 0"));
        }
        if !(end >= start) || !end.is_finite() {
            return Err(bad(KEY, "sweep needs start <= end"));
        }
        let sweep = ParamSweep {
            param,
            start,
            end,
            step,
        };
        if sweep.len() > MAX_SWEEP_JOBS {
            return Err(bad(
                KEY,
                format!(
                    "sweep expands to {} values (cap {MAX_SWEEP_JOBS})",
                    sweep.len()
                ),
            ));
        }
        Ok(sweep)
    }

    /// Number of ladder values.
    #[must_use]
    pub fn len(&self) -> usize {
        // A hair of slack so 0.1..0.5:0.1 yields five values despite
        // binary rounding of the quotient.
        ((self.end - self.start) / self.step + 1e-9).floor() as usize + 1
    }

    /// Whether the ladder is empty (it never is — `len() >= 1`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The ladder values, computed as `start + i·step` (no running
    /// accumulation, so every value is a pure function of its index).
    #[must_use]
    pub fn values(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.start + i as f64 * self.step)
            .collect()
    }
}

impl fmt::Display for ParamSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}..{}:{}",
            self.param, self.start, self.end, self.step
        )
    }
}

/// A spec line that may expand into many jobs: a base [`JobSpec`] plus
/// the sweep clauses `seeds=a..b` (half-open seed range) and
/// `sweep=param:start..end:step` (model-parameter ladder). Expansion
/// ([`SweepSpec::expand`]) is deterministic — member `i` is a plain
/// [`JobSpec`] equal to what a hand-written single-job line would
/// produce, so sweep answers are covered by the bit-identity contract.
///
/// A line with neither clause is a single job ([`SweepSpec::is_single`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// The job template (its `seed=` / model parameters are what the
    /// clauses override per member).
    pub base: JobSpec,
    /// `seeds=a..b`: member seeds `a, a+1, .., b-1`.
    pub seeds: Option<(u64, u64)>,
    /// `sweep=param:start..end:step`: the parameter ladder.
    pub sweep: Option<ParamSweep>,
}

impl SweepSpec {
    /// Wraps a single job (no sweep clauses).
    pub fn single(base: JobSpec) -> Self {
        SweepSpec {
            base,
            seeds: None,
            sweep: None,
        }
    }

    /// Whether the line is a plain single job.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.seeds.is_none() && self.sweep.is_none()
    }

    /// How many jobs the line expands into.
    #[must_use]
    pub fn job_count(&self) -> usize {
        let seeds = self.seeds.map_or(1, |(a, b)| (b - a) as usize);
        let values = self.sweep.map_or(1, |s| s.len());
        seeds * values
    }

    /// Expands into member jobs, seed-major: member `i` covers seed
    /// index `i / values` and ladder index `i % values`. Every member
    /// is an ordinary [`JobSpec`]; running it alone gives the same
    /// answer as running it inside the sweep.
    #[must_use]
    pub fn expand(&self) -> Vec<JobSpec> {
        let seeds: Vec<Option<u64>> = match self.seeds {
            Some((a, b)) => (a..b).map(Some).collect(),
            None => vec![None],
        };
        let values: Vec<Option<(SweepParam, f64)>> = match self.sweep {
            Some(s) => s.values().into_iter().map(|v| Some((s.param, v))).collect(),
            None => vec![None],
        };
        let mut jobs = Vec::with_capacity(seeds.len() * values.len());
        for &seed in &seeds {
            for &value in &values {
                let mut spec = self.base.clone();
                if let Some(seed) = seed {
                    spec.seed = Some(seed);
                }
                if let Some((param, v)) = value {
                    spec.model = match (param, spec.model) {
                        (SweepParam::Beta, ModelSpec::Ising { .. }) => ModelSpec::Ising { beta: v },
                        (SweepParam::Beta, ModelSpec::Potts { q, .. }) => {
                            ModelSpec::Potts { q, beta: v }
                        }
                        (SweepParam::Lambda, ModelSpec::Hardcore { .. }) => {
                            ModelSpec::Hardcore { lambda: v }
                        }
                        // Parse-time validation rejects the mismatch.
                        (_, m) => m,
                    };
                }
                jobs.push(spec);
            }
        }
        jobs
    }
}

impl fmt::Display for SweepSpec {
    /// Canonical form: the base spec, then `seeds=`, then `sweep=`.
    /// Parsing the printed form reproduces the identical sweep.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        if let Some((a, b)) = self.seeds {
            write!(f, " seeds={a}..{b}")?;
        }
        if let Some(s) = self.sweep {
            write!(f, " sweep={s}")?;
        }
        Ok(())
    }
}

impl FromStr for SweepSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut seeds: Option<(u64, u64)> = None;
        let mut sweep: Option<ParamSweep> = None;
        let mut base_tokens: Vec<&str> = Vec::new();
        for token in s.split_whitespace() {
            if let Some(value) = token.strip_prefix("seeds=") {
                if seeds.is_some() {
                    return Err(SpecError::DuplicateKey {
                        key: "seeds".to_string(),
                    });
                }
                let (a, b) = value.split_once("..").ok_or_else(|| {
                    bad("seeds", format!("expected a half-open a..b, got {value:?}"))
                })?;
                let a = parse_int::<u64>("seeds", a)?;
                let b = parse_int::<u64>("seeds", b)?;
                if b <= a {
                    return Err(bad("seeds", format!("empty seed range {a}..{b}")));
                }
                if (b - a) as usize > MAX_SWEEP_JOBS {
                    return Err(bad(
                        "seeds",
                        format!("{} seeds requested (cap {MAX_SWEEP_JOBS})", b - a),
                    ));
                }
                seeds = Some((a, b));
            } else if let Some(value) = token.strip_prefix("sweep=") {
                if sweep.is_some() {
                    return Err(SpecError::DuplicateKey {
                        key: "sweep".to_string(),
                    });
                }
                sweep = Some(ParamSweep::parse(value)?);
            } else {
                base_tokens.push(token);
            }
        }
        let base: JobSpec = base_tokens.join(" ").parse()?;
        if let Some(s) = sweep {
            let compatible = matches!(
                (s.param, base.model),
                (SweepParam::Beta, ModelSpec::Ising { .. })
                    | (SweepParam::Beta, ModelSpec::Potts { .. })
                    | (SweepParam::Lambda, ModelSpec::Hardcore { .. })
            );
            if !compatible {
                return Err(bad(
                    "sweep",
                    format!("model {} has no {} parameter", base.model, s.param),
                ));
            }
        }
        if seeds.is_some() && base.seed.is_some() {
            return Err(bad("seeds", "seeds=a..b replaces seed=, give one of them"));
        }
        let sweep = SweepSpec { base, seeds, sweep };
        if sweep.job_count() > MAX_SWEEP_JOBS {
            return Err(bad(
                "sweep",
                format!(
                    "line expands to {} jobs (cap {MAX_SWEEP_JOBS})",
                    sweep.job_count()
                ),
            ));
        }
        Ok(sweep)
    }
}

/// Per-sweep aggregate of the member jobs' [`JobOutput::metric`]s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepSummary {
    /// Member jobs aggregated.
    pub jobs: usize,
    /// Mean metric.
    pub mean: f64,
    /// Smallest metric.
    pub min: f64,
    /// Largest metric.
    pub max: f64,
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep: jobs={} mean={:.6} min={:.6} max={:.6}",
            self.jobs, self.mean, self.min, self.max
        )
    }
}

/// All results of one expanded sweep line: the member results in
/// expansion order plus the metric summary. A deterministic function
/// of the sweep spec (every member is), so sweep answers can be
/// asserted bit-identical across services, backends, and the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepResult {
    /// The canonical sweep line.
    pub spec: String,
    /// Member results, indexed by expansion order.
    pub results: Vec<JobResult>,
    /// Aggregate over the members' [`JobOutput::metric`]s.
    pub summary: SweepSummary,
}

impl SweepResult {
    /// Aggregates member results (in expansion order) into a sweep
    /// result.
    ///
    /// # Panics
    /// Panics if `results` is empty (expansion always yields ≥ 1 job).
    #[must_use]
    pub fn aggregate(spec: String, results: Vec<JobResult>) -> Self {
        assert!(!results.is_empty(), "a sweep has at least one member");
        let metrics: Vec<f64> = results.iter().map(|r| r.output.metric()).collect();
        let mean = metrics.iter().sum::<f64>() / metrics.len() as f64;
        let min = metrics.iter().copied().fold(f64::INFINITY, f64::min);
        let max = metrics.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        SweepResult {
            spec,
            summary: SweepSummary {
                jobs: results.len(),
                mean,
                min,
                max,
            },
            results,
        }
    }
}

// ---------------------------------------------------------------------
// The scenario registry
// ---------------------------------------------------------------------

/// Which axis of the workload space a registry entry names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A `graph=` family.
    Graph,
    /// A `model=` scenario.
    Model,
    /// An `algorithm=` chain.
    Algorithm,
    /// A `scheduler=` choice.
    Scheduler,
    /// A `backend=` executor.
    Backend,
    /// A `partitioner=` choice.
    Partitioner,
    /// A `job=` measurement.
    Job,
    /// A `seeds=` sweep clause.
    Seeds,
    /// A `sweep=` parameter-ladder clause.
    Sweep,
}

impl ScenarioKind {
    /// The spec key this kind appears under.
    pub fn key(self) -> &'static str {
        match self {
            ScenarioKind::Graph => "graph",
            ScenarioKind::Model => "model",
            ScenarioKind::Algorithm => "algorithm",
            ScenarioKind::Scheduler => "scheduler",
            ScenarioKind::Backend => "backend",
            ScenarioKind::Partitioner => "partitioner",
            ScenarioKind::Job => "job",
            ScenarioKind::Seeds => "seeds",
            ScenarioKind::Sweep => "sweep",
        }
    }
}

/// One recognized scenario: its syntax and a one-line summary.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioEntry {
    /// Which axis the entry belongs to.
    pub kind: ScenarioKind,
    /// The accepted syntax, e.g. `torus:<rows>x<cols>`.
    pub syntax: &'static str,
    /// What the scenario is.
    pub summary: &'static str,
}

/// The registry of every scenario the spec grammar accepts — the data
/// behind `lsl list scenarios`, and the sweep source of the round-trip
/// property tests.
pub struct ScenarioRegistry;

impl ScenarioRegistry {
    /// Every recognized scenario, grouped by kind in declaration order.
    pub fn entries() -> &'static [ScenarioEntry] {
        use ScenarioKind as K;
        const E: &[ScenarioEntry] = &[
            // graphs
            ScenarioEntry {
                kind: K::Graph,
                syntax: "path:<n>",
                summary: "path P_n",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "cycle:<n>",
                summary: "cycle C_n (n >= 3)",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "complete:<n>",
                summary: "complete graph K_n",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "complete-bipartite:<a>x<b>",
                summary: "complete bipartite K_{a,b}",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "star:<n>",
                summary: "star K_{1,n}",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "grid:<rows>x<cols>",
                summary: "grid, 4-neighborhood, no wraparound",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "torus:<rows>x<cols>",
                summary: "torus (grid with wraparound; sides >= 3)",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "hypercube:<d>",
                summary: "d-dimensional hypercube on 2^d vertices",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "book:<pages>",
                summary: "triangles sharing one edge (unbounded degree)",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "caterpillar:<spine>x<legs>",
                summary: "spine path with pendant legs",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "gnp:n=<n>,p=<p>",
                summary: "Erdos-Renyi G(n,p), seeded by graph-seed",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "random-regular:n=<n>,d=<d>",
                summary: "random simple d-regular graph, seeded",
            },
            ScenarioEntry {
                kind: K::Graph,
                syntax: "random-tree:n=<n>",
                summary: "uniform random labeled tree, seeded",
            },
            // models
            ScenarioEntry {
                kind: K::Model,
                syntax: "coloring:q=<q>",
                summary: "uniform proper q-colorings",
            },
            ScenarioEntry {
                kind: K::Model,
                syntax: "list-coloring:q=<q>,size=<k>",
                summary: "list colorings, pseudorandom k-lists from graph-seed",
            },
            ScenarioEntry {
                kind: K::Model,
                syntax: "hardcore:lambda=<l>",
                summary: "hardcore model, weight lambda^|I|",
            },
            ScenarioEntry {
                kind: K::Model,
                syntax: "independent-set",
                summary: "uniform independent sets (hardcore, lambda=1)",
            },
            ScenarioEntry {
                kind: K::Model,
                syntax: "vertex-cover",
                summary: "uniform vertex covers",
            },
            ScenarioEntry {
                kind: K::Model,
                syntax: "ising:beta=<b>",
                summary: "Ising model (beta>1 ferro, beta<1 antiferro)",
            },
            ScenarioEntry {
                kind: K::Model,
                syntax: "potts:q=<q>,beta=<b>",
                summary: "q-state Potts model",
            },
            ScenarioEntry {
                kind: K::Model,
                syntax: "dominating-set",
                summary: "uniform dominating sets (weighted CSP)",
            },
            ScenarioEntry {
                kind: K::Model,
                syntax: "mis",
                summary: "uniform maximal independent sets (weighted CSP)",
            },
            // algorithms
            ScenarioEntry {
                kind: K::Algorithm,
                syntax: "local-metropolis",
                summary: "Algorithm 2 (default on MRFs)",
            },
            ScenarioEntry {
                kind: K::Algorithm,
                syntax: "local-metropolis-no-rule3",
                summary: "E9 ablation (wrong chain, MRF only)",
            },
            ScenarioEntry {
                kind: K::Algorithm,
                syntax: "luby-glauber",
                summary: "Algorithm 1 (default on CSPs)",
            },
            ScenarioEntry {
                kind: K::Algorithm,
                syntax: "glauber",
                summary: "sequential heat-bath baseline",
            },
            ScenarioEntry {
                kind: K::Algorithm,
                syntax: "metropolis",
                summary: "sequential single-site Metropolis baseline",
            },
            // schedulers
            ScenarioEntry {
                kind: K::Scheduler,
                syntax: "luby",
                summary: "the paper's Luby step (default)",
            },
            ScenarioEntry {
                kind: K::Scheduler,
                syntax: "singleton",
                summary: "one uniform vertex per round",
            },
            ScenarioEntry {
                kind: K::Scheduler,
                syntax: "bernoulli:<p>",
                summary: "Bernoulli volunteering, p in (0, 1]",
            },
            ScenarioEntry {
                kind: K::Scheduler,
                syntax: "chromatic",
                summary: "greedy-coloring class scan",
            },
            // backends
            ScenarioEntry {
                kind: K::Backend,
                syntax: "sequential",
                summary: "one vertex after another (default)",
            },
            ScenarioEntry {
                kind: K::Backend,
                syntax: "parallel:<threads>",
                summary: "vertex ranges on a persistent round pool (0 = auto)",
            },
            ScenarioEntry {
                kind: K::Backend,
                syntax: "sharded:<shards>",
                summary: "owner-computes shards with boundary exchange (0 = auto)",
            },
            ScenarioEntry {
                kind: K::Backend,
                syntax: "cluster:<shards>",
                summary: "cross-process worker fleet (in-process fallback when run locally)",
            },
            // partitioners
            ScenarioEntry {
                kind: K::Partitioner,
                syntax: "contiguous",
                summary: "balanced contiguous index blocks (default)",
            },
            ScenarioEntry {
                kind: K::Partitioner,
                syntax: "bfs",
                summary: "BFS-grown regions",
            },
            ScenarioEntry {
                kind: K::Partitioner,
                syntax: "greedy",
                summary: "greedy edge-cut minimization",
            },
            // jobs
            ScenarioEntry {
                kind: K::Job,
                syntax: "run:rounds=<n>",
                summary: "advance one trajectory (default, rounds=100)",
            },
            ScenarioEntry {
                kind: K::Job,
                syntax: "distribution:rounds=<n>,replicas=<b>",
                summary: "empirical distribution of b iid replicas (MRF)",
            },
            ScenarioEntry {
                kind: K::Job,
                syntax: "tv:rounds=<n>,replicas=<b>",
                summary: "empirical TV to exact Gibbs (small MRF)",
            },
            ScenarioEntry {
                kind: K::Job,
                syntax: "coalescence:trials=<t>,max-rounds=<m>",
                summary: "grand-coupling coalescence rounds (MRF)",
            },
            ScenarioEntry {
                kind: K::Job,
                syntax: "sample:rounds=<n>,count=<k>",
                summary: "ship k final configurations (defaults 100,1)",
            },
            ScenarioEntry {
                kind: K::Job,
                syntax: "stream:rounds=<n>,every=<k>",
                summary: "stream the state every k rounds (defaults 100,1)",
            },
            // sweep clauses
            ScenarioEntry {
                kind: K::Seeds,
                syntax: "<a>..<b>",
                summary: "expand the line into one job per seed in [a, b)",
            },
            ScenarioEntry {
                kind: K::Sweep,
                syntax: "<beta|lambda>:<start>..<end>:<step>",
                summary: "expand into one job per model-parameter value",
            },
        ];
        E
    }

    /// A ready-to-print listing, grouped by kind.
    pub fn render() -> String {
        let mut out = String::new();
        let mut last: Option<ScenarioKind> = None;
        for e in Self::entries() {
            if last != Some(e.kind) {
                if last.is_some() {
                    out.push('\n');
                }
                out.push_str(&format!("{}=\n", e.kind.key()));
                last = Some(e.kind);
            }
            out.push_str(&format!("  {:42} {}\n", e.syntax, e.summary));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> JobSpec {
        s.parse::<JobSpec>().unwrap()
    }

    #[test]
    fn parses_the_readme_spec() {
        let spec = parse(
            "graph=torus:8x8 model=ising:beta=0.4 algorithm=local-metropolis \
             backend=sharded:4 seed=7 job=run:rounds=200",
        );
        assert_eq!(spec.graph, GraphSpec::Torus { rows: 8, cols: 8 });
        assert_eq!(spec.model, ModelSpec::Ising { beta: 0.4 });
        assert_eq!(spec.algorithm, Some(Algorithm::LocalMetropolis));
        assert_eq!(spec.backend, Some(Backend::Sharded { shards: 4 }));
        assert_eq!(spec.seed, Some(7));
        assert_eq!(spec.job, Some(JobKind::Run { rounds: 200 }));
    }

    #[test]
    fn print_parse_is_identity() {
        for s in [
            "graph=cycle:12 model=coloring:q=5",
            "graph=torus:8x8 model=ising:beta=0.4 algorithm=luby-glauber \
             scheduler=bernoulli:0.25 backend=parallel:3 seed=9 burn-in=10 \
             job=run:rounds=50",
            "graph=gnp:n=32,p=0.2 model=hardcore:lambda=1.5 graph-seed=3 \
             job=coalescence:trials=2,max-rounds=100000",
            "graph=random-regular:n=16,d=4 model=potts:q=3,beta=0.5 \
             backend=sharded:0 partitioner=bfs",
            "graph=path:6 model=dominating-set job=run:rounds=40",
            "graph=cycle:7 model=mis algorithm=luby-glauber",
            "graph=grid:4x5 model=list-coloring:q=8,size=4 seed=2",
        ] {
            let spec = parse(s);
            let printed = spec.to_string();
            assert_eq!(parse(&printed), spec, "round-trip failed for {s:?}");
            assert_eq!(printed.parse::<JobSpec>().unwrap().to_string(), printed);
        }
    }

    #[test]
    fn typed_errors_cover_the_failure_modes() {
        assert!(matches!(
            "graph=torus:8x8".parse::<JobSpec>(),
            Err(SpecError::MissingKey { key: "model" })
        ));
        assert!(matches!(
            "model=mis".parse::<JobSpec>(),
            Err(SpecError::MissingKey { key: "graph" })
        ));
        assert!(matches!(
            "graph=torus:8x8 model=mis frobnicate=1".parse::<JobSpec>(),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            "graph=torus:8x8 model=mis graph=cycle:5".parse::<JobSpec>(),
            Err(SpecError::DuplicateKey { .. })
        ));
        assert!(matches!(
            "graph=moebius:9 model=mis".parse::<JobSpec>(),
            Err(SpecError::UnknownScenario {
                kind: "graph family",
                ..
            })
        ));
        assert!(matches!(
            "graph=torus:2x8 model=mis".parse::<JobSpec>(),
            Err(SpecError::BadValue { .. })
        ));
        // Empty vertex sets are parse errors, not worker panics: a
        // replica job on a 0-vertex model would assert in the engine.
        for empty in [
            "graph=path:0",
            "graph=complete:0",
            "graph=grid:0x4",
            "graph=caterpillar:0x2",
            "graph=gnp:n=0,p=0.5",
            "graph=random-tree:n=0",
        ] {
            assert!(
                matches!(
                    format!("{empty} model=coloring:q=3").parse::<JobSpec>(),
                    Err(SpecError::BadValue { .. })
                ),
                "{empty} should be rejected at parse time"
            );
        }
        // Hypercube dimensions are parsed as u32 (no usize wraparound
        // past the cap).
        assert!(matches!(
            "graph=hypercube:4294967296 model=mis".parse::<JobSpec>(),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            "graph=torus:8x8 model=ising:beta=0.4 nonsense".parse::<JobSpec>(),
            Err(SpecError::NotKeyValue { .. })
        ));
        assert!(matches!(
            "graph=cycle:8 model=potts:q=3".parse::<JobSpec>(),
            Err(SpecError::BadValue { .. }) // missing beta: bad arity
        ));
        // Facade rejections surface as wrapped BuildErrors at run time.
        let spec = parse("graph=cycle:8 model=coloring:q=5 algorithm=glauber scheduler=luby");
        assert!(matches!(spec.run(), Err(SpecError::Combo(_))));
    }

    #[test]
    fn run_job_reports_a_feasible_sample() {
        let spec = parse("graph=torus:6x6 model=coloring:q=12 seed=5 job=run:rounds=60");
        let result = spec.run().unwrap();
        match result.output {
            JobOutput::Run {
                rounds,
                n,
                feasible,
                comm,
                ..
            } => {
                assert_eq!(rounds, 60);
                assert_eq!(n, 36);
                assert!(feasible);
                assert!(comm.is_none(), "flat backends have no comm record");
            }
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn ising_default_start_is_feasible_at_every_size() {
        // The start's weight underflows f64 from about 32² on; the
        // feasibility flag must not.
        for side in [8, 16, 32, 64, 128] {
            let spec = parse(&format!(
                "graph=torus:{side}x{side} model=ising:beta=0.4 \
                 algorithm=local-metropolis seed=7 job=run:rounds=0"
            ));
            match spec.run().unwrap().output {
                JobOutput::Run { feasible, .. } => assert!(feasible, "{side}x{side}"),
                other => panic!("wrong output: {other:?}"),
            }
        }
    }

    #[test]
    fn sharded_run_reports_comm_and_matches_sequential() {
        let seq = parse("graph=torus:6x6 model=coloring:q=12 seed=5 job=run:rounds=30");
        let sharded = parse(
            "graph=torus:6x6 model=coloring:q=12 seed=5 backend=sharded:4 \
             partitioner=bfs job=run:rounds=30",
        );
        let a = seq.run().unwrap();
        let b = sharded.run().unwrap();
        let (fa, fb) = match (&a.output, &b.output) {
            (
                JobOutput::Run {
                    fingerprint: fa, ..
                },
                JobOutput::Run {
                    fingerprint: fb,
                    comm,
                    ..
                },
            ) => {
                assert!(comm.expect("sharded has comm").total_messages > 0);
                (*fa, *fb)
            }
            other => panic!("wrong outputs: {other:?}"),
        };
        assert_eq!(fa, fb, "backends must not change the trajectory");
    }

    #[test]
    fn csp_scenarios_run_feasibly() {
        for s in [
            "graph=path:5 model=dominating-set job=run:rounds=60",
            "graph=cycle:6 model=mis job=run:rounds=40",
            "graph=cycle:6 model=mis algorithm=local-metropolis job=run:rounds=40",
        ] {
            let result = parse(s).run().unwrap();
            match result.output {
                JobOutput::Run { feasible, .. } => assert!(feasible, "{s} left feasibility"),
                other => panic!("wrong output: {other:?}"),
            }
        }
    }

    #[test]
    fn tv_job_matches_direct_facade_call() {
        let spec = parse(
            "graph=cycle:4 model=coloring:q=3 algorithm=luby-glauber seed=99 \
             job=tv:rounds=40,replicas=2000",
        );
        let result = spec.run().unwrap();
        let model = spec.build_model();
        let mrf = match &model {
            BuiltModel::Mrf(m) => Arc::clone(m),
            _ => unreachable!(),
        };
        let exact = Enumeration::new(&mrf).unwrap();
        let direct = Sampler::for_mrf(mrf)
            .algorithm(Algorithm::LubyGlauber)
            .seed(99)
            .tv(&exact, 40, 2000)
            .unwrap();
        match result.output {
            JobOutput::Tv { tv, .. } => assert_eq!(tv, direct, "spec and facade diverged"),
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn model_cache_key_distinguishes_seeded_families() {
        let a = parse("graph=gnp:n=16,p=0.3 model=coloring:q=9 seed=1");
        let b = parse("graph=gnp:n=16,p=0.3 model=coloring:q=9 seed=2");
        assert_ne!(a.model_key(), b.model_key(), "gnp depends on the seed");
        let c = parse("graph=torus:4x4 model=coloring:q=9 seed=1");
        let d = parse("graph=torus:4x4 model=coloring:q=9 seed=2");
        assert_eq!(
            c.model_key(),
            d.model_key(),
            "deterministic families share builds"
        );
    }

    #[test]
    fn registry_names_parse_back() {
        // Every graph syntax line's name (before ':') is accepted by the
        // parser (with example arguments) — the registry cannot rot.
        let known_graphs = [
            "path:5",
            "cycle:5",
            "complete:4",
            "complete-bipartite:2x3",
            "star:4",
            "grid:3x4",
            "torus:3x3",
            "hypercube:3",
            "book:3",
            "caterpillar:3x2",
            "gnp:n=8,p=0.5",
            "random-regular:n=8,d=2",
            "random-tree:n=8",
        ];
        let graph_entries = ScenarioRegistry::entries()
            .iter()
            .filter(|e| e.kind == ScenarioKind::Graph)
            .count();
        assert_eq!(known_graphs.len(), graph_entries);
        for g in known_graphs {
            GraphSpec::parse(g).unwrap();
        }
        let known_models = [
            "coloring:q=4",
            "list-coloring:q=4,size=2",
            "hardcore:lambda=1",
            "independent-set",
            "vertex-cover",
            "ising:beta=0.5",
            "potts:q=3,beta=0.5",
            "dominating-set",
            "mis",
        ];
        let model_entries = ScenarioRegistry::entries()
            .iter()
            .filter(|e| e.kind == ScenarioKind::Model)
            .count();
        assert_eq!(known_models.len(), model_entries);
        for m in known_models {
            ModelSpec::parse(m).unwrap();
        }
        assert!(ScenarioRegistry::render().contains("torus:<rows>x<cols>"));
    }

    #[test]
    fn greedy_mis_start_is_feasible() {
        for s in ["graph=cycle:9 model=mis", "graph=star:5 model=mis"] {
            let spec = parse(s);
            match spec.build_model() {
                BuiltModel::Csp { csp, start } => assert!(csp.is_feasible(&start), "{s}"),
                _ => unreachable!(),
            }
        }
    }
}
