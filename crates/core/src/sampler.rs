//! The sampler facade: one typed front door over models × algorithms ×
//! schedulers × backends.
//!
//! The paper's pitch is that a *single* local framework covers many
//! chains — LubyGlauber under any independent-set scheduler (the Remark
//! after Theorem 3.2) and LocalMetropolis with per-edge filters — and
//! this module is that framework's entry point. A [`SamplerBuilder`]
//! composes the four orthogonal choices:
//!
//! * a **model** — an [`Mrf`] ([`Sampler::for_mrf`]) or a weighted local
//!   CSP ([`Sampler::for_csp`]);
//! * an **algorithm** — [`Algorithm`]: the paper's two distributed
//!   chains plus the sequential baselines;
//! * a **scheduler** — [`Sched`], for LubyGlauber only (typed error
//!   otherwise);
//! * an execution **backend** — [`Backend`], which by the engine's
//!   determinism contract never changes a trajectory.
//!
//! `build()` yields a [`Sampler`] (one trajectory); `.replicas(b)`
//! narrows the builder to a [`ReplicaBuilder`] whose `build()` yields a
//! [`ReplicaSampler`] (a batch advanced together — iid replicas or a
//! grand coupling). Invalid combinations are rejected with a typed
//! [`BuildError`], never a panic.
//!
//! Measurement **jobs** subsume the free-function entry points of
//! [`mixing`](crate::mixing) and [`coupling`](crate::coupling):
//! [`SamplerBuilder::tv_curve`], [`SamplerBuilder::coalescence`],
//! [`SamplerBuilder::distribution`] spawn their own replicas from the
//! validated spec. A small [`Observer`] pipeline ([`Sampler::observe`])
//! records per-round traces — energy, Hamming distance, acceptance
//! counts — without perturbing the randomness streams: observers only
//! ever see finished configurations, and every draw of round `r` is a
//! pure function of `(master, r, vertex-or-edge id)` regardless of what
//! runs between rounds.
//!
//! # Example
//!
//! ```
//! use lsl_core::prelude::*;
//! use lsl_graph::generators;
//! use lsl_mrf::models;
//!
//! let mrf = models::proper_coloring(generators::torus(8, 8), 16);
//! let mut sampler = Sampler::for_mrf(&mrf)
//!     .algorithm(Algorithm::LocalMetropolis)
//!     .backend(Backend::Parallel { threads: 0 })
//!     .seed(7)
//!     .burn_in(50)
//!     .build()
//!     .unwrap();
//! sampler.run(50);
//! assert!(mrf.is_feasible(sampler.state()));
//! ```

use crate::engine::replicas::ReplicaSet;
use crate::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule, MetropolisRule};
use crate::engine::sharded::{CommStats, ShardedChain};
use crate::engine::{Backend, HotPath, SyncChain, SyncRule};
use crate::schedule::{BernoulliFilterScheduler, ChromaticScheduler, SingletonScheduler};
use lsl_analysis::stats::Summary;
use lsl_analysis::EmpiricalDistribution;
use lsl_graph::coloring::ProperColoring;
use lsl_graph::Graph;
use lsl_local::rng::{derive_seed, Xoshiro256pp};
use lsl_mrf::csp::{Csp, MarginalScratch};
use lsl_mrf::gibbs::Enumeration;
use lsl_mrf::{Mrf, Spin};
use std::sync::Arc;

/// Label under which CSP chain steps derive their per-round generators.
const CSP_STEP_LABEL: u64 = 0x4353_5053_5445_5000; // "CSPSTEP\0"

/// Which Markov chain the sampler runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 2: simultaneous proposals filtered by shared per-edge
    /// coins (Theorem 1.2 / 4.2). On a CSP, the per-constraint variant.
    LocalMetropolis,
    /// The rule-3 ablation of LocalMetropolis (experiment E9's wrong
    /// chain — kept for ablations; MRF only).
    LocalMetropolisNoRule3,
    /// Algorithm 1: heat-bath resampling on a scheduled independent set
    /// (Theorem 1.1 / 3.2). The only algorithm that accepts a
    /// [`Sched`]; on a CSP, schedules strongly independent sets.
    LubyGlauber,
    /// Sequential baseline: single-site heat-bath Glauber dynamics.
    Glauber,
    /// Sequential baseline: single-site Metropolis (paper footnote 2).
    Metropolis,
}

impl Algorithm {
    /// Every algorithm, for exhaustive sweeps and the scenario registry.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::LocalMetropolis,
        Algorithm::LocalMetropolisNoRule3,
        Algorithm::LubyGlauber,
        Algorithm::Glauber,
        Algorithm::Metropolis,
    ];

    /// Human-readable name (matches the chain's experiment-output name).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::LocalMetropolis => "LocalMetropolis",
            Algorithm::LocalMetropolisNoRule3 => "LocalMetropolis(no rule 3)",
            Algorithm::LubyGlauber => "LubyGlauber",
            Algorithm::Glauber => "Glauber",
            Algorithm::Metropolis => "Metropolis",
        }
    }
}

/// Canonical spec-string form (kebab-case), accepted back by the
/// `FromStr` impl: `local-metropolis`,
/// `local-metropolis-no-rule3`, `luby-glauber`, `glauber`, `metropolis`.
impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Algorithm::LocalMetropolis => "local-metropolis",
            Algorithm::LocalMetropolisNoRule3 => "local-metropolis-no-rule3",
            Algorithm::LubyGlauber => "luby-glauber",
            Algorithm::Glauber => "glauber",
            Algorithm::Metropolis => "metropolis",
        };
        f.write_str(s)
    }
}

/// Parses the [`Display`](Algorithm#impl-Display-for-Algorithm) form.
impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "local-metropolis" => Ok(Algorithm::LocalMetropolis),
            "local-metropolis-no-rule3" => Ok(Algorithm::LocalMetropolisNoRule3),
            "luby-glauber" => Ok(Algorithm::LubyGlauber),
            "glauber" => Ok(Algorithm::Glauber),
            "metropolis" => Ok(Algorithm::Metropolis),
            other => Err(format!(
                "unknown algorithm {other:?} (expected local-metropolis | \
                 local-metropolis-no-rule3 | luby-glauber | glauber | metropolis)"
            )),
        }
    }
}

/// Which independent-set scheduler drives [`Algorithm::LubyGlauber`]
/// (the Remark after Theorem 3.2 allows any independent sampler with
/// `Pr[v ∈ I] ≥ γ > 0`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sched {
    /// The paper's Luby step: iid `β_v`, select local maxima (default).
    Luby,
    /// One uniform vertex per round (recovers sequential Glauber).
    Singleton,
    /// Bernoulli volunteering with conflict withdrawal; the payload is
    /// the volunteering probability `p ∈ (0, 1]`.
    Bernoulli(f64),
    /// Deterministic scan over the classes of a greedy proper coloring
    /// (the Gonzalez-et-al. baseline; not an independent sampler).
    Chromatic,
}

impl Sched {
    /// Human-readable scheduler name.
    pub fn name(self) -> &'static str {
        match self {
            Sched::Luby => "Luby",
            Sched::Singleton => "Singleton",
            Sched::Bernoulli(_) => "BernoulliFilter",
            Sched::Chromatic => "Chromatic",
        }
    }

    /// A lower bound on `Pr[v ∈ I]` on network `g` — the γ of Theorem
    /// 3.2's remark — or `None` for the chromatic scan, which is not an
    /// independent per-round sampler.
    pub fn gamma(self, g: &Graph) -> Option<f64> {
        match self {
            Sched::Luby => Some(1.0 / (g.max_degree() as f64 + 1.0)),
            Sched::Singleton => Some(1.0 / g.num_vertices().max(1) as f64),
            Sched::Bernoulli(p) => Some(p * (1.0 - p).powi(g.max_degree() as i32)),
            Sched::Chromatic => None,
        }
    }
}

/// Canonical spec-string form, accepted back by the `FromStr` impl:
/// `luby`, `singleton`, `bernoulli:<p>`, `chromatic`.
impl std::fmt::Display for Sched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sched::Luby => f.write_str("luby"),
            Sched::Singleton => f.write_str("singleton"),
            Sched::Bernoulli(p) => write!(f, "bernoulli:{p}"),
            Sched::Chromatic => f.write_str("chromatic"),
        }
    }
}

/// Parses the [`Display`](Sched#impl-Display-for-Sched) form. The
/// Bernoulli probability is range-checked at `build()`, not here, so
/// the round-trip is lossless for any finite value.
impl std::str::FromStr for Sched {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "luby" => Ok(Sched::Luby),
            "singleton" => Ok(Sched::Singleton),
            "chromatic" => Ok(Sched::Chromatic),
            other => match other.strip_prefix("bernoulli:") {
                Some(p) => p
                    .parse::<f64>()
                    .map(Sched::Bernoulli)
                    .map_err(|_| format!("bernoulli probability {p:?} is not a number")),
                None => Err(format!(
                    "unknown scheduler {other:?} (expected luby | singleton | \
                     bernoulli:<p> | chromatic)"
                )),
            },
        }
    }
}

/// Why a builder configuration was rejected. Every invalid combination
/// surfaces here as a value — the facade never panics on bad input.
#[derive(Clone, Debug, PartialEq)]
#[must_use = "a rejected configuration explains what to fix"]
pub enum BuildError {
    /// `.replicas(0)`: a replica batch needs at least one chain.
    ZeroReplicas,
    /// A scheduler was supplied for an algorithm that has none (only
    /// [`Algorithm::LubyGlauber`] is scheduled).
    SchedulerNotApplicable {
        /// The algorithm that rejected the scheduler.
        algorithm: Algorithm,
    },
    /// A Bernoulli volunteering probability outside `(0, 1]` (or NaN).
    InvalidBernoulliProbability {
        /// The rejected probability.
        p: f64,
    },
    /// An explicit start configuration of the wrong length.
    StartLength {
        /// Vertices in the model.
        expected: usize,
        /// Length of the supplied configuration.
        got: usize,
    },
    /// `.starts(..)` disagreed with the declared replica count.
    StartCount {
        /// The declared replica count.
        expected: usize,
        /// Number of supplied starts.
        got: usize,
    },
    /// The model has no vertices.
    EmptyModel,
    /// CSP solution spaces are constrained; the caller must supply a
    /// feasible start explicitly (there is no safe default).
    StartRequiredForCsp,
    /// The requested feature is not available on a CSP model.
    UnsupportedOnCsp {
        /// What was requested (e.g. an algorithm or job name).
        what: &'static str,
    },
    /// An explicit hot-path packing that cannot hold the model's spins.
    InvalidHotPath {
        /// What was wrong (e.g. `"packing bit cannot hold q = 5 spins"`).
        reason: String,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ZeroReplicas => write!(f, "replica batches need at least one replica"),
            BuildError::SchedulerNotApplicable { algorithm } => write!(
                f,
                "{} takes no scheduler (only LubyGlauber is scheduled)",
                algorithm.name()
            ),
            BuildError::InvalidBernoulliProbability { p } => {
                write!(f, "Bernoulli volunteering probability {p} not in (0, 1]")
            }
            BuildError::StartLength { expected, got } => {
                write!(
                    f,
                    "start configuration has length {got}, model has {expected} vertices"
                )
            }
            BuildError::StartCount { expected, got } => {
                write!(f, "{got} starts supplied for {expected} replicas")
            }
            BuildError::EmptyModel => write!(f, "the model has no vertices"),
            BuildError::StartRequiredForCsp => {
                write!(
                    f,
                    "CSP samplers need an explicit feasible start (use .start(..))"
                )
            }
            BuildError::UnsupportedOnCsp { what } => {
                write!(f, "{what} is not supported on CSP models")
            }
            BuildError::InvalidHotPath { reason } => {
                write!(f, "invalid hot path: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Constructs the rule named by `(algorithm, scheduler)` and hands it to
/// the body — the single place where the algorithm/scheduler matrix is
/// monomorphized. `$mrf` is needed for the chromatic scheduler's greedy
/// coloring. Callers validate first, so the Bernoulli probability is
/// known to be in range before the scheduler constructor (which would
/// panic) runs.
macro_rules! dispatch_rule {
    ($alg:expr, $sched:expr, $mrf:expr, |$rule:ident| $body:expr) => {{
        match ($alg, $sched.unwrap_or(Sched::Luby)) {
            (Algorithm::LocalMetropolis, _) => {
                let $rule = LocalMetropolisRule::new();
                $body
            }
            (Algorithm::LocalMetropolisNoRule3, _) => {
                let $rule = LocalMetropolisRule::without_rule3();
                $body
            }
            (Algorithm::LubyGlauber, Sched::Luby) => {
                let $rule = LubyGlauberRule::luby();
                $body
            }
            (Algorithm::LubyGlauber, Sched::Singleton) => {
                let $rule = LubyGlauberRule::with_scheduler(SingletonScheduler);
                $body
            }
            (Algorithm::LubyGlauber, Sched::Bernoulli(p)) => {
                let $rule = LubyGlauberRule::with_scheduler(BernoulliFilterScheduler::new(p));
                $body
            }
            (Algorithm::LubyGlauber, Sched::Chromatic) => {
                let $rule =
                    LubyGlauberRule::with_scheduler(ChromaticScheduler::greedy($mrf.graph()));
                $body
            }
            (Algorithm::Glauber, _) => {
                let $rule = GlauberRule;
                $body
            }
            (Algorithm::Metropolis, _) => {
                let $rule = MetropolisRule;
                $body
            }
        }
    }};
}

// The cluster layer monomorphizes its shard runners over the same
// matrix (`crate::cluster` — worker and coordinator both re-derive the
// rule from the spec line).
pub(crate) use dispatch_rule;

/// The model a builder targets — *owned* behind an [`Arc`], so built
/// samplers are `'static + Send` handles (the ownership redesign that
/// lets a [`Service`](crate::service::Service) hold and serve them
/// from worker threads).
#[derive(Clone, Debug)]
enum Model {
    Mrf(Arc<Mrf>),
    Csp(Arc<Csp>),
}

impl Model {
    fn num_vertices(&self) -> usize {
        match self {
            Model::Mrf(m) => m.num_vertices(),
            Model::Csp(c) => c.graph().num_vertices(),
        }
    }
}

/// The one front door: a typed builder over models × algorithms ×
/// schedulers × backends. See the [module docs](self) for the design
/// and `DESIGN.md` ("The sampler facade") for the builder states.
#[derive(Clone, Debug)]
#[must_use = "a builder does nothing until .build() (or a job verb) runs it"]
pub struct SamplerBuilder {
    model: Model,
    algorithm: Algorithm,
    scheduler: Option<Sched>,
    backend: Backend,
    partitioner: lsl_graph::partition::Partitioner,
    hotpath: Option<HotPath>,
    seed: u64,
    burn_in: usize,
    start: Option<Vec<Spin>>,
}

impl SamplerBuilder {
    /// The chain to run. Default: [`Algorithm::LocalMetropolis`] on an
    /// MRF, [`Algorithm::LubyGlauber`] on a CSP.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// The independent-set scheduler (LubyGlauber only; any other
    /// algorithm fails at `build()` with
    /// [`BuildError::SchedulerNotApplicable`]).
    pub fn scheduler(mut self, scheduler: Sched) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// The execution backend. Trajectories are backend-independent by
    /// the engine's determinism contract. CSP chains run sequentially:
    /// they ignore the flat backends and reject the sharded and cluster
    /// ones with [`BuildError::UnsupportedOnCsp`].
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The graph partitioner used when the backend is
    /// [`Backend::Sharded`] (default:
    /// [`Partitioner::Contiguous`](lsl_graph::partition::Partitioner::Contiguous)).
    /// Trajectories are partition-independent by the determinism
    /// contract — this only changes the cut, and with it the boundary
    /// communication volume. Ignored by the flat backends and by
    /// replica batches (whose state is one flat arena by design).
    pub fn partitioner(mut self, partitioner: lsl_graph::partition::Partitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// The hot-path selection for the engine's synchronous rounds
    /// (default: the engine default, [`HotPath::default`] — lane-batched
    /// kernels at auto packing). Trajectories are hot-path-independent:
    /// kernels are bit-identical to [`HotPath::Scalar`]. The sharded
    /// executor and CSP chains always run the scalar phases and ignore
    /// this.
    pub fn hotpath(mut self, hotpath: HotPath) -> Self {
        self.hotpath = Some(hotpath);
        self
    }

    /// The master seed. Every draw of round `r` is a pure function of
    /// `(seed, r, vertex-or-edge id)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Rounds to run at `build()` before handing the sampler over.
    pub fn burn_in(mut self, rounds: usize) -> Self {
        self.burn_in = rounds;
        self
    }

    /// An explicit start configuration (default: the deterministic
    /// default start; CSPs have no default and require this).
    pub fn start(mut self, start: Vec<Spin>) -> Self {
        self.start = Some(start);
        self
    }

    /// Narrows to a replica batch of `count` chains (iid by default;
    /// see [`ReplicaBuilder::coupled`] for grand couplings).
    pub fn replicas(self, count: usize) -> ReplicaBuilder {
        ReplicaBuilder {
            base: self,
            count,
            coupled: false,
            starts: None,
        }
    }

    /// Validates the (algorithm, scheduler, start) combination.
    /// `pub(crate)` so the cluster layer can pre-flight a spec before
    /// monomorphizing a shard runner for it.
    pub(crate) fn validate(&self) -> Result<(), BuildError> {
        if self.model.num_vertices() == 0 {
            return Err(BuildError::EmptyModel);
        }
        if let Some(sched) = self.scheduler {
            if self.algorithm != Algorithm::LubyGlauber {
                return Err(BuildError::SchedulerNotApplicable {
                    algorithm: self.algorithm,
                });
            }
            if let Sched::Bernoulli(p) = sched {
                if !(p > 0.0 && p <= 1.0) {
                    return Err(BuildError::InvalidBernoulliProbability { p });
                }
            }
        }
        if let Some(start) = &self.start {
            let n = self.model.num_vertices();
            if start.len() != n {
                return Err(BuildError::StartLength {
                    expected: n,
                    got: start.len(),
                });
            }
        }
        if let Model::Csp(_) = self.model {
            match self.algorithm {
                Algorithm::LubyGlauber | Algorithm::LocalMetropolis => {}
                other => return Err(BuildError::UnsupportedOnCsp { what: other.name() }),
            }
            match self.backend {
                Backend::Sharded { .. } => {
                    return Err(BuildError::UnsupportedOnCsp {
                        what: "the sharded backend",
                    })
                }
                Backend::Cluster { .. } => {
                    return Err(BuildError::UnsupportedOnCsp {
                        what: "the cluster backend",
                    })
                }
                _ => {}
            }
            if self.start.is_none() {
                return Err(BuildError::StartRequiredForCsp);
            }
        }
        if let (Model::Mrf(mrf), Some(hp)) = (&self.model, self.hotpath) {
            hp.validate_for(mrf.q())
                .map_err(|reason| BuildError::InvalidHotPath { reason })?;
        }
        Ok(())
    }

    /// Builds the single-trajectory [`Sampler`] — a `'static + Send`
    /// handle owning its model.
    pub fn build(self) -> Result<Sampler, BuildError> {
        self.validate()?;
        let algorithm = self.algorithm;
        let backend = self.backend;
        let mut sampler = match self.model {
            Model::Mrf(mrf) => {
                let start = self
                    .start
                    .unwrap_or_else(|| crate::single_site::default_start(&mrf));
                let seed = self.seed;
                let hotpath = self.hotpath;
                dispatch_rule!(self.algorithm, self.scheduler, &mrf, |rule| {
                    // The sharded backend is a different executor, not a
                    // different sweep order: owner-computes shards over a
                    // contiguous partition, exchanging boundary states.
                    // `cluster:k` built in-process is the same executor
                    // with the same partition — the distributed run (see
                    // `crate::cluster`) is bit-identical to it by the
                    // determinism contract.
                    let inner: Box<dyn DynSampler + Send> = if let Backend::Sharded { .. }
                    | Backend::Cluster { .. } = backend
                    {
                        // min-then-max (not clamp) so a hypothetical
                        // empty model degrades instead of panicking.
                        let k = backend.worker_count().min(mrf.num_vertices()).max(1);
                        let partition = self.partitioner.partition(mrf.graph(), k);
                        Box::new(ShardedChain::with_state(
                            Arc::clone(&mrf),
                            rule,
                            seed,
                            start,
                            partition,
                        ))
                    } else {
                        let mut chain = SyncChain::with_state(Arc::clone(&mrf), rule, seed, start);
                        chain.set_backend(backend);
                        if let Some(hp) = hotpath {
                            // Validated above, so this cannot panic.
                            chain.set_hotpath(hp);
                        }
                        Box::new(chain)
                    };
                    Sampler {
                        inner,
                        mrf: Some(mrf),
                        algorithm,
                        backend,
                    }
                })
            }
            Model::Csp(csp) => Sampler {
                inner: Box::new(CspSampler::new(
                    csp,
                    self.algorithm,
                    self.scheduler.unwrap_or(Sched::Luby),
                    self.start.expect("validated above"),
                    self.seed,
                )),
                mrf: None,
                algorithm,
                backend,
            },
        };
        sampler.run(self.burn_in);
        Ok(sampler)
    }

    // ----- job verbs ------------------------------------------------
    //
    // Jobs spawn their own replicas from the validated spec and run
    // through the batched step-engine entry points in `mixing`. Replicas
    // start from `.start(..)` when given (important for models whose
    // default start is unsafe, e.g. list colorings) and the
    // deterministic default start otherwise; `.burn_in(..)` configures
    // *built* samplers, not distribution-versus-time measurements.

    /// Requires an MRF model (jobs run through the batched engine).
    fn require_mrf(&self, what: &'static str) -> Result<&Arc<Mrf>, BuildError> {
        self.validate()?;
        match &self.model {
            Model::Mrf(mrf) => Ok(mrf),
            Model::Csp(_) => Err(BuildError::UnsupportedOnCsp { what }),
        }
    }

    /// The replica start of the measurement jobs: `.start(..)` if
    /// given, else the deterministic default start.
    fn job_start(&self, mrf: &Mrf) -> Vec<Spin> {
        self.start
            .clone()
            .unwrap_or_else(|| crate::single_site::default_start(mrf))
    }

    /// The empirical distribution of final configurations over
    /// `replicas` iid copies run for `steps` rounds (batched).
    pub fn distribution(
        &self,
        steps: usize,
        replicas: usize,
    ) -> Result<EmpiricalDistribution, BuildError> {
        self.distribution_observed(steps, replicas, &mut |_, _| {
            std::ops::ControlFlow::Continue(())
        })
    }

    /// [`SamplerBuilder::distribution`] reporting progress through
    /// `progress` (see [`ProgressSink`](crate::mixing::ProgressSink)) —
    /// what a [`Service`](crate::service::Service) worker runs so
    /// long jobs stream `Progress` events. The sink never changes the
    /// answer (batching and seeds are identical).
    pub fn distribution_observed(
        &self,
        steps: usize,
        replicas: usize,
        progress: crate::mixing::ProgressSink<'_>,
    ) -> Result<EmpiricalDistribution, BuildError> {
        let mrf = self.require_mrf("the distribution job")?;
        let seed = self.seed;
        let start = self.job_start(mrf);
        Ok(dispatch_rule!(
            self.algorithm,
            self.scheduler,
            mrf,
            |rule| {
                crate::mixing::empirical_distribution_batched_observed(
                    mrf, &rule, &start, steps, replicas, seed, progress,
                )
            }
        ))
    }

    /// Empirical total-variation distance to the exact Gibbs
    /// distribution after `steps` rounds, over `replicas` iid copies.
    pub fn tv(
        &self,
        exact: &Enumeration,
        steps: usize,
        replicas: usize,
    ) -> Result<f64, BuildError> {
        self.tv_observed(exact, steps, replicas, &mut |_, _| {
            std::ops::ControlFlow::Continue(())
        })
    }

    /// [`SamplerBuilder::tv`] reporting progress through `progress`
    /// (the replica rounds dominate; the final TV comparison is one
    /// pass over the support). The sink never changes the answer.
    pub fn tv_observed(
        &self,
        exact: &Enumeration,
        steps: usize,
        replicas: usize,
        progress: crate::mixing::ProgressSink<'_>,
    ) -> Result<f64, BuildError> {
        let emp = self.distribution_observed(steps, replicas, progress)?;
        Ok(emp.tv_against_dense(&exact.distribution()))
    }

    /// The empirical TV curve at a ladder of step counts (fresh
    /// replicas per rung, so points are independent).
    pub fn tv_curve(
        &self,
        exact: &Enumeration,
        step_ladder: &[usize],
        replicas: usize,
    ) -> Result<Vec<(usize, f64)>, BuildError> {
        let mrf = self.require_mrf("the tv_curve job")?;
        let seed = self.seed;
        let start = self.job_start(mrf);
        Ok(dispatch_rule!(
            self.algorithm,
            self.scheduler,
            mrf,
            |rule| {
                step_ladder
                    .iter()
                    .map(|&steps| {
                        let emp = crate::mixing::empirical_distribution_batched_from(
                            mrf,
                            &rule,
                            &start,
                            steps,
                            replicas,
                            // Per-rung seed derivation matches
                            // `empirical_tv_curve_batched` exactly.
                            seed ^ steps as u64,
                        );
                        (steps, emp.tv_against_dense(&exact.distribution()))
                    })
                    .collect()
            }
        ))
    }

    /// Grand-coupling coalescence rounds from adversarial starts: the
    /// experimental surrogate for τ(ε) (coupling lemma). Runs `trials`
    /// independent couplings as coupled replica batches.
    pub fn coalescence(
        &self,
        trials: usize,
        max_steps: usize,
    ) -> Result<CoalescenceReport, BuildError> {
        self.coalescence_observed(trials, max_steps, &mut |_, _| {
            std::ops::ControlFlow::Continue(())
        })
    }

    /// [`SamplerBuilder::coalescence`] reporting progress through
    /// `progress` with `(trial-rounds done, trials × max_steps)` — the
    /// hook behind the service's `Progress` events on long couplings.
    /// The sink never changes the measurement.
    pub fn coalescence_observed(
        &self,
        trials: usize,
        max_steps: usize,
        progress: crate::mixing::ProgressSink<'_>,
    ) -> Result<CoalescenceReport, BuildError> {
        let mrf = self.require_mrf("the coalescence job")?;
        let seed = self.seed;
        let (summary, timeouts) = dispatch_rule!(self.algorithm, self.scheduler, mrf, |rule| {
            crate::mixing::coalescence_summary_batched_observed(
                mrf, &rule, trials, max_steps, seed, progress,
            )
        });
        Ok(CoalescenceReport { summary, timeouts })
    }
}

/// Result of a [`SamplerBuilder::coalescence`] job.
#[derive(Clone, Copy, Debug)]
#[must_use = "a coalescence measurement is only useful if inspected"]
pub struct CoalescenceReport {
    /// Summary statistics of the observed coalescence rounds
    /// (timed-out trials are omitted).
    pub summary: Summary,
    /// Number of trials that exhausted the step budget.
    pub timeouts: usize,
}

/// Builder state for a replica batch (entered via
/// [`SamplerBuilder::replicas`]).
#[derive(Clone, Debug)]
#[must_use = "a builder does nothing until .build()"]
pub struct ReplicaBuilder {
    base: SamplerBuilder,
    count: usize,
    coupled: bool,
    starts: Option<Vec<Vec<Spin>>>,
}

impl ReplicaBuilder {
    /// Couples all replicas on one master seed: the grand coupling of
    /// the coupling lemma (identical randomness every round). Default is
    /// iid replicas under per-replica derived seeds.
    pub fn coupled(mut self) -> Self {
        self.coupled = true;
        self
    }

    /// Explicit per-replica starts (length must equal the replica
    /// count). Default: every replica starts from the base builder's
    /// start (or the deterministic default start).
    pub fn starts(mut self, starts: Vec<Vec<Spin>>) -> Self {
        self.starts = Some(starts);
        self
    }

    /// Builds the [`ReplicaSampler`] — a `'static + Send` handle
    /// owning its model.
    pub fn build(self) -> Result<ReplicaSampler, BuildError> {
        self.base.validate()?;
        if self.count == 0 {
            return Err(BuildError::ZeroReplicas);
        }
        let mrf = match self.base.model {
            Model::Mrf(ref mrf) => Arc::clone(mrf),
            Model::Csp(_) => {
                return Err(BuildError::UnsupportedOnCsp {
                    what: "replica batching",
                })
            }
        };
        let n = mrf.num_vertices();
        // Per-replica starts are validated here; the single-base case
        // keeps just one configuration and hands out references (a large
        // iid fleet must not materialize `count` copies of the start).
        let explicit: Option<Vec<Vec<Spin>>> = match self.starts {
            Some(starts) => {
                if starts.len() != self.count {
                    return Err(BuildError::StartCount {
                        expected: self.count,
                        got: starts.len(),
                    });
                }
                for s in &starts {
                    if s.len() != n {
                        return Err(BuildError::StartLength {
                            expected: n,
                            got: s.len(),
                        });
                    }
                }
                Some(starts)
            }
            None => None,
        };
        let base: Vec<Spin> = match &explicit {
            Some(_) => Vec::new(),
            None => self
                .base
                .start
                .clone()
                .unwrap_or_else(|| crate::single_site::default_start(&mrf)),
        };
        let algorithm = self.base.algorithm;
        let backend = self.base.backend;
        let seed = self.base.seed;
        let coupled = self.coupled;
        let count = self.count;
        let mut set = dispatch_rule!(self.base.algorithm, self.base.scheduler, &mrf, |rule| {
            let set: Box<dyn DynReplicas + Send> = if coupled {
                // Coupled batches are small (grand couplings over a
                // handful of adversarial starts); owned copies are fine.
                let owned = explicit.unwrap_or_else(|| vec![base; count]);
                Box::new(ReplicaSet::coupled(Arc::clone(&mrf), rule, &owned, seed))
            } else {
                let refs: Vec<&[Spin]> = match &explicit {
                    Some(starts) => starts.iter().map(|s| &s[..]).collect(),
                    None => (0..count).map(|_| &base[..]).collect(),
                };
                Box::new(ReplicaSet::independent_from(
                    Arc::clone(&mrf),
                    rule,
                    &refs,
                    seed,
                ))
            };
            set
        });
        set.set_backend(backend);
        if let Some(hp) = self.base.hotpath {
            // Validated above, so this cannot panic.
            set.set_hotpath(hp);
        }
        let mut sampler = ReplicaSampler {
            inner: set,
            algorithm,
            backend,
        };
        sampler.run(self.base.burn_in);
        Ok(sampler)
    }
}

// ---------------------------------------------------------------------
// Type erasure: one Sampler type over every (rule, scheduler) combo.
// ---------------------------------------------------------------------

/// Object-safe surface of a single chain (implemented by every
/// `SyncChain<R>` and `ShardedChain<R>`, and by [`CspSampler`]).
trait DynSampler {
    fn step(&mut self);
    fn step_keyed(&mut self, master: u64);
    fn state(&self) -> &[Spin];
    fn set_state(&mut self, state: &[Spin]);
    fn round(&self) -> u64;
    fn name(&self) -> &'static str;
    /// Boundary-communication record; only the sharded executor has one.
    fn comm(&self) -> Option<&CommStats> {
        None
    }
    /// Clears the boundary-communication record (no-op elsewhere).
    fn reset_comm(&mut self) {}
}

impl<R: SyncRule> DynSampler for ShardedChain<R> {
    fn step(&mut self) {
        ShardedChain::step(self);
    }
    fn step_keyed(&mut self, master: u64) {
        ShardedChain::step_keyed(self, master);
    }
    fn state(&self) -> &[Spin] {
        ShardedChain::state(self)
    }
    fn set_state(&mut self, state: &[Spin]) {
        ShardedChain::set_state(self, state);
    }
    fn round(&self) -> u64 {
        ShardedChain::round(self)
    }
    fn name(&self) -> &'static str {
        self.rule().name()
    }
    fn comm(&self) -> Option<&CommStats> {
        Some(ShardedChain::comm(self))
    }
    fn reset_comm(&mut self) {
        ShardedChain::reset_comm(self);
    }
}

impl<R: SyncRule> DynSampler for SyncChain<R> {
    fn step(&mut self) {
        SyncChain::step(self);
    }
    fn step_keyed(&mut self, master: u64) {
        SyncChain::step_keyed(self, master);
    }
    fn state(&self) -> &[Spin] {
        SyncChain::state(self)
    }
    fn set_state(&mut self, state: &[Spin]) {
        SyncChain::set_state(self, state);
    }
    fn round(&self) -> u64 {
        SyncChain::round(self)
    }
    fn name(&self) -> &'static str {
        self.rule().name()
    }
}

/// Both CSP chains, under every scheduler, as one sampler: LubyGlauber
/// on strongly independent sets (the scheduler runs on the primal graph
/// of the scope hypergraph) and the per-constraint LocalMetropolis.
/// Round `r` draws all its randomness, in a fixed order, from one
/// generator seeded by `derive(master, "CSPSTEP", r)`, so the
/// determinism contract's `(master, round)` purity holds for CSP chains
/// too.
struct CspSampler {
    csp: Arc<Csp>,
    primal: Graph,
    algorithm: Algorithm,
    sched: Sched,
    /// Greedy coloring of the primal graph, for the chromatic schedule.
    coloring: Option<ProperColoring>,
    state: Vec<Spin>,
    master: u64,
    round: u64,
    // Per-round scratch.
    draws: Vec<f64>,
    mask: Vec<bool>,
    proposals: Vec<Spin>,
    marginal: MarginalScratch,
}

impl CspSampler {
    fn new(
        csp: Arc<Csp>,
        algorithm: Algorithm,
        sched: Sched,
        start: Vec<Spin>,
        master: u64,
    ) -> Self {
        let primal = csp.scope_hypergraph().primal_graph();
        let coloring = (algorithm == Algorithm::LubyGlauber && sched == Sched::Chromatic)
            .then(|| lsl_graph::coloring::greedy(&primal));
        let n = start.len();
        let marginal = MarginalScratch::new(&csp);
        CspSampler {
            csp,
            primal,
            algorithm,
            sched,
            coloring,
            state: start,
            master,
            round: 0,
            draws: Vec::with_capacity(n),
            mask: vec![false; n],
            proposals: vec![0; n],
            marginal,
        }
    }

    fn advance(&mut self, master: u64) {
        let mut rng = Xoshiro256pp::seed_from(derive_seed(master, CSP_STEP_LABEL, self.round));
        if self.algorithm == Algorithm::LubyGlauber {
            crate::luby_glauber::select(
                self.sched,
                &self.primal,
                self.coloring.as_ref(),
                self.round,
                &mut rng,
                &mut self.draws,
                &mut self.mask,
            );
            crate::luby_glauber::heat_bath(
                &self.csp,
                &self.mask,
                &mut self.state,
                &mut rng,
                &mut self.marginal,
            );
        } else {
            // `mask` doubles as the accept flags.
            crate::csp_metropolis::round(
                &self.csp,
                &mut self.state,
                &mut self.proposals,
                &mut self.mask,
                &mut rng,
            );
        }
        self.round += 1;
    }
}

impl DynSampler for CspSampler {
    fn step(&mut self) {
        self.advance(self.master);
    }
    fn step_keyed(&mut self, master: u64) {
        // The round index is mixed into the key, matching the MRF path
        // (`SyncChain::step_keyed` derives from `(master, round)`): a
        // caller feeding a constant key still gets fresh randomness per
        // round, and coupled copies at equal rounds share every draw.
        self.advance(master);
    }
    fn state(&self) -> &[Spin] {
        &self.state
    }
    fn set_state(&mut self, state: &[Spin]) {
        self.state.copy_from_slice(state);
    }
    fn round(&self) -> u64 {
        self.round
    }
    fn name(&self) -> &'static str {
        if self.algorithm == Algorithm::LubyGlauber {
            "CspLubyGlauber"
        } else {
            "CspLocalMetropolis"
        }
    }
}

/// One trajectory built by the facade. `step`/`run` advance self-keyed
/// rounds (pure functions of the builder's seed and the round index);
/// [`Sampler::step_keyed`] exists for grand couplings driven by external
/// randomness.
pub struct Sampler {
    inner: Box<dyn DynSampler + Send>,
    mrf: Option<Arc<Mrf>>,
    algorithm: Algorithm,
    backend: Backend,
}

impl Sampler {
    /// Opens a builder over an MRF model.
    ///
    /// Takes anything that converts into an owned [`Arc<Mrf>`] handle —
    /// an `Arc<Mrf>` (cheap, shared), an owned `Mrf`, or `&Mrf` (which
    /// clones into a fresh handle, mirroring how
    /// [`lsl_mrf::models`] constructors take `impl Into<Arc<Graph>>`).
    /// The built [`Sampler`] owns the model, so it is `'static + Send`:
    /// it can outlive the call site, move to a worker thread, and be
    /// served concurrently (see [`Service`](crate::service::Service)).
    pub fn for_mrf(mrf: impl Into<Arc<Mrf>>) -> SamplerBuilder {
        SamplerBuilder {
            model: Model::Mrf(mrf.into()),
            algorithm: Algorithm::LocalMetropolis,
            scheduler: None,
            backend: Backend::Sequential,
            partitioner: lsl_graph::partition::Partitioner::Contiguous,
            hotpath: None,
            seed: 0,
            burn_in: 0,
            start: None,
        }
    }

    /// Opens a builder over a weighted local CSP (LubyGlauber on
    /// strongly independent sets, or the per-constraint
    /// LocalMetropolis). CSPs require an explicit `.start(..)`. Takes
    /// `impl Into<Arc<Csp>>`, exactly like [`Sampler::for_mrf`].
    ///
    /// ```
    /// use lsl_core::prelude::*;
    /// use lsl_graph::generators;
    /// use lsl_mrf::csp::Csp;
    /// use std::sync::Arc;
    ///
    /// let csp = Csp::dominating_set(Arc::new(generators::cycle(6)));
    /// let mut sampler = Sampler::for_csp(&csp)
    ///     .algorithm(Algorithm::LocalMetropolis)
    ///     .start(vec![1; 6])
    ///     .seed(4)
    ///     .build()
    ///     .unwrap();
    /// sampler.run(50);
    /// assert!(csp.is_feasible(sampler.state()));
    /// ```
    pub fn for_csp(csp: impl Into<Arc<Csp>>) -> SamplerBuilder {
        SamplerBuilder {
            model: Model::Csp(csp.into()),
            algorithm: Algorithm::LubyGlauber,
            scheduler: None,
            backend: Backend::Sequential,
            partitioner: lsl_graph::partition::Partitioner::Contiguous,
            hotpath: None,
            seed: 0,
            burn_in: 0,
            start: None,
        }
    }

    /// Advances one round (randomness keyed by the builder's seed and
    /// the round index).
    pub fn step(&mut self) {
        self.inner.step();
    }

    /// Advances one round keyed by an externally supplied master seed
    /// instead of the builder's — feed identical keys to coupled
    /// samplers to realize a grand coupling. The round index is mixed
    /// into the key, so coupled partners must be at equal round counts
    /// — couple fresh builds, not one burnt-in and one not.
    pub fn step_keyed(&mut self, master: u64) {
        self.inner.step_keyed(master);
    }

    /// Advances `t` rounds.
    pub fn run(&mut self, t: usize) {
        for _ in 0..t {
            self.inner.step();
        }
    }

    /// The current configuration.
    pub fn state(&self) -> &[Spin] {
        self.inner.state()
    }

    /// Overwrites the current configuration.
    ///
    /// # Panics
    /// Panics if the length is wrong (programming error, not a
    /// configuration error — lengths are validated at build time).
    pub fn set_state(&mut self, state: &[Spin]) {
        self.inner.set_state(state);
    }

    /// Rounds executed so far (including burn-in).
    pub fn round(&self) -> u64 {
        self.inner.round()
    }

    /// The algorithm this sampler runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The execution backend in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The chain's experiment-output name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// The MRF being sampled (`None` for CSP samplers).
    pub fn mrf(&self) -> Option<&Arc<Mrf>> {
        self.mrf.as_ref()
    }

    /// Boundary-communication accounting when running on
    /// [`Backend::Sharded`] (`None` on the flat backends, whose rounds
    /// cross no shard boundaries). See [`CommStats`] for the
    /// per-round records and totals.
    pub fn comm_stats(&self) -> Option<&CommStats> {
        self.inner.comm()
    }

    /// Clears the boundary-communication record, e.g. after burn-in
    /// (no-op on the flat backends).
    pub fn reset_comm_stats(&mut self) {
        self.inner.reset_comm();
    }

    /// Advances `rounds` rounds, feeding every finished configuration to
    /// the observers. Observers see `(round, before, after)` slices only
    /// — they cannot touch the randomness streams, so observing never
    /// changes a trajectory (see DESIGN.md, "The sampler facade").
    pub fn observe(&mut self, rounds: usize, observers: &mut [&mut dyn Observer]) {
        let mut before = self.inner.state().to_vec();
        for _ in 0..rounds {
            self.inner.step();
            let round = self.inner.round() - 1;
            for obs in observers.iter_mut() {
                obs.record(round, &before, self.inner.state());
            }
            before.copy_from_slice(self.inner.state());
        }
    }
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("algorithm", &self.algorithm)
            .field("backend", &self.backend)
            .field("round", &self.inner.round())
            .field("n", &self.inner.state().len())
            .finish()
    }
}

/// Object-safe surface of a replica batch.
trait DynReplicas {
    fn step_all(&mut self);
    fn state(&self, b: usize) -> &[Spin];
    fn count(&self) -> usize;
    fn coalesced(&self) -> bool;
    fn round(&self) -> u64;
    fn set_backend(&mut self, backend: Backend);
    fn set_hotpath(&mut self, hotpath: HotPath);
}

impl<R: SyncRule> DynReplicas for ReplicaSet<R> {
    fn step_all(&mut self) {
        ReplicaSet::step_all(self);
    }
    fn state(&self, b: usize) -> &[Spin] {
        ReplicaSet::state(self, b)
    }
    fn count(&self) -> usize {
        ReplicaSet::count(self)
    }
    fn coalesced(&self) -> bool {
        ReplicaSet::coalesced(self)
    }
    fn round(&self) -> u64 {
        ReplicaSet::round(self)
    }
    fn set_backend(&mut self, backend: Backend) {
        ReplicaSet::set_backend(self, backend);
    }
    fn set_hotpath(&mut self, hotpath: HotPath) {
        ReplicaSet::set_hotpath(self, hotpath);
    }
}

/// A batch of replicas built by the facade — iid copies (TV estimation)
/// or a grand coupling ([`ReplicaBuilder::coupled`]).
pub struct ReplicaSampler {
    inner: Box<dyn DynReplicas + Send>,
    algorithm: Algorithm,
    backend: Backend,
}

impl ReplicaSampler {
    /// Advances every replica by one round.
    pub fn step(&mut self) {
        self.inner.step_all();
    }

    /// Advances every replica by `t` rounds.
    pub fn run(&mut self, t: usize) {
        for _ in 0..t {
            self.inner.step_all();
        }
    }

    /// Replica `b`'s configuration.
    pub fn state(&self, b: usize) -> &[Spin] {
        self.inner.state(b)
    }

    /// All configurations, in replica order.
    pub fn states(&self) -> impl ExactSizeIterator<Item = &[Spin]> {
        (0..self.inner.count()).map(|b| self.inner.state(b))
    }

    /// Number of replicas.
    pub fn count(&self) -> usize {
        self.inner.count()
    }

    /// Whether all replicas coincide (a coupled batch has coalesced).
    pub fn coalesced(&self) -> bool {
        self.inner.coalesced()
    }

    /// Rounds executed so far (including burn-in).
    pub fn round(&self) -> u64 {
        self.inner.round()
    }

    /// The algorithm this batch runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The execution backend in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }
}

impl std::fmt::Debug for ReplicaSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSampler")
            .field("algorithm", &self.algorithm)
            .field("backend", &self.backend)
            .field("replicas", &self.inner.count())
            .field("round", &self.inner.round())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Observers: a read-only per-round recorder pipeline.
// ---------------------------------------------------------------------

/// A per-round recorder fed by [`Sampler::observe`]. Observers receive
/// finished configurations only — by the determinism contract, round
/// `r`'s randomness is a pure function of `(master, r)`, so nothing an
/// observer does can perturb the trajectory.
pub trait Observer {
    /// Trace name for output.
    fn name(&self) -> &'static str;

    /// Called once per observed round with the configurations before
    /// and after the round.
    fn record(&mut self, round: u64, before: &[Spin], after: &[Spin]);
}

/// Records the model's log-weight (negative energy) per round.
#[derive(Debug)]
pub struct EnergyObserver<'a> {
    mrf: &'a Mrf,
    series: Vec<f64>,
}

impl<'a> EnergyObserver<'a> {
    /// An energy recorder for `mrf`.
    pub fn new(mrf: &'a Mrf) -> Self {
        EnergyObserver {
            mrf,
            series: Vec::new(),
        }
    }

    /// The recorded per-round log-weights.
    pub fn series(&self) -> &[f64] {
        &self.series
    }
}

impl Observer for EnergyObserver<'_> {
    fn name(&self) -> &'static str {
        "log_weight"
    }

    fn record(&mut self, _round: u64, _before: &[Spin], after: &[Spin]) {
        self.series.push(self.mrf.log_weight(after));
    }
}

/// Records the Hamming distance to a fixed reference configuration per
/// round (e.g. distance to a coupled partner's known trajectory, or to
/// the start).
#[derive(Clone, Debug)]
pub struct HammingObserver {
    reference: Vec<Spin>,
    series: Vec<f64>,
}

impl HammingObserver {
    /// A recorder of distances to `reference`.
    pub fn new(reference: Vec<Spin>) -> Self {
        HammingObserver {
            reference,
            series: Vec::new(),
        }
    }

    /// The recorded per-round distances.
    pub fn series(&self) -> &[f64] {
        &self.series
    }
}

impl Observer for HammingObserver {
    fn name(&self) -> &'static str {
        "hamming_to_reference"
    }

    fn record(&mut self, _round: u64, _before: &[Spin], after: &[Spin]) {
        self.series
            .push(crate::coupling::hamming(&self.reference, after) as f64);
    }
}

/// Records how many vertices changed spin per round — for
/// LocalMetropolis this counts accepted proposals, for LubyGlauber
/// effective updates on the scheduled set.
#[derive(Clone, Debug, Default)]
pub struct AcceptanceObserver {
    series: Vec<f64>,
    total: u64,
}

impl AcceptanceObserver {
    /// A fresh acceptance counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded per-round accepted-update counts.
    pub fn series(&self) -> &[f64] {
        &self.series
    }

    /// Total accepted updates over all observed rounds.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl Observer for AcceptanceObserver {
    fn name(&self) -> &'static str {
        "accepted_updates"
    }

    fn record(&mut self, _round: u64, before: &[Spin], after: &[Spin]) {
        let changed = crate::coupling::hamming(before, after);
        self.total += changed as u64;
        self.series.push(changed as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_graph::generators;
    use lsl_mrf::models;
    use std::sync::Arc;

    #[test]
    fn builder_runs_every_algorithm() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 10);
        for alg in [
            Algorithm::LocalMetropolis,
            Algorithm::LocalMetropolisNoRule3,
            Algorithm::LubyGlauber,
            Algorithm::Glauber,
            Algorithm::Metropolis,
        ] {
            let mut s = Sampler::for_mrf(&mrf)
                .algorithm(alg)
                .seed(3)
                .build()
                .unwrap();
            s.run(40);
            assert_eq!(s.state().len(), 16);
            assert_eq!(s.round(), 40);
            assert_eq!(s.algorithm(), alg);
        }
    }

    #[test]
    fn builder_runs_every_scheduler() {
        let mrf = models::proper_coloring(generators::cycle(9), 6);
        for sched in [
            Sched::Luby,
            Sched::Singleton,
            Sched::Bernoulli(0.3),
            Sched::Chromatic,
        ] {
            let mut s = Sampler::for_mrf(&mrf)
                .algorithm(Algorithm::LubyGlauber)
                .scheduler(sched)
                .seed(5)
                .build()
                .unwrap();
            s.run(60);
            assert!(mrf.is_feasible(s.state()), "{:?} left feasibility", sched);
        }
    }

    #[test]
    fn burn_in_advances_rounds() {
        let mrf = models::proper_coloring(generators::cycle(6), 4);
        let s = Sampler::for_mrf(&mrf).burn_in(25).build().unwrap();
        assert_eq!(s.round(), 25);
    }

    #[test]
    fn seeds_key_trajectories() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let build = |seed| {
            let mut s = Sampler::for_mrf(&mrf).seed(seed).build().unwrap();
            s.run(30);
            s.state().to_vec()
        };
        assert_eq!(build(7), build(7), "same seed must reproduce");
        assert_ne!(build(7), build(8), "different seeds should diverge");
    }

    #[test]
    fn replica_batch_iid_and_coupled() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 12);
        let mut iid = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LubyGlauber)
            .seed(3)
            .replicas(4)
            .build()
            .unwrap();
        iid.run(30);
        assert_eq!(iid.count(), 4);
        assert!(!iid.coalesced(), "iid replicas should differ");

        let starts = crate::coupling::adversarial_starts(&mrf, 1, 3);
        let k = starts.len();
        let mut coupled = Sampler::for_mrf(&mrf)
            .seed(9)
            .replicas(k)
            .starts(starts)
            .coupled()
            .build()
            .unwrap();
        let mut done = false;
        for _ in 0..3000 {
            if coupled.coalesced() {
                done = true;
                break;
            }
            coupled.step();
        }
        assert!(done, "grand coupling never coalesced");
    }

    #[test]
    fn csp_sampler_stays_feasible() {
        let csp = Csp::dominating_set(Arc::new(generators::path(4)));
        let n = csp.graph().num_vertices();
        let mut s = Sampler::for_csp(&csp)
            .start(vec![1; n])
            .seed(11)
            .build()
            .unwrap();
        s.run(80);
        assert!(csp.is_feasible(s.state()));
        assert_eq!(s.name(), "CspLubyGlauber");
        assert!(s.mrf().is_none());
    }

    #[test]
    fn observers_record_without_perturbing() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let build = || Sampler::for_mrf(&mrf).seed(21).build().unwrap();

        let mut plain = build();
        plain.run(30);

        let mut observed = build();
        let mut energy = EnergyObserver::new(&mrf);
        let mut hamming = HammingObserver::new(observed.state().to_vec());
        let mut accepts = AcceptanceObserver::new();
        observed.observe(30, &mut [&mut energy, &mut hamming, &mut accepts]);

        assert_eq!(
            plain.state(),
            observed.state(),
            "observation changed the trajectory"
        );
        assert_eq!(energy.series().len(), 30);
        assert_eq!(hamming.series().len(), 30);
        assert_eq!(accepts.series().len(), 30);
        // A feasible coloring has weight 1 → log-weight 0.
        assert_eq!(*energy.series().last().unwrap(), 0.0);
        assert!(accepts.total() > 0, "no update ever accepted");
    }

    #[test]
    fn jobs_match_free_functions_bit_for_bit() {
        // The job verbs are the same computation as the batched free
        // functions — identical seeds must give identical numbers.
        let mrf = Arc::new(models::proper_coloring(generators::cycle(4), 3));
        let exact = Enumeration::new(&mrf).unwrap();
        let builder = Sampler::for_mrf(Arc::clone(&mrf))
            .algorithm(Algorithm::LubyGlauber)
            .seed(99);
        let job = builder.tv_curve(&exact, &[0, 5, 40], 2000).unwrap();
        let free = crate::mixing::empirical_tv_curve_batched(
            &mrf,
            &LubyGlauberRule::luby(),
            &exact,
            &[0, 5, 40],
            2000,
            99,
        );
        assert_eq!(job, free);

        let report = builder.coalescence(3, 50_000).unwrap();
        let (summary, timeouts) = crate::mixing::coalescence_summary_batched(
            &mrf,
            &LubyGlauberRule::luby(),
            3,
            50_000,
            99,
        );
        assert_eq!(report.timeouts, timeouts);
        assert_eq!(report.summary.mean, summary.mean);
    }

    #[test]
    fn display_messages_are_informative() {
        let e = BuildError::SchedulerNotApplicable {
            algorithm: Algorithm::Glauber,
        };
        assert!(e.to_string().contains("Glauber"));
        let e = BuildError::StartLength {
            expected: 9,
            got: 4,
        };
        assert!(e.to_string().contains('9'));
    }
}
