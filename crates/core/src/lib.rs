//! The paper's contribution: distributed Markov chains for sampling from
//! Gibbs distributions in the LOCAL model.
//!
//! "What can be sampled locally?" (Feng, Sun, Yin, PODC 2017) gives two
//! distributed samplers and proves matching lower bounds; this crate
//! implements the samplers, the sequential baselines they parallelize, and
//! the measurement machinery their theorems call for:
//!
//! * [`sampler`] — the **facade**: one typed builder over models ×
//!   algorithms × schedulers × backends, with measurement jobs
//!   (TV curves, coalescence) and a read-only observer pipeline — start
//!   here;
//! * [`engine`] — the **step engine**: chain logic as per-vertex rules
//!   over counter-style randomness streams, executed by swappable
//!   backends (sequential, parallel, owner-computes sharded, batched
//!   replicas) with bit-identical trajectories — see `DESIGN.md` for
//!   the layering and the determinism contract;
//! * [`engine::rules`] — the chains as engine rules: **Algorithm 1
//!   (LubyGlauber)**, heat-bath updates on a scheduled independent set
//!   each round; **Algorithm 2 (LocalMetropolis)**, simultaneous
//!   proposals at every vertex filtered by per-edge coins, with the
//!   rule-three ablation the paper warns about; and the sequential
//!   single-site **Glauber** and **Metropolis** baselines;
//! * [`schedule`] — the paper's "Luby step" and the other
//!   independent-set schedulers its Theorem 3.2 remark allows
//!   (chromatic classes, singletons, filtered-Bernoulli);
//! * [`single_site`] — start configurations and the **systematic scan**
//!   baseline;
//! * [`csp_metropolis`] — the weighted-CSP filter of LocalMetropolis and
//!   its exact kernel (both CSP chains run behind the facade, via
//!   [`Sampler::for_csp`](sampler::Sampler::for_csp));
//! * [`programs`] — both algorithms as LOCAL-model vertex programs with
//!   message-size accounting (one LOCAL round per chain step);
//! * [`kernel`] — *exact* transition kernels of all three chains on small
//!   instances, enabling exact verification of Proposition 3.1 and
//!   Theorem 4.1 (reversibility, stationarity) and exact mixing curves;
//! * [`coupling`] — grand couplings and coalescence-time measurement (the
//!   experimental counterpart of the path-coupling theorems);
//! * [`mixing`] — empirical total-variation estimation against exact
//!   ground truth;
//! * [`spec`] / [`service`] / [`proto`] / [`codec`] / [`net`] — the
//!   **serving stack**: declarative job specs with seed/parameter
//!   sweeps, the event-streaming worker-pool service, the
//!   line-delimited wire codec, the negotiated binary frame codec with
//!   bit-packed full-state delivery, and the TCP server/client putting
//!   sessions on the network;
//! * [`cluster`] — the **cluster layer** on top of the serving stack: a
//!   sweep coordinator fanning member jobs over a worker fleet (with
//!   liveness probing and deterministic replay after worker loss), and
//!   cross-process sharded chains exchanging boundary states as
//!   `shard-sync` frames — bit-identical to the in-process backends.
//!
//! # Example: sample a proper coloring with LocalMetropolis
//!
//! The [`sampler`] facade is the one front door — pick a model, an
//! algorithm, a scheduler, and a backend, and build:
//!
//! ```
//! use lsl_core::prelude::*;
//! use lsl_graph::generators;
//! use lsl_mrf::models;
//!
//! let mrf = models::proper_coloring(generators::torus(5, 5), 16);
//! let mut sampler = Sampler::for_mrf(&mrf)
//!     .algorithm(Algorithm::LocalMetropolis)
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! sampler.run(60);
//! assert!(mrf.is_feasible(sampler.state()));
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod codec;
pub mod coupling;
pub mod csp_metropolis;
pub mod engine;
pub mod kernel;
pub mod labeling;
pub mod lifecycle;
mod luby_glauber;
pub mod mixing;
pub mod net;
pub mod programs;
pub mod proto;
pub mod sampler;
pub mod schedule;
pub mod service;
pub mod single_site;
pub mod spec;
pub mod store;
pub mod update;

/// Runs `body` on its own thread and fails the calling test if it has
/// not returned within `limit`, so a hang fails the test instead of
/// blocking the suite (the stuck thread is left behind). A panic in
/// `body` is re-raised on the caller.
#[cfg(test)]
pub(crate) fn within<T: Send + 'static>(
    limit: std::time::Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("body ended without a value"))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("still running after {limit:?}")
        }
    }
}

/// The facade in one `use`: the [`sampler`] builder types, the
/// declarative [`spec`] layer and its serving [`service`], the engine
/// [`Backend`](engine::Backend), and the workspace PRNG.
pub mod prelude {
    pub use crate::cluster::{ClusterError, ClusterEvent, ClusterRun, Coordinator};
    pub use crate::codec::{Codec, StateBlob};
    pub use crate::engine::Backend;
    pub use crate::lifecycle::{CancelToken, Limits, RejectReason};
    pub use crate::net::{Client, ConnectError, Server};
    pub use crate::sampler::{
        AcceptanceObserver, Algorithm, BuildError, CoalescenceReport, EnergyObserver,
        HammingObserver, Observer, ReplicaBuilder, ReplicaSampler, Sampler, SamplerBuilder, Sched,
    };
    pub use crate::service::{CacheStats, JobEvent, JobHandle, Service, SweepHandle};
    pub use crate::spec::{
        JobOutput, JobResult, JobSpec, ScenarioRegistry, SpecError, SweepResult, SweepSpec,
    };
    pub use crate::store::{ResultStore, StoreStats};
    pub use lsl_local::rng::Xoshiro256pp;
}
