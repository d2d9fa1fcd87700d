//! The cluster layer: a sweep coordinator over a fleet of `lsl serve`
//! workers, plus cross-process sharded chains.
//!
//! Two tiers, one determinism contract:
//!
//! **Tier A — sweep fan-out.** [`Coordinator::run_sweep`] expands a
//! sweep line exactly as [`Service::submit_sweep`](crate::service::Service::submit_sweep)
//! does and fans the member jobs across the worker fleet, one
//! [`Client`] session per worker, pulling from a shared queue (natural
//! load balancing: a fast worker claims more members). A thread that
//! finds the queue empty while other members are still in flight waits
//! on a condition variable, woken when a member is requeued or the
//! last one resolves, so a sweep returns as soon as its last member
//! does. Every member is
//! a deterministic function of its spec line, so *where* it runs is
//! invisible in the result: the aggregated [`SweepResult`] is
//! bit-identical to a single-server run, member order preserved
//! (expansion order, regardless of completion order). A worker that
//! dies mid-member loses nothing — the member is requeued
//! ([`ClusterEvent::Requeued`]) and re-executed elsewhere, by the same
//! determinism argument.
//!
//! **Tier B — distributed sharded chains.** A member with
//! `backend=cluster:k` runs as `k` owner-computes shards spread over
//! the fleet. Both sides derive the same shard layout from the spec
//! line. Each shard lives worker-side as a `ShardCore` advanced by the
//! round body the in-process
//! [`ShardedChain`](crate::engine::sharded::ShardedChain) uses; the
//! worker only adds wire glue (publish the frontier, wait for the
//! halo). The boundary exchange becomes `shard-sync` frames relayed
//! through the coordinator, which feeds the received frontiers to the
//! same `Exchange` the in-process chain ships through and sends each
//! shard the halo it yields. The round barrier is keyed by
//! `(master_seed, round)`: every draw of round `r` is a pure function
//! of `(seed, r, vertex-or-edge)` (counter-keyed randomness), halo
//! proposals are recomputed locally (rules with `STATE_FREE_PROPOSE`),
//! and ghost copies are refreshed every round — so the distributed
//! trajectory is bit-identical to the in-process sharded chain, which
//! is bit-identical to sequential. Because one `Exchange` counts
//! communication on both tiers, the [`CommSummary`] is identical by
//! construction — `messages ≤ 2·cut` and all.
//!
//! Property-tested against the single-process paths in
//! `tests/cluster_identity.rs`, including under injected worker loss.

use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lsl_graph::partition::{Partition, Partitioner};
use lsl_graph::VertexId;
use lsl_mrf::{Mrf, Spin};

use crate::codec::{Codec, StateBlob};
use crate::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule, MetropolisRule};
use crate::engine::sharded::{Exchange, ShardCore};
use crate::engine::{HotPath, RoundCtx, SyncRule};
use crate::lifecycle::RejectReason;
use crate::net::{Client, ConnectError, NetError};
use crate::proto::{ClientFrame, ServerFrame};
use crate::sampler::{dispatch_rule, Algorithm, Sched};
use crate::schedule::{BernoulliFilterScheduler, ChromaticScheduler, SingletonScheduler};
use crate::spec::{
    fingerprint, BuiltModel, CommSummary, JobKind, JobOutput, JobResult, JobSpec, SpecError,
    SweepResult, SweepSpec,
};

/// Consecutive failures a worker thread tolerates before it gives up
/// on its worker for the rest of the sweep (each failure requeues the
/// member first, so surviving workers absorb the load).
const FAILURE_BUDGET: u32 = 3;

/// Something the coordinator observed about the fleet while a sweep
/// ran — fault handling made visible, without failing the sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A worker stopped answering (connect, ping, or mid-job socket
    /// failure) and was benched after its failure budget.
    WorkerLost {
        /// The worker's address.
        worker: String,
        /// What failed, human-readable.
        detail: String,
    },
    /// A member job was handed back to the queue after its worker
    /// failed; another worker (or a reconnect) will re-run it.
    Requeued {
        /// The member's expansion index.
        member: usize,
        /// The worker that lost it.
        worker: String,
    },
}

impl std::fmt::Display for ClusterEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterEvent::WorkerLost { worker, detail } => {
                write!(f, "worker {worker} lost: {detail}")
            }
            ClusterEvent::Requeued { member, worker } => {
                write!(f, "member {member} requeued (was on {worker})")
            }
        }
    }
}

/// Why a cluster sweep could not produce a result.
#[derive(Debug)]
pub enum ClusterError {
    /// The coordinator was given an empty worker list.
    NoWorkers,
    /// A worker address never accepted a connection, even with retry.
    Connect(ConnectError),
    /// A session-level protocol failure outside any one member job.
    Net(NetError),
    /// The sweep line failed to parse, or a member job failed
    /// deterministically (the same error a single-server run reports).
    Spec(SpecError),
    /// Every retry avenue was exhausted with members still unresolved
    /// — the fleet died faster than the work could be replayed.
    Exhausted {
        /// Members that never produced a result.
        unresolved: usize,
        /// Total members in the sweep.
        jobs: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoWorkers => f.write_str("no worker addresses given"),
            ClusterError::Connect(e) => write!(f, "{e}"),
            ClusterError::Net(e) => write!(f, "{e}"),
            ClusterError::Spec(e) => write!(f, "{e}"),
            ClusterError::Exhausted { unresolved, jobs } => write!(
                f,
                "sweep exhausted its retry budget: {unresolved} of {jobs} members unresolved"
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Connect(e) => Some(e),
            ClusterError::Net(e) => Some(e),
            ClusterError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConnectError> for ClusterError {
    fn from(e: ConnectError) -> Self {
        ClusterError::Connect(e)
    }
}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        ClusterError::Net(e)
    }
}

impl From<SpecError> for ClusterError {
    fn from(e: SpecError) -> Self {
        ClusterError::Spec(e)
    }
}

/// A finished cluster sweep: the aggregate (bit-identical to a
/// single-server [`SweepResult`]) plus the fault-handling events
/// observed along the way.
#[derive(Debug)]
pub struct ClusterRun {
    /// The aggregated sweep result, members in expansion order.
    pub result: SweepResult,
    /// Worker-loss and requeue events, in observation order.
    pub events: Vec<ClusterEvent>,
}

/// A sweep coordinator over a fleet of `lsl serve` workers — see the
/// [module docs](self) for the two execution tiers.
///
/// ```no_run
/// use lsl_core::cluster::Coordinator;
/// let coord = Coordinator::connect(["127.0.0.1:7401", "127.0.0.1:7402"])?;
/// let run = coord.run_sweep("graph=torus:8x8 model=potts:3:0.5 seeds=0..16")?;
/// println!("{}", run.result.summary);
/// # Ok::<(), lsl_core::cluster::ClusterError>(())
/// ```
pub struct Coordinator {
    workers: Vec<String>,
    codec: Codec,
    ping_timeout: Duration,
    attempts: u32,
    base_delay: Duration,
}

impl Coordinator {
    /// Connects to a worker fleet: records the addresses and probes
    /// each one (connect + ping) so a dead address fails fast, with
    /// the default knobs (binary codec, 5 s ping timeout, 4 connect
    /// attempts at 50 ms base backoff).
    ///
    /// # Errors
    /// [`ClusterError::NoWorkers`] on an empty list; a typed
    /// [`ClusterError::Connect`] / [`ClusterError::Net`] naming the
    /// first unreachable worker otherwise.
    pub fn connect<S: Into<String>>(
        workers: impl IntoIterator<Item = S>,
    ) -> Result<Coordinator, ClusterError> {
        let workers: Vec<String> = workers.into_iter().map(Into::into).collect();
        if workers.is_empty() {
            return Err(ClusterError::NoWorkers);
        }
        let coord = Coordinator {
            workers,
            codec: Codec::Binary,
            ping_timeout: Duration::from_secs(5),
            attempts: 4,
            base_delay: Duration::from_millis(50),
        };
        for worker in &coord.workers {
            let _ = coord.open_live(worker)?;
        }
        Ok(coord)
    }

    /// Sets the session codec workers are spoken to with (default:
    /// [`Codec::Binary`]).
    #[must_use]
    pub fn codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the liveness budget: how long a worker may take to answer
    /// a ping — or to deliver a shard-session frame — before it is
    /// declared [`ClusterEvent::WorkerLost`].
    #[must_use]
    pub fn ping_timeout(mut self, timeout: Duration) -> Self {
        self.ping_timeout = timeout;
        self
    }

    /// Sets the connect/retry budget: reconnect attempts per worker,
    /// and full-job retries for distributed members.
    #[must_use]
    pub fn attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Sets the base delay of the bounded exponential backoff between
    /// retry attempts (doubling per attempt).
    #[must_use]
    pub fn base_delay(mut self, delay: Duration) -> Self {
        self.base_delay = delay;
        self
    }

    /// The worker addresses, as given.
    pub fn workers(&self) -> &[String] {
        &self.workers
    }

    /// Runs one sweep line across the fleet and aggregates the member
    /// results in expansion order — bit-identical to
    /// [`Service::submit_sweep`](crate::service::Service::submit_sweep)
    /// on a single server, including after worker loss (lost members
    /// are requeued and replayed; determinism makes the replay exact).
    ///
    /// Plain members fan out over per-worker sessions; members with
    /// `backend=cluster:k` on an MRF `run` job instead execute as `k`
    /// cross-process shards spread over the fleet (see the
    /// [module docs](self)).
    ///
    /// # Errors
    /// [`ClusterError::Spec`] for parse failures and deterministic
    /// member errors (what a single server would report);
    /// [`ClusterError::Exhausted`] when worker loss outran the retry
    /// budget.
    pub fn run_sweep(&self, line: &str) -> Result<ClusterRun, ClusterError> {
        let sweep: SweepSpec = line.parse().map_err(ClusterError::Spec)?;
        let members = sweep.expand();
        let jobs = members.len();
        let mut plain: VecDeque<usize> = VecDeque::new();
        let mut distributed: Vec<usize> = Vec::new();
        for (i, member) in members.iter().enumerate() {
            if is_distributed(member) {
                distributed.push(i);
            } else {
                plain.push_back(i);
            }
        }

        let slots: Mutex<Vec<Option<Result<JobResult, SpecError>>>> = Mutex::new(vec![None; jobs]);
        let events: Mutex<Vec<ClusterEvent>> = Mutex::new(Vec::new());

        if !plain.is_empty() {
            let queue = PlainQueue::new(plain);
            std::thread::scope(|scope| {
                for worker in &self.workers {
                    scope.spawn(|| {
                        self.worker_loop(worker, &members, &queue, &slots, &events);
                    });
                }
            });
        }

        for &index in &distributed {
            self.run_distributed(index, &members[index], &slots, &events);
        }

        let slots = slots
            .into_inner()
            .expect("no thread panicked holding slots");
        let unresolved = slots.iter().filter(|s| s.is_none()).count();
        let mut results = Vec::with_capacity(jobs);
        for slot in slots {
            match slot {
                Some(Ok(result)) => results.push(result),
                Some(Err(e)) => return Err(ClusterError::Spec(e)),
                None => return Err(ClusterError::Exhausted { unresolved, jobs }),
            }
        }
        Ok(ClusterRun {
            // The canonical line, exactly what `Service::submit_sweep`
            // stamps on its aggregate.
            result: SweepResult::aggregate(sweep.to_string(), results),
            events: events
                .into_inner()
                .expect("no thread panicked holding events"),
        })
    }

    /// Opens a session to `worker` and proves it live with a ping.
    fn open_live(&self, worker: &str) -> Result<Client, ClusterError> {
        let mut client =
            Client::connect_with_retry(worker, self.codec, self.attempts, self.base_delay)?;
        client.ping(self.ping_timeout)?;
        Ok(client)
    }

    /// One worker's pull loop over the plain-member queue. Failures
    /// requeue the member *before* any bail-out path, so no member is
    /// ever lost; after [`FAILURE_BUDGET`] consecutive failures the
    /// worker is benched and the surviving threads absorb its share.
    fn worker_loop(
        &self,
        worker: &str,
        members: &[JobSpec],
        queue: &PlainQueue,
        slots: &Mutex<Vec<Option<Result<JobResult, SpecError>>>>,
        events: &Mutex<Vec<ClusterEvent>>,
    ) {
        let mut client: Option<Client> = None;
        let mut failures = 0u32;
        while let Some(index) = queue.claim() {
            // INVARIANT: from here on, `index` is either resolved into
            // its slot or pushed back onto the queue — every path.
            let session = match client.take() {
                Some(c) => Ok(c),
                None => self
                    .open_live(worker)
                    .map_err(|e| MemberFailure::Lost(e.to_string())),
            };
            let outcome = session.and_then(|mut c| {
                let outcome = run_member(&mut c, &members[index]);
                // A lost session is dropped; any other outcome keeps it.
                if !matches!(outcome, Err(MemberFailure::Lost(_))) {
                    client = Some(c);
                }
                outcome
            });
            match outcome {
                Ok(outcome) => {
                    failures = 0;
                    slots.lock().expect("slots lock")[index] = Some(outcome);
                    queue.resolve();
                }
                // Transient: the worker is alive but declined (draining,
                // busy). Lost: it failed to connect or died mid-job.
                // Either way the member goes to someone else.
                Err(failure) => {
                    queue.requeue(index);
                    failures += 1;
                    let lost = match failure {
                        MemberFailure::Lost(detail) => Some(detail),
                        MemberFailure::Transient => None,
                    };
                    requeued(events, worker, index, lost);
                    if failures >= FAILURE_BUDGET {
                        return;
                    }
                }
            }
        }
    }

    /// Runs one distributed member with whole-member retry: a failed
    /// attempt tears down the shard sessions and replays the member
    /// from scratch — determinism makes the replay bit-exact, so
    /// worker loss mid-chain costs time, never correctness.
    fn run_distributed(
        &self,
        index: usize,
        member: &JobSpec,
        slots: &Mutex<Vec<Option<Result<JobResult, SpecError>>>>,
        events: &Mutex<Vec<ClusterEvent>>,
    ) {
        // Workers still trusted for this member: a retry after worker
        // loss re-spreads the shards over the survivors (placement is
        // invisible in the result, so the replay stays bit-exact).
        let mut fleet: Vec<String> = self.workers.clone();
        for attempt in 0..self.attempts.max(1) {
            if attempt > 0 {
                let backoff = self
                    .base_delay
                    .saturating_mul(1u32 << (attempt - 1).min(16));
                std::thread::sleep(backoff);
            }
            match self.try_distributed(member, &fleet) {
                Ok(result) => {
                    slots.lock().expect("slots lock")[index] = Some(Ok(result));
                    return;
                }
                Err(DistFailure::Spec(e)) => {
                    // Deterministic: a retry would fail identically.
                    slots.lock().expect("slots lock")[index] = Some(Err(e));
                    return;
                }
                Err(DistFailure::Lost { worker, detail }) => {
                    requeued(events, &worker, index, Some(detail));
                    fleet.retain(|w| w != &worker);
                    if fleet.is_empty() {
                        break;
                    }
                }
            }
        }
        // The slot stays empty; `run_sweep` reports `Exhausted`.
    }

    /// One attempt at a distributed member: open `k` shard sessions
    /// over the fleet, relay the per-round boundary exchange through
    /// the same [`Exchange`] the in-process chain uses (so the
    /// [`CommSummary`] is bit-identical too), and assemble the result.
    fn try_distributed(
        &self,
        member: &JobSpec,
        fleet: &[String],
    ) -> Result<JobResult, DistFailure> {
        let started = Instant::now();
        // Derive the layout exactly as a worker does, so impossible
        // specs fail typed and without touching the fleet.
        let mut layout = ShardLayout::derive(member).map_err(DistFailure::Spec)?;
        let (k, n, q) = (
            layout.partition.num_shards(),
            layout.mrf.num_vertices(),
            layout.mrf.q(),
        );
        let spec_line = member.to_string();

        // Shard s lives on worker s mod W (round-robin placement).
        let mut conns: Vec<(String, Client)> = Vec::with_capacity(k);
        for s in 0..k {
            let worker = &fleet[s % fleet.len()];
            let lost = |e: &dyn std::fmt::Display| DistFailure::Lost {
                worker: worker.clone(),
                detail: e.to_string(),
            };
            let mut client = self.open_live(worker).map_err(|e| lost(&e))?;
            client
                .send_frame(&ClientFrame::ShardInit {
                    id: s as u64,
                    shard: s as u32,
                    of: k as u32,
                    spec: spec_line.clone(),
                })
                .map_err(|e| lost(&e))?;
            conns.push((worker.clone(), client));
        }

        // The active vertex of every round — the answers the in-process
        // chain gets, since both key off `(seed, round)`.
        let routing = layout.active_vertices();
        // A shard frame may lag a full round of local compute behind a
        // ping, so the liveness budget here is the ping budget with
        // headroom.
        let frame_budget = self.ping_timeout.saturating_mul(4);

        let exchange = &mut layout.exchange;
        for (r, &active) in routing.iter().enumerate() {
            for (s, (worker, client)) in conns.iter_mut().enumerate() {
                let deadline = Instant::now() + frame_budget;
                let frontier = exchange.frontier_mut(s);
                recv_shard(
                    client, worker, s as u64, r as u64, false, frontier, deadline,
                )?;
            }
            // The workers hold their halos in their own slabs; here the
            // exchange only routes and counts.
            exchange.ship(r as u64, active, |_, _, _| {});
            // Release the barrier: every shard gets its full halo
            // (unchanged entries are no-op ghost refreshes).
            for (s, (worker, client)) in conns.iter_mut().enumerate() {
                client
                    .send_frame(&ClientFrame::ShardSync {
                        id: s as u64,
                        round: r as u64,
                        blob: StateBlob::pack(exchange.halo(s), q),
                    })
                    .map_err(|e| DistFailure::Lost {
                        worker: worker.clone(),
                        detail: e.to_string(),
                    })?;
            }
        }

        // Collect the final owned states and stitch the configuration.
        let mut state: Vec<Spin> = vec![0; n];
        for (s, (worker, client)) in conns.iter_mut().enumerate() {
            let deadline = Instant::now() + frame_budget;
            let owned = layout.partition.members(s);
            let mut spins = vec![0; owned.len()];
            let total = layout.total as u64;
            recv_shard(client, worker, s as u64, total, true, &mut spins, deadline)?;
            for (&v, &spin) in owned.iter().zip(&spins) {
                state[v.index()] = spin;
            }
        }

        let output = JobOutput::Run {
            rounds: layout.total as u64,
            n,
            feasible: layout.mrf.is_feasible(&state),
            fingerprint: fingerprint(&state),
            comm: Some(CommSummary::of(layout.exchange.comm())),
        };
        Ok(JobResult {
            spec: spec_line,
            output,
            elapsed_secs: started.elapsed().as_secs_f64(),
        })
    }
}

/// The plain-member queue of one sweep, shared by the worker threads.
/// An idle thread waits on `ready`: it is woken when a member is
/// requeued, and when the last member resolves (then every waiter
/// leaves). No member is lost while a thread waits — whoever
/// holds an unresolved member either resolves or requeues it.
struct PlainQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    /// Members waiting for a worker thread, by expansion index.
    pending: VecDeque<usize>,
    /// Members not yet resolved: pending plus in flight.
    remaining: usize,
}

impl PlainQueue {
    fn new(pending: VecDeque<usize>) -> Self {
        PlainQueue {
            state: Mutex::new(QueueState {
                remaining: pending.len(),
                pending,
            }),
            ready: Condvar::new(),
        }
    }

    /// The next member to run, waiting while other threads hold every
    /// unresolved member; `None` once all are resolved.
    fn claim(&self) -> Option<usize> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(index) = state.pending.pop_front() {
                return Some(index);
            }
            if state.remaining == 0 {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Hands a claimed member back and wakes one waiting thread.
    fn requeue(&self, index: usize) {
        self.state
            .lock()
            .expect("queue lock")
            .pending
            .push_back(index);
        self.ready.notify_one();
    }

    /// Marks a claimed member resolved; the last one wakes every
    /// waiting thread so it can leave.
    fn resolve(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.remaining -= 1;
        if state.remaining == 0 {
            self.ready.notify_all();
        }
    }
}

/// Records that `member` left `worker` for the queue — after the
/// worker was lost, with what failed.
fn requeued(events: &Mutex<Vec<ClusterEvent>>, worker: &str, member: usize, lost: Option<String>) {
    let mut ev = events.lock().expect("events lock");
    if let Some(detail) = lost {
        ev.push(ClusterEvent::WorkerLost {
            worker: worker.to_string(),
            detail,
        });
    }
    ev.push(ClusterEvent::Requeued {
        member,
        worker: worker.to_string(),
    });
}

/// Whether a member executes as cross-process shards (Tier B) rather
/// than as one job on one worker. CSP models and non-`run` jobs fall
/// back to the plain path — worker-side, `backend=cluster:k` builds
/// the in-process sharded chain, which is bit-identical anyway.
fn is_distributed(member: &JobSpec) -> bool {
    matches!(member.backend, Some(crate::engine::Backend::Cluster { .. }))
        && matches!(member.job_or_default(), JobKind::Run { .. })
        && !member.model.is_csp()
}

/// How one plain member attempt failed.
enum MemberFailure {
    /// The worker is alive but declined the job for reasons another
    /// worker may not share (draining, admission caps, mid-drain
    /// cancellation).
    Transient,
    /// The session died: socket or protocol failure.
    Lost(String),
}

/// Runs one plain member on an open worker session: submit, drain,
/// classify. Deterministic member errors come back as `Ok(Err(_))` —
/// they are results (a single server would report the same), not
/// fleet faults.
fn run_member(
    client: &mut Client,
    member: &JobSpec,
) -> Result<Result<JobResult, SpecError>, MemberFailure> {
    client
        .submit(&member.to_string())
        .map_err(|e| MemberFailure::Lost(e.to_string()))?;
    let outcomes = client
        .drain()
        .map_err(|e| MemberFailure::Lost(e.to_string()))?;
    let outcome = outcomes
        .into_iter()
        .next()
        .ok_or_else(|| MemberFailure::Lost("drain returned no outcome".into()))?;
    let result = outcome
        .members
        .into_iter()
        .next()
        .ok_or_else(|| MemberFailure::Lost("outcome carried no members".into()))?;
    match result {
        Ok(result) => Ok(Ok(result)),
        // Transient server states: retry the member elsewhere.
        Err(SpecError::Cancelled) => Err(MemberFailure::Transient),
        Err(SpecError::ServiceStopped) => Err(MemberFailure::Lost("worker service stopped".into())),
        Err(SpecError::Rejected(reason)) => match reason {
            // A round-budget rejection is a property of the *job*:
            // every worker with the same limits rejects it forever.
            RejectReason::RoundBudget { .. } => Ok(Err(SpecError::Rejected(reason))),
            RejectReason::QueueFull { .. }
            | RejectReason::SessionBusy { .. }
            | RejectReason::Draining => Err(MemberFailure::Transient),
        },
        // Everything else is deterministic — report it as the member's
        // result, exactly as a single-server sweep would.
        Err(e) => Ok(Err(e)),
    }
}

/// How one distributed-member attempt failed.
enum DistFailure {
    /// Deterministic: pre-flight validation or an equivalent error a
    /// single-process run would also report. Never retried.
    Spec(SpecError),
    /// A worker died or broke protocol mid-chain; the whole member is
    /// replayed (determinism makes the replay exact).
    Lost {
        /// The worker blamed.
        worker: String,
        /// What failed.
        detail: String,
    },
}

/// Receives shard `id`'s next frame — its `shard-sync` for `round`, or
/// with `done` its `shard-done` after `round` rounds — and unpacks the
/// frame's blob into `out`, validating shape.
fn recv_shard(
    client: &mut Client,
    worker: &str,
    id: u64,
    round: u64,
    done: bool,
    out: &mut [Spin],
    deadline: Instant,
) -> Result<(), DistFailure> {
    let lost = |detail: String| DistFailure::Lost {
        worker: worker.to_string(),
        detail,
    };
    let blob = match client.recv_frame(Some(deadline)) {
        Ok(Some(ServerFrame::ShardSync {
            id: i,
            round: r,
            blob,
        })) if !done && (i, r) == (id, round) => blob,
        Ok(Some(ServerFrame::ShardDone {
            id: i,
            rounds,
            blob,
        })) if done && (i, rounds) == (id, round) => blob,
        Ok(Some(ServerFrame::Error { message, .. })) => {
            return Err(lost(format!("shard {id}: worker error: {message}")))
        }
        Ok(Some(frame)) => {
            return Err(lost(format!(
                "shard {id} round {round}: unexpected frame {frame}"
            )))
        }
        Ok(None) => return Err(lost(format!("shard {id}: worker closed the connection"))),
        Err(e) => return Err(lost(format!("shard {id}: {e}"))),
    };
    let spins = blob.unpack();
    if spins.len() != out.len() {
        return Err(lost(format!(
            "shard {id} round {round}: {} spins, expected {}",
            spins.len(),
            out.len()
        )));
    }
    out.copy_from_slice(&spins);
    Ok(())
}

/// What both sides of a `backend=cluster:k` run derive from its spec
/// line — model, rule, partition, exchange, start, round count, seed —
/// so coordinator and workers agree on the exchange without shipping
/// it.
struct ShardLayout {
    mrf: Arc<Mrf>,
    algorithm: Algorithm,
    scheduler: Option<Sched>,
    partition: Partition,
    /// The exchange over `partition`, ghost copies at `start`.
    exchange: Exchange,
    start: Vec<Spin>,
    /// Burn-in plus measured rounds.
    total: usize,
    seed: u64,
    /// The spec's hot-path selection, which every shard's kernel
    /// follows (as in the in-process `sharded:k` build).
    hotpath: HotPath,
}

impl ShardLayout {
    /// Derives the layout. Errors are typed: CSP models, non-`run`
    /// jobs, and whatever an in-process build of the spec rejects.
    fn derive(member: &JobSpec) -> Result<ShardLayout, SpecError> {
        let model = member.build_model();
        // Validate first, so a spec the in-process build rejects (a CSP
        // on `cluster:k`, say) fails with the single-server error.
        let burn_in = member.burn_in.unwrap_or(0);
        member.sampler_builder(&model).burn_in(burn_in).validate()?;
        let BuiltModel::Mrf(mrf) = &model else {
            return Err(SpecError::Unsupported {
                message: "shard sessions need an MRF model".into(),
            });
        };
        let JobKind::Run { rounds } = member.job_or_default() else {
            return Err(SpecError::Unsupported {
                message: "shard sessions run `run` jobs only".into(),
            });
        };
        // The same min-then-max clamp the in-process builder applies.
        let k = member
            .backend_or_default()
            .worker_count()
            .min(mrf.num_vertices())
            .max(1);
        let partition = member
            .partitioner
            .unwrap_or(Partitioner::Contiguous)
            .partition(mrf.graph(), k);
        let start = crate::single_site::default_start(mrf);
        Ok(ShardLayout {
            exchange: Exchange::new(mrf, &partition, &start),
            mrf: Arc::clone(mrf),
            algorithm: member.algorithm_or_default(),
            scheduler: member.scheduler,
            partition,
            start,
            total: burn_in + rounds,
            seed: member.seed_or_default(),
            hotpath: member.hotpath.unwrap_or_default(),
        })
    }

    /// The active vertex of every round (`None` for synchronous
    /// rounds).
    fn active_vertices(&self) -> Vec<Option<VertexId>> {
        let mrf = &self.mrf;
        dispatch_rule!(self.algorithm, self.scheduler, mrf, |rule| {
            (0..self.total as u64)
                .map(|r| rule.active_vertex(&RoundCtx::new(mrf, self.seed, r)))
                .collect()
        })
    }
}

// ---------------------------------------------------------------------
// Worker side: one shard session on a server connection
// ---------------------------------------------------------------------

/// Drives one shard of a distributed chain on the worker — the server
/// session loop spawns this on `shard-init` and feeds it the
/// connection's subsequent `shard-sync` frames through `feed`.
///
/// The layout is re-derived from the spec line ([`ShardLayout`]), so
/// coordinator and worker agree on the exchange plan without shipping
/// it. Protocol violations answer with an `error` frame; a dropped
/// coordinator (closed feed) just ends the session silently.
pub(crate) fn run_shard(
    send: impl Fn(&ServerFrame),
    id: u64,
    shard: u32,
    of: u32,
    spec: &str,
    feed: &Receiver<(u64, StateBlob)>,
) {
    let served = spec
        .parse::<JobSpec>()
        .map_err(|e| format!("shard spec rejected: {e}"))
        .and_then(|member| ShardLayout::derive(&member).map_err(|e| e.to_string()))
        .and_then(|layout| {
            let k = layout.partition.num_shards();
            if of as usize != k {
                return Err(format!(
                    "shard-init of={of} disagrees with the spec's {k} shards"
                ));
            }
            if shard as usize >= k {
                return Err(format!("shard {shard} out of range for {k} shards"));
            }
            let mrf = &layout.mrf;
            dispatch_rule!(layout.algorithm, layout.scheduler, mrf, |rule| {
                serve_shard(&send, id, &rule, &layout, shard as usize, feed)
            })
        });
    if let Err(message) = served {
        send(&ServerFrame::Error {
            id: Some(id),
            message,
        });
    }
}

/// The worker's half of the cross-process exchange: each round, advance
/// the shard ([`ShardCore::advance`], the in-process chain's round
/// body), publish its frontier, and block on the coordinator's halo.
/// Returns the protocol violation to report, if any.
fn serve_shard<R: SyncRule>(
    send: &impl Fn(&ServerFrame),
    id: u64,
    rule: &R,
    layout: &ShardLayout,
    s: usize,
    feed: &Receiver<(u64, StateBlob)>,
) -> Result<(), String> {
    let mrf = &layout.mrf;
    let q = mrf.q();
    let plan = layout.exchange.plan();
    let mut core = ShardCore::build(
        mrf,
        rule,
        &layout.partition,
        plan,
        s,
        &layout.start,
        layout.hotpath,
    );
    let mut frontier = vec![0; plan.boundary_out[s].len()];
    for r in 0..layout.total as u64 {
        let ctx = RoundCtx::new(mrf, layout.seed, r);
        core.advance(rule, &ctx, rule.active_vertex(&ctx));
        core.publish(&mut frontier);
        send(&ServerFrame::ShardSync {
            id,
            round: r,
            blob: StateBlob::pack(&frontier, q),
        });
        // Coordinator gone (connection closed): end quietly.
        let Ok((round, halo)) = feed.recv() else {
            return Ok(());
        };
        if round != r {
            return Err(format!(
                "shard-sync for round {round} arrived during round {r}"
            ));
        }
        let halo = halo.unpack();
        if halo.len() != plan.halos[s].len() {
            return Err(format!(
                "halo of {} spins, expected {}",
                halo.len(),
                plan.halos[s].len()
            ));
        }
        core.set_halo(&halo);
    }
    send(&ServerFrame::ShardDone {
        id,
        rounds: layout.total as u64,
        blob: StateBlob::pack(&core.owned_spins(), q),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::within;

    const WATCHDOG: Duration = Duration::from_secs(20);

    #[test]
    fn idle_threads_leave_when_the_last_member_resolves() {
        within(WATCHDOG, || {
            let queue = PlainQueue::new(VecDeque::from([0]));
            assert_eq!(queue.claim(), Some(0));
            std::thread::scope(|scope| {
                let idle: Vec<_> = (0..3).map(|_| scope.spawn(|| queue.claim())).collect();
                // Let the idle threads reach the wait.
                std::thread::sleep(Duration::from_millis(50));
                queue.resolve();
                for thread in idle {
                    assert_eq!(thread.join().unwrap(), None);
                }
            });
        });
    }

    #[test]
    fn a_requeued_member_wakes_a_waiting_thread() {
        within(WATCHDOG, || {
            let queue = PlainQueue::new(VecDeque::from([7]));
            assert_eq!(queue.claim(), Some(7));
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| {
                    let claimed = queue.claim();
                    queue.resolve();
                    claimed
                });
                std::thread::sleep(Duration::from_millis(50));
                queue.requeue(7);
                assert_eq!(waiter.join().unwrap(), Some(7));
            });
            assert_eq!(queue.claim(), None, "the member resolved on the waiter");
        });
    }

    #[test]
    fn shard_layout_carries_the_spec_hotpath() {
        let layout = |line: &str| ShardLayout::derive(&line.parse().unwrap()).unwrap();
        let base = "graph=torus:6x6 model=ising:beta=0.4 backend=cluster:2 job=run:rounds=5";
        assert_eq!(layout(base).hotpath, HotPath::default());
        let scalar = layout(&format!("{base} hotpath=scalar"));
        assert_eq!(scalar.hotpath, HotPath::Scalar);
    }
}
