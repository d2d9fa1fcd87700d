//! What every workload shares: the closed loop, tallies, the timed
//! service submission, replays one layer down, and the metric tables.

use crate::oracle::{self, Answers};
use crate::stats;
use crate::trace::{self, Layer, Trace, LAYERS};
use lsl_core::codec::{self, Codec, StateBlob};
use lsl_core::proto::ServerFrame;
use lsl_core::service::{JobEvent, Service};
use lsl_core::spec::{BuiltModel, GraphSpec, JobKind, JobOutput, JobResult, JobSpec, SpecError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Instant;

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A directory of this run's own inside the checkout, removed at exit.
    pub scratch: PathBuf,
    /// Where a traced run writes its spans, one JSON object per line.
    pub spans_out: PathBuf,
}

/// Setups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// What a workload hands back to the reporter.
#[derive(Default)]
pub struct Outcome {
    /// The checked untraced pass: the end-to-end figures.
    pub tally: Tally,
    /// Lines attempted and failed over every pass of the run.
    pub attempted: u64,
    pub failed: u64,
    /// Set-up times (`setup_s` is their median).
    pub setup_s: Vec<f64>,
    /// `VmHWM` at the end of the untraced pass, before the reference
    /// check runs.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs).
    pub layer: Metrics,
    /// Workload properties later claims depend on, as JSON values.
    pub props: Vec<(String, String)>,
}

impl Outcome {
    /// Counts a checked pass's lines into the run's attempted/failed.
    pub fn count(&mut self, tally: &Tally) {
        self.attempted += tally.lines;
        self.failed += tally.failed;
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// How one submitted line ended, as the caller saw it. Kept compact —
/// a pass holds tens of thousands of lines, and the process's peak RSS
/// is an end-to-end metric — so the answer is held as a digest.
pub struct LineRecord {
    pub session: usize,
    /// Position of the line in its session's stream.
    pub index: usize,
    pub span: (Instant, Instant),
    /// [`oracle::line_digest`] of the members' answers; `None` when the
    /// line hit a transport error or any member did not finish.
    pub digest: Option<u64>,
    /// The whole outcome, for lines a traced run decomposes.
    pub kept: Option<Box<Kept>>,
}

/// A line's whole outcome.
pub struct Kept {
    pub line: String,
    pub members: Vec<Result<JobResult, SpecError>>,
    /// Each member's streamed `(round, state)` deliveries.
    pub states: Vec<Vec<(u64, StateBlob)>>,
    /// The line's replay through an in-process service, run by the same
    /// caller right after the line itself.
    pub replay: Option<ServiceReplay>,
}

/// A line's replay through an in-process service: its member specs,
/// the caller's submit and outcome instants, and each member's events.
pub type ServiceReplay = (Vec<JobSpec>, (Instant, Instant), Vec<Member>);

/// A line's members and their streamed states, or a transport error.
pub type LineOutcome = Result<
    (
        Vec<Result<JobResult, SpecError>>,
        Vec<Vec<(u64, StateBlob)>>,
    ),
    String,
>;

impl LineRecord {
    /// Records a line's outcome, keeping the whole of it when `keep`.
    pub fn new(
        (session, index): (usize, usize),
        line: String,
        span: (Instant, Instant),
        outcome: LineOutcome,
        keep: bool,
    ) -> Self {
        let (digest, kept) = match outcome {
            Ok((members, states)) => {
                let decoded: Vec<_> = states.iter().map(|s| oracle::decode_states(s)).collect();
                let digest = oracle::line_digest(&members, &decoded);
                let kept = keep.then(|| {
                    Box::new(Kept {
                        line,
                        members,
                        states,
                        replay: None,
                    })
                });
                (digest, kept)
            }
            Err(_) => (None, None),
        };
        LineRecord {
            session,
            index,
            span,
            digest,
            kept,
        }
    }

    pub fn latency(&self) -> f64 {
        self.span.1.duration_since(self.span.0).as_secs_f64()
    }
}

/// One timed pass: every line it sent, and the length of the
/// workload's mix cycle (each session sends whole cycles).
#[derive(Default)]
pub struct Pass {
    pub records: Vec<LineRecord>,
    pub cycle: usize,
}

impl Pass {
    pub fn merge(passes: Vec<Pass>) -> Pass {
        let cycle = passes.first().map_or(1, |p| p.cycle);
        let records = passes.into_iter().flat_map(|p| p.records).collect();
        Pass { records, cycle }
    }
}

/// Runs `step(j)` for `j = 0, 1, …` until `seconds` have passed and a
/// whole number of `cycle`-line cycles ran (so every run covers the
/// workload's mix in full); a closed loop, since each step returns only
/// once its line finished.
pub fn closed_loop(seconds: f64, cycle: usize, mut step: impl FnMut(usize)) {
    let start = Instant::now();
    let mut j = 0;
    while start.elapsed().as_secs_f64() < seconds || j % cycle != 0 {
        step(j);
        j += 1;
    }
}

/// Runs `make` `count` times and keeps the last value; `make` reports
/// its own set-up time. Earlier values are dropped before the next
/// set-up starts.
pub fn repeated_setup<T>(count: usize, mut make: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count.max(1) {
        drop(last.take());
        let (value, secs) = make();
        last = Some(value);
        times.push(secs);
    }
    (last.expect("at least one set-up"), times)
}

/// Runs `f`, returning its value and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// Lets a freshly bound server's accept loop reach its idle poll — the
/// state clients meet on a server that is already up — so that set-up
/// time does not depend on whether a connect raced the loop's first
/// accept. Not counted in set-up time.
pub const ACCEPT_IDLE: std::time::Duration = std::time::Duration::from_millis(2);

/// Hits over lookups (0 without lookups).
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub fn graph_n(g: &GraphSpec) -> usize {
    match *g {
        GraphSpec::Path { n }
        | GraphSpec::Cycle { n }
        | GraphSpec::Complete { n }
        | GraphSpec::Gnp { n, .. }
        | GraphSpec::RandomRegular { n, .. }
        | GraphSpec::RandomTree { n } => n,
        GraphSpec::Star { n } => n + 1,
        GraphSpec::CompleteBipartite { a, b } => a + b,
        GraphSpec::Grid { rows, cols } | GraphSpec::Torus { rows, cols } => rows * cols,
        GraphSpec::Hypercube { dim } => 1 << dim,
        GraphSpec::Book { pages } => pages + 2,
        GraphSpec::Caterpillar { spine, legs } => spine * (legs + 1),
    }
}

/// Vertex-steps a finished member did: n × rounds × replicas. For a
/// coalescence job the rounds are its mean coalescence round.
pub fn vertex_steps(spec: &JobSpec, out: &JobOutput) -> f64 {
    let n = graph_n(&spec.graph) as f64;
    match *out {
        JobOutput::Run { rounds, .. } | JobOutput::Stream { rounds, .. } => n * rounds as f64,
        JobOutput::Sample { rounds, .. } => match spec.job_or_default() {
            JobKind::Sample { count, .. } => n * rounds as f64 * count as f64,
            _ => 0.0,
        },
        JobOutput::Tv {
            rounds, replicas, ..
        } => n * (rounds * replicas) as f64,
        JobOutput::Distribution { replicas, .. } => match spec.job_or_default() {
            JobKind::Distribution { rounds, .. } => n * rounds as f64 * replicas as f64,
            _ => 0.0,
        },
        JobOutput::Coalescence {
            trials,
            mean_rounds,
            ..
        } => n * trials as f64 * mean_rounds,
    }
}

/// Full configurations a member delivered to its caller: its stream
/// deliveries, or a sample's states.
pub fn states_delivered(out: &JobOutput, streamed: usize) -> usize {
    match out {
        JobOutput::Sample { states, .. } => states.len(),
        _ => streamed,
    }
}

/// End-to-end figures of a pass, after the reference check.
///
/// Rates are taken per mix cycle — a session's consecutive `cycle`
/// lines, which hold the workload's mix in full — as completed work
/// over the cycle's wall clock; the reported rate is the median over a
/// session's cycles, summed over sessions. A transient stall on a
/// shared host then moves one cycle, not the figure.
#[derive(Default)]
pub struct Tally {
    pub latencies: Vec<f64>,
    pub lines: u64,
    pub failed: u64,
    pub jobs_per_s: f64,
    pub vertex_steps_per_s: f64,
    pub states_per_s: f64,
}

/// Work one checked line completed: (jobs, vertex-steps, states).
type Work = [f64; 3];

/// Median-of-cycle rates, summed over sessions.
fn cycle_rates(pass: &Pass, work: &[Work]) -> Work {
    let mut sessions: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, r) in pass.records.iter().enumerate() {
        sessions.entry(r.session).or_default().push(i);
    }
    let mut total = [0.0; 3];
    for lines in sessions.values_mut() {
        lines.sort_by_key(|&i| pass.records[i].index);
        let mut rates: [Vec<f64>; 3] = Default::default();
        for chunk in lines.chunks_exact(pass.cycle.max(1)) {
            let first = &pass.records[chunk[0]];
            let last = &pass.records[chunk[chunk.len() - 1]];
            let secs = last.span.1.duration_since(first.span.0).as_secs_f64();
            for k in 0..3 {
                let done: f64 = chunk.iter().map(|&i| work[i][k]).sum();
                rates[k].push(done / secs.max(1e-9));
            }
        }
        for k in 0..3 {
            total[k] += stats::median_of(&rates[k]);
        }
    }
    total
}

/// The reference spec a delivered member is checked against: the
/// member itself, except where a workload maps it (cluster lines are
/// checked against in-process `sharded:k`).
pub type RefMap<'a> = &'a dyn Fn(&JobSpec) -> JobSpec;

/// The generator of a workload's lines: `(session, index) -> line`.
pub type LineOf<'a> = &'a dyn Fn(usize, usize) -> String;

/// Checks every line of `pass` against in-process answers and tallies
/// it. A line fails when it did not resolve, when any member ended
/// other than Finished, or when any member's answer differs from its
/// reference. Equal digests mean equal answers, so a checked line's
/// work is read off its reference.
pub fn check(pass: &Pass, reference: RefMap<'_>, line_of: LineOf<'_>) -> Tally {
    let expanded: Vec<Vec<JobSpec>> = pass
        .records
        .iter()
        .map(|r| {
            line_of(r.session, r.index)
                .parse::<lsl_core::spec::SweepSpec>()
                .map(|s| s.expand())
                .unwrap_or_default()
        })
        .collect();
    let answers: Answers = oracle::answers(expanded.iter().flatten().map(reference));
    let mut tally = Tally::default();
    let mut work: Vec<Work> = vec![[0.0; 3]; pass.records.len()];
    for ((record, specs), done) in pass.records.iter().zip(&expanded).zip(&mut work) {
        tally.lines += 1;
        tally.latencies.push(record.latency());
        let want = oracle::expected_digest(&answers, specs, reference);
        if specs.is_empty() || record.digest.is_none() || record.digest != want {
            tally.failed += 1;
            continue;
        }
        for spec in specs {
            if let Some(Ok((result, streamed))) = answers.get(&reference(spec).to_string()) {
                done[0] += 1.0;
                done[1] += vertex_steps(spec, &result.output);
                done[2] += states_delivered(&result.output, streamed.len()) as f64;
            }
        }
    }
    [
        tally.jobs_per_s,
        tally.vertex_steps_per_s,
        tally.states_per_s,
    ] = cycle_rates(pass, &work);
    tally
}

/// The identity reference map.
pub fn same_spec(spec: &JobSpec) -> JobSpec {
    spec.clone()
}

// ---------------------------------------------------------------------
// The in-process service, observed through its event stream
// ---------------------------------------------------------------------

/// One member's life in a [`Service`], stamped when each event was
/// emitted.
pub struct Member {
    pub accepted: Instant,
    pub started: Option<Instant>,
    pub ended: Instant,
    pub outcome: Result<JobResult, SpecError>,
    pub states: Vec<(u64, StateBlob)>,
}

/// Submits `members` and waits for every one, recording event times.
pub fn submit_timed(service: &Service, members: &[JobSpec]) -> Vec<Member> {
    let (tx, rx) = mpsc::channel::<(usize, JobEvent, Instant)>();
    for (i, spec) in members.iter().enumerate() {
        let tx = tx.clone();
        // Dropping the token is harmless: it never abandons the job.
        let _ = service.submit_routed(spec.clone(), move |event| {
            let _ = tx.send((i, event, Instant::now()));
        });
    }
    drop(tx);
    let now = Instant::now();
    let mut out: Vec<Member> = (0..members.len())
        .map(|_| Member {
            accepted: now,
            started: None,
            ended: now,
            outcome: Err(SpecError::ServiceStopped),
            states: Vec::new(),
        })
        .collect();
    let mut open = members.len();
    while open > 0 {
        let Ok((i, event, at)) = rx.recv() else { break };
        let m = &mut out[i];
        let terminal = event.is_terminal();
        match event {
            JobEvent::Accepted => m.accepted = at,
            JobEvent::Started => m.started = Some(at),
            JobEvent::State { round, blob } => m.states.push((round, blob)),
            JobEvent::Finished(result) => m.outcome = Ok(result),
            JobEvent::Failed(e) => m.outcome = Err(e),
            JobEvent::Rejected { reason } => m.outcome = Err(SpecError::Rejected(reason)),
            JobEvent::Cancelled => m.outcome = Err(SpecError::Cancelled),
            JobEvent::Progress { .. } => {}
        }
        if terminal {
            m.ended = at;
            open -= 1;
        }
    }
    out
}

/// Records a service submission: the line span, and under it each
/// member's queue wait (a service span) and run window (an envelope).
/// Returns the line span and the run windows.
pub fn record_service(
    trace: &mut Trace,
    parent: Option<usize>,
    line: usize,
    span: (Instant, Instant),
    members: &[Member],
) -> (usize, Vec<usize>) {
    let root = trace.real("service.line", Some(Layer::Service), parent, line, span);
    let windows = members
        .iter()
        .map(|m| {
            let started = m.started.unwrap_or(m.ended);
            trace.real(
                "service.queue",
                Some(Layer::Service),
                Some(root),
                line,
                (m.accepted, started),
            );
            trace.real("job", None, Some(root), line, (started, m.ended))
        })
        .collect();
    (root, windows)
}

// ---------------------------------------------------------------------
// Replays one layer down
// ---------------------------------------------------------------------

/// Built models for replays, mirroring the service's LRU model cache
/// (same capacity), so a replay builds a model where the service did.
pub struct Models {
    cap: usize,
    map: HashMap<String, BuiltModel>,
    order: VecDeque<String>,
}

impl Models {
    pub fn new() -> Self {
        Models {
            cap: 32,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The model for `spec`; a miss is replayed as `spec.build_model`.
    pub fn get(
        &mut self,
        spec: &JobSpec,
        trace: &mut Trace,
        parent: usize,
        line: usize,
    ) -> BuiltModel {
        let key = spec.model_key();
        if let Some(model) = self.map.get(&key) {
            let model = model.clone();
            if let Some(pos) = self.order.iter().position(|k| *k == key) {
                let k = self.order.remove(pos).expect("position is in range");
                self.order.push_back(k);
            }
            return model;
        }
        let model = trace.replay("spec.build_model", Layer::Spec, parent, line, || {
            spec.build_model()
        });
        self.map.insert(key.clone(), model.clone());
        self.order.push_back(key);
        while self.map.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        model
    }
}

fn domain(model: &BuiltModel) -> usize {
    match model {
        BuiltModel::Mrf(mrf) => mrf.q(),
        BuiltModel::Csp { csp, .. } => csp.q(),
    }
}

/// What a member replay measured.
#[derive(Default)]
pub struct MemberReplay {
    pub build_s: f64,
    pub run_s: f64,
    pub comm: Option<lsl_core::spec::CommSummary>,
}

/// Replays a member's work under its run window: the sampler build and
/// the round loop for `run` and `stream` jobs (with each streamed state
/// packed, as the job does), the whole job body for the other kinds.
pub fn replay_member(
    trace: &mut Trace,
    window: usize,
    line: usize,
    spec: &JobSpec,
    model: &BuiltModel,
) -> MemberReplay {
    let mut out = MemberReplay::default();
    let (rounds, every) = match spec.job_or_default() {
        JobKind::Run { rounds } => (rounds, rounds.max(1)),
        JobKind::Stream { rounds, every } => (rounds, every),
        _ => {
            let t = Instant::now();
            let _ = std::hint::black_box(spec.run_on(model));
            out.run_s = t.elapsed().as_secs_f64();
            trace.replayed("engine.job", Layer::Engine, window, line, out.run_s);
            return out;
        }
    };
    let streams = matches!(spec.job_or_default(), JobKind::Stream { .. });
    let t = Instant::now();
    let built = spec
        .sampler_builder(model)
        .burn_in(spec.burn_in.unwrap_or(0))
        .build();
    out.build_s = t.elapsed().as_secs_f64();
    trace.replayed("sampler.build", Layer::Sampler, window, line, out.build_s);
    let Ok(mut sampler) = built else { return out };
    let q = domain(model);
    let mut pack_s = 0.0;
    let mut ran = 0;
    while ran < rounds {
        let now = every.min(rounds - ran);
        let t = Instant::now();
        sampler.run(now);
        out.run_s += t.elapsed().as_secs_f64();
        ran += now;
        if streams {
            let t = Instant::now();
            std::hint::black_box(StateBlob::pack(sampler.state(), q));
            pack_s += t.elapsed().as_secs_f64();
        }
    }
    trace.replayed("engine.run", Layer::Engine, window, line, out.run_s);
    if streams {
        trace.replayed("codec.pack", Layer::Codec, window, line, pack_s);
    }
    out.comm = sampler.comm_stats().map(lsl_core::spec::CommSummary::of);
    out
}

/// Per-name samples of per-layer quantities.
#[derive(Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| stats::mean(v))
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| stats::median_of(v))
    }
}

/// Replays the wire work of one received frame in its session's codec
/// — the server's encode and the client's decode — as codec spans
/// under `parent`, sampling per-frame cost and size under
/// `codec.*.<kind>.<codec>`.
pub fn replay_frame(
    trace: &mut Trace,
    parent: usize,
    line: usize,
    frame: &ServerFrame,
    codec: Codec,
    kind: &str,
    samples: &mut Samples,
) {
    let (enc, dec, bytes) = match codec {
        Codec::Text => {
            let t = Instant::now();
            let text = format!("{frame}\n");
            let enc = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let back = text.trim_end().parse::<ServerFrame>();
            let dec = t.elapsed().as_secs_f64();
            debug_assert_eq!(back.as_ref().ok(), Some(frame));
            std::hint::black_box(back.ok());
            (enc, dec, text.len())
        }
        Codec::Binary => {
            let t = Instant::now();
            let bytes = codec::encode_server(frame);
            let enc = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let back = codec::decode_server(&bytes);
            let dec = t.elapsed().as_secs_f64();
            std::hint::black_box(back.ok());
            // The length prefix travels with every binary frame.
            (enc, dec, bytes.len() + 4)
        }
    };
    trace.replayed("codec.encode", Layer::Codec, parent, line, enc);
    trace.replayed("codec.decode", Layer::Codec, parent, line, dec);
    samples.push(format!("codec.encode_s.{kind}.{codec}"), enc);
    samples.push(format!("codec.decode_s.{kind}.{codec}"), dec);
    samples.push(format!("codec.frame_bytes.{kind}.{codec}"), bytes as f64);
}

/// Median seconds to fill one block of 65,536 stream uniforms — the
/// block RNG every LocalMetropolis round draws.
pub fn rng_fill_s() -> f64 {
    let mut buf = vec![0.0f64; 65_536];
    let times: Vec<f64> = (0..64)
        .map(|r| {
            let t = Instant::now();
            lsl_local::rng::fill_stream_uniforms(0x5eed, r, &mut buf);
            std::hint::black_box(&buf);
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median_of(&times)
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------

/// The end-to-end metrics, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("vertex_steps_per_s", "steps/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("latency_p99_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by traced runs. A metric a workload
/// does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.parse_s", "s"),
    ("spec.build_model_s", "s"),
    ("spec.build_model_count", "count"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.cache_hit_rate", "ratio"),
    ("service.cache_evictions", "count"),
    ("store.hit_rate", "ratio"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("sampler.build_s", "s"),
    ("engine.round_s.ising-seq", "s"),
    ("engine.round_s.ising-par2", "s"),
    ("engine.round_s.ising-sh2", "s"),
    ("engine.round_s.coloring16-seq", "s"),
    ("engine.round_s.hardcore-lg-seq", "s"),
    ("engine.speedup.par2", "ratio"),
    ("engine.speedup.sh2", "ratio"),
    ("engine.rng_fill_s", "s"),
    ("engine.comm.messages_per_round", "count"),
    ("engine.comm.bytes_per_round", "B"),
    ("engine.comm.changed_per_round", "count"),
    ("codec.encode_s.result.text", "s"),
    ("codec.encode_s.result.binary", "s"),
    ("codec.encode_s.state.text", "s"),
    ("codec.encode_s.state.binary", "s"),
    ("codec.decode_s.result.text", "s"),
    ("codec.decode_s.result.binary", "s"),
    ("codec.decode_s.state.text", "s"),
    ("codec.decode_s.state.binary", "s"),
    ("codec.frame_bytes.result.text", "B"),
    ("codec.frame_bytes.result.binary", "B"),
    ("codec.frame_bytes.state.text", "B"),
    ("codec.frame_bytes.state.binary", "B"),
    ("codec.pack_s", "s"),
    ("codec.unpack_s", "s"),
    ("net.ping_rtt_s", "s"),
    ("net.overhead_s.text", "s"),
    ("net.overhead_s.binary", "s"),
    ("cluster.connect_s", "s"),
    ("cluster.round_s", "s"),
    ("cluster.overhead_ratio", "ratio"),
    ("cluster.member_s", "s"),
    ("cluster.events", "count"),
    ("self_s.spec", "s"),
    ("self_s.service", "s"),
    ("self_s.store", "s"),
    ("self_s.sampler", "s"),
    ("self_s.engine", "s"),
    ("self_s.codec", "s"),
    ("self_s.net", "s"),
    ("self_s.cluster", "s"),
    ("share.spec", "ratio"),
    ("share.service", "ratio"),
    ("share.store", "ratio"),
    ("share.sampler", "ratio"),
    ("share.engine", "ratio"),
    ("share.codec", "ratio"),
    ("share.net", "ratio"),
    ("share.cluster", "ratio"),
    ("trace.unexplained_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.lines", "count"),
    ("mix.repeat_share", "ratio"),
    ("chain.share.ising-seq", "ratio"),
    ("chain.share.ising-par2", "ratio"),
    ("chain.share.ising-sh2", "ratio"),
    ("chain.share.coloring16-seq", "ratio"),
    ("chain.share.hardcore-lg-seq", "ratio"),
    ("states_per_s", "states/s"),
    ("failed_frac", "ratio"),
];

/// Fills the trace-accounting metrics: self time and share per layer,
/// the unexplained fraction, and the overhead of tracing on jobs/s.
pub fn trace_metrics(
    cfg: &Config,
    traces: &[Trace],
    untraced_jobs_per_s: f64,
    traced_jobs_per_s: f64,
    layer: &mut Metrics,
) {
    if let Err(e) = write_spans(traces, &cfg.spans_out) {
        eprintln!(
            "perfbench: spans not written to {}: {e}",
            cfg.spans_out.display()
        );
    }
    let acc = trace::account(traces);
    for (i, l) in LAYERS.iter().enumerate() {
        layer.insert(format!("self_s.{}", l.name()), acc.self_s[i]);
        layer.insert(format!("share.{}", l.name()), acc.share(i));
    }
    layer.insert("trace.unexplained_frac".into(), acc.unexplained_frac());
    let overhead = if untraced_jobs_per_s > 0.0 {
        1.0 - traced_jobs_per_s / untraced_jobs_per_s
    } else {
        0.0
    };
    layer.insert("trace.overhead_frac".into(), overhead);
    let lines: usize = traces
        .iter()
        .map(|t| {
            let mut ids: Vec<usize> = t.spans.iter().map(|s| s.line).collect();
            ids.dedup();
            ids.len()
        })
        .sum();
    layer.insert("trace.lines".into(), lines as f64);
    for name in [
        "spec.parse",
        "spec.build_model",
        "store.get",
        "store.put",
        "sampler.build",
    ] {
        let d: Vec<f64> = traces.iter().flat_map(|t| t.durations(name)).collect();
        layer.insert(format!("{name}_s"), stats::mean(&d));
        if name == "spec.build_model" {
            layer.insert("spec.build_model_count".into(), d.len() as f64);
        }
    }
}

fn write_spans(traces: &[Trace], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in traces {
        t.write_jsonl(&mut w)?;
    }
    std::io::Write::flush(&mut w)
}

/// Copies every sampled `codec.*` mean into `layer`.
pub fn codec_metrics(samples: &Samples, layer: &mut Metrics) {
    for (name, values) in &samples.0 {
        if name.starts_with("codec.") || name.starts_with("net.") {
            layer.insert(name.clone(), stats::mean(values));
        }
    }
}
