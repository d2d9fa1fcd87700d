//! The loopback path shared by serve-mix and state-stream: an
//! in-process `Server`, one closed-loop caller per client session, and
//! the traced decomposition of each line one layer down.

use crate::run::{
    self, closed_loop, record_service, replay_frame, replay_member, submit_timed, LineRecord,
    Models, Pass, Samples, ServiceReplay,
};
use crate::trace::{Layer, Trace};
use lsl_core::codec::{Codec, StateBlob};
use lsl_core::lifecycle::Limits;
use lsl_core::net::{Client, Server};
use lsl_core::proto::ServerFrame;
use lsl_core::service::{JobEvent, Service};
use lsl_core::spec::{JobSpec, SweepSpec};
use lsl_core::store::ResultStore;
use std::path::Path;
use std::time::{Duration, Instant};

/// Session codecs: one text and one binary client.
pub const CODECS: [Codec; 2] = [Codec::Text, Codec::Binary];

/// A loopback server with one client session per codec. Clients are
/// declared first so they close before the server drains.
pub struct Loopback {
    pub clients: Vec<Client>,
    pub server: Server,
}

/// Builds a service, binds a server over it on an ephemeral loopback
/// port and connects one session per codec (the binary one
/// negotiates). Returns the loopback and its set-up time, the untimed
/// accept-idle pause excluded.
pub fn bind(service: impl FnOnce() -> Service) -> (Loopback, f64) {
    let (server, bind_s) = run::timed(|| {
        Server::bind_service("127.0.0.1:0", service()).expect("binding a loopback port")
    });
    let addr = server.local_addr();
    std::thread::sleep(run::ACCEPT_IDLE);
    let (clients, connect_s) = run::timed(|| {
        CODECS
            .iter()
            .map(|&c| Client::connect_with(addr, c).expect("connecting to the loopback server"))
            .collect()
    });
    (Loopback { clients, server }, bind_s + connect_s)
}

/// Entries a result store keeps. The store lists its directory on every
/// put, so an unbounded store makes a run slow down as it goes; the cap
/// keeps the run stationary while holding every line a repeat can reach.
pub const STORE_CAP: usize = 64;

/// A fresh result store under `dir` (any earlier content removed).
pub fn fresh_store(dir: &Path) -> ResultStore {
    let _ = std::fs::remove_dir_all(dir);
    ResultStore::with_capacity(dir, STORE_CAP)
        .expect("opening a result store in the scratch directory")
}

/// Lines kept whole for the traced decomposition, per session.
pub const KEEP: usize = 400;

/// One timed pass: every session runs its own closed loop over
/// `line(session, j)` until `seconds` pass. A traced pass (`replay`
/// given) keeps its first [`KEEP`] lines per session whole and has the
/// same caller replay each of them through the in-process `replay`
/// service right after the line itself, so the loopback and in-process
/// latencies of a line are taken moments apart on a host whose speed
/// drifts.
pub fn pass(
    clients: &mut [Client],
    seconds: f64,
    cycle: usize,
    replay: Option<&Service>,
    line: impl Fn(usize, usize) -> String + Sync,
) -> Pass {
    let passes: Vec<Pass> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(session, client)| {
                let line = &line;
                scope.spawn(move || session_pass(client, session, seconds, cycle, replay, line))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a session caller panicked"))
            .collect()
    });
    Pass::merge(passes)
}

fn session_pass(
    client: &mut Client,
    session: usize,
    seconds: f64,
    cycle: usize,
    replay: Option<&Service>,
    line: &(impl Fn(usize, usize) -> String + Sync),
) -> Pass {
    let mut records = Vec::new();
    closed_loop(seconds, cycle, |j| {
        let text = line(session, j);
        let t0 = Instant::now();
        let outcome = client
            .submit(&text)
            .map_err(|e| e.to_string())
            .and_then(|_| client.drain().map_err(|e| e.to_string()));
        let t1 = Instant::now();
        let outcome = outcome.and_then(|mut outcomes| {
            let o = outcomes.pop().ok_or("no outcome")?;
            Ok((o.members, o.states))
        });
        let keep = replay.filter(|_| j < KEEP);
        let mut record = LineRecord::new((session, j), text, (t0, t1), outcome, keep.is_some());
        if let (Some(service), Some(kept)) = (keep, record.kept.as_mut()) {
            if let Ok(sweep) = kept.line.parse::<SweepSpec>() {
                let specs = sweep.expand();
                let t0 = Instant::now();
                let members = submit_timed(service, &specs);
                kept.replay = Some((specs, (t0, Instant::now()), members));
            }
        }
        records.push(record);
    });
    Pass { records, cycle }
}

/// Median ping round trip over every session.
pub fn ping_rtt(clients: &mut [Client]) -> f64 {
    let mut rtts = Vec::new();
    for client in clients {
        for _ in 0..20 {
            let t = Instant::now();
            if client.ping(Duration::from_secs(5)).is_ok() {
                rtts.push(t.elapsed().as_secs_f64());
            }
        }
    }
    crate::stats::median_of(&rtts)
}

/// Decomposes the kept lines of a traced pass on one thread, until
/// `budget` seconds pass: each line's net span gets as replay children
/// its parse, the wire work of every frame it received, and its
/// in-process service replay, whose run windows get the member replays
/// (and store work, when `store` mirrors the server's store). One
/// thread keeps direct replays from contending with each other.
pub fn decompose(pass: &Pass, store: Option<&ResultStore>, budget: f64) -> (Vec<Trace>, Samples) {
    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let mut samples = Samples::default();
    let mut models = Models::new();
    let mut order: Vec<usize> = (0..pass.records.len()).collect();
    order.sort_by_key(|&id| pass.records[id].span.1);
    for id in order {
        if origin.elapsed().as_secs_f64() > budget {
            break;
        }
        let record = &pass.records[id];
        if let Some(replay) = record.kept.as_ref().and_then(|k| k.replay.as_ref()) {
            decompose_line(
                &mut trace,
                &mut samples,
                id,
                record,
                replay,
                store,
                &mut models,
            );
        }
    }
    (vec![trace], samples)
}

fn decompose_line(
    trace: &mut Trace,
    samples: &mut Samples,
    id: usize,
    record: &LineRecord,
    (specs, span, replayed): &ServiceReplay,
    store: Option<&ResultStore>,
    models: &mut Models,
) {
    let Some(kept) = &record.kept else { return };
    let codec = CODECS[record.session];
    let root = trace.real("net.line", Some(Layer::Net), None, id, record.span);
    let _ = trace.replay("spec.parse", Layer::Spec, root, id, || {
        std::hint::black_box(kept.line.parse::<SweepSpec>().map(|s| s.expand()))
    });
    for (index, member) in kept.members.iter().enumerate() {
        for (round, blob) in kept.states.get(index).into_iter().flatten() {
            let frame = ServerFrame::Event {
                id: record.index as u64,
                index: index as u64,
                event: JobEvent::State {
                    round: *round,
                    blob: blob.clone(),
                },
            };
            replay_frame(trace, root, id, &frame, codec, "state", samples);
            probe_blob(blob, samples);
        }
        if let Ok(result) = member {
            if let lsl_core::spec::JobOutput::Sample { states, .. } = &result.output {
                for blob in states {
                    probe_blob(blob, samples);
                }
            }
            let frame = ServerFrame::Event {
                id: record.index as u64,
                index: index as u64,
                event: JobEvent::Finished(result.clone()),
            };
            replay_frame(trace, root, id, &frame, codec, "result", samples);
        }
    }
    let in_process = span.1.duration_since(span.0).as_secs_f64();
    samples.push(
        format!("net.overhead_s.{codec}"),
        record.latency() - in_process,
    );
    let (_, windows) = record_service(trace, Some(root), id, *span, replayed);
    for ((spec, member), window) in specs.iter().zip(replayed).zip(windows) {
        samples.push(
            "service.queue_wait_s",
            member
                .started
                .unwrap_or(member.ended)
                .duration_since(member.accepted)
                .as_secs_f64(),
        );
        if let Some(started) = member.started {
            samples.push(
                "service.run_s",
                member.ended.duration_since(started).as_secs_f64(),
            );
        }
        replay_job(trace, id, window, spec, member, store, models);
    }
}

/// Replays one member's service-side work under its run window.
pub fn replay_job(
    trace: &mut Trace,
    id: usize,
    window: usize,
    spec: &JobSpec,
    member: &run::Member,
    store: Option<&ResultStore>,
    models: &mut Models,
) {
    let canonical = spec.to_string();
    if let Some(store) = store {
        let hit = trace.replay("store.get", Layer::Store, window, id, || {
            store.get(&canonical)
        });
        if hit.is_some() {
            return;
        }
    }
    let model = models.get(spec, trace, window, id);
    replay_member(trace, window, id, spec, &model);
    if let (Some(store), Ok(result)) = (store, &member.outcome) {
        trace.replay("store.put", Layer::Store, window, id, || {
            let _ = store.put(result);
        });
    }
}

/// Times unpacking a delivered state and packing it again.
fn probe_blob(blob: &StateBlob, samples: &mut Samples) {
    let t = Instant::now();
    let spins = blob.unpack();
    samples.push("codec.unpack_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    std::hint::black_box(StateBlob::pack(&spins, blob.q()));
    samples.push("codec.pack_s", t.elapsed().as_secs_f64());
}

/// A service configured like the loopback server's.
pub fn service_like(threads: usize, store: Option<ResultStore>) -> Service {
    match store {
        Some(store) => Service::with_store(threads, Limits::default(), store),
        None => Service::with_limits(threads, Limits::default()),
    }
}
