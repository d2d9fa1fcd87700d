//! cluster-shard: two loopback workers (one service thread each) and
//! one `Coordinator` caller. `backend=cluster:2` lines run as
//! cross-process shards — the per-round `shard-sync` relay and barrier
//! and the replayed `CommSummary` accounting do the work — and a plain
//! `seeds=` sweep fans small members over the fleet. No other workload
//! reaches `cluster`. Lines go through `Coordinator::run_sweep`, since
//! `JobSpec::run` on a `cluster:k` line falls back to in-process
//! sharded; that fallback is what the answers are checked against.

use crate::gen::{self, CLUSTER_ROUNDS};
use crate::netpath;
use crate::run::{
    self, check, closed_loop, record_service, repeated_setup, replay_frame, submit_timed, Config,
    LineRecord, Models, Outcome, Pass, Samples, SETUPS,
};
use crate::trace::{Layer, Trace};
use lsl_core::cluster::Coordinator;
use lsl_core::codec::Codec;
use lsl_core::engine::Backend;
use lsl_core::lifecycle::Limits;
use lsl_core::net::Server;
use lsl_core::proto::ServerFrame;
use lsl_core::service::{JobEvent, Service};
use lsl_core::spec::{JobSpec, SweepSpec};
use std::time::Instant;

/// Worker processes in the fleet, each a one-thread service.
const WORKERS: usize = 2;

/// The coordinator is declared first so it goes before the workers.
struct Fleet {
    coord: Coordinator,
    _servers: Vec<Server>,
    connect_s: f64,
}

/// Binds the workers and connects the coordinator; returns the fleet
/// and its set-up time (the untimed accept-idle pause excluded).
fn fleet() -> (Fleet, f64) {
    let (servers, bind_s) = run::timed(|| {
        (0..WORKERS)
            .map(|_| {
                Server::bind_service("127.0.0.1:0", Service::with_limits(1, Limits::default()))
                    .expect("binding a loopback worker")
            })
            .collect::<Vec<Server>>()
    });
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    std::thread::sleep(run::ACCEPT_IDLE);
    let (coord, connect_s) =
        run::timed(|| Coordinator::connect(addrs).expect("connecting the coordinator"));
    let fleet = Fleet {
        coord,
        _servers: servers,
        connect_s,
    };
    (fleet, bind_s + connect_s)
}

/// Cluster members are checked against the in-process sharded run with
/// the same shard count.
fn reference(spec: &JobSpec) -> JobSpec {
    let mut spec = spec.clone();
    if let Some(Backend::Cluster { shards }) = spec.backend {
        spec.backend = Some(Backend::Sharded { shards });
    }
    spec
}

fn pass(coord: &Coordinator, seed: u64, seconds: f64, keep: bool) -> (Pass, usize) {
    let mut records = Vec::new();
    let mut events = 0;
    closed_loop(seconds, gen::CLUSTER_CYCLE, |j| {
        let line = gen::cluster_shard_line(seed, j);
        let t0 = Instant::now();
        let members = match coord.run_sweep(&line) {
            Ok(run) => {
                events += run.events.len();
                Ok(run.result.results.into_iter().map(Ok).collect())
            }
            Err(e) => Err(e.to_string()),
        };
        let span = (t0, Instant::now());
        let outcome = members.map(|m| (m, Vec::new()));
        records.push(LineRecord::new((0, j), line, span, outcome, keep));
    });
    (
        Pass {
            records,
            cycle: gen::CLUSTER_CYCLE,
        },
        events,
    )
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let line_of = |_, j| gen::cluster_shard_line(cfg.seed, j);
    let share = cfg.seconds / if cfg.trace { 3.0 } else { 1.0 };
    let (env, setup_s) = repeated_setup(if cfg.trace { 1 } else { SETUPS }, fleet);
    let (untraced, events) = pass(&env.coord, cfg.seed, share, false);
    out.peak_rss_mb = run::peak_rss_mb();
    drop(env);
    let tally = check(&untraced, &reference, &line_of);
    out.count(&tally);
    out.props = vec![("fleet_events".into(), events.to_string())];
    out.tally = tally;
    out.setup_s = setup_s;
    if !cfg.trace {
        return out;
    }

    let mut connects = Vec::new();
    let (env, _) = repeated_setup(3, || {
        let (f, secs) = fleet();
        connects.push(f.connect_s);
        (f, secs)
    });
    let connect_s = crate::stats::median_of(&connects);
    let (traced, traced_events) = pass(&env.coord, cfg.seed, share, true);
    drop(env);

    let replay = netpath::service_like(WORKERS, None);
    let mut models = Models::new();
    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let mut samples = Samples::default();
    for (id, record) in traced.records.iter().enumerate() {
        if origin.elapsed().as_secs_f64() > cfg.seconds / 2.0 {
            break;
        }
        let Some(kept) = &record.kept else {
            continue;
        };
        let members = &kept.members;
        let root = trace.real("cluster.line", Some(Layer::Cluster), None, id, record.span);
        let Ok(specs) = trace.replay("spec.parse", Layer::Spec, root, id, || {
            kept.line.parse::<SweepSpec>().map(|s| s.expand())
        }) else {
            continue;
        };
        let distributed = matches!(specs[0].backend, Some(Backend::Cluster { .. }));
        if distributed {
            let local = reference(&specs[0]);
            let model = models.get(&local, &mut trace, root, id);
            let r = run::replay_member(&mut trace, root, id, &local, &model);
            let wall = record.latency();
            samples.push("cluster.round_s", wall / CLUSTER_ROUNDS as f64);
            samples.push(
                "cluster.overhead_ratio",
                wall / (r.build_s + r.run_s).max(1e-12),
            );
            if let Ok(result) = &members[0] {
                if let lsl_core::spec::JobOutput::Run {
                    rounds,
                    comm: Some(c),
                    ..
                } = &result.output
                {
                    let r = (*rounds).max(1) as f64;
                    samples.push(
                        "engine.comm.messages_per_round",
                        c.total_messages as f64 / r,
                    );
                    samples.push("engine.comm.bytes_per_round", c.total_bytes as f64 / r);
                    samples.push("engine.comm.changed_per_round", c.total_changed as f64 / r);
                }
            }
            continue;
        }
        samples.push("cluster.member_s", record.latency() / specs.len() as f64);
        for (index, member) in members.iter().enumerate() {
            if let Ok(result) = member {
                let frame = ServerFrame::Event {
                    id: 0,
                    index: index as u64,
                    event: JobEvent::Finished(result.clone()),
                };
                replay_frame(
                    &mut trace,
                    root,
                    id,
                    &frame,
                    Codec::Binary,
                    "result",
                    &mut samples,
                );
            }
        }
        let t0 = Instant::now();
        let replayed = submit_timed(&replay, &specs);
        let t1 = Instant::now();
        let (_, windows) = record_service(&mut trace, Some(root), id, (t0, t1), &replayed);
        for ((spec, member), window) in specs.iter().zip(&replayed).zip(windows) {
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
            netpath::replay_job(&mut trace, id, window, spec, member, None, &mut models);
        }
    }
    drop(replay);

    let traced_tally = check(&traced, &reference, &line_of);
    out.count(&traced_tally);
    let layer = &mut out.layer;
    run::trace_metrics(
        cfg,
        std::slice::from_ref(&trace),
        out.tally.jobs_per_s,
        traced_tally.jobs_per_s,
        layer,
    );
    run::codec_metrics(&samples, layer);
    for name in [
        "service.queue_wait_s",
        "service.run_s",
        "engine.comm.messages_per_round",
        "engine.comm.bytes_per_round",
        "engine.comm.changed_per_round",
        "cluster.round_s",
        "cluster.overhead_ratio",
        "cluster.member_s",
    ] {
        layer.insert(name.into(), samples.mean(name));
    }
    layer.insert("cluster.connect_s".into(), connect_s);
    layer.insert("cluster.events".into(), (events + traced_events) as f64);
    layer.insert("engine.rng_fill_s".into(), run::rng_fill_s());
    out
}
