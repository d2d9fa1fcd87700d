//! chain-large: one caller, one in-process `Service` worker, five
//! 200-round `run` specs on a 256² torus (65,536 vertices). The round
//! loop does nearly all the work — engine kernels, the block RNG, the
//! parallel fork-join and the sharded exchange — while per-job costs
//! are about a millisecond against 0.1–0.3 s jobs. Kernel, block-RNG
//! and backend changes show here and should show nowhere else.

use crate::gen::{self, CHAIN_ROUNDS, CHAIN_SPECS};
use crate::run::{
    self, check, closed_loop, record_service, repeated_setup, replay_member, same_spec,
    submit_timed, timed, Config, LineRecord, Member, Outcome, Pass, Samples, SETUPS,
};
use crate::trace::{Layer, Trace};
use lsl_core::lifecycle::Limits;
use lsl_core::service::Service;
use lsl_core::spec::{BuiltModel, JobSpec};
use std::collections::HashMap;
use std::time::Instant;

/// Spec indices with distinct models (the others share spec 0's).
const DISTINCT_MODELS: [usize; 3] = [0, 3, 4];

/// A one-worker service with the three models already in its cache.
fn setup() -> Service {
    let service = Service::with_limits(1, Limits::default());
    for k in DISTINCT_MODELS {
        let warm = format!("{} seed=0 job=run:rounds=0", CHAIN_SPECS[k].1);
        service
            .submit(warm.parse().expect("a generated spec parses"))
            .wait()
            .expect("warming the model cache");
    }
    service
}

/// One closed-loop pass. A traced pass submits through the event
/// stream so each job's queue wait and run window are visible.
fn pass(service: &Service, seed: u64, seconds: f64, traced: bool) -> (Pass, Vec<Vec<Member>>) {
    let mut records = Vec::new();
    let mut observed = Vec::new();
    closed_loop(seconds, gen::CHAIN_CYCLE, |j| {
        let (_, line) = gen::chain_large_line(seed, j);
        let t0 = Instant::now();
        let members = match line.parse::<JobSpec>() {
            Ok(spec) if traced => {
                let members = submit_timed(service, &[spec]);
                let outcomes = members.iter().map(|m| m.outcome.clone()).collect();
                observed.push(members);
                Ok(outcomes)
            }
            Ok(spec) => Ok(vec![service.submit(spec).wait()]),
            Err(e) => Err(e.to_string()),
        };
        let span = (t0, Instant::now());
        let outcome = members.map(|m| (m, Vec::new()));
        records.push(LineRecord::new((0, j), line, span, outcome, false));
    });
    (
        Pass {
            records,
            cycle: gen::CHAIN_CYCLE,
        },
        observed,
    )
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let line_of = |_, j| gen::chain_large_line(cfg.seed, j).1;
    let share = cfg.seconds / if cfg.trace { 3.0 } else { 1.0 };
    let (service, setup_s) = repeated_setup(if cfg.trace { 1 } else { SETUPS }, || timed(setup));
    let (untraced, _) = pass(&service, cfg.seed, share, false);
    out.peak_rss_mb = run::peak_rss_mb();
    let mut per_spec = [0.0; CHAIN_SPECS.len()];
    for r in &untraced.records {
        per_spec[gen::chain_large_line(cfg.seed, r.index).0] += r.latency();
    }
    let total: f64 = per_spec.iter().sum::<f64>().max(1e-9);
    for (k, (label, _)) in CHAIN_SPECS.iter().enumerate() {
        let s = per_spec[k] / total;
        out.props
            .push((format!("time_share.{label}"), s.to_string()));
        out.layer.insert(format!("chain.share.{label}"), s);
    }
    out.setup_s = setup_s;
    if !cfg.trace {
        drop(service);
        let tally = check(&untraced, &same_spec, &line_of);
        out.count(&tally);
        out.tally = tally;
        return out;
    }

    let cache0 = service.cache_stats();
    let (traced, observed) = pass(&service, cfg.seed, share, true);
    let cache = service.cache_stats();
    drop(service);

    // The benchmark's own copies of the three models, for the replays.
    let mut models: HashMap<String, BuiltModel> = HashMap::new();
    let mut builds = Vec::new();
    for k in DISTINCT_MODELS {
        let spec: JobSpec = CHAIN_SPECS[k].1.parse().expect("a generated spec parses");
        let t = Instant::now();
        let model = spec.build_model();
        builds.push(t.elapsed().as_secs_f64());
        models.insert(spec.model_key(), model);
    }

    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let mut samples = Samples::default();
    for (id, (record, members)) in traced.records.iter().zip(&observed).enumerate() {
        if origin.elapsed().as_secs_f64() > cfg.seconds / 2.0 {
            break;
        }
        let (root, windows) = record_service(&mut trace, None, id, record.span, members);
        let Ok(spec) = trace.replay("spec.parse", Layer::Spec, root, id, || {
            gen::chain_large_line(cfg.seed, record.index)
                .1
                .parse::<JobSpec>()
        }) else {
            continue;
        };
        let m = &members[0];
        samples.push(
            "service.queue_wait_s",
            m.started
                .unwrap_or(m.ended)
                .duration_since(m.accepted)
                .as_secs_f64(),
        );
        if let Some(started) = m.started {
            samples.push(
                "service.run_s",
                m.ended.duration_since(started).as_secs_f64(),
            );
        }
        let model = &models[&spec.model_key()];
        let replay = replay_member(&mut trace, windows[0], id, &spec, model);
        let label = CHAIN_SPECS[gen::chain_large_line(cfg.seed, record.index).0].0;
        samples.push(
            format!("engine.round_s.{label}"),
            replay.run_s / CHAIN_ROUNDS as f64,
        );
        if let Some(comm) = replay.comm {
            let r = comm.rounds_seen.max(1) as f64;
            samples.push(
                "engine.comm.messages_per_round",
                comm.total_messages as f64 / r,
            );
            samples.push("engine.comm.bytes_per_round", comm.total_bytes as f64 / r);
            samples.push(
                "engine.comm.changed_per_round",
                comm.total_changed as f64 / r,
            );
        }
    }

    let traced_tally = check(&traced, &same_spec, &line_of);
    let tally = check(&untraced, &same_spec, &line_of);
    out.count(&tally);
    out.count(&traced_tally);
    let layer = &mut out.layer;
    run::trace_metrics(
        cfg,
        std::slice::from_ref(&trace),
        tally.jobs_per_s,
        traced_tally.jobs_per_s,
        layer,
    );
    out.tally = tally;
    layer.insert("spec.build_model_s".into(), crate::stats::mean(&builds));
    layer.insert("spec.build_model_count".into(), builds.len() as f64);
    for name in [
        "service.queue_wait_s",
        "service.run_s",
        "engine.comm.messages_per_round",
        "engine.comm.bytes_per_round",
        "engine.comm.changed_per_round",
    ] {
        layer.insert(name.into(), samples.mean(name));
    }
    let round = |label: &str| samples.median(&format!("engine.round_s.{label}"));
    for (label, _) in CHAIN_SPECS {
        layer.insert(format!("engine.round_s.{label}"), round(label));
    }
    let speedup = |label: &str| {
        let r = round(label);
        if r > 0.0 {
            round("ising-seq") / r
        } else {
            0.0
        }
    };
    let (par2, sh2) = (speedup("ising-par2"), speedup("ising-sh2"));
    layer.insert("engine.speedup.par2".into(), par2);
    layer.insert("engine.speedup.sh2".into(), sh2);
    out.props.push(("speedup.par2".into(), par2.to_string()));
    out.props.push(("speedup.sh2".into(), sh2.to_string()));
    layer.insert("engine.rng_fill_s".into(), run::rng_fill_s());
    layer.insert(
        "service.cache_hit_rate".into(),
        run::ratio(cache.hits - cache0.hits, cache.misses - cache0.misses),
    );
    layer.insert(
        "service.cache_evictions".into(),
        (cache.evictions - cache0.evictions) as f64,
    );
    out
}
