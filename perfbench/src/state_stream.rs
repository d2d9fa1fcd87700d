//! state-stream: full configurations delivered over loopback — `stream`
//! jobs shipping every round and multi-sample jobs, on mid-size tori
//! with q=16 coloring (byte-packed states) and Ising (bit-packed
//! states). This is the large-frame regime serve-mix never reaches:
//! `StateBlob` pack, base64 and binary framing, session buffering of
//! long text lines, and client decode. Both sessions walk the same
//! lines, so every line is delivered in both codecs and checked
//! against one in-process reference.

use crate::gen;
use crate::netpath;
use crate::run::{self, check, repeated_setup, same_spec, Config, Outcome, Pass, SETUPS};
use lsl_core::service::Service;

const WORKERS: usize = 2;

fn pass_on_fresh(
    cfg: &Config,
    setups: usize,
    seconds: f64,
    replay: Option<&Service>,
) -> (Pass, Vec<f64>, f64) {
    let (mut env, setup_s) = repeated_setup(setups, || {
        netpath::bind(|| netpath::service_like(WORKERS, None))
    });
    let pass = netpath::pass(
        &mut env.clients,
        seconds,
        gen::STREAM_CYCLE,
        replay,
        |_, j| gen::state_stream_line(cfg.seed, j),
    );
    let ping = if replay.is_some() {
        netpath::ping_rtt(&mut env.clients)
    } else {
        0.0
    };
    (pass, setup_s, ping)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let line_of = |_, j| gen::state_stream_line(cfg.seed, j);
    let share = cfg.seconds / if cfg.trace { 3.0 } else { 1.0 };
    let (pass, setup_s, _) = pass_on_fresh(cfg, if cfg.trace { 1 } else { SETUPS }, share, None);
    out.peak_rss_mb = run::peak_rss_mb();
    let tally = check(&pass, &same_spec, &line_of);
    out.count(&tally);
    out.props = vec![(
        "states_per_job".into(),
        (tally.states_per_s / tally.jobs_per_s.max(1e-9)).to_string(),
    )];
    out.tally = tally;
    out.setup_s = setup_s;
    if !cfg.trace {
        return out;
    }

    let replay = netpath::service_like(WORKERS, None);
    let (traced, _, ping) = pass_on_fresh(cfg, 1, share, Some(&replay));
    let (traces, samples) = netpath::decompose(&traced, None, cfg.seconds / 2.0);
    drop(replay);
    let traced_tally = check(&traced, &same_spec, &line_of);
    out.count(&traced_tally);

    let layer = &mut out.layer;
    run::trace_metrics(
        cfg,
        &traces,
        out.tally.jobs_per_s,
        traced_tally.jobs_per_s,
        layer,
    );
    run::codec_metrics(&samples, layer);
    layer.insert(
        "service.queue_wait_s".into(),
        samples.mean("service.queue_wait_s"),
    );
    layer.insert("service.run_s".into(), samples.mean("service.run_s"));
    layer.insert("net.ping_rtt_s".into(), ping);
    layer.insert("engine.rng_fill_s".into(), run::rng_fill_s());
    out
}
