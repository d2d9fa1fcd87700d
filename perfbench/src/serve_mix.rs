//! serve-mix: small jobs through a loopback server with a result
//! store, so per-job fixed costs dominate — parse, model build against
//! cache hit, store get/put, queue wait, sampler build, result encode,
//! socket and client decode. Random-graph lines miss the model cache,
//! fixed-graph lines hit it, sweeps queue members behind two workers,
//! and a quarter of the lines repeat an earlier one verbatim.

use crate::gen::{self, MixKind};
use crate::netpath;
use crate::run::{self, check, ratio, repeated_setup, same_spec, Config, Outcome, SETUPS};
use lsl_core::service::{CacheStats, Service};
use lsl_core::store::StoreStats;

const WORKERS: usize = 2;

fn setup(cfg: &Config, count: usize) -> (netpath::Loopback, Vec<f64>) {
    let dir = cfg.scratch.join("serve-store");
    repeated_setup(count, || {
        netpath::bind(|| netpath::service_like(WORKERS, Some(netpath::fresh_store(&dir))))
    })
}

/// Runs one pass on a fresh server and returns it with the server's
/// model-cache and store counters.
fn pass_on_fresh(
    cfg: &Config,
    setups: usize,
    seconds: f64,
    replay: Option<&Service>,
) -> (run::Pass, Vec<f64>, CacheStats, StoreStats, f64) {
    let (mut env, setup_s) = setup(cfg, setups);
    let pass = netpath::pass(
        &mut env.clients,
        seconds,
        gen::MIX_BLOCK.len(),
        replay,
        |session, j| gen::serve_mix_line(cfg.seed, session, j),
    );
    let ping = if replay.is_some() {
        netpath::ping_rtt(&mut env.clients)
    } else {
        0.0
    };
    let cache = env.server.service().cache_stats();
    let store = env.server.service().store_stats().unwrap_or_default();
    (pass, setup_s, cache, store, ping)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let line_of = |session, j| gen::serve_mix_line(cfg.seed, session, j);
    let share = cfg.seconds / if cfg.trace { 3.0 } else { 1.0 };
    let (pass, setup_s, cache, store, _) =
        pass_on_fresh(cfg, if cfg.trace { 1 } else { SETUPS }, share, None);
    out.peak_rss_mb = run::peak_rss_mb();
    let repeats = pass
        .records
        .iter()
        .filter(|r| r.index > 0 && gen::mix_kind(cfg.seed, r.session, r.index) == MixKind::Repeat)
        .count();
    let repeat_share = repeats as f64 / pass.records.len().max(1) as f64;
    out.props = vec![
        ("repeat_share".into(), repeat_share.to_string()),
        (
            "model_cache_hit_rate".into(),
            ratio(cache.hits, cache.misses).to_string(),
        ),
        (
            "store_hit_rate".into(),
            ratio(store.hits, store.misses).to_string(),
        ),
    ];
    let tally = check(&pass, &same_spec, &line_of);
    out.count(&tally);
    out.tally = tally;
    out.setup_s = setup_s;
    if !cfg.trace {
        return out;
    }

    let replay = netpath::service_like(
        WORKERS,
        Some(netpath::fresh_store(&cfg.scratch.join("replay-store"))),
    );
    let (traced, _, cache, store, ping) = pass_on_fresh(cfg, 1, share, Some(&replay));
    let mirror = netpath::fresh_store(&cfg.scratch.join("mirror-store"));
    let (traces, samples) = netpath::decompose(&traced, Some(&mirror), cfg.seconds / 2.0);
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
    layer.insert(
        "service.cache_hit_rate".into(),
        ratio(cache.hits, cache.misses),
    );
    layer.insert("service.cache_evictions".into(), cache.evictions as f64);
    layer.insert("store.hit_rate".into(), ratio(store.hits, store.misses));
    layer.insert("net.ping_rtt_s".into(), ping);
    layer.insert("mix.repeat_share".into(), repeat_share);
    layer.insert("engine.rng_fill_s".into(), run::rng_fill_s());
    out
}
