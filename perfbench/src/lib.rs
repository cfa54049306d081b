//! The repository benchmark for the Planaria simulator.
//!
//! Three workloads (see [`workload::Workload`]) drive the `trace`,
//! `cache`, `core`, `baselines`, `dram`, `sim`, `serve` and `telemetry`
//! crates through their public API only. An untraced run reports the
//! end-to-end metrics of [`report::END_TO_END`]: host throughput, set-up
//! time, peak memory and turn latency beside the modelled design's hit
//! rate, AMAT, DRAM traffic, prefetch accuracy and power. A traced run
//! reports [`report::PER_LAYER`]: each layer replayed alone on the input
//! stream captured from it (see [`layers`]).
//!
//! Each run repeats whole rounds — set up, then run the workload — until
//! its time is spent; after a warm-up round it reports set-up time as the
//! median over rounds and throughput and turn latency from the slow rounds
//! (see `Rounds`). The modelled metrics
//! depend on the seed only, so every round must reproduce the first
//! round's fingerprints; that and the other output checks feed
//! `checks_passed_share` and the result line's `failed` count.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod layers;
pub mod replay;
pub mod report;
pub mod workload;

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use planaria_common::json::Writer;
use planaria_sim::{PrefetcherKind, SystemConfig, TelemetryConfig};

use crate::fleet::{FleetConfig, FleetRound};
use crate::layers::{Capture, CellInput};
use crate::replay::{ReplayRound, ReplayWorkload};
use crate::report::{
    catalogue, median, number, weight_above, weighted_quantile, Checks, Envelope, Metrics,
};
use crate::workload::{check_conservation, Modelled, Scale, Workload};
use crate::workload::{HELD_OUT_SEED, MIN_ROUNDS};

/// The directory `bop-replay` packs its traces into, inside the
/// benchmark's own directory (created when missing).
///
/// # Errors
///
/// Fails when the directory cannot be created.
pub fn scratch_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed, folded into every stream and session seed.
    pub seed: u64,
    /// Host seconds the run should spend measuring.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub traced: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// Directory for the packed trace files `bop-replay` writes.
    pub scratch: PathBuf,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The catalogue's metrics.
    pub metrics: Metrics,
    /// Output checks.
    pub checks: Checks,
    /// `SimResult::fingerprint` per cell, or folded over the fleet.
    pub fingerprints: Vec<(String, u64)>,
    /// Further numbers for the report document: sample counts, the
    /// reconciliation of layer costs, held-out-seed metrics.
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    fn note(&mut self, key: impl Into<String>, value: f64) {
        self.notes.push((key.into(), value));
    }
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Fails when `bop-replay` cannot write or read its packed traces.
pub fn run(args: &RunArgs) -> io::Result<Outcome> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut out = match (args.workload, args.traced) {
        (Workload::PlanariaMix, false) => replay_untraced(&replay::PLANARIA_MIX, args, deadline)?,
        (Workload::BopReplay, false) => replay_untraced(&replay::BOP_REPLAY, args, deadline)?,
        (Workload::ServeFleet, false) => {
            fleet_untraced(&fleet::serve_fleet(&args.scale), args, deadline)
        }
        (Workload::PlanariaMix, true) => replay_traced(&replay::PLANARIA_MIX, args, deadline)?,
        (Workload::BopReplay, true) => replay_traced(&replay::BOP_REPLAY, args, deadline)?,
        (Workload::ServeFleet, true) => {
            fleet_traced(&fleet::serve_fleet(&args.scale), args, deadline)?
        }
    };
    if !args.traced {
        let peak_kb = report::proc_status_kb("VmHWM").unwrap_or(0);
        out.metrics.insert("peak_rss_mb", peak_kb as f64 / 1024.0);
        out.metrics.insert("checks_passed_share", out.checks.passed_share());
    }
    Ok(out)
}

/// Conservation checks over a replay round; returns the cell
/// fingerprints and pooled modelled metrics.
fn check_replay_round(
    w: &ReplayWorkload,
    round: &ReplayRound,
    checks: &mut Checks,
) -> (Vec<u64>, Modelled) {
    let mut modelled = Modelled::default();
    let mut fps = Vec::with_capacity(round.results.len());
    for (r, tel) in &round.results {
        check_conservation(checks, &r.workload, r, w.kind);
        modelled.add(r, tel);
        fps.push(r.fingerprint());
    }
    (fps, modelled)
}

/// Compares a round's fingerprints with the first round's.
fn check_repeat(checks: &mut Checks, first: &[u64], fps: &[u64]) {
    checks.check(first == fps, || "a round's fingerprints differ from the first round's".into());
}

/// Share of timed rounds allowed to run slower than the reported
/// throughput and median turn.
const SLOW_ROUND_QUANTILE: f64 = 0.1;

/// Host timings of an untraced run over its timed rounds.
///
/// The first round warms the allocator and the host caches (it is the
/// slowest of almost every run); it is checked like every other round but
/// not timed.
///
/// Throughput and the median turn come from the slow rounds, not from the
/// median round or from all turns pooled: on a host shared with other
/// tenants, identical rounds run in a fast or a slow mode (per-round
/// median turn ≈750 against ≈1150 ns per access on `serve-fleet`, with one
/// worker as with two), and the share of fast rounds drifts from minute to
/// minute while the slow mode repeats. A median pooled over all turns
/// falls between the modes (its quartile spread over ten seeds reached
/// 0.27). So `accesses_per_s` is the rate 90% of rounds reach and
/// `turn_ns_per_access_p50` the per-round median 90% of rounds stay
/// under. `turn_ns_per_access_p99` pools the turns of all timed rounds,
/// which was at least as steady as any per-round statistic (a replay
/// round has only about 120 turns). Set-up time is the median over rounds.
#[derive(Debug, Default)]
struct Rounds {
    warmed: bool,
    setup_s: Vec<f64>,
    rates: Vec<f64>,
    turn_p50: Vec<f64>,
    turns: Vec<(f64, u64)>,
}

impl Rounds {
    /// Whether the run has timed enough rounds and spent its time.
    fn done(&self, deadline: Instant) -> bool {
        self.rates.len() >= MIN_ROUNDS && Instant::now() >= deadline
    }

    /// Records one round's set-up time, throughput and `(ns per access,
    /// accesses)` turns, unless it is the warm-up round.
    fn record(&mut self, setup_s: f64, rate: f64, turns: &mut [(f64, u64)]) {
        if !std::mem::replace(&mut self.warmed, true) {
            return;
        }
        self.setup_s.push(setup_s);
        self.rates.push(rate);
        self.turn_p50.push(weighted_quantile(turns, 0.50));
        self.turns.extend_from_slice(turns);
    }

    /// Writes the host-time metrics, noting the range of the per-round
    /// values and the sample counts they rest on.
    fn write(mut self, out: &mut Outcome) {
        let quantile = |xs: &[f64], q: f64| {
            let mut samples: Vec<(f64, u64)> = xs.iter().map(|&x| (x, 1)).collect();
            weighted_quantile(&mut samples, q)
        };
        let p99 = weighted_quantile(&mut self.turns, 0.99);
        let m = &mut out.metrics;
        m.insert("accesses_per_s", quantile(&self.rates, SLOW_ROUND_QUANTILE));
        m.insert("setup_s", median(&self.setup_s));
        m.insert("turn_ns_per_access_p50", quantile(&self.turn_p50, 1.0 - SLOW_ROUND_QUANTILE));
        m.insert("turn_ns_per_access_p99", p99);
        out.note("rounds", self.rates.len() as f64);
        out.note("turn.samples", self.turns.len() as f64);
        out.note("turn.accesses", self.turns.iter().map(|t| t.1).sum::<u64>() as f64);
        out.note("turn.accesses_above_p99", weight_above(&self.turns, p99) as f64);
        for (name, xs) in [
            ("accesses_per_s", &self.rates),
            ("setup_s", &self.setup_s),
            ("turn_ns_per_access_p50", &self.turn_p50),
        ] {
            out.note(format!("{name}.min"), xs.iter().copied().fold(f64::INFINITY, f64::min));
            out.note(format!("{name}.median"), median(xs));
            out.note(format!("{name}.max"), xs.iter().copied().fold(0.0, f64::max));
        }
    }
}

fn replay_untraced(w: &ReplayWorkload, args: &RunArgs, deadline: Instant) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut rounds = Rounds::default();
    let mut first: Option<(Vec<u64>, Modelled)> = None;
    let mut specs = Vec::new();
    while !rounds.done(deadline) {
        let t = Instant::now();
        specs = w.specs(args.seed, args.scale.replay_len);
        let setup = w.setup(&specs, &args.scratch)?;
        let setup_s = t.elapsed().as_secs_f64();
        let mut round = replay::run_round(setup, true);
        rounds.record(setup_s, round.accesses() as f64 / round.secs, &mut round.turns);
        let (fps, modelled) = check_replay_round(w, &round, &mut out.checks);
        match &first {
            Some((f, _)) => check_repeat(&mut out.checks, f, &fps),
            None => first = Some((fps, modelled)),
        }
    }
    let (fps, modelled) = first.expect("at least one round ran");
    if w.packed {
        let reference = replay::in_memory_fingerprints(w.kind, &specs);
        for ((spec, got), want) in specs.iter().zip(&fps).zip(&reference) {
            out.checks.check(got == want, || {
                format!("{}: packed-file replay differs from the in-memory stream", spec.abbr)
            });
        }
    }
    rounds.write(&mut out);
    modelled.write(SystemConfig::default().clock_hz, &mut out.metrics);
    out.fingerprints = specs.iter().map(|s| s.abbr.clone()).zip(fps).collect();
    Ok(out)
}

fn fleet_untraced(cfg: &FleetConfig, args: &RunArgs, deadline: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut rounds = Rounds::default();
    let mut first: Option<(u64, Modelled)> = None;
    while !rounds.done(deadline) {
        let t = Instant::now();
        let setup = fleet::setup(cfg, args.seed, &mut out.checks);
        let setup_s = t.elapsed().as_secs_f64();
        let round = fleet::run_round(setup.fleet, true);
        let mut turns: Vec<(f64, u64)> = round.turns().collect();
        rounds.record(setup_s, round.report.total_accesses() as f64 / round.secs, &mut turns);
        let (modelled, fold) = fleet::check_round(cfg, &round, &mut out.checks);
        match &first {
            Some((f, _)) => check_repeat(&mut out.checks, &[*f], &[fold]),
            None => {
                fleet::check_sample(cfg, args.seed, &round, &mut out.checks);
                first = Some((fold, modelled));
            }
        }
    }
    let (fold, modelled) = first.expect("at least one round ran");
    rounds.write(&mut out);
    modelled.write(cfg.system.clock_hz, &mut out.metrics);
    out.fingerprints = vec![("fleet".into(), fold)];
    out
}

/// Serves a fleet with every turn observed and records the `serve`
/// layer's metrics: resident bytes and build time per session, snapshot
/// and restore cost on the sample, worker busy share, scheduling rounds
/// and worst closed-loop slowdown.
fn serve_layer(cfg: &FleetConfig, seed: u64, out: &mut Outcome) -> FleetRound {
    let setup = fleet::setup(cfg, seed, &mut out.checks);
    let n = cfg.devices as f64;
    let sampled = cfg.spread_ids(cfg.sample).len() as f64;
    let m = &mut out.metrics;
    m.insert("serve.bytes_per_device", setup.resident_bytes as f64 / n);
    m.insert("serve.build_us_per_device", setup.build_secs * 1e6 / n);
    m.insert("serve.snapshot_us", setup.snapshot_secs * 1e6 / sampled);
    m.insert(
        "serve.restore_ns_per_replayed_access",
        setup.restore_secs * 1e9 / setup.replayed as f64,
    );
    let round = fleet::run_round(setup.fleet, true);
    let shards = &round.report.shards;
    m.insert("serve.worker_busy_share", round.worker_busy_share());
    m.insert("serve.rounds", shards.iter().map(|s| s.rounds).sum::<u64>() as f64);
    m.insert("serve.max_slowdown", shards.iter().map(|s| s.max_slowdown).fold(0.0, f64::max));
    round
}

/// Records the modelled metrics of one round at [`HELD_OUT_SEED`].
fn note_held_out(out: &mut Outcome, modelled: &Modelled, clock_hz: f64) {
    let mut held = Metrics::new();
    modelled.write(clock_hz, &mut held);
    out.note("held_out.seed", HELD_OUT_SEED as f64);
    for (name, value) in held {
        out.note(format!("held_out.{name}"), value);
    }
}

fn replay_traced(w: &ReplayWorkload, args: &RunArgs, deadline: Instant) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let scale = &args.scale;
    // The serve layer first, while the process is fresh, so that resident
    // growth during the build is the fleet's own. The probe fleet runs this
    // workload's prefetcher and apps on its system.
    let probe = FleetConfig {
        kind: w.kind,
        apps: w.apps,
        system: SystemConfig::default(),
        devices: scale.probe_devices,
        device_len: scale.probe_len,
        pool_cap: None,
        sample: scale.sample.min(scale.probe_devices),
    };
    let probe_round = serve_layer(&probe, args.seed, &mut out);
    fleet::check_round(&probe, &probe_round, &mut out.checks);
    drop(probe_round);

    let specs = w.specs(args.seed, scale.replay_len);
    let plain = replay::run_round(w.setup(&specs, &args.scratch)?, false);
    let traced = replay::run_round(w.setup(&specs, &args.scratch)?, true);
    let (plain_fps, _) = check_replay_round(w, &plain, &mut out.checks);
    let (fps, modelled) = check_replay_round(w, &traced, &mut out.checks);
    check_repeat(&mut out.checks, &plain_fps, &fps);
    let accesses = traced.accesses() as f64;
    out.note("untraced.accesses_per_s", plain.accesses() as f64 / plain.secs);
    out.note("traced.accesses_per_s", accesses / traced.secs);
    out.note("traced.pull_ns_per_access", traced.pull_ns as f64 / accesses);
    out.metrics.insert("sim.filtered_per_access", modelled.filtered_per_access());
    out.metrics.insert("sim.late_per_access", modelled.late_per_access());
    out.fingerprints = specs.iter().map(|s| s.abbr.clone()).zip(fps).collect();
    drop((plain, traced));

    let held_specs = w.specs(HELD_OUT_SEED, scale.replay_len);
    let held = replay::run_round(w.setup(&held_specs, &args.scratch)?, false);
    let (_, held_modelled) = check_replay_round(w, &held, &mut out.checks);
    note_held_out(&mut out, &held_modelled, SystemConfig::default().clock_hz);
    drop(held);

    let inputs: Vec<CellInput> = specs
        .iter()
        .map(|spec| CellInput { spec: spec.clone(), system: SystemConfig::default() })
        .collect();
    let kinds = LayerKinds { workload: w.kind, core: PrefetcherKind::Planaria };
    let mut batch = || -> io::Result<f64> {
        let round = replay::run_round(w.setup(&specs, &args.scratch)?, true);
        Ok(round.batch_ns as f64 / round.accesses() as f64)
    };
    measure_layers(&inputs, kinds, &mut batch, deadline, &mut out)?;
    Ok(out)
}

fn fleet_traced(cfg: &FleetConfig, args: &RunArgs, deadline: Instant) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let round = serve_layer(cfg, args.seed, &mut out);
    let (modelled, fold) = fleet::check_round(cfg, &round, &mut out.checks);
    fleet::check_sample(cfg, args.seed, &round, &mut out.checks);
    out.note("traced.accesses_per_s", cfg.accesses() as f64 / round.secs);
    out.metrics.insert("sim.filtered_per_access", modelled.filtered_per_access());
    out.metrics.insert("sim.late_per_access", modelled.late_per_access());
    out.fingerprints = vec![("fleet".into(), fold)];
    drop(round);

    let plain = fleet::run_round(fleet::setup(cfg, args.seed, &mut out.checks).fleet, false);
    let (_, plain_fold) = fleet::check_round(cfg, &plain, &mut out.checks);
    check_repeat(&mut out.checks, &[fold], &[plain_fold]);
    out.note("untraced.accesses_per_s", cfg.accesses() as f64 / plain.secs);
    drop(plain);

    let held = fleet::run_round(fleet::setup(cfg, HELD_OUT_SEED, &mut out.checks).fleet, false);
    let (held_modelled, _) = fleet::check_round(cfg, &held, &mut out.checks);
    note_held_out(&mut out, &held_modelled, cfg.system.clock_hz);
    drop(held);

    let inputs: Vec<CellInput> = cfg
        .spread_ids(args.scale.capture_devices)
        .into_iter()
        .map(|id| CellInput { spec: cfg.spec(id, args.seed).workload(), system: cfg.system })
        .collect();
    let kinds = LayerKinds { workload: cfg.kind, core: cfg.kind };
    let mut setup_checks = Checks::default();
    let mut batch = || -> io::Result<f64> {
        let setup = fleet::setup(cfg, args.seed, &mut setup_checks);
        Ok(fleet::run_round(setup.fleet, true).turn_ns_per_access())
    };
    measure_layers(&inputs, kinds, &mut batch, deadline, &mut out)?;
    out.checks.merge(setup_checks);
    Ok(out)
}

/// Prefetchers the layer replay uses.
#[derive(Debug, Clone, Copy)]
struct LayerKinds {
    /// The workload's own prefetcher: it installs lines in the capture
    /// pass, and it is the prefetcher on the simulator's batch path.
    workload: PrefetcherKind,
    /// The prefetcher timed as the `core` layer.
    core: PrefetcherKind,
}

/// Captures each cell's layer streams, then times every layer alone on
/// them, repeating until `deadline` (at least [`MIN_ROUNDS`] times) and
/// keeping medians. Each repetition also runs the workload once through
/// `batch`, which returns the simulator's own processing time per access
/// measured from outside; whatever the isolated layers do not explain of
/// it is reported as unattributed.
fn measure_layers(
    inputs: &[CellInput],
    kinds: LayerKinds,
    batch: &mut dyn FnMut() -> io::Result<f64>,
    deadline: Instant,
    out: &mut Outcome,
) -> io::Result<()> {
    let captures: Vec<Capture> = inputs.iter().map(|i| Capture::new(i, kinds.workload)).collect();
    let accesses = captures.iter().map(Capture::accesses).sum::<u64>() as f64;
    let (ops, fills, evictions) = layers::cache_counts(&captures);
    let dram = layers::dram_counts(&captures);
    let requests = dram.requests as f64;

    let mut samples: [Vec<f64>; 9] = Default::default();
    let [batch_ns, synth, encode, decode, cache, core, base, dram_ns, slowdown] = &mut samples;
    let (mut core_run, mut base_run) = (None, None);
    while synth.len() < MIN_ROUNDS || Instant::now() < deadline {
        batch_ns.push(batch()?);
        synth.push(layers::time_synth(inputs) as f64 / accesses);
        let (encode_ns, packed) = layers::time_encode(&captures);
        encode.push(encode_ns as f64 / accesses);
        decode.push(layers::time_decode(&captures, &packed, &mut out.checks) as f64 / accesses);
        cache.push(layers::time_cache(&captures) as f64 / ops as f64);
        let run = layers::time_prefetcher(kinds.core, &captures);
        core.push(run.ns as f64 / accesses);
        core_run = Some(run);
        let run = layers::time_prefetcher(PrefetcherKind::Bop, &captures);
        base.push(run.ns as f64 / accesses);
        base_run = Some(run);
        dram_ns.push(layers::time_dram(&captures) as f64 / requests);
        let counting = layers::time_batches(kinds.workload, &captures, TelemetryConfig::counting());
        let events = layers::time_batches(kinds.workload, &captures, TelemetryConfig::events());
        slowdown.push(events as f64 / counting as f64);
    }
    let core_run = core_run.expect("at least one repetition");
    let base_run = base_run.expect("at least one repetition");
    let (tlp_accept, tlp_share) = layers::tlp_shares(&core_run.telemetry);

    let m = &mut out.metrics;
    m.insert("trace.synth_ns_per_access", median(synth));
    m.insert("trace.encode_ns_per_access", median(encode));
    m.insert("trace.decode_ns_per_access", median(decode));
    m.insert("cache.ns_per_op", median(cache));
    m.insert("cache.fills_per_access", fills as f64 / accesses);
    m.insert("cache.evictions_per_access", evictions as f64 / accesses);
    m.insert("core.ns_per_access", median(core));
    m.insert("core.prefetches_per_access", core_run.prefetches as f64 / accesses);
    m.insert("core.table_accesses_per_access", core_run.table_accesses as f64 / accesses);
    m.insert("core.tlp_accept_rate", tlp_accept);
    m.insert("core.arbitration_tlp_share", tlp_share);
    m.insert("baselines.ns_per_access", median(base));
    m.insert("baselines.prefetches_per_access", base_run.prefetches as f64 / accesses);
    m.insert("dram.ns_per_request", median(dram_ns));
    m.insert("dram.requests_per_access", requests / accesses);
    m.insert("dram.queue_full_per_request", dram.refused as f64 / requests);
    m.insert("dram.mean_queue_len", dram.waiting as f64 / requests);
    m.insert("dram.row_hit_rate", dram.stats.row_hit_rate());
    m.insert("telemetry.events_slowdown", median(slowdown));

    // Reconciliation: the simulator's batch time against the isolated
    // layers on its path (its own prefetcher, not both).
    let cache_part = median(cache) * ops as f64 / accesses;
    let prefetcher_part =
        if kinds.workload == PrefetcherKind::Bop { median(base) } else { median(core) };
    let dram_part = median(dram_ns) * requests / accesses;
    let unattributed = median(batch_ns) - cache_part - prefetcher_part - dram_part;
    m.insert("sim.batch_ns_per_access", median(batch_ns));
    m.insert("sim.unattributed_ns_per_access", unattributed);
    out.note("reconcile.cache_ns_per_access", cache_part);
    out.note("reconcile.prefetcher_ns_per_access", prefetcher_part);
    out.note("reconcile.dram_ns_per_access", dram_part);
    out.note("layers.repetitions", synth.len() as f64);
    out.note("layers.captured_accesses", accesses);
    Ok(())
}

/// The report document: the envelope, the run's configuration, every
/// metric, the fingerprints, the checks and the notes, as one JSON line.
pub fn document(args: &RunArgs, out: &Outcome, envelope: &Envelope) -> String {
    let mut w = Writer::compact();
    w.begin_object();
    w.key("schema");
    w.string("planaria-perfbench-v1");
    envelope.write(&mut w);
    w.key("workload");
    w.string(args.workload.name());
    w.key("traced");
    w.bool(args.traced);
    w.key("seconds");
    w.raw(&number(args.seconds));
    w.key("scale");
    w.begin_object();
    let s = &args.scale;
    for (key, value) in [
        ("replay_len", s.replay_len),
        ("devices", s.devices),
        ("device_len", s.device_len),
        ("sample", s.sample),
        ("probe_devices", s.probe_devices),
        ("probe_len", s.probe_len),
        ("capture_devices", s.capture_devices),
    ] {
        w.key(key);
        w.u64(value as u64);
    }
    w.end_object();
    w.key("metrics");
    w.begin_object();
    for spec in catalogue(args.traced) {
        if let Some(v) = out.metrics.get(spec.name) {
            w.key(spec.name);
            w.raw(&number(*v));
        }
    }
    w.end_object();
    w.key("fingerprints");
    w.begin_object();
    for (cell, fp) in &out.fingerprints {
        w.key(cell);
        w.string(&format!("{fp:016x}"));
    }
    w.end_object();
    w.key("checks");
    w.begin_object();
    w.key("attempted");
    w.u64(out.checks.attempted());
    w.key("failed");
    w.u64(out.checks.failed());
    w.key("failures");
    w.begin_array();
    for f in out.checks.failures() {
        w.string(f);
    }
    w.end_array();
    w.end_object();
    w.key("notes");
    w.begin_object();
    for (key, value) in &out.notes {
        w.key(key);
        w.raw(&number(*value));
    }
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate_result;

    fn smoke(workload: Workload, traced: bool) -> Outcome {
        let scratch = scratch_dir().unwrap();
        let args =
            RunArgs { workload, seed: 3, seconds: 0.0, traced, scale: Scale::SMOKE, scratch };
        let out = run(&args).unwrap();
        let line = report::result_line(&out.checks, catalogue(traced), &out.metrics);
        if let Err(e) = validate_result(&line, catalogue(traced)) {
            panic!(
                "{} (traced {traced}): {e}\nfailures: {:?}",
                workload.name(),
                out.checks.failures()
            );
        }
        let doc = document(&args, &out, &Envelope::current(3));
        planaria_common::json::validate(&doc).unwrap();
        out
    }

    fn note(out: &Outcome, key: &str) -> f64 {
        out.notes.iter().find(|(k, _)| k == key).map(|n| n.1).unwrap()
    }

    #[test]
    fn smoke_runs_pass_their_own_checks() {
        for w in Workload::ALL {
            let out = smoke(w, false);
            assert!(out.checks.attempted() > 0);
            assert_eq!(out.checks.failed(), 0);
        }
    }

    #[test]
    fn traced_runs_report_every_layer_and_reconcile() {
        for w in Workload::ALL {
            let out = smoke(w, true);
            let m = &out.metrics;
            let parts = note(&out, "reconcile.cache_ns_per_access")
                + note(&out, "reconcile.prefetcher_ns_per_access")
                + note(&out, "reconcile.dram_ns_per_access")
                + m["sim.unattributed_ns_per_access"];
            let batch = m["sim.batch_ns_per_access"];
            assert!(batch > 0.0);
            assert!((parts - batch).abs() <= 1e-9 * batch, "{}: {parts} != {batch}", w.name());
            assert!(note(&out, "held_out.sc_hit_rate") > 0.0);
        }
    }

    #[test]
    fn modelled_metrics_repeat_exactly_for_a_seed() {
        let a = smoke(Workload::BopReplay, false);
        let b = smoke(Workload::BopReplay, false);
        assert_eq!(a.fingerprints, b.fingerprints);
        for key in [
            "sc_hit_rate",
            "amat_cycles",
            "dram_requests_per_access",
            "prefetch_accuracy",
            "power_mw",
        ] {
            assert_eq!(a.metrics[key].to_bits(), b.metrics[key].to_bits(), "{key}");
        }
    }

    #[test]
    fn bench_manifest_names_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = planaria_common::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let want = |cat: &[report::MetricSpec]| -> Vec<(String, String)> {
            cat.iter().map(|s| (s.name.to_string(), s.unit.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), want(&report::END_TO_END));
        assert_eq!(names("per_layer"), want(&report::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, known);
    }
}
