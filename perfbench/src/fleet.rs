//! The `serve-fleet` workload: many small, cold lean-Planaria sessions,
//! Table 2 apps round-robin, served by `Service::run_observed` on two
//! workers, each session closed loop with a window of 8.
//!
//! It runs the same `sim` and `core` code as `planaria-mix` the opposite
//! way — many short cold instances instead of one long warm one — and the
//! resident set is far larger than the host cache, so a per-instance memo
//! or table that speeds up `planaria-mix` shows here as resident memory
//! and turn latency.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use planaria_cache::CacheConfig;
use planaria_common::json;
use planaria_serve::{DeviceSpec, ServeConfig, ServeReport, ServedDevice, Service, ShardObserver};
use planaria_sim::{MemorySystem, PrefetcherKind, SystemConfig, TrafficConfig, TrafficModel};
use planaria_trace::apps::AppId;

use crate::report::{proc_status_kb, Checks};
use crate::workload::{check_conservation, fold_fingerprints, fold_seed, Modelled, Scale};

/// Worker threads serving the fleet (the host's two cores).
pub const WORKERS: usize = 2;

/// Scheduling domains the fleet is routed over.
const SHARDS: usize = 64;

/// Closed-loop driver iterations and ingested accesses granted per device
/// turn.
const QUANTUM: usize = 4_096;

/// A fleet's composition.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Prefetcher every session runs.
    pub kind: PrefetcherKind,
    /// Apps assigned round-robin by session id.
    pub apps: &'static [AppId],
    /// Memory-system sizing of every session.
    pub system: SystemConfig,
    /// Resident sessions.
    pub devices: usize,
    /// Accesses per session.
    pub device_len: usize,
    /// Cap on each session's revisited page pool.
    pub pool_cap: Option<usize>,
    /// Sessions snapshotted and restored in setup, then checked.
    pub sample: usize,
}

/// A 64 KiB, 16-way system cache; the rest of the Table 1 system is kept.
/// Sized like the lean prefetcher's tables so that thousands of sessions
/// stay resident at once.
pub fn lean_system() -> SystemConfig {
    let mut sys = SystemConfig::default();
    sys.cache = CacheConfig { size_bytes: 64 * 1024, ..sys.cache };
    sys
}

/// The `serve-fleet` workload at `scale`.
pub fn serve_fleet(scale: &Scale) -> FleetConfig {
    FleetConfig {
        kind: PrefetcherKind::PlanariaLean,
        apps: &AppId::ALL,
        system: lean_system(),
        devices: scale.devices,
        device_len: scale.device_len,
        // Short sessions revisit only a handful of pool pages.
        pool_cap: Some(64),
        sample: scale.sample,
    }
}

impl FleetConfig {
    /// The session with id `id` under workload seed `seed`.
    pub fn spec(&self, id: usize, seed: u64) -> DeviceSpec {
        let app = self.apps[id % self.apps.len()];
        let mut spec = DeviceSpec::new(id as u64, app).scaled(self.device_len);
        spec.seed = fold_seed(spec.seed, seed);
        spec.system = self.system;
        spec.kind = self.kind;
        spec.pool_cap = self.pool_cap;
        spec
    }

    /// Ids spread evenly over the fleet, `n` of them.
    pub fn spread_ids(&self, n: usize) -> Vec<usize> {
        let n = n.clamp(1, self.devices);
        (0..n).map(|i| i * self.devices / n).collect()
    }

    /// Demand accesses the whole fleet injects.
    pub fn accesses(&self) -> u64 {
        (self.devices * self.device_len) as u64
    }
}

/// A built fleet and what building it cost.
pub struct FleetSetup {
    /// Sessions, sample ones restored from their snapshots.
    pub fleet: Vec<ServedDevice>,
    /// Host seconds spent constructing the sessions.
    pub build_secs: f64,
    /// Resident memory the construction added, in bytes.
    pub resident_bytes: u64,
    /// Host seconds spent in `snapshot` over the sample.
    pub snapshot_secs: f64,
    /// Host seconds spent parsing and restoring the sample.
    pub restore_secs: f64,
    /// Accesses the restores replayed.
    pub replayed: u64,
}

/// Builds every session, then pre-pumps the sample halfway, snapshots it
/// and replaces each sample session by its restored copy.
pub fn setup(cfg: &FleetConfig, seed: u64, checks: &mut Checks) -> FleetSetup {
    let rss_before = proc_status_kb("VmRSS");
    let t0 = Instant::now();
    let mut fleet: Vec<ServedDevice> =
        (0..cfg.devices).map(|id| ServedDevice::from_spec(cfg.spec(id, seed))).collect();
    let build_secs = t0.elapsed().as_secs_f64();
    let resident_bytes = match (rss_before, proc_status_kb("VmRSS")) {
        (Some(a), Some(b)) => b.saturating_sub(a) * 1024,
        _ => 0,
    };
    let (mut snapshot_secs, mut restore_secs, mut replayed) = (0.0, 0.0, 0);
    for id in cfg.spread_ids(cfg.sample) {
        let dev = &mut fleet[id];
        dev.ingest(cfg.device_len / 2);
        dev.quiesce();
        let t = Instant::now();
        let doc = dev.snapshot();
        snapshot_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let restored = doc.and_then(|doc| {
            let parsed = json::parse(&doc)?;
            ServedDevice::restore(&parsed, cfg.system)
        });
        restore_secs += t.elapsed().as_secs_f64();
        let ok = match restored {
            Ok(restored) if restored.consumed() == dev.consumed() => {
                replayed += restored.consumed();
                *dev = restored;
                Ok(())
            }
            Ok(restored) => Err(format!(
                "restored at {} accesses, snapshotted at {}",
                restored.consumed(),
                dev.consumed()
            )),
            Err(e) => Err(e),
        };
        checks.check(ok.is_ok(), || format!("device {id} snapshot/restore: {}", ok.unwrap_err()));
    }
    FleetSetup { fleet, build_secs, resident_bytes, snapshot_secs, restore_secs, replayed }
}

/// Turn timings one shard's observer collected.
#[derive(Debug, Default)]
pub struct ShardTurns {
    /// Shard index.
    pub shard: usize,
    /// `(ns per injected access, accesses injected)` per turn that
    /// injected anything.
    pub turns: Vec<(f64, u64)>,
    /// Time spent in every turn of the shard.
    pub busy_ns: u64,
}

/// Times each device turn of one shard; hands its timings over when the
/// shard finishes and the observer is dropped.
struct TurnObserver {
    timings: ShardTurns,
    started: Option<Instant>,
    sink: Arc<Mutex<Vec<ShardTurns>>>,
}

impl ShardObserver for TurnObserver {
    fn pump_started(&mut self, _device: u64) {
        self.started = Some(Instant::now());
    }

    fn pump_finished(&mut self, _device: u64, injected: u64) {
        let Some(t0) = self.started.take() else { return };
        let ns = t0.elapsed().as_nanos() as u64;
        self.timings.busy_ns += ns;
        if injected > 0 {
            self.timings.turns.push((ns as f64 / injected as f64, injected));
        }
    }
}

impl Drop for TurnObserver {
    fn drop(&mut self) {
        // A poisoned sink means another shard's worker panicked; the run
        // fails through that panic, so these timings can be dropped.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.timings));
        }
    }
}

/// What one timed fleet round produced.
pub struct FleetRound {
    /// The service's report, with every device report kept.
    pub report: ServeReport,
    /// Host seconds the service ran.
    pub secs: f64,
    /// Per-shard turn timings, in shard order (empty when not
    /// instrumented).
    pub shards: Vec<ShardTurns>,
}

impl FleetRound {
    /// Every timed turn of the round.
    pub fn turns(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.shards.iter().flat_map(|s| s.turns.iter().copied())
    }

    /// Summed turn time over injected accesses.
    pub fn turn_ns_per_access(&self) -> f64 {
        let busy: u64 = self.shards.iter().map(|s| s.busy_ns).sum();
        busy as f64 / self.report.total_accesses() as f64
    }

    /// Mean over workers of the share of wall time spent in turns.
    pub fn worker_busy_share(&self) -> f64 {
        let mut busy = [0u64; WORKERS];
        for s in &self.shards {
            busy[s.shard % WORKERS] += s.busy_ns;
        }
        let wall_ns = self.secs * 1e9;
        busy.iter().map(|&b| b as f64 / wall_ns).sum::<f64>() / WORKERS as f64
    }
}

/// Serves a built fleet to completion; instrumented rounds time every
/// device turn through a [`ShardObserver`].
pub fn run_round(fleet: Vec<ServedDevice>, instrument: bool) -> FleetRound {
    let service = Service::new(ServeConfig {
        shards: SHARDS,
        workers: WORKERS,
        pump_quantum: QUANTUM,
        ingest_quantum: QUANTUM,
        keep_device_reports: true,
    });
    let sink = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let report = if instrument {
        service.run_observed(fleet, |shard| {
            Box::new(TurnObserver {
                timings: ShardTurns { shard, ..ShardTurns::default() },
                started: None,
                sink: Arc::clone(&sink),
            })
        })
    } else {
        service.run(fleet)
    };
    let secs = t0.elapsed().as_secs_f64();
    let mut shards = std::mem::take(&mut *sink.lock().expect("no observer panicked"));
    shards.sort_by_key(|s| s.shard);
    FleetRound { report, secs, shards }
}

/// Checks a served round — every session finished and injected its whole
/// stream, every result conserves — and pools its modelled metrics.
/// Returns them with the fold of the device fingerprints in id order.
pub fn check_round(cfg: &FleetConfig, round: &FleetRound, checks: &mut Checks) -> (Modelled, u64) {
    let report = &round.report;
    checks.check(report.devices() == cfg.devices as u64, || {
        format!("{} of {} sessions finished", report.devices(), cfg.devices)
    });
    checks.check(report.total_accesses() == cfg.accesses(), || {
        format!("{} of {} accesses injected", report.total_accesses(), cfg.accesses())
    });
    let mut modelled = Modelled::default();
    for dev in &report.device_reports {
        check_conservation(checks, &format!("device {}", dev.id), &dev.result, cfg.kind);
        modelled.add(&dev.result, &dev.telemetry);
    }
    (modelled, fold_fingerprints(report.device_reports.iter().map(|d| d.result.fingerprint())))
}

/// Checks the sample sessions of a served round: each served result
/// equals a batch closed-loop run of the same accesses, and each restored
/// session's report equals that of an uninterrupted twin.
pub fn check_sample(cfg: &FleetConfig, seed: u64, round: &FleetRound, checks: &mut Checks) {
    for id in cfg.spread_ids(cfg.sample) {
        let spec = cfg.spec(id, seed);
        let served = round.report.device_reports.iter().find(|d| d.id == id as u64);
        let Some(served) = served else {
            checks.check(false, || format!("device {id} has no report"));
            continue;
        };
        let (batch, _) = TrafficModel::new(TrafficConfig::new(spec.window)).run_stream(
            MemorySystem::new(spec.system, spec.kind.build()),
            &mut spec.workload().stream(),
        );
        checks.check(batch.fingerprint() == served.result.fingerprint(), || {
            format!("device {id}: served result differs from the batch closed loop")
        });
        let mut twin = ServedDevice::from_spec(spec);
        while !twin.is_done() {
            twin.ingest(usize::MAX);
            twin.quiesce();
        }
        checks.check(twin.report() == Some(served), || {
            format!("device {id}: restored session differs from its uninterrupted twin")
        });
    }
}
