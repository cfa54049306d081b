//! What the three workloads share: their names and sizes, seed folding,
//! the modelled-metric pooling, the conservation checks, and the timing
//! wrapper that observes a simulation from outside its stream.

use std::time::Instant;

use planaria_common::MemAccess;
use planaria_serve::mix64;
use planaria_sim::{EventKind, PrefetcherKind, SimResult, TelemetryReport};
use planaria_trace::io::ParseTraceError;
use planaria_trace::stream::AccessStream;

use crate::report::{Checks, Metrics};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full Planaria over CFM and Fort, synthesised in-stream, open loop.
    PlanariaMix,
    /// BOP over QSM and NBA2, replayed from packed `planaria-trace-v1`
    /// files.
    BopReplay,
    /// Many small lean-Planaria sessions served over two workers.
    ServeFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PlanariaMix, Workload::BopReplay, Workload::ServeFleet];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanariaMix => "planaria-mix",
            Workload::BopReplay => "bop-replay",
            Workload::ServeFleet => "serve-fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of a run. [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::SMOKE`] keeps every code path but finishes in well under a
/// second, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Accesses per application stream on the replay workloads.
    pub replay_len: usize,
    /// Resident sessions on `serve-fleet`.
    pub devices: usize,
    /// Accesses per `serve-fleet` session.
    pub device_len: usize,
    /// Fleet sessions pre-pumped, snapshotted and restored in setup, then
    /// checked against their batch and uninterrupted twins.
    pub sample: usize,
    /// Sessions in the small fleet the traced run serves on the replay
    /// workloads to measure the `serve` layer.
    pub probe_devices: usize,
    /// Accesses per probe session.
    pub probe_len: usize,
    /// Fleet sessions whose streams the traced run captures and replays
    /// layer by layer on `serve-fleet`.
    pub capture_devices: usize,
}

impl Scale {
    /// The measured sizes.
    pub const FULL: Scale = Scale {
        // Long enough that the modelled metrics vary only a few percent
        // from seed to seed.
        replay_len: 500_000,
        devices: 8_000,
        device_len: 100,
        sample: 16,
        probe_devices: 32,
        probe_len: 1_000,
        capture_devices: 256,
    };

    /// Tiny sizes for the benchmark's own tests.
    pub const SMOKE: Scale = Scale {
        replay_len: 3_000,
        devices: 40,
        device_len: 60,
        sample: 4,
        probe_devices: 4,
        probe_len: 200,
        capture_devices: 8,
    };
}

/// Timed rounds every run makes at least, whatever `--seconds` says, so
/// each median rests on several samples.
pub const MIN_ROUNDS: usize = 3;

/// The seed the traced run also reports modelled metrics for, to show the
/// workloads were not tuned to the seeds being measured.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// Folds the workload seed into a profile or device seed.
pub fn fold_seed(base: u64, seed: u64) -> u64 {
    mix64(base ^ mix64(seed))
}

/// Order-sensitive fold of per-cell or per-device fingerprints into one.
pub fn fold_fingerprints(fps: impl IntoIterator<Item = u64>) -> u64 {
    fps.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, fp| mix64(h ^ fp))
}

/// Modelled-design metrics pooled over a workload's cells or devices.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Modelled {
    accesses: u64,
    hits: u64,
    latency_sum: f64,
    dram_requests: u64,
    used: u64,
    filled: u64,
    energy_pj: f64,
    duration_cycles: u64,
    filtered: u64,
    late: u64,
}

impl Modelled {
    /// Adds one cell's or device's result and lifecycle counters.
    pub fn add(&mut self, r: &SimResult, tel: &TelemetryReport) {
        self.accesses += r.accesses;
        self.hits += r.device_stats.iter().map(|d| d.hits).sum::<u64>();
        self.latency_sum += r.amat_cycles * r.accesses as f64;
        self.dram_requests += r.traffic.total();
        self.used += tel.count(EventKind::PrefetchUsed);
        self.filled += tel.count(EventKind::PrefetchFilled);
        self.energy_pj += r.total_energy_pj;
        self.duration_cycles += r.duration_cycles;
        self.filtered += r.prefetches_filtered;
        self.late += r.late_prefetches;
    }

    /// Prefetches dropped by the system's filters, per access.
    pub fn filtered_per_access(&self) -> f64 {
        self.filtered as f64 / self.accesses as f64
    }

    /// Late prefetches (a demand arrived while in flight), per access.
    pub fn late_per_access(&self) -> f64 {
        self.late as f64 / self.accesses as f64
    }

    /// Writes the five modelled end-to-end metrics; `clock_hz` converts
    /// energy per cycle into power.
    pub fn write(&self, clock_hz: f64, out: &mut Metrics) {
        let n = self.accesses as f64;
        out.insert("sc_hit_rate", self.hits as f64 / n);
        out.insert("amat_cycles", self.latency_sum / n);
        out.insert("dram_requests_per_access", self.dram_requests as f64 / n);
        out.insert("prefetch_accuracy", self.used as f64 / self.filled as f64);
        out.insert("power_mw", self.energy_pj / self.duration_cycles as f64 * clock_hz / 1e9);
    }
}

/// Checks the identities every [`SimResult`] must satisfy: per-device
/// accesses and hits add up to the aggregate, and for the Planaria kinds
/// the SLP/TLP split of useful prefetches adds up to the total.
pub fn check_conservation(checks: &mut Checks, label: &str, r: &SimResult, kind: PrefetcherKind) {
    let dev_accesses: u64 = r.device_stats.iter().map(|d| d.accesses).sum();
    let dev_hits: u64 = r.device_stats.iter().map(|d| d.hits).sum();
    checks.check(dev_accesses == r.accesses, || {
        format!("{label}: device accesses sum to {dev_accesses}, aggregate {}", r.accesses)
    });
    let pooled = if r.accesses == 0 { 0.0 } else { dev_hits as f64 / r.accesses as f64 };
    checks.check(pooled.to_bits() == r.hit_rate.to_bits(), || {
        format!("{label}: device hits give hit rate {pooled}, aggregate {}", r.hit_rate)
    });
    if kind.label().starts_with("Planaria") {
        checks.check(r.useful_slp + r.useful_tlp == r.useful_prefetches, || {
            format!(
                "{label}: useful SLP {} + TLP {} != useful {}",
                r.useful_slp, r.useful_tlp, r.useful_prefetches
            )
        });
    }
}

/// Times a simulation from outside its input stream.
///
/// The simulator pulls a chunk, processes it, and pulls again, so the
/// time between a chunk's return and the next pull is the processing of
/// that chunk. Each such turn is kept as `(ns per access, accesses)`;
/// pulls are summed separately.
pub struct TimedStream<'a> {
    inner: &'a mut dyn AccessStream,
    returned: Option<(Instant, usize)>,
    /// Processing time of each chunk, per access, weighted by its size.
    pub turns: Vec<(f64, u64)>,
    /// Total processing time across chunks.
    pub batch_ns: u64,
    /// Total time spent inside the inner stream's `next_chunk`.
    pub pull_ns: u64,
}

impl<'a> TimedStream<'a> {
    /// Wraps a stream.
    pub fn new(inner: &'a mut dyn AccessStream) -> Self {
        Self { inner, returned: None, turns: Vec::new(), batch_ns: 0, pull_ns: 0 }
    }
}

impl AccessStream for TimedStream<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn total_len(&self) -> Option<u64> {
        self.inner.total_len()
    }

    fn next_chunk(&mut self, max: usize, out: &mut Vec<MemAccess>) -> usize {
        let called = Instant::now();
        if let Some((at, n)) = self.returned.take() {
            let ns = called.duration_since(at).as_nanos() as u64;
            self.batch_ns += ns;
            self.turns.push((ns as f64 / n as f64, n as u64));
        }
        let n = self.inner.next_chunk(max, out);
        let back = Instant::now();
        self.pull_ns += back.duration_since(called).as_nanos() as u64;
        if n > 0 {
            self.returned = Some((back, n));
        }
        n
    }

    fn error(&self) -> Option<&ParseTraceError> {
        self.inner.error()
    }
}

/// Drains a stream in simulator-sized chunks, returning every access.
pub fn collect(stream: &mut dyn AccessStream) -> Vec<MemAccess> {
    let mut all = Vec::with_capacity(stream.total_len().unwrap_or(0) as usize);
    let mut chunk = Vec::new();
    while stream.next_chunk(planaria_sim::STREAM_CHUNK, &mut chunk) > 0 {
        all.extend_from_slice(&chunk);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_trace::apps::{profile, AppId};

    #[test]
    fn workload_names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::report::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seed_folding_separates_seeds() {
        assert_ne!(fold_seed(7, 1), fold_seed(7, 2));
        assert_ne!(fold_seed(7, 1), fold_seed(8, 1));
        assert_eq!(fold_seed(7, 1), fold_seed(7, 1));
    }

    #[test]
    fn timed_stream_passes_accesses_through() {
        let spec = profile(AppId::HoK).scaled(5_000);
        let mut inner = spec.stream();
        let mut timed = TimedStream::new(&mut inner);
        let all = collect(&mut timed);
        assert_eq!(all, spec.build().accesses());
        let weight: u64 = timed.turns.iter().map(|t| t.1).sum();
        assert_eq!(weight, 5_000, "every chunk's processing is one turn");
    }
}
