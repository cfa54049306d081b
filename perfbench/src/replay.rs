//! The single-stream replay workloads.
//!
//! * `planaria-mix` runs the full Planaria prefetcher over CFM and Fort,
//!   synthesised while the simulator pulls. CFM is SLP-dominated and Fort
//!   TLP-dominated, so both sub-prefetchers and the coordinator carry
//!   load, and synthesis sits on the timed path.
//! * `bop-replay` runs BOP over QSM and NBA2 replayed from
//!   `planaria-trace-v1` files that setup packs. The Planaria core does no
//!   work here; cache, DRAM and trace decode dominate. QSM loads DRAM with
//!   prefetch reads, NBA2 with demand reads.
//!
//! Both run `MemorySystem::run_stream` open loop, one cell per app, with
//! the Table 1 system; caches start empty and statistics cover the whole
//! stream.

use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use planaria_sim::{
    MemorySystem, PrefetcherKind, SimResult, SystemConfig, TelemetryReport, STREAM_CHUNK,
};
use planaria_trace::apps::{profile, AppId};
use planaria_trace::io::{ChunkedTraceReader, ChunkedTraceWriter};
use planaria_trace::stream::AccessStream;
use planaria_trace::WorkloadSpec;

use crate::workload::{fold_seed, TimedStream};

/// One replay workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct ReplayWorkload {
    /// Prefetcher every cell runs.
    pub kind: PrefetcherKind,
    /// One cell per application.
    pub apps: &'static [AppId],
    /// Replay from packed trace files (else synthesise in-stream).
    pub packed: bool,
}

/// `planaria-mix`.
pub const PLANARIA_MIX: ReplayWorkload = ReplayWorkload {
    kind: PrefetcherKind::Planaria,
    apps: &[AppId::Cfm, AppId::Fort],
    packed: false,
};

/// `bop-replay`.
pub const BOP_REPLAY: ReplayWorkload =
    ReplayWorkload { kind: PrefetcherKind::Bop, apps: &[AppId::Qsm, AppId::Nba2], packed: true };

/// Packed files made by this process so far, to name each one uniquely.
static PACKED: AtomicU64 = AtomicU64::new(0);

/// A packed trace file, removed when dropped.
struct PackedFile(PathBuf);

impl Drop for PackedFile {
    fn drop(&mut self) {
        // Best effort: a file left behind is harmless and ignored by git.
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Everything a round needs, built before its clock starts.
pub struct ReplaySetup {
    cells: Vec<(MemorySystem, Box<dyn AccessStream>)>,
    _files: Vec<PackedFile>,
}

/// What one timed round produced.
pub struct ReplayRound {
    /// Result and lifecycle counters of each cell, in app order.
    pub results: Vec<(SimResult, TelemetryReport)>,
    /// Host seconds of the round.
    pub secs: f64,
    /// Per-chunk processing turns (empty when not instrumented).
    pub turns: Vec<(f64, u64)>,
    /// Summed chunk processing time (0 when not instrumented).
    pub batch_ns: u64,
    /// Summed time pulling chunks (0 when not instrumented).
    pub pull_ns: u64,
}

impl ReplayRound {
    /// Demand accesses simulated.
    pub fn accesses(&self) -> u64 {
        self.results.iter().map(|(r, _)| r.accesses).sum()
    }
}

impl ReplayWorkload {
    /// The workload's streams for `seed`, `len` accesses per app.
    pub fn specs(&self, seed: u64, len: usize) -> Vec<WorkloadSpec> {
        self.apps
            .iter()
            .map(|&app| {
                let mut spec = profile(app).scaled(len);
                spec.seed = fold_seed(spec.seed, seed);
                spec
            })
            .collect()
    }

    /// Builds the memory systems and input streams; on `bop-replay` this
    /// packs each app's stream into a file under `dir`.
    ///
    /// # Errors
    ///
    /// Fails when a trace file cannot be written or opened.
    pub fn setup(&self, specs: &[WorkloadSpec], dir: &Path) -> io::Result<ReplaySetup> {
        let mut cells = Vec::with_capacity(specs.len());
        let mut files = Vec::new();
        for spec in specs {
            let sys = MemorySystem::new(SystemConfig::default(), self.kind.build());
            let stream: Box<dyn AccessStream> = if self.packed {
                let seq = PACKED.fetch_add(1, Ordering::Relaxed);
                let path = dir.join(format!("{}-{seq}-{}.ptrace", std::process::id(), spec.abbr));
                let file = PackedFile(path);
                pack(spec, &file.0)?;
                let reader = ChunkedTraceReader::new(BufReader::new(File::open(&file.0)?))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                files.push(file);
                Box::new(reader)
            } else {
                Box::new(spec.stream())
            };
            cells.push((sys, stream));
        }
        Ok(ReplaySetup { cells, _files: files })
    }
}

/// Packs a spec's stream into a `planaria-trace-v1` file.
fn pack(spec: &WorkloadSpec, path: &Path) -> io::Result<()> {
    let mut stream = spec.stream();
    let mut writer = ChunkedTraceWriter::new(
        BufWriter::new(File::create(path)?),
        &spec.abbr,
        spec.length as u64,
    )?;
    let mut chunk = Vec::new();
    while stream.next_chunk(STREAM_CHUNK, &mut chunk) > 0 {
        writer.write_chunk(&chunk)?;
    }
    // `finish` flushes the buffer; the file is read back at once, so it
    // is not synced to disk.
    writer.finish()?;
    Ok(())
}

/// Runs every cell of a set-up workload to completion. Instrumented
/// rounds time each chunk from outside the stream.
pub fn run_round(setup: ReplaySetup, instrument: bool) -> ReplayRound {
    let ReplaySetup { cells, _files } = setup;
    let mut results = Vec::with_capacity(cells.len());
    let (mut turns, mut batch_ns, mut pull_ns) = (Vec::new(), 0, 0);
    let t0 = Instant::now();
    for (sys, mut stream) in cells {
        if instrument {
            let mut timed = TimedStream::new(stream.as_mut());
            results.push(sys.run_stream_telemetry(&mut timed, 0.0));
            turns.append(&mut timed.turns);
            batch_ns += timed.batch_ns;
            pull_ns += timed.pull_ns;
        } else {
            results.push(sys.run_stream_telemetry(stream.as_mut(), 0.0));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    ReplayRound { results, secs, turns, batch_ns, pull_ns }
}

/// Fingerprints of each spec run from its in-memory stream, the
/// reference a packed-file replay must reproduce.
pub fn in_memory_fingerprints(kind: PrefetcherKind, specs: &[WorkloadSpec]) -> Vec<u64> {
    specs
        .iter()
        .map(|spec| {
            MemorySystem::new(SystemConfig::default(), kind.build())
                .run_stream(&mut spec.stream())
                .fingerprint()
        })
        .collect()
}
