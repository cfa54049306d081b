//! Layer-isolated replay for the traced run.
//!
//! A capture pass, untimed, renders each cell's accesses and replays them
//! through a system cache that installs the workload prefetcher's
//! requests at once. The same pass records the `(access, hit)` stream the
//! prefetcher saw, the cache's operation sequence, and the DRAM request
//! stream: demand misses, prefetches at their trigger cycle, and dirty
//! writebacks. Each layer is then timed alone on its captured input,
//! through the crates' public functions only.

use std::hint::black_box;
use std::time::Instant;

use planaria_cache::{AccessResult, SetAssocCache};
use planaria_common::{Cycle, DeviceId, MemAccess, PhysAddr, PrefetchOrigin};
use planaria_dram::{DramConfig, DramStats, MemoryController, Priority};
use planaria_sim::{
    EventKind, MemorySystem, PrefetcherKind, SystemConfig, TelemetryConfig, TelemetryReport,
    STREAM_CHUNK,
};
use planaria_trace::io::{ChunkedTraceReader, ChunkedTraceWriter};
use planaria_trace::stream::AccessStream;
use planaria_trace::{Trace, WorkloadSpec};

use crate::report::Checks;
use crate::workload::{collect, TimedStream};

/// Cycles the DRAM replay steps forward after a full queue refuses a
/// request (the simulator's back-pressure step).
const RETRY_STEP: u64 = 500;

/// One cell's input: the accesses to render and the system they run on.
pub struct CellInput {
    /// The seeded workload.
    pub spec: WorkloadSpec,
    /// Memory-system sizing.
    pub system: SystemConfig,
}

/// One system-cache operation, as the capture pass issued it.
#[derive(Debug, Clone, Copy)]
enum ScOp {
    Access(MemAccess),
    Contains(PhysAddr),
    Fill(PhysAddr, Option<PrefetchOrigin>, DeviceId),
    MarkDirty(PhysAddr),
}

/// One request offered to the memory controller.
#[derive(Debug, Clone, Copy)]
struct DramReq {
    addr: PhysAddr,
    is_write: bool,
    priority: Priority,
    cycle: Cycle,
}

/// Every layer's input stream for one cell.
pub struct Capture {
    system: SystemConfig,
    trace: Trace,
    hits: Vec<(MemAccess, bool)>,
    sc_ops: Vec<ScOp>,
    dram: Vec<DramReq>,
    fills: u64,
    evictions: u64,
}

impl Capture {
    /// Renders `input` and captures each layer's stream with `kind`
    /// installing its prefetches.
    pub fn new(input: &CellInput, kind: PrefetcherKind) -> Self {
        let accesses = collect(&mut input.spec.stream());
        let mut sc = SetAssocCache::new(input.system.cache);
        let mut pf = kind.build();
        pf.configure_telemetry(&TelemetryConfig::counting());
        let mut hits = Vec::with_capacity(accesses.len());
        let mut sc_ops = Vec::with_capacity(accesses.len() * 2);
        let mut dram = Vec::with_capacity(accesses.len());
        let mut out = Vec::new();
        for a in &accesses {
            let block = a.addr.block_base();
            sc_ops.push(ScOp::Access(*a));
            let result = sc.access_by(a.addr, a.kind, a.device);
            if !result.is_hit() {
                dram.push(DramReq {
                    addr: block,
                    is_write: false,
                    priority: Priority::Demand,
                    cycle: a.cycle,
                });
                fill(&mut sc, &mut sc_ops, &mut dram, block, None, a.device, a.cycle);
                if a.kind.is_write() {
                    sc.mark_dirty(block);
                    sc_ops.push(ScOp::MarkDirty(block));
                }
            }
            // The simulator hands the prefetcher a "hit" only for lines it
            // did not prefetch itself; first touches retrigger it.
            let covered = matches!(result, AccessResult::Hit { first_use_of_prefetch: None });
            hits.push((*a, covered));
            out.clear();
            pf.on_access(a, covered, &mut out);
            for req in &out {
                sc_ops.push(ScOp::Contains(req.addr));
                if sc.contains(req.addr) {
                    continue;
                }
                dram.push(DramReq {
                    addr: req.addr,
                    is_write: false,
                    priority: Priority::Prefetch,
                    cycle: a.cycle,
                });
                fill(
                    &mut sc,
                    &mut sc_ops,
                    &mut dram,
                    req.addr,
                    Some(req.origin),
                    a.device,
                    a.cycle,
                );
            }
        }
        let stats = sc.stats();
        Self {
            system: input.system,
            trace: Trace::new(input.spec.abbr.clone(), accesses),
            hits,
            sc_ops,
            dram,
            fills: stats.demand_fills + stats.prefetch_fills,
            evictions: stats.evictions,
        }
    }

    /// Demand accesses captured.
    pub fn accesses(&self) -> u64 {
        self.trace.len() as u64
    }
}

/// Fills a line, queueing a writeback for a dirty victim.
fn fill(
    sc: &mut SetAssocCache,
    ops: &mut Vec<ScOp>,
    dram: &mut Vec<DramReq>,
    addr: PhysAddr,
    origin: Option<PrefetchOrigin>,
    device: DeviceId,
    cycle: Cycle,
) {
    ops.push(ScOp::Fill(addr, origin, device));
    if let Some(victim) = sc.fill_by(addr, origin, device) {
        if victim.dirty {
            dram.push(DramReq {
                addr: victim.addr,
                is_write: true,
                priority: Priority::Writeback,
                cycle,
            });
        }
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Time to render each cell's stream, excluding stream construction.
pub fn time_synth(inputs: &[CellInput]) -> u64 {
    let mut chunk = Vec::with_capacity(STREAM_CHUNK);
    let mut ns = 0;
    for input in inputs {
        let mut stream = input.spec.stream();
        let t = Instant::now();
        while stream.next_chunk(STREAM_CHUNK, &mut chunk) > 0 {
            black_box(&chunk);
        }
        ns += ns_since(t);
    }
    ns
}

/// Time to pack each capture into `planaria-trace-v1` bytes, and the
/// bytes.
pub fn time_encode(captures: &[Capture]) -> (u64, Vec<Vec<u8>>) {
    let mut ns = 0;
    let mut packed = Vec::with_capacity(captures.len());
    for c in captures {
        let buf = Vec::with_capacity(c.trace.len() * 32 + 64);
        let t = Instant::now();
        let mut w = ChunkedTraceWriter::new(buf, c.trace.name(), c.accesses())
            .expect("in-memory writes cannot fail");
        for chunk in c.trace.accesses().chunks(STREAM_CHUNK) {
            w.write_chunk(chunk).expect("the declared total is the trace length");
        }
        let bytes = w.finish().expect("every declared access was written");
        ns += ns_since(t);
        packed.push(bytes);
    }
    (ns, packed)
}

/// Time to decode packed bytes back into accesses. Checks that each
/// decode reproduces its capture exactly.
pub fn time_decode(captures: &[Capture], packed: &[Vec<u8>], checks: &mut Checks) -> u64 {
    let mut ns = 0;
    let mut chunk = Vec::with_capacity(STREAM_CHUNK);
    for (c, bytes) in captures.iter().zip(packed) {
        let t = Instant::now();
        let mut reader = ChunkedTraceReader::new(bytes.as_slice());
        if let Ok(reader) = reader.as_mut() {
            while reader.next_chunk(STREAM_CHUNK, &mut chunk) > 0 {
                black_box(&chunk);
            }
        }
        ns += ns_since(t);
        let decoded = ChunkedTraceReader::new(bytes.as_slice()).ok().and_then(|mut r| {
            let all = collect(&mut r);
            r.error().is_none().then_some(all)
        });
        checks.check(decoded.as_deref() == Some(c.trace.accesses()), || {
            format!("{}: decoded trace differs from the encoded one", c.trace.name())
        });
    }
    ns
}

/// Time for fresh system caches to replay the captured operations.
pub fn time_cache(captures: &[Capture]) -> u64 {
    let mut ns = 0;
    for c in captures {
        let mut sc = SetAssocCache::new(c.system.cache);
        let t = Instant::now();
        for op in &c.sc_ops {
            match *op {
                ScOp::Access(a) => {
                    black_box(sc.access_by(a.addr, a.kind, a.device));
                }
                ScOp::Contains(addr) => {
                    black_box(sc.contains(addr));
                }
                ScOp::Fill(addr, origin, device) => {
                    black_box(sc.fill_by(addr, origin, device));
                }
                ScOp::MarkDirty(addr) => {
                    black_box(sc.mark_dirty(addr));
                }
            }
        }
        ns += ns_since(t);
    }
    ns
}

/// Cache operations and the fills and evictions among them.
pub fn cache_counts(captures: &[Capture]) -> (u64, u64, u64) {
    captures.iter().fold((0, 0, 0), |(ops, fills, evictions), c| {
        (ops + c.sc_ops.len() as u64, fills + c.fills, evictions + c.evictions)
    })
}

/// One prefetcher replayed alone over the captured `(access, hit)`
/// streams.
pub struct PrefetcherRun {
    /// Time spent in `Prefetcher::on_batch`.
    pub ns: u64,
    /// Requests issued.
    pub prefetches: u64,
    /// Metadata-table accesses.
    pub table_accesses: u64,
    /// Decision counters, pooled over cells.
    pub telemetry: TelemetryReport,
}

/// Replays `kind` alone over every capture, one fresh instance per cell.
pub fn time_prefetcher(kind: PrefetcherKind, captures: &[Capture]) -> PrefetcherRun {
    let mut run = PrefetcherRun {
        ns: 0,
        prefetches: 0,
        table_accesses: 0,
        telemetry: TelemetryReport::default(),
    };
    let mut out = Vec::new();
    for c in captures {
        let mut pf = kind.build();
        pf.configure_telemetry(&TelemetryConfig::counting());
        let t = Instant::now();
        for batch in c.hits.chunks(STREAM_CHUNK) {
            out.clear();
            pf.on_batch(batch, &mut out);
            run.prefetches += out.len() as u64;
        }
        run.ns += ns_since(t);
        run.table_accesses += pf.table_accesses();
        if let Some(report) = pf.telemetry_report() {
            run.telemetry.absorb(&report);
        }
    }
    run
}

/// Share of TLP pattern transfers accepted, and share of coordinator
/// decisions TLP won.
pub fn tlp_shares(tel: &TelemetryReport) -> (f64, f64) {
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let accept = tel.count(EventKind::TlpTransferAccept);
    let transfers = accept + tel.count(EventKind::TlpTransferReject);
    let tlp = tel.count(EventKind::ArbitrationTlp);
    let decisions = [
        EventKind::ArbitrationSlp,
        EventKind::ArbitrationTlp,
        EventKind::ArbitrationBoth,
        EventKind::ArbitrationNone,
    ]
    .iter()
    .map(|&k| tel.count(k))
    .sum();
    (ratio(accept, transfers), ratio(tlp, decisions))
}

/// Offers one request at its cycle, stepping time forward while its
/// channel's queue is full; returns how many offers were refused.
fn offer(mc: &mut MemoryController, r: &DramReq, buf: &mut Vec<planaria_dram::Completion>) -> u64 {
    let mut now = r.cycle;
    mc.advance_to(now, buf);
    let mut refused = 0;
    while mc.try_enqueue(r.addr, r.is_write, r.priority, now).is_err() {
        refused += 1;
        now += RETRY_STEP;
        mc.advance_to(now, buf);
    }
    refused
}

/// Time for fresh controllers to serve the captured request streams.
pub fn time_dram(captures: &[Capture]) -> u64 {
    let mut ns = 0;
    let mut buf = Vec::new();
    for c in captures {
        let mut mc = MemoryController::new(c.system.dram);
        let t = Instant::now();
        for r in &c.dram {
            black_box(offer(&mut mc, r, &mut buf));
        }
        mc.drain(&mut buf);
        ns += ns_since(t);
    }
    ns
}

/// Deterministic DRAM counts of the captured streams.
pub struct DramCounts {
    /// Requests offered.
    pub requests: u64,
    /// Offers refused by a full queue (each then retried).
    pub refused: u64,
    /// Requests waiting in the controller's queues when each request
    /// arrived, summed.
    pub waiting: u64,
    /// Command counters pooled over cells.
    pub stats: DramStats,
}

/// Serves the captured streams once more, counting instead of timing.
pub fn dram_counts(captures: &[Capture]) -> DramCounts {
    let mut counts =
        DramCounts { requests: 0, refused: 0, waiting: 0, stats: DramStats::default() };
    let mut buf = Vec::new();
    for c in captures {
        let cfg: DramConfig = c.system.dram;
        let mut mc = MemoryController::new(cfg);
        for r in &c.dram {
            mc.advance_to(r.cycle, &mut buf);
            counts.waiting += (0..cfg.channels).map(|ch| mc.queue_len(ch) as u64).sum::<u64>();
            counts.refused += offer(&mut mc, r, &mut buf);
        }
        mc.drain(&mut buf);
        counts.requests += c.dram.len() as u64;
        counts.stats.merge(&mc.stats());
    }
    counts
}

/// Chunk-processing time of open-loop runs of every capture with the
/// given telemetry, the rest of each cell's system unchanged.
pub fn time_batches(kind: PrefetcherKind, captures: &[Capture], telemetry: TelemetryConfig) -> u64 {
    let mut ns = 0;
    for c in captures {
        let sys = MemorySystem::new(SystemConfig { telemetry, ..c.system }, kind.build());
        let mut stream = c.trace.stream();
        let mut timed = TimedStream::new(&mut stream);
        black_box(sys.run_stream(&mut timed));
        ns += timed.batch_ns;
    }
    ns
}
