//! Integration tests for `planaria-serve`: the served execution model is
//! bit-identical to the batch closed loop, snapshots restore with exact
//! continuations, and results are independent of worker count.

use planaria_common::{json, AccessKind, Cycle, DeviceId, MemAccess, PhysAddr};
use planaria_serve::{DeviceSpec, Push, ServeConfig, ServedDevice, Service, SNAPSHOT_SCHEMA};
use planaria_sim::{MemorySystem, PrefetcherKind, TrafficConfig, TrafficModel};
use planaria_trace::apps::AppId;
use planaria_trace::Trace;

/// A small spec that exercises the full Planaria stack quickly.
fn spec(id: u64, app: AppId, length: usize) -> DeviceSpec {
    DeviceSpec::new(id, app).scaled(length)
}

/// Runs a device to completion the way the service does: ingest a round
/// quantum, pump a round quantum, repeat.
fn serve_to_completion(dev: &mut ServedDevice, ingest: usize, pump: usize) {
    while !dev.is_done() {
        dev.ingest(ingest);
        dev.pump(pump);
    }
}

#[test]
fn served_device_matches_batch_closed_loop_bit_identically() {
    let spec = spec(3, AppId::HoK, 4_000);

    // Batch: the existing TrafficModel closed loop over the same stream.
    let sys = MemorySystem::new(spec.system, spec.kind.build());
    let batch = TrafficModel::new(TrafficConfig::new(spec.window))
        .run_stream_telemetry(sys, &mut spec.workload().stream());

    // Served: same accesses through the mailbox in small awkward quanta.
    let mut dev = ServedDevice::from_spec(spec);
    serve_to_completion(&mut dev, 37, 113);
    let served = dev.into_report();

    assert_eq!(batch.0, served.result, "SimResult must be bit-identical");
    assert_eq!(batch.1, served.closed_loop, "closed-loop outcomes must be bit-identical");
    assert_eq!(batch.2, served.telemetry, "telemetry must be bit-identical");
}

#[test]
fn snapshot_restore_continues_bit_identically() {
    let spec = spec(11, AppId::Qsm, 3_000);

    // Reference: an uninterrupted served run.
    let mut uninterrupted = ServedDevice::from_spec(spec.clone());
    serve_to_completion(&mut uninterrupted, 256, 4_096);
    let reference = uninterrupted.into_report();

    // Interrupted: run ~half the session, snapshot, restore, finish.
    let mut original = ServedDevice::from_spec(spec.clone());
    original.ingest(1_500);
    original.quiesce();
    let doc = original.snapshot().expect("mid-session snapshot");
    assert!(doc.contains(SNAPSHOT_SCHEMA));

    let parsed = json::parse(&doc).expect("snapshot is valid JSON");
    let mut restored = ServedDevice::restore(&parsed, spec.system).expect("snapshot restores");
    assert_eq!(restored.consumed(), original.consumed(), "replay position restored");
    assert_eq!(restored.injected(), original.injected(), "simulated progress restored");

    serve_to_completion(&mut restored, 256, 4_096);
    let continued = restored.into_report();
    assert_eq!(reference, continued, "restored continuation must be bit-identical");

    // The interrupted original, continued in place, agrees too.
    serve_to_completion(&mut original, 256, 4_096);
    assert_eq!(&reference, original.report().unwrap());
}

#[test]
fn snapshot_after_eof_restores_the_eof_state() {
    let spec = spec(5, AppId::Pm, 500);
    let mut dev = ServedDevice::from_spec(spec.clone());
    // Consume the whole stream but keep the device unfinished by never
    // closing: ingest until the source latches eof.
    while dev.ingest(usize::MAX) > 0 {
        dev.quiesce();
    }
    dev.quiesce();
    if dev.is_done() {
        // Stream ends exactly at a mailbox boundary; nothing to snapshot.
        return;
    }
    let doc = dev.snapshot().expect("eof snapshot");
    let parsed = json::parse(&doc).unwrap();
    let restored = ServedDevice::restore(&parsed, spec.system).unwrap();
    assert_eq!(restored.consumed(), dev.consumed());
}

#[test]
fn worker_count_does_not_change_results() {
    let devices = |n: u64| -> Vec<ServedDevice> {
        (0..n)
            .map(|id| {
                let app = AppId::ALL[(id % AppId::ALL.len() as u64) as usize];
                let mut s = spec(id, app, 600);
                s.kind = PrefetcherKind::Planaria;
                ServedDevice::from_spec(s)
            })
            .collect()
    };

    let run = |workers: usize| {
        let cfg = ServeConfig { workers, keep_device_reports: true, ..ServeConfig::default() };
        Service::new(cfg).run(devices(24))
    };

    let one = run(1);
    let eight = run(8);
    assert_eq!(one.shards, eight.shards, "per-shard summaries must not depend on workers");
    assert_eq!(
        one.device_reports, eight.device_reports,
        "per-device reports must not depend on workers"
    );
    assert_eq!(one.devices(), 24);
    assert_eq!(one.total_accesses(), 24 * 600);
}

#[test]
fn mailbox_backpressure_never_drops_or_reorders() {
    let mut spec = spec(0, AppId::TikT, 2_000);
    spec.mailbox = 4; // aggressively small: constant backpressure

    // Batch reference over the identical access sequence.
    let workload = spec.workload();
    let sys = MemorySystem::new(spec.system, spec.kind.build());
    let batch = TrafficModel::new(TrafficConfig::new(spec.window))
        .run_stream_telemetry(sys, &mut workload.stream());

    // External producer: push every access, retrying on Full with tiny
    // pump budgets in between. If backpressure dropped or reordered
    // anything the final report could not be bit-identical.
    let trace = workload.build();
    let mut dev = ServedDevice::external(spec);
    let mut rejections = 0u64;
    for &a in trace.accesses() {
        loop {
            match dev.try_push(a) {
                Push::Accepted => break,
                Push::Full => {
                    rejections += 1;
                    dev.pump(16);
                }
            }
        }
    }
    dev.close_ingress();
    while !dev.is_done() {
        dev.pump(1_024);
    }
    let served = dev.into_report();

    assert!(rejections > 0, "mailbox of 4 must actually exert backpressure");
    assert_eq!(batch.0, served.result);
    assert_eq!(batch.1, served.closed_loop);
    assert_eq!(batch.2, served.telemetry);
}

#[test]
fn shard_telemetry_merge_conserves_lifecycle_counters() {
    let devices: Vec<ServedDevice> = (0..12)
        .map(|id| {
            let app = AppId::ALL[(id % AppId::ALL.len() as u64) as usize];
            ServedDevice::from_spec(spec(id, app, 800))
        })
        .collect();
    let cfg = ServeConfig { keep_device_reports: true, ..ServeConfig::default() };
    let report = Service::new(cfg).run(devices);
    assert_eq!(report.device_reports.len(), 12);

    // Summing any lifecycle counter over per-device reports must equal
    // the same counter in the shard-merged telemetry: merging conserves,
    // it never double-counts or loses.
    let merged = report.merged_telemetry();
    for origin in 0..3 {
        let issued: u64 =
            report.device_reports.iter().map(|r| r.telemetry.counters.issued[origin]).sum();
        let filled: u64 =
            report.device_reports.iter().map(|r| r.telemetry.counters.filled[origin]).sum();
        let used: u64 =
            report.device_reports.iter().map(|r| r.telemetry.counters.used[origin]).sum();
        let evicted: u64 =
            report.device_reports.iter().map(|r| r.telemetry.counters.evicted_unused[origin]).sum();
        let late: u64 =
            report.device_reports.iter().map(|r| r.telemetry.counters.late[origin]).sum();
        assert_eq!(merged.counters.issued[origin], issued);
        assert_eq!(merged.counters.filled[origin], filled);
        assert_eq!(merged.counters.used[origin], used);
        assert_eq!(merged.counters.evicted_unused[origin], evicted);
        assert_eq!(merged.counters.late[origin], late);
    }
    assert!(
        merged.counters.issued.iter().sum::<u64>() > 0,
        "Planaria devices must actually issue prefetches in this workload"
    );
}

#[test]
fn closed_loop_merge_storm_retires_every_waiter_at_its_fill() {
    // cpu0 misses on block 0 and next-line prefetches block 1; three
    // demands from two other requestors then merge into that in-flight
    // prefetch (the first turns it into a late demand fill, the third
    // spills past the fill's inline waiter slots).
    let at = |block: u64, device, cycle| {
        MemAccess::new(PhysAddr::new(block * 64), AccessKind::Read, device, Cycle::new(cycle))
    };
    let accesses = vec![
        at(0, DeviceId::Cpu(0), 0),
        at(1, DeviceId::Cpu(1), 1),
        at(1, DeviceId::Gpu, 2),
        at(1, DeviceId::Cpu(1), 3),
    ];
    let mut spec = spec(0, AppId::HoK, accesses.len());
    spec.kind = PrefetcherKind::NextLine;
    spec.window = 4;
    let hit_latency = spec.system.sc_hit_latency as f64;

    let sys = MemorySystem::new(spec.system, spec.kind.build());
    let label = spec.workload().abbr;
    let batch = TrafficModel::new(TrafficConfig::new(spec.window))
        .run_stream_telemetry(sys, &mut Trace::new(label, accesses.clone()).stream());

    let mut dev = ServedDevice::external(spec);
    for &a in &accesses {
        assert_eq!(dev.try_push(a), Push::Accepted);
    }
    dev.close_ingress();
    while !dev.is_done() {
        dev.pump(1);
    }
    let served = dev.into_report();
    assert_eq!(batch.0, served.result);
    assert_eq!(batch.1, served.closed_loop);
    assert_eq!(batch.2, served.telemetry);
    assert_eq!(served.result.late_prefetches, 1, "the first merge met an in-flight prefetch");
    assert_eq!(served.result.traffic.demand_reads, 1, "block 1 was never fetched twice");

    // No device was window-stalled, so every demand injected at its
    // recorded cycle and paid `hit latency + fill finish - arrival`. Each
    // device's demands wait on one fill, with mean arrival 0 (cpu0) or 2
    // (cpu1 at 1 and 3, gpu at 2); inverting its AMAT gives that fill's
    // finish, which must be exactly where its last request completed.
    for (device, mean_arrival) in
        [(DeviceId::Cpu(0), 0.0), (DeviceId::Cpu(1), 2.0), (DeviceId::Gpu, 2.0)]
    {
        let stat = served.result.device_stats.iter().find(|s| s.device == device.label());
        let outcome = served.closed_loop.devices.iter().find(|o| o.device == device.label());
        let (stat, outcome) = (stat.expect("device stat"), outcome.expect("device outcome"));
        let fill_finish = stat.amat_cycles + mean_arrival - hit_latency;
        assert_eq!(outcome.derived_finish as f64, fill_finish, "{}", device.label());
    }
    let finish = |d: DeviceId| {
        served.closed_loop.devices.iter().find(|o| o.device == d.label()).map(|o| o.derived_finish)
    };
    assert_eq!(finish(DeviceId::Cpu(1)), finish(DeviceId::Gpu), "one fill released both");
}
