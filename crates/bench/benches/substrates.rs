//! Criterion micro-benchmarks of the substrates: system-cache operations
//! and the LPDDR4 controller's command pipeline.

// criterion_group! emits undocumented `pub fn`s.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use planaria_cache::{CacheConfig, SetAssocCache};
use planaria_common::{AccessKind, Cycle, PhysAddr, BLOCK_SIZE};
use planaria_dram::{DramConfig, MemoryController, Priority};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: usize = 50_000;

fn bench_cache(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let addrs: Vec<PhysAddr> =
        (0..OPS).map(|_| PhysAddr::new(rng.gen_range(0..1u64 << 24) * BLOCK_SIZE)).collect();
    let mut group = c.benchmark_group("system_cache");
    group.sample_size(20);
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("access_fill_mix", |b| {
        b.iter(|| {
            let mut sc = SetAssocCache::new(CacheConfig::system_cache());
            let mut hits = 0u64;
            for &a in &addrs {
                if sc.access(a, AccessKind::Read).is_hit() {
                    hits += 1;
                } else {
                    sc.fill(a, None);
                }
            }
            hits
        })
    });
    group.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let reqs: Vec<(PhysAddr, bool, u64)> = (0..OPS)
        .map(|i| {
            (
                PhysAddr::new(rng.gen_range(0..1u64 << 22) * BLOCK_SIZE),
                rng.gen_bool(0.2),
                i as u64 * 20,
            )
        })
        .collect();
    let mut group = c.benchmark_group("lpddr4_controller");
    group.sample_size(20);
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("enqueue_advance_drain", |b| {
        b.iter(|| {
            let mut mc = MemoryController::new(DramConfig::lpddr4());
            let mut buf = Vec::new();
            let mut done = 0usize;
            for &(addr, is_write, at) in &reqs {
                let now = Cycle::new(at);
                mc.advance_to(now, &mut buf);
                done += buf.len();
                let prio = if is_write { Priority::Writeback } else { Priority::Demand };
                let _ = mc.try_enqueue(addr, is_write, prio, now);
            }
            mc.drain(&mut buf);
            done + buf.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cache, bench_dram);
criterion_main!(benches);
