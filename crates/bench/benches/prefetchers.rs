//! Criterion micro-benchmarks: per-access cost of each prefetcher's
//! learning+issuing path (the hardware model's "pipeline" cost in
//! simulation time).

// criterion_group! emits undocumented `pub fn`s.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use planaria_sim::experiment::PrefetcherKind;
use planaria_trace::apps::{profile, AppId};

const TRACE_LEN: usize = 100_000;

fn bench_prefetchers(c: &mut Criterion) {
    let trace = profile(AppId::HoK).scaled(TRACE_LEN).build();
    let mut group = c.benchmark_group("prefetcher_on_access");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TRACE_LEN as u64));
    for kind in [
        PrefetcherKind::NextLine,
        PrefetcherKind::Stride,
        PrefetcherKind::Bop,
        PrefetcherKind::Spp,
        PrefetcherKind::SlpOnly,
        PrefetcherKind::TlpOnly,
        PrefetcherKind::Planaria,
    ] {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter(|| {
                let mut pf = kind.build();
                let mut out = Vec::new();
                let mut total = 0usize;
                for a in trace.iter() {
                    out.clear();
                    // Alternate hits/misses deterministically to exercise
                    // both the learning-only and issuing paths.
                    let hit = a.cycle.as_u64() % 3 == 0;
                    pf.on_access(a, hit, &mut out);
                    total += out.len();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prefetchers);
criterion_main!(benches);
