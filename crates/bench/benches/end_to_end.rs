//! Criterion end-to-end benchmark: the full memory-system simulation
//! (trace → SC → prefetcher → LPDDR4) per evaluated prefetcher — the
//! figure-regeneration workhorse, measured.

// criterion_group! emits undocumented `pub fn`s.
#![allow(missing_docs)]

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use planaria_sim::experiment::{run_trace, PrefetcherKind};
use planaria_sim::runner::{Job, Runner, TraceSource};
use planaria_trace::apps::{profile, AppId};

const TRACE_LEN: usize = 100_000;

fn bench_end_to_end(c: &mut Criterion) {
    let trace = profile(AppId::Cfm).scaled(TRACE_LEN).build();
    let mut group = c.benchmark_group("full_system");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TRACE_LEN as u64));
    for kind in PrefetcherKind::FIGURE_SET {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter(|| run_trace(&trace, kind).hit_rate)
        });
    }
    group.finish();
}

/// The Figure 7 grid (FIGURE_SET over one shared trace) through the
/// parallel Runner at increasing worker counts — the speedup figure the
/// harness binaries' `--threads` flag rides on.
fn bench_parallel_grid(c: &mut Criterion) {
    let trace = Arc::new(profile(AppId::Cfm).scaled(TRACE_LEN).build());
    let kinds = PrefetcherKind::FIGURE_SET;
    let mut group = c.benchmark_group("parallel_grid");
    group.sample_size(10);
    group.throughput(Throughput::Elements((TRACE_LEN * kinds.len()) as u64));
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut threads: Vec<usize> = [1usize, 2, 4, 8].into_iter().filter(|&t| t <= cores).collect();
    if threads.is_empty() {
        threads.push(1);
    }
    for t in threads {
        group.bench_function(BenchmarkId::from_parameter(format!("{t}thr")), |b| {
            b.iter(|| {
                let jobs: Vec<Job> = kinds
                    .iter()
                    .map(|&k| Job::new(k.label(), TraceSource::Shared(Arc::clone(&trace)), k))
                    .collect();
                Runner::new(t).run(jobs).total_sim_cycles()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end, bench_parallel_grid);
criterion_main!(benches);
