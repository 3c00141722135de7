//! Microbenchmark of event-queue push/pop throughput at one million
//! events — an order of magnitude above the largest case in
//! `benches/engine.rs`, where heap depth (~20 comparisons per operation)
//! and allocation strategy start to dominate. The fill-drain case runs
//! pre-sized (`with_capacity`) and growing from empty to expose the
//! incremental-reallocation cost the experiment driver avoids.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use simcore::{EventQueue, SimRng, SimTime};
use std::hint::black_box;

const N: usize = 1_000_000;

fn times() -> Vec<SimTime> {
    let mut rng = SimRng::seed_from_u64(42);
    (0..N)
        .map(|_| SimTime::from_millis(rng.u64_below(100_000_000)))
        .collect()
}

fn push_pop_1m(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_1m");
    g.throughput(Throughput::Elements(N as u64));
    let times = times();
    g.bench_function("push_pop_random_presized", |b| {
        b.iter_batched(
            || times.clone(),
            |times| {
                let mut q = EventQueue::with_capacity(N);
                for (i, t) in times.into_iter().enumerate() {
                    q.push(t, i as u64);
                }
                let mut acc = 0u64;
                while let Some((_, e)) = q.pop() {
                    acc = acc.wrapping_add(e);
                }
                black_box(acc)
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("push_pop_random_growing", |b| {
        b.iter_batched(
            || times.clone(),
            |times| {
                let mut q = EventQueue::new();
                for (i, t) in times.into_iter().enumerate() {
                    q.push(t, i as u64);
                }
                let mut acc = 0u64;
                while let Some((_, e)) = q.pop() {
                    acc = acc.wrapping_add(e);
                }
                black_box(acc)
            },
            BatchSize::LargeInput,
        );
    });
    // The simulator's steady-state pattern: a bounded in-flight window
    // sliding forward in time (pop one, push one) rather than fill-drain.
    g.bench_function("sliding_window_4k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(4096);
            let mut rng = SimRng::seed_from_u64(7);
            for i in 0..4096u64 {
                q.push(SimTime::from_millis(rng.u64_below(1_000)), i);
            }
            let mut acc = 0u64;
            for i in 0..N as u64 {
                let (t, e) = q.pop().expect("window never empties");
                acc = acc.wrapping_add(e);
                q.push(
                    t + simcore::SimDuration::from_millis(1 + rng.u64_below(1_000)),
                    i,
                );
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group!(benches, push_pop_1m);
criterion_main!(benches);
