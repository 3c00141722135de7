//! Parallel experiment execution: a `std::thread::scope`-based
//! work-stealing cell runner.
//!
//! Every figure of the paper aggregates many independent
//! `(configuration × seed)` simulation runs — an embarrassingly parallel
//! sweep. This module executes such *cells* across N OS threads with a
//! shared work queue (an atomic cursor every idle worker steals the next
//! cell from, so long cells never serialize behind short ones) and merges
//! the results back **in submission order**, which makes the parallel
//! output bit-identical to a sequential loop: each cell is itself a
//! deterministic function of its seed, and nothing about scheduling order
//! can leak into the merged result.
//!
//! No external dependencies (rayon is unavailable offline); plain
//! `std::thread::scope` keeps borrows of the shared configuration alive
//! across workers without `Arc`.
//!
//! ## Thread-count resolution
//!
//! A [`crate::Run`] carries its worker count. [`default_threads`], its
//! default, is the `KOALA_THREADS` environment variable, else
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::config::ExperimentConfig;
use crate::report::SummaryReport;
use crate::run::Intake;

/// The number of worker threads a [`crate::Run`] uses unless it sets
/// its own: `KOALA_THREADS`, else the detected parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("KOALA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item across `threads` workers and returns the
/// results **in item order** (deterministic regardless of which worker
/// ran which item, or in what order they finished).
///
/// Work distribution is pull-based: workers repeatedly claim the next
/// unprocessed index from a shared atomic cursor, so an item that takes
/// 10× longer than the rest only ever occupies one worker. With
/// `threads <= 1` (or fewer than two items) the map degenerates to a
/// plain sequential loop on the calling thread — no worker threads are
/// spawned, which keeps the sequential reference path trivially
/// comparable in benchmarks.
///
/// # Panics
/// Propagates a panic from `f` (the first panicking worker's payload).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(&items[i])));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(done) => done,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    for (i, r) in chunks.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} ran twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every cell claimed exactly once"))
        .collect()
}

/// One unit of sweep work: a configuration run under one seed.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// The experiment configuration (shared, not cloned per cell).
    pub cfg: &'a ExperimentConfig,
    /// The seed this cell runs under (overrides `cfg.seed`).
    pub seed: u64,
}

/// Runs a batch of cells through the summary path on `threads`
/// workers, one report per cell in input order. Every cell runs cold: a
/// warm-fork cell runs its own prefix and switches its policies in
/// place at the fork time. This is the reference
/// [`run_cells_summary_warm`] must match.
///
/// # Panics
/// Panics on an invalid configuration.
pub fn run_cells_summary(cells: &[Cell<'_>], threads: usize) -> Vec<SummaryReport> {
    crate::run::drive_cells(cells, Intake::Eager, threads, false)
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"))
}

/// Warm-forked counterpart of [`run_cells_summary`], and what
/// [`crate::run()`] does with eager cells: cells whose configuration
/// carries a [`crate::config::WarmFork`] are grouped with the cells
/// they may share a prefix with — same seed, and equal in everything but
/// `name` and the policy pair. Each group's warmup prefix, the base
/// policy pair up to the fork time, runs **once**, and every cell of the
/// group then continues from an in-memory copy of the warmed world under
/// its own policies (the last cell continues the warmed world itself).
/// The output is bit-identical to [`run_cells_summary`] for any thread
/// count; the `clone_fork` suite enforces this byte-for-byte, against
/// the [`crate::Snapshot`] byte path too.
///
/// # Panics
/// Panics on an invalid configuration.
pub fn run_cells_summary_warm(cells: &[Cell<'_>], threads: usize) -> Vec<SummaryReport> {
    crate::run::drive_cells(cells, Intake::Eager, threads, true)
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::workload::WorkloadSpec;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_map(&items, threads, |&x| x * x);
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[41u32], 4, |&x| x + 1), vec![42]);
    }

    #[test]
    fn parallel_map_runs_every_item_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let out = parallel_map(&items, 7, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out, items);
    }

    #[test]
    #[should_panic(expected = "boom from worker")]
    fn parallel_map_propagates_worker_panics() {
        let items: Vec<u32> = (0..16).collect();
        parallel_map(&items, 4, |&x| {
            if x == 9 {
                panic!("boom from worker");
            }
            x
        });
    }

    #[test]
    fn seeded_sweep_is_identical_across_thread_counts() {
        let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
        cfg.workload.jobs = 8;
        let seeds = [3u64, 5, 8, 13];
        let sweep = |threads| -> Vec<crate::RunReport> {
            crate::run(&crate::Run::seeds(&cfg, &seeds).threads(threads)).unwrap()
        };
        let sequential = sweep(1);
        for threads in [2, 4] {
            let parallel = sweep(threads);
            assert_eq!(
                format!("{sequential:?}"),
                format!("{parallel:?}"),
                "threads={threads} diverged from sequential"
            );
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn warm_runner_matches_cold_runner_and_handles_mixed_batches() {
        use simcore::SimDuration;

        use crate::config::WarmFork;

        // Three warm-forked policy cells sharing one prefix, plus one
        // cell with no warm fork (the cold-fallback path).
        let mut cells_cfg: Vec<ExperimentConfig> = ["fpsma", "egs", "equipartition"]
            .iter()
            .map(|&m| {
                let mut cfg = ExperimentConfig::paper_pra(m, WorkloadSpec::wm());
                cfg.workload.jobs = 8;
                cfg.warm_fork = Some(WarmFork::at(SimDuration::from_secs(900)));
                cfg
            })
            .collect();
        let mut plain = ExperimentConfig::paper_pra("folding", WorkloadSpec::wm());
        plain.workload.jobs = 8;
        cells_cfg.push(plain);
        let cells: Vec<Cell<'_>> = cells_cfg.iter().map(|cfg| Cell { cfg, seed: 23 }).collect();
        let cold = run_cells_summary(&cells, 1);
        let cold_full: Vec<crate::RunReport> =
            crate::run::drive_cells(&cells, Intake::Eager, 1, false).unwrap();
        for threads in [1, 3] {
            let warm = run_cells_summary_warm(&cells, threads);
            assert_eq!(
                format!("{warm:?}"),
                format!("{cold:?}"),
                "threads={threads}: warm-forked sweep diverged from the cold sweep"
            );
            // Full reports group the same way.
            let run = crate::Run {
                cells: cells.clone(),
                intake: Intake::Eager,
                threads,
            };
            let warm_full: Vec<crate::RunReport> = crate::run(&run).unwrap();
            assert_eq!(
                format!("{warm_full:?}"),
                format!("{cold_full:?}"),
                "threads={threads}: warm-forked full reports diverged from the cold ones"
            );
        }
    }
}
