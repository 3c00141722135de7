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
//! [`default_threads`] resolves, in order:
//!
//! 1. a process-wide override installed with [`set_thread_override`]
//!    (the figure binaries wire their `--threads` flag to this);
//! 2. the `KOALA_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::config::ExperimentConfig;
use crate::report::{MultiReport, MultiSummary, RunReport, SummaryReport};

static THREAD_OVERRIDE: OnceLock<usize> = OnceLock::new();

/// Installs a process-wide thread-count override (first caller wins, as
/// with any [`OnceLock`]). Used by the binaries' `--threads` flag; takes
/// precedence over `KOALA_THREADS` and the detected parallelism.
pub fn set_thread_override(threads: usize) {
    let _ = THREAD_OVERRIDE.set(threads.max(1));
}

/// The number of worker threads sweeps use unless a call site passes an
/// explicit count. See the module docs for the resolution order.
pub fn default_threads() -> usize {
    if let Some(&n) = THREAD_OVERRIDE.get() {
        return n;
    }
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

/// Runs a batch of cells across `threads` workers, returning one report
/// per cell in input order. This is the single execution pathway behind
/// [`crate::run_seeds`] and the figure binaries: cross-configuration
/// sweeps flatten all their `(config, seed)` pairs into one batch so a
/// slow configuration's seeds can run while a fast one's finish.
///
/// # Panics
/// Panics on an invalid configuration, like [`crate::run_experiment`].
pub fn run_cells(cells: &[Cell<'_>], threads: usize) -> Vec<RunReport> {
    parallel_map(cells, threads, |cell| {
        crate::sim::run_experiment_seeded(cell.cfg, cell.seed)
    })
}

/// Runs `cfg` once per seed on `threads` workers and aggregates the
/// reports in **seed order** — bit-identical to the sequential loop for
/// any thread count.
pub fn run_seeds_with_threads(
    cfg: &ExperimentConfig,
    seeds: &[u64],
    threads: usize,
) -> MultiReport {
    let cells: Vec<Cell<'_>> = seeds.iter().map(|&seed| Cell { cfg, seed }).collect();
    MultiReport::new(cfg.name.clone(), run_cells(&cells, threads))
}

/// Single-threaded reference implementation of [`crate::run_seeds`]:
/// the baseline the determinism tests compare the parallel runner
/// against.
pub fn run_seeds_sequential(cfg: &ExperimentConfig, seeds: &[u64]) -> MultiReport {
    run_seeds_with_threads(cfg, seeds, 1)
}

/// Summarized counterpart of [`run_cells`]: each cell runs through the
/// memory-bounded summary path, one [`SummaryReport`] per cell in input
/// order. This is what makes 1000+-cell matrices feasible — the merged
/// result holds streaming accumulators, never per-job tables.
///
/// # Panics
/// Panics on an invalid configuration, like [`crate::run_experiment`].
pub fn run_cells_summary(cells: &[Cell<'_>], threads: usize) -> Vec<SummaryReport> {
    parallel_map(cells, threads, |cell| {
        crate::sim::run_experiment_summary_seeded(cell.cfg, cell.seed)
    })
}

/// Warm-forked counterpart of [`run_cells_summary`]: cells whose
/// configuration carries a [`crate::config::WarmFork`] are grouped with
/// the cells they may share a prefix with — same seed, and equal in
/// everything but `name` and the policy pair. Each group's warmup
/// prefix, the base policy pair up to the fork time, runs **once**, and
/// every cell of the group then continues from an in-memory copy of the
/// warmed world under its own policies (the last cell continues the
/// warmed world itself). Cells without a warm fork run cold.
///
/// Each group is one task on the work-stealing [`parallel_map`], and
/// results come back in input order — the output is bit-identical to
/// [`run_cells_summary`] for any thread count (the cold path runs the
/// identical prefix and switches policies at the identical boundary;
/// the `clone_fork` suite enforces this byte-for-byte, against the
/// [`crate::Snapshot`] byte path too).
///
/// # Panics
/// Panics on an invalid configuration, like [`run_cells`].
pub fn run_cells_summary_warm(cells: &[Cell<'_>], threads: usize) -> Vec<SummaryReport> {
    use std::collections::HashMap;

    use crate::snapshot::fork_key;

    // Phase 0 (cheap, sequential): one task per warm group or cold
    // cell. A warm cell joins the first group with its seed, fork key
    // and trace — everything except name and policy pair.
    let mut tasks: Vec<Vec<usize>> = Vec::new();
    let mut groups: HashMap<(u64, String), Vec<usize>> = HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        if cell.cfg.warm_fork.is_none() {
            tasks.push(vec![i]);
            continue;
        }
        let same_key = groups.entry((cell.seed, fork_key(cell.cfg))).or_default();
        match same_key
            .iter()
            .find(|&&t| cells[tasks[t][0]].cfg.trace == cell.cfg.trace)
        {
            Some(&t) => tasks[t].push(i),
            None => {
                same_key.push(tasks.len());
                tasks.push(vec![i]);
            }
        }
    }
    // Phase 1: every task, in parallel.
    let runs = parallel_map(&tasks, threads, |idxs| {
        let cfgs: Vec<&ExperimentConfig> = idxs.iter().map(|&i| cells[i].cfg).collect();
        let seed = cells[idxs[0]].seed;
        match cfgs[0].warm_fork {
            Some(_) => warm_group_summaries(&cfgs, seed),
            None => vec![crate::sim::run_experiment_summary_seeded(cfgs[0], seed)],
        }
    });
    let mut out: Vec<Option<SummaryReport>> = Vec::with_capacity(cells.len());
    out.resize_with(cells.len(), || None);
    for (idxs, reports) in tasks.iter().zip(runs) {
        for (&i, report) in idxs.iter().zip(reports) {
            out[i] = Some(report);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every cell belongs to exactly one task"))
        .collect()
}

/// One warm group of [`run_cells_summary_warm`]: runs the shared prefix
/// of `cfgs` under `seed` once, then forks it into every configuration,
/// returning their summaries in order.
fn warm_group_summaries(cfgs: &[&ExperimentConfig], seed: u64) -> Vec<SummaryReport> {
    use simcore::SimTime;

    for cfg in cfgs {
        if let Err(e) = cfg.validate() {
            panic!("invalid experiment configuration `{}`: {e}", cfg.name);
        }
    }
    // The warmed world is built on the last cell's configuration, so
    // after the other cells have forked from copies of it, switching its
    // policies back makes it that cell.
    let (&last, forks) = cfgs.split_last().expect("groups are non-empty");
    let wf = last.warm_fork.as_ref().expect("grouped on a warm fork");
    let mut engine = crate::sim::engine_for(last);
    let mut world = crate::World::for_seed_summarized(last, seed);
    world
        .use_policies(&wf.base_placement, &wf.base_malleability)
        .expect("validated policies resolve");
    world.bootstrap(&mut engine);
    world.run_until(&mut engine, SimTime::ZERO + wf.at);
    let mut out: Vec<SummaryReport> = forks
        .iter()
        .map(|cfg| world.fork_clone(cfg).resume_to_summary(&mut engine.clone()))
        .collect();
    world
        .use_policies(&last.sched.placement, &last.sched.malleability)
        .expect("validated policies resolve");
    out.push(world.resume_to_summary(&mut engine));
    out
}

/// Summarized counterpart of [`run_seeds_with_threads`]: aggregates the
/// per-seed summaries in **seed order**, so the result is bit-identical
/// to [`run_seeds_summary_sequential`] for any thread count (each cell
/// is a deterministic function of its seed, and the streaming
/// accumulators merge in a fixed order).
pub fn run_seeds_summary_with_threads(
    cfg: &ExperimentConfig,
    seeds: &[u64],
    threads: usize,
) -> MultiSummary {
    let cells: Vec<Cell<'_>> = seeds.iter().map(|&seed| Cell { cfg, seed }).collect();
    MultiSummary::new(cfg.name.clone(), run_cells_summary(&cells, threads))
}

/// Single-threaded reference implementation of
/// [`crate::run_seeds_summary`].
pub fn run_seeds_summary_sequential(cfg: &ExperimentConfig, seeds: &[u64]) -> MultiSummary {
    run_seeds_summary_with_threads(cfg, seeds, 1)
}

/// **Streamed** counterpart of [`run_seeds_summary_with_threads`]: each
/// cell opens its own job stream from the configuration's workload — an
/// explicit trace first, else the named generator (`cfg.generator`) —
/// and runs through the bounded-memory streaming intake (look-ahead
/// `lookahead`). Cells are independent — each worker owns its stream —
/// so the merged result is bit-identical to the sequential loop for any
/// thread count.
///
/// # Panics
/// Panics when the configuration has neither trace nor generator, like
/// [`crate::sim::run_generator_summary_seeded`].
pub fn run_seeds_stream_summary_with_threads(
    cfg: &ExperimentConfig,
    seeds: &[u64],
    threads: usize,
    lookahead: usize,
) -> MultiSummary {
    let runs = parallel_map(seeds, threads, |&seed| {
        crate::sim::run_generator_summary_seeded(cfg, seed, lookahead)
    });
    MultiSummary::new(cfg.name.clone(), runs)
}

/// Single-threaded reference implementation of
/// [`run_seeds_stream_summary_with_threads`].
pub fn run_seeds_stream_summary_sequential(
    cfg: &ExperimentConfig,
    seeds: &[u64],
    lookahead: usize,
) -> MultiSummary {
    run_seeds_stream_summary_with_threads(cfg, seeds, 1, lookahead)
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
        let sequential = run_seeds_sequential(&cfg, &seeds);
        for threads in [2, 4] {
            let parallel = run_seeds_with_threads(&cfg, &seeds, threads);
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
        for threads in [1, 3] {
            let warm = run_cells_summary_warm(&cells, threads);
            assert_eq!(
                format!("{warm:?}"),
                format!("{cold:?}"),
                "threads={threads}: warm-forked sweep diverged from the cold sweep"
            );
        }
    }
}
