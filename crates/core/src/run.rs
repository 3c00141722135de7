//! The one run entry point, [`run()`], and its private driver.

use std::collections::HashMap;

use appsim::generate::{JobStream, SliceStream, WorkloadRegistry};
use simcore::{Engine, SimTime};

use crate::config::{ConfigError, ExperimentConfig};
use crate::parallel::{default_threads, parallel_map, Cell};
use crate::report::{MultiReport, MultiSummary, ReportMode, RunReport, SummaryReport};
use crate::sim::{engine_for, Ev, World};
use crate::snapshot::fork_key;

/// A batch of runs: the cells, the intake their jobs come through, and
/// the worker count. Reports come back in cell order, bit-identical for
/// any thread count.
#[derive(Debug, Clone)]
pub struct Run<'a> {
    /// The `(configuration, seed)` cells to run.
    pub cells: Vec<Cell<'a>>,
    /// How each cell's jobs arrive.
    pub intake: Intake,
    /// Worker threads sharing the cells.
    pub threads: usize,
}

/// How a run's jobs arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intake {
    /// The whole workload is materialized and scheduled up front.
    Eager,
    /// The configuration's trace, else its generator, is streamed
    /// through a window of at most `lookahead` scheduled arrivals, and
    /// jobs are retired at their terminal phase: memory is bounded by
    /// the in-flight job count. Summary reports only.
    Streamed {
        /// Arrivals scheduled ahead of simulated time.
        lookahead: usize,
    },
}

impl<'a> Run<'a> {
    /// One cell: `cfg` under its own seed.
    pub fn cell(cfg: &'a ExperimentConfig) -> Self {
        Self::seeds(cfg, &[cfg.seed])
    }

    /// `cfg` once per seed.
    pub fn seeds(cfg: &'a ExperimentConfig, seeds: &[u64]) -> Self {
        Self::matrix(std::slice::from_ref(cfg), seeds)
    }

    /// Every configuration once per seed, configuration-major: the
    /// reports of `cfgs[i]` are `seeds.len()` consecutive entries. One
    /// work-stealing pool runs them all, so a slow configuration's seeds
    /// overlap with a fast one's.
    pub fn matrix(cfgs: &'a [ExperimentConfig], seeds: &[u64]) -> Self {
        Run {
            cells: cfgs
                .iter()
                .flat_map(|cfg| seeds.iter().map(move |&seed| Cell { cfg, seed }))
                .collect(),
            intake: Intake::Eager,
            threads: default_threads(),
        }
    }

    /// Runs on `threads` workers instead of
    /// [`default_threads`](crate::parallel::default_threads).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Streams each cell's jobs with the given look-ahead
    /// ([`Intake::Streamed`]).
    pub fn streamed(mut self, lookahead: usize) -> Self {
        self.intake = Intake::Streamed { lookahead };
        self
    }
}

/// The report a run produces: [`SummaryReport`] (memory-bounded
/// accumulators) or [`RunReport`] (that summary plus job tables and step
/// series).
pub trait Report: Send + Sized + sealed::Sealed {
    /// The collector a world reporting `Self` is built with.
    const MODE: ReportMode;
    /// One configuration's reports across seeds ([`MultiReport`] or
    /// [`MultiSummary`]).
    type Multi;
    /// Finalizes a finished world.
    fn finish(world: World<'_>, engine: &Engine<Ev>) -> Self;
    /// Aggregates one configuration's reports, in seed order.
    fn aggregate(name: String, runs: Vec<Self>) -> Self::Multi;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::report::RunReport {}
    impl Sealed for crate::report::SummaryReport {}
}

impl Report for RunReport {
    const MODE: ReportMode = ReportMode::Full;
    type Multi = MultiReport;
    fn finish(world: World<'_>, engine: &Engine<Ev>) -> Self {
        world.finish(engine)
    }
    fn aggregate(name: String, runs: Vec<Self>) -> MultiReport {
        MultiReport::new(name, runs)
    }
}

impl Report for SummaryReport {
    const MODE: ReportMode = ReportMode::Summarized;
    type Multi = MultiSummary;
    fn finish(world: World<'_>, engine: &Engine<Ev>) -> Self {
        world.finish_summary(engine)
    }
    fn aggregate(name: String, runs: Vec<Self>) -> MultiSummary {
        MultiSummary::new(name, runs)
    }
}

/// Runs every cell of `run` and returns one report per cell, in cell
/// order, bit-identical for any thread count. The report type `R` picks
/// the collector.
///
/// Every run goes through one driver: validate, build the world, run
/// the warm-fork prefix when the configuration has one, pump the events
/// and finish the report. Eager cells that can share a warm-fork prefix
/// form one group: the prefix runs once, and every other cell of the
/// group continues from an in-memory copy of the warmed world. A lone
/// cell switches its policies in place at the fork time.
///
/// Every configuration is validated before anything runs; a bad one is
/// a typed [`ConfigError`], not a panic. A streamed run needs a trace or
/// a generator ([`ConfigError::MissingGenerator`]) and reports
/// summaries only ([`ConfigError::StreamedFullReport`]).
///
/// ```
/// use appsim::workload::WorkloadSpec;
/// use koala::{ExperimentConfig, Run, SummaryReport};
///
/// let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
/// cfg.workload.jobs = 10;
/// let run = Run::seeds(&cfg, &[1, 2]).threads(2);
/// let reports: Vec<SummaryReport> = koala::run(&run).unwrap();
/// assert_eq!(reports.len(), 2);
/// ```
pub fn run<R: Report>(run: &Run<'_>) -> Result<Vec<R>, ConfigError> {
    drive_cells(&run.cells, run.intake, run.threads, true)
}

/// Validates `cells`, then runs them on `threads` workers, in cell
/// order. With `warm`, eager cells that can share a warm-fork prefix
/// form one group: same seed, same trace, and equal in everything but
/// `name` and the policy pair. Without it, every cell is its own group.
pub(crate) fn drive_cells<R: Report>(
    cells: &[Cell<'_>],
    intake: Intake,
    threads: usize,
    warm: bool,
) -> Result<Vec<R>, ConfigError> {
    let streamed = intake != Intake::Eager;
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 && std::ptr::eq(cells[i - 1].cfg, cell.cfg) {
            continue;
        }
        if streamed && cell.cfg.trace.is_none() && cell.cfg.generator.is_none() {
            return Err(ConfigError::MissingGenerator);
        }
        cell.cfg.validate()?;
    }
    if let Intake::Streamed { lookahead } = intake {
        if R::MODE == ReportMode::Full {
            return Err(ConfigError::StreamedFullReport);
        }
        return Ok(parallel_map(cells, threads, |cell| {
            let cfg = cell.cfg;
            let mut stream: Box<dyn JobStream + '_> = match (&cfg.trace, &cfg.generator) {
                (Some(trace), _) => Box::new(SliceStream::new(trace)),
                (None, name) => WorkloadRegistry::global()
                    .source(name.as_deref().expect("checked before the run"))
                    .expect("validated sources resolve")
                    .stream(cell.seed, cfg.workload.jobs as u64),
            };
            stream_cell(cfg, cell.seed, stream.as_mut(), lookahead)
        }));
    }
    if !warm {
        return Ok(parallel_map(cells, threads, |cell| {
            eager_group(&[cell.cfg], cell.seed, &mut Vec::new())
        }));
    }
    // One task per group: a warm cell joins the first group with its
    // seed, fork key and trace.
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
    let runs = parallel_map(&tasks, threads, |idxs| {
        let cfgs: Vec<&ExperimentConfig> = idxs.iter().map(|&i| cells[i].cfg).collect();
        let mut out = Vec::with_capacity(cfgs.len());
        let last = eager_group(&cfgs, cells[idxs[0]].seed, &mut out);
        out.push(last);
        out
    });
    let mut out: Vec<Option<R>> = cells.iter().map(|_| None).collect();
    for (idxs, reports) in tasks.iter().zip(runs) {
        for (&i, report) in idxs.iter().zip(reports) {
            out[i] = Some(report);
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect())
}

/// Runs one eager group under `seed`: the world is built on the last
/// configuration, and the others fork from its warmed prefix, their
/// reports pushed to `forks_out` in order. Returns the last cell's.
fn eager_group<R: Report>(cfgs: &[&ExperimentConfig], seed: u64, forks_out: &mut Vec<R>) -> R {
    let (&last, forks) = cfgs.split_last().expect("groups are non-empty");
    let mut engine = engine_for(last);
    let world = World::for_seed_with_mode(last, seed, R::MODE);
    drive(last, world, &mut engine, forks, forks_out)
}

/// Runs one configuration over a job stream.
fn stream_cell<R: Report>(
    cfg: &ExperimentConfig,
    seed: u64,
    stream: &mut dyn JobStream,
    lookahead: usize,
) -> R {
    let horizon = cfg.horizon.map(|h| SimTime::ZERO + h);
    let cap = lookahead.max(1) * 2 + 64;
    let mut engine = Engine::configured(cfg.sched.event_queue, horizon, cap);
    let world = World::for_stream_summarized(cfg, seed, stream, lookahead);
    drive(cfg, world, &mut engine, &[], &mut Vec::new())
}

/// The driver's core, for a world built on `cfg`. Without a warm fork it
/// runs cold. With one, it runs the base policy pair up to the fork
/// time, forks a copy of the warmed world into each of `forks` (their
/// reports pushed to `forks_out`), then switches the world itself to
/// `cfg`'s policies and runs the tail.
fn drive<R: Report>(
    cfg: &ExperimentConfig,
    mut world: World<'_>,
    engine: &mut Engine<Ev>,
    forks: &[&ExperimentConfig],
    forks_out: &mut Vec<R>,
) -> R {
    debug_assert!(forks.is_empty() || cfg.warm_fork.is_some());
    if let Some(wf) = &cfg.warm_fork {
        world
            .use_policies(&wf.base_placement, &wf.base_malleability)
            .expect("validated policies resolve");
        world.bootstrap(engine);
        world.run_until(engine, SimTime::ZERO + wf.at);
        for fork in forks {
            forks_out.push(world.fork_clone(fork).run_to_end(&mut engine.clone()));
        }
        world
            .use_policies(&cfg.sched.placement, &cfg.sched.malleability)
            .expect("validated policies resolve");
    }
    world.run_to_end(engine)
}

/// Runs one configuration over an **externally supplied job stream**
/// through the streaming intake: at most `lookahead` arrivals are
/// scheduled ahead of simulated time, jobs are dropped from memory at
/// their terminal phase, and the report is the memory-bounded summary.
/// `cfg.workload`/`cfg.trace`/`cfg.generator` are ignored; the stream
/// *is* the workload. The stream is borrowed so the caller can inspect
/// it afterwards — for an [`appsim::swf::SwfJobStream`], check
/// [`error()`](appsim::swf::SwfJobStream::error) after the run, or a
/// truncating parse failure would be indistinguishable from a shorter
/// trace.
///
/// # Panics
/// Panics on an invalid configuration. Use [`try_run_stream_summary`]
/// for a `Result`-shaped error path.
pub fn run_stream_summary(
    cfg: &ExperimentConfig,
    seed: u64,
    stream: &mut dyn JobStream,
    lookahead: usize,
) -> SummaryReport {
    try_run_stream_summary(cfg, seed, stream, lookahead)
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"))
}

/// [`run_stream_summary`] with a `Result`-shaped error path. Validates
/// the configuration's substrate half — scheduler, topology, report,
/// elasticity, warm fork and network — but not its workload: the stream
/// *is* the workload.
pub fn try_run_stream_summary(
    cfg: &ExperimentConfig,
    seed: u64,
    stream: &mut dyn JobStream,
    lookahead: usize,
) -> Result<SummaryReport, ConfigError> {
    cfg.validate_substrate()?;
    Ok(stream_cell(cfg, seed, stream, lookahead))
}
