//! The three workloads. Each is a deterministic sequence of *tasks*
//! built from the run's seed; a task is one call into a public runner
//! (one paper cell, one streamed trace, one seed's fork group). The
//! first [`Workload::round_len`] tasks form the *reference round*: the
//! traced pass runs exactly these, the output digest covers them, and
//! the untimed cross-checks compare against them.

use std::sync::Arc;

use appsim::generate::{WorkloadRegistry, WorkloadSource};
use appsim::workload::{SubmittedJob, WorkloadSpec};
use koala::config::{ExperimentConfig, RetryConfig};
use koala::parallel::{parallel_map, run_cells_summary, run_cells_summary_warm, Cell};
use koala::report::SummaryReport;
use koala::scenario::Scenario;
use koala::sim::World;
use koala_bench::{figure_matrix, PaperFigure};
use multicluster::{
    BackgroundLoad, ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec, FlakyChannelSpec,
};
use simcore::{Engine, SimDuration, SimTime};

use crate::spans::{ns_since, SelfTimer, Spans, TimedStream, UnitClock};

/// The workloads, by their command-line names.
pub const NAMES: [&str; 3] = ["paper_sweep", "trace_stream", "subsystems_fork"];

/// Streaming look-ahead window of `trace_stream`.
pub const LOOKAHEAD: usize = 1024;

/// Jobs pulled per `trace_stream` unit sample.
pub const JOBS_PER_UNIT: u64 = 1000;

/// Workload sizes. [`Plan::standard`] is what the benchmark measures;
/// [`Plan::tiny`] keeps the repeatability test fast.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Jobs per paper cell.
    pub paper_jobs: usize,
    /// Seeds per paper reference round (each seed runs all 8 cells).
    pub paper_seeds: usize,
    /// Jobs per streamed trace.
    pub trace_jobs: u64,
    /// Traces per reference round.
    pub trace_round: usize,
    /// Jobs per fork group's staged trace.
    pub fork_jobs: usize,
    /// Fork groups per reference round.
    pub fork_round: usize,
    /// Fork groups materialised up front (tasks cycle through them).
    pub fork_pool: usize,
    /// Fork groups re-run cold to check warm == cold.
    pub fork_cold_sample: usize,
}

impl Plan {
    /// The measured sizes.
    pub fn standard() -> Self {
        Plan {
            paper_jobs: 300,
            paper_seeds: 4,
            trace_jobs: 40_000,
            trace_round: 4,
            fork_jobs: 120,
            fork_round: 8,
            fork_pool: 256,
            fork_cold_sample: 2,
        }
    }

    /// Minimal sizes that still exercise every layer.
    pub fn tiny() -> Self {
        Plan {
            paper_jobs: 12,
            paper_seeds: 1,
            trace_jobs: 2_500,
            trace_round: 1,
            fork_jobs: 16,
            fork_round: 2,
            fork_pool: 2,
            fork_cold_sample: 1,
        }
    }
}

/// SplitMix64 of `seed` and `i`: the seed of task (or group) `i`.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one untraced task produced.
pub struct TaskOut {
    /// One summary per simulated cell, in runner order.
    pub summaries: Vec<SummaryReport>,
    /// Unit samples (ns) the task timed itself; empty when the caller
    /// times the whole task as one unit.
    pub samples_ns: Vec<u64>,
}

/// One benchmark workload, set up and ready to run.
pub trait Workload {
    /// Tasks in the reference round.
    fn round_len(&self) -> usize;

    /// Jobs every summary of task `i` must report as submitted.
    fn expected_jobs(&self, i: usize) -> u64;

    /// Runs task `i` through the public runners, untraced, on one thread.
    fn run_task(&self, i: usize) -> Result<TaskOut, String>;

    /// Runs the whole reference round as one batch on the parallel
    /// runner with `threads` workers; summaries in task order.
    fn run_round(&self, threads: usize) -> Vec<SummaryReport>;

    /// Runs task `i` with spans around every public call it makes.
    fn run_task_traced(&self, i: usize, spans: &mut Spans) -> Result<Vec<SummaryReport>, String>;

    /// The workload's own output cross-check against the reference
    /// round's untraced summaries (task-major, flattened).
    fn cross_check(&self, round: &[SummaryReport], threads: usize) -> Result<(), String>;
}

/// Builds the named workload's inputs for `seed`: scenario building,
/// config validation, registry resolution and any input materialised up
/// front. This is the work `setup_s` times.
pub fn setup(name: &str, seed: u64, plan: Plan) -> Result<Box<dyn Workload>, String> {
    match name {
        "paper_sweep" => Ok(Box::new(PaperSweep::new(seed, plan)?)),
        "trace_stream" => Ok(Box::new(TraceStream::new(seed, plan)?)),
        "subsystems_fork" => Ok(Box::new(SubsystemsFork::new(seed, plan)?)),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            NAMES.join(", ")
        )),
    }
}

fn same(a: &[SummaryReport], b: &[SummaryReport]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Drives a fixed-intake world from construction to its summary with
/// spans: the traced twin of `run_experiment_summary_seeded`.
fn traced_cold(
    cfg: &ExperimentConfig,
    seed: u64,
    spans: &mut Spans,
) -> Result<SummaryReport, String> {
    let timer = SelfTimer::start();
    cfg.validate().map_err(|e| e.to_string())?;
    let mut engine = koala::engine_for(cfg);
    let mut world = World::for_seed_summarized(cfg, seed);
    world.bootstrap(&mut engine);
    spans.assemble_ns += timer.stop();
    spans.pump(&mut world, &mut engine, None);
    Ok(finish(world, &engine, spans))
}

fn finish(world: World<'_>, engine: &Engine<koala::sim::Ev>, spans: &mut Spans) -> SummaryReport {
    spans.note_world(&world);
    let timer = SelfTimer::start();
    let summary = world.finish_summary(engine);
    spans.finish_ns += timer.stop();
    summary
}

// ---------------------------------------------------------------------
// paper_sweep
// ---------------------------------------------------------------------

/// The Fig. 7 + Fig. 8 matrices (PRA/PWA × FPSMA/EGS × Wm/Wmr/W'm/W'mr)
/// with background load. Task `i` is cell `i % 8` under seed block
/// `i / 8`, so every block of eight tasks is the whole matrix for one
/// seed, as in the figure pipelines.
struct PaperSweep {
    cfgs: Vec<ExperimentConfig>,
    seed: u64,
    seeds_per_round: usize,
}

impl PaperSweep {
    fn new(seed: u64, plan: Plan) -> Result<Self, String> {
        let mut cfgs = figure_matrix(PaperFigure::Fig7, plan.paper_jobs);
        cfgs.extend(figure_matrix(PaperFigure::Fig8, plan.paper_jobs));
        for cfg in &cfgs {
            cfg.validate().map_err(|e| format!("{}: {e}", cfg.name))?;
        }
        Ok(PaperSweep {
            cfgs,
            seed,
            seeds_per_round: plan.paper_seeds,
        })
    }

    fn cell(&self, i: usize) -> Cell<'_> {
        let n = self.cfgs.len();
        Cell {
            cfg: &self.cfgs[i % n],
            seed: derive_seed(self.seed, (i / n) as u64),
        }
    }

    fn round_cells(&self) -> Vec<Cell<'_>> {
        (0..self.round_len()).map(|i| self.cell(i)).collect()
    }
}

impl Workload for PaperSweep {
    fn round_len(&self) -> usize {
        self.cfgs.len() * self.seeds_per_round
    }

    fn expected_jobs(&self, i: usize) -> u64 {
        self.cell(i).cfg.workload.jobs as u64
    }

    fn run_task(&self, i: usize) -> Result<TaskOut, String> {
        Ok(TaskOut {
            summaries: run_cells_summary(&[self.cell(i)], 1),
            samples_ns: Vec::new(),
        })
    }

    fn run_round(&self, threads: usize) -> Vec<SummaryReport> {
        run_cells_summary(&self.round_cells(), threads)
    }

    fn run_task_traced(&self, i: usize, spans: &mut Spans) -> Result<Vec<SummaryReport>, String> {
        let cell = self.cell(i);
        Ok(vec![traced_cold(cell.cfg, cell.seed, spans)?])
    }

    /// 1 thread == 2 threads on the reference round.
    fn cross_check(&self, round: &[SummaryReport], threads: usize) -> Result<(), String> {
        if threads < 2 {
            return Ok(());
        }
        if same(round, &self.run_round(threads)) {
            Ok(())
        } else {
            Err(format!(
                "{threads}-thread sweep diverged from the 1-thread sweep"
            ))
        }
    }
}

// ---------------------------------------------------------------------
// trace_stream
// ---------------------------------------------------------------------

/// The `trace1m` generator streamed through `run_stream_summary`
/// (look-ahead 1024, `koala_share` 0.5, no background). Task `i` is one
/// trace under seed `i`.
struct TraceStream {
    cfg: ExperimentConfig,
    source: Arc<dyn WorkloadSource>,
    jobs: u64,
    seed: u64,
    round: usize,
}

impl TraceStream {
    fn new(seed: u64, plan: Plan) -> Result<Self, String> {
        let cfg = Scenario::builder()
            .workload("trace1m")
            .jobs(plan.trace_jobs as usize)
            .no_horizon()
            .background(BackgroundLoad::none())
            .scheduler(|s| s.koala_share = 0.5)
            .summarized()
            .build()
            .map_err(|e| e.to_string())?
            .into_config();
        let source = WorkloadRegistry::global()
            .source("trace1m")
            .map_err(|e| e.to_string())?;
        Ok(TraceStream {
            cfg,
            source,
            jobs: plan.trace_jobs,
            seed,
            round: plan.trace_round,
        })
    }

    fn task_seed(&self, i: usize) -> u64 {
        derive_seed(self.seed, i as u64)
    }
}

impl Workload for TraceStream {
    fn round_len(&self) -> usize {
        self.round
    }

    fn expected_jobs(&self, _i: usize) -> u64 {
        self.jobs
    }

    fn run_task(&self, i: usize) -> Result<TaskOut, String> {
        let seed = self.task_seed(i);
        let mut clock = UnitClock::new(self.source.stream(seed, self.jobs), JOBS_PER_UNIT);
        let summary = koala::try_run_stream_summary(&self.cfg, seed, &mut clock, LOOKAHEAD)
            .map_err(|e| e.to_string())?;
        Ok(TaskOut {
            summaries: vec![summary],
            samples_ns: clock.samples_ns,
        })
    }

    fn run_round(&self, threads: usize) -> Vec<SummaryReport> {
        let tasks: Vec<usize> = (0..self.round).collect();
        parallel_map(&tasks, threads, |&i| {
            let seed = self.task_seed(i);
            let mut stream = self.source.stream(seed, self.jobs);
            koala::run_stream_summary(&self.cfg, seed, stream.as_mut(), LOOKAHEAD)
        })
    }

    fn run_task_traced(&self, i: usize, spans: &mut Spans) -> Result<Vec<SummaryReport>, String> {
        let seed = self.task_seed(i);
        let cfg = &self.cfg;
        let mut stream = TimedStream::new(self.source.stream(seed, self.jobs));
        // The same validation and engine sizing as try_run_stream_summary.
        let timer = SelfTimer::start();
        cfg.sched.validate().map_err(|e| e.to_string())?;
        cfg.elasticity.validate().map_err(|e| e.to_string())?;
        let mut engine = Engine::configured(
            cfg.sched.event_queue,
            cfg.horizon.map(|h| SimTime::ZERO + h),
            LOOKAHEAD * 2 + 64,
        );
        let mut world = World::for_stream_summarized(cfg, seed, &mut stream, LOOKAHEAD);
        world.bootstrap(&mut engine);
        spans.assemble_ns += timer.stop();
        spans.pump(&mut world, &mut engine, None);
        Ok(vec![finish(world, &engine, spans)])
    }

    fn cross_check(&self, _round: &[SummaryReport], _threads: usize) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// subsystems_fork
// ---------------------------------------------------------------------

/// Input files of the staged trace (GB) and the clusters they live on.
const FILE_GB: f64 = 20.0;
const FILE_HOMES: [u16; 3] = [4, 1, 3];
const PLACEMENTS: [&str; 2] = ["worst_fit", "close_to_files"];
const MALLEABILITY: [&str; 2] = ["fpsma", "egs"];

/// One seed's fork group: the placement × malleability cells share
/// everything but their policy pair, so one warm prefix serves them all.
struct ForkGroup {
    seed: u64,
    cells: Vec<ExperimentConfig>,
}

/// PWA W'm under a contended `das3` network (pinned input files plus
/// reconfiguration traffic), a lossy control plane with retries, seeded
/// crashes, the `threshold` autoscaler and monitoring; the policy cells
/// are warm-forked from one prefix per seed. Task `i` is group
/// `i % pool` (the groups, with their staged traces, are materialised
/// in set-up).
struct SubsystemsFork {
    groups: Vec<ForkGroup>,
    round: usize,
    cold_sample: usize,
}

impl SubsystemsFork {
    fn new(seed: u64, plan: Plan) -> Result<Self, String> {
        let base = Scenario::builder()
            .pwa()
            .workload(WorkloadSpec::wm_prime())
            .jobs(plan.fork_jobs)
            .build()
            .map_err(|e| e.to_string())?
            .into_config();
        let groups = (0..plan.fork_pool.max(plan.fork_round))
            .map(|g| {
                let seed = derive_seed(seed, g as u64);
                let trace = staged_trace(&base, seed);
                let cells = PLACEMENTS
                    .iter()
                    .flat_map(|&p| MALLEABILITY.iter().map(move |&m| (p, m)))
                    .map(|(p, m)| fork_cell(p, m, &trace, plan.fork_jobs))
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(ForkGroup { seed, cells })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SubsystemsFork {
            groups,
            round: plan.fork_round,
            cold_sample: plan.fork_cold_sample.min(plan.fork_round),
        })
    }

    fn group(&self, i: usize) -> &ForkGroup {
        &self.groups[i % self.groups.len()]
    }

    fn cells(&self, tasks: std::ops::Range<usize>) -> Vec<Cell<'_>> {
        tasks
            .flat_map(|i| {
                let g = self.group(i);
                g.cells.iter().map(move |cfg| Cell { cfg, seed: g.seed })
            })
            .collect()
    }
}

/// The W'm workload of `seed` with one pinned input file per job,
/// round-robin over [`FILE_HOMES`].
fn staged_trace(base: &ExperimentConfig, seed: u64) -> Vec<SubmittedJob> {
    let mut trace = base.generate_workload_for_seed(seed);
    for (k, job) in trace.iter_mut().enumerate() {
        job.spec.input_files = vec![(k % FILE_HOMES.len()) as u64];
    }
    trace
}

fn fork_cell(
    placement: &str,
    malleability: &str,
    trace: &[SubmittedJob],
    jobs: usize,
) -> Result<ExperimentConfig, String> {
    // Fork two thirds of the way through the arrivals: the shared prefix
    // carries most of the work and every cell still diverges.
    let fork_at = trace
        .get(trace.len() * 2 / 3)
        .map(|j| SimDuration::from_millis(j.at.as_millis()))
        .unwrap_or(SimDuration::ZERO);
    let mut b = Scenario::builder()
        .name(format!("{placement}+{malleability}"))
        .placement(placement)
        .malleability(malleability)
        .pwa()
        .workload(WorkloadSpec::wm_prime())
        .jobs(jobs)
        .trace(trace.to_vec())
        .network("das3")
        .reconfig_traffic(0.25)
        .ctrl_faults(ControlPlaneFaultSpec {
            loss: ClassLoss::uniform(0.10),
            duplicate: 0.05,
            max_jitter: SimDuration::from_millis(400),
            flaky: Some(FlakyChannelSpec {
                mean_gap: SimDuration::from_secs(1800),
                mean_duration: SimDuration::from_secs(240),
                loss: 0.5,
            }),
        })
        .retry(RetryConfig {
            timeout: SimDuration::from_secs(10),
            max_timeout: SimDuration::from_secs(40),
            max_attempts: 4,
            orphan_sweep_period: SimDuration::from_secs(60),
            orphan_grace: SimDuration::from_secs(90),
        })
        .failures(FailureSpec::new(
            SimDuration::from_secs(1800),
            SimDuration::from_secs(600),
            8,
        ))
        .failure_policy(FailurePolicy::Requeue)
        .autoscaler("threshold")
        .autoscale_timing(SimDuration::from_secs(300), SimDuration::from_secs(30))
        .monitor(SimDuration::from_secs(120))
        .warm_fork(fork_at)
        .summarized();
    for &home in &FILE_HOMES {
        b = b.network_file(FILE_GB, [home]);
    }
    Ok(b.build().map_err(|e| e.to_string())?.into_config())
}

impl Workload for SubsystemsFork {
    fn round_len(&self) -> usize {
        self.round
    }

    fn expected_jobs(&self, i: usize) -> u64 {
        self.group(i).cells[0]
            .trace
            .as_ref()
            .map_or(0, |t| t.len() as u64)
    }

    fn run_task(&self, i: usize) -> Result<TaskOut, String> {
        Ok(TaskOut {
            summaries: run_cells_summary_warm(&self.cells(i..i + 1), 1),
            samples_ns: Vec::new(),
        })
    }

    fn run_round(&self, threads: usize) -> Vec<SummaryReport> {
        run_cells_summary_warm(&self.cells(0..self.round), threads)
    }

    /// The traced twin of one group of `run_cells_summary_warm`: the
    /// base-policy prefix to the fork instant, one capture, then one
    /// fork per cell run to its summary.
    fn run_task_traced(&self, i: usize, spans: &mut Spans) -> Result<Vec<SummaryReport>, String> {
        let g = self.group(i);
        let wf = g.cells[0]
            .warm_fork
            .as_ref()
            .ok_or("fork cell without a warm fork")?;
        let t_prefix = std::time::Instant::now();
        let mut warm_cfg = g.cells[0].clone();
        warm_cfg.sched.placement = wf.base_placement.clone();
        warm_cfg.sched.malleability = wf.base_malleability.clone();
        let timer = SelfTimer::start();
        warm_cfg.validate().map_err(|e| e.to_string())?;
        let mut engine = koala::engine_for(&warm_cfg);
        let mut world = World::for_seed_summarized(&warm_cfg, g.seed);
        world.bootstrap(&mut engine);
        spans.assemble_ns += timer.stop();
        spans.pump(&mut world, &mut engine, Some(SimTime::ZERO + wf.at));
        spans.prefix_ns += ns_since(t_prefix);

        let timer = SelfTimer::start();
        let snap = world.snapshot(&engine).map_err(|e| e.to_string())?;
        spans.capture_ns += timer.stop();
        spans.snapshot_bytes += snap.body.len() as u64;
        drop(world);

        let mut out = Vec::with_capacity(g.cells.len());
        for cfg in &g.cells {
            let timer = SelfTimer::start();
            let (mut world, mut engine) =
                World::fork_with(cfg, &snap).map_err(|e| e.to_string())?;
            spans.fork_ns += timer.stop();
            spans.forks += 1;
            if !world.done() {
                spans.pump(&mut world, &mut engine, None);
            }
            out.push(finish(world, &engine, spans));
        }
        Ok(out)
    }

    /// Warm-forked == cold on the first groups of the reference round.
    fn cross_check(&self, round: &[SummaryReport], _threads: usize) -> Result<(), String> {
        let cold = run_cells_summary(&self.cells(0..self.cold_sample), 1);
        if same(&round[..cold.len()], &cold) {
            Ok(())
        } else {
            Err("warm-forked cells diverged from their cold runs".to_string())
        }
    }
}
