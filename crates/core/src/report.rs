//! Per-run and multi-seed experiment reports.
//!
//! Every run produces a [`SummaryReport`]: scalars and fixed-size
//! streaming accumulators (see [`koala_metrics::stream`]) whose size is
//! independent of job count and run length — what makes matrices of
//! thousands of `(scenario × seed)` cells feasible. A [`MultiSummary`]
//! aggregates replication cells into mean ± 95 % confidence intervals
//! (Student-t) per metric.
//!
//! A [`RunReport`] is that same summary plus the per-job detail the
//! paper's figures draw: the job table, the utilization step series and
//! the operation timelines of Figs. 7e/f and 8e/f. A [`MultiReport`]
//! aggregates the 4-seed repetitions the paper performs per
//! configuration ("we have done 4 runs for each combination"). The
//! report type a caller asks [`crate::run()`] for picks the collector;
//! [`crate::scenario::ScenarioBuilder::summarized`] marks a scenario as
//! summary-only. Warmup-window trimming and the quantile reservoir
//! capacity come from [`crate::config::ExperimentConfig::report`].

use koala_metrics::{
    mean_ci95, CumulativeCounter, Ecdf, JobOutcome, JobRecord, JobTable, MeanCi, MetricStream,
    StepSeries,
};
use multicluster::Multicluster;
use simcore::{SimDuration, SimTime};

use crate::config::ReportConfig;
use crate::ids::JobId;
use crate::obs::Obs;
use crate::snapshot::{ByteReader, ByteWriter, SnapshotError};

/// Control-plane health counters: what the retry/timeout machinery of
/// the lossy KOALA↔GRAM messaging layer observed during a run. All
/// fields stay zero when [`ControlPlaneFaults`] is disabled (the
/// default) — the fault layer is strictly passive then.
///
/// [`ControlPlaneFaults`]: multicluster::ControlPlaneFaults
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Control messages dropped by the fault model (loss draws).
    pub messages_lost: u64,
    /// Deadlines that expired while their operation was still pending.
    pub timeouts: u64,
    /// Re-sends issued after a timeout (bounded by the retry cap).
    pub retries: u64,
    /// Duplicate deliveries injected by the fault model and dropped by
    /// the idempotent effect handlers.
    pub duplicates_dropped: u64,
    /// Information-service polls lost in transit (the scheduler kept
    /// its stale view for that cycle).
    pub polls_lost: u64,
    /// Processors reclaimed by the orphaned-allocation sweep after a
    /// release message exhausted its retries.
    pub reclaimed_allocations: u64,
    /// Placement attempts that skipped a cluster because its control
    /// channel was inside a flaky episode (refuse to place blind).
    pub flaky_deferrals: u64,
    /// KOALA-held processors still allocated when the run finished —
    /// the leak witness; zero whenever every job terminated.
    pub leaked_allocations: u64,
}

impl CtrlStats {
    /// Merges another run's counters into this one (all fields add;
    /// `leaked_allocations` adds too, so a pooled report leaks iff any
    /// run leaked).
    pub fn merge(&mut self, other: &CtrlStats) {
        self.messages_lost += other.messages_lost;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.duplicates_dropped += other.duplicates_dropped;
        self.polls_lost += other.polls_lost;
        self.reclaimed_allocations += other.reclaimed_allocations;
        self.flaky_deferrals += other.flaky_deferrals;
        self.leaked_allocations += other.leaked_allocations;
    }
}

/// Network-layer counters: what the contended-transfer machinery
/// observed during a run. All fields stay zero when
/// [`ExperimentConfig::network`](crate::config::ExperimentConfig::network)
/// is `None` — the network layer is strictly passive then.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Staging transfers opened (one per file that had to move).
    pub transfers_opened: u64,
    /// Staging transfers that ran to completion.
    pub transfers_completed: u64,
    /// Redistribution transfers opened by reconfigurations.
    pub reconfig_transfers: u64,
    /// Gigabytes of input data staged (redistribution traffic is
    /// counted in [`Self::reconfig_transfers`], not here).
    pub bytes_staged_gb: f64,
    /// Accumulated link-busy time: seconds during which a link carried
    /// at least one flow, summed over all links.
    pub link_busy_s: f64,
    /// Observation window: run span in seconds times the number of
    /// links (the denominator of [`Self::link_busy_fraction`]).
    pub link_span_s: f64,
}

impl NetStats {
    /// Merges another run's counters into this one (everything adds, so
    /// the pooled busy fraction stays a proper time-weighted mean).
    pub fn merge(&mut self, other: &NetStats) {
        self.transfers_opened += other.transfers_opened;
        self.transfers_completed += other.transfers_completed;
        self.reconfig_transfers += other.reconfig_transfers;
        self.bytes_staged_gb += other.bytes_staged_gb;
        self.link_busy_s += other.link_busy_s;
        self.link_span_s += other.link_span_s;
    }

    /// Fraction of link-seconds that carried at least one flow.
    pub fn link_busy_fraction(&self) -> f64 {
        if self.link_span_s <= 0.0 {
            return 0.0;
        }
        self.link_busy_s / self.link_span_s
    }
}

/// One simulation run: its [`SummaryReport`] plus the per-job detail
/// the figures draw. Every scalar (name, seed, makespan, message and
/// operation counts, control-plane and network tallies) lives in
/// [`RunReport::summary`], exactly as a summarized run of the same cell
/// reports it.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The run's summary, identical to what a summarized run reports.
    pub summary: SummaryReport,
    /// Per-job records.
    pub jobs: JobTable,
    /// Total used processors over time (KOALA + background) —
    /// Figs. 7e/8e.
    pub utilization: StepSeries,
    /// Processors used by KOALA-managed jobs only.
    pub koala_used: StepSeries,
    /// Accepted grow operations over time — Fig. 7f.
    pub grow_ops: CumulativeCounter,
    /// Accepted shrink operations over time — with grows, Fig. 8f.
    pub shrink_ops: CumulativeCounter,
    /// Used processors over time, per cluster (indexed by cluster id).
    pub per_cluster_used: Vec<StepSeries>,
    /// KOALA placement-queue depth over time, sampled by the monitoring
    /// subsystem (empty unless `elasticity.monitor_period` is set).
    pub queue_depth: StepSeries,
}

impl RunReport {
    /// Mean platform utilization (processors) over `[from, to]`.
    pub fn mean_utilization(&self, from: SimTime, to: SimTime) -> f64 {
        self.utilization.time_weighted_mean(from, to, 0.0)
    }

    /// Total malleability operations (grows + shrinks).
    pub fn total_operations(&self) -> usize {
        self.grow_ops.total() + self.shrink_ops.total()
    }

    /// Mean utilization of one cluster over `[from, to]` (processors).
    pub fn mean_cluster_utilization(&self, cluster: usize, from: SimTime, to: SimTime) -> f64 {
        self.per_cluster_used
            .get(cluster)
            .map(|s| s.time_weighted_mean(from, to, 0.0))
            .unwrap_or(0.0)
    }
}

/// The runs of one configuration across seeds.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Configuration label.
    pub name: String,
    /// One report per seed.
    pub runs: Vec<RunReport>,
}

impl MultiReport {
    /// Builds an aggregate; panics on an empty run list.
    pub fn new(name: impl Into<String>, runs: Vec<RunReport>) -> Self {
        assert!(!runs.is_empty(), "MultiReport needs at least one run");
        MultiReport {
            name: name.into(),
            runs,
        }
    }

    /// The runs' summaries as one replication aggregate.
    pub fn summary(&self) -> MultiSummary {
        let runs = self.runs.iter().map(|r| r.summary.clone()).collect();
        MultiSummary::new(self.name.clone(), runs)
    }

    /// All job records across seeds, merged (the paper's CDFs pool the
    /// 4 runs).
    pub fn merged_jobs(&self) -> JobTable {
        let mut t = JobTable::new();
        for r in &self.runs {
            for rec in r.jobs.records() {
                t.push(rec.clone());
            }
        }
        t
    }

    /// Pooled ECDF of a per-job metric.
    pub fn ecdf_of(&self, f: impl Fn(&koala_metrics::JobRecord) -> Option<f64> + Copy) -> Ecdf {
        self.merged_jobs().ecdf_of(f)
    }

    /// Grow operations of all runs merged onto one timeline.
    pub fn merged_grow_ops(&self) -> CumulativeCounter {
        let mut c = CumulativeCounter::new();
        for r in &self.runs {
            c.merge(&r.grow_ops);
        }
        c
    }

    /// All malleability operations (grow + shrink) merged.
    pub fn merged_all_ops(&self) -> CumulativeCounter {
        let mut c = CumulativeCounter::new();
        for r in &self.runs {
            c.merge(&r.grow_ops);
            c.merge(&r.shrink_ops);
        }
        c
    }

    /// Mean across runs of the mean utilization over `[from, to]`.
    pub fn mean_utilization(&self, from: SimTime, to: SimTime) -> f64 {
        self.runs
            .iter()
            .map(|r| r.mean_utilization(from, to))
            .sum::<f64>()
            / self.runs.len() as f64
    }

    /// Mean completion ratio across runs.
    pub fn completion_ratio(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.jobs.completion_ratio())
            .sum::<f64>()
            / self.runs.len() as f64
    }

    /// Longest makespan across runs.
    pub fn max_makespan(&self) -> SimTime {
        self.runs
            .iter()
            .map(|r| r.summary.makespan)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// How a run reports its results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Full [`RunReport`]: the summary plus the complete job table,
    /// utilization step series and operation timelines.
    #[default]
    Full,
    /// Memory-bounded [`SummaryReport`]: streaming accumulators only —
    /// no per-job vectors, no step series.
    Summarized,
}

/// The report every run produces (a [`RunReport`] carries one too):
/// everything is a scalar or a fixed-size streaming accumulator, so a
/// report's footprint does not grow with job count or run length.
///
/// Per-job metrics (execution/response/wait time, time-averaged and
/// maximum size, bounded slowdown) stream through
/// [`MetricStream`]s as jobs complete; jobs submitted inside the warmup
/// window are excluded, as are utilization and operation counts before
/// it. Reports [`merge`](SummaryReport::merge) across seeds — count and
/// mean bit-identically in any order, variance/quantiles within
/// floating-point tolerance (see [`koala_metrics::stream`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryReport {
    /// Configuration label (e.g. `"EGS/Wm"`).
    pub name: String,
    /// The seed that produced this run (the first seed after merging).
    pub seed: u64,
    /// Warmup window: everything before this duration is trimmed.
    pub warmup: SimDuration,
    /// Jobs submitted (including inside the warmup window).
    pub jobs_submitted: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs dropped by the placement-retry threshold.
    pub jobs_failed: u64,
    /// Execution time (s) of completed post-warmup jobs — Figs. 7c/8c.
    pub execution_time: MetricStream,
    /// Response time (s) — Figs. 7d/8d.
    pub response_time: MetricStream,
    /// Wait time (s).
    pub wait_time: MetricStream,
    /// Time-averaged processors per job — Figs. 7a/8a.
    pub avg_size: MetricStream,
    /// Maximum processors per job — Figs. 7b/8b.
    pub max_size: MetricStream,
    /// Bounded slowdown (10 s floor).
    pub slowdown: MetricStream,
    /// Accepted grow operations (post-warmup).
    pub grow_ops: u64,
    /// Accepted shrink operations (post-warmup).
    pub shrink_ops: u64,
    /// Grow requests sent (including declined offers).
    pub grow_messages: u64,
    /// Shrink requests sent (including declined requests).
    pub shrink_messages: u64,
    /// Instant the last job left the system.
    pub makespan: SimTime,
    /// KIS polls performed.
    pub kis_polls: u64,
    /// Failed placement tries.
    pub placement_tries: u64,
    /// Submissions dropped by the retry threshold.
    pub failed_submissions: u64,
    /// Events the engine delivered.
    pub events: u64,
    /// High-water mark of concurrently live jobs — the streaming
    /// intake's bounded-memory witness. Eager runs materialize the whole
    /// workload, so this equals `jobs_submitted` there; a streamed
    /// million-job run reports the in-flight peak instead (merges take
    /// the maximum across runs).
    pub peak_live_jobs: u64,
    /// Per-cluster utilization fractions sampled by the monitoring
    /// subsystem (one sample per cluster per monitor tick; empty unless
    /// `elasticity.monitor_period` is set).
    pub monitor_utilization: MetricStream,
    /// KOALA placement-queue depth sampled by the monitoring subsystem
    /// (one sample per monitor tick).
    pub monitor_queue_depth: MetricStream,
    /// Autoscaler grow decisions applied (post-warmup).
    pub scale_ups: u64,
    /// Autoscaler shrink decisions applied (post-warmup).
    pub scale_downs: u64,
    /// KOALA jobs killed by node crashes.
    pub jobs_killed: u64,
    /// KOALA jobs re-queued after node crashes.
    pub jobs_requeued: u64,
    /// Control-plane fault counters (all zero when faults are off).
    pub ctrl: CtrlStats,
    /// Network-layer counters (all zero when networking is off).
    pub net: NetStats,
    /// Per-transfer completion times in seconds (post-warmup), streamed
    /// as staging/redistribution transfers finish — the "transfer time
    /// mean ± CI" axis of the network benchmarks.
    pub transfer_time: MetricStream,
    /// Per-job staging delay in seconds (post-warmup): how long a
    /// placed job waited for its input files to arrive before it could
    /// start. Jobs whose files were already local stream a zero, so the
    /// mean reflects the placement policy's file-affinity.
    pub staging_delay: MetricStream,
    /// Post-warmup integral of total used processors (processor-seconds).
    util_integral: f64,
    /// Post-warmup integral of KOALA-used processors (processor-seconds).
    util_koala_integral: f64,
    /// Length of the measured window in seconds (makespan − warmup,
    /// summed across merged runs).
    util_span_s: f64,
}

impl SummaryReport {
    /// Fraction of submitted jobs that completed.
    pub fn completion_ratio(&self) -> f64 {
        if self.jobs_submitted == 0 {
            return 0.0;
        }
        self.jobs_completed as f64 / self.jobs_submitted as f64
    }

    /// Time-weighted mean of total used processors over the measured
    /// window (warmup → makespan).
    pub fn mean_utilization(&self) -> f64 {
        if self.util_span_s <= 0.0 {
            return 0.0;
        }
        self.util_integral / self.util_span_s
    }

    /// Time-weighted mean of KOALA-used processors over the measured
    /// window.
    pub fn mean_koala_utilization(&self) -> f64 {
        if self.util_span_s <= 0.0 {
            return 0.0;
        }
        self.util_koala_integral / self.util_span_s
    }

    /// Total malleability operations (grows + shrinks).
    pub fn total_operations(&self) -> u64 {
        self.grow_ops + self.shrink_ops
    }

    /// Merges another run of the same configuration into this one
    /// (counts add, streams merge, the utilization means pool
    /// time-weighted, the makespan takes the maximum).
    pub fn merge(&mut self, other: &SummaryReport) {
        self.jobs_submitted += other.jobs_submitted;
        self.jobs_completed += other.jobs_completed;
        self.jobs_failed += other.jobs_failed;
        self.execution_time.merge(&other.execution_time);
        self.response_time.merge(&other.response_time);
        self.wait_time.merge(&other.wait_time);
        self.avg_size.merge(&other.avg_size);
        self.max_size.merge(&other.max_size);
        self.slowdown.merge(&other.slowdown);
        self.grow_ops += other.grow_ops;
        self.shrink_ops += other.shrink_ops;
        self.grow_messages += other.grow_messages;
        self.shrink_messages += other.shrink_messages;
        self.monitor_utilization.merge(&other.monitor_utilization);
        self.monitor_queue_depth.merge(&other.monitor_queue_depth);
        self.scale_ups += other.scale_ups;
        self.scale_downs += other.scale_downs;
        self.jobs_killed += other.jobs_killed;
        self.jobs_requeued += other.jobs_requeued;
        self.makespan = self.makespan.max(other.makespan);
        self.kis_polls += other.kis_polls;
        self.placement_tries += other.placement_tries;
        self.failed_submissions += other.failed_submissions;
        self.events += other.events;
        self.peak_live_jobs = self.peak_live_jobs.max(other.peak_live_jobs);
        self.ctrl.merge(&other.ctrl);
        self.net.merge(&other.net);
        self.transfer_time.merge(&other.transfer_time);
        self.staging_delay.merge(&other.staging_delay);
        self.util_integral += other.util_integral;
        self.util_koala_integral += other.util_koala_integral;
        self.util_span_s += other.util_span_s;
    }
}

/// The summarized runs of one configuration across seeds — the
/// replication aggregate of a matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSummary {
    /// Configuration label.
    pub name: String,
    /// One summary per seed, in seed order.
    pub runs: Vec<SummaryReport>,
}

impl MultiSummary {
    /// Builds an aggregate; panics on an empty run list.
    pub fn new(name: impl Into<String>, runs: Vec<SummaryReport>) -> Self {
        assert!(!runs.is_empty(), "MultiSummary needs at least one run");
        MultiSummary {
            name: name.into(),
            runs,
        }
    }

    /// All runs merged into one pooled summary (streams merged in seed
    /// order, like the paper pools its 4 runs per CDF).
    pub fn pooled(&self) -> SummaryReport {
        let mut pooled = self.runs[0].clone();
        for r in &self.runs[1..] {
            pooled.merge(r);
        }
        pooled
    }

    /// Mean ± 95 % CI (Student-t across replications) of a per-run
    /// scalar; `None` when no run yields a value.
    pub fn mean_ci(&self, f: impl Fn(&SummaryReport) -> Option<f64>) -> Option<MeanCi> {
        let values: Vec<f64> = self.runs.iter().filter_map(&f).collect();
        mean_ci95(&values)
    }

    /// Mean completion ratio across runs.
    pub fn completion_ratio(&self) -> f64 {
        self.runs
            .iter()
            .map(SummaryReport::completion_ratio)
            .sum::<f64>()
            / self.runs.len() as f64
    }

    /// Longest makespan across runs.
    pub fn max_makespan(&self) -> SimTime {
        self.runs
            .iter()
            .map(|r| r.makespan)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

// ---------------------------------------------------------------------
// Collectors: how a running World records its measurements
// ---------------------------------------------------------------------

/// Reservoir-seed salts so each metric draws an independent priority
/// stream from the same cell seed.
const STREAM_SALTS: [u64; 10] = [
    0x9e37_79b9_7f4a_7c15,
    0x2545_f491_4f6c_dd1d,
    0x9e6d_6295_b6fc_9a7b,
    0x589d_6a5b_41cf_7f4d,
    0xab1e_c59f_1c3d_27af,
    0x6c62_272e_07bb_0142,
    0x1000_0000_01b3_c0de,
    0xcbf2_9ce4_8422_2325,
    0x5851_f42d_4c95_7f2d,
    0x1405_7b7e_f767_814f,
];

/// Per-live-job metering state of the summarized collector: a handful of
/// scalars, no per-job heap allocations.
#[derive(Debug, Clone, Copy)]
struct JobMeter {
    submitted: SimTime,
    started: Option<SimTime>,
    size: f64,
    last_change: SimTime,
    size_integral: f64,
    size_max: f64,
}

/// The per-job detail a [`RunReport`] adds to its summary: job table,
/// step series and operation timelines. Every count lives in the
/// [`SummaryCollector`], so this keeps no tallies of its own.
#[derive(Debug, Clone)]
pub(crate) struct DetailCollector {
    records: Vec<JobRecord>,
    util_total: StepSeries,
    util_koala: StepSeries,
    util_per_cluster: Vec<StepSeries>,
    grow_ops: CumulativeCounter,
    shrink_ops: CumulativeCounter,
    queue_depth: StepSeries,
}

impl DetailCollector {
    /// Detail with one [`JobRecord`] per workload entry.
    pub(crate) fn new(
        submissions: impl Iterator<Item = (String, bool, SimTime)>,
        n_clusters: usize,
    ) -> Self {
        let records = submissions
            .enumerate()
            .map(|(i, (app, malleable, at))| JobRecord::new(i as u64, app, malleable, at))
            .collect();
        DetailCollector {
            records,
            util_total: StepSeries::with_initial(0.0),
            util_koala: StepSeries::with_initial(0.0),
            util_per_cluster: vec![StepSeries::with_initial(0.0); n_clusters],
            grow_ops: CumulativeCounter::new(),
            shrink_ops: CumulativeCounter::new(),
            queue_depth: StepSeries::with_initial(0.0),
        }
    }

    /// Renders the full report around the run's finished `summary`.
    pub(crate) fn finish(self, summary: SummaryReport) -> RunReport {
        let mut jobs = JobTable::new();
        for rec in self.records {
            jobs.push(rec);
        }
        RunReport {
            summary,
            jobs,
            utilization: self.util_total,
            koala_used: self.util_koala,
            grow_ops: self.grow_ops,
            shrink_ops: self.shrink_ops,
            per_cluster_used: self.util_per_cluster,
            queue_depth: self.queue_depth,
        }
    }
}

/// The always-on summary collector: streaming accumulators plus one
/// fixed-size meter per **live** job (streamed runs reuse meter slots
/// as jobs retire, so the meter table tracks in-flight jobs, not the
/// stream length).
#[derive(Debug, Clone)]
pub(crate) struct SummaryCollector {
    /// Absolute warmup instant (runs start at time zero).
    warmup: SimTime,
    meters: Vec<JobMeter>,
    jobs_submitted: u64,
    execution_time: MetricStream,
    response_time: MetricStream,
    wait_time: MetricStream,
    avg_size: MetricStream,
    max_size: MetricStream,
    slowdown: MetricStream,
    jobs_completed: u64,
    jobs_failed: u64,
    grow_ops: u64,
    shrink_ops: u64,
    monitor_utilization: MetricStream,
    monitor_queue_depth: MetricStream,
    transfer_time: MetricStream,
    staging_delay: MetricStream,
    scale_ups: u64,
    scale_downs: u64,
    jobs_killed: u64,
    jobs_requeued: u64,
    last_t: SimTime,
    last_total: f64,
    last_koala: f64,
    util_integral: f64,
    util_koala_integral: f64,
}

impl SummaryCollector {
    /// Registers a submitted job's meter at `slot`. Streamed worlds
    /// reuse slots as jobs retire (the previous occupant's metrics were
    /// streamed at completion).
    fn arrived(&mut self, slot: usize, at: SimTime) {
        self.jobs_submitted += 1;
        let meter = JobMeter {
            submitted: at,
            started: None,
            size: 0.0,
            last_change: at,
            size_integral: 0.0,
            size_max: 0.0,
        };
        if slot < self.meters.len() {
            self.meters[slot] = meter;
        } else {
            debug_assert_eq!(slot, self.meters.len(), "meter slots grow densely");
            self.meters.push(meter);
        }
    }

    /// The job at `slot` completed: its metrics stream into the
    /// accumulators (post-warmup submissions only) and the meter is
    /// final.
    fn completed(&mut self, slot: usize, t: SimTime) {
        self.jobs_completed += 1;
        let m = &mut self.meters[slot];
        m.size_integral += m.size * (t - m.last_change).as_secs_f64();
        m.last_change = t;
        if m.submitted < self.warmup {
            return;
        }
        let started = m.started.expect("completed job has started");
        // The exact formulas of `JobRecord`: same subtractions, same
        // float operations, so a summary streams bit-identical samples
        // to the detail's ECDFs.
        let exec = (t - started).as_secs_f64();
        let resp = (t - m.submitted).as_secs_f64();
        let wait = (started - m.submitted).as_secs_f64();
        let avg = m.size_integral / exec; // NaN (skipped) when exec is 0
        self.execution_time.push(exec);
        self.response_time.push(resp);
        self.wait_time.push(wait);
        self.avg_size.push(avg);
        self.max_size.push(m.size_max);
        self.slowdown.push((resp / exec.max(10.0)).max(1.0));
    }

    /// Advances the utilization integrals to `t` (clipping the warmup
    /// window), leaving the last-value registers untouched.
    fn integrate_to(&mut self, t: SimTime) {
        let from = self.last_t.max(self.warmup);
        if t > from {
            let dt = (t - from).as_secs_f64();
            self.util_integral += self.last_total * dt;
            self.util_koala_integral += self.last_koala * dt;
        }
    }

    /// The ten metric streams, in checkpoint order.
    fn streams(&self) -> [&MetricStream; 10] {
        [
            &self.execution_time,
            &self.response_time,
            &self.wait_time,
            &self.avg_size,
            &self.max_size,
            &self.slowdown,
            &self.monitor_utilization,
            &self.monitor_queue_depth,
            &self.transfer_time,
            &self.staging_delay,
        ]
    }

    /// Writes the complete collector state — meters, counters, the
    /// utilization registers, and every streaming accumulator's raw
    /// internals (exact-sum partials, Welford registers, reservoir
    /// priorities *and* the priority-stream position) — so a
    /// [`SummaryCollector::decode`]d copy streams bit-identical samples
    /// from here on.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.warmup.as_millis());
        w.len(self.meters.len());
        for m in &self.meters {
            w.u64(m.submitted.as_millis());
            w.opt(m.started.as_ref(), |w, t| w.u64(t.as_millis()));
            w.f64(m.size);
            w.u64(m.last_change.as_millis());
            w.f64(m.size_integral);
            w.f64(m.size_max);
        }
        w.u64(self.jobs_submitted);
        w.u64(self.jobs_completed);
        w.u64(self.jobs_failed);
        w.u64(self.grow_ops);
        w.u64(self.shrink_ops);
        w.u64(self.scale_ups);
        w.u64(self.scale_downs);
        w.u64(self.jobs_killed);
        w.u64(self.jobs_requeued);
        let streams = self.streams();
        w.len(streams.len());
        for s in streams {
            let (stats, quant) = (s.stats.state(), s.quantiles.state());
            w.u64(stats.count);
            w.len(stats.partials.len());
            for &p in &stats.partials {
                w.f64(p);
            }
            w.f64(stats.w_mean);
            w.f64(stats.m2);
            w.f64(stats.min);
            w.f64(stats.max);
            w.u64(quant.seed);
            w.u64(quant.capacity as u64);
            w.u64(quant.pushed);
            w.len(quant.entries.len());
            for (pri, v) in &quant.entries {
                w.u64(*pri);
                w.f64(*v);
            }
        }
        w.u64(self.last_t.as_millis());
        w.f64(self.last_total);
        w.f64(self.last_koala);
        w.f64(self.util_integral);
        w.f64(self.util_koala_integral);
    }

    /// Reads back a collector written by [`SummaryCollector::encode`];
    /// malformed bytes are a [`SnapshotError::Corrupt`], never a panic.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let warmup = SimTime::from_millis(r.u64()?);
        let n = r.len(41)?;
        let mut meters = Vec::with_capacity(n);
        for _ in 0..n {
            meters.push(JobMeter {
                submitted: SimTime::from_millis(r.u64()?),
                started: r.opt(|r| Ok(SimTime::from_millis(r.u64()?)))?,
                size: r.f64()?,
                last_change: SimTime::from_millis(r.u64()?),
                size_integral: r.f64()?,
                size_max: r.f64()?,
            });
        }
        let jobs_submitted = r.u64()?;
        let jobs_completed = r.u64()?;
        let jobs_failed = r.u64()?;
        let grow_ops = r.u64()?;
        let shrink_ops = r.u64()?;
        let scale_ups = r.u64()?;
        let scale_downs = r.u64()?;
        let jobs_killed = r.u64()?;
        let jobs_requeued = r.u64()?;
        let n = r.len(64)?;
        if n != 10 {
            return Err(SnapshotError::Corrupt("summary stream count".into()));
        }
        let mut streams = Vec::with_capacity(n);
        for _ in 0..n {
            let count = r.u64()?;
            let n_part = r.len(8)?;
            let mut partials = Vec::with_capacity(n_part);
            for _ in 0..n_part {
                partials.push(r.f64()?);
            }
            let stats = koala_metrics::StreamStatsState {
                count,
                partials,
                w_mean: r.f64()?,
                m2: r.f64()?,
                min: r.f64()?,
                max: r.f64()?,
            };
            let seed = r.u64()?;
            let capacity = r.u64()? as usize;
            let pushed = r.u64()?;
            let n_ent = r.len(16)?;
            if capacity == 0 || n_ent > capacity {
                return Err(SnapshotError::Corrupt("reservoir capacity".into()));
            }
            let mut entries = Vec::with_capacity(n_ent);
            for _ in 0..n_ent {
                entries.push((r.u64()?, r.f64()?));
            }
            streams.push(MetricStream {
                stats: koala_metrics::StreamStats::from_state(stats),
                quantiles: koala_metrics::StreamQuantiles::from_state(
                    koala_metrics::StreamQuantilesState {
                        seed,
                        capacity,
                        pushed,
                        entries,
                    },
                ),
            });
        }
        let mut streams = streams.into_iter();
        let mut next = || streams.next().expect("ten streams were read");
        Ok(SummaryCollector {
            warmup,
            meters,
            jobs_submitted,
            execution_time: next(),
            response_time: next(),
            wait_time: next(),
            avg_size: next(),
            max_size: next(),
            slowdown: next(),
            jobs_completed,
            jobs_failed,
            grow_ops,
            shrink_ops,
            monitor_utilization: next(),
            monitor_queue_depth: next(),
            transfer_time: next(),
            staging_delay: next(),
            scale_ups,
            scale_downs,
            jobs_killed,
            jobs_requeued,
            last_t: SimTime::from_millis(r.u64()?),
            last_total: r.f64()?,
            last_koala: r.f64()?,
            util_integral: r.f64()?,
            util_koala_integral: r.f64()?,
        })
    }
}

/// The measurement sink a [`crate::World`] feeds while it runs: the
/// always-on [`SummaryCollector`], plus the [`DetailCollector`] when the
/// world reports a [`RunReport`] ([`ReportMode`]). Both halves are
/// strictly passive — the simulation trajectory is identical either way.
#[derive(Debug, Clone)]
pub(crate) struct Collector {
    pub(crate) summary: SummaryCollector,
    /// Boxed so a summarized world carries one null pointer, not the
    /// detail's inline footprint.
    pub(crate) detail: Option<Box<DetailCollector>>,
    /// Whether every job was registered at construction
    /// ([`Collector::register_upfront`]) rather than at its arrival.
    upfront: bool,
}

impl Collector {
    /// A collector with empty streams; reservoirs are keyed off the cell
    /// `seed`. Jobs register at their [`Obs::Arrive`] unless the
    /// workload is registered upfront.
    pub(crate) fn new(seed: u64, report: &ReportConfig, detail: Option<DetailCollector>) -> Self {
        let stream = |i: usize| MetricStream::new(seed ^ STREAM_SALTS[i], report.quantile_capacity);
        Collector {
            summary: SummaryCollector {
                warmup: SimTime::ZERO + report.warmup,
                meters: Vec::new(),
                jobs_submitted: 0,
                execution_time: stream(0),
                response_time: stream(1),
                wait_time: stream(2),
                avg_size: stream(3),
                max_size: stream(4),
                slowdown: stream(5),
                jobs_completed: 0,
                jobs_failed: 0,
                grow_ops: 0,
                shrink_ops: 0,
                monitor_utilization: stream(6),
                monitor_queue_depth: stream(7),
                transfer_time: stream(8),
                staging_delay: stream(9),
                scale_ups: 0,
                scale_downs: 0,
                jobs_killed: 0,
                jobs_requeued: 0,
                last_t: SimTime::ZERO,
                last_total: 0.0,
                last_koala: 0.0,
                util_integral: 0.0,
                util_koala_integral: 0.0,
            },
            detail: detail.map(Box::new),
            upfront: false,
        }
    }

    /// Registers every job of an eager workload at construction, in
    /// workload order, so `jobs_submitted` counts the whole workload
    /// even when a horizon cuts the run short; arrivals then register
    /// nothing. Streamed runs register each job as it arrives.
    pub(crate) fn register_upfront(&mut self, submissions: impl Iterator<Item = SimTime>) {
        for (slot, at) in submissions.enumerate() {
            self.summary.arrived(slot, at);
        }
        self.upfront = true;
    }

    /// Folds one lifecycle observation into the summary and, when the
    /// run keeps it, the detail. `slot_of` maps the observed job to its
    /// meter slot (its workload index in eager runs); it is called only
    /// by the kinds that touch a meter or a record.
    pub(crate) fn observe(&mut self, t: SimTime, obs: &Obs, slot_of: impl FnOnce(JobId) -> usize) {
        let c = &mut self.summary;
        let d = self.detail.as_deref_mut();
        match *obs {
            Obs::Arrive { job } if !self.upfront => c.arrived(slot_of(job), t),
            Obs::Place { job, .. } => {
                if let Some(d) = d {
                    d.records[slot_of(job)].placed = Some(t);
                }
            }
            Obs::PlacementFailed { job } => {
                if let Some(d) = d {
                    d.records[slot_of(job)].outcome = JobOutcome::PlacementFailed;
                }
                c.jobs_failed += 1;
            }
            Obs::Start { job, size } => {
                let i = slot_of(job);
                if let Some(d) = d {
                    d.records[i].started = Some(t);
                    d.records[i].size_history.set(t, size as f64);
                }
                let m = &mut c.meters[i];
                m.started = Some(t);
                m.size = size as f64;
                m.last_change = t;
                m.size_integral = 0.0;
                m.size_max = size as f64;
            }
            Obs::Grow { .. } => {
                if let Some(d) = d {
                    d.grow_ops.record(t);
                }
                if t >= c.warmup {
                    c.grow_ops += 1;
                }
            }
            Obs::Shrink { .. } => {
                if let Some(d) = d {
                    d.shrink_ops.record(t);
                }
                if t >= c.warmup {
                    c.shrink_ops += 1;
                }
            }
            Obs::Resume { job, size, grow } => {
                let i = slot_of(job);
                if let Some(d) = d {
                    let rec = &mut d.records[i];
                    rec.size_history.set(t, size as f64);
                    if grow {
                        rec.grows += 1;
                    } else {
                        rec.shrinks += 1;
                    }
                }
                let m = &mut c.meters[i];
                m.size_integral += m.size * (t - m.last_change).as_secs_f64();
                m.size = size as f64;
                m.last_change = t;
                m.size_max = m.size_max.max(size as f64);
            }
            Obs::Complete { job } => {
                let i = slot_of(job);
                if let Some(d) = d {
                    d.records[i].completed = Some(t);
                    d.records[i].outcome = JobOutcome::Completed;
                }
                c.completed(i, t);
            }
            Obs::ScaleUp { .. } if t >= c.warmup => c.scale_ups += 1,
            Obs::ScaleDown { .. } if t >= c.warmup => c.scale_downs += 1,
            Obs::Killed { job, .. } => {
                if let Some(d) = d {
                    d.records[slot_of(job)].outcome = JobOutcome::Killed;
                }
                c.jobs_killed += 1;
            }
            Obs::Requeue { .. } => c.jobs_requeued += 1,
            _ => {}
        }
    }

    /// One monitoring tick: per-cluster utilization fractions plus the
    /// current KOALA placement-queue depth, streamed into the monitor
    /// accumulators (post-warmup only, like the operation counts). The
    /// detail records the queue depth as a step series (per-cluster
    /// utilization already has its own series).
    pub(crate) fn monitor_sample(
        &mut self,
        t: SimTime,
        cluster_utilization: impl Iterator<Item = f64>,
        queue_depth: usize,
    ) {
        if let Some(d) = &mut self.detail {
            d.queue_depth.set(t, queue_depth as f64);
        }
        let c = &mut self.summary;
        if t < c.warmup {
            return;
        }
        for u in cluster_utilization {
            c.monitor_utilization.push(u);
        }
        c.monitor_queue_depth.push(queue_depth as f64);
    }

    /// A staging or redistribution transfer completed after `secs`
    /// seconds on the wire; streamed post-warmup (gated on the
    /// completion instant like the operation counts).
    pub(crate) fn transfer_done(&mut self, t: SimTime, secs: f64) {
        if t >= self.summary.warmup {
            self.summary.transfer_time.push(secs);
        }
    }

    /// A job finished staging `secs` seconds after its processors'
    /// placement was committed (zero when every input was already
    /// local); streamed post-warmup. The detail exposes staging through
    /// the job wait times.
    pub(crate) fn staging_delayed(&mut self, t: SimTime, secs: f64) {
        if t >= self.summary.warmup {
            self.summary.staging_delay.push(secs);
        }
    }

    /// Samples platform utilization after an allocation change.
    pub(crate) fn utilization(&mut self, t: SimTime, mc: &Multicluster) {
        let (total, koala) = (mc.total_used() as f64, mc.total_used_by_koala() as f64);
        if let Some(d) = &mut self.detail {
            d.util_total.set(t, total);
            d.util_koala.set(t, koala);
            for (i, series) in d.util_per_cluster.iter_mut().enumerate() {
                series.set(
                    t,
                    mc.cluster(multicluster::ClusterId(i as u16)).used() as f64,
                );
            }
        }
        let c = &mut self.summary;
        c.integrate_to(t);
        c.last_t = t;
        c.last_total = total;
        c.last_koala = koala;
    }
}

impl SummaryCollector {
    /// Renders the summary, closing the utilization integral at the
    /// makespan. The tallies the world keeps itself (messages, polls,
    /// tries, events, peak live jobs, control-plane and network
    /// counters) start at zero for the caller to fill in.
    pub(crate) fn finish(mut self, name: String, seed: u64, makespan: SimTime) -> SummaryReport {
        self.integrate_to(makespan);
        let warmup = self.warmup.saturating_since(SimTime::ZERO);
        SummaryReport {
            name,
            seed,
            warmup,
            jobs_submitted: self.jobs_submitted,
            jobs_completed: self.jobs_completed,
            jobs_failed: self.jobs_failed,
            execution_time: self.execution_time,
            response_time: self.response_time,
            wait_time: self.wait_time,
            avg_size: self.avg_size,
            max_size: self.max_size,
            slowdown: self.slowdown,
            grow_ops: self.grow_ops,
            shrink_ops: self.shrink_ops,
            grow_messages: 0,
            shrink_messages: 0,
            makespan,
            kis_polls: 0,
            placement_tries: 0,
            failed_submissions: 0,
            events: 0,
            peak_live_jobs: 0,
            monitor_utilization: self.monitor_utilization,
            monitor_queue_depth: self.monitor_queue_depth,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            jobs_killed: self.jobs_killed,
            jobs_requeued: self.jobs_requeued,
            ctrl: CtrlStats::default(),
            net: NetStats::default(),
            transfer_time: self.transfer_time,
            staging_delay: self.staging_delay,
            util_integral: self.util_integral,
            util_koala_integral: self.util_koala_integral,
            util_span_s: makespan.saturating_since(self.warmup).as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koala_metrics::{JobOutcome, JobRecord};

    /// The per-metric reservoir salts must stay pairwise distinct (and
    /// nonzero): two equal salts would give two metrics the *same*
    /// priority stream, silently correlating their reservoir samples.
    /// The full salt allocation table is documented in
    /// `docs/ARCHITECTURE.md`.
    #[test]
    fn stream_salts_are_pairwise_distinct() {
        for (i, a) in STREAM_SALTS.iter().enumerate() {
            assert_ne!(*a, 0, "salt {i} is zero: it would not perturb the seed");
            for (j, b) in STREAM_SALTS.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "salts {i} and {j} collide");
            }
        }
    }

    fn tiny_run(seed: u64, exec_s: u64) -> RunReport {
        let mut jobs = JobTable::new();
        let mut rec = JobRecord::new(0, "FT", true, SimTime::ZERO);
        rec.placed = Some(SimTime::ZERO);
        rec.started = Some(SimTime::ZERO);
        rec.completed = Some(SimTime::from_secs(exec_s));
        rec.outcome = JobOutcome::Completed;
        rec.size_history.set(SimTime::ZERO, 2.0);
        jobs.push(rec);
        let mut util = StepSeries::new();
        util.set(SimTime::ZERO, 2.0);
        util.set(SimTime::from_secs(exec_s), 0.0);
        let mut grow_ops = CumulativeCounter::new();
        grow_ops.record(SimTime::from_secs(1));
        let makespan = SimTime::from_secs(exec_s);
        let summary = Collector::new(seed, &ReportConfig::default(), None)
            .summary
            .finish("T".into(), seed, makespan);
        RunReport {
            summary,
            jobs,
            utilization: util,
            koala_used: StepSeries::new(),
            grow_ops,
            shrink_ops: CumulativeCounter::new(),
            per_cluster_used: Vec::new(),
            queue_depth: StepSeries::new(),
        }
    }

    #[test]
    fn multi_report_merges_jobs_and_ops() {
        let m = MultiReport::new("T", vec![tiny_run(1, 100), tiny_run(2, 200)]);
        assert_eq!(m.merged_jobs().len(), 2);
        assert_eq!(m.merged_grow_ops().total(), 2);
        assert_eq!(m.merged_all_ops().total(), 2);
        assert_eq!(m.max_makespan(), SimTime::from_secs(200));
        assert!((m.completion_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_utilization_integrates_the_step() {
        let r = tiny_run(1, 100);
        let m = r.mean_utilization(SimTime::ZERO, SimTime::from_secs(200));
        assert!((m - 1.0).abs() < 1e-9, "2 procs for half the window: {m}");
    }

    #[test]
    fn pooled_ecdf_spans_runs() {
        let m = MultiReport::new("T", vec![tiny_run(1, 100), tiny_run(2, 300)]);
        let e = m.ecdf_of(koala_metrics::JobRecord::execution_time);
        assert_eq!(e.len(), 2);
        assert_eq!(e.min(), Some(100.0));
        assert_eq!(e.max(), Some(300.0));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_multi_report_panics() {
        MultiReport::new("x", vec![]);
    }

    /// Feeds `obs` to `c` at `t` seconds (meter slot = job index).
    fn see(c: &mut Collector, t: u64, obs: Obs) {
        c.observe(SimTime::from_secs(t), &obs, JobId::index);
    }

    /// A hand-driven summary collector: two jobs, one inside the warmup
    /// window, a grow, and utilization samples.
    fn tiny_summary(seed: u64) -> SummaryReport {
        let warmup = SimDuration::from_secs(50);
        let report = ReportConfig {
            warmup,
            quantile_capacity: 8,
        };
        let mut c = Collector::new(seed, &report, None);
        let (j0, j1) = (JobId(0), JobId(1));
        see(&mut c, 0, Obs::Arrive { job: j0 });
        see(&mut c, 100, Obs::Arrive { job: j1 });
        let mc = multicluster::das3();
        // Job 0 (pre-warmup, excluded): runs 0→40 s.
        see(&mut c, 0, Obs::Start { job: j0, size: 2 });
        see(&mut c, 40, Obs::Complete { job: j0 });
        // Job 1 (measured): starts at 120 s at size 2, grows to 6 at
        // 160 s, completes at 200 s → avg size 4, max 6, exec 80.
        see(&mut c, 120, Obs::Start { job: j1, size: 2 });
        let grow = Obs::Grow {
            job: j1,
            accepted: 4,
            offered: 4,
        };
        see(&mut c, 150, grow);
        see(
            &mut c,
            160,
            Obs::Resume {
                job: j1,
                size: 6,
                grow: true,
            },
        );
        see(&mut c, 200, Obs::Complete { job: j1 });
        c.utilization(SimTime::from_secs(100), &mc);
        c.summary.finish("T".into(), seed, SimTime::from_secs(200))
    }

    #[test]
    fn summary_collector_streams_post_warmup_jobs_only() {
        let s = tiny_summary(1);
        assert_eq!(s.jobs_submitted, 2);
        assert_eq!(s.jobs_completed, 2);
        assert_eq!(s.execution_time.count(), 1, "pre-warmup job trimmed");
        assert_eq!(s.execution_time.mean(), Some(80.0));
        assert_eq!(s.response_time.mean(), Some(100.0));
        assert_eq!(s.wait_time.mean(), Some(20.0));
        assert_eq!(s.avg_size.mean(), Some(4.0));
        assert_eq!(s.max_size.mean(), Some(6.0));
        // Slowdown: resp 100 / max(exec 80, 10) = 1.25.
        assert_eq!(s.slowdown.mean(), Some(1.25));
        assert_eq!(s.grow_ops, 1);
        assert_eq!(s.warmup, SimDuration::from_secs(50));
        assert_eq!(s.makespan, SimTime::from_secs(200));
        // An idle DAS-3 contributes zero utilization.
        assert_eq!(s.mean_utilization(), 0.0);
        assert!((s.completion_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_summary_pools_and_reports_cis() {
        let m = MultiSummary::new("T", vec![tiny_summary(1), tiny_summary(2)]);
        let pooled = m.pooled();
        assert_eq!(pooled.jobs_submitted, 4);
        assert_eq!(pooled.execution_time.count(), 2);
        assert_eq!(pooled.execution_time.mean(), Some(80.0));
        assert_eq!(pooled.grow_ops, 2);
        assert_eq!(pooled.makespan, SimTime::from_secs(200));
        let ci = m.mean_ci(|r| r.execution_time.mean()).unwrap();
        assert_eq!(ci.n, 2);
        assert_eq!(ci.mean, 80.0);
        assert_eq!(ci.half_width, Some(0.0), "identical runs: zero width");
        assert_eq!(m.max_makespan(), SimTime::from_secs(200));
        assert!((m.completion_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(m.mean_ci(|_| None), None);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_multi_summary_panics() {
        MultiSummary::new("x", vec![]);
    }

    #[test]
    fn summary_collector_capture_restore_is_transparent() {
        // Drive two collectors identically, checkpointing one mid-run:
        // the rendered reports must be byte-identical (debug equality),
        // including reservoir contents and priority-stream positions.
        let report = ReportConfig {
            warmup: SimDuration::from_secs(10),
            quantile_capacity: 4,
        };
        let mc = multicluster::das3();
        let (j0, j1) = (JobId(0), JobId(1));
        let drive_prefix = |c: &mut Collector| {
            see(c, 0, Obs::Arrive { job: j0 });
            see(c, 20, Obs::Arrive { job: j1 });
            see(c, 15, Obs::Start { job: j0, size: 2 });
            c.utilization(SimTime::from_secs(15), &mc);
            let grow = Obs::Grow {
                job: j0,
                accepted: 4,
                offered: 4,
            };
            see(c, 18, grow);
            see(
                c,
                25,
                Obs::Resume {
                    job: j0,
                    size: 6,
                    grow: true,
                },
            );
            see(c, 40, Obs::Complete { job: j0 });
        };
        let drive_suffix = |c: &mut Collector| {
            see(c, 45, Obs::Start { job: j1, size: 4 });
            c.monitor_sample(SimTime::from_secs(50), [0.5, 0.25].into_iter(), 3);
            c.transfer_done(SimTime::from_secs(55), 12.5);
            c.staging_delayed(SimTime::from_secs(55), 1.5);
            c.utilization(SimTime::from_secs(60), &mc);
            see(c, 80, Obs::Complete { job: j1 });
        };
        let finish = |c: Collector| c.summary.finish("T".into(), 7, SimTime::from_secs(80));
        let mut straight = Collector::new(7, &report, None);
        drive_prefix(&mut straight);
        drive_suffix(&mut straight);
        let mut original = Collector::new(7, &report, None);
        drive_prefix(&mut original);
        let encode = |c: &SummaryCollector| {
            let mut w = ByteWriter::new();
            c.encode(&mut w);
            w.into_bytes()
        };
        let bytes = encode(&original.summary);
        let mut r = ByteReader::new(&bytes);
        let mut restored = Collector {
            summary: SummaryCollector::decode(&mut r).unwrap(),
            detail: None,
            upfront: false,
        };
        r.finish().unwrap();
        assert_eq!(
            bytes,
            encode(&restored.summary),
            "encode → decode → encode is a fixed point"
        );
        drive_suffix(&mut restored);
        let a = finish(straight);
        let b = finish(restored);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn meter_slots_are_reused_after_retirement() {
        // The streamed-intake contract: re-registering a slot replaces
        // its meter without disturbing already-streamed metrics.
        let report = ReportConfig::default();
        let mut c = Collector::new(1, &report, None);
        // Slot 0 (the meter slot `see` maps job 0 to), then reused by a
        // later arrival.
        let job = JobId(0);
        see(&mut c, 0, Obs::Arrive { job });
        see(&mut c, 0, Obs::Start { job, size: 2 });
        see(&mut c, 50, Obs::Complete { job });
        see(&mut c, 100, Obs::Arrive { job });
        see(&mut c, 110, Obs::Start { job, size: 4 });
        see(&mut c, 140, Obs::Complete { job });
        let s = c.summary.finish("T".into(), 1, SimTime::from_secs(140));
        assert_eq!(s.jobs_submitted, 2);
        assert_eq!(s.jobs_completed, 2);
        assert_eq!(s.execution_time.count(), 2);
        assert_eq!(s.execution_time.mean(), Some(40.0), "(50 + 30) / 2");
        assert_eq!(s.wait_time.mean(), Some(5.0), "(0 + 10) / 2");
    }
}
