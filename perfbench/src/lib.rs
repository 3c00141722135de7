//! Host-time benchmark of the malleable-koala simulator.
//!
//! The benchmark runs one named workload through the simulator's public
//! runners in a closed loop (each task starts when the previous one
//! ends), verifies every output, and reports end-to-end host-time
//! metrics. A separate traced run drives the same reference tasks
//! through the public `World`/`Engine` calls with spans around each one
//! and reports the per-layer split. See `README.md` in this directory.

pub mod host;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use koala::report::{MultiSummary, NetStats, SummaryReport};

use spans::{ns_since, SelfTimer, Spans, START_HELD, UNDELIVERED, VARIANTS};
use workloads::Workload;

/// Output checks every summary must pass; `expected_jobs` is the number
/// of jobs the task submitted.
pub fn check_summary(s: &SummaryReport, expected_jobs: u64) -> Result<(), String> {
    let terminal = s.jobs_completed + s.jobs_failed + s.jobs_killed;
    if s.jobs_submitted != expected_jobs {
        return Err(format!(
            "{} seed {}: {} jobs submitted, expected {expected_jobs}",
            s.name, s.seed, s.jobs_submitted
        ));
    }
    if s.jobs_submitted != terminal {
        return Err(format!(
            "{} seed {}: submitted {} != completed {} + failed {} + killed {}",
            s.name, s.seed, s.jobs_submitted, s.jobs_completed, s.jobs_failed, s.jobs_killed
        ));
    }
    if s.ctrl.leaked_allocations != 0 {
        return Err(format!(
            "{} seed {}: {} leaked allocations",
            s.name, s.seed, s.ctrl.leaked_allocations
        ));
    }
    // Jobs wait for their staging transfers, so those always complete.
    // Redistribution flows are fire-and-forget: a run may end while one
    // is still on the wire, so only they may stay open.
    let net = &s.net;
    let still_open = net.transfers_opened.checked_sub(net.transfers_completed);
    if still_open.is_none_or(|open| open > net.reconfig_transfers) {
        return Err(format!(
            "{} seed {}: {} transfers opened ({} redistribution), {} completed",
            s.name, s.seed, net.transfers_opened, net.reconfig_transfers, net.transfers_completed
        ));
    }
    Ok(())
}

/// Jobs of a summary that reached a terminal state.
pub fn terminal_jobs(s: &SummaryReport) -> u64 {
    s.jobs_completed + s.jobs_failed + s.jobs_killed
}

/// FNV-1a over the `{:?}` rendering of `summaries`: changes whenever a
/// trajectory does.
pub fn digest(summaries: &[SummaryReport]) -> u64 {
    format!("{summaries:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Pools the summaries of each cell name across its seeds
/// (`MultiSummary::pooled`), names in order of first appearance.
pub fn pool(summaries: &[SummaryReport]) -> Vec<SummaryReport> {
    let mut order: Vec<&str> = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<SummaryReport>> = BTreeMap::new();
    for s in summaries {
        let runs = by_name.entry(&s.name).or_insert_with(|| {
            order.push(&s.name);
            Vec::new()
        });
        runs.push(s.clone());
    }
    order
        .into_iter()
        .map(|name| MultiSummary::new(name, by_name.remove(name).unwrap_or_default()).pooled())
        .collect()
}

/// Nearest-rank percentile `q` of sorted `samples`, and how many samples
/// lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> (u64, usize) {
    if sorted.is_empty() {
        return (0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs task `i` untraced, catching panics.
fn run_task(w: &dyn Workload, i: usize) -> Result<workloads::TaskOut, String> {
    catch_unwind(AssertUnwindSafe(|| w.run_task(i)))
        .unwrap_or_else(|p| Err(format!("task {i} panicked: {}", panic_text(&p))))
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

fn check_task(w: &dyn Workload, i: usize, summaries: &[SummaryReport]) -> Result<(), String> {
    summaries
        .iter()
        .try_for_each(|s| check_summary(s, w.expected_jobs(i)))
}

/// The untraced, timed closed loop.
#[derive(Default)]
pub struct TimedPass {
    pub attempted: usize,
    pub failed: usize,
    pub wall_s: f64,
    /// Jobs that reached a terminal state, summed over every cell.
    pub terminal_jobs: u64,
    /// Unit samples in nanoseconds.
    pub samples_ns: Vec<u64>,
    /// The reference round's summaries, per task (`None` for a failed
    /// task).
    pub round: Vec<Option<Vec<SummaryReport>>>,
    /// The reference round pooled per cell.
    pub round_pooled: Vec<SummaryReport>,
    pub problems: Vec<String>,
}

/// Runs tasks `0, 1, 2, …` back to back until `seconds` have passed and
/// at least one reference round is done. Each completed round is pooled
/// per cell, as a figure pipeline pools its seeds, and then dropped.
/// `between_rounds` runs after each round; its time is not counted.
pub fn timed_pass(w: &dyn Workload, seconds: f64, mut between_rounds: impl FnMut()) -> TimedPass {
    let round_len = w.round_len();
    let mut pass = TimedPass::default();
    let mut block: Vec<SummaryReport> = Vec::new();
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let measured = |paused: Duration| (t0.elapsed() - paused).as_secs_f64();
    let mut i = 0;
    while i < round_len || measured(paused) < seconds {
        let ts = Instant::now();
        let out = run_task(w, i).and_then(|out| {
            check_task(w, i, &out.summaries)?;
            Ok(out)
        });
        let dt = ns_since(ts);
        pass.attempted += 1;
        match out {
            Ok(out) => {
                if out.samples_ns.is_empty() {
                    pass.samples_ns.push(dt);
                } else {
                    pass.samples_ns.extend(&out.samples_ns);
                }
                pass.terminal_jobs += out.summaries.iter().map(terminal_jobs).sum::<u64>();
                block.extend(out.summaries.iter().cloned());
                if i < round_len {
                    pass.round.push(Some(out.summaries));
                }
            }
            Err(e) => {
                pass.failed += 1;
                pass.problems.push(e);
                if i < round_len {
                    pass.round.push(None);
                }
            }
        }
        i += 1;
        if i % round_len == 0 {
            let pooled = pool(&block);
            block.clear();
            if i == round_len {
                pass.round_pooled = pooled;
            }
            let tp = Instant::now();
            between_rounds();
            paused += tp.elapsed();
        }
    }
    if !block.is_empty() {
        pool(&block);
    }
    pass.wall_s = measured(paused);
    pass
}

/// The reference round's summaries flattened in task order, or `None`
/// when a task of the round failed.
pub fn flat_round(round: &[Option<Vec<SummaryReport>>]) -> Option<Vec<SummaryReport>> {
    round.iter().try_fold(Vec::new(), |mut acc, task| {
        acc.extend(task.as_ref()?.iter().cloned());
        Some(acc)
    })
}

/// One traced pass over the reference round.
pub struct TracedPass {
    pub spans: Spans,
    pub wall_ns: u64,
    /// Summaries per task (`None` for a failed task).
    pub tasks: Vec<Option<Vec<SummaryReport>>>,
    pub failed: usize,
    pub problems: Vec<String>,
}

/// Installs the policy clocks and runs the reference round traced, then
/// pools it per cell. Run every untraced pass of the process first: the
/// clocks stay registered.
pub fn traced_pass(w: &dyn Workload) -> TracedPass {
    spans::install_policy_clocks();
    Spans::reset_nested();
    let mut spans = Spans::default();
    let mut tasks = Vec::new();
    let mut problems = Vec::new();
    let mut all = Vec::new();
    let t0 = Instant::now();
    for i in 0..w.round_len() {
        let out = catch_unwind(AssertUnwindSafe(|| w.run_task_traced(i, &mut spans)))
            .unwrap_or_else(|p| Err(format!("traced task {i} panicked: {}", panic_text(&p))))
            .and_then(|summaries| {
                check_task(w, i, &summaries)?;
                Ok(summaries)
            });
        match out {
            Ok(summaries) => {
                all.extend(summaries.iter().cloned());
                tasks.push(Some(summaries));
            }
            Err(e) => {
                problems.push(e);
                tasks.push(None);
            }
        }
    }
    let timer = SelfTimer::start();
    pool(&all);
    spans.pool_ns += timer.stop();
    let wall_ns = ns_since(t0);
    spans.collect_nested();
    TracedPass {
        spans,
        wall_ns,
        failed: tasks.iter().filter(|t| t.is_none()).count(),
        tasks,
        problems,
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The deterministic counts of a traced pass: machine-independent, so
/// they must repeat exactly for the same seed.
pub fn counts(spans: &Spans, summaries: &[SummaryReport]) -> Vec<(String, u64)> {
    let mut out = vec![("engine.pops".to_string(), spans.pops)];
    for (v, n) in VARIANTS.iter().zip(spans.handle_n) {
        out.push((format!("handle.{v}.n"), n));
    }
    let sum = |f: fn(&SummaryReport) -> u64| summaries.iter().map(f).sum::<u64>();
    out.extend([
        ("placement.calls".to_string(), spans.place_calls),
        ("malleability.grow_calls".to_string(), spans.grow_calls),
        ("malleability.shrink_calls".to_string(), spans.shrink_calls),
        ("intake.jobs".to_string(), spans.intake_jobs),
        ("snapshot.bytes".to_string(), spans.snapshot_bytes),
        ("snapshot.forks".to_string(), spans.forks),
        ("avail.quick_rejects".to_string(), spans.quick_rejects),
        ("avail.rebuilds".to_string(), spans.rebuilds),
        ("net.transfers".to_string(), sum(|s| s.net.transfers_opened)),
        ("ctrl.retries".to_string(), sum(|s| s.ctrl.retries)),
        (
            "ctrl.messages_lost".to_string(),
            sum(|s| s.ctrl.messages_lost),
        ),
        ("ctrl.polls_lost".to_string(), sum(|s| s.ctrl.polls_lost)),
    ]);
    out
}

/// Every end-to-end metric, in `BENCHMARK.json` order.
pub fn end_to_end_metrics(setup_s: f64, pass: &TimedPass, peak_rss_mb: f64) -> Vec<Metric> {
    let mut samples = pass.samples_ns.clone();
    samples.sort_unstable();
    let (p50, _) = percentile(&samples, 0.5);
    let (p90, _) = percentile(&samples, 0.9);
    vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new(
            "jobs_per_s",
            "jobs/s",
            ratio(pass.terminal_jobs as f64, pass.wall_s),
        ),
        Metric::new("unit_ms_p50", "ms", p50 as f64 / 1e6),
        Metric::new("unit_ms_p90", "ms", p90 as f64 / 1e6),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// Measurements of a traced run besides its spans.
pub struct TracedRun<'a> {
    pub traced: &'a TracedPass,
    /// Untraced wall time of the same round on one worker.
    pub untraced_ns: u64,
    /// Untraced 1-thread ÷ 2-thread wall time (0 when not measured).
    pub speedup_2t: f64,
    pub host: &'a host::Host,
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn layer_metrics(run: &TracedRun<'_>) -> Vec<Metric> {
    let sp = &run.traced.spans;
    let summaries: Vec<SummaryReport> = run
        .traced
        .tasks
        .iter()
        .flatten()
        .flatten()
        .cloned()
        .collect();
    let sum = |f: fn(&SummaryReport) -> u64| summaries.iter().map(f).sum::<u64>() as f64;
    let mut m = vec![
        Metric::new("engine.pop_s", "s", secs(sp.pop_ns)),
        Metric::new("engine.pops", "count", sp.pops as f64),
        Metric::new("engine.pending_max", "count", sp.pending_max as f64),
        Metric::new(
            "engine.ns_per_pop",
            "ns",
            ratio(sp.pop_ns as f64, sp.pops as f64),
        ),
    ];
    let handled = VARIANTS.iter().zip(sp.handle_ns.iter().zip(sp.handle_n));
    for (v, (ns, n)) in handled.filter(|(v, _)| !UNDELIVERED.contains(v)) {
        m.push(Metric::new(format!("handle.{v}.s"), "s", secs(*ns)));
        m.push(Metric::new(format!("handle.{v}.n"), "count", n as f64));
    }
    let mut net = NetStats::default();
    summaries.iter().for_each(|s| net.merge(&s.net));
    m.extend([
        Metric::new("placement.calls", "count", sp.place_calls as f64),
        Metric::new("placement.s", "s", secs(sp.place_ns)),
        Metric::new(
            "placement.useful_frac",
            "ratio",
            ratio(sp.handle_n[START_HELD] as f64, sp.place_calls as f64),
        ),
        Metric::new("malleability.grow_calls", "count", sp.grow_calls as f64),
        Metric::new("malleability.shrink_calls", "count", sp.shrink_calls as f64),
        Metric::new("malleability.s", "s", secs(sp.mall_ns)),
        Metric::new(
            "malleability.accept_frac",
            "ratio",
            ratio(sp.mall_accepted as f64, sp.mall_offered as f64),
        ),
        Metric::new("intake.next_job_s", "s", secs(sp.intake_ns)),
        Metric::new("intake.jobs", "count", sp.intake_jobs as f64),
        Metric::new("world.assemble_s", "s", secs(sp.assemble_ns)),
        Metric::new("report.finish_s", "s", secs(sp.finish_ns)),
        Metric::new("report.pool_s", "s", secs(sp.pool_ns)),
        Metric::new("snapshot.prefix_s", "s", secs(sp.prefix_ns)),
        Metric::new("snapshot.capture_s", "s", secs(sp.capture_ns)),
        Metric::new("snapshot.fork_s", "s", secs(sp.fork_ns)),
        Metric::new("snapshot.bytes", "bytes", sp.snapshot_bytes as f64),
        Metric::new("snapshot.forks", "count", sp.forks as f64),
        Metric::new("parallel.speedup_2t", "x", run.speedup_2t),
        Metric::new("avail.quick_rejects", "count", sp.quick_rejects as f64),
        Metric::new("avail.rebuilds", "count", sp.rebuilds as f64),
        Metric::new("net.transfers", "count", net.transfers_opened as f64),
        Metric::new("net.link_busy_frac", "ratio", net.link_busy_fraction()),
        Metric::new("ctrl.retries", "count", sum(|s| s.ctrl.retries)),
        Metric::new("ctrl.messages_lost", "count", sum(|s| s.ctrl.messages_lost)),
        Metric::new("ctrl.polls_lost", "count", sum(|s| s.ctrl.polls_lost)),
        Metric::new("trace.wall_s", "s", secs(run.traced.wall_ns)),
        Metric::new("trace.untraced_s", "s", secs(run.untraced_ns)),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            ratio(run.traced.wall_ns as f64, run.untraced_ns as f64) - 1.0,
        ),
        Metric::new(
            "trace.attributed_frac",
            "ratio",
            ratio(sp.attributed_ns() as f64, run.traced.wall_ns as f64),
        ),
        Metric::new("host.calib_ms", "ms", run.host.calib_ms),
        Metric::new("host.clock_read_ns", "ns", run.host.clock_read_ns),
        Metric::new("host.nproc", "count", run.host.nproc as f64),
    ]);
    m
}

/// The result line: the last line the benchmark prints.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
