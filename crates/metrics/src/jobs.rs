//! Per-job lifecycle records and the derived metrics the paper reports.
//!
//! For every job the experiments track submission, placement, start and
//! completion instants plus the allocation-size history. From these the
//! four per-job quantities of Figs. 7/8(a–d) follow:
//!
//! * **execution time** — completion − start (the paper's Figs. 7c/8c);
//! * **response time** — completion − submission (Figs. 7d/8d);
//! * **time-averaged size** — time-weighted mean of the size history over
//!   the execution (Figs. 7a/8a);
//! * **maximum size** — peak of the size history (Figs. 7b/8b).

use crate::ecdf::Ecdf;
use crate::series::StepSeries;
use simcore::SimTime;

/// Terminal state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed normally.
    Completed,
    /// Dropped after exceeding the placement-retry threshold.
    PlacementFailed,
    /// Killed by a node crash (elasticity experiments with
    /// `FailurePolicy::Kill`).
    Killed,
    /// Still in the system when the experiment ended.
    Unfinished,
}

/// Lifecycle record of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Stable identifier (the workload index).
    pub id: u64,
    /// Free-form application label (`"FT"`, `"GADGET2"`, …).
    pub app: String,
    /// `true` for malleable jobs, `false` for rigid/moldable ones.
    pub malleable: bool,
    /// Submission instant.
    pub submitted: SimTime,
    /// Instant the job was successfully placed (allocation decided).
    pub placed: Option<SimTime>,
    /// Instant execution actually started (resources claimed and held).
    pub started: Option<SimTime>,
    /// Completion instant.
    pub completed: Option<SimTime>,
    /// Terminal state.
    pub outcome: JobOutcome,
    /// Processor allocation over the job's execution.
    pub size_history: StepSeries,
    /// Number of grow operations the job underwent.
    pub grows: u32,
    /// Number of shrink operations the job underwent.
    pub shrinks: u32,
}

impl JobRecord {
    /// Creates a record for a job submitted at `submitted`.
    pub fn new(id: u64, app: impl Into<String>, malleable: bool, submitted: SimTime) -> Self {
        JobRecord {
            id,
            app: app.into(),
            malleable,
            submitted,
            placed: None,
            started: None,
            completed: None,
            outcome: JobOutcome::Unfinished,
            size_history: StepSeries::new(),
            grows: 0,
            shrinks: 0,
        }
    }

    /// Execution time in seconds (completion − start), if the job ran to
    /// completion.
    pub fn execution_time(&self) -> Option<f64> {
        Some((self.completed? - self.started?).as_secs_f64())
    }

    /// Response time in seconds (completion − submission).
    pub fn response_time(&self) -> Option<f64> {
        Some((self.completed? - self.submitted).as_secs_f64())
    }

    /// Wait time in seconds (start − submission).
    pub fn wait_time(&self) -> Option<f64> {
        Some((self.started? - self.submitted).as_secs_f64())
    }

    /// Bounded slowdown: `max(1, response / max(tau, execution))` — the
    /// standard scheduling metric (Feitelson), with the `tau` floor
    /// keeping very short jobs from dominating.
    pub fn bounded_slowdown(&self, tau_s: f64) -> Option<f64> {
        let resp = self.response_time()?;
        let exec = self.execution_time()?;
        Some((resp / exec.max(tau_s)).max(1.0))
    }

    /// Time-weighted average allocation size over the execution.
    pub fn average_size(&self) -> Option<f64> {
        let (s, e) = (self.started?, self.completed?);
        Some(self.size_history.time_weighted_mean(s, e, 0.0))
    }

    /// Maximum allocation size reached during the execution.
    pub fn max_size(&self) -> Option<f64> {
        let (s, e) = (self.started?, self.completed?);
        self.size_history.max_in(s, e)
    }
}

/// A collection of job records with the aggregations the figures need.
#[derive(Debug, Clone, Default)]
pub struct JobTable {
    records: Vec<JobRecord>,
}

impl JobTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a record.
    pub fn push(&mut self, r: JobRecord) {
        self.records.push(r);
    }

    /// All records.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records that completed.
    pub fn completed(&self) -> impl Iterator<Item = &JobRecord> {
        self.records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
    }

    /// Fraction of submitted jobs that completed.
    pub fn completion_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.completed().count() as f64 / self.records.len() as f64
    }

    /// ECDF of a per-job metric over completed jobs.
    pub fn ecdf_of(&self, f: impl Fn(&JobRecord) -> Option<f64>) -> Ecdf {
        Ecdf::from_iter(self.completed().filter_map(f))
    }

    /// ECDF of execution times (Fig. 7c/8c).
    pub fn execution_time_ecdf(&self) -> Ecdf {
        self.ecdf_of(JobRecord::execution_time)
    }

    /// ECDF of response times (Fig. 7d/8d).
    pub fn response_time_ecdf(&self) -> Ecdf {
        self.ecdf_of(JobRecord::response_time)
    }

    /// ECDF of time-averaged sizes (Fig. 7a/8a).
    pub fn average_size_ecdf(&self) -> Ecdf {
        self.ecdf_of(JobRecord::average_size)
    }

    /// ECDF of bounded slowdowns with a 10 s floor.
    pub fn slowdown_ecdf(&self) -> Ecdf {
        self.ecdf_of(|r| r.bounded_slowdown(10.0))
    }

    /// Restricts to jobs whose application label matches.
    pub fn filter_app(&self, app: &str) -> JobTable {
        JobTable {
            records: self
                .records
                .iter()
                .filter(|r| r.app == app)
                .cloned()
                .collect(),
        }
    }

    /// Total grow operations across all jobs.
    pub fn total_grows(&self) -> u64 {
        self.records.iter().map(|r| r.grows as u64).sum()
    }

    /// Total shrink operations across all jobs.
    pub fn total_shrinks(&self) -> u64 {
        self.records.iter().map(|r| r.shrinks as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn record(id: u64, submit: u64, start: u64, end: u64, sizes: &[(u64, f64)]) -> JobRecord {
        let mut r = JobRecord::new(id, "FT", true, s(submit));
        r.placed = Some(s(start));
        r.started = Some(s(start));
        r.completed = Some(s(end));
        r.outcome = JobOutcome::Completed;
        for &(t, v) in sizes {
            r.size_history.set(s(t), v);
        }
        r
    }

    #[test]
    fn derived_times() {
        let r = record(1, 0, 10, 110, &[(10, 2.0)]);
        assert_eq!(r.execution_time(), Some(100.0));
        assert_eq!(r.response_time(), Some(110.0));
        assert_eq!(r.wait_time(), Some(10.0));
    }

    #[test]
    fn size_metrics_are_time_weighted() {
        // size 2 for 50 s, then 8 for 50 s → avg 5, max 8.
        let r = record(1, 0, 0, 100, &[(0, 2.0), (50, 8.0)]);
        assert_eq!(r.average_size(), Some(5.0));
        assert_eq!(r.max_size(), Some(8.0));
    }

    #[test]
    fn incomplete_jobs_yield_none() {
        let r = JobRecord::new(1, "FT", true, s(0));
        assert_eq!(r.execution_time(), None);
        assert_eq!(r.average_size(), None);
    }

    #[test]
    fn table_ecdfs_cover_only_completed() {
        let mut t = JobTable::new();
        t.push(record(1, 0, 0, 100, &[(0, 2.0)]));
        t.push(record(2, 0, 0, 200, &[(0, 4.0)]));
        let mut unfinished = JobRecord::new(3, "FT", true, s(0));
        unfinished.outcome = JobOutcome::Unfinished;
        t.push(unfinished);
        assert_eq!(t.len(), 3);
        assert_eq!(t.execution_time_ecdf().len(), 2);
        assert!((t.completion_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn filter_by_app() {
        let mut t = JobTable::new();
        t.push(record(1, 0, 0, 100, &[(0, 2.0)]));
        let mut g = record(2, 0, 0, 600, &[(0, 2.0)]);
        g.app = "GADGET2".into();
        t.push(g);
        assert_eq!(t.filter_app("GADGET2").len(), 1);
        assert_eq!(t.filter_app("FT").len(), 1);
        assert_eq!(t.filter_app("nope").len(), 0);
    }

    #[test]
    fn bounded_slowdown_floors_at_one() {
        // Response 110 s, execution 100 s: slowdown 1.1.
        let r = record(1, 0, 10, 110, &[(10, 2.0)]);
        assert!((r.bounded_slowdown(10.0).unwrap() - 1.1).abs() < 1e-12);
        // A job with no wait has slowdown exactly 1.
        let r = record(2, 0, 0, 100, &[(0, 2.0)]);
        assert_eq!(r.bounded_slowdown(10.0), Some(1.0));
        // The tau floor caps the effect of tiny executions.
        let r = record(3, 0, 100, 101, &[(100, 2.0)]); // exec 1s, resp 101s
        assert!((r.bounded_slowdown(10.0).unwrap() - 10.1).abs() < 1e-12);
    }

    #[test]
    fn grow_shrink_totals() {
        let mut t = JobTable::new();
        let mut r = record(1, 0, 0, 100, &[(0, 2.0)]);
        r.grows = 3;
        r.shrinks = 1;
        t.push(r);
        let mut r2 = record(2, 0, 0, 100, &[(0, 2.0)]);
        r2.grows = 2;
        t.push(r2);
        assert_eq!(t.total_grows(), 5);
        assert_eq!(t.total_shrinks(), 1);
    }
}
