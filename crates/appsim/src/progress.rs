//! Work-conserving progress accounting across size changes.
//!
//! A malleable application owns a fixed amount of *work*, normalized to
//! 1.0. Running at size `n` it completes work at rate `1/T(n)` per
//! second, where `T(n)` is its speedup model; so running at a fixed size
//! it finishes after exactly `T(n)` seconds, and across size changes the
//! remaining time is `(1 − done) · T(n_new)`. Reconfiguration pauses
//! (data redistribution) advance no work.
//!
//! The simulation world calls [`Progress::advance`] whenever the size or
//! pause state changes and reads [`Progress::remaining_time`] to schedule
//! the (generation-stamped) completion event.

use simcore::{SimDuration, SimTime};

use crate::speedup::AmdahlOverhead;

/// Progress state of one running malleable (or rigid) application.
#[derive(Debug, Clone)]
pub struct Progress {
    /// Fraction of total work completed, in `[0, 1]`.
    done: f64,
    /// Instant of the last accounting update.
    updated: SimTime,
    /// Current allocation size the work rate derives from.
    size: u32,
    /// True while the application is suspended (reconfiguration sync).
    paused: bool,
    /// Scale factor on the model's execution times (1.0 = the calibrated
    /// application; other values model larger/smaller problem sizes).
    work_scale: f64,
}

impl Progress {
    /// Starts a run at `start` with `size` processors.
    pub fn start(start: SimTime, size: u32, work_scale: f64) -> Self {
        assert!(size >= 1, "cannot run on zero processors");
        assert!(work_scale > 0.0, "work scale must be positive");
        Progress {
            done: 0.0,
            updated: start,
            size,
            paused: false,
            work_scale,
        }
    }

    /// Fraction of work completed as of the last update.
    pub fn done(&self) -> f64 {
        self.done
    }

    /// Current accounted size.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Whether the application is currently suspended.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    fn rate(&self, model: &AmdahlOverhead) -> f64 {
        if self.paused {
            0.0
        } else {
            1.0 / (model.exec_time(self.size) * self.work_scale)
        }
    }

    /// Accounts for the work done since the last update.
    pub fn advance(&mut self, now: SimTime, model: &AmdahlOverhead) {
        debug_assert!(now >= self.updated, "progress accounting went backwards");
        let dt = now.saturating_since(self.updated).as_secs_f64();
        self.done = (self.done + dt * self.rate(model)).min(1.0);
        self.updated = now;
    }

    /// Changes the allocation size at `now` (advancing the accounting
    /// first).
    pub fn resize(&mut self, now: SimTime, new_size: u32, model: &AmdahlOverhead) {
        assert!(new_size >= 1, "cannot resize to zero processors");
        self.advance(now, model);
        self.size = new_size;
    }

    /// Suspends work at `now` (reconfiguration synchronization).
    pub fn pause(&mut self, now: SimTime, model: &AmdahlOverhead) {
        self.advance(now, model);
        self.paused = true;
    }

    /// Resumes work at `now`.
    pub fn resume(&mut self, now: SimTime, model: &AmdahlOverhead) {
        self.advance(now, model);
        self.paused = false;
    }

    /// True when all work is accounted for. The epsilon absorbs the
    /// millisecond rounding of scheduled completion instants (a 0.5 ms
    /// truncation at the slowest calibrated rate leaves ~2e-9 of work).
    pub fn is_complete(&self) -> bool {
        self.done >= 1.0 - 1e-6
    }

    /// Time until completion at the current size and pause state; `None`
    /// while paused (no completion can be scheduled).
    pub fn remaining_time(&self, model: &AmdahlOverhead) -> Option<SimDuration> {
        if self.paused {
            return None;
        }
        let rate = self.rate(model);
        let remaining = (1.0 - self.done).max(0.0);
        Some(SimDuration::from_secs_f64(remaining / rate))
    }

    /// Instant of the last accounting update.
    pub fn updated(&self) -> SimTime {
        self.updated
    }

    /// The work-scale factor this run was started with.
    pub fn work_scale(&self) -> f64 {
        self.work_scale
    }

    /// Rebuilds a mid-run progress record from captured parts, for
    /// checkpoint restore.
    ///
    /// # Panics
    /// Panics when the parts are invalid (zero size, non-positive work
    /// scale, `done` outside `[0, 1]`).
    pub fn from_parts(
        done: f64,
        updated: SimTime,
        size: u32,
        paused: bool,
        work_scale: f64,
    ) -> Self {
        assert!(size >= 1, "cannot run on zero processors");
        assert!(work_scale > 0.0, "work scale must be positive");
        assert!((0.0..=1.0).contains(&done), "done fraction outside [0, 1]");
        Progress {
            done,
            updated,
            size,
            paused,
            work_scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::{ft_model, gadget2_model};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn fixed_size_run_finishes_in_exec_time() {
        let m = ft_model();
        let p = Progress::start(t(0), 2, 1.0);
        let rem = p.remaining_time(&m).unwrap();
        assert!((rem.as_secs_f64() - m.exec_time(2)).abs() < 1e-3);
    }

    #[test]
    fn growth_midway_shortens_the_run() {
        let m = gadget2_model();
        let mut p = Progress::start(t(0), 2, 1.0);
        // Run half of T(2) at size 2: done = 0.5.
        let half = m.exec_time(2) / 2.0;
        let mid = SimTime::from_secs_f64(half);
        p.resize(mid, 32, &m);
        assert!((p.done() - 0.5).abs() < 1e-6);
        let rem = p.remaining_time(&m).unwrap().as_secs_f64();
        assert!((rem - m.exec_time(32) / 2.0).abs() < 1e-3);
        // Total = 300 + 120 < 600: the grow paid off.
        assert!(half + rem < m.exec_time(2));
    }

    #[test]
    fn shrink_midway_lengthens_the_run() {
        let m = gadget2_model();
        let mut p = Progress::start(t(0), 32, 1.0);
        let quarter = m.exec_time(32) / 4.0;
        let mid = SimTime::from_secs_f64(quarter);
        p.resize(mid, 2, &m);
        assert!((p.done() - 0.25).abs() < 1e-6);
        let rem = p.remaining_time(&m).unwrap().as_secs_f64();
        assert!((rem - m.exec_time(2) * 0.75).abs() < 1e-3);
    }

    #[test]
    fn pauses_advance_no_work() {
        let m = ft_model();
        let mut p = Progress::start(t(0), 4, 1.0);
        p.pause(t(10), &m);
        assert!(p.remaining_time(&m).is_none());
        let done_at_pause = p.done();
        p.resume(t(50), &m);
        assert!(
            (p.done() - done_at_pause).abs() < 1e-12,
            "no work while paused"
        );
        // The 40 s pause shifts completion by exactly 40 s.
        let rem = p.remaining_time(&m).unwrap().as_secs_f64();
        let expected_total = 50.0 + rem;
        assert!((expected_total - (m.exec_time(4) + 40.0)).abs() < 1e-3);
    }

    #[test]
    fn work_is_conserved_across_many_resizes() {
        let m = gadget2_model();
        let mut p = Progress::start(t(0), 2, 1.0);
        let sizes = [4u32, 8, 16, 32, 16, 8, 46, 2, 32];
        let mut now = t(0);
        for (i, &s) in sizes.iter().enumerate() {
            now += SimDuration::from_secs(20 + i as u64);
            p.resize(now, s, &m);
            assert!(p.done() < 1.0);
        }
        // Finish the rest at the final size.
        let rem = p.remaining_time(&m).unwrap();
        p.advance(now + rem, &m);
        assert!(p.is_complete());
    }

    #[test]
    fn work_scale_stretches_time() {
        let m = ft_model();
        let p1 = Progress::start(t(0), 8, 1.0);
        let p2 = Progress::start(t(0), 8, 2.5);
        let r1 = p1.remaining_time(&m).unwrap().as_secs_f64();
        let r2 = p2.remaining_time(&m).unwrap().as_secs_f64();
        assert!((r2 / r1 - 2.5).abs() < 1e-9);
    }

    #[test]
    fn from_parts_resumes_accounting_exactly() {
        let m = gadget2_model();
        let mut p = Progress::start(t(0), 8, 1.5);
        p.resize(t(100), 16, &m);
        p.pause(t(150), &m);
        let copy = Progress::from_parts(
            p.done(),
            p.updated(),
            p.size(),
            p.is_paused(),
            p.work_scale(),
        );
        let mut a = p;
        let mut b = copy;
        a.resume(t(200), &m);
        b.resume(t(200), &m);
        assert_eq!(a.done(), b.done());
        assert_eq!(a.remaining_time(&m), b.remaining_time(&m));
    }

    #[test]
    fn completion_clamps_at_one() {
        let m = ft_model();
        let mut p = Progress::start(t(0), 16, 1.0);
        p.advance(t(10_000), &m);
        assert!(p.is_complete());
        assert_eq!(p.done(), 1.0);
        assert_eq!(p.remaining_time(&m), Some(SimDuration::ZERO));
    }
}
