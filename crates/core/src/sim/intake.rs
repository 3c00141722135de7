//! The intake: where a world's jobs come from (see [`Intake`]).

use std::borrow::Cow;
use std::collections::VecDeque;

use appsim::generate::JobStream;
use appsim::workload::SubmittedJob;
use simcore::{Engine, SimTime};

use super::{Ev, World};
use crate::ids::JobId;
use crate::job::Job;

/// The default streaming look-ahead window: how many future arrivals the
/// streaming intake keeps scheduled ahead of simulated time (see
/// [`World::for_stream_summarized`]).
pub const DEFAULT_LOOKAHEAD: usize = 1024;

/// Where a world's jobs come from.
///
/// The eager variant is the classic path: the whole workload is
/// materialized (generated or an explicit trace) and every arrival is
/// scheduled at bootstrap. The streaming variant pulls jobs from a
/// [`JobStream`] through a bounded look-ahead window — at most `window`
/// arrivals are scheduled ahead of simulated time, so a million-job
/// trace never exists in memory at once.
pub(super) enum Intake<'a> {
    /// Materialized workload (owned when generated, borrowed for traces).
    Fixed {
        workload: Cow<'a, [SubmittedJob]>,
        /// Arrivals delivered so far.
        arrivals_seen: usize,
    },
    /// Incremental intake from a job stream. The stream is borrowed so
    /// the caller can inspect it after the run (e.g.
    /// [`appsim::swf::SwfJobStream::error`] — a mid-trace parse failure
    /// must not masquerade as a successful short run).
    Stream {
        src: &'a mut (dyn JobStream + 'a),
        /// Jobs whose arrival events are scheduled but have not fired
        /// yet, in arrival order (the bounded look-ahead window).
        pending: VecDeque<SubmittedJob>,
        /// Window size.
        window: usize,
        /// Next job id to assign.
        next_id: u32,
        /// Arrival clamp: streams must be nondecreasing in time; the
        /// occasional inversion in a real trace is clamped up to this.
        last_at: SimTime,
        /// The stream returned `None`.
        exhausted: bool,
    },
}

impl Intake<'_> {
    /// Whether every job has arrived: the arrival half of
    /// [`World::done`].
    pub(super) fn all_arrived(&self) -> bool {
        match self {
            Intake::Fixed {
                workload,
                arrivals_seen,
            } => *arrivals_seen == workload.len(),
            Intake::Stream {
                pending, exhausted, ..
            } => *exhausted && pending.is_empty(),
        }
    }
}

impl<'a> World<'a> {
    /// Schedules the intake's first arrivals: the whole fixed workload,
    /// or a stream's first look-ahead window.
    pub(super) fn schedule_arrivals(&mut self, engine: &mut Engine<Ev>) {
        match &self.intake {
            Intake::Fixed { workload, .. } => {
                for (i, s) in workload.iter().enumerate() {
                    engine.schedule_at(s.at, Ev::Arrival(i as u32));
                }
            }
            Intake::Stream { window, .. } => {
                // Prime the look-ahead window.
                let window = *window;
                for _ in 0..window {
                    if !self.pull_one(engine) {
                        break;
                    }
                }
            }
        }
    }

    /// Job `id` arrives: a fixed intake counts it; a streaming intake
    /// materializes it into the slab now and refills its window.
    pub(super) fn admit(&mut self, engine: &mut Engine<Ev>, id: JobId) {
        match &mut self.intake {
            Intake::Fixed { arrivals_seen, .. } => *arrivals_seen += 1,
            Intake::Stream { pending, .. } => {
                // Arrivals fire in schedule order at nondecreasing times, so
                // the window's front is always the job this event is for.
                let sj = pending.pop_front().expect("arrival without pending job");
                let job = Job::new(id, sj.spec, sj.at);
                self.jobs.insert(job);
                // Keep the look-ahead window full.
                self.pull_one(engine);
            }
        }
    }

    /// Pulls one job from the stream into the look-ahead window and
    /// schedules its arrival. Returns `false` when the stream is
    /// exhausted. No-op for fixed intakes (their arrivals are all
    /// scheduled at bootstrap).
    pub(super) fn pull_one(&mut self, engine: &mut Engine<Ev>) -> bool {
        let Intake::Stream {
            src,
            pending,
            next_id,
            last_at,
            exhausted,
            ..
        } = &mut self.intake
        else {
            return false;
        };
        if *exhausted {
            return false;
        }
        match src.next_job() {
            Some(mut job) => {
                // Streams must be nondecreasing in arrival time; clamp
                // the occasional inversion of a real trace upward so the
                // event order matches the window order.
                job.at = job.at.max(*last_at);
                *last_at = job.at;
                let id = *next_id;
                *next_id = next_id
                    .checked_add(1)
                    .expect("more than u32::MAX streamed jobs");
                engine.schedule_at(job.at, Ev::Arrival(id));
                pending.push_back(job);
                true
            }
            None => {
                *exhausted = true;
                false
            }
        }
    }
}
