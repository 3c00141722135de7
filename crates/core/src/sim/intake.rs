//! The intake: where a world's jobs come from (see [`Intake`]).

use std::collections::VecDeque;

use appsim::generate::{JobStream, SliceStream};
use appsim::workload::SubmittedJob;
use simcore::{Engine, SimTime};

use super::{Ev, World};
use crate::ids::JobId;
use crate::job::Job;

/// The default streaming look-ahead window: how many future arrivals the
/// streaming intake keeps scheduled ahead of simulated time (see
/// [`World::for_stream_summarized`]).
pub const DEFAULT_LOOKAHEAD: usize = 1024;

/// The window of an eager run: no bound, so bootstrap pulls the whole
/// workload and schedules every arrival up front.
pub(crate) const UNBOUNDED: usize = usize::MAX;

/// Where a world's jobs come from: a [`JobStream`] pulled through a
/// look-ahead window. At most `window` arrivals are scheduled ahead of
/// simulated time, so a million-job trace never exists in memory at
/// once; an eager run is the same window with no bound. A job counts as
/// submitted when it is pulled, and enters the job slab at its arrival.
pub(super) struct Intake<'a> {
    /// The job source, dropped once it runs dry.
    src: Option<Source<'a>>,
    /// Whether the source is the configuration's own workload, so a
    /// restore can rebuild it from `(config, seed)`. A caller's stream
    /// cannot be rewound.
    pub(super) own: bool,
    /// Jobs whose arrival events are scheduled but have not fired yet,
    /// in arrival order (the look-ahead window).
    pub(super) pending: VecDeque<SubmittedJob>,
    /// Window size.
    window: usize,
    /// Next job id to assign: the number of jobs pulled.
    next_id: u32,
    /// Arrival clamp of a caller's stream: arrivals must be
    /// nondecreasing; the occasional inversion of a real trace is
    /// clamped up to this (a configuration's trace is validated sorted).
    last_at: SimTime,
}

/// A world's job source.
pub(super) enum Source<'a> {
    /// The configuration's explicit trace, borrowed.
    Trace(SliceStream<'a>),
    /// A registered generator's stream, or the configuration's
    /// generated workload.
    Generated(Box<dyn JobStream>),
    /// A caller's stream, borrowed so the caller can inspect it after
    /// the run (e.g. [`appsim::swf::SwfJobStream::error`] — a mid-trace
    /// parse failure must not masquerade as a successful short run).
    Caller(&'a mut (dyn JobStream + 'a)),
}

impl Source<'_> {
    fn stream(&mut self) -> &mut dyn JobStream {
        match self {
            Source::Trace(s) => s,
            Source::Generated(s) => s.as_mut(),
            Source::Caller(s) => *s,
        }
    }
}

impl<'a> Intake<'a> {
    /// An intake pulling `src` through a window of `window` arrivals.
    pub(super) fn new(mut src: Source<'a>, window: usize) -> Self {
        let window = window.max(1);
        let own = !matches!(src, Source::Caller(_));
        let hint = src.stream().remaining_hint().unwrap_or(0);
        let capacity = usize::try_from(hint).unwrap_or(usize::MAX).min(window);
        Intake {
            src: Some(src),
            own,
            pending: VecDeque::with_capacity(capacity),
            window,
            next_id: 0,
            last_at: SimTime::ZERO,
        }
    }

    /// Whether the source has run dry (and was dropped).
    pub(super) fn exhausted(&self) -> bool {
        self.src.is_none()
    }

    /// Whether every job has arrived: the arrival half of
    /// [`World::done`].
    pub(super) fn all_arrived(&self) -> bool {
        self.exhausted() && self.pending.is_empty()
    }

    /// Jobs delivered so far.
    pub(super) fn arrived(&self) -> usize {
        self.next_id as usize - self.pending.len()
    }

    /// Pulls the next job into the window and returns its id and the
    /// job; `None` (dropping the source) once the stream is exhausted.
    pub(super) fn pull(&mut self) -> Option<(JobId, &SubmittedJob)> {
        let Some(mut job) = self.src.as_mut()?.stream().next_job() else {
            self.src = None;
            return None;
        };
        job.at = job.at.max(self.last_at);
        self.last_at = job.at;
        let id = JobId(self.next_id);
        self.next_id = self
            .next_id
            .checked_add(1)
            .expect("more than u32::MAX streamed jobs");
        self.pending.push_back(job);
        Some((id, self.pending.back().expect("just pushed")))
    }

    /// A copy of an exhausted intake (for an in-memory fork): the
    /// window's jobs and the cursor, with no source to share.
    ///
    /// # Panics
    /// Panics while the source is still being pulled.
    pub(super) fn fork<'b>(&self) -> Intake<'b> {
        assert!(
            self.exhausted(),
            "a world still pulling its stream cannot be forked"
        );
        Intake {
            src: None,
            own: self.own,
            pending: self.pending.clone(),
            window: self.window,
            next_id: self.next_id,
            last_at: self.last_at,
        }
    }
}

impl<'a> World<'a> {
    /// Fills the look-ahead window: a bounded window's first arrivals,
    /// or the whole workload for an unbounded one.
    pub(super) fn schedule_arrivals(&mut self, engine: &mut Engine<Ev>) {
        for _ in 0..self.intake.window {
            if !self.pull_one(engine) {
                break;
            }
        }
    }

    /// Job `id` arrives: it enters the slab, and the window refills.
    /// Arrivals fire in pull order, so it is the window's front.
    pub(super) fn admit(&mut self, engine: &mut Engine<Ev>, id: JobId) {
        debug_assert_eq!(id.index(), self.intake.arrived(), "arrival out of order");
        let sj = self
            .intake
            .pending
            .pop_front()
            .expect("arrival without pending job");
        self.jobs.insert(Job::new(id, sj.spec, sj.at));
        self.pull_one(engine);
    }

    /// Pulls one job into the look-ahead window, counts it as submitted
    /// and schedules its arrival. Returns `false` once the stream is
    /// exhausted.
    fn pull_one(&mut self, engine: &mut Engine<Ev>) -> bool {
        let Some((id, job)) = self.intake.pull() else {
            return false;
        };
        engine.schedule_at(job.at, Ev::Arrival(id.0));
        self.collect.submitted(job);
        true
    }
}
