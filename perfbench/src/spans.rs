//! The traced run: spans recorded around calls into the simulator's
//! public functions, never inside them.
//!
//! * The event loop is driven from here — [`World::bootstrap`], then
//!   [`Engine::pop`] / [`World::handle`] / [`World::done`] — in exactly
//!   the order `World::run_to_summary`, `World::run_until` and
//!   `World::resume_to_summary` use, so the trajectory is unchanged. One
//!   clock read sits between the pop and the handler and one after the
//!   `done` check; the latter also opens the next pop span.
//! * Policies are timed by wrappers registered in
//!   [`PolicyRegistry::global`] under the built-in names
//!   ([`install_policy_clocks`]). Each wrapper delegates to an instance
//!   from a private [`PolicyRegistry::with_defaults`], so names, labels
//!   and decisions are unchanged.
//! * Intake is timed by wrapping the [`JobStream`] ([`TimedStream`]).
//!
//! Policy and intake spans run nested inside a handler (or inside
//! `bootstrap`, which primes the look-ahead window). They add their
//! duration to a per-thread child clock, which the enclosing span
//! subtracts to get its self time. Everything stays in memory and is
//! printed when the run ends.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

use appsim::generate::JobStream;
use appsim::workload::SubmittedJob;
use koala::malleability::{GrowOp, PolicyOutcome, RunningView, ShrinkOp};
use koala::placement::{PlacementDecision, PlacementRequest};
use koala::policy::{Malleability, Placement, PolicyRegistry};
use koala::sim::{Ev, World};
use koala::JobId;
use multicluster::FileCatalog;
use simcore::{Engine, SimTime};

/// Every `Ev` variant, in declaration order; [`variant`] maps an event
/// to its index here.
pub const VARIANTS: [&str; 23] = [
    "Arrival",
    "ArrivalBatch",
    "QueueScan",
    "KisPoll",
    "StartHeld",
    "GrowHeld",
    "SyncDone",
    "ShrinkReleased",
    "Completion",
    "BgArrival",
    "BgComplete",
    "NodeWithdraw",
    "Claim",
    "AppGrowRequest",
    "NodeRestore",
    "MonitorSample",
    "AutoscaleCycle",
    "AutoscaleApply",
    "NodeCrash",
    "CtrlTimeout",
    "OrphanSweep",
    "TransferStart",
    "TransferDone",
];

/// Index of `ev`'s variant in [`VARIANTS`]. Exhaustive on purpose: a new
/// event variant does not compile until the benchmark names it.
pub fn variant(ev: &Ev) -> usize {
    match ev {
        Ev::Arrival(..) => 0,
        Ev::ArrivalBatch { .. } => 1,
        Ev::QueueScan => 2,
        Ev::KisPoll => 3,
        Ev::StartHeld { .. } => 4,
        Ev::GrowHeld { .. } => 5,
        Ev::SyncDone { .. } => 6,
        Ev::ShrinkReleased { .. } => 7,
        Ev::Completion { .. } => 8,
        Ev::BgArrival { .. } => 9,
        Ev::BgComplete { .. } => 10,
        Ev::NodeWithdraw { .. } => 11,
        Ev::Claim { .. } => 12,
        Ev::AppGrowRequest { .. } => 13,
        Ev::NodeRestore { .. } => 14,
        Ev::MonitorSample => 15,
        Ev::AutoscaleCycle => 16,
        Ev::AutoscaleApply { .. } => 17,
        Ev::NodeCrash { .. } => 18,
        Ev::CtrlTimeout { .. } => 19,
        Ev::OrphanSweep => 20,
        Ev::TransferStart { .. } => 21,
        Ev::TransferDone { .. } => 22,
    }
}

/// Variants no workload delivers: timer coalescing, node withdrawal,
/// deferred claiming and application-initiated growth are not
/// configured. They are traced like the rest but get no per-layer
/// metric of their own.
pub const UNDELIVERED: [&str; 4] = ["ArrivalBatch", "NodeWithdraw", "Claim", "AppGrowRequest"];

/// Index of `StartHeld` in [`VARIANTS`] (the numerator of
/// `placement.useful_frac`).
pub const START_HELD: usize = 4;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Counters the nested spans (policies, intake) add to. Per thread: the
/// traced run is single-threaded, and a worker of an untraced parallel
/// pass never disturbs the traced thread's figures.
#[derive(Default)]
struct Nested {
    child_ns: Cell<u64>,
    place_calls: Cell<u64>,
    place_ns: Cell<u64>,
    grow_calls: Cell<u64>,
    shrink_calls: Cell<u64>,
    mall_ns: Cell<u64>,
    mall_accepted: Cell<u64>,
    mall_offered: Cell<u64>,
    intake_ns: Cell<u64>,
    intake_jobs: Cell<u64>,
}

thread_local! {
    static NESTED: Nested = Nested::default();
}

fn add(c: &Cell<u64>, v: u64) {
    c.set(c.get() + v);
}

/// Nanoseconds spent so far in nested spans on this thread.
fn child_ns() -> u64 {
    NESTED.with(|n| n.child_ns.get())
}

/// Ends a nested span that started at `t0`: adds its duration to the
/// child clock and returns it.
fn close_nested(t0: Instant) -> u64 {
    let dt = ns_since(t0);
    NESTED.with(|n| add(&n.child_ns, dt));
    dt
}

/// A top-level span (world assembly, finish, pooling, snapshot capture
/// and fork) whose nested policy/intake time is subtracted on
/// [`SelfTimer::stop`].
pub struct SelfTimer {
    t0: Instant,
    c0: u64,
}

impl SelfTimer {
    /// Opens the span.
    pub fn start() -> Self {
        SelfTimer {
            c0: child_ns(),
            t0: Instant::now(),
        }
    }

    /// Closes the span and returns its self time in nanoseconds.
    pub fn stop(self) -> u64 {
        ns_since(self.t0).saturating_sub(child_ns() - self.c0)
    }
}

/// Placement wrapper: times every `place_in` call.
struct TimedPlacement(Box<dyn Placement>);

impl Placement for TimedPlacement {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn place_in(
        &self,
        req: &PlacementRequest,
        avail: &mut [u32],
        scratch: &mut Vec<u32>,
        catalog: Option<&FileCatalog>,
    ) -> Option<PlacementDecision> {
        let t0 = Instant::now();
        let out = self.0.place_in(req, avail, scratch, catalog);
        let dt = close_nested(t0);
        NESTED.with(|n| {
            add(&n.place_calls, 1);
            add(&n.place_ns, dt);
        });
        out
    }
}

/// Malleability wrapper: times every grow/shrink initiation and reads
/// the accepted share from the returned [`PolicyOutcome`].
struct TimedMalleability(Box<dyn Malleability>);

impl Malleability for TimedMalleability {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn run_grow(
        &self,
        jobs: &[RunningView],
        grow_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<GrowOp> {
        let t0 = Instant::now();
        let out = self.0.run_grow(jobs, grow_value, accept);
        let dt = close_nested(t0);
        NESTED.with(|n| {
            add(&n.grow_calls, 1);
            add(&n.mall_ns, dt);
            for op in &out.ops {
                add(&n.mall_offered, u64::from(op.offered));
                add(&n.mall_accepted, u64::from(op.accepted));
            }
        });
        out
    }

    fn run_shrink(
        &self,
        jobs: &[RunningView],
        shrink_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<ShrinkOp> {
        let t0 = Instant::now();
        let out = self.0.run_shrink(jobs, shrink_value, accept);
        let dt = close_nested(t0);
        NESTED.with(|n| {
            add(&n.shrink_calls, 1);
            add(&n.mall_ns, dt);
            for op in &out.ops {
                add(&n.mall_offered, u64::from(op.requested));
                add(&n.mall_accepted, u64::from(op.released));
            }
        });
        out
    }
}

/// Re-registers every built-in policy in the global registry as a timing
/// wrapper around the same policy from a private registry. Idempotent.
/// Worlds built afterwards (including forks) resolve the wrappers; call
/// it only after every untraced pass of the process has run.
pub fn install_policy_clocks() {
    static PRIVATE: OnceLock<PolicyRegistry> = OnceLock::new();
    let private: &'static PolicyRegistry = PRIVATE.get_or_init(PolicyRegistry::with_defaults);
    let global = PolicyRegistry::global();
    for name in private.placement_names() {
        global.register_placement(move || {
            Box::new(TimedPlacement(
                private
                    .placement(&name)
                    .expect("name listed by the registry"),
            ))
        });
    }
    for name in private.malleability_names() {
        global.register_malleability(move || {
            Box::new(TimedMalleability(
                private
                    .malleability(&name)
                    .expect("name listed by the registry"),
            ))
        });
    }
}

/// Intake wrapper for the traced run: times every pull.
pub struct TimedStream {
    inner: Box<dyn JobStream>,
}

impl TimedStream {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn JobStream>) -> Self {
        TimedStream { inner }
    }
}

impl JobStream for TimedStream {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        let t0 = Instant::now();
        let job = self.inner.next_job();
        let dt = close_nested(t0);
        NESTED.with(|n| {
            add(&n.intake_ns, dt);
            add(&n.intake_jobs, u64::from(job.is_some()));
        });
        job
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

/// Intake wrapper for the untimed-by-span, end-to-end pass: reads the
/// clock once per `every` pulls and records each interval as one unit
/// sample.
pub struct UnitClock {
    inner: Box<dyn JobStream>,
    every: u64,
    pulled: u64,
    mark: Instant,
    /// One sample (ns) per completed block of `every` pulls.
    pub samples_ns: Vec<u64>,
}

impl UnitClock {
    /// Wraps `inner`; the first interval starts now.
    pub fn new(inner: Box<dyn JobStream>, every: u64) -> Self {
        UnitClock {
            inner,
            every,
            pulled: 0,
            mark: Instant::now(),
            samples_ns: Vec::new(),
        }
    }
}

impl JobStream for UnitClock {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        let job = self.inner.next_job();
        if job.is_some() {
            self.pulled += 1;
            if self.pulled.is_multiple_of(self.every) {
                let now = Instant::now();
                self.samples_ns.push(ns_between(self.mark, now));
                self.mark = now;
            }
        }
        job
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

/// Span totals of one traced pass (the policy and intake figures are
/// folded in from the per-thread counters by [`Spans::collect_nested`]).
#[derive(Debug, Clone, Default)]
pub struct Spans {
    pub pop_ns: u64,
    pub pops: u64,
    pub pending_max: u64,
    pub handle_ns: [u64; VARIANTS.len()],
    pub handle_n: [u64; VARIANTS.len()],
    pub place_calls: u64,
    pub place_ns: u64,
    pub grow_calls: u64,
    pub shrink_calls: u64,
    pub mall_ns: u64,
    pub mall_accepted: u64,
    pub mall_offered: u64,
    pub intake_ns: u64,
    pub intake_jobs: u64,
    pub assemble_ns: u64,
    pub finish_ns: u64,
    pub pool_ns: u64,
    pub prefix_ns: u64,
    pub capture_ns: u64,
    pub fork_ns: u64,
    pub snapshot_bytes: u64,
    pub forks: u64,
    pub quick_rejects: u64,
    pub rebuilds: u64,
}

impl Spans {
    /// Zeroes this thread's nested counters; call when a traced pass
    /// starts.
    pub fn reset_nested() {
        NESTED.with(|n| {
            for c in [
                &n.child_ns,
                &n.place_calls,
                &n.place_ns,
                &n.grow_calls,
                &n.shrink_calls,
                &n.mall_ns,
                &n.mall_accepted,
                &n.mall_offered,
                &n.intake_ns,
                &n.intake_jobs,
            ] {
                c.set(0);
            }
        });
    }

    /// Copies this thread's nested counters in; call when a traced pass
    /// ends.
    pub fn collect_nested(&mut self) {
        NESTED.with(|n| {
            self.place_calls = n.place_calls.get();
            self.place_ns = n.place_ns.get();
            self.grow_calls = n.grow_calls.get();
            self.shrink_calls = n.shrink_calls.get();
            self.mall_ns = n.mall_ns.get();
            self.mall_accepted = n.mall_accepted.get();
            self.mall_offered = n.mall_offered.get();
            self.intake_ns = n.intake_ns.get();
            self.intake_jobs = n.intake_jobs.get();
        });
    }

    /// Nanoseconds attributed to named spans (self times only, so nothing
    /// is counted twice).
    pub fn attributed_ns(&self) -> u64 {
        self.pop_ns
            + self.handle_ns.iter().sum::<u64>()
            + self.place_ns
            + self.mall_ns
            + self.intake_ns
            + self.assemble_ns
            + self.finish_ns
            + self.pool_ns
            + self.capture_ns
            + self.fork_ns
    }

    /// Drives `world` like the simulator's own loop: pops and handles
    /// until the world is done or the engine drains — or, with `until`,
    /// until the next pending event would fire at or after it (the
    /// warm-fork prefix; that boundary event stays queued).
    pub fn pump(&mut self, world: &mut World<'_>, engine: &mut Engine<Ev>, until: Option<SimTime>) {
        let mut t0 = Instant::now();
        loop {
            if let Some(until) = until {
                match engine.peek_time() {
                    Some(t) if t < until => {}
                    _ => {
                        self.pop_ns += ns_since(t0);
                        break;
                    }
                }
            }
            let popped = engine.pop();
            let t1 = Instant::now();
            self.pop_ns += ns_between(t0, t1);
            let Some((_t, ev)) = popped else { break };
            self.pops += 1;
            self.pending_max = self.pending_max.max(engine.pending() as u64);
            let v = variant(&ev);
            let c0 = child_ns();
            world.handle(engine, ev);
            let done = world.done();
            let t2 = Instant::now();
            let nested = child_ns() - c0;
            self.handle_ns[v] += ns_between(t1, t2).saturating_sub(nested);
            self.handle_n[v] += 1;
            if done {
                break;
            }
            t0 = t2;
        }
    }

    /// Adds the availability-index tallies of a world about to finish.
    pub fn note_world(&mut self, world: &World<'_>) {
        let idx = world.avail_index();
        self.quick_rejects += idx.quick_rejects();
        self.rebuilds += idx.rebuilds();
    }
}
