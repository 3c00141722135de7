//! Heap-allocation budget of the scheduling path.
//!
//! A counting global allocator (this test binary's own, so no other test
//! sees it) tallies the allocations each test thread makes. Two pinned
//! pipelines run from bootstrap to their last event — one paper cell
//! (PWA, FPSMA, W'm, 300 jobs, background load on) and a 20,000-job
//! streamed `trace1m` slice — and the allocations per terminal job must
//! stay under a bound — and must not rise when a counting observation
//! sink is attached, since an `Obs` costs no allocation. What still
//! allocates per job is the job itself
//! (its spec and runner as it arrives), its pending events' payloads,
//! and each policy call's returned decision (`PlacementDecision`,
//! `PolicyOutcome::ops`); cluster bookkeeping, claims, policy views and
//! queue scans reuse their buffers. A warmed cluster's
//! allocate/grow/shrink/release cycle must allocate nothing at all.
//!
//! The two pipeline budgets hold for release builds only: debug builds
//! also run the simulator's per-event consistency checks, which
//! allocate, so there they are ignored. Run them with
//! `cargo test --release -p koala --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use appsim::generate::WorkloadRegistry;
use appsim::workload::WorkloadSpec;
use koala::config::{Approach, ExperimentConfig};
use koala::scenario::Scenario;
use koala::sim::{Ev, World};
use koala::{Obs, SummaryReport};
use multicluster::{AllocOwner, BackgroundLoad, Cluster, ClusterSpec};
use simcore::{Engine, SimTime};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting every allocation per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches
// only a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Pops and handles events until the world is done or the engine
/// drains — the loop every runner uses.
fn pump(world: &mut World<'_>, engine: &mut Engine<Ev>) {
    while let Some((_t, ev)) = engine.pop() {
        world.handle(engine, ev);
        if world.done() {
            break;
        }
    }
}

/// Allocations from bootstrap to the last event, and the run's summary.
fn counted(mut world: World<'_>, engine: &mut Engine<Ev>) -> (u64, SummaryReport) {
    let before = allocs();
    world.bootstrap(engine);
    pump(&mut world, engine);
    let n = allocs() - before;
    (n, world.finish_summary(engine))
}

/// An optional observation sink for a budget run.
type Sink<'s> = Option<&'s mut dyn FnMut(SimTime, &Obs)>;

/// Runs a pipeline once bare and once with a sink tallying every
/// observation per kind: the summaries must agree, the sink must see
/// events, and it must add no allocation. Returns the bare run's count.
fn with_and_without_sink(run: impl Fn(Sink<'_>) -> (u64, SummaryReport)) -> (u64, SummaryReport) {
    let (bare, summary) = run(None);
    let mut counts = [0u64; Obs::NAMES.len()];
    let (sunk, with_sink) = run(Some(&mut |_, obs| counts[obs.kind()] += 1));
    assert_eq!(
        with_sink, summary,
        "{}: a sink changed the run",
        summary.name
    );
    assert!(counts.iter().sum::<u64>() > 0, "the sink saw nothing");
    eprintln!(
        "{}: {bare} allocations bare, {sunk} with a sink",
        summary.name
    );
    assert!(
        sunk <= bare,
        "{}: an attached sink added {} allocations",
        summary.name,
        sunk - bare
    );
    (bare, summary)
}

/// Attaches `sink` to `world`, if there is one.
fn attach<'a, 's: 'a>(world: World<'a>, sink: Sink<'s>) -> World<'a> {
    match sink {
        Some(sink) => world.with_sink(sink),
        None => world,
    }
}

fn per_terminal_job(allocs: u64, s: &SummaryReport) -> f64 {
    let terminal = s.jobs_completed + s.jobs_failed;
    assert!(terminal > 0, "{}: no job finished", s.name);
    allocs as f64 / terminal as f64
}

/// Measured when the cluster table stopped allocating: 3.67 (paper
/// cell) and 3.41 (trace slice) allocations per terminal job, down from
/// 10.14 and 5.99 with an ordered map and a fresh node list per
/// allocation. The bounds leave a quarter on top for allocator and
/// toolchain differences; one more allocation per job on either path
/// trips them.
const PAPER_CELL_BUDGET: f64 = 4.6;
const TRACE_SLICE_BUDGET: f64 = 4.25;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run allocating per-event checks; run with --release"
)]
fn paper_cell_allocations_per_job_stay_bounded() {
    let cfg: ExperimentConfig = Scenario::builder()
        .placement("worst_fit")
        .malleability("fpsma")
        .approach(Approach::Pwa)
        .workload(WorkloadSpec::wm_prime())
        .jobs(300)
        .quantile_capacity(2048)
        .summarized()
        .build()
        .expect("valid paper cell")
        .into_config();
    assert!(
        cfg.background.is_active(),
        "the paper cell runs background load"
    );
    let (n, summary) = with_and_without_sink(|sink| {
        let world = attach(World::for_seed_summarized(&cfg, 1), sink);
        counted(world, &mut koala::engine_for(&cfg))
    });
    let per_job = per_terminal_job(n, &summary);
    eprintln!("paper cell: {n} allocations, {per_job:.2} per terminal job");
    assert!(
        per_job < PAPER_CELL_BUDGET,
        "paper cell made {per_job:.2} allocations per terminal job (budget {PAPER_CELL_BUDGET})"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run allocating per-event checks; run with --release"
)]
fn trace_slice_allocations_per_job_stay_bounded() {
    const JOBS: u64 = 20_000;
    const LOOKAHEAD: usize = 1024;
    let cfg = Scenario::builder()
        .workload("trace1m")
        .jobs(JOBS as usize)
        .no_horizon()
        .background(BackgroundLoad::none())
        .scheduler(|s| s.koala_share = 0.5)
        .summarized()
        .build()
        .expect("valid trace scenario")
        .into_config();
    let source = WorkloadRegistry::global()
        .source("trace1m")
        .expect("trace1m is registered");
    let (n, summary) = with_and_without_sink(|sink| {
        let mut stream = source.stream(1, JOBS);
        let mut engine = Engine::configured(
            cfg.sched.event_queue,
            cfg.horizon.map(|h| SimTime::ZERO + h),
            LOOKAHEAD * 2 + 64,
        );
        let world = World::for_stream_summarized(&cfg, 1, stream.as_mut(), LOOKAHEAD);
        counted(attach(world, sink), &mut engine)
    });
    assert_eq!(summary.jobs_completed + summary.jobs_failed, JOBS);
    let per_job = per_terminal_job(n, &summary);
    eprintln!("trace slice: {n} allocations, {per_job:.2} per terminal job");
    assert!(
        per_job < TRACE_SLICE_BUDGET,
        "trace slice made {per_job:.2} allocations per terminal job (budget {TRACE_SLICE_BUDGET})"
    );
}

#[test]
fn warmed_cluster_cycle_allocates_nothing() {
    let mut c = Cluster::new(ClusterSpec::new("warm", 64, "GbE"));
    let cycle = |c: &mut Cluster| {
        let a = c.allocate(AllocOwner::Koala(1), 8).expect("room");
        let b = c.allocate(AllocOwner::Local(2), 4).expect("room");
        c.grow(a, 16).expect("room");
        c.shrink(a, 10).expect("held");
        c.release(b).expect("live");
        c.release(a).expect("live");
    };
    cycle(&mut c);
    let before = allocs();
    for _ in 0..100 {
        cycle(&mut c);
    }
    assert_eq!(allocs() - before, 0, "a warmed cluster allocated");
    c.check_invariants().expect("consistent after the cycles");
}
