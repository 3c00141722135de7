//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the reproduction of *Scheduling
//! Malleable Applications in Multicluster Systems* (CLUSTER 2007). Every
//! other crate in the workspace builds on the primitives defined here:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer millisecond clock. Integer
//!   time makes runs bit-reproducible across platforms; a millisecond is
//!   fine-grained enough for the latencies the paper discusses (GRAM
//!   submission seconds, message round-trips tens of milliseconds).
//! * [`EventQueue`] — a monotone radix priority queue (O(1) push) that
//!   keeps ties in insertion order by construction, so simultaneous events
//!   execute deterministically.
//! * [`Engine`] — clock + queue + bookkeeping. The engine deliberately does
//!   *not* own the simulated world; callers pop events and dispatch them to
//!   their own state, which keeps borrow checking trivial and lets each
//!   crate define its own event type.
//! * [`SimRng`] and the [`dist`] module — a seeded random-number generator
//!   plus the analytic distributions needed for workload modelling
//!   (exponential, log-normal, Weibull, bounded Pareto, Zipf, …).
//! * [`Generation`] — cheap invalidation tokens for events that may be
//!   superseded (e.g. a job-completion event scheduled before the job was
//!   grown must be ignored once the growth changes the completion time).
//! * [`Periodic`] — helper for fixed-period timers (KIS polling, placement
//!   queue scans, utilization sampling).
//! * [`Trace`] — bounded, near-free-when-disabled event tracing with CSV
//!   export.
//!
//! ## Determinism contract
//!
//! Given the same seed and the same sequence of `schedule` calls, a
//! simulation built on this crate produces bit-identical results: the
//! queue is totally ordered by `(time, sequence number)`, the clock is an
//! integer, and all randomness flows from [`SimRng`]. The integration test
//! suite of the workspace asserts this end-to-end.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod generation;
mod queue;
mod rng;
mod time;
mod timer;
mod trace;

pub mod dist;

pub use engine::{Engine, EngineSnapshot, EngineStats, QueueImpl};
pub use generation::Generation;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use timer::Periodic;
pub use trace::{Trace, TraceEvent};
