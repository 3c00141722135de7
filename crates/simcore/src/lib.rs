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
//!   plus the two analytic distributions workload modelling uses
//!   (exponential and log-normal).
//! * [`Generation`] — cheap invalidation tokens for events that may be
//!   superseded (e.g. a job-completion event scheduled before the job was
//!   grown must be ignored once the growth changes the completion time).
//! * [`IdHasher`] / [`IdHashMap`] — the multiply-shift hasher shared by
//!   every table keyed by simulator-issued ids (jobs, allocations).
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
mod hash;
mod queue;
mod rng;
mod time;

pub mod dist;

pub use engine::{Engine, EngineSnapshot, EngineStats, QueueImpl};
pub use generation::Generation;
pub use hash::{IdHashMap, IdHasher};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
