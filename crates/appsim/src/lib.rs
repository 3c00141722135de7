//! # appsim — malleable application substrate
//!
//! The paper's experiments run two real applications made malleable with
//! the DYNACO framework: the NAS Parallel Benchmark **FT** (FFT kernel;
//! only power-of-2 process counts) and **GADGET-2** (an n-body simulator
//! that runs on any number of processors and load-balances internally).
//! We substitute analytic, work-conserving models calibrated to Fig. 6 of
//! the paper — what the scheduler observes (the malleability protocol and
//! completion times as a function of the allocation history) is
//! preserved; see DESIGN.md §2.
//!
//! * [`speedup`] — the execution-time-vs-size model every job carries
//!   ([`speedup::AmdahlOverhead`]), its FT/GADGET-2 calibrations, and
//!   Downey's speedup ([`speedup::DowneyModel`]) that generated models
//!   are fitted through.
//! * [`SizeConstraint`] — allocatable-size rules (any, power-of-two,
//!   multiple-of), with the accept/release semantics of Section VI-A.
//! * [`Progress`] — work-conserving progress accounting across size
//!   changes.
//! * [`dynaco`] — the decide step and adaptation state machine of the
//!   DYNACO framework (Fig. 2 of the paper).
//! * [`ReconfigCost`] — grow/shrink overhead models.
//! * [`workload`] — the paper's workloads Wm, Wmr, W'm, W'mr and a
//!   general generator.
//! * [`generate`] — the model-driven workload engine: seeded
//!   [`generate::JobStream`]s behind the object-safe
//!   [`generate::WorkloadSource`] trait, with the name-indexed
//!   [`generate::WorkloadRegistry`] (Poisson/bursty arrivals,
//!   log-uniform and Lublin–Feitelson-style job mixes, Downey-style
//!   speedup sampling).
//! * [`swf`] — Standard Workload Format import/export for replaying real
//!   traces from the Parallel Workloads Archive, eagerly or through the
//!   O(1)-memory [`swf::SwfStream`] reader.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod constraints;
mod job;
mod progress;
mod reconfig;

pub mod dynaco;
pub mod generate;
pub mod speedup;
pub mod swf;
pub mod workload;

pub use constraints::SizeConstraint;
pub use job::{AppKind, GrowInitiative, JobClass, JobSpec};
pub use progress::Progress;
pub use reconfig::ReconfigCost;
