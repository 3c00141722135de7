//! # multicluster — the execution-environment substrate
//!
//! The paper runs on DAS-3: five clusters of dual-Opteron nodes, each
//! managed by the Sun Grid Engine in *space-shared* mode with *node*
//! allocation granularity, fronted by GLOBUS GRAM for remote submission,
//! and observed through the KOALA Information Service (KIS). This crate
//! models that environment as plain state machines — no event types of
//! its own — so the scheduler crate can compose them into its simulation
//! world and the pieces stay independently unit-testable:
//!
//! * [`Cluster`] — a set of nodes with space-shared allocations that can
//!   grow and shrink in place (the substrate feature malleability needs);
//!   supports withdrawing/restoring nodes for availability experiments.
//! * [`Lrm`] — an SGE-like local resource manager: a FIFO queue of local
//!   (background) jobs running on a cluster, bypassing KOALA exactly as
//!   "local users" do in the paper.
//! * [`GramConfig`] — the latency model of GRAM-style job submission,
//!   including the cheap *stub recruitment* path the MRunner uses
//!   (Section V-A of the paper).
//! * [`InfoService`] — the KIS: each poll records one column, the
//!   per-cluster idle counts; schedulers see the (possibly stale)
//!   snapshot, never live state.
//! * [`FileCatalog`] — replica locations and transfer-time estimates for
//!   the Close-to-Files placement policy.
//! * [`NetworkTopology`] / [`FlowNet`] — the contended wide-area
//!   network: per-link bandwidth and latency, routes as link sequences,
//!   named topology builders (`flat_wan`, `star`, `hierarchical`,
//!   `fat_tree_<k>`, the Table-I `das3` preset), and max-min fair
//!   sharing of concurrent transfers with event-driven completion
//!   re-estimation.
//! * [`Multicluster`] / [`das3`] — topology presets, including Table I of
//!   the paper.
//! * [`BackgroundLoad`] — stochastic local-user workload parameters.
//! * [`FailureStream`] — seeded node crash/recover event streams for the
//!   elasticity experiments; crashes hit busy nodes (unlike the polite
//!   withdraw path) via [`Cluster::crash`](Cluster::crash).
//! * [`ControlPlaneFaults`] — seeded *control-plane* fault model: lossy,
//!   jittery, duplicating KOALA↔GRAM messaging with per-cluster flaky
//!   channel episodes (the robustness axis on top of the node-failure
//!   data plane).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod background;
mod cluster;
mod failure;
mod files;
mod gram;
mod ids;
mod info;
mod lrm;
mod network;
mod topology;

pub use background::{BackgroundLoad, BackgroundSample, LocalJobSampler};
pub use cluster::{
    AllocError, AllocOwner, Cluster, ClusterSpec, ClusterState, CrashVictim, NodeState,
};
pub use failure::{FailureEvent, FailurePolicy, FailureSpec, FailureStream, FailureStreamState};
pub use files::{CatalogError, FileCatalog, FileCatalogState, FileId, FileMeta};
pub use gram::{
    ClassLoss, ControlPlaneFaultSpec, ControlPlaneFaults, ControlPlaneFaultsState,
    FlakyChannelSpec, FlakyChannelState, GramConfig, MessageClass, MessageOutcome,
};
pub use ids::{AllocId, ClusterId, NodeId};
pub use info::{InfoService, InfoSnapshot, InfoState};
pub use lrm::{LocalJob, LocalJobId, Lrm, LrmState, SubmitOutcome};
pub use network::{
    FlowDone, FlowNet, FlowNetState, FlowSchedule, FlowState, Link, LinkId, NetworkError,
    NetworkTopology,
};
pub use topology::{das3, das3_heterogeneous, uniform, Interconnect, Multicluster, DAS3_DELFT};
