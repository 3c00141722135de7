//! Autoscaling policies and their closed name table — the third twin of
//! the policy and workload registries.
//!
//! The elasticity layer lets cluster capacity move while a run is in
//! flight: nodes crash and get repaired, operators withdraw nodes, and —
//! with an autoscaler configured — the scheduler itself grows and shrinks
//! cluster pools in response to observed load. An [`Autoscaler`] is the
//! decision half of that loop: on every autoscale cycle the simulation
//! hands it one [`ClusterObservation`] per cluster (built from the
//! monitoring samples, *not* from live state) and applies the returned
//! [`ScaleDecision`] after the configured propagation delay.
//!
//! Scalers are object-safe, stateless and selected by `snake_case` name
//! through [`by_name`], like placement and malleability policies:
//!
//! ```
//! use koala::autoscaler::{self, ClusterObservation, ScaleDecision};
//! use multicluster::ClusterId;
//!
//! let scaler = autoscaler::by_name("threshold").unwrap();
//! // Hot (56/60 busy) with 4 repairable down nodes: grow.
//! let hot = ClusterObservation {
//!     cluster: ClusterId(0),
//!     capacity: 60,
//!     spec_nodes: 64,
//!     used: 56,
//!     queue_depth: 3,
//! };
//! assert!(matches!(scaler.decide(&hot), ScaleDecision::Grow(_)));
//! assert!(autoscaler::by_name("no_such_scaler").is_err());
//! ```
//!
//! Growing is modelled as *repairing* down nodes (the pool can never
//! exceed the cluster's static `spec.nodes`), shrinking as withdrawing
//! free nodes — so an autoscaler only moves capacity between the `Down`
//! and `Free` node states and never kills running jobs; only the failure
//! stream does that.

use multicluster::ClusterId;

/// What one cluster looked like to the monitoring subsystem at the start
/// of an autoscale cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterObservation {
    /// Which cluster this observes.
    pub cluster: ClusterId,
    /// Live pool size (static nodes minus down nodes).
    pub capacity: u32,
    /// The cluster's static node count — the ceiling any grow can reach.
    pub spec_nodes: u32,
    /// Processors held by allocations (KOALA and local together).
    pub used: u32,
    /// Jobs waiting in the KOALA placement queue (global, same value for
    /// every cluster in a cycle).
    pub queue_depth: usize,
}

impl ClusterObservation {
    /// Used fraction of the live pool; 0 for an empty pool.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.used as f64 / self.capacity as f64
        }
    }

    /// Nodes currently down, i.e. the headroom a grow can repair.
    pub fn down(&self) -> u32 {
        self.spec_nodes - self.capacity
    }

    /// Free nodes, i.e. what a shrink can withdraw without touching jobs.
    pub fn idle(&self) -> u32 {
        self.capacity - self.used
    }
}

/// One cluster's verdict for one autoscale cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Leave the pool alone.
    Hold,
    /// Bring up to this many down nodes back into the pool.
    Grow(u32),
    /// Withdraw up to this many free nodes from the pool.
    Shrink(u32),
}

/// An autoscaling policy: maps per-cluster observations to scale
/// decisions. Implementations must be stateless across calls (same
/// observation, same decision) — that is what keeps multi-seed sweeps
/// deterministic and parallel runs bit-identical to sequential ones.
pub trait Autoscaler: Send + Sync {
    /// The `snake_case` name [`by_name`] resolves, e.g. `"threshold"`.
    fn name(&self) -> &'static str;

    /// Short report label, e.g. `"THR"`.
    fn label(&self) -> &'static str;

    /// Decides what to do with one cluster this cycle.
    fn decide(&self, obs: &ClusterObservation) -> ScaleDecision;
}

/// The do-nothing scaler (`"none"`); capacity still moves through node
/// failures and explicit withdraw events, just never by policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoScaler;

impl Autoscaler for NoScaler {
    fn name(&self) -> &'static str {
        "none"
    }
    fn label(&self) -> &'static str {
        "NONE"
    }
    fn decide(&self, _obs: &ClusterObservation) -> ScaleDecision {
        ScaleDecision::Hold
    }
}

/// Utilization-band scaler (`"threshold"`): grow while utilization is
/// above the high-water mark, shrink while it is below the low-water
/// mark, hold in between. The step is fixed per cycle, so reaction speed
/// is `step / autoscale_period`.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdScaler {
    /// Grow when utilization exceeds this.
    pub high: f64,
    /// Shrink when utilization is below this.
    pub low: f64,
    /// Nodes per decision.
    pub step: u32,
}

impl Default for ThresholdScaler {
    fn default() -> Self {
        ThresholdScaler {
            high: 0.85,
            low: 0.25,
            step: 8,
        }
    }
}

impl Autoscaler for ThresholdScaler {
    fn name(&self) -> &'static str {
        "threshold"
    }
    fn label(&self) -> &'static str {
        "THR"
    }
    fn decide(&self, obs: &ClusterObservation) -> ScaleDecision {
        let u = obs.utilization();
        if u > self.high && obs.down() > 0 {
            ScaleDecision::Grow(self.step.min(obs.down()))
        } else if u < self.low && obs.idle() > 0 {
            ScaleDecision::Shrink(self.step.min(obs.idle()))
        } else {
            ScaleDecision::Hold
        }
    }
}

/// Queue-depth scaler (`"queue_depth"`): grow while KOALA jobs are
/// waiting in the placement queue, shrink only when the queue is empty
/// *and* the cluster is mostly idle. This reacts to demand the
/// utilization bands cannot see — a full queue behind a saturated
/// cluster.
#[derive(Debug, Clone, Copy)]
pub struct QueueDepthScaler {
    /// Grow when at least this many jobs queue.
    pub grow_at: usize,
    /// Shrink only when the queue is empty and utilization is below this.
    pub idle_below: f64,
    /// Nodes per decision.
    pub step: u32,
}

impl Default for QueueDepthScaler {
    fn default() -> Self {
        QueueDepthScaler {
            grow_at: 4,
            idle_below: 0.10,
            step: 8,
        }
    }
}

impl Autoscaler for QueueDepthScaler {
    fn name(&self) -> &'static str {
        "queue_depth"
    }
    fn label(&self) -> &'static str {
        "QD"
    }
    fn decide(&self, obs: &ClusterObservation) -> ScaleDecision {
        if obs.queue_depth >= self.grow_at && obs.down() > 0 {
            ScaleDecision::Grow(self.step.min(obs.down()))
        } else if obs.queue_depth == 0 && obs.utilization() < self.idle_below && obs.idle() > 0 {
            ScaleDecision::Shrink(self.step.min(obs.idle()))
        } else {
            ScaleDecision::Hold
        }
    }
}

/// Failure to resolve an autoscaler name with [`by_name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutoscalerError {
    /// No built-in autoscaler has this name.
    Unknown {
        /// The name that failed to resolve.
        name: String,
        /// The names that would have resolved.
        known: Vec<String>,
    },
}

impl std::fmt::Display for AutoscalerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutoscalerError::Unknown { name, known } => {
                write!(
                    f,
                    "unknown autoscaler {name:?} (known: {})",
                    known.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for AutoscalerError {}

/// The built-in autoscaler names, sorted.
pub const NAMES: [&str; 3] = ["none", "queue_depth", "threshold"];

/// Constructs the built-in autoscaler named `name` — the closed
/// autoscaler twin of the policy registry.
pub fn by_name(name: &str) -> Result<Box<dyn Autoscaler>, AutoscalerError> {
    match name {
        "none" => Ok(Box::new(NoScaler)),
        "queue_depth" => Ok(Box::<QueueDepthScaler>::default()),
        "threshold" => Ok(Box::<ThresholdScaler>::default()),
        _ => Err(AutoscalerError::Unknown {
            name: name.to_string(),
            known: NAMES.map(String::from).to_vec(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(capacity: u32, spec_nodes: u32, used: u32, queue_depth: usize) -> ClusterObservation {
        ClusterObservation {
            cluster: ClusterId(0),
            capacity,
            spec_nodes,
            used,
            queue_depth,
        }
    }

    #[test]
    fn global_registry_knows_the_builtins() {
        assert_eq!(NAMES, ["none", "queue_depth", "threshold"]);
        for name in NAMES {
            assert_eq!(by_name(name).unwrap().name(), name);
        }
    }

    #[test]
    fn unknown_name_lists_known_scalers() {
        let err = match by_name("elastic9000") {
            Ok(s) => panic!("unexpectedly resolved {}", s.name()),
            Err(e) => e,
        };
        let AutoscalerError::Unknown { name, known } = err;
        assert_eq!(name, "elastic9000");
        assert_eq!(known, NAMES);
    }

    #[test]
    fn none_always_holds() {
        assert_eq!(NoScaler.decide(&obs(0, 64, 0, 100)), ScaleDecision::Hold);
        assert_eq!(NoScaler.decide(&obs(64, 64, 64, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn threshold_grows_hot_and_shrinks_cold() {
        let s = ThresholdScaler::default();
        // Hot with headroom: grow, capped by down nodes.
        assert_eq!(s.decide(&obs(60, 64, 58, 0)), ScaleDecision::Grow(4));
        // Hot with no down nodes: nothing to repair.
        assert_eq!(s.decide(&obs(64, 64, 62, 0)), ScaleDecision::Hold);
        // Cold: shrink by the step.
        assert_eq!(s.decide(&obs(64, 64, 2, 0)), ScaleDecision::Shrink(8));
        // In band: hold.
        assert_eq!(s.decide(&obs(64, 64, 32, 0)), ScaleDecision::Hold);
        // Empty pool reads as 0 utilization but has nothing free.
        assert_eq!(s.decide(&obs(0, 64, 0, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn queue_depth_reacts_to_waiting_jobs() {
        let s = QueueDepthScaler::default();
        // Saturated cluster, deep queue: grow even at 100% utilization.
        assert_eq!(s.decide(&obs(32, 64, 32, 5)), ScaleDecision::Grow(8));
        // Shallow queue: hold.
        assert_eq!(s.decide(&obs(32, 64, 32, 2)), ScaleDecision::Hold);
        // Empty queue and near-idle: shrink.
        assert_eq!(s.decide(&obs(64, 64, 1, 0)), ScaleDecision::Shrink(8));
        // Empty queue but busy: hold.
        assert_eq!(s.decide(&obs(64, 64, 40, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn decisions_never_exceed_headroom() {
        let s = ThresholdScaler {
            high: 0.5,
            low: 0.1,
            step: 100,
        };
        assert_eq!(s.decide(&obs(10, 12, 9, 0)), ScaleDecision::Grow(2));
        assert_eq!(s.decide(&obs(10, 12, 0, 0)), ScaleDecision::Shrink(10));
    }
}
