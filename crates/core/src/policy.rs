//! The open scheduling-policy API: placement and malleability policies
//! as object-safe traits, plus the name-indexed [`PolicyRegistry`] that
//! lets binaries and configuration files select policies by string name.
//!
//! The paper compares two *families* of approaches (KOALA placement
//! policies, FPSMA/EGS malleability management); this module makes each
//! family an open set. Adding a policy is a ~50-line drop-in:
//!
//! 1. implement [`Placement`] or [`Malleability`] on a (usually unit)
//!    struct;
//! 2. register a constructor under the policy's [`name`](Placement::name)
//!    with [`PolicyRegistry::register_placement`] /
//!    [`PolicyRegistry::register_malleability`] (the built-ins are
//!    pre-registered in [`PolicyRegistry::global`]);
//! 3. reference the name from a
//!    [`ScenarioBuilder`](crate::scenario::ScenarioBuilder) or an
//!    [`ExperimentConfig`](crate::config::ExperimentConfig).
//!
//! Nothing in the simulation core dispatches on concrete policy types:
//! [`World`](crate::sim::World) resolves the configured names once at
//! construction and drives `Box<dyn Placement>` / `Box<dyn Malleability>`
//! through the allocation-free scheduling hot path (the traits take
//! caller-owned scratch buffers exactly like the former enum methods, so
//! the zero-allocation guarantee of the perf subsystem survives open
//! dispatch).
//!
//! ```
//! use koala::policy::{Malleability, PolicyRegistry};
//!
//! let registry = PolicyRegistry::global();
//! let egs = registry.malleability("egs").unwrap();
//! assert_eq!(egs.name(), "egs");
//! assert_eq!(egs.label(), "EGS");
//! // Unknown names fail with the list of known policies.
//! assert!(registry.malleability("no_such_policy").is_err());
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use multicluster::FileCatalog;

use crate::ids::JobId;
use crate::malleability::{GrowOp, PolicyOutcome, RunningView, ShrinkOp};
use crate::placement::{PlacementDecision, PlacementRequest};

/// A placement policy (Section IV-A of the paper): decides which
/// cluster(s) host a job's components, given a (possibly stale) snapshot
/// of per-cluster availability.
///
/// Implementations must be stateless with respect to runs (`&self`
/// methods): the same inputs must always produce the same decision, which
/// is what keeps multi-seed sweeps deterministic and the parallel cell
/// runner bit-identical to the sequential loop.
pub trait Placement: Send + Sync {
    /// Registry key (`snake_case`), e.g. `"worst_fit"`.
    fn name(&self) -> &'static str;

    /// Short report label, e.g. `"WF"`.
    fn label(&self) -> &'static str;

    /// Attempts to place `req` given per-cluster availability `avail`.
    /// On success `avail` must be deducted by exactly the granted
    /// sizes; on failure it must be left untouched (all-or-nothing, as
    /// in KOALA's co-allocator). `scratch` is a reusable buffer for the
    /// working copy that guarantees this — it arrives *unpopulated*;
    /// route the implementation through
    /// [`place_all_or_nothing`](crate::placement::place_all_or_nothing)
    /// like the built-ins do rather than reading it or deducting from
    /// `avail` directly. The queue scan calls this once per queued job
    /// per tick, reusing one buffer for the whole run instead of
    /// allocating a fresh copy every call — implementations must not
    /// stash the buffer or rely on its previous contents.
    ///
    /// Returns `None` when the job cannot be placed now (the caller
    /// queues it). A returned decision is a fresh `Vec`: with
    /// [`PolicyOutcome::ops`](crate::malleability::PolicyOutcome), one
    /// of the two per-call heap allocations left on the scheduling path.
    fn place_in(
        &self,
        req: &PlacementRequest,
        avail: &mut [u32],
        scratch: &mut Vec<u32>,
        catalog: Option<&FileCatalog>,
    ) -> Option<PlacementDecision>;

    /// [`Placement::place_in`] with a locally allocated scratch buffer —
    /// the convenient entry point for tests and one-off calls.
    fn place(
        &self,
        req: &PlacementRequest,
        avail: &mut [u32],
        catalog: Option<&FileCatalog>,
    ) -> Option<PlacementDecision> {
        let mut scratch = Vec::with_capacity(avail.len());
        self.place_in(req, avail, &mut scratch, catalog)
    }
}

/// A malleability-management policy (Section V-C of the paper): decides
/// which running malleable jobs grow or shrink and by how much, given a
/// grow/shrink value for one cluster.
///
/// The protocol matches the paper's pseudo-code (Figs. 4 and 5): the
/// policy sends a request to a job, the job answers through `accept` with
/// the number of processors it takes/releases (its DYNACO decide step —
/// the scheduler never reasons about application size constraints), and
/// the policy updates its remaining budget. Like [`Placement`],
/// implementations must be stateless across calls.
///
/// The simulator passes `jobs` sorted oldest first by `(started, job)`,
/// so an age-ordered policy can walk the slice (backwards for
/// youngest-first) without copying it. The returned
/// [`PolicyOutcome::ops`] is one of the two heap allocations left per
/// policy call on the scheduling path (the other is a placement's
/// [`PlacementDecision`]); everything else the scheduler reuses.
pub trait Malleability: Send + Sync {
    /// Registry key (`snake_case`), e.g. `"fpsma"`.
    fn name(&self) -> &'static str;

    /// Short report label, e.g. `"FPSMA"`.
    fn label(&self) -> &'static str;

    /// Distributes `grow_value` freshly available processors over the
    /// running malleable jobs of one cluster. `accept(job, offered)`
    /// must return how many of the offered processors the job takes; the
    /// policy never hands out more than `grow_value` in total.
    fn run_grow(
        &self,
        jobs: &[RunningView],
        grow_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<GrowOp>;

    /// Reclaims `shrink_value` processors from the running malleable
    /// jobs of one cluster (mandatory shrinks; PWA and failure
    /// handling). `accept(job, requested)` returns how many processors
    /// the job will release (possibly more than requested — voluntary
    /// surplus — or fewer when its minimum binds).
    fn run_shrink(
        &self,
        jobs: &[RunningView],
        shrink_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<ShrinkOp>;
}

/// Failure to resolve a policy name against a [`PolicyRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// No placement policy registered under this name.
    UnknownPlacement {
        /// The name that failed to resolve.
        name: String,
        /// The names that would have resolved.
        known: Vec<String>,
    },
    /// No malleability policy registered under this name.
    UnknownMalleability {
        /// The name that failed to resolve.
        name: String,
        /// The names that would have resolved.
        known: Vec<String>,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::UnknownPlacement { name, known } => write!(
                f,
                "unknown placement policy {name:?} (known: {})",
                known.join(", ")
            ),
            PolicyError::UnknownMalleability { name, known } => write!(
                f,
                "unknown malleability policy {name:?} (known: {})",
                known.join(", ")
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

type PlacementCtor = Arc<dyn Fn() -> Box<dyn Placement> + Send + Sync>;
type MalleabilityCtor = Arc<dyn Fn() -> Box<dyn Malleability> + Send + Sync>;

/// Maps policy names to constructors, so configurations and binaries can
/// select policies by string name (and external code can plug new ones
/// in without touching the simulation core).
///
/// [`PolicyRegistry::global`] is the shared instance pre-loaded with the
/// built-ins; [`PolicyRegistry::new`] builds an empty one for tests that
/// want full control. Registration replaces any previous entry under the
/// same name (latest wins), and lookups construct a fresh boxed policy
/// per call — policies are stateless, so sharing is never needed.
pub struct PolicyRegistry {
    placements: RwLock<BTreeMap<String, PlacementCtor>>,
    malleability: RwLock<BTreeMap<String, MalleabilityCtor>>,
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl PolicyRegistry {
    /// An empty registry (no built-ins).
    pub fn new() -> Self {
        PolicyRegistry {
            placements: RwLock::new(BTreeMap::new()),
            malleability: RwLock::new(BTreeMap::new()),
        }
    }

    /// A registry pre-loaded with every built-in policy.
    pub fn with_defaults() -> Self {
        use crate::malleability::{Egs, Equipartition, Folding, Fpsma, GreedyGrowLazyShrink};
        use crate::placement::{
            CloseToFiles, ClusterMinimization, FirstFit, FlexibleClusterMinimization, WorstFit,
        };
        let r = Self::new();
        r.register_placement(|| Box::new(WorstFit));
        r.register_placement(|| Box::new(CloseToFiles));
        r.register_placement(|| Box::new(ClusterMinimization));
        r.register_placement(|| Box::new(FlexibleClusterMinimization));
        r.register_placement(|| Box::new(FirstFit));
        r.register_malleability(|| Box::new(Fpsma));
        r.register_malleability(|| Box::new(Egs));
        r.register_malleability(|| Box::new(Equipartition));
        r.register_malleability(|| Box::new(Folding));
        r.register_malleability(|| Box::new(GreedyGrowLazyShrink));
        r
    }

    /// The process-wide registry every configuration resolves against
    /// (pre-loaded with the built-ins). Register additional policies
    /// here before building scenarios that reference them.
    pub fn global() -> &'static PolicyRegistry {
        static GLOBAL: OnceLock<PolicyRegistry> = OnceLock::new();
        GLOBAL.get_or_init(PolicyRegistry::with_defaults)
    }

    /// Registers a placement-policy constructor under the name the
    /// constructed policy reports.
    pub fn register_placement<F>(&self, ctor: F)
    where
        F: Fn() -> Box<dyn Placement> + Send + Sync + 'static,
    {
        let name = ctor().name().to_string();
        self.placements
            .write()
            .expect("registry lock poisoned")
            .insert(name, Arc::new(ctor));
    }

    /// Registers a malleability-policy constructor under the name the
    /// constructed policy reports.
    pub fn register_malleability<F>(&self, ctor: F)
    where
        F: Fn() -> Box<dyn Malleability> + Send + Sync + 'static,
    {
        let name = ctor().name().to_string();
        self.malleability
            .write()
            .expect("registry lock poisoned")
            .insert(name, Arc::new(ctor));
    }

    /// Constructs the placement policy registered under `name`.
    ///
    /// The constructor runs *after* the registry lock is released, so a
    /// policy may itself consult (or extend) the registry.
    pub fn placement(&self, name: &str) -> Result<Box<dyn Placement>, PolicyError> {
        let ctor = {
            let map = self.placements.read().expect("registry lock poisoned");
            map.get(name).cloned()
        };
        match ctor {
            Some(ctor) => Ok(ctor()),
            None => Err(PolicyError::UnknownPlacement {
                name: name.to_string(),
                known: self.placement_names(),
            }),
        }
    }

    /// Constructs the malleability policy registered under `name`.
    ///
    /// Like [`PolicyRegistry::placement`], the constructor runs outside
    /// the registry lock.
    pub fn malleability(&self, name: &str) -> Result<Box<dyn Malleability>, PolicyError> {
        let ctor = {
            let map = self.malleability.read().expect("registry lock poisoned");
            map.get(name).cloned()
        };
        match ctor {
            Some(ctor) => Ok(ctor()),
            None => Err(PolicyError::UnknownMalleability {
                name: name.to_string(),
                known: self.malleability_names(),
            }),
        }
    }

    /// The registered placement-policy names, sorted.
    pub fn placement_names(&self) -> Vec<String> {
        self.placements
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// The registered malleability-policy names, sorted.
    pub fn malleability_names(&self) -> Vec<String> {
        self.malleability
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_knows_the_builtins() {
        let r = PolicyRegistry::global();
        for name in [
            "worst_fit",
            "close_to_files",
            "cluster_min",
            "flexible_cluster_min",
            "first_fit",
        ] {
            assert_eq!(r.placement(name).unwrap().name(), name);
        }
        for name in [
            "fpsma",
            "egs",
            "equipartition",
            "folding",
            "greedy_grow_lazy_shrink",
        ] {
            assert_eq!(r.malleability(name).unwrap().name(), name);
        }
    }

    #[test]
    fn unknown_names_list_the_known_policies() {
        let r = PolicyRegistry::global();
        let err = r.placement("nope").err().expect("unknown name");
        let msg = err.to_string();
        assert!(msg.contains("nope") && msg.contains("worst_fit"), "{msg}");
        let err = r.malleability("nope").err().expect("unknown name");
        assert!(err.to_string().contains("fpsma"));
    }

    #[test]
    fn custom_policies_can_be_registered() {
        struct Never;
        impl Placement for Never {
            fn name(&self) -> &'static str {
                "never"
            }
            fn label(&self) -> &'static str {
                "NV"
            }
            fn place_in(
                &self,
                _req: &PlacementRequest,
                _avail: &mut [u32],
                _scratch: &mut Vec<u32>,
                _catalog: Option<&FileCatalog>,
            ) -> Option<PlacementDecision> {
                None
            }
        }
        let r = PolicyRegistry::new();
        r.register_placement(|| Box::new(Never));
        assert_eq!(r.placement_names(), vec!["never".to_string()]);
        let p = r.placement("never").unwrap();
        assert_eq!(p.label(), "NV");
    }
}
