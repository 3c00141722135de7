//! Scheduler and experiment configuration.
//!
//! Every constant the paper leaves unspecified is a field here, with its
//! default and justification; the ablation binary (`sweeps`) varies the
//! interesting ones.
//!
//! Policies are selected **by name** against the
//! [`PolicyRegistry`] — the configuration
//! stores the string keys and [`World`](crate::sim::World) resolves them
//! at construction, so adding a policy never touches this module.
//! Experiment configurations are usually assembled through
//! [`Scenario::builder`](crate::scenario::Scenario::builder); the
//! [`ExperimentConfig::paper_pra`] / [`ExperimentConfig::paper_pwa`]
//! presets are thin wrappers over it.

use appsim::workload::WorkloadSpec;
use appsim::ReconfigCost;
use multicluster::{
    BackgroundLoad, CatalogError, ControlPlaneFaultSpec, FailurePolicy, FailureSpec, GramConfig,
    MessageClass, NetworkError,
};
use simcore::SimDuration;

use crate::autoscaler::{self, AutoscalerError};
use crate::policy::{PolicyError, PolicyRegistry};

/// When the malleability-management policies are initiated
/// (Section V-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Approach {
    /// **Precedence to Running Applications**: whenever processors become
    /// available, grow running malleable jobs first; waiting malleable
    /// jobs are only considered once no running job can grow. Jobs are
    /// never shrunk.
    Pra,
    /// **Precedence to Waiting Applications**: when the next queued job
    /// cannot be placed, mandatorily shrink running malleable jobs to
    /// make room (respecting their minimum sizes); if even that cannot
    /// free enough processors, grow running jobs instead.
    Pwa,
}

impl Approach {
    /// Short label used in reports ("PRA"/"PWA").
    pub fn label(self) -> &'static str {
        match self {
            Approach::Pra => "PRA",
            Approach::Pwa => "PWA",
        }
    }
}

/// A configuration-validation failure (see
/// [`ExperimentConfig::validate`] and [`SchedulerConfig::validate`]).
///
/// Implements [`std::error::Error`]; callers that used to pass
/// stringly-typed errors along can still do so through the `Display`
/// impl or the `From<ConfigError> for String` conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A policy name did not resolve against the registry.
    Policy(PolicyError),
    /// A workload-source name did not resolve against the workload
    /// registry (see [`appsim::generate::WorkloadRegistry`]).
    Workload(appsim::generate::UnknownSource),
    /// A uniform topology with zero clusters or zero nodes per cluster.
    EmptyTopology,
    /// `koala_share` outside `[0, 1]`.
    KoalaShareOutOfRange(f64),
    /// `koala_share` of zero admits no jobs at all.
    KoalaShareZero,
    /// Negative co-allocation penalty.
    NegativeCoallocPenalty(f64),
    /// A zero polling/scan period would livelock the event loop.
    ZeroPeriod,
    /// Negative malleable/moldable class fractions.
    NegativeClassFraction,
    /// Class fractions summing over 1.
    ClassFractionsExceedOne(f64),
    /// Workload with no application kinds and no explicit trace.
    EmptyWorkload,
    /// An invalid job inside an explicit trace.
    TraceJob {
        /// Index of the offending job in the trace.
        index: usize,
        /// The job's own validation failure.
        reason: String,
    },
    /// A scenario was built without a workload (see
    /// [`crate::scenario::ScenarioBuilder`]).
    MissingWorkload,
    /// A scenario was built with an empty seed list.
    NoSeeds,
    /// A zero quantile-reservoir capacity in the report configuration.
    ZeroQuantileCapacity,
    /// An autoscaler name is not a built-in one (see
    /// [`crate::autoscaler::by_name`]).
    Autoscaler(AutoscalerError),
    /// A failure spec with a zero MTBF, zero MTTR, or zero `max_nodes` —
    /// the crash process would be degenerate (instant storms or no-op
    /// events).
    DegenerateFailureSpec,
    /// A streamed run over a configuration with neither a `trace` nor a
    /// `generator` name.
    MissingGenerator,
    /// A streamed run asked for full reports: a stream retires jobs at
    /// their terminal phase, so it reports summaries only.
    StreamedFullReport,
    /// A control-plane fault probability outside `[0, 1]`.
    FaultProbabilityOutOfRange(f64),
    /// A flaky-channel spec with a zero mean gap or duration — episodes
    /// would either never end or fire back-to-back forever.
    DegenerateFlakySpec,
    /// A retry configuration that can never make progress: zero base
    /// timeout, zero attempts, a backoff cap below the base timeout, or
    /// a zero orphan-sweep period/grace.
    DegenerateRetrySpec,
    /// A file-catalog problem (bad bandwidth matrix, unknown file, …).
    Catalog(CatalogError),
    /// A network-topology problem (unknown name, bad builder
    /// parameters, too few clusters).
    Network(NetworkError),
    /// An invalid entry in [`NetworkConfig::files`].
    NetworkFile {
        /// Index of the offending file spec.
        index: usize,
        /// What was wrong.
        reason: String,
    },
    /// A negative or non-finite per-processor reconfiguration traffic
    /// volume.
    NegativeReconfigTraffic(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Policy(e) => e.fmt(f),
            ConfigError::Workload(e) => e.fmt(f),
            ConfigError::EmptyTopology => {
                write!(f, "uniform topology needs at least one node in one cluster")
            }
            ConfigError::KoalaShareOutOfRange(v) => {
                write!(f, "koala_share {v} outside [0, 1]")
            }
            ConfigError::KoalaShareZero => write!(f, "koala_share 0 admits no jobs at all"),
            ConfigError::NegativeCoallocPenalty(v) => {
                write!(f, "negative coalloc_penalty {v}")
            }
            ConfigError::ZeroPeriod => {
                write!(f, "zero polling/scan periods would livelock the event loop")
            }
            ConfigError::NegativeClassFraction => write!(f, "negative class fractions"),
            ConfigError::ClassFractionsExceedOne(sum) => {
                write!(f, "class fractions sum to {sum} > 1")
            }
            ConfigError::EmptyWorkload => {
                write!(f, "workload needs at least one application kind")
            }
            ConfigError::TraceJob { index, reason } => {
                write!(f, "trace job {index}: {reason}")
            }
            ConfigError::MissingWorkload => {
                write!(f, "scenario needs a workload (ScenarioBuilder::workload)")
            }
            ConfigError::NoSeeds => write!(f, "scenario needs at least one seed"),
            ConfigError::ZeroQuantileCapacity => {
                write!(f, "report quantile capacity must be positive")
            }
            ConfigError::Autoscaler(e) => e.fmt(f),
            ConfigError::DegenerateFailureSpec => {
                write!(f, "failure spec needs positive mtbf, mttr, and max_nodes")
            }
            ConfigError::MissingGenerator => {
                write!(f, "a streamed run needs a trace or a generator name")
            }
            ConfigError::StreamedFullReport => {
                write!(f, "a streamed run reports summaries only, not full reports")
            }
            ConfigError::FaultProbabilityOutOfRange(p) => {
                write!(f, "control-plane fault probability {p} outside [0, 1]")
            }
            ConfigError::DegenerateFlakySpec => {
                write!(f, "flaky-channel spec needs positive mean gap and duration")
            }
            ConfigError::DegenerateRetrySpec => {
                write!(
                    f,
                    "retry config needs a positive timeout, at least one attempt, \
                     a backoff cap >= the base timeout, and a positive orphan \
                     sweep period and grace"
                )
            }
            ConfigError::Catalog(e) => e.fmt(f),
            ConfigError::Network(e) => e.fmt(f),
            ConfigError::NetworkFile { index, reason } => {
                write!(f, "network file {index}: {reason}")
            }
            ConfigError::NegativeReconfigTraffic(v) => {
                write!(f, "reconfig_gb_per_proc must be finite and >= 0, got {v}")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Policy(e) => Some(e),
            ConfigError::Workload(e) => Some(e),
            ConfigError::Autoscaler(e) => Some(e),
            ConfigError::Catalog(e) => Some(e),
            ConfigError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PolicyError> for ConfigError {
    fn from(e: PolicyError) -> Self {
        ConfigError::Policy(e)
    }
}

impl From<AutoscalerError> for ConfigError {
    fn from(e: AutoscalerError) -> Self {
        ConfigError::Autoscaler(e)
    }
}

impl From<appsim::generate::UnknownSource> for ConfigError {
    fn from(e: appsim::generate::UnknownSource) -> Self {
        ConfigError::Workload(e)
    }
}

impl From<CatalogError> for ConfigError {
    fn from(e: CatalogError) -> Self {
        ConfigError::Catalog(e)
    }
}

impl From<NetworkError> for ConfigError {
    fn from(e: NetworkError) -> Self {
        ConfigError::Network(e)
    }
}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> Self {
        e.to_string()
    }
}

/// When KOALA claims the processors of a placed job (the processor
/// claimer, Section IV-A: "If processor reservation is supported by local
/// resource managers, the PC can reserve processors immediately after the
/// placement of the components. Otherwise, the PC uses KOALA claiming
/// policy to postpone claiming of processors to a time close to the
/// estimated job start time").
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ClaimingPolicy {
    /// Claim at placement (reservation-capable LRMs). All reproduction
    /// experiments use this — DAS-3's SGE was configured for it.
    Immediate,
    /// Postpone claiming until `margin` before the estimated start (the
    /// end of file staging). Processors are not held during staging, so
    /// claims can fail and the job returns to the placement queue.
    Deferred {
        /// How long before the estimated start the claim fires.
        margin: SimDuration,
    },
}

/// Timeout/retry behaviour of the control-plane messaging the scheduler
/// drives (GRAM submissions, stub recruits, grow/shrink commands,
/// release messages). Every operation carries a deadline; on expiry it
/// is resent with capped exponential backoff. Inert unless the scenario
/// enables [`ControlPlaneFaultSpec`] — with reliable messaging no
/// deadline ever fires, so these knobs cannot perturb fault-free runs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetryConfig {
    /// Deadline for the first send; retry `k` waits `timeout · 2^k`,
    /// capped at `max_timeout`. 30 s matches GRAM-era client timeouts.
    pub timeout: SimDuration,
    /// Cap on the backoff interval.
    pub max_timeout: SimDuration,
    /// Total sends per operation (first try + retries). When the last
    /// deadline expires the operation's give-up policy runs (requeue the
    /// placement, abort the grow, locally force the sync, or leave the
    /// release to the orphan sweep).
    pub max_attempts: u32,
    /// Period of the orphaned-allocation sweep that reclaims allocations
    /// whose release messages were all lost (only scheduled when faults
    /// are enabled).
    pub orphan_sweep_period: SimDuration,
    /// How long a release may stay unconfirmed before the sweep reclaims
    /// it. Must comfortably exceed `max_timeout` so the sweep never
    /// races a retry that is still in flight.
    pub orphan_grace: SimDuration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            timeout: SimDuration::from_secs(30),
            max_timeout: SimDuration::from_secs(120),
            max_attempts: 4,
            orphan_sweep_period: SimDuration::from_secs(60),
            orphan_grace: SimDuration::from_secs(90),
        }
    }
}

impl RetryConfig {
    /// The deadline for attempt `attempt` (0-based): `timeout · 2^attempt`
    /// capped at `max_timeout`.
    pub fn deadline_for(&self, attempt: u32) -> SimDuration {
        let shift = attempt.min(16);
        self.timeout
            .saturating_mul(1u64 << shift)
            .min(self.max_timeout)
            .max(self.timeout.min(self.max_timeout))
    }

    /// Validates the block (see [`ConfigError::DegenerateRetrySpec`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.timeout.is_zero()
            || self.max_attempts == 0
            || self.max_timeout < self.timeout
            || self.orphan_sweep_period.is_zero()
            || self.orphan_grace.is_zero()
        {
            return Err(ConfigError::DegenerateRetrySpec);
        }
        Ok(())
    }
}

/// Tunables of the scheduler proper.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SchedulerConfig {
    /// Registry name of the placement policy for initial placement (the
    /// paper's experiments use Worst Fit, `"worst_fit"`). Resolved
    /// against [`PolicyRegistry::global`] when the world is built.
    pub placement: String,
    /// Registry name of the malleability-management policy (`"fpsma"`
    /// or `"egs"` in the paper).
    pub malleability: String,
    /// Job-management approach (PRA or PWA).
    pub approach: Approach,
    /// KIS polling period. Unspecified in the paper ("periodically");
    /// 10 s is well under the 30 s minimum inter-arrival time and
    /// matches GLOBUS MDS cache lifetimes of the era.
    pub kis_poll_period: SimDuration,
    /// Placement-queue scan period. Unspecified; same 10 s reasoning.
    pub queue_scan_period: SimDuration,
    /// Placement tries before a submission fails (Section IV-A describes
    /// the threshold without a value). 1000 means jobs effectively never
    /// fail, matching the paper's runs where all 300 jobs complete.
    pub placement_retry_threshold: u32,
    /// Processors per cluster KOALA leaves to local users when *growing*
    /// jobs (Section V-B's threshold "in order to leave always a minimal
    /// number of available processors to local users"). The headline
    /// experiments saw negligible background load; default 0, swept in
    /// the ablations.
    pub grow_reserve: u32,
    /// Fraction of the platform KOALA may occupy with the jobs it
    /// manages — the Section V-B threshold "over which KOALA never
    /// expands the total set of the jobs it manages", which "leaves
    /// always a minimal number of available processors to local users".
    /// The paper never states the value. We calibrate 0.12 (≈33 of the
    /// 272 processors) jointly against two observations: total platform
    /// utilization in Figs. 7e/8e stays in the 40–120 band (background
    /// users plus a bounded KOALA share), and the W' workloads drive the
    /// PWA system into the overload regime of Fig. 8 (jobs squeezed to
    /// their minimum sizes, queueing, mandatory shrinks), which only
    /// happens when the malleable pool is comparable to the workload's
    /// minimum-size demand (~24 processors). Placement and growth both
    /// respect the cap.
    pub koala_share: f64,
    /// Execution-time inflation per *additional* cluster a co-allocated
    /// job spans (wide-area messages are slower than intra-cluster ones;
    /// the Cluster Minimization policies exist to reduce exactly this).
    /// 0.25 follows the inter/intra-cluster latency ratios reported for
    /// DAS co-allocation studies (Bucur & Epema).
    pub coalloc_penalty: f64,
    /// GRAM latency model (see `multicluster::GramConfig`).
    pub gram: GramConfig,
    /// Application suspension cost per reconfiguration.
    pub reconfig: ReconfigCost,
    /// Processor-claiming policy (see [`ClaimingPolicy`]).
    pub claiming: ClaimingPolicy,
    /// Control-plane timeout/retry behaviour (see [`RetryConfig`];
    /// inert without [`ElasticityConfig::ctrl_faults`]).
    #[serde(default)]
    pub retry: RetryConfig,
    /// Event-queue implementation backing the engine. The monotone radix
    /// queue ([`simcore::QueueImpl::Heap`], named for the binary heap it
    /// replaced) is the only one; the field stays because stored
    /// configurations and external benchmark drivers name it
    /// (`Engine::configured(cfg.sched.event_queue, ..)`).
    #[serde(default)]
    pub event_queue: simcore::QueueImpl,
    /// Incremental per-cluster availability index: `scan_queue` consults
    /// cheap per-scan aggregates (largest single-cluster headroom, total
    /// headroom) to skip placement attempts that provably cannot succeed.
    /// Trajectory-preserving, so it defaults on — also when a stored
    /// config omits the field.
    #[serde(default = "default_avail_index")]
    pub avail_index: bool,
}

/// The serde default of [`SchedulerConfig::avail_index`] (on, like
/// [`SchedulerConfig::default`]).
fn default_avail_index() -> bool {
    true
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            placement: "worst_fit".to_string(),
            malleability: "fpsma".to_string(),
            approach: Approach::Pra,
            kis_poll_period: SimDuration::from_secs(10),
            queue_scan_period: SimDuration::from_secs(10),
            placement_retry_threshold: 1000,
            grow_reserve: 0,
            koala_share: 0.12,
            coalloc_penalty: 0.25,
            gram: GramConfig::default(),
            reconfig: ReconfigCost::default(),
            claiming: ClaimingPolicy::Immediate,
            retry: RetryConfig::default(),
            event_queue: simcore::QueueImpl::default(),
            avail_index: true,
        }
    }
}

/// Tunables of the summary every run reports (see
/// [`crate::report::SummaryReport`], also a full report's `summary`).
/// The per-job detail of a full report is untrimmed.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReportConfig {
    /// Warmup window: jobs submitted before it, and utilization /
    /// operation activity inside it, are excluded from summarized
    /// metrics (replication studies trim the transient start-up phase).
    /// Default: zero (measure everything, like the paper's figures).
    pub warmup: SimDuration,
    /// Capacity of each metric's bounded-memory quantile reservoir.
    /// Quantiles are exact while a cell observes at most this many
    /// samples, and an `O(1/√capacity)`-accurate uniform subsample
    /// beyond. 512 covers the paper's 300-job runs exactly while keeping
    /// a summary report ~25 KB.
    pub quantile_capacity: usize,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            warmup: SimDuration::ZERO,
            quantile_capacity: 512,
        }
    }
}

/// The elasticity layer's knobs: monitoring, autoscaling, node failures
/// and information staleness. The default is fully inert — no monitor
/// samples, the `none` autoscaler, no crashes, zero KIS lag — so every
/// pre-elasticity experiment runs exactly as before.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ElasticityConfig {
    /// Period of the monitoring subsystem sampling per-cluster
    /// utilization and queue depth into the report's metric streams.
    /// Zero disables monitoring entirely.
    #[serde(default)]
    pub monitor_period: SimDuration,
    /// Name of the autoscaling policy (see
    /// [`crate::autoscaler::by_name`]); `"none"` disables the autoscale
    /// cycle. A partially-deserialized block that omits this field fails
    /// validation (an empty name is unknown like any other).
    #[serde(default)]
    pub autoscaler: String,
    /// Period of the autoscale decision cycle (the "scheduling cycle" of
    /// elastic cluster managers). Must be positive when an autoscaler
    /// other than `none` is selected.
    #[serde(default)]
    pub autoscale_period: SimDuration,
    /// Propagation delay between a scale decision and the capacity
    /// actually moving (cloud-provider provisioning latency; zero means
    /// decisions apply instantly).
    #[serde(default)]
    pub autoscale_delay: SimDuration,
    /// The node-failure process; `None` disables crashes.
    #[serde(default)]
    pub failures: Option<FailureSpec>,
    /// What happens to KOALA jobs caught on crashed nodes.
    #[serde(default)]
    pub failure_policy: FailurePolicy,
    /// KIS propagation lag — the first-class staleness axis: the
    /// scheduler places against snapshots at least this old (quantized
    /// up to the poll period, since snapshots mature at poll times).
    #[serde(default)]
    pub kis_lag: SimDuration,
    /// The control-plane fault model (lossy/jittery/duplicating
    /// KOALA↔GRAM messaging with flaky channel episodes); `None`
    /// disables it and messaging is perfectly reliable.
    #[serde(default)]
    pub ctrl_faults: Option<ControlPlaneFaultSpec>,
}

impl Default for ElasticityConfig {
    fn default() -> Self {
        ElasticityConfig {
            monitor_period: SimDuration::ZERO,
            autoscaler: "none".to_string(),
            autoscale_period: SimDuration::from_secs(60),
            autoscale_delay: SimDuration::ZERO,
            failures: None,
            failure_policy: FailurePolicy::default(),
            kis_lag: SimDuration::ZERO,
            ctrl_faults: None,
        }
    }
}

impl ElasticityConfig {
    /// True when an autoscaler other than `none` drives scale cycles.
    pub fn autoscaled(&self) -> bool {
        self.autoscaler != "none"
    }

    /// True when monitoring samples are taken.
    pub fn monitored(&self) -> bool {
        !self.monitor_period.is_zero()
    }

    /// Validates the elasticity block alone: the autoscaler name must
    /// resolve, an active autoscaler needs a nonzero cycle period, and a
    /// failure spec must have positive mtbf/mttr and a nonzero node cap.
    /// Called from [`ExperimentConfig::validate`] and from the streaming
    /// entry points (which skip whole-config validation because the
    /// stream replaces the configured workload).
    pub fn validate(&self) -> Result<(), ConfigError> {
        autoscaler::by_name(&self.autoscaler)?;
        if self.autoscaled() && self.autoscale_period.is_zero() {
            return Err(ConfigError::ZeroPeriod);
        }
        if let Some(spec) = &self.failures {
            if spec.mtbf.is_zero() || spec.mttr.is_zero() || spec.max_nodes == 0 {
                return Err(ConfigError::DegenerateFailureSpec);
            }
        }
        if let Some(spec) = &self.ctrl_faults {
            for class in MessageClass::ALL {
                let p = spec.loss.get(class);
                if !(0.0..=1.0).contains(&p) {
                    return Err(ConfigError::FaultProbabilityOutOfRange(p));
                }
            }
            if !(0.0..=1.0).contains(&spec.duplicate) {
                return Err(ConfigError::FaultProbabilityOutOfRange(spec.duplicate));
            }
            if let Some(flaky) = &spec.flaky {
                if !(0.0..=1.0).contains(&flaky.loss) {
                    return Err(ConfigError::FaultProbabilityOutOfRange(flaky.loss));
                }
                if flaky.mean_gap.is_zero() || flaky.mean_duration.is_zero() {
                    return Err(ConfigError::DegenerateFlakySpec);
                }
            }
        }
        Ok(())
    }
}

/// A file pre-registered in the network layer's replica catalog:
/// `trace` jobs reference it by index through
/// [`appsim::JobSpec::input_files`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FileSpec {
    /// File size in gigabytes.
    pub size_gb: f64,
    /// Cluster indices holding an initial replica (at least one).
    pub replicas: Vec<u16>,
}

/// The contended-network layer: a named topology (see
/// [`multicluster::NetworkTopology::by_name`]), the initial replica
/// layout, and optional reconfiguration traffic. Carried as
/// [`ExperimentConfig::network`]; `None` disables the layer entirely —
/// transfers cost nothing at runtime and only the static Close-to-Files
/// estimates remain, exactly as before the subsystem existed.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NetworkConfig {
    /// Name of the topology (`"das3"`, `"flat_wan"`, `"star"`,
    /// `"hierarchical"`, or parametric `"fat_tree_<k>"`).
    pub topology: String,
    /// Files registered in the replica catalog before the run starts,
    /// in [`FileId`](multicluster::FileId) order (index `i` becomes
    /// file id `i`).
    #[serde(default)]
    pub files: Vec<FileSpec>,
    /// Gigabytes of redistribution traffic per processor added or
    /// removed by a reconfiguration, charged to the job's site access
    /// link (contention coupling only — the reconfiguring job itself
    /// still pays the [`ReconfigCost`] suspension model). Zero (the
    /// default) disables reconfiguration traffic.
    #[serde(default)]
    pub reconfig_gb_per_proc: f64,
}

/// Warm-fork sweep configuration: the shared warmup prefix of a policy
/// sweep runs **once** per `(workload, seed)` under the base policies
/// named here, until simulated time reaches `at`, and every policy cell
/// of the sweep continues from a copy of the warmed world instead of
/// replaying the prefix cold (see
/// [`crate::parallel::run_cells_summary_warm`]).
///
/// Forking requires the cells to agree on everything except `name`,
/// `sched.placement` and `sched.malleability`: the warm runner only
/// groups such cells, and the byte path
/// ([`Snapshot`](crate::snapshot::Snapshot)) checks the fork-invariant
/// configuration fingerprint it embeds.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WarmFork {
    /// The fork instant: the warmup prefix runs until the next pending
    /// event would fire at or after this time (the boundary event itself
    /// stays queued and replays identically in every fork).
    pub at: SimDuration,
    /// Registry name of the placement policy the shared prefix runs
    /// under (every cell's warmup must be identical, so the cell's own
    /// policy only takes over at the fork).
    pub base_placement: String,
    /// Registry name of the malleability policy the shared prefix runs
    /// under.
    pub base_malleability: String,
}

fn default_base_placement() -> String {
    "worst_fit".to_string()
}

fn default_base_malleability() -> String {
    "fpsma".to_string()
}

impl WarmFork {
    /// A warm fork at `at` under the default base policies (Worst Fit +
    /// FPSMA — the paper's baselines).
    pub fn at(at: SimDuration) -> Self {
        WarmFork {
            at,
            base_placement: default_base_placement(),
            base_malleability: default_base_malleability(),
        }
    }
}

/// A uniform synthetic multicluster: `clusters` identical sites of
/// `nodes_per_cluster` nodes each (see [`multicluster::uniform`]) — the
/// cluster-count axis of workload sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct UniformTopology {
    /// Number of identical clusters.
    pub clusters: u32,
    /// Nodes per cluster.
    pub nodes_per_cluster: u32,
}

/// A complete experiment: scheduler + workload + environment + seed.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentConfig {
    /// Report label (e.g. `"FPSMA/Wm"`).
    pub name: String,
    /// Scheduler tunables.
    pub sched: SchedulerConfig,
    /// The KOALA workload.
    pub workload: WorkloadSpec,
    /// Registry name of a model-driven workload source
    /// ([`appsim::generate::WorkloadRegistry`]). When set, the job
    /// stream comes from the named generator (seeded with the cell seed,
    /// `workload.jobs` jobs) instead of `workload`; an explicit `trace`
    /// still wins over both.
    #[serde(default)]
    pub generator: Option<String>,
    /// Background (local-user) load applied to every cluster.
    pub background: BackgroundLoad,
    /// Master seed; workload, background and any stochastic choices all
    /// derive from it.
    pub seed: u64,
    /// Hard stop. `None` lets the run finish naturally (all jobs
    /// terminal); experiments use a generous cap as a hang backstop.
    pub horizon: Option<SimDuration>,
    /// Explicit job stream overriding the generated workload — for
    /// replaying SWF traces or injecting co-allocated jobs.
    #[serde(default)]
    pub trace: Option<Vec<appsim::workload::SubmittedJob>>,
    /// Use the heterogeneous DAS-3 variant (per-site compute speeds)
    /// instead of the homogeneous Table I preset.
    #[serde(default)]
    pub heterogeneous: bool,
    /// Replace DAS-3 with a uniform synthetic multicluster (takes
    /// precedence over `heterogeneous`) — the cluster-count sweep axis.
    #[serde(default)]
    pub uniform_topology: Option<UniformTopology>,
    /// Summary-report tunables (warmup trimming, quantile capacity).
    #[serde(default)]
    pub report: ReportConfig,
    /// The elasticity layer (monitoring, autoscaling, node failures,
    /// KIS staleness); inert by default.
    #[serde(default)]
    pub elasticity: ElasticityConfig,
    /// The contended-network layer (topology, replica layout,
    /// reconfiguration traffic); `None` — the default — is strictly
    /// passive.
    #[serde(default)]
    pub network: Option<NetworkConfig>,
    /// Warm-fork sweep configuration: share one warmup prefix across the
    /// policy cells of a sweep (see [`WarmFork`]); `None` — the default —
    /// runs every cell cold.
    #[serde(default)]
    pub warm_fork: Option<WarmFork>,
}

impl ExperimentConfig {
    /// A Fig. 7 cell: PRA with the given malleability policy (by registry
    /// name) and workload (Wm or Wmr), Worst-Fit placement, and the
    /// testbed's "activity of concurrent users" as background
    /// (Section VI-C: it was present during the paper's runs; its
    /// releases are also what the KIS-poll pathway exists to detect).
    ///
    /// A thin preset over [`Scenario::builder`](crate::scenario::Scenario::builder).
    ///
    /// # Panics
    /// Panics when `policy` is not a registered malleability policy.
    pub fn paper_pra(policy: &str, workload: WorkloadSpec) -> Self {
        crate::scenario::Scenario::builder()
            .malleability(policy)
            .workload(workload)
            .pra()
            .build()
            .expect("paper preset must be a valid scenario")
            .into_config()
    }

    /// A Fig. 8 cell: PWA with the given malleability policy (by registry
    /// name) and workload (W'm or W'mr).
    ///
    /// # Panics
    /// Panics when `policy` is not a registered malleability policy.
    pub fn paper_pwa(policy: &str, workload: WorkloadSpec) -> Self {
        crate::scenario::Scenario::builder()
            .malleability(policy)
            .workload(workload)
            .pwa()
            .build()
            .expect("paper preset must be a valid scenario")
            .into_config()
    }
}

impl SchedulerConfig {
    /// Validates the configuration, returning the first problem found.
    /// Policy names are resolved against [`PolicyRegistry::global`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let registry = PolicyRegistry::global();
        registry.placement(&self.placement)?;
        registry.malleability(&self.malleability)?;
        if !(0.0..=1.0).contains(&self.koala_share) {
            return Err(ConfigError::KoalaShareOutOfRange(self.koala_share));
        }
        if self.koala_share == 0.0 {
            return Err(ConfigError::KoalaShareZero);
        }
        if self.coalloc_penalty < 0.0 {
            return Err(ConfigError::NegativeCoallocPenalty(self.coalloc_penalty));
        }
        if self.kis_poll_period.is_zero() || self.queue_scan_period.is_zero() {
            return Err(ConfigError::ZeroPeriod);
        }
        if let ClaimingPolicy::Deferred { margin } = self.claiming {
            let _ = margin; // any margin is legal; zero means claim at start
        }
        self.retry.validate()?;
        Ok(())
    }
}

impl ExperimentConfig {
    /// Validates the whole configuration: the substrate half, which a
    /// run over a caller-owned job stream checks alone, and the
    /// configuration's own workload.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_substrate()?;
        self.validate_workload()
    }

    /// Validates everything a run needs whatever its jobs come from: the
    /// scheduler, topology, report, elasticity, warm-fork and network
    /// settings. A run over a caller-owned job stream checks this half
    /// only.
    pub(crate) fn validate_substrate(&self) -> Result<(), ConfigError> {
        self.sched.validate()?;
        if let Some(u) = &self.uniform_topology {
            if u.clusters == 0 || u.nodes_per_cluster == 0 {
                return Err(ConfigError::EmptyTopology);
            }
        }
        if self.report.quantile_capacity == 0 {
            return Err(ConfigError::ZeroQuantileCapacity);
        }
        self.elasticity.validate()?;
        if let Some(wf) = &self.warm_fork {
            let registry = PolicyRegistry::global();
            registry.placement(&wf.base_placement)?;
            registry.malleability(&wf.base_malleability)?;
        }
        if let Some(net) = &self.network {
            let clusters = self
                .uniform_topology
                .map(|u| u.clusters as usize)
                .unwrap_or_else(|| multicluster::das3().len());
            multicluster::NetworkTopology::by_name(&net.topology, clusters)?;
            if !(net.reconfig_gb_per_proc.is_finite() && net.reconfig_gb_per_proc >= 0.0) {
                return Err(ConfigError::NegativeReconfigTraffic(
                    net.reconfig_gb_per_proc,
                ));
            }
            for (i, file) in net.files.iter().enumerate() {
                if !(file.size_gb.is_finite() && file.size_gb >= 0.0) {
                    return Err(ConfigError::NetworkFile {
                        index: i,
                        reason: format!("size_gb {} must be finite and >= 0", file.size_gb),
                    });
                }
                if file.replicas.is_empty() {
                    return Err(ConfigError::NetworkFile {
                        index: i,
                        reason: "needs at least one initial replica".to_string(),
                    });
                }
                if let Some(&r) = file.replicas.iter().find(|&&r| r as usize >= clusters) {
                    return Err(ConfigError::NetworkFile {
                        index: i,
                        reason: format!("replica cluster {r} >= cluster count {clusters}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Validates the configuration's own workload: the generator name,
    /// the workload composition, and every job of an explicit trace
    /// (including its input files against the network layer's catalog).
    fn validate_workload(&self) -> Result<(), ConfigError> {
        if let Some(name) = &self.generator {
            appsim::generate::WorkloadRegistry::global().source(name)?;
        }
        let w = &self.workload;
        if w.malleable_fraction < 0.0 || w.moldable_fraction < 0.0 {
            return Err(ConfigError::NegativeClassFraction);
        }
        if w.malleable_fraction + w.moldable_fraction > 1.0 + 1e-9 {
            return Err(ConfigError::ClassFractionsExceedOne(
                w.malleable_fraction + w.moldable_fraction,
            ));
        }
        if w.apps.is_empty() && self.trace.is_none() && self.generator.is_none() {
            return Err(ConfigError::EmptyWorkload);
        }
        let files = self.network.as_ref().map(|net| net.files.len());
        for (i, j) in self.trace.iter().flatten().enumerate() {
            j.spec
                .validate()
                .map_err(|reason| ConfigError::TraceJob { index: i, reason })?;
            let Some(files) = files else { continue };
            if let Some(&fid) = j.spec.input_files.iter().find(|&&f| f as usize >= files) {
                return Err(ConfigError::TraceJob {
                    index: i,
                    reason: format!(
                        "input file {fid} is not registered in the network layer ({files} files)"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Generates exactly the workload a run with `seed` would see
    /// (the same RNG forking as `World::new`), e.g. for SWF export.
    ///
    /// # Panics
    /// Panics when `generator` names an unregistered source (validate
    /// first for a `Result`-shaped path).
    pub fn generate_workload_for_seed(&self, seed: u64) -> Vec<appsim::workload::SubmittedJob> {
        if let Some(trace) = &self.trace {
            return trace.clone();
        }
        if let Some(name) = &self.generator {
            let src = appsim::generate::WorkloadRegistry::global()
                .source(name)
                .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
            return src.generate(seed, self.workload.jobs as u64);
        }
        let mut master = simcore::SimRng::seed_from_u64(seed);
        let mut wl_rng = master.fork(1);
        self.workload.generate(&mut wl_rng)
    }
}

/// Human label for the paper's standard workloads, judged by their
/// composition (used in report names).
pub fn workload_label(w: &WorkloadSpec) -> String {
    let prime = w.nominal_span() <= SimDuration::from_secs(30 * 299);
    let mix = if w.malleable_fraction >= 1.0 {
        "Wm"
    } else {
        "Wmr"
    };
    if prime {
        format!("{}'", mix)
    } else {
        mix.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::workload::WorkloadSpec;

    #[test]
    fn defaults_are_the_documented_choices() {
        let c = SchedulerConfig::default();
        assert_eq!(c.placement, "worst_fit");
        assert_eq!(c.malleability, "fpsma");
        assert_eq!(c.approach, Approach::Pra);
        assert_eq!(c.kis_poll_period, SimDuration::from_secs(10));
        assert_eq!(c.grow_reserve, 0);
        assert_eq!(c.placement_retry_threshold, 1000);
    }

    #[test]
    fn paper_cells_are_named_after_policy_and_workload() {
        let c = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
        assert_eq!(c.name, "EGS/Wm");
        assert_eq!(c.sched.approach, Approach::Pra);
        let c = ExperimentConfig::paper_pwa("fpsma", WorkloadSpec::wmr_prime());
        assert_eq!(c.name, "FPSMA/Wmr'");
        assert_eq!(c.sched.approach, Approach::Pwa);
    }

    #[test]
    fn validation_accepts_defaults_and_catches_bad_values() {
        let cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        cfg.validate().unwrap();
        let mut bad = cfg.clone();
        bad.sched.koala_share = 1.5;
        assert_eq!(bad.validate(), Err(ConfigError::KoalaShareOutOfRange(1.5)));
        let mut bad = cfg.clone();
        bad.sched.kis_poll_period = SimDuration::ZERO;
        assert_eq!(bad.validate(), Err(ConfigError::ZeroPeriod));
        let mut bad = cfg.clone();
        bad.workload.malleable_fraction = 0.8;
        bad.workload.moldable_fraction = 0.5;
        assert!(
            matches!(bad.validate(), Err(ConfigError::ClassFractionsExceedOne(_))),
            "fractions over 1"
        );
        let mut bad = cfg.clone();
        bad.trace = Some(vec![appsim::workload::SubmittedJob {
            at: simcore::SimTime::ZERO,
            spec: appsim::JobSpec::rigid(appsim::AppKind::Ft, 6), // not a power of two
        }]);
        assert!(
            matches!(bad.validate(), Err(ConfigError::TraceJob { index: 0, .. })),
            "invalid trace job"
        );
        let mut bad = cfg;
        bad.sched.malleability = "not_a_policy".to_string();
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Policy(_)));
        assert!(err.to_string().contains("not_a_policy"));
    }

    #[test]
    fn non_finite_trace_work_scale_is_an_error_not_a_panic() {
        for bad_scale in [f64::NAN, f64::INFINITY] {
            let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
            let mut spec = appsim::JobSpec::rigid(appsim::AppKind::Gadget2, 4);
            spec.work_scale = bad_scale;
            cfg.trace = Some(vec![appsim::workload::SubmittedJob {
                at: simcore::SimTime::ZERO,
                spec,
            }]);
            assert!(
                matches!(cfg.validate(), Err(ConfigError::TraceJob { index: 0, .. })),
                "work scale {bad_scale} passed validation"
            );
            assert!(crate::run::<crate::RunReport>(&crate::Run::cell(&cfg)).is_err());
        }
    }

    #[test]
    fn generator_and_topology_fields_validate() {
        let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        cfg.generator = Some("poisson_lublin".to_string());
        cfg.validate().unwrap();
        // A generator stands in for an app mix.
        cfg.workload.apps.clear();
        cfg.validate().unwrap();
        cfg.generator = Some("not_a_source".to_string());
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Workload(_)), "{err}");
        assert!(err.to_string().contains("not_a_source"));
        assert!(err.to_string().contains("poisson_lublin"), "{err}");
        let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        cfg.uniform_topology = Some(UniformTopology {
            clusters: 4,
            nodes_per_cluster: 64,
        });
        cfg.validate().unwrap();
        cfg.uniform_topology = Some(UniformTopology {
            clusters: 0,
            nodes_per_cluster: 64,
        });
        assert_eq!(cfg.validate(), Err(ConfigError::EmptyTopology));

        // Streamed runs reject bad configurations as values, not panics:
        // a caller-owned stream checks the substrate half, a streamed
        // configuration trace the workload half too.
        let mut no_topology = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        no_topology.network = Some(NetworkConfig {
            topology: "not_a_topology".to_string(),
            files: Vec::new(),
            reconfig_gb_per_proc: 0.0,
        });
        for bad in [&no_topology, &cfg] {
            let mut stream = appsim::generate::VecStream::new(Vec::new());
            assert!(crate::try_run_stream_summary(bad, 1, &mut stream, 8).is_err());
        }
        let mut unregistered_file = no_topology;
        unregistered_file.network.as_mut().unwrap().topology = "das3".to_string();
        let mut spec = appsim::JobSpec::rigid(appsim::AppKind::Gadget2, 4);
        spec.input_files = vec![0];
        unregistered_file.trace = Some(vec![appsim::workload::SubmittedJob {
            at: simcore::SimTime::ZERO,
            spec,
        }]);
        let streamed = crate::Run::cell(&unregistered_file).streamed(8);
        assert!(matches!(
            crate::run::<crate::SummaryReport>(&streamed),
            Err(ConfigError::TraceJob { index: 0, .. })
        ));
    }

    #[test]
    fn generator_workloads_reproduce_per_seed() {
        let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        cfg.generator = Some("poisson_loguniform".to_string());
        cfg.workload.jobs = 30;
        let a = cfg.generate_workload_for_seed(7);
        assert_eq!(a.len(), 30);
        assert_eq!(a, cfg.generate_workload_for_seed(7));
        assert_ne!(a, cfg.generate_workload_for_seed(8));
    }

    #[test]
    fn config_errors_convert_to_strings_for_legacy_callers() {
        let s: String = ConfigError::KoalaShareZero.into();
        assert_eq!(s, "koala_share 0 admits no jobs at all");
        let e: ConfigError = crate::policy::PolicyError::UnknownPlacement {
            name: "x".into(),
            known: vec!["worst_fit".into()],
        }
        .into();
        assert!(e.to_string().contains("worst_fit"));
    }

    #[test]
    fn network_block_validates() {
        let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        cfg.network = Some(NetworkConfig {
            topology: "das3".to_string(),
            files: vec![FileSpec {
                size_gb: 100.0,
                replicas: vec![4],
            }],
            reconfig_gb_per_proc: 0.0,
        });
        cfg.validate().unwrap();

        let mut bad = cfg.clone();
        bad.network.as_mut().unwrap().topology = "not_a_topology".to_string();
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Network(_)), "{err}");
        assert!(err.to_string().contains("fat_tree_<k>"), "{err}");

        let mut bad = cfg.clone();
        bad.network.as_mut().unwrap().files[0].replicas = vec![7];
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::NetworkFile { index: 0, .. })
        ));

        let mut bad = cfg.clone();
        bad.network.as_mut().unwrap().files[0].replicas.clear();
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::NetworkFile { index: 0, .. })
        ));

        let mut bad = cfg.clone();
        bad.network.as_mut().unwrap().reconfig_gb_per_proc = -1.0;
        assert_eq!(
            bad.validate(),
            Err(ConfigError::NegativeReconfigTraffic(-1.0))
        );

        // A trace job referencing an unregistered file is caught.
        let mut bad = cfg.clone();
        let mut spec = appsim::JobSpec::rigid(appsim::AppKind::Gadget2, 4);
        spec.input_files = vec![3];
        bad.trace = Some(vec![appsim::workload::SubmittedJob {
            at: simcore::SimTime::ZERO,
            spec,
        }]);
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::TraceJob { index: 0, .. })
        ));

        // The parametric fat-tree name resolves.
        let mut ok = cfg.clone();
        ok.network.as_mut().unwrap().topology = "fat_tree_16".to_string();
        ok.validate().unwrap();
    }

    #[test]
    fn approach_labels() {
        assert_eq!(Approach::Pra.label(), "PRA");
        assert_eq!(Approach::Pwa.label(), "PWA");
    }
}
