//! Composable experiment scenarios: a fluent builder over
//! [`ExperimentConfig`] plus the single place experiment cell labels are
//! derived.
//!
//! The paper's experiments are points in a small space (approach ×
//! malleability policy × workload); the ROADMAP wants that space open —
//! "as many scenarios as you can imagine". [`ScenarioBuilder`] assembles
//! any point declaratively, selecting policies **by registry name** (see
//! [`crate::policy::PolicyRegistry`]), and the legacy
//! [`ExperimentConfig::paper_pra`] / [`ExperimentConfig::paper_pwa`]
//! presets are thin wrappers over it (bit-identical results, asserted by
//! test).
//!
//! ```
//! use koala::scenario::{Scenario, Topology};
//! use appsim::workload::WorkloadSpec;
//!
//! let scenario = Scenario::builder()
//!     .topology(Topology::Das3)
//!     .workload(WorkloadSpec::wm())
//!     .jobs(10)
//!     .placement("worst_fit")
//!     .malleability("egs")
//!     .pra()
//!     .seeds(0..2)
//!     .build()
//!     .unwrap();
//! assert_eq!(scenario.config().name, "EGS/Wm");
//! let report = scenario.run::<koala::RunReport>();
//! assert_eq!(report.runs.len(), 2);
//! assert!(report.completion_ratio() > 0.99);
//! ```

use appsim::workload::{SubmittedJob, WorkloadSpec};
use multicluster::{BackgroundLoad, ControlPlaneFaultSpec, FailurePolicy, FailureSpec};
use simcore::SimDuration;

use crate::config::{
    workload_label, Approach, ConfigError, ElasticityConfig, ExperimentConfig, FileSpec,
    NetworkConfig, ReportConfig, RetryConfig, SchedulerConfig, WarmFork,
};
use crate::policy::PolicyRegistry;
use crate::report::ReportMode;
use crate::run::{Report, Run};

/// The multicluster substrate a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// The homogeneous Table I DAS-3 preset (272 nodes, 5 clusters).
    #[default]
    Das3,
    /// The heterogeneous DAS-3 variant (per-site compute speeds).
    Das3Heterogeneous,
    /// A uniform synthetic multicluster: `clusters` identical sites of
    /// `nodes_per_cluster` nodes (the cluster-count sweep axis).
    Uniform {
        /// Number of identical clusters.
        clusters: u32,
        /// Nodes per cluster.
        nodes_per_cluster: u32,
    },
}

/// What a scenario's jobs come from: an explicit [`WorkloadSpec`], or a
/// model-driven source selected **by registry name** (see
/// [`appsim::generate::WorkloadRegistry`]) — both flow through
/// [`ScenarioBuilder::workload`], so
/// `Scenario::builder().workload("poisson_lublin")` works exactly like
/// `.workload(WorkloadSpec::wm())`.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadChoice {
    /// The paper-style declarative workload description.
    Spec(WorkloadSpec),
    /// A named source from the workload registry.
    Source(String),
}

impl From<WorkloadSpec> for WorkloadChoice {
    fn from(spec: WorkloadSpec) -> Self {
        WorkloadChoice::Spec(spec)
    }
}

impl From<&str> for WorkloadChoice {
    fn from(name: &str) -> Self {
        WorkloadChoice::Source(name.to_string())
    }
}

impl From<String> for WorkloadChoice {
    fn from(name: String) -> Self {
        WorkloadChoice::Source(name)
    }
}

/// Derives the report label of one experiment cell from its policy
/// labels and workload — the **single** place cell names are composed,
/// so perf JSON, CSV panels and the figure binaries cannot drift from
/// each other. The paper's form is `"EGS/Wm"`; pass an [`Approach`] to
/// prefix it for cross-approach sweeps (`"PWA/EGS/Wm'"`), and a
/// placement label for cross-placement matrices (`"FF+EGS/Wm"`).
pub fn cell_label(
    approach: Option<Approach>,
    placement_label: Option<&str>,
    policy_label: &str,
    workload: &WorkloadSpec,
) -> String {
    let policies = match placement_label {
        Some(p) => format!("{p}+{policy_label}"),
        None => policy_label.to_string(),
    };
    let base = format!("{}/{}", policies, workload_label(workload));
    match approach {
        Some(a) => format!("{}/{}", a.label(), base),
        None => base,
    }
}

/// A validated, runnable experiment scenario: an [`ExperimentConfig`]
/// plus the seed list it runs across. Build one with
/// [`Scenario::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    cfg: ExperimentConfig,
    seeds: Vec<u64>,
    mode: ReportMode,
}

impl Scenario {
    /// Starts a builder with the paper's defaults: Worst-Fit placement,
    /// FPSMA under PRA, the testbed's concurrent-user background load,
    /// a 200 000 s horizon backstop, and seed 0.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The assembled configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Unwraps into the configuration (for call sites that manage seeds
    /// themselves, e.g. the pooled cell runner).
    pub fn into_config(self) -> ExperimentConfig {
        self.cfg
    }

    /// The seeds the scenario runs across.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// How the scenario reports ([`ScenarioBuilder::summarized`] flips
    /// it to the memory-bounded path).
    pub fn mode(&self) -> ReportMode {
        self.mode
    }

    /// Runs the scenario once per seed through [`crate::run()`] on
    /// [`crate::parallel::default_threads`] workers and aggregates the
    /// reports in seed order: a [`crate::MultiReport`] for
    /// `R = RunReport`, a [`crate::MultiSummary`] for
    /// `R = SummaryReport`. For another thread count or a streamed
    /// intake, run `Run::seeds(scenario.config(), scenario.seeds())`.
    ///
    /// # Panics
    /// Panics when a scenario built with [`ScenarioBuilder::summarized`]
    /// asks for full reports — they would defeat the memory bound.
    pub fn run<R: Report>(&self) -> R::Multi {
        assert!(
            self.mode == ReportMode::Full || R::MODE == ReportMode::Summarized,
            "scenario built with .summarized(): run it for SummaryReports"
        );
        let runs =
            crate::run(&Run::seeds(&self.cfg, &self.seeds)).expect("built scenarios are valid");
        R::aggregate(self.cfg.name.clone(), runs)
    }
}

/// Fluent assembly of a [`Scenario`]. See the module docs for a full
/// example; every setter has the paper's value as its default, so a
/// builder only states what its scenario *changes*.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: Option<String>,
    topology: Topology,
    workload: Option<WorkloadChoice>,
    jobs: Option<usize>,
    sched: SchedulerConfig,
    background: BackgroundLoad,
    seed: u64,
    seeds: Option<Vec<u64>>,
    replications: Option<usize>,
    horizon: Option<SimDuration>,
    trace: Option<Vec<SubmittedJob>>,
    mode: ReportMode,
    report: ReportConfig,
    elasticity: ElasticityConfig,
    network: Option<NetworkConfig>,
    warm_fork: Option<WarmFork>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            name: None,
            topology: Topology::Das3,
            workload: None,
            jobs: None,
            sched: SchedulerConfig::default(),
            background: BackgroundLoad::concurrent_users(0.30),
            seed: 0,
            seeds: None,
            replications: None,
            horizon: Some(SimDuration::from_secs(200_000)),
            trace: None,
            mode: ReportMode::Full,
            report: ReportConfig::default(),
            elasticity: ElasticityConfig::default(),
            network: None,
            warm_fork: None,
        }
    }
}

impl ScenarioBuilder {
    /// Overrides the derived report label (default:
    /// [`cell_label`]`(None, None, policy_label, workload)`, e.g.
    /// `"EGS/Wm"`).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Selects the multicluster substrate.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// The KOALA workload (required unless a [`ScenarioBuilder::trace`]
    /// is given): either an explicit [`WorkloadSpec`], or the registry
    /// name of a model-driven source (`.workload("poisson_lublin")`) —
    /// see [`WorkloadChoice`].
    pub fn workload(mut self, workload: impl Into<WorkloadChoice>) -> Self {
        self.workload = Some(workload.into());
        self
    }

    /// Overrides the workload's job count (convenience for scaled-down
    /// smoke runs of a standard workload).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Selects the placement policy by registry name (default
    /// `"worst_fit"`).
    pub fn placement(mut self, name: impl Into<String>) -> Self {
        self.sched.placement = name.into();
        self
    }

    /// Selects the malleability-management policy by registry name
    /// (default `"fpsma"`).
    pub fn malleability(mut self, name: impl Into<String>) -> Self {
        self.sched.malleability = name.into();
        self
    }

    /// Sets the job-management approach.
    pub fn approach(mut self, approach: Approach) -> Self {
        self.sched.approach = approach;
        self
    }

    /// Shorthand for `.approach(Approach::Pra)`.
    pub fn pra(self) -> Self {
        self.approach(Approach::Pra)
    }

    /// Shorthand for `.approach(Approach::Pwa)`.
    pub fn pwa(self) -> Self {
        self.approach(Approach::Pwa)
    }

    /// Sets the background (local-user) load (default: the testbed's
    /// concurrent users at 30%).
    pub fn background(mut self, background: BackgroundLoad) -> Self {
        self.background = background;
        self
    }

    /// Arbitrary scheduler tweaks (thresholds, periods, claiming, …) on
    /// top of the named selections — the escape hatch that keeps the
    /// builder small while every ablation stays expressible.
    pub fn scheduler(mut self, f: impl FnOnce(&mut SchedulerConfig)) -> Self {
        f(&mut self.sched);
        self
    }

    /// Master seed for single-seed runs (default 0). Ignored when
    /// [`ScenarioBuilder::seeds`] is set.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The seeds a [`Scenario::run`] sweeps across (default: just the
    /// master seed). Takes precedence over
    /// [`ScenarioBuilder::replications`].
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = Some(seeds.into_iter().collect());
        self
    }

    /// Runs `n` replications: seeds `seed, seed+1, …, seed+n−1` derived
    /// from the master seed (the paper repeats every combination 4
    /// times). An explicit [`ScenarioBuilder::seeds`] list wins over
    /// this; `n = 0` fails the build with [`ConfigError::NoSeeds`].
    pub fn replications(mut self, n: usize) -> Self {
        self.replications = Some(n);
        self
    }

    /// Marks the scenario for the **memory-bounded summary path**:
    /// [`Scenario::run`] then panics when asked for full
    /// [`crate::RunReport`]s, so a summarized scenario cannot silently
    /// fall back to materializing job tables, utilization series or
    /// traces.
    pub fn summarized(mut self) -> Self {
        self.mode = ReportMode::Summarized;
        self
    }

    /// Warmup window for summarized runs: jobs submitted before
    /// `warmup`, and utilization/operation activity inside it, are
    /// trimmed from the metrics (default: zero).
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.report.warmup = warmup;
        self
    }

    /// Capacity of each metric's bounded-memory quantile reservoir in
    /// summarized runs (default 512; see
    /// [`ReportConfig::quantile_capacity`]).
    pub fn quantile_capacity(mut self, capacity: usize) -> Self {
        self.report.quantile_capacity = capacity;
        self
    }

    /// Sets the hard-stop horizon (default 200 000 s).
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Removes the horizon backstop (runs finish naturally).
    pub fn no_horizon(mut self) -> Self {
        self.horizon = None;
        self
    }

    /// Replaces the generated workload with an explicit job stream (SWF
    /// replay, injected co-allocated jobs, …).
    pub fn trace(mut self, trace: Vec<SubmittedJob>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Sets the KIS propagation lag — the first-class staleness axis:
    /// the scheduler places against snapshots at least this old
    /// (quantized up to the poll period; see
    /// [`multicluster::InfoService::with_lag`]).
    pub fn staleness(mut self, lag: SimDuration) -> Self {
        self.elasticity.kis_lag = lag;
        self
    }

    /// Selects the autoscaling policy by name (default `"none"`; see
    /// [`crate::autoscaler::by_name`]).
    pub fn autoscaler(mut self, name: impl Into<String>) -> Self {
        self.elasticity.autoscaler = name.into();
        self
    }

    /// Sets the autoscale cycle period and the propagation delay between
    /// a scale decision and the capacity actually moving.
    pub fn autoscale_timing(mut self, period: SimDuration, delay: SimDuration) -> Self {
        self.elasticity.autoscale_period = period;
        self.elasticity.autoscale_delay = delay;
        self
    }

    /// Enables the seeded node crash/recover stream.
    pub fn failures(mut self, spec: FailureSpec) -> Self {
        self.elasticity.failures = Some(spec);
        self
    }

    /// Chooses what happens to KOALA jobs caught on crashed nodes
    /// (default: re-queue).
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.elasticity.failure_policy = policy;
        self
    }

    /// Sets the monitoring sample period (zero disables monitoring,
    /// the default).
    pub fn monitor(mut self, period: SimDuration) -> Self {
        self.elasticity.monitor_period = period;
        self
    }

    /// Enables the seeded control-plane fault model: lossy, jittery,
    /// duplicating KOALA↔GRAM messaging (and, through the spec's
    /// `flaky` field, per-cluster flaky channel episodes). Timeout and
    /// retry behaviour comes from [`ScenarioBuilder::retry`].
    pub fn ctrl_faults(mut self, spec: ControlPlaneFaultSpec) -> Self {
        self.elasticity.ctrl_faults = Some(spec);
        self
    }

    /// Overrides the control-plane timeout/retry configuration (inert
    /// without [`ScenarioBuilder::ctrl_faults`]: reliable messaging
    /// never trips a deadline).
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.sched.retry = retry;
        self
    }

    /// Enables the contended-network layer with the named topology
    /// (see [`multicluster::NetworkTopology::by_name`]: `"das3"`,
    /// `"flat_wan"`, `"star"`, `"hierarchical"`, or parametric
    /// `"fat_tree_<k>"`, e.g. `.network("fat_tree_16")`). Without this
    /// call the layer is off and transfers cost nothing — the strict
    /// passivity default.
    pub fn network(mut self, topology: impl Into<String>) -> Self {
        self.network_mut().topology = topology.into();
        self
    }

    /// Registers a file in the network layer's replica catalog (index
    /// order defines the [`multicluster::FileId`]s that `trace` jobs
    /// reference through [`appsim::JobSpec::input_files`]). Implies
    /// `.network("das3")` unless a topology was already chosen.
    pub fn network_file(mut self, size_gb: f64, replicas: impl IntoIterator<Item = u16>) -> Self {
        self.network_mut().files.push(FileSpec {
            size_gb,
            replicas: replicas.into_iter().collect(),
        });
        self
    }

    /// Sets the redistribution traffic a reconfiguration pushes over
    /// the job's site access link, in GB per processor moved (default
    /// zero — no reconfig traffic). Implies `.network("das3")` unless
    /// a topology was already chosen.
    pub fn reconfig_traffic(mut self, gb_per_proc: f64) -> Self {
        self.network_mut().reconfig_gb_per_proc = gb_per_proc;
        self
    }

    /// Marks this scenario for warm-forked sweeps: the warmup prefix up
    /// to `at` runs once per `(workload, seed)` under the default base
    /// policies (Worst Fit + FPSMA) and every policy cell forks from the
    /// warmed world (see [`WarmFork`] and
    /// [`crate::parallel::run_cells_summary_warm`]). Use
    /// [`ScenarioBuilder::warm_fork_with`] to choose the base policies.
    pub fn warm_fork(mut self, at: SimDuration) -> Self {
        self.warm_fork = Some(WarmFork::at(at));
        self
    }

    /// Like [`ScenarioBuilder::warm_fork`], with explicit base policies
    /// for the shared warmup prefix.
    pub fn warm_fork_with(mut self, warm_fork: WarmFork) -> Self {
        self.warm_fork = Some(warm_fork);
        self
    }

    fn network_mut(&mut self) -> &mut NetworkConfig {
        self.network.get_or_insert_with(|| NetworkConfig {
            topology: "das3".to_string(),
            files: Vec::new(),
            reconfig_gb_per_proc: 0.0,
        })
    }

    /// Validates and assembles the scenario. The derived name comes from
    /// the malleability policy's label and the workload ([`cell_label`]),
    /// exactly like the legacy paper presets.
    pub fn build(self) -> Result<Scenario, ConfigError> {
        // Resolved for the label; cfg.validate() below re-checks both
        // policy names (and reports the same ConfigError::Policy for an
        // unknown placement).
        let malleability = PolicyRegistry::global().malleability(&self.sched.malleability)?;
        // Even trace replays need a WorkloadSpec (engine sizing reads
        // its job count); an empty-app spec is fine alongside a trace.
        let Some(choice) = self.workload else {
            return Err(ConfigError::MissingWorkload);
        };
        let (mut workload, generator, source_label) = match choice {
            WorkloadChoice::Spec(spec) => (spec, None, None),
            WorkloadChoice::Source(name) => {
                let src = appsim::generate::WorkloadRegistry::global().source(&name)?;
                // The spec is only a carrier for the job count here; the
                // jobs come from the named source.
                let carrier = WorkloadSpec {
                    apps: Vec::new(),
                    ..WorkloadSpec::wm()
                };
                (carrier, Some(name), Some(src.label().to_string()))
            }
        };
        // Derive the label before any jobs() scale-down: the name
        // describes the workload family (Wm vs Wm'), which is judged by
        // the nominal span of the *full* spec.
        let name = self.name.unwrap_or_else(|| match &source_label {
            Some(source) => format!("{}/{}", malleability.label(), source),
            None => cell_label(None, None, malleability.label(), &workload),
        });
        if let Some(jobs) = self.jobs {
            workload.jobs = jobs;
        }
        let uniform_topology = match self.topology {
            Topology::Uniform {
                clusters,
                nodes_per_cluster,
            } => Some(crate::config::UniformTopology {
                clusters,
                nodes_per_cluster,
            }),
            _ => None,
        };
        let cfg = ExperimentConfig {
            name,
            sched: self.sched,
            workload,
            generator,
            background: self.background,
            seed: self.seed,
            horizon: self.horizon,
            trace: self.trace,
            heterogeneous: self.topology == Topology::Das3Heterogeneous,
            uniform_topology,
            report: self.report,
            elasticity: self.elasticity,
            network: self.network,
            warm_fork: self.warm_fork,
        };
        cfg.validate()?;
        let seeds = match (self.seeds, self.replications) {
            (Some(seeds), _) if seeds.is_empty() => return Err(ConfigError::NoSeeds),
            (Some(seeds), _) => seeds,
            (None, Some(0)) => return Err(ConfigError::NoSeeds),
            (None, Some(n)) => (0..n as u64).map(|i| cfg.seed.wrapping_add(i)).collect(),
            (None, None) => vec![cfg.seed],
        };
        Ok(Scenario {
            cfg,
            seeds,
            mode: self.mode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_reproduce_the_paper_pra_preset() {
        let via_builder = Scenario::builder()
            .malleability("egs")
            .workload(WorkloadSpec::wm())
            .build()
            .unwrap();
        let preset = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
        assert_eq!(via_builder.config(), &preset);
        assert_eq!(via_builder.seeds(), &[0]);
    }

    #[test]
    fn builder_covers_the_pwa_preset_too() {
        let via_builder = Scenario::builder()
            .malleability("fpsma")
            .workload(WorkloadSpec::wmr_prime())
            .pwa()
            .build()
            .unwrap();
        let preset = ExperimentConfig::paper_pwa("fpsma", WorkloadSpec::wmr_prime());
        assert_eq!(via_builder.config(), &preset);
    }

    #[test]
    fn warm_fork_setters_stamp_the_config() {
        let at = SimDuration::from_secs(900);
        let s = Scenario::builder()
            .malleability("egs")
            .workload(WorkloadSpec::wm())
            .warm_fork(at)
            .build()
            .unwrap();
        assert_eq!(s.config().warm_fork, Some(WarmFork::at(at)));
        let explicit = WarmFork {
            at,
            base_placement: "first_fit".into(),
            base_malleability: "equipartition".into(),
        };
        let s = Scenario::builder()
            .malleability("egs")
            .workload(WorkloadSpec::wm())
            .warm_fork_with(explicit.clone())
            .build()
            .unwrap();
        assert_eq!(s.config().warm_fork, Some(explicit));
    }

    #[test]
    fn derived_names_come_from_cell_label() {
        let s = Scenario::builder()
            .malleability("greedy_grow_lazy_shrink")
            .workload(WorkloadSpec::wm_prime())
            .build()
            .unwrap();
        assert_eq!(s.config().name, "GGLS/Wm'");
        assert_eq!(
            cell_label(Some(Approach::Pwa), None, "GGLS", &WorkloadSpec::wm_prime()),
            "PWA/GGLS/Wm'"
        );
        assert_eq!(
            cell_label(None, Some("FF"), "EGS", &WorkloadSpec::wm()),
            "FF+EGS/Wm"
        );
    }

    #[test]
    fn unknown_policy_names_fail_the_build() {
        let err = Scenario::builder()
            .malleability("beyond_the_paper")
            .workload(WorkloadSpec::wm())
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Policy(_)), "{err}");
        let err = Scenario::builder()
            .placement("nowhere_fit")
            .workload(WorkloadSpec::wm())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("nowhere_fit"));
    }

    #[test]
    fn missing_workload_and_empty_seeds_fail_the_build() {
        assert_eq!(
            Scenario::builder().build().unwrap_err(),
            ConfigError::MissingWorkload
        );
        assert_eq!(
            Scenario::builder()
                .workload(WorkloadSpec::wm())
                .seeds(std::iter::empty())
                .build()
                .unwrap_err(),
            ConfigError::NoSeeds
        );
    }

    #[test]
    fn invalid_scheduler_tweaks_are_caught_at_build_time() {
        let err = Scenario::builder()
            .workload(WorkloadSpec::wm())
            .scheduler(|s| s.koala_share = 0.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::KoalaShareZero);
    }

    #[test]
    fn jobs_and_seed_overrides_apply() {
        let s = Scenario::builder()
            .workload(WorkloadSpec::wm())
            .jobs(7)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(s.config().workload.jobs, 7);
        assert_eq!(s.config().seed, 42);
        assert_eq!(s.seeds(), &[42]);
    }

    #[test]
    fn report_tunables_land_in_the_config() {
        let s = Scenario::builder()
            .workload(WorkloadSpec::wm())
            .summarized()
            .warmup(SimDuration::from_secs(300))
            .quantile_capacity(64)
            .build()
            .unwrap();
        assert_eq!(s.mode(), crate::report::ReportMode::Summarized);
        assert_eq!(s.config().report.warmup, SimDuration::from_secs(300));
        assert_eq!(s.config().report.quantile_capacity, 64);
        // Default scenarios stay on the full path with default report
        // settings (so the paper presets are untouched).
        let s = Scenario::builder()
            .workload(WorkloadSpec::wm())
            .build()
            .unwrap();
        assert_eq!(s.mode(), crate::report::ReportMode::Full);
        assert_eq!(s.config().report, crate::config::ReportConfig::default());
        // A zero reservoir capacity is a typed build error.
        let err = Scenario::builder()
            .workload(WorkloadSpec::wm())
            .quantile_capacity(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroQuantileCapacity);
    }

    #[test]
    fn heterogeneous_topology_maps_to_the_flag() {
        let s = Scenario::builder()
            .workload(WorkloadSpec::wm())
            .topology(Topology::Das3Heterogeneous)
            .build()
            .unwrap();
        assert!(s.config().heterogeneous);
    }

    #[test]
    fn uniform_topology_lands_in_the_config() {
        let s = Scenario::builder()
            .workload(WorkloadSpec::wm())
            .topology(Topology::Uniform {
                clusters: 8,
                nodes_per_cluster: 34,
            })
            .build()
            .unwrap();
        assert_eq!(
            s.config().uniform_topology,
            Some(crate::config::UniformTopology {
                clusters: 8,
                nodes_per_cluster: 34
            })
        );
        assert!(!s.config().heterogeneous);
    }

    #[test]
    fn workload_by_name_selects_a_generator_and_labels_the_cell() {
        let s = Scenario::builder()
            .workload("bursty_lublin")
            .malleability("egs")
            .jobs(12)
            .build()
            .unwrap();
        assert_eq!(s.config().generator.as_deref(), Some("bursty_lublin"));
        assert_eq!(s.config().name, "EGS/BurstLF");
        assert_eq!(s.config().workload.jobs, 12);
        // Explicit specs still work through the same setter.
        let s = Scenario::builder()
            .workload(WorkloadSpec::wm())
            .build()
            .unwrap();
        assert_eq!(s.config().generator, None);
        assert_eq!(s.config().name, "FPSMA/Wm");
    }
}
