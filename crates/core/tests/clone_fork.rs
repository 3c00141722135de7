//! The clone-fork contract of the warm-forked sweep runner
//! ([`run_cells_summary_warm`]): a policy cell forked from an in-memory
//! copy of the warmed world reports exactly what the byte path
//! ([`warm_snapshot_seeded`] → [`fork_summary`]) and the switched-cold
//! run (the base policies until the fork instant, then the cell's own,
//! in one world) report — compared by debug rendering, the strictest
//! observable the crate has — for every registered placement ×
//! malleability pair, with each subsystem toggled.
//!
//! The runner continues the warmed world itself as a group's last cell,
//! after every other cell has forked from a copy of it, so the same
//! batch also shows that forks are independent of each other and of
//! the world they were copied from. The grouping cases at the end check
//! which cells may share a prefix.

use appsim::workload::{SubmittedJob, WorkloadSpec};
use koala::config::{ExperimentConfig, RetryConfig};
use koala::parallel::{run_cells_summary, run_cells_summary_warm, Cell};
use koala::policy::PolicyRegistry;
use koala::report::SummaryReport;
use koala::scenario::Scenario;
use koala::{fork_summary, warm_snapshot_seeded};
use multicluster::{ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec};
use simcore::{SimDuration, SimTime};

const SEED: u64 = 29;
const JOBS: usize = 24;
/// About a third of the way through the arrivals: every cell still has
/// most of its jobs to place, so the policy pairs diverge.
const FORK_AT: SimDuration = SimDuration::from_secs(300);

/// The subsystems a scenario switches on.
#[derive(Debug, Clone, Copy, Default)]
struct Toggles {
    network: bool,
    chaos: bool,
    crashes: bool,
    autoscaler: bool,
    monitor: bool,
}

impl Toggles {
    /// Everything off, each subsystem alone, and everything on.
    fn matrix() -> Vec<Toggles> {
        let off = Toggles::default();
        vec![
            off,
            Toggles {
                network: true,
                ..off
            },
            Toggles { chaos: true, ..off },
            Toggles {
                crashes: true,
                ..off
            },
            Toggles {
                autoscaler: true,
                ..off
            },
            Toggles {
                monitor: true,
                ..off
            },
            Toggles {
                network: true,
                chaos: true,
                crashes: true,
                autoscaler: true,
                monitor: true,
            },
        ]
    }
}

/// One warm-forked PWA W'm cell. With the network on, the jobs come
/// from an explicit trace whose jobs each stage one input file.
fn cell(placement: &str, malleability: &str, t: Toggles) -> ExperimentConfig {
    let mut b = Scenario::builder()
        .name(format!("{placement}+{malleability}"))
        .placement(placement)
        .malleability(malleability)
        .pwa()
        .workload(WorkloadSpec::wm_prime())
        .jobs(JOBS)
        .warm_fork(FORK_AT)
        .summarized();
    if t.network {
        b = b
            .trace(staged_trace())
            .network("das3")
            .network_file(20.0, [0])
            .network_file(20.0, [3])
            .reconfig_traffic(0.25);
    }
    if t.chaos {
        b = b
            .ctrl_faults(ControlPlaneFaultSpec {
                loss: ClassLoss::uniform(0.15),
                duplicate: 0.05,
                max_jitter: SimDuration::from_millis(300),
                flaky: None,
            })
            .retry(RetryConfig {
                timeout: SimDuration::from_secs(10),
                max_timeout: SimDuration::from_secs(40),
                max_attempts: 3,
                orphan_sweep_period: SimDuration::from_secs(30),
                orphan_grace: SimDuration::from_secs(50),
            });
    }
    if t.crashes {
        b = b
            .failures(FailureSpec::new(
                SimDuration::from_secs(600),
                SimDuration::from_secs(300),
                8,
            ))
            .failure_policy(FailurePolicy::Requeue);
    }
    if t.autoscaler {
        b = b
            .autoscaler("threshold")
            .autoscale_timing(SimDuration::from_secs(300), SimDuration::from_secs(30));
    }
    if t.monitor {
        b = b.monitor(SimDuration::from_secs(120));
    }
    let mut cfg = b.build().expect("valid scenario").into_config();
    // A small KOALA share keeps jobs waiting in the placement queue at
    // the fork instant, so the fork has to carry the queue too.
    cfg.sched.koala_share = 0.06;
    cfg
}

/// The W'm workload of [`SEED`], each job reading one of two files.
fn staged_trace() -> Vec<SubmittedJob> {
    let base = Scenario::builder()
        .pwa()
        .workload(WorkloadSpec::wm_prime())
        .jobs(JOBS)
        .build()
        .expect("valid scenario")
        .into_config();
    let mut trace = base.generate_workload_for_seed(SEED);
    for (k, job) in trace.iter_mut().enumerate() {
        job.spec.input_files = vec![(k % 2) as u64];
    }
    trace
}

/// Every registered placement × malleability pair.
fn policy_pairs() -> Vec<(String, String)> {
    let registry = PolicyRegistry::global();
    let malleabilities = registry.malleability_names();
    registry
        .placement_names()
        .into_iter()
        .flat_map(|p| malleabilities.iter().map(move |m| (p.clone(), m.clone())))
        .collect()
}

fn render(reports: &[SummaryReport]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

fn cells_of(cfgs: &[ExperimentConfig], seed: u64) -> Vec<Cell<'_>> {
    cfgs.iter().map(|cfg| Cell { cfg, seed }).collect()
}

/// Every policy cell of one warm group, forked by clone, equals its
/// byte-path fork and its switched-cold run, for every toggle set.
#[test]
fn clone_fork_matches_byte_fork_and_switched_cold() {
    for t in Toggles::matrix() {
        let cfgs: Vec<ExperimentConfig> =
            policy_pairs().iter().map(|(p, m)| cell(p, m, t)).collect();
        let reports = run_cells_summary_warm(&cells_of(&cfgs, SEED), 1);
        let tails: std::collections::BTreeSet<_> = reports
            .iter()
            .map(|r| (r.events, r.grow_ops, r.shrink_ops, r.makespan))
            .collect();
        assert!(
            tails.len() > 1,
            "{t:?}: no policy pair diverged after the fork"
        );
        let by_clone = render(&reports);

        let wf = cfgs[0].warm_fork.clone().expect("warm-forked cells");
        let mut warm_cfg = cfgs[0].clone();
        warm_cfg.sched.placement = wf.base_placement;
        warm_cfg.sched.malleability = wf.base_malleability;
        let snap = warm_snapshot_seeded(&warm_cfg, SEED, SimTime::ZERO + wf.at)
            .unwrap_or_else(|e| panic!("{t:?}: capture failed: {e}"));
        for (cfg, clone) in cfgs.iter().zip(&by_clone) {
            let by_bytes = fork_summary(cfg, &snap)
                .unwrap_or_else(|e| panic!("{t:?} {}: byte fork failed: {e}", cfg.name));
            let switched_cold = run_cells_summary(&[Cell { cfg, seed: SEED }], 1);
            assert_eq!(
                clone,
                &format!("{by_bytes:?}"),
                "{t:?} {}: clone fork diverged from the byte fork",
                cfg.name
            );
            assert_eq!(
                clone,
                &format!("{:?}", switched_cold[0]),
                "{t:?} {}: clone fork diverged from the switched-cold run",
                cfg.name
            );
        }
    }
}

/// Forks do not leak into each other or into the warmed world: the same
/// group in reverse order reports the same per-cell summaries, and the
/// warmed world — continued as the last cell, after every other cell
/// forked from it — equals the uninterrupted base-policy run.
#[test]
fn forks_are_independent_of_each_other_and_of_the_warmed_world() {
    for t in Toggles::matrix() {
        let mut cfgs: Vec<ExperimentConfig> = [
            ("first_fit", "egs"),
            ("close_to_files", "equipartition"),
            ("worst_fit", "folding"),
        ]
        .iter()
        .map(|(p, m)| cell(p, m, t))
        .collect();
        // The base pair last: it is the warmed world itself.
        let wf = cfgs[0].warm_fork.clone().expect("warm-forked cells");
        cfgs.push(cell(&wf.base_placement, &wf.base_malleability, t));

        let forward = render(&run_cells_summary_warm(&cells_of(&cfgs, SEED), 1));
        let mut reversed_cfgs = cfgs.clone();
        reversed_cfgs.reverse();
        let mut reversed = render(&run_cells_summary_warm(&cells_of(&reversed_cfgs, SEED), 1));
        reversed.reverse();
        assert_eq!(forward, reversed, "{t:?}: cell order changed a fork");

        let mut uninterrupted = cfgs.last().expect("base cell").clone();
        uninterrupted.warm_fork = None;
        let base_run = run_cells_summary(
            &[Cell {
                cfg: &uninterrupted,
                seed: SEED,
            }],
            1,
        );
        assert_eq!(
            forward.last().expect("base cell"),
            &format!("{:?}", base_run[0]),
            "{t:?}: the warmed world, continued after forking, diverged from \
             the uninterrupted base run"
        );
    }
}

// ----------------------------------------------------------------------
// Grouping: which cells may share one warmed prefix.
// ----------------------------------------------------------------------

/// The warm runner equals the cold runner on `cells`, at 1 and 3
/// threads.
fn assert_warm_matches_cold(tag: &str, cells: &[Cell<'_>]) {
    let cold = render(&run_cells_summary(cells, 1));
    for threads in [1, 3] {
        let warm = render(&run_cells_summary_warm(cells, threads));
        assert_eq!(warm.len(), cold.len(), "{tag}: one report per cell");
        for (i, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(
                w, c,
                "{tag}, threads={threads}: cell {i} diverged from its cold run"
            );
        }
    }
}

fn traced(placement: &str, malleability: &str) -> ExperimentConfig {
    let t = Toggles {
        network: true,
        ..Toggles::default()
    };
    cell(placement, malleability, t)
}

/// Two seeds, a cold cell in the middle of a batch, and a cell listed
/// twice (its copy joins the same group): each seed warms its own
/// prefix, the cold cell runs cold, and every cell matches its cold run.
#[test]
fn grouping_separates_seeds_and_handles_cold_and_duplicate_cells() {
    let mut cold_cell = cell("first_fit", "egs", Toggles::default());
    cold_cell.warm_fork = None;
    let cfgs = [
        cell("worst_fit", "egs", Toggles::default()),
        cell("first_fit", "fpsma", Toggles::default()),
        cold_cell,
        traced("worst_fit", "egs"),
        traced("close_to_files", "folding"),
    ];
    let mut cells = Vec::new();
    for seed in [SEED, SEED + 1] {
        cells.extend(cfgs.iter().map(|cfg| Cell { cfg, seed }));
    }
    cells.push(cells[1]);
    assert_warm_matches_cold("two seeds, cold cell, duplicate", &cells);
}

/// Cells that differ from their group in one fork-relevant field only —
/// the KOALA share, or one trace job's work scale — must not share its
/// prefix, in either position.
#[test]
fn grouping_keeps_apart_cells_that_differ_in_one_fork_relevant_field() {
    let mut other_share = cell("first_fit", "egs", Toggles::default());
    other_share.sched.koala_share = 0.5;
    let mut other_scale = traced("first_fit", "egs");
    other_scale.trace.as_mut().expect("traced cell")[0]
        .spec
        .work_scale = 3.0;
    let cases = [
        (
            "koala_share",
            cell("worst_fit", "fpsma", Toggles::default()),
            other_share,
        ),
        ("work_scale", traced("worst_fit", "fpsma"), other_scale),
    ];
    for (field, member, odd) in cases {
        let last = [member.clone(), odd.clone()];
        assert_warm_matches_cold(&format!("{field}, odd cell last"), &cells_of(&last, SEED));
        let first = [odd, member];
        assert_warm_matches_cold(&format!("{field}, odd cell first"), &cells_of(&first, SEED));
    }
}
