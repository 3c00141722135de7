//! Stored-configuration compatibility across the removal of the calendar
//! event queue and timer coalescing.
//!
//! * A JSON `ExperimentConfig` that still carries the retired
//!   `"coalesce_timers": true` parses (unknown fields are ignored) and
//!   runs exactly like the same file without it.
//! * One that names the retired `"event_queue": "Calendar"` is refused
//!   by `serde_json::from_str` with an error, and `koala-sim run` turns
//!   that into exit status 1 with a message — not a panic.
//! * One stored before `sched.avail_index` existed loads with the index
//!   on, like `SchedulerConfig::default()`, and runs identically.
//! * One that still carries the retired co-allocation penalty key of
//!   `sched` (now a constant) loads and runs exactly like one without it.
//! * A trace stored when synthetic jobs still carried a `"label"` loads
//!   (the key is ignored: the label is always `"SYN"`), and its grow
//!   initiative and co-allocation components keep their JSON form now
//!   that the job record boxes them.
//! * `koala-sim run` refuses a `--seeds` list with an unparsable entry
//!   (usage, exit status 2), and a `--csv` write that fails names the
//!   file and exits 1 instead of reporting success.
//! * `koala-sim run` names the platform that runs (DAS-3, heterogeneous
//!   DAS-3 or a uniform topology) and refuses a configuration that asks
//!   for a heterogeneous uniform topology.

use std::path::PathBuf;
use std::process::Command;

use malleable_koala::appsim::speedup::AmdahlOverhead;
use malleable_koala::appsim::workload::{SubmittedJob, WorkloadSpec};
use malleable_koala::appsim::{AppKind, GrowInitiative, JobSpec, SizeConstraint};
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::{self, Report, Run, SummaryReport};
use malleable_koala::simcore::SimTime;

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

/// A small template rendered as the JSON `koala-sim init` would write.
fn template_json() -> String {
    let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    cfg.workload.jobs = 6;
    serde_json::to_string_pretty(&cfg).expect("config serializes")
}

/// `template_json()` with the `event_queue` entry rewritten to `entry`.
fn with_queue_entry(entry: &str) -> String {
    let json = template_json();
    let field = r#""event_queue": "Heap""#;
    assert_eq!(json.matches(field).count(), 1, "template renders {field}");
    json.replace(field, entry)
}

fn temp_file(tag: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "koala-config-compat-{}-{tag}.json",
        std::process::id()
    ));
    std::fs::write(&path, text).expect("write temp config");
    path
}

#[test]
fn retired_coalesce_timers_field_is_ignored() {
    let json = with_queue_entry(r#""event_queue": "Heap", "coalesce_timers": true"#);
    let old: ExperimentConfig = serde_json::from_str(&json).expect("old config still parses");
    let current: ExperimentConfig =
        serde_json::from_str(&template_json()).expect("template parses");
    assert_eq!(format!("{old:?}"), format!("{current:?}"));
    assert_eq!(
        format!("{:?}", one::<SummaryReport>(&old)),
        format!("{:?}", one::<SummaryReport>(&current))
    );
}

#[test]
fn a_config_without_avail_index_loads_with_the_index_on() {
    let json = template_json();
    let field = ",\n    \"avail_index\": true";
    assert_eq!(json.matches(field).count(), 1, "template renders {field}");
    let old = json.replace(field, "");
    assert!(!old.contains("avail_index"));
    let old: ExperimentConfig = serde_json::from_str(&old).expect("old config parses");
    let current: ExperimentConfig =
        serde_json::from_str(&template_json()).expect("template parses");
    assert!(
        old.sched.avail_index,
        "a missing field means the default: on"
    );
    assert_eq!(format!("{old:?}"), format!("{current:?}"));
    assert_eq!(
        format!("{:?}", one::<SummaryReport>(&old)),
        format!("{:?}", one::<SummaryReport>(&current))
    );
}

#[test]
fn a_stored_co_allocation_penalty_is_ignored() {
    // The co-allocation penalty is a constant now; a config stored while
    // it was a field still loads and runs exactly like the template.
    let json = template_json();
    let field = r#""avail_index": true"#;
    assert_eq!(json.matches(field).count(), 1, "template renders {field}");
    let retired = concat!("\"coalloc", "_penalty\": 0.25, ");
    let old = json.replace(field, &format!("{retired}{field}"));
    let old: ExperimentConfig = serde_json::from_str(&old).expect("old config parses");
    let current: ExperimentConfig =
        serde_json::from_str(&template_json()).expect("template parses");
    assert_eq!(format!("{old:?}"), format!("{current:?}"));
    assert_eq!(
        format!("{:?}", one::<SummaryReport>(&old)),
        format!("{:?}", one::<SummaryReport>(&current))
    );
}

/// A template whose explicit trace holds a synthetic malleable job with
/// a grow initiative and a co-allocated rigid job.
fn trace_json() -> String {
    let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    let mut synthetic = JobSpec::paper_malleable(AppKind::Synthetic {
        model: AmdahlOverhead::fit(1, 1000.0, 8, 200.0),
        constraint: SizeConstraint::Any,
    });
    synthetic.initiative = Some(Box::new(GrowInitiative {
        at_progress: 0.5,
        extra: 4,
    }));
    cfg.trace = Some(vec![
        SubmittedJob {
            at: SimTime::ZERO,
            spec: synthetic,
        },
        SubmittedJob {
            at: SimTime::from_secs(60),
            spec: JobSpec::coallocated(AppKind::Gadget2, vec![4, 4]),
        },
    ]);
    serde_json::to_string_pretty(&cfg).expect("config serializes")
}

#[test]
fn a_trace_with_synthetic_labels_initiatives_and_coallocation_round_trips() {
    let current = trace_json();
    // The boxed fields render as the plain struct and array they hold.
    let compact: String = current.split_whitespace().collect();
    assert!(
        compact.contains(r#""initiative":{"at_progress":0.5,"extra":4},"coalloc":null"#),
        "{current}"
    );
    assert!(
        compact.contains(r#""initiative":null,"coalloc":[4,4]"#),
        "{current}"
    );
    assert!(!current.contains("label"));

    let field = r#""Synthetic": {"#;
    assert_eq!(
        current.matches(field).count(),
        1,
        "template renders {field}"
    );
    let old = current.replace(field, &format!(r#"{field} "label": "SYN","#));
    let old: ExperimentConfig = serde_json::from_str(&old).expect("old trace parses");
    let parsed: ExperimentConfig = serde_json::from_str(&current).expect("trace parses");
    assert_eq!(format!("{old:?}"), format!("{parsed:?}"));
    assert_eq!(serde_json::to_string_pretty(&old).unwrap(), current);
    let trace = old.trace.as_ref().expect("the trace survives");
    assert_eq!(trace[0].spec.kind.label(), "SYN");
    assert_eq!(
        trace[0].spec.initiative.as_deref(),
        Some(&GrowInitiative {
            at_progress: 0.5,
            extra: 4
        })
    );
    assert_eq!(trace[1].spec.coalloc.as_deref(), Some(&[4, 4][..]));
    assert_eq!(
        format!("{:?}", one::<SummaryReport>(&old)),
        format!("{:?}", one::<SummaryReport>(&parsed))
    );
}

#[test]
fn retired_calendar_queue_is_a_parse_error() {
    let json = with_queue_entry(r#""event_queue": "Calendar""#);
    assert!(serde_json::from_str::<ExperimentConfig>(&json).is_err());
}

#[test]
fn cli_exits_1_on_calendar_and_runs_with_coalesce_timers() {
    let bin = env!("CARGO_BIN_EXE_koala-sim");

    let bad = temp_file(
        "calendar",
        &with_queue_entry(r#""event_queue": "Calendar""#),
    );
    let out = Command::new(bin)
        .arg("run")
        .arg(&bad)
        .output()
        .expect("run koala-sim");
    let _ = std::fs::remove_file(&bad);
    assert_eq!(out.status.code(), Some(1), "a bad config is exit status 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid configuration"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    let old = temp_file(
        "coalesce",
        &with_queue_entry(r#""event_queue": "Heap", "coalesce_timers": true"#),
    );
    let out = Command::new(bin)
        .arg("run")
        .arg(&old)
        .output()
        .expect("run koala-sim");
    let _ = std::fs::remove_file(&old);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_rejects_malformed_seed_lists() {
    let bin = env!("CARGO_BIN_EXE_koala-sim");
    let cfg = temp_file("seeds", &template_json());
    for list in ["1,x,3", "1,,3", "-1"] {
        let out = Command::new(bin)
            .arg("run")
            .arg(&cfg)
            .args(["--seeds", list])
            .output()
            .expect("run koala-sim");
        assert_eq!(out.status.code(), Some(2), "--seeds {list}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "--seeds {list}: {stderr}");
        assert!(out.stdout.is_empty(), "--seeds {list} must not run");
    }
    let out = Command::new(bin)
        .arg("run")
        .arg(&cfg)
        .args(["--seeds", "1, 2"])
        .output()
        .expect("run koala-sim");
    let _ = std::fs::remove_file(&cfg);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("6 jobs x 2 seeds"));
}

#[test]
fn cli_names_the_platform_that_runs() {
    let bin = env!("CARGO_BIN_EXE_koala-sim");
    let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    cfg.workload.jobs = 6;
    let uniform = koala::config::UniformTopology {
        clusters: 3,
        nodes_per_cluster: 40,
    };
    let cases = [
        (None, false, Some("6 jobs x 1 seeds on DAS-3 (")),
        (
            None,
            true,
            Some("6 jobs x 1 seeds on heterogeneous DAS-3 ("),
        ),
        (
            Some(uniform),
            false,
            Some("6 jobs x 1 seeds on 3 uniform clusters of 40 nodes ("),
        ),
        // Both at once is a configuration error, not a silent pick.
        (Some(uniform), true, None),
    ];
    for (i, (topology, heterogeneous, header)) in cases.into_iter().enumerate() {
        cfg.uniform_topology = topology;
        cfg.heterogeneous = heterogeneous;
        let path = temp_file(
            &format!("platform{i}"),
            &serde_json::to_string(&cfg).unwrap(),
        );
        let out = Command::new(bin)
            .arg("run")
            .arg(&path)
            .output()
            .expect("run koala-sim");
        let _ = std::fs::remove_file(&path);
        let stdout = String::from_utf8_lossy(&out.stdout);
        match header {
            Some(header) => {
                assert!(out.status.success(), "case {i}");
                assert!(stdout.contains(header), "case {i}: {stdout}");
            }
            None => {
                assert_eq!(out.status.code(), Some(1), "case {i}");
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(stderr.contains("heterogeneous"), "case {i}: {stderr}");
                assert!(stdout.is_empty(), "case {i} must not run");
            }
        }
    }
}

#[test]
fn cli_exits_1_when_a_csv_cannot_be_written() {
    let bin = env!("CARGO_BIN_EXE_koala-sim");
    let cfg = temp_file("csv", &template_json());
    let dir = std::env::temp_dir().join(format!("koala-config-compat-{}-csv", std::process::id()));
    // A directory squatting on the utilization CSV's path.
    let squatter = dir.join("utilization.csv");
    std::fs::create_dir_all(&squatter).expect("create the squatting directory");
    let out = Command::new(bin)
        .arg("run")
        .arg(&cfg)
        .arg("--csv")
        .arg(&dir)
        .output()
        .expect("run koala-sim");
    let _ = std::fs::remove_file(&cfg);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a failed CSV write is exit status 1"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&squatter.display().to_string()),
        "stderr: {stderr}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("CSVs written"));
}
