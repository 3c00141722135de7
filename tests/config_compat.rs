//! Stored-configuration compatibility across the removal of the calendar
//! event queue and timer coalescing.
//!
//! * A JSON `ExperimentConfig` that still carries the retired
//!   `"coalesce_timers": true` parses (unknown fields are ignored) and
//!   runs exactly like the same file without it.
//! * One that names the retired `"event_queue": "Calendar"` is refused
//!   by `serde_json::from_str` with an error, and `koala-sim run` turns
//!   that into exit status 1 with a message — not a panic.

use std::path::PathBuf;
use std::process::Command;

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::run_experiment_summary;

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
        format!("{:?}", run_experiment_summary(&old)),
        format!("{:?}", run_experiment_summary(&current))
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
