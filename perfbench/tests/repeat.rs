//! The benchmark's own checks, at tiny sizes:
//!
//! * each workload's traced run is trajectory-identical to the untraced
//!   public runner, and its deterministic counts repeat exactly;
//! * the metrics the benchmark prints are exactly the ones
//!   `BENCHMARK.json` registers.

use koala::report::SummaryReport;
use perfbench::host::Host;
use perfbench::spans::{Spans, UNDELIVERED, VARIANTS};
use perfbench::workloads::{setup, Plan, NAMES};
use perfbench::{
    counts, end_to_end_metrics, layer_metrics, traced_pass, TimedPass, TracedPass, TracedRun,
};

fn flat(traced: &TracedPass) -> Vec<SummaryReport> {
    traced.tasks.iter().flatten().flatten().cloned().collect()
}

#[test]
fn traced_runs_are_passive_and_their_counts_repeat() {
    for name in NAMES {
        let run = || {
            let w = setup(name, 11, Plan::tiny()).expect("tiny workload sets up");
            let untraced = w.run_round(1);
            let traced = traced_pass(w.as_ref());
            assert!(traced.problems.is_empty(), "{name}: {:?}", traced.problems);
            assert_eq!(
                format!("{:?}", flat(&traced)),
                format!("{untraced:?}"),
                "{name}: the traced run changed the trajectory"
            );
            traced
        };
        let first = run();
        let second = run();
        let (a, b) = (
            counts(&first.spans, &flat(&first)),
            counts(&second.spans, &flat(&second)),
        );
        assert_eq!(a, b, "{name}: deterministic counts differ between runs");
        assert!(first.spans.pops > 0, "{name}: no events delivered");
        for (v, n) in VARIANTS.iter().zip(first.spans.handle_n) {
            assert!(
                n == 0 || !UNDELIVERED.contains(v),
                "{name}: {v} is delivered but has no metric"
            );
        }
        assert_eq!(
            first.spans.handle_n.iter().sum::<u64>(),
            first.spans.pops,
            "{name}: every delivered event is handled once"
        );
    }
}

#[test]
fn setup_rejects_unknown_workloads() {
    assert!(setup("no_such_workload", 1, Plan::tiny()).is_err());
}

/// The metric names of one section of `BENCHMARK.json`, in file order.
fn registered(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let mut current = "";
    let mut names = Vec::new();
    for line in text.lines() {
        for key in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.contains(key) {
                current = key;
            }
        }
        if current.trim_matches('"') == section {
            if let Some(rest) = line.split("\"name\": \"").nth(1) {
                names.push(rest.split('"').next().unwrap_or_default().to_string());
            }
        }
    }
    names
}

#[test]
fn printed_metrics_match_the_registration() {
    let e2e: Vec<String> = end_to_end_metrics(1.0, &TimedPass::default(), 1.0)
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(e2e, registered("end_to_end"));

    let traced = TracedPass {
        spans: Spans::default(),
        wall_ns: 1,
        tasks: Vec::new(),
        failed: 0,
        problems: Vec::new(),
    };
    let host = Host::probe();
    let layers: Vec<String> = layer_metrics(&TracedRun {
        traced: &traced,
        untraced_ns: 1,
        speedup_2t: 1.0,
        host: &host,
    })
    .into_iter()
    .map(|m| m.name)
    .collect();
    assert_eq!(layers, registered("per_layer"));

    let workloads = registered("workloads");
    assert_eq!(workloads, NAMES.map(String::from).to_vec());
}
