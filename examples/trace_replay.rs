//! Trace workflows: export a workload as SWF, re-import it, replay it
//! with lifecycle tracing enabled, and dump the per-job timeline — the
//! bread and butter of debugging a scheduler.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use malleable_koala::appsim::swf;
use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::sim::World;
use malleable_koala::koala::RunReport;
use malleable_koala::simcore::{Engine, SimRng};

fn main() {
    // 1. Generate a small Wm workload and export it as SWF.
    let mut rng = SimRng::seed_from_u64(99);
    let mut spec = WorkloadSpec::wm();
    spec.jobs = 12;
    let jobs = spec.generate(&mut rng);
    let swf_text = swf::export(&jobs);
    println!("--- SWF export (first lines) ---");
    for line in swf_text.lines().take(6) {
        println!("{line}");
    }

    // 2. Re-import and replay through the full scheduler with tracing.
    let reimported = swf::SwfImport::default().convert(&swf::parse(&swf_text).unwrap());
    let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    cfg.trace = Some(reimported);
    cfg.seed = 99;
    let mut engine = Engine::new();
    let report = World::new(&cfg)
        .with_trace(4096)
        .run_to_end::<RunReport>(&mut engine);

    println!(
        "\nreplayed {} jobs, {:.0}% complete, {} trace entries",
        report.jobs.len(),
        100.0 * report.jobs.completion_ratio(),
        report.trace.events().len()
    );

    // 3. Show one job's full lifecycle from the trace.
    println!("\n--- lifecycle of job 0 ---");
    for e in report.trace.of_subject(0) {
        println!("{:>10}  {:<9} {}", e.at.to_string(), e.category, e.detail);
    }

    // 4. Category statistics.
    println!("\n--- trace categories ---");
    for cat in [
        "arrive", "place", "start", "grow", "shrink", "resume", "complete",
    ] {
        let n = report.trace.of_category(cat).count();
        if n > 0 {
            println!("{cat:<9} {n}");
        }
    }

    // 5. The CSV is ready for timeline tooling.
    let csv = report.trace.to_csv();
    println!(
        "\ntrace CSV: {} bytes, first row: {}",
        csv.len(),
        csv.lines().nth(1).unwrap_or("")
    );
}
