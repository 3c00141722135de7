//! Trace workflows: export a workload as SWF, stream it back in, and
//! watch the replay through an observation sink — one job's lifecycle
//! and a JSON-lines export of the malleability events, from a streamed,
//! summarized run whose memory is bounded by the jobs in flight.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use std::io::Write as _;

use malleable_koala::appsim::swf;
use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::{engine_for, JobId, Obs, SummaryReport, World, DEFAULT_LOOKAHEAD};
use malleable_koala::simcore::{SimRng, SimTime};

fn main() {
    // 1. Generate a small Wm workload and export it as SWF.
    let mut spec = WorkloadSpec::wm();
    spec.jobs = 12;
    let swf_text = swf::export(&spec.generate(&mut SimRng::seed_from_u64(99)));
    println!("--- SWF export (first lines) ---");
    for line in swf_text.lines().take(6) {
        println!("{line}");
    }

    // 2. Stream the SWF back in and replay it with a sink that keeps
    //    job 0's events and writes every grow, shrink and resume as a
    //    JSON line.
    let cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    let mut stream = swf::SwfJobStream::new(swf_text.as_bytes(), swf::SwfImport::default());
    let mut job0: Vec<(SimTime, Obs)> = Vec::new();
    let mut jsonl: Vec<u8> = Vec::new();
    let mut sink = |t: SimTime, obs: &Obs| {
        if obs.job() == Some(JobId(0)) {
            job0.push((t, *obs));
        }
        if let Obs::Grow { .. } | Obs::Shrink { .. } | Obs::Resume { .. } = obs {
            let obs = serde_json::to_string(obs).expect("an Obs serializes");
            writeln!(jsonl, "{{\"t_ms\":{},\"obs\":{obs}}}", t.as_millis()).unwrap();
        }
    };
    let summary: SummaryReport =
        World::for_stream_summarized(&cfg, 99, &mut stream, DEFAULT_LOOKAHEAD)
            .with_sink(&mut sink)
            .run_to_end(&mut engine_for(&cfg));
    if let Some(e) = stream.error() {
        panic!("the SWF stream stopped early: {e}");
    }
    println!(
        "\nreplayed {} jobs, {:.0}% complete, {} grow operations",
        summary.jobs_submitted,
        100.0 * summary.completion_ratio(),
        summary.grow_ops
    );

    // 3. One job's full lifecycle, as the sink saw it.
    println!("\n--- lifecycle of job 0 ---");
    for (t, obs) in &job0 {
        println!("{:>10}  {obs:?}", t.to_string());
    }

    // 4. The JSON lines are ready for timeline tooling.
    std::fs::create_dir_all("repro_out").expect("create repro_out/");
    std::fs::write("repro_out/trace_replay.jsonl", &jsonl).expect("write the JSON lines");
    let first = std::str::from_utf8(&jsonl).unwrap().lines().next();
    println!(
        "\n{} bytes of JSON lines in repro_out/trace_replay.jsonl, first: {}",
        jsonl.len(),
        first.unwrap_or("")
    );
}
