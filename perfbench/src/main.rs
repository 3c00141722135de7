//! `perfbench` — one run of one workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|trace_stream|subsystems_fork> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the reference round traced and prints the per-layer
//! metrics. Human-readable lines come first; the last line is the
//! result as one JSON object.

use std::time::Instant;

use koala::report::SummaryReport;
use perfbench::host::{self, Host};
use perfbench::spans::{ns_since, VARIANTS};
use perfbench::workloads::{self, Plan, Workload};
use perfbench::{
    digest, end_to_end_metrics, flat_round, layer_metrics, median, percentile, pool, result_json,
    timed_pass, traced_pass, TimedPass, TracedRun,
};

/// Set-up runs once before anything else, then once more between rounds
/// of the timed pass every `SETUP_EVERY_S`, so its median (`setup_s`)
/// samples the host across the whole run.
const SETUP_EVERY_S: f64 = 0.5;
/// Untimed warm-up before anything is measured.
const WARMUP_S: f64 = 0.5;
/// Worker threads of the 2-thread checks and speed-up.
const PAIR_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let usage = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let setup = || {
        let t0 = Instant::now();
        let built = workloads::setup(&args.workload, args.seed, Plan::standard());
        (built, t0.elapsed().as_secs_f64())
    };
    let (built, first_s) = setup();
    let w = built?;
    let mut setup_s = vec![first_s];
    warm_up(w.as_ref());
    println!(
        "perfbench {} seed={} seconds={} trace={} round={} tasks",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.round_len()
    );
    // Capped at the available parallelism: no figure may come from
    // oversubscribed worker threads.
    let pair = PAIR_THREADS.min(host::available_threads());
    if args.trace {
        return traced(w.as_ref(), pair);
    }
    let mut last = Instant::now();
    let pass = timed_pass(w.as_ref(), args.seconds, || {
        if last.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            setup_s.push(setup().1);
            last = Instant::now();
        }
    });
    untraced(w.as_ref(), pass, median(&setup_s), pair)
}

/// Runs tasks untimed until [`WARMUP_S`] has passed (at least one), so
/// one-time process costs stay out of every measurement.
fn warm_up(w: &dyn Workload) {
    let t0 = Instant::now();
    let mut i = 0;
    while i == 0 || t0.elapsed().as_secs_f64() < WARMUP_S {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run_task(i)));
        i += 1;
    }
}

fn untraced(w: &dyn Workload, pass: TimedPass, setup_s: f64, pair: usize) -> Result<(), String> {
    let rss_mb = host::peak_rss_mb();
    let mut problems = pass.problems.clone();
    match flat_round(&pass.round) {
        Some(round) => {
            if let Err(e) = w.cross_check(&round, pair) {
                problems.push(e);
            }
            let mut all = round;
            all.extend(pass.round_pooled.iter().cloned());
            println!(
                "digest {:016x} (reference round and its pooled cells)",
                digest(&all)
            );
        }
        None => problems.push("reference round incomplete; cross-check skipped".to_string()),
    }
    let mut samples = pass.samples_ns.clone();
    samples.sort_unstable();
    let (_, beyond) = percentile(&samples, 0.9);
    let host = Host::probe();
    println!("host {}", host.json());
    println!(
        "pass: {} tasks ({} failed) in {:.3} s, {} terminal jobs, {} unit samples ({} beyond p90{})",
        pass.attempted,
        pass.failed,
        pass.wall_s,
        pass.terminal_jobs,
        samples.len(),
        beyond,
        if beyond < 10 { "; fewer than 10" } else { "" }
    );
    for p in &problems {
        println!("problem: {p}");
    }
    let metrics = end_to_end_metrics(setup_s, &pass, rss_mb);
    let failed_frac = pass.failed as f64 / pass.attempted.max(1) as f64;
    for m in &metrics {
        println!("{:<14} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<14} {:>16.6} ratio", "failed_frac", failed_frac);
    println!(
        "{}",
        result_json(problems.is_empty(), pass.attempted, pass.failed, &metrics)
    );
    Ok(())
}

fn traced(w: &dyn Workload, pair: usize) -> Result<(), String> {
    // Untraced references first: the policy clocks, once installed, stay.
    let t0 = Instant::now();
    let reference = w.run_round(1);
    pool(&reference);
    let untraced_ns = ns_since(t0);
    let mut problems = Vec::new();
    let speedup_2t = if pair >= 2 {
        let t0 = Instant::now();
        let two = w.run_round(pair);
        pool(&two);
        let two_ns = ns_since(t0);
        if format!("{two:?}") != format!("{reference:?}") {
            problems.push(format!(
                "{pair}-thread round diverged from the 1-thread round"
            ));
        }
        untraced_ns as f64 / two_ns as f64
    } else {
        println!("parallel.speedup_2t not measured: 1 hardware thread");
        0.0
    };

    let traced = traced_pass(w);
    problems.extend(traced.problems.iter().cloned());
    // Passivity: every traced summary renders exactly like the untraced
    // public runner's summary of the same cell and seed.
    let mut at = 0;
    let mut failed = traced.failed;
    for (i, task) in traced.tasks.iter().enumerate() {
        // A failed task already fails the run, and its cell count is
        // unknown, so the tasks after it cannot be aligned.
        let Some(task) = task else { break };
        let untraced: &[SummaryReport] = reference.get(at..at + task.len()).unwrap_or(&[]);
        at += task.len();
        if format!("{task:?}") != format!("{untraced:?}") {
            failed += 1;
            problems.push(format!(
                "task {i}: traced summaries differ from the untraced runner's"
            ));
        }
    }
    let flat: Vec<SummaryReport> = traced.tasks.iter().flatten().flatten().cloned().collect();
    println!("digest {:016x} (traced reference round)", digest(&flat));

    let host = Host::probe();
    println!("host {}", host.json());
    let sp = &traced.spans;
    let wall = traced.wall_ns as f64;
    println!("span                      self_s      share   count");
    let mut rows: Vec<(String, u64, u64)> = VARIANTS
        .iter()
        .zip(sp.handle_ns.iter().zip(sp.handle_n))
        .filter(|(_, (_, n))| *n > 0)
        .map(|(v, (ns, n))| (format!("handle.{v}"), *ns, n))
        .collect();
    rows.extend([
        ("engine.pop".to_string(), sp.pop_ns, sp.pops),
        ("placement".to_string(), sp.place_ns, sp.place_calls),
        (
            "malleability".to_string(),
            sp.mall_ns,
            sp.grow_calls + sp.shrink_calls,
        ),
        ("intake".to_string(), sp.intake_ns, sp.intake_jobs),
        ("world.assemble".to_string(), sp.assemble_ns, 0),
        ("report.finish".to_string(), sp.finish_ns, 0),
        ("report.pool".to_string(), sp.pool_ns, 0),
        ("snapshot.capture".to_string(), sp.capture_ns, 0),
        ("snapshot.fork".to_string(), sp.fork_ns, sp.forks),
    ]);
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, ns, n) in rows.iter().filter(|r| r.1 > 0) {
        println!(
            "{name:<22} {:>10.4} {:>9.2}% {n:>7}",
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / wall
        );
    }
    for p in &problems {
        println!("problem: {p}");
    }
    let metrics = layer_metrics(&TracedRun {
        traced: &traced,
        untraced_ns,
        speedup_2t,
        host: &host,
    });
    println!(
        "{}",
        result_json(
            problems.is_empty(),
            traced.tasks.len(),
            failed.min(traced.tasks.len()),
            &metrics
        )
    );
    Ok(())
}
