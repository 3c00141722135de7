//! `koala-sim` — run experiments from JSON configuration files.
//!
//! ```text
//! koala-sim init <file.json>          write a template configuration
//! koala-sim run  <file.json> [opts]   run it and print the report
//!
//! options:
//!   --seeds 1,2,3,4     seeds to run (default: the config's seed)
//!   --csv DIR           write ECDF/time-series CSVs into DIR
//!   --swf FILE          export the generated workload as SWF
//! ```
//!
//! The configuration file is a serialized `koala::ExperimentConfig`;
//! `init` produces a commented-by-example template you can edit (policy,
//! approach, workload, background, thresholds).

use std::path::PathBuf;
use std::process::ExitCode;

use malleable_koala::appsim::swf;
use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::report::MultiReport;
use malleable_koala::koala::{self, Run};
use malleable_koala::koala_metrics::csv::Csv;
use malleable_koala::koala_metrics::JobRecord;

fn usage() -> ExitCode {
    eprintln!("usage: koala-sim init <file.json> | koala-sim run <file.json> [--seeds a,b,c] [--csv DIR] [--swf FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("init") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
            let json = serde_json::to_string_pretty(&cfg).expect("config serializes");
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("template written to {path}");
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let cfg: ExperimentConfig = match serde_json::from_str(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("invalid configuration: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut seeds = vec![cfg.seed];
            let mut csv_dir: Option<PathBuf> = None;
            let mut swf_out: Option<PathBuf> = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--seeds" => {
                        let Some(list) = args.get(i + 1) else {
                            return usage();
                        };
                        let Ok(parsed) = list.split(',').map(|s| s.trim().parse()).collect() else {
                            return usage();
                        };
                        seeds = parsed;
                        i += 2;
                    }
                    "--csv" => {
                        let Some(d) = args.get(i + 1) else {
                            return usage();
                        };
                        csv_dir = Some(PathBuf::from(d));
                        i += 2;
                    }
                    "--swf" => {
                        let Some(f) = args.get(i + 1) else {
                            return usage();
                        };
                        swf_out = Some(PathBuf::from(f));
                        i += 2;
                    }
                    _ => return usage(),
                }
            }
            run(cfg, &seeds, csv_dir, swf_out)
        }
        _ => usage(),
    }
}

fn run(
    cfg: ExperimentConfig,
    seeds: &[u64],
    csv_dir: Option<PathBuf>,
    swf_out: Option<PathBuf>,
) -> ExitCode {
    // Policy names are plain strings in the JSON; resolve them (and the
    // rest of the configuration) up front for a clean error instead of
    // a runtime panic.
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}: {} jobs x {} seeds on DAS-3 ({} placement, {} policy, {} approach)",
        cfg.name,
        cfg.workload.jobs,
        seeds.len(),
        cfg.sched.placement,
        cfg.sched.malleability,
        cfg.sched.approach.label(),
    );
    if let Some(path) = swf_out {
        let jobs = cfg.generate_workload_for_seed(cfg.seed);
        if let Err(e) = std::fs::write(&path, swf::export(&jobs)) {
            eprintln!("cannot write SWF {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("workload exported to {}", path.display());
    }
    let runs = koala::run(&Run::seeds(&cfg, seeds)).expect("validated above");
    let m = MultiReport::new(cfg.name.clone(), runs);
    print_report(&m);
    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        if let Err(e) = write_csvs(&m, &dir) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("CSVs written under {}", dir.display());
    }
    ExitCode::SUCCESS
}

/// A per-job metric extractor, as accepted by `JobTable::ecdf_of`.
type Metric = fn(&JobRecord) -> Option<f64>;

fn print_report(m: &MultiReport) {
    let jobs = m.merged_jobs();
    println!(
        "completed {:.1}% of {} jobs; makespan (worst seed) {}",
        100.0 * m.completion_ratio(),
        jobs.len(),
        m.max_makespan()
    );
    let rows: [(&str, Metric); 5] = [
        ("execution time (s)", JobRecord::execution_time),
        ("response time (s)", JobRecord::response_time),
        ("wait time (s)", JobRecord::wait_time),
        ("avg processors", JobRecord::average_size),
        ("max processors", JobRecord::max_size),
    ];
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9}",
        "metric", "median", "mean", "p90", "max"
    );
    for (name, f) in rows {
        let e = jobs.ecdf_of(f);
        println!(
            "{:<20} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            name,
            e.median().unwrap_or(f64::NAN),
            e.mean().unwrap_or(f64::NAN),
            e.quantile(0.9).unwrap_or(f64::NAN),
            e.max().unwrap_or(f64::NAN)
        );
    }
    let slow = jobs.slowdown_ecdf();
    println!(
        "{:<20} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
        "bounded slowdown",
        slow.median().unwrap_or(f64::NAN),
        slow.mean().unwrap_or(f64::NAN),
        slow.quantile(0.9).unwrap_or(f64::NAN),
        slow.max().unwrap_or(f64::NAN)
    );
    println!(
        "malleability: {} grows/run, {} shrinks/run",
        m.runs.iter().map(|r| r.grow_ops.total()).sum::<usize>() / m.runs.len(),
        m.runs.iter().map(|r| r.shrink_ops.total()).sum::<usize>() / m.runs.len(),
    );
}

/// Writes the ECDF and utilization CSVs, naming the first file that
/// cannot be written.
fn write_csvs(m: &MultiReport, dir: &std::path::Path) -> Result<(), String> {
    let write = |name: &str, csv: &Csv| {
        let path = dir.join(name);
        std::fs::write(&path, csv.as_str())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    let jobs = m.merged_jobs();
    let metrics: [(&str, Metric); 4] = [
        ("execution_time", JobRecord::execution_time),
        ("response_time", JobRecord::response_time),
        ("avg_size", JobRecord::average_size),
        ("max_size", JobRecord::max_size),
    ];
    for (name, f) in metrics {
        let e = jobs.ecdf_of(f);
        let mut csv = Csv::with_header(&[name, "percent"]);
        for (x, p) in e.curve_points() {
            csv.row_f64(&[x, p], 3);
        }
        write(&format!("{name}.csv"), &csv)?;
    }
    // The first seed's utilization trace is representative for plotting.
    let mut csv = Csv::with_header(&["t_seconds", "used_processors"]);
    if let Some(r) = m.runs.first() {
        for &(t, v) in r.utilization.points() {
            csv.row_f64(&[t.as_secs_f64(), v], 1);
        }
    }
    write("utilization.csv", &csv)
}
