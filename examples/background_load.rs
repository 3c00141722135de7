//! Resilience to background (local-user) load — the multicluster-specific
//! concern the paper highlights: local users bypass KOALA, so the
//! scheduler must poll the information service and keep a reserve.
//!
//! Sweeps background intensity × grow reserve and reports how malleable
//! job performance and local-user service degrade.
//!
//! ```text
//! cargo run --release --example background_load
//! ```

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::{self, Run, RunReport};
use malleable_koala::multicluster::BackgroundLoad;

fn main() {
    println!("background-load resilience (EGS/Wm, 80 jobs, PRA)\n");
    println!(
        "{:<26} {:>8} {:>11} {:>11} {:>11}",
        "background", "reserve", "avg size", "exec (s)", "resp (s)"
    );
    for (label, bg) in [
        ("none", BackgroundLoad::none()),
        ("light (fixed trickle)", BackgroundLoad::light()),
        (
            "concurrent users 30%",
            BackgroundLoad::concurrent_users(0.30),
        ),
        (
            "concurrent users 60%",
            BackgroundLoad::concurrent_users(0.60),
        ),
    ] {
        for reserve in [0u32, 16] {
            let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
            cfg.workload.jobs = 80;
            cfg.background = bg.clone();
            cfg.sched.grow_reserve = reserve;
            cfg.seed = 9;
            let r: RunReport = koala::run(&Run::cell(&cfg)).unwrap().remove(0);
            let jobs = &r.jobs;
            println!(
                "{:<26} {:>8} {:>11.1} {:>11.0} {:>11.0}",
                label,
                reserve,
                jobs.average_size_ecdf().mean().unwrap_or(0.0),
                jobs.execution_time_ecdf().mean().unwrap_or(0.0),
                jobs.response_time_ecdf().mean().unwrap_or(0.0),
            );
        }
    }
    println!(
        "\nreading: background releases are what fuel growth (the KIS-poll pathway),\n\
         so *some* background activity helps malleable jobs; heavy background\n\
         competes for nodes and erodes the benefit. The reserve threshold\n\
         (Section V-B) caps KOALA's expansion to protect local users."
    );
}
