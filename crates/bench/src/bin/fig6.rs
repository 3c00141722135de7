//! Reproduces **Fig. 6** of the paper: the execution times of NPB-FT and
//! GADGET-2 depending on the number of machines (measured on the Delft
//! cluster in the paper; analytic calibrations here — see DESIGN.md §2).
//!
//! ```text
//! cargo run --release -p koala_bench --bin fig6
//! ```

use appsim::speedup::{ft_model, gadget2_model, SpeedupModel};
use koala_bench::{out_dir, write_csv};
use koala_metrics::csv::Csv;

fn main() {
    let ft = ft_model();
    let g2 = gadget2_model();
    let mut csv = Csv::with_header(&["machines", "ft_seconds", "gadget2_seconds"]);
    println!("Fig. 6 — execution time vs. number of machines");
    println!("{:>9} {:>12} {:>16}", "machines", "FT (s)", "GADGET-2 (s)");
    for n in 1..=46u32 {
        let t_ft = ft.exec_time(n);
        let t_g2 = g2.exec_time(n);
        csv.row_f64(&[n as f64, t_ft, t_g2], 2);
        // Print the sizes the applications can actually use.
        let is_pow2 = n.is_power_of_two();
        if is_pow2 || n % 4 == 0 || n == 46 || n <= 4 {
            let ft_col = if is_pow2 {
                format!("{t_ft:>12.1}")
            } else {
                format!("{:>12}", "-")
            };
            println!("{n:>9} {ft_col} {t_g2:>16.1}");
        }
    }
    let path = out_dir().join("fig6_execution_times.csv");
    write_csv(&path, csv.as_str());
    println!("\ncalibration checks:");
    println!(
        "  FT:       T(2) = {:6.1} s (paper: ~120 s), best = {:5.1} s at n = {} (paper: ~60 s)",
        ft.exec_time(2),
        ft.exec_time(ft.best_size(32)),
        ft.best_size(32)
    );
    println!(
        "  GADGET-2: T(2) = {:6.1} s (paper: ~600 s), best = {:5.1} s at n = {} (paper: ~240 s)",
        g2.exec_time(2),
        g2.exec_time(g2.best_size(46)),
        g2.best_size(46)
    );
    println!("  max sizes (32 / 46) lie beyond the best-time sizes, as the paper intends:");
    println!(
        "    FT  T(32) = {:.1} s > T({}) = {:.1} s",
        ft.exec_time(32),
        ft.best_size(32),
        ft.exec_time(ft.best_size(32))
    );
    println!(
        "    G2  T(46) = {:.1} s > T({}) = {:.1} s",
        g2.exec_time(46),
        g2.best_size(46),
        g2.exec_time(g2.best_size(46))
    );
    println!("\nwrote {}", path.display());
}
