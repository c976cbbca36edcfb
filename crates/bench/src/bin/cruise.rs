//! Runs the vehicle cruise-controller case study (Section 7).
//!
//! Usage: `cruise [wcet_us]` (default 150). A malformed, non-positive
//! or non-finite `wcet_us` exits 2 naming it.

use flexray_bench::args::positional_env_or_exit;
use flexray_bench::cruise::{render, run_case_study, DEFAULT_WCET_US};
use flexray_opt::{OptParams, SaParams};

fn main() {
    let wcet = positional_env_or_exit("cruise", "wcet_us", DEFAULT_WCET_US, |w| {
        w.is_finite() && *w > 0.0
    });
    println!("Cruise controller case study (54 tasks, 26 messages, 5 nodes), wcet scale {wcet} µs");
    match run_case_study(wcet, &OptParams::default(), &SaParams::default()) {
        Ok(outcome) => println!("{}", render(&outcome)),
        Err(e) => {
            eprintln!("cruise failed: {e}");
            std::process::exit(1);
        }
    }
}
