//! Runs the vehicle cruise-controller case study (Section 7).
//!
//! Usage: `cruise [wcet_us]` (default 180)

use flexray_bench::cruise::{render, run_case_study, DEFAULT_WCET_US};
use flexray_opt::{OptParams, SaParams};

fn main() {
    let wcet = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_WCET_US);
    println!("Cruise controller case study (54 tasks, 26 messages, 5 nodes), wcet scale {wcet} µs");
    match run_case_study(wcet, &OptParams::default(), &SaParams::default()) {
        Ok(outcome) => println!("{}", render(&outcome)),
        Err(e) => {
            eprintln!("cruise failed: {e}");
            std::process::exit(1);
        }
    }
}
