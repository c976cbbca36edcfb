//! Regenerates Fig. 7: message response times vs DYN segment length.
//!
//! Usage: `fig7 [n_points]` (default 21, like the paper's x-axis). A
//! malformed or zero `n_points` exits 2 naming it.

use flexray_bench::args::positional_env_or_exit;

fn main() {
    let n_points = positional_env_or_exit("fig7", "n_points", 21usize, |&n| n > 0);
    println!("Fig. 7 — influence of DYN segment length on response times");
    match flexray_bench::fig7::run(n_points) {
        Ok(table) => println!("{table}"),
        Err(e) => {
            eprintln!("fig7 failed: {e}");
            std::process::exit(1);
        }
    }
}
