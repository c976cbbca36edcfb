//! Regenerates Fig. 7: message response times vs DYN segment length.
//!
//! Usage: `fig7 [n_points]` (default 21, like the paper's x-axis)

fn main() {
    let n_points = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(21);
    println!("Fig. 7 — influence of DYN segment length on response times");
    match flexray_bench::fig7::run(n_points) {
        Ok(table) => println!("{table}"),
        Err(e) => {
            eprintln!("fig7 failed: {e}");
            std::process::exit(1);
        }
    }
}
