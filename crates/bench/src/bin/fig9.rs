//! Regenerates Fig. 9: evaluation of the bus optimisation algorithms.
//!
//! Usage: fig9 [nodes=2,3,...] [apps=N] [mode=fast|full|smoke]
//! [threads=N] [eval_threads=N] [seed0=N]
//!
//! Defaults: nodes 2,3,4,5, 5 applications per node count, full search
//! parameters, one worker thread per hardware thread. The paper uses 25
//! applications per point; pass `apps=25` for the full run (slow:
//! expect tens of minutes in release mode on one core — the per-seed
//! loop scales with the thread count). `mode=fast` shrinks the search
//! caps for a quick qualitative run; `threads=1` forces the serial
//! path, whose deterministic output is identical to any parallel run.
//! A malformed argument exits 2 naming it.

use flexray_bench::args::{parse_env_or_exit, Kind, Plan};
use flexray_bench::fig9::render;
use flexray_bench::grid::run_grid;

fn main() {
    let Plan::Grid(cfg) = parse_env_or_exit(Kind::Fig9).plan else {
        unreachable!("fig9 arguments describe a grid")
    };
    let nodes: Vec<String> = (0..cfg.axes[0].len())
        .map(|i| cfg.axes[0].value(i))
        .collect();
    println!(
        "Fig. 9 — {} applications per point, nodes [{}], {} worker thread(s)",
        cfg.apps_per_point,
        nodes.join(", "),
        flexray_util::resolve_threads(cfg.threads)
    );
    match run_grid(&cfg) {
        Ok(points) => println!("{}", render(&points)),
        Err(e) => {
            eprintln!("fig9 failed: {e}");
            std::process::exit(1);
        }
    }
}
