//! Generic single-axis scenario sweeps beyond the paper envelope.
//!
//! Usage: `sweep <axis>=<v1,v2,...> [apps=N] [mode=fast|full|smoke]
//! [threads=N] [eval_threads=N] [seed0=N] [algos=a,b,...]`
//!
//! * exactly one axis — `nodes=2,8,12,20`, `depth=4,8,12` (chain
//!   length), `gateway=0.0,0.25,0.5`, `busutil=0.2,0.4,0.6` or
//!   `clusters=1,2,3`;
//! * `apps=N` — applications (seeds) per point (default 3);
//! * `mode=fast` shrinks the search caps for a quick qualitative run
//!   and `mode=smoke` shrinks them further for CI; `full` (the default)
//!   keeps the defaults;
//! * `threads=N` — worker threads (`0` = all cores, the default; `1` =
//!   serial; both produce bit-identical deterministic output);
//! * `eval_threads=N` — warm analysis sessions of the in-run parallel
//!   `Evaluator` (`0` = all cores, default `1` = serial; bit-identical
//!   results for any value);
//! * `seed0=N` — base seed; application `i` of point `p` uses
//!   `seed0 + 1000·p + i`;
//! * `algos=bbc,obccf,obcee,sa` — algorithm subset (default all four;
//!   deviations are reported against SA when it is in the set).
//!
//! A malformed argument exits 2 naming it.

use flexray_bench::args::{parse_env_or_exit, Kind, Plan};
use flexray_bench::grid::run_grid;
use flexray_bench::sweep::render;

fn main() {
    let Plan::Grid(cfg) = parse_env_or_exit(Kind::Sweep).plan else {
        unreachable!("sweep arguments describe a grid")
    };
    let axis = &cfg.axes[0];
    println!(
        "Sweep — axis {} ({} points), {} application(s) per point, algos {:?}, \
         {} worker thread(s), {} evaluator thread(s), seed0 {}",
        axis.name(),
        axis.len(),
        cfg.apps_per_point,
        cfg.algos.iter().map(|a| a.name()).collect::<Vec<_>>(),
        flexray_util::resolve_threads(cfg.threads),
        cfg.params.eval_threads,
        cfg.seed0,
    );
    let reference = cfg.reference().map(|i| cfg.algos[i].name());
    match run_grid(&cfg) {
        Ok(points) => println!("{}", render(axis.name(), reference, &points)),
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}
