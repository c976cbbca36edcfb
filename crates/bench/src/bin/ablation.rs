//! Runs the ablation studies for the reproduction's design choices.
//!
//! Usage: `ablation [n_apps]` (default 5). A malformed or zero
//! `n_apps` exits 2 naming it.

use flexray_bench::ablation::{dyn_mode_ablation, frame_id_ablation, placement_ablation, render};
use flexray_bench::args::positional_env_or_exit;

fn main() {
    let n = positional_env_or_exit("ablation", "n_apps", 5usize, |&n| n > 0);
    let run = || -> Result<(), flexray_model::ModelError> {
        println!(
            "{}",
            render(
                "Ablation 1: frame-identifier assignment (Eq. 4 rule vs identity)",
                "avg cost (µs)",
                &frame_id_ablation(n)?,
                n
            )
        );
        println!(
            "{}",
            render(
                "Ablation 2: SCS placement (Fig. 2 line 11)",
                "avg cost (µs)",
                &placement_ablation(n)?,
                n
            )
        );
        println!(
            "{}",
            render(
                "Ablation 3: DYN interference mode (greedy vs exact)",
                "avg DYN WCRT (µs)",
                &dyn_mode_ablation(n)?,
                n
            )
        );
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("ablation failed: {e}");
        std::process::exit(1);
    }
}
