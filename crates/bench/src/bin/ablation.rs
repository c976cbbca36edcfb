//! Runs the ablation studies for the reproduction's design choices.
//!
//! Usage: `ablation [n_apps]` (default 5)

use flexray_bench::ablation::{dyn_mode_ablation, frame_id_ablation, placement_ablation, render};

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
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
