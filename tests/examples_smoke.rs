//! Smoke tests: every shipped example and the paper-figure binaries
//! must build and exit 0 when run the way the README advertises.
//!
//! Each test shells out to the same `cargo` that is running the test
//! suite (the `CARGO` env var), building in release mode so the run
//! matches the documented command lines. Cargo's target-directory lock
//! serialises the inner builds if the test harness runs these in
//! parallel.

use std::process::Command;

fn run_cargo(args: &[&str]) {
    let cargo = env!("CARGO");
    let output = Command::new(cargo)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn `cargo {}`: {e}", args.join(" ")));
    assert!(
        output.status.success(),
        "`cargo {}` exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        args.join(" "),
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}

#[test]
fn example_quickstart_exits_zero() {
    run_cargo(&["run", "--release", "--example", "quickstart"]);
}

#[test]
fn example_cruise_control_exits_zero() {
    run_cargo(&["run", "--release", "--example", "cruise_control"]);
}

#[test]
fn example_design_space_exits_zero() {
    run_cargo(&["run", "--release", "--example", "design_space"]);
}

#[test]
fn fig_binaries_exit_zero() {
    for bin in ["fig3", "fig4", "fig7"] {
        run_cargo(&["run", "--release", "-p", "flexray-bench", "--bin", bin]);
    }
    // Full fig9 sweeps SA over every synthetic set (minutes); the fast
    // qualitative configuration is what CI exercises.
    run_cargo(&[
        "run",
        "--release",
        "-p",
        "flexray-bench",
        "--bin",
        "fig9",
        "--",
        "apps=1",
        "nodes=2,3",
        "mode=fast",
    ]);
}
