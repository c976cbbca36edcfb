//! # flexray-bench
//!
//! Experiment harnesses regenerating every figure of the DATE'07
//! evaluation:
//!
//! * [`fig3`] — ST-segment optimisation example (R3 = 16/12/10);
//! * [`fig4`] — DYN-segment optimisation example (R2 = 37/35/21);
//! * [`fig7`] — response time vs dynamic-segment length (U-shape);
//! * [`fig9`] — BBC/OBCCF/OBCEE/SA comparison over synthetic sets;
//! * [`sweep`] — generic single-axis sweeps over the v2 generator
//!   (node count beyond 7, graph depth, gateway traffic, bus
//!   utilisation), generalising `fig9`;
//! * [`grid`] — the factorial (cartesian-product) experiment engine
//!   behind `sweep`, `fig9` and `fuzz`, with per-point generator
//!   statistics and a streaming, resumable JSON-lines/CSV [`report`];
//! * [`args`] — the one `key=value` argument grammar of the `grid`,
//!   `sweep`, `fig9` and `fuzz` binaries and the serve job specs;
//! * [`engine`] — the one units→points executor (static event plan,
//!   reorder walk, first-failing-unit errors) behind `grid`, `fuzz` and
//!   the `flexray-serve` daemon;
//! * [`fuzz`] — a grid-driven divergence-hunting campaign that fuzzes
//!   the simulator's execution order of simultaneous events across
//!   generator corners and audits every run against the analysis;
//! * [`report`] — the schema-versioned grid report codec;
//! * [`workload`] — the workgraph interchange format: hand-written
//!   (or exported) benchmark scenarios the grid, sweep and serve
//!   harnesses can ingest instead of generating;
//! * [`cruise`] — the vehicle cruise-controller case study;
//! * [`ablation`] — ablations of the reproduction's design choices.
//!
//! Each module has a `run`-style entry point used by the corresponding
//! binary (`cargo run -p flexray-bench --bin fig3`, ...) and asserts the
//! paper's qualitative claims in its tests.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(deprecated)]

pub mod ablation;
pub mod args;
pub mod cruise;
pub mod engine;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod fig9;
pub mod fuzz;
pub mod grid;
pub mod report;
pub mod sweep;
mod table;
pub mod workload;

pub use table::render_table;
