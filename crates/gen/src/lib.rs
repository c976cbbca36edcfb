//! # flexray-gen
//!
//! Seeded benchmark generation for the DATE'07 FlexRay bus access
//! optimisation reproduction:
//!
//! * [`generate`] — the synthetic workloads of Section 7 (2–7 nodes,
//!   10 tasks per node, graphs of 5 tasks, half time-triggered, node
//!   utilisation 30–60 %, bus utilisation 10–70 %), deterministic per
//!   `(config, seed)`, plus scenario axes beyond the paper envelope:
//!   chain-shaped graphs ([`GraphShape`]), node counts ≥ 20,
//!   gateway-relayed traffic and multiple clusters;
//! * [`cruise_controller`] — the vehicle cruise-controller case study
//!   (54 tasks, 26 messages, 4 graphs, 5 nodes);
//! * [`fig7_system`] — the 45-task / 10 ST / 20 DYN workload behind the
//!   response-time-vs-DYN-length curves of Fig. 7.
//!
//! ## Example
//!
//! ```
//! use flexray_gen::{generate, GeneratorConfig};
//!
//! let generated = generate(&GeneratorConfig::paper(3), 42)?;
//! assert_eq!(generated.platform.len(), 3);
//! assert_eq!(generated.app.graphs().len(), 6);
//! # Ok::<(), flexray_model::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod config;
mod cruise;
mod fig7;
mod stats;
mod synth;

pub use config::{GeneratorConfig, GraphShape};
pub use cruise::{cruise_controller, cruise_controller_with};
pub use fig7::{fig7_system, FIG7_NODES};
pub use stats::{AggregatedGenStats, GenStats};
pub use synth::{generate, Generated};
