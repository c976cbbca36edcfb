//! # flexray-opt
//!
//! FlexRay bus access optimisation — the primary contribution of
//! *Pop, Pop, Eles, Peng — "Bus Access Optimisation for FlexRay-based
//! Distributed Embedded Systems", DATE 2007*.
//!
//! Given a platform and an application (task graphs with SCS/FPS tasks
//! and static/dynamic messages), the optimisers search for a
//! [`BusConfig`](flexray_model::BusConfig) — static slot count, size and
//! node assignment; dynamic-segment length; frame-identifier assignment
//! — under which the holistic analysis of `flexray-analysis` declares
//! the system schedulable:
//!
//! * [`bbc`] — the Basic Bus Configuration of Fig. 5 (minimal bandwidth
//!   requirements, dynamic-segment sweep);
//! * [`obc`] — the Optimised Bus Configuration heuristic of Fig. 6, with
//!   [`DynSearch::CurveFit`] (OBCCF, the Newton-polynomial heuristic of
//!   Fig. 8) or [`DynSearch::Exhaustive`] (OBCEE);
//! * [`simulated_annealing`] — the SA baseline used as a close-to-optimal
//!   reference in the paper's evaluation.
//!
//! ## Example
//!
//! ```
//! use flexray_model::*;
//! use flexray_opt::{bbc, OptParams};
//!
//! let mut app = Application::new();
//! let g = app.add_graph("g", Time::from_us(4000.0), Time::from_us(3000.0));
//! let a = app.add_task(g, "a", NodeId::new(0), Time::from_us(20.0), SchedPolicy::Scs, 0);
//! let b = app.add_task(g, "b", NodeId::new(1), Time::from_us(20.0), SchedPolicy::Scs, 0);
//! let m = app.add_message(g, "m", 8, MessageClass::Static, 0);
//! app.connect(a, m, b)?;
//!
//! let result = bbc(&Platform::with_nodes(2), &app, PhyParams::bmw_like(), &OptParams::default());
//! assert!(result.is_schedulable());
//! # Ok::<(), ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bbc;
mod dyn_search;
mod evaluator;
mod frame_assign;
mod network;
mod newton;
mod obc;
mod params;
mod sa;

pub use bbc::{bbc, bbc_skeleton};
pub use dyn_search::{
    determine_dyn_length, dyn_sweep_grid, DynChoice, DynSearch, CF_INITIAL_POINTS,
};
pub use evaluator::Evaluator;
pub use frame_assign::assign_frame_ids_by_criticality;
pub use network::{optimise_network, NetworkOptResult, NetworkTopology};
pub use newton::NewtonPoly;
pub use obc::{assign_slots_round_robin, obc};
pub use params::{OptParams, OptResult};
pub use sa::{identity_frame_ids, simulated_annealing, SaParams};
