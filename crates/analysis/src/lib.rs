//! # flexray-analysis
//!
//! Holistic scheduling and schedulability analysis for FlexRay-based
//! distributed embedded systems, re-implementing Sections 5–5.1 of
//! *Pop, Pop, Eles, Peng — DATE 2007* (and the underlying analysis of
//! their ECRTS 2006 paper, ref \[14\]).
//!
//! The crate provides:
//!
//! * [`build_schedule`] — the list scheduler of Fig. 2 producing the
//!   static [`ScheduleTable`] for SCS tasks and ST messages;
//! * [`fps_local_response`] — response-time analysis of FPS tasks in the
//!   slack of the static schedule;
//! * [`dyn_delay`] — the worst-case delay `w_m` of dynamic messages
//!   (Eq. 3) with its interference sets [`hp_messages`], [`lf_messages`]
//!   and [`unused_lower_slots`];
//! * [`analyse`] — the holistic fixed point tying everything together
//!   and grading the configuration with the cost function of Eq. (5)
//!   ([`Cost`], [`cost_of`]).
//!
//! ## Example
//!
//! ```
//! use flexray_model::*;
//! use flexray_analysis::{analyse, AnalysisConfig};
//!
//! let mut app = Application::new();
//! let g = app.add_graph("g", Time::from_us(200.0), Time::from_us(150.0));
//! let a = app.add_task(g, "a", NodeId::new(0), Time::from_us(10.0), SchedPolicy::Scs, 0);
//! let b = app.add_task(g, "b", NodeId::new(1), Time::from_us(10.0), SchedPolicy::Scs, 0);
//! let m = app.add_message(g, "m", 8, MessageClass::Static, 0);
//! app.connect(a, m, b)?;
//! let mut bus = BusConfig::new(PhyParams::unit());
//! bus.static_slot_len = Time::from_us(8.0);
//! bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
//! let sys = System::validated(Platform::with_nodes(2), app, bus)?;
//!
//! let result = analyse(&sys, &AnalysisConfig::default())?;
//! assert!(result.is_schedulable());
//! # Ok::<(), ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod availability;
mod cost;
mod dyn_msg;
mod fps;
mod holistic;
mod priority;
mod scheduler;
mod session;
mod table;

pub use availability::Availability;
pub use cost::{cost_of, Cost};
pub use dyn_msg::{
    dyn_delay, dyn_delay_pooled, hp_messages, latest_tx_bound, lf_messages, unused_lower_slots,
    DynAnalysisMode, DynScratch, LatestTxPolicy, MAX_FIXED_POINT_ITERS,
};
pub use fps::{fps_local_response, hp_tasks};
pub use holistic::{analyse, Analysis, AnalysisConfig};
pub use priority::{criticality, longest_path_from_source, longest_path_to_sink, ready_list_order};
pub use scheduler::{build_schedule, build_schedule_with, ScsPlacement};
pub use session::{AnalysisSession, EtStats};
pub use table::{MessageEntry, ScheduleTable, TaskEntry};
