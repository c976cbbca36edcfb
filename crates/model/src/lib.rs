//! # flexray-model
//!
//! System, application and bus-configuration model for the reproduction
//! of *Pop, Pop, Eles, Peng — "Bus Access Optimisation for FlexRay-based
//! Distributed Embedded Systems", DATE 2007*.
//!
//! The model mirrors Sections 2–4 of the paper:
//!
//! * a [`Platform`] of processing nodes on one FlexRay channel;
//! * an [`Application`] of polar acyclic task graphs whose nodes are
//!   [`Activity`] values — SCS/FPS tasks and static/dynamic messages;
//! * a [`BusConfig`] fixing the static-segment slot table, the
//!   dynamic-segment length and the frame-identifier assignment — the
//!   design variables of the optimisation;
//! * a [`System`] bundling all three with cross-validation.
//!
//! Everything is exact integer time ([`Time`], nanosecond resolution) and
//! protocol limits (1023 static slots, 7994 minislots, 661-macrotick
//! slots, 16 ms cycles) are enforced at validation.
//!
//! ## Example
//!
//! ```
//! use flexray_model::*;
//!
//! // Two nodes exchanging one static and one dynamic message.
//! let mut app = Application::new();
//! let g = app.add_graph("control", Time::from_us(200.0), Time::from_us(200.0));
//! let sense = app.add_task(g, "sense", NodeId::new(0), Time::from_us(10.0), SchedPolicy::Scs, 0);
//! let plan = app.add_task(g, "plan", NodeId::new(1), Time::from_us(20.0), SchedPolicy::Scs, 0);
//! let act = app.add_task(g, "act", NodeId::new(0), Time::from_us(5.0), SchedPolicy::Fps, 7);
//! let m_sp = app.add_message(g, "m_sp", 8, MessageClass::Static, 0);
//! let m_pa = app.add_message(g, "m_pa", 4, MessageClass::Dynamic, 1);
//! app.connect(sense, m_sp, plan)?;
//! app.connect(plan, m_pa, act)?;
//!
//! let mut bus = BusConfig::new(PhyParams::bmw_like());
//! bus.static_slot_len = Time::from_us(20.0);
//! bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
//! bus.n_minislots = 40;
//! bus.frame_ids.insert(m_pa, FrameId::new(1));
//!
//! let sys = System::validated(Platform::with_nodes(2), app, bus)?;
//! assert_eq!(sys.census().total(), 5);
//! # Ok::<(), ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod application;
mod bus;
mod error;
mod fingerprint;
mod ids;
mod network;
mod protocol;
mod stats;
mod system;
mod time;
mod view;

pub use application::{
    Activity, ActivityKind, Application, MessageClass, MessageSpec, SchedPolicy, TaskGraph,
    TaskSpec,
};
pub use bus::BusConfig;
pub use error::ModelError;
pub use fingerprint::{mix64, mix_bytes, mix_words, Fingerprint, SplitMix64};
pub use ids::{ActivityId, FrameId, GraphId, NodeId, SlotId};
pub use network::{derive_msg_clusters, Network};
pub use protocol::{
    PhyParams, BITS_PER_PAYLOAD_GRANULE, MAX_CYCLE, MAX_MINISLOTS, MAX_STATIC_SLOTS,
    MAX_STATIC_SLOT_MACROTICKS, PAYLOAD_GRANULARITY_BYTES,
};
pub use stats::{UtilSummary, WorkloadStats};
pub use system::{Census, Platform, System};
pub use time::Time;
pub use view::SystemView;
