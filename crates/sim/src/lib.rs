//! # flexray-sim
//!
//! Cycle-accurate discrete-event simulator of the FlexRay media access
//! control and of the node CPUs, substituting for the physical testbed
//! of *Pop, Pop, Eles, Peng — DATE 2007*.
//!
//! The simulator executes a validated [`System`](flexray_model::System)
//! against the static [`ScheduleTable`](flexray_analysis::ScheduleTable)
//! produced by the list scheduler:
//!
//! * SCS tasks and ST frames follow the table verbatim (with precedence
//!   auditing — a correct table never trips it);
//! * FPS tasks run preemptively by priority in the slack the table
//!   leaves on their node;
//! * DYN frames are arbitrated exactly as in Section 3 of the paper:
//!   dynamic slot counter, minislot counter, per-FrameID CHI queues
//!   ordered by priority, and the latest-transmission-start rule.
//!
//! Observed response times are reported per activity and, by
//! construction, must be bounded by the worst-case response times of
//! `flexray-analysis`. [`SimReport::audit`] is the one judge of that
//! cross-check: it returns every way a run disagrees with the analysis
//! as a typed [`Finding`] (a violation, unfinished jobs, an activity
//! never observed, a response above its WCRT or above its deadline).
//! The integration tests, the property tests and the fuzz campaign all
//! judge through it.
//!
//! A run simulates whole hyperperiods and then drains the carryover:
//! completions that trail past the last boundary, and the DYN frames
//! still buffered there or made ready later, which go out in the
//! dynamic segments of the following hyperperiods.
//!
//! The engine is one dispatch over a closed set of handlers: every
//! wake-up drawn from the time-ordered queue names its handler by its
//! kind. Activation tokens, SCS starts and finishes and ST deliveries
//! go to the shared job bookkeeping, an FPS completion to the CPU of
//! its node, a dynamic slot to the dynamic-segment arbiter of its
//! cluster. Same-instant wake-ups follow the explicit policy below. On
//! top of the dispatch sit seeded **fuzzed execution orders**
//! ([`ExecutionOrder`]) for exploring the unspecified mutual order of
//! simultaneous events, and exact **hyperperiod compression**
//! ([`SimConfig::compress`]) that detects repeating boundary states and
//! fast-forwards over proven cycles.
//!
//! ## Same-instant ordering policy
//!
//! All wake-ups scheduled for the same instant are serviced in four
//! *phases*, in this normative order:
//!
//! 1. **Deliver** — everything that *finishes* at `t` becomes visible:
//!    SCS task finishes, ST frame deliveries, DYN frame deliveries, FPS
//!    completion projections. A frame finishing exactly when a dynamic
//!    slot starts is in the CHI buffer for that slot.
//! 2. **Release** — activation tokens for jobs released at `t`.
//! 3. **Audit** — SCS task *starts* are audited against the readiness
//!    the first two phases established.
//! 4. **Arbitrate** — dynamic slot boundaries arbitrate over the CHI
//!    contents that the Deliver phase completed.
//!
//! The phase order encodes protocol causality and is **never** fuzzed.
//! *Within* a phase the canonical order is by kind, then by the
//! activity/instance coordinates (a dynamic slot's hyperperiod, cycle,
//! frame id and minislot counter), then by cluster (two clusters'
//! dynamic slots can share every coordinate, so the order is total);
//! `tests/sim_pin.rs` pins the reports this order produces. A fuzzed
//! run permutes each within-phase span with a deterministic, stateless
//! permutation instead ([`ExecutionOrder::Fuzzed`]), because the
//! protocol does not specify the mutual order of same-instant wake-ups
//! inside one phase.
//!
//! A wake-up may raise *immediates* — a ready FPS job arriving at its
//! CPU, a ready DYN frame entering its CHI buffer. They are zero-latency
//! notifications, drained in the order they were raised before the
//! next queued wake-up, and never reordered: they model synchronous
//! intra-instant causality, not simultaneity.
//!
//! ## Example
//!
//! ```
//! use flexray_analysis::{analyse, AnalysisConfig};
//! use flexray_model::*;
//! use flexray_sim::simulate_default;
//!
//! let mut app = Application::new();
//! let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
//! let a = app.add_task(g, "a", NodeId::new(0), Time::from_us(10.0), SchedPolicy::Scs, 0);
//! let b = app.add_task(g, "b", NodeId::new(1), Time::from_us(5.0), SchedPolicy::Scs, 0);
//! let m = app.add_message(g, "m", 8, MessageClass::Static, 0);
//! app.connect(a, m, b)?;
//! let mut bus = BusConfig::new(PhyParams::unit());
//! bus.static_slot_len = Time::from_us(10.0);
//! bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
//! let sys = System::validated(Platform::with_nodes(2), app, bus)?;
//!
//! let report = simulate_default(&sys)?;
//! let analysis = analyse(&sys, &AnalysisConfig::default())?;
//! assert!(report.audit(&sys, &analysis).findings.is_empty());
//! # Ok::<(), ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod audit;
mod cpu;
mod dyn_segment;
mod engine;
mod event;
mod kernel;

pub use audit::{Audit, Finding};
pub use engine::{
    simulate, simulate_configured, simulate_default, ExecutionOrder, SimConfig, SimReport,
};
