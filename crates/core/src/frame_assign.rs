//! Frame-identifier assignment for dynamic messages (Fig. 5, line 1).
//!
//! Each dynamic message receives a unique frame identifier (avoiding
//! `hp(m)` delays), and messages of higher criticality — smaller
//! `CP_m = D_m − LP_m`, Eq. (4) — receive smaller identifiers (reducing
//! `lf(m)`/`ms(m)` delays).

use flexray_analysis::longest_path_from_source;
use flexray_model::{
    ActivityId, Application, BusConfig, FrameId, MessageClass, Platform, SystemView,
};
use std::collections::BTreeMap;

/// Assigns unique frame identifiers to all dynamic messages of `app`,
/// ordered by increasing `CP_m = D_m − LP_m` (most critical first).
///
/// Ties break on activity id for determinism.
#[must_use]
pub fn assign_frame_ids_by_criticality(
    platform: &Platform,
    app: &Application,
    bus_template: &BusConfig,
) -> BTreeMap<ActivityId, FrameId> {
    criticality_frame_ids(platform, app, bus_template, |_| true)
}

/// [`assign_frame_ids_by_criticality`] over the dynamic messages
/// `selected` keeps: dense identifiers from 1, in the same criticality
/// order.
pub(crate) fn criticality_frame_ids(
    platform: &Platform,
    app: &Application,
    bus_template: &BusConfig,
    selected: impl Fn(ActivityId) -> bool,
) -> BTreeMap<ActivityId, FrameId> {
    // Longest paths need message durations, which need a bus: use the
    // template's physical layer (identifier order only depends on
    // relative criticality, which is insensitive to the exact slot
    // layout).
    let lp = longest_path_from_source(SystemView::new(platform, app, bus_template));
    let mut msgs: Vec<ActivityId> = app
        .messages_of_class(MessageClass::Dynamic)
        .filter(|&m| selected(m))
        .collect();
    msgs.sort_by_key(|&m| (app.deadline_of(m) - lp[m.index()], m.index()));
    msgs.iter()
        .enumerate()
        .map(|(i, &m)| {
            (
                m,
                FrameId::new(u16::try_from(i + 1).expect("fewer than 65535 dyn messages")),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::*;

    #[test]
    fn critical_messages_get_small_ids() {
        let mut app = Application::new();
        // Tight graph: deadline 50
        let g1 = app.add_graph("tight", Time::from_us(1000.0), Time::from_us(50.0));
        let a1 = app.add_task(
            g1,
            "a1",
            NodeId::new(0),
            Time::from_us(1.0),
            SchedPolicy::Fps,
            1,
        );
        let b1 = app.add_task(
            g1,
            "b1",
            NodeId::new(1),
            Time::from_us(1.0),
            SchedPolicy::Fps,
            1,
        );
        let m_tight = app.add_message(g1, "m_tight", 4, MessageClass::Dynamic, 1);
        app.connect(a1, m_tight, b1).expect("edges");
        // Loose graph: deadline 900
        let g2 = app.add_graph("loose", Time::from_us(1000.0), Time::from_us(900.0));
        let a2 = app.add_task(
            g2,
            "a2",
            NodeId::new(0),
            Time::from_us(1.0),
            SchedPolicy::Fps,
            1,
        );
        let b2 = app.add_task(
            g2,
            "b2",
            NodeId::new(1),
            Time::from_us(1.0),
            SchedPolicy::Fps,
            1,
        );
        let m_loose = app.add_message(g2, "m_loose", 4, MessageClass::Dynamic, 1);
        app.connect(a2, m_loose, b2).expect("edges");

        let platform = Platform::with_nodes(2);
        let bus = BusConfig::new(PhyParams::bmw_like());
        let ids = assign_frame_ids_by_criticality(&platform, &app, &bus);
        assert_eq!(ids[&m_tight], FrameId::new(1));
        assert_eq!(ids[&m_loose], FrameId::new(2));
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn identifiers_are_unique_and_dense() {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(1000.0), Time::from_us(800.0));
        let mut msgs = Vec::new();
        for i in 0..5 {
            let s = app.add_task(
                g,
                &format!("s{i}"),
                NodeId::new(0),
                Time::from_us(1.0),
                SchedPolicy::Fps,
                1,
            );
            let r = app.add_task(
                g,
                &format!("r{i}"),
                NodeId::new(1),
                Time::from_us(1.0),
                SchedPolicy::Fps,
                1,
            );
            let m = app.add_message(g, &format!("m{i}"), 4, MessageClass::Dynamic, 1);
            app.connect(s, m, r).expect("edges");
            msgs.push(m);
        }
        let ids = assign_frame_ids_by_criticality(
            &Platform::with_nodes(2),
            &app,
            &BusConfig::new(PhyParams::bmw_like()),
        );
        let mut numbers: Vec<u16> = ids.values().map(|f| f.number()).collect();
        numbers.sort_unstable();
        assert_eq!(numbers, vec![1, 2, 3, 4, 5]);
    }
}
