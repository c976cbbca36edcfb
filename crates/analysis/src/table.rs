//! The static schedule table produced by the list scheduler.
//!
//! The table fixes, over one hyperperiod, the start time of every SCS
//! task instance on its node and the (cycle, slot, in-frame offset) of
//! every ST message instance on the bus — the `schedule table` each CPU
//! holds in Fig. 1 of the paper.

use flexray_model::{ActivityId, NodeId, SlotId, Time};

/// One scheduled instance of an SCS task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskEntry {
    /// The task.
    pub activity: ActivityId,
    /// Instance number `k` within the hyperperiod (activation `k·T`).
    pub instance: i64,
    /// Node executing the instance.
    pub node: NodeId,
    /// Absolute start time within the table.
    pub start: Time,
    /// Absolute completion time (`start + wcet`, non-preemptive).
    pub finish: Time,
}

/// One scheduled instance of an ST message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageEntry {
    /// The message.
    pub activity: ActivityId,
    /// Instance number `k` within the hyperperiod.
    pub instance: i64,
    /// Bus cycle (0-based) in which the frame is sent.
    pub cycle: i64,
    /// Static slot carrying the frame.
    pub slot: SlotId,
    /// Transmission start within the table (slot start + packing offset).
    pub tx_start: Time,
    /// End of the transmission itself.
    pub tx_end: Time,
    /// End of the carrying slot — the instant the receiver CHI exposes
    /// the data (slot-end delivery, matching Fig. 3 of the paper).
    pub slot_end: Time,
}

/// The complete static schedule over one hyperperiod.
#[derive(Debug, Clone, Default)]
pub struct ScheduleTable {
    horizon: Time,
    tasks: Vec<TaskEntry>,
    messages: Vec<MessageEntry>,
    overflowed: Vec<ActivityId>,
}

impl ScheduleTable {
    /// Creates an empty table covering `horizon`.
    #[must_use]
    pub fn new(horizon: Time) -> Self {
        ScheduleTable {
            horizon,
            tasks: Vec::new(),
            messages: Vec::new(),
            overflowed: Vec::new(),
        }
    }

    /// The table length (application hyperperiod).
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Clears all entries and re-targets the table at `horizon`, keeping
    /// the allocations for reuse across builds.
    pub(crate) fn reset(&mut self, horizon: Time) {
        self.horizon = horizon;
        self.tasks.clear();
        self.messages.clear();
        self.overflowed.clear();
    }

    /// All SCS task entries in scheduling order.
    #[must_use]
    pub fn tasks(&self) -> &[TaskEntry] {
        &self.tasks
    }

    /// All ST message entries in scheduling order.
    #[must_use]
    pub fn messages(&self) -> &[MessageEntry] {
        &self.messages
    }

    /// Activities that could not be placed inside the horizon (their
    /// entries carry synthetic finish times past the horizon so the cost
    /// function still gets a graded value).
    #[must_use]
    pub fn overflowed(&self) -> &[ActivityId] {
        &self.overflowed
    }

    /// `true` if every instance fitted inside the horizon.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.overflowed.is_empty()
    }

    /// Records a task instance.
    pub fn push_task(&mut self, entry: TaskEntry) {
        self.tasks.push(entry);
    }

    /// Records a message instance.
    pub fn push_message(&mut self, entry: MessageEntry) {
        self.messages.push(entry);
    }

    /// Marks an activity as not placeable within the horizon.
    pub fn mark_overflow(&mut self, activity: ActivityId) {
        if !self.overflowed.contains(&activity) {
            self.overflowed.push(activity);
        }
    }

    /// Completion time of a specific activity instance: task finish or
    /// message slot end.
    #[must_use]
    pub fn finish_of(&self, activity: ActivityId, instance: i64) -> Option<Time> {
        self.tasks
            .iter()
            .find(|e| e.activity == activity && e.instance == instance)
            .map(|e| e.finish)
            .or_else(|| {
                self.messages
                    .iter()
                    .find(|e| e.activity == activity && e.instance == instance)
                    .map(|e| e.slot_end)
            })
    }

    /// Worst response time of a time-triggered activity over all its
    /// instances: `max_k (finish_k − k·period)`.
    #[must_use]
    pub fn response_of(&self, activity: ActivityId, period: Time) -> Option<Time> {
        let mut worst: Option<Time> = None;
        for e in self.tasks.iter().filter(|e| e.activity == activity) {
            let r = e.finish - period * e.instance;
            worst = Some(worst.map_or(r, |w: Time| w.max(r)));
        }
        for e in self.messages.iter().filter(|e| e.activity == activity) {
            let r = e.slot_end - period * e.instance;
            worst = Some(worst.map_or(r, |w: Time| w.max(r)));
        }
        worst
    }

    /// The CPU busy windows of one node (sorted, non-overlapping):
    /// the SCS task executions scheduled on it.
    #[must_use]
    pub fn busy_windows(&self, node: NodeId) -> Vec<(Time, Time)> {
        let mut windows = Vec::new();
        self.busy_windows_into(node, &mut windows);
        windows
    }

    /// [`ScheduleTable::busy_windows`] written into `out`, reusing its
    /// buffer.
    pub(crate) fn busy_windows_into(&self, node: NodeId, out: &mut Vec<(Time, Time)>) {
        out.clear();
        out.extend(
            self.tasks
                .iter()
                .filter(|e| e.node == node && e.start < self.horizon)
                .map(|e| (e.start, e.finish)),
        );
        out.sort_unstable();
        merge_windows(out);
    }
}

/// Merges the touching/overlapping windows of a sorted list in place.
pub(crate) fn merge_windows(windows: &mut Vec<(Time, Time)>) {
    windows.dedup_by(|next, last| {
        let touches = next.0 <= last.1;
        if touches {
            last.1 = last.1.max(next.1);
        }
        touches
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(act: usize, inst: i64, node: usize, start: f64, finish: f64) -> TaskEntry {
        TaskEntry {
            activity: ActivityId::new(act),
            instance: inst,
            node: NodeId::new(node),
            start: Time::from_us(start),
            finish: Time::from_us(finish),
        }
    }

    #[test]
    fn finish_and_response() {
        let mut t = ScheduleTable::new(Time::from_us(100.0));
        t.push_task(entry(0, 0, 0, 0.0, 10.0));
        t.push_task(entry(0, 1, 0, 55.0, 65.0));
        assert_eq!(
            t.finish_of(ActivityId::new(0), 1),
            Some(Time::from_us(65.0))
        );
        // responses: 10 and 65-50=15
        assert_eq!(
            t.response_of(ActivityId::new(0), Time::from_us(50.0)),
            Some(Time::from_us(15.0))
        );
        assert_eq!(t.response_of(ActivityId::new(9), Time::from_us(50.0)), None);
    }

    #[test]
    fn message_entries_report_slot_end() {
        let mut t = ScheduleTable::new(Time::from_us(100.0));
        t.push_message(MessageEntry {
            activity: ActivityId::new(2),
            instance: 0,
            cycle: 1,
            slot: SlotId::new(2),
            tx_start: Time::from_us(15.0),
            tx_end: Time::from_us(17.0),
            slot_end: Time::from_us(20.0),
        });
        assert_eq!(
            t.finish_of(ActivityId::new(2), 0),
            Some(Time::from_us(20.0))
        );
        assert_eq!(
            t.response_of(ActivityId::new(2), Time::from_us(100.0)),
            Some(Time::from_us(20.0))
        );
    }

    #[test]
    fn busy_windows_merge_and_sort() {
        let mut t = ScheduleTable::new(Time::from_us(100.0));
        t.push_task(entry(0, 0, 0, 20.0, 30.0));
        t.push_task(entry(1, 0, 0, 0.0, 10.0));
        t.push_task(entry(2, 0, 0, 10.0, 15.0)); // touches previous
        t.push_task(entry(3, 0, 1, 0.0, 50.0)); // other node
        let w = t.busy_windows(NodeId::new(0));
        assert_eq!(
            w,
            vec![
                (Time::ZERO, Time::from_us(15.0)),
                (Time::from_us(20.0), Time::from_us(30.0)),
            ]
        );
    }

    #[test]
    fn overflow_tracking() {
        let mut t = ScheduleTable::new(Time::from_us(10.0));
        assert!(t.is_feasible());
        t.mark_overflow(ActivityId::new(4));
        t.mark_overflow(ActivityId::new(4));
        assert_eq!(t.overflowed().len(), 1);
        assert!(!t.is_feasible());
    }

    #[test]
    fn windows_exclude_entries_past_horizon() {
        let mut t = ScheduleTable::new(Time::from_us(10.0));
        t.push_task(entry(0, 0, 0, 12.0, 14.0)); // synthetic overflow entry
        assert!(t.busy_windows(NodeId::new(0)).is_empty());
    }
}
