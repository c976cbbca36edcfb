//! Reusable analysis session: the holistic fixed point with all of its
//! scratch state hoisted out of the per-call path.
//!
//! Every optimiser in the paper (BBC Fig. 5, OBC Fig. 6, the SA
//! baseline) spends essentially all of its time calling the holistic
//! analysis on candidate bus configurations over one fixed
//! platform/application pair. A plain [`analyse`](crate::analyse) call
//! re-derives the application facts (hyperperiod, topological order,
//! list-scheduler priorities and job order) and re-allocates every
//! buffer (schedule table, response/jitter vectors, availabilities) from
//! scratch. An [`AnalysisSession`] owns all of that across calls:
//!
//! * [`AnalysisSession::analyse_into`] analyses a *borrowed* candidate
//!   [`BusConfig`] into the session buffers — no `System` clone; the
//!   schedule table, response vectors and per-node availabilities are
//!   refilled in place;
//! * [`AnalysisSession::reanalyse_dyn_length`] re-analyses the last
//!   candidate with only the dynamic-segment length changed — the exact
//!   shape of the DYN-length sweeps — without touching the rest of the
//!   configuration;
//! * when the application has no static messages and no time-triggered
//!   activity depends on an event-triggered one, the static schedule is
//!   provably independent of the bus configuration (message placement is
//!   the only point where the scheduler consults `gdCycle`), so the
//!   session caches the schedule table, the per-node availabilities and
//!   the time-triggered responses outright and only re-runs the
//!   event-triggered fixed point per candidate;
//! * every event-triggered `local` response — an FPS busy window or a
//!   DYN-message delay — is memoised per activity. It reads the jitter
//!   of its interference set only through arrival counts
//!   `⌈max(t + J, 0)/T⌉` at the busy-window steps it visits, so it is a
//!   pure function of the counts it read, not of the exact jitter. The
//!   memo keeps, per member, the [`JitterSpan`] over which those counts
//!   stay put, and recomputes only when a jitter leaves its span.
//!
//! Results are bit-identical to [`analyse`](crate::analyse): the session
//! only skips work it can prove is input-independent, never approximates.
//! Debug builds re-run the local response on every memo hit and assert
//! the same result.

use crate::availability::Availability;
use crate::cost::{cost_of, Cost};
use crate::dyn_msg::{dyn_delay_with, hp_messages, lf_messages, DynScratch};
use crate::fps::{fps_local_response_with, hp_tasks};
use crate::holistic::{Analysis, AnalysisConfig};
use crate::scheduler::{ScheduleBuilder, ScsPlacement};
use crate::table::ScheduleTable;
use flexray_model::{
    ActivityId, Application, BusConfig, FrameId, MessageClass, ModelError, PhyParams, Platform,
    SchedPolicy, SystemView, Time,
};
use std::collections::BTreeMap;

/// Application-derived facts that no candidate bus can change.
#[derive(Debug)]
struct Prep {
    horizon: Time,
    max_deadline: Time,
    topo: Vec<ActivityId>,
    /// Does any time-triggered activity depend on an event-triggered
    /// one? Decides whether the outer (table ↔ ET) loop iterates.
    tt_needs_et: bool,
    /// With no static messages and no TT←ET dependency the static
    /// schedule cannot depend on the bus configuration (only the
    /// physical layer, through durations).
    static_is_bus_independent: bool,
    /// Higher-priority set of every FPS task (`hp(i)` of the busy-window
    /// analysis), indexed by activity; empty for everything else.
    hp_tasks: Vec<Vec<ActivityId>>,
}

/// The complete mutable state of one holistic analysis, reusable across
/// calls. [`analyse`](crate::analyse) runs a fresh one per call; an
/// [`AnalysisSession`] keeps it alive.
#[derive(Debug)]
pub(crate) struct SessionState {
    prep: Option<Prep>,
    builder: ScheduleBuilder,
    pub(crate) table: ScheduleTable,
    pub(crate) responses: Vec<Time>,
    pub(crate) diverged: Vec<ActivityId>,
    pub(crate) cost: Cost,
    earliest: Vec<Time>,
    jitter: Vec<Time>,
    diverged_next: Vec<ActivityId>,
    avails: Vec<Availability>,
    /// One node's merged busy windows, on their way into `avails`.
    windows: Vec<(Time, Time)>,
    /// Key of the cached static side (table, availabilities,
    /// `responses_init`): set only when `static_is_bus_independent`.
    static_key: Option<(PhyParams, ScsPlacement)>,
    /// Snapshot of the response vector right after the (cached) static
    /// build: durations with TT table responses applied.
    responses_init: Vec<Time>,
    /// Frame-identifier assignment the DYN interference sets were
    /// derived for.
    dyn_sets_key: Option<BTreeMap<ActivityId, FrameId>>,
    /// Per-activity `(hp(m), lf(m))` of the DYN-message analysis; empty
    /// for non-messages.
    dyn_sets: Vec<(Vec<ActivityId>, Vec<ActivityId>)>,
    /// Per-activity memo of the expensive `local` response: an FPS
    /// task's busy-window result is a pure function of its node
    /// availability and the arrival counts it read of its `hp` set; a
    /// DYN message's delay is a pure function of the bus and the
    /// arrival counts it read of `hp(m) ∪ lf(m)`. Jitters that read the
    /// same counts skip the fixed-point body — across inner iterations,
    /// and across candidates while the cached static side stays valid.
    et_memo: Vec<EtMemo>,
    /// Bumped whenever the availabilities are rebuilt (invalidates FPS
    /// memos).
    avail_stamp: u64,
    /// Bumped on every analysed candidate (invalidates DYN memos, whose
    /// delay depends on the bus configuration itself).
    bus_stamp: u64,
    /// Pool/packing/DP scratch of the DYN busy-window fixed point,
    /// reused across messages, fixed-point iterations and candidates so
    /// DYN-length sweeps run with zero steady-state allocation.
    dyn_scratch: DynScratch,
    /// Generation of the scratch's per-message pool skeletons: bumped
    /// whenever the frame assignment or the physical layer changes (the
    /// only inputs a skeleton depends on besides the application).
    skel_gen: u64,
    /// Physical layer the current skeleton generation was derived for.
    skel_phy: Option<PhyParams>,
    /// Work counters of the event-triggered fixed point.
    et_stats: EtStats,
}

/// One entry of the event-triggered response memo.
///
/// A local response reads the jitter `J` of its interference set only
/// through arrival counts `⌈max(t + J, 0)/T⌉` at the busy-window steps
/// it visits, so it is a pure function of the counts it read, not of
/// the exact jitter. Each count pins `J` to an interval, and the memo
/// keeps their intersection per member: any jitter inside every
/// member's [`JitterSpan`] reads the same counts and so gets the same
/// result.
#[derive(Debug, Clone, Default)]
struct EtMemo {
    /// `avail_stamp` (tasks) or `bus_stamp` (messages) at compute time.
    stamp: u64,
    /// Per interference-set member, the jitters that read the same
    /// arrival counts as the ones the result was computed under.
    spans: Vec<JitterSpan>,
    /// The memoised `local` response (`None` = diverged).
    result: Option<Time>,
    /// False until first computed.
    valid: bool,
}

/// A half-open jitter interval `(lo, hi]` of one interference-set
/// member: the jitters under which every arrival count a local response
/// read of that member stays the same. Reads narrow it; a member never
/// read keeps [`JitterSpan::ANY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JitterSpan {
    lo: Time,
    hi: Time,
}

impl JitterSpan {
    /// `(−∞, ∞)`: nothing read yet.
    pub(crate) const ANY: JitterSpan = JitterSpan {
        lo: Time::from_ns(i64::MIN),
        hi: Time::MAX,
    };

    /// `true` when `jitter` lies in `(lo, hi]`.
    pub(crate) fn contains(self, jitter: Time) -> bool {
        self.lo < jitter && jitter <= self.hi
    }

    /// Reads the arrival count `a = ⌈max(t + jitter, 0)/period⌉` of a
    /// busy window of length `t`, narrowing the span to the jitters with
    /// the same count: `((a−1)T − t, aT − t]`, or `(−∞, −t]` for `a = 0`.
    pub(crate) fn arrivals(&mut self, t: Time, jitter: Time, period: Time) -> i64 {
        let a = (t + jitter).clamp_non_negative().div_ceil(period);
        if a == 0 {
            self.hi = self.hi.min(-t);
        } else {
            self.lo = self.lo.max(period * (a - 1) - t);
            self.hi = self.hi.min(period * a - t);
        }
        a
    }

    /// Reads whether an instance is pending at window `t` (`t + jitter
    /// > 0`, a non-zero arrival count), narrowing the span only to the
    /// jitters on the same side of `−t`.
    pub(crate) fn pending(&mut self, t: Time, jitter: Time) -> bool {
        let pending = t + jitter > Time::ZERO;
        if pending {
            self.lo = self.lo.max(-t);
        } else {
            self.hi = self.hi.min(-t);
        }
        pending
    }

    /// The span's `(lo, hi]` bounds.
    #[cfg(test)]
    pub(crate) fn bounds(self) -> (Time, Time) {
        (self.lo, self.hi)
    }
}

/// Work counters of the event-triggered fixed point, summed over every
/// analysis of one [`AnalysisSession`]. Deterministic, and identical in
/// debug and release builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EtStats {
    /// FPS local responses computed (ET-memo misses on tasks).
    pub fps_runs: u64,
    /// DYN-message delays computed (ET-memo misses on messages).
    pub dyn_runs: u64,
    /// Local responses the ET memo answered.
    pub memo_hits: u64,
    /// Iterations of the inner (event-triggered) fixed point.
    pub inner_iters: u64,
    /// Inner fixed points that stopped at
    /// [`AnalysisConfig::max_inner_iters`] without converging.
    pub inner_cap_hits: u64,
}

impl Default for SessionState {
    fn default() -> Self {
        SessionState {
            prep: None,
            builder: ScheduleBuilder::default(),
            table: ScheduleTable::default(),
            responses: Vec::new(),
            diverged: Vec::new(),
            cost: Cost::infeasible(),
            earliest: Vec::new(),
            jitter: Vec::new(),
            diverged_next: Vec::new(),
            avails: Vec::new(),
            windows: Vec::new(),
            static_key: None,
            responses_init: Vec::new(),
            dyn_sets_key: None,
            dyn_sets: Vec::new(),
            et_memo: Vec::new(),
            avail_stamp: 0,
            bus_stamp: 0,
            dyn_scratch: DynScratch::default(),
            skel_gen: 1,
            skel_phy: None,
            et_stats: EtStats::default(),
        }
    }
}

impl EtMemo {
    /// `true` when the memoised result was computed under `stamp` and
    /// every current jitter of the (concatenated) interference sets lies
    /// in its member's span.
    fn hit(&self, stamp: u64, set_a: &[ActivityId], set_b: &[ActivityId], jitter: &[Time]) -> bool {
        if !self.valid || self.stamp != stamp || self.spans.len() != set_a.len() + set_b.len() {
            return false;
        }
        set_a
            .iter()
            .chain(set_b)
            .zip(&self.spans)
            .all(|(&j, span)| span.contains(jitter[j.index()]))
    }
}

/// The `local` response of event-triggered activity `id`: its FPS busy
/// window (interference set `set_a` = `hp`) or its DYN delay plus
/// transmission time (`set_a` = `hp(m)`, `set_b` = `lf(m)`). Narrows
/// `spans` (one per member of `set_a ++ set_b`) on every arrival count
/// it reads.
#[allow(clippy::too_many_arguments)]
fn local_response(
    sys: SystemView<'_>,
    cfg: &AnalysisConfig,
    avails: &[Availability],
    id: ActivityId,
    set_a: &[ActivityId],
    set_b: &[ActivityId],
    jitter: &[Time],
    limit: Time,
    scratch: &mut DynScratch,
    spans: &mut [JitterSpan],
) -> Option<Time> {
    match &sys.app.activity(id).kind {
        flexray_model::ActivityKind::Task(t) => {
            debug_assert_eq!(t.policy, SchedPolicy::Fps);
            fps_local_response_with(
                sys,
                &avails[t.node.index()],
                id,
                set_a,
                jitter,
                limit,
                spans,
            )
        }
        flexray_model::ActivityKind::Message(m) => {
            debug_assert_eq!(m.class, MessageClass::Dynamic);
            dyn_delay_with(
                sys,
                id,
                set_a,
                set_b,
                jitter,
                cfg.latest_tx,
                cfg.dyn_mode,
                limit,
                scratch,
                spans,
            )
            .map(|w| w + sys.comm_time(id))
        }
    }
}

impl SessionState {
    /// Moves the buffers out into an owned [`Analysis`].
    pub(crate) fn into_analysis(self) -> Analysis {
        Analysis {
            responses: self.responses,
            diverged: self.diverged,
            table: self.table,
            cost: self.cost,
        }
    }

    /// Clones the buffers into an owned [`Analysis`].
    pub(crate) fn snapshot(&self) -> Analysis {
        Analysis {
            responses: self.responses.clone(),
            diverged: self.diverged.clone(),
            table: self.table.clone(),
            cost: self.cost,
        }
    }
}

/// Runs the complete holistic analysis of `sys` into `st`, reusing
/// whatever `st` already holds. The algorithm is the one documented on
/// [`analyse`](crate::analyse); see the module docs for what is cached.
pub(crate) fn analyse_core(
    sys: SystemView<'_>,
    cfg: &AnalysisConfig,
    st: &mut SessionState,
) -> Result<(), ModelError> {
    let n = sys.app.activities().len();
    if st.prep.is_none() {
        let horizon = sys.hyperperiod()?;
        let max_deadline = sys
            .app
            .ids()
            .map(|id| sys.app.deadline_of(id))
            .max()
            .unwrap_or(horizon);
        let topo = sys.app.topological_order()?;
        let tt_needs_et = sys.app.ids().any(|id| {
            sys.app.activity(id).is_time_triggered()
                && sys
                    .app
                    .preds(id)
                    .iter()
                    .any(|&p| !sys.app.activity(p).is_time_triggered())
        });
        let has_st_messages = sys
            .app
            .messages_of_class(MessageClass::Static)
            .next()
            .is_some();
        let hp = sys
            .app
            .ids()
            .map(|id| {
                let is_fps = sys
                    .app
                    .activity(id)
                    .as_task()
                    .is_some_and(|t| t.policy == SchedPolicy::Fps);
                if is_fps {
                    hp_tasks(sys, id)
                } else {
                    Vec::new()
                }
            })
            .collect();
        st.prep = Some(Prep {
            horizon,
            max_deadline,
            topo,
            tt_needs_et,
            static_is_bus_independent: !has_st_messages && !tt_needs_et,
            hp_tasks: hp,
        });
    }
    // DYN interference sets depend only on the frame-identifier
    // assignment; refresh them when it changes. The scratch's pool
    // skeletons additionally depend on the physical layer, so their
    // generation moves with either; its cycle-selection memo lives for
    // one candidate.
    if st.dyn_sets_key.as_ref() != Some(&sys.bus.frame_ids) {
        st.dyn_sets.clear();
        st.dyn_sets.resize(n, (Vec::new(), Vec::new()));
        for m in sys.app.messages_of_class(MessageClass::Dynamic) {
            st.dyn_sets[m.index()] = (hp_messages(sys, m), lf_messages(sys, m));
        }
        st.dyn_sets_key = Some(sys.bus.frame_ids.clone());
        st.skel_gen = st.skel_gen.wrapping_add(1);
    }
    if st.skel_phy != Some(sys.bus.phy) {
        st.skel_phy = Some(sys.bus.phy);
        st.skel_gen = st.skel_gen.wrapping_add(1);
    }
    st.dyn_scratch.begin_candidate(st.skel_gen);
    // Every analysed candidate may carry a different bus: DYN-message
    // memos (whose delay reads the bus directly) start cold, FPS memos
    // survive for as long as the availabilities they were computed
    // against (see `avail_stamp`).
    st.bus_stamp = st.bus_stamp.wrapping_add(1);
    if st.et_memo.len() != n {
        st.et_memo.clear();
        st.et_memo.resize_with(n, EtMemo::default);
    }
    let prep = st.prep.as_ref().expect("prep just ensured");
    let horizon = prep.horizon;
    let limit = horizon
        .max(prep.max_deadline)
        .saturating_mul(cfg.divergence_factor);
    let tt_needs_et = prep.tt_needs_et;
    let outer_iters = if tt_needs_et { cfg.max_outer_iters } else { 1 };
    let static_cached = prep.static_is_bus_independent
        && st.static_key == Some((sys.bus.phy, cfg.scs_placement))
        && st.responses_init.len() == n;

    // Initial completion bounds: just the durations (skipped when the
    // cached static side already embeds them).
    st.responses.clear();
    if static_cached {
        st.responses.extend_from_slice(&st.responses_init);
    } else {
        st.responses
            .extend(sys.app.ids().map(|id| sys.duration_of(id)));
        st.static_key = None;
    }
    st.diverged.clear();
    if outer_iters == 0 {
        // Degenerate configuration (max_outer_iters = 0 with TT←ET
        // dependencies): no schedule is built, matching the one-shot
        // behaviour of an empty table over the horizon.
        st.table.reset(horizon);
        st.avails.clear();
        st.static_key = None;
    }

    for _outer in 0..outer_iters {
        st.diverged.clear();
        if !static_cached {
            st.builder
                .build_into(sys, &st.responses, cfg.scs_placement, &mut st.table)?;

            // Time-triggered responses straight from the table.
            for id in sys.app.ids() {
                if sys.app.activity(id).is_time_triggered() {
                    let period = sys.app.period_of(id);
                    if let Some(r) = st.table.response_of(id, period) {
                        st.responses[id.index()] = r;
                    }
                }
            }

            // Per-node availability (slack of the static schedule),
            // refilled in place.
            st.avails
                .resize_with(sys.platform.len(), || Availability::idle(horizon));
            for (node, avail) in sys.platform.nodes().zip(&mut st.avails) {
                st.table.busy_windows_into(node, &mut st.windows);
                avail.refill(horizon, &st.windows);
            }
            st.avail_stamp = st.avail_stamp.wrapping_add(1);

            if st.prep.as_ref().expect("prep").static_is_bus_independent {
                st.static_key = Some((sys.bus.phy, cfg.scs_placement));
                st.responses_init.clear();
                st.responses_init.extend_from_slice(&st.responses);
            }
        }

        // Earliest (contention-free) completion of every activity,
        // topologically: time-triggered activities finish exactly at
        // their table time (zero variability); event-triggered ones at
        // earliest-release + duration.
        st.earliest.clear();
        st.earliest.resize(n, Time::ZERO);
        for &id in &st.prep.as_ref().expect("prep").topo {
            let a = sys.app.activity(id);
            let ready = sys
                .app
                .preds(id)
                .iter()
                .map(|&p| st.earliest[p.index()])
                .max()
                .unwrap_or(Time::ZERO)
                .max(a.release);
            st.earliest[id.index()] = if a.is_time_triggered() {
                st.responses[id.index()].max(ready)
            } else {
                ready + sys.duration_of(id)
            };
        }

        // Event-triggered fixed point. Interference uses release
        // *variability* (worst ready − earliest ready), the classical
        // holistic jitter — using the full predecessor response would
        // double-count the chain offsets and blow up with depth.
        st.jitter.clear();
        st.jitter.resize(n, Time::ZERO);
        let mut converged = false;
        for _inner in 0..cfg.max_inner_iters {
            st.et_stats.inner_iters += 1;
            for id in sys.app.ids() {
                let a = sys.app.activity(id);
                let worst_ready = sys
                    .app
                    .preds(id)
                    .iter()
                    .map(|&p| st.responses[p.index()])
                    .max()
                    .unwrap_or(Time::ZERO)
                    .max(a.release);
                let earliest_ready = sys
                    .app
                    .preds(id)
                    .iter()
                    .map(|&p| st.earliest[p.index()])
                    .max()
                    .unwrap_or(Time::ZERO)
                    .max(a.release);
                st.jitter[id.index()] = (worst_ready - earliest_ready).clamp_non_negative();
            }
            let mut changed = false;
            st.diverged_next.clear();
            for id in sys.app.ids() {
                let a = sys.app.activity(id);
                if a.is_time_triggered() {
                    continue;
                }
                let worst_ready = sys
                    .app
                    .preds(id)
                    .iter()
                    .map(|&p| st.responses[p.index()])
                    .max()
                    .unwrap_or(Time::ZERO)
                    .max(a.release);
                // The expensive `local` response is a pure function of
                // the arrival counts it reads (plus the stamped
                // environment): recompute only when a jitter of the
                // interference set leaves its memoised span.
                let (stamp, set_a, set_b): (u64, &[ActivityId], &[ActivityId]) = match &a.kind {
                    flexray_model::ActivityKind::Task(_) => (
                        st.avail_stamp,
                        &st.prep.as_ref().expect("prep").hp_tasks[id.index()],
                        &[],
                    ),
                    flexray_model::ActivityKind::Message(_) => {
                        let (hp, lf) = &st.dyn_sets[id.index()];
                        (st.bus_stamp, hp, lf)
                    }
                };
                let memo = &mut st.et_memo[id.index()];
                let local = if memo.hit(stamp, set_a, set_b, &st.jitter) {
                    st.et_stats.memo_hits += 1;
                    #[cfg(debug_assertions)]
                    {
                        // A fresh scratch and throwaway spans keep the
                        // check off every counter and memo.
                        let fresh = local_response(
                            sys,
                            cfg,
                            &st.avails,
                            id,
                            set_a,
                            set_b,
                            &st.jitter,
                            limit,
                            &mut DynScratch::default(),
                            &mut vec![JitterSpan::ANY; set_a.len() + set_b.len()],
                        );
                        assert_eq!(memo.result, fresh, "ET memo hit disagrees");
                    }
                    memo.result
                } else {
                    if a.as_task().is_some() {
                        st.et_stats.fps_runs += 1;
                    } else {
                        st.et_stats.dyn_runs += 1;
                    }
                    memo.spans.clear();
                    memo.spans
                        .resize(set_a.len() + set_b.len(), JitterSpan::ANY);
                    memo.result = local_response(
                        sys,
                        cfg,
                        &st.avails,
                        id,
                        set_a,
                        set_b,
                        &st.jitter,
                        limit,
                        &mut st.dyn_scratch,
                        &mut memo.spans,
                    );
                    memo.stamp = stamp;
                    memo.valid = true;
                    memo.result
                };
                let r = match local {
                    Some(local) => (worst_ready + local).min(limit),
                    None => {
                        st.diverged_next.push(id);
                        limit
                    }
                };
                if r != st.responses[id.index()] {
                    st.responses[id.index()] = r;
                    changed = true;
                }
            }
            std::mem::swap(&mut st.diverged, &mut st.diverged_next);
            if !changed {
                converged = true;
                break;
            }
        }
        if !converged {
            st.et_stats.inner_cap_hits += 1;
        }

        if !tt_needs_et {
            break;
        }
    }

    st.cost = cost_of(sys, &st.responses);
    Ok(())
}

/// A long-lived analysis context over one fixed platform/application
/// pair, evaluating borrowed candidate bus configurations with all
/// scratch state reused across calls.
///
/// ```
/// use flexray_model::*;
/// use flexray_analysis::{AnalysisConfig, AnalysisSession};
///
/// let mut app = Application::new();
/// let g = app.add_graph("g", Time::from_us(200.0), Time::from_us(150.0));
/// let a = app.add_task(g, "a", NodeId::new(0), Time::from_us(10.0), SchedPolicy::Fps, 3);
/// let b = app.add_task(g, "b", NodeId::new(1), Time::from_us(10.0), SchedPolicy::Fps, 3);
/// let m = app.add_message(g, "m", 4, MessageClass::Dynamic, 1);
/// app.connect(a, m, b)?;
///
/// let mut bus = BusConfig::new(PhyParams::unit());
/// bus.n_minislots = 20;
/// bus.frame_ids.insert(m, FrameId::new(1));
///
/// let mut session = AnalysisSession::new(
///     Platform::with_nodes(2), app, AnalysisConfig::default());
/// let cost = session.analyse_into(&bus)?;
/// assert!(cost.is_schedulable());
/// // Sweep the dynamic-segment length without rebuilding anything else.
/// for n in [10, 15, 30] {
///     let _ = session.reanalyse_dyn_length(n)?;
/// }
/// # Ok::<(), ModelError>(())
/// ```
#[derive(Debug)]
pub struct AnalysisSession {
    platform: Platform,
    app: Application,
    cfg: AnalysisConfig,
    state: SessionState,
    last_bus: Option<BusConfig>,
    /// Fixed bus configurations of clusters `1..` when the session
    /// analyses a multi-cluster network; the *candidate* bus passed to
    /// [`AnalysisSession::analyse_into`] is always cluster 0. Empty for
    /// the plain single-bus session. Fixed for the session lifetime —
    /// every cache inside [`SessionState`] is keyed on the candidate
    /// bus only, which stays sound precisely because these never
    /// change.
    extra_buses: Vec<BusConfig>,
    /// Home cluster per activity (see
    /// [`SystemView::with_network`]); empty for single-bus sessions.
    cluster_map: Vec<u16>,
}

impl AnalysisSession {
    /// Creates a session over a fixed platform and application.
    #[must_use]
    pub fn new(platform: Platform, app: Application, cfg: AnalysisConfig) -> Self {
        AnalysisSession {
            platform,
            app,
            cfg,
            state: SessionState::default(),
            last_bus: None,
            extra_buses: Vec::new(),
            cluster_map: Vec::new(),
        }
    }

    /// Creates a session over a multi-cluster network: candidates
    /// passed to [`AnalysisSession::analyse_into`] replace cluster 0's
    /// bus, while `extra_buses` (clusters `1..`) and the per-activity
    /// `cluster_map` stay fixed for the session's lifetime.
    #[must_use]
    pub fn with_network(
        platform: Platform,
        app: Application,
        extra_buses: Vec<BusConfig>,
        cluster_map: Vec<u16>,
        cfg: AnalysisConfig,
    ) -> Self {
        AnalysisSession {
            platform,
            app,
            cfg,
            state: SessionState::default(),
            last_bus: None,
            extra_buses,
            cluster_map,
        }
    }

    /// The platform under analysis.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The application under analysis.
    #[must_use]
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// `(calls, short_circuits)` of the Exact-mode DYN fill bound over
    /// this session's lifetime: how many Exact busy-window computations
    /// ran (ET-memo hits run none), and how many of them the fill bound
    /// resolved without touching the packing DP (see
    /// [`DynScratch::exact_stats`](crate::DynScratch::exact_stats)).
    /// `(0, 0)` under [`DynAnalysisMode::Greedy`](crate::DynAnalysisMode).
    #[must_use]
    pub fn dyn_exact_stats(&self) -> (u64, u64) {
        self.state.dyn_scratch.exact_stats()
    }

    /// `(dp_runs, memo_hits)` of the Exact-mode cycle selections over
    /// this session's lifetime: how many ran the packing DP, and how
    /// many the per-candidate selection memo answered (see
    /// [`DynScratch::select_stats`](crate::DynScratch::select_stats)).
    /// Deterministic work counters; `(0, 0)` under
    /// [`DynAnalysisMode::Greedy`](crate::DynAnalysisMode).
    #[must_use]
    pub fn dyn_select_stats(&self) -> (u64, u64) {
        self.state.dyn_scratch.select_stats()
    }

    /// Work counters of the event-triggered fixed point over this
    /// session's lifetime (see [`EtStats`]).
    #[must_use]
    pub fn et_stats(&self) -> EtStats {
        self.state.et_stats
    }

    /// The analysis configuration applied to every call.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// Analyses a borrowed candidate bus configuration into the session
    /// buffers and returns its cost. Identical in result to
    /// [`analyse`](crate::analyse) over a `System` carrying `bus`.
    ///
    /// The candidate is *not* validated — run
    /// [`BusConfig::validate_for`] first, as the optimisers do.
    ///
    /// # Errors
    ///
    /// Returns an error if the system model itself is inconsistent
    /// (unknown ids, hyperperiod overflow, deadlocked precedence).
    pub fn analyse_into(&mut self, bus: &BusConfig) -> Result<Cost, ModelError> {
        match &mut self.last_bus {
            Some(prev) => prev.clone_from(bus),
            None => self.last_bus = Some(bus.clone()),
        }
        let view = SystemView::with_network(
            &self.platform,
            &self.app,
            bus,
            &self.extra_buses,
            &self.cluster_map,
        );
        analyse_core(view, &self.cfg, &mut self.state)?;
        Ok(self.state.cost)
    }

    /// Re-analyses the last candidate with only the dynamic-segment
    /// length changed to `n_minislots` — the candidate loop of the
    /// DYN-length sweeps. Nothing is cloned, and the list-scheduler
    /// priorities and job order stay valid. The static schedule stays
    /// cached only where it is bus-independent (see the module docs):
    /// with static messages it is rebuilt for every length, because
    /// `gdCycle`, and with it every static slot, moves with the DYN
    /// segment.
    ///
    /// # Errors
    ///
    /// As [`AnalysisSession::analyse_into`].
    ///
    /// # Panics
    ///
    /// Panics if no configuration was analysed yet.
    pub fn reanalyse_dyn_length(&mut self, n_minislots: u32) -> Result<Cost, ModelError> {
        let bus = self
            .last_bus
            .as_mut()
            .expect("reanalyse_dyn_length requires a prior analyse_into");
        bus.n_minislots = n_minislots;
        let view = SystemView::with_network(
            &self.platform,
            &self.app,
            bus,
            &self.extra_buses,
            &self.cluster_map,
        );
        analyse_core(view, &self.cfg, &mut self.state)?;
        Ok(self.state.cost)
    }

    /// The fixed bus configurations of clusters `1..` (empty for a
    /// single-bus session).
    #[must_use]
    pub fn extra_buses(&self) -> &[BusConfig] {
        &self.extra_buses
    }

    /// The per-activity home-cluster map (empty for a single-bus
    /// session).
    #[must_use]
    pub fn cluster_map(&self) -> &[u16] {
        &self.cluster_map
    }

    /// The bus configuration of the last analysis attempt.
    #[must_use]
    pub fn last_bus(&self) -> Option<&BusConfig> {
        self.last_bus.as_ref()
    }

    /// Mutable access to the retained bus, for in-place candidate
    /// tweaks (e.g. validating a new DYN length before
    /// [`AnalysisSession::reanalyse_dyn_length`]).
    #[must_use]
    pub fn last_bus_mut(&mut self) -> Option<&mut BusConfig> {
        self.last_bus.as_mut()
    }

    /// Cost of the last analysis (Eq. (5)).
    #[must_use]
    pub fn cost(&self) -> Cost {
        self.state.cost
    }

    /// Worst-case response times of the last analysis, indexed by
    /// activity.
    #[must_use]
    pub fn responses(&self) -> &[Time] {
        &self.state.responses
    }

    /// Activities whose response-time iteration diverged in the last
    /// analysis.
    #[must_use]
    pub fn diverged(&self) -> &[ActivityId] {
        &self.state.diverged
    }

    /// The static schedule table of the last analysis.
    #[must_use]
    pub fn table(&self) -> &ScheduleTable {
        &self.state.table
    }

    /// Owned copy of the last analysis result.
    #[must_use]
    pub fn snapshot(&self) -> Analysis {
        self.state.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyse, DynAnalysisMode, LatestTxPolicy};
    use flexray_model::*;

    /// Two nodes with an ET chain (no static messages): the static side
    /// is bus-independent and the session may cache it.
    fn et_only_system(n_minislots: u32) -> System {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(500.0), Time::from_us(400.0));
        let c = app.add_task(
            g,
            "c",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let d = app.add_task(
            g,
            "d",
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let m = app.add_message(g, "m", 4, MessageClass::Dynamic, 1);
        app.connect(c, m, d).expect("edges");
        // an SCS task so the table is non-trivial
        app.add_task(
            g,
            "s",
            NodeId::new(0),
            Time::from_us(20.0),
            SchedPolicy::Scs,
            0,
        );
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.n_minislots = n_minislots;
        bus.frame_ids.insert(m, FrameId::new(1));
        System::validated(Platform::with_nodes(2), app, bus).expect("valid")
    }

    /// A mixed TT/ET system (static messages force schedule rebuilds).
    fn mixed_system(n_minislots: u32) -> System {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(400.0), Time::from_us(350.0));
        let a = app.add_task(
            g,
            "a",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        let b = app.add_task(
            g,
            "b",
            NodeId::new(1),
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        let st = app.add_message(g, "st", 8, MessageClass::Static, 0);
        app.connect(a, st, b).expect("edges");
        let c = app.add_task(
            g,
            "c",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let d = app.add_task(
            g,
            "d",
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let dy = app.add_message(g, "dy", 4, MessageClass::Dynamic, 1);
        app.connect(c, dy, d).expect("edges");
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.static_slot_len = Time::from_us(8.0);
        bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
        bus.n_minislots = n_minislots;
        bus.frame_ids.insert(dy, FrameId::new(1));
        System::validated(Platform::with_nodes(2), app, bus).expect("valid")
    }

    fn assert_matches_one_shot(session: &mut AnalysisSession, sys: &System) {
        let fresh = analyse(sys, &AnalysisConfig::default()).expect("one-shot");
        let cost = session.analyse_into(&sys.bus).expect("session");
        assert_eq!(cost, fresh.cost);
        assert_eq!(session.responses(), &fresh.responses[..]);
        assert_eq!(session.diverged(), &fresh.diverged[..]);
        assert_eq!(session.table().tasks(), fresh.table.tasks());
        assert_eq!(session.table().messages(), fresh.table.messages());
    }

    #[test]
    fn session_matches_one_shot_across_dyn_lengths_et_only() {
        let base = et_only_system(10);
        let mut session = AnalysisSession::new(
            base.platform.clone(),
            base.app.clone(),
            AnalysisConfig::default(),
        );
        for n in [10u32, 6, 30, 10, 100] {
            let mut sys = base.clone();
            sys.bus.n_minislots = n;
            assert_matches_one_shot(&mut session, &sys);
        }
    }

    #[test]
    fn session_matches_one_shot_across_dyn_lengths_mixed() {
        let base = mixed_system(10);
        let mut session = AnalysisSession::new(
            base.platform.clone(),
            base.app.clone(),
            AnalysisConfig::default(),
        );
        for n in [10u32, 6, 30, 10, 64] {
            let mut sys = base.clone();
            sys.bus.n_minislots = n;
            assert_matches_one_shot(&mut session, &sys);
        }
    }

    #[test]
    fn session_matches_one_shot_across_layout_changes() {
        let base = mixed_system(12);
        let mut session = AnalysisSession::new(
            base.platform.clone(),
            base.app.clone(),
            AnalysisConfig::default(),
        );
        // layout changes interleaved with DYN-length changes
        let mut sys = base.clone();
        assert_matches_one_shot(&mut session, &sys);
        sys.bus.static_slot_len = Time::from_us(12.0);
        assert_matches_one_shot(&mut session, &sys);
        sys.bus.n_minislots = 40;
        assert_matches_one_shot(&mut session, &sys);
        sys.bus.static_slot_owners = vec![NodeId::new(1), NodeId::new(0)];
        assert_matches_one_shot(&mut session, &sys);
    }

    #[test]
    fn reanalyse_dyn_length_equals_full_analyse() {
        for base in [et_only_system(10), mixed_system(10)] {
            let mut session = AnalysisSession::new(
                base.platform.clone(),
                base.app.clone(),
                AnalysisConfig::default(),
            );
            session.analyse_into(&base.bus).expect("seed analysis");
            for n in [5u32, 12, 48, 7] {
                let cost = session.reanalyse_dyn_length(n).expect("incremental");
                let mut sys = base.clone();
                sys.bus.n_minislots = n;
                let fresh = analyse(&sys, &AnalysisConfig::default()).expect("fresh");
                assert_eq!(cost, fresh.cost, "n = {n}");
                assert_eq!(session.responses(), &fresh.responses[..], "n = {n}");
                assert_eq!(
                    session.last_bus().expect("retained").n_minislots,
                    n,
                    "length applied"
                );
            }
        }
    }

    #[test]
    fn snapshot_equals_one_shot_analysis() {
        let sys = mixed_system(10);
        let mut session = AnalysisSession::new(
            sys.platform.clone(),
            sys.app.clone(),
            AnalysisConfig::default(),
        );
        session.analyse_into(&sys.bus).expect("session");
        let snap = session.snapshot();
        let fresh = analyse(&sys, &AnalysisConfig::default()).expect("one-shot");
        assert_eq!(snap.cost, fresh.cost);
        assert_eq!(snap.responses, fresh.responses);
        assert_eq!(snap.diverged, fresh.diverged);
        assert_eq!(snap.is_schedulable(), fresh.is_schedulable());
    }

    #[test]
    #[should_panic(expected = "requires a prior analyse_into")]
    fn reanalyse_without_seed_panics() {
        let sys = mixed_system(10);
        let mut session = AnalysisSession::new(
            sys.platform.clone(),
            sys.app.clone(),
            AnalysisConfig::default(),
        );
        let _ = session.reanalyse_dyn_length(10);
    }

    /// SplitMix64: a deterministic stream for the span property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            let width = u64::try_from(hi - lo).expect("lo <= hi") + 1;
            lo + i64::try_from(self.next() % width).expect("width fits i64")
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.range(0, from.len() as i64 - 1) as usize]
        }
    }

    /// A random jitter per activity: zero, or up to two of its periods
    /// at nanosecond resolution.
    fn random_jitter(rng: &mut Rng, sys: &System) -> Vec<Time> {
        sys.app
            .ids()
            .map(|id| match rng.range(0, 3) {
                0 => Time::ZERO,
                _ => Time::from_ns(rng.range(0, 2 * sys.app.period_of(id).as_ns())),
            })
            .collect()
    }

    /// Checks that `j1` lies in its own spans, then that jitters drawn
    /// inside them — both edges `lo + 1 ns` and `hi` of every member,
    /// and random mixes of edges and inner points — give `run`'s result
    /// at `j1`. Spans are clipped to `±cap` so probes stay finite.
    fn assert_spans_hold(
        rng: &mut Rng,
        members: &[ActivityId],
        j1: &[Time],
        cap: Time,
        mut run: impl FnMut(&[Time], &mut [JitterSpan]) -> Option<Time>,
    ) {
        let mut spans = vec![JitterSpan::ANY; members.len()];
        let expected = run(j1, &mut spans);
        let edges: Vec<(i64, i64)> = members
            .iter()
            .zip(&spans)
            .map(|(&j, span)| {
                assert!(
                    span.contains(j1[j.index()]),
                    "{span:?} misses its own jitter"
                );
                let (lo, hi) = span.bounds();
                let lo = lo.as_ns().saturating_add(1).max(-cap.as_ns());
                (lo, hi.as_ns().min(cap.as_ns()))
            })
            .collect();
        for probe in 0..12 {
            let mut j2 = j1.to_vec();
            for (&j, &(lo, hi)) in members.iter().zip(&edges) {
                j2[j.index()] = Time::from_ns(match (probe, rng.range(0, 2)) {
                    (0, _) | (2.., 0) => lo,
                    (1, _) | (2.., 1) => hi,
                    _ => rng.range(lo, hi),
                });
            }
            let mut probe_spans = vec![JitterSpan::ANY; members.len()];
            assert_eq!(run(&j2, &mut probe_spans), expected, "{j1:?} -> {j2:?}");
        }
    }

    #[test]
    fn dyn_delay_is_constant_on_its_jitter_spans() {
        let phy = PhyParams {
            gd_bit: Time::from_ns(50),
            gd_macrotick: Time::MICROSECOND,
            gd_minislot: Time::MICROSECOND,
            frame_overhead_bytes: 0,
        };
        let mut rng = Rng(20);
        for _case in 0..150 {
            // DYN messages (length, frame id, priority, period), each in
            // its own graph; a frame identifier's sender is fixed by its
            // parity, as the protocol allows one sender per identifier.
            let mut app = Application::new();
            let mut bus = BusConfig::new(phy);
            bus.static_slot_len = Time::from_us(8.0);
            bus.static_slot_owners = vec![NodeId::new(0)];
            let mut ids = Vec::new();
            let mut segment = 0;
            for i in 0..rng.range(2, 7) {
                let (len, fid) = (rng.range(1, 9) as u32, rng.range(1, 6) as u16);
                let node = usize::from(fid % 2);
                let period = Time::from_us(rng.pick(&[60.0, 100.0, 150.0, 250.0, 1000.0]));
                let g = app.add_graph(&format!("g{i}"), period, period);
                let s = app.add_task(
                    g,
                    "s",
                    NodeId::new(node),
                    Time::MICROSECOND,
                    SchedPolicy::Fps,
                    1,
                );
                let r = app.add_task(
                    g,
                    "r",
                    NodeId::new(1 - node),
                    Time::MICROSECOND,
                    SchedPolicy::Fps,
                    1,
                );
                let prio = rng.range(0, 2) as u32;
                let m = app.add_message(g, &format!("m{i}"), 2 * len, MessageClass::Dynamic, prio);
                app.connect(s, m, r).expect("edges");
                bus.frame_ids.insert(m, FrameId::new(fid));
                segment = segment.max(u32::from(fid) - 1 + len);
                ids.push(m);
            }
            bus.n_minislots = segment + rng.range(0, 10) as u32;
            let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
            let limit = Time::from_us(100_000.0);
            let j1 = random_jitter(&mut rng, &sys);
            for &m in &ids {
                let (hp, lf) = (hp_messages(&sys, m), lf_messages(&sys, m));
                let members: Vec<ActivityId> = hp.iter().chain(&lf).copied().collect();
                for mode in [DynAnalysisMode::Greedy, DynAnalysisMode::Exact] {
                    let run = |jitter: &[Time], spans: &mut [JitterSpan]| {
                        dyn_delay_with(
                            (&sys).into(),
                            m,
                            &hp,
                            &lf,
                            jitter,
                            LatestTxPolicy::PerMessage,
                            mode,
                            limit,
                            &mut DynScratch::default(),
                            spans,
                        )
                    };
                    assert_spans_hold(&mut rng, &members, &j1, limit, run);
                }
            }
        }
    }

    #[test]
    fn fps_response_is_constant_on_its_jitter_spans() {
        let mut rng = Rng(19);
        for _case in 0..150 {
            let mut app = Application::new();
            let ids: Vec<ActivityId> = (0..rng.range(2, 6))
                .map(|i| {
                    let period = Time::from_us(rng.pick(&[50.0, 100.0, 200.0, 400.0]));
                    let g = app.add_graph(&format!("g{i}"), period, period);
                    let wcet = Time::from_ns(rng.range(1_000, 20_000));
                    let prio = rng.range(0, 4) as u32;
                    app.add_task(g, "t", NodeId::new(0), wcet, SchedPolicy::Fps, prio)
                })
                .collect();
            let sys = System::validated(
                Platform::with_nodes(1),
                app,
                BusConfig::new(PhyParams::unit()),
            )
            .expect("valid");
            // Busy windows of the static schedule over one 400 µs
            // hyperperiod, from random gaps and lengths.
            let horizon = Time::from_us(400.0).as_ns();
            let mut windows = Vec::new();
            let mut at = 0;
            for _ in 0..rng.range(0, 4) {
                let s = at + rng.range(0, 80_000);
                let f = (s + rng.range(1, 60_000)).min(horizon);
                if s >= f {
                    break;
                }
                windows.push((Time::from_ns(s), Time::from_ns(f)));
                at = f;
            }
            let avail = Availability::new(Time::from_ns(horizon), windows);
            let limit = Time::from_ns(10 * horizon);
            let j1 = random_jitter(&mut rng, &sys);
            for &task in &ids {
                let hp = hp_tasks(&sys, task);
                let run = |jitter: &[Time], spans: &mut [JitterSpan]| {
                    fps_local_response_with((&sys).into(), &avail, task, &hp, jitter, limit, spans)
                };
                assert_spans_hold(&mut rng, &hp, &j1, limit, run);
            }
        }
    }
}
