//! Brute-force oracles for the FPS busy-window analysis and the
//! availability walk it runs on.
//!
//! The production analysis starts busy windows only at busy-window
//! starts and walks the slack in closed form. Here, on nanosecond-scale
//! tables, the same quantities are re-derived naively:
//!
//! * the FPS response is the maximum, over *every* integer arrival in
//!   one hyperperiod, of the least `t` whose per-nanosecond free count
//!   covers the demand — no `advance`, no critical-instant list;
//! * `advance` and `free_between` are compared with the stretch-by-
//!   stretch walk they replaced, kept below as the reference, including
//!   the instants where `advance`'s `limit` starts to bite;
//! * both are checked again where their count of whole hyperperiods
//!   changes — instants either side of `0` and `H`, free-time targets
//!   of `F` and `F + 1` — on nodes with no windows, with no free time,
//!   and from negative starts;
//! * on tables with many windows, where the analysis settles most
//!   window starts with one supply check, the response is compared with
//!   a plain loop that runs a busy window at every start.

use flexray::analysis::{fps_local_response, Availability};
use flexray::model::{ActivityId, SystemView};
use flexray::*;
use proptest::prelude::*;

/// Busy windows over a horizon of `h` ns. `mode` 0 gives no windows
/// and 1 a saturated node; otherwise windows are laid out from
/// `(gap, len)` pairs, so a zero gap makes a window start at 0 or touch
/// its predecessor, and `to_end` stretches the last window to `h`.
fn windows(h: i64, mode: u8, gaps: &[i64], lens: &[i64], to_end: bool) -> Vec<(Time, Time)> {
    let mut out = Vec::new();
    match mode {
        0 => {}
        1 => out.push((0, h)),
        _ => {
            let mut t = 0;
            for (&gap, &len) in gaps.iter().zip(lens) {
                let s = t + gap;
                let f = (s + len).min(h);
                if s >= f {
                    break;
                }
                out.push((s, f));
                t = f;
            }
            if to_end {
                if let Some(last) = out.last_mut() {
                    last.1 = h;
                }
            }
        }
    }
    out.into_iter()
        .map(|(s, f)| (Time::from_ns(s), Time::from_ns(f)))
        .collect()
}

/// The stretch-by-stretch walk `Availability::advance` used to run.
fn walk_advance(
    horizon: Time,
    windows: &[(Time, Time)],
    start: Time,
    demand: Time,
    limit: Time,
) -> Option<Time> {
    if demand <= Time::ZERO {
        return Some(start);
    }
    let mut remaining = demand;
    let mut t = start;
    loop {
        if t > limit {
            return None;
        }
        let base = horizon * t.div_floor(horizon);
        let local = t - base;
        let mut free_from = local;
        let mut free_until = horizon;
        let mut inside_busy = false;
        for &(s, f) in windows {
            if local >= s && local < f {
                free_from = f;
                inside_busy = true;
            }
            if !inside_busy && s >= free_from {
                free_until = s;
                break;
            }
            if inside_busy && s > free_from {
                free_until = s;
                break;
            }
        }
        if inside_busy {
            t = base + free_from;
            if t > limit {
                return None;
            }
            continue;
        }
        let available = free_until - free_from;
        if available >= remaining {
            return Some(base + free_from + remaining);
        }
        remaining -= available;
        t = base + free_until;
        if free_until == horizon {
            continue;
        }
        let (_, f) = windows
            .iter()
            .find(|&&(s, _)| s == free_until)
            .copied()
            .expect("free stretch ends at a busy window");
        t = base + f;
    }
}

/// The period-by-period count `Availability::free_between` used to run.
fn walk_free_between(horizon: Time, windows: &[(Time, Time)], a: Time, b: Time) -> Time {
    let mut free = Time::ZERO;
    let mut period_index = a.div_floor(horizon);
    loop {
        let base = horizon * period_index;
        let lo = a.max(base);
        let hi = b.min(base + horizon);
        if lo >= b {
            break;
        }
        let mut busy = Time::ZERO;
        for &(s, f) in windows {
            let os = (base + s).max(lo);
            let of = (base + f).min(hi);
            if of > os {
                busy += of - os;
            }
        }
        free += (hi - lo) - busy;
        period_index += 1;
    }
    free
}

/// `free_between` and `advance` against the walks where their count of
/// whole hyperperiods changes: the instants `−H−1, −1, 0, H−1, H, 3H`,
/// and from each of them the demands that put the free-time target
/// `free_until(start) + demand` at `0`, `1`, `F` and `F + 1` (`F` = free
/// time per hyperperiod), where the demand is positive.
fn check_slack_edges(h: i64, windows: &[(Time, Time)]) -> Result<(), TestCaseError> {
    let horizon = Time::from_ns(h);
    let avail = Availability::new(horizon, windows.to_vec());
    let free = avail.free_per_period();
    let instants = [-h - 1, -1, 0, h - 1, h, 3 * h].map(Time::from_ns);
    for &a in &instants {
        for &b in instants.iter().filter(|&&b| b >= a) {
            prop_assert_eq!(
                avail.free_between(a, b),
                walk_free_between(horizon, windows, a, b),
                "free_between({}, {}) over {:?} / {} ns",
                a,
                b,
                windows,
                h
            );
        }
    }
    for &start in &instants {
        let free_at_start = if start >= Time::ZERO {
            avail.free_between(Time::ZERO, start)
        } else {
            -avail.free_between(start, Time::ZERO)
        };
        let targets = [Time::ZERO, Time::NANOSECOND, free, free + Time::NANOSECOND];
        let demands = targets.map(|target| target - free_at_start);
        for demand in demands.into_iter().filter(|&d| d > Time::ZERO) {
            let far = start + horizon * 8;
            let done = avail.advance(start, demand, far);
            if free == Time::ZERO {
                prop_assert_eq!(done, None, "a node without slack never completes");
            }
            for limit in [start, far] {
                prop_assert_eq!(
                    avail.advance(start, demand, limit),
                    walk_advance(horizon, windows, start, demand, limit),
                    "advance({}, {}, {}) over {:?} / {} ns",
                    start,
                    demand,
                    limit,
                    windows,
                    h
                );
            }
        }
    }
    Ok(())
}

/// The period-boundary edges on fixed tables: no windows, no free time, a
/// window at `0`, one ending at `H`, and a one-nanosecond hyperperiod.
#[test]
fn slack_edges_on_fixed_tables() {
    let ns = |s: i64, f: i64| (Time::from_ns(s), Time::from_ns(f));
    let tables = [
        (100, vec![]),
        (100, vec![ns(0, 100)]),
        (100, vec![ns(0, 10), ns(40, 55)]),
        (100, vec![ns(30, 60), ns(90, 100)]),
        (1, vec![]),
        (1, vec![ns(0, 1)]),
    ];
    for (h, windows) in tables {
        check_slack_edges(h, &windows).unwrap();
    }
}

/// An FPS task of the brute force: wcet, period, jitter (ns), priority.
#[derive(Debug, Clone, Copy)]
struct Task {
    wcet: i64,
    period: i64,
    jitter: i64,
    priority: u32,
}

/// Worst local response of `tasks[me]` on one node whose busy pattern
/// `busy` (one flag per ns) repeats: for every arrival `x` in one
/// hyperperiod, the least `t ≤ limit` whose free count over `[x, x+t)`
/// covers the demand of `t`; `None` if some arrival has none.
fn brute_response(busy: &[bool], tasks: &[Task], me: usize, limit: i64) -> Option<i64> {
    let h = busy.len() as i64;
    let own = tasks[me];
    // hp: higher priority, or equal priority and a lower index.
    let hp: Vec<Task> = tasks
        .iter()
        .enumerate()
        .filter(|&(j, t)| {
            j != me && (t.priority > own.priority || (t.priority == own.priority && j < me))
        })
        .map(|(_, &t)| t)
        .collect();
    let demand = |t: i64| {
        own.wcet
            + hp.iter()
                .map(|j| (t + j.jitter + j.period - 1) / j.period * j.wcet)
                .sum::<i64>()
    };
    let mut worst = 0;
    for x in 0..h {
        let mut supply = 0;
        let mut response = None;
        for t in 1..=limit {
            if !busy[((x + t - 1) % h) as usize] {
                supply += 1;
            }
            if supply >= demand(t) {
                response = Some(t);
                break;
            }
        }
        worst = worst.max(response?);
    }
    Some(worst)
}

/// The plain per-start loop: a busy window at every window start (at
/// `0` on a node without windows), each iterated from the task's own
/// WCET through `Availability::advance`, and the largest fixed point;
/// `None` if any start diverges past `limit`.
fn plain_response(avail: &Availability, tasks: &[Task], me: usize, limit: i64) -> Option<i64> {
    let own = tasks[me];
    let demand = |t: i64| {
        own.wcet
            + tasks
                .iter()
                .enumerate()
                .filter(|&(j, o)| {
                    j != me && (o.priority > own.priority || (o.priority == own.priority && j < me))
                })
                .map(|(_, o)| ((t + o.jitter).max(0) + o.period - 1) / o.period * o.wcet)
                .sum::<i64>()
    };
    let mut worst = 0;
    for s in avail.critical_instants() {
        let mut t = own.wcet;
        loop {
            let done = avail.advance(s, Time::from_ns(demand(t)), s + Time::from_ns(limit))?;
            let next = (done - s).as_ns();
            if next > limit {
                return None;
            }
            if next <= t {
                break;
            }
            t = next;
        }
        worst = worst.max(t);
    }
    Some(worst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Window starts alone give the worst response over every arrival.
    #[test]
    fn fps_response_matches_every_arrival(
        h in 1i64..=200,
        mode in 0u8..6,
        gaps in prop::collection::vec(prop::sample::select(vec![0i64, 0, 1, 2, 3, 7, 19, 40]), 0..8),
        lens in prop::collection::vec(1i64..40, 8..9),
        to_end in any::<bool>(),
        wcets in prop::collection::vec(1i64..=8, 1..5),
        periods in prop::collection::vec(prop::sample::select(vec![5i64, 8, 13, 20, 32, 50, 100]), 4..5),
        jitters in prop::collection::vec(prop::sample::select(vec![0i64, 0, 1, 4, 9, 30, 77]), 4..5),
        priorities in prop::collection::vec(0u32..3, 4..5),
        me_sel in 0usize..4,
        limit in 1i64..=600,
    ) {
        let windows = windows(h, mode, &gaps, &lens, to_end);
        let avail = Availability::new(Time::from_ns(h), windows.clone());
        let mut busy = vec![false; h as usize];
        for &(s, f) in &windows {
            for b in &mut busy[s.as_ns() as usize..f.as_ns() as usize] {
                *b = true;
            }
        }
        let tasks: Vec<Task> = wcets
            .iter()
            .enumerate()
            .map(|(i, &wcet)| Task { wcet, period: periods[i], jitter: jitters[i], priority: priorities[i] })
            .collect();
        let me = me_sel % tasks.len();

        let mut app = Application::new();
        let ids: Vec<ActivityId> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let period = Time::from_ns(t.period);
                let g = app.add_graph(&format!("g{i}"), period, period);
                app.add_task(g, &format!("t{i}"), NodeId::new(0), Time::from_ns(t.wcet), SchedPolicy::Fps, t.priority)
            })
            .collect();
        let platform = Platform::with_nodes(1);
        let bus = BusConfig::new(PhyParams::unit());
        let view = SystemView::new(&platform, &app, &bus);
        let jitter: Vec<Time> = tasks.iter().map(|t| Time::from_ns(t.jitter)).collect();

        let got = fps_local_response(view, &avail, ids[me], &jitter, Time::from_ns(limit));
        let want = brute_response(&busy, &tasks, me, limit).map(Time::from_ns);
        prop_assert_eq!(got, want, "windows {:?} over {} ns, tasks {:?}, task {}", windows, h, tasks, me);
    }

    /// The closed-form walk equals the stretch-by-stretch walk, `limit`
    /// edges included.
    #[test]
    fn closed_form_walk_matches_the_stretch_walk(
        h in 1i64..=200,
        mode in 0u8..6,
        gaps in prop::collection::vec(prop::sample::select(vec![0i64, 0, 1, 2, 3, 7, 19, 40]), 0..8),
        lens in prop::collection::vec(1i64..40, 8..9),
        to_end in any::<bool>(),
        start in -300i64..600,
        demand_raw in 0i64..=400,
        points in prop::collection::vec(-400i64..800, 2..16),
    ) {
        let windows = windows(h, mode, &gaps, &lens, to_end);
        let horizon = Time::from_ns(h);
        let avail = Availability::new(horizon, windows.clone());
        let free = avail.free_per_period().as_ns();

        for (i, &a) in points.iter().enumerate() {
            for &b in &points[i..] {
                let (a, b) = (Time::from_ns(a.min(b)), Time::from_ns(a.max(b)));
                prop_assert_eq!(avail.free_between(a, b), walk_free_between(horizon, &windows, a, b));
            }
        }

        // Keep the completion within a few hyperperiods so the walk and
        // the limit sweep below stay small.
        let demand = Time::from_ns(if free > 0 { demand_raw % (3 * free + 2) } else { demand_raw % 4 });
        let start = Time::from_ns(start);
        let far = start + horizon * 8;
        let done = avail.advance(start, demand, far);
        prop_assert_eq!(done, walk_advance(horizon, &windows, start, demand, far));
        // Every instant a free stretch can begin at, either side of it:
        // the limits where the contract flips from `None` to `Some`.
        let end = done.unwrap_or(far);
        let mut limits = vec![start - Time::NANOSECOND, start, start + Time::NANOSECOND];
        for k in start.div_floor(horizon)..=end.div_floor(horizon) + 1 {
            let base = horizon * k;
            for edge in std::iter::once(Time::ZERO).chain(windows.iter().map(|w| w.1)) {
                limits.extend([base + edge - Time::NANOSECOND, base + edge, base + edge + Time::NANOSECOND]);
            }
        }
        for limit in limits {
            prop_assert_eq!(
                avail.advance(start, demand, limit),
                walk_advance(horizon, &windows, start, demand, limit),
                "advance({}, {}, {}) over {:?} / {} ns", start, demand, limit, windows, h
            );
        }
    }

    /// The period-boundary edges on random tables.
    #[test]
    fn slack_edges_match_the_walks(
        h in 1i64..=200,
        mode in 0u8..6,
        gaps in prop::collection::vec(prop::sample::select(vec![0i64, 0, 1, 2, 3, 7, 19, 40]), 0..8),
        lens in prop::collection::vec(1i64..40, 8..9),
        to_end in any::<bool>(),
    ) {
        check_slack_edges(h, &windows(h, mode, &gaps, &lens, to_end))?;
    }

    /// Tables of 20–60 windows, windows at 0 and at the horizon,
    /// zero-WCET tasks and random jitters: skipping dominated starts
    /// gives the plain per-start loop's response.
    #[test]
    fn many_window_response_matches_the_plain_loop(
        n in 20usize..61,
        gaps in prop::collection::vec(prop::sample::select(vec![0i64, 1, 2, 5, 13, 40, 90]), 61..62),
        lens in prop::collection::vec(prop::sample::select(vec![1i64, 1, 3, 8, 20, 60]), 60..61),
        wcets in prop::collection::vec(prop::sample::select(vec![0i64, 0, 1, 3, 10, 25, 60]), 1..6),
        periods in prop::collection::vec(prop::sample::select(vec![40i64, 97, 250, 500, 1000, 4000]), 5..6),
        jitters in prop::collection::vec(0i64..3000, 5..6),
        priorities in prop::collection::vec(0u32..3, 5..6),
        me_sel in 0usize..5,
        limit in 1i64..=40_000,
    ) {
        // `gaps[0] = 0` puts a window at 0; a zero tail gap lets the
        // last window end at the horizon.
        let mut windows = Vec::new();
        let mut t = 0;
        for (&gap, &len) in gaps.iter().zip(&lens).take(n) {
            windows.push((Time::from_ns(t + gap), Time::from_ns(t + gap + len)));
            t += gap + len;
        }
        let h = t + gaps[n];
        let avail = Availability::new(Time::from_ns(h), windows.clone());
        let tasks: Vec<Task> = wcets
            .iter()
            .enumerate()
            .map(|(i, &wcet)| Task { wcet, period: periods[i], jitter: jitters[i], priority: priorities[i] })
            .collect();
        let me = me_sel % tasks.len();

        let mut app = Application::new();
        let ids: Vec<ActivityId> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let period = Time::from_ns(t.period);
                let g = app.add_graph(&format!("g{i}"), period, period);
                app.add_task(g, &format!("t{i}"), NodeId::new(0), Time::from_ns(t.wcet), SchedPolicy::Fps, t.priority)
            })
            .collect();
        let platform = Platform::with_nodes(1);
        let bus = BusConfig::new(PhyParams::unit());
        let view = SystemView::new(&platform, &app, &bus);
        let jitter: Vec<Time> = tasks.iter().map(|t| Time::from_ns(t.jitter)).collect();

        let got = fps_local_response(view, &avail, ids[me], &jitter, Time::from_ns(limit));
        let want = plain_response(&avail, &tasks, me, limit).map(Time::from_ns);
        prop_assert_eq!(got, want, "windows {:?} over {} ns, tasks {:?}, task {}", windows, h, tasks, me);
    }
}
