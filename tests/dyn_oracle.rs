//! Brute-force oracle for the dynamic-message delay of Eq. (3).
//!
//! The production `dyn_delay` is an incremental, pooled fixed point with
//! batched cycle packing; this file re-derives the same quantity with a
//! deliberately naive, independent reference: interference sets are
//! recomputed from first principles, pending instances are expanded one
//! by one, and the `Exact` per-cycle choice is found by exhaustive
//! subset enumeration instead of a DP. Any silent change to the
//! optimised path shows up as a mismatch here.
//!
//! The hand-built systems use power-of-two frame extras so every subset
//! sum is unique — the exhaustive minimum is then unambiguous and the
//! oracle does not have to replicate the production DP's tie-breaking.

use flexray::analysis::{dyn_delay, DynAnalysisMode, LatestTxPolicy};
use flexray::model::ActivityId;
use flexray::*;
use std::collections::BTreeMap;

/// Builds a system of DYN messages `(size_minislots, frame_id,
/// priority, sender_node, period_us)`, each in its own graph so periods
/// can differ; unit phy, one 8 µs ST slot, `n_minislots`.
fn dyn_system(
    specs: &[(u32, u16, u32, usize, f64)],
    n_minislots: u32,
) -> (System, Vec<ActivityId>) {
    let phy = PhyParams {
        gd_bit: Time::from_ns(50),
        gd_macrotick: Time::MICROSECOND,
        gd_minislot: Time::MICROSECOND,
        frame_overhead_bytes: 0,
    };
    let mut app = Application::new();
    let mut bus = BusConfig::new(phy);
    bus.static_slot_len = Time::from_us(8.0);
    bus.static_slot_owners = vec![NodeId::new(0)];
    bus.n_minislots = n_minislots;
    let mut ids = Vec::new();
    for (i, &(len, fid, prio, node, period_us)) in specs.iter().enumerate() {
        let period = Time::from_us(period_us);
        let g = app.add_graph(&format!("g{i}"), period, period);
        let s = app.add_task(
            g,
            &format!("s{i}"),
            NodeId::new(node),
            Time::from_us(1.0),
            SchedPolicy::Fps,
            1,
        );
        let r = app.add_task(
            g,
            &format!("r{i}"),
            NodeId::new(1 - node),
            Time::from_us(1.0),
            SchedPolicy::Fps,
            1,
        );
        // len minislots at 1 µs each = len µs = 2*len bytes at 50 ns/bit
        let msg = app.add_message(g, &format!("m{i}"), 2 * len, MessageClass::Dynamic, prio);
        app.connect(s, msg, r).expect("edges");
        bus.frame_ids.insert(msg, FrameId::new(fid));
        ids.push(msg);
    }
    let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
    (sys, ids)
}

/// Direct Eq. (3) reference: naive fixed point over per-instance
/// expanded interference, exhaustive `Exact` packing.
fn oracle_dyn_delay(
    sys: &System,
    m: ActivityId,
    jitter: &[Time],
    policy: LatestTxPolicy,
    mode: DynAnalysisMode,
    limit: Time,
) -> Option<Time> {
    let app = &sys.app;
    let bus = &sys.bus;
    let fid = bus.frame_id_of(m).expect("dyn message");
    let my_prio = app.activity(m).as_message().expect("message").priority;
    // hp(m)/lf(m) recomputed from first principles.
    let mut hp = Vec::new();
    let mut lf = Vec::new();
    for j in app.messages_of_class(MessageClass::Dynamic) {
        if j == m {
            continue;
        }
        match bus.frame_id_of(j) {
            Some(fj) if fj == fid => {
                let pj = app.activity(j).as_message().expect("message").priority;
                if pj > my_prio || (pj == my_prio && j.index() < m.index()) {
                    hp.push(j);
                }
            }
            Some(fj) if fj < fid => lf.push(j),
            _ => {}
        }
    }
    let p_latest = match policy {
        LatestTxPolicy::PerMessage => bus.n_minislots.saturating_sub(bus.minislots_of(app, m)) + 1,
        LatestTxPolicy::PerNode => bus.p_latest_tx(app, app.sender_of(m).expect("sender")),
    };
    let base = u32::try_from(fid.preceding_slots()).expect("u16 fits");
    let need = match p_latest.checked_sub(base) {
        Some(n) if n > 0 => n,
        _ => return None,
    };
    let gd_cycle = bus.gd_cycle();
    let st_bus = bus.st_bus();
    let minislot = bus.phy.gd_minislot;
    let sigma = (gd_cycle - (st_bus + minislot * i64::from(base))).clamp_non_negative();

    let arrivals = |j: ActivityId, t: Time| -> i64 {
        (t + jitter[j.index()])
            .clamp_non_negative()
            .div_ceil(app.period_of(j))
    };

    let mut t = Time::ZERO;
    for _ in 0..100_000 {
        let mut filled: i64 = hp.iter().map(|&j| arrivals(j, t)).sum();
        // Per lower identifier, every pending instance individually.
        let mut pending: BTreeMap<u16, Vec<u32>> = BTreeMap::new();
        for &j in &lf {
            let id = bus.frame_id_of(j).expect("lf").number();
            let extra = bus.minislots_of(app, j).saturating_sub(1);
            for _ in 0..arrivals(j, t) {
                pending.entry(id).or_default().push(extra);
            }
        }
        while let Some(cycle) = oracle_select_cycle(&pending, need, mode) {
            for (id, extra) in cycle {
                let list = pending.get_mut(&id).expect("chosen id pending");
                let at = list.iter().position(|&e| e == extra).expect("chosen extra");
                list.remove(at);
            }
            filled += 1;
        }
        let leftover: u32 = pending
            .values()
            .filter_map(|list| list.iter().max().copied())
            .sum::<u32>()
            .min(need.saturating_sub(1));
        let w = sigma
            .saturating_add(gd_cycle.saturating_mul(filled))
            .saturating_add(st_bus + minislot * i64::from(base + leftover));
        if w > limit {
            return None;
        }
        if w <= t {
            return Some(w);
        }
        t = w;
    }
    None
}

/// One filled cycle's `(id, extra)` consumption, or `None` when the
/// pending instances can no longer reach `need`.
fn oracle_select_cycle(
    pending: &BTreeMap<u16, Vec<u32>>,
    need: u32,
    mode: DynAnalysisMode,
) -> Option<Vec<(u16, u32)>> {
    match mode {
        DynAnalysisMode::Greedy => {
            // Largest pending instance per identifier, largest first.
            let mut heads: Vec<(u16, u32)> = pending
                .iter()
                .filter_map(|(&id, list)| list.iter().max().map(|&e| (id, e)))
                .collect();
            heads.sort_by_key(|&(id, e)| (std::cmp::Reverse(e), id));
            let mut chosen = Vec::new();
            let mut sum = 0u32;
            for (id, e) in heads {
                if sum >= need {
                    break;
                }
                if e == 0 {
                    continue;
                }
                chosen.push((id, e));
                sum += e;
            }
            (sum >= need).then_some(chosen)
        }
        DynAnalysisMode::Exact => {
            // Exhaustive: at most one instance per identifier, minimal
            // total consumption with sum >= need. The test systems use
            // subset-sum-unique extras, so the minimum is unambiguous.
            let per_id: Vec<(u16, Vec<u32>)> = pending
                .iter()
                .map(|(&id, list)| {
                    let mut extras: Vec<u32> = list.iter().copied().filter(|&e| e > 0).collect();
                    extras.sort_unstable();
                    extras.dedup();
                    (id, extras)
                })
                .collect();
            let mut best: Option<(u32, Vec<(u16, u32)>)> = None;
            let mut stack = vec![(0usize, 0u32, Vec::new())];
            while let Some((i, sum, chosen)) = stack.pop() {
                if sum >= need {
                    if best.as_ref().is_none_or(|(b, _)| sum < *b) {
                        best = Some((sum, chosen));
                    }
                    continue;
                }
                if i == per_id.len() {
                    continue;
                }
                let (id, ref extras) = per_id[i];
                stack.push((i + 1, sum, chosen.clone()));
                for &e in extras {
                    let mut c = chosen.clone();
                    c.push((id, e));
                    stack.push((i + 1, sum + e, c));
                }
            }
            best.map(|(_, chosen)| chosen)
        }
    }
}

/// Runs production vs oracle on every message of `sys`, both modes and
/// both latest-transmission policies, under the given jitter.
fn assert_oracle_matches(sys: &System, ids: &[ActivityId], jitter: &[Time], limit: Time) {
    for &m in ids {
        for mode in [DynAnalysisMode::Greedy, DynAnalysisMode::Exact] {
            for policy in [LatestTxPolicy::PerMessage, LatestTxPolicy::PerNode] {
                let got = dyn_delay(sys, m, jitter, policy, mode, limit);
                let want = oracle_dyn_delay(sys, m, jitter, policy, mode, limit);
                assert_eq!(
                    got,
                    want,
                    "message {} ({mode:?}, {policy:?}) diverges from the oracle",
                    sys.app.activity(m).name
                );
            }
        }
    }
}

fn zero_jitter(sys: &System) -> Vec<Time> {
    vec![Time::ZERO; sys.app.activities().len()]
}

#[test]
fn oracle_matches_on_fig1_like_set() {
    // Fig. 1.a shape: two lf messages below, an hp/lp pair on id 4, one
    // above; power-of-two extras (sizes 2, 3, 5, 9, 17 minislots).
    let (sys, ids) = dyn_system(
        &[
            (2, 1, 0, 0, 1000.0),
            (3, 2, 0, 1, 1000.0),
            (5, 4, 9, 0, 500.0),
            (9, 4, 1, 0, 1000.0),
            (17, 5, 0, 1, 2000.0),
        ],
        40,
    );
    assert_oracle_matches(&sys, &ids, &zero_jitter(&sys), Time::from_us(1e7));
}

#[test]
fn oracle_matches_under_jitter() {
    let (sys, ids) = dyn_system(
        &[
            (2, 1, 0, 0, 250.0),
            (3, 2, 0, 1, 500.0),
            (5, 3, 0, 0, 1000.0),
            (9, 4, 0, 1, 1000.0),
        ],
        24,
    );
    let mut jitter = zero_jitter(&sys);
    jitter[ids[0].index()] = Time::from_us(180.0);
    jitter[ids[1].index()] = Time::from_us(75.0);
    jitter[ids[2].index()] = Time::from_us(999.0);
    assert_oracle_matches(&sys, &ids, &jitter, Time::from_us(1e7));
}

#[test]
fn oracle_matches_on_tight_segment() {
    // A short dynamic segment where lf traffic can genuinely fill
    // cycles (need_extra small relative to the extras).
    let (sys, ids) = dyn_system(
        &[
            (9, 1, 0, 0, 500.0),
            (5, 2, 0, 1, 1000.0),
            (3, 3, 0, 0, 1000.0),
            (2, 4, 0, 1, 1000.0),
        ],
        12,
    );
    assert_oracle_matches(&sys, &ids, &zero_jitter(&sys), Time::from_us(1e7));
}

#[test]
fn oracle_matches_on_random_small_systems() {
    // Deterministic LCG over power-of-two sizes, identifiers, senders
    // and periods: many tiny 2-node systems, every message checked.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    for _ in 0..40 {
        let n_msgs = 2 + next(3) as usize; // 2..=4
        let mut specs = Vec::new();
        let mut sizes = vec![2u32, 3, 5, 9, 17];
        for _ in 0..n_msgs {
            let size = sizes.remove(next(sizes.len() as u64) as usize);
            let fid = 1 + (next(6)) as u16;
            let prio = next(4) as u32;
            // a frame identifier belongs to one sender node: reuse the
            // first drawer's node on a collision
            let node = specs
                .iter()
                .find(|&&(_, f, _, _, _)| f == fid)
                .map_or(next(2) as usize, |&(_, _, _, n, _)| n);
            let period = [250.0, 500.0, 1000.0][next(3) as usize];
            specs.push((size, fid, prio, node, period));
        }
        // >= worst-case min_minislots (base 5 + frame 17), so every
        // drawn configuration validates.
        let n_minislots = 24 + next(24) as u32;
        let (sys, ids) = dyn_system(&specs, n_minislots);
        assert_oracle_matches(&sys, &ids, &zero_jitter(&sys), Time::from_us(1e7));
    }
}

#[test]
fn oracle_matches_on_random_jittered_systems() {
    // Same LCG-random envelope as above, but with release jitter drawn
    // per message — the regime where the pruned Exact DP runs many
    // cycles per window and every prune rule gets exercised.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    for _ in 0..25 {
        let n_msgs = 2 + next(3) as usize; // 2..=4
        let mut specs = Vec::new();
        let mut sizes = vec![2u32, 3, 5, 9, 17];
        for _ in 0..n_msgs {
            let size = sizes.remove(next(sizes.len() as u64) as usize);
            let fid = 1 + (next(6)) as u16;
            let prio = next(4) as u32;
            let node = specs
                .iter()
                .find(|&&(_, f, _, _, _)| f == fid)
                .map_or(next(2) as usize, |&(_, _, _, n, _)| n);
            let period = [250.0, 500.0, 1000.0][next(3) as usize];
            specs.push((size, fid, prio, node, period));
        }
        let n_minislots = 24 + next(24) as u32;
        let (sys, ids) = dyn_system(&specs, n_minislots);
        let mut jitter = zero_jitter(&sys);
        for &m in &ids {
            jitter[m.index()] = Time::from_us(next(900) as f64);
        }
        assert_oracle_matches(&sys, &ids, &jitter, Time::from_us(1e7));
    }
}

#[test]
fn exact_short_circuits_to_greedy_when_skeleton_cannot_fill() {
    // Every lf extra is tiny relative to the dynamic segment: the sum
    // of the largest extra per lower identifier (the skeleton max-fill)
    // stays below `need_extra` for the high-identifier probes, so no
    // cycle can ever be filled from lf traffic and the Exact packing is
    // provably identical to Greedy for the whole call. The session
    // counters must show the short-circuit firing, and the analysis
    // itself must match both a Greedy session and the oracle.
    use flexray::analysis::{AnalysisConfig, AnalysisSession};
    let (sys, ids) = dyn_system(
        &[
            (2, 1, 0, 0, 1000.0),
            (3, 2, 0, 1, 1000.0),
            (2, 10, 0, 0, 500.0),
            (3, 11, 0, 1, 1000.0),
        ],
        60,
    );
    assert_oracle_matches(&sys, &ids, &zero_jitter(&sys), Time::from_us(1e7));

    let exact_cfg = AnalysisConfig {
        dyn_mode: DynAnalysisMode::Exact,
        ..AnalysisConfig::default()
    };
    let greedy_cfg = AnalysisConfig {
        dyn_mode: DynAnalysisMode::Greedy,
        ..AnalysisConfig::default()
    };
    let mut exact = AnalysisSession::new(sys.platform.clone(), sys.app.clone(), exact_cfg);
    let mut greedy = AnalysisSession::new(sys.platform.clone(), sys.app.clone(), greedy_cfg);
    let ce = exact.analyse_into(&sys.bus).expect("exact analyses");
    let cg = greedy.analyse_into(&sys.bus).expect("greedy analyses");
    assert_eq!(ce, cg, "short-circuited Exact must equal Greedy");
    let (calls, shorts) = exact.dyn_exact_stats();
    assert!(calls > 0, "Exact session must route through the packer");
    assert_eq!(
        shorts, calls,
        "every call here is provably Greedy-equivalent, so all must short-circuit"
    );
    let (gcalls, _) = greedy.dyn_exact_stats();
    assert_eq!(gcalls, 0, "Greedy session never enters the Exact packer");
}

#[test]
fn greedy_is_bounded_by_exact() {
    // `Exact` packs each cycle with the minimal consumption that still
    // fills it, leaving the most interference for later cycles — the
    // more conservative bound. Greedy largest-first overshoots and runs
    // the pool dry sooner, so per message w(Greedy) <= w(Exact); the
    // per-cycle consumption bound goes the other way (Exact <= Greedy).
    // This set makes the cycle-count gap strict for m4: need 10, heads
    // {6, 6, 4, 4} -> greedy fills one cycle (6+6), exact fills two
    // (6+4, 6+4).
    let (sys, ids) = dyn_system(
        &[
            (7, 1, 0, 0, 1000.0),
            (7, 2, 0, 1, 1000.0),
            (5, 3, 0, 0, 1000.0),
            (5, 4, 0, 1, 1000.0),
            (3, 12, 0, 0, 1000.0),
        ],
        23,
    );
    let jitter = zero_jitter(&sys);
    let limit = Time::from_us(1e7);
    let m = ids[4];
    let wg = dyn_delay(
        &sys,
        m,
        &jitter,
        LatestTxPolicy::PerMessage,
        DynAnalysisMode::Greedy,
        limit,
    )
    .expect("greedy converges");
    let we = dyn_delay(
        &sys,
        m,
        &jitter,
        LatestTxPolicy::PerMessage,
        DynAnalysisMode::Exact,
        limit,
    )
    .expect("exact converges");
    assert!(
        wg < we,
        "greedy {wg} should be strictly below exact {we} here"
    );
    // And on every message of every mode-comparable system above, the
    // same bound holds.
    for &m in &ids {
        let wg = dyn_delay(
            &sys,
            m,
            &jitter,
            LatestTxPolicy::PerMessage,
            DynAnalysisMode::Greedy,
            limit,
        );
        let we = dyn_delay(
            &sys,
            m,
            &jitter,
            LatestTxPolicy::PerMessage,
            DynAnalysisMode::Exact,
            limit,
        );
        if let (Some(wg), Some(we)) = (wg, we) {
            assert!(
                wg <= we,
                "{}: greedy {wg} > exact {we}",
                sys.app.activity(m).name
            );
        }
    }
}

#[test]
fn exact_consumes_no_more_than_greedy_per_cycle() {
    // The per-cycle `Exact <= Greedy` consumption bound: the exact
    // filler never spends more interference on one cycle than the
    // greedy filler does.
    let pending: BTreeMap<u16, Vec<u32>> = [
        (1u16, vec![6u32]),
        (2, vec![6]),
        (3, vec![4]),
        (4, vec![4]),
        (12, vec![2]),
    ]
    .into_iter()
    .collect();
    for need in 1..=22u32 {
        let greedy = oracle_select_cycle(&pending, need, DynAnalysisMode::Greedy);
        let exact = oracle_select_cycle(&pending, need, DynAnalysisMode::Exact);
        assert_eq!(greedy.is_some(), exact.is_some(), "need {need}");
        if let (Some(g), Some(e)) = (greedy, exact) {
            let gs: u32 = g.iter().map(|&(_, x)| x).sum();
            let es: u32 = e.iter().map(|&(_, x)| x).sum();
            assert!(es <= gs, "need {need}: exact consumed {es} > greedy {gs}");
            assert!(es >= need && gs >= need, "need {need}: both must fill");
        }
    }
}

#[test]
fn exact_session_sweep_with_selection_memo_matches_fresh_analyses() {
    // An Exact session sweeping the DYN length candidate by candidate,
    // then switching frame-identifier assignment and back, must
    // reproduce a fresh one-shot analysis everywhere. The cycle-selection
    // memo lives for one candidate, so a candidate costs the same DP
    // work however often, and after whatever other candidates, it is
    // analysed. The `(dp_runs, memo_hits)` counters are pure functions
    // of this fixed sequence, so pinning them gates the memo's effect
    // without timing noise. So are the Exact-call counters and the ET
    // fixed point's work (`et_stats`): a local response is recomputed
    // only when a jitter leaves the span its arrival counts allow.
    use flexray::analysis::{AnalysisConfig, AnalysisSession, EtStats};
    use flexray::gen::{generate, GeneratorConfig};
    use flexray::opt::{bbc_skeleton, dyn_sweep_grid, Evaluator};
    let gen_cfg = GeneratorConfig {
        tt_fraction: 0.0,
        ..GeneratorConfig::paper(3)
    };
    let generated = generate(&gen_cfg, 0).expect("generates");
    let (platform, app) = (generated.platform, generated.app);
    let cfg = AnalysisConfig {
        dyn_mode: DynAnalysisMode::Exact,
        ..AnalysisConfig::default()
    };
    let template = bbc_skeleton(&platform, &app, gen_cfg.phy);
    let (min, max) = Evaluator::new(platform.clone(), app.clone(), cfg)
        .dyn_bounds(&template)
        .expect("the set has a DYN sweep");
    let grid = dyn_sweep_grid(min, max, &OptParams::default());
    let lengths: Vec<u32> = grid.iter().step_by(grid.len() / 24).copied().collect();
    assert!(lengths.len() >= 20, "{} lengths", lengths.len());

    let mut session = AnalysisSession::new(platform.clone(), app.clone(), cfg);
    // Analyses one candidate, checks it against a fresh analysis and
    // returns the selection work it took.
    let run = |session: &mut AnalysisSession, bus: &BusConfig, reanalyse: bool| {
        bus.validate_for(&app, platform.len())
            .expect("valid candidate");
        let (runs0, hits0) = session.dyn_select_stats();
        let cost = if reanalyse {
            session.reanalyse_dyn_length(bus.n_minislots)
        } else {
            session.analyse_into(bus)
        }
        .expect("analyses");
        let sys = System {
            platform: platform.clone(),
            app: app.clone(),
            bus: bus.clone(),
        };
        let fresh = analyse(&sys, &cfg).expect("fresh analysis");
        let n = bus.n_minislots;
        assert_eq!(cost, fresh.cost, "n = {n}");
        assert_eq!(session.responses(), &fresh.responses[..], "n = {n}");
        assert_eq!(session.diverged(), &fresh.diverged[..], "n = {n}");
        let (runs1, hits1) = session.dyn_select_stats();
        (runs1 - runs0, hits1 - hits0)
    };
    let mut bus = template.clone();
    let mut busiest = (0, (0, 0));
    for (k, &n) in lengths.iter().enumerate() {
        bus.n_minislots = n;
        let work = run(&mut session, &bus, k > 0);
        if work.0 > busiest.1 .0 {
            busiest = (n, work);
        }
    }
    let (n, work) = busiest;
    assert!(
        work.0 > 0 && work.1 > 0,
        "the sweep must run the DP and hit the memo"
    );
    bus.n_minislots = n;
    assert_eq!(
        run(&mut session, &bus, true),
        work,
        "the same candidate again: the memo must have been reset"
    );

    // A different frame-identifier assignment (the used identifiers
    // mirrored, on the longest segment) moves the skeleton generation;
    // back on the original one the candidate again costs exactly what
    // it did the first time.
    let original = bus.clone();
    bus.n_minislots = *lengths.last().expect("lengths");
    let mut used: Vec<FrameId> = bus.frame_ids.values().copied().collect();
    used.sort_unstable();
    used.dedup();
    for fid in bus.frame_ids.values_mut() {
        let k = used.binary_search(fid).expect("used identifier");
        *fid = used[used.len() - 1 - k];
    }
    assert_ne!(bus.frame_ids, original.frame_ids, "assignment changed");
    run(&mut session, &bus, false);
    assert_eq!(
        run(&mut session, &original, false),
        work,
        "back on the original assignment: the memo must have been reset"
    );

    let (dp_runs, memo_hits) = session.dyn_select_stats();
    assert!(memo_hits > dp_runs, "the memo must answer most selections");
    assert_eq!((dp_runs, memo_hits), (1207, 33_484));
    assert_eq!(session.dyn_exact_stats(), (2667, 1242));
    assert_eq!(
        session.et_stats(),
        EtStats {
            fps_runs: 10_702,
            dyn_runs: 2667,
            memo_hits: 15_239,
            inner_iters: 596,
            inner_cap_hits: 3,
        }
    );
}
