//! Worst-case response times of dynamic-segment messages (Section 5.1).
//!
//! The response time of a DYN message `m` is
//! `R_m = J_m + w_m + C_m` (Eq. 2) with
//! `w_m = σ_m + BusCycles_m · gdCycle + w'_m` (Eq. 3).
//!
//! A bus cycle is *filled* (unusable for `m`) when a higher-priority
//! local message with the same frame identifier (`hp(m)`) occupies the
//! slot, or when transmissions of lower-identifier messages (`lf(m)`)
//! plus empty minislots of unused lower identifiers (`ms(m)`) push the
//! minislot counter past the latest-transmission-start bound before slot
//! `FrameID_m` begins.
//!
//! That bound is per message: a frame of `len_m` minislots may start
//! while the counter is at most `n_minislots − len_m + 1`, i.e. while the
//! frame itself still fits the rest of the dynamic segment. This is the
//! rule that reproduces Fig. 4 of the paper (R2 = 37 / 35 / 21), and the
//! simulator applies the same one.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use flexray_model::{ActivityId, MessageClass, SystemView, Time};

use crate::session::JitterSpan;

/// How the set of filled bus cycles is maximised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DynAnalysisMode {
    /// Largest-first greedy packing per cycle — the polynomial heuristic
    /// of ref \[14\].
    #[default]
    Greedy,
    /// Per-cycle optimal packing: a subset-sum DP picks, per cycle, the
    /// interference subset of minimal total consumption that still fills
    /// the cycle, which leaves the most interference for later cycles.
    Exact,
}

/// Higher-priority local messages sharing the frame identifier of `m`
/// (the set `hp(m)` — e.g. `hp(m_g) = {m_f}` in Fig. 1.a).
#[must_use]
pub fn hp_messages<'a>(sys: impl Into<SystemView<'a>>, m: ActivityId) -> Vec<ActivityId> {
    let sys = sys.into().focused(m);
    let Some(fid) = sys.bus.frame_id_of(m) else {
        return Vec::new();
    };
    let prio = sys.app.activity(m).as_message().expect("message").priority;
    sys.app
        .messages_of_class(MessageClass::Dynamic)
        .filter(|&j| {
            j != m && sys.bus.frame_id_of(j) == Some(fid) && {
                let pj = sys.app.activity(j).as_message().expect("message").priority;
                pj > prio || (pj == prio && j.index() < m.index())
            }
        })
        .collect()
}

/// Messages that may use dynamic slots with lower frame identifiers than
/// `m` (the set `lf(m)` — e.g. `lf(m_g) = {m_d, m_e}` in Fig. 1.a).
#[must_use]
pub fn lf_messages<'a>(sys: impl Into<SystemView<'a>>, m: ActivityId) -> Vec<ActivityId> {
    let sys = sys.into().focused(m);
    let Some(fid) = sys.bus.frame_id_of(m) else {
        return Vec::new();
    };
    sys.app
        .messages_of_class(MessageClass::Dynamic)
        .filter(|&j| j != m && sys.bus.frame_id_of(j).is_some_and(|fj| fj < fid))
        .collect()
}

/// The latest-transmission-start bound of `m` (see the module docs), in
/// minislot-counter units.
#[must_use]
pub(crate) fn latest_tx_bound<'a>(sys: impl Into<SystemView<'a>>, m: ActivityId) -> u32 {
    let sys = sys.into().focused(m);
    let lm = sys.bus.minislots_of(sys.app, m);
    sys.bus.n_minislots.saturating_sub(lm) + 1
}

/// One lower-identifier interference source of the filled-cycles pool.
#[derive(Debug, Clone, Copy)]
struct LfEntry {
    /// Message whose pending instances this entry tracks.
    msg: ActivityId,
    /// Index of `msg` in the `lf(m)` set the pool was built from (its
    /// [`JitterSpan`] slot).
    src: u32,
    /// Frame identifier those instances occupy.
    id: u16,
    /// Extra minislots consumed beyond the idle one.
    extra: u32,
    /// Arrival divisor of the message.
    period: Time,
    /// Arrivals within the current busy window (monotone in `t`).
    arrivals: i64,
    /// Instances not yet consumed by a filled cycle at the current `t`.
    remaining: i64,
}

/// Pending interference pool for the filled-cycles computation: one
/// entry per `lf(m)` message, sorted by (frame identifier, extra
/// descending). The structure is built once per [`dyn_delay`] call; the
/// busy-window iteration only updates the pending counts in place
/// (arrivals are monotone in `t`), so no step of the fixed point
/// re-sorts or re-allocates.
#[derive(Debug, Clone, Default)]
struct LfPool {
    entries: Vec<LfEntry>,
}

impl LfPool {
    /// Rebuilds the pool structure for the `lf` set of one message,
    /// reusing the backing storage. Counts start at zero; call
    /// [`LfPool::advance`] to populate them for a busy window.
    fn rebuild(&mut self, sys: SystemView<'_>, lf: &[ActivityId]) {
        self.entries.clear();
        for (k, &j) in lf.iter().enumerate() {
            let fid = sys.bus.frame_id_of(j).expect("lf has frame id").number();
            self.entries.push(LfEntry {
                msg: j,
                src: u32::try_from(k).expect("lf fits u32"),
                id: fid,
                extra: sys.bus.minislots_of(sys.app, j).saturating_sub(1),
                period: sys.app.period_of(j),
                arrivals: 0,
                remaining: 0,
            });
        }
        // Entries sharing (id, extra) are interchangeable — the packing
        // only ever observes the (id, extra, pending>0) multiset — so the
        // allocation-free unstable sort is safe.
        self.entries
            .sort_unstable_by_key(|e| (e.id, core::cmp::Reverse(e.extra)));
    }

    /// Advances the pool to busy window `t`: per entry, the pending
    /// count is bumped to the (monotone) arrival count and the whole
    /// pending set becomes available for packing again. Narrows each
    /// entry's span on the count it reads; returns whether any count
    /// moved.
    fn advance(&mut self, t: Time, jitter: &[Time], spans: &mut [JitterSpan]) -> bool {
        let mut moved = false;
        for e in &mut self.entries {
            let arrivals = spans[e.src as usize].arrivals(t, jitter[e.msg.index()], e.period);
            debug_assert!(arrivals >= e.arrivals, "arrivals are monotone in t");
            moved |= arrivals != e.arrivals;
            e.arrivals = arrivals;
            e.remaining = arrivals;
        }
        moved
    }

    /// Sum over identifiers of the largest extra (the first, in pool
    /// order) with an instance pending at window `t` — what
    /// [`DynScratch::leftover`] returns after [`LfPool::advance`] when no
    /// cycle is filled. One pass that reads each identifier's entries
    /// only up to its first pending one, and narrows their spans only
    /// to the sign of `t + J`.
    fn pending_heads(&self, t: Time, jitter: &[Time], spans: &mut [JitterSpan]) -> u32 {
        let mut sum = 0;
        let mut i = 0;
        while i < self.entries.len() {
            let id = self.entries[i].id;
            while i < self.entries.len() && self.entries[i].id == id {
                let e = &self.entries[i];
                i += 1;
                if spans[e.src as usize].pending(t, jitter[e.msg.index()]) {
                    sum += e.extra;
                    break;
                }
            }
            while i < self.entries.len() && self.entries[i].id == id {
                i += 1;
            }
        }
        sum
    }

    /// Sum over identifiers of the largest extra any instance can carry:
    /// the most lf traffic can add to one cycle, whatever the arrival
    /// counts (the first entry of an identifier carries its largest
    /// extra).
    fn max_fill(&self) -> u64 {
        let mut max_fill = 0u64;
        let mut i = 0;
        while i < self.entries.len() {
            max_fill += u64::from(self.entries[i].extra);
            let id = self.entries[i].id;
            while i < self.entries.len() && self.entries[i].id == id {
                i += 1;
            }
        }
        max_fill
    }

    /// One scan over the (sorted) entries collecting, per identifier
    /// with pending instances, its *head* — the largest pending extra —
    /// together with the head level's total pending count and starting
    /// entry index, in ascending identifier order.
    fn heads_into(&self, out: &mut Vec<Head>) {
        out.clear();
        let n = self.entries.len();
        let mut i = 0;
        while i < n {
            let id = self.entries[i].id;
            // skip drained higher-extra levels of this identifier
            while i < n && self.entries[i].id == id && self.entries[i].remaining == 0 {
                i += 1;
            }
            if i < n && self.entries[i].id == id {
                let extra = self.entries[i].extra;
                let entry_idx = i;
                let mut count = 0i64;
                while i < n && self.entries[i].id == id && self.entries[i].extra == extra {
                    count += self.entries[i].remaining;
                    i += 1;
                }
                out.push(Head {
                    id,
                    extra,
                    count,
                    entry_idx,
                });
                while i < n && self.entries[i].id == id {
                    i += 1;
                }
            }
        }
    }

    /// First entry index of the `(id, extra)` level (entries of one
    /// level are adjacent in the sort order).
    fn level_start(&self, id: u16, extra: u32) -> usize {
        self.entries
            .partition_point(|e| e.id < id || (e.id == id && e.extra > extra))
    }

    /// Total pending instances at the `(id, extra)` level.
    fn level_count(&self, id: u16, extra: u32) -> i64 {
        self.entries[self.level_start(id, extra)..]
            .iter()
            .take_while(|e| e.id == id && e.extra == extra)
            .map(|e| e.remaining)
            .sum()
    }

    /// Consumes one pending instance at the `(id, extra)` level.
    /// Returns whether an instance was actually available — a miss
    /// means the caller chose an instance the pool does not hold.
    fn consume(&mut self, id: u16, extra: u32) -> bool {
        self.consume_n(id, extra, 1) == 1
    }

    /// Consumes up to `n` pending instances at the `(id, extra)` level,
    /// returning how many were actually consumed.
    fn consume_n(&mut self, id: u16, extra: u32, n: i64) -> i64 {
        let start = self.level_start(id, extra);
        if self
            .entries
            .get(start)
            .is_none_or(|e| e.id != id || e.extra != extra)
        {
            return 0;
        }
        self.drain_level(start, n)
    }

    /// Consumes up to `n` instances from the level whose first entry is
    /// `start`, returning how many were consumed.
    fn drain_level(&mut self, start: usize, n: i64) -> i64 {
        let id = self.entries[start].id;
        let extra = self.entries[start].extra;
        let mut left = n;
        for e in &mut self.entries[start..] {
            if left == 0 || e.id != id || e.extra != extra {
                break;
            }
            let take = e.remaining.min(left);
            e.remaining -= take;
            left -= take;
        }
        n - left
    }

    fn has_pending(&self) -> bool {
        self.entries.iter().any(|e| e.remaining > 0)
    }
}

/// The head of one identifier's pending interference: its largest
/// pending extra, how many instances that level still holds, and where
/// the level starts in the entry list.
#[derive(Debug, Clone, Copy)]
struct Head {
    id: u16,
    extra: u32,
    count: i64,
    entry_idx: usize,
}

/// One node of the Exact-mode DP's choice arena: the `(frame id,
/// extra)` option taken and the arena index of the previous choice on
/// the same path (`usize::MAX` at the root).
#[derive(Debug, Clone, Copy)]
struct DpChoice {
    id: u16,
    extra: u32,
    parent: usize,
}

/// DP cell: minimal total extra consumed to reach this (saturated)
/// accumulated sum, plus the arena tail of the choices reaching it.
type DpCell = Option<(u32, usize)>;

/// Key of the Exact-mode selection memo: the index of the message whose
/// pool is packed, the cycle's `need_extra`, and the mask of pool levels
/// with pending instances (bit `k` = level `k`).
type SelectKey = (u32, u32, u64);

/// Hasher of the selection memo: fixed keys, so every process hashes
/// and probes the same way (the memo is private, never fed by input).
type SelectHasher = BuildHasherDefault<DefaultHasher>;

/// Most pool levels the selection memo can key (one mask bit each);
/// larger pools run the DP on every selection.
const MEMO_MAX_LEVELS: usize = 64;

/// Reusable scratch state of the dynamic-message busy-window fixed
/// point: the interference pool, the per-`hp(m)` arrival counts and the
/// packing/DP buffers. A fresh scratch per call reproduces the plain
/// [`dyn_delay`]; a scratch kept alive across calls — as the
/// [`AnalysisSession`](crate::AnalysisSession) does — makes the hot
/// path allocation-free in the steady state. Results are bit-identical
/// either way.
#[derive(Debug, Default)]
pub(crate) struct DynScratch {
    pool: LfPool,
    /// Arrival count per `hp(m)` message at the current busy window.
    hp_arrivals: Vec<i64>,
    /// Per-cycle head buffer (one head per identifier).
    cand: Vec<Head>,
    /// The `(id, extra)` choices of the cycle being filled (Exact mode).
    choices: Vec<(u16, u32)>,
    /// Exact-mode DP tables, indexed by saturated accumulated sum.
    dp_best: Vec<DpCell>,
    dp_next: Vec<DpCell>,
    /// Exact-mode DP choice arena (see [`DpChoice`]).
    dp_arena: Vec<DpChoice>,
    /// Exact-mode identifier groups of the current cycle selection:
    /// per identifier with pending positive extras, its `(start, end)`
    /// entry range and head (largest pending) extra.
    dp_groups: Vec<(u32, u32, u32)>,
    /// Suffix sums over `dp_groups` of the head extras:
    /// `dp_suffix[g] = Σ_{j ≥ g} head_j` — the most any DP state can
    /// still gain from the remaining identifiers.
    dp_suffix: Vec<u64>,
    /// Per-group head extras, sorted descending for the greedy bound.
    dp_heads: Vec<u32>,
    /// Occupied cells of `dp_best`, ascending.
    dp_occ: Vec<usize>,
    /// Cells newly occupied during the current group's relaxations.
    dp_new: Vec<usize>,
    /// Exact-mode busy-window calls observed by this scratch.
    exact_calls: u64,
    /// Calls where the fill bound proved no cycle can be filled from
    /// `lf(m)`, so the whole call took the no-fill path (no packing).
    exact_short_circuits: u64,
    /// Index of the message whose pool the scratch currently holds (the
    /// memo key's first component).
    msg: u32,
    /// First entry index of each *level* of the current pool — a
    /// maximal run of entries sharing `(id, extra)` — in pool order,
    /// which is ascending identifier. Filled per Exact-mode call.
    levels: Vec<u32>,
    /// Exact-mode selection memo: [`SelectKey`] → mask of the levels
    /// the DP chose (0 = the pending pool cannot fill the cycle). The
    /// DP reads only each entry's `id`, `extra` and whether it is still
    /// pending, and the pool skeleton is fixed per (message,
    /// generation), so within one scope a selection is a pure function
    /// of its key — tie-breaks included. Scope: one candidate under
    /// session management (cleared by [`DynScratch::begin_candidate`]),
    /// one call otherwise; that bounds its size to one candidate's
    /// distinct selections. Pools of more than [`MEMO_MAX_LEVELS`]
    /// levels bypass it.
    memo: HashMap<SelectKey, u64, SelectHasher>,
    /// Cycle selections the DP actually ran (memo misses and bypasses).
    dp_runs: u64,
    /// Cycle selections answered by the memo.
    memo_hits: u64,
    /// Session-managed per-message pool skeletons (entries with counts
    /// zeroed) flattened into one arena, valid for one `skel_gen`.
    skel_arena: Vec<LfEntry>,
    /// Per-activity `(start, end)` range into `skel_arena`;
    /// `(u32::MAX, u32::MAX)` = not cached.
    skel_range: Vec<(u32, u32)>,
    /// Generation of the cached skeletons: 0 = unmanaged (every call
    /// rebuilds), set by the owning session via
    /// [`DynScratch::begin_candidate`].
    skel_gen: u64,
}

impl DynScratch {
    /// Starts one candidate of the session under the (frame-assignment,
    /// phy) `generation`. Pool skeletons are pure functions of that
    /// pair, so they survive while the generation does and are dropped
    /// when it moves on; the selection memo is dropped on every
    /// candidate. Only the session calls this; a plain scratch stays at
    /// generation 0 and rebuilds (and forgets) on every call.
    pub(crate) fn begin_candidate(&mut self, generation: u64) {
        self.memo.clear();
        if self.skel_gen != generation {
            self.skel_gen = generation;
            self.skel_arena.clear();
            self.skel_range.clear();
        }
    }

    /// Prepares the scratch for one message's fixed point: restores the
    /// message's pool skeleton if the generation holds one, otherwise
    /// rebuilds (and, under session management, caches) it.
    fn begin(&mut self, sys: SystemView<'_>, m: ActivityId, hp: &[ActivityId], lf: &[ActivityId]) {
        self.hp_arrivals.clear();
        self.hp_arrivals.resize(hp.len(), 0);
        self.msg = u32::try_from(m.index()).expect("activity index fits u32");
        if self.skel_gen == 0 {
            self.memo.clear();
            self.pool.rebuild(sys, lf);
            return;
        }
        if self.skel_range.len() <= m.index() {
            self.skel_range.resize(m.index() + 1, (u32::MAX, u32::MAX));
        }
        let (start, end) = self.skel_range[m.index()];
        if start != u32::MAX {
            self.pool.entries.clear();
            self.pool
                .entries
                .extend_from_slice(&self.skel_arena[start as usize..end as usize]);
        } else {
            self.pool.rebuild(sys, lf);
            let start = u32::try_from(self.skel_arena.len()).expect("arena fits u32");
            self.skel_arena.extend_from_slice(&self.pool.entries);
            let end = u32::try_from(self.skel_arena.len()).expect("arena fits u32");
            self.skel_range[m.index()] = (start, end);
        }
    }

    /// Sum of the per-identifier head extras still pending — the
    /// final-cycle delay contribution of the unconsumed pool.
    fn leftover(&mut self) -> u32 {
        self.pool.heads_into(&mut self.cand);
        self.cand.iter().map(|h| h.extra).sum()
    }

    /// `(filled, leftover)` of packing the current pool on a copy with a
    /// cold selection memo, so checking a step leaves this scratch's
    /// memo and counters exactly as they were.
    #[cfg(debug_assertions)]
    fn full_step(&self, need_extra: u32, mode: DynAnalysisMode) -> (i64, u32) {
        let mut copy = DynScratch {
            pool: self.pool.clone(),
            msg: self.msg,
            ..DynScratch::default()
        };
        copy.index_levels();
        let filled = copy.fill(need_extra, mode);
        (filled, copy.leftover())
    }

    /// Packs filled cycles until the pool can no longer push the
    /// counter past the bound, returning the number of filled cycles.
    /// Cycle-by-cycle identical to a one-cycle-at-a-time formulation:
    /// the selected cycle repeats verbatim until one of its `(id,
    /// extra)` levels exhausts — the only event that can change the
    /// option set — so the repeats are applied as one batch.
    fn fill(&mut self, need_extra: u32, mode: DynAnalysisMode) -> i64 {
        match mode {
            DynAnalysisMode::Greedy => self.fill_greedy(need_extra),
            DynAnalysisMode::Exact => self.fill_exact(need_extra),
        }
    }

    /// Largest-first packing (ref \[14\]): per cycle, take per-identifier
    /// heads in descending extra order until the cycle is filled.
    fn fill_greedy(&mut self, need_extra: u32) -> i64 {
        let mut filled: i64 = 0;
        loop {
            self.pool.heads_into(&mut self.cand);
            if self.cand.is_empty() {
                break;
            }
            // Ties in extra keep ascending identifier order, exactly as
            // a stable sort over the per-id candidates would. Zero-extra
            // heads sort last: an idle identifier contributes nothing
            // beyond its base minislot, so they never help filling.
            self.cand
                .sort_unstable_by_key(|h| (core::cmp::Reverse(h.extra), h.id));
            let mut sum = 0u32;
            let mut taken = 0usize;
            let mut repeats = i64::MAX;
            for h in &self.cand {
                if sum >= need_extra || h.extra == 0 {
                    break;
                }
                sum += h.extra;
                repeats = repeats.min(h.count);
                taken += 1;
            }
            if sum < need_extra {
                break;
            }
            debug_assert!(repeats >= 1, "chosen heads must be pending");
            for k in 0..taken {
                let h = self.cand[k];
                let consumed = self.pool.drain_level(h.entry_idx, repeats);
                debug_assert_eq!(
                    consumed, repeats,
                    "head level ({}, {}) exhausted mid-batch",
                    h.id, h.extra
                );
            }
            filled += repeats;
        }
        filled
    }

    /// Per-cycle optimal packing: repeatedly pick (and consume) the
    /// minimal-consumption subset that still fills a cycle.
    fn fill_exact(&mut self, need_extra: u32) -> i64 {
        let mut filled: i64 = 0;
        while self.pool.has_pending() {
            if !self.select_cycle(need_extra) {
                break;
            }
            let repeats = self
                .choices
                .iter()
                .map(|&(id, e)| self.pool.level_count(id, e))
                .min()
                .expect("a filled cycle consumes at least one instance");
            debug_assert!(repeats >= 1, "chosen levels must be pending");
            if repeats == 1 {
                for &(id, extra) in &self.choices {
                    let hit = self.pool.consume(id, extra);
                    debug_assert!(hit, "chosen instance ({id}, {extra}) missing from pool");
                }
            } else {
                for &(id, extra) in &self.choices {
                    let consumed = self.pool.consume_n(id, extra, repeats);
                    debug_assert_eq!(
                        consumed, repeats,
                        "level ({id}, {extra}) exhausted mid-batch"
                    );
                }
            }
            filled += repeats;
        }
        filled
    }

    /// Records the level starts of the current pool (see
    /// [`DynScratch::levels`]).
    fn index_levels(&mut self) {
        self.levels.clear();
        let entries = &self.pool.entries;
        for (i, e) in entries.iter().enumerate() {
            if i == 0 || (entries[i - 1].id, entries[i - 1].extra) != (e.id, e.extra) {
                self.levels.push(u32::try_from(i).expect("pool fits u32"));
            }
        }
    }

    /// Mask of the levels that still hold a pending instance.
    fn pending_levels(&self) -> u64 {
        let entries = &self.pool.entries;
        let mut mask = 0u64;
        for (k, &start) in self.levels.iter().enumerate() {
            let end = self
                .levels
                .get(k + 1)
                .map_or(entries.len(), |&e| e as usize);
            if entries[start as usize..end].iter().any(|e| e.remaining > 0) {
                mask |= 1 << k;
            }
        }
        mask
    }

    /// [`DynScratch::select_cycle_exact`] behind the selection memo:
    /// a hit rebuilds `self.choices` from the memoised level mask in
    /// level order — ascending identifier, the order the DP emits — and
    /// a miss runs the DP and records its answer.
    fn select_cycle(&mut self, need_extra: u32) -> bool {
        if self.levels.len() > MEMO_MAX_LEVELS {
            self.dp_runs += 1;
            return self.select_cycle_exact(need_extra);
        }
        let key = (self.msg, need_extra, self.pending_levels());
        if let Some(&chosen) = self.memo.get(&key) {
            self.memo_hits += 1;
            self.choices.clear();
            let mut bits = chosen;
            while bits != 0 {
                let e = self.pool.entries[self.levels[bits.trailing_zeros() as usize] as usize];
                self.choices.push((e.id, e.extra));
                bits &= bits - 1;
            }
            #[cfg(debug_assertions)]
            {
                let memoised = std::mem::take(&mut self.choices);
                let filled = self.select_cycle_exact(need_extra);
                assert_eq!(filled, chosen != 0, "memo hit disagrees with the DP");
                assert_eq!(memoised, self.choices, "memo hit disagrees with the DP");
            }
            return chosen != 0;
        }
        self.dp_runs += 1;
        let filled = self.select_cycle_exact(need_extra);
        let mut chosen = 0u64;
        if filled {
            for &(id, extra) in &self.choices {
                let k = self.levels.partition_point(|&start| {
                    let e = &self.pool.entries[start as usize];
                    e.id < id || (e.id == id && e.extra > extra)
                });
                chosen |= 1 << k;
            }
        }
        self.memo.insert(key, chosen);
        filled
    }

    /// Selects the `(id, extra)` choices of the next Exact-mode filled
    /// cycle into `self.choices`, or returns `false` if the pool can no
    /// longer push the counter past the bound.
    ///
    /// The min-total-consumption subset-sum DP (sum ≥ `need_extra`, at
    /// most one option per identifier) is *admissibly pruned*: every
    /// rule below drops only states that provably cannot change the
    /// winning chain at `dp_best[cap]`, so the selected subset — not
    /// just its total — is bit-identical to the unpruned DP's. The
    /// invariant the proofs lean on: below the cap a cell's total
    /// equals its sum, so "better" comparisons are strict and
    /// order-stable, and pruned states (which always lose them) cannot
    /// block a surviving state.
    ///
    /// * **Reachability**: a state at sum `s` entering group `g` can
    ///   only fill the cycle if `s + dp_suffix[g] ≥ need_extra` (the
    ///   suffix only shrinks, so doomed stays doomed). A doomed state's
    ///   descendants are all doomed, and doomed chains never reach the
    ///   cap, so skipping them is invisible. When even the root is
    ///   doomed the whole selection fails without touching the tables —
    ///   the common final iteration of every [`DynScratch::fill_exact`]
    ///   call.
    /// * **Greedy upper bound**: the largest-first head subset is a
    ///   feasible choice, so its total bounds the optimum from above;
    ///   cap states strictly above it are never stored.
    /// * **Dominance**: states with the same saturated sum keep the
    ///   cheaper total (the DP cell rule), and equal `(id, extra)`
    ///   levels within a group are interchangeable — relaxing the
    ///   second is always a strict-comparison no-op — so only the first
    ///   of each level is relaxed.
    /// * **Sparse cells**: only occupied cells are scanned, in
    ///   ascending sum order, preserving the unpruned relaxation order
    ///   exactly.
    fn select_cycle_exact(&mut self, need_extra: u32) -> bool {
        self.choices.clear();
        let cap = need_extra as usize;
        let need = cap as u64;
        // Group pass: per identifier with pending positive extras, the
        // entry range and the head extra.
        self.dp_groups.clear();
        {
            let entries = &self.pool.entries;
            let mut start = 0;
            while start < entries.len() {
                let id = entries[start].id;
                let mut end = start;
                let mut head = 0u32;
                while end < entries.len() && entries[end].id == id {
                    if entries[end].remaining > 0 {
                        head = head.max(entries[end].extra);
                    }
                    end += 1;
                }
                if head > 0 {
                    self.dp_groups.push((
                        u32::try_from(start).expect("pool fits u32"),
                        u32::try_from(end).expect("pool fits u32"),
                        head,
                    ));
                }
                start = end;
            }
        }
        let n_groups = self.dp_groups.len();
        self.dp_suffix.clear();
        self.dp_suffix.resize(n_groups + 1, 0);
        for g in (0..n_groups).rev() {
            self.dp_suffix[g] = self.dp_suffix[g + 1] + u64::from(self.dp_groups[g].2);
        }
        if self.dp_suffix[0] < need {
            // Even taking every head cannot fill the cycle.
            return false;
        }
        // Greedy upper bound: heads largest-first until the cycle fills.
        self.dp_heads.clear();
        self.dp_heads
            .extend(self.dp_groups.iter().map(|&(_, _, head)| head));
        self.dp_heads
            .sort_unstable_by_key(|&h| core::cmp::Reverse(h));
        let mut ubound = 0u64;
        for &h in &self.dp_heads {
            if ubound >= need {
                break;
            }
            ubound += u64::from(h);
        }
        self.dp_best.clear();
        self.dp_best.resize(cap + 1, None);
        self.dp_best[0] = Some((0, usize::MAX));
        self.dp_arena.clear();
        self.dp_occ.clear();
        self.dp_occ.push(0);
        for g in 0..n_groups {
            let (gs, ge, _) = self.dp_groups[g];
            let suffix = self.dp_suffix[g];
            let child_suffix = self.dp_suffix[g + 1];
            // Doomed cells can never reach the cap again; drop them
            // from the scan for good.
            self.dp_occ.retain(|&s| s as u64 + suffix >= need);
            self.dp_next.clear();
            self.dp_next.extend_from_slice(&self.dp_best);
            self.dp_new.clear();
            let group = &self.pool.entries[gs as usize..ge as usize];
            for &s in &self.dp_occ {
                if s == cap {
                    // Relaxing from the cap only adds cost: never better.
                    continue;
                }
                let Some((total, tail)) = self.dp_best[s] else {
                    debug_assert!(false, "dp_occ tracks occupied cells");
                    continue;
                };
                let mut prev_extra = None;
                for e in group {
                    if e.extra == 0 || e.remaining <= 0 || prev_extra == Some(e.extra) {
                        continue;
                    }
                    prev_extra = Some(e.extra);
                    let ns = (s + e.extra as usize).min(cap);
                    let nt = total + e.extra;
                    if ns == cap {
                        if u64::from(nt) > ubound {
                            continue;
                        }
                    } else if ns as u64 + child_suffix < need {
                        continue;
                    }
                    let better = match self.dp_next[ns] {
                        Some((t, _)) => nt < t,
                        None => true,
                    };
                    if better {
                        if self.dp_next[ns].is_none() {
                            self.dp_new.push(ns);
                        }
                        self.dp_arena.push(DpChoice {
                            id: e.id,
                            extra: e.extra,
                            parent: tail,
                        });
                        self.dp_next[ns] = Some((nt, self.dp_arena.len() - 1));
                    }
                }
            }
            if !self.dp_new.is_empty() {
                self.dp_occ.append(&mut self.dp_new);
                self.dp_occ.sort_unstable();
            }
            std::mem::swap(&mut self.dp_best, &mut self.dp_next);
        }
        let Some((_, mut tail)) = self.dp_best[cap] else {
            // Unreachable given the suffix feasibility check, but a
            // `false` here is always a sound answer.
            return false;
        };
        while tail != usize::MAX {
            let c = self.dp_arena[tail];
            self.choices.push((c.id, c.extra));
            tail = c.parent;
        }
        self.choices.reverse();
        true
    }

    /// `(exact_calls, exact_short_circuits)` observed by this scratch:
    /// how many Exact-mode busy-window calls ran, and how many of them
    /// the fill bound resolved entirely on the no-fill path (no DP).
    #[must_use]
    pub(crate) fn exact_stats(&self) -> (u64, u64) {
        (self.exact_calls, self.exact_short_circuits)
    }

    /// `(dp_runs, memo_hits)` of the Exact-mode cycle selections
    /// observed by this scratch: how many ran the packing DP and how
    /// many the selection memo answered. Deterministic, and identical
    /// in debug and release builds.
    #[must_use]
    pub(crate) fn select_stats(&self) -> (u64, u64) {
        (self.dp_runs, self.memo_hits)
    }
}

/// Iteration cap of the busy-window fixed point of Eq. (3). A window
/// still growing after this many steps is reported as divergent
/// (`None`), exactly like one that exceeds the caller's `limit`.
pub const MAX_FIXED_POINT_ITERS: usize = 10_000;

/// The delay `w_m(t)` of Eq. (3) for the busy window `t`, or `None` if it
/// exceeds `limit` or fails to converge within
/// [`MAX_FIXED_POINT_ITERS`] steps (the message diverges on this
/// configuration).
#[must_use]
pub fn dyn_delay<'a>(
    sys: impl Into<SystemView<'a>>,
    m: ActivityId,
    jitter: &[Time],
    mode: DynAnalysisMode,
    limit: Time,
) -> Option<Time> {
    let sys = sys.into();
    let hp = hp_messages(sys, m);
    let lf = lf_messages(sys, m);
    let mut spans = vec![JitterSpan::ANY; hp.len() + lf.len()];
    let mut scratch = DynScratch::default();
    dyn_delay_with(
        sys,
        m,
        &hp,
        &lf,
        jitter,
        mode,
        limit,
        &mut scratch,
        &mut spans,
    )
}

/// [`dyn_delay`] with the interference sets precomputed — they depend
/// only on the frame-identifier assignment, so session-style callers
/// derive them once per assignment and reuse them across the DYN-length
/// sweep — and the scratch state caller-owned.
///
/// The fixed point is incremental across busy-window growth: the
/// interference pool is built (and sorted) once, the per-step update
/// only adds the arrival deltas (arrivals are monotone in `t`), and
/// runs of identical filled cycles are applied as batches. When `lf(m)`
/// can never fill a cycle, no step packs at all, and a step whose
/// arrival counts all equal the previous step's returns without
/// packing again.
///
/// `spans` holds one [`JitterSpan`] per member of `hp ++ lf`, narrowed
/// on every arrival count read: any jitter inside all of them gives the
/// same result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dyn_delay_with(
    sys: SystemView<'_>,
    m: ActivityId,
    hp: &[ActivityId],
    lf: &[ActivityId],
    jitter: &[Time],
    mode: DynAnalysisMode,
    limit: Time,
    scratch: &mut DynScratch,
    spans: &mut [JitterSpan],
) -> Option<Time> {
    let sys = sys.focused(m);
    let fid = sys.bus.frame_id_of(m).expect("validated dyn message");
    let gd_cycle = sys.bus.gd_cycle();
    let st_bus = sys.bus.st_bus();
    let minislot = sys.bus.phy.gd_minislot;
    let base = u32::try_from(fid.preceding_slots()).expect("u16 fits");
    let p_latest = latest_tx_bound(sys, m);
    // A cycle is filled when base + extra >= p_latest.
    let need_extra = match p_latest.checked_sub(base) {
        Some(n) if n > 0 => n,
        // Even an idle dynamic segment pushes the counter past the bound:
        // the message can never be sent.
        _ => return None,
    };

    // σ_m: the message just misses the earliest occurrence of its slot
    // and waits out the rest of the cycle.
    let slot_earliest = st_bus + minislot * i64::from(base);
    let sigma = (gd_cycle - slot_earliest).clamp_non_negative();
    // w(t) from the filled cycles and the final cycle's leftover
    // lower-identifier traffic, which delays the start of slot
    // FrameID_m but cannot block it any more.
    let delay = |filled: i64, leftover: u32| {
        let leftover = leftover.min(need_extra.saturating_sub(1));
        let w_final = st_bus + minislot * i64::from(base + leftover);
        sigma
            .saturating_add(gd_cycle.saturating_mul(filled))
            .saturating_add(w_final)
    };

    scratch.begin(sys, m, hp, lf);
    let (hp_spans, lf_spans) = spans.split_at_mut(hp.len());
    // Fill bound: sum over identifiers of the largest extra any instance
    // can carry — a static property of the pool skeleton (arrival counts
    // only scale how often a level is available, never its extra). If
    // even that sum cannot push the counter past the bound, no busy
    // window ever packs a cycle from lf traffic in either mode: filled
    // cycles are hp(m)'s alone, and the leftover is the sum of the
    // per-identifier heads of the pending instances.
    let no_fill = scratch.pool.max_fill() < u64::from(need_extra);
    if mode == DynAnalysisMode::Exact {
        scratch.exact_calls += 1;
        if no_fill {
            scratch.exact_short_circuits += 1;
        } else {
            scratch.index_levels();
        }
    }
    let mut hp_filled: i64 = 0;
    let mut t = Time::ZERO;
    for step in 0..MAX_FIXED_POINT_ITERS {
        // hp(m): each pending instance occupies slot FrameID_m for a
        // cycle; arrivals are monotone in t, so only the delta is added.
        let hp_before = hp_filled;
        for (k, &j) in hp.iter().enumerate() {
            let arrivals = hp_spans[k].arrivals(t, jitter[j.index()], sys.app.period_of(j));
            hp_filled += arrivals - scratch.hp_arrivals[k];
            scratch.hp_arrivals[k] = arrivals;
        }
        let w = if no_fill {
            let leftover = scratch.pool.pending_heads(t, jitter, lf_spans);
            #[cfg(debug_assertions)]
            {
                let mut any = vec![JitterSpan::ANY; lf.len()];
                scratch.pool.advance(t, jitter, &mut any);
                assert_eq!(leftover, scratch.leftover(), "no-fill leftover disagrees");
            }
            delay(hp_filled, leftover)
        } else {
            // lf(m)/ms(m): pack transmissions to push the counter past
            // the bound, cycle by cycle.
            let moved = scratch.pool.advance(t, jitter, lf_spans);
            if step > 0 && !moved && hp_filled == hp_before {
                // The same counts as the previous step, which returned
                // w = t: this step would return t again.
                #[cfg(debug_assertions)]
                {
                    let (filled, leftover) = scratch.full_step(need_extra, mode);
                    assert_eq!(
                        delay(hp_filled + filled, leftover),
                        t,
                        "converged exit disagrees with the full step"
                    );
                }
                return Some(t);
            }
            let filled = hp_filled + scratch.fill(need_extra, mode);
            delay(filled, scratch.leftover())
        };
        if w > limit {
            return None;
        }
        if w <= t {
            return Some(w);
        }
        t = w;
    }
    // The busy window was still growing when the iteration guard
    // tripped: report divergence explicitly.
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::*;

    /// Builds a system with DYN messages `(size_minislots, frame_id,
    /// priority, sender_node)`; unit phy, one 8µs ST slot, `n_minislots`.
    fn dyn_system(specs: &[(u32, u16, u32, usize)], n_minislots: u32) -> (System, Vec<ActivityId>) {
        let phy = PhyParams {
            gd_bit: Time::from_ns(50),
            gd_macrotick: Time::MICROSECOND,
            gd_minislot: Time::MICROSECOND,
            frame_overhead_bytes: 0,
        };
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(1000.0), Time::from_us(1000.0));
        let mut bus = BusConfig::new(phy);
        bus.static_slot_len = Time::from_us(8.0);
        bus.static_slot_owners = vec![NodeId::new(0)];
        bus.n_minislots = n_minislots;
        let mut ids = Vec::new();
        for (i, &(len, fid, prio, node)) in specs.iter().enumerate() {
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
            // len minislots at 1µs each = len µs = 2*len bytes at 50ns/bit
            let msg = app.add_message(g, &format!("m{i}"), 2 * len, MessageClass::Dynamic, prio);
            app.connect(s, msg, r).expect("edges");
            bus.frame_ids.insert(msg, FrameId::new(fid));
            ids.push(msg);
        }
        let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
        (sys, ids)
    }

    #[test]
    fn interference_sets_match_fig1() {
        // Fig 1.a: md(1), me(2), mf(4 hi), mg(4 lo), mh(5); all node 0.
        let (sys, ids) = dyn_system(
            &[
                (1, 1, 0, 0),
                (1, 2, 0, 0),
                (2, 4, 9, 0),
                (2, 4, 1, 0),
                (1, 5, 0, 0),
            ],
            20,
        );
        let (md, me, mf, mg, _mh) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        assert_eq!(hp_messages(&sys, mg), vec![mf]);
        assert!(hp_messages(&sys, mf).is_empty());
        let mut lf = lf_messages(&sys, mg);
        lf.sort();
        assert_eq!(lf, vec![md, me]);
    }

    #[test]
    fn latest_tx_bound_is_per_message() {
        // node 0 sends a small (2) and a big (10) frame in 20 minislots:
        // each frame's bound is n_minislots - len + 1, whatever else its
        // node sends
        let (sys, ids) = dyn_system(&[(2, 1, 0, 0), (10, 2, 0, 0)], 20);
        assert_eq!(latest_tx_bound(&sys, ids[0]), 19);
        assert_eq!(latest_tx_bound(&sys, ids[1]), 11);
        // so a node's big frame does not block its small one: at id 10
        // of an 11-minislot segment the 2-minislot frame still sends
        let (sys, ids) = dyn_system(&[(10, 1, 0, 0), (2, 10, 0, 0)], 11);
        let jitter = vec![Time::ZERO; sys.app.activities().len()];
        let limit = Time::from_us(100_000.0);
        assert!(dyn_delay(&sys, ids[1], &jitter, DynAnalysisMode::Greedy, limit).is_some());
    }

    #[test]
    fn lone_message_delay_is_sigma_plus_stbus() {
        let (sys, ids) = dyn_system(&[(2, 1, 0, 0)], 10);
        let jitter = vec![Time::ZERO; sys.app.activities().len()];
        let w = dyn_delay(
            &sys,
            ids[0],
            &jitter,
            DynAnalysisMode::Greedy,
            Time::from_us(100_000.0),
        )
        .expect("converges");
        // sigma = cycle(18) - (st 8 + 0) = 10; w' = st = 8
        assert_eq!(w, Time::from_us(18.0));
    }

    #[test]
    fn hp_instance_fills_one_cycle() {
        let (sys, ids) = dyn_system(&[(2, 1, 9, 0), (2, 1, 1, 0)], 10);
        let jitter = vec![Time::ZERO; sys.app.activities().len()];
        let limit = Time::from_us(100_000.0);
        let w_hi = dyn_delay(&sys, ids[0], &jitter, DynAnalysisMode::Greedy, limit).expect("hi");
        let w_lo = dyn_delay(&sys, ids[1], &jitter, DynAnalysisMode::Greedy, limit).expect("lo");
        // the low-priority sibling waits one extra cycle (gdCycle = 18)
        assert_eq!(w_lo - w_hi, Time::from_us(18.0));
    }

    #[test]
    fn lf_traffic_can_fill_cycles() {
        // m1: 9-minislot frame on id 1; m2: 2 minislots on id 2 with
        // n_minislots = 10 -> latest_tx_bound(m2) = 9, base = 1, need_extra = 8;
        // m1's extra = 8 fills exactly one cycle.
        let (sys, ids) = dyn_system(&[(9, 1, 0, 0), (2, 2, 0, 1)], 10);
        let jitter = vec![Time::ZERO; sys.app.activities().len()];
        let limit = Time::from_us(100_000.0);
        let w =
            dyn_delay(&sys, ids[1], &jitter, DynAnalysisMode::Greedy, limit).expect("converges");
        // sigma = 18 - (8 + 1) = 9; one filled cycle = 18; final = 8 + 1
        // (base) + leftover 0 -> 9 + 18 + 9 = 36
        assert_eq!(w, Time::from_us(36.0));
    }

    #[test]
    fn small_lf_cannot_fill_but_delays_final_cycle() {
        // m1 is only 4 minislots: extra 3 < need_extra 8 -> no filled
        // cycle, but 3 minislots of final-cycle delay.
        let (sys, ids) = dyn_system(&[(4, 1, 0, 0), (2, 2, 0, 1)], 10);
        let jitter = vec![Time::ZERO; sys.app.activities().len()];
        let limit = Time::from_us(100_000.0);
        let w =
            dyn_delay(&sys, ids[1], &jitter, DynAnalysisMode::Greedy, limit).expect("converges");
        // sigma = 9; final = 8 + (1 + 3) = 12 -> 21
        assert_eq!(w, Time::from_us(21.0));
    }

    #[test]
    fn exact_mode_converges_on_mixed_sizes() {
        let (sys, ids) = dyn_system(
            &[(5, 1, 0, 0), (5, 2, 0, 0), (9, 3, 0, 0), (2, 4, 0, 1)],
            12,
        );
        let jitter = vec![Time::ZERO; sys.app.activities().len()];
        let limit = Time::from_us(1_000_000.0);
        let wg = dyn_delay(&sys, ids[3], &jitter, DynAnalysisMode::Greedy, limit)
            .expect("greedy converges");
        let we = dyn_delay(&sys, ids[3], &jitter, DynAnalysisMode::Exact, limit)
            .expect("exact converges");
        // both bound the interference-free floor from below
        let floor = dyn_delay(
            &dyn_system(&[(2, 4, 0, 1)], 12).0,
            dyn_system(&[(2, 4, 0, 1)], 12).1[0],
            &jitter,
            DynAnalysisMode::Greedy,
            limit,
        )
        .expect("floor");
        assert!(wg >= floor);
        assert!(we >= floor);
    }

    /// A two-entry pool for the consume unit tests: id 3 with extras
    /// 5 (two instances) and 2 (one instance).
    fn test_pool() -> LfPool {
        let entry = |extra: u32, remaining: i64| LfEntry {
            msg: ActivityId::new(0),
            src: 0,
            id: 3,
            extra,
            period: Time::MICROSECOND,
            arrivals: remaining,
            remaining,
        };
        LfPool {
            entries: vec![entry(5, 2), entry(2, 1)],
        }
    }

    #[test]
    fn consume_reports_hit_and_miss() {
        let mut pool = test_pool();
        // unknown identifier and unknown extra level: a miss, not a
        // silent no-op
        assert!(!pool.consume(4, 5));
        assert!(!pool.consume(3, 4));
        assert_eq!(pool.level_count(3, 5), 2);
        // hits drain the level, then report exhaustion
        assert!(pool.consume(3, 5));
        assert!(pool.consume(3, 5));
        assert!(!pool.consume(3, 5), "exhausted level must miss");
        assert!(pool.consume(3, 2));
        assert!(!pool.has_pending());
    }

    #[test]
    fn consume_n_reports_shortfall() {
        let mut pool = test_pool();
        assert_eq!(pool.consume_n(3, 5, 3), 2, "only two instances exist");
        assert_eq!(pool.consume_n(3, 5, 1), 0);
        assert_eq!(pool.consume_n(9, 1, 4), 0, "unknown identifier");
        assert_eq!(pool.consume_n(3, 2, 1), 1);
    }

    #[test]
    fn overloaded_segment_exhausts_iteration_guard() {
        // The hp sibling's period equals gdCycle exactly: every busy
        // window extension brings exactly one more blocking instance, so
        // w(t) grows forever without ever crossing a generous limit —
        // the fixed point must give up after MAX_FIXED_POINT_ITERS and
        // report divergence, not fall off the loop with a bogus result.
        let phy = PhyParams {
            gd_bit: Time::from_ns(50),
            gd_macrotick: Time::MICROSECOND,
            gd_minislot: Time::MICROSECOND,
            frame_overhead_bytes: 0,
        };
        let mut app = Application::new();
        // gdCycle = st_bus (8) + 10 minislots = 18 us
        let g_hp = app.add_graph("hp", Time::from_us(18.0), Time::from_us(18.0));
        let g_lo = app.add_graph("lo", Time::from_us(1000.0), Time::from_us(1000.0));
        let mk = |app: &mut Application, g, tag: &str, prio| {
            let s = app.add_task(
                g,
                &format!("s{tag}"),
                NodeId::new(0),
                Time::from_us(1.0),
                SchedPolicy::Fps,
                1,
            );
            let r = app.add_task(
                g,
                &format!("r{tag}"),
                NodeId::new(1),
                Time::from_us(1.0),
                SchedPolicy::Fps,
                1,
            );
            let m = app.add_message(g, &format!("m{tag}"), 4, MessageClass::Dynamic, prio);
            app.connect(s, m, r).expect("edges");
            m
        };
        let hi = mk(&mut app, g_hp, "hi", 9);
        let lo = mk(&mut app, g_lo, "lo", 1);
        let mut bus = BusConfig::new(phy);
        bus.static_slot_len = Time::from_us(8.0);
        bus.static_slot_owners = vec![NodeId::new(0)];
        bus.n_minislots = 10;
        bus.frame_ids.insert(hi, FrameId::new(1));
        bus.frame_ids.insert(lo, FrameId::new(1));
        let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
        let jitter = vec![Time::ZERO; sys.app.activities().len()];
        // limit far beyond MAX_FIXED_POINT_ITERS * gdCycle: the guard,
        // not the limit, must end the iteration
        let limit = Time::from_us(1e9);
        assert_eq!(
            dyn_delay(&sys, lo, &jitter, DynAnalysisMode::Greedy, limit),
            None
        );
        // the hp sibling itself is fine
        assert!(dyn_delay(&sys, hi, &jitter, DynAnalysisMode::Greedy, limit).is_some());
    }

    #[test]
    fn pooled_scratch_reuse_matches_fresh_calls() {
        // One scratch across messages and modes must be bit-identical
        // to a fresh scratch per call.
        let (sys, ids) = dyn_system(
            &[
                (1, 1, 0, 0),
                (1, 2, 0, 0),
                (2, 4, 9, 0),
                (2, 4, 1, 0),
                (1, 5, 0, 0),
            ],
            20,
        );
        let jitter = vec![Time::ZERO; sys.app.activities().len()];
        let limit = Time::from_us(100_000.0);
        let mut scratch = DynScratch::default();
        for &m in &ids {
            let view = SystemView::from(&sys);
            let (hp, lf) = (hp_messages(view, m), lf_messages(view, m));
            for mode in [DynAnalysisMode::Greedy, DynAnalysisMode::Exact] {
                let fresh = dyn_delay(&sys, m, &jitter, mode, limit);
                let mut spans = vec![JitterSpan::ANY; hp.len() + lf.len()];
                let pooled = dyn_delay_with(
                    view,
                    m,
                    &hp,
                    &lf,
                    &jitter,
                    mode,
                    limit,
                    &mut scratch,
                    &mut spans,
                );
                assert_eq!(fresh, pooled, "{m:?} {mode:?}");
            }
        }
    }

    #[test]
    fn jitter_adds_arrivals() {
        let (sys, ids) = dyn_system(&[(9, 1, 0, 0), (2, 2, 0, 1)], 10);
        let mut jitter = vec![Time::ZERO; sys.app.activities().len()];
        let limit = Time::from_us(10_000_000.0);
        let w0 = dyn_delay(&sys, ids[1], &jitter, DynAnalysisMode::Greedy, limit).expect("w0");
        jitter[ids[0].index()] = Time::from_us(999.0); // almost one period
        let w1 = dyn_delay(&sys, ids[1], &jitter, DynAnalysisMode::Greedy, limit).expect("w1");
        assert!(w1 > w0, "{w1} vs {w0}");
    }
}
