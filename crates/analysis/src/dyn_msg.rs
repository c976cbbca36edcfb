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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use flexray_model::{ActivityId, MessageClass, SystemView, Time};

use crate::divisor::Divisor;
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

/// The indices of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
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
    /// Period of the message, the divisor of its arrival count.
    period: Divisor,
    /// Arrivals within the current busy window (monotone in `t`).
    arrivals: i64,
}

/// One *level* of the pool: a maximal run of entries sharing `(id,
/// extra)`. The packing observes only a level's pending count, never
/// which of its entries an instance came from.
#[derive(Debug, Clone, Copy)]
struct LfLevel {
    id: u16,
    extra: u32,
    /// The level's entries, `start..end` in pool order.
    start: u32,
    end: u32,
}

/// Pending interference pool for the filled-cycles computation: one
/// entry per `lf(m)` message, sorted by (frame identifier, extra
/// descending) and grouped into levels, so a level index orders the
/// pool the same way. The structure is built once per [`dyn_delay`]
/// call; each busy-window step only rewrites the per-level pending
/// counts (arrivals are monotone in `t`), so no step of the fixed point
/// re-sorts or re-allocates.
#[derive(Debug, Clone, Default)]
struct LfPool {
    entries: Vec<LfEntry>,
    levels: Vec<LfLevel>,
    /// Instances per level not yet consumed by a filled cycle at the
    /// current `t`.
    counts: Vec<i64>,
    /// Levels with a pending instance: bit `k % 64` of word `k / 64` is
    /// set iff `counts[k] > 0`.
    pending: Vec<u64>,
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
                period: Divisor::new(sys.app.period_of(j)),
                arrivals: 0,
            });
        }
        // Entries sharing (id, extra) are interchangeable — the packing
        // only ever observes the (id, extra, pending>0) multiset — so the
        // allocation-free unstable sort is safe.
        self.entries
            .sort_unstable_by_key(|e| (e.id, core::cmp::Reverse(e.extra)));
        self.levels.clear();
        for (i, e) in self.entries.iter().enumerate() {
            let i = u32::try_from(i).expect("pool fits u32");
            match self.levels.last_mut() {
                Some(level) if (level.id, level.extra) == (e.id, e.extra) => level.end = i + 1,
                _ => self.levels.push(LfLevel {
                    id: e.id,
                    extra: e.extra,
                    start: i,
                    end: i + 1,
                }),
            }
        }
        self.reset_counts();
    }

    /// Restores a cached skeleton: entries (with zero arrivals) and
    /// their levels.
    fn restore(&mut self, entries: &[LfEntry], levels: &[LfLevel]) {
        self.entries.clear();
        self.entries.extend_from_slice(entries);
        self.levels.clear();
        self.levels.extend_from_slice(levels);
        self.reset_counts();
    }

    /// Sizes the counts and the pending mask to the levels, all zero.
    fn reset_counts(&mut self) {
        self.counts.clear();
        self.counts.resize(self.levels.len(), 0);
        self.pending.clear();
        self.pending.resize(self.levels.len().div_ceil(64), 0);
    }

    /// Advances the pool to busy window `t`: each level's pending count
    /// becomes the sum of its entries' (monotone) arrival counts, so the
    /// whole pending set is available for packing again. Narrows each
    /// entry's span on the count it reads; returns whether any count
    /// moved.
    fn advance(&mut self, t: Time, jitter: &[Time], spans: &mut [JitterSpan]) -> bool {
        let mut moved = false;
        for (k, level) in self.levels.iter().enumerate() {
            let mut count = 0;
            for e in &mut self.entries[level.start as usize..level.end as usize] {
                let arrivals = spans[e.src as usize].arrivals(t, jitter[e.msg.index()], e.period);
                debug_assert!(arrivals >= e.arrivals, "arrivals are monotone in t");
                moved |= arrivals != e.arrivals;
                e.arrivals = arrivals;
                count += arrivals;
            }
            self.counts[k] = count;
            let bit = 1u64 << (k % 64);
            if count > 0 {
                self.pending[k / 64] |= bit;
            } else {
                self.pending[k / 64] &= !bit;
            }
        }
        moved
    }

    /// Sum over identifiers of the largest extra (the first, in pool
    /// order) with an instance pending at window `t` — what
    /// [`LfPool::leftover`] returns after [`LfPool::advance`] when no
    /// cycle is filled. One pass that reads each identifier's entries
    /// only up to its first pending one, and narrows their spans only
    /// to the sign of `t + J`.
    fn pending_heads(&self, t: Time, jitter: &[Time], spans: &mut [JitterSpan]) -> u32 {
        let mut sum = 0;
        let mut done = None;
        for level in &self.levels {
            if done == Some(level.id) {
                continue;
            }
            for e in &self.entries[level.start as usize..level.end as usize] {
                if spans[e.src as usize].pending(t, jitter[e.msg.index()]) {
                    sum += level.extra;
                    done = Some(level.id);
                    break;
                }
            }
        }
        sum
    }

    /// Sum over identifiers of the largest extra any instance can carry:
    /// the most lf traffic can add to one cycle, whatever the arrival
    /// counts (the first level of an identifier carries its largest
    /// extra).
    fn max_fill(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .filter(|&(k, level)| k == 0 || self.levels[k - 1].id != level.id)
            .map(|(_, level)| u64::from(level.extra))
            .sum()
    }

    /// The levels with a pending instance, in pool order.
    fn pending_levels(&self) -> impl Iterator<Item = usize> + '_ {
        self.pending
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(word).map(move |bit| w * 64 + bit))
    }

    /// Per identifier with pending instances, its *head* — the first
    /// pending level, which carries the largest pending extra — in
    /// ascending identifier order.
    fn heads(&self) -> impl Iterator<Item = usize> + '_ {
        let mut last = None;
        self.pending_levels().filter(move |&k| {
            let id = Some(self.levels[k].id);
            let head = last != id;
            last = id;
            head
        })
    }

    /// Sum of the per-identifier head extras still pending — the
    /// final-cycle delay contribution of the unconsumed pool.
    fn leftover(&self) -> u32 {
        self.heads().map(|k| self.levels[k].extra).sum()
    }

    /// Consumes up to `n` pending instances of level `k`, returning how
    /// many were actually consumed.
    fn consume(&mut self, k: usize, n: i64) -> i64 {
        let taken = self.counts[k].min(n);
        self.counts[k] -= taken;
        if self.counts[k] == 0 {
            self.pending[k / 64] &= !(1u64 << (k % 64));
        }
        taken
    }

    fn has_pending(&self) -> bool {
        self.pending.iter().any(|&word| word != 0)
    }
}

/// "No choice": the arena tail of the DP's root cell.
const NO_CHOICE: u32 = u32::MAX;

/// One node of the Exact-mode DP's choice arena: the pool level taken
/// and the arena index of the previous choice on the same path
/// ([`NO_CHOICE`] at the root).
#[derive(Debug, Clone, Copy)]
struct DpChoice {
    level: u32,
    parent: u32,
}

/// DP cell: minimal total extra consumed to reach this (saturated)
/// accumulated sum, plus the arena tail of the choices reaching it.
#[derive(Debug, Clone, Copy)]
struct DpCell {
    total: u32,
    tail: u32,
}

impl DpCell {
    /// An unreached cell: its total loses every strict comparison.
    const EMPTY: DpCell = DpCell {
        total: u32::MAX,
        tail: NO_CHOICE,
    };
}

/// Key of the Exact-mode selection memo: the index of the message whose
/// pool is packed, the cycle's `need_extra`, and the mask of pool levels
/// with pending instances (bit `k` = level `k`).
type SelectKey = (u32, u32, u64);

/// Hasher of the selection memo: the multiply-rotate scheme of Fx over
/// the key's three integers. The memo is only probed and filled, never
/// iterated, so no result depends on the hash values.
#[derive(Debug, Default)]
struct SelectHasher(u64);

impl SelectHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for SelectHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        // the multiply mixes upwards; the table indexes by the low bits
        self.0.rotate_left(26)
    }
}

/// Most pool levels the selection memo can key (one mask bit each);
/// larger pools run the DP on every selection.
const MEMO_MAX_LEVELS: usize = 64;

/// Appends `items` to `arena`, returning where they landed.
fn stash<T: Copy>(arena: &mut Vec<T>, items: &[T]) -> Range<usize> {
    let start = arena.len();
    arena.extend_from_slice(items);
    start..arena.len()
}

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
    /// Period per `hp(m)` message, the divisor of its arrival count.
    hp_periods: Vec<Divisor>,
    /// Per-cycle head levels (one per identifier, Greedy mode).
    cand: Vec<usize>,
    /// The pool levels chosen for the cycle being filled (Exact mode),
    /// ascending.
    choices: Vec<u32>,
    /// Exact-mode DP tables, indexed by saturated accumulated sum. Both
    /// hold the same cells between identifier groups, and every cell is
    /// empty between selections.
    dp_best: Vec<DpCell>,
    dp_next: Vec<DpCell>,
    /// Occupied cells of `dp_best`: bit `s % 64` of word `s / 64`.
    dp_occ: Vec<u64>,
    /// Cells of `dp_next` written during the current group's
    /// relaxations (the write log replayed into `dp_best`).
    dp_log: Vec<u32>,
    /// Exact-mode DP choice arena (see [`DpChoice`]).
    dp_arena: Vec<DpChoice>,
    /// The `(level, extra)` options of the current cycle selection: the
    /// pending levels of positive extra, in pool order.
    dp_opts: Vec<(u32, u32)>,
    /// Exact-mode identifier groups of the current cycle selection: per
    /// identifier with pending positive extras, the start of its options
    /// in `dp_opts` and its head (largest pending) extra.
    dp_groups: Vec<(u32, u32)>,
    /// Suffix sums over `dp_groups` of the head extras:
    /// `dp_suffix[g] = Σ_{j ≥ g} head_j` — the most any DP state can
    /// still gain from the remaining identifiers.
    dp_suffix: Vec<u64>,
    /// Per-group head extras, sorted descending for the greedy bound.
    dp_heads: Vec<u32>,
    /// Exact-mode busy-window calls observed by this scratch.
    exact_calls: u64,
    /// Calls where the fill bound proved no cycle can be filled from
    /// `lf(m)`, so the whole call took the no-fill path (no packing).
    exact_short_circuits: u64,
    /// Index of the message whose pool the scratch currently holds (the
    /// memo key's first component).
    msg: u32,
    /// Exact-mode selection memo: [`SelectKey`] → mask of the levels
    /// the DP chose (0 = the pending pool cannot fill the cycle). The
    /// DP reads only each level's `id`, `extra` and whether it is still
    /// pending, and the pool skeleton is fixed per (message,
    /// generation), so within one scope a selection is a pure function
    /// of its key — tie-breaks included. Scope: one candidate under
    /// session management (cleared by [`DynScratch::begin_candidate`]),
    /// one call otherwise; that bounds its size to one candidate's
    /// distinct selections. Pools of more than [`MEMO_MAX_LEVELS`]
    /// levels bypass it.
    memo: HashMap<SelectKey, u64, BuildHasherDefault<SelectHasher>>,
    /// Cycle selections the DP actually ran (memo misses and bypasses).
    dp_runs: u64,
    /// Cycle selections answered by the memo.
    memo_hits: u64,
    /// Session-managed per-message pool skeletons (entries with zero
    /// arrivals, and their levels) and `hp(m)` periods, flattened into
    /// three arenas, valid for one `skel_gen`.
    skel_entries: Vec<LfEntry>,
    skel_levels: Vec<LfLevel>,
    skel_hp: Vec<Divisor>,
    /// Per-activity ranges into `skel_entries`, `skel_levels` and
    /// `skel_hp`; `None` = not cached.
    skel_range: Vec<Option<[Range<usize>; 3]>>,
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
            self.skel_entries.clear();
            self.skel_levels.clear();
            self.skel_hp.clear();
            self.skel_range.clear();
        }
    }

    /// Prepares the scratch for one message's fixed point: restores the
    /// message's pool skeleton and `hp(m)` periods if the generation
    /// holds them, otherwise rebuilds (and, under session management,
    /// caches) them.
    fn begin(&mut self, sys: SystemView<'_>, m: ActivityId, hp: &[ActivityId], lf: &[ActivityId]) {
        self.hp_arrivals.clear();
        self.hp_arrivals.resize(hp.len(), 0);
        self.msg = u32::try_from(m.index()).expect("activity index fits u32");
        if self.skel_gen == 0 {
            self.memo.clear();
            self.rebuild(sys, hp, lf);
            return;
        }
        if self.skel_range.len() <= m.index() {
            self.skel_range.resize(m.index() + 1, None);
        }
        if let Some([entries, levels, hp_range]) = self.skel_range[m.index()].clone() {
            self.pool
                .restore(&self.skel_entries[entries], &self.skel_levels[levels]);
            self.hp_periods.clear();
            self.hp_periods.extend_from_slice(&self.skel_hp[hp_range]);
        } else {
            self.rebuild(sys, hp, lf);
            let entries = stash(&mut self.skel_entries, &self.pool.entries);
            let levels = stash(&mut self.skel_levels, &self.pool.levels);
            let hp_range = stash(&mut self.skel_hp, &self.hp_periods);
            self.skel_range[m.index()] = Some([entries, levels, hp_range]);
        }
    }

    /// Rebuilds the pool from `lf` and the periods of `hp`.
    fn rebuild(&mut self, sys: SystemView<'_>, hp: &[ActivityId], lf: &[ActivityId]) {
        self.pool.rebuild(sys, lf);
        self.hp_periods.clear();
        self.hp_periods
            .extend(hp.iter().map(|&j| Divisor::new(sys.app.period_of(j))));
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
        let filled = copy.fill(need_extra, mode);
        (filled, copy.pool.leftover())
    }

    /// Packs filled cycles until the pool can no longer push the
    /// counter past the bound, returning the number of filled cycles.
    /// Cycle-by-cycle identical to a one-cycle-at-a-time formulation:
    /// the selected cycle repeats verbatim until one of its levels
    /// exhausts — the only event that can change the option set — so
    /// the repeats are applied as one batch.
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
            self.cand.clear();
            self.cand.extend(self.pool.heads());
            if self.cand.is_empty() {
                break;
            }
            // Ties in extra keep ascending identifier order, exactly as
            // a stable sort over the per-id candidates would. Zero-extra
            // heads sort last: an idle identifier contributes nothing
            // beyond its base minislot, so they never help filling.
            let levels = &self.pool.levels;
            self.cand
                .sort_unstable_by_key(|&k| (core::cmp::Reverse(levels[k].extra), levels[k].id));
            let mut sum = 0u32;
            let mut taken = 0usize;
            let mut repeats = i64::MAX;
            for &k in &self.cand {
                if sum >= need_extra || levels[k].extra == 0 {
                    break;
                }
                sum += levels[k].extra;
                repeats = repeats.min(self.pool.counts[k]);
                taken += 1;
            }
            if sum < need_extra {
                break;
            }
            debug_assert!(repeats >= 1, "chosen heads must be pending");
            for &k in &self.cand[..taken] {
                let consumed = self.pool.consume(k, repeats);
                debug_assert_eq!(consumed, repeats, "head level {k} exhausted mid-batch");
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
                .map(|&k| self.pool.counts[k as usize])
                .min()
                .expect("a filled cycle consumes at least one instance");
            debug_assert!(repeats >= 1, "chosen levels must be pending");
            for &k in &self.choices {
                let consumed = self.pool.consume(k as usize, repeats);
                debug_assert_eq!(consumed, repeats, "level {k} exhausted mid-batch");
            }
            filled += repeats;
        }
        filled
    }

    /// [`DynScratch::select_cycle_exact`] behind the selection memo:
    /// a hit rebuilds `self.choices` from the memoised level mask in
    /// level order — ascending identifier, the order the DP emits — and
    /// a miss runs the DP and records its answer. Call only while the
    /// pool has a pending level.
    fn select_cycle(&mut self, need_extra: u32) -> bool {
        if self.pool.levels.len() > MEMO_MAX_LEVELS {
            self.dp_runs += 1;
            return self.select_cycle_exact(need_extra);
        }
        let key = (self.msg, need_extra, self.pool.pending[0]);
        if let Some(&chosen) = self.memo.get(&key) {
            self.memo_hits += 1;
            self.choices.clear();
            self.choices
                .extend(set_bits(chosen).map(|k| u32::try_from(k).expect("k < 64")));
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
        let chosen = self.choices.iter().fold(0u64, |mask, &k| mask | 1 << k);
        self.memo.insert(key, chosen);
        filled
    }

    /// Selects the levels of the next Exact-mode filled cycle into
    /// `self.choices`, or returns `false` if the pool can no longer
    /// push the counter past the bound.
    ///
    /// The min-total-consumption subset-sum DP (sum ≥ `need_extra`, at
    /// most one option per identifier) relaxes, per identifier group in
    /// ascending identifier order, every occupied sum in ascending
    /// order by each of the group's pending extras in pool order, and a
    /// cell takes a new chain only on strict improvement. It is
    /// *admissibly pruned*: every rule below drops only states that
    /// provably cannot change the winning chain at `dp_best[cap]`, so
    /// the selected subset — not just its total — is bit-identical to
    /// the unpruned DP's. The invariant the proofs lean on: below the
    /// cap a cell's total equals its sum, so "better" comparisons are
    /// strict and order-stable, and pruned states (which always lose
    /// them) cannot block a surviving state.
    ///
    /// * **Reachability**: a state at sum `s` entering group `g` can
    ///   only fill the cycle if `s + dp_suffix[g] ≥ need_extra` (the
    ///   suffix only shrinks, so doomed stays doomed). A doomed state's
    ///   descendants are all doomed, and doomed chains never reach the
    ///   cap, so skipping them is invisible: each group's walk starts
    ///   at the floor `need_extra − dp_suffix[g]`. When even the root
    ///   is doomed the whole selection fails without touching the
    ///   tables — the common final iteration of every
    ///   [`DynScratch::fill_exact`] call.
    /// * **Greedy upper bound**: the largest-first head subset is a
    ///   feasible choice, so its total bounds the optimum from above;
    ///   cap states strictly above it are never stored.
    /// * **Dominance**: states with the same saturated sum keep the
    ///   cheaper total (the DP cell rule), and a group's options are
    ///   its levels, one per distinct pending extra.
    /// * **Bitset frontier**: the occupied sums are a bitset walked in
    ///   ascending order, which is the dense scan's order restricted to
    ///   the cells it would find occupied.
    ///
    /// The two tables are kept equal between groups by replaying only
    /// the cells a group wrote, and emptied after the selection by
    /// clearing only the occupied cells, so no step copies or resets a
    /// whole `need_extra + 1`-cell table.
    fn select_cycle_exact(&mut self, need_extra: u32) -> bool {
        self.choices.clear();
        let cap = need_extra as usize;
        let need = u64::from(need_extra);
        // Group pass: per identifier, its pending levels of positive
        // extra in pool order; the first carries the head extra.
        self.dp_opts.clear();
        self.dp_groups.clear();
        let mut last = None;
        for k in self.pool.pending_levels() {
            let LfLevel { id, extra, .. } = self.pool.levels[k];
            if extra == 0 {
                continue;
            }
            if last != Some(id) {
                last = Some(id);
                let start = u32::try_from(self.dp_opts.len()).expect("pool fits u32");
                self.dp_groups.push((start, extra));
            }
            self.dp_opts
                .push((u32::try_from(k).expect("pool fits u32"), extra));
        }
        let n_groups = self.dp_groups.len();
        self.dp_suffix.clear();
        self.dp_suffix.resize(n_groups + 1, 0);
        for g in (0..n_groups).rev() {
            self.dp_suffix[g] = self.dp_suffix[g + 1] + u64::from(self.dp_groups[g].1);
        }
        if self.dp_suffix[0] < need {
            // Even taking every head cannot fill the cycle.
            return false;
        }
        // Greedy upper bound: heads largest-first until the cycle fills.
        self.dp_heads.clear();
        self.dp_heads
            .extend(self.dp_groups.iter().map(|&(_, head)| head));
        self.dp_heads
            .sort_unstable_by_key(|&h| core::cmp::Reverse(h));
        let mut ubound = 0u64;
        for &h in &self.dp_heads {
            if ubound >= need {
                break;
            }
            ubound += u64::from(h);
        }
        if self.dp_best.len() <= cap {
            self.dp_best.resize(cap + 1, DpCell::EMPTY);
            self.dp_next.resize(cap + 1, DpCell::EMPTY);
            self.dp_occ.resize(cap / 64 + 1, 0);
        }
        debug_assert!(
            self.dp_occ.iter().all(|&word| word == 0),
            "tables are empty between selections"
        );
        let root = DpCell {
            total: 0,
            tail: NO_CHOICE,
        };
        self.dp_best[0] = root;
        self.dp_next[0] = root;
        self.dp_occ[0] = 1;
        self.dp_arena.clear();
        // Occupied sums below the cap live in words ..= last_word.
        let last_word = (cap - 1) / 64;
        for g in 0..n_groups {
            let start = self.dp_groups[g].0 as usize;
            let end = self
                .dp_groups
                .get(g + 1)
                .map_or(self.dp_opts.len(), |&(next, _)| next as usize);
            let opts = &self.dp_opts[start..end];
            let child_suffix = self.dp_suffix[g + 1];
            // Cells below the floor can never reach the cap again.
            let floor = need.saturating_sub(self.dp_suffix[g]) as usize;
            self.dp_log.clear();
            for w in floor / 64..=last_word {
                let mut word = self.dp_occ[w];
                if w == floor / 64 {
                    word &= !0u64 << (floor % 64);
                }
                for bit in set_bits(word) {
                    let s = w * 64 + bit;
                    if s == cap {
                        // Relaxing from the cap only adds cost: never
                        // better.
                        break;
                    }
                    let cell = self.dp_best[s];
                    debug_assert!(cell.total != u32::MAX, "dp_occ tracks occupied cells");
                    for &(k, extra) in opts {
                        let ns = (s + extra as usize).min(cap);
                        let nt = cell.total + extra;
                        if ns == cap {
                            if u64::from(nt) > ubound {
                                continue;
                            }
                        } else if ns as u64 + child_suffix < need {
                            continue;
                        }
                        if nt < self.dp_next[ns].total {
                            self.dp_arena.push(DpChoice {
                                level: k,
                                parent: cell.tail,
                            });
                            self.dp_next[ns] = DpCell {
                                total: nt,
                                tail: u32::try_from(self.dp_arena.len() - 1)
                                    .expect("arena fits u32"),
                            };
                            self.dp_log.push(u32::try_from(ns).expect("cap fits u32"));
                        }
                    }
                }
            }
            for &ns in &self.dp_log {
                let ns = ns as usize;
                self.dp_best[ns] = self.dp_next[ns];
                self.dp_occ[ns / 64] |= 1 << (ns % 64);
            }
        }
        let mut tail = self.dp_best[cap].tail;
        // A cap the suffix check let through is always reached, but a
        // `false` here would still be a sound answer.
        let filled = self.dp_best[cap].total != u32::MAX;
        while tail != NO_CHOICE {
            let c = self.dp_arena[tail as usize];
            self.choices.push(c.level);
            tail = c.parent;
        }
        self.choices.reverse();
        // Every written cell is marked occupied: clearing those empties
        // both tables for the next selection.
        for (w, word) in self.dp_occ[..=cap / 64].iter_mut().enumerate() {
            for bit in set_bits(*word) {
                self.dp_best[w * 64 + bit] = DpCell::EMPTY;
                self.dp_next[w * 64 + bit] = DpCell::EMPTY;
            }
            *word = 0;
        }
        filled
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
/// interference pool is built (and sorted into levels) once, the
/// per-step update only rewrites the per-level pending counts, and runs
/// of identical filled cycles are applied as batches. When `lf(m)`
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
        scratch.exact_short_circuits += u64::from(no_fill);
    }
    let mut hp_filled: i64 = 0;
    let mut t = Time::ZERO;
    for step in 0..MAX_FIXED_POINT_ITERS {
        // hp(m): each pending instance occupies slot FrameID_m for a
        // cycle; arrivals are monotone in t, so only the delta is added.
        let hp_before = hp_filled;
        for (k, &j) in hp.iter().enumerate() {
            let arrivals = hp_spans[k].arrivals(t, jitter[j.index()], scratch.hp_periods[k]);
            hp_filled += arrivals - scratch.hp_arrivals[k];
            scratch.hp_arrivals[k] = arrivals;
        }
        let w = if no_fill {
            let leftover = scratch.pool.pending_heads(t, jitter, lf_spans);
            #[cfg(debug_assertions)]
            {
                let mut any = vec![JitterSpan::ANY; lf.len()];
                scratch.pool.advance(t, jitter, &mut any);
                assert_eq!(
                    leftover,
                    scratch.pool.leftover(),
                    "no-fill leftover disagrees"
                );
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
            delay(filled, scratch.pool.leftover())
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

    /// Bare levels `(id, extra, pending count)` in pool order, without
    /// entries: packing reads only the levels.
    fn level_pool(levels: &[(u16, u32, i64)]) -> LfPool {
        let mut pool = LfPool {
            levels: levels
                .iter()
                .map(|&(id, extra, _)| LfLevel {
                    id,
                    extra,
                    start: 0,
                    end: 0,
                })
                .collect(),
            ..LfPool::default()
        };
        pool.reset_counts();
        for (k, &(_, _, count)) in levels.iter().enumerate() {
            pool.counts[k] = count;
            if count > 0 {
                pool.pending[k / 64] |= 1 << (k % 64);
            }
        }
        pool
    }

    #[test]
    fn consume_reports_hit_and_miss() {
        // id 3 with extras 5 (two instances) and 2 (one instance)
        let mut pool = level_pool(&[(3, 5, 2), (3, 2, 1)]);
        assert_eq!(pool.heads().collect::<Vec<_>>(), [0]);
        // hits drain the level, then report exhaustion
        assert_eq!(pool.consume(0, 1), 1);
        assert_eq!(pool.consume(0, 1), 1);
        assert_eq!(pool.consume(0, 1), 0, "exhausted level must miss");
        // the drained level leaves the pending mask: the head moves down
        assert_eq!(pool.heads().collect::<Vec<_>>(), [1]);
        assert_eq!(pool.leftover(), 2);
        assert_eq!(pool.consume(1, 1), 1);
        assert!(!pool.has_pending());
    }

    #[test]
    fn consume_n_reports_shortfall() {
        let mut pool = level_pool(&[(3, 5, 2), (3, 2, 1)]);
        assert_eq!(pool.consume(0, 3), 2, "only two instances exist");
        assert_eq!(pool.consume(0, 1), 0);
        assert_eq!(pool.consume(1, 1), 1);
        assert_eq!(pool.pending, [0]);
    }

    /// The plain subset-sum DP the pruned kernel must agree with, choice
    /// for choice: no pruning and a full table per identifier group, in
    /// the kernel's relaxation order — sums ascending, a group's pending
    /// positive extras in pool order — with `improves(new, old)` deciding
    /// whether a chain replaces a cell's. Returns the chosen levels (empty
    /// when the pool cannot fill the cycle).
    fn dense_select(pool: &LfPool, need: u32, improves: fn(u32, u32) -> bool) -> Vec<u32> {
        let cap = need as usize;
        let levels = &pool.levels;
        let mut best: Vec<Option<(u32, Vec<u32>)>> = vec![None; cap + 1];
        best[0] = Some((0, Vec::new()));
        let mut k = 0;
        while k < levels.len() {
            let end = (k..levels.len())
                .find(|&j| levels[j].id != levels[k].id)
                .unwrap_or(levels.len());
            let mut next = best.clone();
            for (s, cell) in best.iter().enumerate() {
                let Some((total, path)) = cell else {
                    continue;
                };
                for (j, level) in (k..end).zip(&levels[k..end]) {
                    let extra = level.extra;
                    if extra == 0 || pool.counts[j] == 0 {
                        continue;
                    }
                    let ns = (s + extra as usize).min(cap);
                    let nt = total + extra;
                    if next[ns].as_ref().is_none_or(|&(t, _)| improves(nt, t)) {
                        let mut path = path.clone();
                        path.push(u32::try_from(j).expect("small pool"));
                        next[ns] = Some((nt, path));
                    }
                }
            }
            best = next;
            k = end;
        }
        best[cap].take().map_or_else(Vec::new, |(_, path)| path)
    }

    #[test]
    fn exact_selection_breaks_ties_like_the_dense_dp() {
        // Small extras repeated across identifiers make many subsets tie
        // on their total, so which one fills the cycle rests on the
        // relaxation order and the strict comparison alone. The pruned
        // kernel must choose the dense DP's subset on a memo miss and
        // again on the memo hit that follows, with one scratch (and so
        // recycled tables) across every pool and need. Every tenth pool
        // has more than 64 levels: both of its calls bypass the memo.
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut scratch = DynScratch::default();
        let (mut selections, mut tie_breaks) = (0, 0);
        for trial in 0..300 {
            let wide = trial % 10 == 9;
            let n_ids = if wide { 40 + next(10) } else { 1 + next(6) };
            let mut levels = Vec::new();
            for id in 1..=n_ids as u16 {
                let mut extras: Vec<u32> = (0..=next(3)).map(|_| next(7) as u32).collect();
                extras.sort_unstable_by(|a, b| b.cmp(a));
                extras.dedup();
                levels.extend(extras.into_iter().map(|e| (id, e, next(3) as i64)));
            }
            scratch.pool = level_pool(&levels);
            scratch.memo.clear();
            assert_eq!(wide, levels.len() > MEMO_MAX_LEVELS);
            let most: u32 = levels.iter().map(|&(_, extra, _)| extra).sum();
            for need in (1..=most + 1).step_by(if wide { 5 } else { 1 }) {
                let want = dense_select(&scratch.pool, need, |new, old| new < old);
                if want != dense_select(&scratch.pool, need, |new, old| new <= old) {
                    tie_breaks += 1;
                }
                let paths = if wide {
                    [("bypass", (1, 0)), ("bypass", (1, 0))]
                } else {
                    [("miss", (1, 0)), ("hit", (0, 1))]
                };
                for (path, work) in paths {
                    let (runs, hits) = scratch.select_stats();
                    let filled = scratch.select_cycle(need);
                    let (runs1, hits1) = scratch.select_stats();
                    assert_eq!((runs1 - runs, hits1 - hits), work, "{path}");
                    assert_eq!(
                        (filled, &scratch.choices),
                        (!want.is_empty(), &want),
                        "memo {path}: {levels:?}, need {need}"
                    );
                }
                selections += 1;
            }
        }
        assert!(selections > 1000, "{selections} selections");
        assert!(
            tie_breaks > 100,
            "only {tie_breaks} selections hinge on the tie-break"
        );
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
