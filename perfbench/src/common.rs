//! What every workload shares: the run's arguments and outcome, the
//! seeded round structure and the small statistics.
//!
//! A run is a fixed number of identical rounds. Each round sets up
//! afresh, then runs every item of the workload's fixed item list once,
//! in an order drawn from the seed. The container's CPUs are shared:
//! the speed they give one process drifts by up to 1.6x over seconds to
//! minutes, and contention only ever slows work down. So every item and
//! every set-up is timed in every round, and its time is its fastest
//! round, unless the workload's own latency varies by more than the
//! machine's speed (see [`Estimate`]).

use std::collections::BTreeMap;
use std::time::Instant;

use flexray_model::SplitMix64;

/// The benchmark's command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the run: it orders the items of every round and draws
    /// `verify`'s fuzzed execution orders.
    pub seed: u64,
    /// Nominal run length; it fixes the number of rounds.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Work and wall-clock of every run of one list item.
#[derive(Debug, Default)]
pub struct ItemRuns {
    /// Work of one run of the item, in the workload's unit.
    pub work: f64,
    /// Wall-clock of each run, in seconds.
    pub secs: Vec<f64>,
}

/// Which round stands for an item's time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Estimate {
    /// The fastest round: the machine's speed is the only thing that
    /// varies between rounds, and it only ever slows work down.
    #[default]
    Fastest,
    /// The median round: the item's latency varies by itself, so the
    /// fastest round would report a rare lucky case.
    Median,
}

impl Estimate {
    fn of(self, values: &[f64]) -> f64 {
        match self {
            Estimate::Fastest => fastest(values),
            Estimate::Median => median(values),
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// How items and jobs are timed from their rounds.
    pub estimate: Estimate,
    /// Operations attempted (items of work plus output checks).
    pub attempted: u64,
    /// Operations that failed: an error return or a failed check.
    pub failed: u64,
    /// Wall-clock of each round's set-up; the fastest is reported.
    pub setup_s: Vec<f64>,
    /// Runs of each list item.
    pub items: BTreeMap<usize, ItemRuns>,
    /// Latency of each job, in ms, keyed by the job's place in the list.
    pub jobs: BTreeMap<usize, Vec<f64>>,
    /// Peak resident memory of the process doing the work.
    pub peak_rss_mb: f64,
    /// Deterministic work counters: identical for every run of the
    /// same code with the same arguments.
    pub counters: BTreeMap<String, u64>,
    /// Per-layer metrics of a traced run.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one operation and whether it succeeded.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Records one run of list item `key` that did `work` in `secs`.
    pub fn item(&mut self, key: usize, work: f64, secs: f64) {
        let runs = self.items.entry(key).or_default();
        runs.work = work;
        runs.secs.push(secs);
    }

    /// Records one job latency.
    pub fn job(&mut self, key: usize, ms: f64) {
        self.jobs.entry(key).or_default().push(ms);
    }

    /// Work per second of one pass over the item list, each item timed
    /// by its [`Estimate`] over rounds.
    #[must_use]
    pub fn work_per_s(&self) -> f64 {
        let work: f64 = self.items.values().map(|r| r.work).sum();
        let secs: f64 = self.items.values().map(|r| self.estimate.of(&r.secs)).sum();
        work / secs
    }

    /// Median job latency: the median over jobs of each job's
    /// [`Estimate`] over rounds.
    #[must_use]
    pub fn job_p50_ms(&self) -> f64 {
        let per_job: Vec<f64> = self.jobs.values().map(|ms| self.estimate.of(ms)).collect();
        median(&per_job)
    }

    /// Every job latency of the run.
    #[must_use]
    pub fn all_job_ms(&self) -> Vec<f64> {
        self.jobs.values().flatten().copied().collect()
    }

    /// Total wall-clock of the timed loops.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.items.values().flat_map(|r| &r.secs).sum()
    }

    /// Adds `value` to the deterministic counter `name`.
    pub fn count(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_owned()).or_default() += value;
    }

    /// The deterministic counter `name` (0 if never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds `value` to the per-layer metric `name`.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_default() += value;
    }
}

/// Rounds in a run of `seconds` for a workload whose round lasts about
/// `round_s` seconds on a 2-core x86-64 container. The count depends on
/// the arguments only, never on how fast the run goes, so every run
/// does the same work.
#[must_use]
pub fn rounds(seconds: u64, round_s: f64) -> usize {
    let n = (seconds as f64 / round_s).round() as usize;
    n.max(1)
}

/// The seeded item order of successive rounds.
#[derive(Debug)]
pub struct Orders(SplitMix64);

impl Orders {
    /// The order stream of seed `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Orders(SplitMix64::new(seed))
    }

    /// A permutation of `0..n` for the next round.
    pub fn next(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.0.next_below(i + 1));
        }
        order
    }
}

/// Checks that every repeat of a list item reports the counters of its
/// first run.
#[derive(Debug, Default)]
pub struct RepeatCheck(BTreeMap<usize, Vec<u64>>);

impl RepeatCheck {
    /// `true` on the item's first run or when `counters` equal it.
    pub fn same(&mut self, item: usize, counters: Vec<u64>) -> bool {
        match self.0.get(&item) {
            Some(first) => *first == counters,
            None => {
                self.0.insert(item, counters);
                true
            }
        }
    }

    /// `true` when `item` has not been recorded yet.
    #[must_use]
    pub fn is_new(&self, item: usize) -> bool {
        !self.0.contains_key(&item)
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 for an empty sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lo, frac) = {
        let pos = q * (sorted.len() - 1) as f64;
        (pos.floor() as usize, pos - pos.floor())
    };
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Smallest value; infinite for an empty sample.
#[must_use]
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median; 0 for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
///
/// # Errors
///
/// When `/proc/<pid>/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kb / 1024.0)
}

/// Seconds elapsed since `start`.
#[must_use]
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn orders_are_seeded_permutations() {
        let a = Orders::new(7).next(20);
        assert_eq!(a, Orders::new(7).next(20));
        assert_ne!(a, Orders::new(8).next(20));
        let mut stream = Orders::new(7);
        assert_eq!(stream.next(20), a);
        assert_ne!(stream.next(20), a, "successive rounds are reordered");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn rounds_are_fixed_by_the_arguments() {
        assert_eq!(rounds(15, 2.0), 8);
        assert_eq!(rounds(1, 2.0), 1);
        assert_eq!(rounds(0, 2.0), 1);
    }

    #[test]
    fn items_are_timed_by_their_fastest_round() {
        let mut out = Outcome::default();
        for secs in [1.0, 2.0, 3.0] {
            out.item(0, 10.0, secs);
            out.job(0, secs * 1e3);
        }
        out.item(1, 5.0, 0.5);
        out.job(1, 500.0);
        assert_eq!(out.work_per_s(), 10.0);
        assert_eq!(out.job_p50_ms(), 750.0);
        assert_eq!(out.busy_s(), 6.5);
        out.estimate = Estimate::Median;
        assert_eq!(out.work_per_s(), 15.0 / 2.5);
        assert_eq!(out.job_p50_ms(), 1250.0);
    }

    #[test]
    fn repeat_check_flags_a_changed_repeat() {
        let mut check = RepeatCheck::default();
        assert!(check.is_new(1));
        assert!(check.same(1, vec![3, 4]));
        assert!(!check.is_new(1));
        assert!(check.same(1, vec![3, 4]));
        assert!(!check.same(1, vec![3, 5]));
        assert!(check.same(2, vec![9]));
    }
}
