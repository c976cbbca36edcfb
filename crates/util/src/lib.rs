//! # flexray-util
//!
//! Dependency-free plumbing shared across the workspace: the scoped
//! work-stealing worker pool ([`scoped_consume_until`]) that runs the
//! units→points engine of `flexray-bench` — the `grid`, `sweep`, `fig9`
//! and `fuzz` harnesses and the `flexray-serve` daemon — and its
//! index-ordered projection ([`scoped_map_with`]) behind the
//! multi-session `Evaluator` pool of `flexray-opt`. [`resolve_threads`]
//! is the one reading of a `threads = 0` ("all cores") setting.

#![warn(missing_docs)]
#![warn(clippy::all)]

/// The effective worker-thread count of a `threads` setting: `threads`
/// itself, with `0` resolved to the available hardware parallelism.
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Runs `f(state, i)` over `0..n_items` on one scoped worker thread per
/// element of `states` (capped at `n_items`; a single state runs
/// serially on the calling thread), handing each result to
/// `consume(i, result)` on the calling thread in completion order.
/// Workers *steal* the next unclaimed index from a shared atomic
/// cursor, so a few slow items cannot idle the rest of the pool, and
/// bring their own exclusively owned state to every index they claim.
///
/// Once `quit` reads `true`, no worker claims another index: indices
/// already being computed still reach `consume`, the rest never run.
/// The caller sets the flag, typically from inside `consume`.
///
/// # Panics
///
/// Panics if `states` is empty while `n_items > 0`: there would be no
/// worker to run the items on.
pub fn scoped_consume_until<S, T, F, C>(
    states: &mut [S],
    n_items: usize,
    quit: &std::sync::atomic::AtomicBool,
    f: F,
    mut consume: C,
) where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
    C: FnMut(usize, T),
{
    use std::sync::atomic::Ordering;
    if n_items == 0 {
        return;
    }
    assert!(
        !states.is_empty(),
        "scoped_consume_until needs at least one worker state"
    );
    if states.len() == 1 {
        let state = &mut states[0];
        for i in 0..n_items {
            if quit.load(Ordering::Relaxed) {
                break;
            }
            consume(i, f(state, i));
        }
        return;
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    let f = &f;
    let cursor = &cursor;
    std::thread::scope(|scope| {
        for state in states.iter_mut().take(n_items) {
            let tx = tx.clone();
            scope.spawn(move || loop {
                if quit.load(Ordering::Relaxed) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_items {
                    break;
                }
                if tx.send((i, f(state, i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, item) in rx {
            consume(i, item);
        }
    });
}

/// [`scoped_consume_until`] without a quit flag, collecting the results
/// in index order — the pool behind the multi-session `Evaluator`: each
/// worker brings a warm state (e.g. an analysis session) to every index
/// it steals, so expensive per-worker setup happens once, not per item.
/// Callers whose `f(_, i)` is a pure function of `i` get output
/// bit-identical to the serial run for any state count.
///
/// # Panics
///
/// Panics if `states` is empty while `n_items > 0`.
pub fn scoped_map_with<S, T, F>(states: &mut [S], n_items: usize, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..n_items).map(|_| None).collect();
    let quit = std::sync::atomic::AtomicBool::new(false);
    scoped_consume_until(states, n_items, &quit, f, |i, item| slots[i] = Some(item));
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn scoped_consume_hands_over_every_item_exactly_once() {
        let quit = AtomicBool::new(false);
        for threads in [1usize, 4] {
            let mut seen = [0usize; 9];
            scoped_consume_until(
                &mut vec![(); threads],
                9,
                &quit,
                |(), i| i * 2,
                |i, item| {
                    assert_eq!(item, i * 2, "consumer owns the right item");
                    seen[i] += 1;
                },
            );
            assert!(seen.iter().all(|&count| count == 1), "threads {threads}");
        }
    }

    #[test]
    fn scoped_map_with_is_order_preserving_for_any_worker_count() {
        let expected: Vec<usize> = (0..23).map(|i| i * 3).collect();
        for workers in [1usize, 2, 3, 8] {
            let mut states: Vec<u64> = vec![0; workers];
            let out = scoped_map_with(&mut states, 23, |_, i| i * 3);
            assert_eq!(out, expected, "workers {workers}");
        }
    }

    #[test]
    fn scoped_map_with_gives_each_worker_exclusive_state() {
        // Every claimed index bumps the claiming worker's counter; the
        // counters must add up to the item count (each index claimed by
        // exactly one worker, each worker owning its state).
        let mut states: Vec<usize> = vec![0; 4];
        let out = scoped_map_with(&mut states, 50, |claimed, i| {
            *claimed += 1;
            i
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert_eq!(states.iter().sum::<usize>(), 50);
    }

    #[test]
    fn scoped_map_with_empty_items_needs_no_workers() {
        let mut none: Vec<u8> = Vec::new();
        assert!(scoped_map_with(&mut none, 0, |_, i| i).is_empty());
    }

    #[test]
    fn scoped_consume_with_streams_every_item_with_worker_state() {
        let quit = AtomicBool::new(false);
        for workers in [1usize, 2, 5] {
            let mut states: Vec<usize> = vec![0; workers];
            let mut seen = [0usize; 13];
            scoped_consume_until(
                &mut states,
                13,
                &quit,
                |claimed, i| {
                    *claimed += 1;
                    i * 7
                },
                |i, item| {
                    assert_eq!(item, i * 7, "consumer owns the right item");
                    seen[i] += 1;
                },
            );
            assert!(seen.iter().all(|&count| count == 1), "workers {workers}");
            assert_eq!(states.iter().sum::<usize>(), 13, "workers {workers}");
        }
    }

    #[test]
    fn scoped_consume_with_empty_items_is_a_no_op() {
        let mut none: Vec<u8> = Vec::new();
        let quit = AtomicBool::new(false);
        scoped_consume_until(&mut none, 0, &quit, |_, i| i, |_, _| panic!("no items"));
    }

    #[test]
    fn scoped_consume_until_serial_stops_exactly_at_the_quit() {
        let quit = AtomicBool::new(false);
        let mut states: Vec<()> = vec![()];
        let mut landed = 0usize;
        scoped_consume_until(
            &mut states,
            1000,
            &quit,
            |(), i| i,
            |i, item| {
                assert_eq!(item, i);
                landed += 1;
                if landed == 5 {
                    quit.store(true, Ordering::Relaxed);
                }
            },
        );
        // The serial path checks the flag before every claim, so the
        // count is exact: the five consumed items, nothing more.
        assert_eq!(landed, 5);
    }

    #[test]
    fn scoped_consume_until_parallel_stops_claiming_once_quit_is_set() {
        let quit = AtomicBool::new(false);
        let mut states: Vec<()> = vec![(); 3];
        let mut seen = vec![false; 300];
        let mut landed = 0usize;
        scoped_consume_until(
            &mut states,
            300,
            &quit,
            |(), i| {
                // Slow enough that the quit (set after 5 completions)
                // lands long before the pool could drain all 300.
                std::thread::sleep(std::time::Duration::from_millis(2));
                i
            },
            |i, item| {
                assert_eq!(item, i);
                assert!(!seen[i], "index {i} delivered twice");
                seen[i] = true;
                landed += 1;
                if landed == 5 {
                    quit.store(true, Ordering::Relaxed);
                }
            },
        );
        assert!(landed >= 5, "quit fired before 5 completions");
        assert!(landed < 300, "quit flag did not stop the pool");
        assert_eq!(seen.iter().filter(|&&s| s).count(), landed);
    }

    #[test]
    fn scoped_consume_until_with_quit_preset_runs_nothing() {
        let quit = AtomicBool::new(true);
        let mut states: Vec<()> = vec![(); 2];
        scoped_consume_until(
            &mut states,
            9,
            &quit,
            |(), i| i,
            |_, _| panic!("preset quit must not run items"),
        );
    }
}
