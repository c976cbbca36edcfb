//! # flexray-util
//!
//! Dependency-free plumbing shared across the workspace: the scoped
//! work-stealing worker pool ([`scoped_consume`]) that drives the
//! `grid`, `sweep`, `fig9` and `fuzz` harnesses of `flexray-bench`, the
//! per-worker-state variant ([`scoped_map_with`]) behind the
//! multi-session `Evaluator` pool of `flexray-opt`, and the streaming
//! per-worker-state form ([`scoped_consume_with`]) behind the
//! `flexray-serve` job dispatcher, and its quit-aware form
//! ([`scoped_consume_until`]) behind the daemon's graceful stop. All
//! are projections of one primitive: [`scoped_consume_until`].

#![warn(missing_docs)]
#![warn(clippy::all)]

/// Runs `f(0..n_items)` over `threads` scoped worker threads, handing
/// each result to `consume(i, result)` on the calling thread as it
/// lands: in completion order (nondeterministic across runs — index
/// order only on the serial path).
///
/// `threads <= 1` runs serially. Workers *steal* the next unclaimed
/// index from a shared atomic cursor (rather than owning pre-assigned
/// subsets), so a few slow items cannot idle the rest of the pool. This
/// is the streaming hook the grid engine uses to aggregate points and
/// emit report records while later units are still being solved,
/// without holding a second copy of the results.
pub fn scoped_consume<T, F, C>(n_items: usize, threads: usize, f: F, consume: C)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, T),
{
    let threads = threads.max(1).min(n_items.max(1));
    let mut states = vec![(); threads];
    scoped_consume_with(&mut states, n_items, |(), i| f(i), consume);
}

/// The most general form of the pool: per-worker owned *state*
/// ([`scoped_map_with`]) combined with streaming completion
/// ([`scoped_consume`]). One scoped thread is spawned per element of
/// `states` (capped at `n_items`; a single state runs serially on the
/// calling thread); workers steal indices from a shared atomic cursor,
/// and `consume(i, result)` runs on the calling thread in completion
/// order, owning each result as it lands.
///
/// This is the dispatcher primitive of the `flexray-serve` daemon: work
/// units stream into the journal the moment they complete while every
/// worker keeps its own warm state.
///
/// Does nothing when `n_items == 0`.
///
/// # Panics
///
/// Panics if `states` is empty while `n_items > 0`: there would be no
/// worker to run the items on.
pub fn scoped_consume_with<S, T, F, C>(states: &mut [S], n_items: usize, f: F, consume: C)
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
    C: FnMut(usize, T),
{
    let quit = std::sync::atomic::AtomicBool::new(false);
    scoped_consume_until(states, n_items, &quit, f, consume);
}

/// [`scoped_consume_with`] with a cooperative *quit flag*: once `quit`
/// reads `true`, no worker claims another index. Indices already being
/// computed run to completion and are still handed to `consume`; the
/// remaining unclaimed indices are simply never run, leaving the caller
/// with a gap it can detect (its result buffer stays empty there).
///
/// This is the graceful-stop primitive of the `flexray-serve` daemon:
/// a stop file or a socket `shutdown` request sets the flag, in-flight
/// units finish and are journaled, and the pool winds down without
/// abandoning any result it already paid for. The flag is only
/// *observed* here — the caller decides when to set it (typically from
/// inside `consume`, which runs on the calling thread).
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

/// Runs `f(state, i)` over `0..n_items` with one exclusively owned
/// *worker state* per thread, collecting the results in index order —
/// the pool behind the multi-session `Evaluator`: each worker brings a warm
/// state (e.g. an analysis session) to every index it steals, so
/// expensive per-worker setup happens once, not per item.
///
/// One scoped thread is spawned per element of `states` (capped at
/// `n_items`); a single state runs serially on the calling thread.
/// Indices are work-stolen from a shared atomic cursor exactly like
/// [`scoped_consume`], and results land in index order regardless of which
/// worker claimed which index — callers whose `f(_, i)` is a pure
/// function of `i` therefore get output bit-identical to the serial
/// run for any state count.
///
/// # Panics
///
/// Panics if `states` is empty while `n_items > 0`: there would be no
/// worker to run the items on.
pub fn scoped_map_with<S, T, F>(states: &mut [S], n_items: usize, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..n_items).map(|_| None).collect();
    scoped_consume_with(states, n_items, f, |i, item| slots[i] = Some(item));
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_consume_hands_over_every_item_exactly_once() {
        for threads in [1usize, 4] {
            let mut seen = [0usize; 9];
            scoped_consume(
                9,
                threads,
                |i| i * 2,
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
        for workers in [1usize, 2, 5] {
            let mut states: Vec<usize> = vec![0; workers];
            let mut seen = [0usize; 13];
            scoped_consume_with(
                &mut states,
                13,
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
        scoped_consume_with(&mut none, 0, |_, i| i, |_, _| panic!("no items"));
    }

    #[test]
    fn scoped_consume_until_serial_stops_exactly_at_the_quit() {
        use std::sync::atomic::{AtomicBool, Ordering};
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
        use std::sync::atomic::{AtomicBool, Ordering};
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
        use std::sync::atomic::AtomicBool;
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
