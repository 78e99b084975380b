//! The shared-nothing worker pool with deterministic aggregation.
//!
//! Workers pull positions off one atomic counter — in grid order, or in
//! an explicit schedule (used for longest-job-first dispatch against a
//! result cache) — and run a caller-supplied executor; each result is
//! stored into a slot addressed by the item's **original index**, never
//! by completion or dispatch order. The aggregated vector is therefore
//! identical for any thread count and any schedule — a parallel run is
//! byte-for-byte the serial run, just faster.
//!
//! Workers share nothing but the counter and the result slots: the
//! executor receives only the item, and is expected to build whatever
//! heavyweight state it needs (machines, suites, kernels) from scratch
//! per item. Simulations are seconds-long, so per-item setup is noise.
//!
//! Job-grid execution lives in [`crate::plan::ExecPlan`]; this module
//! keeps the index-level primitive ([`run_indexed`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over `0..n` on `threads` workers and returns the results in
/// index order.
///
/// `threads == 1` runs inline on the calling thread (no pool, no locks):
/// the serial baseline parallel runs are measured against.
///
/// # Panics
///
/// A panicking executor propagates — but only after every worker has
/// joined, and sibling items already dispatched keep running to
/// completion first; no result slot is corrupted. Callers who want a
/// panic to cost one *job* rather than the whole run get that isolation
/// from [`crate::plan::ExecPlan`], which wraps its executor in
/// `catch_unwind` and turns the panic into a typed `Failed` slot.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_ordered(n, threads, None, f)
}

/// The execution core behind [`run_indexed`] and
/// [`crate::plan::ExecPlan`]: an optional schedule shifts wall-clock
/// (workers pull positions from `order` front to back), never output
/// bytes (results land by item index).
///
/// # Panics
///
/// Panics when `order` is not a permutation of `0..n`, and propagates
/// executor panics like [`run_indexed`].
pub(crate) fn run_ordered<T, F>(n: usize, threads: usize, order: Option<&[usize]>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads >= 1, "worker pool needs at least one thread");
    if let Some(order) = order {
        assert_eq!(order.len(), n, "schedule must cover every item");
        debug_assert!(
            {
                let mut seen = vec![false; n];
                order
                    .iter()
                    .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
            },
            "schedule must be a permutation of 0..n"
        );
    }
    let at = |k: usize| order.map_or(k, |o| o[k]);
    if threads == 1 || n <= 1 {
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for k in 0..n {
            let i = at(k);
            slots[i] = Some(f(i));
        }
        return slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let i = at(k);
                let out = f(i);
                // Recover a poisoned lock: each slot is written exactly
                // once, so a sibling's panic cannot have left the vector
                // half-updated — refusing the lock would only discard
                // finished work.
                slots
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_are_index_ordered_for_any_thread_count() {
        let f = |i: usize| i * i;
        let serial = run_indexed(33, 1, f);
        for threads in [2, 3, 8] {
            assert_eq!(run_indexed(33, threads, f), serial, "threads={threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = Mutex::new(Vec::new());
        let _ = run_indexed(100, 4, |i| {
            hits.lock().unwrap().push(i);
            i
        });
        let hits = hits.into_inner().unwrap();
        assert_eq!(hits.len(), 100);
        assert_eq!(hits.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn serial_runs_inline_and_parallel_runs_on_workers() {
        let me = std::thread::current().id();
        let ids = run_indexed(4, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == me), "threads=1 must run inline");
        let ids = run_indexed(4, 2, |_| std::thread::current().id());
        assert!(
            ids.iter().all(|&id| id != me),
            "threads>1 must run on spawned workers"
        );
    }

    #[test]
    fn zero_and_one_item_edge_cases() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn schedule_changes_execution_order_but_not_results() {
        let order = vec![3, 1, 0, 2];
        let executed = Mutex::new(Vec::new());
        let out = run_ordered(4, 1, Some(&order), |i| {
            executed.lock().unwrap().push(i);
            i * 10
        });
        // Results are index-ordered regardless of the schedule...
        assert_eq!(out, vec![0, 10, 20, 30]);
        // ...and serial execution followed the schedule exactly.
        assert_eq!(executed.into_inner().unwrap(), order);
        // Parallel: same results for any schedule and thread count.
        for threads in [2, 4] {
            assert_eq!(
                run_ordered(4, threads, Some(&order), |i| i * 10),
                vec![0, 10, 20, 30]
            );
        }
    }

    #[test]
    #[should_panic(expected = "schedule must cover every item")]
    fn schedule_of_the_wrong_length_panics() {
        let _ = run_ordered(3, 2, Some(&[0, 1]), |i| i);
    }
}
