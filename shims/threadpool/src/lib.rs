//! Offline shim: deterministic scoped data-parallelism over std threads.
//!
//! The workspace's compute hot paths (centralized skyline probabilities,
//! STR bulk loading, coordinator fan-out) are data-parallel over
//! independent items, but must stay *bit-for-bit deterministic*: the
//! distributed protocols are tested against sequential reference
//! implementations, so a parallel run may not reorder a single float
//! operation. This shim therefore offers only work-stealing-free
//! primitives whose output is a pure function of the input:
//!
//! * [`map_chunks`] — split the input into at most [`pool_size`]
//!   *contiguous* chunks, run the first on the caller and each other on
//!   one scoped worker, and concatenate the per-chunk results in input
//!   order. Every primitive below is built on it; the coordinator's site
//!   fan-out waves and site construction use it directly.
//! * [`parallel_map`] / [`parallel_map_vec`] — element maps over those
//!   chunks. Each output element is produced by exactly the same closure
//!   invocation as in a sequential map.
//! * [`par_sort_by`] — chunk-local stable sorts followed by left-preferring
//!   stable merges; the result equals `slice::sort_by` (a stable sort's
//!   output is unique), for every pool size.
//!
//! The pool size comes from, in priority order: a programmatic
//! [`set_pool_size`] override (tests and benchmarks), the `DSUD_THREADS`
//! environment variable, and [`std::thread::available_parallelism`].
//! `DSUD_THREADS=1` (or `set_pool_size(1)`) is the documented sequential
//! fallback: every primitive then runs inline on the caller's stack.
//!
//! No threads are kept alive between calls: workers are scoped
//! [`std::thread`]s, so the shim needs no shutdown story and cannot leak.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::scope;

/// Upper bound on the pool size; protects against absurd `DSUD_THREADS`
/// values.
pub const MAX_THREADS: usize = 64;

/// `0` means "no override"; set via [`set_pool_size`].
static POOL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the pool size for the whole process, taking precedence over
/// `DSUD_THREADS`. Passing `0` clears the override.
///
/// Intended for tests and benchmarks that compare thread counts without
/// mutating the process environment (which would race with other tests).
pub fn set_pool_size(n: usize) {
    POOL_OVERRIDE.store(n.min(MAX_THREADS), Ordering::SeqCst);
}

/// The number of worker threads parallel operations may use.
///
/// Resolution order: [`set_pool_size`] override, then the `DSUD_THREADS`
/// environment variable, then [`std::thread::available_parallelism`];
/// always at least 1 and at most [`MAX_THREADS`].
pub fn pool_size() -> usize {
    let overridden = POOL_OVERRIDE.load(Ordering::SeqCst);
    if overridden > 0 {
        return overridden.clamp(1, MAX_THREADS);
    }
    if let Ok(var) = std::env::var("DSUD_THREADS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n.clamp(1, MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism().map(usize::from).unwrap_or(1).clamp(1, MAX_THREADS)
}

/// Runs `f` once per contiguous chunk of `items` and concatenates the
/// per-chunk results in input order.
///
/// `items` is split into at most [`pool_size`] chunks whose lengths differ
/// by at most one. The calling thread runs the first chunk and every other
/// chunk gets one scoped worker, so a call never occupies more than
/// `pool_size()` threads. `f` receives the input index of its chunk's
/// first item and owns the chunk. With a pool of 1, or at most one item,
/// `f` runs once on the caller over the whole input.
///
/// There is no minimum input size: this is the primitive for waves where
/// every item is a whole unit of work (a site request, a site build). For
/// cheap per-element maps use [`parallel_map_vec`].
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn map_chunks<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, Vec<T>) -> Vec<R> + Sync,
{
    let workers = pool_size().min(items.len());
    if workers <= 1 {
        return f(0, items);
    }
    let mut chunks = split_into_chunks(items, workers).into_iter();
    let (first_at, first) = chunks.next().expect("at least two chunks");
    let f = &f;
    scope(|s| {
        let handles: Vec<_> = chunks.map(|(at, chunk)| s.spawn(move || f(at, chunk))).collect();
        let mut out = f(first_at, first);
        for h in handles {
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// Inputs shorter than this are always mapped inline: spawning costs more
/// than the work saved.
const MIN_ITEMS_TO_SPAWN: usize = 32;

/// Maps `f` over `items`, returning results in input order.
///
/// `f` receives the item's index and a reference to it. The input is split
/// into contiguous chunks as in [`map_chunks`]; with a pool of 1 (or a
/// small input) the map runs inline. Either way the result is exactly
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_vec(items.iter().collect(), f)
}

/// Consuming variant of [`parallel_map`]: moves each item into `f`.
///
/// Results come back in input order, exactly as
/// `items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect()`.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if items.len() < MIN_ITEMS_TO_SPAWN {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    map_chunks(items, |at, chunk| {
        chunk.into_iter().enumerate().map(|(j, t)| f(at + j, t)).collect()
    })
}

/// Sorts in parallel with the exact result of a sequential stable
/// [`slice::sort_by`].
///
/// Contiguous chunks are stable-sorted on the pool, then merged pairwise
/// with ties preferring the left (earlier-index) run. A stable sort's
/// output is uniquely determined — elements ordered by `(key, original
/// index)` — so the result is identical for every pool size, including the
/// sequential fallback.
///
/// # Panics
///
/// Propagates a panic from `cmp` (e.g. on incomparable keys).
pub fn par_sort_by<T, F>(items: &mut Vec<T>, cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    const MIN_ITEMS_TO_SORT_PARALLEL: usize = 4096;
    if pool_size() <= 1 || items.len() < MIN_ITEMS_TO_SORT_PARALLEL {
        items.sort_by(|a, b| cmp(a, b));
        return;
    }
    // One stable-sorted run per chunk, in input order.
    let mut runs = map_chunks(std::mem::take(items), |_, mut run| {
        run.sort_by(|a, b| cmp(a, b));
        vec![run]
    });
    // Merge adjacent runs until one remains; each level merges its pairs
    // on the pool. Left-preferring merges keep the overall sort stable.
    while runs.len() > 1 {
        let mut paired: Vec<(Vec<T>, Option<Vec<T>>)> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(left) = it.next() {
            paired.push((left, it.next()));
        }
        runs = map_chunks(paired, |_, pairs| {
            pairs
                .into_iter()
                .map(|(left, right)| match right {
                    Some(right) => merge_stable(left, right, &cmp),
                    None => left,
                })
                .collect()
        });
    }
    *items = runs.pop().unwrap_or_default();
}

/// Splits `items` into `n` owned contiguous chunks (`1 <= n <= len`)
/// whose lengths differ by at most one, longer chunks first. Each chunk is
/// tagged with the input index of its first item.
fn split_into_chunks<T>(mut items: Vec<T>, n: usize) -> Vec<(usize, Vec<T>)> {
    let (base, extra) = (items.len() / n, items.len() % n);
    let mut chunks = Vec::with_capacity(n);
    // From the back, so each `split_off` moves only its own chunk.
    for k in (1..n).rev() {
        let at = k * base + k.min(extra);
        chunks.push((at, items.split_off(at)));
    }
    chunks.push((0, items));
    chunks.reverse();
    chunks
}

/// Stable two-way merge preferring the left run on ties.
fn merge_stable<T, F>(left: Vec<T>, right: Vec<T>, cmp: &F) -> Vec<T>
where
    F: Fn(&T, &T) -> std::cmp::Ordering,
{
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut l = left.into_iter().peekable();
    let mut r = right.into_iter().peekable();
    loop {
        match (l.peek(), r.peek()) {
            (Some(a), Some(b)) => {
                if cmp(b, a) == std::cmp::Ordering::Less {
                    out.push(r.next().expect("peeked"));
                } else {
                    out.push(l.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(l.next().expect("peeked")),
            (None, Some(_)) => out.push(r.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global pool override.
    static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_pool<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_size(n);
        let out = f();
        set_pool_size(0);
        out
    }

    #[test]
    fn pool_size_is_at_least_one() {
        assert!(pool_size() >= 1);
        assert!(pool_size() <= MAX_THREADS);
    }

    #[test]
    fn override_wins_and_clears() {
        with_pool(3, || assert_eq!(pool_size(), 3));
    }

    #[test]
    fn map_chunks_splits_evenly_on_at_most_pool_threads() {
        for (len, pool, expected) in [
            (8, 3, vec![(0, 3), (3, 3), (6, 2)]),
            (3, 8, vec![(0, 1), (1, 1), (2, 1)]),
            (7, 2, vec![(0, 4), (4, 3)]),
            (5, 1, vec![(0, 5)]),
            (0, 4, vec![(0, 0)]),
        ] {
            let items: Vec<usize> = (0..len).collect();
            let caller = std::thread::current().id();
            let got = with_pool(pool, || {
                map_chunks(items.clone(), |at, chunk| {
                    vec![(at, chunk.len(), std::thread::current().id(), chunk)]
                })
            });
            let layout: Vec<(usize, usize)> = got.iter().map(|c| (c.0, c.1)).collect();
            assert_eq!(layout, expected, "{len} items on pool {pool}");
            assert_eq!(got[0].2, caller, "the caller runs the first chunk");
            let threads: std::collections::HashSet<_> = got.iter().map(|c| c.2).collect();
            assert_eq!(threads.len(), got.len(), "one thread per chunk");
            let flat: Vec<usize> = got.into_iter().flat_map(|c| c.3).collect();
            assert_eq!(flat, items, "chunks concatenate to the input");
        }
    }

    #[test]
    fn map_matches_sequential_for_every_pool_size() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 2 + i as u64).collect();
        for n in [1, 2, 3, 8] {
            let got = with_pool(n, || parallel_map(&items, |i, x| x * 2 + i as u64));
            assert_eq!(got, expected, "pool size {n}");
        }
    }

    #[test]
    fn map_vec_consumes_in_order() {
        let items: Vec<String> = (0..500).map(|i| format!("s{i}")).collect();
        let expected = items.clone();
        for n in [1, 4] {
            let got = with_pool(n, || parallel_map_vec(items.clone(), |_, s| s));
            assert_eq!(got, expected, "pool size {n}");
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        let got = with_pool(8, || parallel_map(&[1, 2, 3], |_, x| x + 1));
        assert_eq!(got, vec![2, 3, 4]);
        assert!(with_pool(8, || parallel_map(&[] as &[i32], |_, x| *x)).is_empty());
    }

    #[test]
    fn sort_equals_stable_sort_for_every_pool_size() {
        // Keys collide on purpose: stability is the whole contract.
        let items: Vec<(u32, usize)> =
            (0..10_000).map(|i| (((i * 2654435761usize) % 97) as u32, i)).collect();
        let mut expected = items.clone();
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        for n in [1, 2, 5, 8] {
            let mut got = items.clone();
            with_pool(n, || par_sort_by(&mut got, |a, b| a.0.cmp(&b.0)));
            assert_eq!(got, expected, "pool size {n}");
        }
    }

    #[test]
    fn sort_handles_small_and_empty() {
        let mut v: Vec<i32> = vec![];
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert!(v.is_empty());
        let mut v = vec![3, 1, 2];
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 2, 3]);
    }
}
