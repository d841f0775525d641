//! Parallel Monte Carlo engine (the stand-in for the authors' MATLAB
//! simulation scripts).
//!
//! Each sample receives a deterministic per-sample seed derived from the
//! experiment seed, so results are reproducible regardless of thread count
//! or scheduling.
//!
//! Workers own **disjoint contiguous chunks** of the sample range and
//! fold them locally; the chunk results are combined in worker order at
//! the end, so there is no shared mutable state on the hot path.
//! [`monte_carlo_range_fold`] is the one function that chunks the range
//! and scopes the threads; the collecting variants are folds over it.
//! [`monte_carlo_with`] additionally gives each worker a private state
//! value (a mapping engine, a reusable crossbar matrix, …) so per-sample
//! heap allocation can be eliminated entirely.

use std::ops::Range;
use std::thread;

/// Derives a per-sample seed from the experiment seed (SplitMix64 step).
#[must_use]
pub fn sample_seed(experiment_seed: u64, sample: usize) -> u64 {
    let mut z =
        experiment_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(sample as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `samples` independent trials of `f` across all CPUs and returns the
/// results in sample order. `f` receives `(sample_index, sample_seed)`.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn monte_carlo<T, F>(samples: usize, experiment_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    monte_carlo_with(
        samples,
        experiment_seed,
        || (),
        move |(), i, seed| f(i, seed),
    )
}

/// [`monte_carlo`] with per-worker state: every worker calls `init` once,
/// then threads the resulting value through each of its samples. This is
/// the hook for reusable scratch (e.g. a `MatchEngine` plus a resampled
/// `CrossbarMatrix`) that makes the sampling loop allocation-free.
///
/// Results are identical to [`monte_carlo`] with a stateless closure:
/// per-sample seeds depend only on `(experiment_seed, sample_index)`, and
/// the per-worker chunks are contiguous, so concatenating them in worker
/// order restores sample order exactly.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn monte_carlo_with<S, T, I, F>(samples: usize, experiment_seed: u64, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, u64) -> T + Sync,
{
    monte_carlo_range_with(0..samples, experiment_seed, init, f)
}

/// Runs the sub-range `range` of a `monte_carlo` sample space: sample `i`
/// still receives `sample_seed(experiment_seed, i)` with its **global**
/// index, so concatenating the outputs of any contiguous partition of
/// `0..samples` (in partition order) is identical to one
/// [`monte_carlo`] call over the whole space. This is the primitive the
/// process-sharded coordinator (see [`crate::shard`]) is built on.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn monte_carlo_range<T, F>(range: Range<usize>, experiment_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    monte_carlo_range_with(range, experiment_seed, || (), move |(), i, seed| f(i, seed))
}

/// [`monte_carlo_range`] with per-worker state — the range analogue of
/// [`monte_carlo_with`]: a [`monte_carlo_range_fold`] in which each worker
/// pushes its results and the chunks are concatenated in worker order.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn monte_carlo_range_with<S, T, I, F>(
    range: Range<usize>,
    experiment_seed: u64,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, u64) -> T + Sync,
{
    monte_carlo_range_fold(
        range,
        experiment_seed,
        init,
        Vec::new,
        |results: &mut Vec<T>, state, i, seed| results.push(f(state, i, seed)),
        |results, chunk| results.extend(chunk),
    )
}

/// Streaming fold over a sample range: each worker folds its contiguous
/// chunk into an accumulator (`empty` + `fold`), and chunk accumulators
/// are combined with `merge` in worker order — nothing per-sample is ever
/// materialized, so memory stays O(workers) at any sample count.
///
/// Sample `i` is seeded with `sample_seed(experiment_seed, i)` whatever
/// the chunking; with a merge-exact accumulator (integer counters) the
/// result is independent of the worker count.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn monte_carlo_range_fold<S, A, I, E, F, M>(
    range: Range<usize>,
    experiment_seed: u64,
    init: I,
    empty: E,
    fold: F,
    merge: M,
) -> A
where
    A: Send,
    I: Fn() -> S + Sync,
    E: Fn() -> A + Sync,
    F: Fn(&mut A, &mut S, usize, u64) + Sync,
    M: Fn(&mut A, A),
{
    let samples = range.len();
    let workers = thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(samples.max(1));
    // Disjoint contiguous chunks: worker w owns [start, end) within the
    // range. The first `samples % workers` chunks carry one extra sample.
    let base = samples / workers;
    let extra = samples % workers;
    let bounds = |w: usize| {
        let start = range.start + w * base + w.min(extra);
        let end = start + base + usize::from(w < extra);
        (start, end)
    };

    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (start, end) = bounds(w);
                let init = &init;
                let empty = &empty;
                let fold = &fold;
                scope.spawn(move || {
                    let mut state = init();
                    let mut accum = empty();
                    for i in start..end {
                        fold(&mut accum, &mut state, i, sample_seed(experiment_seed, i));
                    }
                    accum
                })
            })
            .collect();
        let mut total = empty();
        for handle in handles {
            merge(&mut total, handle.join().expect("no poisoned worker"));
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_sample_order() {
        let out = monte_carlo(100, 1, |i, _| i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn results_are_in_sample_order_when_samples_do_not_divide_evenly() {
        // 101 samples over N workers exercises the uneven-chunk bounds.
        let out = monte_carlo(101, 9, |i, _| i);
        assert_eq!(out, (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = monte_carlo(50, 7, |_, seed| seed);
        let b = monte_carlo(50, 7, |_, seed| seed);
        assert_eq!(a, b, "same experiment seed → same sample seeds");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50, "sample seeds must be distinct");
        let c = monte_carlo(50, 8, |_, seed| seed);
        assert_ne!(a, c, "different experiment seed → different streams");
    }

    #[test]
    fn zero_samples_is_fine() {
        let out: Vec<u64> = monte_carlo(0, 1, |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn per_worker_state_is_initialised_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let out = monte_carlo_with(
            64,
            3,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |count, i, _| {
                *count += 1;
                (i, *count)
            },
        );
        assert_eq!(out.len(), 64);
        let workers = inits.load(Ordering::Relaxed);
        assert!(workers >= 1);
        // Each worker's counter restarts at 1 and increases within the
        // chunk; the number of 1s equals the number of workers.
        assert_eq!(out.iter().filter(|(_, c)| *c == 1).count(), workers);
        for (i, _) in &out {
            assert_eq!(*i, out[*i].0, "sample order preserved");
        }
    }

    #[test]
    fn stateful_and_stateless_agree() {
        let stateless = monte_carlo(33, 11, |i, seed| (i, seed));
        let stateful = monte_carlo_with(33, 11, || (), |(), i, seed| (i, seed));
        assert_eq!(stateless, stateful);
    }

    #[test]
    fn range_concatenation_matches_monolithic_run() {
        let whole = monte_carlo(97, 42, |i, seed| (i, seed));
        for splits in [vec![0, 97], vec![0, 1, 97], vec![0, 13, 50, 96, 97]] {
            let mut stitched = Vec::new();
            for pair in splits.windows(2) {
                stitched.extend(monte_carlo_range(pair[0]..pair[1], 42, |i, seed| (i, seed)));
            }
            assert_eq!(stitched, whole, "splits {splits:?}");
        }
    }

    #[test]
    fn empty_range_yields_nothing() {
        let out: Vec<u64> = monte_carlo_range(5..5, 1, |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn range_sample_seeds_use_global_indices() {
        let tail = monte_carlo_range(90..100, 7, |i, seed| (i, seed));
        let whole = monte_carlo(100, 7, |i, seed| (i, seed));
        assert_eq!(tail, whole[90..]);
    }

    #[test]
    fn fold_matches_collect_then_fold_for_exact_accumulators() {
        // Wrapping-sum of seeds is associative-exact, so the folded result
        // must equal the collected one regardless of worker count.
        let collected: u64 = monte_carlo_range(3..120, 11, |_, seed| seed)
            .into_iter()
            .fold(0u64, u64::wrapping_add);
        let folded = monte_carlo_range_fold(
            3..120,
            11,
            || (),
            || 0u64,
            |acc, (), _, seed| *acc = acc.wrapping_add(seed),
            |acc, piece| *acc = acc.wrapping_add(piece),
        );
        assert_eq!(folded, collected);
    }

    #[test]
    fn fold_over_an_empty_range_returns_the_empty_accumulator() {
        let folded = monte_carlo_range_fold(
            5..5,
            1,
            || (),
            || 42u64,
            |_, (), _, _| unreachable!("no samples"),
            |_, _| {},
        );
        assert_eq!(folded, 42);
    }
}
