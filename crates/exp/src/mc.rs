//! Parallel Monte Carlo engine (the stand-in for the authors' MATLAB
//! simulation scripts).
//!
//! Each sample receives a deterministic per-sample seed derived from the
//! experiment seed, so results are reproducible regardless of thread count
//! or scheduling.
//!
//! One pooled fold, [`fold_jobs`], runs every campaign. It takes a list
//! of *jobs* (a Table II circuit is one), each a sample range plus a
//! per-job preparation, and folds them all through one `thread::scope`:
//! its workers claim [`CHUNK`]-sample chunks from one atomic cursor in job
//! order, fold each chunk into a per-worker accumulator for its job, and
//! the accumulators are merged per job in worker order at the end. The
//! fold callback gets the chunk's whole sample range, so it can draw
//! several samples' defect maps in one sweep (Table II draws
//! `DefectSampler::BATCH` at a time) before folding them in sample order.
//! There is no shared mutable state on the hot path, and an exact
//! accumulator (integer counters) reads the same under any worker count
//! or timing.
//! A job is prepared once: by the worker that ran the previous job's
//! first chunk, ahead of time, or else by the first worker that claims
//! one of its chunks. Its prepared state is dropped after its last chunk,
//! so a process holds a few jobs' state at a time, not every job's.
//!
//! [`monte_carlo_range_fold`] is the one-job case, and the collecting
//! variants are folds over it that return results in sample order.
//! [`monte_carlo_with`] additionally gives each worker a private state
//! value (a mapping engine, a reusable crossbar matrix, …) so per-sample
//! heap allocation can be eliminated entirely.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

/// Samples a pooled-fold worker claims at a time: one atomic add per
/// chunk never shows next to sampling it, and a 30-sample shard still
/// spreads its circuits over every worker.
pub(crate) const CHUNK: usize = 32;

/// The worker count of the public entry points: one per CPU this process
/// may run on (`available_parallelism` honours the affinity mask).
pub(crate) fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

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
/// before its first sample, then threads the resulting value through each
/// of its samples. This is the hook for reusable scratch (e.g. a
/// `MatchEngine` plus a resampled `CrossbarMatrix`) that makes the
/// sampling loop allocation-free.
///
/// Results are identical to [`monte_carlo`] with a stateless closure:
/// per-sample seeds depend only on `(experiment_seed, sample_index)`, and
/// the results are put back in sample order whichever worker ran them.
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
/// [`monte_carlo_with`]: a `monte_carlo_range_fold` in which each worker
/// records its results as runs of consecutive samples, and the runs are
/// put back in sample order at the end.
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
        |runs: &mut Runs<T>, state, i, seed| runs.push(i, f(state, i, seed)),
        Runs::append,
    )
    .into_sample_order()
}

/// Streaming fold over a sample range: the one-job case of
/// [`fold_jobs`]. Workers fold the chunks they claim into accumulators
/// (`A::default()` + `fold`), which are combined with `merge` in worker
/// order — nothing per-sample is ever materialized, so memory stays
/// O(workers) at any sample count.
///
/// Sample `i` is seeded with `sample_seed(experiment_seed, i)` whatever
/// the chunking; with a merge-exact accumulator (integer counters) the
/// result is independent of the worker count.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn monte_carlo_range_fold<S, A, I, F, M>(
    range: Range<usize>,
    experiment_seed: u64,
    init: I,
    fold: F,
    merge: M,
) -> A
where
    A: Default + Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut A, &mut S, usize, u64) + Sync,
    M: Fn(&mut A, A),
{
    fold_jobs(
        available_workers(),
        &[range],
        |_| (),
        init,
        |accum, state, (), samples| {
            for i in samples {
                fold(accum, state, i, sample_seed(experiment_seed, i));
            }
        },
        merge,
    )
    .pop()
    .expect("one job, one accumulator")
}

/// Folds every job's samples through one pool of `workers` threads and
/// returns one merged accumulator per job, in job order.
///
/// Job `j` covers the global samples `jobs[j]`, and is folded a chunk at
/// a time: a chunk's samples `samples` (a non-empty sub-range of
/// `jobs[j]`, at most [`CHUNK`] long) are folded by one call
/// `fold(accum, state, prepared, samples)`, where `state` is the worker's
/// own value (`init`, run once per worker, before its first chunk) and
/// `prepared` is `prepare(j)`, shared by the workers folding job `j`.
/// The callback derives each sample's seed itself, from its global index
/// (see [`sample_seed`]).
///
/// Workers claim [`CHUNK`]-sample chunks from one cursor in job order (an
/// empty job is one empty chunk, never folded). Each job is prepared
/// exactly once: the worker that ran job `j`'s first chunk then prepares
/// job `j + 1` while the others sample, unless another worker has it
/// already, and a chunk whose job is unprepared prepares it first. The
/// last chunk to finish drops the prepared state. Each worker folds into
/// its own accumulator per job, and these are merged per job in worker
/// order, so integer accumulators come out the same whatever the worker
/// count or timing.
///
/// # Panics
///
/// Propagates panics from `prepare`, `init` and `fold`.
pub(crate) fn fold_jobs<P, S, A, R, I, F, M>(
    workers: usize,
    jobs: &[Range<usize>],
    prepare: R,
    init: I,
    fold: F,
    merge: M,
) -> Vec<A>
where
    P: Send + Sync,
    A: Default + Send,
    R: Fn(usize) -> P + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut A, &mut S, &P, Range<usize>) + Sync,
    M: Fn(&mut A, A),
{
    // `starts[j]` is job j's first chunk; chunk c of the whole list
    // belongs to the last job whose first chunk is at or before c.
    let mut starts = vec![0];
    let slots: Vec<Slot<P>> = jobs
        .iter()
        .map(|range| {
            let chunks = range.len().div_ceil(CHUNK).max(1);
            starts.push(starts[starts.len() - 1] + chunks);
            Slot::new(chunks)
        })
        .collect();
    let total = starts[jobs.len()];
    // Relaxed: the cursor only hands out chunk indices; prepared state
    // passes through the slots' locks and accumulators through the joins.
    let cursor = AtomicUsize::new(0);

    let work = || {
        let mut state = None;
        let mut accums: Vec<A> = jobs.iter().map(|_| A::default()).collect();
        loop {
            let chunk = cursor.fetch_add(1, Ordering::Relaxed);
            if chunk >= total {
                return accums;
            }
            let job = starts.partition_point(|&start| start <= chunk) - 1;
            let nth = chunk - starts[job];
            let range = &jobs[job];
            let first = range.start + nth * CHUNK;
            let samples = first.min(range.end)..(first + CHUNK).min(range.end);
            let prepared = slots[job].acquire(|| prepare(job));
            if !samples.is_empty() {
                let state = state.get_or_insert_with(&init);
                fold(&mut accums[job], state, &prepared, samples);
            }
            drop(prepared);
            slots[job].finish_chunk();
            if nth == 0 {
                if let Some(next) = slots.get(job + 1) {
                    next.look_ahead(|| prepare(job + 1));
                }
            }
        }
    };

    let per_worker: Vec<Vec<A>> = thread::scope(|scope| {
        let handles: Vec<_> = (1..workers.clamp(1, total.max(1)))
            .map(|_| scope.spawn(work))
            .collect();
        let mut per_worker = vec![work()];
        per_worker.extend(handles.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        per_worker
    });
    let mut totals: Vec<A> = jobs.iter().map(|_| A::default()).collect();
    for accums in per_worker {
        for (total, accum) in totals.iter_mut().zip(accums) {
            merge(total, accum);
        }
    }
    totals
}

/// One job's prepared state through its life in [`fold_jobs`].
enum Stage<P> {
    /// Nobody has prepared it yet.
    Waiting,
    /// Prepared, with chunks still to finish.
    Live(Arc<P>),
    /// Its last chunk finished, and the state was dropped.
    Released,
}

/// One job's preparation, shared by the workers. Whoever prepares a job
/// holds its lock meanwhile, so a chunk of that job waits for it, and a
/// look-ahead that finds the lock taken knows the job is being prepared
/// or is past needing it.
struct Slot<P> {
    inner: Mutex<SlotState<P>>,
}

struct SlotState<P> {
    stage: Stage<P>,
    /// Chunks of the job not finished yet.
    chunks_left: usize,
}

impl<P> Slot<P> {
    fn new(chunks: usize) -> Self {
        Self {
            inner: Mutex::new(SlotState {
                stage: Stage::Waiting,
                chunks_left: chunks,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState<P>> {
        self.inner
            .lock()
            .expect("a worker panicked while preparing this job")
    }

    /// The prepared state for one of the job's chunks, prepared first if
    /// nobody has.
    fn acquire(&self, prepare: impl FnOnce() -> P) -> Arc<P> {
        let mut slot = self.lock();
        match &slot.stage {
            Stage::Live(prepared) => Arc::clone(prepared),
            Stage::Waiting => {
                let prepared = Arc::new(prepare());
                slot.stage = Stage::Live(Arc::clone(&prepared));
                prepared
            }
            Stage::Released => unreachable!("a chunk ran after its job's last chunk finished"),
        }
    }

    /// Prepares the job ahead of its chunks if nobody has yet. A late
    /// look-ahead, which arrives after the job's last chunk finished,
    /// does nothing.
    fn look_ahead(&self, prepare: impl FnOnce() -> P) {
        if let Ok(mut slot) = self.inner.try_lock() {
            if matches!(slot.stage, Stage::Waiting) {
                slot.stage = Stage::Live(Arc::new(prepare()));
            }
        }
    }

    /// Records a finished chunk; the job's last one drops its state (no
    /// worker holds a clone by then: each drops its own first).
    fn finish_chunk(&self) {
        let mut slot = self.lock();
        slot.chunks_left -= 1;
        if slot.chunks_left == 0 {
            slot.stage = Stage::Released;
        }
    }
}

/// A collecting fold's results: runs of consecutive samples, each with
/// its first global index. A worker's chunk extends its last run or
/// starts a new one; sorting the runs by start restores sample order.
struct Runs<T>(Vec<(usize, Vec<T>)>);

impl<T> Default for Runs<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T> Runs<T> {
    fn push(&mut self, index: usize, value: T) {
        match self.0.last_mut() {
            Some((start, run)) if *start + run.len() == index => run.push(value),
            _ => {
                let mut run = Vec::with_capacity(CHUNK);
                run.push(value);
                self.0.push((index, run));
            }
        }
    }

    fn append(&mut self, other: Self) {
        self.0.extend(other.0);
    }

    fn into_sample_order(mut self) -> Vec<T> {
        self.0.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(self.0.iter().map(|(_, run)| run.len()).sum());
        for (_, run) in self.0 {
            out.extend(run);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::mpsc;
    use std::time::Duration;

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
            |acc: &mut u64, (), _, seed| *acc = acc.wrapping_add(seed),
            |acc, piece| *acc = acc.wrapping_add(piece),
        );
        assert_eq!(folded, collected);
    }

    /// An accumulator whose empty value is not zero.
    #[derive(Debug, PartialEq)]
    struct Sentinel(u64);

    impl Default for Sentinel {
        fn default() -> Self {
            Self(42)
        }
    }

    #[test]
    fn fold_over_an_empty_range_returns_the_empty_accumulator() {
        let folded = monte_carlo_range_fold(
            5..5,
            1,
            || (),
            |_: &mut Sentinel, (), _, _| unreachable!("no samples"),
            |_, _| {},
        );
        assert_eq!(folded, Sentinel(42));
    }

    /// Folds `weight · seed` into an exact accumulator: a wrapping sum and
    /// a sample count.
    fn weighted(accum: &mut (u64, usize), weight: u64, seed: u64) {
        accum.0 = accum.0.wrapping_add(seed.wrapping_mul(weight));
        accum.1 += 1;
    }

    fn add(accum: &mut (u64, usize), piece: (u64, usize)) {
        accum.0 = accum.0.wrapping_add(piece.0);
        accum.1 += piece.1;
    }

    /// Jobs of every awkward length around a chunk, at offsets that
    /// straddle chunk boundaries.
    fn awkward_jobs() -> Vec<Range<usize>> {
        let mut start = 7;
        [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 1000]
            .into_iter()
            .map(|len| {
                let range = start..start + len;
                start += len + 3;
                range
            })
            .collect()
    }

    #[test]
    fn pooled_jobs_fold_exactly_like_their_one_job_folds() {
        let jobs = awkward_jobs();
        let alone: Vec<(u64, usize)> = (0..jobs.len() as u64)
            .zip(&jobs)
            .map(|(weight, range)| {
                monte_carlo_range_fold(
                    range.clone(),
                    13,
                    || (),
                    |accum, (), _, seed| weighted(accum, weight, seed),
                    add,
                )
            })
            .collect();
        let lens: Vec<usize> = jobs.iter().map(ExactSizeIterator::len).collect();
        assert_eq!(alone.iter().map(|a| a.1).collect::<Vec<_>>(), lens);
        for workers in [1, 2, 3, 8] {
            let pooled = fold_jobs(
                workers,
                &jobs,
                |job| job as u64,
                || (),
                |accum, (), &weight, samples| {
                    for i in samples {
                        weighted(accum, weight, sample_seed(13, i));
                    }
                },
                add,
            );
            assert_eq!(pooled, alone, "{workers} workers");
        }
    }

    #[test]
    fn collecting_folds_return_sample_order_at_any_worker_count() {
        for range in awkward_jobs() {
            let expected: Vec<(usize, u64)> =
                range.clone().map(|i| (i, sample_seed(5, i))).collect();
            for workers in [1, 2, 3, 8] {
                let runs = fold_jobs(
                    workers,
                    std::slice::from_ref(&range),
                    |_| (),
                    || (),
                    |runs: &mut Runs<_>, (), (), samples: Range<usize>| {
                        // A chunk: non-empty, inside its job, at most CHUNK.
                        assert!(!samples.is_empty() && samples.len() <= CHUNK);
                        assert!(range.start <= samples.start && samples.end <= range.end);
                        for i in samples {
                            runs.push(i, (i, sample_seed(5, i)));
                        }
                    },
                    Runs::append,
                );
                let collected: Vec<_> =
                    runs.into_iter().flat_map(Runs::into_sample_order).collect();
                assert_eq!(collected, expected, "{workers} workers, {range:?}");
            }
            assert_eq!(monte_carlo_range(range, 5, |i, seed| (i, seed)), expected);
        }
    }

    #[test]
    fn init_runs_once_per_worker() {
        for workers in [1, 2, 3, 8] {
            let inits = AtomicUsize::new(0);
            let runs = fold_jobs(
                workers,
                &awkward_jobs(),
                |_| (),
                || inits.fetch_add(1, Ordering::Relaxed),
                |runs: &mut Runs<usize>, &mut id, (), samples| {
                    for i in samples {
                        runs.push(i, id);
                    }
                },
                Runs::append,
            );
            // 38 chunks: a state made per chunk or per job would
            // outnumber the workers.
            let inits = inits.into_inner();
            assert!(
                (1..=workers).contains(&inits),
                "{inits} inits, {workers} workers"
            );
            let ids: BTreeSet<usize> = runs.into_iter().flat_map(Runs::into_sample_order).collect();
            assert_eq!(ids.len(), inits, "every state folded samples");
        }
    }

    /// A prepared job that counts its drops and the jobs live, and
    /// reports each drop.
    struct Prepared<'a> {
        job: usize,
        drops: &'a [AtomicUsize],
        live: &'a AtomicUsize,
        released: mpsc::Sender<usize>,
    }

    impl Drop for Prepared<'_> {
        fn drop(&mut self) {
            self.drops[self.job].fetch_add(1, Ordering::SeqCst);
            self.live.fetch_sub(1, Ordering::SeqCst);
            // Nobody listens in most tests.
            let _ = self.released.send(self.job);
        }
    }

    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn loads(counters: &[AtomicUsize]) -> Vec<usize> {
        counters.iter().map(|c| c.load(Ordering::SeqCst)).collect()
    }

    #[test]
    fn each_job_is_prepared_once_and_released_after_its_last_chunk() {
        let jobs: Vec<Range<usize>> = awkward_jobs().into_iter().cycle().take(12).collect();
        let lens: Vec<usize> = jobs.iter().map(ExactSizeIterator::len).collect();
        let (released, _) = mpsc::channel();
        for workers in [1, 2, 3, 8] {
            let prepares = counters(jobs.len());
            let drops = counters(jobs.len());
            let live = AtomicUsize::new(0);
            let counts = fold_jobs(
                workers,
                &jobs,
                |job| {
                    prepares[job].fetch_add(1, Ordering::SeqCst);
                    // Live jobs: at most one per worker inside a chunk,
                    // the job under the cursor and the one looked ahead
                    // to; keeping each job until the end would show 12.
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= workers + 2, "{now} jobs live, {workers} workers");
                    Prepared {
                        job,
                        drops: &drops,
                        live: &live,
                        released: released.clone(),
                    }
                },
                || (),
                |count: &mut usize, (), prepared: &Prepared<'_>, samples| {
                    for _ in samples {
                        assert_eq!(drops[prepared.job].load(Ordering::SeqCst), 0);
                        *count += 1;
                    }
                },
                |count, piece| *count += piece,
            );
            assert_eq!(counts, lens, "{workers} workers");
            assert_eq!(loads(&prepares), vec![1; jobs.len()], "{workers} workers");
            assert_eq!(loads(&drops), vec![1; jobs.len()], "{workers} workers");
        }
    }

    #[test]
    fn a_late_look_ahead_prepares_nothing() {
        // Two workers, three one-sample jobs. Whichever worker claims job
        // 0 stalls in its preparation until job 1 is released, so the
        // other prepares, folds and releases job 1 itself (then looks
        // ahead to job 2 and folds it). The stalled worker's look-ahead
        // to job 1 arrives after job 1's last chunk and must do nothing.
        let prepares = counters(3);
        let drops = counters(3);
        let live = AtomicUsize::new(0);
        let (released, on_release) = mpsc::channel();
        let on_release = Mutex::new(on_release);
        let counts = fold_jobs(
            2,
            &[0..1, 1..2, 2..3],
            |job| {
                if job == 0 {
                    let on_release = on_release.lock().expect("one job 0");
                    while on_release
                        .recv_timeout(Duration::from_secs(60))
                        .expect("the other worker releases job 1")
                        != 1
                    {}
                }
                prepares[job].fetch_add(1, Ordering::SeqCst);
                live.fetch_add(1, Ordering::SeqCst);
                Prepared {
                    job,
                    drops: &drops,
                    live: &live,
                    released: released.clone(),
                }
            },
            || (),
            |count: &mut usize, (), _: &Prepared<'_>, samples| *count += samples.len(),
            |count, piece| *count += piece,
        );
        assert_eq!(counts, [1, 1, 1]);
        assert_eq!(loads(&prepares), [1, 1, 1]);
        assert_eq!(loads(&drops), [1, 1, 1]);
    }
}
