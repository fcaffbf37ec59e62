//! Prefix-scan and reduction primitives (CUB `DeviceScan` / `DeviceReduce`
//! analogues).
//!
//! Two scan strategies coexist:
//!
//! * **Two-phase chunked** ([`exclusive_scan_by`], [`exclusive_scan_by_into`]):
//!   each worker produces a partial aggregate for its contiguous chunk, the
//!   chunk aggregates are scanned sequentially, and a second pass writes the
//!   final prefixes. Two launches, two full passes over the input.
//! * **Single-pass decoupled look-back** ([`exclusive_scan_into`]): the CUB
//!   `DecoupledLookback` analogue. One launch; each chunk publishes its
//!   aggregate to a lock-free status array, then resolves its exclusive
//!   prefix by walking back over predecessors' published aggregates, so the
//!   input is read exactly once.
//!
//! Both are deterministic: chunk boundaries depend only on the input length
//! and the executor's chunk policy, and per-chunk combination happens in
//! chunk order, so output is identical for any worker count.

use crate::executor::Executor;
use crate::fault::LaunchError;
use crate::shared::{SharedSlice, UninitSlice};
use std::sync::atomic::{AtomicU64, Ordering};

/// Generic exclusive scan with a caller-supplied associative operator.
///
/// Returns the scanned vector and the total aggregate (the value that would
/// occupy index `n` — CUB's "carry-out"). The paper's Algorithm 2 relies on
/// exactly this shape: `offsets = scan(counts)` plus the total to size the
/// next clique-list level.
pub fn exclusive_scan_by<T, Op>(exec: &Executor, input: &[T], identity: T, op: Op) -> (Vec<T>, T)
where
    T: Copy + Send + Sync,
    Op: Fn(T, T) -> T + Sync,
{
    let mut out = Vec::new();
    let total = exclusive_scan_by_into(exec, input, identity, op, &mut out);
    (out, total)
}

/// [`exclusive_scan_by`] writing into a caller-owned buffer.
///
/// `out` is cleared and overwritten (its capacity is reused), so repeated
/// scans — one per BFS level — stop allocating once the buffer has grown to
/// the high-water length. The output is written exactly once per element
/// into uninitialised spare capacity, fixing the double initialisation the
/// allocating variant used to pay (`vec![identity; n]` fully written, then
/// fully overwritten by phase 2). Returns the total aggregate.
pub fn exclusive_scan_by_into<T, Op>(
    exec: &Executor,
    input: &[T],
    identity: T,
    op: Op,
    out: &mut Vec<T>,
) -> T
where
    T: Copy + Send + Sync,
    Op: Fn(T, T) -> T + Sync,
{
    let n = input.len();
    if n == 0 {
        out.clear();
        return identity;
    }
    let chunks = exec.num_chunks(n);
    let dst = UninitSlice::for_vec(out, n);
    if chunks == 1 {
        let mut acc = identity;
        for (i, &v) in input.iter().enumerate() {
            // SAFETY: sequential pass writes each index exactly once.
            unsafe { dst.write(i, acc) };
            acc = op(acc, v);
        }
        // SAFETY: all n indices initialised above.
        unsafe { out.set_len(n) };
        return acc;
    }

    // Phase 1: per-chunk aggregates.
    let mut partials = vec![identity; chunks];
    {
        let partials_shared = SharedSlice::new(&mut partials);
        exec.run_chunks("scan_partials", n, |chunk_id, range| {
            let mut acc = identity;
            for &v in &input[range] {
                acc = op(acc, v);
            }
            // SAFETY: one write per chunk id.
            unsafe { partials_shared.write(chunk_id, acc) };
        });
    }

    // Sequential scan of the (small) aggregate array.
    let mut carry = identity;
    let mut chunk_offsets = Vec::with_capacity(chunks);
    for &p in &partials {
        chunk_offsets.push(carry);
        carry = op(carry, p);
    }

    // Phase 2: write final prefixes straight into the spare capacity.
    exec.run_chunks("scan_write_prefixes", n, |chunk_id, range| {
        let mut acc = chunk_offsets[chunk_id];
        for i in range {
            // SAFETY: chunks are disjoint index ranges; each index is
            // written exactly once across the launch.
            unsafe { dst.write(i, acc) };
            acc = op(acc, input[i]);
        }
    });
    // SAFETY: the chunks cover 0..n, so every index is initialised.
    unsafe { out.set_len(n) };
    carry
}

/// Exclusive prefix sum over `usize` values; returns `(prefixes, total)`.
pub fn exclusive_scan(exec: &Executor, input: &[usize]) -> (Vec<usize>, usize) {
    exclusive_scan_by(exec, input, 0usize, |a, b| a + b)
}

/// Fallible [`exclusive_scan`]: rolls the executor's armed fault injector
/// once for the scan's launches and returns [`LaunchError`] — with no work
/// performed — when it fires. Fault-free behaviour is identical to
/// [`exclusive_scan`], and with no injector armed the extra cost is one
/// relaxed load.
pub fn try_exclusive_scan(
    exec: &Executor,
    input: &[usize],
) -> Result<(Vec<usize>, usize), LaunchError> {
    exec.check_launch_fault("scan_partials")?;
    Ok(exclusive_scan(exec, input))
}

/// Status-flag encoding for the decoupled look-back scan: the top two bits
/// of each `AtomicU64` cell carry the publication state, the low 62 bits the
/// published value. `EMPTY` (0b00) = nothing published yet; `AGG` = the
/// chunk's local aggregate; `PREFIX` = the inclusive prefix through the
/// chunk (look-back can stop here).
const FLAG_AGG: u64 = 1 << 62;
const FLAG_PREFIX: u64 = 2 << 62;
const VALUE_MASK: u64 = FLAG_AGG - 1;

/// Single-pass exclusive prefix sum (decoupled look-back) into a
/// caller-owned buffer; returns the total.
///
/// The CUB `DecoupledLookback` analogue: one launch instead of two, one read
/// of the input instead of two. Each chunk scans locally into the output and
/// publishes its aggregate to a lock-free status array; every chunk but the
/// first then resolves its exclusive prefix by walking back over
/// predecessors' published entries (spinning on not-yet-published ones),
/// publishes the inclusive prefix for its successors, and adds the resolved
/// prefix to its own output range. Safe on this executor because
/// [`Executor::run_chunks`] runs all active chunks concurrently, so a
/// spinning chunk never waits on work that has not been scheduled.
///
/// `out` is cleared and overwritten, reusing its capacity. Values are
/// limited to 62-bit sums (debug-asserted), far beyond any clique-list size.
pub fn exclusive_scan_into(exec: &Executor, input: &[usize], out: &mut Vec<usize>) -> usize {
    let n = input.len();
    if n == 0 {
        out.clear();
        return 0;
    }
    let chunks = exec.num_chunks(n);
    let dst = UninitSlice::for_vec(out, n);
    if chunks == 1 {
        let mut acc = 0usize;
        for (i, &v) in input.iter().enumerate() {
            // SAFETY: sequential pass writes each index exactly once.
            unsafe { dst.write(i, acc) };
            acc += v;
        }
        // SAFETY: all n indices initialised above.
        unsafe { out.set_len(n) };
        return acc;
    }

    let chunk = n.div_ceil(chunks);
    // Only chunks whose start lies inside the input actually run; they form
    // a prefix of the chunk ids, so look-back never waits on a skipped one.
    let active = n.div_ceil(chunk);
    let status: Vec<AtomicU64> = (0..active).map(|_| AtomicU64::new(0)).collect();
    // When tracing, tally every status-array inspection (including spins on
    // not-yet-published predecessors) so the launch's enclosing span carries
    // the decoupled look-back cost; untraced runs skip the tally entirely.
    let tracer = exec.tracer();
    let mut scan_span = tracer
        .is_enabled()
        .then(|| tracer.span_with("exclusive_scan_single_pass", &[("n", n as i64)]));
    let count_steps = scan_span.is_some();
    let lookback_steps = AtomicU64::new(0);
    exec.run_chunks("scan_lookback", n, |chunk_id, range| {
        // Local exclusive scan into the output; `acc` ends as the aggregate.
        let mut acc = 0usize;
        for i in range.clone() {
            // SAFETY: chunks are disjoint; each index written exactly once.
            unsafe { dst.write(i, acc) };
            acc += input[i];
        }
        debug_assert!(acc as u64 <= VALUE_MASK, "scan total overflows 62 bits");
        if chunk_id == 0 {
            // The first chunk's aggregate *is* its inclusive prefix.
            status[0].store(FLAG_PREFIX | acc as u64, Ordering::Release);
            return;
        }
        status[chunk_id].store(FLAG_AGG | acc as u64, Ordering::Release);
        // Look-back: accumulate predecessors' aggregates until a published
        // inclusive prefix terminates the walk.
        let mut exclusive = 0usize;
        let mut back = chunk_id - 1;
        loop {
            if count_steps {
                lookback_steps.fetch_add(1, Ordering::Relaxed);
            }
            let s = status[back].load(Ordering::Acquire);
            let flag = s & !VALUE_MASK;
            if flag == FLAG_PREFIX {
                exclusive += (s & VALUE_MASK) as usize;
                break;
            }
            if flag == FLAG_AGG {
                exclusive += (s & VALUE_MASK) as usize;
                back -= 1;
                continue;
            }
            std::hint::spin_loop();
        }
        // Publish the inclusive prefix so successors can stop here.
        status[chunk_id].store(FLAG_PREFIX | (exclusive + acc) as u64, Ordering::Release);
        if exclusive != 0 {
            for i in range {
                // SAFETY: re-reading/rewriting slots this same virtual
                // thread initialised above.
                let local = unsafe { dst.read(i) };
                unsafe { dst.write(i, local + exclusive) };
            }
        }
    });
    // SAFETY: the chunks cover 0..n, so every index is initialised.
    unsafe { out.set_len(n) };
    if let Some(span) = scan_span.as_mut() {
        span.arg(
            "lookback_steps",
            lookback_steps.load(Ordering::Relaxed) as i64,
        );
    }
    // The last active chunk's inclusive prefix is the grand total.
    (status[active - 1].load(Ordering::Acquire) & VALUE_MASK) as usize
}

/// Fallible [`exclusive_scan_into`]: rolls the executor's armed fault
/// injector once for the scan's launch and returns [`LaunchError`] — with
/// `out` cleared and the input untouched — when it fires, so a recovering
/// caller can simply retry.
pub fn try_exclusive_scan_into(
    exec: &Executor,
    input: &[usize],
    out: &mut Vec<usize>,
) -> Result<usize, LaunchError> {
    if let Err(err) = exec.check_launch_fault("scan_lookback") {
        out.clear();
        return Err(err);
    }
    Ok(exclusive_scan_into(exec, input, out))
}

/// Generic deterministic reduction with an associative operator.
pub fn reduce_by<T, Op>(exec: &Executor, input: &[T], identity: T, op: Op) -> T
where
    T: Copy + Send + Sync,
    Op: Fn(T, T) -> T + Sync,
{
    let n = input.len();
    let chunks = exec.num_chunks(n);
    if chunks <= 1 {
        return input.iter().fold(identity, |acc, &v| op(acc, v));
    }
    let mut partials = vec![identity; chunks];
    {
        let partials_shared = SharedSlice::new(&mut partials);
        exec.run_chunks("reduce_partials", n, |chunk_id, range| {
            let mut acc = identity;
            for &v in &input[range] {
                acc = op(acc, v);
            }
            // SAFETY: one write per chunk id.
            unsafe { partials_shared.write(chunk_id, acc) };
        });
    }
    partials.into_iter().fold(identity, op)
}

/// Sum reduction over `usize` values.
pub fn reduce(exec: &Executor, input: &[usize]) -> usize {
    reduce_by(exec, input, 0usize, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_exclusive(input: &[usize]) -> (Vec<usize>, usize) {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0;
        for &v in input {
            out.push(acc);
            acc += v;
        }
        (out, acc)
    }

    #[test]
    fn empty_scan() {
        let exec = Executor::new(4);
        let (out, total) = exclusive_scan(&exec, &[]);
        assert!(out.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn small_scan_matches_reference() {
        let exec = Executor::new(4);
        let input = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let (out, total) = exclusive_scan(&exec, &input);
        assert_eq!(out, vec![0, 3, 4, 8, 9, 14, 23, 25]);
        assert_eq!(total, 31);
    }

    #[test]
    fn large_scan_matches_reference() {
        let exec = Executor::new(7);
        let input: Vec<usize> = (0..200_000).map(|i| (i * 2654435761) % 17).collect();
        let (out, total) = exclusive_scan(&exec, &input);
        let (expected, expected_total) = reference_exclusive(&input);
        assert_eq!(out, expected);
        assert_eq!(total, expected_total);
    }

    #[test]
    fn single_pass_scan_matches_reference() {
        let exec = Executor::new(7);
        let input: Vec<usize> = (0..200_000).map(|i| (i * 2654435761) % 17).collect();
        let (expected, expected_total) = reference_exclusive(&input);
        let mut out = Vec::new();
        let total = exclusive_scan_into(&exec, &input, &mut out);
        assert_eq!(out, expected);
        assert_eq!(total, expected_total);
    }

    #[test]
    fn single_pass_scan_deterministic_across_worker_counts() {
        let input: Vec<usize> = (0..100_000).map(|i| i % 7).collect();
        let mut baseline = Vec::new();
        let baseline_total = exclusive_scan_into(&Executor::new(1), &input, &mut baseline);
        for workers in [2, 3, 8] {
            let mut out = Vec::new();
            let total = exclusive_scan_into(&Executor::new(workers), &input, &mut out);
            assert_eq!(out, baseline, "workers {workers}");
            assert_eq!(total, baseline_total, "workers {workers}");
        }
    }

    #[test]
    fn single_pass_scan_is_one_launch() {
        let exec = Executor::new(4);
        let input: Vec<usize> = (0..50_000).map(|i| i % 5).collect();
        let before = exec.stats();
        let mut out = Vec::new();
        exclusive_scan_into(&exec, &input, &mut out);
        let delta = exec.stats().since(&before);
        assert_eq!(delta.launches, 1);
        assert_eq!(delta.kernel("scan_lookback").launches, 1);
        let before = exec.stats();
        let _ = exclusive_scan(&exec, &input);
        assert_eq!(exec.stats().since(&before).launches, 2);
    }

    #[test]
    fn traced_single_pass_scan_reports_lookback_steps() {
        let session = gmc_trace::TraceSession::new();
        let exec = Executor::new(4);
        exec.set_tracer(session.tracer());
        let input: Vec<usize> = (0..50_000).map(|i| i % 5).collect();
        let mut out = Vec::new();
        let total = exclusive_scan_into(&exec, &input, &mut out);
        assert_eq!(total, input.iter().sum::<usize>());
        let timeline = session.finish();
        let scan = timeline
            .spans
            .iter()
            .find(|s| s.name == "exclusive_scan_single_pass")
            .expect("enclosing scan span");
        let steps = scan
            .args
            .iter()
            .find(|(k, _)| *k == "lookback_steps")
            .expect("look-back step tally")
            .1;
        // With 4 chunks, chunks 1..=3 inspect at least one predecessor each.
        assert!(steps >= 3, "expected ≥ 3 look-back steps, got {steps}");
        let launch = timeline
            .spans
            .iter()
            .find(|s| s.name == "scan_lookback")
            .expect("launch span");
        assert_eq!(launch.parent, Some(0), "launch nests under the scan span");
    }

    #[test]
    fn into_variants_reuse_capacity_and_handle_empty() {
        let exec = Executor::new(4);
        let mut out = Vec::new();
        exclusive_scan_into(&exec, &(0..50_000usize).collect::<Vec<_>>(), &mut out);
        let cap = out.capacity();
        assert!(cap >= 50_000);
        // A smaller follow-up scan reuses the grown buffer.
        let total = exclusive_scan_into(&exec, &[5usize, 7], &mut out);
        assert_eq!(out, vec![0, 5]);
        assert_eq!(total, 12);
        assert_eq!(out.capacity(), cap);
        // Empty input clears the buffer without shrinking it.
        let total = exclusive_scan_into(&exec, &[], &mut out);
        assert!(out.is_empty());
        assert_eq!(total, 0);
        assert_eq!(out.capacity(), cap);

        let mut generic = Vec::new();
        let total =
            exclusive_scan_by_into(&exec, &[2u32, 9, 1], 0u32, |a, b| a.max(b), &mut generic);
        assert_eq!(generic, vec![0, 2, 9]);
        assert_eq!(total, 9);
    }

    #[test]
    fn scan_deterministic_across_worker_counts() {
        let input: Vec<usize> = (0..100_000).map(|i| i % 7).collect();
        let baseline = exclusive_scan(&Executor::new(1), &input);
        for workers in [2, 3, 8] {
            assert_eq!(exclusive_scan(&Executor::new(workers), &input), baseline);
        }
    }

    #[test]
    fn reduce_sums() {
        let exec = Executor::new(4);
        let input: Vec<usize> = (1..=100_000).collect();
        assert_eq!(reduce(&exec, &input), 100_000 * 100_001 / 2);
    }

    #[test]
    fn reduce_by_max() {
        let exec = Executor::new(4);
        let input: Vec<u32> = (0..150_000).map(|i| (i * 37) % 99_991).collect();
        let max = reduce_by(&exec, &input, 0u32, |a, b| a.max(b));
        assert_eq!(max, *input.iter().max().unwrap());
    }

    #[test]
    fn generic_scan_with_max_operator() {
        let exec = Executor::new(4);
        let input = [2u32, 9, 1, 7, 3];
        let (out, total) = exclusive_scan_by(&exec, &input, 0u32, |a, b| a.max(b));
        assert_eq!(out, vec![0, 2, 9, 9, 9]);
        assert_eq!(total, 9);
    }
}
