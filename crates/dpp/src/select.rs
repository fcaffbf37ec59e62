//! Stream compaction (CUB `DeviceSelect` analogue).
//!
//! Selection is stable: surviving elements keep their relative order, which
//! the paper's Algorithm 1 depends on (segments must stay contiguous after
//! filtering).

use crate::executor::Executor;
use crate::fault::LaunchError;
use crate::scan::exclusive_scan;
use crate::shared::{SharedSlice, UninitSlice};

/// Keeps `data[i]` where `flags[i]` is true. Panics if lengths differ.
pub fn select_flagged<T>(exec: &Executor, data: &[T], flags: &[bool]) -> Vec<T>
where
    T: Copy + Send + Sync,
{
    assert_eq!(data.len(), flags.len(), "data/flags length mismatch");
    select_if(exec, data, |i, _| flags[i])
}

/// Keeps `data[i]` where `pred(i, data[i])` is true; stable.
pub fn select_if<T, P>(exec: &Executor, data: &[T], pred: P) -> Vec<T>
where
    T: Copy + Send + Sync,
    P: Fn(usize, T) -> bool + Sync,
{
    let mut out = Vec::new();
    select_if_into(exec, data, pred, &mut out);
    out
}

/// [`select_if`] writing into a caller-owned buffer; returns the number of
/// survivors.
///
/// `out` is cleared and overwritten (capacity reused), and survivors are
/// written exactly once into uninitialised spare capacity — no
/// `vec![T::default(); total]` pre-fill — so tight per-level loops stop
/// paying an allocation plus a redundant initialisation pass.
pub fn select_if_into<T, P>(exec: &Executor, data: &[T], pred: P, out: &mut Vec<T>) -> usize
where
    T: Copy + Send + Sync,
    P: Fn(usize, T) -> bool + Sync,
{
    let n = data.len();
    if n == 0 {
        out.clear();
        return 0;
    }
    let counts = per_chunk_counts(exec, data, &pred);
    let (offsets, total) = exclusive_scan(exec, &counts);
    let dst = UninitSlice::for_vec(out, total);
    exec.run_chunks("select_emit", n, |chunk_id, range| {
        let mut cursor = offsets[chunk_id];
        for i in range {
            if pred(i, data[i]) {
                // SAFETY: each chunk writes its own disjoint output span,
                // each slot exactly once.
                unsafe { dst.write(cursor, data[i]) };
                cursor += 1;
            }
        }
    });
    // SAFETY: the chunk spans tile 0..total, so every slot is initialised.
    unsafe { out.set_len(total) };
    total
}

/// Returns the indices `i` where `pred(i, data[i])` holds, in ascending order.
pub fn select_indices<T, P>(exec: &Executor, data: &[T], pred: P) -> Vec<usize>
where
    T: Copy + Send + Sync,
    P: Fn(usize, T) -> bool + Sync,
{
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    let counts = per_chunk_counts(exec, data, &pred);
    let (offsets, total) = exclusive_scan(exec, &counts);
    let mut out = vec![0usize; total];
    {
        let out_shared = SharedSlice::new(&mut out);
        exec.run_chunks("select_emit_indices", n, |chunk_id, range| {
            let mut cursor = offsets[chunk_id];
            for i in range {
                if pred(i, data[i]) {
                    // SAFETY: each chunk writes its own disjoint output span.
                    unsafe { out_shared.write(cursor, i) };
                    cursor += 1;
                }
            }
        });
    }
    out
}

/// Fallible [`select_indices`]: rolls the executor's armed fault injector
/// once for the select's launches and returns [`LaunchError`] — with no
/// work performed — when it fires.
pub fn try_select_indices<T, P>(
    exec: &Executor,
    data: &[T],
    pred: P,
) -> Result<Vec<usize>, LaunchError>
where
    T: Copy + Send + Sync,
    P: Fn(usize, T) -> bool + Sync,
{
    exec.check_launch_fault("select_count")?;
    Ok(select_indices(exec, data, pred))
}

fn per_chunk_counts<T, P>(exec: &Executor, data: &[T], pred: &P) -> Vec<usize>
where
    T: Copy + Send + Sync,
    P: Fn(usize, T) -> bool + Sync,
{
    let n = data.len();
    let chunks = exec.num_chunks(n);
    let mut counts = vec![0usize; chunks];
    let counts_shared = SharedSlice::new(&mut counts);
    exec.run_chunks("select_count", n, |chunk_id, range| {
        let mut c = 0usize;
        for i in range {
            if pred(i, data[i]) {
                c += 1;
            }
        }
        // SAFETY: one write per chunk id.
        unsafe { counts_shared.write(chunk_id, c) };
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flagged_select_small() {
        let exec = Executor::new(4);
        let data = [10u32, 20, 30, 40, 50];
        let flags = [true, false, true, false, true];
        assert_eq!(select_flagged(&exec, &data, &flags), vec![10, 30, 50]);
    }

    #[test]
    fn select_if_large_is_stable() {
        let exec = Executor::new(5);
        let data: Vec<u32> = (0..300_000).collect();
        let out = select_if(&exec, &data, |_, v| v % 3 == 0);
        let expected: Vec<u32> = (0..300_000).filter(|v| v % 3 == 0).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn select_none_and_all() {
        let exec = Executor::new(4);
        let data: Vec<u32> = (0..100_000).collect();
        assert!(select_if(&exec, &data, |_, _| false).is_empty());
        assert_eq!(select_if(&exec, &data, |_, _| true), data);
    }

    #[test]
    fn select_indices_matches_positions() {
        let exec = Executor::new(3);
        let data: Vec<u32> = (0..50_000).map(|i| i % 10).collect();
        let idx = select_indices(&exec, &data, |_, v| v == 7);
        assert!(idx.iter().all(|&i| data[i] == 7));
        assert_eq!(idx.len(), 5_000);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_input() {
        let exec = Executor::new(4);
        let empty: [u32; 0] = [];
        assert!(select_if(&exec, &empty, |_, _| true).is_empty());
        assert!(select_indices(&exec, &empty, |_, _| true).is_empty());
    }

    #[test]
    fn select_if_into_reuses_buffer() {
        let exec = Executor::new(5);
        let data: Vec<u32> = (0..300_000).collect();
        let mut out = Vec::new();
        let total = select_if_into(&exec, &data, |_, v| v % 3 == 0, &mut out);
        let expected: Vec<u32> = (0..300_000).filter(|v| v % 3 == 0).collect();
        assert_eq!(total, expected.len());
        assert_eq!(out, expected);
        let cap = out.capacity();
        // A smaller follow-up select reuses the grown buffer.
        let total = select_if_into(&exec, &data[..10], |_, v| v < 4, &mut out);
        assert_eq!(total, 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(out.capacity(), cap);
        // Types without Default work (survivors fully written, never filled).
        #[derive(Clone, Copy, PartialEq, Debug)]
        struct NoDefault(u32);
        let data: Vec<NoDefault> = (0..10_000).map(NoDefault).collect();
        let picked = select_if(&exec, &data, |_, v| v.0 % 5000 == 0);
        assert_eq!(picked, vec![NoDefault(0), NoDefault(5000)]);
    }
}
