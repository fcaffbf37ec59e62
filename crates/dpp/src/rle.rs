//! Run-length encoding (CUB `DeviceRunLengthEncode` analogue).
//!
//! The clique list's *sublists* are runs of equal `sublist_id` values, so
//! run detection is how GPU code finds sublist boundaries (the paper's
//! window-snapping kernel is a run-boundary scan with an `atomicMin`).

use crate::executor::{Executor, Launch};
use crate::fault::LaunchError;
use crate::select::{select_indices, try_select_indices};

/// Start index of every maximal run of equal adjacent values, in order.
/// Empty input yields no runs.
pub fn run_starts(exec: &Executor, values: &[u32]) -> Vec<usize> {
    select_indices(exec, values, |i, v| i == 0 || values[i - 1] != v)
}

/// Fallible [`run_starts`]: returns [`LaunchError`] — with no work
/// performed — when the executor's armed fault injector fires.
pub fn try_run_starts(exec: &Executor, values: &[u32]) -> Result<Vec<usize>, LaunchError> {
    try_select_indices(exec, values, |i, v| i == 0 || values[i - 1] != v)
}

/// Run-length encodes `values`: returns `(unique_values, run_lengths)` in
/// order of appearance.
pub fn run_length_encode(exec: &Executor, values: &[u32]) -> (Vec<u32>, Vec<usize>) {
    let starts = run_starts(exec, values);
    let uniques: Vec<u32> = exec.map(Launch::new("rle_uniques", starts.len()), |r| {
        values[starts[r]]
    });
    let lengths: Vec<usize> = exec.map(Launch::new("rle_lengths", starts.len()), |r| {
        let end = starts.get(r + 1).copied().unwrap_or(values.len());
        end - starts[r]
    });
    (uniques, lengths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_small_runs() {
        let exec = Executor::new(2);
        let values = [5u32, 5, 5, 7, 7, 2, 5];
        assert_eq!(run_starts(&exec, &values), vec![0, 3, 5, 6]);
        let (uniques, lengths) = run_length_encode(&exec, &values);
        assert_eq!(uniques, vec![5, 7, 2, 5]);
        assert_eq!(lengths, vec![3, 2, 1, 1]);
    }

    #[test]
    fn empty_and_singleton() {
        let exec = Executor::new(2);
        assert!(run_starts(&exec, &[]).is_empty());
        let (u, l) = run_length_encode(&exec, &[9]);
        assert_eq!(u, vec![9]);
        assert_eq!(l, vec![1]);
    }

    #[test]
    fn constant_input_is_one_run() {
        let exec = Executor::new(4);
        let values = vec![3u32; 100_000];
        let (u, l) = run_length_encode(&exec, &values);
        assert_eq!(u, vec![3]);
        assert_eq!(l, vec![100_000]);
    }

    #[test]
    fn lengths_sum_to_input_length() {
        let exec = Executor::new(4);
        let values: Vec<u32> = (0..50_000).map(|i| (i / 7) as u32 % 13).collect();
        let (uniques, lengths) = run_length_encode(&exec, &values);
        assert_eq!(lengths.iter().sum::<usize>(), values.len());
        // Adjacent uniques differ (maximal runs).
        assert!(uniques.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let values: Vec<u32> = (0..80_000).map(|i| (i / 31) as u32 % 5).collect();
        let baseline = run_length_encode(&Executor::new(1), &values);
        assert_eq!(run_length_encode(&Executor::new(6), &values), baseline);
    }
}
