//! Run detection (the run-finding half of CUB `DeviceRunLengthEncode`).
//!
//! The clique list's *sublists* are runs of equal `sublist_id` values, so
//! run detection is how GPU code finds sublist boundaries (the paper's
//! window-snapping kernel is a run-boundary scan with an `atomicMin`).

use crate::executor::Executor;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_small_runs() {
        let exec = Executor::new(2);
        let values = [5u32, 5, 5, 7, 7, 2, 5];
        assert_eq!(run_starts(&exec, &values), vec![0, 3, 5, 6]);
    }

    #[test]
    fn empty_and_singleton() {
        let exec = Executor::new(2);
        assert!(run_starts(&exec, &[]).is_empty());
        assert_eq!(run_starts(&exec, &[9]), vec![0]);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let values: Vec<u32> = (0..80_000).map(|i| (i / 31) as u32 % 5).collect();
        let baseline = run_starts(&Executor::new(1), &values);
        assert_eq!(run_starts(&Executor::new(6), &values), baseline);
    }
}
