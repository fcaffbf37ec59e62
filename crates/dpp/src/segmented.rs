//! Segmented operations (CUB `DeviceSegmentedReduce` analogue) plus segment
//! bookkeeping helpers.
//!
//! Segments are described CSR-style by an `offsets` array of length
//! `num_segments + 1`: segment `s` covers `offsets[s]..offsets[s + 1]` of the
//! value array. The multi-run heuristic (the paper's Algorithm 1) drops its
//! dead segments with [`remove_empty_segments`] after every round.

use crate::executor::{Executor, Launch};
use crate::scan::exclusive_scan;
use crate::shared::SharedSlice;

/// Per-segment sums of `usize` values.
pub fn segmented_sum(exec: &Executor, values: &[usize], offsets: &[usize]) -> Vec<usize> {
    assert!(!offsets.is_empty(), "offsets must have at least one entry");
    let num_segments = offsets.len() - 1;
    let mut out = vec![0usize; num_segments];
    {
        let out_shared = SharedSlice::new(&mut out);
        exec.run(Launch::new("segmented_sum", num_segments), |s| {
            let sum: usize = values[offsets[s]..offsets[s + 1]].iter().sum();
            // SAFETY: one write per segment index.
            unsafe { out_shared.write(s, sum) };
        });
    }
    out
}

/// Lengths of each segment.
pub fn segment_lengths(exec: &Executor, offsets: &[usize]) -> Vec<usize> {
    assert!(!offsets.is_empty(), "offsets must have at least one entry");
    let num_segments = offsets.len() - 1;
    exec.map(Launch::new("segment_lengths", num_segments), |s| {
        offsets[s + 1] - offsets[s]
    })
}

/// Drops zero-length segments, returning the rebuilt offsets array and, for
/// each surviving segment, its index in the original segmentation.
///
/// This is the "remove empty segments with one more select, update indices
/// via a scan" step of the paper's Algorithm 1.
pub fn remove_empty_segments(exec: &Executor, offsets: &[usize]) -> (Vec<usize>, Vec<usize>) {
    assert!(!offsets.is_empty(), "offsets must have at least one entry");
    let lengths = segment_lengths(exec, offsets);
    let survivors = crate::select::select_indices(exec, &lengths, |_, len| len > 0);
    let launch = Launch::new("surviving_segment_lengths", survivors.len());
    let surviving_lengths: Vec<usize> = exec.map(launch, |i| lengths[survivors[i]]);
    let (mut new_offsets, total) = exclusive_scan(exec, &surviving_lengths);
    new_offsets.push(total);
    (new_offsets, survivors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_per_segment() {
        let exec = Executor::new(2);
        let values = [1usize, 2, 3, 4, 5];
        let offsets = [0usize, 2, 2, 5];
        assert_eq!(segmented_sum(&exec, &values, &offsets), vec![3, 0, 12]);
    }

    #[test]
    fn lengths() {
        let exec = Executor::new(2);
        assert_eq!(segment_lengths(&exec, &[0, 4, 4, 9]), vec![4, 0, 5]);
    }

    #[test]
    fn removing_empty_segments_compacts() {
        let exec = Executor::new(4);
        let offsets = [0usize, 3, 3, 7, 7, 7, 10];
        let (new_offsets, survivors) = remove_empty_segments(&exec, &offsets);
        assert_eq!(new_offsets, vec![0, 3, 7, 10]);
        assert_eq!(survivors, vec![0, 2, 5]);
    }

    #[test]
    fn removing_from_all_empty_leaves_sentinel() {
        let exec = Executor::new(4);
        let offsets = [0usize, 0, 0];
        let (new_offsets, survivors) = remove_empty_segments(&exec, &offsets);
        assert_eq!(new_offsets, vec![0]);
        assert!(survivors.is_empty());
    }
}
