//! Segment bookkeeping.
//!
//! Segments are described CSR-style by an `offsets` array of length
//! `num_segments + 1`: segment `s` covers `offsets[s]..offsets[s + 1]` of the
//! value array. The multi-run heuristic (the paper's Algorithm 1) drops its
//! dead segments with [`remove_empty_segments`] after every round that
//! leaves a survivor; it takes the per-segment lengths the round's kernel
//! counted and builds the offsets.

use crate::executor::{Executor, Launch};
use crate::scan::exclusive_scan;

/// Drops zero-length segments. Takes each segment's length and returns the
/// offsets of the surviving segments (CSR-style, ending with the total),
/// each survivor's index in the input, and that total — the surviving
/// values.
///
/// This is the "remove empty segments with one more select, update indices
/// via a scan" step of the paper's Algorithm 1.
pub fn remove_empty_segments(
    exec: &Executor,
    lengths: &[usize],
) -> (Vec<usize>, Vec<usize>, usize) {
    let survivors = crate::select::select_indices(exec, lengths, |_, len| len > 0);
    let launch = Launch::new("surviving_segment_lengths", survivors.len());
    let surviving_lengths: Vec<usize> = exec.map(launch, |i| lengths[survivors[i]]);
    let (mut new_offsets, total) = exclusive_scan(exec, &surviving_lengths);
    new_offsets.push(total);
    (new_offsets, survivors, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removing_empty_segments_compacts() {
        let exec = Executor::new(4);
        let lengths = [3usize, 0, 4, 0, 0, 3];
        let (new_offsets, survivors, total) = remove_empty_segments(&exec, &lengths);
        assert_eq!(new_offsets, vec![0, 3, 7, 10]);
        assert_eq!(survivors, vec![0, 2, 5]);
        assert_eq!(total, 10);
    }

    #[test]
    fn removing_from_all_empty_leaves_sentinel() {
        let exec = Executor::new(4);
        for lengths in [&[0usize, 0][..], &[]] {
            let (new_offsets, survivors, total) = remove_empty_segments(&exec, lengths);
            assert_eq!(new_offsets, vec![0]);
            assert!(survivors.is_empty());
            assert_eq!(total, 0);
        }
    }
}
