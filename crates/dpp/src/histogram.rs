//! Parallel histogram (CUB `DeviceHistogram` analogue).

use crate::executor::Executor;
use crate::shared::SharedSlice;

/// Counts occurrences of each value in `data` into `num_bins` bins; values
/// `>= num_bins` are ignored. Used for degree-distribution statistics in the
/// corpus and experiment reports.
pub fn histogram_u32(exec: &Executor, data: &[u32], num_bins: usize) -> Vec<u64> {
    let n = data.len();
    let chunks = exec.num_chunks(n);
    let mut partial = vec![0u64; chunks * num_bins];
    if num_bins == 0 {
        return Vec::new();
    }
    {
        let partial_shared = SharedSlice::new(&mut partial);
        exec.run_chunks("histogram_partials", n, |chunk_id, range| {
            let mut local = vec![0u64; num_bins];
            for &v in &data[range] {
                if (v as usize) < num_bins {
                    local[v as usize] += 1;
                }
            }
            for (b, &c) in local.iter().enumerate() {
                // SAFETY: each chunk writes only its own row.
                unsafe { partial_shared.write(chunk_id * num_bins + b, c) };
            }
        });
    }
    let mut out = vec![0u64; num_bins];
    for c in 0..chunks {
        for b in 0..num_bins {
            out[b] += partial[c * num_bins + b];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_small() {
        let exec = Executor::new(4);
        let data = [0u32, 1, 1, 2, 2, 2, 9];
        let hist = histogram_u32(&exec, &data, 3);
        assert_eq!(hist, vec![1, 2, 3]);
    }

    #[test]
    fn counts_large() {
        let exec = Executor::new(4);
        let data: Vec<u32> = (0..400_000).map(|i| (i % 7) as u32).collect();
        let hist = histogram_u32(&exec, &data, 7);
        assert_eq!(hist.iter().sum::<u64>(), 400_000);
        for (b, &c) in hist.iter().enumerate() {
            let expected = (400_000 + 6 - b as u64) / 7;
            assert_eq!(c, expected);
        }
    }

    #[test]
    fn empty_inputs() {
        let exec = Executor::new(2);
        assert_eq!(histogram_u32(&exec, &[], 4), vec![0, 0, 0, 0]);
        assert!(histogram_u32(&exec, &[1, 2, 3], 0).is_empty());
    }
}
