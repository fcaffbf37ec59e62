//! Parallel LSD radix sort (CUB `DeviceRadixSort` analogue).
//!
//! Keys are `u32`, processed in four 8-bit digit passes. Each pass builds
//! per-chunk digit histograms in parallel, computes stable scatter offsets
//! from a sequential scan over the (chunks × 256) histogram matrix, and
//! scatters in parallel. Passes whose digit is constant across all keys are
//! skipped — degree-like keys rarely need more than two passes. The first
//! histogram pass also finds which digits vary (the bits in which any key
//! differs from the first), so a constant digit later on costs no pass.
//!
//! The sort is stable, which the clique-list setup relies on when ordering
//! candidates by (degree, index).

use crate::executor::Executor;
use crate::shared::SharedSlice;

const RADIX_BITS: u32 = 8;
const BINS: usize = 1 << RADIX_BITS;

/// Sorts `keys` ascending, returning a new vector.
pub fn sort_u32(exec: &Executor, keys: &[u32]) -> Vec<u32> {
    let (sorted, _) = radix_sort(exec, keys, None);
    sorted
}

/// Stable key-value sort: returns `(sorted_keys, permuted_values)`.
pub fn sort_pairs_u32(exec: &Executor, keys: &[u32], values: &[u32]) -> (Vec<u32>, Vec<u32>) {
    assert_eq!(keys.len(), values.len(), "keys/values length mismatch");
    let (sorted, payload) = radix_sort(exec, keys, Some(values));
    (sorted, payload.expect("payload requested"))
}

fn radix_sort(
    exec: &Executor,
    keys: &[u32],
    values: Option<&[u32]>,
) -> (Vec<u32>, Option<Vec<u32>>) {
    let n = keys.len();
    let mut src_keys: Vec<u32> = keys.to_vec();
    let mut dst_keys: Vec<u32> = vec![0; n];
    let mut src_vals: Vec<u32> = values.map(|v| v.to_vec()).unwrap_or_default();
    let mut dst_vals: Vec<u32> = vec![0; src_vals.len()];
    if n <= 1 {
        return (src_keys, values.map(|_| src_vals));
    }
    let has_values = values.is_some();
    let digit = BINS as u32 - 1;
    // The bits in which some key differs from the first. Until the first
    // histogram pass has seen every key, any bit may.
    let first = keys[0];
    let mut varying = u32::MAX;

    for pass in 0..(32 / RADIX_BITS) {
        let shift = pass * RADIX_BITS;
        // Skip passes whose digit is constant.
        if (varying >> shift) & digit == 0 {
            continue;
        }
        let chunks = exec.num_chunks(n);

        // Per-chunk digit histograms, and the bits that vary.
        let mut hist = vec![0usize; chunks * BINS];
        let mut differs = vec![0u32; chunks];
        {
            let hist_shared = SharedSlice::new(&mut hist);
            let differs_shared = SharedSlice::new(&mut differs);
            let src = &src_keys;
            exec.run_chunks("sort_digit_histogram", n, |chunk_id, range| {
                let mut local = [0usize; BINS];
                let mut differ = 0;
                for &k in &src[range] {
                    local[((k >> shift) & digit) as usize] += 1;
                    differ |= k ^ first;
                }
                for (d, &c) in local.iter().enumerate() {
                    // SAFETY: each chunk writes only its own histogram row.
                    unsafe { hist_shared.write(chunk_id * BINS + d, c) };
                }
                // SAFETY: one write per chunk id.
                unsafe { differs_shared.write(chunk_id, differ) };
            });
        }
        varying = differs.iter().fold(0, |all, &differ| all | differ);
        if (varying >> shift) & digit == 0 {
            continue;
        }

        // Stable scatter offsets: digit-major, then chunk order.
        let mut offsets = vec![0usize; chunks * BINS];
        let mut running = 0usize;
        for d in 0..BINS {
            for c in 0..chunks {
                offsets[c * BINS + d] = running;
                running += hist[c * BINS + d];
            }
        }

        // Parallel scatter.
        {
            let dst_keys_shared = SharedSlice::new(&mut dst_keys);
            let dst_vals_shared = SharedSlice::new(&mut dst_vals);
            let src = &src_keys;
            let src_v = &src_vals;
            exec.run_chunks("sort_scatter", n, |chunk_id, range| {
                let mut cursors: Vec<usize> =
                    offsets[chunk_id * BINS..(chunk_id + 1) * BINS].to_vec();
                for i in range {
                    let k = src[i];
                    let d = ((k >> shift) & digit) as usize;
                    let pos = cursors[d];
                    cursors[d] += 1;
                    // SAFETY: offsets partition the output across
                    // (chunk, digit) pairs, so positions are disjoint.
                    unsafe { dst_keys_shared.write(pos, k) };
                    if has_values {
                        unsafe { dst_vals_shared.write(pos, src_v[i]) };
                    }
                }
            });
        }
        std::mem::swap(&mut src_keys, &mut dst_keys);
        if has_values {
            std::mem::swap(&mut src_vals, &mut dst_vals);
        }
    }
    (src_keys, values.map(|_| src_vals))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u32) -> Vec<u32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                state
            })
            .collect()
    }

    #[test]
    fn sorts_small() {
        let exec = Executor::new(4);
        assert_eq!(sort_u32(&exec, &[5, 3, 9, 1]), vec![1, 3, 5, 9]);
        assert_eq!(sort_u32(&exec, &[]), Vec::<u32>::new());
        assert_eq!(sort_u32(&exec, &[42]), vec![42]);
    }

    #[test]
    fn sorts_large_random() {
        let exec = Executor::new(5);
        let data = pseudo_random(250_000, 7);
        let mut expected = data.clone();
        expected.sort_unstable();
        assert_eq!(sort_u32(&exec, &data), expected);
    }

    #[test]
    fn pair_sort_is_stable() {
        let exec = Executor::new(4);
        // Many duplicate keys: stability means payload order within a key
        // group matches input order.
        let keys: Vec<u32> = (0..100_000u32).map(|i| i % 16).collect();
        let values: Vec<u32> = (0..100_000u32).collect();
        let (sorted_keys, sorted_values) = sort_pairs_u32(&exec, &keys, &values);
        assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]));
        for w in sorted_values.windows(2) {
            let (a, b) = (w[0], w[1]);
            if keys[a as usize] == keys[b as usize] {
                assert!(a < b, "stability violated: {a} after {b}");
            }
        }
        // Key-value association preserved.
        for (k, v) in sorted_keys.iter().zip(&sorted_values) {
            assert_eq!(*k, keys[*v as usize]);
        }
    }

    #[test]
    fn already_sorted_and_constant_inputs() {
        let exec = Executor::new(4);
        let sorted: Vec<u32> = (0..50_000).collect();
        assert_eq!(sort_u32(&exec, &sorted), sorted);
        let constant = vec![7u32; 50_000];
        assert_eq!(sort_u32(&exec, &constant), constant);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let data = pseudo_random(80_000, 3);
        let values: Vec<u32> = (0..80_000).collect();
        let baseline = sort_pairs_u32(&Executor::new(1), &data, &values);
        for workers in [2, 6] {
            assert_eq!(
                sort_pairs_u32(&Executor::new(workers), &data, &values),
                baseline
            );
        }
    }

    #[test]
    fn full_range_keys() {
        let exec = Executor::new(4);
        let data = [u32::MAX, 0, u32::MAX / 2, 1, u32::MAX - 1];
        assert_eq!(
            sort_u32(&exec, &data),
            vec![0, 1, u32::MAX / 2, u32::MAX - 1, u32::MAX]
        );
    }
}
