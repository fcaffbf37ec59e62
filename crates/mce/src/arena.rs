//! Scratch-buffer arena for the expansion loop.
//!
//! Every BFS level of the seed implementation heap-allocated four fresh
//! vectors (counts, offsets, and the next level's vertex/sublist arrays) and
//! dropped them at the end of the level; windowed runs repeated that churn
//! once per window. The arena keeps all of that scratch alive across levels
//! *and* windows, so after the first level each buffer is a `clear()` +
//! reuse of already-grown capacity.
//!
//! Device-memory accounting: the recycled kernel scratch (counts, offsets,
//! masks, tails) models per-launch transient state — registers and
//! launch-scoped temporaries the paper's kernels hold outside the clique
//! list — and is not charged against [`DeviceMemory`], exactly as the
//! unfused path never charged its per-level count/offset vectors. The spill
//! buffer for long-tail adjacency bitmasks *is* device-resident state, and
//! is charged at its high-water mark: growing it charges only the delta over
//! the largest size seen so far, not a fresh per-level allocation.
//! [`LevelArena::release_charges`] drops all spill charges, which expansion
//! calls both on completion and on OOM so a windowed retry starts clean.

use gmc_dpp::{DeviceMemory, DeviceOom, MemoryGuard};

/// Recycled scratch buffers for the fused (and unfused-accounting) expansion
/// pipeline. See the module docs for the charging policy.
pub(crate) struct LevelArena {
    /// Per-entry adjacent-successor counts (count-kernel output).
    pub counts: Vec<usize>,
    /// Exclusive scan of `counts` (emit-kernel output offsets).
    pub offsets: Vec<usize>,
    /// Per-entry inline adjacency bitmask over the first 64 tail positions.
    pub masks: Vec<u64>,
    /// Per-entry sublist tail length (entries after `i` in `i`'s sublist).
    pub tails: Vec<u32>,
    /// Tail lengths of the level being emitted (swapped into `tails`).
    pub next_tails: Vec<u32>,
    /// Per-entry spill word counts (only filled when a tail exceeds 64).
    pub spill_words: Vec<usize>,
    /// Exclusive scan of `spill_words`: each entry's spill span start.
    pub spill_offsets: Vec<usize>,
    /// Overflow adjacency bitmask words for tails longer than 64.
    pub spill: Vec<u64>,
    /// Freelist of retired `u32` level arrays (vertex/sublist staging).
    staging: Vec<Vec<u32>>,
    /// Charges backing `spill` at its high-water mark.
    spill_guards: Vec<MemoryGuard>,
    spill_charged: usize,
}

impl LevelArena {
    /// An arena with no retained capacity.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            offsets: Vec::new(),
            masks: Vec::new(),
            tails: Vec::new(),
            next_tails: Vec::new(),
            spill_words: Vec::new(),
            spill_offsets: Vec::new(),
            spill: Vec::new(),
            staging: Vec::new(),
            spill_guards: Vec::new(),
            spill_charged: 0,
        }
    }

    /// Hands out a recycled `u32` buffer (empty, capacity retained), or a
    /// fresh one when the freelist is dry.
    pub fn take_staging(&mut self) -> Vec<u32> {
        self.staging.pop().unwrap_or_default()
    }

    /// Returns a level array to the freelist for reuse by later levels and
    /// windows.
    pub fn retire_staging(&mut self, mut buf: Vec<u32>) {
        buf.clear();
        self.staging.push(buf);
    }

    /// Fills `tails[i]` with the number of entries after `i` in `i`'s
    /// sublist run — the walk length both expansion kernels traverse.
    pub fn set_tails_from_sublists(&mut self, sublist_id: &[u32]) {
        let n = sublist_id.len();
        self.tails.clear();
        self.tails.resize(n, 0);
        for i in (0..n.saturating_sub(1)).rev() {
            if sublist_id[i + 1] == sublist_id[i] {
                self.tails[i] = self.tails[i + 1] + 1;
            }
        }
    }

    /// Ensures `bytes` of spill storage are charged against `memory`,
    /// charging only the delta beyond the current high-water mark.
    pub fn charge_spill(&mut self, memory: &DeviceMemory, bytes: usize) -> Result<(), DeviceOom> {
        if bytes > self.spill_charged {
            let guard = memory.try_charge(bytes - self.spill_charged)?;
            self.spill_charged = bytes;
            self.spill_guards.push(guard);
        }
        Ok(())
    }

    /// Releases every spill charge (capacity stays for reuse). Called at the
    /// end of an expansion and on OOM, so retries and later windows charge
    /// from zero.
    pub fn release_charges(&mut self) {
        self.spill_guards.clear();
        self.spill_charged = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_follow_sublist_runs() {
        let mut arena = LevelArena::new();
        arena.set_tails_from_sublists(&[0, 0, 0, 1, 1, 2, 0]);
        assert_eq!(arena.tails, vec![2, 1, 0, 1, 0, 0, 0]);
        arena.set_tails_from_sublists(&[]);
        assert!(arena.tails.is_empty());
    }

    #[test]
    fn staging_recycles_capacity() {
        let mut arena = LevelArena::new();
        let mut a = arena.take_staging();
        a.extend_from_slice(&[1, 2, 3, 4]);
        let cap = a.capacity();
        arena.retire_staging(a);
        let b = arena.take_staging();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
    }

    #[test]
    fn spill_charging_is_high_water_and_releasable() {
        let memory = DeviceMemory::new(1024);
        let mut arena = LevelArena::new();
        arena.charge_spill(&memory, 256).unwrap();
        assert_eq!(memory.live(), 256);
        // Growing charges only the delta; shrinking charges nothing.
        arena.charge_spill(&memory, 512).unwrap();
        assert_eq!(memory.live(), 512);
        arena.charge_spill(&memory, 128).unwrap();
        assert_eq!(memory.live(), 512);
        // Over-budget growth fails without disturbing existing charges.
        assert!(arena.charge_spill(&memory, 2048).is_err());
        assert_eq!(memory.live(), 512);
        arena.release_charges();
        assert_eq!(memory.live(), 0);
        // After release, charging starts from zero again.
        arena.charge_spill(&memory, 64).unwrap();
        assert_eq!(memory.live(), 64);
    }
}
