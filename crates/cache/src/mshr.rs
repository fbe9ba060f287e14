//! Miss-status holding registers.
//!
//! The MSHR file bounds outstanding misses (the memory-level parallelism
//! the cube sees) and merges secondary misses to a block already in
//! flight, so one memory request serves every waiter.

use camps_types::addr::PhysAddr;
use serde::{de, Deserialize, Serialize};
use std::collections::HashMap;

/// Result of trying to allocate an MSHR for a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAlloc {
    /// First miss to this block — send a memory request.
    Primary,
    /// The block is already in flight; this waiter was merged.
    Merged,
    /// No MSHR free — the requester must stall and retry.
    Full,
}

/// The MSHR file. Waiters are opaque `u64` tokens chosen by the caller
/// (the system simulator uses ROB slot identifiers).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(check)]
pub struct MshrFile {
    entries: HashMap<u64, Vec<u64>>,
    #[serde(skip)]
    capacity: usize,
    #[serde(skip)]
    line_mask: u64,
    peak: usize,
    merges: u64,
    stalls: u64,
}

impl MshrFile {
    /// An MSHR file with `capacity` entries for `line_bytes` blocks.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or `line_bytes` is not a power of two.
    #[must_use]
    pub fn new(capacity: u32, line_bytes: u32) -> Self {
        assert!(capacity > 0, "need at least one MSHR");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            entries: HashMap::with_capacity(capacity as usize),
            capacity: capacity as usize,
            line_mask: !(u64::from(line_bytes) - 1),
            peak: 0,
            merges: 0,
            stalls: 0,
        }
    }

    fn key(&self, addr: PhysAddr) -> u64 {
        addr.0 & self.line_mask
    }

    /// Number of blocks in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// True when no more primary misses can be accepted.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// True if `addr`'s block is already in flight.
    #[must_use]
    pub fn contains(&self, addr: PhysAddr) -> bool {
        self.entries.contains_key(&self.key(addr))
    }

    /// Tries to register `waiter` for a miss on `addr`.
    pub fn allocate(&mut self, addr: PhysAddr, waiter: u64) -> MshrAlloc {
        let key = self.key(addr);
        if let Some(waiters) = self.entries.get_mut(&key) {
            waiters.push(waiter);
            self.merges += 1;
            return MshrAlloc::Merged;
        }
        if self.entries.len() == self.capacity {
            self.stalls += 1;
            return MshrAlloc::Full;
        }
        self.entries.insert(key, vec![waiter]);
        self.peak = self.peak.max(self.entries.len());
        MshrAlloc::Primary
    }

    /// Completes the block containing `addr`, returning every waiter that
    /// was merged onto it (empty if the block was not in flight).
    pub fn complete(&mut self, addr: PhysAddr) -> Vec<u64> {
        self.entries.remove(&self.key(addr)).unwrap_or_default()
    }

    /// (peak occupancy, merges, full-stalls) so far.
    #[must_use]
    pub fn stats(&self) -> (usize, u64, u64) {
        (self.peak, self.merges, self.stalls)
    }
}

impl camps_types::wake::Wake for MshrFile {
    /// MSHRs hold waiters, not timers: entries complete when the cube
    /// delivers a response (an event the memory subsystem already wakes
    /// on), so the file itself never needs a tick.
    fn next_event(&self, _now: camps_types::clock::Cycle) -> Option<camps_types::clock::Cycle> {
        None
    }
}

impl MshrFile {
    fn check_restored(&mut self) -> Result<(), de::Error> {
        if self.entries.len() > self.capacity {
            return Err(de::Error::custom(format!(
                "snapshot: {} in-flight blocks exceed {} MSHRs",
                self.entries.len(),
                self.capacity
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::snapshot::Snapshot;

    #[test]
    fn primary_then_merge_then_complete() {
        let mut m = MshrFile::new(4, 64);
        assert_eq!(m.allocate(PhysAddr(0x100), 1), MshrAlloc::Primary);
        assert_eq!(m.allocate(PhysAddr(0x120), 2), MshrAlloc::Merged); // same block
        assert_eq!(m.in_flight(), 1);
        let waiters = m.complete(PhysAddr(0x13F));
        assert_eq!(waiters, vec![1, 2]);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn distinct_blocks_use_distinct_entries() {
        let mut m = MshrFile::new(4, 64);
        assert_eq!(m.allocate(PhysAddr(0x000), 1), MshrAlloc::Primary);
        assert_eq!(m.allocate(PhysAddr(0x040), 2), MshrAlloc::Primary);
        assert_eq!(m.in_flight(), 2);
    }

    #[test]
    fn full_file_rejects_primary_but_merges() {
        let mut m = MshrFile::new(2, 64);
        m.allocate(PhysAddr(0x000), 1);
        m.allocate(PhysAddr(0x040), 2);
        assert_eq!(m.allocate(PhysAddr(0x080), 3), MshrAlloc::Full);
        assert_eq!(m.allocate(PhysAddr(0x000), 4), MshrAlloc::Merged);
        assert!(m.is_full());
        let (peak, merges, stalls) = m.stats();
        assert_eq!((peak, merges, stalls), (2, 1, 1));
    }

    #[test]
    fn complete_unknown_block_is_empty() {
        let mut m = MshrFile::new(2, 64);
        assert!(m.complete(PhysAddr(0x500)).is_empty());
    }

    #[test]
    fn contains_respects_block_granularity() {
        let mut m = MshrFile::new(2, 64);
        m.allocate(PhysAddr(0x100), 1);
        assert!(m.contains(PhysAddr(0x13F)));
        assert!(!m.contains(PhysAddr(0x140)));
    }

    #[test]
    fn snapshot_round_trips_in_flight_blocks() {
        let mut a = MshrFile::new(4, 64);
        a.allocate(PhysAddr(0x100), 1);
        a.allocate(PhysAddr(0x120), 2); // merged waiter
        a.allocate(PhysAddr(0x200), 3);
        let state = a.save_state();
        let mut b = MshrFile::new(4, 64);
        b.restore_state(&state).unwrap();
        assert_eq!(b.in_flight(), 2);
        assert_eq!(b.complete(PhysAddr(0x100)), vec![1, 2]);
        assert_eq!(b.complete(PhysAddr(0x200)), vec![3]);
        assert_eq!(a.stats(), (2, 1, 0));
        // A smaller file cannot hold the snapshot's in-flight set.
        let mut tiny = MshrFile::new(1, 64);
        assert!(tiny.restore_state(&state).is_err());
    }
}
