//! The three-level hierarchy of Table I: private L1D and L2 per core, one
//! shared L3. Write-back, write-allocate at every level; dirty victims
//! cascade downward and fall out of the L3 as memory writebacks.

use crate::cache::{Cache, CacheStats};
use camps_obs::{Comp, Profiler};
use camps_types::addr::PhysAddr;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use serde::{Deserialize, Serialize};

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyOutcome {
    /// Served on chip at `level` (1..=3) after `latency` cycles.
    Hit {
        /// Which level hit (1 = L1D).
        level: u8,
        /// Accumulated lookup latency.
        latency: Cycle,
    },
    /// Missed all three levels; a memory request must be issued after
    /// `lookup_latency` cycles of tag checks.
    Miss {
        /// Accumulated lookup latency before the miss was known.
        lookup_latency: Cycle,
    },
}

/// The full on-chip cache system.
#[derive(Serialize, Deserialize)]
pub struct CacheHierarchy {
    /// One per core.
    l1: Box<[Cache]>,
    /// One per core.
    l2: Box<[Cache]>,
    l3: Cache,
    #[serde(skip)]
    l1_lat: Cycle,
    #[serde(skip)]
    l2_lat: Cycle,
    #[serde(skip)]
    l3_lat: Cycle,
}

impl CacheHierarchy {
    /// Builds per-core L1/L2 and the shared L3 from the system config.
    #[must_use]
    pub fn new(cfg: &SystemConfig) -> Self {
        let cores = cfg.cpu.cores as usize;
        Self {
            l1: (0..cores).map(|_| Cache::new(&cfg.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(&cfg.l2)).collect(),
            l3: Cache::new(&cfg.l3),
            l1_lat: cfg.l1.hit_latency,
            l2_lat: cfg.l2.hit_latency,
            l3_lat: cfg.l3.hit_latency,
        }
    }

    /// Performs a demand access for `core`. Dirty lines displaced out of
    /// the L3 are appended to `writebacks` (the caller turns them into
    /// memory write requests). Host time spent probing the levels is
    /// self-attributed to the profiler's `cache_lookup` bin.
    pub fn access(
        &mut self,
        core: usize,
        addr: PhysAddr,
        is_write: bool,
        writebacks: &mut Vec<PhysAddr>,
        prof: &mut Profiler,
    ) -> HierarchyOutcome {
        let t = prof.stamp();
        let outcome = self.access_inner(core, addr, is_write, writebacks);
        let _ = prof.lap(Comp::CacheLookup, t);
        outcome
    }

    fn access_inner(
        &mut self,
        core: usize,
        addr: PhysAddr,
        is_write: bool,
        writebacks: &mut Vec<PhysAddr>,
    ) -> HierarchyOutcome {
        if self.l1[core].access(addr, is_write) {
            return HierarchyOutcome::Hit {
                level: 1,
                latency: self.l1_lat,
            };
        }
        if self.l2[core].access(addr, false) {
            self.fill_l1(core, addr, is_write, writebacks);
            return HierarchyOutcome::Hit {
                level: 2,
                latency: self.l1_lat + self.l2_lat,
            };
        }
        if self.l3.access(addr, false) {
            self.fill_l2(core, addr, writebacks);
            self.fill_l1(core, addr, is_write, writebacks);
            return HierarchyOutcome::Hit {
                level: 3,
                latency: self.l1_lat + self.l2_lat + self.l3_lat,
            };
        }
        HierarchyOutcome::Miss {
            lookup_latency: self.l1_lat + self.l2_lat + self.l3_lat,
        }
    }

    /// Fills `addr` into every level for `core` after a memory response
    /// (write-allocate: `is_write` dirties the L1 copy).
    pub fn fill(
        &mut self,
        core: usize,
        addr: PhysAddr,
        is_write: bool,
        writebacks: &mut Vec<PhysAddr>,
    ) {
        if let Some(wb) = self.l3.fill(addr, false) {
            writebacks.push(wb);
        }
        self.fill_l2(core, addr, writebacks);
        self.fill_l1(core, addr, is_write, writebacks);
    }

    fn fill_l1(
        &mut self,
        core: usize,
        addr: PhysAddr,
        dirty: bool,
        writebacks: &mut Vec<PhysAddr>,
    ) {
        if let Some(victim) = self.l1[core].fill(addr, dirty) {
            // L1 dirty victim lands in the L2.
            if let Some(victim2) = self.l2[core].fill(victim, true) {
                if let Some(victim3) = self.l3.fill(victim2, true) {
                    writebacks.push(victim3);
                }
            }
        }
    }

    fn fill_l2(&mut self, core: usize, addr: PhysAddr, writebacks: &mut Vec<PhysAddr>) {
        if let Some(victim) = self.l2[core].fill(addr, false) {
            if let Some(victim3) = self.l3.fill(victim, true) {
                writebacks.push(victim3);
            }
        }
    }

    /// True if `addr` is resident anywhere on chip for any core (no LRU
    /// update, no statistics) — used by prefetchers to skip useless work.
    #[must_use]
    pub fn access_untimed(&self, addr: PhysAddr) -> bool {
        self.l3.contains(addr)
            || self.l1.iter().any(|c| c.contains(addr))
            || self.l2.iter().any(|c| c.contains(addr))
    }

    /// Fills `addr` into the shared L3 only — unsolicited cache pushes
    /// from the memory side (`push_to_llc`). Dirty victims surface as
    /// writebacks like any other fill.
    pub fn fill_llc_only(&mut self, addr: PhysAddr, writebacks: &mut Vec<PhysAddr>) {
        if let Some(wb) = self.l3.fill(addr, false) {
            writebacks.push(wb);
        }
    }

    /// Per-level statistics: (`l1[core]`, `l2[core]`, shared l3).
    #[must_use]
    pub fn stats(&self, core: usize) -> (&CacheStats, &CacheStats, &CacheStats) {
        (
            self.l1[core].stats(),
            self.l2[core].stats(),
            self.l3.stats(),
        )
    }

    /// Number of cores the private levels were built for.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Shared-L3 miss count (numerator of the MPKI classification used to
    /// build Table II's HM/LM groups).
    #[must_use]
    pub fn l3_misses(&self) -> u64 {
        let r = self.l3.stats().accesses;
        r.total.get() - r.hits.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::config::SystemConfig;
    use camps_types::snapshot::Snapshot;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(&SystemConfig::small())
    }

    #[test]
    fn cold_access_misses_everywhere() {
        let mut h = hierarchy();
        let mut wb = Vec::new();
        let out = h.access(0, PhysAddr(0x1000), false, &mut wb, &mut Profiler::off());
        assert_eq!(
            out,
            HierarchyOutcome::Miss {
                lookup_latency: 2 + 6 + 20
            }
        );
        assert!(wb.is_empty());
    }

    #[test]
    fn fill_then_l1_hit() {
        let mut h = hierarchy();
        let mut wb = Vec::new();
        h.fill(0, PhysAddr(0x1000), false, &mut wb);
        let out = h.access(0, PhysAddr(0x1008), false, &mut wb, &mut Profiler::off());
        assert_eq!(
            out,
            HierarchyOutcome::Hit {
                level: 1,
                latency: 2
            }
        );
    }

    #[test]
    fn l2_hit_refills_l1() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        let mut wb = Vec::new();
        h.fill(0, PhysAddr(0), false, &mut wb);
        // Evict line 0 from L1 (4 KB, 2-way, 64 B lines → 32 sets; two
        // same-set fills displace it) without touching L2's set for it.
        let l1_sets = cfg.l1.sets();
        let stride = l1_sets * 64;
        h.fill(0, PhysAddr(stride * 7), false, &mut wb);
        h.fill(0, PhysAddr(stride * 9), false, &mut wb);
        assert_eq!(
            h.access(0, PhysAddr(0), false, &mut wb, &mut Profiler::off()),
            HierarchyOutcome::Hit {
                level: 2,
                latency: 8
            }
        );
        // And now it's back in L1.
        assert_eq!(
            h.access(0, PhysAddr(0), false, &mut wb, &mut Profiler::off()),
            HierarchyOutcome::Hit {
                level: 1,
                latency: 2
            }
        );
    }

    #[test]
    fn l3_is_shared_across_cores() {
        let mut h = hierarchy();
        let mut wb = Vec::new();
        h.fill(0, PhysAddr(0x4000), false, &mut wb);
        // Core 1 misses its private L1/L2 but hits the shared L3.
        let out = h.access(1, PhysAddr(0x4000), false, &mut wb, &mut Profiler::off());
        assert_eq!(
            out,
            HierarchyOutcome::Hit {
                level: 3,
                latency: 28
            }
        );
    }

    #[test]
    fn private_l1_is_not_shared() {
        let mut h = hierarchy();
        let mut wb = Vec::new();
        h.fill(0, PhysAddr(0x4000), false, &mut wb);
        // Core 1's first access cannot be an L1 hit.
        match h.access(1, PhysAddr(0x4000), false, &mut wb, &mut Profiler::off()) {
            HierarchyOutcome::Hit { level, .. } => assert_eq!(level, 3),
            HierarchyOutcome::Miss { .. } => panic!("L3 should hold the line"),
        }
    }

    #[test]
    fn dirty_line_eventually_writes_back_to_memory() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        let mut wb = Vec::new();
        // Dirty a line, then flood every level's set until it falls out of
        // the L3.
        h.fill(0, PhysAddr(0), true, &mut wb);
        let l3_sets = cfg.l3.sets();
        let stride = l3_sets * 64; // same L3 set every `stride`
        let mut i = 1u64;
        while wb.is_empty() && i < 200 {
            h.fill(0, PhysAddr(stride * i), false, &mut wb);
            i += 1;
        }
        assert_eq!(
            wb,
            vec![PhysAddr(0)],
            "the dirty line must surface as a writeback"
        );
    }

    #[test]
    fn store_hit_dirties_without_memory_traffic() {
        let mut h = hierarchy();
        let mut wb = Vec::new();
        h.fill(0, PhysAddr(0x80), false, &mut wb);
        let out = h.access(0, PhysAddr(0x80), true, &mut wb, &mut Profiler::off());
        assert!(matches!(out, HierarchyOutcome::Hit { level: 1, .. }));
        assert!(wb.is_empty());
    }

    proptest::proptest! {
        // After any access sequence: a fill makes the very next access to
        // the same line an L1 hit, and every writeback address is one of
        // the lines we dirtied.
        #[test]
        fn fills_hit_and_writebacks_come_from_dirty_lines(
            ops in proptest::collection::vec((0u64..512, proptest::bool::ANY), 1..300)
        ) {
            let cfg = SystemConfig::small();
            let mut h = CacheHierarchy::new(&cfg);
            let mut wb = Vec::new();
            let mut dirtied = std::collections::HashSet::new();
            for &(block, is_write) in &ops {
                let addr = PhysAddr(block * 64);
                if is_write {
                    dirtied.insert(addr.0);
                }
                if let HierarchyOutcome::Miss { .. } = h.access(0, addr, is_write, &mut wb, &mut Profiler::off()) {
                    h.fill(0, addr, is_write, &mut wb);
                }
                // Immediately after a fill (or hit) the line is in L1.
                let is_l1_hit = matches!(
                    h.access(0, addr, false, &mut wb, &mut Profiler::off()),
                    HierarchyOutcome::Hit { level: 1, .. }
                );
                proptest::prop_assert!(is_l1_hit);
            }
            for w in &wb {
                proptest::prop_assert!(
                    dirtied.contains(&w.0),
                    "writeback {w} of a line never dirtied"
                );
            }
        }
    }

    #[test]
    fn snapshot_restores_full_hierarchy_state() {
        let cfg = SystemConfig::small();
        let mut a = CacheHierarchy::new(&cfg);
        let mut wb = Vec::new();
        for i in 0..200u64 {
            let addr = PhysAddr((i * 97 % 64) * 64);
            if let HierarchyOutcome::Miss { .. } =
                a.access(0, addr, i % 3 == 0, &mut wb, &mut Profiler::off())
            {
                a.fill(0, addr, i % 3 == 0, &mut wb);
            }
        }
        let state = a.save_state();
        let mut b = CacheHierarchy::new(&cfg);
        b.restore_state(&state).unwrap();
        // Same residency and identical behavior afterwards.
        let mut wb_a = Vec::new();
        let mut wb_b = Vec::new();
        for i in 0..100u64 {
            let addr = PhysAddr((i * 31 % 80) * 64);
            assert_eq!(
                a.access(0, addr, false, &mut wb_a, &mut Profiler::off()),
                b.access(0, addr, false, &mut wb_b, &mut Profiler::off())
            );
        }
        assert_eq!(wb_a, wb_b);
        assert_eq!(a.l3_misses(), b.l3_misses());
    }

    #[test]
    fn snapshot_rejects_mismatched_geometry() {
        let mut small = CacheHierarchy::new(&SystemConfig::small());
        let paper = CacheHierarchy::new(&SystemConfig::paper_default());
        let err = small.restore_state(&paper.save_state()).unwrap_err();
        assert!(err.to_string().contains("snapshot"));
    }

    #[test]
    fn l3_miss_counter_tracks_misses() {
        let mut h = hierarchy();
        let mut wb = Vec::new();
        assert_eq!(h.l3_misses(), 0);
        h.access(0, PhysAddr(0x1000), false, &mut wb, &mut Profiler::off());
        h.access(0, PhysAddr(0x2000), false, &mut wb, &mut Profiler::off());
        assert_eq!(h.l3_misses(), 2);
        h.fill(0, PhysAddr(0x1000), false, &mut wb);
        // L1 hit → the L3 does not even see it.
        h.access(0, PhysAddr(0x1000), false, &mut wb, &mut Profiler::off());
        assert_eq!(h.l3_misses(), 2);
    }
}
