//! The synthetic trace generator.

use crate::profile::BenchProfile;
use crate::seed::TraceRng;
use camps_cpu::trace::{TraceOp, TraceSource};
use camps_types::addr::PhysAddr;
use camps_types::request::AccessKind;
use rand::{Rng, RngCore};
use serde::value::Value;
use serde::{de, Deserialize, Serialize};

/// A deterministic, seedable trace generator realizing a
/// [`BenchProfile`] inside a private physical-address slice.
#[derive(Serialize, Deserialize)]
pub struct SpecTrace {
    #[serde(skip)]
    profile: BenchProfile,
    #[serde(skip)]
    base: u64,
    #[serde(skip)]
    span: u64,
    rng: TraceRng,
    /// Per-stream byte cursors for the streaming engine.
    stream_cursors: Vec<u64>,
    /// Cursor of the strided engine, in bytes.
    stride_cursor: u64,
    /// Stream currently being walked and ops left in its burst.
    active_stream: usize,
    burst_left: u32,
    /// Base of the current drifting region.
    region_base: u64,
    /// Accesses left before the region drifts.
    region_left: u32,
    /// Cumulative pattern thresholds scaled to u32 for cheap sampling.
    #[serde(skip)]
    thresholds: [u32; 5],
    /// Average gap between memory ops (expected value of the gap draw).
    #[serde(skip)]
    mean_gap: f64,
}

impl SpecTrace {
    /// Creates the generator for `profile`, confined to the physical range
    /// `[base, base + span)`, deterministically seeded.
    ///
    /// # Panics
    /// Panics if the profile is invalid or the slice is smaller than the
    /// working set.
    #[must_use]
    pub fn new(profile: BenchProfile, base: u64, span: u64, seed: u64) -> Self {
        profile.validate();
        assert!(
            span >= profile.working_set,
            "{}: slice ({span} B) smaller than working set",
            profile.name
        );
        // Distinct streams start spread across the working set.
        let mut rng = TraceRng::new(seed, profile.name);
        // Random start positions: real programs' arrays do not march
        // through the same banks in lockstep, and aligned cursors would
        // manufacture worst-case conflict pathologies.
        let ws = profile.working_set;
        let stream_cursors = (0..profile.streams).map(|_| rng.next_u64() % ws).collect();
        let w = profile.weights;
        let total = w.total();
        let scale = |x: f64| (x / total * f64::from(u32::MAX)) as u32;
        let thresholds = [
            scale(w.stream),
            scale(w.stream + w.stride),
            scale(w.stream + w.stride + w.random),
            scale(w.stream + w.stride + w.random + w.region),
            u32::MAX,
        ];
        let mean_gap = 1.0 / profile.mem_fraction - 1.0;
        let stride_cursor = rng.next_u64() % ws;
        let region_base = rng.next_u64() % (ws - profile.region_bytes + 1);
        Self {
            profile,
            base,
            span,
            rng,
            stream_cursors,
            stride_cursor,
            active_stream: 0,
            burst_left: profile.stream_burst,
            region_base,
            region_left: profile.region_dwell,
            thresholds,
            mean_gap,
        }
    }

    /// The profile this generator realizes.
    #[must_use]
    pub fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    fn next_addr(&mut self) -> u64 {
        let ws = self.profile.working_set;
        let draw = self.rng.next_u32();
        let offset = if draw < self.thresholds[0] {
            // Streaming: walk one stream in bursts (real sweeps touch a
            // row's lines densely before the next array takes over).
            if self.burst_left == 0 {
                self.active_stream = (self.rng.next_u32() as usize) % self.stream_cursors.len();
                self.burst_left = self.profile.stream_burst;
            }
            self.burst_left -= 1;
            let cur = &mut self.stream_cursors[self.active_stream];
            *cur = (*cur + 8) % ws;
            *cur
        } else if draw < self.thresholds[1] {
            // Strided: jump whole blocks.
            self.stride_cursor =
                (self.stride_cursor + u64::from(self.profile.stride_blocks) * 64) % ws;
            self.stride_cursor
        } else if draw < self.thresholds[2] {
            // Random / pointer chase: any 8 B word of the working set.
            (self.rng.next_u64() % (ws / 8)) * 8
        } else if draw < self.thresholds[3] {
            // Drifting region: random word inside the current region; the
            // region relocates every `region_dwell` accesses.
            if self.region_left == 0 {
                self.region_base = self.rng.next_u64() % (ws - self.profile.region_bytes + 1);
                self.region_left = self.profile.region_dwell;
            }
            self.region_left -= 1;
            self.region_base + (self.rng.next_u64() % (self.profile.region_bytes / 8)) * 8
        } else {
            // Hot-set reuse.
            (self.rng.next_u64() % (self.profile.hot_set / 8)) * 8
        };
        self.base + offset % self.span
    }

    fn next_gap(&mut self) -> u32 {
        // Geometric-ish draw with the right mean: uniform in
        // [0, 2·mean_gap], which keeps bursts and lulls without heavy
        // distribution machinery.
        let hi = (2.0 * self.mean_gap).ceil() as u32;
        if hi == 0 {
            0
        } else {
            self.rng.gen_range(0..=hi)
        }
    }
}

impl TraceSource for SpecTrace {
    fn next_op(&mut self) -> TraceOp {
        let gap = self.next_gap();
        let addr = PhysAddr(self.next_addr());
        let kind = if self.rng.gen_bool(self.profile.store_fraction) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        TraceOp {
            gap,
            mem: Some((addr, kind)),
        }
    }

    fn name(&self) -> &str {
        self.profile.name
    }

    fn save_state(&self) -> Value {
        self.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error> {
        self.from_value_in_place(state)?;
        if self.stream_cursors.len() != self.profile.streams as usize {
            return Err(de::Error::custom(format!(
                "snapshot: {} stream cursors for a {}-stream profile",
                self.stream_cursors.len(),
                self.profile.streams
            )));
        }
        if self.active_stream >= self.stream_cursors.len() {
            return Err(de::Error::custom(format!(
                "snapshot: active stream {} out of range",
                self.active_stream
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{MemClass, PatternWeights};

    fn profile(weights: PatternWeights) -> BenchProfile {
        BenchProfile {
            name: "synthetic",
            mem_fraction: 0.25,
            store_fraction: 0.3,
            weights,
            streams: 4,
            stride_blocks: 8,
            working_set: 32 << 20,
            hot_set: 16 << 10,
            region_bytes: 2 << 20,
            region_dwell: 4096,
            stream_burst: 128,
            class: MemClass::High,
        }
    }

    fn stream_only() -> PatternWeights {
        PatternWeights {
            stream: 1.0,
            stride: 0.0,
            random: 0.0,
            reuse: 0.0,
            region: 0.0,
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SpecTrace::new(profile(stream_only()), 0, 64 << 20, 42);
        let mut b = SpecTrace::new(profile(stream_only()), 0, 64 << 20, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SpecTrace::new(profile(stream_only()), 0, 64 << 20, 1);
        let mut b = SpecTrace::new(profile(stream_only()), 0, 64 << 20, 2);
        let same = (0..100).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 100);
    }

    #[test]
    fn addresses_stay_in_slice() {
        let base = 1u64 << 30;
        let span = 64 << 20;
        let mut t = SpecTrace::new(
            profile(PatternWeights {
                stream: 1.0,
                stride: 1.0,
                random: 1.0,
                reuse: 1.0,
                region: 1.0,
            }),
            base,
            span,
            7,
        );
        for _ in 0..10_000 {
            let op = t.next_op();
            let (addr, _) = op.mem.unwrap();
            assert!(
                addr.0 >= base && addr.0 < base + span,
                "addr {addr} out of slice"
            );
        }
    }

    #[test]
    fn mem_fraction_is_respected() {
        let mut t = SpecTrace::new(profile(stream_only()), 0, 64 << 20, 3);
        let (mut instrs, mut mems) = (0u64, 0u64);
        for _ in 0..20_000 {
            let op = t.next_op();
            instrs += op.instructions();
            mems += 1;
        }
        let frac = mems as f64 / instrs as f64;
        assert!(
            (frac - 0.25).abs() < 0.02,
            "memory fraction {frac} vs target 0.25"
        );
    }

    #[test]
    fn store_fraction_is_respected() {
        let mut t = SpecTrace::new(profile(stream_only()), 0, 64 << 20, 3);
        let stores = (0..20_000)
            .filter(|_| matches!(t.next_op().mem, Some((_, AccessKind::Write))))
            .count();
        let frac = stores as f64 / 20_000.0;
        assert!(
            (frac - 0.3).abs() < 0.02,
            "store fraction {frac} vs target 0.3"
        );
    }

    #[test]
    fn streaming_has_block_level_spatial_locality() {
        // 8 B steps → 8 consecutive accesses per 64 B block per stream.
        let mut p = profile(stream_only());
        p.streams = 1;
        let mut t = SpecTrace::new(p, 0, 64 << 20, 3);
        let mut block_changes = 0;
        let mut last_block = u64::MAX;
        for _ in 0..8_000 {
            let (addr, _) = t.next_op().mem.unwrap();
            let block = addr.0 / 64;
            if block != last_block {
                block_changes += 1;
                last_block = block;
            }
        }
        // ~1000 block changes for 8000 accesses.
        assert!(
            (900..1100).contains(&block_changes),
            "changes {block_changes}"
        );
    }

    #[test]
    fn reuse_engine_stays_in_hot_set() {
        let w = PatternWeights {
            stream: 0.0,
            stride: 0.0,
            random: 0.0,
            reuse: 1.0,
            region: 0.0,
        };
        let mut t = SpecTrace::new(profile(w), 0, 64 << 20, 3);
        for _ in 0..5_000 {
            let (addr, _) = t.next_op().mem.unwrap();
            assert!(addr.0 < 16 << 10);
        }
    }

    #[test]
    #[should_panic(expected = "smaller than working set")]
    fn slice_must_hold_working_set() {
        let _ = SpecTrace::new(profile(stream_only()), 0, 1 << 20, 3);
    }

    #[test]
    fn snapshot_resumes_identical_stream() {
        // All five pattern engines active so every cursor is exercised.
        let w = PatternWeights {
            stream: 1.0,
            stride: 1.0,
            random: 1.0,
            reuse: 1.0,
            region: 1.0,
        };
        let mut a = SpecTrace::new(profile(w), 0, 64 << 20, 42);
        for _ in 0..5_000 {
            a.next_op();
        }
        let state = a.save_state();
        let mut b = SpecTrace::new(profile(w), 0, 64 << 20, 42);
        b.restore_state(&state).unwrap();
        for _ in 0..5_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn snapshot_rejects_mismatched_profile() {
        let mut a = SpecTrace::new(profile(stream_only()), 0, 64 << 20, 42);
        let state = a.save_state();
        let mut p = profile(stream_only());
        p.streams = 2; // different stream count than the snapshot
        let mut b = SpecTrace::new(p, 0, 64 << 20, 42);
        let err = b.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("stream cursors"));
        assert!(a.restore_state(&Value::Null).is_err());
    }
}
