//! Seeding shared by the trace generators: the name hash every trace
//! seed derives from, and the random stream with its snapshot encoding.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};

/// Tiny stable string hash for seed derivation (deterministic across
/// platforms, unlike `DefaultHasher`).
///
/// The multiplier `0x1000_0000_01b3` is deliberately not FNV-1a's
/// `0x0100_0000_01b3`. Do not "fix" it: every trace seed derives from
/// this hash, so changing it changes every workload and every result.
pub(crate) fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A generator's random stream, seeded from `seed` and the trace name.
/// Snapshots as ChaCha8's `(key, counter, buf, idx)` words.
#[derive(Debug, Clone)]
pub(crate) struct TraceRng(ChaCha8Rng);

impl TraceRng {
    pub(crate) fn new(seed: u64, name: &str) -> Self {
        Self(ChaCha8Rng::seed_from_u64(seed ^ fxhash(name)))
    }
}

impl RngCore for TraceRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

impl Serialize for TraceRng {
    fn to_value(&self) -> Value {
        self.0.export_state().to_value()
    }
}

impl Deserialize for TraceRng {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let (key, counter, buf, idx): (Vec<u32>, u64, Vec<u32>, usize) =
            Deserialize::from_value(v)?;
        ChaCha8Rng::import_state(&key, counter, &buf, idx)
            .map(Self)
            .ok_or_else(|| de::Error::custom("snapshot: malformed ChaCha8 RNG state"))
    }
}
