//! The instruction-trace interface consumed by the core model.
//!
//! A trace is an infinite stream of [`TraceOp`]s: "execute `gap` plain
//! ALU instructions, then (optionally) one memory operation". Workload
//! generators (in `camps-workloads`) implement [`TraceSource`]; tests use
//! the replaying [`VecTrace`].

use camps_types::addr::PhysAddr;
use camps_types::request::AccessKind;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};

/// One step of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions preceding the memory operation.
    pub gap: u32,
    /// The memory operation, if any.
    pub mem: Option<(PhysAddr, AccessKind)>,
}

impl TraceOp {
    /// A pure-compute chunk.
    #[must_use]
    pub fn compute(gap: u32) -> Self {
        Self { gap, mem: None }
    }

    /// `gap` ALU instructions followed by a load of `addr`.
    #[must_use]
    pub fn load(gap: u32, addr: PhysAddr) -> Self {
        Self {
            gap,
            mem: Some((addr, AccessKind::Read)),
        }
    }

    /// `gap` ALU instructions followed by a store to `addr`.
    #[must_use]
    pub fn store(gap: u32, addr: PhysAddr) -> Self {
        Self {
            gap,
            mem: Some((addr, AccessKind::Write)),
        }
    }

    /// Instructions this op contributes (gap + the memory op itself).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        u64::from(self.gap) + u64::from(self.mem.is_some())
    }
}

/// An infinite instruction stream.
pub trait TraceSource: Send {
    /// Produces the next step. Must never terminate (benchmarks loop).
    fn next_op(&mut self) -> TraceOp;

    /// Human-readable name (benchmark name in the Table II mixes).
    fn name(&self) -> &str;

    /// Captures the stream's cursor state for checkpointing. Sources
    /// whose state is fully determined by construction return
    /// [`Value::Null`] (the default).
    fn save_state(&self) -> Value {
        Value::Null
    }

    /// Overlays cursor state captured by [`TraceSource::save_state`] on an
    /// identically constructed source.
    ///
    /// # Errors
    /// Returns a deserialization error on a shape mismatch (snapshot from
    /// a different source kind or a format break).
    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error> {
        let _ = state;
        Ok(())
    }
}

/// A core's trace field snapshots through the source's own methods. A
/// trace source cannot be built from a snapshot alone, only restored in
/// place onto one built from the workload.
impl Serialize for Box<dyn TraceSource> {
    fn to_value(&self) -> Value {
        TraceSource::save_state(&**self)
    }
}

impl Deserialize for Box<dyn TraceSource> {
    fn from_value(_: &Value) -> Result<Self, de::Error> {
        Err(de::Error::custom(
            "snapshot: a trace source restores only in place",
        ))
    }

    fn from_value_in_place(&mut self, v: &Value) -> Result<(), de::Error> {
        TraceSource::restore_state(&mut **self, v)
    }
}

/// A trace that replays a fixed op sequence forever — test workhorse.
#[derive(Debug, Clone)]
pub struct VecTrace {
    ops: Vec<TraceOp>,
    pos: usize,
    name: String,
}

impl VecTrace {
    /// Wraps `ops` (must be nonempty) into a looping trace.
    ///
    /// # Panics
    /// Panics if `ops` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, ops: Vec<TraceOp>) -> Self {
        assert!(!ops.is_empty(), "trace must have at least one op");
        Self {
            ops,
            pos: 0,
            name: name.into(),
        }
    }

    /// Number of distinct ops (one loop iteration).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Never true: construction rejects empty traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl TraceSource for VecTrace {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn save_state(&self) -> Value {
        self.pos.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error> {
        let pos = usize::from_value(state)?;
        if pos >= self.ops.len() {
            return Err(de::Error::custom(format!(
                "VecTrace cursor {pos} out of range for {} ops",
                self.ops.len()
            )));
        }
        self.pos = pos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_instruction_counts() {
        assert_eq!(TraceOp::compute(5).instructions(), 5);
        assert_eq!(TraceOp::load(3, PhysAddr(0)).instructions(), 4);
        assert_eq!(TraceOp::store(0, PhysAddr(0)).instructions(), 1);
    }

    #[test]
    fn vec_trace_loops_forever() {
        let mut t = VecTrace::new(
            "t",
            vec![TraceOp::compute(1), TraceOp::load(0, PhysAddr(64))],
        );
        assert_eq!(t.next_op(), TraceOp::compute(1));
        assert_eq!(t.next_op(), TraceOp::load(0, PhysAddr(64)));
        assert_eq!(t.next_op(), TraceOp::compute(1));
        assert_eq!(t.name(), "t");
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_trace_panics() {
        let _ = VecTrace::new("e", vec![]);
    }

    #[test]
    fn vec_trace_cursor_snapshots_and_restores() {
        let ops = vec![
            TraceOp::compute(1),
            TraceOp::load(0, PhysAddr(64)),
            TraceOp::store(2, PhysAddr(128)),
        ];
        let mut a = VecTrace::new("t", ops.clone());
        a.next_op();
        a.next_op();
        let state = a.save_state();
        let mut b = VecTrace::new("t", ops);
        b.restore_state(&state).unwrap();
        for _ in 0..7 {
            assert_eq!(a.next_op(), b.next_op());
        }
        // An out-of-range cursor is a shape error, not a panic.
        assert!(b.restore_state(&Value::U64(99)).is_err());
    }
}
