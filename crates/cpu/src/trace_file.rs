//! Binary trace capture and replay.
//!
//! Lets users run the simulator on *recorded* instruction traces — e.g.
//! converted from Pin/DynamoRIO/Valgrind logs of real programs — instead
//! of the synthetic generators, and lets experiments snapshot a generator's
//! stream for exact cross-scheme replay.
//!
//! Format (`.camps-trace`, little-endian):
//!
//! ```text
//! magic   8 B   "CAMPSTRC"
//! version u32   1
//! count   u64   number of records
//! record  ×count:
//!   gap   u32   ALU instructions before the memory op
//!   kind  u8    0 = no memory op, 1 = load, 2 = store
//!   addr  u64   physical address (present only when kind != 0)
//! ```

use crate::trace::{TraceOp, TraceSource, VecTrace};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use camps_types::addr::PhysAddr;
use camps_types::error::{SimError, TraceError};
use camps_types::request::AccessKind;
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"CAMPSTRC";
const VERSION: u32 = 1;

/// Serializes trace ops into the binary format.
#[derive(Debug, Default)]
pub struct TraceWriter {
    body: BytesMut,
    count: u64,
}

impl TraceWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one op.
    pub fn push(&mut self, op: &TraceOp) {
        self.body.put_u32_le(op.gap);
        match op.mem {
            None => self.body.put_u8(0),
            Some((addr, kind)) => {
                self.body.put_u8(if kind.is_read() { 1 } else { 2 });
                self.body.put_u64_le(addr.0);
            }
        }
        self.count += 1;
    }

    /// Number of ops recorded so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finishes the trace into its on-disk byte representation.
    #[must_use]
    pub fn into_bytes(self) -> Bytes {
        let mut out = BytesMut::with_capacity(8 + 4 + 8 + self.body.len());
        out.put_slice(MAGIC);
        out.put_u32_le(VERSION);
        out.put_u64_le(self.count);
        out.extend_from_slice(&self.body);
        out.freeze()
    }

    /// Writes the finished trace to `path`.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save(self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.into_bytes())
    }
}

/// Records `ops` operations from any trace source into a writer.
pub fn record(source: &mut dyn TraceSource, ops: u64) -> TraceWriter {
    let mut w = TraceWriter::new();
    for _ in 0..ops {
        w.push(&source.next_op());
    }
    w
}

/// A recorded trace, replayed in a loop (like every other
/// [`TraceSource`]): a [`VecTrace`] loaded from the binary format.
pub type FileTrace = VecTrace;

impl VecTrace {
    /// Parses a trace from its byte representation.
    ///
    /// # Errors
    /// Every corruption mode has its own [`TraceError`] variant:
    /// truncated header/record, bad magic, unsupported version, unknown
    /// record kind, trailing bytes, and an empty (zero-record) trace.
    pub fn from_bytes(name: impl Into<String>, bytes: &[u8]) -> Result<Self, TraceError> {
        let total = bytes.len();
        let mut buf = bytes;
        if buf.remaining() < 20 {
            return Err(TraceError::TruncatedHeader { len: total });
        }
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let count = buf.get_u64_le();
        if count == 0 {
            return Err(TraceError::Empty);
        }
        let mut ops = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
        for index in 0..count {
            let offset = total - buf.remaining();
            if buf.remaining() < 5 {
                return Err(TraceError::TruncatedRecord { index, offset });
            }
            let gap = buf.get_u32_le();
            let kind = buf.get_u8();
            let mem = match kind {
                0 => None,
                1 | 2 => {
                    if buf.remaining() < 8 {
                        return Err(TraceError::TruncatedRecord { index, offset });
                    }
                    let addr = PhysAddr(buf.get_u64_le());
                    Some((
                        addr,
                        if kind == 1 {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        },
                    ))
                }
                _ => return Err(TraceError::UnknownKind { index, kind }),
            };
            ops.push(TraceOp { gap, mem });
        }
        if buf.remaining() > 0 {
            return Err(TraceError::TrailingBytes {
                remaining: buf.remaining(),
            });
        }
        Ok(Self::new(name, ops))
    }

    /// Loads a trace file from disk.
    ///
    /// # Errors
    /// [`SimError::Io`] when the file cannot be read, [`SimError::Trace`]
    /// when its contents are malformed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SimError> {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .map_or_else(|| "trace".to_string(), |s| s.to_string_lossy().into_owned());
        let bytes = fs::read(path).map_err(|source| SimError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Ok(Self::from_bytes(name, &bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_ops() -> Vec<TraceOp> {
        vec![
            TraceOp::compute(3),
            TraceOp::load(2, PhysAddr(0x1000)),
            TraceOp::store(0, PhysAddr(0xFFFF_FFFF_FF40)),
        ]
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut w = TraceWriter::new();
        for op in sample_ops() {
            w.push(&op);
        }
        assert_eq!(w.len(), 3);
        let bytes = w.into_bytes();
        let mut t = FileTrace::from_bytes("rt", &bytes).unwrap();
        for expect in sample_ops() {
            assert_eq!(t.next_op(), expect);
        }
        // Loops.
        assert_eq!(t.next_op(), sample_ops()[0]);
    }

    #[test]
    fn record_captures_from_any_source() {
        let mut src = VecTrace::new("src", sample_ops());
        let w = record(&mut src, 7);
        assert_eq!(w.len(), 7);
        let t = FileTrace::from_bytes("cap", &w.into_bytes()).unwrap();
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("camps-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.camps-trace");
        let mut w = TraceWriter::new();
        for op in sample_ops() {
            w.push(&op);
        }
        w.save(&path).unwrap();
        let mut t = FileTrace::load(&path).unwrap();
        assert_eq!(t.name(), "t");
        assert_eq!(t.len(), 3);
        assert_eq!(t.next_op(), sample_ops()[0]);
        std::fs::remove_file(path).unwrap();
    }

    /// Header (magic + version + count) followed by `records`.
    fn with_header(count: u64, records: &[u8]) -> BytesMut {
        let mut b = BytesMut::new();
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_u64_le(count);
        b.put_slice(records);
        b
    }

    #[test]
    fn truncated_header_is_typed() {
        assert_eq!(
            FileTrace::from_bytes("x", b"short").unwrap_err(),
            TraceError::TruncatedHeader { len: 5 }
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = FileTrace::from_bytes("x", b"NOTMAGIC________________").unwrap_err();
        assert_eq!(
            err,
            TraceError::BadMagic {
                found: *b"NOTMAGIC"
            }
        );
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut b = BytesMut::new();
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION + 41);
        b.put_u64_le(1);
        assert_eq!(
            FileTrace::from_bytes("x", &b).unwrap_err(),
            TraceError::UnsupportedVersion {
                found: VERSION + 41
            }
        );
    }

    #[test]
    fn truncated_body_is_typed() {
        // Header claims 5 records; body has none.
        let err = FileTrace::from_bytes("x", &with_header(5, &[])).unwrap_err();
        assert_eq!(
            err,
            TraceError::TruncatedRecord {
                index: 0,
                offset: 20
            }
        );
        // Second record cut off inside its address payload.
        let mut records = BytesMut::new();
        records.put_u32_le(1);
        records.put_u8(0); // record 0: compute-only, complete
        records.put_u32_le(2);
        records.put_u8(1); // record 1: load, but the 8-byte address is missing
        let err = FileTrace::from_bytes("x", &with_header(2, &records)).unwrap_err();
        assert_eq!(
            err,
            TraceError::TruncatedRecord {
                index: 1,
                offset: 25
            }
        );
    }

    #[test]
    fn zero_record_trace_is_typed() {
        assert_eq!(
            FileTrace::from_bytes("x", &with_header(0, &[])).unwrap_err(),
            TraceError::Empty
        );
    }

    #[test]
    fn unknown_kind_is_typed() {
        let mut records = BytesMut::new();
        records.put_u32_le(0);
        records.put_u8(7); // bogus kind
        assert_eq!(
            FileTrace::from_bytes("x", &with_header(1, &records)).unwrap_err(),
            TraceError::UnknownKind { index: 0, kind: 7 }
        );
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut records = BytesMut::new();
        records.put_u32_le(0);
        records.put_u8(0);
        records.put_slice(&[0xEE; 3]); // 3 bytes past the declared count
        assert_eq!(
            FileTrace::from_bytes("x", &with_header(1, &records)).unwrap_err(),
            TraceError::TrailingBytes { remaining: 3 }
        );
    }

    #[test]
    fn fault_plan_truncation_yields_typed_error() {
        let mut w = TraceWriter::new();
        for op in sample_ops() {
            w.push(&op);
        }
        let intact = w.into_bytes().to_vec();
        let plan = camps_types::FaultPlan {
            trace_truncate_to: 24, // header + part of the first record
            ..camps_types::FaultPlan::default()
        };
        let mangled = plan.mangle_trace_bytes(intact.clone());
        assert!(matches!(
            FileTrace::from_bytes("x", &mangled).unwrap_err(),
            TraceError::TruncatedRecord { .. }
        ));
        let plan = camps_types::FaultPlan {
            trace_corrupt_magic: true,
            ..camps_types::FaultPlan::default()
        };
        let mangled = plan.mangle_trace_bytes(intact);
        assert!(matches!(
            FileTrace::from_bytes("x", &mangled).unwrap_err(),
            TraceError::BadMagic { .. }
        ));
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = FileTrace::load("/nonexistent/dir/missing.camps-trace").unwrap_err();
        assert!(matches!(err, SimError::Io { .. }));
        assert!(err.to_string().contains("missing.camps-trace"));
    }

    proptest! {
        #[test]
        fn arbitrary_ops_roundtrip(
            raw in prop::collection::vec((0u32..1000, 0u8..3, any::<u64>()), 1..200)
        ) {
            let ops: Vec<TraceOp> = raw
                .iter()
                .map(|&(gap, kind, addr)| TraceOp {
                    gap,
                    mem: match kind {
                        0 => None,
                        1 => Some((PhysAddr(addr), AccessKind::Read)),
                        _ => Some((PhysAddr(addr), AccessKind::Write)),
                    },
                })
                .collect();
            let mut w = TraceWriter::new();
            for op in &ops {
                w.push(op);
            }
            let mut t = FileTrace::from_bytes("p", &w.into_bytes()).unwrap();
            for expect in &ops {
                prop_assert_eq!(t.next_op(), *expect);
            }
        }
    }
}
