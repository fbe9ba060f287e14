//! Adversarial access-stream generators: RowHammer-style aggressors,
//! conflict-thrash streams, and prefetch-buffer pollution.
//!
//! Each generator is a deterministic, seeded [`TraceSource`] whose
//! address sequence is a pure function of its op counter, so snapshots
//! capture nothing but the counter and the gap-jitter RNG. All streams
//! confine themselves to one `(vault, bank)` — the worst case for the
//! structures under attack — and defeat the host cache hierarchy by
//! advancing the column every pass and, once a row's columns are
//! exhausted, setting *alias* bits above the cube's address width.
//! [`AddressMapping::decode`] ignores those bits, so aliased addresses
//! land on the same DRAM row while the physically-tagged caches see
//! brand-new lines: every access reaches the memory side.
//!
//! The attack menu ([`AttackKind`]):
//!
//! * **Hammer, single-sided** — alternates spaced aggressor rows (or one
//!   aggressor and a far dummy row) so every access precharges and
//!   re-activates, maximizing one row's ACT rate within a refresh
//!   window.
//! * **Hammer, double-sided** — aggressor rows at stride 2 sandwich
//!   victim rows between them, the classic double-sided layout.
//! * **Conflict thrash** — round-robins more rows than the conflict
//!   table holds, so CAMPS's CT/RUT history is evicted before any row
//!   recurs and every access is a row conflict.
//! * **Buffer pollution** — dwells on a fresh pair of rows just long
//!   enough to look prefetch-worthy, then abandons them forever,
//!   training the scheme to fill its buffer with rows that will never
//!   be referenced again.

use crate::seed::TraceRng;
use camps_cpu::trace::{TraceOp, TraceSource};
use camps_types::addr::{AddressMapping, DecodedAddr, PhysAddr};
use camps_types::config::HmcGeometry;
use camps_types::request::AccessKind;
use rand::Rng;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};
use std::fmt;

/// Spacing between single-sided aggressor rows: far enough apart that
/// no mitigation treating them as one neighborhood can refresh them
/// with a single neighbor refresh.
const SINGLE_SIDED_SPACING: u32 = 64;

/// A typed rejection of an adversarial spec. These are user/config
/// errors, not bugs, so they surface as values rather than asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The spec names zero aggressor rows.
    ZeroAggressors,
    /// The attack window is zero cycles.
    ZeroWindow,
    /// The attack window exceeds the refresh window — per-row counters
    /// reset before the attack completes a round, so the spec cannot
    /// mean what it says.
    WindowExceedsRefresh {
        /// Requested attack window, CPU cycles.
        window: u64,
        /// The cube's refresh window (tREFW ≡ tREFI here), CPU cycles.
        t_refw: u64,
    },
    /// The target vault does not exist.
    VaultOutOfRange {
        /// Requested vault.
        vault: u16,
        /// Vaults in the cube.
        vaults: u32,
    },
    /// The target bank does not exist.
    BankOutOfRange {
        /// Requested bank.
        bank: u16,
        /// Banks per vault.
        banks: u32,
    },
    /// The aggressor set extends past the last row of the bank.
    RowOutOfRange {
        /// Highest row the spec would touch.
        last_row: u32,
        /// Rows per bank.
        rows: u32,
    },
    /// The cube geometry itself is invalid (no address mapping).
    Geometry(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::ZeroAggressors => {
                write!(f, "adversarial spec needs at least one aggressor row")
            }
            WorkloadError::ZeroWindow => {
                write!(f, "adversarial attack window must be nonzero")
            }
            WorkloadError::WindowExceedsRefresh { window, t_refw } => write!(
                f,
                "attack window ({window} cycles) exceeds the refresh window ({t_refw} cycles)"
            ),
            WorkloadError::VaultOutOfRange { vault, vaults } => {
                write!(f, "vault {vault} out of range (cube has {vaults})")
            }
            WorkloadError::BankOutOfRange { bank, banks } => {
                write!(f, "bank {bank} out of range (vault has {banks})")
            }
            WorkloadError::RowOutOfRange { last_row, rows } => {
                write!(f, "aggressor set reaches row {last_row}, bank has {rows}")
            }
            WorkloadError::Geometry(e) => write!(f, "invalid cube geometry: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Which adversarial pattern a stream realizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Single-sided RowHammer: spaced aggressors, one ACT per access.
    HammerSingle,
    /// Double-sided RowHammer: aggressor rows sandwiching victims.
    HammerDouble,
    /// Row-conflict thrash sized to defeat the CT/RUT history tables.
    ConflictThrash,
    /// Prefetch-buffer pollution: train, then abandon, forever.
    BufferPollution,
}

impl AttackKind {
    /// Every attack, the double-sided hammer (the ranked stream) first.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::HammerDouble,
        AttackKind::HammerSingle,
        AttackKind::ConflictThrash,
        AttackKind::BufferPollution,
    ];

    /// Stable lowercase identifier (stream names, JSON keys).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AttackKind::HammerSingle => "hammer-single",
            AttackKind::HammerDouble => "hammer-double",
            AttackKind::ConflictThrash => "thrash",
            AttackKind::BufferPollution => "pollute",
        }
    }
}

/// Everything that defines one adversarial stream. All fields are
/// public so presets can be tweaked; [`AdversarialTrace::new`] validates
/// the combination against the cube geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialSpec {
    /// Stream name (shows up in per-core results).
    pub name: String,
    /// The attack pattern.
    pub kind: AttackKind,
    /// Target vault — adversarial streams concentrate on one vault.
    pub vault: u16,
    /// Target bank within the vault.
    pub bank: u16,
    /// First row of the aggressor set.
    pub base_row: u32,
    /// Rows in the aggressor/thrash set (pattern-dependent layout).
    pub aggressors: u32,
    /// Mean instruction gap between memory ops (0 = back-to-back).
    pub gap: u32,
    /// Attack-round window in CPU cycles; must fit inside tREFW. Paces
    /// how long pollution dwells on a row pair before abandoning it.
    pub window: u64,
    /// Fraction of ops issued as stores. Hammer and pollution default
    /// to 0.5: dirty rows make the scheme's buffer evictions cost
    /// writeback activations on the aggressor rows — extra hammer
    /// pressure demand traffic never asked for.
    pub store_fraction: f64,
    /// Seed for the gap-jitter RNG (addresses are RNG-free).
    pub seed: u64,
}

impl AdversarialSpec {
    /// A ready-to-run spec for `kind` against `vault`, with layout
    /// defaults matched to the paper geometry (override fields freely).
    #[must_use]
    pub fn preset(kind: AttackKind, vault: u16, seed: u64) -> Self {
        let aggressors = match kind {
            AttackKind::HammerSingle => 2,
            AttackKind::HammerDouble => 4,
            // More rows than the 32-entry conflict table remembers.
            AttackKind::ConflictThrash => 48,
            AttackKind::BufferPollution => 2,
        };
        let store_fraction = match kind {
            AttackKind::ConflictThrash => 0.0,
            _ => 0.5,
        };
        Self {
            name: format!("{}-v{vault}", kind.as_str()),
            kind,
            vault,
            bank: 0,
            base_row: 64,
            aggressors,
            gap: 4,
            window: 4_096,
            store_fraction,
            seed,
        }
    }
}

/// A validated adversarial stream bound to one cube geometry.
#[derive(Serialize, Deserialize)]
pub struct AdversarialTrace {
    #[serde(skip)]
    spec: AdversarialSpec,
    #[serde(skip)]
    mapping: AddressMapping,
    /// Precomputed target rows (empty for pollution, which derives its
    /// rows from the op counter).
    #[serde(skip)]
    rows: Vec<u32>,
    #[serde(skip)]
    rows_per_bank: u64,
    #[serde(skip)]
    blocks_per_row: u64,
    #[serde(skip)]
    addr_bits: u32,
    /// Ops the pollution pattern dwells on one row pair.
    #[serde(skip)]
    touches: u64,
    rng: TraceRng,
    /// Ops issued so far — the sole address-state of the stream.
    ops: u64,
}

impl AdversarialTrace {
    /// Validates `spec` against the cube geometry and the refresh window
    /// `t_refw` (CPU cycles; pass the converted tREFI) and builds the
    /// stream.
    ///
    /// # Errors
    /// A [`WorkloadError`] naming exactly what is wrong with the spec.
    pub fn new(
        spec: AdversarialSpec,
        hmc: &HmcGeometry,
        t_refw: u64,
    ) -> Result<Self, WorkloadError> {
        if spec.aggressors == 0 {
            return Err(WorkloadError::ZeroAggressors);
        }
        if spec.window == 0 {
            return Err(WorkloadError::ZeroWindow);
        }
        if t_refw > 0 && spec.window > t_refw {
            return Err(WorkloadError::WindowExceedsRefresh {
                window: spec.window,
                t_refw,
            });
        }
        if u32::from(spec.vault) >= hmc.vaults {
            return Err(WorkloadError::VaultOutOfRange {
                vault: spec.vault,
                vaults: hmc.vaults,
            });
        }
        if u32::from(spec.bank) >= hmc.banks_per_vault {
            return Err(WorkloadError::BankOutOfRange {
                bank: spec.bank,
                banks: hmc.banks_per_vault,
            });
        }
        let rows = match spec.kind {
            AttackKind::HammerSingle => {
                if spec.aggressors == 1 {
                    // A lone aggressor needs a far dummy row: same-row
                    // accesses would be open-row hits and never ACT.
                    vec![spec.base_row, spec.base_row + hmc.rows_per_bank / 2]
                } else {
                    (0..spec.aggressors)
                        .map(|i| spec.base_row + SINGLE_SIDED_SPACING * i)
                        .collect()
                }
            }
            AttackKind::HammerDouble => (0..spec.aggressors)
                .map(|i| spec.base_row + 2 * i)
                .collect(),
            AttackKind::ConflictThrash => (0..spec.aggressors).map(|i| spec.base_row + i).collect(),
            AttackKind::BufferPollution => Vec::new(),
        };
        let last_row = rows.iter().copied().max().unwrap_or(spec.base_row);
        if last_row >= hmc.rows_per_bank {
            return Err(WorkloadError::RowOutOfRange {
                last_row,
                rows: hmc.rows_per_bank,
            });
        }
        let mapping = hmc
            .address_mapping()
            .map_err(|e| WorkloadError::Geometry(e.to_string()))?;
        let rng = TraceRng::new(spec.seed, &spec.name);
        Ok(Self {
            rows,
            rows_per_bank: u64::from(hmc.rows_per_bank),
            blocks_per_row: u64::from(hmc.blocks_per_row()),
            addr_bits: mapping.addr_bits(),
            touches: (spec.window / u64::from(spec.gap + 1)).max(2),
            ops: 0,
            rng,
            mapping,
            spec,
        })
    }

    /// The spec this stream realizes.
    #[must_use]
    pub fn spec(&self) -> &AdversarialSpec {
        &self.spec
    }

    /// Address of op `n` — a pure function, so the op counter is the
    /// whole address-state.
    fn addr_of(&self, n: u64) -> u64 {
        let (row, pass) = match self.spec.kind {
            AttackKind::BufferPollution => {
                // Dwell `touches` ops on rows (2p, 2p+1), then move to a
                // pair the stream will never revisit.
                let pair = n / self.touches;
                let within = n % self.touches;
                let row =
                    (u64::from(self.spec.base_row) + 2 * pair + within % 2) % self.rows_per_bank;
                (row as u32, within / 2)
            }
            _ => {
                let len = self.rows.len() as u64;
                (self.rows[(n % len) as usize], n / len)
            }
        };
        // Walk the columns; when the row is exhausted, alias bits above
        // the cube's address width make the next pass a fresh cache
        // line that still decodes to the same row.
        let col = (pass % self.blocks_per_row) as u16;
        let alias = pass / self.blocks_per_row;
        let d = DecodedAddr {
            vault: self.spec.vault,
            bank: self.spec.bank,
            row,
            col,
            offset: 0,
        };
        self.mapping.encode(&d).0 | (alias << self.addr_bits)
    }
}

impl TraceSource for AdversarialTrace {
    fn next_op(&mut self) -> TraceOp {
        let addr = PhysAddr(self.addr_of(self.ops));
        self.ops += 1;
        let kind = if self.spec.store_fraction > 0.0 && self.rng.gen_bool(self.spec.store_fraction)
        {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let gap = if self.spec.gap == 0 {
            0
        } else {
            self.rng.gen_range(0..=2 * self.spec.gap)
        };
        TraceOp {
            gap,
            mem: Some((addr, kind)),
        }
    }

    fn name(&self) -> &str {
        &self.spec.name
    }

    fn save_state(&self) -> Value {
        self.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error> {
        self.from_value_in_place(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::config::SystemConfig;
    use std::collections::HashSet;

    const T_REFW: u64 = 23_400;

    fn hmc() -> HmcGeometry {
        SystemConfig::paper_default().hmc
    }

    fn trace(kind: AttackKind) -> AdversarialTrace {
        AdversarialTrace::new(AdversarialSpec::preset(kind, 3, 42), &hmc(), T_REFW).unwrap()
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let h = hmc();
        let mut s = AdversarialSpec::preset(AttackKind::HammerDouble, 0, 1);
        s.aggressors = 0;
        assert_eq!(
            AdversarialTrace::new(s, &h, T_REFW).err(),
            Some(WorkloadError::ZeroAggressors)
        );

        let mut s = AdversarialSpec::preset(AttackKind::HammerDouble, 0, 1);
        s.window = 0;
        assert_eq!(
            AdversarialTrace::new(s, &h, T_REFW).err(),
            Some(WorkloadError::ZeroWindow)
        );

        let mut s = AdversarialSpec::preset(AttackKind::HammerDouble, 0, 1);
        s.window = T_REFW + 1;
        assert!(matches!(
            AdversarialTrace::new(s, &h, T_REFW).err(),
            Some(WorkloadError::WindowExceedsRefresh { .. })
        ));

        let s = AdversarialSpec::preset(AttackKind::HammerDouble, h.vaults as u16, 1);
        assert!(matches!(
            AdversarialTrace::new(s, &h, T_REFW).err(),
            Some(WorkloadError::VaultOutOfRange { .. })
        ));

        let mut s = AdversarialSpec::preset(AttackKind::HammerSingle, 0, 1);
        s.bank = h.banks_per_vault as u16;
        assert!(matches!(
            AdversarialTrace::new(s, &h, T_REFW).err(),
            Some(WorkloadError::BankOutOfRange { .. })
        ));

        let mut s = AdversarialSpec::preset(AttackKind::ConflictThrash, 0, 1);
        s.base_row = h.rows_per_bank - 1;
        s.aggressors = 8;
        assert!(matches!(
            AdversarialTrace::new(s, &h, T_REFW).err(),
            Some(WorkloadError::RowOutOfRange { .. })
        ));

        // Errors render as human-readable text.
        let msg = WorkloadError::WindowExceedsRefresh {
            window: 2,
            t_refw: 1,
        }
        .to_string();
        assert!(msg.contains("refresh window"));
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = trace(AttackKind::HammerDouble);
        let mut b = trace(AttackKind::HammerDouble);
        for _ in 0..500 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = AdversarialTrace::new(
            AdversarialSpec::preset(AttackKind::HammerDouble, 3, 43),
            &hmc(),
            T_REFW,
        )
        .unwrap();
        let same = (0..200).filter(|_| a.next_op() == c.next_op()).count();
        assert!(same < 200, "different seeds must jitter differently");
    }

    #[test]
    fn hammer_stays_on_its_aggressor_rows_and_defeats_caches() {
        let h = hmc();
        let mut t = trace(AttackKind::HammerDouble);
        let aggressor_rows: HashSet<u32> = t.rows.iter().copied().collect();
        let mut addrs = HashSet::new();
        let mut consecutive = None;
        let mut writes = 0u64;
        for _ in 0..4_000 {
            let (addr, kind) = t.next_op().mem.unwrap();
            if kind == AccessKind::Write {
                writes += 1;
            }
            assert!(addrs.insert(addr.0), "every access is a fresh cache line");
            let d = h.address_mapping().unwrap().decode(addr);
            assert_eq!(d.vault, 3);
            assert_eq!(d.bank, 0);
            assert!(aggressor_rows.contains(&d.row), "row {} strayed", d.row);
            // Back-to-back ops never repeat a row: each ACT closes the
            // previous aggressor.
            assert_ne!(consecutive, Some(d.row));
            consecutive = Some(d.row);
        }
        assert!(writes > 1_000, "hammer dirties rows ({writes} writes)");
    }

    #[test]
    fn single_sided_lone_aggressor_gets_a_dummy_row() {
        let h = hmc();
        let mut s = AdversarialSpec::preset(AttackKind::HammerSingle, 0, 7);
        s.aggressors = 1;
        let t = AdversarialTrace::new(s, &h, T_REFW).unwrap();
        assert_eq!(t.rows.len(), 2, "alternation partner forces precharges");
        assert_eq!(t.rows[1] - t.rows[0], h.rows_per_bank / 2);
    }

    #[test]
    fn thrash_cycles_more_rows_than_the_conflict_table() {
        let h = hmc();
        let mut t = trace(AttackKind::ConflictThrash);
        let mut rows = HashSet::new();
        for _ in 0..200 {
            let (addr, _) = t.next_op().mem.unwrap();
            rows.insert(h.address_mapping().unwrap().decode(addr).row);
        }
        assert_eq!(rows.len(), 48, "the full thrash set cycles before reuse");
    }

    #[test]
    fn pollution_abandons_pairs_and_dirties_them() {
        let h = hmc();
        let mut t = trace(AttackKind::BufferPollution);
        let touches = t.touches;
        let mut seen_rows: Vec<u32> = Vec::new();
        let mut writes = 0u64;
        let n = touches * 6;
        for i in 0..n {
            let (addr, kind) = t.next_op().mem.unwrap();
            let row = h.address_mapping().unwrap().decode(addr).row;
            if kind == AccessKind::Write {
                writes += 1;
            }
            // Rows from pairs older than the previous one never recur.
            if i / touches >= 2 {
                let stale_limit = t.spec.base_row + 2 * (i / touches - 1) as u32;
                assert!(row >= stale_limit, "row {row} resurrected at op {i}");
            }
            seen_rows.push(row);
        }
        let distinct: HashSet<_> = seen_rows.iter().collect();
        assert_eq!(distinct.len() as u64, 2 * (n / touches));
        assert!(
            writes > n / 4,
            "pollution must dirty rows ({writes} writes)"
        );
    }

    #[test]
    fn snapshot_resumes_identical_stream() {
        let mut a = trace(AttackKind::BufferPollution);
        for _ in 0..3_000 {
            a.next_op();
        }
        let state = a.save_state();
        let mut b = trace(AttackKind::BufferPollution);
        b.restore_state(&state).unwrap();
        for _ in 0..3_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        assert!(b.restore_state(&Value::Null).is_err());
    }
}
