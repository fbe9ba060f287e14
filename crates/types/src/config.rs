//! Full system configuration.
//!
//! [`SystemConfig::paper_default`] reproduces Table I of the paper:
//!
//! | Component | Parameter |
//! |---|---|
//! | Processor | 8 cores @ 3 GHz, 4-wide, out-of-order |
//! | L1 (D) | 32 KB private, 2-way, 2-cycle hit |
//! | L2 | 256 KB private, 4-way, 6-cycle hit |
//! | L3 | 16 MB shared, 16-way, 20-cycle hit, 64 B lines |
//! | HMC | 8 DRAM layers, 32 vaults, 2 banks/vault-layer, 1 KB row buffer |
//! | Vault ctl | DDR3-1600, R/W queues of 32, tRCD=tRP=tCL=11 |
//! | Links | 4 serial links, 16+16 lanes full duplex, 12.5 Gbps |
//! | PF buffer | 16 KB per vault, fully associative, 1 KB line, 22-cycle hit |
//! | Mapping | RoRaBaVaCo; FR-FCFS scheduling; open-page policy |

use crate::addr::{AddressMapping, CubeMap, MappingScheme};
use crate::clock::{ClockDomain, Cycle};
use crate::error::ConfigError;
use serde::{Deserialize, Serialize};

/// Core pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Number of cores (Table I: 8).
    pub cores: u32,
    /// Core clock in Hz (Table I: 3 GHz).
    pub freq_hz: u64,
    /// Instructions issued into the ROB per cycle (Table I: 4).
    pub issue_width: u32,
    /// Instructions retired from the ROB head per cycle.
    pub retire_width: u32,
    /// Reorder-buffer capacity; bounds memory-level parallelism.
    pub rob_entries: u32,
    /// Store-buffer capacity; stores retire into it without stalling until
    /// it fills.
    pub store_buffer_entries: u32,
}

/// One level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u32,
    /// Lookup-to-data latency in CPU cycles.
    pub hit_latency: Cycle,
    /// Miss-status holding registers — bounds outstanding misses.
    pub mshrs: u32,
}

impl CacheLevelConfig {
    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * u64::from(self.line_bytes))
    }
}

/// Physical organization of the cube (drives the address mapping).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HmcGeometry {
    /// Number of vaults (Table I: 32).
    pub vaults: u32,
    /// Banks per vault (Table I: 2 banks/vault-layer × 8 layers = 16).
    pub banks_per_vault: u32,
    /// Ranks (HMC has none; kept at 1 for the `Ra` field of the mapping).
    pub ranks: u32,
    /// Rows per bank (8192 → 4 GiB cube with the other Table I values).
    pub rows_per_bank: u32,
    /// Row-buffer size in bytes (Table I: 1 KB) — the prefetch granularity.
    pub row_bytes: u32,
    /// Cache-block size in bytes (Table I: 64 B).
    pub block_bytes: u32,
    /// Address interleaving scheme (Table I: RoRaBaVaCo).
    pub mapping: MappingScheme,
}

impl HmcGeometry {
    /// Builds the address mapping for this geometry.
    ///
    /// # Errors
    /// Propagates geometry validation failures.
    pub fn address_mapping(&self) -> Result<AddressMapping, ConfigError> {
        AddressMapping::new(
            self.mapping,
            self.vaults,
            self.banks_per_vault,
            self.ranks,
            self.rows_per_bank,
            self.row_bytes,
            self.block_bytes,
        )
    }

    /// Blocks per row (16 for 1 KB rows of 64 B blocks).
    #[must_use]
    pub fn blocks_per_row(&self) -> u32 {
        self.row_bytes / self.block_bytes
    }
}

/// DRAM timing parameters, in *memory-bus cycles* (DDR3-1600 → 800 MHz).
///
/// Table I pins tRCD = tRP = tCL = 11; the remaining constraints use
/// standard DDR3-1600 values (documented per field) so the bank state
/// machine is complete.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTimingConfig {
    /// Memory command-clock frequency in Hz (DDR3-1600 → 800 MHz).
    pub freq_hz: u64,
    /// ACT → RD/WR delay (Table I: 11).
    pub t_rcd: u64,
    /// PRE → ACT delay (Table I: 11).
    pub t_rp: u64,
    /// RD → first data (CAS latency; Table I: 11).
    pub t_cl: u64,
    /// ACT → PRE minimum row-open time (DDR3-1600: 28).
    pub t_ras: u64,
    /// ACT → ACT same bank (DDR3-1600: 39 ≈ tRAS + tRP).
    pub t_rc: u64,
    /// End of write burst → PRE (write recovery; DDR3-1600: 12).
    pub t_wr: u64,
    /// RD → PRE (read-to-precharge; DDR3-1600: 6).
    pub t_rtp: u64,
    /// Burst-to-burst gap on the data TSVs (DDR3-1600: 4).
    pub t_ccd: u64,
    /// ACT → ACT different banks, same vault (DDR3-1600: 5).
    pub t_rrd: u64,
    /// Rolling window for at most four ACTs per vault (DDR3-1600: 24).
    pub t_faw: u64,
    /// Data-burst length for one 64 B block over the vault TSVs (4).
    pub t_burst: u64,
    /// Write latency (WL; DDR3-1600: 8).
    pub t_wl: u64,
    /// Total TSV bus time to stream a whole 1 KB row between a bank and
    /// the prefetch buffer, in memory cycles. The vault controller grants
    /// it one burst-slot at a time (interruptible by demand bursts). 40
    /// cycles = 10 burst slots for 16 blocks: the row-wide internal path
    /// runs at 1.6× the external burst rate — the "huge internal
    /// bandwidth" of §2.4, calibrated so the evaluation's BASE scheme
    /// lands where the paper puts it (see EXPERIMENTS.md).
    pub t_row_transfer: u64,
    /// All-bank refresh interval per vault (DDR3: 7.8 µs → 6240 cycles).
    /// §2.1: "The vault controller manages the lower level DRAM commands
    /// like address mapping, refreshing and memory access scheduling."
    /// Zero disables refresh (ablation).
    pub t_refi: u64,
    /// All-bank refresh duration (DDR3 4 Gb: ~260 ns → 208 cycles).
    pub t_rfc: u64,
}

impl DramTimingConfig {
    /// Converter from memory cycles into CPU cycles for a given core clock.
    #[must_use]
    pub fn domain(&self, cpu_hz: u64) -> ClockDomain {
        ClockDomain::new(cpu_hz, self.freq_hz)
    }
}

/// Memory-access scheduling algorithm used by each vault controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// First-ready, first-come-first-serve (Table I; Rixner et al. \[31\]).
    FrFcfs,
    /// Strict arrival order — ablation baseline.
    Fcfs,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PagePolicy {
    /// Keep rows open after access (Table I).
    Open,
    /// Precharge immediately after each access — ablation alternative.
    Closed,
}

/// Per-vault controller parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VaultConfig {
    /// Read-queue capacity (Table I: 32).
    pub read_queue: u32,
    /// Write-queue capacity (Table I: 32).
    pub write_queue: u32,
    /// Scheduling algorithm (Table I: FR-FCFS).
    pub scheduler: SchedulerKind,
    /// Page policy (Table I: open).
    pub page_policy: PagePolicy,
    /// Write drain starts when the write queue reaches this occupancy.
    pub write_drain_high: u32,
    /// Write drain stops when occupancy falls back to this level.
    pub write_drain_low: u32,
}

/// Serial-link and crossbar parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Number of full-duplex serial links (Table I: 4).
    pub links: u32,
    /// Lanes per direction per link (Table I: 16).
    pub lanes: u32,
    /// Per-lane line rate in Gbps (Table I: 12.5).
    pub lane_gbps: f64,
    /// FLIT size in bytes (HMC 2.1 protocol: 16).
    pub flit_bytes: u32,
    /// Fixed one-way latency (SerDes + flight + link-layer) in CPU cycles.
    pub propagation_cycles: Cycle,
    /// Crossbar traversal latency in CPU cycles.
    pub xbar_cycles: Cycle,
    /// Link-layer flow-control tokens per link (max FLITs in flight).
    pub tokens: u32,
    /// Power management (Ahn et al. \[13\]): a link direction with no
    /// traffic for this many CPU cycles drops into a low-power state and
    /// pays [`LinkConfig::wake_cycles`] on the next packet. 0 disables.
    #[serde(default)]
    pub sleep_after_idle: Cycle,
    /// Cycles to re-train a sleeping link before it can serialize again.
    #[serde(default)]
    pub wake_cycles: Cycle,
}

impl LinkConfig {
    /// FLITs needed for a request/response carrying `data_bytes` of payload
    /// (one header+tail FLIT plus the data).
    #[must_use]
    pub fn flits_for(&self, data_bytes: u32) -> u32 {
        1 + data_bytes.div_ceil(self.flit_bytes)
    }
}

/// Prefetch-engine parameters shared by all schemes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefetchBufferConfig {
    /// Row entries per vault (Table I: 16 KB / 1 KB lines = 16, fully
    /// associative).
    pub entries: u32,
    /// Buffer hit latency in CPU cycles (Table I: 22).
    pub hit_latency: Cycle,
    /// Row-utilization threshold that triggers a prefetch in CAMPS (§3.1:
    /// "four in our experiment").
    pub rut_threshold: u32,
    /// Conflict-table entries per vault (§3.1: 32, fully associative, LRU).
    pub ct_entries: u32,
    /// Minimum accumulated CT utilization evidence (past residencies plus
    /// the reactivating access) before a CT hit fires the prefetch. 2
    /// reproduces the paper's letter (any re-activation fires); the CT's
    /// 20-bit entries carry utilization counts, which this threshold
    /// consults.
    pub ct_evidence: u32,
    /// MMD usefulness-feedback epoch, in prefetches issued.
    pub mmd_epoch: u32,
    /// Aggressively push prefetched rows to the shared LLC over the serial
    /// links (the design the paper argues AGAINST in §2.4: it burns
    /// response-link bandwidth and pollutes the cache). Off by default;
    /// the `ablate_push_llc` experiment (`cargo bench -p camps-bench
    /// --bench experiments -- ablate_push_llc`) turns it on to test the
    /// claim.
    #[serde(default)]
    pub push_to_llc: bool,
}

/// Per-operation energy constants, in nanojoules, plus static power.
///
/// Absolute values are modeled constants (the paper reports only energy
/// *normalized to BASE*, which depends on operation counts); defaults are in
/// the range of published DDR3/HMC figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyConfig {
    /// One activate + precharge pair of a 1 KB row.
    pub act_pre_nj: f64,
    /// One 64 B read burst (array + TSV).
    pub rd_burst_nj: f64,
    /// One 64 B write burst.
    pub wr_burst_nj: f64,
    /// Streaming a whole row between bank and prefetch buffer.
    pub row_transfer_nj: f64,
    /// One prefetch-buffer (SRAM) access.
    pub buffer_access_nj: f64,
    /// One FLIT across a serial link (SerDes energy dominates).
    pub link_flit_nj: f64,
    /// One all-bank refresh of a vault (16 banks × all rows batch).
    pub refresh_nj: f64,
    /// Static background power per vault, in milliwatts.
    pub background_mw_per_vault: f64,
}

/// A conservative core-side next-line prefetcher (\[13\]'s two-level
/// prefetching companion: a core-side prefetcher working *with* the
/// memory-side one). On an L3 demand miss to block `B`, also fetch
/// `B + degree` blocks into the shared LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreSidePrefetchConfig {
    /// Enable the core-side next-line prefetcher.
    pub enable: bool,
    /// Sequential blocks fetched per demand miss (1 = next line).
    pub degree: u32,
}

impl Default for CoreSidePrefetchConfig {
    fn default() -> Self {
        Self {
            enable: false,
            degree: 1,
        }
    }
}

/// Per-row activation tracking and TRR/PARA-style RowHammer mitigation
/// inside each vault controller. Tracking is always on (it is pure
/// observation — counters only, no timing effect); the mitigation knob
/// is **off by default** so paper results are untouched. One all-bank
/// refresh happens every `tREFI` and refreshes *every* row in this
/// model, so `tREFI` is the effective activation window (tREFW) the
/// per-row counters are measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowGuardConfig {
    /// Inject a TRR-style neighbor refresh (stealing bank time) whenever
    /// a row crosses `threshold` activations inside one refresh window.
    pub enable_mitigation: bool,
    /// In-window activation count that triggers mitigation. Must be
    /// nonzero when mitigation is enabled. The default sits far above
    /// anything a benign workload reaches within one ~23 k-cycle window
    /// (a bank can fit at most ~tREFI/tRC ≈ 160 activations) but well
    /// inside an aggressor stream's reach.
    pub threshold: u32,
}

impl Default for RowGuardConfig {
    fn default() -> Self {
        Self {
            enable_mitigation: false,
            threshold: 64,
        }
    }
}

/// How the cubes of a multi-cube pool are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TopologyKind {
    /// Cubes daisy-chained off the host: cube 0 is host-attached, cube
    /// `i` sits `i` pass-through hops away (the HMC spec's chaining
    /// story).
    #[default]
    Chain,
    /// Cube 0 is host-attached and doubles as the hub: every other cube
    /// hangs one hop off it over a dedicated link pair.
    Star,
}

impl TopologyKind {
    /// Stable name used in CLI parsing and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Chain => "chain",
            TopologyKind::Star => "star",
        }
    }
}

impl std::str::FromStr for TopologyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "chain" => Ok(Self::Chain),
            "star" => Ok(Self::Star),
            other => Err(format!("unknown topology `{other}` (chain|star)")),
        }
    }
}

/// Multi-cube pool parameters. The default (`cubes = 1`) is the paper's
/// single-cube machine: no cube-id bits are spliced into the address,
/// no interconnect exists, and the engine is bit-identical to the
/// pre-topology code.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Number of cubes in the pool (power of two; 1 = single-cube).
    pub cubes: u32,
    /// Interconnect shape (ignored with one cube — there are no hops).
    pub kind: TopologyKind,
    /// Extra one-way propagation latency per inter-cube hop, in CPU
    /// cycles (SerDes retime + pass-through switching).
    pub hop_cycles: Cycle,
    /// Address-interleave granularity across cubes, in blocks (power of
    /// two). 1 = consecutive blocks round-robin across cubes; raise it
    /// to keep whole rows cube-local (`row_bytes / block_bytes` keeps a
    /// row's blocks on one cube, which is what memory-side row
    /// prefetching wants).
    pub interleave_blocks: u32,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            cubes: 1,
            kind: TopologyKind::Chain,
            hop_cycles: 10,
            interleave_blocks: 16,
        }
    }
}

impl TopologyConfig {
    /// Builds the cube-interleaving address stage for this pool over the
    /// per-cube geometry.
    ///
    /// # Errors
    /// Propagates geometry/topology validation failures.
    pub fn cube_map(&self, hmc: &HmcGeometry) -> Result<CubeMap, ConfigError> {
        CubeMap::new(hmc.address_mapping()?, self.cubes, self.interleave_blocks)
    }
}

/// Runtime integrity checking: the request auditor and the forward-progress
/// watchdog. Both are *checkers*, not model features — they never change
/// simulated behavior, only whether a broken run fails loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegrityConfig {
    /// Enable the request-lifetime auditor in release builds (debug builds
    /// audit unconditionally; the auditor is cheap but not free).
    pub audit: bool,
    /// Forward-progress watchdog: abort with a diagnostic dump if no core
    /// retires an instruction and no memory response is delivered for this
    /// many CPU cycles while work is pending. 0 disables the watchdog.
    pub watchdog_cycles: Cycle,
    /// Unused: the run driver takes its checkpoint schedule from
    /// `camps::experiment::RunSpec::checkpoint`. Kept so the serialized
    /// config, and the config hash that checkpoint manifests pin, stay
    /// unchanged. `Some(0)` is still rejected by validation
    /// ([`ConfigError::ZeroCheckpointInterval`]).
    #[serde(default)]
    pub checkpoint_every: Option<Cycle>,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        Self {
            audit: false,
            // Far above any legitimate stall (refresh is ~10^3 cycles,
            // a full write drain ~10^4): only a wedged machine waits this
            // long with zero retirements and zero responses.
            watchdog_cycles: 200_000,
            checkpoint_every: None,
        }
    }
}

/// A deterministic fault-injection schedule. All fields default to "off";
/// each activated fault exists to prove an integrity check fires (the
/// watchdog for starvation faults, the auditor for conservation faults,
/// typed trace errors for corruption faults). Faults are injected at the
/// same model boundaries real bugs would corrupt, so a passing
/// fault-injection test certifies the corresponding detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Drop every Nth request packet at crossbar delivery instead of
    /// handing it to its vault (0 = never). A dropped demand read wedges
    /// its MSHR forever — the watchdog must catch it.
    #[serde(default)]
    pub drop_request_every: u64,
    /// Deliver every Nth vault response to the host twice (0 = never).
    /// The auditor must flag the second arrival as a duplicate completion.
    #[serde(default)]
    pub duplicate_response_every: u64,
    /// Index of a vault to stall (ignored unless `stall_vault_from > 0`).
    #[serde(default)]
    pub stall_vault: u32,
    /// First cycle at which `stall_vault` stops being ticked — its queues
    /// fill and its requests never complete (0 = never stall).
    #[serde(default)]
    pub stall_vault_from: Cycle,
    /// Truncate a serialized trace image to this many bytes before
    /// decoding (0 = leave intact). Applied by
    /// [`FaultPlan::mangle_trace_bytes`].
    #[serde(default)]
    pub trace_truncate_to: u64,
    /// Overwrite the trace magic with garbage before decoding.
    #[serde(default)]
    pub trace_corrupt_magic: bool,
}

impl FaultPlan {
    /// True when any fault is scheduled.
    #[must_use]
    pub fn any_active(&self) -> bool {
        *self != Self::default()
    }

    /// Applies the trace-corruption faults to a serialized trace image:
    /// truncation first, then magic corruption. With both trace faults
    /// off this is the identity.
    #[must_use]
    pub fn mangle_trace_bytes(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        if self.trace_truncate_to > 0 {
            bytes.truncate(usize::try_from(self.trace_truncate_to).unwrap_or(usize::MAX));
        }
        if self.trace_corrupt_magic {
            for (i, b) in bytes.iter_mut().take(8).enumerate() {
                *b = 0xA5 ^ (i as u8);
            }
        }
        bytes
    }
}

/// The complete simulated system. Construct via [`SystemConfig::paper_default`]
/// (Table I) or [`SystemConfig::small`] (scaled-down, for fast tests), then
/// customize fields and call [`SystemConfig::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core pipeline parameters.
    pub cpu: CpuConfig,
    /// Private L1 data cache.
    pub l1: CacheLevelConfig,
    /// Private L2.
    pub l2: CacheLevelConfig,
    /// Shared L3.
    pub l3: CacheLevelConfig,
    /// Cube geometry.
    pub hmc: HmcGeometry,
    /// DRAM timing.
    pub dram: DramTimingConfig,
    /// Vault-controller parameters.
    pub vault: VaultConfig,
    /// Serial links and crossbar.
    pub link: LinkConfig,
    /// Multi-cube pool shape (defaults to the single-cube machine).
    #[serde(default)]
    pub topology: TopologyConfig,
    /// Prefetch engine.
    pub prefetch: PrefetchBufferConfig,
    /// Optional core-side next-line prefetcher (two-level prefetching).
    #[serde(default)]
    pub core_prefetch: CoreSidePrefetchConfig,
    /// Per-row activation tracking + optional RowHammer mitigation.
    #[serde(default)]
    pub rowguard: RowGuardConfig,
    /// Energy model constants.
    pub energy: EnergyConfig,
    /// Request auditing and watchdog thresholds.
    #[serde(default)]
    pub integrity: IntegrityConfig,
    /// Fault-injection schedule (all-off by default).
    #[serde(default)]
    pub faults: FaultPlan,
}

impl SystemConfig {
    /// The configuration of Table I of the paper.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            cpu: CpuConfig {
                cores: 8,
                freq_hz: 3_000_000_000,
                issue_width: 4,
                retire_width: 4,
                rob_entries: 192,
                store_buffer_entries: 32,
            },
            l1: CacheLevelConfig {
                size_bytes: 32 << 10,
                ways: 2,
                line_bytes: 64,
                hit_latency: 2,
                mshrs: 8,
            },
            l2: CacheLevelConfig {
                size_bytes: 256 << 10,
                ways: 4,
                line_bytes: 64,
                hit_latency: 6,
                mshrs: 16,
            },
            l3: CacheLevelConfig {
                size_bytes: 16 << 20,
                ways: 16,
                line_bytes: 64,
                hit_latency: 20,
                mshrs: 64,
            },
            hmc: HmcGeometry {
                vaults: 32,
                banks_per_vault: 16,
                ranks: 1,
                rows_per_bank: 8192,
                row_bytes: 1024,
                block_bytes: 64,
                mapping: MappingScheme::RoRaBaVaCo,
            },
            dram: DramTimingConfig {
                freq_hz: 800_000_000,
                t_rcd: 11,
                t_rp: 11,
                t_cl: 11,
                t_ras: 28,
                t_rc: 39,
                t_wr: 12,
                t_rtp: 6,
                t_ccd: 4,
                t_rrd: 5,
                t_faw: 24,
                t_burst: 4,
                t_wl: 8,
                t_row_transfer: 40,
                t_refi: 6240,
                t_rfc: 208,
            },
            vault: VaultConfig {
                read_queue: 32,
                write_queue: 32,
                scheduler: SchedulerKind::FrFcfs,
                page_policy: PagePolicy::Open,
                write_drain_high: 24,
                write_drain_low: 8,
            },
            link: LinkConfig {
                links: 4,
                lanes: 16,
                lane_gbps: 12.5,
                flit_bytes: 16,
                propagation_cycles: 10,
                xbar_cycles: 3,
                tokens: 64,
                sleep_after_idle: 0,
                wake_cycles: 0,
            },
            topology: TopologyConfig::default(),
            core_prefetch: CoreSidePrefetchConfig::default(),
            rowguard: RowGuardConfig::default(),
            prefetch: PrefetchBufferConfig {
                entries: 16,
                hit_latency: 22,
                rut_threshold: 4,
                ct_entries: 32,
                ct_evidence: 3,
                mmd_epoch: 32,
                push_to_llc: false,
            },
            energy: EnergyConfig {
                act_pre_nj: 2.0,
                rd_burst_nj: 1.0,
                wr_burst_nj: 1.1,
                row_transfer_nj: 1.5,
                buffer_access_nj: 0.1,
                link_flit_nj: 0.5,
                refresh_nj: 30.0,
                background_mw_per_vault: 80.0,
            },
            integrity: IntegrityConfig::default(),
            faults: FaultPlan::default(),
        }
    }

    /// A scaled-down system (4 vaults, 8 banks, 256 rows, 2 cores, small
    /// caches) that keeps every mechanism active while making unit and
    /// integration tests fast. Timing parameters are unchanged.
    #[must_use]
    pub fn small() -> Self {
        let mut c = Self::paper_default();
        c.cpu.cores = 2;
        c.l1.size_bytes = 4 << 10;
        c.l2.size_bytes = 16 << 10;
        c.l3.size_bytes = 128 << 10;
        c.l3.ways = 8;
        c.hmc.vaults = 4;
        c.hmc.banks_per_vault = 8;
        c.hmc.rows_per_bank = 256;
        c.prefetch.entries = 8;
        c.prefetch.ct_entries = 16;
        c
    }

    /// The cube-interleaving address stage for this machine (identity
    /// splice with one cube).
    ///
    /// # Errors
    /// Propagates geometry/topology validation failures.
    pub fn cube_map(&self) -> Result<CubeMap, ConfigError> {
        self.topology.cube_map(&self.hmc)
    }

    /// Clock-domain converter for the DRAM command clock.
    #[must_use]
    pub fn dram_domain(&self) -> ClockDomain {
        self.dram.domain(self.cpu.freq_hz)
    }

    /// Worst-case latency of a single legitimate DRAM access in CPU
    /// cycles: a row-buffer conflict (precharge + activate + CAS + burst)
    /// that additionally arrives just as an all-bank refresh starts. Any
    /// watchdog window below this would flag a healthy machine as wedged.
    #[must_use]
    pub fn worst_case_access_cycles(&self) -> Cycle {
        let d = &self.dram;
        let dram_cycles = d.t_rfc + d.t_rp + d.t_rcd + d.t_cl + d.t_burst;
        self.dram_domain().to_cpu_cycles(dram_cycles)
    }

    /// Checks structural invariants across the whole configuration.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cpu.cores == 0 {
            return Err(ConfigError::Invalid {
                field: "cpu.cores",
                reason: "zero".into(),
            });
        }
        if self.cpu.issue_width == 0 || self.cpu.retire_width == 0 {
            return Err(ConfigError::Invalid {
                field: "cpu.issue_width",
                reason: "issue/retire width must be nonzero".into(),
            });
        }
        if self.cpu.rob_entries == 0 {
            return Err(ConfigError::Invalid {
                field: "cpu.rob_entries",
                reason: "zero".into(),
            });
        }
        self.hmc.address_mapping()?;
        self.topology.cube_map(&self.hmc)?;
        for (name, c) in [("l1", &self.l1), ("l2", &self.l2), ("l3", &self.l3)] {
            if c.line_bytes != self.hmc.block_bytes {
                return Err(ConfigError::Invalid {
                    field: name,
                    reason: format!(
                        "line size {} must equal HMC block size {}",
                        c.line_bytes, self.hmc.block_bytes
                    ),
                });
            }
            if c.ways == 0 || c.sets() == 0 || !c.sets().is_power_of_two() {
                return Err(ConfigError::Invalid {
                    field: name,
                    reason: "sets must be a nonzero power of two".into(),
                });
            }
            if c.mshrs == 0 {
                return Err(ConfigError::Invalid {
                    field: name,
                    reason: "mshrs zero".into(),
                });
            }
        }
        if self.dram.t_ras + self.dram.t_rp > self.dram.t_rc {
            return Err(ConfigError::Invalid {
                field: "dram.t_rc",
                reason: "tRC must cover tRAS + tRP".into(),
            });
        }
        if self.vault.read_queue == 0 || self.vault.write_queue == 0 {
            return Err(ConfigError::Invalid {
                field: "vault.read_queue",
                reason: "queues must be nonzero".into(),
            });
        }
        if self.vault.write_drain_low >= self.vault.write_drain_high
            || self.vault.write_drain_high > self.vault.write_queue
        {
            return Err(ConfigError::Invalid {
                field: "vault.write_drain_high",
                reason: "need low < high <= write_queue".into(),
            });
        }
        if self.link.links == 0 || self.link.lanes == 0 || self.link.lane_gbps <= 0.0 {
            return Err(ConfigError::Invalid {
                field: "link",
                reason: "links need lanes and bandwidth".into(),
            });
        }
        if self.link.tokens == 0 {
            return Err(ConfigError::Invalid {
                field: "link.tokens",
                reason: "flow control needs at least one token".into(),
            });
        }
        if self.prefetch.entries == 0 {
            return Err(ConfigError::Invalid {
                field: "prefetch.entries",
                reason: "prefetch buffer must hold at least one row".into(),
            });
        }
        if !self.prefetch.entries.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "prefetch.entries",
                value: u64::from(self.prefetch.entries),
            });
        }
        if self.prefetch.rut_threshold == 0 {
            return Err(ConfigError::Invalid {
                field: "prefetch.rut_threshold",
                reason: "threshold must be at least 1".into(),
            });
        }
        if self.integrity.watchdog_cycles > 0 {
            let floor = self.worst_case_access_cycles();
            if self.integrity.watchdog_cycles < floor {
                return Err(ConfigError::WatchdogTooShort {
                    window: self.integrity.watchdog_cycles,
                    floor,
                });
            }
        }
        if self.rowguard.enable_mitigation && self.rowguard.threshold == 0 {
            return Err(ConfigError::Invalid {
                field: "rowguard.threshold",
                reason: "mitigation needs a nonzero activation threshold".into(),
            });
        }
        if self.integrity.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        if self.faults.stall_vault_from > 0 && self.faults.stall_vault >= self.hmc.vaults {
            return Err(ConfigError::Invalid {
                field: "faults.stall_vault",
                reason: format!(
                    "vault {} out of range (cube has {})",
                    self.faults.stall_vault, self.hmc.vaults
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        SystemConfig::paper_default().validate().unwrap();
    }

    #[test]
    fn small_is_valid() {
        SystemConfig::small().validate().unwrap();
    }

    #[test]
    fn topology_defaults_to_one_chained_cube() {
        let t = TopologyConfig::default();
        assert_eq!(t.cubes, 1);
        assert_eq!(t.kind, TopologyKind::Chain);
        assert_eq!(t.kind.name(), "chain");
        let cm = SystemConfig::paper_default().cube_map().unwrap();
        assert_eq!(cm.cubes(), 1);
    }

    #[test]
    fn pre_topology_config_json_still_deserializes() {
        // Configs serialized before the topology field existed must load
        // with the single-cube default.
        use serde::value::Value;
        use serde::{Deserialize as _, Serialize as _};
        let mut v = SystemConfig::paper_default().to_value();
        if let Value::Map(entries) = &mut v {
            entries.retain(|(k, _)| k != "topology");
        }
        let cfg = SystemConfig::from_value(&v).unwrap();
        assert_eq!(cfg.topology, TopologyConfig::default());
        cfg.validate().unwrap();
    }

    #[test]
    fn topology_round_trips_through_json() {
        let mut cfg = SystemConfig::paper_default();
        cfg.topology.cubes = 4;
        cfg.topology.kind = TopologyKind::Star;
        cfg.validate().unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.topology, cfg.topology);
    }

    #[test]
    fn non_power_of_two_cube_count_rejected() {
        let mut cfg = SystemConfig::paper_default();
        cfg.topology.cubes = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn topology_kind_parses() {
        assert_eq!("chain".parse::<TopologyKind>(), Ok(TopologyKind::Chain));
        assert_eq!("star".parse::<TopologyKind>(), Ok(TopologyKind::Star));
        assert!("ring".parse::<TopologyKind>().is_err());
    }

    #[test]
    fn paper_default_matches_table1() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.cpu.cores, 8);
        assert_eq!(c.cpu.issue_width, 4);
        assert_eq!(c.l1.size_bytes, 32 << 10);
        assert_eq!(c.l1.ways, 2);
        assert_eq!(c.l1.hit_latency, 2);
        assert_eq!(c.l2.size_bytes, 256 << 10);
        assert_eq!(c.l2.hit_latency, 6);
        assert_eq!(c.l3.size_bytes, 16 << 20);
        assert_eq!(c.l3.ways, 16);
        assert_eq!(c.l3.hit_latency, 20);
        assert_eq!(c.hmc.vaults, 32);
        assert_eq!(c.hmc.banks_per_vault, 16);
        assert_eq!(c.hmc.row_bytes, 1024);
        assert_eq!(c.dram.t_rcd, 11);
        assert_eq!(c.dram.t_rp, 11);
        assert_eq!(c.dram.t_cl, 11);
        assert_eq!(c.vault.read_queue, 32);
        assert_eq!(c.link.links, 4);
        assert_eq!(c.link.lanes, 16);
        assert_eq!(c.prefetch.entries, 16); // 16 KB / 1 KB lines
        assert_eq!(c.prefetch.hit_latency, 22);
        assert_eq!(c.prefetch.rut_threshold, 4);
        assert_eq!(c.prefetch.ct_entries, 32);
        assert_eq!(c.vault.scheduler, SchedulerKind::FrFcfs);
        assert_eq!(c.vault.page_policy, PagePolicy::Open);
    }

    #[test]
    fn l3_sets_power_of_two() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.l3.sets(), 16384);
        assert_eq!(c.l1.sets(), 256);
    }

    #[test]
    fn mismatched_line_size_rejected() {
        let mut c = SystemConfig::paper_default();
        c.l1.line_bytes = 32;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_tras_trc_rejected() {
        let mut c = SystemConfig::paper_default();
        c.dram.t_rc = 10;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_drain_watermarks_rejected() {
        let mut c = SystemConfig::paper_default();
        c.vault.write_drain_low = c.vault.write_drain_high;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::paper_default();
        c.vault.write_drain_high = c.vault.write_queue + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_prefetch_entries_rejected() {
        let mut c = SystemConfig::paper_default();
        c.prefetch.entries = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn non_power_of_two_prefetch_entries_rejected() {
        let mut c = SystemConfig::paper_default();
        c.prefetch.entries = 12;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NotPowerOfTwo {
                field: "prefetch.entries",
                value: 12,
            })
        ));
        c.prefetch.entries = 16;
        c.validate().unwrap();
    }

    #[test]
    fn watchdog_below_worst_case_access_rejected() {
        let mut c = SystemConfig::paper_default();
        let floor = c.worst_case_access_cycles();
        assert!(floor > 0);
        c.integrity.watchdog_cycles = floor - 1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::WatchdogTooShort { window, floor: f })
                if window == floor - 1 && f == floor
        ));
        // Exactly the floor, or disabled entirely, is legal.
        c.integrity.watchdog_cycles = floor;
        c.validate().unwrap();
        c.integrity.watchdog_cycles = 0;
        c.validate().unwrap();
    }

    #[test]
    fn zero_checkpoint_interval_rejected() {
        let mut c = SystemConfig::paper_default();
        c.integrity.checkpoint_every = Some(0);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ZeroCheckpointInterval)
        ));
        c.integrity.checkpoint_every = Some(100_000);
        c.validate().unwrap();
        c.integrity.checkpoint_every = None;
        c.validate().unwrap();
    }

    #[test]
    fn flit_count_for_read_response() {
        let c = SystemConfig::paper_default();
        // 64 B data + 1 header/tail FLIT = 5 FLITs.
        assert_eq!(c.link.flits_for(64), 5);
        // A bare read request is a single FLIT.
        assert_eq!(c.link.flits_for(0), 1);
    }

    #[test]
    fn config_round_trips_through_json() {
        let c = SystemConfig::paper_default();
        let s = serde_json::to_string(&c).unwrap();
        let d: SystemConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn default_fault_plan_is_inert_and_identity_on_traces() {
        let plan = FaultPlan::default();
        assert!(!plan.any_active());
        let bytes = vec![1u8, 2, 3, 4];
        assert_eq!(plan.mangle_trace_bytes(bytes.clone()), bytes);
    }

    #[test]
    fn fault_plan_truncates_then_corrupts_magic() {
        let plan = FaultPlan {
            trace_truncate_to: 3,
            trace_corrupt_magic: true,
            ..FaultPlan::default()
        };
        assert!(plan.any_active());
        let out = plan.mangle_trace_bytes(vec![b'C'; 16]);
        assert_eq!(out.len(), 3);
        assert_ne!(&out[..3], b"CCC");
    }

    #[test]
    fn stalling_a_nonexistent_vault_is_rejected() {
        let mut c = SystemConfig::small();
        c.faults.stall_vault = c.hmc.vaults;
        c.faults.stall_vault_from = 1;
        assert!(c.validate().is_err());
        c.faults.stall_vault_from = 0; // inactive plan: index not checked
        c.validate().unwrap();
    }

    #[test]
    fn rowguard_defaults_to_observation_only() {
        let r = RowGuardConfig::default();
        assert!(!r.enable_mitigation);
        assert!(r.threshold > 0);
    }

    #[test]
    fn enabled_mitigation_needs_nonzero_threshold() {
        let mut c = SystemConfig::paper_default();
        c.rowguard.threshold = 0;
        // Observation-only: a zero threshold is inert and legal.
        c.validate().unwrap();
        c.rowguard.enable_mitigation = true;
        assert!(c.validate().is_err());
        c.rowguard.threshold = 32;
        c.validate().unwrap();
    }

    #[test]
    fn integrity_defaults_watchdog_on_audit_off() {
        let i = IntegrityConfig::default();
        assert!(!i.audit);
        assert!(i.watchdog_cycles > 0);
    }

    #[test]
    fn dram_domain_ratio() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.dram_domain().ratio(), (15, 4));
    }
}
