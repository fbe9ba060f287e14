//! The five benchmark workloads: the machine each one runs on, the
//! inputs it builds from the seed, and how long it runs. README.md
//! records why each was chosen.

use camps::experiment::RunLength;
use camps::metrics::RunResult;
use camps::sweep::{run_sweep, SweepPolicy, SweepRun};
use camps::System;
use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
use camps_dram::TimingCpu;
use camps_prefetch::SchemeKind;
use camps_types::addr::PhysAddr;
use camps_types::config::SystemConfig;
use camps_workloads::{AdversarialSpec, AdversarialTrace, AttackKind, Mix, ALL_MIXES};
use std::time::{Duration, Instant};

/// Test builds run every workload at a miniature length: every run
/// length below is divided by this.
pub const SCALE: u64 = if cfg!(test) { 200 } else { 1 };

/// Worker threads of the matrix sweep (the only multi-threaded work).
pub const MATRIX_THREADS: usize = 2;

/// A benchmark workload, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hm1,
    Idle1Core,
    Mx14Cube,
    HammerWrites,
    Fig5Matrix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Hm1,
        Workload::Idle1Core,
        Workload::Mx14Cube,
        Workload::HammerWrites,
        Workload::Fig5Matrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hm1 => "hm1",
            Workload::Idle1Core => "idle-1core",
            Workload::Mx14Cube => "mx1-4cube",
            Workload::HammerWrites => "hammer-writes",
            Workload::Fig5Matrix => "fig5-matrix",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The work one repetition performs, with inputs built from `seed`.
    pub fn work(self, seed: u64) -> Work {
        let paper = SystemConfig::paper_default();
        let job = |cfg: SystemConfig, inputs, len, label| {
            Work::Single(Job {
                cfg,
                scheme: SchemeKind::CampsMod,
                inputs,
                seed,
                len,
                label,
            })
        };
        // The multi-core runs end at a fixed cycle horizon, so every seed
        // simulates the same number of cycles: time to a per-core
        // instruction target is set by the slowest core and swings by
        // up to a quarter across seeds, and hammer streams starve some cores so they
        // never reach one.
        match self {
            Workload::Hm1 => job(
                paper,
                Inputs::Mix(mix("HM1")),
                length(500_000, None, 200_000),
                "HM1",
            ),
            Workload::Idle1Core => {
                let mut cfg = paper;
                cfg.cpu.cores = 1;
                cfg.cpu.rob_entries = 64;
                job(
                    cfg,
                    Inputs::IdleChase,
                    length(2_000, Some(2_500_000), 400_000_000),
                    "idle-1core",
                )
            }
            Workload::Mx14Cube => {
                let mut cfg = paper;
                cfg.topology.cubes = 4;
                job(
                    cfg,
                    Inputs::Mix(mix("MX1")),
                    length(500_000, None, 150_000),
                    "MX1",
                )
            }
            Workload::HammerWrites => job(
                paper,
                Inputs::Hammer,
                length(2_000, None, 200_000),
                "hammer-double",
            ),
            Workload::Fig5Matrix => Work::Matrix(Matrix {
                cfg: paper,
                len: length(10_000, Some(5_000), 3_000_000),
                seed,
            }),
        }
    }
}

fn mix(id: &str) -> &'static Mix {
    Mix::by_id(id).expect("Table II mix ids are fixed")
}

/// A run length; with no per-core instruction target the run ends at
/// the `max_cycles` horizon.
fn length(warmup_instructions: u64, instructions: Option<u64>, max_cycles: u64) -> RunLength {
    RunLength {
        warmup_instructions: warmup_instructions / SCALE,
        instructions: instructions.map_or(u64::MAX, |i| i / SCALE),
        max_cycles: max_cycles / SCALE,
    }
}

/// What one repetition of a workload runs.
pub enum Work {
    Single(Job),
    Matrix(Matrix),
}

/// Where a job's per-core instruction streams come from.
#[derive(Debug, Clone, Copy)]
enum Inputs {
    Mix(&'static Mix),
    /// One core: a row-miss load behind a ROB's worth of compute, so the
    /// machine sleeps through every memory round trip.
    IdleChase,
    /// Double-sided RowHammer from every core, 32 aggressor rows each
    /// (more than the prefetch buffer holds), half of the ops stores.
    Hammer,
}

/// One simulated run: machine, scheme, inputs and length.
#[derive(Debug, Clone)]
pub struct Job {
    pub cfg: SystemConfig,
    pub scheme: SchemeKind,
    inputs: Inputs,
    seed: u64,
    pub len: RunLength,
    pub label: &'static str,
}

/// Host time of each set-up phase.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub trace_build: Duration,
    pub system_new: Duration,
    pub warmup: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.trace_build + self.system_new + self.warmup
    }
}

impl Job {
    /// Fresh instruction streams, one per core.
    pub fn traces(&self) -> Result<Vec<Box<dyn TraceSource>>, String> {
        let cfg = &self.cfg;
        match self.inputs {
            Inputs::Mix(mix) => {
                let capacity = cfg.cube_map().map_err(|e| e.to_string())?.capacity_bytes();
                mix.build_traces(capacity, self.seed)
                    .map_err(|e| e.to_string())
            }
            Inputs::IdleChase => {
                // Rows 512 KiB apart share one cache set, so every load
                // misses every cache level; the seed only orders them.
                let mut addrs: Vec<u64> = (0..2048u64).map(|i| i << 19).collect();
                shuffle(&mut addrs, self.seed);
                let gap = cfg.cpu.rob_entries - 1;
                let ops = addrs
                    .into_iter()
                    .map(|a| TraceOp::load(gap, PhysAddr(a)))
                    .collect();
                Ok(vec![Box::new(VecTrace::new("idle", ops))])
            }
            Inputs::Hammer => {
                let t_refw = TimingCpu::from_config(&cfg.dram, cfg.cpu.freq_hz).t_refi;
                (0..cfg.cpu.cores)
                    .map(|core| {
                        let vault = (core % cfg.hmc.vaults) as u16;
                        let mut spec = AdversarialSpec::preset(
                            AttackKind::HammerDouble,
                            vault,
                            self.seed.wrapping_add(u64::from(core)),
                        );
                        spec.aggressors = 32;
                        AdversarialTrace::new(spec, &cfg.hmc, t_refw)
                            .map(|t| Box::new(t) as Box<dyn TraceSource>)
                            .map_err(|e| e.to_string())
                    })
                    .collect()
            }
        }
    }

    /// Builds and warms the machine, timing each phase.
    pub fn setup(&self) -> Result<(System, SetupTimes), String> {
        let t0 = Instant::now();
        let traces = self.traces()?;
        let t1 = Instant::now();
        let mut sys = System::new(&self.cfg, self.scheme, traces).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        sys.warmup(self.len.warmup_instructions);
        let t3 = Instant::now();
        Ok((
            sys,
            SetupTimes {
                trace_build: t1 - t0,
                system_new: t2 - t1,
                warmup: t3 - t2,
            },
        ))
    }

    /// Runs a set-up machine to the end of the job.
    pub fn run(&self, sys: &mut System) -> Result<RunResult, String> {
        sys.run(self.len.instructions, self.len.max_cycles, self.label)
            .map_err(|e| format!("{}: {e}", self.label))
    }

    /// The same job with its measured part cut to `1/div` of the length.
    pub fn shortened(&self, div: u64) -> Job {
        let mut job = self.clone();
        if job.len.instructions == u64::MAX {
            job.len.max_cycles /= div;
        } else {
            job.len.instructions /= div;
        }
        job
    }

    /// Instructions the warmup streams, over all cores.
    pub fn warmup_instructions(&self) -> u64 {
        self.len.warmup_instructions * u64::from(self.cfg.cpu.cores)
    }
}

/// The paper matrix: every Table II mix under every scheme, run by the
/// sweep supervisor on [`MATRIX_THREADS`] threads with no journal.
pub struct Matrix {
    cfg: SystemConfig,
    len: RunLength,
    seed: u64,
}

impl Matrix {
    /// The matrix's jobs in the sweep's order (mix-major).
    pub fn jobs(&self) -> Vec<Job> {
        ALL_MIXES
            .iter()
            .flat_map(|mix| {
                SchemeKind::ALL.into_iter().map(move |scheme| Job {
                    cfg: self.cfg.clone(),
                    scheme,
                    inputs: Inputs::Mix(mix),
                    seed: self.seed,
                    len: self.len,
                    label: mix.id,
                })
            })
            .collect()
    }

    pub fn run(&self) -> Result<SweepRun, String> {
        let policy = SweepPolicy {
            threads: Some(MATRIX_THREADS),
            ..SweepPolicy::default()
        };
        run_sweep(
            &self.cfg,
            &ALL_MIXES,
            &SchemeKind::ALL,
            &self.len,
            self.seed,
            &policy,
        )
        .map_err(|e| format!("matrix sweep: {e}"))
    }
}

/// Fisher–Yates shuffle driven by splitmix64, so the order depends on
/// the seed alone.
fn shuffle(items: &mut [u64], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}
