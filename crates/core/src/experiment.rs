//! The run driver.
//!
//! Every simulation goes through one driver, [`RunSpec`]: build the
//! machine, warm it up or restore a checkpoint, step it (checkpointing
//! on schedule and honouring a wall-clock deadline), and collect the
//! result. A run's [`Workload`] is a Table II mix or an attack stream.
//! Each (workload, scheme) simulation is single-threaded and
//! deterministic; the [`sweep`](crate::sweep) supervisor fans the
//! independent runs of a matrix out over the host cores.

use crate::checkpoint::{read_snapshot, restore_run, scheme_from_name, write_snapshot};
use crate::metrics::RunResult;
use crate::system::{Engine, RunState, System};
use camps_cpu::trace::TraceSource;
use camps_dram::TimingCpu;
use camps_obs::{Comp, ObsConfig};
use camps_prefetch::SchemeKind;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_types::error::SimError;
use camps_workloads::{AdversarialSpec, AdversarialTrace, AttackKind, Mix};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long to warm up and measure, mirroring the paper's methodology
/// (§4.1: fast-forward, warm caches, then detailed simulation) at
/// laptop-tractable scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunLength {
    /// Functional cache-warmup instructions per core.
    pub warmup_instructions: u64,
    /// Detailed instructions per core.
    pub instructions: u64,
    /// Hard cycle cap (hang guard; generous relative to expected IPC).
    pub max_cycles: Cycle,
}

impl RunLength {
    /// Smoke-test scale: fractions of a second per run. Used by the
    /// sweep kill/resume tests and the CI `sweep-smoke` job, where many
    /// full matrices run back to back.
    #[must_use]
    pub const fn tiny() -> Self {
        Self {
            warmup_instructions: 2_000,
            instructions: 2_000,
            max_cycles: 500_000,
        }
    }

    /// Unit/integration-test scale: seconds per run.
    #[must_use]
    pub const fn quick() -> Self {
        Self {
            warmup_instructions: 60_000,
            instructions: 60_000,
            max_cycles: 3_000_000,
        }
    }

    /// Experiment scale used for the EXPERIMENTS.md numbers.
    #[must_use]
    pub const fn standard() -> Self {
        Self {
            warmup_instructions: 500_000,
            instructions: 500_000,
            max_cycles: 40_000_000,
        }
    }

    /// Long runs for low-variance final numbers.
    #[must_use]
    pub const fn thorough() -> Self {
        Self {
            warmup_instructions: 1_000_000,
            instructions: 2_000_000,
            max_cycles: 200_000_000,
        }
    }

    /// The named scale: `tiny`, `quick`, `standard` or `thorough`.
    ///
    /// # Errors
    /// An unknown name, with the list of valid ones.
    pub fn by_name(name: &str) -> Result<Self, String> {
        const SCALES: [(&str, RunLength); 4] = [
            ("tiny", RunLength::tiny()),
            ("quick", RunLength::quick()),
            ("standard", RunLength::standard()),
            ("thorough", RunLength::thorough()),
        ];
        let found = SCALES.iter().find(|(n, _)| *n == name);
        found.map(|&(_, len)| len).ok_or_else(|| {
            let names: Vec<&str> = SCALES.iter().map(|(n, _)| *n).collect();
            format!("unknown scale `{name}`; valid names: {}", names.join(", "))
        })
    }
}

/// What the cores run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A Table II mix.
    Mix(Mix),
    /// One attack stream per core: core `c` attacks vault `c % vaults`
    /// with seed `seed + c`, and the hammer kinds use 32 aggressor rows.
    /// All-miss attack streams starve the cores, so an attack run is
    /// usually fixed-cycle: `instructions: u64::MAX`, and the cycle cap
    /// ends it.
    Attack(AttackKind),
}

impl Workload {
    /// The id results, journals and snapshot manifests carry: the mix id
    /// (`HM1`) or the attack name (`hammer-double`).
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            Self::Mix(mix) => mix.id,
            Self::Attack(kind) => kind.as_str(),
        }
    }

    /// The workload whose [`id`](Self::id) is `id`.
    #[must_use]
    fn by_id(id: &str) -> Option<Self> {
        let attack = AttackKind::ALL.into_iter().find(|k| k.as_str() == id);
        Mix::by_id(id).map(Self::from).or(attack.map(Self::Attack))
    }

    /// One trace per core of `cfg`, generated from `seed`.
    ///
    /// # Errors
    /// [`SimError::Config`] for an invalid address mapping;
    /// [`SimError::Setup`] for a mix naming an unknown benchmark or an
    /// attack the cube geometry cannot hold.
    fn build_traces(
        &self,
        cfg: &SystemConfig,
        seed: u64,
    ) -> Result<Vec<Box<dyn TraceSource>>, SimError> {
        let kind = match self {
            Self::Mix(mix) => return mix.build_traces(cfg.cube_map()?.capacity_bytes(), seed),
            Self::Attack(kind) => *kind,
        };
        let t_refw = TimingCpu::from_config(&cfg.dram, cfg.cpu.freq_hz).t_refi;
        (0..cfg.cpu.cores)
            .map(|core| {
                let vault = (core % cfg.hmc.vaults) as u16;
                let mut spec =
                    AdversarialSpec::preset(kind, vault, seed.wrapping_add(u64::from(core)));
                // More rows than the 16-row prefetch buffer holds, so
                // buffered aggressors are evicted (dirty ones written back
                // with a fresh ACT) before they can be reused.
                if matches!(kind, AttackKind::HammerDouble | AttackKind::HammerSingle) {
                    spec.aggressors = 32;
                }
                AdversarialTrace::new(spec, &cfg.hmc, t_refw)
                    .map(|t| Box::new(t) as Box<dyn TraceSource>)
                    .map_err(|e| SimError::Setup {
                        reason: format!("{}: {e}", kind.as_str()),
                    })
            })
            .collect()
    }
}

impl From<Mix> for Workload {
    fn from(mix: Mix) -> Self {
        Self::Mix(mix)
    }
}

impl From<&Mix> for Workload {
    fn from(mix: &Mix) -> Self {
        Self::Mix(*mix)
    }
}

/// One simulation run, fully specified: the paper's methodology (§4.1)
/// of building the machine, warming its caches and then simulating in
/// detail, plus every option a caller may set on it.
///
/// Build one with [`RunSpec::new`] (or [`RunSpec::from_snapshot`]) and
/// override fields with struct-update syntax:
///
/// ```no_run
/// use camps::experiment::{RunLength, RunSpec};
/// use camps::system::Engine;
/// use camps_prefetch::SchemeKind;
/// use camps_types::SystemConfig;
/// use camps_workloads::Mix;
///
/// let cfg = SystemConfig::paper_default();
/// let mix = Mix::by_id("HM1").unwrap();
/// let result = RunSpec {
///     engine: Engine::Polling,
///     checkpoint: Some((1_000_000, "hm1.ckpt.json".into())),
///     ..RunSpec::new(&cfg, mix, SchemeKind::CampsMod, RunLength::quick(), 42)
/// }
/// .run();
/// ```
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// Machine configuration.
    pub cfg: &'a SystemConfig,
    /// What the cores run.
    pub workload: Workload,
    /// Prefetching scheme every vault runs.
    pub scheme: SchemeKind,
    /// Warmup and detailed-simulation length.
    pub len: RunLength,
    /// Workload seed.
    pub seed: u64,
    /// Stepping strategy (the engines are bit-identical).
    pub engine: Engine,
    /// Observers to install. `None` installs none; `Some` of a default
    /// [`ObsConfig`] still collects the per-stage latency breakdown.
    /// Output files are written whether the run succeeds or fails.
    pub obs: Option<ObsConfig>,
    /// Every `.0` cycles, write a snapshot of the run to the file `.1`
    /// (atomically replaced), so a killed or failed run can resume.
    pub checkpoint: Option<(Cycle, PathBuf)>,
    /// Continue from this snapshot instead of warming up. The snapshot
    /// must have been taken under `cfg`, `workload`, `scheme` and `seed`; its
    /// run bookkeeping replaces `len`.
    pub resume: Option<PathBuf>,
    /// Wall-clock budget, counted from [`RunSpec::start`]. A run that
    /// exceeds it fails with [`SimError::Deadline`].
    pub deadline: Option<Duration>,
}

impl<'a> RunSpec<'a> {
    /// The plain run of `workload` (a [`Workload`] or a [`Mix`]) under
    /// `scheme`: event engine, no observers, no checkpoints, no deadline.
    #[must_use]
    pub fn new(
        cfg: &'a SystemConfig,
        workload: impl Into<Workload>,
        scheme: SchemeKind,
        len: RunLength,
        seed: u64,
    ) -> Self {
        Self {
            cfg,
            workload: workload.into(),
            scheme,
            len,
            seed,
            engine: Engine::default(),
            obs: None,
            checkpoint: None,
            resume: None,
            deadline: None,
        }
    }

    /// The spec that continues the run checkpointed at `path`: workload,
    /// scheme and seed come from the snapshot's manifest, and `cfg` must
    /// be the configuration it was taken under.
    ///
    /// # Errors
    /// [`SimError::Snapshot`] for an unreadable or corrupt snapshot, or
    /// one naming an unknown workload or scheme.
    pub fn from_snapshot(cfg: &'a SystemConfig, path: &Path) -> Result<Self, SimError> {
        let (manifest, _) = read_snapshot(path)?;
        let workload = Workload::by_id(&manifest.mix_id).ok_or_else(|| SimError::Snapshot {
            reason: format!("snapshot names unknown workload `{}`", manifest.mix_id),
        })?;
        let scheme = scheme_from_name(&manifest.scheme)?;
        // The snapshot carries the run's own length and cycle cap.
        let unused = RunLength {
            warmup_instructions: 0,
            instructions: 0,
            max_cycles: 0,
        };
        Ok(Self {
            resume: Some(path.to_path_buf()),
            ..Self::new(cfg, workload, scheme, unused, manifest.seed)
        })
    }

    /// Builds the machine, installs the engine and observers, and warms
    /// up (or restores [`resume`](Self::resume)), leaving the run ready
    /// to [`step`](Run::step).
    ///
    /// # Errors
    /// Configuration and trace-setup errors; [`SimError::Snapshot`] when
    /// the resume snapshot is unreadable or does not match this spec.
    pub fn start(&self) -> Result<Run, SimError> {
        let started = self.deadline.map(|limit| (Instant::now(), limit));
        let traces = self.workload.build_traces(self.cfg, self.seed)?;
        let mut sys = System::new(self.cfg, self.scheme, traces)?;
        sys.set_engine(self.engine);
        let state = match &self.resume {
            Some(path) => {
                let (manifest, state) = read_snapshot(path)?;
                let id = self.workload.id();
                if manifest.mix_id != id || manifest.seed != self.seed {
                    return Err(SimError::Snapshot {
                        reason: format!(
                            "snapshot ran {}#{}, this run is {id}#{}",
                            manifest.mix_id, manifest.seed, self.seed
                        ),
                    });
                }
                // Placeholder bookkeeping; restore_run overwrites every field.
                let mut run = sys.run_begin(0, 0);
                restore_run(&mut sys, &mut run, &manifest, &state)?;
                run
            }
            None => {
                sys.warmup(self.len.warmup_instructions);
                sys.run_begin(self.len.instructions, self.len.max_cycles)
            }
        };
        if let Some(obs) = &self.obs {
            sys.enable_obs(obs);
        }
        sys.profiler_mut().enter(Comp::RunLoop);
        Ok(Run {
            next_checkpoint: self.checkpoint.as_ref().map(|(every, _)| sys.now() + every),
            sys,
            state,
            workload_id: self.workload.id(),
            seed: self.seed,
            obs: self.obs.clone(),
            checkpoint: self.checkpoint.clone(),
            started,
        })
    }

    /// Runs the spec to completion: [`start`](Self::start), then
    /// [`step`](Run::step) until done, then [`finish`](Run::finish).
    ///
    /// # Errors
    /// Anything [`start`](Self::start), [`step`](Run::step) or
    /// [`finish`](Run::finish) returns.
    pub fn run(&self) -> Result<RunResult, SimError> {
        let mut run = self.start()?;
        while run.step()? {}
        run.finish()
    }
}

/// A started [`RunSpec`]: the machine plus the run's bookkeeping,
/// checkpoint schedule and deadline.
pub struct Run {
    sys: System,
    state: RunState,
    workload_id: &'static str,
    seed: u64,
    obs: Option<ObsConfig>,
    checkpoint: Option<(Cycle, PathBuf)>,
    next_checkpoint: Option<Cycle>,
    started: Option<(Instant, Duration)>,
}

impl Run {
    /// Current simulation cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.sys.now()
    }

    /// Advances the run one step, then writes a checkpoint if one is
    /// due. Returns `Ok(false)` once the run is complete. The deadline is
    /// checked before the step; the clock is read only when a deadline
    /// is set.
    ///
    /// # Errors
    /// [`SimError::Deadline`], the integrity and watchdog errors of
    /// [`System::run_step`], and [`SimError::Snapshot`] when a checkpoint
    /// cannot be written. Observer output is exported before an error
    /// returns.
    pub fn step(&mut self) -> Result<bool, SimError> {
        if let Some((started, limit)) = self.started {
            let elapsed = started.elapsed();
            if elapsed > limit {
                return Err(self.fail(SimError::Deadline {
                    elapsed_secs: elapsed.as_secs_f64(),
                    limit_secs: limit.as_secs_f64(),
                }));
            }
        }
        let more = match self.sys.run_step(&mut self.state) {
            Ok(more) => more,
            Err(err) => return Err(self.fail(err)),
        };
        if let (true, Some(at), Some((every, path))) =
            (more, self.next_checkpoint, &self.checkpoint)
        {
            if self.sys.now() >= at {
                if let Err(err) =
                    write_snapshot(path, &self.sys, &self.state, self.workload_id, self.seed)
                {
                    return Err(self.fail(err));
                }
                self.sys.obs().mark("checkpoint", self.sys.now());
                self.next_checkpoint = Some(self.sys.now() + every);
            }
        }
        Ok(more)
    }

    /// Collects the run's metrics and exports observer output.
    ///
    /// # Errors
    /// The integrity errors of [`System::run_finish`], and
    /// [`SimError::Io`] when an observer output file cannot be written.
    pub fn finish(mut self) -> Result<RunResult, SimError> {
        self.sys.profiler_mut().exit(Comp::RunLoop);
        let result = self.sys.run_finish(&self.state, self.workload_id);
        let exported = self.export_obs();
        let result = result?;
        exported?;
        Ok(result)
    }

    /// Closes the run loop's profile span and exports observer output
    /// for a run that failed; an export failure never masks `err`.
    fn fail(&mut self, err: SimError) -> SimError {
        self.sys.profiler_mut().exit(Comp::RunLoop);
        self.export_obs().ok();
        err
    }

    /// Writes the installed observers' outputs (trace JSON, metrics
    /// series, folded profile) to the paths the spec's [`ObsConfig`]
    /// names.
    fn export_obs(&self) -> Result<(), SimError> {
        let Some(obs_cfg) = &self.obs else {
            return Ok(());
        };
        let io_err = |path: &Path, e: std::io::Error| SimError::Io {
            path: path.display().to_string(),
            source: e,
        };
        if let Some(path) = &obs_cfg.trace_out {
            self.sys
                .obs()
                .export_trace(path)
                .map_err(|e| io_err(path, e))?;
        }
        if let Some(path) = &obs_cfg.metrics_out {
            self.sys
                .obs()
                .export_metrics(path)
                .map_err(|e| io_err(path, e))?;
        }
        if let Some(path) = &obs_cfg.profile_out {
            // Folded-stack lines (`path;to;leaf <excl_ns>`), directly
            // consumable by `flamegraph.pl` / speedscope / inferno.
            let folded = self
                .sys
                .profiler()
                .summary()
                .map(|p| p.render_folded())
                .unwrap_or_default();
            std::fs::write(path, folded).map_err(|e| io_err(path, e))?;
        }
        Ok(())
    }
}

/// Runs one Table II mix under one scheme: shorthand for
/// [`RunSpec::new`]`(…).`[`run`](RunSpec::run)`()`.
///
/// # Errors
/// Propagates configuration, setup, integrity, and watchdog errors from
/// [`System`]; an invalid address mapping surfaces as
/// [`SimError::Config`].
pub fn run_mix(
    cfg: &SystemConfig,
    mix: &Mix,
    scheme: SchemeKind,
    len: &RunLength,
    seed: u64,
) -> Result<RunResult, SimError> {
    RunSpec::new(cfg, mix, scheme, *len, seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::encode_snapshot;
    use crate::sweep::{run_sweep, SweepPolicy};
    use camps_workloads::ALL_MIXES;

    /// A tiny end-to-end smoke test: run one HM mix under NOPF and
    /// CAMPS-MOD at miniature scale and check the prefetching run serves
    /// demand from the buffer.
    #[test]
    fn camps_mod_serves_from_buffer_on_hm_mix() {
        let cfg = SystemConfig::paper_default();
        let len = RunLength {
            warmup_instructions: 8_000,
            instructions: 8_000,
            max_cycles: 2_000_000,
        };
        let mix = &ALL_MIXES[0]; // HM1
        let camps = run_mix(&cfg, mix, SchemeKind::CampsMod, &len, 7).unwrap();
        assert!(
            camps.vaults.prefetches.get() > 0,
            "CAMPS-MOD must prefetch on HM1"
        );
        assert!(
            camps.vaults.buffer_hits.get() > 0,
            "prefetches must be consumed"
        );
        assert_eq!(camps.mix_id, "HM1");
        assert_eq!(camps.ipc.len(), 8);
    }

    /// A short fixed-cycle attack run: the cycle cap ends it.
    const ATTACK_LEN: RunLength = RunLength {
        warmup_instructions: 500,
        instructions: u64::MAX,
        max_cycles: 4_000,
    };

    fn json(r: &RunResult) -> String {
        serde_json::to_string(r).unwrap()
    }

    #[test]
    fn resumed_run_matches_the_uninterrupted_run() {
        let cfg = SystemConfig::paper_default();
        let mix_len = RunLength {
            warmup_instructions: 2_000,
            instructions: 8_000,
            max_cycles: 2_000_000,
        };
        let dir = std::env::temp_dir().join("camps-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt.json");
        let attack = Workload::Attack(AttackKind::HammerSingle);
        for (workload, len, every) in [
            (ALL_MIXES[0].into(), mix_len, 10_000),
            (attack, ATTACK_LEN, 1_500),
        ] {
            std::fs::remove_file(&path).ok();
            let full = RunSpec {
                checkpoint: Some((every, path.clone())),
                ..RunSpec::new(&cfg, workload, SchemeKind::Camps, len, 3)
            }
            .run()
            .unwrap();
            let (manifest, _) = read_snapshot(&path).expect("the run leaves a checkpoint");
            assert_eq!(manifest.mix_id, workload.id());
            // Rebuild from the last on-disk checkpoint and continue: the
            // result must be bit-identical to the uninterrupted run.
            let resumed = RunSpec::from_snapshot(&cfg, &path).unwrap().run().unwrap();
            assert_eq!(json(&full), json(&resumed), "{}", workload.id());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_drifted_config() {
        let cfg = SystemConfig::paper_default();
        let len = RunLength {
            warmup_instructions: 1_000,
            instructions: 2_000,
            max_cycles: 1_000_000,
        };
        let dir = std::env::temp_dir().join("camps-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drift.ckpt.json");
        RunSpec {
            checkpoint: Some((5_000, path.clone())),
            ..RunSpec::new(&cfg, ALL_MIXES[0], SchemeKind::Nopf, len, 1)
        }
        .run()
        .unwrap();
        let mut drifted = cfg.clone();
        drifted.prefetch.entries *= 2;
        let err = RunSpec::from_snapshot(&drifted, &path)
            .and_then(|spec| spec.run())
            .unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("configuration")),
            "got {err}"
        );
        // A spec naming another seed must not restore this run's state
        // onto differently seeded traces.
        let reseeded = RunSpec {
            resume: Some(path.clone()),
            ..RunSpec::new(&cfg, ALL_MIXES[0], SchemeKind::Nopf, len, 2)
        };
        let err = reseeded.run().unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("HM1#1")),
            "got {err}"
        );
        // Nor may a manifest naming a workload this build does not know.
        let (mut manifest, state) = read_snapshot(&path).unwrap();
        manifest.mix_id = "hammer-triple".into();
        std::fs::write(&path, encode_snapshot(&manifest, &state).unwrap()).unwrap();
        let err = RunSpec::from_snapshot(&cfg, &path).unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("`hammer-triple`")),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn attack_workload_runs_like_a_hand_built_system() {
        let (cfg, len) = (SystemConfig::paper_default(), ATTACK_LEN);
        let attack = Workload::Attack(AttackKind::HammerDouble);
        let spec = RunSpec::new(&cfg, attack, SchemeKind::Camps, len, 9).run();
        // One double-sided hammer per core on its own vault, built by hand.
        let t_refw = TimingCpu::from_config(&cfg.dram, cfg.cpu.freq_hz).t_refi;
        let traces = (0..cfg.cpu.cores)
            .map(|c| {
                let vault = (c % cfg.hmc.vaults) as u16;
                let mut spec =
                    AdversarialSpec::preset(AttackKind::HammerDouble, vault, 9 + u64::from(c));
                spec.aggressors = 32;
                Box::new(AdversarialTrace::new(spec, &cfg.hmc, t_refw).unwrap())
                    as Box<dyn TraceSource>
            })
            .collect();
        let mut sys = System::new(&cfg, SchemeKind::Camps, traces).unwrap();
        sys.warmup(len.warmup_instructions);
        let hand = sys.run(len.instructions, len.max_cycles, "hammer-double");
        let hand = hand.unwrap();
        assert_eq!(json(&spec.unwrap()), json(&hand));
        assert_eq!(hand.cycles, len.max_cycles);
        assert!(hand.amplification.unwrap().demand_activations > 0);
    }

    #[test]
    fn matrix_preserves_order_and_count() {
        let mut cfg = SystemConfig::paper_default();
        cfg.cpu.cores = 8;
        let len = RunLength {
            warmup_instructions: 2_000,
            instructions: 2_000,
            max_cycles: 500_000,
        };
        let mixes = [ALL_MIXES[0], ALL_MIXES[4]];
        let schemes = [SchemeKind::Nopf, SchemeKind::Base];
        let run = run_sweep(&cfg, &mixes, &schemes, &len, 1, &SweepPolicy::default()).unwrap();
        assert!(run.errors.iter().all(Option::is_none));
        let results: Vec<RunResult> = run.results.into_iter().flatten().collect();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].mix_id, "HM1");
        assert_eq!(results[0].scheme, SchemeKind::Nopf);
        assert_eq!(results[1].scheme, SchemeKind::Base);
        assert_eq!(results[2].mix_id, "LM1");
    }
}
