//! Polling/event engine equivalence.
//!
//! The event engine must be an *engine*, not a model: for every paper
//! scheme it must produce bit-identical results to the per-cycle polling
//! reference, and a snapshot taken under either engine must restore and
//! continue under the other. Results are compared as serialized
//! [`camps::metrics::RunResult`] values, which covers IPC, cycle counts,
//! every vault/core counter, AMAT accumulators, and the energy model.
//!
//! The event engine also skips the tick of every vault that is not due,
//! so a vault wake that comes too late shows up here as a divergence.
//! The variant tests below drive the vault paths the paper defaults do
//! not reach: closed pages, FCFS, LLC push, TRR mitigation, core-side
//! prefetch, a cube fabric and a saturating RowHammer stream. The last
//! test pins the event engine's work, in visited cycles and vault
//! ticks, exactly.

use camps::experiment::{RunLength, RunSpec};
use camps::system::Engine;
use camps::System;
use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
use camps_dram::timing::TimingCpu;
use camps_obs::{ObsConfig, TraceHandle};
use camps_prefetch::SchemeKind;
use camps_types::addr::PhysAddr;
use camps_types::config::{PagePolicy, SchedulerKind, SystemConfig};
use camps_types::snapshot::Snapshot;
use camps_workloads::{AdversarialSpec, AdversarialTrace, AttackKind, Mix};

fn mini() -> RunLength {
    RunLength {
        warmup_instructions: 2_000,
        instructions: 4_000,
        max_cycles: 2_000_000,
    }
}

/// Shorter than [`mini`]: the variant tests run every scheme under
/// seven configurations, so each run stops at a cycle cap.
fn short() -> RunLength {
    RunLength {
        warmup_instructions: 1_000,
        instructions: 1_000,
        max_cycles: 5_000,
    }
}

fn canonical(r: &camps::metrics::RunResult) -> String {
    serde_json::to_string(r).expect("RunResult serializes")
}

/// HM1 under every scheme must come out the same under both engines on
/// a paper-default machine with one knob turned, and the knob must
/// change the result, or the comparison proves nothing about its path.
fn every_scheme_agrees(variant: &str, tweak: impl Fn(&mut SystemConfig)) {
    let paper = SystemConfig::paper_default();
    let mut cfg = paper.clone();
    tweak(&mut cfg);
    let mix = Mix::by_id("HM1").unwrap();
    let run = |cfg, scheme, engine| {
        let result = RunSpec {
            engine,
            ..RunSpec::new(cfg, mix, scheme, short(), 11)
        }
        .run()
        .unwrap();
        canonical(&result)
    };
    for scheme in SchemeKind::ALL {
        assert_eq!(
            run(&cfg, scheme, Engine::Polling),
            run(&cfg, scheme, Engine::Event),
            "{variant}/{scheme:?}: engines diverged"
        );
    }
    let scheme = SchemeKind::CampsMod;
    assert_ne!(
        run(&paper, scheme, Engine::Event),
        run(&cfg, scheme, Engine::Event),
        "{variant}: the knob did not change the {scheme:?} run"
    );
}

#[test]
fn closed_page_policy_is_bit_identical_across_engines() {
    every_scheme_agrees("closed-page", |c| c.vault.page_policy = PagePolicy::Closed);
}

#[test]
fn fcfs_scheduling_is_bit_identical_across_engines() {
    every_scheme_agrees("fcfs", |c| c.vault.scheduler = SchedulerKind::Fcfs);
}

#[test]
fn llc_push_is_bit_identical_across_engines() {
    every_scheme_agrees("push-to-llc", |c| c.prefetch.push_to_llc = true);
}

#[test]
fn trr_mitigation_is_bit_identical_across_engines() {
    every_scheme_agrees("trr-2", |c| {
        c.rowguard.enable_mitigation = true;
        c.rowguard.threshold = 2;
    });
}

#[test]
fn two_level_prefetch_is_bit_identical_across_engines() {
    every_scheme_agrees("two-level", |c| c.core_prefetch.enable = true);
}

#[test]
fn two_cube_pool_is_bit_identical_across_engines() {
    every_scheme_agrees("2-cube", |c| c.topology.cubes = 2);
}

/// One double-sided RowHammer stream per core, each on its own vault,
/// with 32 aggressor rows and half stores.
fn hammer_traces(cfg: &SystemConfig) -> Vec<Box<dyn TraceSource>> {
    let t_refw = TimingCpu::from_config(&cfg.dram, cfg.cpu.freq_hz).t_refi;
    (0..cfg.cpu.cores)
        .map(|core| {
            let vault = (core % cfg.hmc.vaults) as u16;
            let mut spec =
                AdversarialSpec::preset(AttackKind::HammerDouble, vault, 7 + u64::from(core));
            spec.aggressors = 32;
            Box::new(AdversarialTrace::new(spec, &cfg.hmc, t_refw).unwrap()) as Box<dyn TraceSource>
        })
        .collect()
}

/// The double-sided RowHammer stream with 32 aggressor rows per core
/// (the adversarial bench's attack): all misses, half stores, dirty
/// buffer evictions, saturated MSHRs and vault queues. Mitigation off
/// and on; the mitigated run must really mitigate.
#[test]
fn hammer_stream_is_bit_identical_across_engines() {
    const HORIZON: u64 = 5_000;
    for mitigate in [false, true] {
        let mut cfg = SystemConfig::paper_default();
        cfg.rowguard.enable_mitigation = mitigate;
        cfg.rowguard.threshold = 2;
        let mut mitigations = 0;
        for scheme in SchemeKind::ALL {
            let run = |engine| {
                let mut sys = System::new(&cfg, scheme, hammer_traces(&cfg)).unwrap();
                sys.set_engine(engine);
                sys.run(u64::MAX, HORIZON, "hammer").unwrap()
            };
            let polled = run(Engine::Polling);
            assert_eq!(
                canonical(&polled),
                canonical(&run(Engine::Event)),
                "hammer (mitigation {mitigate})/{scheme:?}: engines diverged"
            );
            mitigations += polled.vaults.mitigations.get();
        }
        assert_eq!(
            mitigations > 0,
            mitigate,
            "hammer (mitigation {mitigate}): {mitigations} TRRs"
        );
    }
}

#[test]
fn every_paper_scheme_is_bit_identical_across_engines() {
    let cfg = SystemConfig::paper_default();
    for mix_id in ["HM1", "LM1"] {
        let mix = Mix::by_id(mix_id).unwrap();
        for scheme in SchemeKind::PAPER {
            let run = |engine| {
                RunSpec {
                    engine,
                    ..RunSpec::new(&cfg, mix, scheme, mini(), 11)
                }
                .run()
                .unwrap()
            };
            let polled = run(Engine::Polling);
            let evented = run(Engine::Event);
            assert_eq!(
                canonical(&polled),
                canonical(&evented),
                "{mix_id}/{scheme:?}: engines diverged"
            );
        }
    }
}

#[test]
fn snapshots_cross_engines_in_both_directions() {
    let cfg = SystemConfig::paper_default();
    let capacity = cfg.hmc.address_mapping().unwrap().capacity_bytes();
    let mix = Mix::by_id("HM1").unwrap();
    for (first, second) in [
        (Engine::Event, Engine::Polling),
        (Engine::Polling, Engine::Event),
    ] {
        let mut a = System::new(
            &cfg,
            SchemeKind::Camps,
            mix.build_traces(capacity, 3).unwrap(),
        )
        .unwrap();
        a.set_engine(first);
        let mut st_a = a.run_begin(6_000, 1_000_000);
        for _ in 0..1_500 {
            assert!(a.run_step(&mut st_a).unwrap(), "{first:?}: ended too early");
        }
        let sys_state = a.save_state();
        let run_state = st_a.save_state();
        // The snapshot is engine-neutral: overlay it on a machine driven
        // by the *other* engine and continue both to completion.
        let mut b = System::new(
            &cfg,
            SchemeKind::Camps,
            mix.build_traces(capacity, 3).unwrap(),
        )
        .unwrap();
        b.set_engine(second);
        let mut st_b = b.run_begin(6_000, 1_000_000);
        b.restore_state(&sys_state).unwrap();
        st_b.restore_state(&run_state).unwrap();
        while a.run_step(&mut st_a).unwrap() {}
        while b.run_step(&mut st_b).unwrap() {}
        let ra = a.run_finish(&st_a, "cross").unwrap();
        let rb = b.run_finish(&st_b, "cross").unwrap();
        assert_eq!(
            canonical(&ra),
            canonical(&rb),
            "{first:?} snapshot did not continue identically under {second:?}"
        );
    }
}

/// The engine choice must survive checkpointing: a checkpointed
/// `Engine::Polling` run really polls (the profiler records no wake
/// jumps and no skipped cycles) and still matches the event engine.
#[test]
fn checkpointed_polling_run_polls_and_matches_the_event_engine() {
    let cfg = SystemConfig::paper_default();
    let mix = Mix::by_id("HM1").unwrap();
    let dir = std::env::temp_dir().join("camps-engine-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |engine: Engine| {
        let path = dir.join(format!("{engine:?}.ckpt.json"));
        std::fs::remove_file(&path).ok();
        let mut result = RunSpec {
            engine,
            obs: Some(ObsConfig {
                profile: true,
                ..ObsConfig::default()
            }),
            checkpoint: Some((2_000, path.clone())),
            ..RunSpec::new(&cfg, mix, SchemeKind::Camps, mini(), 11)
        }
        .run()
        .unwrap();
        assert!(path.exists(), "{engine:?}: no checkpoint was written");
        std::fs::remove_file(&path).ok();
        let profile = result.profile.take();
        (canonical(&result), profile)
    };
    let (polled, polled_profile) = run(Engine::Polling);
    let (evented, evented_profile) = run(Engine::Event);
    assert_eq!(polled, evented, "checkpointed engines diverged");
    if !TraceHandle::compiled() {
        return;
    }
    let polled_profile = polled_profile.expect("profiled run carries a summary");
    assert!(
        polled_profile
            .wake_sources
            .iter()
            .all(|w| w.wakes == 0 && w.cycles_skipped == 0),
        "the polling run jumped: {:?}",
        polled_profile.wake_sources
    );
    let evented_profile = evented_profile.expect("profiled run carries a summary");
    assert!(
        evented_profile.wake_sources.iter().any(|w| w.wakes > 0),
        "the event run recorded no wake jumps, so the check above proves nothing"
    );
}

/// One narrow core issuing row-striding loads, each behind enough
/// compute to fill its ROB: the machine sleeps through every memory
/// round trip.
fn idle_heavy() -> System {
    let mut cfg = SystemConfig::paper_default();
    cfg.cpu.cores = 1;
    cfg.cpu.rob_entries = 64;
    let gap = cfg.cpu.rob_entries - 1;
    let ops: Vec<TraceOp> = (0..512u64)
        .map(|i| TraceOp::load(gap, PhysAddr(i * (1 << 19))))
        .collect();
    let traces = vec![Box::new(VecTrace::new("idle", ops)) as Box<dyn TraceSource>];
    System::new(&cfg, SchemeKind::Camps, traces).unwrap()
}

/// The event engine must actually skip on an idle machine: most cycles
/// of the idle-heavy run are jumped over, never visited. This is the
/// property behind the idle-heavy `event_over_polling` ratio, pinned
/// here on cycle counts instead of wall time. The visited-cycle count
/// holds in every build; with observability compiled in, the
/// profiler's wake accounting must agree.
#[test]
fn event_engine_skips_most_cycles_of_an_idle_heavy_run() {
    let mut sys = idle_heavy();
    sys.enable_obs(&ObsConfig {
        profile: true,
        ..ObsConfig::default()
    });
    sys.warmup(2_000);
    let result = sys.run(20_000, 10_000_000, "idle-heavy").unwrap();
    let visited = sys.visited_cycles();
    assert!(
        visited * 5 <= result.cycles,
        "visited {visited} of {} cycles (want <= 20%)",
        result.cycles
    );
    if !TraceHandle::compiled() {
        return;
    }
    let profile = result.profile.expect("profiled run carries a summary");
    let skipped: u64 = profile.wake_sources.iter().map(|w| w.cycles_skipped).sum();
    assert!(
        skipped * 5 >= result.cycles * 4,
        "skipped {skipped} of {} cycles (want >= 80%): {:?}",
        result.cycles,
        profile.wake_sources
    );
}

/// [`hammer_traces`] on the paper machine under CAMPS.
fn hammer() -> System {
    let cfg = SystemConfig::paper_default();
    System::new(&cfg, SchemeKind::Camps, hammer_traces(&cfg)).unwrap()
}

/// `mix_id` under CAMPS-MOD on `cubes` chained cubes, seed 11.
fn mix_on(mix_id: &str, cubes: u32) -> System {
    let mut cfg = SystemConfig::paper_default();
    cfg.topology.cubes = cubes;
    let capacity = cfg.cube_map().unwrap().capacity_bytes();
    let traces = Mix::by_id(mix_id)
        .unwrap()
        .build_traces(capacity, 11)
        .unwrap();
    System::new(&cfg, SchemeKind::CampsMod, traces).unwrap()
}

/// The work a run did, counted rather than timed.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    cycles: u64,
    /// Cycles the run loop ticked; the rest were skipped.
    visited: u64,
    vault_ticks: u64,
}

/// One workload of the work table: its machine, warmup instructions,
/// instructions per core (`u64::MAX` runs to the horizon) and cycle
/// horizon.
struct Row {
    name: &'static str,
    build: fn() -> System,
    warmup: u64,
    instructions: u64,
    horizon: u64,
}

impl Row {
    fn run(&self, engine: Engine) -> (String, Work) {
        let mut sys = (self.build)();
        sys.set_engine(engine);
        sys.warmup(self.warmup);
        let result = sys.run(self.instructions, self.horizon, self.name).unwrap();
        let work = Work {
            cycles: result.cycles,
            visited: sys.visited_cycles(),
            vault_ticks: sys.vault_ticks(),
        };
        (canonical(&result), work)
    }
}

/// Visited cycles and vault ticks count simulation work, so these pins
/// read the same on every host and in every build. Polling ticks every
/// vault of every cube on every cycle. The event engine jumps over the
/// cycles where nothing can happen and ticks a vault only when it is
/// due. A change to the engine's work must update the table.
#[test]
fn vault_ticks_count_only_the_due_vaults() {
    let mut cfg = SystemConfig::paper_default();
    cfg.topology.cubes = 2;
    let mix = Mix::by_id("HM1").unwrap();
    let capacity = cfg.cube_map().unwrap().capacity_bytes();
    let mut sys = System::new(
        &cfg,
        SchemeKind::Camps,
        mix.build_traces(capacity, 11).unwrap(),
    )
    .unwrap();
    sys.set_engine(Engine::Polling);
    let polled = sys.run(u64::MAX, 2_000, "polling").unwrap();
    assert_eq!(polled.cycles, 2_000);
    assert_eq!(
        sys.vault_ticks(),
        u64::from(cfg.hmc.vaults) * 2 * polled.cycles
    );

    let dense = |name, build| Row {
        name,
        build,
        warmup: 2_000,
        instructions: u64::MAX,
        horizon: 10_000,
    };
    #[rustfmt::skip]
    let table = [
        // Most cycles skipped: 0.025 vault ticks per cycle against 32.
        (Row { name: "idle-heavy", build: idle_heavy, warmup: 2_000, instructions: 4_000, horizon: 10_000_000 },
         Work { cycles: 11_142, visited: 1_264, vault_ticks: 279 }),
        // Every cycle visited: 1.2 vault ticks per cycle against 32.
        (Row { name: "hammer", build: hammer, warmup: 0, instructions: u64::MAX, horizon: 20_000 },
         Work { cycles: 20_000, visited: 20_000, vault_ticks: 23_163 }),
        // 1.9 against 32.
        (dense("HM1", || mix_on("HM1", 1)),
         Work { cycles: 10_000, visited: 10_000, vault_ticks: 19_029 }),
        // 2.2 against 32.
        (dense("LM1", || mix_on("LM1", 1)),
         Work { cycles: 10_000, visited: 10_000, vault_ticks: 22_401 }),
        // 0.65 against 128.
        (dense("MX1x4", || mix_on("MX1", 4)),
         Work { cycles: 10_000, visited: 10_000, vault_ticks: 6_489 }),
    ];
    let evented: Vec<String> = table
        .iter()
        .map(|(row, expected)| {
            let (result, work) = row.run(Engine::Event);
            assert_eq!(&work, expected, "{}: event-engine work", row.name);
            result
        })
        .collect();

    // Skipping must not change the run: the idle-heavy machine polled
    // ticks every vault on every cycle and ends bit for bit the same.
    let (polled, work) = table[0].0.run(Engine::Polling);
    assert_eq!(evented[0], polled, "idle-heavy: engines diverged");
    assert_eq!(
        work,
        Work {
            cycles: 11_142,
            visited: 11_142,
            vault_ticks: 32 * 11_142,
        },
        "idle-heavy: polling work"
    );
}
