//! Polling/event engine equivalence.
//!
//! The event engine must be an *engine*, not a model: for every paper
//! scheme it must produce bit-identical results to the per-cycle polling
//! reference, and a snapshot taken under either engine must restore and
//! continue under the other. Results are compared as serialized
//! [`camps::metrics::RunResult`] values, which covers IPC, cycle counts,
//! every vault/core counter, AMAT accumulators, and the energy model.

use camps::experiment::{RunLength, RunSpec};
use camps::system::Engine;
use camps::System;
use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
use camps_obs::{ObsConfig, TraceHandle};
use camps_prefetch::SchemeKind;
use camps_types::addr::PhysAddr;
use camps_types::config::SystemConfig;
use camps_types::snapshot::Snapshot;
use camps_workloads::Mix;

fn mini() -> RunLength {
    RunLength {
        warmup_instructions: 2_000,
        instructions: 4_000,
        max_cycles: 2_000_000,
    }
}

fn canonical(r: &camps::metrics::RunResult) -> String {
    serde_json::to_string(r).expect("RunResult serializes")
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

/// The event engine must actually skip on an idle machine. One narrow
/// core issues row-striding loads, each behind enough compute to fill
/// its ROB, so the machine sleeps through every memory round trip; the
/// profiler's wake accounting must show most cycles coalesced. This is
/// the property behind the idle-heavy `event_over_polling` ratio, pinned
/// here on cycle counts instead of wall time.
#[test]
fn event_engine_skips_most_cycles_of_an_idle_heavy_run() {
    if !TraceHandle::compiled() {
        return;
    }
    let mut cfg = SystemConfig::paper_default();
    cfg.cpu.cores = 1;
    cfg.cpu.rob_entries = 64;
    let gap = cfg.cpu.rob_entries - 1;
    let ops: Vec<TraceOp> = (0..512u64)
        .map(|i| TraceOp::load(gap, PhysAddr(i * (1 << 19))))
        .collect();
    let traces = vec![Box::new(VecTrace::new("idle", ops)) as Box<dyn TraceSource>];
    let mut sys = System::new(&cfg, SchemeKind::Camps, traces).unwrap();
    sys.set_engine(Engine::Event);
    sys.enable_obs(&ObsConfig {
        profile: true,
        ..ObsConfig::default()
    });
    sys.warmup(2_000);
    let result = sys.run(20_000, 10_000_000, "idle-heavy").unwrap();
    let profile = result.profile.expect("profiled run carries a summary");
    let skipped: u64 = profile.wake_sources.iter().map(|w| w.cycles_skipped).sum();
    assert!(
        skipped * 5 >= result.cycles * 4,
        "skipped {skipped} of {} cycles (want >= 80%): {:?}",
        result.cycles,
        profile.wake_sources
    );
}
