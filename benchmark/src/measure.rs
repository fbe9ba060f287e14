//! The measurements. End-to-end numbers come from plain repetitions with
//! every observer off; per-layer numbers come from separate traced
//! passes: a step pass that times each `System::run_step` from outside,
//! and a profiled pass under the simulator's own profiler.

use crate::probe;
use crate::report::{
    digest, fnv1a, median, quantile, ratio, DigestCheck, Metric, Tally, FNV_OFFSET,
};
use crate::workload::{Job, Matrix, SetupTimes, Work, MATRIX_THREADS};
use camps::metrics::RunResult;
use camps::sweep::SweepRun;
use camps::system::Engine;
use camps_cpu::core_model::CoreStats;
use camps_obs::{Comp, ObsConfig, ProfileSummary};
use std::time::Instant;

/// Fewest plain repetitions behind an end-to-end median.
const MIN_REPS: usize = 3;
/// The polling-engine reference check of a single-run workload runs
/// this fraction of the job.
const REFERENCE_DIV: u64 = 8;

/// Profiler components of each layer. A share is the components'
/// exclusive time over the profiled run loop.
const LAYER_SHARES: [(&str, &[Comp]); 14] = [
    (
        "core.self_share",
        &[
            Comp::RunLoop,
            Comp::RunStep,
            Comp::WakeScan,
            Comp::MemTick,
            Comp::HmcTick,
            Comp::Sampler,
        ],
    ),
    ("cpu.self_share", &[Comp::CoreRetire]),
    (
        "cache.self_share",
        &[
            Comp::CacheLookup,
            Comp::Mshr,
            Comp::CacheFill,
            Comp::WbDrain,
        ],
    ),
    (
        "link.self_share",
        &[Comp::SerdesLinks, Comp::Crossbar, Comp::CubeFabric],
    ),
    (
        "vault.self_share",
        &[
            Comp::VaultTick,
            Comp::IssueScan,
            Comp::RefreshScan,
            Comp::RespPop,
            Comp::WbEngine,
        ],
    ),
    ("dram.self_share", &[Comp::BankModel]),
    (
        "prefetch.self_share",
        &[
            Comp::PfLookup,
            Comp::BufferServe,
            Comp::PfTrain,
            Comp::PfFetch,
        ],
    ),
    ("core.wake_scan_share", &[Comp::WakeScan]),
    ("link.cube_fabric_share", &[Comp::CubeFabric]),
    ("vault.issue_scan_share", &[Comp::IssueScan]),
    ("vault.refresh_scan_share", &[Comp::RefreshScan]),
    ("vault.resp_pop_share", &[Comp::RespPop]),
    ("vault.wb_engine_share", &[Comp::WbEngine]),
    ("prefetch.buffer_serve_share", &[Comp::BufferServe]),
];

/// What a measurement hands back to the report.
#[derive(Default)]
pub struct Measured {
    pub metrics: Vec<Metric>,
    pub digest: Option<u64>,
    pub reference_ok: bool,
}

fn metric(name: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        value,
        samples,
    }
}

/// Calls `rep` at least `min` times, then until one more call of the
/// last call's length would pass `seconds`.
fn repeat(seconds: f64, min: usize, mut rep: impl FnMut()) {
    let start = Instant::now();
    for done in 1.. {
        let t = Instant::now();
        rep();
        let last = t.elapsed().as_secs_f64();
        if done >= min && start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

/// One plain repetition's numbers.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    mcycles_per_s: f64,
}

/// End-to-end metrics: plain repetitions for `seconds`, then the
/// polling-engine reference check.
pub fn end_to_end(work: &Work, seconds: f64, tally: &mut Tally) -> Measured {
    let mut reps = Vec::new();
    let mut digests = DigestCheck::default();
    let mut critical = None;
    repeat(seconds, MIN_REPS, || {
        let outcome = match work {
            Work::Single(job) => plain_run(job).map(|run| {
                let rep = Rep {
                    setup_s: run.setup.total().as_secs_f64(),
                    wall_s: run.wall_s,
                    mcycles_per_s: run.result.cycles as f64 / run.run_s / 1e6,
                };
                (rep, digest(&run.result))
            }),
            Work::Matrix(m) => matrix_rep(m, tally).map(|(rep, results)| {
                critical.get_or_insert_with(|| critical_job(m, &results));
                (rep, matrix_digest(&results))
            }),
        };
        if let Some((rep, d)) = tally.record(outcome) {
            digests.check(tally, "plain repetition", d);
            reps.push(rep);
        }
    });
    let reference_ok = match (work, critical) {
        (Work::Single(job), _) => reference_single(job, tally),
        (Work::Matrix(_), Some((job, expected))) => polling_matches(&job, expected, tally),
        (Work::Matrix(_), None) => false,
    };
    // Every repetition does identical work, and interference from other
    // tenants of the host only ever adds time, in stretches longer than a
    // repetition: the best repetition is the steadiest estimate of what
    // the code costs.
    let best = |f: fn(&Rep) -> f64| reps.iter().map(f).reduce(f64::min).unwrap_or(0.0);
    let n = reps.len();
    Measured {
        metrics: vec![
            metric("sim_mcycles_per_s", -best(|r| -r.mcycles_per_s), n),
            metric("wall_s", best(|r| r.wall_s), n),
            metric("setup_s", best(|r| r.setup_s), n),
            metric("peak_rss_mb", peak_rss_mb(), 1),
        ],
        digest: digests.value(),
        reference_ok,
    }
}

/// One plain run of a job: its set-up phases, the run, and the time
/// from inputs to result.
struct PlainRun {
    setup: SetupTimes,
    run_s: f64,
    wall_s: f64,
    result: RunResult,
}

fn plain_run(job: &Job) -> Result<PlainRun, String> {
    let start = Instant::now();
    let (mut sys, setup) = job.setup()?;
    let ran = Instant::now();
    let result = job.run(&mut sys)?;
    Ok(PlainRun {
        setup,
        run_s: ran.elapsed().as_secs_f64(),
        wall_s: start.elapsed().as_secs_f64(),
        result,
    })
}

/// Sets up every job of the matrix serially (the matrix's set-up work,
/// timed apart from the sweep, which repeats it inside its jobs), then
/// runs the sweep.
fn matrix_rep(m: &Matrix, tally: &mut Tally) -> Result<(Rep, Vec<RunResult>), String> {
    let mut setup_s = 0.0;
    for job in m.jobs() {
        setup_s += job.setup()?.1.total().as_secs_f64();
    }
    let (run, wall_s) = timed_sweep(m)?;
    let results = sweep_results(run, tally)?;
    let cycles: u64 = results.iter().map(|r| r.cycles).sum();
    let rep = Rep {
        setup_s,
        wall_s,
        mcycles_per_s: cycles as f64 / wall_s / 1e6,
    };
    Ok((rep, results))
}

fn timed_sweep(m: &Matrix) -> Result<(SweepRun, f64), String> {
    let start = Instant::now();
    let run = m.run()?;
    Ok((run, start.elapsed().as_secs_f64()))
}

/// Every job's result; a quarantined job fails the sweep. The sweep's
/// jobs count as attempted runs beside the sweep itself.
fn sweep_results(run: SweepRun, tally: &mut Tally) -> Result<Vec<RunResult>, String> {
    tally.attempted += run.results.len() as u64;
    if let Some(err) = run.errors.into_iter().flatten().next() {
        tally.failed += run.report.quarantined as u64;
        return Err(format!("matrix job quarantined: {err}"));
    }
    Ok(run.results.into_iter().flatten().collect())
}

fn matrix_digest(results: &[RunResult]) -> u64 {
    results
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv1a(&digest(r).to_le_bytes(), h))
}

/// The matrix job that simulates the most cycles (it sets the matrix's
/// wall time) and its digest in the sweep.
fn critical_job(m: &Matrix, results: &[RunResult]) -> (Job, u64) {
    let (i, r) = results
        .iter()
        .enumerate()
        .max_by_key(|&(i, r)| (r.cycles, std::cmp::Reverse(i)))
        .expect("a completed matrix has jobs");
    (m.jobs().swap_remove(i), digest(r))
}

/// The event engine must reproduce the polling engine bit for bit on a
/// shortened copy of the job.
fn reference_single(job: &Job, tally: &mut Tally) -> bool {
    let short = job.shortened(REFERENCE_DIV);
    tally
        .record(run_with(&short, Engine::Event))
        .is_some_and(|expected| polling_matches(&short, expected, tally))
}

/// The job, run standalone under the polling engine (the simulator's
/// reference), reproduces `expected`.
fn polling_matches(job: &Job, expected: u64, tally: &mut Tally) -> bool {
    tally.record(run_with(job, Engine::Polling)) == Some(expected)
}

fn run_with(job: &Job, engine: Engine) -> Result<u64, String> {
    let (mut sys, _) = job.setup()?;
    sys.set_engine(engine);
    Ok(digest(&job.run(&mut sys)?))
}

/// `VmHWM` of this process in MiB: the peak resident set of everything
/// the invocation ran.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Per-layer samples gathered over the traced passes.
#[derive(Default)]
struct Passes {
    host_ref_ms: Vec<f64>,
    setups: Vec<SetupTimes>,
    plain_wall_s: Vec<f64>,
    plain_run_s: Vec<f64>,
    profile_overhead: Vec<f64>,
    step_overhead: Vec<f64>,
    attributed: Vec<f64>,
    profiles: Vec<ProfileSummary>,
    step_ns: Vec<u32>,
    steps: u64,
    result: Option<RunResult>,
}

/// The matrix's job-level numbers from one plain sweep.
struct SweepJobs {
    walls: Vec<f64>,
    thread_util: f64,
    digest: u64,
    /// The critical job's digest inside the sweep.
    critical_digest: u64,
}

/// Per-layer metrics. A single-run workload repeats a plain, a profiled
/// and a step pass for `seconds`. The matrix runs its sweep once for
/// the job-level numbers and then traces its critical job the same way.
pub fn per_layer(work: &Work, seconds: f64, tally: &mut Tally) -> Measured {
    let (job, sweep) = match work {
        Work::Single(job) => (job.clone(), None),
        Work::Matrix(m) => {
            let swept = timed_sweep(m).and_then(|(run, wall)| {
                let walls: Vec<f64> = run.report.jobs.iter().map(|j| j.wall_secs).collect();
                let results = sweep_results(run, tally)?;
                let busy: f64 = walls.iter().sum();
                let (job, critical_digest) = critical_job(m, &results);
                let jobs = SweepJobs {
                    walls,
                    thread_util: busy / (MATRIX_THREADS as f64 * wall),
                    digest: matrix_digest(&results),
                    critical_digest,
                };
                Ok((job, Some(jobs)))
            });
            match tally.record(swept) {
                Some(swept) => swept,
                None => return Measured::default(),
            }
        }
    };

    let mut digests = DigestCheck::default();
    if let Some(s) = &sweep {
        digests.check(tally, "matrix job", s.critical_digest);
    }
    let mut p = Passes::default();
    repeat(seconds, 1, || {
        p.host_ref_ms.push(probe::host_ref_ms());
        let Some(plain) = tally.record(plain_pass(&job, &mut p)) else {
            return;
        };
        digests.check(tally, "plain pass", plain);
        p.host_ref_ms.push(probe::host_ref_ms());
        if let Some(d) = tally.record(profiled_pass(&job, &mut p)) {
            digests.check(tally, "profiled pass", d);
        }
        p.host_ref_ms.push(probe::host_ref_ms());
        if let Some(d) = tally.record(step_pass(&job, &mut p)) {
            digests.check(tally, "step pass", d);
        }
    });
    let idle_tick_ns = tally.record(probe::mem_idle_tick_ns(&job)).unwrap_or(0.0);
    let ns_per_op = tally.record(probe::trace_ns_per_op(&job)).unwrap_or(0.0);
    let reference_ok = match &sweep {
        Some(s) => polling_matches(&job, s.critical_digest, tally),
        None => reference_single(&job, tally),
    };

    let mut metrics = layer_metrics(&job, &p, idle_tick_ns, ns_per_op);
    let (walls, thread_util) = match &sweep {
        Some(s) => (s.walls.clone(), s.thread_util),
        None => (p.plain_wall_s.clone(), 1.0),
    };
    metrics.extend([
        metric(
            "core.sweep_job_wall_p50_s",
            quantile(&walls, 0.5),
            walls.len(),
        ),
        metric(
            "core.sweep_job_wall_p80_s",
            quantile(&walls, 0.8),
            walls.len(),
        ),
        metric("core.sweep_thread_util", thread_util, 1),
    ]);
    Measured {
        metrics,
        digest: sweep.map_or(digests.value(), |s| Some(s.digest)),
        reference_ok,
    }
}

fn plain_pass(job: &Job, p: &mut Passes) -> Result<u64, String> {
    let run = plain_run(job)?;
    p.plain_run_s.push(run.run_s);
    p.plain_wall_s.push(run.wall_s);
    p.setups.push(run.setup);
    let d = digest(&run.result);
    p.result.get_or_insert(run.result);
    Ok(d)
}

/// The same run under the simulator's profiler.
fn profiled_pass(job: &Job, p: &mut Passes) -> Result<u64, String> {
    let (mut sys, setup) = job.setup()?;
    sys.enable_obs(&ObsConfig {
        profile: true,
        ..ObsConfig::default()
    });
    let ran = Instant::now();
    let result = job.run(&mut sys)?;
    let run_s = ran.elapsed().as_secs_f64();
    let profile = result
        .profile
        .clone()
        .ok_or("the profiled run returned no profile")?;
    p.setups.push(setup);
    p.profile_overhead.push(after_plain(p, run_s));
    p.attributed
        .push(profile.attributed_ns() as f64 / (run_s * 1e9));
    p.profiles.push(profile);
    Ok(digest(&result))
}

/// The same run driven step by step, each `run_step` timed.
fn step_pass(job: &Job, p: &mut Passes) -> Result<u64, String> {
    let (mut sys, setup) = job.setup()?;
    let fail = |e| format!("{}: {e}", job.label);
    let mut steps = Vec::new();
    let ran = Instant::now();
    let mut state = sys.run_begin(job.len.instructions, job.len.max_cycles);
    loop {
        let t = Instant::now();
        let more = sys.run_step(&mut state).map_err(fail)?;
        let ns = t.elapsed().as_nanos();
        if !more {
            break;
        }
        steps.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }
    let result = sys.run_finish(&state, job.label).map_err(fail)?;
    let run_s = ran.elapsed().as_secs_f64();
    p.setups.push(setup);
    p.step_overhead.push(after_plain(p, run_s));
    p.steps = steps.len() as u64;
    p.step_ns.extend(steps);
    Ok(digest(&result))
}

/// `run_s` over the run time of the plain pass just before it.
fn after_plain(p: &Passes, run_s: f64) -> f64 {
    run_s / p.plain_run_s.last().copied().unwrap_or(run_s)
}

fn layer_metrics(job: &Job, p: &Passes, idle_tick_ns: f64, ns_per_op: f64) -> Vec<Metric> {
    let profiled = p.profiles.len();
    let over_profiles =
        |f: &dyn Fn(&ProfileSummary) -> f64| median(&p.profiles.iter().map(f).collect::<Vec<_>>());
    let mut out: Vec<Metric> = LAYER_SHARES
        .iter()
        .map(|&(name, comps)| {
            let share = over_profiles(&|s| {
                let ns: u64 = s
                    .nodes
                    .iter()
                    .filter(|n| comps.iter().any(|c| c.name() == n.comp))
                    .map(|n| n.excl_ns)
                    .sum();
                ratio(ns as f64, s.total_ns as f64)
            });
            metric(name, share, profiled)
        })
        .collect();
    let spurious = over_profiles(&|s| {
        let wakes: u64 = s.wake_sources.iter().map(|w| w.wakes).sum();
        ratio(s.spurious_wakes() as f64, wakes as f64)
    });
    let backoff = over_profiles(&|s| s.backoff_engagements as f64);

    let mut step_ns = p.step_ns.clone();
    let timed_steps = step_ns.len();
    let mut step_pct = |q: f64| {
        if step_ns.is_empty() {
            return 0.0;
        }
        let rank = ((step_ns.len() - 1) as f64 * q).round() as usize;
        f64::from(*step_ns.select_nth_unstable(rank).1)
    };
    let (p50, p99, p999) = (step_pct(0.5), step_pct(0.99), step_pct(0.999));
    let setups = p.setups.len();
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&p.setups.iter().map(f).collect::<Vec<_>>());
    let steps = p.steps as f64;
    let cycles = p.result.as_ref().map_or(0.0, |r| r.cycles as f64);
    out.extend([
        metric("core.mem_idle_tick_ns", idle_tick_ns, 1),
        metric(
            "core.mem_idle_floor_share",
            ratio(idle_tick_ns * steps, median(&p.plain_run_s) * 1e9),
            1,
        ),
        metric("core.steps", steps, 1),
        metric("core.cycles_per_step", ratio(cycles, steps), 1),
        metric("core.spurious_wake_ratio", spurious, profiled),
        metric("core.backoff_engagements", backoff, profiled),
        metric("core.step_ns_p50", p50, timed_steps),
        metric("core.step_ns_p99", p99, timed_steps),
        metric("core.step_ns_p999", p999, timed_steps),
        metric(
            "core.step_timing_overhead",
            median(&p.step_overhead),
            p.step_overhead.len(),
        ),
        metric("obs.attributed_ratio", median(&p.attributed), profiled),
        metric(
            "obs.profile_overhead",
            median(&p.profile_overhead),
            p.profile_overhead.len(),
        ),
        metric(
            "core.system_new_ms",
            setup_median(|s| s.system_new.as_secs_f64() * 1e3),
            setups,
        ),
        metric(
            "cache.warmup_ns_per_instr",
            ratio(
                setup_median(|s| s.warmup.as_secs_f64() * 1e9),
                job.warmup_instructions() as f64,
            ),
            setups,
        ),
        metric(
            "workloads.trace_build_ms",
            setup_median(|s| s.trace_build.as_secs_f64() * 1e3),
            setups,
        ),
        metric("workloads.ns_per_op", ns_per_op, 1),
        metric(
            "bench.host_ref_ms",
            median(&p.host_ref_ms),
            p.host_ref_ms.len(),
        ),
    ]);
    if let Some(r) = &p.result {
        out.extend(model_counts(r));
    }
    out
}

/// Counts of the modelled machine. They repeat exactly; a change that
/// only speeds up the simulator must leave every one unchanged.
fn model_counts(r: &RunResult) -> Vec<Metric> {
    let v = &r.vaults;
    let cores = |f: fn(&CoreStats) -> u64| r.core_stats.iter().map(f).sum::<u64>() as f64;
    let bank = v.bank_accesses() as f64;
    let count = |name, value: u64| metric(name, value as f64, 1);
    vec![
        count("core.sim_cycles", r.cycles),
        metric("cpu.ipc_geomean", r.geomean_ipc(), 1),
        metric(
            "cpu.load_stall_frac",
            ratio(
                cores(|c| c.load_stall_cycles.get()),
                cores(|c| c.cycles.get()),
            ),
            1,
        ),
        metric("cpu.rejections", cores(|c| c.rejections.get()), 1),
        metric(
            "vault.row_hit_rate",
            ratio(v.row_hits.get() as f64, bank),
            1,
        ),
        metric("vault.row_conflict_rate", r.conflict_rate(), 1),
        count("vault.queue_rejects", v.queue_rejects.get()),
        metric("vault.amat_mem_cycles", r.amat_mem, 1),
        count("dram.activations_demand", v.demand_activations.get()),
        count("dram.activations_prefetch", v.prefetch_activations.get()),
        count("dram.activations_writeback", v.writeback_activations.get()),
        count("dram.worst_row_window_acts", v.worst_row_window_acts),
        count("prefetch.issued", v.prefetches.get()),
        metric("prefetch.accuracy", r.prefetch_accuracy(), 1),
        metric(
            "prefetch.buffer_hit_frac",
            ratio(
                v.buffer_hits.get() as f64,
                v.buffer_hits.get() as f64 + bank,
            ),
            1,
        ),
    ]
}
