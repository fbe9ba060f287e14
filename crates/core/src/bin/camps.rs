//! `camps` — command-line experiment runner.
//!
//! ```text
//! camps run   <MIX> <SCHEME> [--scale quick|standard|thorough] [--seed N] [--json]
//!             [--engine polling|event] [--cubes N] [--topology chain|star]
//!             [--checkpoint-every CYCLES] [--checkpoint-path FILE]
//!             [--trace-out FILE] [--trace-filter SUBSTR]
//!             [--metrics-every CYCLES] [--metrics-out FILE]
//!             [--profile] [--profile-out FILE]
//! camps run   --resume <FILE> [--json] [--engine …]   # continue a checkpointed run
//! camps sweep [--schemes a,b,…] [--mixes a,b,…] [--scale …] [--seed N] [--json]
//!             [--cubes N] [--topology chain|star]
//!             [--journal FILE] [--deadline-secs S] [--checkpoint-every CYCLES]
//!             [--threads N] [--trace-out FILE] [--progress-secs S]
//! camps list                    # available mixes, schemes, benchmarks
//! camps config                  # dump the Table I configuration as JSON
//! ```
//!
//! Flags that belong to the other subcommand are rejected with an error
//! rather than ignored.
//!
//! `--engine` selects the stepping strategy (default `event`). Both
//! engines produce bit-identical results; `polling` ticks every cycle
//! and is kept as the slow reference path.
//!
//! `--cubes` sizes the memory pool (power of two; default 1, the
//! paper's single-cube machine) and `--topology` picks how the cubes
//! are wired (`chain` daisy-chains them off the host, `star` hangs
//! every cube one hop off host-attached cube 0). With one cube both
//! flags are inert and the machine is bit-identical to the
//! pre-topology engine.
//!
//! The JSON output is the serialized [`camps::metrics::RunResult`] —
//! machine-consumable for plotting pipelines.
//!
//! `--checkpoint-every` snapshots the run to `--checkpoint-path`
//! (default `camps.ckpt.json`) every N cycles; `--resume` continues from
//! such a file. A run that fails exits nonzero with its typed error;
//! the simulator is deterministic, so re-running it unchanged fails the
//! same way.
//!
//! `--trace-out` writes a Chrome trace-event JSON of every request
//! lifecycle (open it at `ui.perfetto.dev`); `--trace-filter` keeps only
//! stages whose name contains the substring. `--metrics-every N` samples
//! the machine every N cycles into `--metrics-out` (CSV when the file
//! ends in `.csv`, JSONL otherwise; defaults to `camps.metrics.jsonl`).
//!
//! `--profile` turns on the host-side self-profiler: per-component
//! wall-clock attribution of the simulator's own run time, printed as a
//! table after the run (and embedded in `--json` output under
//! `profile`). `--profile-out` additionally writes folded-stack lines
//! for flamegraph tooling (`flamegraph.pl`, speedscope, inferno).
//!
//! `camps sweep` runs under the resilient supervisor
//! ([`camps::sweep`]): `--journal` streams completed results into an
//! append-only crash-safe JSONL file (re-invoking with the same journal
//! skips finished jobs, so a killed sweep resumes where it stopped).
//! Each job runs once: a job that fails is quarantined, and with
//! `--checkpoint-every` it leaves its last checkpoint behind, which the
//! next invocation resumes from. `--deadline-secs` bounds each job's
//! wall-clock time; `--threads` overrides the worker count (as does
//! `RAYON_NUM_THREADS`). On sweeps, `--trace-out` writes sweep-level
//! Perfetto instants (job completions, quarantines) instead of a
//! per-request trace.
//! The exit code is nonzero when any job ends quarantined; partial
//! results are still printed.

use camps::experiment::{RunLength, RunSpec};
use camps::metrics::{average_speedup, speedup_table, RunResult};
use camps::sweep::{run_sweep, SweepPolicy};
use camps::system::Engine;
use camps_obs::{ObsConfig, TraceHandle};
use camps_prefetch::SchemeKind;
use camps_types::config::{SystemConfig, TopologyKind};
use camps_workloads::{Mix, ALL_MIXES};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command-line options shared by `run` and `sweep`.
struct Options {
    scale: RunLength,
    seed: u64,
    json: bool,
    schemes: Vec<SchemeKind>,
    mixes: Vec<&'static Mix>,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<PathBuf>,
    resume: Option<PathBuf>,
    engine: Engine,
    obs: ObsConfig,
    journal: Option<PathBuf>,
    deadline_secs: Option<f64>,
    threads: Option<usize>,
    progress_secs: Option<f64>,
    cubes: u32,
    topology: TopologyKind,
}

/// Flags only `camps sweep` reads.
const SWEEP_ONLY: [&str; 4] = [
    "--journal",
    "--deadline-secs",
    "--threads",
    "--progress-secs",
];

/// Flags only `camps run` reads.
const RUN_ONLY: [&str; 3] = ["--engine", "--checkpoint-path", "--resume"];

/// Parses the options of `camps <command>`, rejecting flags that belong
/// to the other subcommand.
fn parse_options(command: &str, args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: RunLength::quick(),
        seed: 0xCA3B5,
        json: false,
        schemes: SchemeKind::ALL.to_vec(),
        mixes: ALL_MIXES.iter().collect(),
        checkpoint_every: None,
        checkpoint_path: None,
        resume: None,
        engine: Engine::default(),
        obs: ObsConfig::default(),
        journal: None,
        deadline_secs: None,
        threads: None,
        progress_secs: None,
        cubes: 1,
        topology: TopologyKind::default(),
    };
    let (foreign, other) = if command == "run" {
        (&SWEEP_ONLY[..], "sweep")
    } else {
        (&RUN_ONLY[..], "run")
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if foreign.contains(&arg.as_str()) {
            return Err(format!(
                "camps: {arg} applies to `camps {other}`, not `camps {command}`"
            ));
        }
        match arg.as_str() {
            "--scale" => {
                opts.scale = match it.next().map(String::as_str) {
                    Some("tiny") => RunLength::tiny(),
                    Some("quick") => RunLength::quick(),
                    Some("standard") => RunLength::standard(),
                    Some("thorough") => RunLength::thorough(),
                    other => return Err(format!("bad --scale {other:?}")),
                }
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--json" => opts.json = true,
            "--schemes" => {
                let list = it.next().ok_or("--schemes needs a list")?;
                opts.schemes = list.split(',').map(str::parse).collect::<Result<_, _>>()?;
            }
            "--mixes" => {
                let list = it.next().ok_or("--mixes needs a list")?;
                opts.mixes = list
                    .split(',')
                    .map(|m| Mix::by_id(m).ok_or_else(|| format!("unknown mix `{m}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--checkpoint-every needs a cycle count")?,
                );
            }
            "--checkpoint-path" => {
                opts.checkpoint_path = Some(PathBuf::from(
                    it.next().ok_or("--checkpoint-path needs a file")?,
                ));
            }
            "--max-recoveries" => {
                return Err(
                    "camps: --max-recoveries was removed together with in-process \
                            rollback; resume a failed run with `camps run --resume FILE`"
                        .into(),
                );
            }
            "--resume" => {
                opts.resume = Some(PathBuf::from(it.next().ok_or("--resume needs a file")?));
            }
            "--engine" => {
                opts.engine = it.next().ok_or("--engine needs polling|event")?.parse()?;
            }
            "--trace-out" => {
                opts.obs.trace_out =
                    Some(PathBuf::from(it.next().ok_or("--trace-out needs a file")?));
            }
            "--trace-filter" => {
                opts.obs.trace_filter =
                    Some(it.next().ok_or("--trace-filter needs a substring")?.clone());
            }
            "--metrics-every" => {
                opts.obs.metrics_every = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--metrics-every needs a cycle count")?,
                );
            }
            "--metrics-out" => {
                opts.obs.metrics_out = Some(PathBuf::from(
                    it.next().ok_or("--metrics-out needs a file")?,
                ));
            }
            "--profile" => {
                opts.obs.profile = true;
            }
            "--profile-out" => {
                opts.obs.profile_out = Some(PathBuf::from(
                    it.next().ok_or("--profile-out needs a file")?,
                ));
            }
            "--journal" => {
                opts.journal = Some(PathBuf::from(it.next().ok_or("--journal needs a file")?));
            }
            "--deadline-secs" => {
                opts.deadline_secs = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--deadline-secs needs seconds")?,
                );
            }
            "--threads" => {
                opts.threads = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--threads needs a count")?,
                );
            }
            "--progress-secs" => {
                opts.progress_secs = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--progress-secs needs seconds")?,
                );
            }
            "--cubes" => {
                opts.cubes = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--cubes needs a power-of-two count")?;
            }
            "--topology" => {
                opts.topology = it.next().ok_or("--topology needs chain|star")?.parse()?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn emit(results: &[RunResult], json: bool) -> ExitCode {
    if json {
        match serde_json::to_string_pretty(results) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("camps: cannot serialize results: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    for r in results {
        println!("{}", r.summary());
        if let Some(p) = &r.profile {
            println!("{}", p.render_table());
        }
    }
    if results.len() > 1 {
        let cells = speedup_table(results);
        if !cells.is_empty() {
            println!("speedup vs BASE (geomean over mixes):");
            for scheme in SchemeKind::ALL {
                if let Some(v) = average_speedup(&cells, scheme) {
                    println!("  {:>10}: {v:.3}", scheme.name());
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SystemConfig::paper_default();
    match args.first().map(String::as_str) {
        Some("run") => {
            // `camps run --resume <FILE>` takes mix/scheme/seed from the
            // snapshot manifest, so the positionals are optional there.
            let flags_only = args.get(1).is_some_and(|a| a.starts_with("--"));
            let (mix_scheme, rest) = if flags_only {
                (None, &args[1..])
            } else {
                if args.len() < 3 {
                    eprintln!(
                        "usage: camps run <MIX> <SCHEME> [options] | camps run --resume <FILE>"
                    );
                    return ExitCode::FAILURE;
                }
                let Some(mix) = Mix::by_id(&args[1]) else {
                    eprintln!("unknown mix `{}` (try `camps list`)", args[1]);
                    return ExitCode::FAILURE;
                };
                let scheme = match args[2].parse() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                (Some((mix, scheme)), &args[3..])
            };
            let mut opts = match parse_options("run", rest) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            cfg.topology.cubes = opts.cubes;
            cfg.topology.kind = opts.topology;
            if opts.obs.wants_any() {
                if !TraceHandle::compiled() {
                    eprintln!(
                        "camps: this binary was built without the `obs` feature; \
                         rebuild without `--no-default-features` to trace"
                    );
                    return ExitCode::FAILURE;
                }
                if opts.resume.is_some() {
                    eprintln!("camps: tracing flags are not supported with --resume");
                    return ExitCode::FAILURE;
                }
                // Metrics sampling with no sink still deserves a file.
                if opts.obs.metrics_every.is_some() && opts.obs.metrics_out.is_none() {
                    opts.obs.metrics_out = Some(PathBuf::from("camps.metrics.jsonl"));
                }
            }
            let spec = match (&opts.resume, mix_scheme) {
                (Some(path), _) => match RunSpec::from_snapshot(&cfg, path) {
                    Ok(spec) => spec,
                    Err(e) => {
                        eprintln!("camps: resume failed: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                (None, Some((mix, scheme))) => {
                    RunSpec::new(&cfg, mix, scheme, opts.scale, opts.seed)
                }
                (None, None) => {
                    eprintln!("camps run needs <MIX> <SCHEME>, or --resume <FILE>");
                    return ExitCode::FAILURE;
                }
            };
            let spec = RunSpec {
                engine: opts.engine,
                obs: opts.obs.wants_any().then(|| opts.obs.clone()),
                checkpoint: opts.checkpoint_every.map(|every| {
                    let path = opts.checkpoint_path.clone();
                    (
                        every,
                        path.unwrap_or_else(|| PathBuf::from("camps.ckpt.json")),
                    )
                }),
                ..spec
            };
            let result = match spec.run() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("camps: run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(p) = &opts.obs.trace_out {
                eprintln!("camps: trace written to {}", p.display());
            }
            if let Some(p) = &opts.obs.metrics_out {
                eprintln!("camps: metrics written to {}", p.display());
            }
            emit(&[result], opts.json)
        }
        Some("sweep") => {
            let opts = match parse_options("sweep", &args[1..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            cfg.topology.cubes = opts.cubes;
            cfg.topology.kind = opts.topology;
            if opts.obs.trace_filter.is_some()
                || opts.obs.metrics_every.is_some()
                || opts.obs.metrics_out.is_some()
                || opts.obs.wants_profile()
            {
                eprintln!(
                    "camps: per-request tracing/profiling flags apply to `camps run`; \
                     `camps sweep` supports only --trace-out (sweep-level instants)"
                );
                return ExitCode::FAILURE;
            }
            if opts.obs.trace_out.is_some() && !TraceHandle::compiled() {
                eprintln!(
                    "camps: this binary was built without the `obs` feature; \
                     rebuild without `--no-default-features` to trace"
                );
                return ExitCode::FAILURE;
            }
            let mixes: Vec<Mix> = opts.mixes.iter().map(|m| **m).collect();
            let policy = SweepPolicy {
                job_deadline: opts.deadline_secs.map(Duration::from_secs_f64),
                checkpoint_every: opts.checkpoint_every,
                journal_path: opts.journal.clone(),
                threads: opts.threads,
                trace_out: opts.obs.trace_out.clone(),
                progress_every: opts.progress_secs.map(Duration::from_secs_f64),
                faults: Default::default(),
            };
            let run = match run_sweep(&cfg, &mixes, &opts.schemes, &opts.scale, opts.seed, &policy)
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("camps: sweep failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprint!("{}", run.report.render());
            let results: Vec<RunResult> = run.results.into_iter().flatten().collect();
            let code = emit(&results, opts.json);
            if run.report.quarantined > 0 {
                // Partial results were printed, but the sweep is not
                // whole — fail the invocation for scripts and CI.
                return ExitCode::FAILURE;
            }
            code
        }
        Some("list") => {
            println!("mixes (Table II):");
            for m in &ALL_MIXES {
                println!("  {:4} [{:?}] {}", m.id, m.class, m.benchmarks.join(", "));
            }
            println!("\nschemes: nopf base basehit mmd camps campsmod");
            ExitCode::SUCCESS
        }
        Some("config") => match serde_json::to_string_pretty(&cfg) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("camps: cannot serialize config: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: camps <run|sweep|list|config> …\n\
                 \n  camps run HM1 campsmod --scale quick --json\
                 \n  camps run HM1 campsmod --engine polling   # slow reference engine\
                 \n  camps run HM1 campsmod --checkpoint-every 1000000\
                 \n  camps run HM1 campsmod --trace-out run.trace.json --metrics-every 1000\
                 \n  camps run --resume camps.ckpt.json\
                 \n  camps sweep --mixes HM1,LM1 --schemes base,campsmod\
                 \n  camps sweep --cubes 2 --topology chain   # multi-cube pool\
                 \n  camps sweep --journal sweep.jsonl --checkpoint-every 1000000\
                 \n  camps list | camps config"
            );
            ExitCode::FAILURE
        }
    }
}
