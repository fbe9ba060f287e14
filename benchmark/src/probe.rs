//! Layer probes timed from outside the simulator: an idle memory-side
//! tick, trace generation, and a fixed host-speed reference kernel.

use crate::report::median;
use crate::workload::{Job, SCALE};
use camps::system::MemorySubsystem;
use camps_obs::Profiler;
use std::hint::black_box;
use std::time::Instant;

/// Ticks per idle-tick batch; the probe reports the median batch.
const IDLE_TICKS: u64 = 20_000 / SCALE;
const IDLE_BATCHES: usize = 5;
/// Ops drawn from the job's trace sources per generation batch.
const TRACE_OPS: u64 = 1_000_000 / SCALE;
const TRACE_BATCHES: usize = 3;

/// Host nanoseconds of one `MemorySubsystem::tick` with nothing in
/// flight, on the job's own machine: the floor every visited cycle pays
/// before any request exists.
pub fn mem_idle_tick_ns(job: &Job) -> Result<f64, String> {
    let mut mem = MemorySubsystem::new(&job.cfg, job.scheme).map_err(|e| e.to_string())?;
    let mut woken = Vec::new();
    let mut prof = Profiler::off();
    let mut now = 0;
    let mut batches = Vec::with_capacity(IDLE_BATCHES);
    for _ in 0..IDLE_BATCHES {
        let start = Instant::now();
        for _ in 0..IDLE_TICKS {
            now += 1;
            mem.tick(now, &mut woken, &mut prof);
        }
        batches.push(start.elapsed().as_nanos() as f64 / IDLE_TICKS as f64);
    }
    if !woken.is_empty() {
        return Err("an idle memory subsystem completed a load".into());
    }
    Ok(median(&batches))
}

/// Host nanoseconds per `TraceSource::next_op`, drawn round-robin from
/// the job's per-core streams.
pub fn trace_ns_per_op(job: &Job) -> Result<f64, String> {
    let mut batches = Vec::with_capacity(TRACE_BATCHES);
    for _ in 0..TRACE_BATCHES {
        let mut traces = job.traces()?;
        let cores = traces.len() as u64;
        let start = Instant::now();
        for i in 0..TRACE_OPS {
            black_box(traces[(i % cores) as usize].next_op());
        }
        batches.push(start.elapsed().as_nanos() as f64 / TRACE_OPS as f64);
    }
    Ok(median(&batches))
}

/// Milliseconds of a fixed integer-and-L1 loop owned by the benchmark.
/// It does not change when the simulator does, so a slower reading
/// means a slower host, not a regression.
pub fn host_ref_ms() -> f64 {
    let start = Instant::now();
    let mut table = [0u64; 4096];
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..2_000_000 / SCALE {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x & 4095) as usize];
        *slot = slot.wrapping_add(x);
    }
    black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}
