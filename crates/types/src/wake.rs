//! The wake-time contract of the event-driven simulation engine.
//!
//! Every stateful component implements [`Wake`] by answering one question:
//! *given that nothing external happens, when is the earliest cycle at
//! which ticking you could change state?* The engine folds those answers
//! into a single earliest-wake cycle and advances `now` straight to it,
//! skipping the cycles in between — which are provably no-op ticks.
//!
//! The contract is deliberately **conservative**: a component may report a
//! wake *earlier* than its next real state change (the engine simply runs
//! a no-op tick, identical to what the polling engine would have done),
//! but it must never report one *later* — that would skip a cycle on which
//! the polling engine would have acted, breaking bit-identical equivalence.

use crate::clock::Cycle;

/// A component that can report the next cycle at which it needs a tick.
pub trait Wake {
    /// Earliest cycle strictly after `now` at which ticking this component
    /// could change its state (beyond deterministic idle accounting that
    /// the engine applies in bulk), or `None` if the component is fully
    /// quiescent until some external input arrives.
    ///
    /// Implementations must be pure (`&self`) and conservative: too-early
    /// answers cost a wasted tick, too-late answers break equivalence with
    /// the polling engine.
    fn next_event(&self, now: Cycle) -> Option<Cycle>;
}

/// Who won a wake fold: the component whose `next_event` answer (or
/// engine-internal deadline) set the cycle the event engine jumped to.
/// Used by the self-profiler's dispatch accounting — *which* source
/// wakes us, how often those wakes are spurious — and deliberately
/// decoupled from the fold itself so accounting can never perturb the
/// engine's bit-identical wake computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSource {
    /// A core's front-end or pending memory slot.
    Core,
    /// The memory subsystem (host queue, links, vaults, refresh).
    Memory,
    /// The stall watchdog's trip deadline.
    Watchdog,
    /// The periodic metrics sampler.
    Sampler,
    /// No component reported a wake; the engine fell back to the run
    /// deadline (end of the measured window).
    Deadline,
}

impl WakeSource {
    /// Number of variants (sizing accounting arrays).
    pub const COUNT: usize = 5;

    /// Every variant, in `as usize` order.
    pub const ALL: [WakeSource; WakeSource::COUNT] = [
        WakeSource::Core,
        WakeSource::Memory,
        WakeSource::Watchdog,
        WakeSource::Sampler,
        WakeSource::Deadline,
    ];

    /// Stable snake_case label for exports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            WakeSource::Core => "core",
            WakeSource::Memory => "memory",
            WakeSource::Watchdog => "watchdog",
            WakeSource::Sampler => "sampler",
            WakeSource::Deadline => "deadline",
        }
    }
}

/// Folds a wake candidate into an accumulator, keeping the earliest.
///
/// Candidates at or before `now` are clamped to `now + 1`: the component is
/// actionable immediately, and the earliest cycle the engine can legally
/// advance to is the very next one.
pub fn fold_wake(acc: &mut Option<Cycle>, now: Cycle, candidate: Option<Cycle>) {
    if let Some(at) = candidate {
        let at = at.max(now + 1);
        *acc = Some(acc.map_or(at, |cur| cur.min(at)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_keeps_earliest_and_clamps() {
        let mut acc = None;
        fold_wake(&mut acc, 10, None);
        assert_eq!(acc, None);
        fold_wake(&mut acc, 10, Some(25));
        assert_eq!(acc, Some(25));
        fold_wake(&mut acc, 10, Some(40));
        assert_eq!(acc, Some(25));
        fold_wake(&mut acc, 10, Some(3)); // past-due clamps to now + 1
        assert_eq!(acc, Some(11));
        fold_wake(&mut acc, 10, Some(10)); // `now` itself also clamps
        assert_eq!(acc, Some(11));
    }
}
