//! A single DRAM bank as a timing state machine, and the commands a vault
//! controller sends it.
//!
//! The bank tracks the row currently latched in its row buffer plus a small
//! set of "earliest next command" timestamps. [`Bank::ready_at`] says when
//! a [`DramCmd`] may issue; [`Bank::apply`] debits the command's timing
//! constraints (tRCD, tRP, tRAS, tRC, tWR, tRTP, tCCD, tRFC) and returns
//! when its data is done. Applying a command before it is ready is a
//! simulator bug and panics.

use crate::timing::TimingCpu;
use camps_types::clock::Cycle;
use serde::{Deserialize, Serialize};

/// How an access relates to the bank's current row-buffer state.
///
/// This is the classification behind Figure 6 (row-buffer conflicts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessCategory {
    /// The needed row is already open.
    Hit,
    /// The bank is precharged/idle; the row must be activated.
    Miss,
    /// A *different* row is open; precharge + activate are required.
    Conflict,
}

/// Whose work a command does, where the vault's bookkeeping tells them
/// apart: an ACT counts as a demand or writeback activation, and only a
/// demand RD is charged as a read burst (a prefetch row copy is charged
/// as a whole-row fetch when it lands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A queued demand request.
    Demand,
    /// A whole-row copy into the prefetch buffer.
    Prefetch,
    /// A dirty prefetched row going back to its bank.
    Writeback,
}

/// One DRAM command. `bank` indexes the vault's bank array; a [`Bank`]
/// applying the command ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramCmd {
    /// Activate: latch `row` into the idle bank's row buffer.
    Act {
        /// Target bank.
        bank: u16,
        /// Row to open.
        row: u32,
        /// Demand or writeback.
        cause: Cause,
    },
    /// Precharge: close the open row.
    Pre {
        /// Target bank.
        bank: u16,
    },
    /// One 64 B read burst from the open row. A row copy into the
    /// prefetch buffer streams as a run of these, one bus slot each.
    Rd {
        /// Target bank.
        bank: u16,
        /// Demand burst or prefetch chunk.
        cause: Cause,
    },
    /// One 64 B write burst into the open row.
    Wr {
        /// Target bank.
        bank: u16,
    },
    /// A whole (dirty) row streamed from the prefetch buffer back into the
    /// open row; write recovery applies before the row may close.
    RowIn {
        /// Target bank.
        bank: u16,
    },
    /// TRR-style targeted refresh of hammered `row`'s two physical
    /// neighbors: each gets a private activate + precharge cycle, stolen
    /// from whatever the bank would have done next. The bank may keep
    /// serving its *open* row (real TRR fires between row cycles) but
    /// cannot open another for 2 × tRC. Purely additive to the ACT gate,
    /// so it is always legal and can never wedge the state machine.
    Trr {
        /// Target bank.
        bank: u16,
        /// The hammered row.
        row: u32,
    },
    /// All-bank refresh: every bank must be idle, and none may activate
    /// for tRFC.
    Ref,
}

impl DramCmd {
    /// The bank this command addresses; `None` for the all-bank REF.
    #[inline]
    #[must_use]
    pub fn bank(&self) -> Option<usize> {
        match *self {
            DramCmd::Act { bank, .. }
            | DramCmd::Pre { bank }
            | DramCmd::Rd { bank, .. }
            | DramCmd::Wr { bank }
            | DramCmd::RowIn { bank }
            | DramCmd::Trr { bank, .. } => Some(usize::from(bank)),
            DramCmd::Ref => None,
        }
    }
}

/// One DRAM bank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bank {
    open_row: Option<u32>,
    /// Earliest cycle the next ACT may issue (tRC from last ACT, tRP from
    /// last PRE).
    ready_act: Cycle,
    /// Earliest cycle a RD/WR may issue to the open row (tRCD after ACT,
    /// tCCD after a previous burst).
    ready_rdwr: Cycle,
    /// Earliest cycle a PRE may issue (tRAS after ACT, tWR/tRTP after
    /// bursts).
    ready_pre: Cycle,
    /// The bank's array/TSV path is occupied until here (row transfers).
    busy_until: Cycle,
    /// Total cycles the bank has spent with a row open (for energy/debug).
    open_cycles: Cycle,
    last_act_at: Cycle,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// A precharged, idle bank.
    #[must_use]
    pub fn new() -> Self {
        Self {
            open_row: None,
            ready_act: 0,
            ready_rdwr: 0,
            ready_pre: 0,
            busy_until: 0,
            open_cycles: 0,
            last_act_at: 0,
        }
    }

    /// The row currently latched in the row buffer, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Earliest cycle `cmd` may issue, or `None` while the row-buffer
    /// state forbids it: ACT and REF need the bank idle; RD, WR, row-in
    /// and PRE need a row latched. TRR is always legal.
    #[inline]
    #[must_use]
    pub fn ready_at(&self, cmd: &DramCmd) -> Option<Cycle> {
        let gate = match (cmd, self.open_row) {
            (DramCmd::Act { .. }, None) => self.ready_act,
            (DramCmd::Rd { .. } | DramCmd::Wr { .. } | DramCmd::RowIn { .. }, Some(_)) => {
                self.ready_rdwr
            }
            (DramCmd::Pre { .. }, Some(_)) => self.ready_pre,
            (DramCmd::Ref, None) => 0,
            (DramCmd::Trr { .. }, _) => return Some(0),
            _ => return None,
        };
        Some(gate.max(self.busy_until))
    }

    /// Applies `cmd` at `now` and returns the cycle its data is done: a
    /// read burst has crossed the TSVs, a write burst or row-in has been
    /// absorbed by the array. Commands that move no data return `now`.
    ///
    /// # Panics
    /// Panics if `cmd` is not ready at `now` (see [`Bank::ready_at`]).
    pub fn apply(&mut self, cmd: DramCmd, now: Cycle, t: &TimingCpu) -> Cycle {
        assert!(
            self.ready_at(&cmd).is_some_and(|at| at <= now),
            "illegal {cmd:?} at cycle {now}: {self:?}"
        );
        match cmd {
            DramCmd::Act { row, .. } => {
                self.open_row = Some(row);
                self.ready_rdwr = now + t.t_rcd;
                self.ready_pre = now + t.t_ras;
                self.ready_act = now + t.t_rc;
                self.last_act_at = now;
                now
            }
            DramCmd::Pre { .. } => {
                self.open_cycles += now - self.last_act_at;
                self.open_row = None;
                self.ready_act = self.ready_act.max(now + t.t_rp);
                now
            }
            DramCmd::Rd { .. } => {
                self.ready_rdwr = self.ready_rdwr.max(now + t.t_ccd);
                self.ready_pre = self.ready_pre.max(now + t.t_rtp);
                now + t.t_cl + t.t_burst
            }
            DramCmd::Wr { .. } => {
                self.ready_rdwr = self.ready_rdwr.max(now + t.t_ccd);
                let data_done = now + t.t_wl + t.t_burst;
                self.ready_pre = self.ready_pre.max(data_done + t.t_wr);
                data_done
            }
            DramCmd::RowIn { .. } => {
                let done = now + t.t_row_transfer;
                self.busy_until = done;
                self.ready_pre = self.ready_pre.max(done + t.t_wr);
                self.ready_rdwr = self.ready_rdwr.max(done);
                done
            }
            DramCmd::Trr { .. } => {
                self.ready_act = self.ready_act.max(now + 2 * t.t_rc);
                now
            }
            DramCmd::Ref => {
                self.ready_act = self.ready_act.max(now + t.t_rfc);
                self.busy_until = self.busy_until.max(now + t.t_rfc);
                now
            }
        }
    }

    /// Cumulative cycles this bank has had a row open (completed intervals
    /// only).
    #[must_use]
    pub fn open_cycles(&self) -> Cycle {
        self.open_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::config::SystemConfig;
    use proptest::prelude::*;

    const ACT: DramCmd = DramCmd::Act {
        bank: 0,
        row: 1,
        cause: Cause::Demand,
    };
    const PRE: DramCmd = DramCmd::Pre { bank: 0 };
    const RD: DramCmd = DramCmd::Rd {
        bank: 0,
        cause: Cause::Demand,
    };
    const WR: DramCmd = DramCmd::Wr { bank: 0 };

    fn t() -> TimingCpu {
        let c = SystemConfig::paper_default();
        TimingCpu::from_config(&c.dram, c.cpu.freq_hz)
    }

    /// True once `cmd` may issue at `now`.
    fn ready(b: &Bank, cmd: DramCmd, now: Cycle) -> bool {
        b.ready_at(&cmd).is_some_and(|at| at <= now)
    }

    #[test]
    fn fresh_bank_is_idle_and_activatable() {
        let b = Bank::new();
        assert_eq!(b.open_row(), None);
        assert_eq!(b.ready_at(&ACT), Some(0));
        assert_eq!(b.ready_at(&RD), None);
        assert_eq!(b.ready_at(&PRE), None);
        assert_eq!(b.ready_at(&DramCmd::RowIn { bank: 0 }), None);
    }

    #[test]
    fn row_buffer_state_forbids_commands() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        assert_eq!(b.open_row(), Some(1));
        assert_eq!(b.ready_at(&ACT), None, "ACT needs an idle bank");
        assert_eq!(b.ready_at(&DramCmd::Ref), None, "REF needs an idle bank");
        assert_eq!(b.ready_at(&DramCmd::Trr { bank: 0, row: 1 }), Some(0));
    }

    #[test]
    fn trcd_gates_read_after_activate() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        assert!(!ready(&b, RD, tm.t_rcd - 1));
        assert!(ready(&b, RD, tm.t_rcd));
        let done = b.apply(RD, tm.t_rcd, &tm);
        assert_eq!(done, tm.t_rcd + tm.t_cl + tm.t_burst);
    }

    #[test]
    fn tras_gates_precharge() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        assert!(!ready(&b, PRE, tm.t_ras - 1));
        assert!(ready(&b, PRE, tm.t_ras));
    }

    #[test]
    fn trp_gates_next_activate() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        b.apply(PRE, tm.t_ras, &tm);
        assert!(!ready(&b, ACT, tm.t_ras + tm.t_rp - 1));
        assert!(ready(&b, ACT, tm.t_ras + tm.t_rp));
    }

    #[test]
    fn trc_gates_back_to_back_activates() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        // Precharge as early as possible (tRAS), then the next ACT is still
        // held until tRC even though tRAS + tRP < tRC could permit earlier.
        b.apply(PRE, tm.t_ras, &tm);
        let earliest = b.ready_at(&ACT).unwrap();
        assert_eq!(earliest, tm.t_rc.max(tm.t_ras + tm.t_rp));
        assert!(ready(&b, ACT, earliest));
    }

    #[test]
    fn read_extends_precharge_by_trtp() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        // A read late in the row's life pushes PRE past tRAS.
        let rd_at = tm.t_ras;
        b.apply(RD, rd_at, &tm);
        assert!(!ready(&b, PRE, rd_at));
        assert!(ready(&b, PRE, rd_at + tm.t_rtp));
    }

    #[test]
    fn write_recovery_gates_precharge() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        let done = b.apply(WR, tm.t_rcd, &tm);
        assert_eq!(done, tm.t_rcd + tm.t_wl + tm.t_burst);
        assert!(!ready(&b, PRE, done + tm.t_wr - 1));
        assert!(ready(&b, PRE, done + tm.t_wr));
    }

    #[test]
    fn tccd_spaces_bursts() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        b.apply(RD, tm.t_rcd, &tm);
        assert!(!ready(&b, WR, tm.t_rcd + tm.t_ccd - 1));
        assert!(ready(&b, WR, tm.t_rcd + tm.t_ccd));
    }

    #[test]
    fn row_writeback_occupies_bank_and_needs_write_recovery() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        let done = b.apply(DramCmd::RowIn { bank: 0 }, tm.t_rcd, &tm);
        assert_eq!(done, tm.t_rcd + tm.t_row_transfer);
        assert!(!ready(&b, RD, done - 1));
        assert!(ready(&b, RD, done));
        assert!(!ready(&b, PRE, done + tm.t_wr - 1));
        assert!(ready(&b, PRE, (done + tm.t_wr).max(tm.t_ras)));
    }

    #[test]
    fn open_cycles_accumulate() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        b.apply(PRE, tm.t_ras, &tm);
        assert_eq!(b.open_cycles(), tm.t_ras);
    }

    #[test]
    fn refresh_blocks_activation_for_trfc() {
        let tm = t();
        let mut b = Bank::new();
        assert!(ready(&b, DramCmd::Ref, 0));
        b.apply(DramCmd::Ref, 0, &tm);
        assert!(!ready(&b, ACT, tm.t_rfc - 1));
        assert!(ready(&b, ACT, tm.t_rfc));
        assert!(!ready(&b, DramCmd::Ref, tm.t_rfc - 1));
    }

    #[test]
    fn trr_penalty_delays_the_next_activation_only() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        b.apply(DramCmd::Trr { bank: 0, row: 1 }, tm.t_rcd, &tm);
        // The open row keeps serving — bursts are unaffected.
        assert!(ready(&b, RD, tm.t_rcd));
        b.apply(PRE, tm.t_ras, &tm);
        // …but the next ACT waits out the two stolen neighbor row cycles.
        let penalty_end = tm.t_rcd + 2 * tm.t_rc;
        assert!(!ready(&b, ACT, penalty_end - 1));
        assert!(ready(&b, ACT, penalty_end));
    }

    #[test]
    #[should_panic(expected = "illegal Ref")]
    fn refresh_on_open_bank_panics() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        b.apply(DramCmd::Ref, tm.t_ras, &tm);
    }

    #[test]
    #[should_panic(expected = "illegal Rd")]
    fn premature_read_panics() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        let _ = b.apply(RD, 1, &tm);
    }

    #[test]
    #[should_panic(expected = "illegal Act")]
    fn activate_on_open_bank_panics() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        b.apply(ACT, tm.t_rc, &tm);
    }

    #[test]
    fn refresh_after_precharge_respects_trp() {
        let tm = t();
        let mut b = Bank::new();
        b.apply(ACT, 0, &tm);
        b.apply(PRE, tm.t_ras, &tm);
        // Refresh may start right after PRE (bank idle), and the next ACT
        // honors both tRP and tRFC.
        assert!(ready(&b, DramCmd::Ref, tm.t_ras));
        b.apply(DramCmd::Ref, tm.t_ras, &tm);
        let at = b.ready_at(&ACT).unwrap();
        assert!(at >= tm.t_ras + tm.t_rfc);
        assert!(ready(&b, ACT, at));
    }

    // Drive a bank with a random but *legal* command sequence and check
    // the state machine never wedges: from any state, waiting long enough
    // always re-enables progress.
    proptest! {
        #[test]
        fn random_legal_sequences_never_wedge(ops in prop::collection::vec(0u8..4, 1..60)) {
            let tm = t();
            let mut b = Bank::new();
            let mut now: Cycle = 0;
            for op in ops {
                let cmd = [ACT, RD, WR, PRE][usize::from(op)];
                // Advance until the chosen op is legal; RD/WR/PRE while
                // idle need an ACT first, and an ACT while open a PRE.
                for _ in 0..10_000 {
                    if ready(&b, cmd, now) {
                        b.apply(cmd, now, &tm);
                        break;
                    }
                    let path = if b.open_row().is_none() { ACT } else { PRE };
                    if b.ready_at(&cmd).is_none() && ready(&b, path, now) {
                        b.apply(path, now, &tm);
                    }
                    now += 1;
                }
            }
            // After any sequence the bank can always be returned to idle.
            for _ in 0..10_000 {
                if b.open_row().is_none() {
                    break;
                }
                if ready(&b, PRE, now) {
                    b.apply(PRE, now, &tm);
                }
                now += 1;
            }
            prop_assert!(b.open_row().is_none());
        }
    }
}
