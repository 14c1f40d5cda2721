//! Detect → rollback → re-execute: the checkpoint-recovery driver.
//!
//! The paper's architecture *detects* errors; this module closes the loop
//! the paper sketches for recovery (§III: "the register checkpoint …
//! could be used to roll back execution"). When a checker flags a
//! segment, the driver rolls architectural state back to the last
//! *validated* checkpoint, undoes every committed store since it (the
//! undo column of the load-store log holds each store's pre-image), and
//! re-executes from there on a fresh system. Retries are bounded: a
//! fault that keeps striking (a permanent stuck-at) cannot livelock the
//! machine — after `max_retries` rollbacks the driver escalates to
//! **graceful degradation**, executing the remainder functionally on a
//! known-good in-order core (the checker core taking over, DCLS-style),
//! which guarantees forward progress for every fault the checkers can
//! see.
//!
//! # The forward-progress argument
//!
//! * Folds run in seal order, so the first failed check freezes the
//!   unvalidated-segment window with the errored segment at its front —
//!   its start checkpoint is by induction the last validated state.
//! * Rolling back applies store pre-images newest-segment-first, each
//!   segment's stores reversed, restoring memory exactly to that
//!   checkpoint (aliased stores unwind correctly because application
//!   order is the exact reverse of commit order).
//! * A transient strike is consumed by its firing, so the re-execution
//!   is fault-free and — execution being deterministic — bit-identical
//!   to an uninterrupted run (determinism invariant 9, rollback
//!   transparency).
//! * A strike that persists (intermittent before its count runs out,
//!   permanent always) re-fires, is re-detected, and burns one retry per
//!   attempt; the retry bound then forces the degraded path, which the
//!   fault model places outside the fault's reach.

use crate::config::SystemConfig;
use crate::scratch::SimScratch;
use crate::system::PairedSystem;
use paradet_isa::{ArchState, FlatMemory, NoNondet, Program};
use paradet_mem::{ArrayFault, Time};
use paradet_ooo::{ArmedFault, FaultKind, FaultTarget};
use std::sync::Arc;

/// The complete fault load of one recovery trial: a temporal kind applied
/// to main-core strike targets, plus optional array and checker-side
/// faults (which have their own temporal semantics).
#[derive(Debug, Clone, Default)]
pub struct TrialFaults {
    /// Temporal behaviour of the main-core strikes.
    pub kind: FaultKind,
    /// Main-core strikes, `at_instr` counted over the *global* retired
    /// stream (the driver translates across rollbacks).
    pub core: Vec<ArmedFault>,
    /// A memory-array fault (fires once; survives rollback by design —
    /// arrays are not checkpointed).
    pub array: Option<ArrayFault>,
    /// A lying checker that misses every error (persists across
    /// attempts: it is checker hardware, not state).
    pub checker_miss: bool,
    /// A lying checker that reports a false positive: one log bit of the
    /// `(seal_seq, entry, bit)` segment flips before its check (§IV-I
    /// over-detection). Consumed with the discarded log copy — armed on
    /// the first attempt only.
    pub log_fault: Option<(u64, usize, u8)>,
}

/// Bounds and modeled costs of the recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Rollback attempts before escalating to the degraded path.
    pub max_retries: u32,
    /// Fixed modeled cost per rollback (checkpoint restore, store-undo
    /// walk, pipeline refill), charged to the recovery latency.
    pub rollback_penalty: Time,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy { max_retries: 3, rollback_penalty: Time::from_ns(100) }
    }
}

/// How a recovery-driven run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryDisposition {
    /// No check ever failed; no rollback happened.
    Clean,
    /// At least one rollback, then an attempt completed with every check
    /// passing.
    Recovered,
    /// Retries exhausted (or no rollback target existed); the remainder
    /// executed on the degraded functional path.
    Degraded,
    /// Even the degraded path could not complete (corrupted state drove
    /// the known-good core off the text segment).
    Unrecoverable,
}

/// Result of one fault trial under the recovery driver.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// How the run ended.
    pub disposition: RecoveryDisposition,
    /// Rollbacks performed.
    pub retries: u32,
    /// Whether any attempt's checkers flagged an error.
    pub detected: bool,
    /// Whether the program reached `halt` (on whichever path completed).
    pub halted: bool,
    /// Whether the *final* path crashed (wild PC).
    pub crashed: bool,
    /// Final architectural state — for Recovered transients this is
    /// bit-identical to the golden run's.
    pub final_state: ArchState,
    /// Final functional memory contents.
    pub final_mem: FlatMemory,
    /// Detection latency (commit of the first attempt → first error
    /// confirmation), femtoseconds; 0 when nothing was detected.
    pub detect_fs: u64,
    /// Modeled recovery cost: the full wall time of every aborted
    /// attempt plus one rollback penalty per retry, femtoseconds.
    pub recovery_fs: u64,
}

/// One concrete strike expanded from [`TrialFaults`]: `at` is global.
#[derive(Debug, Clone, Copy)]
struct Strike {
    at: u64,
    target: FaultTarget,
    /// Permanent strikes re-arm on every attempt; others are consumed by
    /// firing.
    permanent: bool,
    consumed: bool,
}

/// Expands the temporal fault kind into concrete global strikes.
fn expand(faults: &TrialFaults) -> Vec<Strike> {
    let mut strikes = Vec::new();
    for f in &faults.core {
        match faults.kind {
            FaultKind::Transient => {
                strikes.push(Strike {
                    at: f.at_instr,
                    target: f.target,
                    permanent: false,
                    consumed: false,
                });
            }
            FaultKind::Intermittent { period, count } => {
                for k in 0..count as u64 {
                    strikes.push(Strike {
                        at: f.at_instr + k * period.max(1),
                        target: f.target,
                        permanent: false,
                        consumed: false,
                    });
                }
            }
            FaultKind::Permanent => {
                strikes.push(Strike {
                    at: f.at_instr,
                    target: f.target,
                    permanent: true,
                    consumed: false,
                });
            }
        }
    }
    strikes
}

/// Runs `program` for up to `max_instrs` instructions under `faults`,
/// recovering from every detected error per `policy`. See the module
/// docs for the algorithm and the forward-progress argument.
pub fn run_recovery(
    cfg: &SystemConfig,
    program: &Arc<Program>,
    scratch: &mut SimScratch,
    max_instrs: u64,
    faults: &TrialFaults,
    policy: &RecoveryPolicy,
) -> RecoveryReport {
    let mut strikes = expand(faults);
    // Resume point: None = fresh run from the program entry.
    let mut resume: Option<(ArchState, FlatMemory)> = None;
    let mut base = 0u64; // global retired instructions at the resume point
    let mut retries = 0u32;
    let mut detected = false;
    let mut detect_fs = 0u64;
    let mut recovery_fs = 0u64;

    loop {
        let mut sys = match resume.take() {
            Some((state, mem)) => PairedSystem::new_resumed(*cfg, program, scratch, &state, mem),
            None => PairedSystem::new_with_scratch(*cfg, program, scratch),
        };
        sys.enable_recovery_tracking();
        if faults.checker_miss {
            sys.arm_checker_miss();
        }
        if retries == 0 {
            if let Some(a) = faults.array {
                sys.arm_array_fault(a);
            }
            if let Some((seq, entry, bit)) = faults.log_fault {
                sys.arm_log_fault(seq, entry, bit);
            }
        }
        // Arm every unconsumed strike, translated to this attempt's local
        // instruction stream; strikes the rollback jumped behind re-arm at
        // the first local instruction (they were still waiting to fire).
        let mut armed: Vec<(usize, ArmedFault)> = Vec::new();
        for (i, s) in strikes.iter().enumerate() {
            if s.consumed {
                continue;
            }
            let f = ArmedFault::new(s.at.saturating_sub(base), s.target);
            sys.arm_fault(f);
            armed.push((i, f));
        }

        let report = sys.run(max_instrs.saturating_sub(base));

        // A non-permanent strike is consumed once it actually fired
        // (gated strikes — e.g. a store-value flip with no store yet —
        // stay armed and carry over).
        let unfired = sys.unfired_faults().to_vec();
        for (i, f) in &armed {
            if !strikes[*i].permanent && !unfired.contains(f) {
                strikes[*i].consumed = true;
            }
        }

        if report.detected() {
            detected = true;
            if detect_fs == 0 {
                if let Some(e) = report.first_error() {
                    detect_fs = e.confirm_time.as_fs();
                }
            }
        } else {
            // Converged: every check of this attempt passed.
            let final_state = sys.core().committed_state().clone();
            let disposition = if retries == 0 {
                RecoveryDisposition::Clean
            } else {
                RecoveryDisposition::Recovered
            };
            return RecoveryReport {
                disposition,
                retries,
                detected,
                halted: report.halted,
                crashed: report.crashed,
                final_state,
                final_mem: sys.dismantle(scratch),
                detect_fs,
                recovery_fs,
            };
        }

        // Detected: roll back and retry, or escalate.
        let plan = sys.rollback_plan();
        recovery_fs += report.wall_time.as_fs() + policy.rollback_penalty.as_fs();
        match plan {
            Some(p) if retries < policy.max_retries => {
                retries += 1;
                let mut mem = sys.dismantle(scratch);
                for &(addr, width, old) in &p.undo {
                    use paradet_isa::MemoryIface;
                    mem.store(addr, width, old);
                }
                base += p.base_instr;
                resume = Some((p.state, mem));
            }
            _ => {
                // Degrade: execute the remainder functionally on a
                // known-good in-order core (checker takeover, DCLS-style)
                // from the last validated checkpoint — or, with no plan,
                // from wherever the main core stopped.
                let (mut state, mut mem, dbase) = match plan {
                    Some(p) => {
                        let mut mem = sys.dismantle(scratch);
                        for &(addr, width, old) in &p.undo {
                            use paradet_isa::MemoryIface;
                            mem.store(addr, width, old);
                        }
                        (p.state, mem, base + p.base_instr)
                    }
                    None => {
                        let state = sys.core().committed_state().clone();
                        let done = base + report.instrs;
                        (state, sys.dismantle(scratch), done)
                    }
                };
                let mut remaining = max_instrs.saturating_sub(dbase);
                let mut crashed = false;
                while remaining > 0 && !state.halted {
                    match state.run_blocks(program, &mut mem, &mut NoNondet, remaining) {
                        Ok(n) => remaining -= n,
                        Err(_) => {
                            crashed = true;
                            break;
                        }
                    }
                }
                let disposition = if crashed {
                    RecoveryDisposition::Unrecoverable
                } else {
                    RecoveryDisposition::Degraded
                };
                return RecoveryReport {
                    disposition,
                    retries,
                    detected,
                    halted: state.halted,
                    crashed,
                    final_state: state,
                    final_mem: mem,
                    detect_fs,
                    recovery_fs,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use paradet_isa::{AluOp, ProgramBuilder, Reg};
    use paradet_ooo::FaultTarget;

    fn store_loop(iters: i64) -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(256);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, iters);
        let top = b.label_here();
        b.op_imm(AluOp::And, Reg::X5, Reg::X2, 255);
        b.op_imm(AluOp::Sll, Reg::X5, Reg::X5, 3);
        b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X1);
        b.ld(Reg::X6, Reg::X5, 0);
        b.op(AluOp::Add, Reg::X6, Reg::X6, Reg::X2);
        b.sd(Reg::X6, Reg::X5, 0);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X3, top);
        b.halt();
        Arc::new(b.build())
    }

    fn golden(program: &Arc<Program>) -> (ArchState, FlatMemory) {
        let mut state = ArchState::at_entry(program);
        let mut mem = FlatMemory::new();
        mem.load_image(program);
        while !state.halted {
            state
                .run_blocks(program, &mut mem, &mut NoNondet, u64::MAX)
                .expect("golden run crashed");
        }
        (state, mem)
    }

    #[test]
    fn transient_register_fault_recovers_to_golden() {
        let program = store_loop(2000);
        let (gstate, gmem) = golden(&program);
        let faults = TrialFaults {
            kind: FaultKind::Transient,
            core: vec![ArmedFault::new(500, FaultTarget::IntRegBit { reg: Reg::X2, bit: 3 })],
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &RecoveryPolicy::default(),
        );
        assert!(r.detected);
        assert_eq!(r.disposition, RecoveryDisposition::Recovered);
        assert!(r.retries >= 1);
        assert!(r.halted && !r.crashed);
        assert_eq!(r.final_state, gstate, "rollback transparency: state ≡ golden");
        assert_eq!(r.final_mem.first_difference(&gmem), None, "memory ≡ golden");
        assert!(r.recovery_fs > 0 && r.detect_fs > 0);
    }

    #[test]
    fn permanent_stuck_alu_degrades_with_forward_progress() {
        let program = store_loop(2000);
        let (gstate, gmem) = golden(&program);
        let faults = TrialFaults {
            kind: FaultKind::Permanent,
            core: vec![ArmedFault::new(
                500,
                FaultTarget::AluStuckAt { unit: 0, bit: 0, value: true },
            )],
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let policy = RecoveryPolicy { max_retries: 2, ..RecoveryPolicy::default() };
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &policy,
        );
        assert!(r.detected);
        assert_eq!(r.disposition, RecoveryDisposition::Degraded, "no livelock on hard faults");
        assert_eq!(r.retries, 2, "burned every retry before escalating");
        assert!(r.halted);
        assert_eq!(r.final_state, gstate, "degraded path still reaches the golden state");
        assert_eq!(r.final_mem.first_difference(&gmem), None);
    }

    #[test]
    fn intermittent_fault_recovers_once_strikes_run_out() {
        let program = store_loop(2000);
        let (gstate, _) = golden(&program);
        let faults = TrialFaults {
            kind: FaultKind::Intermittent { period: 40, count: 2 },
            core: vec![ArmedFault::new(300, FaultTarget::StoreValueBit { bit: 7 })],
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &RecoveryPolicy::default(),
        );
        assert!(r.detected);
        assert!(
            matches!(r.disposition, RecoveryDisposition::Recovered | RecoveryDisposition::Degraded),
            "bounded strikes must not be unrecoverable: {:?}",
            r.disposition
        );
        assert_eq!(r.final_state, gstate);
    }

    #[test]
    fn clean_run_is_clean() {
        let program = store_loop(500);
        let (gstate, _) = golden(&program);
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &TrialFaults::default(),
            &RecoveryPolicy::default(),
        );
        assert_eq!(r.disposition, RecoveryDisposition::Clean);
        assert!(!r.detected && r.retries == 0 && r.recovery_fs == 0);
        assert_eq!(r.final_state, gstate);
    }

    #[test]
    fn checker_false_positive_rolls_back_and_recovers() {
        // §IV-I over-detection as a *recoverable* event: the lying check
        // flags a clean segment; rollback + re-execution finds nothing
        // wrong and the run converges to golden.
        let program = store_loop(2000);
        let (gstate, gmem) = golden(&program);
        let faults = TrialFaults { log_fault: Some((3, 5, 11)), ..TrialFaults::default() };
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &RecoveryPolicy::default(),
        );
        assert!(r.detected, "the lie is indistinguishable from a real error");
        assert_eq!(r.disposition, RecoveryDisposition::Recovered);
        assert_eq!(r.final_state, gstate);
        assert_eq!(r.final_mem.first_difference(&gmem), None);
    }

    #[test]
    fn checker_miss_lets_fault_escape_silently() {
        let program = store_loop(2000);
        let (gstate, gmem) = golden(&program);
        let faults = TrialFaults {
            kind: FaultKind::Transient,
            core: vec![ArmedFault::new(500, FaultTarget::StoreValueBit { bit: 3 })],
            checker_miss: true,
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &RecoveryPolicy::default(),
        );
        assert!(!r.detected, "a lying checker reports nothing");
        assert_eq!(r.disposition, RecoveryDisposition::Clean);
        assert!(
            r.final_mem.first_difference(&gmem).is_some() || r.final_state != gstate,
            "the corruption silently escaped (SDC)"
        );
    }
}
