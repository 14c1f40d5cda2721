//! Oracle differential: the timing simulator must never change what a
//! program computes. The functional oracle (`ArchState::run_blocks`, with
//! `ArchState::run` as its own independent reference inside `paradet-isa`)
//! defines the architectural result; every `PairedSystem` run has to land
//! on exactly that result, whatever the timing configuration around it.
//!
//! Three properties, over random kernels:
//!
//! 1. **Fault-free runs.** Any checker-farm geometry (farm width, log size,
//!    checker clock, striped mixed-speed farms, every scheduling policy)
//!    and main-core mode (RMT duplication, event skipping) retires the same
//!    instruction count and ends in the same committed state and memory as
//!    the oracle run to the same budget.
//! 2. **Register strikes.** An integer or floating-point register bit flip
//!    armed at instruction `k` ends in the same state as the oracle run to
//!    `k`, the bit flipped by hand, then run to the end — this pins the
//!    strike index of the fault-arming path.
//! 3. **Recovery.** A transient strike that `run_recovery` reports as
//!    `Recovered` ends in the fault-free oracle's state and memory.

use paradet::checker::SchedPolicyKind;
use paradet::detect::{
    run_recovery, FarmSpec, PairedSystem, RecoveryDisposition, RecoveryPolicy, SimScratch,
    SystemConfig, TrialFaults,
};
use paradet::isa::{
    AluOp, ArchState, FReg, FlatMemory, FpuOp, NoNondet, Program, ProgramBuilder, Reg,
};
use paradet::ooo::{ArmedFault, FaultKind, FaultTarget};
use paradet::par::with_threads;
use proptest::prelude::*;
use std::sync::Arc;

/// A loopy kernel with loads, stores, random integer arithmetic and a
/// floating-point accumulator fed from it, so block boundaries land across
/// space seals, timeout seals and wrap-around stalls, and both register
/// files carry live values.
fn block_kernel(seeds: &[u64], ops: &[(AluOp, usize, usize)], iters: u64) -> Program {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_u64s(seeds);
    b.li(Reg::X1, buf as i64);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, iters as i64);
    let top = b.label_here();
    for (i, &(op, ld_slot, st_slot)) in ops.iter().enumerate() {
        let dst = Reg::from_index(4 + (i % 4));
        b.ld(dst, Reg::X1, ((ld_slot % seeds.len()) * 8) as i64);
        b.op(op, Reg::X8, dst, Reg::X2);
        b.sd(Reg::X8, Reg::X1, ((st_slot % seeds.len()) * 8) as i64);
    }
    b.fcvt_from_int(FReg::from_index(2), Reg::X8);
    b.fop(FpuOp::Add, FReg::from_index(1), FReg::from_index(1), FReg::from_index(2));
    b.fsd(FReg::from_index(1), Reg::X1, 0);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt(Reg::X2, Reg::X3, top);
    b.halt();
    b.build()
}

/// The oracle: the program's initial state and memory image.
fn oracle_start(program: &Program) -> (ArchState, FlatMemory) {
    let mut mem = FlatMemory::new();
    mem.load_image(program);
    (ArchState::at_entry(program), mem)
}

/// Runs the oracle for up to `budget` more instructions, returning how
/// many retired. The kernels below only branch to fixed targets, so no
/// register strike can send the PC out of the text.
fn oracle_run(state: &mut ArchState, mem: &mut FlatMemory, program: &Program, budget: u64) -> u64 {
    state.run_blocks(program, mem, &mut NoNondet, budget).expect("kernel left its text")
}

/// Runs `program` on a `PairedSystem` and returns (instrs, state, memory).
fn paired_run(
    cfg: SystemConfig,
    program: &Arc<Program>,
    fault: Option<ArmedFault>,
    budget: u64,
) -> (u64, ArchState, FlatMemory) {
    let mut sys = PairedSystem::new_shared(cfg, program);
    if let Some(f) = fault {
        sys.arm_fault(f);
    }
    let report = sys.run(budget);
    let state = sys.core().committed_state().clone();
    (report.instrs, state, sys.dismantle(&mut SimScratch::new()))
}

/// Every shipped workload discovers a non-trivial block structure at
/// program build: blocks exist, they tile the text exactly, and the mean
/// block length is at least one micro-op.
#[test]
fn workloads_discover_blocks() {
    use paradet::workloads::Workload;
    for w in Workload::all() {
        let p = w.build(50);
        let blocks = p.blocks();
        assert!(!blocks.is_empty(), "{w}: no basic blocks discovered");
        assert!(blocks.len() > 1, "{w}: a looping workload must have several blocks");
        let covered: u64 = blocks.iter().map(|b| u64::from(b.len)).sum();
        assert_eq!(covered, p.len() as u64, "{w}: blocks must tile the text exactly");
        assert!(p.mean_uops_per_block() >= 1.0, "{w}: mean uops/block below one");
        assert!(p.block_at(p.entry()).is_some(), "{w}: entry PC must start or join a block");
    }
}

/// Every shipped workload, fault-free at the paper configuration and
/// under RMT duplication, computes exactly what the oracle computes.
#[test]
fn workloads_match_the_oracle() {
    use paradet::workloads::Workload;
    for w in Workload::all() {
        let program = Arc::new(w.build(w.iters_for_instrs(4_000)));
        let (mut state, mut mem) = oracle_start(&program);
        let n = oracle_run(&mut state, &mut mem, &program, 4_000);
        for rmt in [false, true] {
            let mut cfg = SystemConfig::paper_default();
            cfg.main.rmt_duplicate = rmt;
            let (instrs, s, m) = paired_run(cfg, &program, None, 4_000);
            assert_eq!(instrs, n, "{w} (rmt={rmt}): instruction count");
            assert_eq!(s, state, "{w} (rmt={rmt}): committed state");
            assert_eq!(m.first_difference(&mem), None, "{w} (rmt={rmt}): memory");
        }
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<(AluOp, usize, usize)>> {
    proptest::collection::vec(
        (
            prop_oneof![
                Just(AluOp::Add),
                Just(AluOp::Sub),
                Just(AluOp::Xor),
                Just(AluOp::Mul),
                Just(AluOp::Div),
                Just(AluOp::Sll),
            ],
            0usize..16,
            0usize..16,
        ),
        1..8,
    )
}

proptest! {
    /// Property 1: fault-free runs equal the oracle across checker-farm
    /// geometries, scheduling policies and main-core modes.
    #[test]
    fn fault_free_runs_match_the_oracle(
        seeds in proptest::collection::vec(any::<u64>(), 4..9),
        ops in arb_ops(),
        iters in 8u64..60,
        n_checkers in 1usize..5,
        mhz_sel in 0usize..3,
        log_sel in 0usize..3,
        timeout_sel in 0usize..3,
        striped in any::<bool>(),
        policy_sel in 0usize..3,
        rmt in any::<bool>(),
        event_skip in any::<bool>(),
        threads in 1usize..4,
    ) {
        let program = Arc::new(block_kernel(&seeds, &ops, iters));
        let (log_bytes, timeout) =
            ([512, 1024, 8192][log_sel], [None, Some(48), Some(400)][timeout_sel]);
        let farm = if striped { FarmSpec::striped(&[2000, 250]) } else { FarmSpec::uniform() };
        let mut cfg = SystemConfig::paper_default()
            .with_checkers(n_checkers)
            .with_log(log_bytes, timeout)
            .with_checker_mhz([250, 500, 1000][mhz_sel])
            .with_farm(farm)
            .with_sched_policy(SchedPolicyKind::ALL[policy_sel])
            .with_event_skip(event_skip);
        cfg.main.rmt_duplicate = rmt;
        let budget = 2_000;
        let (mut state, mut mem) = oracle_start(&program);
        let n = oracle_run(&mut state, &mut mem, &program, budget);
        let (instrs, s, m) = with_threads(threads, || paired_run(cfg, &program, None, budget));
        prop_assert_eq!(instrs, n);
        prop_assert_eq!(&s, &state);
        prop_assert_eq!(m.first_difference(&mem), None);
    }

    /// Property 2: a register bit flip armed at instruction `k` is the
    /// oracle run to `k`, the bit flipped by hand, then run to the end.
    #[test]
    fn register_strikes_match_the_oracle(
        seeds in proptest::collection::vec(any::<u64>(), 4..9),
        ops in arb_ops(),
        iters in 8u64..60,
        fp in any::<bool>(),
        reg in 1usize..9,
        bit in 0u8..64,
        k in 0u64..600,
        rmt in any::<bool>(),
        n_checkers in 1usize..5,
    ) {
        let program = Arc::new(block_kernel(&seeds, &ops, iters));
        let target = if fp {
            FaultTarget::FpRegBit { reg: FReg::from_index(reg % 3), bit }
        } else {
            FaultTarget::IntRegBit { reg: Reg::from_index(reg), bit }
        };
        let budget = 2_000;
        let (mut state, mut mem) = oracle_start(&program);
        let mut n = oracle_run(&mut state, &mut mem, &program, k);
        // The strike fires before instruction `k` retires: only if the
        // program is still running there.
        if n == k && !state.halted {
            let mask = 1u64 << bit;
            match target {
                FaultTarget::IntRegBit { reg, .. } => state.set_x(reg, state.x(reg) ^ mask),
                FaultTarget::FpRegBit { reg, .. } => {
                    state.set_f_bits(reg, state.f_bits(reg) ^ mask)
                }
                _ => unreachable!(),
            }
            n += oracle_run(&mut state, &mut mem, &program, budget - k);
        }
        let mut cfg = SystemConfig::paper_default().with_checkers(n_checkers);
        cfg.main.rmt_duplicate = rmt;
        let (instrs, s, m) =
            paired_run(cfg, &program, Some(ArmedFault::new(k, target)), budget);
        prop_assert_eq!(instrs, n);
        prop_assert_eq!(&s, &state);
        prop_assert_eq!(m.first_difference(&mem), None);
    }

    /// Property 3: a transient strike that recovery reports as `Recovered`
    /// ends in the fault-free oracle's state and memory.
    #[test]
    fn recovered_runs_match_the_oracle(
        iters in 60i64..160,
        seeds in proptest::collection::vec(any::<u64>(), 4),
        reg in 10usize..14,
        bit in 0u8..64,
        at_frac in 1u64..80,
        n_checkers in prop_oneof![Just(2usize), Just(4), Just(12)],
    ) {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(256);
        let data = b.alloc_u64s(&seeds);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X31, data as i64);
        for i in 0..seeds.len() {
            b.ld(Reg::from_index(10 + i), Reg::X31, (i * 8) as i64);
        }
        b.li(Reg::X2, 0);
        b.li(Reg::X3, iters);
        let top = b.label_here();
        b.op_imm(AluOp::And, Reg::X5, Reg::X2, 255);
        b.op_imm(AluOp::Sll, Reg::X5, Reg::X5, 3);
        b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X1);
        b.ld(Reg::X6, Reg::X5, 0);
        b.op(AluOp::Add, Reg::X6, Reg::X6, Reg::X10);
        b.op(AluOp::Add, Reg::X6, Reg::X6, Reg::X2);
        b.sd(Reg::X6, Reg::X5, 0);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X3, top);
        b.halt();
        let program = Arc::new(b.build());
        let at_instr = 1 + at_frac * (iters as u64 * 11) / 100;
        let faults = TrialFaults {
            kind: FaultKind::Transient,
            core: vec![ArmedFault::new(
                at_instr,
                FaultTarget::IntRegBit { reg: Reg::from_index(reg), bit },
            )],
            ..TrialFaults::default()
        };
        let cfg = SystemConfig::paper_default().with_checkers(n_checkers);
        let report = run_recovery(
            &cfg,
            &program,
            &mut SimScratch::new(),
            60_000,
            &faults,
            &RecoveryPolicy::default(),
        );
        if report.disposition == RecoveryDisposition::Recovered {
            let (mut state, mut mem) = oracle_start(&program);
            oracle_run(&mut state, &mut mem, &program, u64::MAX);
            prop_assert!(state.halted);
            prop_assert_eq!(&report.final_state, &state);
            prop_assert_eq!(report.final_mem.first_difference(&mem), None);
        }
    }
}
