//! The out-of-order main core model.
//!
//! # Modelling approach
//!
//! The core is a *one-pass, trace-driven* out-of-order timing model: a
//! functional oracle ([`ArchState`]) executes macro-ops in program order
//! while a dataflow scheduler assigns every micro-op its fetch, dispatch,
//! issue, complete and commit cycles subject to:
//!
//! * fetch width + I-cache line timing + branch-predictor redirects,
//! * in-order dispatch bounded by ROB/IQ/LQ/SQ/physical-register occupancy,
//! * operand readiness through renamed registers (RAW only),
//! * functional-unit pools (3 int ALUs, 2 FP ALUs, 1 unpipelined mul/div,
//!   2 L1D ports) and issue width,
//! * store-to-load forwarding inside the store window, loads timed through
//!   the cache hierarchy otherwise,
//! * in-order commit with width, write-buffer and *detection-hardware*
//!   gating: the sink can pause commit (register checkpoints) or make it
//!   retry (load-store log full).
//!
//! Because micro-ops are finalized strictly in program order, detection
//! hardware attached via [`DetectionSink`] observes exactly the committed
//! instruction stream with correct commit-order timing — including the
//! feedback loop where a full log stalls commit (§IV-D of the paper).
//! Wrong-path instructions are not simulated; a misprediction instead
//! inserts the fetch-redirect bubble at resolution time (standard
//! trace-driven approximation; DESIGN.md §5).

use crate::config::OooConfig;
use crate::fault::{ArmedFault, FaultTarget};
use crate::predictor::TournamentPredictor;
use crate::resources::{FifoOccupancy, SlotPool, UnorderedOccupancy};
use crate::types::{CommitEvent, CommitGate, DetectionSink, MemEffect};
use paradet_isa::{
    ArchState, DstReg, ExecError, FlatMemory, Instruction, MemWidth, MemoryIface, MicroOp,
    NondetSource, Program, Reg, SrcReg, UopClass, UopKind, MAX_UOPS_PER_INSN, NO_REG_SLOT,
};
use paradet_mem::{CycleDiv, MemHier, Time};
use std::collections::VecDeque;
use std::sync::Arc;

/// Running statistics of the core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Macro-ops retired.
    pub committed_instrs: u64,
    /// Micro-ops retired (excluding RMT duplicates).
    pub committed_uops: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Control-flow mispredictions that paid a full resolve-time redirect.
    pub mispredicts: u64,
    /// Cycle of the most recent commit.
    pub last_commit_cycle: u64,
    /// Cycles commit spent blocked on [`CommitGate::Retry`] (log full).
    pub gate_retry_cycles: u64,
    /// Commit pauses issued by the sink (register checkpoints).
    pub gate_pauses: u64,
    /// Cycles of commit pause issued by the sink.
    pub gate_pause_cycles: u64,
    /// Loads whose value was forwarded from the store window.
    pub store_forwards: u64,
    /// Cycles the event-driven driver crossed in a single jump instead of
    /// per-cycle re-evaluation: log-full commit stalls jumped straight to
    /// the checker-finish deadline, and quiescent dispatch jumps (no
    /// resource event between the core's busy horizon and the dispatch
    /// cycle). Always 0 on the legacy exhaustive path
    /// (`OooConfig::event_skip = false`), which crosses the same stalls at
    /// the same times but accounts nothing — the skip-vs-tick identity
    /// suite zeroes this field before comparing reports.
    pub cycles_skipped: u64,
}

impl CoreStats {
    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.last_commit_cycle == 0 {
            0.0
        } else {
            self.committed_instrs as f64 / self.last_commit_cycle as f64
        }
    }
}

/// Why `step` could not retire an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreError {
    /// The program has halted (committed `halt`).
    Halted,
    /// Execution crashed — e.g. a fault drove the PC outside the text
    /// segment. The paper's §IV-H semantics apply: the OS holds process
    /// termination until outstanding checks complete.
    Crashed(ExecError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Halted => write!(f, "program has halted"),
            CoreError::Crashed(e) => write!(f, "execution crashed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Outcome of retiring one macro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// PC of the retired instruction.
    pub pc: u64,
    /// Commit time of its last micro-op.
    pub commit_time: Time,
    /// Whether this instruction halted the program.
    pub halted: bool,
}

/// Outcome of one [`OooCore::step_block`] call: a batch of retirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOutcome {
    /// Macro-ops retired by this call (≥ 1 on `Ok`).
    pub instrs: u64,
    /// Whether the batch committed `halt`.
    pub halted: bool,
}

#[derive(Debug, Clone, Copy)]
struct InflightStore {
    addr: u64,
    bytes: u64,
    data_ready: u64,
    commit: u64,
}

/// Raises the resource-event horizon to `cycle`. A free function over the
/// field, so the timing paths can call it while they hold a borrow of the
/// shared program.
#[inline]
fn note_event(horizon: &mut u64, cycle: u64) {
    if cycle > *horizon {
        *horizon = cycle;
    }
}

/// Hard stuck-at ALU fault: forces `bit` to `value` in the result of every
/// simple integer-ALU micro-op of one instruction that issued on the struck
/// unit (`alu_units[k]` is the unit micro-op `k` took, `None` for micro-ops
/// that did not issue on an integer ALU as a simple ALU op). Runs right
/// after the instruction's functional execution and any strike overrides.
fn apply_stuck(
    state: &mut ArchState,
    (unit, bit, value): (u8, u8, bool),
    int_alus: usize,
    uops: &[MicroOp],
    alu_units: &[Option<usize>; MAX_UOPS_PER_INSN],
) {
    for (k, u) in uops.iter().enumerate() {
        if let (UopKind::IntAlu { .. }, Some(used)) = (u.kind, alu_units[k]) {
            if used == unit as usize % int_alus {
                if let Some(DstReg::Int(r)) = u.dst {
                    let mask = 1u64 << (bit & 63);
                    let v = state.x(r);
                    let forced = if value { v | mask } else { v & !mask };
                    state.set_x(r, forced);
                }
            }
        }
    }
}

/// Post-execution overrides of the faults that struck one instruction:
/// each field is the bit a fault of that kind flips.
#[derive(Debug, Clone, Copy, Default)]
struct Strike {
    store_value: Option<u8>,
    store_addr: Option<u8>,
    load_value: Option<u8>,
    load_capture: Option<u8>,
    pc: Option<u8>,
}

/// The fault scan point, run before the instruction at `instr_index`
/// executes: removes every due fault from `faults`, applies register flips
/// to `state` at once, latches a stuck-at ALU fault into `stuck`, and
/// returns the post-execution overrides for [`apply_strike`]. Store and
/// load faults stay armed until an instruction that stores or loads.
/// Kept out of line: it runs only on walks capped at a due strike.
#[cold]
#[inline(never)]
fn take_due_faults(
    faults: &mut Vec<ArmedFault>,
    state: &mut ArchState,
    stuck: &mut Option<(u8, u8, bool)>,
    instr_index: u64,
    uops: &[MicroOp],
) -> Strike {
    let has_store = uops.iter().any(|u| u.is_store());
    let has_load = uops.iter().any(|u| u.is_load());
    let mut strike = Strike::default();
    faults.retain(|f| {
        if instr_index < f.at_instr {
            return true;
        }
        match f.target {
            FaultTarget::IntRegBit { reg, bit } => {
                state.set_x(reg, state.x(reg) ^ (1u64 << (bit & 63)));
            }
            FaultTarget::FpRegBit { reg, bit } => {
                state.set_f_bits(reg, state.f_bits(reg) ^ (1u64 << (bit & 63)));
            }
            FaultTarget::AluStuckAt { unit, bit, value } => *stuck = Some((unit, bit, value)),
            FaultTarget::StoreValueBit { bit } if has_store => strike.store_value = Some(bit),
            FaultTarget::StoreAddrBit { bit } if has_store => strike.store_addr = Some(bit),
            FaultTarget::LoadValueBit { bit } if has_load => strike.load_value = Some(bit),
            FaultTarget::LoadCaptureBit { bit } if has_load => strike.load_capture = Some(bit),
            FaultTarget::PcBit { bit } => strike.pc = Some(bit),
            // Store/load faults wait for a matching instruction.
            _ => return true,
        }
        false
    });
    strike
}

/// Applies `strike` after `insn` executed: corrupts the stored value or
/// address (in `mem` and in the logged effect), the loaded register and
/// its commit-time view, and the PC. Returns the flip to apply to the
/// first load's LFU capture, non-zero only for a strike before the LFU
/// duplicated the value (`LoadCaptureBit`).
#[cold]
#[inline(never)]
fn apply_strike(
    strike: &Strike,
    insn: Instruction,
    state: &mut ArchState,
    mem: &mut FlatMemory,
    effects: &mut [MemEffect],
) -> u64 {
    if let Some(bit) = strike.store_value {
        if let Some(eff) = effects.iter_mut().find(|e| e.is_store) {
            let corrupted = eff.width.truncate(eff.value ^ (1u64 << (bit & 63)));
            mem.store(eff.addr, eff.width, corrupted);
            eff.value = corrupted;
        }
    }
    if let Some(bit) = strike.store_addr {
        if let Some(eff) = effects.iter_mut().find(|e| e.is_store) {
            // The store escaped to the wrong address: the oracle already
            // wrote the correct one, so put its pre-store bytes back
            // (`eff.old`, captured by the oracle before it stored), then land
            // the value at the flipped address. The logged entry is exactly
            // the one memory mutation the instruction made — (wrong, value,
            // old-at-wrong) — so a per-entry undo restores memory precisely;
            // the checker detects the address mismatch either way, and the
            // memory-state difference is what the SDC classifier needs.
            let wrong = eff.addr ^ (1u64 << (bit % 48));
            mem.store(eff.addr, eff.width, eff.old);
            let old_at_wrong = mem.load(wrong, eff.width);
            mem.store(wrong, eff.width, eff.value);
            eff.addr = wrong;
            eff.old = old_at_wrong;
        }
    }
    let mut capture_flip = 0;
    if let Some(bit) = strike.load_value.or(strike.load_capture) {
        // Corrupt the loaded destination register. The commit-time view of
        // the load (what a naive no-LFU design would forward to the log) is
        // the *register* value, so the event's value is corrupted for both
        // fault flavours; the LFU capture (taken at cache access, §IV-C)
        // stays clean unless the fault struck before duplication.
        let flip = 1u64 << (bit & 63);
        if let Some(eff) = effects.iter_mut().find(|e| !e.is_store) {
            eff.value ^= flip;
        }
        match insn {
            Instruction::Load { rd, .. } | Instruction::Ldp { rd1: rd, .. } => {
                state.set_x(rd, state.x(rd) ^ flip);
            }
            Instruction::FLoad { fd, .. } => state.set_f_bits(fd, state.f_bits(fd) ^ flip),
            _ => {}
        }
        if strike.load_capture.is_some() {
            capture_flip = flip;
        }
    }
    if let Some(bit) = strike.pc {
        state.pc ^= 1u64 << (bit % 21).max(2);
    }
    capture_flip
}

struct SuppliedNondet(Option<u64>);

impl NondetSource for SuppliedNondet {
    fn next_nondet(&mut self) -> u64 {
        self.0.take().unwrap_or(0)
    }
}

/// The out-of-order main core.
#[derive(Debug)]
pub struct OooCore {
    cfg: OooConfig,
    /// Reciprocal for the core clock period: `to_cycle` runs on every
    /// memory access, and a real 64-bit divide there is measurable.
    cycle_div: CycleDiv,
    program: Arc<Program>,
    state: ArchState,
    pred: TournamentPredictor,
    // Resource pools, all in core cycles.
    fetch_slots: SlotPool,
    dispatch_slots: SlotPool,
    issue_slots: SlotPool,
    commit_slots: SlotPool,
    int_alus: SlotPool,
    fp_alus: SlotPool,
    mul_div: SlotPool,
    mem_ports: SlotPool,
    write_buffer: SlotPool,
    rob: FifoOccupancy,
    lq: FifoOccupancy,
    sq: FifoOccupancy,
    phys_int: FifoOccupancy,
    phys_fp: FifoOccupancy,
    iq: UnorderedOccupancy,
    /// Register-wakeup scoreboard in the pre-decoded slot encoding
    /// (`0..32` integer, `32..64` floating-point — the same layout
    /// [`PreUop`](paradet_isa::PreUop) srcs/dst carry), so the block path
    /// indexes it straight off the pre-resolved bytes.
    reg_ready: [u64; 64],
    stores_in_flight: VecDeque<InflightStore>,
    // Fetch state.
    next_fetch_cycle: u64,
    last_fetch_line: u64,
    line_ready: u64,
    last_commit: u64,
    commit_gate: u64,
    /// Dispatch is also held during a sink-issued pause: the register
    /// checkpoint copy occupies the register-file read ports (Table I's
    /// two-ported copy of 32+32 registers), starving issue/rename for the
    /// same window.
    dispatch_gate: u64,
    seq: u64,
    instr_index: u64,
    halted: bool,
    crashed: Option<ExecError>,
    faults: Vec<ArmedFault>,
    stuck: Option<(u8, u8, bool)>,
    /// The resource-event horizon: no pool busy-until, occupancy release,
    /// register wakeup, line fill or gate recorded so far lies beyond this
    /// cycle. A micro-op dispatching at or past it observes a fully
    /// quiescent core — the event-driven skip path jumps straight there
    /// (see [`OooCore::quiet_at`]).
    horizon: u64,
    /// Upper bound on the `commit` cycle of any store still in the
    /// forwarding window: a load whose address resolves at or after this
    /// provably cannot forward, so the skip path elides the window scan.
    stores_commit_max: u64,
    /// Highest cycle already accounted in `cycles_skipped` by a
    /// whole-system fast-forward (`note_system_jump`): the log-full commit
    /// retry accounting excludes this span so no interval is counted
    /// twice.
    ff_until: u64,
    /// Statistics (public for the experiment harness).
    pub stats: CoreStats,
}

impl OooCore {
    /// Creates a core positioned at `program`'s entry point.
    ///
    /// Deep-clones `program` once; hot loops constructing many cores over
    /// the same program should share it via [`OooCore::new_shared`].
    pub fn new(cfg: OooConfig, program: &Program) -> OooCore {
        OooCore::new_shared(cfg, Arc::new(program.clone()))
    }

    /// Creates a core positioned at `program`'s entry point, sharing the
    /// program instead of cloning it (the per-run allocation hot path for
    /// fault campaigns and sweeps).
    pub fn new_shared(cfg: OooConfig, program: Arc<Program>) -> OooCore {
        let state = ArchState::at_entry(&program);
        OooCore {
            pred: TournamentPredictor::new(cfg.predictor),
            fetch_slots: SlotPool::new(cfg.width),
            dispatch_slots: SlotPool::new(cfg.width),
            issue_slots: SlotPool::new(cfg.width),
            commit_slots: SlotPool::new(cfg.width),
            int_alus: SlotPool::new(cfg.int_alus),
            fp_alus: SlotPool::new(cfg.fp_alus),
            mul_div: SlotPool::new(cfg.mul_div_units),
            mem_ports: SlotPool::new(cfg.mem_ports),
            write_buffer: SlotPool::new(cfg.write_buffer),
            rob: FifoOccupancy::new(cfg.rob_entries),
            lq: FifoOccupancy::new(cfg.lq_entries),
            sq: FifoOccupancy::new(cfg.sq_entries),
            phys_int: FifoOccupancy::new(cfg.phys_int - Reg::COUNT),
            phys_fp: FifoOccupancy::new(cfg.phys_fp - Reg::COUNT),
            iq: UnorderedOccupancy::new(cfg.iq_entries),
            reg_ready: [0; 64],
            stores_in_flight: VecDeque::with_capacity(cfg.sq_entries),
            next_fetch_cycle: 0,
            last_fetch_line: u64::MAX,
            line_ready: 0,
            last_commit: 0,
            commit_gate: 0,
            dispatch_gate: 0,
            seq: 0,
            instr_index: 0,
            halted: false,
            crashed: None,
            faults: Vec::new(),
            stuck: None,
            horizon: 0,
            stores_commit_max: 0,
            ff_until: 0,
            stats: CoreStats::default(),
            cycle_div: cfg.clock.divider(),
            program,
            state,
            cfg,
        }
    }

    /// Creates a core whose architectural state is `state` instead of the
    /// program's entry point — the recovery path's "pipeline flush +
    /// restore from the validated register checkpoint". Every
    /// micro-architectural structure (predictor, occupancy windows,
    /// in-flight stores, fetch state) starts cold, exactly as a restored
    /// core would after a flush; `instr_index` restarts at zero, so armed
    /// faults address the *re-execution* stream (callers translate global
    /// strike indices by the checkpoint's retirement count).
    pub fn new_resumed(cfg: OooConfig, program: Arc<Program>, state: ArchState) -> OooCore {
        let mut core = OooCore::new_shared(cfg, program);
        core.state = state;
        core
    }

    /// The core's configuration.
    pub fn config(&self) -> &OooConfig {
        &self.cfg
    }

    /// The committed architectural state (used by the detection system to
    /// take register checkpoints).
    pub fn committed_state(&self) -> &ArchState {
        &self.state
    }

    /// Whether the core has committed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The crash reason, if a fault drove execution off the rails.
    pub fn crashed(&self) -> Option<ExecError> {
        self.crashed
    }

    /// Absolute time of the most recent commit.
    pub fn now(&self) -> Time {
        self.to_time(self.last_commit)
    }

    /// Arms a fault (see [`FaultTarget`]).
    pub fn arm_fault(&mut self, fault: ArmedFault) {
        self.faults.push(fault);
    }

    /// Faults armed but not yet fired — still waiting for their trigger
    /// instruction (or, for store/load faults, the first qualifying access
    /// after it). A recovery driver uses this to carry unconsumed strikes
    /// into a re-execution attempt.
    pub fn unfired_faults(&self) -> &[ArmedFault] {
        &self.faults
    }

    /// The cycle at (and after) which every modeled core resource is idle:
    /// the maximum over all recorded busy-until times, occupancy releases,
    /// register wakeups, line fills and gates. A micro-op dispatching at or
    /// past this cycle provably acquires every resource without waiting —
    /// the event-driven driver jumps straight there instead of draining
    /// each structure (see `OooConfig::event_skip`).
    pub fn quiet_at(&self) -> u64 {
        self.horizon
    }

    /// The earliest pending resource event strictly after `now`: the next
    /// cycle at which an occupancy entry releases (the first in-order
    /// release past `now` for ROB/LQ/SQ/register free lists, the true
    /// minimum for the out-of-order issue queue), a functional unit frees,
    /// or a commit/dispatch gate expires. `None` when the core is fully
    /// idle past `now`. Together with [`quiet_at`](OooCore::quiet_at) this
    /// brackets the core's event queue: no resource state changes in the
    /// open interval between `now` and the returned cycle, and nothing
    /// remains busy at or after `quiet_at()`.
    pub fn next_event_after(&self, now: u64) -> Option<u64> {
        let mut next = u64::MAX;
        for f in [&self.rob, &self.lq, &self.sq, &self.phys_int, &self.phys_fp] {
            // In-order release: entries release at the running maximum of
            // their recorded cycles, so the first recorded value past `now`
            // is exactly the first future release.
            if let Some(t) = f.releases().find(|&t| t > now) {
                next = next.min(t);
            }
        }
        if let Some(t) = self.iq.releases().filter(|&t| t > now).min() {
            next = next.min(t);
        }
        for p in [
            &self.fetch_slots,
            &self.dispatch_slots,
            &self.issue_slots,
            &self.commit_slots,
            &self.int_alus,
            &self.fp_alus,
            &self.mul_div,
            &self.mem_ports,
            &self.write_buffer,
        ] {
            if let Some(t) = p.next_event_after(now) {
                next = next.min(t);
            }
        }
        if self.commit_gate > now {
            next = next.min(self.commit_gate);
        }
        if self.dispatch_gate > now {
            next = next.min(self.dispatch_gate);
        }
        // The in-flight I-line fill and pending register wakeups are
        // resource-state changes too — fetch timing and operand readiness
        // shift at exactly these cycles.
        if self.line_ready > now {
            next = next.min(self.line_ready);
        }
        for &t in &self.reg_ready {
            if t > now {
                next = next.min(t);
            }
        }
        (next != u64::MAX).then_some(next)
    }

    /// Whether the core is fully quiescent: no recorded resource event
    /// (pool busy-until, occupancy release, register wakeup, line fill,
    /// gate) lies beyond the most recent commit. O(1) — the horizon is the
    /// running maximum of every recorded event, and each commit raises it
    /// to at least `commit + 1`.
    pub fn is_quiescent(&self) -> bool {
        self.horizon <= self.last_commit + 1
    }

    /// Accounts a whole-system quiescent fast-forward: the driver observed
    /// that the core is idle ([`is_quiescent`](Self::is_quiescent)) and the
    /// detector holds no in-flight checks, so nothing in the system changes
    /// before its next event (memory-hierarchy fill or detector deadline)
    /// at absolute time `t` — the driver crosses the gap in one jump.
    /// Pure accounting into `CoreStats::cycles_skipped`, measured from the
    /// core's busy horizon; the horizon is raised to the jump target so
    /// in-step quiescent jumps measure from the new base, and the log-full
    /// retry accounting excludes the span via `ff_until` — no interval is
    /// ever counted twice. Timing is untouched, and on the exhaustive tick
    /// path (`OooConfig::event_skip` off) this is a no-op so
    /// `cycles_skipped` stays 0 there.
    pub fn note_system_jump(&mut self, t: Time) {
        if !self.cfg.event_skip {
            return;
        }
        let cycle = self.to_cycle(t);
        let from = self.horizon.max(self.last_commit);
        if cycle > from {
            self.stats.cycles_skipped += cycle - from;
            self.ff_until = self.ff_until.max(cycle);
            note_event(&mut self.horizon, cycle);
        }
    }

    fn to_time(&self, cycle: u64) -> Time {
        self.cfg.clock.cycles(cycle)
    }

    #[inline]
    fn to_cycle(&self, t: Time) -> u64 {
        // Ceiling division: an event at time t is usable at the first cycle
        // boundary at or after t.
        self.cycle_div.ceil(t)
    }

    /// Operand readiness straight off pre-decoded source slots: the slot
    /// bytes already carry the unified `0..64` encoding the scoreboard is
    /// laid out in, so no enum dispatch remains on the block path.
    #[inline]
    fn pre_srcs_ready(&self, srcs: [u8; 3]) -> u64 {
        let mut m = 0;
        for s in srcs {
            if s != NO_REG_SLOT {
                m = m.max(self.reg_ready[s as usize]);
            }
        }
        m
    }

    /// Retires one macro-op, advancing the model: a block walk capped at
    /// one instruction (the per-instruction driver the DCLS and RMT
    /// baselines use).
    ///
    /// # Errors
    ///
    /// [`CoreError::Halted`] once `halt` has committed, and
    /// [`CoreError::Crashed`] if the PC has left the text segment (possible
    /// only under fault injection).
    pub fn step<S: DetectionSink + ?Sized>(
        &mut self,
        hier: &mut MemHier,
        sink: &mut S,
    ) -> Result<StepOutcome, CoreError> {
        let pc = self.state.pc;
        let out = self.step_block(hier, sink, 1)?;
        Ok(StepOutcome { pc, commit_time: self.now(), halted: out.halted })
    }

    /// Retires the remainder of the current basic block (capped at
    /// `max_instrs` macro-ops) off the program's pre-decoded
    /// superinstruction stream: one block lookup per call, fetch/crack and
    /// branch-predictor matches hoisted off the per-instruction body (only
    /// the block terminator can be control flow), functional-unit selection
    /// switched on the pre-resolved [`UopClass`] byte, and the oracle fed
    /// the already-fetched instruction.
    ///
    /// Armed faults cap the walk: it stops short of the earliest strike,
    /// and a walk that starts at an instruction a fault is due at
    /// (`at_instr <= instr_index`) retires exactly that one instruction,
    /// running the fault scan before it executes and the post-execution
    /// overrides after. A latched stuck-at ALU fault is applied to every
    /// instruction. Under RMT duplication every micro-op takes a second,
    /// effect-free pass through dispatch and issue.
    ///
    /// # Errors
    ///
    /// [`CoreError::Halted`] / [`CoreError::Crashed`] as for
    /// [`step`](Self::step). A wild block exit is observed by the *next*
    /// call's block lookup, as a bad PC at the next instruction fetch.
    pub fn step_block<S: DetectionSink + ?Sized>(
        &mut self,
        hier: &mut MemHier,
        sink: &mut S,
        max_instrs: u64,
    ) -> Result<BlockOutcome, CoreError> {
        if self.cfg.rmt_duplicate {
            self.walk::<S, true>(hier, sink, max_instrs)
        } else {
            self.walk::<S, false>(hier, sink, max_instrs)
        }
    }

    /// The block walk behind [`step_block`](Self::step_block),
    /// monomorphised on RMT duplication so the single-pass walk carries no
    /// per-micro-op pass loop.
    fn walk<S: DetectionSink + ?Sized, const RMT: bool>(
        &mut self,
        hier: &mut MemHier,
        sink: &mut S,
        max_instrs: u64,
    ) -> Result<BlockOutcome, CoreError> {
        if self.halted {
            return Err(CoreError::Halted);
        }
        if let Some(e) = self.crashed {
            return Err(CoreError::Crashed(e));
        }
        let next_strike = self.faults.iter().map(|f| f.at_instr).min().unwrap_or(u64::MAX);
        let due = next_strike <= self.instr_index;
        let max_instrs =
            if due { max_instrs.min(1) } else { max_instrs.min(next_strike - self.instr_index) };
        if max_instrs == 0 {
            return Ok(BlockOutcome { instrs: 0, halted: false });
        }

        let program = &*self.program;
        let lat = self.cfg.lat;
        let mut done = 0u64;
        let (block, off) = match program.block_at(self.state.pc) {
            Some(c) => c,
            None => {
                let e = ExecError::BadPc { pc: self.state.pc };
                self.crashed = Some(e);
                return Err(CoreError::Crashed(e));
            }
        };
        let first = (block.first + off) as usize;
        let end = (block.first + block.len) as usize;
        for i in first..end {
            let pc = self.state.pc;
            let insn = program.text()[i];
            // Only the block's last instruction can transfer control, so
            // prediction and resolution run for it alone.
            let is_term = i + 1 == end;

            // ---- Fetch timing ---------------------------------------------
            let (_, fslot) = self.fetch_slots.take(self.next_fetch_cycle, 1);
            note_event(&mut self.horizon, fslot + 1);
            let line = pc & !63;
            if line != self.last_fetch_line {
                let done_t = hier.ifetch(line, self.to_time(fslot));
                self.line_ready = self.to_cycle(done_t);
                self.last_fetch_line = line;
                note_event(&mut self.horizon, self.line_ready);
            }
            let fetch_cycle = fslot.max(self.line_ready);

            // ---- Branch prediction (terminator only) ----------------------
            let mut prediction = None;
            let mut jalr_prediction = None;
            if is_term {
                match insn {
                    Instruction::Branch { .. } => {
                        let p = self.pred.predict_direction(pc);
                        let target = if p.taken { self.pred.btb_lookup(pc) } else { None };
                        prediction = Some((p, target));
                    }
                    Instruction::Jalr { rd, rs1, .. } => {
                        let is_return = rd == Reg::X0 && rs1 == Reg::X1;
                        let predicted =
                            if is_return { self.pred.ras_pop() } else { self.pred.btb_lookup(pc) };
                        if rd == Reg::X1 {
                            self.pred.ras_push(pc + 4);
                        }
                        jalr_prediction = Some(predicted);
                    }
                    Instruction::Jal { rd: Reg::X1, .. } => {
                        self.pred.ras_push(pc + 4);
                    }
                    _ => {}
                }
            }

            // ---- Pre-decoded micro-ops + memory addresses -----------------
            // Addresses come from the pre-state, before any strike below.
            let uops = program.uops_of(i);
            let pre = program.pre_uops_of(i);
            let mut uop_addrs = [None::<u64>; MAX_UOPS_PER_INSN];
            for (k, u) in uops.iter().enumerate() {
                if matches!(pre[k].class, UopClass::Load | UopClass::Store) {
                    let UopKind::Mem { imm, .. } = u.kind else { unreachable!() };
                    let base = match u.srcs[0] {
                        Some(SrcReg::Int(r)) => self.state.x(r),
                        None => 0,
                        _ => unreachable!("memory base is an integer register"),
                    };
                    uop_addrs[k] = Some(base.wrapping_add(imm as u64));
                }
            }

            // ---- Fault scan (a walk capped at a due strike) ---------------
            let strike = due.then(|| {
                take_due_faults(
                    &mut self.faults,
                    &mut self.state,
                    &mut self.stuck,
                    self.instr_index,
                    uops,
                )
            });

            // ---- Per-micro-op timing --------------------------------------
            let mut completes = [0u64; MAX_UOPS_PER_INSN];
            let mut resolve_cycle: Option<u64> = None;
            let mut alu_units = [None::<usize>; MAX_UOPS_PER_INSN];
            let mut nondet_value: Option<u64> = None;
            for (k, u) in uops.iter().enumerate() {
                let class = pre[k].class;
                let is_load = class == UopClass::Load;
                let is_store = class == UopClass::Store;
                // Under RMT the duplicate competes for the same resources
                // but produces no architectural effects.
                for pass in 0..1 + RMT as usize {
                    let dup = RMT && pass == 1;
                    // Dispatch: in-order, bounded by window occupancy and
                    // any checkpoint-copy pause.
                    let mut disp = (fetch_cycle + self.cfg.front_depth).max(self.dispatch_gate);
                    if self.cfg.event_skip && disp >= self.horizon {
                        // Quiescent jump: every recorded resource event is
                        // at or before `disp`, so each acquisition this
                        // micro-op would perform drains its window empty
                        // and returns `disp` unchanged — advance time
                        // straight there, clearing those windows in O(1)
                        // instead of walking their entries. Only the
                        // structures the exhaustive path would acquire are
                        // touched (dispatch times are not monotone across
                        // instructions, so an untouched window must keep
                        // its entries for later, earlier-cycle
                        // acquisitions).
                        self.stats.cycles_skipped += disp - self.horizon;
                        self.rob.reset();
                        self.iq.reset();
                        if is_load {
                            self.lq.reset();
                        }
                        if is_store {
                            self.sq.reset();
                        }
                        match pre[k].dst {
                            NO_REG_SLOT => {}
                            d if d < 32 => self.phys_int.reset(),
                            _ => self.phys_fp.reset(),
                        }
                    } else {
                        disp = self.rob.acquire(disp);
                        disp = self.iq.acquire(disp);
                        if is_load {
                            disp = self.lq.acquire(disp);
                        }
                        if is_store {
                            disp = self.sq.acquire(disp);
                        }
                        match pre[k].dst {
                            NO_REG_SLOT => {}
                            d if d < 32 => disp = self.phys_int.acquire(disp),
                            _ => disp = self.phys_fp.acquire(disp),
                        }
                    }
                    let (_, disp) = self.dispatch_slots.take(disp, 1);
                    note_event(&mut self.horizon, disp + 1);

                    // Operand readiness (RAW through renamed registers).
                    let ready = self.pre_srcs_ready(pre[k].srcs).max(disp + 1);

                    // Issue + execute through a functional unit.
                    let complete = match class {
                        UopClass::IntAlu => {
                            let (unit, start) = self.int_alus.take(ready, 1);
                            if !dup {
                                alu_units[k] = Some(unit);
                            }
                            let (_, start) = self.issue_slots.take(start, 1);
                            start + lat.int_alu
                        }
                        UopClass::Mul => {
                            let (_, start) = self.mul_div.take(ready, lat.mul);
                            let (_, start) = self.issue_slots.take(start, 1);
                            start + lat.mul
                        }
                        UopClass::Div => {
                            let (_, start) = self.mul_div.take(ready, lat.div);
                            let (_, start) = self.issue_slots.take(start, 1);
                            start + lat.div
                        }
                        UopClass::FpAlu => {
                            let (_, start) = self.fp_alus.take(ready, 1);
                            let (_, start) = self.issue_slots.take(start, 1);
                            start + lat.fp_alu
                        }
                        UopClass::FpDiv => {
                            let (_, start) = self.fp_alus.take(ready, lat.fp_div);
                            let (_, start) = self.issue_slots.take(start, 1);
                            start + lat.fp_div
                        }
                        UopClass::Fma => {
                            let (_, start) = self.fp_alus.take(ready, 1);
                            let (_, start) = self.issue_slots.take(start, 1);
                            start + lat.fp_alu
                        }
                        UopClass::FSqrt => {
                            let (_, start) = self.fp_alus.take(ready, lat.fsqrt);
                            let (_, start) = self.issue_slots.take(start, 1);
                            start + lat.fsqrt
                        }
                        UopClass::FMov => {
                            let (_, start) = self.int_alus.take(ready, 1);
                            let (_, start) = self.issue_slots.take(start, 1);
                            start + lat.fmov
                        }
                        UopClass::Branch | UopClass::Jump | UopClass::JumpReg => {
                            let (_, start) = self.int_alus.take(ready, 1);
                            let (_, start) = self.issue_slots.take(start, 1);
                            let c = start + lat.branch;
                            if !dup {
                                resolve_cycle = Some(c);
                            }
                            c
                        }
                        UopClass::Load => {
                            let UopKind::Mem { width, .. } = u.kind else { unreachable!() };
                            let addr = uop_addrs[k].expect("mem uop has an address");
                            let (_, agu_start) = self.mem_ports.take(ready, 1);
                            let (_, agu_start) = self.issue_slots.take(agu_start, 1);
                            let addr_known = agu_start + lat.agu;
                            if dup {
                                // RMT duplicate loads read the load value
                                // queue, not the cache.
                                addr_known + lat.forward
                            } else {
                                // Store-to-load forwarding: youngest older
                                // store overlapping this access and still in
                                // flight at addr_known. The skip path elides
                                // the window walk when every store has
                                // provably left the window by then.
                                let bytes = width.bytes();
                                let fwd = if self.cfg.event_skip
                                    && addr_known >= self.stores_commit_max
                                {
                                    None
                                } else {
                                    self.stores_in_flight
                                        .iter()
                                        .rev()
                                        .find(|s| {
                                            s.commit > addr_known
                                                && addr < s.addr + s.bytes
                                                && s.addr < addr + bytes
                                        })
                                        .map(|s| s.data_ready)
                                };
                                match fwd {
                                    Some(dr) => {
                                        self.stats.store_forwards += 1;
                                        addr_known.max(dr) + lat.forward
                                    }
                                    None => {
                                        let done_t = hier.dread(pc, addr, self.to_time(addr_known));
                                        self.to_cycle(done_t)
                                    }
                                }
                            }
                        }
                        UopClass::Store => {
                            // Stores are "complete" when address and data
                            // are both available; memory is written at
                            // commit through the write buffer.
                            let (_, agu_start) = self.mem_ports.take(ready, 1);
                            let (_, agu_start) = self.issue_slots.take(agu_start, 1);
                            let addr_known = agu_start + lat.agu;
                            let data_slot = pre[k].srcs[1];
                            let data_ready = if data_slot == NO_REG_SLOT {
                                0
                            } else {
                                self.reg_ready[data_slot as usize]
                            };
                            addr_known.max(data_ready) + 1
                        }
                        UopClass::RdCycle => {
                            let (_, start) = self.int_alus.take(ready, 1);
                            let (_, start) = self.issue_slots.take(start, 1);
                            if !dup {
                                nondet_value = Some(start + lat.int_alu);
                            }
                            start + lat.int_alu
                        }
                        UopClass::Nop | UopClass::Halt => {
                            let (_, start) = self.issue_slots.take(ready, 1);
                            start + 1
                        }
                    };
                    // One horizon raise covers everything this micro-op
                    // booked: unit busy-until ≤ complete, issue slot ≤
                    // complete, wakeup (reg_ready) = complete, window
                    // releases ≤ complete + 1.
                    note_event(&mut self.horizon, complete + 1);
                    if dup {
                        // The duplicate occupies window entries until it
                        // commits alongside the primary; approximate its
                        // release with its completion + 1.
                        self.rob.push(complete + 1);
                        self.iq.push(complete);
                        if is_load {
                            self.lq.push(complete + 1);
                        }
                        if is_store {
                            self.sq.push(complete + 1);
                        }
                        match pre[k].dst {
                            NO_REG_SLOT => {}
                            d if d < 32 => self.phys_int.push(complete + 1),
                            _ => self.phys_fp.push(complete + 1),
                        }
                    } else {
                        completes[k] = complete;
                        // IQ release at issue, approximated by completion
                        // (conservative); the destination wakes at
                        // completion.
                        self.iq.push(complete);
                        let dst_slot = pre[k].dst;
                        if dst_slot != NO_REG_SLOT {
                            self.reg_ready[dst_slot as usize] = complete;
                        }
                    }
                }
            }

            // ---- Functional execution (oracle) + faults -------------------
            let mut nondet = SuppliedNondet(nondet_value);
            let step = self.state.step_decoded(insn, &mut hier.data, &mut nondet);
            // The effect list lives on the stack (≤ 2 accesses per
            // macro-op): this body runs once per retired instruction and
            // must not allocate.
            let mut mem_effects =
                [MemEffect { is_store: false, addr: 0, value: 0, width: MemWidth::B, old: 0 }; 2];
            let mut n_effects = 0usize;
            for a in step.mem.iter() {
                mem_effects[n_effects] = MemEffect {
                    is_store: a.is_store,
                    addr: a.addr,
                    value: a.value,
                    width: a.width,
                    old: a.old,
                };
                n_effects += 1;
            }
            let mem_effects = &mut mem_effects[..n_effects];
            let mut capture_flip = 0;
            if let Some(strike) = &strike {
                capture_flip =
                    apply_strike(strike, insn, &mut self.state, &mut hier.data, mem_effects);
                if strike.pc.is_some() {
                    // A PC corruption also redirects fetch.
                    self.last_fetch_line = u64::MAX;
                }
            }
            if let Some(stuck) = self.stuck {
                apply_stuck(&mut self.state, stuck, self.cfg.int_alus, uops, &alu_units);
            }

            // ---- Load-forwarding-unit capture events ----------------------
            // The LFU captures the true loaded value at cache access
            // (§IV-C); only a strike before duplication corrupts it, and
            // only the instruction's first load.
            {
                let mut loads = step.mem.iter().filter(|a| !a.is_store);
                // `(seq + k) % rob_entries`, maintained incrementally: one
                // divide per instruction instead of one per uop.
                let mut rob_slot = (self.seq % self.cfg.rob_entries as u64) as usize;
                for (k, p) in pre.iter().enumerate() {
                    if p.class == UopClass::Load {
                        let a = loads.next().expect("load uop has an effect");
                        sink.on_load_executed(
                            rob_slot,
                            a.addr,
                            a.value ^ std::mem::take(&mut capture_flip),
                            a.width,
                            self.to_time(completes[k]),
                        );
                    }
                    rob_slot += 1;
                    if rob_slot == self.cfg.rob_entries {
                        rob_slot = 0;
                    }
                }
            }

            // ---- Control-flow resolution (terminator only) ----------------
            if is_term {
                match insn {
                    Instruction::Branch { .. } => {
                        self.stats.branches += 1;
                        let (p, btb_target) = prediction.expect("branch was predicted");
                        let taken = step.taken_branch;
                        self.pred.update_direction(pc, p, taken);
                        if taken {
                            self.pred.btb_update(pc, step.next_pc);
                        }
                        let correct =
                            p.taken == taken && (!taken || btb_target == Some(step.next_pc));
                        if correct {
                            if taken {
                                self.next_fetch_cycle = self.next_fetch_cycle.max(fetch_cycle + 1);
                            }
                        } else {
                            self.stats.mispredicts += 1;
                            let resolve = resolve_cycle.expect("branch resolved");
                            self.next_fetch_cycle = self.next_fetch_cycle.max(resolve + 1);
                        }
                    }
                    Instruction::Jal { .. } => {
                        let hit = self.pred.btb_lookup(pc) == Some(step.next_pc);
                        self.pred.btb_update(pc, step.next_pc);
                        let bubble = if hit { 1 } else { 2 };
                        self.next_fetch_cycle = self.next_fetch_cycle.max(fetch_cycle + bubble);
                    }
                    Instruction::Jalr { .. } => {
                        let predicted = jalr_prediction.expect("jalr was predicted");
                        self.pred.btb_update(pc, step.next_pc);
                        if predicted == Some(step.next_pc) {
                            self.next_fetch_cycle = self.next_fetch_cycle.max(fetch_cycle + 1);
                        } else {
                            self.stats.mispredicts += 1;
                            let resolve = resolve_cycle.expect("jalr resolved");
                            self.next_fetch_cycle = self.next_fetch_cycle.max(resolve + 1);
                        }
                    }
                    _ => {}
                }
            }

            // ---- In-order commit with detection gating -------------------
            let mut mem_iter = 0usize;
            // `(seq + k) % rob_entries`, maintained incrementally (see the
            // load capture loop above).
            let mut rob_slot = (self.seq % self.cfg.rob_entries as u64) as usize;
            for (k, u) in uops.iter().enumerate() {
                let complete = completes[k];
                let mut commit = (complete + 1).max(self.last_commit).max(self.commit_gate);
                let mem = if matches!(pre[k].class, UopClass::Load | UopClass::Store) {
                    let e = mem_effects[mem_iter];
                    mem_iter += 1;
                    Some(e)
                } else {
                    None
                };
                if let Some(e) = mem {
                    if e.is_store {
                        let (wb_slot, wb_start) = self.write_buffer.take(commit, 0);
                        commit = commit.max(wb_start);
                        let done_t = hier.dwrite(pc, e.addr, self.to_time(wb_start));
                        let done_cycle = self.to_cycle(done_t);
                        self.write_buffer.set_busy(wb_slot, done_cycle);
                        note_event(&mut self.horizon, done_cycle);
                    }
                }
                let (_, slot) = self.commit_slots.take(commit, 1);
                commit = commit.max(slot);

                let ev = CommitEvent {
                    seq: self.seq + k as u64,
                    instr_index: self.instr_index,
                    pc,
                    insn,
                    uop_index: u.uop_index,
                    last: u.last,
                    mem,
                    nondet: if u.is_nondet() { step.nondet } else { None },
                    rob_slot,
                };
                loop {
                    match sink.on_commit(&ev, self.to_time(commit), &self.state, hier) {
                        CommitGate::Accept => break,
                        CommitGate::AcceptWithPause(pause) => {
                            self.stats.gate_pauses += 1;
                            self.stats.gate_pause_cycles += pause;
                            self.commit_gate = commit + pause;
                            self.dispatch_gate = commit + pause;
                            note_event(&mut self.horizon, commit + pause);
                            break;
                        }
                        CommitGate::Retry(t) => {
                            let c2 = self.to_cycle(t).max(commit + 1);
                            self.stats.gate_retry_cycles += c2 - commit;
                            if self.cfg.event_skip {
                                // Span up to `ff_until` was accounted
                                // by a system fast-forward already.
                                let base = commit.max(self.ff_until.min(c2 - 1));
                                self.stats.cycles_skipped += (c2 - 1) - base;
                            }
                            commit = c2;
                        }
                    }
                }
                self.last_commit = commit;
                note_event(&mut self.horizon, commit + 1);

                self.rob.push(commit);
                if pre[k].class == UopClass::Load {
                    self.lq.push(commit);
                }
                if let Some(e) = mem {
                    if e.is_store {
                        self.sq.push(commit);
                        self.stores_in_flight.push_back(InflightStore {
                            addr: e.addr,
                            bytes: e.width.bytes(),
                            data_ready: complete,
                            commit,
                        });
                        self.stores_commit_max = self.stores_commit_max.max(commit);
                        if self.stores_in_flight.len() > self.cfg.sq_entries {
                            self.stores_in_flight.pop_front();
                        }
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                }
                match u.dst {
                    Some(DstReg::Int(_)) => self.phys_int.push(commit),
                    Some(DstReg::Fp(_)) => self.phys_fp.push(commit),
                    None => {}
                }
                self.stats.committed_uops += 1;
                rob_slot += 1;
                if rob_slot == self.cfg.rob_entries {
                    rob_slot = 0;
                }
            }

            self.seq += uops.len() as u64;
            self.instr_index += 1;
            self.stats.committed_instrs += 1;
            self.stats.last_commit_cycle = self.last_commit;
            done += 1;
            if step.halted {
                self.halted = true;
                return Ok(BlockOutcome { instrs: done, halted: true });
            }
            if done >= max_instrs {
                return Ok(BlockOutcome { instrs: done, halted: false });
            }
        }
        // Block exhausted: the next call resolves the successor block (a
        // wild target crashes there, as a bad PC at the next fetch).
        Ok(BlockOutcome { instrs: done, halted: false })
    }

    /// Runs until halt, crash, or `max_instrs` retired instructions.
    ///
    /// Returns the number of instructions retired by this call; inspect
    /// [`halted`](Self::halted)/[`crashed`](Self::crashed) for the cause.
    /// Drives [`step_block`](Self::step_block).
    pub fn run<S: DetectionSink + ?Sized>(
        &mut self,
        hier: &mut MemHier,
        sink: &mut S,
        max_instrs: u64,
    ) -> u64 {
        let mut n = 0;
        while n < max_instrs {
            match self.step_block(hier, sink, max_instrs - n) {
                Ok(out) => n += out.instrs,
                Err(_) => break,
            }
        }
        n
    }
}
