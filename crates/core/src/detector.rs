//! The detection hardware attached to the main core's commit stage.
//!
//! [`Detector`] implements [`DetectionSink`]: it captures committed loads,
//! stores and non-deterministic results into the current load-store log
//! segment, seals segments (taking the register checkpoint and pausing
//! commit for the copy latency), dispatches sealed segments to their
//! checker cores, and stalls the main core when every segment is in use
//! (§IV-D: "If all log segments are full, we stall the main core until a
//! checker core finishes").
//!
//! # The decoupled checker farm
//!
//! Checking a sealed segment is two-phase (see `paradet-checker`). The
//! expensive **functional replay** needs only the shared program, an owned
//! start/end checkpoint pair and the sealed entries, so `seal` packages
//! those into a [`SealedJob`] and dispatches it to a farm of persistent
//! worker threads (`paradet_par::Farm`) — host parallelism that mirrors
//! the paper's architectural parallelism, where checker cores genuinely
//! run concurrently with the main core. The cheap **timing fold** then
//! consumes the replay's trace against the shared [`MemHier`] and the
//! checker's availability.
//!
//! Timing folds happen on the simulation thread, **lazily and in seal
//! order**, at the first point the simulation actually needs a finish
//! time: when the segment ring wraps around to a still-checking segment
//! (the stall decision in `on_commit`) and at [`Detector::finalize`].
//! Those join points depend only on simulated state — never on how fast a
//! worker happens to run — so delays, finish times, errors, checker
//! statistics and cache statistics are bit-identical at any farm width,
//! including the serial fast path. The legacy inline path
//! (`SystemConfig::eager_check`) folds at the seal instead of the lazy
//! join; the two agree bit-for-bit whenever checker I-fetches hit the
//! private checker L0/L1I (all shipped workloads except `randacc`, whose
//! footprint evicts text from the shared L2 — see
//! `SystemConfig::eager_check` for the exact boundary).

use crate::config::{DetectionMode, SystemConfig};
use crate::delay::DelayStats;
use crate::error::DetectedError;
use crate::lfu::LoadForwardingUnit;
use crate::log::{EntryKind, Segment, SegmentLog, SegmentReader, SegmentState};
use crate::scratch::SimScratch;
use paradet_checker::{
    replay_segment, CheckerConfig, CheckerCore, CheckerStats, ClockDomain, ReplayOutcome,
    ReplayTrace, ScheduleCtx, SchedulePolicy, SegmentTask, SlotView,
};
use paradet_isa::{ArchState, Instruction, MemWidth, Program};
use paradet_mem::{CheckerPath, MemHier, Time};
use paradet_ooo::{CommitEvent, CommitGate, DetectionSink};
use paradet_par::{Farm, Ticket};
use std::collections::VecDeque;
use std::sync::Arc;

/// Why a segment was sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealKind {
    /// The segment had fewer free entries than the largest macro-op.
    Space,
    /// The instruction-count timeout elapsed (§IV-J).
    Timeout,
    /// An interrupt boundary forced an early checkpoint (§IV-G).
    Interrupt,
    /// The program halted or the run was finalized (§IV-H).
    Final,
}

/// Running statistics of the detection hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Segments sealed.
    pub seals: u64,
    /// … because the segment filled.
    pub space_seals: u64,
    /// … because of the instruction timeout.
    pub timeout_seals: u64,
    /// … because of an interrupt boundary.
    pub interrupt_seals: u64,
    /// … at termination.
    pub final_seals: u64,
    /// Entries written to the log.
    pub entries_logged: u64,
    /// Commit attempts turned away because the log was full.
    pub log_full_retries: u64,
}

/// Everything a checker needs to replay one sealed segment, owned so the
/// job can leave the simulation thread: the shared program, the chained
/// start checkpoint (moved out of the detector), the committed end state
/// (cloned into a scratch-pooled slot), and the log entries (moved out of
/// the segment ring).
#[derive(Debug)]
struct SealedJob {
    cfg: CheckerConfig,
    program: Arc<Program>,
    start: ArchState,
    end: ArchState,
    instr_count: u64,
    log: SegmentLog,
    trace: ReplayTrace,
}

/// A finished replay: the verdict + trace, and every buffer the job
/// borrowed from the detector's pools, coming home.
#[derive(Debug)]
struct DoneJob {
    outcome: ReplayOutcome,
    log: SegmentLog,
    start: ArchState,
    end: ArchState,
}

/// The farm's job function: pure functional replay, no shared state.
fn replay_job(mut job: SealedJob) -> DoneJob {
    let task = SegmentTask {
        program: &job.program,
        start: &job.start,
        end: &job.end,
        instr_count: job.instr_count,
        ready_at: Time::ZERO,
    };
    let mut reader = SegmentReader::new(&job.log);
    let outcome = replay_segment(&job.cfg, task, &mut reader, &mut job.trace);
    DoneJob { outcome, log: job.log, start: job.start, end: job.end }
}

/// One secondary clock domain's live state: its own checker cores
/// (`free_at`, statistics), its own checker-cache path (cold-cloned from
/// the domain's `MemConfig` template, exactly as a dedicated run at that
/// clock starts), and its own results. Folds run in seal order, primary
/// domain first, immediately after the primary fold of the same segment.
#[derive(Debug)]
struct DomainState {
    domain: ClockDomain,
    checkers: Vec<CheckerCore>,
    path: CheckerPath,
    delays: DelayStats,
    store_delays: DelayStats,
    finishes: Vec<Time>,
    errors: Vec<DetectedError>,
    /// Per-slot finish time of the slot's last folded check — the busy
    /// window a dedicated run at this clock would gate the main core on.
    busy_until: Vec<Time>,
    /// Commit-gate decisions where this domain's busy window differed from
    /// the primary's (see [`DomainReport::stall_divergences`]).
    stall_divergences: u64,
}

/// One secondary clock domain's results out of a multi-domain run.
#[derive(Debug, Clone)]
pub struct DomainReport {
    /// The domain swept.
    pub domain: ClockDomain,
    /// Detection delays over all checked entries (Fig. 8 at this clock).
    pub delays: DelayStats,
    /// Detection delays over stores only (Fig. 11 at this clock).
    pub store_delays: DelayStats,
    /// Errors this domain's checkers raised, in seal order, with
    /// confirmation times filled in.
    pub errors: Vec<DetectedError>,
    /// Finish times of every folded check, indexed by seal sequence.
    pub finishes: Vec<Time>,
    /// Per-core checker statistics.
    pub checkers: Vec<CheckerStats>,
    /// Time at which every check of this domain has finished.
    pub all_checks_done_at: Time,
    /// Commit-gate decisions where this domain's segment-busy window would
    /// have gated the main core differently than the primary domain's
    /// (stalled when the primary didn't, freed when the primary stalled,
    /// or stalled to a different time). **Zero certifies this domain's
    /// one-run results as bit-identical to a dedicated single-clock run**;
    /// non-zero means a dedicated run's main-core timeline would have
    /// diverged, and this domain's rows are approximations.
    pub stall_divergences: u64,
}

/// One seal's scheduling decision, recorded in seal order: which slot the
/// policy assigned the sealed segment to and the entry capacity that
/// segment had. The log is what pins scheduling as a pure function of
/// (kernel, config, geometry) — identical runs must produce identical
/// assignment streams at any thread or farm width (see
/// `tests/mixed_farms.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealAssignment {
    /// Seal sequence number.
    pub seal_seq: u64,
    /// Checker slot the segment was assigned to.
    pub slot: usize,
    /// Entry capacity of the segment when it sealed.
    pub capacity: usize,
}

/// Bookkeeping for one dispatched, not-yet-folded check, queued in seal
/// order.
#[derive(Debug)]
struct PendingCheck {
    ticket: Ticket,
    seal_seq: u64,
    /// Segment (= checker) index the job came from.
    slot: usize,
    /// Seal time: when the segment and its end checkpoint became available.
    ready_at: Time,
    base_instr: u64,
}

/// Rollback bookkeeping for one sealed-but-not-yet-validated segment:
/// everything needed to undo it if a check (of it or any earlier segment)
/// fails.
#[derive(Debug)]
struct SealRecord {
    seal_seq: u64,
    /// Retired-instruction count at the segment's start checkpoint.
    base_instr: u64,
    /// Architectural state at the segment's start checkpoint.
    start: ArchState,
    /// `(addr, width, old_value)` per committed store, in commit order.
    undo: Vec<(u64, MemWidth, u64)>,
}

/// Live rollback bookkeeping (present only when recovery tracking is
/// enabled): the window of sealed-but-unvalidated segments, oldest first.
/// A segment leaves the window when its check folds clean; the window
/// freezes (`poisoned`) at the first failed check, so the front record is
/// always the first errored segment — its start checkpoint is the last
/// *validated* state of the run.
#[derive(Debug, Default)]
struct RecoveryState {
    seals: VecDeque<SealRecord>,
    poisoned: bool,
}

/// Everything a recovery driver needs to roll the system back to the last
/// validated checkpoint after a detected error (see
/// [`Detector::rollback_plan`]).
#[derive(Debug, Clone)]
pub struct RollbackPlan {
    /// Retired-instruction count at the rollback target (counted from this
    /// run's start — a resumed run's driver adds its own global offset).
    pub base_instr: u64,
    /// Architectural state to resume from: the last validated checkpoint.
    pub state: ArchState,
    /// Store-undo writes `(addr, width, old_value)` in application order —
    /// newest unvalidated segment first, stores reversed within each
    /// segment — so applying them front-to-back restores memory to the
    /// checkpoint.
    pub undo: Vec<(u64, MemWidth, u64)>,
}

/// The detection hardware: load forwarding unit, partitioned log,
/// checkpointing, and the checker-core farm.
#[derive(Debug)]
pub struct Detector {
    mode: DetectionMode,
    lfu_enabled: bool,
    eager_check: bool,
    pause_cycles: u64,
    timeout: Option<u64>,
    interrupt_interval: Option<Time>,
    next_interrupt: Time,
    program: Arc<Program>,
    /// The checker cores (public for statistics inspection). On a mixed
    /// farm each slot runs its speed class's configuration
    /// (`SystemConfig::checker_config_for_slot`).
    pub checkers: Vec<CheckerCore>,
    /// The checker-to-segment scheduling policy (shipped policies are
    /// zero-sized statics, so a `'static` borrow keeps the detector
    /// allocation-free here).
    policy: &'static dyn SchedulePolicy,
    /// Per-slot speed-class index into [`class_paths`](Detector::class_paths),
    /// `None` for slots on the primary clock (every slot, on a uniform
    /// farm).
    slot_class: Vec<Option<usize>>,
    /// One private checker-cache path per mixed speed class, cold at
    /// construction and clocked at the class clock (per-class hit
    /// latencies). Unlike a secondary domain's observe-only path, these
    /// belong to the *primary* farm: their misses mutate the shared
    /// L2/DRAM through `MemHier::checker_ifetch_cycle_on`, in seal order.
    /// Empty on uniform farms — those keep using the hierarchy's own
    /// path, byte-for-byte as before (invariant 11).
    class_paths: Vec<CheckerPath>,
    /// Entries per segment at the uniform even split (the capacity
    /// reference dynamic sizing redistributes).
    base_entries: usize,
    /// Scheduling decisions, one per seal (see [`SealAssignment`]).
    assignments: Vec<SealAssignment>,
    /// Reusable scratch for the per-seal [`SlotView`] snapshot.
    slot_views: Vec<SlotView>,
    /// Secondary clock domains folded alongside the primary.
    domains: Vec<DomainState>,
    /// The load forwarding unit (public for statistics inspection).
    pub lfu: LoadForwardingUnit,
    segs: Vec<Segment>,
    cur: usize,
    /// Start checkpoint chained from the previous segment's end (§IV-D:
    /// "start a checker core with the register checkpoint collected when
    /// the previous segment was filled").
    chain_ckpt: ArchState,
    base_instr: u64,
    seal_seq: u64,
    finishes: Vec<Time>,
    /// The farm's worker pool, spawned on the first dispatch (never in
    /// `CheckpointOnly`/`Off` modes or on the legacy inline path).
    farm: Option<Farm<SealedJob, DoneJob>>,
    /// Dispatched checks whose timing has not been folded yet, oldest seal
    /// first.
    pending: VecDeque<PendingCheck>,
    /// Recycled `ArchState` slots for job checkpoints.
    ckpt_pool: Vec<ArchState>,
    /// Recycled replay-trace buffers for jobs.
    trace_pool: Vec<ReplayTrace>,
    /// Detection delays over all checked entries (Fig. 8).
    pub delays: DelayStats,
    /// Detection delays over stores only (Fig. 11/12).
    pub store_delays: DelayStats,
    /// Errors raised by checkers, in seal order.
    pub errors: Vec<DetectedError>,
    /// Statistics (public for the experiment harness).
    pub stats: DetectorStats,
    /// An armed fault in the *detection hardware itself*: flips `bit` of
    /// the value of entry `entry` in the segment with seal sequence `seq`,
    /// just before its check runs. Models §IV-I over-detection: "errors
    /// within the checker circuitry do not affect the main program", but
    /// are still reported.
    log_fault: Option<(u64, usize, u8)>,
    /// Rollback bookkeeping, present only when recovery tracking is on
    /// (see [`Detector::enable_recovery_tracking`]).
    rec: Option<RecoveryState>,
    /// A lying checker that always reports "pass": every detected error is
    /// silently dropped (the missed-detection checker-fault class). The
    /// converse lie — a false positive — is [`Detector::arm_log_fault`].
    lie_miss: bool,
}

/// Folds one secondary clock domain's timing for a finished replay — the
/// per-domain half of a lazy-join point. The shared L2/DRAM is read
/// strictly through the observe path (note the `&MemHier`), so folds of
/// different domains are independent of each other and of the primary run:
/// that independence is what lets `Detector::fold_next_pending` fan the
/// domain set out over `paradet_par` workers, with in-place mutation
/// keeping results in domain-set order by construction.
#[allow(clippy::too_many_arguments)]
fn fold_domain(
    d: &mut DomainState,
    slot: usize,
    ready_at: Time,
    seal_seq: u64,
    base_instr: u64,
    outcome: &ReplayOutcome,
    log: &SegmentLog,
    hier: &MemHier,
) {
    let DomainState {
        checkers: d_checkers,
        path,
        delays: d_delays,
        store_delays: d_store_delays,
        finishes: d_finishes,
        errors: d_errors,
        busy_until,
        ..
    } = d;
    let out = d_checkers[slot].fold_timing_with(
        ready_at,
        outcome,
        |core, line, cycle, period| hier.checker_ifetch_cycle_via(path, core, line, cycle, period),
        |idx, now| record_delay(d_delays, d_store_delays, log, idx, now),
    );
    d_finishes.push(out.finish_time);
    if let Err(error) = out.result {
        d_errors.push(DetectedError {
            seal_seq,
            error,
            detect_time: out.finish_time,
            confirm_time: Time::ZERO,
            base_instr,
        });
    }
    busy_until[slot] = out.finish_time;
}

/// Records one passed entry's detection delay (commit → check).
fn record_delay(
    delays: &mut DelayStats,
    store_delays: &mut DelayStats,
    log: &SegmentLog,
    idx: usize,
    now: Time,
) {
    let d = now.saturating_sub(log.commit_time(idx));
    delays.record(d);
    if log.kind(idx) == EntryKind::Store {
        store_delays.record(d);
    }
}

impl Detector {
    /// Builds the detection hardware for `program` starting from its entry
    /// state. Deep-clones `program` once; hot loops should share it via
    /// [`Detector::new_shared`].
    pub fn new(cfg: &SystemConfig, program: &Program) -> Detector {
        Detector::new_shared(cfg, Arc::new(program.clone()), &mut SimScratch::new())
    }

    /// Builds the detection hardware sharing `program` (no deep clone) and
    /// drawing log-segment buffers from `scratch` instead of allocating
    /// fresh ones — the per-trial construction fast path.
    pub fn new_shared(
        cfg: &SystemConfig,
        program: Arc<Program>,
        scratch: &mut SimScratch,
    ) -> Detector {
        let entries = cfg.entries_per_segment();
        let mut det = Detector {
            mode: cfg.mode,
            lfu_enabled: cfg.lfu_enabled,
            eager_check: cfg.eager_check,
            pause_cycles: cfg.checkpoint_pause_cycles,
            timeout: cfg.log.timeout_insns,
            interrupt_interval: cfg.interrupt_interval,
            next_interrupt: cfg.interrupt_interval.unwrap_or(Time::MAX),
            checkers: (0..cfg.n_checkers)
                .map(|i| CheckerCore::new(i, cfg.checker_config_for_slot(i)))
                .collect(),
            policy: cfg.sched_policy.policy(),
            slot_class: (0..cfg.n_checkers).map(|i| cfg.farm.class_of_slot(i)).collect(),
            class_paths: if cfg.mode == DetectionMode::Full && !cfg.farm.is_uniform() {
                cfg.farm
                    .classes()
                    .map(|d| CheckerPath::new(&cfg.mem_config_for(d.checker.clock), cfg.n_checkers))
                    .collect()
            } else {
                Vec::new()
            },
            base_entries: entries,
            assignments: Vec::new(),
            slot_views: Vec::with_capacity(cfg.n_checkers),
            domains: if cfg.mode == DetectionMode::Full {
                cfg.extra_domains
                    .iter()
                    .map(|domain| DomainState {
                        checkers: (0..cfg.n_checkers)
                            .map(|i| CheckerCore::new(i, domain.checker))
                            .collect(),
                        path: CheckerPath::new(
                            &cfg.mem_config_for(domain.checker.clock),
                            cfg.n_checkers,
                        ),
                        domain,
                        delays: DelayStats::new(),
                        store_delays: DelayStats::new(),
                        finishes: Vec::new(),
                        errors: Vec::new(),
                        busy_until: vec![Time::ZERO; cfg.n_checkers],
                        stall_divergences: 0,
                    })
                    .collect()
            } else {
                Vec::new()
            },
            lfu: LoadForwardingUnit::new(cfg.main.rob_entries),
            segs: (0..cfg.n_checkers)
                .map(|_| Segment::with_buffer(entries, scratch.take_seg_buf()))
                .collect(),
            cur: 0,
            chain_ckpt: ArchState::at_entry(&program),
            program,
            base_instr: 0,
            seal_seq: 0,
            finishes: Vec::new(),
            farm: None,
            pending: VecDeque::new(),
            ckpt_pool: scratch.take_ckpts(),
            trace_pool: scratch.take_traces(),
            delays: DelayStats::new(),
            store_delays: DelayStats::new(),
            errors: Vec::new(),
            stats: DetectorStats::default(),
            log_fault: None,
            rec: None,
            lie_miss: false,
        };
        // Let the policy pick (and size) the first segment to fill, from a
        // fully idle farm at t=0. For round-robin this resolves to slot 0
        // at the even-split capacity — exactly the fixed-ring start — so
        // the uniform default is untouched (invariant 11).
        if cfg.mode != DetectionMode::Off {
            let n = det.segs.len();
            det.cur = det.schedule_next(n - 1, Time::ZERO);
        }
        det
    }

    /// Turns on rollback bookkeeping: every sealed segment's start
    /// checkpoint and store-undo rows are retained until its check
    /// validates, so [`Detector::rollback_plan`] can reconstruct the last
    /// validated state after a detected error. Full-detection mode only.
    pub fn enable_recovery_tracking(&mut self) {
        debug_assert_eq!(self.mode, DetectionMode::Full, "recovery needs full detection");
        self.rec = Some(RecoveryState::default());
    }

    /// Arms the missed-detection checker fault: from now on the checker
    /// farm lies "pass" on every check, silently dropping detected errors
    /// (the segment counts as validated downstream). Models a faulty
    /// checker core — the converse of [`Detector::arm_log_fault`]'s
    /// over-detection.
    pub fn arm_checker_miss(&mut self) {
        self.lie_miss = true;
    }

    /// Restarts the detection chain from `state` instead of the program
    /// entry point — the first sealed segment of a resumed run replays from
    /// this checkpoint. Call before the first commit.
    pub fn resume_from(&mut self, state: &ArchState) {
        debug_assert_eq!(self.seal_seq, 0, "resume_from after seals");
        self.chain_ckpt.clone_from(state);
    }

    /// After a run with recovery tracking enabled ends with a detected
    /// error, returns the plan that rolls the system back to the last
    /// validated checkpoint: the resume state, its retired-instruction
    /// offset, and the store-undo writes (already ordered for
    /// front-to-back application). `None` when no check failed, when
    /// tracking is off, or when the failing check left no unvalidated
    /// window (nothing to undo).
    pub fn rollback_plan(&self) -> Option<RollbackPlan> {
        let rec = self.rec.as_ref()?;
        if !rec.poisoned {
            return None;
        }
        let front = rec.seals.front()?;
        let mut undo = Vec::new();
        for s in rec.seals.iter().rev() {
            undo.extend(s.undo.iter().rev().copied());
        }
        Some(RollbackPlan { base_instr: front.base_instr, state: front.start.clone(), undo })
    }

    /// Returns the detector's reusable allocations (segment entry buffers,
    /// checkpoint slots, trace buffers) to `scratch` so the next
    /// [`Detector::new_shared`] skips reallocating them. Joins any check
    /// still in flight first.
    pub fn recycle_into(mut self, scratch: &mut SimScratch) {
        // A run abandoned before finalize may leave unfolded checks; their
        // results are moot, but the buffers come home.
        while let Some(p) = self.pending.pop_front() {
            let done = self.farm.as_mut().expect("pending implies farm").join(p.ticket);
            scratch.put_seg_buf(done.log);
            self.ckpt_pool.push(done.start);
            self.ckpt_pool.push(done.end);
            self.trace_pool.push(done.outcome.trace);
        }
        for seg in self.segs {
            scratch.put_seg_buf(seg.log);
        }
        scratch.put_ckpts(self.ckpt_pool);
        scratch.put_traces(self.trace_pool);
    }

    /// Arms an over-detection fault: corrupts one bit of one log entry in
    /// the segment with seal sequence `seal_seq` before it is checked
    /// (§IV-I). The main program is unaffected; the checker reports a
    /// false-positive error.
    pub fn arm_log_fault(&mut self, seal_seq: u64, entry: usize, bit: u8) {
        self.log_fault = Some((seal_seq, entry, bit));
    }

    /// Time at which every launched check has finished. Complete only once
    /// [`Detector::finalize`] has joined the farm.
    pub fn all_checks_done_at(&self) -> Time {
        self.finishes.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// Finish times of every folded check, indexed by seal sequence (for
    /// the determinism test-suite; complete after [`Detector::finalize`]).
    pub fn finish_times(&self) -> &[Time] {
        &self.finishes
    }

    /// Checks dispatched to the farm whose timing has not been folded yet.
    pub fn in_flight_checks(&self) -> usize {
        self.pending.len()
    }

    /// The scheduling decisions so far, one per seal, in seal order (for
    /// the mixed-farm determinism suite).
    pub fn assignments(&self) -> &[SealAssignment] {
        &self.assignments
    }

    /// Asks the policy which slot receives the segment now starting to
    /// fill (and at what capacity), given the farm's busy windows at
    /// `at`. `prev` is the slot just sealed.
    ///
    /// A still-`Checking` slot has no materialized finish time; its view
    /// carries a `Time::MAX` sentinel. Only round-robin can see one — it
    /// never reads busy windows — because for dynamic policies the seal
    /// path drains in-flight folds first, so every window is exact.
    fn schedule_next(&mut self, prev: usize, at: Time) -> usize {
        let mut views = std::mem::take(&mut self.slot_views);
        views.clear();
        for (i, seg) in self.segs.iter().enumerate() {
            let busy_until = match seg.state {
                SegmentState::Busy { until } => until,
                SegmentState::Checking => Time::MAX,
                SegmentState::Free | SegmentState::Filling => Time::ZERO,
            };
            views.push(SlotView { mhz: self.checkers[i].config().clock.mhz(), busy_until });
        }
        let ctx = ScheduleCtx {
            slots: &views,
            prev_slot: prev,
            now: at,
            base_capacity: self.base_entries,
            min_capacity: crate::MAX_UOPS_PER_INSN,
        };
        let next = self.policy.next_slot(&ctx);
        assert!(next < self.segs.len(), "policy chose slot {next} of {}", self.segs.len());
        let capacity = self.policy.segment_capacity(next, &ctx).max(ctx.min_capacity);
        self.slot_views = views;
        let seg = &mut self.segs[next];
        if seg.capacity != capacity {
            seg.capacity = capacity;
            seg.log.ensure_capacity(capacity);
        }
        next
    }

    /// The detector's next *known* deadline strictly after `now`: the
    /// earliest segment-storage release (a `Busy` segment's check-finish
    /// time, which is what wrap-around and halt stalls jump to) or the next
    /// forced interrupt checkpoint. `None` when no deadline is pending.
    ///
    /// Deadlines of still-`Checking` segments are deliberately absent: a
    /// sealed segment's finish time materializes only when its timing fold
    /// joins, at a simulation-determined point in seal order — that lazy
    /// join is what keeps results bit-identical at any farm width.
    ///
    /// Once slots diverge in clock (a mixed farm), the detector also owns
    /// per-class checker-cache paths whose in-flight demand fills are
    /// invisible to `MemHier::next_event_after` — so they are chained in
    /// here, exactly as the hierarchy chains its own checker path. Busy
    /// releases need no per-clock adjustment: they are absolute times,
    /// already folded at each slot's own clock.
    pub fn next_event_time(&self, now: Time) -> Option<Time> {
        let busy = self.segs.iter().filter_map(|s| match s.state {
            SegmentState::Busy { until } if until > now => Some(until),
            _ => None,
        });
        let fills = self.class_paths.iter().filter_map(|p| p.next_fill_after(now));
        let interrupt = self
            .interrupt_interval
            .and(Some(self.next_interrupt))
            .filter(|&t| t > now && t < Time::MAX);
        busy.chain(fills).chain(interrupt).min()
    }

    /// Fills in [`DetectedError::confirm_time`] for every recorded error:
    /// the time at which all earlier segments had validated.
    pub fn confirm_errors(&mut self) {
        debug_assert!(self.pending.is_empty(), "confirm_errors before all checks folded");
        fn confirm(finishes: &[Time], errors: &mut [DetectedError]) {
            // Prefix maxima of finish times by seal sequence.
            let mut prefix = Vec::with_capacity(finishes.len());
            let mut m = Time::ZERO;
            for &f in finishes {
                m = m.max(f);
                prefix.push(m);
            }
            for e in errors {
                e.confirm_time = prefix.get(e.seal_seq as usize).copied().unwrap_or(e.detect_time);
            }
        }
        confirm(&self.finishes, &mut self.errors);
        for d in &mut self.domains {
            confirm(&d.finishes, &mut d.errors);
        }
    }

    /// Snapshots every secondary clock domain's results (complete after
    /// [`Detector::finalize`]).
    pub fn domain_reports(&self) -> Vec<DomainReport> {
        self.domains
            .iter()
            .map(|d| DomainReport {
                domain: d.domain,
                delays: d.delays.clone(),
                store_delays: d.store_delays.clone(),
                errors: d.errors.clone(),
                finishes: d.finishes.clone(),
                checkers: d.checkers.iter().map(|c| c.stats).collect(),
                all_checks_done_at: d.finishes.iter().copied().max().unwrap_or(Time::ZERO),
                stall_divergences: d.stall_divergences,
            })
            .collect()
    }

    /// Records, for every secondary domain, whether its busy window for
    /// `slot` would have gated the main core differently than the
    /// primary's at time `at` (`primary_until` is the primary's busy-until
    /// for the slot, `Time::ZERO` when its storage is free). Called at
    /// exactly the simulation points where the primary consults a
    /// segment's busy state.
    fn note_domain_stalls(&mut self, slot: usize, at: Time, primary_until: Time) {
        for d in &mut self.domains {
            let domain_until = d.busy_until[slot];
            let primary_stalls = at < primary_until;
            let domain_stalls = at < domain_until;
            if primary_stalls != domain_stalls || (primary_stalls && primary_until != domain_until)
            {
                d.stall_divergences += 1;
            }
        }
    }

    /// Seals whatever remains (entries and instructions since the last
    /// boundary), checks it, and joins every outstanding check — used at
    /// halt, crash, or experiment cutoff (§IV-H: process termination is
    /// held until checks complete).
    pub fn finalize(
        &mut self,
        committed: &ArchState,
        instr_count: u64,
        at: Time,
        hier: &mut MemHier,
    ) {
        if self.mode == DetectionMode::Off {
            return;
        }
        // Fold everything in flight (seal order) so segment states and
        // finish times below are settled.
        self.drain_pending(hier);
        let covered = instr_count.saturating_sub(self.base_instr);
        // Entries in a non-Filling segment are stale leftovers from its
        // previous tour of the ring (cleared lazily on reuse).
        let has_pending = self.segs[self.cur].state == SegmentState::Filling
            && !self.segs[self.cur].log.is_empty();
        if covered > 0 || has_pending {
            // Wait for the current segment's storage if it is still busy.
            let until = match self.segs[self.cur].state {
                SegmentState::Busy { until } => until,
                _ => Time::ZERO,
            };
            self.note_domain_stalls(self.cur, at, until);
            let at = at.max(until);
            self.seal(committed, instr_count, at, hier, SealKind::Final);
            self.drain_pending(hier);
        }
        self.confirm_errors();
    }

    /// Worker count for a freshly spawned farm: serial inside an already-
    /// parallel region (trial sweeps fan out *across* simulations), else
    /// the configured thread count, never more than there are checkers.
    fn farm_threads(n_checkers: usize) -> usize {
        if paradet_par::in_worker() {
            1
        } else {
            paradet_par::num_threads().min(n_checkers.max(1))
        }
    }

    /// Folds the timing of the **oldest** dispatched check — seal order is
    /// the invariant that keeps `MemHier` folds, delay recording and error
    /// ordering bit-identical to the inline path.
    fn fold_next_pending(&mut self, hier: &mut MemHier) {
        let p = self.pending.pop_front().expect("fold with no pending check");
        let done = self.farm.as_mut().expect("pending implies farm").join(p.ticket);
        let Detector {
            checkers,
            slot_class,
            class_paths,
            domains,
            segs,
            delays,
            store_delays,
            finishes,
            errors,
            ckpt_pool,
            trace_pool,
            rec,
            lie_miss,
            ..
        } = self;
        let log = &done.log;
        // A mixed farm routes the slot's I-fetches through its speed
        // class's own path (per-class clock and hit latencies), misses
        // landing in the shared L2/DRAM at the same seal-order fold point
        // the uniform path uses. Uniform farms keep the hierarchy's own
        // checker path, untouched (invariant 11).
        let outcome = match slot_class[p.slot] {
            None => checkers[p.slot].fold_timing(p.ready_at, &done.outcome, hier, |idx, now| {
                record_delay(delays, store_delays, log, idx, now);
            }),
            Some(class) => {
                let path = &mut class_paths[class];
                checkers[p.slot].fold_timing_with(
                    p.ready_at,
                    &done.outcome,
                    |core, line, cycle, period| {
                        hier.checker_ifetch_cycle_on(path, core, line, cycle, period)
                    },
                    |idx, now| record_delay(delays, store_delays, log, idx, now),
                )
            }
        };
        finishes.push(outcome.finish_time);
        // A lying checker reports "pass" regardless of the replay verdict
        // (missed-detection fault class); the segment then counts as
        // validated downstream like any clean check.
        let result = if *lie_miss { Ok(()) } else { outcome.result };
        match result {
            Ok(()) => {
                if let Some(rec) = rec {
                    if !rec.poisoned {
                        debug_assert_eq!(
                            rec.seals.front().map(|s| s.seal_seq),
                            Some(p.seal_seq),
                            "folds run in seal order"
                        );
                        rec.seals.pop_front();
                    }
                }
            }
            Err(error) => {
                errors.push(DetectedError {
                    seal_seq: p.seal_seq,
                    error,
                    detect_time: outcome.finish_time,
                    confirm_time: Time::ZERO,
                    base_instr: p.base_instr,
                });
                // Freeze the unvalidated window: the front record is now
                // the first errored segment, the rollback target.
                if let Some(rec) = rec {
                    rec.poisoned = true;
                }
            }
        }
        // Secondary clock domains fold the same replay trace, in set order,
        // against their own checker cores and cache paths. Their I-fetch
        // misses share L2/DRAM with the primary's — fine whenever checker
        // fetches resolve in the private L0/L1I or hit L2 at its constant
        // hit latency (the same boundary `SystemConfig::eager_check`
        // documents for the farm-vs-eager identity).
        //
        // The folds are independent across domains (each owns its checker
        // cores and cache path; the shared L2/DRAM is only *observed*, by
        // the `&*hier` reborrow below), so fan them out over `paradet_par`
        // workers at this join point — serial inside an already-parallel
        // region (campaign trials), at one thread, and for short segments
        // (scoped-thread spawn costs tens of microseconds per join, which
        // only amortizes when each fold walks a substantial trace), where
        // the in-place loop is also the reference ordering the parallel
        // path reproduces bit for bit (see `domain_folds_parallel_identity`
        // in `tests/parallel_determinism.rs`).
        {
            /// Smallest replayed-instruction count per segment for which the
            /// per-join thread spawn is worth paying.
            const PAR_FOLD_MIN_INSTRS: u64 = 256;
            let hier_ro: &MemHier = hier;
            let outcome = &done.outcome;
            if domains.len() > 1
                && outcome.instrs >= PAR_FOLD_MIN_INSTRS
                && !paradet_par::in_worker()
                && paradet_par::num_threads() > 1
            {
                paradet_par::par_for_each_mut(domains, |_, d| {
                    fold_domain(
                        d,
                        p.slot,
                        p.ready_at,
                        p.seal_seq,
                        p.base_instr,
                        outcome,
                        log,
                        hier_ro,
                    );
                });
            } else {
                for d in domains.iter_mut() {
                    fold_domain(
                        d,
                        p.slot,
                        p.ready_at,
                        p.seal_seq,
                        p.base_instr,
                        outcome,
                        log,
                        hier_ro,
                    );
                }
            }
        }
        // The segment's storage frees when its check finishes; the entry
        // buffer comes home for the segment's next tour of the ring.
        let seg = &mut segs[p.slot];
        seg.log = done.log;
        seg.state = SegmentState::Busy { until: outcome.finish_time };
        ckpt_pool.push(done.start);
        ckpt_pool.push(done.end);
        trace_pool.push(done.outcome.trace);
    }

    /// Joins checks (oldest first) until `slot`'s check is folded.
    fn resolve_slot(&mut self, slot: usize, hier: &mut MemHier) {
        while self.segs[slot].state == SegmentState::Checking {
            self.fold_next_pending(hier);
        }
    }

    /// Joins every outstanding check, in seal order.
    fn drain_pending(&mut self, hier: &mut MemHier) {
        while !self.pending.is_empty() {
            self.fold_next_pending(hier);
        }
    }

    /// Takes a pooled `ArchState` slot holding a copy of `src`.
    fn pooled_clone(pool: &mut Vec<ArchState>, src: &ArchState) -> ArchState {
        match pool.pop() {
            Some(mut slot) => {
                slot.clone_from(src);
                slot
            }
            None => src.clone(),
        }
    }

    /// Seals the current segment at `at`, whose end state is `committed`
    /// after `instr_count` total retired instructions, and hands it to its
    /// checker — dispatched to the farm (finish time folded at the lazy
    /// join), or checked inline under `eager_check`.
    fn seal(
        &mut self,
        committed: &ArchState,
        instr_count: u64,
        at: Time,
        hier: &mut MemHier,
        kind: SealKind,
    ) {
        self.stats.seals += 1;
        match kind {
            SealKind::Space => self.stats.space_seals += 1,
            SealKind::Timeout => self.stats.timeout_seals += 1,
            SealKind::Interrupt => self.stats.interrupt_seals += 1,
            SealKind::Final => self.stats.final_seals += 1,
        }
        if let Some(iv) = self.interrupt_interval {
            if kind == SealKind::Interrupt {
                self.next_interrupt = at + iv;
            }
        }

        let cur = self.cur;
        {
            let seg = &mut self.segs[cur];
            // An entry-less timeout/final seal may find the segment Free or
            // holding stale entries from its previous tour of the ring
            // (storage is reclaimed lazily): begin its fill retroactively.
            if seg.state != SegmentState::Filling {
                seg.reset();
                seg.state = SegmentState::Filling;
                seg.base_instr = self.base_instr;
            }
            seg.instr_count = instr_count - seg.base_instr;
            seg.seal_time = at;
        }

        // The farm path moves the chain checkpoint into the job and installs
        // a pooled copy of `committed` in its place; every other path chains
        // by `clone_from` below.
        let mut chained = false;
        match self.mode {
            DetectionMode::Full => {
                // §IV-I over-detection: flip the armed bit just before the
                // check consumes the segment.
                if let Some((fseq, fentry, fbit)) = self.log_fault {
                    if fseq == self.seal_seq && !self.segs[cur].log.is_empty() {
                        let seg = &mut self.segs[cur];
                        let idx = fentry % seg.log.len();
                        seg.log.flip_value_bit(idx, fbit);
                        self.log_fault = None;
                    }
                }
                {
                    // Package an owned job, dispatch it to the farm, and
                    // let the main loop run ahead — the finish time is
                    // folded at the lazy join. The legacy `eager_check`
                    // path is the same machinery folded immediately below.
                    let threads = Detector::farm_threads(self.segs.len());
                    let cfg = *self.checkers[cur].config();
                    let end = Detector::pooled_clone(&mut self.ckpt_pool, committed);
                    let new_chain = Detector::pooled_clone(&mut self.ckpt_pool, committed);
                    let start = std::mem::replace(&mut self.chain_ckpt, new_chain);
                    chained = true;
                    // Rollback bookkeeping: snapshot the start checkpoint
                    // and the segment's store-undo rows before the log
                    // moves into the job. The record is dropped when the
                    // fold validates cleanly.
                    if let Some(rec) = &mut self.rec {
                        rec.seals.push_back(SealRecord {
                            seal_seq: self.seal_seq,
                            base_instr: self.segs[cur].base_instr,
                            start: start.clone(),
                            undo: self.segs[cur].log.undo_rows(),
                        });
                    }
                    let seg = &mut self.segs[cur];
                    let job = SealedJob {
                        cfg,
                        program: Arc::clone(&self.program),
                        start,
                        end,
                        instr_count: seg.instr_count,
                        log: std::mem::take(&mut seg.log),
                        trace: self.trace_pool.pop().unwrap_or_default(),
                    };
                    seg.state = SegmentState::Checking;
                    let base_instr = seg.base_instr;
                    let farm = self.farm.get_or_insert_with(|| Farm::new(threads, replay_job));
                    let ticket = farm.submit(job);
                    self.pending.push_back(PendingCheck {
                        ticket,
                        seal_seq: self.seal_seq,
                        slot: cur,
                        ready_at: at,
                        base_instr,
                    });
                }
                if self.eager_check {
                    // Legacy reference semantics: fold at the seal itself —
                    // the pre-farm position in the hierarchy's access
                    // stream — instead of at the lazy join.
                    self.fold_next_pending(hier);
                }
            }
            DetectionMode::CheckpointOnly => {
                // Checkpoint costs are modelled; the segment frees at once.
                self.finishes.push(at);
                self.segs[cur].reset();
            }
            DetectionMode::Off => unreachable!("seal is never called in Off mode"),
        }
        // Chain the checkpoint for the next segment, reusing the existing
        // allocation (`clone_from`) instead of cloning per seal.
        if !chained {
            self.chain_ckpt.clone_from(committed);
        }
        self.assignments.push(SealAssignment {
            seal_seq: self.seal_seq,
            slot: cur,
            capacity: self.segs[cur].capacity,
        });
        self.base_instr = instr_count;
        self.seal_seq += 1;
        // A dynamic policy reads every slot's storage-busy window, so the
        // in-flight checks must fold first — the modelled scheduler sits
        // next to the log SRAM and *sees* which checkers are busy. The
        // drain is a deterministic simulation point (like `eager_check`'s
        // fold-at-seal position in the shared-L2 access stream), so
        // results stay bit-identical at any farm width; round-robin skips
        // it and keeps the fully lazy fold schedule.
        if self.policy.needs_busy_windows() {
            self.drain_pending(hier);
        }
        self.cur = self.schedule_next(cur, at);
    }
}

impl DetectionSink for Detector {
    fn on_load_executed(
        &mut self,
        rob_slot: usize,
        addr: u64,
        value: u64,
        width: MemWidth,
        at: Time,
    ) {
        if self.mode == DetectionMode::Off {
            return;
        }
        self.lfu.capture(rob_slot, addr, value, width, at);
    }

    fn on_commit(
        &mut self,
        ev: &CommitEvent,
        at: Time,
        committed: &ArchState,
        hier: &mut MemHier,
    ) -> CommitGate {
        if self.mode == DetectionMode::Off {
            return CommitGate::Accept;
        }

        // ---- Lazy join ----------------------------------------------------
        // The commit stream has wrapped around to a segment whose check is
        // still in flight: this is the point the eager path would already
        // know the finish time, so fold the outstanding timing traces (in
        // seal order) before any stall/seal decision below reads it. A
        // deterministic simulation point — worker speed never shifts it.
        if self.segs[self.cur].state == SegmentState::Checking {
            self.resolve_slot(self.cur, hier);
        }

        // ---- Log capture --------------------------------------------------
        let entry = match (ev.mem, ev.nondet) {
            (Some(m), _) => {
                let (kind, value) = if m.is_store {
                    (EntryKind::Store, m.value)
                } else if self.lfu_enabled {
                    // Forward the execute-time duplicate (§IV-C); fall back
                    // to the commit-path value if the slot was reallocated.
                    let v =
                        self.lfu.forward(ev.rob_slot, m.addr).map(|e| e.value).unwrap_or(m.value);
                    (EntryKind::Load, v)
                } else {
                    // Naive design: forward the register-resident value at
                    // commit (the window of vulnerability of §IV-C).
                    (EntryKind::Load, m.value)
                };
                // A store's pre-image is the undo value checkpoint
                // recovery rolls it back with; loads have nothing to undo.
                let undo = if m.is_store { m.old } else { 0 };
                Some((kind, m.addr, value, m.width, undo))
            }
            (None, Some(v)) => Some((EntryKind::Nondet, 0, v, MemWidth::D, 0)),
            (None, None) => None,
        };
        if let Some((kind, addr, value, width, undo)) = entry {
            // The wrap-around stall decision: record, per secondary domain,
            // whether a dedicated run at that clock would have decided
            // differently (its segment's check finishing at another time).
            if let SegmentState::Busy { until } = self.segs[self.cur].state {
                self.note_domain_stalls(self.cur, at, until);
            }
            let seg = &mut self.segs[self.cur];
            match seg.state {
                SegmentState::Busy { until } => {
                    if at < until {
                        // Every segment in use: stall the main core.
                        self.stats.log_full_retries += 1;
                        return CommitGate::Retry(until);
                    }
                    seg.reset();
                }
                SegmentState::Checking => {
                    unreachable!("checking segment resolved at the top of on_commit")
                }
                SegmentState::Free | SegmentState::Filling => {}
            }
            if seg.state == SegmentState::Free {
                seg.state = SegmentState::Filling;
                seg.base_instr = self.base_instr;
            }
            debug_assert!(seg.log.len() < seg.capacity, "macro-op boundary rule violated");
            seg.log.push(kind, addr, value, width, at, undo);
            self.stats.entries_logged += 1;
        }

        // ---- Seal decision at macro-op boundaries --------------------------
        if !ev.last {
            return CommitGate::Accept;
        }
        let instr_count = ev.instr_index + 1;
        let is_halt = matches!(ev.insn, Instruction::Halt);
        let covered = instr_count - self.base_instr;

        let seg = &self.segs[self.cur];
        let space_seal = seg.state == SegmentState::Filling && !seg.has_space_for_macro();
        let timeout_seal = self.timeout.is_some_and(|t| covered >= t);
        let interrupt_seal = at >= self.next_interrupt;
        let pending = seg.state == SegmentState::Filling && !seg.log.is_empty();
        // Timeout/interrupt seals of an entry-less segment whose storage is
        // still being checked are deferred to the next boundary; a halt must
        // wait for the storage instead.
        let seg_until = match seg.state {
            SegmentState::Busy { until } => until,
            _ => Time::ZERO,
        };
        let storage_busy_until = if at < seg_until { Some(seg_until) } else { None };

        if is_halt {
            if covered == 0 && !pending {
                return CommitGate::Accept;
            }
            self.note_domain_stalls(self.cur, at, seg_until);
            if let Some(until) = storage_busy_until {
                self.stats.log_full_retries += 1;
                return CommitGate::Retry(until);
            }
            self.seal(committed, instr_count, at, hier, SealKind::Final);
            return CommitGate::AcceptWithPause(self.pause_cycles);
        }
        if space_seal {
            self.seal(committed, instr_count, at, hier, SealKind::Space);
            return CommitGate::AcceptWithPause(self.pause_cycles);
        }
        if (timeout_seal || interrupt_seal) && covered > 0 {
            // A dedicated run at another checker clock could find this
            // segment's storage (not) busy where the primary doesn't — a
            // deferral difference the divergence counter must see.
            self.note_domain_stalls(self.cur, at, seg_until);
            if storage_busy_until.is_none() {
                let kind = if interrupt_seal { SealKind::Interrupt } else { SealKind::Timeout };
                self.seal(committed, instr_count, at, hier, kind);
                return CommitGate::AcceptWithPause(self.pause_cycles);
            }
        }
        CommitGate::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradet_isa::{ProgramBuilder, Reg};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::X1, 1);
        b.halt();
        b.build()
    }

    #[test]
    fn detector_builds_with_paper_config() {
        let cfg = SystemConfig::paper_default();
        let program = tiny_program();
        let det = Detector::new(&cfg, &program);
        assert_eq!(det.checkers.len(), 12);
        assert_eq!(det.segs.len(), 12);
        assert_eq!(det.segs[0].capacity, 170);
        assert_eq!(det.lfu.capacity(), 40);
        assert_eq!(det.in_flight_checks(), 0);
    }

    #[test]
    fn next_event_time_reports_busy_segments_only() {
        let cfg = SystemConfig::paper_default();
        let program = tiny_program();
        let mut det = Detector::new(&cfg, &program);
        assert_eq!(det.next_event_time(Time::ZERO), None, "idle detector has no deadline");
        det.segs[0].state = SegmentState::Busy { until: Time::from_ns(50) };
        det.segs[1].state = SegmentState::Busy { until: Time::from_ns(20) };
        det.segs[2].state = SegmentState::Checking; // unfolded: deadline unknown
        assert_eq!(det.next_event_time(Time::ZERO), Some(Time::from_ns(20)));
        // Strictly-after semantics: the 20 ns release is not an event at or
        // after itself; the next one is the 50 ns release, then nothing.
        assert_eq!(det.next_event_time(Time::from_ns(20)), Some(Time::from_ns(50)));
        assert_eq!(det.next_event_time(Time::from_ns(50)), None);
    }

    #[test]
    fn next_event_time_covers_mixed_clocks_and_class_path_fills() {
        use paradet_checker::FarmSpec;
        let cfg = SystemConfig::paper_default()
            .with_checkers(4)
            .with_farm(FarmSpec::striped(&[2000, 125]));
        let program = tiny_program();
        let mut det = Detector::new(&cfg, &program);
        let mut hier = MemHier::new(&cfg.mem_config(), cfg.n_checkers);
        assert_eq!(det.next_event_time(Time::ZERO), None, "idle mixed farm has no deadline");

        // A fold on a slow-class slot leaves in-flight fills in the
        // class's *private* path. Its misses land in the shared L2/DRAM
        // (the hierarchy sees those), but the path's own L0/L1I fills
        // complete later and are invisible to `MemHier::next_event_after`
        // — the detector must surface them itself.
        let period_fs = ClockDomain::at_mhz(125).checker.clock.period().as_fs();
        let _ = hier.checker_ifetch_cycle_on(&mut det.class_paths[1], 1, 0x40, 0, period_fs);
        let fill = det.class_paths[1]
            .next_fill_after(Time::ZERO)
            .expect("a cold fetch leaves a fill in flight");
        assert_eq!(det.next_event_time(Time::ZERO), Some(fill));

        // Busy windows fold at each slot's own clock, so releases diverge
        // across a mixed farm; they are absolute times and merge with the
        // path fills into one ordered event stream.
        let horizon = {
            let mut t = Time::ZERO;
            while let Some(e) = det.next_event_time(t) {
                t = e;
            }
            t
        };
        let (fast, slow) = (horizon + Time::from_ns(40), horizon + Time::from_ns(640));
        det.segs[0].state = SegmentState::Busy { until: fast };
        det.segs[1].state = SegmentState::Busy { until: slow };

        // The "no event before" dual, walked over the whole stream: each
        // query returns a strictly later instant, nothing fires inside
        // the open interval, and the stream covers fills and both
        // releases before going quiet.
        let mut events = Vec::new();
        let mut t = Time::ZERO;
        while let Some(e) = det.next_event_time(t) {
            assert!(e > t, "event horizon must advance");
            events.push(e);
            t = e;
        }
        assert_eq!(events.first(), Some(&fill));
        assert!(events.contains(&fast) && events.contains(&slow));
        assert_eq!(events.last(), Some(&slow));
        assert_eq!(det.next_event_time(slow), None);

        // And the fills really were invisible to the hierarchy: its own
        // event stream ends before the private path's last fill.
        let hier_horizon = {
            let mut t = Time::ZERO;
            while let Some(e) = hier.next_event_after(t) {
                t = e;
            }
            t
        };
        assert!(
            events.iter().any(|&e| e > hier_horizon && e < fast),
            "a private-path fill must extend past the hierarchy's horizon"
        );
    }

    #[test]
    fn confirm_errors_uses_prefix_maxima() {
        let cfg = SystemConfig::paper_default();
        let program = tiny_program();
        let mut det = Detector::new(&cfg, &program);
        det.finishes = vec![Time::from_ns(10), Time::from_ns(50), Time::from_ns(30)];
        det.errors.push(DetectedError {
            seal_seq: 2,
            error: paradet_checker::CheckError::Divergence,
            detect_time: Time::from_ns(30),
            confirm_time: Time::ZERO,
            base_instr: 0,
        });
        det.confirm_errors();
        // Confirmation waits for seals 0..=2: max(10, 50, 30) = 50.
        assert_eq!(det.errors[0].confirm_time, Time::from_ns(50));
    }
}
