//! Campaign runner: golden run, fault arming, outcome classification.
//!
//! Trials are embarrassingly parallel and run across worker threads
//! (`PARADET_THREADS`, see `paradet-par`). Each trial's RNG is seeded from
//! the campaign seed, the fault-site class, and the trial index — never
//! from a shared sequential stream — so the campaign result is
//! **bit-identical at any thread count**, and a trial's fault does not
//! depend on which other sites or trials the campaign happens to run.

use paradet_core::{
    run_recovery, PairedSystem, RecoveryDisposition, RecoveryPolicy, SimScratch, SystemConfig,
    TrialFaults,
};
use paradet_isa::{FReg, Program, Reg};
use paradet_mem::{ArrayFault, ArrayKind, Time};
use paradet_ooo::{ArmedFault, FaultKind, FaultTarget};
use paradet_workloads::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A fault-injection site class (each trial randomizes the strike point and
/// bit within the class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Architectural integer register bit (physical-register strike).
    IntReg,
    /// Architectural floating-point register bit.
    FpReg,
    /// Store datapath: value corrupted after leaving the register file.
    StoreValue,
    /// Store datapath: address corrupted.
    StoreAddr,
    /// Load destination register after LFU capture (§IV-C window).
    LoadValue,
    /// Load value before LFU capture (models the *naive* no-LFU design's
    /// vulnerability; with the LFU this class is covered by the ECC'd
    /// cache domain and out of scope).
    LoadCapture,
    /// Program-counter bit (control-flow fault).
    Pc,
    /// Hard stuck-at fault in one integer ALU.
    AluStuckAt,
    /// Multi-bit upset: two or three bits of one integer register flip in
    /// the same cycle (an MCU — increasingly common at small geometries;
    /// defeats per-word parity but not the checker's replay).
    IntRegMulti,
    /// Bit flip in a cache data array at the accessed line. Outside the
    /// detection sphere: the paper assumes ECC on the arrays (§IV-F), so
    /// the checker — which validates the *logged* values — is expected to
    /// miss it (SDC or masked, never detected).
    CacheArray,
    /// Bit flip in a DRAM array on the line *adjacent* to an accessed one
    /// (a disturbance/rowhammer-style upset). Also outside the detection
    /// sphere; expected SDC/masked.
    DramArray,
    /// Checker-side false positive (§IV-I over-detection): a bit of the
    /// detection hardware's own load-store log flips, so a check fails on
    /// a perfectly healthy main core.
    CheckerFalsePos,
    /// Checker-side missed detection: a lying checker suppresses every
    /// error report while a real store-datapath fault strikes the main
    /// core — the fault escapes as SDC by construction.
    CheckerMiss,
}

impl FaultSite {
    /// The legacy (main-core) sites, in reporting order. Kept distinct
    /// from [`extended`](FaultSite::extended) so the default campaign —
    /// and every golden table derived from it — is unchanged by the
    /// widened fault space.
    pub fn all() -> [FaultSite; 8] {
        [
            FaultSite::IntReg,
            FaultSite::FpReg,
            FaultSite::StoreValue,
            FaultSite::StoreAddr,
            FaultSite::LoadValue,
            FaultSite::LoadCapture,
            FaultSite::Pc,
            FaultSite::AluStuckAt,
        ]
    }

    /// Every site class, legacy and widened, in reporting order.
    pub fn extended() -> [FaultSite; 13] {
        [
            FaultSite::IntReg,
            FaultSite::FpReg,
            FaultSite::StoreValue,
            FaultSite::StoreAddr,
            FaultSite::LoadValue,
            FaultSite::LoadCapture,
            FaultSite::Pc,
            FaultSite::AluStuckAt,
            FaultSite::IntRegMulti,
            FaultSite::CacheArray,
            FaultSite::DramArray,
            FaultSite::CheckerFalsePos,
            FaultSite::CheckerMiss,
        ]
    }

    /// Whether faults at this site strike *inside* the paper's detection
    /// sphere (the main core + the logged dataflow). Array faults are
    /// outside it — the paper assumes ECC there — so campaigns must not
    /// count their escapes against checker coverage.
    pub fn in_detection_sphere(self) -> bool {
        !matches!(self, FaultSite::CacheArray | FaultSite::DramArray)
    }

    /// A stable identifier mixed into per-trial seeds. Tied to the site
    /// class itself (not its position in `CampaignConfig::sites`), so
    /// reordering or subsetting the site list never changes the faults any
    /// surviving (site, trial) pair draws.
    pub fn id(self) -> u64 {
        match self {
            FaultSite::IntReg => 0,
            FaultSite::FpReg => 1,
            FaultSite::StoreValue => 2,
            FaultSite::StoreAddr => 3,
            FaultSite::LoadValue => 4,
            FaultSite::LoadCapture => 5,
            FaultSite::Pc => 6,
            FaultSite::AluStuckAt => 7,
            FaultSite::IntRegMulti => 8,
            FaultSite::CacheArray => 9,
            FaultSite::DramArray => 10,
            FaultSite::CheckerFalsePos => 11,
            FaultSite::CheckerMiss => 12,
        }
    }

    /// A short display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::IntReg => "int-reg",
            FaultSite::FpReg => "fp-reg",
            FaultSite::StoreValue => "store-value",
            FaultSite::StoreAddr => "store-addr",
            FaultSite::LoadValue => "load-value",
            FaultSite::LoadCapture => "load-capture",
            FaultSite::Pc => "pc",
            FaultSite::AluStuckAt => "alu-stuck",
            FaultSite::IntRegMulti => "int-reg-multi",
            FaultSite::CacheArray => "cache-array",
            FaultSite::DramArray => "dram-array",
            FaultSite::CheckerFalsePos => "checker-false-pos",
            FaultSite::CheckerMiss => "checker-miss",
        }
    }

    /// Looks a site class up by its [`name`](FaultSite::name) — the inverse
    /// used when reading manifests and checkpoints back from disk.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::extended().into_iter().find(|s| s.name() == name)
    }

    fn sample(self, rng: &mut StdRng) -> FaultTarget {
        match self {
            FaultSite::IntReg => FaultTarget::IntRegBit {
                // Bias toward low registers — they are the live ones in the
                // kernels, as in real register-pressure profiles.
                reg: Reg::from_index(rng.gen_range(1..16)),
                bit: rng.gen_range(0..64),
            },
            FaultSite::FpReg => FaultTarget::FpRegBit {
                reg: FReg::from_index(rng.gen_range(0..16)),
                bit: rng.gen_range(0..64),
            },
            FaultSite::StoreValue => FaultTarget::StoreValueBit { bit: rng.gen_range(0..64) },
            FaultSite::StoreAddr => FaultTarget::StoreAddrBit { bit: rng.gen_range(0..20) },
            FaultSite::LoadValue => FaultTarget::LoadValueBit { bit: rng.gen_range(0..64) },
            FaultSite::LoadCapture => FaultTarget::LoadCaptureBit { bit: rng.gen_range(0..64) },
            FaultSite::Pc => FaultTarget::PcBit { bit: rng.gen_range(2..16) },
            FaultSite::AluStuckAt => FaultTarget::AluStuckAt {
                unit: rng.gen_range(0..3),
                bit: rng.gen_range(0..64),
                value: rng.gen(),
            },
            // Widened sites don't reduce to a single main-core target;
            // their draws live in `trial_plan`.
            FaultSite::IntRegMulti
            | FaultSite::CacheArray
            | FaultSite::DramArray
            | FaultSite::CheckerFalsePos
            | FaultSite::CheckerMiss => {
                unreachable!("extended site {self:?} draws via trial_plan")
            }
        }
    }
}

/// Classification of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A checker raised an error (detection-only campaign: no recovery
    /// was attempted).
    Detected,
    /// Execution crashed; §IV-H semantics report the fault after checks.
    Crashed,
    /// State diverged from golden with no detection — a miss.
    SilentDataCorruption,
    /// No architectural difference and no detection.
    Masked,
    /// Detected, rolled back, and re-executed to a final state
    /// bit-identical to golden after `retries` rollbacks.
    Recovered {
        /// Rollbacks performed before an attempt validated end-to-end.
        retries: u32,
    },
    /// Detected but not outrunnable by rollback (a persistent fault):
    /// the remainder completed on the degraded known-good path, final
    /// state still bit-identical to golden — forward progress held.
    Degraded,
    /// Detected, but neither re-execution nor the degraded path reached
    /// the golden state: recovery failed.
    Unrecoverable,
}

impl Outcome {
    /// The stable tag written into shard checkpoints. `Recovered` drops
    /// its retry count here; the checkpoint record carries it in a
    /// separate field and the merge re-attaches it.
    pub fn tag(self) -> &'static str {
        match self {
            Outcome::Detected => "detected",
            Outcome::Crashed => "crashed",
            Outcome::SilentDataCorruption => "sdc",
            Outcome::Masked => "masked",
            Outcome::Recovered { .. } => "recovered",
            Outcome::Degraded => "degraded",
            Outcome::Unrecoverable => "unrecoverable",
        }
    }

    /// Parses a checkpoint [`tag`](Outcome::tag) back. A `recovered` tag
    /// parses as `Recovered { retries: 0 }`; the caller patches the count
    /// from the record's own field.
    pub fn from_tag(tag: &str) -> Option<Outcome> {
        [
            Outcome::Detected,
            Outcome::Crashed,
            Outcome::SilentDataCorruption,
            Outcome::Masked,
            Outcome::Recovered { retries: 0 },
            Outcome::Degraded,
            Outcome::Unrecoverable,
        ]
        .into_iter()
        .find(|o| o.tag() == tag)
    }
}

/// One trial's record.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The site class.
    pub site: FaultSite,
    /// The concrete fault.
    pub fault: ArmedFault,
    /// The classification.
    pub outcome: Outcome,
    /// Detection latency (error confirm time − fault commit-side seal
    /// time), when detected.
    pub detect_latency: Option<Time>,
    /// Modeled recovery cost in femtoseconds (aborted attempts + rollback
    /// penalties), when a recovery driver rolled back at least once.
    pub recovery_fs: Option<u64>,
}

/// Per-site aggregate counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteResult {
    /// Trials run.
    pub trials: u64,
    /// Detected by a checker.
    pub detected: u64,
    /// Crashed (reported after checks, §IV-H).
    pub crashed: u64,
    /// Missed (silent data corruption).
    pub sdc: u64,
    /// Masked.
    pub masked: u64,
    /// Detected and recovered to a golden-identical state by rollback.
    pub recovered: u64,
    /// Detected and completed on the degraded path (persistent fault).
    pub degraded: u64,
    /// Detected but recovery failed to reach the golden state.
    pub unrecoverable: u64,
    /// Total rollbacks across recovered/degraded/unrecoverable trials.
    pub retries_sum: u64,
    /// Total modeled recovery cost (femtoseconds) across those trials.
    pub recovery_fs_sum: u64,
}

impl paradet_stats::Mergeable for SiteResult {
    /// Per-site counts are integer tallies, so partial aggregates from
    /// different shards fold together exactly — the property
    /// `campaign-merge` relies on for byte-identical coverage tables.
    fn merge_from(&mut self, other: &Self) {
        self.trials += other.trials;
        self.detected += other.detected;
        self.crashed += other.crashed;
        self.sdc += other.sdc;
        self.masked += other.masked;
        self.recovered += other.recovered;
        self.degraded += other.degraded;
        self.unrecoverable += other.unrecoverable;
        self.retries_sum += other.retries_sum;
        self.recovery_fs_sum += other.recovery_fs_sum;
    }
}

impl SiteResult {
    /// Every outcome that began with a checker detection (the recovery
    /// dispositions are detections that were then acted on).
    pub fn detected_family(&self) -> u64 {
        self.detected + self.crashed + self.recovered + self.degraded + self.unrecoverable
    }

    /// Coverage over *unmasked* faults: detected-family / (trials −
    /// masked). Masked faults are benign; the paper's detection guarantee
    /// concerns faults that change architectural state.
    pub fn coverage(&self) -> f64 {
        let unmasked = self.trials - self.masked;
        if unmasked == 0 {
            1.0
        } else {
            self.detected_family() as f64 / unmasked as f64
        }
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// System configuration (defaults to the paper's Table I).
    pub system: SystemConfig,
    /// Workload to run.
    pub workload: Workload,
    /// Dynamic instructions per trial (the fault strikes uniformly within
    /// the first 80%).
    pub instrs: u64,
    /// Trials per site class.
    pub trials_per_site: u64,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
    /// Site classes to exercise.
    pub sites: Vec<FaultSite>,
    /// Temporal behaviour of the main-core strikes (transient by
    /// default — the historic campaign semantics).
    pub fault_kind: FaultKind,
    /// When set, trials run under the detect → rollback → re-execute
    /// driver and classify into the recovery outcomes; when `None`,
    /// trials classify detection-only (the historic campaign).
    pub recovery: Option<RecoveryPolicy>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            system: SystemConfig::paper_default(),
            workload: Workload::Freqmine,
            instrs: 20_000,
            // Raised from 20 once trials ran in parallel: 50 per site keeps
            // a default campaign's 95% Wilson interval on a clean site
            // (50/50 detected) above 92% coverage, at ParaMedic-style
            // statistical confidence rather than smoke-test counts.
            trials_per_site: 50,
            seed: 42,
            sites: FaultSite::all().to_vec(),
            fault_kind: FaultKind::Transient,
            recovery: None,
        }
    }
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Every trial, in execution order.
    pub trials: Vec<TrialResult>,
    /// Aggregates per site, in `sites` order.
    pub per_site: Vec<(FaultSite, SiteResult)>,
}

impl CampaignResult {
    /// Overall coverage over unmasked faults, all sites pooled.
    pub fn overall_coverage(&self) -> f64 {
        let mut agg = SiteResult::default();
        for (_, s) in &self.per_site {
            paradet_stats::Mergeable::merge_from(&mut agg, s);
        }
        agg.coverage()
    }
}

/// Derives the RNG seed for stream `stream`, item `index` of a campaign
/// with base seed `seed` (SplitMix64-style finalizer).
///
/// Every trial draws from its own generator seeded this way, which is what
/// makes campaigns order-independent: the (seed, stream, index) triple — not
/// the position in any loop, nor the thread that happens to run it —
/// determines the fault.
fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of fault trial `trial` on `site`, for campaign seed `seed`.
///
/// Public so the test-suite can assert the stability guarantee directly.
pub fn trial_seed(seed: u64, site: FaultSite, trial: u64) -> u64 {
    derive_seed(seed, site.id(), trial)
}

/// The complete fault load drawn for trial `trial` on `site` in a campaign
/// with base seed `seed` and per-trial budget `instrs` — main-core strikes
/// plus any array or checker-side fault the widened site classes carry.
///
/// A pure function of its arguments: no shared RNG stream, so the fault is
/// independent of which other sites/trials the campaign runs, their order,
/// and the thread count. (`instrs` must be ≥ 2, which every campaign
/// satisfies by construction.) For the eight legacy sites the draw order
/// is the historic one (`at_instr`, then the target) — the same `(seed,
/// site, trial)` yields the same fault it always did.
///
/// `kind` sets only the temporal behaviour of the core strikes; the draws
/// themselves are kind-independent, so a checkpoint written by a transient
/// campaign and one written by a permanent campaign over the same grid
/// disagree only in outcomes, never in faults.
pub fn trial_plan(
    seed: u64,
    site: FaultSite,
    trial: u64,
    instrs: u64,
    kind: FaultKind,
) -> TrialFaults {
    let mut rng = StdRng::seed_from_u64(trial_seed(seed, site, trial));
    let at_instr = rng.gen_range(1..instrs * 8 / 10);
    let mut plan = TrialFaults { kind, ..TrialFaults::default() };
    match site {
        FaultSite::IntRegMulti => {
            // A multi-cell upset: 2–3 bits of one register, one event.
            let reg = Reg::from_index(rng.gen_range(1..16));
            let n = rng.gen_range(2..4);
            for _ in 0..n {
                let bit = rng.gen_range(0..64);
                plan.core.push(ArmedFault::new(at_instr, FaultTarget::IntRegBit { reg, bit }));
            }
        }
        FaultSite::CacheArray => {
            plan.array = Some(ArrayFault {
                array: ArrayKind::Cache,
                at_access: at_instr / 8,
                bit: rng.gen_range(0..8),
            });
        }
        FaultSite::DramArray => {
            plan.array = Some(ArrayFault {
                array: ArrayKind::Dram,
                at_access: at_instr / 8,
                bit: rng.gen_range(0..8),
            });
        }
        FaultSite::CheckerFalsePos => {
            plan.log_fault =
                Some((rng.gen_range(0..4), rng.gen_range(0..64), rng.gen_range(0..64)));
        }
        FaultSite::CheckerMiss => {
            plan.checker_miss = true;
            plan.core.push(ArmedFault::new(
                at_instr,
                FaultTarget::StoreValueBit { bit: rng.gen_range(0..64) },
            ));
        }
        legacy => {
            plan.core.push(ArmedFault::new(at_instr, legacy.sample(&mut rng)));
        }
    }
    plan
}

/// The representative [`ArmedFault`] of trial `trial` on `site` — the
/// first main-core strike of its [`trial_plan`], or a placeholder for
/// site classes with no core strike (array and false-positive faults).
///
/// For the eight legacy sites this is byte-for-byte the fault this
/// function has always returned.
pub fn trial_fault(seed: u64, site: FaultSite, trial: u64, instrs: u64) -> ArmedFault {
    let plan = trial_plan(seed, site, trial, instrs, FaultKind::Transient);
    plan.core.first().copied().unwrap_or_else(|| {
        let at = plan.array.map(|a| a.at_access).unwrap_or(0);
        ArmedFault::new(at, FaultTarget::PcBit { bit: 2 })
    })
}

/// Stream tag for over-detection trials (distinct from every `FaultSite::id`).
const OVERDETECTION_STREAM: u64 = 0xFACE;

/// The shared golden-run context every trial classifies against: the built
/// program plus the clean run's report and final architectural state.
///
/// One-shot campaigns build this once per campaign; each shard process of a
/// sharded campaign rebuilds it independently (the golden run is
/// deterministic, so every shard classifies against the identical
/// reference).
#[derive(Debug)]
pub(crate) struct Golden {
    pub(crate) program: Arc<Program>,
    report: paradet_core::RunReport,
    state: paradet_isa::ArchState,
    mem: paradet_isa::FlatMemory,
}

/// Builds the workload program and runs it clean.
pub(crate) fn prepare_golden(cfg: &CampaignConfig) -> Golden {
    let program = Arc::new(cfg.workload.build(cfg.workload.iters_for_instrs(cfg.instrs)));
    // Golden run (same detection config so timing-visible state like
    // instruction counts is comparable).
    let mut gold_sys = PairedSystem::new_shared(cfg.system, &program);
    let report = gold_sys.run(cfg.instrs);
    assert!(!report.detected(), "golden run must be clean");
    let state = gold_sys.core().committed_state().clone();
    let mem = gold_sys.hier().data.clone();
    Golden { program, report, state, mem }
}

/// Runs and classifies grid point `(site, trial)` — a pure function of the
/// campaign config and the point, which is what makes the grid shardable
/// and resumable: any process that evaluates the point gets the same
/// [`TrialResult`].
pub(crate) fn run_point(
    cfg: &CampaignConfig,
    golden: &Golden,
    site: FaultSite,
    trial: u64,
    scratch: &mut SimScratch,
) -> TrialResult {
    let fault = trial_fault(cfg.seed, site, trial, cfg.instrs);
    let plan = trial_plan(cfg.seed, site, trial, cfg.instrs, cfg.fault_kind);
    let (outcome, detect_latency, recovery_fs) = match &cfg.recovery {
        Some(policy) => run_trial_recover(cfg, golden, &plan, policy, scratch),
        None => {
            let (outcome, latency) = run_trial(cfg, golden, &plan, scratch);
            (outcome, latency, None)
        }
    };
    TrialResult { site, fault, outcome, detect_latency, recovery_fs }
}

/// Folds one trial into a site aggregate — the single tally shared by the
/// one-shot path, `campaign-merge`, and the partial merge, so every
/// producer counts identically.
fn fold_trial(agg: &mut SiteResult, trial: &TrialResult) {
    agg.trials += 1;
    match trial.outcome {
        Outcome::Detected => agg.detected += 1,
        Outcome::Crashed => agg.crashed += 1,
        Outcome::SilentDataCorruption => agg.sdc += 1,
        Outcome::Masked => agg.masked += 1,
        Outcome::Recovered { retries } => {
            agg.recovered += 1;
            agg.retries_sum += retries as u64;
        }
        Outcome::Degraded => agg.degraded += 1,
        Outcome::Unrecoverable => agg.unrecoverable += 1,
    }
    agg.recovery_fs_sum += trial.recovery_fs.unwrap_or(0);
}

/// Folds grid-ordered trials into per-site aggregates, in `sites` order.
/// Shared by the one-shot path and `campaign-merge`, so both produce the
/// same aggregation of the same trials.
pub(crate) fn aggregate(
    sites: &[FaultSite],
    trials: &[TrialResult],
) -> Vec<(FaultSite, SiteResult)> {
    let trials_per_site = trials.len() / sites.len().max(1);
    let mut per_site: Vec<(FaultSite, SiteResult)> = Vec::with_capacity(sites.len());
    for (i, &site) in sites.iter().enumerate() {
        let mut agg = SiteResult::default();
        let base = i * trials_per_site;
        for trial in &trials[base..base + trials_per_site] {
            fold_trial(&mut agg, trial);
        }
        per_site.push((site, agg));
    }
    per_site
}

/// [`aggregate`] over a *sparse* grid — empty slots (trials a degraded
/// shard never produced) simply don't count. Used by the partial merge;
/// on a fully-populated grid it tallies exactly like [`aggregate`].
pub(crate) fn aggregate_slots(
    sites: &[FaultSite],
    trials_per_site: u64,
    slots: &[Option<TrialResult>],
) -> Vec<(FaultSite, SiteResult)> {
    let mut per_site: Vec<(FaultSite, SiteResult)> = Vec::with_capacity(sites.len());
    for (i, &site) in sites.iter().enumerate() {
        let mut agg = SiteResult::default();
        let base = i * trials_per_site as usize;
        for slot in slots[base..base + trials_per_site as usize].iter().flatten() {
            fold_trial(&mut agg, slot);
        }
        per_site.push((site, agg));
    }
    per_site
}

/// Arms every fault of `plan` on a fresh system for one attempt. The
/// temporal kind expands here: an intermittent fault becomes `count`
/// strikes `period` retired instructions apart; transient and permanent
/// both arm once (a permanent *target* like a stuck-at ALU persists on
/// its own once triggered).
fn arm_plan(sys: &mut PairedSystem, plan: &TrialFaults) {
    for f in &plan.core {
        match plan.kind {
            FaultKind::Transient | FaultKind::Permanent => sys.arm_fault(*f),
            FaultKind::Intermittent { period, count } => {
                for k in 0..count as u64 {
                    sys.arm_fault(ArmedFault::new(f.at_instr + k * period.max(1), f.target));
                }
            }
        }
    }
    if let Some(a) = plan.array {
        sys.arm_array_fault(a);
    }
    if let Some((seal, entry, bit)) = plan.log_fault {
        sys.arm_log_fault(seal, entry, bit);
    }
    if plan.checker_miss {
        sys.arm_checker_miss();
    }
}

/// Runs one detection-only trial with the plan's faults armed.
fn run_trial(
    cfg: &CampaignConfig,
    golden: &Golden,
    plan: &TrialFaults,
    scratch: &mut SimScratch,
) -> (Outcome, Option<Time>) {
    let mut sys = PairedSystem::new_with_scratch(cfg.system, &golden.program, scratch);
    arm_plan(&mut sys, plan);
    // A detection fixes the outcome and its latency: stop there (see
    // `PairedSystem::run_until_detected`).
    let report = sys.run_until_detected(cfg.instrs);
    let outcome = classify(&sys, &report, golden);
    sys.recycle_into(scratch);
    outcome
}

/// Detection-only classification of a finished trial against the golden
/// run: detected (with the first error's confirmation time as latency),
/// else crashed, else SDC or masked by final state and instruction count.
fn classify(
    sys: &PairedSystem,
    report: &paradet_core::RunReport,
    golden: &Golden,
) -> (Outcome, Option<Time>) {
    if report.detected() {
        let latency = report.first_error().map(|e| e.confirm_time.saturating_sub(Time::from_fs(0)));
        (Outcome::Detected, latency)
    } else if report.crashed {
        (Outcome::Crashed, None)
    } else {
        // No detection: compare final state with golden.
        let regs_differ =
            sys.core().committed_state().first_register_mismatch(&golden.state).is_some();
        let mem_differs = sys.hier().data.first_difference(&golden.mem).is_some();
        let counts_differ = report.instrs != golden.report.instrs;
        if regs_differ || mem_differs || counts_differ {
            (Outcome::SilentDataCorruption, None)
        } else {
            (Outcome::Masked, None)
        }
    }
}

/// Runs one trial under the detect → rollback → re-execute driver and
/// classifies its [`RecoveryDisposition`] against the golden run.
fn run_trial_recover(
    cfg: &CampaignConfig,
    golden: &Golden,
    plan: &TrialFaults,
    policy: &RecoveryPolicy,
    scratch: &mut SimScratch,
) -> (Outcome, Option<Time>, Option<u64>) {
    let r = run_recovery(&cfg.system, &golden.program, scratch, cfg.instrs, plan, policy);
    let matches_golden =
        r.final_state == golden.state && r.final_mem.first_difference(&golden.mem).is_none();
    let detect_latency = r.detected.then(|| Time::from_fs(r.detect_fs));
    let recovery_fs = (r.retries > 0).then_some(r.recovery_fs);
    let outcome = match r.disposition {
        // No check ever failed: classic undetected classification.
        RecoveryDisposition::Clean if r.crashed => Outcome::Crashed,
        RecoveryDisposition::Clean if matches_golden => Outcome::Masked,
        RecoveryDisposition::Clean => Outcome::SilentDataCorruption,
        // Rolled back and converged: recovery succeeded only if the final
        // state really is the golden one (the crown property); anything
        // else is a silent divergence wearing a recovered label.
        RecoveryDisposition::Recovered if matches_golden => {
            Outcome::Recovered { retries: r.retries }
        }
        RecoveryDisposition::Recovered => Outcome::SilentDataCorruption,
        // Forward progress on the degraded path counts only if it landed
        // on the golden state.
        RecoveryDisposition::Degraded if matches_golden => Outcome::Degraded,
        RecoveryDisposition::Degraded => Outcome::Unrecoverable,
        RecoveryDisposition::Unrecoverable => Outcome::Unrecoverable,
    };
    (outcome, detect_latency, recovery_fs)
}

/// Runs a full campaign: one golden run, then `trials_per_site` faulted
/// runs per site class, in parallel across `PARADET_THREADS` workers with
/// bit-identical results at any thread count.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let golden = prepare_golden(cfg);

    // One work item per (site, trial), in reporting order. Trial cost is
    // wildly uneven (a crash ends a run early; an SDC runs to the budget
    // plus a full state diff), so claim granularity 1 for balance.
    let points = crate::shard::grid_points(&cfg.sites, cfg.trials_per_site);
    let trials: Vec<TrialResult> =
        paradet_par::par_map_init_chunked(1, &points, SimScratch::new, |scratch, _, &(site, t)| {
            run_point(cfg, &golden, site, t, scratch)
        });

    // Aggregate per site; `trials` is site-major in `cfg.sites` order.
    let per_site = aggregate(&cfg.sites, &trials);
    CampaignResult { trials, per_site }
}

/// Exercises §IV-I over-detection: corrupts a log entry inside the
/// detection hardware on otherwise-clean runs; returns
/// `(false_positives, trials)`. Every false positive is an error report
/// with a perfectly healthy main core. Trials run in parallel with the same
/// per-trial seeding scheme (and so the same thread-count independence) as
/// [`run_campaign`].
pub fn run_overdetection_trials(cfg: &CampaignConfig, trials: u64) -> (u64, u64) {
    let program = Arc::new(cfg.workload.build(cfg.workload.iters_for_instrs(cfg.instrs)));
    let idx: Vec<u64> = (0..trials).collect();
    let detected = paradet_par::par_map_init_chunked(1, &idx, SimScratch::new, |scratch, _, &t| {
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, OVERDETECTION_STREAM, t));
        let mut sys = PairedSystem::new_with_scratch(cfg.system, &program, scratch);
        sys.arm_log_fault(rng.gen_range(0..4), rng.gen_range(0..64), rng.gen_range(0..64));
        let report = sys.run_until_detected(cfg.instrs);
        let fp = report.detected();
        sys.recycle_into(scratch);
        fp
    });
    (detected.iter().filter(|&&fp| fp).count() as u64, trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign(sites: Vec<FaultSite>, trials: u64) -> CampaignResult {
        let cfg = CampaignConfig {
            instrs: 4_000,
            trials_per_site: trials,
            sites,
            ..CampaignConfig::default()
        };
        run_campaign(&cfg)
    }

    #[test]
    fn store_value_faults_are_always_caught() {
        let r = small_campaign(vec![FaultSite::StoreValue], 8);
        let (_, s) = r.per_site[0];
        assert_eq!(s.sdc, 0, "store-value faults must never be SDC");
        assert!(s.coverage() >= 1.0 - 1e-9);
    }

    #[test]
    fn store_addr_faults_are_always_caught() {
        let r = small_campaign(vec![FaultSite::StoreAddr], 8);
        let (_, s) = r.per_site[0];
        assert_eq!(s.sdc, 0);
    }

    #[test]
    fn load_value_faults_are_caught_with_lfu() {
        let r = small_campaign(vec![FaultSite::LoadValue], 8);
        let (_, s) = r.per_site[0];
        assert_eq!(s.sdc, 0, "the LFU must close the load window");
    }

    #[test]
    fn load_capture_faults_escape_without_lfu() {
        // The ablation: naive commit-time forwarding lets pre-capture
        // corruption through as SDC.
        let cfg = CampaignConfig {
            system: SystemConfig { lfu_enabled: false, ..SystemConfig::paper_default() },
            instrs: 4_000,
            trials_per_site: 8,
            sites: vec![FaultSite::LoadCapture],
            ..CampaignConfig::default()
        };
        let r = run_campaign(&cfg);
        let (_, s) = r.per_site[0];
        assert!(s.sdc > 0, "without the LFU some pre-capture load faults must escape: {s:?}");
    }

    #[test]
    fn int_reg_faults_have_high_coverage() {
        let r = small_campaign(vec![FaultSite::IntReg], 10);
        let (_, s) = r.per_site[0];
        assert_eq!(s.sdc, 0, "unmasked register faults must be detected: {s:?}");
    }

    #[test]
    fn overdetection_reports_false_positives() {
        let cfg = CampaignConfig { instrs: 4_000, ..CampaignConfig::default() };
        let (fp, n) = run_overdetection_trials(&cfg, 6);
        // Most corrupted entries surface as (false) errors; a flipped bit
        // can occasionally be architecturally dead by segment end (e.g. the
        // high bits of a value whose low bits alone feed later addresses),
        // in which case the replay still validates.
        assert!(fp * 2 >= n, "expected mostly false positives, got {fp}/{n}");
        assert!(fp >= 1);
    }

    /// The early-stopping trial must classify every fault exactly like the
    /// reference: the trial's plan run to the full budget with
    /// [`PairedSystem::run`], as trials ran before the early stop, then the
    /// same classification (determinism invariant 13). Pins
    /// `detect_latency`, which no coverage table shows, alongside the
    /// outcome.
    #[test]
    fn trials_match_full_legacy_runs() {
        let sites = FaultSite::extended();
        let kinds = [
            FaultKind::Transient,
            FaultKind::Intermittent { period: 300, count: 3 },
            FaultKind::Permanent,
        ];
        let base = CampaignConfig { instrs: 3_000, ..CampaignConfig::default() };
        let golden = prepare_golden(&base);
        let mut scratch = SimScratch::new();
        let mut rng = StdRng::seed_from_u64(0x7e57);
        let mut detected = 0;
        for case in 0..40 {
            let site = sites[rng.gen_range(0..sites.len())];
            let trial = rng.gen_range(0..1_000);
            let cfg = CampaignConfig {
                seed: rng.gen_range(0..1_000),
                fault_kind: kinds[rng.gen_range(0..kinds.len())],
                ..base.clone()
            };
            let got = run_point(&cfg, &golden, site, trial, &mut scratch);

            let plan = trial_plan(cfg.seed, site, trial, cfg.instrs, cfg.fault_kind);
            let mut sys = PairedSystem::new_shared(cfg.system, &golden.program);
            arm_plan(&mut sys, &plan);
            let report = sys.run(cfg.instrs);
            let want = classify(&sys, &report, &golden);
            let ctx = format!("case {case}: {site:?} trial {trial} seed {} {:?}", cfg.seed, plan);
            assert_eq!((got.outcome, got.detect_latency), want, "{ctx}");
            detected += (want.0 == Outcome::Detected) as u32;
        }
        assert!(detected >= 10, "too few detections to exercise the early stop: {detected}");
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = small_campaign(vec![FaultSite::StoreValue], 4);
        let b = small_campaign(vec![FaultSite::StoreValue], 4);
        for (x, y) in a.trials.iter().zip(b.trials.iter()) {
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.outcome, y.outcome);
        }
    }
}
