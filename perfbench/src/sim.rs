//! The simulation workloads, `table2-steady` and `clock-sweep`: kernels
//! run unchecked and with full detection, every paired run checked against
//! the ISA oracle.

use crate::trace::Tracer;
use crate::{gap_metrics, mix, order, stats, Ctx, Metrics};
use paradet_bench::experiments::{CLOCK_SWEEP, MIXED_FARM_CLOCKS};
use paradet_core::{
    run_unchecked_shared, DomainSet, FarmSpec, PairedSystem, RunReport, SchedPolicyKind,
    SystemConfig,
};
use paradet_isa::{ArchState, FlatMemory, NoNondet, Program};
use paradet_workloads::Workload;
use std::sync::Arc;

/// One kernel at one budget, with the oracle's reference result.
#[derive(Debug)]
pub struct Case {
    /// The kernel.
    pub workload: Workload,
    /// Instructions to run.
    pub budget: u64,
    /// The built program.
    pub program: Arc<Program>,
    /// Oracle state after `budget` instructions (or at halt).
    pub state: ArchState,
    /// Oracle memory at the same point.
    pub mem: FlatMemory,
    /// Instructions the oracle retired.
    pub instrs: u64,
}

/// One simulation to run on every case of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Row label in counters and notes.
    pub label: &'static str,
    /// Span name of the run call.
    pub span: &'static str,
    /// Paired-system configuration; `None` runs the unchecked core.
    pub cfg: Option<SystemConfig>,
}

/// The unchecked baseline job.
pub const UNCHECKED: Job = Job { label: "unchecked", span: "ooo.run_unchecked_shared", cfg: None };

/// Full detection at the paper's Table I settings.
pub fn paired() -> Job {
    Job {
        label: "paired",
        span: "core.PairedSystem::run",
        cfg: Some(SystemConfig::paper_default()),
    }
}

/// One finished simulation.
#[derive(Debug)]
pub struct Sim {
    /// Index into the case list.
    pub case: usize,
    /// The job that ran.
    pub job: Job,
    /// The simulator's report.
    pub report: RunReport,
    /// Instructions the checkers replayed (paired runs).
    pub replayed: u64,
    /// Host seconds inside the run call.
    pub run_s: f64,
    /// Host seconds of the whole simulation (construction and run).
    pub call_s: f64,
}

/// Builds each kernel, runs the oracle, and constructs (and drops) a paired
/// system over it — the set-up every pass relies on.
pub fn setup_cases(ctx: &mut Ctx, kernels: &[(Workload, u64)]) -> Vec<Case> {
    let mut cases = Vec::new();
    for &(w, budget) in kernels {
        let (program, _) = ctx
            .tracer
            .time("workloads.Workload::build", || Arc::new(w.build(w.iters_for_instrs(budget))));
        let (oracle, _) = ctx.tracer.time("isa.ArchState::run_blocks", || {
            let mut state = ArchState::at_entry(&program);
            let mut mem = FlatMemory::new();
            mem.load_image(&program);
            state.run_blocks(&program, &mut mem, &mut NoNondet, budget).map(|n| (state, mem, n))
        });
        ctx.ledger.attempt(1);
        let (state, mem, instrs) = match oracle {
            Ok(r) => r,
            Err(e) => {
                ctx.ledger.fail(format!("oracle on {}: {e:?}", w.name()));
                continue;
            }
        };
        ctx.tracer.time("core.PairedSystem::new_shared", || {
            PairedSystem::new_shared(SystemConfig::paper_default(), &program)
        });
        cases.push(Case { workload: w, budget, program, state, mem, instrs });
    }
    cases
}

/// Runs `job` on `case` after a host-reference sample, checks its outputs,
/// and counts it as one operation. `None` if it panicked.
pub fn run_sim(ctx: &mut Ctx, cases: &[Case], case: usize, job: Job) -> Option<Sim> {
    ctx.ledger.attempt(1);
    ctx.host.sample();
    let c = &cases[case];
    let tracer = Arc::clone(&ctx.tracer);
    let what = format!("{} {}", c.workload.name(), job.label);
    ctx.guard(&what, |ctx| match job.cfg {
        None => {
            let (report, d) = tracer.time(job.span, || {
                run_unchecked_shared(&SystemConfig::paper_default(), &c.program, c.budget)
            });
            ctx.ledger.check(!report.crashed && report.instrs == c.instrs, || {
                format!(
                    "{what}: retired {} of {} instructions (crashed: {})",
                    report.instrs, c.instrs, report.crashed
                )
            });
            let s = d.as_secs_f64();
            Sim { case, job, report, replayed: 0, run_s: s, call_s: s }
        }
        Some(cfg) => {
            let (mut sys, dn) = tracer.time("core.PairedSystem::new_shared", || {
                PairedSystem::new_shared(cfg, &c.program)
            });
            let (report, dr) = tracer.time(job.span, || sys.run(c.budget));
            let replayed = sys.detector().checkers.iter().map(|k| k.stats.instrs).sum();
            // Output checks, outside the timed calls: a fault-free run
            // detects nothing and commits exactly the oracle's state.
            ctx.ledger.check(
                !report.detected()
                    && !report.crashed
                    && report.instrs == c.instrs
                    && *sys.core().committed_state() == c.state
                    && sys.hier().data.first_difference(&c.mem).is_none(),
                || {
                    format!(
                        "{what}: detected {} errors, crashed {}, retired {} of {}, state {}",
                        report.errors.len(),
                        report.crashed,
                        report.instrs,
                        c.instrs,
                        sys.core()
                            .committed_state()
                            .first_register_mismatch(&c.state)
                            .unwrap_or_default()
                    )
                },
            );
            Sim {
                case,
                job,
                report,
                replayed,
                run_s: dr.as_secs_f64(),
                call_s: (dn + dr).as_secs_f64(),
            }
        }
    })
}

/// Host timing of one finished simulation.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Index into the case list.
    pub case: usize,
    /// The job's label.
    pub label: &'static str,
    /// Whether the job ran the paired system.
    pub paired: bool,
    /// Instructions retired.
    pub instrs: u64,
    /// Host seconds inside the run call.
    pub run_s: f64,
    /// Host seconds of the whole simulation.
    pub call_s: f64,
}

/// One pass: every job on every case, cases in `order`.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every simulation's timing, in run order.
    pub timings: Vec<Timing>,
    /// Finished simulations with their full reports; kept for the first
    /// pass only, since simulated results repeat exactly (and holding every
    /// pass's delay samples would tie memory use to host speed).
    pub sims: Vec<Sim>,
}

impl Pass {
    /// Sims of the job labelled `label`.
    pub fn of(&self, label: &'static str) -> impl Iterator<Item = &Sim> + '_ {
        self.sims.iter().filter(move |s| s.job.label == label)
    }

    fn paired(&self) -> impl Iterator<Item = &Sim> {
        self.sims.iter().filter(|s| s.job.cfg.is_some())
    }
}

/// Runs one pass and records its counter rows; `keep` keeps the reports.
pub fn run_pass(ctx: &mut Ctx, cases: &[Case], jobs: &[Job], order: &[usize], keep: bool) -> Pass {
    let mut pass = Pass::default();
    let mut rows = Vec::new();
    for &case in order {
        for &job in jobs {
            if let Some(sim) = run_sim(ctx, cases, case, job) {
                rows.extend(counter_rows(cases, &sim));
                pass.timings.push(Timing {
                    case,
                    label: job.label,
                    paired: job.cfg.is_some(),
                    instrs: sim.report.instrs,
                    run_s: sim.run_s,
                    call_s: sim.call_s,
                });
                if keep {
                    pass.sims.push(sim);
                }
            }
        }
    }
    ctx.counters(rows);
    pass
}

/// For each (case, job) record, the median of `secs` over `passes`, paired
/// with that record's instructions and whether it ran the paired system.
/// Summing per-record medians damps host-speed bursts that hit single
/// simulations.
fn record_medians(passes: &[&Pass], secs: fn(&Timing) -> f64) -> Vec<(bool, u64, f64)> {
    let mut by_record: std::collections::BTreeMap<(usize, &str), (bool, u64, Vec<f64>)> =
        Default::default();
    for t in passes.iter().flat_map(|p| &p.timings) {
        by_record
            .entry((t.case, t.label))
            .or_insert((t.paired, t.instrs, Vec::new()))
            .2
            .push(secs(t));
    }
    by_record
        .into_values()
        .map(|(paired, instrs, xs)| (paired, instrs, stats::median(&xs)))
        .collect()
}

/// The deterministic counters of one simulation, keyed by kernel and job.
fn counter_rows(cases: &[Case], s: &Sim) -> Vec<(String, u64)> {
    let r = &s.report;
    let key = |field: &str| format!("{}.{}.{field}", cases[s.case].workload.name(), s.job.label);
    let mut rows = vec![
        (key("instrs"), r.instrs),
        (key("main_cycles"), r.main_cycles),
        (key("mispredicts"), r.core.mispredicts),
        (key("cycles_skipped"), r.core.cycles_skipped),
        (key("l1d_misses"), r.mem.l1d.misses),
        (key("l2_misses"), r.mem.l2.misses),
        (key("dram_requests"), r.mem.dram.requests),
    ];
    if s.job.cfg.is_some() {
        rows.extend([
            (key("seals"), r.detector.seals),
            (key("entries_logged"), r.detector.entries_logged),
            (key("log_full_retries"), r.detector.log_full_retries),
            (key("checker_segments"), r.checker_segments),
            (key("checker_busy_fs"), r.checker_busy_fs),
            (key("replayed_instrs"), s.replayed),
            (key("store_checks"), r.store_delays.count()),
            (key("wall_time_fs"), r.wall_time.as_fs()),
        ]);
    }
    for d in &r.domains {
        let mhz = d.domain.mhz();
        rows.push((key(&format!("domain{mhz}.stall_divergences")), d.stall_divergences));
        rows.push((key(&format!("domain{mhz}.all_checks_done_fs")), d.all_checks_done_at.as_fs()));
    }
    rows
}

/// The seed's budget: `base` plus up to 2% jitter, so each seed cuts the
/// kernels at a different point.
pub fn jittered(seed: u64, base: u64) -> u64 {
    base + mix(seed, 0xB0D9E7) % (base / 50).max(1)
}

/// Metrics shared by both simulation workloads: host throughput and gaps
/// from untraced passes, simulated results from the first pass, per-layer
/// results from traced passes.
fn report(ctx: &mut Ctx, cases: &[Case], passes: &[(bool, Pass)]) -> Metrics {
    // End-to-end host times are scaled to the nominal host.
    let scale = ctx.host.scale();
    let mut m = Metrics::default();
    let (setup_s, setup_reps) = ctx.setup_s();
    m.set("setup_s", setup_s * scale);
    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let runs = record_medians(&untraced, |t| t.run_s);
    let (instrs, run_s) =
        runs.iter().filter(|r| r.0).fold((0u64, 0.0), |(i, s), r| (i + r.1, s + r.2));
    m.ratio("minstr_per_s", instrs as f64 / 1e6, run_s * scale);
    let calls = record_medians(&untraced, |t| t.call_s);
    let paired_records = calls.iter().filter(|r| r.0).count();
    let calls_s: f64 = calls.iter().map(|r| r.2).sum();
    m.ratio("trials_per_s", paired_records as f64, calls_s * scale);
    let gaps: Vec<f64> = calls.iter().map(|r| r.2 * 1e3 * scale).collect();
    gap_metrics(&mut m, &mut ctx.notes, &gaps, untraced.len());
    ctx.notes.push(ctx.host.note());
    ctx.notes.push(format!("set-up: median of {setup_reps} repetitions spread over the run"));
    ctx.notes.push(format!(
        "unscaled: minstr_per_s {:.4}, trials_per_s {:.4}, setup_s {setup_s:.4}",
        instrs as f64 / 1e6 / run_s,
        paired_records as f64 / calls_s
    ));
    let per_pass: Vec<f64> = untraced
        .iter()
        .map(|p| {
            let (i, s) = p
                .timings
                .iter()
                .filter(|t| t.paired)
                .fold((0u64, 0.0), |(i, s), t| (i + t.instrs, s + t.run_s));
            i as f64 / s / 1e6
        })
        .collect();
    ctx.notes
        .push(format!("passes: {} untraced; Minstr/s per pass {per_pass:.3?}", untraced.len()));

    // Simulated results repeat exactly, so the first pass stands for all.
    let first = &passes[0].1;
    let base_cycles = |case: usize| {
        first.of(UNCHECKED.label).find(|s| s.case == case).map(|s| s.report.main_cycles)
    };
    let slowdowns: Vec<f64> = first
        .paired()
        .filter_map(|s| base_cycles(s.case).map(|b| s.report.main_cycles as f64 / b as f64))
        .collect();
    m.set("sim_slowdown_geomean", stats::geomean(&slowdowns));
    let ipcs: Vec<f64> = first.paired().map(|s| s.report.ipc()).collect();
    m.set("sim_ipc_geomean", stats::geomean(&ipcs));
    let store_stats = first.paired().flat_map(|s| {
        std::iter::once(&s.report.store_delays)
            .chain(s.report.domains.iter().map(|d| &d.store_delays))
    });
    let (sum, n) = store_stats
        .fold((0.0, 0u64), |(sum, n), d| (sum + d.mean_ns() * d.count() as f64, n + d.count()));
    m.ratio("sim_store_delay_ns_mean", sum, n as f64);
    let (replayed, committed) =
        first.paired().fold((0u64, 0u64), |(r, c), s| (r + s.replayed, c + s.report.instrs));
    m.ratio("coverage", replayed as f64, committed as f64);

    // Per-layer: deterministic ratios from the first pass's plain runs.
    let reports = |label: &'static str| first.of(label).map(|s| &s.report).collect::<Vec<_>>();
    layer_counts(&mut m, &reports(UNCHECKED.label), &reports(paired().label));
    let divergences: u64 =
        first.sims.iter().flat_map(|s| &s.report.domains).map(|d| d.stall_divergences).sum();
    m.set("checker.stall_divergences", divergences as f64);

    // Per-layer host timings come from the traced passes' spans.
    if ctx.p.trace {
        let t = &ctx.tracer;
        let traced_un_instrs: u64 = passes
            .iter()
            .filter(|(traced, _)| *traced)
            .flat_map(|(_, p)| &p.timings)
            .filter(|t| t.label == UNCHECKED.label)
            .map(|t| t.instrs)
            .sum();
        layer_timings(&mut m, t, cases, traced_un_instrs);
        let (pd_ms, _) = t.total_ms(paired().span);
        let (dom_ms, _) = t.total_ms(DOMAINS_SPAN);
        if dom_ms > 0.0 {
            m.ratio("checker.domain_fold_overhead_pct", 100.0 * (dom_ms - pd_ms), pd_ms);
        }
        for (metric, span) in crate::POLICY_METRICS.iter().zip(POLICY_SPANS) {
            let (ms, n) = t.total_ms(span);
            m.ratio(metric, ms, n as f64);
        }
        trace_overhead(&mut m, &mut ctx.notes, passes, |ps| {
            record_medians(ps, |t| t.call_s).iter().map(|r| r.2).sum()
        });
    }
    m
}

/// Per-layer ratios from simulated counts: the OoO core and memory
/// hierarchy from unchecked runs, the detector and checkers from paired
/// runs at Table I settings.
pub fn layer_counts(m: &mut Metrics, unchecked: &[&RunReport], paired: &[&RunReport]) {
    let sum =
        |rs: &[&RunReport], f: fn(&RunReport) -> u64| rs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let un_instrs = sum(unchecked, |r| r.instrs);
    let cycles_skipped = sum(unchecked, |r| r.core.cycles_skipped);
    m.ratio("ooo.cycles_skipped_pct", 100.0 * cycles_skipped, sum(unchecked, |r| r.main_cycles));
    m.ratio("ooo.mispredicts_per_kinstr", 1e3 * sum(unchecked, |r| r.core.mispredicts), un_instrs);
    let l1d = (sum(unchecked, |r| r.mem.l1d.misses), sum(unchecked, |r| r.mem.l1d.accesses));
    m.ratio("mem.l1d_miss_ratio", l1d.0, l1d.1);
    let l2 = (sum(unchecked, |r| r.mem.l2.misses), sum(unchecked, |r| r.mem.l2.accesses));
    m.ratio("mem.l2_miss_ratio", l2.0, l2.1);
    m.ratio(
        "mem.dram_accesses_per_kinstr",
        1e3 * sum(unchecked, |r| r.mem.dram.requests),
        un_instrs,
    );
    let pd_instrs = sum(paired, |r| r.instrs);
    m.ratio("core.seals_per_kinstr", 1e3 * sum(paired, |r| r.detector.seals), pd_instrs);
    let entries = sum(paired, |r| r.detector.entries_logged);
    m.ratio("core.entries_logged_per_kinstr", 1e3 * entries, pd_instrs);
    m.set("core.log_full_retries", sum(paired, |r| r.detector.log_full_retries));
    let n_checkers = SystemConfig::paper_default().n_checkers as f64;
    let farm_fs = n_checkers * sum(paired, |r| r.wall_time.as_fs());
    m.ratio("checker.busy_frac", sum(paired, |r| r.checker_busy_fs), farm_fs);
}

/// Per-layer host timings from the recorded spans of set-up and traced
/// passes. `unchecked_instrs` is what the recorded unchecked runs retired.
pub fn layer_timings(m: &mut Metrics, t: &Tracer, cases: &[Case], unchecked_instrs: u64) {
    let (un_ms, _) = t.total_ms(UNCHECKED.span);
    let (pd_ms, _) = t.total_ms(paired().span);
    m.ratio("core.detection_overhead_pct", 100.0 * (pd_ms - un_ms), un_ms);
    m.ratio("ooo.unchecked_minstr_per_s", unchecked_instrs as f64 / 1e3, un_ms);
    let (new_ms, n_new) = t.total_ms("core.PairedSystem::new_shared");
    m.ratio("core.new_ms", new_ms, n_new as f64);
    let (build_ms, n_build) = t.total_ms("workloads.Workload::build");
    m.ratio("workloads.build_ms", build_ms, n_build as f64);
    // Set-up runs the oracle once per case per repetition.
    let (oracle_ms, n_oracle) = t.total_ms("isa.ArchState::run_blocks");
    let per_case = cases.iter().map(|c| c.instrs).sum::<u64>() as f64 / cases.len().max(1) as f64;
    m.ratio("isa.oracle_minstr_per_s", per_case * n_oracle as f64 / 1e3, oracle_ms);
}

/// `trace.overhead_pct`: a typical traced pass over a typical untraced one,
/// each from `typical`, which reduces a set of passes to host seconds.
pub fn trace_overhead<P>(
    m: &mut Metrics,
    notes: &mut Vec<String>,
    passes: &[(bool, P)],
    typical: impl Fn(&[&P]) -> f64,
) {
    let pick = |traced: bool| {
        passes.iter().filter(|(t, _)| *t == traced).map(|(_, p)| p).collect::<Vec<_>>()
    };
    let (on, off) = (pick(true), pick(false));
    let (on_s, off_s) = (typical(&on), typical(&off));
    m.ratio("trace.overhead_pct", 100.0 * (on_s - off_s), off_s);
    notes.push(format!(
        "trace overhead: typical pass {on_s:.4} s over {} traced passes vs {off_s:.4} s over {} \
         untraced",
        on.len(),
        off.len()
    ));
}

/// Untimed warm-up: one paired run absorbs host start-up cost (page faults,
/// the farm's worker threads) before the first measured pass.
fn warm_up(ctx: &mut Ctx, cases: &[Case], order: &[usize]) {
    if let Some(&case) = order.first() {
        run_sim(ctx, cases, case, paired());
    }
}

/// The Table II kernels at Table I settings (Fig. 7): every kernel once
/// unchecked and once with full detection.
pub fn table2(ctx: &mut Ctx) -> Metrics {
    let budget = jittered(ctx.p.seed, ctx.p.size.table2_instrs);
    let kernels: Vec<(Workload, u64)> = Workload::all().into_iter().map(|w| (w, budget)).collect();
    let mut setup = |ctx: &mut Ctx| setup_cases(ctx, &kernels);
    let cases = ctx.setup(&mut setup);
    let jobs = [UNCHECKED, paired()];
    let order = order(ctx.p.seed, cases.len());
    ctx.notes.push(format!("table2-steady: {} kernels at {budget} instructions", cases.len()));
    warm_up(ctx, &cases, &order);
    let passes = ctx.passes(&mut setup, |ctx, k| run_pass(ctx, &cases, &jobs, &order, k == 0));
    report(ctx, &cases, &passes)
}

const DOMAINS_SPAN: &str = "checker.domains.PairedSystem::run";
const POLICY_SPANS: [&str; 3] = [
    "checker.policy.round-robin.PairedSystem::run",
    "checker.policy.fastest-first.PairedSystem::run",
    "checker.policy.deadline-aware.PairedSystem::run",
];

/// The Fig. 9/11/13 design-space runs on two seal-dense and two seal-sparse
/// kernels: unchecked, plain paired, one run carrying the five secondary
/// clock domains, and one run per scheduling policy on the striped mixed
/// farm.
pub fn clock_sweep(ctx: &mut Ctx) -> Metrics {
    let budget = jittered(ctx.p.seed, ctx.p.size.sweep_instrs);
    let kernels: Vec<(Workload, u64)> =
        [Workload::Facesim, Workload::Fluidanimate, Workload::Swaptions, Workload::Bitcount]
            .into_iter()
            .map(|w| (w, budget))
            .collect();
    let mut setup = |ctx: &mut Ctx| setup_cases(ctx, &kernels);
    let cases = ctx.setup(&mut setup);
    let base = SystemConfig::paper_default();
    let mut jobs = vec![
        UNCHECKED,
        paired(),
        Job {
            label: "domains",
            span: DOMAINS_SPAN,
            cfg: Some(base.with_extra_domains(DomainSet::from_mhz(&CLOCK_SWEEP))),
        },
    ];
    let farm = FarmSpec::striped(&MIXED_FARM_CLOCKS);
    for (i, (policy, span)) in SchedPolicyKind::ALL.into_iter().zip(POLICY_SPANS).enumerate() {
        let name = policy.name();
        assert!(
            span.contains(name) && crate::POLICY_METRICS[i].ends_with(name),
            "policy spans and metrics out of step with SchedPolicyKind::ALL"
        );
        jobs.push(Job {
            label: policy.name(),
            span,
            cfg: Some(base.with_farm(farm).with_sched_policy(policy)),
        });
    }
    let order = order(ctx.p.seed, cases.len());
    ctx.notes.push(format!(
        "clock-sweep: {} kernels at {budget} instructions, {} jobs each",
        cases.len(),
        jobs.len()
    ));
    warm_up(ctx, &cases, &order);
    let passes = ctx.passes(&mut setup, |ctx, k| run_pass(ctx, &cases, &jobs, &order, k == 0));
    check_domains_against_dedicated(ctx, &cases, &passes[0].1);
    report(ctx, &cases, &passes)
}

/// Every undiverged domain row must equal a dedicated single-clock run at
/// that clock. Checked once per invocation, outside timing.
fn check_domains_against_dedicated(ctx: &mut Ctx, cases: &[Case], first: &Pass) {
    let (mut checked, mut diverged) = (0, 0);
    for s in first.of("domains") {
        diverged += s.report.domains.iter().filter(|d| d.stall_divergences != 0).count();
        let c = &cases[s.case];
        for d in s.report.domains.iter().filter(|d| d.stall_divergences == 0) {
            let mhz = d.domain.mhz();
            let one_run = format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}",
                d.delays, d.store_delays, d.finishes, d.errors, d.checkers
            );
            ctx.ledger.attempt(1);
            checked += 1;
            let what = format!("{} dedicated run at {mhz} MHz", c.workload.name());
            let dedicated = ctx.guard(&what, |_| {
                let mut sys = PairedSystem::new_shared(
                    SystemConfig::paper_default().with_checker_mhz(mhz),
                    &c.program,
                );
                let r = sys.run(c.budget);
                let checkers: Vec<_> = sys.detector().checkers.iter().map(|k| k.stats).collect();
                format!(
                    "{:?}|{:?}|{:?}|{:?}|{:?}",
                    r.delays,
                    r.store_delays,
                    sys.detector().finish_times(),
                    r.errors,
                    checkers
                )
            });
            if let Some(dedicated) = dedicated {
                ctx.ledger.check(dedicated == one_run, || {
                    format!("{what} differs from its undiverged domain row")
                });
            }
        }
    }
    ctx.notes.push(format!(
        "domain rows: {checked} undiverged rows checked against dedicated runs, {diverged} diverged"
    ));
}
