//! The `fault-campaign` workload: the campaignd default campaign run as two
//! shards, one after the other, through the counting store, then merged.

use crate::countfs::{CountingFs, OpKind};
use crate::sim::{run_sim, setup_cases, Case, Sim, UNCHECKED};
use crate::{gap_metrics, hostref, sim, stats, Ctx, Metrics};
use paradet_faults::{
    merge_campaign_on, run_campaign, run_campaign_shard_on, CampaignConfig, CampaignResult, DynFs,
    FaultSite, Outcome, ShardRunOptions, ShardSpec,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shards the campaign is split into.
const SHARDS: u32 = 2;

/// Trials between checkpoints: campaignd's documented cadence.
const CHECKPOINT_EVERY: u64 = 5;

/// Host-reference samples taken before each shard call and the merge.
const HOST_SAMPLES: usize = 4;

/// Sites §IV claims full coverage for.
const FULL_COVERAGE_SITES: [FaultSite; 2] = [FaultSite::StoreValue, FaultSite::StoreAddr];

/// One campaign pass.
#[derive(Debug)]
struct Pass {
    /// Host seconds in the shard calls.
    shard_s: f64,
    /// Host seconds in the merge call.
    merge_s: f64,
    /// Intervals between checkpoint callbacks, in ms.
    gaps_ms: Vec<f64>,
    /// Trials run.
    trials: u64,
    /// The merged result, when the merge succeeded.
    merged: Option<CampaignResult>,
}

/// The campaign: campaignd's defaults (freqmine, 20k instructions per
/// trial, the eight paper sites, detection-only, transient faults) with the
/// benchmark's seed and trial count.
pub fn config(seed: u64, trials_per_site: u64) -> CampaignConfig {
    CampaignConfig { seed, trials_per_site, ..CampaignConfig::default() }
}

/// Runs the workload.
pub fn fault_campaign(ctx: &mut Ctx) -> Metrics {
    ctx.host.sensitivity = hostref::CAMPAIGN_SENSITIVITY;
    let cfg = config(ctx.p.seed, ctx.p.size.trials_per_site);
    let root = ctx.p.out_dir.join(format!("campaign-{}", std::process::id()));
    let kernels = [(cfg.workload, cfg.instrs)];
    // Set-up: the campaign program, its oracle, a fresh store directory,
    // and the trials' fault-free reference (the campaign's golden run),
    // unchecked and paired, checked against the oracle.
    let mut setup = |ctx: &mut Ctx| {
        let _ = std::fs::remove_dir_all(&root);
        if let Err(e) = std::fs::create_dir_all(&root) {
            ctx.ledger.fail(format!("creating {}: {e}", root.display()));
        }
        let cases = setup_cases(ctx, &kernels);
        let reference: Vec<Sim> = if cases.is_empty() {
            Vec::new()
        } else {
            [UNCHECKED, sim::paired()]
                .into_iter()
                .filter_map(|job| run_sim(ctx, &cases, 0, job))
                .collect()
        };
        (cases, reference)
    };
    let (cases, reference) = ctx.setup(&mut setup);
    ctx.notes.push(format!(
        "fault-campaign: {} on {}, {} sites x {} trials, {} instructions per trial, {SHARDS} shards, \
         checkpoint every {CHECKPOINT_EVERY}",
        cfg.seed,
        cfg.workload.name(),
        cfg.sites.len(),
        cfg.trials_per_site,
        cfg.instrs
    ));

    // One-shot reference result, outside timing; it also warms the host up.
    let trials = cfg.sites.len() as u64 * cfg.trials_per_site;
    ctx.ledger.attempt(trials);
    let tracer = Arc::clone(&ctx.tracer);
    tracer.set_recording(ctx.p.trace);
    let one_shot =
        ctx.guard("run_campaign", |_| tracer.time("faults.run_campaign", || run_campaign(&cfg)));
    tracer.set_recording(false);

    let counting = Arc::new(CountingFs::new(Arc::clone(&ctx.tracer)));
    let fs: DynFs = counting.clone();
    let passes = ctx.passes(&mut setup, |ctx, k| {
        let mut pass = run_pass(ctx, &fs, &counting, &cfg, &root.join(format!("pass-{k}")));
        check_pass(ctx, &pass, one_shot.as_ref().map(|(r, _)| r), k == 0);
        if k > 0 {
            pass.merged = None;
        }
        pass
    });
    let _ = std::fs::remove_dir_all(&root);
    report(ctx, &cfg, &cases, &reference, &passes, one_shot.map(|(_, d)| d.as_secs_f64()))
}

/// Shard 0, then shard 1, then the merge, into a fresh directory.
fn run_pass(
    ctx: &mut Ctx,
    fs: &DynFs,
    counting: &CountingFs,
    cfg: &CampaignConfig,
    dir: &Path,
) -> Pass {
    counting.reset();
    let trials = cfg.sites.len() as u64 * cfg.trials_per_site;
    ctx.ledger.attempt(trials);
    let tracer = Arc::clone(&ctx.tracer);
    let mut gaps_ms = Vec::new();
    let mut shard_s = 0.0;
    for i in 0..SHARDS {
        let opts = ShardRunOptions {
            shard: ShardSpec::new(i, SHARDS),
            checkpoint_every: CHECKPOINT_EVERY,
            resume: false,
        };
        let what = format!("shard {i}/{SHARDS}");
        (0..HOST_SAMPLES).for_each(|_| ctx.host.sample());
        let r = ctx.guard(&what, |_| {
            let mut last = Instant::now();
            tracer.time("faults.run_campaign_shard", || {
                run_campaign_shard_on(fs, dir, cfg, &opts, |_, _| {
                    let now = Instant::now();
                    gaps_ms.push((now - last).as_secs_f64() * 1e3);
                    last = now;
                })
            })
        });
        if let Some((r, d)) = r {
            shard_s += d.as_secs_f64();
            if let Err(e) = r {
                ctx.ledger.fail(format!("{what}: {e}"));
            }
        }
    }
    (0..HOST_SAMPLES).for_each(|_| ctx.host.sample());
    let merged = ctx.guard("merge_campaign", |_| {
        tracer.time("faults.merge_campaign", || merge_campaign_on(fs, dir, Some(cfg)))
    });
    let (merged, merge_s) = match merged {
        Some((Ok((_, result)), d)) => (Some(result), d.as_secs_f64()),
        Some((Err(e), d)) => {
            ctx.ledger.fail(format!("merge_campaign: {e}"));
            (None, d.as_secs_f64())
        }
        None => (None, 0.0),
    };
    // Store calls are operations too; each error is a failed one.
    let counts = counting.counts();
    ctx.ledger.attempt(counts.iter().map(|c| c.calls).sum());
    for (kind, c) in OpKind::ALL.iter().zip(&counts) {
        for _ in 0..c.errors {
            ctx.ledger.fail(format!("store {} call returned an error", kind.name()));
        }
    }
    let mut rows: Vec<(String, u64)> = Vec::new();
    for (kind, c) in OpKind::ALL.iter().zip(&counts) {
        rows.push((format!("store.{}.calls", kind.name()), c.calls));
        rows.push((format!("store.{}.bytes", kind.name()), c.bytes));
    }
    if let Some(m) = &merged {
        for (site, s) in &m.per_site {
            for (tag, n) in [
                ("detected", s.detected),
                ("crashed", s.crashed),
                ("sdc", s.sdc),
                ("masked", s.masked),
            ] {
                rows.push((format!("faults.{}.{tag}", site.name()), n));
            }
        }
    }
    rows.push(("faults.checkpoints".to_string(), gaps_ms.len() as u64));
    ctx.counters(rows);
    let _ = std::fs::remove_dir_all(dir);
    Pass { shard_s, merge_s, gaps_ms, trials, merged }
}

/// Output checks: the merge equals the one-shot result (first pass only),
/// and the store sites reach full coverage (every pass).
fn check_pass(ctx: &mut Ctx, pass: &Pass, one_shot: Option<&CampaignResult>, first: bool) {
    let Some(merged) = &pass.merged else {
        return;
    };
    if first {
        let same = one_shot.is_some_and(|o| format!("{o:?}") == format!("{merged:?}"));
        ctx.ledger.check(same, || {
            "merged campaign differs from the one-shot run_campaign result".to_string()
        });
    }
    for (site, s) in merged.per_site.iter().filter(|(site, _)| FULL_COVERAGE_SITES.contains(site)) {
        ctx.ledger.check(s.coverage() == 1.0, || {
            format!(
                "{} coverage {:.4} below 100% ({} sdc, {} crashed)",
                site.name(),
                s.coverage(),
                s.sdc,
                s.crashed
            )
        });
    }
}

/// The host time of a typical pass, per part.
struct Typical {
    /// Each checkpoint interval's median over the passes (checkpoint j
    /// holds the same trials in every pass), in ms.
    gaps_ms: Vec<f64>,
    /// Median of the shard calls' time outside the checkpoint intervals.
    shard_rest_s: f64,
    /// Median merge time.
    merge_s: f64,
}

impl Typical {
    fn shard_s(&self) -> f64 {
        self.gaps_ms.iter().sum::<f64>() / 1e3 + self.shard_rest_s
    }
}

/// Per-part medians over `passes`. Summing per-interval medians damps
/// host-speed bursts that hit single intervals.
fn typical_pass(passes: &[&Pass]) -> Typical {
    let median_of = |f: &dyn Fn(&Pass) -> Option<f64>| {
        stats::median(&passes.iter().filter_map(|p| f(p)).collect::<Vec<_>>())
    };
    let n_gaps = passes.iter().map(|p| p.gaps_ms.len()).max().unwrap_or(0);
    Typical {
        gaps_ms: (0..n_gaps).map(|j| median_of(&|p| p.gaps_ms.get(j).copied())).collect(),
        shard_rest_s: median_of(&|p| Some(p.shard_s - p.gaps_ms.iter().sum::<f64>() / 1e3)),
        merge_s: median_of(&|p| Some(p.merge_s)),
    }
}

fn report(
    ctx: &mut Ctx,
    cfg: &CampaignConfig,
    cases: &[Case],
    reference: &[Sim],
    passes: &[(bool, Pass)],
    one_shot_s: Option<f64>,
) -> Metrics {
    // End-to-end host times are scaled to the nominal host.
    let scale = ctx.host.scale();
    let mut m = Metrics::default();
    let (setup_s, setup_reps) = ctx.setup_s();
    m.set("setup_s", setup_s * scale);
    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let typical = typical_pass(&untraced);
    // Each trial (and each shard's golden run) simulates the per-trial
    // budget on the paired system; a crashed trial stops early, so this is
    // the nominal instruction count.
    let trials = cfg.sites.len() as u64 * cfg.trials_per_site;
    let nominal = (trials + SHARDS as u64) * cfg.instrs;
    m.ratio("minstr_per_s", nominal as f64 / 1e6, typical.shard_s() * scale);
    let pass_s = typical.shard_s() + typical.merge_s;
    m.ratio("trials_per_s", trials as f64, pass_s * scale);
    let tps: Vec<f64> =
        untraced.iter().map(|p| p.trials as f64 / (p.shard_s + p.merge_s)).collect();
    let gaps: Vec<f64> = typical.gaps_ms.iter().map(|g| g * scale).collect();
    gap_metrics(&mut m, &mut ctx.notes, &gaps, untraced.len());
    ctx.notes
        .push(format!("passes: {} untraced; unscaled trials/s per pass {tps:.3?}", untraced.len()));
    ctx.notes.push(ctx.host.note());
    ctx.notes.push(format!("set-up: median of {setup_reps} repetitions spread over the run"));
    ctx.notes.push(format!(
        "unscaled: minstr_per_s {:.4}, trials_per_s {:.4}, setup_s {setup_s:.4}",
        nominal as f64 / 1e6 / typical.shard_s(),
        trials as f64 / pass_s
    ));

    // Simulated results of the fault-free reference run.
    let un = reference.iter().find(|s| s.job.cfg.is_none());
    let pd = reference.iter().find(|s| s.job.cfg.is_some());
    if let (Some(un), Some(pd)) = (un, pd) {
        m.ratio("sim_slowdown_geomean", pd.report.main_cycles as f64, un.report.main_cycles as f64);
        m.set("sim_ipc_geomean", pd.report.ipc());
        m.set("sim_store_delay_ns_mean", pd.report.store_delays.mean_ns());
        sim::layer_counts(&mut m, &[&un.report], &[&pd.report]);
    }
    if let Some(merged) = passes.first().and_then(|(_, p)| p.merged.as_ref()) {
        m.set("coverage", merged.overall_coverage());
        let count =
            |f: fn(&Outcome) -> bool| merged.trials.iter().filter(|t| f(&t.outcome)).count() as f64;
        m.set("faults.outcomes.detected", count(|o| *o == Outcome::Detected));
        m.set("faults.outcomes.crashed", count(|o| *o == Outcome::Crashed));
        m.set("faults.outcomes.sdc", count(|o| *o == Outcome::SilentDataCorruption));
        m.set("faults.outcomes.masked", count(|o| *o == Outcome::Masked));
    }

    if ctx.p.trace {
        let t = &ctx.tracer;
        let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
        let traced_trials: u64 = traced.iter().map(|p| p.trials).sum();
        let (shard_ms, _) = t.total_ms("faults.run_campaign_shard");
        m.ratio("faults.trial_ms_mean", shard_ms, traced_trials as f64);
        let (merge_ms, n_merge) = t.total_ms("faults.merge_campaign");
        m.ratio("faults.merge_ms", merge_ms, n_merge as f64);
        if let Some(one) = one_shot_s {
            let sharded = stats::median(&traced.iter().map(|p| p.shard_s).collect::<Vec<_>>());
            m.ratio("faults.checkpoint_barrier_pct", 100.0 * (sharded - one), one);
        }
        for (kind, metric) in [
            (OpKind::Write, "store.write_ms"),
            (OpKind::Rename, "store.rename_ms"),
            (OpKind::Read, "store.read_ms"),
        ] {
            let (ms, n) = t.total_ms(&format!("store.{}", kind.name()));
            m.ratio(metric, ms, n as f64);
        }
        // Set-up ran (and recorded) the unchecked reference once per
        // repetition.
        let (_, n_un) = t.total_ms(UNCHECKED.span);
        let un_instrs = un.map_or(0, |s| s.report.instrs);
        sim::layer_timings(&mut m, t, cases, un_instrs * n_un as u64);
        sim::trace_overhead(&mut m, &mut ctx.notes, passes, |ps| {
            let t = typical_pass(ps);
            t.shard_s() + t.merge_s
        });
    }
    // Store volume is deterministic per pass; report the first pass's.
    let rows = ctx.counter_rows();
    let row = |k: &str| rows.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v) as f64;
    let ops: f64 = OpKind::ALL.iter().map(|k| row(&format!("store.{}.calls", k.name()))).sum();
    m.set("store.ops", ops);
    let written = row("store.write.bytes");
    m.set("store.bytes_written", written);
    m.ratio("store.bytes_per_trial", written, trials as f64);
    m
}
