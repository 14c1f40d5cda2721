//! The paradet benchmark: three workloads that drive the workspace crates
//! through their public functions, time each call from outside, check the
//! outputs, and report end-to-end and per-layer metrics.
//!
//! * `table2-steady` — every Table II kernel, unchecked and with full
//!   detection, at a steady-state budget (Fig. 7).
//! * `clock-sweep` — domain-swept and per-policy runs on two seal-dense
//!   and two seal-sparse kernels (Fig. 9/11/13).
//! * `fault-campaign` — the default campaign, sharded through the store
//!   and merged (§IV).
//!
//! `README.md` beside this crate maps each layer to the metrics it should
//! move and on which workload.

pub mod campaign;
pub mod countfs;
pub mod hostref;
pub mod sim;
pub mod stats;
pub mod trace;

use hostref::HostRef;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["table2-steady", "clock-sweep", "fault-campaign"];

/// End-to-end metrics, with their units, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("minstr_per_s", "Minstr/s"),
    ("trials_per_s", "1/s"),
    ("checkpoint_gap_ms_p50", "ms"),
    ("checkpoint_gap_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_slowdown_geomean", "x"),
    ("sim_ipc_geomean", "instr/cycle"),
    ("sim_store_delay_ns_mean", "sim_ns"),
    ("coverage", "frac"),
];

/// Scheduling policies of the mixed farm, by metric-name suffix.
pub const POLICY_METRICS: [&str; 3] = [
    "checker.policy_ms.round-robin",
    "checker.policy_ms.fastest-first",
    "checker.policy_ms.deadline-aware",
];

/// Per-layer metrics, with their units, printed by every traced run. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("workloads.build_ms", "ms"),
    ("isa.oracle_minstr_per_s", "Minstr/s"),
    ("ooo.unchecked_minstr_per_s", "Minstr/s"),
    ("ooo.cycles_skipped_pct", "%"),
    ("ooo.mispredicts_per_kinstr", "count/kinstr"),
    ("mem.l1d_miss_ratio", "frac"),
    ("mem.l2_miss_ratio", "frac"),
    ("mem.dram_accesses_per_kinstr", "count/kinstr"),
    ("core.new_ms", "ms"),
    ("core.detection_overhead_pct", "%"),
    ("core.seals_per_kinstr", "count/kinstr"),
    ("core.entries_logged_per_kinstr", "count/kinstr"),
    ("core.log_full_retries", "count"),
    ("checker.domain_fold_overhead_pct", "%"),
    (POLICY_METRICS[0], "ms"),
    (POLICY_METRICS[1], "ms"),
    (POLICY_METRICS[2], "ms"),
    ("checker.busy_frac", "frac"),
    ("checker.stall_divergences", "count"),
    ("faults.trial_ms_mean", "ms"),
    ("faults.outcomes.detected", "count"),
    ("faults.outcomes.crashed", "count"),
    ("faults.outcomes.sdc", "count"),
    ("faults.outcomes.masked", "count"),
    ("faults.merge_ms", "ms"),
    ("faults.checkpoint_barrier_pct", "%"),
    ("store.write_ms", "ms"),
    ("store.rename_ms", "ms"),
    ("store.read_ms", "ms"),
    ("store.ops", "count"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_per_trial", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("bench.failed_frac", "frac"),
    ("bench.threads", "count"),
];

/// How much work one invocation does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Instructions per kernel on `table2-steady` (before the seed's jitter).
    pub table2_instrs: u64,
    /// Instructions per kernel on `clock-sweep` (before the seed's jitter).
    pub sweep_instrs: u64,
    /// Trials per fault site on `fault-campaign`.
    pub trials_per_site: u64,
    /// Set-up repetitions before the first pass (one more follows every
    /// pass); `setup_s` is the median of all of them.
    pub setup_reps: usize,
    /// Measured passes made even when `--seconds` has already elapsed.
    pub min_passes: usize,
}

impl Size {
    /// The benchmark proper. 64 trials per site over 8 sites gives 104
    /// checkpoints per campaign pass (two shards of 256 trials at a cadence
    /// of 5), so the p90 checkpoint gap has ≥10 samples beyond it from a
    /// single pass.
    pub const FULL: Size = Size {
        table2_instrs: 1_000_000,
        sweep_instrs: 500_000,
        trials_per_site: 64,
        setup_reps: 3,
        min_passes: 2,
    };

    /// A fast pass over the same code paths, for the benchmark's own tests.
    pub const SMALL: Size = Size {
        table2_instrs: 20_000,
        sweep_instrs: 20_000,
        trials_per_site: 3,
        setup_reps: 2,
        min_passes: 2,
    };
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed: kernel order and budget jitter, or the campaign seed.
    pub seed: u64,
    /// Measured seconds (whole passes are run until this has elapsed).
    pub seconds: f64,
    /// Traced run: alternate untraced and traced passes and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Worker threads for the simulator's farm and campaign maps.
    pub threads: usize,
    /// Work sizes.
    pub size: Size,
    /// Directory for span files and campaign stores.
    pub out_dir: PathBuf,
}

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Attempted and failed operations. An operation is a simulation, a
/// campaign trial or a store call; it fails on a panic, an error or a
/// failed output check.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Counts a failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

/// Everything one invocation shares between set-up, passes and reporting.
#[derive(Debug)]
pub struct Ctx {
    /// Settings.
    pub p: Params,
    /// Span recorder (recording only during traced passes and set-up of a
    /// traced run).
    pub tracer: Arc<Tracer>,
    /// Operation outcomes.
    pub ledger: Ledger,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The first pass's deterministic counter rows.
    counters: Option<Vec<(String, u64)>>,
    /// Host-speed reference, sampled between the measured calls.
    pub host: HostRef,
    /// Host seconds of every set-up repetition.
    setup_times: Vec<f64>,
}

impl Ctx {
    /// A context for `p`.
    pub fn new(p: Params) -> Ctx {
        Ctx {
            p,
            tracer: Arc::new(Tracer::new()),
            ledger: Ledger::default(),
            notes: Vec::new(),
            counters: None,
            host: HostRef::new(),
            setup_times: Vec::new(),
        }
    }

    /// Runs `f`, counting a panic as a failed operation.
    pub fn guard<R>(&mut self, what: &str, f: impl FnOnce(&mut Ctx) -> R) -> Option<R> {
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(r) => Some(r),
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.ledger.fail(format!("{what} panicked: {msg}"));
                None
            }
        }
    }

    /// Records one pass's deterministic counter rows; every later pass must
    /// repeat the first pass's rows exactly.
    pub fn counters(&mut self, mut rows: Vec<(String, u64)>) {
        rows.sort();
        match &self.counters {
            None => self.counters = Some(rows),
            Some(first) => {
                let diff = first
                    .iter()
                    .zip(&rows)
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("{} = {} then {} = {}", a.0, a.1, b.0, b.1));
                let same_len = first.len() == rows.len();
                self.ledger.check(same_len && diff.is_none(), || {
                    format!("counter rows changed between passes: {}", diff.unwrap_or_default())
                });
            }
        }
    }

    /// The first pass's counter rows.
    pub fn counter_rows(&self) -> &[(String, u64)] {
        self.counters.as_deref().unwrap_or(&[])
    }

    /// Runs `setup` once, after a host-reference sample, and adds its time
    /// to the set-up times.
    fn setup_rep<T>(&mut self, setup: &mut impl FnMut(&mut Ctx) -> T) -> T {
        self.tracer.set_recording(self.p.trace);
        self.host.sample();
        let t0 = Instant::now();
        let r = setup(self);
        self.setup_times.push(t0.elapsed().as_secs_f64());
        self.tracer.set_recording(false);
        r
    }

    /// The first `size.setup_reps` set-up repetitions, before any pass;
    /// returns the last one's result. [`Ctx::passes`] repeats the set-up
    /// after every pass, so the set-up times sample the host over the whole
    /// run, as the passes do.
    pub fn setup<T>(&mut self, setup: &mut impl FnMut(&mut Ctx) -> T) -> T {
        self.tracer.set_run(0);
        let mut last = self.setup_rep(setup);
        for _ in 1..self.p.size.setup_reps {
            last = self.setup_rep(setup);
        }
        last
    }

    /// The median set-up time in (unscaled) seconds, and the repetitions.
    pub fn setup_s(&self) -> (f64, usize) {
        (stats::median(&self.setup_times), self.setup_times.len())
    }

    /// Runs whole passes until `--seconds` have elapsed (and at least
    /// `size.min_passes`), each followed by one more `setup` repetition. A
    /// traced run alternates untraced and traced passes. `pass` gets the
    /// pass index. Returns each pass's result and whether it was traced.
    pub fn passes<S, T>(
        &mut self,
        setup: &mut impl FnMut(&mut Ctx) -> S,
        mut pass: impl FnMut(&mut Ctx, usize) -> T,
    ) -> Vec<(bool, T)> {
        let start = Instant::now();
        let budget = Duration::from_secs_f64(self.p.seconds.max(0.0));
        let min = self.p.size.min_passes * if self.p.trace { 2 } else { 1 };
        let mut out = Vec::new();
        while out.len() < min || start.elapsed() < budget {
            let traced = self.p.trace && out.len() % 2 == 1;
            self.tracer.set_run(out.len() as u64 + 1);
            self.tracer.set_recording(traced);
            let r = pass(self, out.len());
            self.tracer.set_recording(false);
            out.push((traced, r));
            self.setup_rep(setup);
        }
        out
    }
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every metric the workload measured, by name (end-to-end and
    /// per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, counter rows, failures.
    pub notes: Vec<String>,
}

impl Report {
    /// The metrics of `catalogue`, in its order; a metric the workload did
    /// not measure reads 0.
    pub fn select(&self, catalogue: &[(&str, &'static str)]) -> Vec<Metric> {
        catalogue
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                unit,
                value: self.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value),
            })
            .collect()
    }

    /// The value of metric `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Collects named values with the units the catalogues give them.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Sets metric `name` (which must be in a catalogue) to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is in no catalogue"));
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name: name.to_string(), unit, value });
    }

    /// Sets `name` to `num / den`, or to 0 when `den` is not positive
    /// (nothing of that kind was measured).
    pub fn ratio(&mut self, name: &str, num: f64, den: f64) {
        self.set(name, if den > 0.0 { num / den } else { 0.0 });
    }
}

/// SplitMix64: the benchmark's only source of seed-derived inputs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-determined permutation of `0..n` (Fisher–Yates).
pub fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records the `p50` and `p90` of the per-record gaps as the checkpoint-gap
/// metrics. `record_ms` holds one value per progress record of a pass, each
/// the median of that record over `passes` passes: a pass repeats the same
/// records, so the medians strip host noise and the percentiles describe
/// the whole population of records, not a sample of it. The note states
/// the counts and the highest percentile with ten records beyond it.
pub fn gap_metrics(m: &mut Metrics, notes: &mut Vec<String>, record_ms: &[f64], passes: usize) {
    m.set("checkpoint_gap_ms_p50", stats::quantile(record_ms, 0.5));
    m.set("checkpoint_gap_ms_p90", stats::quantile(record_ms, 0.9));
    let n = record_ms.len();
    notes.push(format!(
        "checkpoint gaps: {n} records per pass, each the median of {passes} passes; p90 has {} records \
         beyond it; highest percentile with ten beyond: {}",
        stats::beyond(n, 90),
        stats::tail_percentile(n).map_or("none".to_string(), |p| format!("p{p}"))
    ));
}

/// Runs workload `name` and returns its report, or an error for an unknown
/// workload.
pub fn run(name: &str, p: Params) -> Result<Report, String> {
    let threads = p.threads;
    let mut ctx = Ctx::new(p);
    let mut metrics = paradet_par::with_threads(threads, || match name {
        "table2-steady" => Ok(sim::table2(&mut ctx)),
        "clock-sweep" => Ok(sim::clock_sweep(&mut ctx)),
        "fault-campaign" => Ok(campaign::fault_campaign(&mut ctx)),
        _ => Err(format!("unknown workload `{name}` (expected one of {})", WORKLOADS.join(", "))),
    })?;
    if ctx.p.trace {
        for (name, n, total, own) in ctx.tracer.summary() {
            ctx.notes.push(format!("span {name}: n={n}, total {total:.3} ms, self {own:.3} ms"));
        }
        let path = ctx.p.out_dir.join(format!("spans-{name}-seed{}.jsonl", ctx.p.seed));
        ctx.ledger.attempt(1);
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => ctx.notes.push(format!("spans written to {}", path.display())),
            Err(e) => ctx.ledger.fail(format!("writing {}: {e}", path.display())),
        }
    }
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("bench.failed_frac", stats::failed_frac(ctx.ledger.attempted, ctx.ledger.failed));
    metrics.set("bench.threads", threads as f64);
    metrics.set("trace.spans", ctx.tracer.len() as f64);
    let rows: Vec<String> =
        ctx.counter_rows().iter().map(|(k, v)| format!("counter {k} = {v}")).collect();
    ctx.notes.extend(rows);
    for f in &ctx.ledger.failures {
        ctx.notes.push(format!("FAILED: {f}"));
    }
    Ok(Report {
        attempted: ctx.ledger.attempted,
        failed: ctx.ledger.failed,
        metrics: metrics.0,
        notes: ctx.notes,
    })
}
