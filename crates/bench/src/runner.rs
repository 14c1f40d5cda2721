//! Sweep runner with baseline caching and common CLI conventions.
//!
//! The runner is shared by reference across the worker threads of a
//! parallel sweep (see `paradet-par`): programs and unchecked baselines are
//! cached behind interior mutability, so concurrent sweep points reuse them
//! instead of recomputing, and no `&mut self` forces sequential use.

use paradet_core::{run_unchecked_shared, DomainSet, PairedSystem, RunReport, SystemConfig};
use paradet_isa::Program;
use paradet_workloads::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// Default dynamic-instruction budget per run. Override with the
/// `PARADET_INSTRS` environment variable.
pub const DEFAULT_INSTRS: u64 = 150_000;

/// Reads the per-run instruction budget from `PARADET_INSTRS`, or
/// `default` when it is unset. A value that is not a positive integer
/// ends the process with exit code 2 and a message naming the variable,
/// rather than silently running some other budget.
pub fn instr_budget(default: u64) -> u64 {
    let value = std::env::var("PARADET_INSTRS").ok();
    parse_instrs(value.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse_instrs(value: Option<&str>, default: u64) -> Result<u64, String> {
    match value {
        None => Ok(default),
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("PARADET_INSTRS={v}: expected a positive instruction count")),
        },
    }
}

/// Where experiment CSVs are written (`EXPERIMENTS-data/` at the workspace
/// root, override with `PARADET_OUT`).
pub fn out_dir() -> PathBuf {
    std::env::var("PARADET_OUT").map(PathBuf::from).unwrap_or_else(|_| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS-data")
    })
}

/// A sweep runner that caches built programs and the unchecked-baseline run
/// per workload. All methods take `&self`; the caches are safe to hit from
/// many sweep points at once, and a baseline is computed exactly once even
/// under concurrency (late arrivals block on the in-flight computation
/// rather than redoing it).
#[derive(Debug, Default)]
pub struct Runner {
    instrs: u64,
    programs: Mutex<HashMap<&'static str, Arc<Program>>>,
    baselines: Mutex<HashMap<&'static str, Arc<OnceLock<RunReport>>>>,
    /// One-run clock-sweep reports (Fig. 9/11), keyed by workload: one
    /// simulation carrying every sweep clock as a secondary domain, shared
    /// by every experiment that consumes the sweep.
    sweeps: Mutex<HashMap<&'static str, Arc<OnceLock<Arc<RunReport>>>>>,
}

impl Runner {
    /// Creates a runner with the environment-configured budget (see
    /// [`instr_budget`]).
    pub fn new() -> Runner {
        Runner::with_instrs(instr_budget(DEFAULT_INSTRS))
    }

    /// Creates a runner with an explicit budget.
    pub fn with_instrs(instrs: u64) -> Runner {
        Runner { instrs, ..Runner::default() }
    }

    /// The per-run instruction budget.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// The built program for `workload` at this runner's budget (cached,
    /// shared — no per-run deep clone).
    pub fn program(&self, workload: Workload) -> Arc<Program> {
        let mut programs = self.programs.lock().expect("program cache poisoned");
        Arc::clone(
            programs.entry(workload.name()).or_insert_with(|| {
                Arc::new(workload.build(workload.iters_for_instrs(self.instrs)))
            }),
        )
    }

    /// Runs `workload` under `cfg` with full detection.
    pub fn run(&self, cfg: &SystemConfig, workload: Workload) -> RunReport {
        let program = self.program(workload);
        let mut sys = PairedSystem::new_shared(*cfg, &program);
        sys.run(self.instrs)
    }

    /// Runs the unchecked baseline for `workload` (cached; computed at most
    /// once per workload even when parallel sweep points race for it).
    pub fn baseline(&self, cfg: &SystemConfig, workload: Workload) -> RunReport {
        let cell = {
            let mut baselines = self.baselines.lock().expect("baseline cache poisoned");
            Arc::clone(baselines.entry(workload.name()).or_default())
        };
        cell.get_or_init(|| {
            let program = self.program(workload);
            run_unchecked_shared(cfg, &program, self.instrs)
        })
        .clone()
    }

    /// Normalized slowdown of `cfg` over the unchecked baseline.
    pub fn slowdown(&self, cfg: &SystemConfig, workload: Workload) -> f64 {
        let base_cycles = self.baseline(cfg, workload).main_cycles.max(1);
        let full = self.run(cfg, workload);
        full.main_cycles as f64 / base_cycles as f64
    }

    /// The one-run checker-clock sweep for `workload` (cached; computed at
    /// most once even when Fig. 9 and Fig. 11 race for it): a single
    /// paper-default simulation with every clock in `clocks` folded as a
    /// secondary domain, so `report.domains[i]` holds the `clocks[i]`
    /// results of a dedicated run at that clock (exact whenever the row's
    /// `stall_divergences` is zero).
    pub fn clock_sweep(&self, workload: Workload, clocks: &[u64]) -> Arc<RunReport> {
        let cell = {
            let mut sweeps = self.sweeps.lock().expect("sweep cache poisoned");
            Arc::clone(sweeps.entry(workload.name()).or_default())
        };
        let rep = Arc::clone(cell.get_or_init(|| {
            let cfg = SystemConfig::paper_default().with_extra_domains(DomainSet::from_mhz(clocks));
            Arc::new(self.run(&cfg, workload))
        }));
        // The cache is keyed by workload alone; a later call with a
        // different clock list would otherwise silently get the first
        // call's sweep.
        assert!(
            rep.domains.len() == clocks.len()
                && rep.domains.iter().zip(clocks).all(|(d, &mhz)| d.domain.mhz() == mhz),
            "clock_sweep cache for {} holds clocks {:?}, not the requested {clocks:?}",
            workload.name(),
            rep.domains.iter().map(|d| d.domain.mhz()).collect::<Vec<_>>(),
        );
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::parse_instrs;

    #[test]
    fn instr_budget_parse_takes_positive_counts_and_refuses_the_rest() {
        assert_eq!(parse_instrs(None, 3_000), Ok(3_000));
        assert_eq!(parse_instrs(Some("5000"), 3_000), Ok(5_000));
        for bad in ["20k", "0", "", "-1"] {
            let err = parse_instrs(Some(bad), 3_000).unwrap_err();
            assert!(err.contains("PARADET_INSTRS"), "error must name the variable: {err}");
        }
    }
}
