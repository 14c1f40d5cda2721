//! A small-budget pass over each workload: every metric is present with its
//! unit, every output check passes, and the counting store counts.

use paradet_faults::StoreFs;
use paradet_perfbench::countfs::{CountingFs, OpCount};
use paradet_perfbench::trace::Tracer;
use paradet_perfbench::{run, Params, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::sync::Arc;

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small(trace: bool, threads: usize, name: &str) -> Params {
    Params { seed: 7, seconds: 0.0, trace, threads, size: Size::SMALL, out_dir: out_dir(name) }
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let report = run(w, small(trace, 2, &format!("{w}-{trace}"))).unwrap();
            assert_eq!(report.failed, 0, "{w}: {:?}", report.notes);
            assert!(report.attempted > 0, "{w}");
            let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let metrics = report.select(catalogue);
            assert_eq!(metrics.len(), catalogue.len());
            for (m, (name, unit)) in metrics.iter().zip(catalogue) {
                assert_eq!((m.name.as_str(), m.unit), (*name, *unit));
                assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
            }
            if !trace {
                for m in &metrics {
                    assert!(m.value > 0.0, "{w}: end-to-end {} reads {}", m.name, m.value);
                }
            }
        }
    }
}

#[test]
fn layers_report_on_the_workloads_that_exercise_them() {
    let get =
        |w: &str, name: &str| run(w, small(true, 2, &format!("layers-{w}"))).unwrap().get(name);
    assert!(get("table2-steady", "core.seals_per_kinstr").unwrap() > 0.0);
    assert!(get("clock-sweep", "checker.policy_ms.deadline-aware").unwrap() > 0.0);
    let campaign = run("fault-campaign", small(true, 2, "layers-campaign")).unwrap();
    for name in [
        "faults.trial_ms_mean",
        "faults.merge_ms",
        "store.ops",
        "store.bytes_per_trial",
        "store.write_ms",
    ] {
        assert!(campaign.get(name).unwrap() > 0.0, "{name}");
    }
    let detected = campaign.get("faults.outcomes.detected").unwrap();
    let rest: f64 = ["crashed", "sdc", "masked"]
        .iter()
        .map(|o| campaign.get(&format!("faults.outcomes.{o}")).unwrap())
        .sum();
    assert_eq!(detected + rest, 8.0 * Size::SMALL.trials_per_site as f64);
}

#[test]
fn simulated_results_and_counters_do_not_depend_on_thread_count() {
    for w in WORKLOADS {
        let sim = |threads: usize| {
            let r = run(w, small(false, threads, &format!("threads-{w}-{threads}"))).unwrap();
            let values =
                ["sim_slowdown_geomean", "sim_ipc_geomean", "sim_store_delay_ns_mean", "coverage"]
                    .map(|n| r.get(n).unwrap().to_bits());
            let counters: Vec<String> =
                r.notes.into_iter().filter(|n| n.starts_with("counter ")).collect();
            (values, counters)
        };
        let (one, two) = (sim(1), sim(2));
        assert!(!one.1.is_empty(), "{w}");
        assert_eq!(one, two, "{w}");
    }
}

#[test]
fn catalogues_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let listed = json.matches("\"unit\"").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "one BENCHMARK.json metric per catalogue entry"
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\", \"why\"")),
            "BENCHMARK.json lacks workload {w}"
        );
    }
}

#[test]
fn counting_store_counts_calls_bytes_and_errors_per_kind() {
    let dir = out_dir("countfs");
    let fs = CountingFs::new(Arc::new(Tracer::new()));
    let a = dir.join("a");
    fs.write(&a, b"hello").unwrap();
    fs.rename(&a, &dir.join("b")).unwrap();
    assert_eq!(fs.read_to_string(&dir.join("b")).unwrap(), "hello");
    // A read of an absent file is a probe, not a failure.
    assert!(fs.read_to_string(&a).is_err());
    assert!(fs.read_to_string(&dir).is_err());
    let c = fs.counts();
    assert_eq!((c[0].calls, c[0].bytes, c[0].errors), (1, 5, 0));
    assert_eq!(c[1].calls, 1);
    assert_eq!((c[2].calls, c[2].bytes, c[2].errors), (3, 5, 1));
    fs.reset();
    assert_eq!(fs.counts(), [OpCount::default(); 4]);
}
