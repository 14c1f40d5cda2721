//! Command-line entry of the paradet benchmark.
//!
//! ```text
//! paradet-perfbench --workload <table2-steady|clock-sweep|fault-campaign>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable lines (prefixed `#`), then, as the last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Exits 1 when any operation failed, 2 on bad arguments.
//! Worker threads: `PARADET_THREADS`, default 1.

use paradet_perfbench::{run, Params, Size, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match arg(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {flag} `{v}`")),
    }
}

fn params(args: &[String]) -> Result<(String, Params), String> {
    let workload = arg(args, "--workload").ok_or("--workload is required")?.to_string();
    let seed = parse(args, "--seed", 1u64)?;
    let seconds = parse(args, "--seconds", 10.0f64)?;
    let trace = match parse(args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("bad --trace `{t}` (0 or 1)")),
    };
    let threads = match std::env::var("PARADET_THREADS") {
        Ok(v) => v.parse::<usize>().map_err(|_| format!("bad PARADET_THREADS `{v}`"))?.max(1),
        Err(_) => 1,
    };
    let out_dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    Ok((workload, Params { seed, seconds, trace, threads, size: Size::FULL, out_dir }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (workload, p) = match params(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = p.trace;
    println!(
        "# workload {workload}, seed {}, {} s, trace {}, {} threads",
        p.seed, p.seconds, trace as u8, p.threads
    );
    let report = match run(&workload, p) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for n in &report.notes {
        println!("# {n}");
    }
    let metrics = report.select(if trace { &PER_LAYER } else { &END_TO_END });
    for m in &metrics {
        println!("# {:<36} {:>16} {}", m.name, format!("{:.6}", m.value), m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed reads 0.
fn json_number(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
