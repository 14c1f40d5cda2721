//! The committed smoke golden: `run_all --smoke` stdout (minus its
//! wall-clock trailer line) and every CSV it writes must match
//! `tests/golden/smoke/` at the repository root byte for byte. Drift from
//! one commit to the next fails here instead of going unseen.
//!
//! A deliberate model change rewrites the golden:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p paradet-bench --test smoke_golden
//! ```
//!
//! and the regenerated files are reviewed as a diff in the same change.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Prefix of the one stdout line that carries host timing.
const TRAILER: &str = "total wall time:";

/// The golden's name for the captured stdout.
const STDOUT: &str = "stdout.txt";

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/smoke")
}

/// `stdout.txt` plus every CSV in `dir`, by file name.
fn read_set(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut set = BTreeMap::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        if name == STDOUT || name.ends_with(".csv") {
            set.insert(name, fs::read(&path).expect("golden file is readable"));
        }
    }
    set
}

/// The first line on which `a` and `b` differ, 1-based, with both sides.
fn first_difference(a: &[u8], b: &[u8]) -> String {
    let (a, b) = (String::from_utf8_lossy(a), String::from_utf8_lossy(b));
    let mut la = a.lines();
    let mut lb = b.lines();
    for n in 1.. {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => break,
            (x, y) => return format!("line {n}: golden {x:?}, got {y:?}"),
        }
    }
    "trailing bytes differ".to_string()
}

#[test]
fn smoke_output_matches_committed_golden() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-golden");
    let _ = fs::remove_dir_all(&out);
    // PARADET_INSTRS would change the budget; every other knob the harness
    // reads (threads, scheduling policy) is covered by a determinism
    // invariant and must leave the output unchanged.
    let run = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("--smoke")
        .env("PARADET_OUT", &out)
        .env_remove("PARADET_INSTRS")
        .output()
        .expect("run_all starts");
    assert!(
        run.status.success(),
        "run_all --smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout: String = String::from_utf8(run.stdout)
        .expect("stdout is UTF-8")
        .split_inclusive('\n')
        .filter(|line| !line.starts_with(TRAILER))
        .collect();
    let mut produced = read_set(&out);
    produced.insert(STDOUT.to_string(), stdout.into_bytes());
    let _ = fs::remove_dir_all(&out);

    let golden = golden_dir();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        for name in read_set(&golden).keys() {
            fs::remove_file(golden.join(name)).expect("stale golden file is removable");
        }
        for (name, bytes) in &produced {
            fs::write(golden.join(name), bytes).expect("golden file is writable");
        }
        return;
    }

    let committed = read_set(&golden);
    let mut problems = Vec::new();
    for name in committed.keys().filter(|n| !produced.contains_key(*n)) {
        problems.push(format!("{name}: in the golden but not produced"));
    }
    for (name, bytes) in &produced {
        match committed.get(name) {
            None => problems.push(format!("{name}: produced but not in the golden")),
            Some(want) if want != bytes => {
                problems.push(format!("{name}: {}", first_difference(want, bytes)))
            }
            Some(_) => {}
        }
    }
    assert!(
        problems.is_empty(),
        "run_all --smoke drifted from tests/golden/smoke (rerun with UPDATE_GOLDEN=1 to accept \
         a deliberate change):\n  {}",
        problems.join("\n  ")
    );
}
