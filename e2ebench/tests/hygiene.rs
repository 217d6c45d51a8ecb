//! A benchmark run must leave the repository's committed outputs alone:
//! `results/`, `results/store`, `results/bench/sweep.json` and
//! `BENCH_netsim.json` read the same before and after.

use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .canonicalize()
        .expect("repository root")
}

/// `(path, contents)` of every file under the guarded paths.
fn snapshot(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    fn walk(p: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(p)
                .expect("readable dir")
                .map(|e| e.expect("dir entry").path())
                .collect();
            entries.sort();
            for e in entries {
                walk(&e, out);
            }
        } else if p.is_file() {
            out.push((p.to_path_buf(), std::fs::read(p).expect("readable file")));
        }
    }
    let mut out = Vec::new();
    for p in ["results", "BENCH_netsim.json"] {
        walk(&root.join(p), &mut out);
    }
    out
}

#[test]
fn a_run_leaves_committed_outputs_untouched() {
    let root = root();
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| root.join("e2ebench/target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let built = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--locked",
            "--offline",
            "--quiet",
            "-p",
            "repro",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(&root)
        .status()
        .expect("cargo runs");
    assert!(built.success(), "cannot build repro");
    let before = snapshot(&root);
    assert!(before.iter().any(|(p, _)| p.ends_with("BENCH_netsim.json")));
    for (workload, trace) in [("commands", "0"), ("population", "1")] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args([
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .arg("--repro")
            .arg(target.join("release/repro"))
            .arg("--work")
            .arg(target.join("e2ebench-work"))
            .current_dir(&root)
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().unwrap_or("");
        assert!(
            last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
            "{workload}: {last}"
        );
    }
    let after = snapshot(&root);
    let changed: Vec<_> = before
        .iter()
        .zip(&after)
        .filter(|(a, b)| a != b)
        .map(|(a, _)| a.0.display().to_string())
        .collect();
    assert_eq!(
        before.len(),
        after.len(),
        "files appeared or vanished under results/"
    );
    assert!(changed.is_empty(), "a benchmark run modified {changed:?}");
}
