//! The benchmark runner. Usage (normally through `e2ebench/run.sh`, which
//! builds both binaries first):
//!
//! ```text
//! e2ebench --workload population|contended|commands --seed N --seconds S \
//!          --trace 0|1 --repro PATH --work DIR
//! ```
//!
//! Run from the repository root. Prints progress on stderr and one JSON
//! result line last on stdout: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of the separate traced run with `--trace 1`.

use e2ebench::calib::Calibration;
use e2ebench::commands;
use e2ebench::gen;
use e2ebench::report::now;
use e2ebench::report::{median, Report};
use e2ebench::sims::{self, Pool};
use netsim::SimConfig;
use simcore::units::Dur;
use std::path::{Path, PathBuf};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: num("--trace")? != 0,
        repro: PathBuf::from(get("--repro")?),
        work: PathBuf::from(get("--work")?),
    })
}

/// Run `setup` [`SETUPS`] times; the last result and the median time in
/// reference seconds.
fn timed_setup<T>(
    cal: &mut Calibration,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut spans = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = now();
        last = Some(setup()?);
        spans.push((t0, now()));
    }
    cal.sample();
    let times: Vec<f64> = spans.iter().map(|&(a, b)| cal.reference(a, b)).collect();
    Ok((last.expect("at least one set-up"), median(&times)))
}

fn pool(seed: u64, source: fn(u64, usize) -> String) -> Result<Pool, String> {
    sims::compile_pool((0..gen::POOL).map(|i| source(seed, i)).collect())
}

fn run(a: &Args, dir: &Path) -> Result<Report, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("tests/scenarios").is_dir() || !root.join("tests/golden").is_dir() {
        return Err(format!(
            "{} is not the repository root (no tests/scenarios, tests/golden)",
            root.display()
        ));
    }
    if !a.repro.is_file() {
        return Err(format!("no repro binary at {}", a.repro.display()));
    }
    let mut report = Report::default();
    sims::check_goldens(&root, &mut report);
    let mut cal = Calibration::default();
    let setup_s = match a.workload.as_str() {
        "population" | "contended" => {
            let source = if a.workload == "population" {
                gen::population_source
            } else {
                gen::contended_source
            };
            let (pool, setup_s) = timed_setup(&mut cal, || pool(a.seed, source))?;
            if a.trace {
                let n = sims::TRACED.min(pool.configs.len());
                sims::traced(&pool.configs[..n], &mut report);
                let jobs = commands::pool_jobs(&pool, n);
                commands::layers(
                    &jobs,
                    &pool.sources,
                    &pool.configs[..n],
                    &a.repro,
                    dir,
                    &mut report,
                );
            } else {
                sims::timed(&pool, a.seconds, &mut cal, &mut report);
            }
            setup_s
        }
        "commands" => {
            let (setup, setup_s) = timed_setup(&mut cal, || commands::setup(&root, a.seed, dir))?;
            if a.trace {
                // The grid's first points, cut to short runs to bound the
                // recording's memory.
                let configs: Vec<_> = setup
                    .jobs
                    .iter()
                    .take(sims::TRACED / 2)
                    .map(|j| SimConfig {
                        duration: Dur::from_secs(6),
                        ..j.config.clone()
                    })
                    .collect();
                sims::traced(&configs, &mut report);
                let sources: Vec<String> = setup.corpus.iter().map(|s| s.to_string()).collect();
                let audited = commands::generated(a.seed, 48);
                commands::layers(&setup.jobs, &sources, &audited, &a.repro, dir, &mut report);
            } else {
                commands::timed(&setup, &a.repro, &mut cal, &mut report);
            }
            setup_s
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (population, contended, commands)"
            ))
        }
    };
    if !a.trace {
        report.metric("setup_s", setup_s, "s");
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let dir = args.work.join(format!("run-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(report) => println!("{}", report.result_line()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
