//! The `commands` workload — the commands users run, in order — and the
//! command-layer probes every traced run makes (sweep executor, worker
//! pool, result store, scenario compiler, auditor, `repro` subcommands).

use crate::calib::Calibration;
use crate::report::now;
use crate::report::{median, quantile, secs, Fnv, Report};
use crate::sims::{delivered_pkts, Pool};
use netsim::{Network, SimConfig};
use scenario::{FuzzOptions, Scenario, ScenarioStrategy};
use simcore::par;
use simcore::rng::Xoshiro256;
use simcore::store::Store;
use starvation::sweep::{IncrementalReport, RowSummary, StoreOptions, Sweep, SweepJob};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use testkit::prop::Strategy;

/// Worker threads for every parallel command (the reference machine has
/// two cores).
pub const JOBS: usize = 2;

/// Scenarios in the audited fuzz campaign.
pub const FUZZ_COUNT: usize = 240;

/// The `repro all` sequence, one subcommand at a time.
pub const REPRODUCE: [&str; 18] = [
    "glossary",
    "fig1",
    "fig2",
    "fig3",
    "thm",
    "fig7",
    "copa",
    "bbr",
    "vivace",
    "allegro",
    "merit",
    "algo1",
    "ccmc",
    "ablations",
    "ecn",
    "boundary",
    "seeds",
    "sweep",
];

/// Passes of the command sequence per run. Two passes double the
/// operations behind each percentile and let every output be compared
/// between identical runs.
pub const PASSES: usize = 2;

/// Everything the commands need before the first timed one: the fuzz
/// corpus, the expanded sweep grid and, per pass, a fresh directory with
/// an open, empty result store.
pub struct Setup {
    pub corpus: Vec<Scenario>,
    pub jobs: Vec<SweepJob>,
    pub passes: Vec<PathBuf>,
}

/// Load the corpus, expand the grid and open a fresh store per pass under
/// `dir`.
pub fn setup(root: &Path, seed: u64, dir: &Path) -> Result<Setup, String> {
    let corpus = scenario::load_dir(&root.join("tests/scenarios"))?;
    if corpus.is_empty() {
        return Err("empty fuzz corpus".into());
    }
    let jobs = crate::gen::grid_jobs(seed);
    let passes = (0..PASSES)
        .map(|k| {
            let pass = dir.join(format!("pass-{k}"));
            let _ = std::fs::remove_dir_all(&pass);
            let store = pass.join("store");
            Store::open(&store)
                .map_err(|e| format!("cannot open store {}: {e}", store.display()))?;
            Ok(pass)
        })
        .collect::<Result<_, String>>()?;
    Ok(Setup {
        corpus,
        jobs,
        passes,
    })
}

fn sweep(jobs: &[SweepJob], store: &Path) -> IncrementalReport {
    Sweep::new("bench-grid")
        .jobs(JOBS)
        .timing_off()
        .run_incremental(jobs.to_vec(), &StoreOptions::new(store))
}

fn rows(inc: &IncrementalReport) -> Result<Vec<RowSummary>, String> {
    inc.rows
        .iter()
        .map(|r| {
            r.outcome
                .clone()
                .map_err(|e| format!("sweep row {} failed: {e}", r.label))
        })
        .collect()
}

/// The audited fuzz campaign's options.
fn fuzz_options(corpus: &[Scenario], out: &Path) -> FuzzOptions {
    let mut opts = FuzzOptions::new(crate::gen::FUZZ_SEED, out.to_path_buf());
    opts.count = FUZZ_COUNT;
    opts.jobs = JOBS;
    opts.corpus = corpus.to_vec();
    opts
}

/// Run one `repro` subcommand in `cwd`; its wall time in seconds.
pub fn reproduce(repro: &Path, sub: &str, cwd: &Path) -> Result<f64, String> {
    let t0 = now();
    let status = Command::new(repro)
        .args([sub, "--quick", "--jobs", &JOBS.to_string()])
        .current_dir(cwd)
        .env_remove("CARGO_MANIFEST_DIR")
        .env_remove("SWEEP_STORE_DIR")
        .env_remove("SWEEP_BENCH_DIR")
        .env_remove("SWEEP_AUDIT")
        .env_remove("SWEEP_PROGRESS")
        .env_remove("SWEEP_TIMING_WALL")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", repro.display()))?;
    let s = secs(t0);
    if status.success() {
        Ok(s)
    } else {
        Err(format!("repro {sub} --quick exited with {status}"))
    }
}

/// Digest of every CSV `repro` wrote under `dir/results`.
fn csv_digest(dir: &Path) -> Result<u64, String> {
    let results = dir.join("results");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&results)
        .map_err(|e| format!("{}: {e}", results.display()))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    names.sort();
    let mut h = Fnv::default();
    for p in &names {
        let bytes = std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()))?;
        h.bytes(p.file_name().map_or(&[][..], |n| n.as_encoded_bytes()))
            .u64(bytes.len() as u64)
            .bytes(&bytes);
    }
    Ok(h.0)
}

/// The timed `commands` workload: [`PASSES`] passes of the command
/// sequence, each in its own directory. Commands, in order: a cold sweep
/// of the grid into the pass's empty store (writes), the same grid again
/// (all store hits), an audited fuzz campaign, then every
/// `repro all --quick` subcommand. Both passes must produce the same sweep
/// rows and byte-identical `repro` CSVs.
///
/// The operations of the percentiles are the items of work users wait
/// for: each sweep point, each fuzz scenario and each `repro` subcommand,
/// at its command's mean time per item. Percentiles over whole commands
/// of very different sizes jump whenever two neighbours swap order.
pub fn timed(s: &Setup, repro: &Path, cal: &mut Calibration, report: &mut Report) {
    // Each command with the number of items of work it did.
    let mut ops: Vec<((Instant, Instant), usize)> = Vec::new();
    let mut cold_ops: Vec<(Instant, Instant)> = Vec::new();
    let mut pkts = 0.0;
    let mut outputs: Vec<(Option<Vec<RowSummary>>, Option<u64>)> = Vec::new();
    let total = s.jobs.len();
    for pass in &s.passes {
        let store = pass.join("store");
        let t0 = now();
        let cold = sweep(&s.jobs, &store);
        let span = (t0, now());
        ops.push((span, total));
        cold_ops.push(span);
        cal.sample();
        let cold_rows = rows(&cold);
        report.check(match &cold_rows {
            Ok(_) if cold.executed == total => Ok(()),
            Ok(_) => Err(format!(
                "cold sweep executed {} of {total} points",
                cold.executed
            )),
            Err(e) => Err(e.clone()),
        });
        pkts += cold_rows
            .as_ref()
            .map(|rows| {
                rows.iter()
                    .flat_map(|r| &r.flows)
                    .map(|f| f.delivered as f64 / 1500.0)
                    .sum()
            })
            .unwrap_or(0.0);

        let t0 = now();
        let warm = sweep(&s.jobs, &store);
        ops.push(((t0, now()), total));
        cal.sample();
        report.check(match (rows(&warm), &cold_rows) {
            (Ok(w), Ok(c)) if warm.cached == total && warm.executed == 0 && &w == c => Ok(()),
            (Ok(_), Ok(_)) => Err(format!(
                "warm sweep: {} cached, {} executed of {total}, or rows differ from the cold sweep",
                warm.cached, warm.executed
            )),
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(e.clone()),
        });

        let opts = fuzz_options(&s.corpus, &pass.join("fuzz"));
        let t0 = now();
        let fuzz = scenario::fuzz(&opts);
        ops.push(((t0, now()), FUZZ_COUNT));
        cal.sample();
        report.check(match fuzz {
            Ok(f) if f.violations == 0 && f.executed == FUZZ_COUNT => Ok(()),
            Ok(f) => Err(format!(
                "fuzz: {} violation(s) in {} scenarios",
                f.violations, f.executed
            )),
            Err(e) => Err(format!("fuzz: {e}")),
        });

        let cwd = pass.join("reproduce");
        let _ = std::fs::create_dir_all(&cwd);
        for sub in REPRODUCE {
            let t0 = now();
            if report.check(reproduce(repro, sub, &cwd).map(|_| ())) {
                ops.push(((t0, now()), 1));
            }
            cal.sample();
        }
        let digest = csv_digest(&cwd);
        report.check(digest.as_ref().map(|_| ()).map_err(Clone::clone));
        outputs.push((cold_rows.ok(), digest.ok()));
    }
    report.check(if outputs.windows(2).all(|w| w[0] == w[1]) {
        Ok(())
    } else {
        Err("the passes' sweep rows or repro CSVs differ".into())
    });

    let host: f64 = ops
        .iter()
        .map(|((a, b), _)| b.duration_since(*a).as_secs_f64())
        .sum();
    eprintln!("commands: {} commands in {host:.2} host seconds", ops.len());
    // One value per item: a sweep point, a fuzz scenario or a `repro`
    // subcommand, each at its command's mean time per item.
    let items: Vec<f64> = ops
        .iter()
        .flat_map(|&((a, b), n)| std::iter::repeat_n(cal.reference(a, b) * 1e3 / n as f64, n))
        .collect();
    let cold_s: f64 = cold_ops.iter().map(|&(a, b)| cal.reference(a, b)).sum();
    report.metric("op_ms_p50", median(&items), "ms");
    report.metric("op_ms_p90", quantile(&items, 0.9), "ms");
    report.metric(
        "ops_per_s",
        items.len() as f64 / (items.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    report.metric("pkts_per_s", pkts / cold_s, "pkt/s");
}

/// Generated scenarios for the auditor-overhead probe of the `commands`
/// workload: the fuzzer's own generator, seeded.
pub fn generated(seed: u64, n: usize) -> Vec<SimConfig> {
    let strategy = ScenarioStrategy::default();
    let mut rng = Xoshiro256::new(seed);
    (0..n)
        .map(|_| scenario::compile(&strategy.generate(&mut rng)))
        .collect()
}

/// Command-layer probes of the traced run, over one workload's inputs:
/// `jobs` as a store-backed sweep, `sources` through the scenario
/// compiler, `audited` with and without the auditor, and every `repro`
/// subcommand.
pub fn layers(
    jobs: &[SweepJob],
    sources: &[String],
    audited: &[SimConfig],
    repro: &Path,
    dir: &Path,
    report: &mut Report,
) {
    let total = jobs.len();
    let cold_dir = dir.join("layers-store");
    let _ = std::fs::remove_dir_all(&cold_dir);

    // Sweep executor: the cold sweep's wall time against the same jobs'
    // simulations run serially.
    let t0 = now();
    let cold = sweep(jobs, &cold_dir);
    let cold_s = secs(t0);
    let cold_rows = rows(&cold);
    report.check(cold_rows.as_ref().map(|_| ()).map_err(Clone::clone));
    let mut sim_s = 0.0;
    for j in jobs {
        let t0 = now();
        Network::new(j.config.clone()).run();
        sim_s += secs(t0);
    }
    report.metric("sweep.sim_frac", sim_s / (JOBS as f64 * cold_s), "ratio");

    // Worker pool: busy time over capacity for the same jobs.
    let configs: Vec<SimConfig> = jobs.iter().map(|j| j.config.clone()).collect();
    let t0 = now();
    let reports = par::map(
        configs,
        JOBS,
        |_, c| delivered_pkts(&Network::new(c).run()),
        None,
    );
    let wall = secs(t0);
    let busy: f64 = reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    report.check(if reports.iter().all(|r| r.outcome.is_ok()) {
        Ok(())
    } else {
        Err("par job panicked".into())
    });
    report.metric("par.busy_frac", busy / (JOBS as f64 * wall), "ratio");

    // Store: warm hits, then the cold rows' payloads written to and read
    // back from a fresh store.
    let warm = sweep(jobs, &cold_dir);
    report.metric("store.hit_frac", warm.cached as f64 / total as f64, "ratio");
    report.check(match (rows(&warm), &cold_rows) {
        (Ok(w), Ok(c)) if &w == c => Ok(()),
        _ => Err("warm sweep rows differ from the cold rows".into()),
    });
    if let Ok(rows) = &cold_rows {
        let timed = store_replay(jobs, rows, &dir.join("replay-store"));
        if let (true, Ok((write_us, read_us))) = (report.check(timed.clone().map(|_| ())), timed) {
            report.metric("store.write_us", write_us, "us");
            report.metric("store.read_us", read_us, "us");
        }
    }

    // Scenario compiler: parse + compile per scenario.
    let t0 = now();
    let mut compiled = 0usize;
    while compiled == 0 || secs(t0) < 0.05 {
        for src in sources {
            if let Ok(s) = scenario::parse(src) {
                std::hint::black_box(scenario::compile(&s));
            }
            compiled += 1;
        }
    }
    report.metric(
        "scenario.compile_us",
        secs(t0) * 1e6 / compiled as f64,
        "us",
    );

    // Auditor: the same scenarios unaudited and audited.
    let (mut plain, mut audit) = (0.0, 0.0);
    for c in audited {
        let t0 = now();
        let a = crate::sims::fingerprint(&Network::new(c.clone()).run());
        plain += secs(t0);
        let t0 = now();
        let b = crate::sims::fingerprint(&Network::new(c.clone().with_audit(true)).run());
        audit += secs(t0);
        report.check(if a == b {
            Ok(())
        } else {
            Err("auditing changed a result".into())
        });
    }
    report.metric("fuzz.audit_overhead_frac", audit / plain - 1.0, "ratio");

    let cwd = dir.join("layers-reproduce");
    let _ = std::fs::create_dir_all(&cwd);
    let mut sum = 0.0;
    for sub in REPRODUCE {
        let t = reproduce(repro, sub, &cwd);
        let ok = report.check(t.as_ref().map(|_| ()).map_err(Clone::clone));
        if let (true, Ok(t)) = (ok, t) {
            report.metric(format!("reproduce.{sub}_s"), t, "s");
            sum += t;
        }
    }
    report.metric("reproduce.total_s", sum, "s");
}

/// Write every row's payload into a fresh store, read each back and
/// compare. Returns the mean write and read time per entry, microseconds.
fn store_replay(jobs: &[SweepJob], rows: &[RowSummary], dir: &Path) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
    let entries: Vec<_> = jobs
        .iter()
        .zip(rows)
        .filter_map(|(j, r)| Some((j.digest()?, r.to_store_bytes())))
        .collect();
    let t0 = now();
    for (d, bytes) in &entries {
        store
            .write(d, bytes)
            .map_err(|e| format!("store write: {e}"))?;
    }
    let write_s = secs(t0);
    let t0 = now();
    for (d, bytes) in &entries {
        let back = store.read(d).map_err(|e| format!("store read: {e}"))?;
        if &back != bytes {
            return Err("store read returned other bytes than were written".into());
        }
    }
    let read_s = secs(t0);
    let n = entries.len().max(1) as f64;
    Ok((write_s * 1e6 / n, read_s * 1e6 / n))
}

/// The sweep jobs of a simulation pool: each scenario as a keyed job.
pub fn pool_jobs(pool: &Pool, n: usize) -> Vec<SweepJob> {
    pool.scenarios
        .iter()
        .take(n)
        .map(SweepJob::from_scenario)
        .collect()
}
