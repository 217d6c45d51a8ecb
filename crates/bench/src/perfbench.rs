//! `repro perfbench` — the committed hot-path performance trajectory.
//!
//! Unlike the `cargo bench` targets (whose JSON lands in `results/bench/`
//! and is overwritten per run), perfbench **appends** to `BENCH_netsim.json`
//! at the repo root: one JSON line per benchmark per invocation, tagged
//! with a `label` naming the code state being measured. Successive PRs
//! extend the file, so the history of "what did an event cost before and
//! after change X" is part of the repository, not a CI artifact that
//! expires. The ISSUE-5 acceptance gate — the timer-wheel event queue must
//! cut canonical two-flow wall-clock by ≥ 20% — is checked directly against
//! this file by [`check`].
//!
//! **Quick runs never touch the canonical trajectory.** `--quick` uses
//! too few iterations to be comparable across labels; mixing quick and
//! full records under one file silently poisons every cross-label
//! comparison (it happened: the original `workload-api` records were
//! appended in quick mode and `run/workload-1k` had no valid baseline).
//! Quick records are routed to a scratch file under `target/` instead
//! ([`output_path`]), and [`check_full_mode`] — run by `--check` and CI —
//! rejects any `"quick":true` record that reaches the canonical file.
//!
//! The suite:
//!
//! * **micro** — `TimerWheel` schedule/pop patterns: uniform pseudorandom
//!   horizons, same-instant ties (FIFO ordering), and a near/far mix that
//!   exercises the far-future overflow path of the timer wheel.
//! * **macro** — whole simulations: a one-flow saturating ConstCwnd run,
//!   the four `starvation::canon` scenarios (the same frozen configs the
//!   golden-trace suite pins), and a small serial `starvation::sweep` grid.
//!
//! Timing uses [`testkit::bench::measure`] (warmup + individually timed
//! iterations, mean/p50/p99) — the same primitive the bench targets trust.
//!
//! Schema (`netsim-perfbench-v1`), one object per line, fields always in
//! this order:
//!
//! ```json
//! {"schema":"netsim-perfbench-v1","label":"baseline-binaryheap",
//!  "group":"macro","bench":"run/bbr-two-flow","quick":false,
//!  "warmup_iters":2,"iters":10,"mean_ns":1,"p50_ns":1,"p99_ns":1,
//!  "min_ns":1,"max_ns":1}
//! ```
//!
//! Macro benches that run a single simulation additionally append two
//! derived fields after the required ones: `"events"` (the deterministic
//! event count of one run, from [`netsim::SimResult::events`]) and
//! `"ns_per_event"` (`mean_ns / events`) — the normalized cost metric the
//! arena/batching work tracks. Old records without the fields stay valid;
//! [`validate`] only checks the required prefix order plus, when present,
//! that the extras parse.
//!
//! No wall-clock timestamps are recorded: two runs of the same label on the
//! same machine differ only in the measured numbers.

use cca::ConstCwnd;
use netsim::{FlowConfig, LinkConfig, Network, SimConfig};
use simcore::wheel::TimerWheel;
use simcore::rng::Xoshiro256;
use simcore::units::{Dur, Rate, Time};
use starvation::sweep::{CcaSpec, ScenarioSpec, Sweep};
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use testkit::bench::{measure, Measurement};

/// File name of the committed trajectory, at the workspace root.
pub const TRAJECTORY_FILE: &str = "BENCH_netsim.json";

/// Schema tag written into (and required of) every record.
pub const SCHEMA: &str = "netsim-perfbench-v1";

/// The required record fields, in the exact order they must appear.
/// Optional derived fields (`events`, `ns_per_event`) follow `max_ns`.
pub const FIELDS: &[&str] = &[
    "schema", "label", "group", "bench", "quick", "warmup_iters", "iters",
    "mean_ns", "p50_ns", "p99_ns", "min_ns", "max_ns",
];

/// One perfbench record: a measurement tagged with the code-state label.
pub struct Record {
    /// Code-state label (`--label`, default `"dev"`).
    pub label: String,
    /// `"micro"` or `"macro"`.
    pub group: &'static str,
    /// Whether the run used quick iteration counts.
    pub quick: bool,
    /// The measurement itself (name + timing summary).
    pub m: Measurement,
    /// Deterministic event count of one benchmark iteration, for macro
    /// benches that run exactly one simulation (`None` elsewhere). Emits
    /// the derived `events`/`ns_per_event` record fields.
    pub events: Option<u64>,
}

impl Record {
    /// The JSON line: the [`FIELDS`] prefix in exact order, then the
    /// derived `events`/`ns_per_event` pair when the bench carries an
    /// event count.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{{\"schema\":\"{SCHEMA}\",\"label\":\"{}\",\"group\":\"{}\",\
             \"bench\":\"{}\",\"quick\":{},\"warmup_iters\":{},\"iters\":{},\
             \"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"min_ns\":{},\"max_ns\":{}",
            json_escape(&self.label),
            self.group,
            json_escape(&self.m.name),
            self.quick,
            self.m.warmup_iters,
            self.m.iters,
            self.m.mean_ns,
            self.m.p50_ns,
            self.m.p99_ns,
            self.m.min_ns,
            self.m.max_ns,
        );
        if let Some(events) = self.events {
            let per_event = self.m.mean_ns.checked_div(events).unwrap_or(0);
            line.push_str(&format!(",\"events\":{events},\"ns_per_event\":{per_event}"));
        }
        line.push('}');
        line
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// File name of the quick-mode scratch trajectory, under `target/`
/// (gitignored): quick records land here so they can never poison the
/// committed cross-label history.
pub const SCRATCH_FILE: &str = "target/perfbench-quick.json";

/// Resolve the workspace root (where `BENCH_netsim.json` lives): the
/// manifest dir's grandparent under `cargo run`, else walk up from cwd.
pub fn trajectory_path() -> PathBuf {
    let start = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m),
        Err(_) => std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")),
    };
    match simlint::find_workspace_root(&start) {
        Some(root) => root.join(TRAJECTORY_FILE),
        None => PathBuf::from(TRAJECTORY_FILE),
    }
}

/// Where a run's records go: full runs append to the committed canonical
/// trajectory, quick runs to the `target/` scratch file. This split is the
/// quick-vs-full policy; [`check_full_mode`] enforces it on the committed
/// side.
pub fn output_path(quick: bool) -> PathBuf {
    let canonical = trajectory_path();
    if quick {
        match canonical.parent() {
            Some(root) => root.join(SCRATCH_FILE),
            None => PathBuf::from(SCRATCH_FILE),
        }
    } else {
        canonical
    }
}

// ---------------------------------------------------------------- micro --

/// 10k schedule + 10k pops at pseudorandom times over a 50 ms horizon.
fn queue_uniform_10k() -> u64 {
    let mut rng = Xoshiro256::new(0xBEEF);
    let mut q = TimerWheel::new();
    for i in 0..10_000u64 {
        q.schedule_at(Time(rng.next_u64() % 50_000_000), i);
    }
    let mut acc = 0u64;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

/// Interleaved schedule/pop in 100-event bursts — the simulator's actual
/// access pattern (the queue stays small; time advances continuously).
fn queue_interleaved_10k() -> u64 {
    let mut rng = Xoshiro256::new(0xFACE);
    let mut q = TimerWheel::new();
    let mut acc = 0u64;
    let mut horizon = 0u64;
    for burst in 0..100u64 {
        for i in 0..100u64 {
            // Spread each burst over ~2 ms past the current clock.
            let at = q.now().as_nanos() + rng.next_u64() % 2_000_000;
            horizon = horizon.max(at);
            q.schedule_at(Time(at), burst * 100 + i);
        }
        for _ in 0..100 {
            if let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
        }
    }
    acc
}

/// 10k same-instant events: pure FIFO-tie ordering cost.
fn queue_ties_10k() -> u64 {
    let mut q = TimerWheel::new();
    let t = Time::from_millis(1);
    for i in 0..10_000u64 {
        q.schedule_at(t, i);
    }
    let mut acc = 0u64;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

/// Near-horizon traffic with 1-in-16 far-future outliers (RTO-style
/// timers seconds out) — exercises the overflow path of the wheel.
fn queue_far_future_10k() -> u64 {
    let mut rng = Xoshiro256::new(0xD00D);
    let mut q = TimerWheel::new();
    for i in 0..10_000u64 {
        let at = if i % 16 == 0 {
            Time(1_000_000_000 + rng.next_u64() % 600_000_000_000)
        } else {
            Time(rng.next_u64() % 50_000_000)
        };
        q.schedule_at(at, i);
    }
    let mut acc = 0u64;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

// ---------------------------------------------------------------- macro --

/// A one-flow link-saturating run: cwnd 100 pkts ≫ BDP on a 12 Mbit/s,
/// 40 ms path — the densest event stream per simulated second.
fn one_flow_saturating(secs: u64) -> netsim::SimResult {
    let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
    let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(100 * 1500)), Dur::from_millis(40));
    Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(secs))).run()
}

/// The million-event population bench: 10× the `workload-1k` canonical
/// scenario — same 48 Mbit/s ample link, Poisson(8 ms) arrivals,
/// bounded-Pareto sizes, NewReno on a jittered 20 ms path — but 10 000
/// flows over 90 s of simulated time (~1M dispatched events). This is the
/// regression canary for population-scale sweeps (ROADMAP item 1): the
/// arena/batching work is judged on its `ns_per_event` here as much as on
/// the two-flow scenarios.
fn workload_10k() -> netsim::SimResult {
    let link = LinkConfig::ample_buffer(Rate::from_mbps(48.0));
    let wl = netsim::Workload::new(
        10_000,
        netsim::ArrivalProcess::Poisson { mean: Dur::from_millis(8), seed: 9 },
        netsim::SizeDist::Pareto { min_bytes: 12_000, alpha: 1.3, cap_bytes: 300_000, seed: 5 },
        Box::new(cca::NewReno::default_params()),
        Dur::from_millis(20),
    )
    .with_start(Time::from_millis(100))
    .with_jitter(Dur::from_millis(2), 3);
    Network::new(SimConfig::new(link, vec![], Dur::from_secs(90)).with_workload(wl)).run()
}

/// A small serial sweep over the two-flow asymmetric-jitter topology.
fn quick_sweep_grid(secs: u64) -> usize {
    let spec = ScenarioSpec::new("perfbench-grid")
        .cca(CcaSpec::new("vegas", |_| Box::new(cca::Vegas::default_params())))
        .rates_mbps(&[24.0])
        .rtts_ms(&[40])
        .jitters_ms(&[0, 10])
        .seeds(&[1, 2])
        .duration(Dur::from_secs(secs))
        .sample_every(Dur::from_millis(10));
    let report = Sweep::new("perfbench-grid").jobs(1).run(spec.expand());
    assert_eq!(report.panics(), 0, "perfbench sweep row panicked");
    report.rows.len()
}

/// Run the full suite, append records to the mode's output file (the
/// committed `BENCH_netsim.json` in full mode, the `target/` scratch file
/// under `--quick`), and print a label-over-label comparison. Returns the
/// records written.
pub fn run(quick: bool, label: &str) -> Vec<Record> {
    let (warmup, iters) = if quick { (1, 3) } else { (2, 10) };
    let mut records: Vec<Record> = Vec::new();
    let mut add = |group: &'static str, m: Measurement, events: Option<u64>| {
        let per_event = match events {
            Some(n) if n > 0 => format!("  {:>6} ns/event", m.mean_ns / n),
            _ => String::new(),
        };
        println!(
            "perfbench {:<34} mean {:>12} ns  p50 {:>12} ns  ({} iters){per_event}",
            m.name, m.mean_ns, m.p50_ns, m.iters
        );
        records.push(Record {
            label: label.to_string(),
            group,
            quick,
            m,
            events,
        });
    };

    add("micro", measure("queue/uniform_10k", warmup, iters, || {
        black_box(queue_uniform_10k())
    }), None);
    add("micro", measure("queue/interleaved_10k", warmup, iters, || {
        black_box(queue_interleaved_10k())
    }), None);
    add("micro", measure("queue/ties_10k", warmup, iters, || {
        black_box(queue_ties_10k())
    }), None);
    add("micro", measure("queue/far_future_10k", warmup, iters, || {
        black_box(queue_far_future_10k())
    }), None);

    // Macro benches that run exactly one simulation carry their event
    // count (deterministic per scenario, counted by an untimed pre-run)
    // so the trajectory records the derived `ns_per_event` metric.
    let run_secs = if quick { 2 } else { 5 };
    let events = one_flow_saturating(run_secs).events;
    add("macro", measure("run/one-flow-saturating", warmup, iters, || {
        black_box(one_flow_saturating(run_secs).flows[0].total_delivered())
    }), Some(events));
    for name in starvation::CANONICAL {
        let cfg = starvation::canonical_scenario(name).expect("canonical name");
        let events = Network::new(cfg).run().events;
        add("macro", measure(&format!("run/{name}"), warmup, iters, || {
            let cfg = starvation::canonical_scenario(name).expect("canonical name");
            let r = Network::new(cfg).run();
            black_box(r.flows[0].total_delivered())
        }), Some(events));
    }
    let events = workload_10k().events;
    add("macro", measure("run/workload-10k", warmup, iters, || {
        black_box(workload_10k().flows.len())
    }), Some(events));
    let sweep_secs = if quick { 1 } else { 3 };
    add("macro", measure("sweep/vegas-2x2-grid", warmup, iters, || {
        black_box(quick_sweep_grid(sweep_secs))
    }), None);

    let path = output_path(quick);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
    for r in &records {
        writeln!(f, "{}", r.render()).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    let kind = if quick { "scratch (quick)" } else { "canonical" };
    println!("perfbench: {} records appended -> {} [{kind}]", records.len(), path.display());
    drop(f);

    match compare(&std::fs::read_to_string(&path).unwrap_or_default()) {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
        }
        Err(e) => eprintln!("perfbench: trajectory comparison unavailable: {e}"),
    }
    records
}

// ----------------------------------------------------- schema validation --

/// Minimal field extraction from one flat JSON object line (the schema has
/// no nesting, so top-level `"key":value` scanning is exact).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = if let Some(stripped) = rest.strip_prefix('"') {
        return stripped.split('"').next();
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

/// Validate every line of trajectory `text` against the v1 schema: fields
/// present, in order, numerics parse, schema tag matches. Returns the
/// number of valid records.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let mut pos = 0;
        for key in FIELDS {
            let pat = format!("\"{key}\":");
            match line[pos..].find(&pat) {
                Some(off) => pos += off + pat.len(),
                None => return Err(format!("line {lineno}: missing or out-of-order field \"{key}\"")),
            }
        }
        if field(line, "schema") != Some(SCHEMA) {
            return Err(format!("line {lineno}: schema tag is not {SCHEMA:?}"));
        }
        for key in ["warmup_iters", "iters", "mean_ns", "p50_ns", "p99_ns", "min_ns", "max_ns"] {
            let raw = field(line, key)
                .ok_or_else(|| format!("line {lineno}: missing numeric field \"{key}\""))?;
            raw.parse::<u64>()
                .map_err(|_| format!("line {lineno}: field \"{key}\" is not a u64 (got {raw:?})"))?;
        }
        match field(line, "quick") {
            Some("true") | Some("false") => {}
            other => return Err(format!("line {lineno}: field \"quick\" is not a bool (got {other:?})")),
        }
        for key in ["events", "ns_per_event"] {
            if let Some(raw) = field(line, key) {
                raw.parse::<u64>()
                    .map_err(|_| format!("line {lineno}: field \"{key}\" is not a u64 (got {raw:?})"))?;
            }
        }
        n += 1;
    }
    Ok(n)
}

/// Enforce the quick-vs-full policy on the committed trajectory: every
/// record must be a full-mode run (`"quick":false`). Quick iteration
/// counts are not comparable across labels; quick records belong in the
/// [`SCRATCH_FILE`] under `target/`. Returns the record count on success.
pub fn check_full_mode(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if field(line, "quick") == Some("true") {
            return Err(format!(
                "line {}: quick-mode record in the canonical trajectory (quick runs go to {SCRATCH_FILE})",
                i + 1
            ));
        }
        n += 1;
    }
    Ok(n)
}

/// Per-bench comparison of the newest label against the oldest: the
/// trajectory view, newest-vs-baseline speedup per benchmark. The gate
/// the ISSUE tracks is `run/bbr-two-flow` (canonical two-flow scenario).
pub fn compare(text: &str) -> Result<Vec<String>, String> {
    validate(text)?;
    // (bench, label) -> mean_ns, keeping first-seen label order.
    let mut labels: Vec<String> = Vec::new();
    let mut rows: Vec<(String, String, u64)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let label = field(line, "label").unwrap_or("?").to_string();
        let bench = field(line, "bench").unwrap_or("?").to_string();
        let mean: u64 = field(line, "mean_ns").and_then(|v| v.parse().ok()).unwrap_or(0);
        if !labels.contains(&label) {
            labels.push(label.clone());
        }
        rows.push((bench, label, mean));
    }
    let mut out = Vec::new();
    if labels.len() < 2 {
        out.push(format!("perfbench trajectory: single label {:?}, nothing to compare", labels.first().map(String::as_str).unwrap_or("none")));
        return Ok(out);
    }
    let (first, last) = (labels[0].clone(), labels[labels.len() - 1].clone());
    out.push(format!("perfbench trajectory: {first:?} -> {last:?}"));
    let benches: Vec<String> = {
        let mut seen = Vec::new();
        for (b, _, _) in &rows {
            if !seen.contains(b) {
                seen.push(b.clone());
            }
        }
        seen
    };
    for bench in benches {
        let mean_of = |label: &str| -> Option<u64> {
            // Latest record wins when a (bench, label) pair repeats.
            rows.iter().rev().find(|(b, l, _)| *b == bench && l == label).map(|&(_, _, m)| m)
        };
        if let (Some(a), Some(b)) = (mean_of(&first), mean_of(&last)) {
            if a > 0 {
                let delta = 100.0 * (1.0 - (b as f64) / (a as f64));
                out.push(format!(
                    "  {bench:<28} {a:>14} ns -> {b:>14} ns  ({delta:+.1}% wall-clock reduction)",
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, bench: &str, mean: u64, quick: bool, events: Option<u64>) -> Record {
        Record {
            label: label.into(),
            group: "macro",
            quick,
            m: Measurement {
                name: bench.into(),
                warmup_iters: 1,
                iters: 3,
                mean_ns: mean,
                p50_ns: mean,
                p99_ns: mean,
                min_ns: mean,
                max_ns: mean,
            },
            events,
        }
    }

    fn record_line(label: &str, bench: &str, mean: u64) -> String {
        record(label, bench, mean, true, None).render()
    }

    #[test]
    fn rendered_records_validate() {
        let text = format!(
            "{}\n{}\n",
            record_line("base", "run/bbr-two-flow", 100),
            record_line("wheel", "run/bbr-two-flow", 70)
        );
        assert_eq!(validate(&text), Ok(2));
    }

    #[test]
    fn validate_rejects_missing_field() {
        let bad = record_line("base", "x", 1).replace("\"iters\":3,", "");
        assert!(validate(&bad).is_err());
    }

    #[test]
    fn validate_rejects_out_of_order_fields() {
        // Same fields, label and schema swapped.
        let line = record_line("base", "x", 1);
        let swapped = line
            .replace("{\"schema\":\"netsim-perfbench-v1\",\"label\":\"base\"", "{\"label\":\"base\",\"schema\":\"netsim-perfbench-v1\"");
        assert!(validate(&swapped).is_err());
    }

    #[test]
    fn validate_rejects_wrong_schema_tag() {
        let bad = record_line("base", "x", 1).replace("perfbench-v1", "perfbench-v0");
        assert!(validate(&bad).is_err());
    }

    #[test]
    fn compare_reports_speedup() {
        let text = format!(
            "{}\n{}\n",
            record_line("base", "run/bbr-two-flow", 100),
            record_line("wheel", "run/bbr-two-flow", 70)
        );
        let lines = compare(&text).unwrap();
        assert!(lines[0].contains("\"base\" -> \"wheel\""), "{lines:?}");
        assert!(lines[1].contains("+30.0%"), "{lines:?}");
    }

    #[test]
    fn events_render_derived_fields_and_validate() {
        let line = record("base", "run/workload-10k", 1_000_000, false, Some(4_000)).render();
        assert!(line.ends_with(",\"events\":4000,\"ns_per_event\":250}"), "{line}");
        assert_eq!(validate(&line), Ok(1));
        // Zero events must not divide by zero.
        let z = record("base", "x", 10, false, Some(0)).render();
        assert!(z.contains("\"ns_per_event\":0"), "{z}");
        assert_eq!(validate(&z), Ok(1));
    }

    #[test]
    fn quick_runs_route_to_scratch_not_canonical() {
        let full = output_path(false);
        let quick = output_path(true);
        assert!(full.ends_with(TRAJECTORY_FILE), "{}", full.display());
        assert!(quick.ends_with(SCRATCH_FILE), "{}", quick.display());
        assert_ne!(full, quick);
        // Same root: the scratch file sits under the workspace's target/.
        assert_eq!(full.parent(), quick.parent().and_then(|p| p.parent()));
    }

    #[test]
    fn check_full_mode_rejects_quick_records() {
        let full_line = record("wheel", "run/bbr-two-flow", 70, false, None).render();
        assert_eq!(check_full_mode(&full_line), Ok(1));
        let mixed = format!("{}\n{}\n", full_line, record_line("api", "run/workload-1k", 9));
        let err = check_full_mode(&mixed).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("quick"), "{err}");
    }

    #[test]
    fn field_extraction_handles_strings_and_numbers() {
        let line = record_line("a\\b", "run/x", 42);
        assert_eq!(field(&line, "mean_ns"), Some("42"));
        assert_eq!(field(&line, "group"), Some("macro"));
        assert_eq!(field(&line, "quick"), Some("true"));
    }
}
