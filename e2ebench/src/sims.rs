//! Simulation workloads (`population`, `contended`): the closed loop of
//! timed simulations, and the traced run that splits a simulation's host
//! time across the per-event layers.

use crate::calib::Calibration;
use crate::record::record;
use crate::replay::{replay_all, Replayed};
use crate::report::now;
use crate::report::{median, quantile, Fnv, Report};
use netsim::{Network, SimConfig, SimResult};
use simcore::trace::{NullSink, RingSink, TraceSink};
use simcore::units::bytes_as_f64;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A closed loop runs at least this many simulations, so that ten lie
/// beyond its 90th percentile.
pub const MIN_SIMS: usize = 100;

/// Scenarios of the pool the traced run records and replays.
pub const TRACED: usize = 8;

/// Bytes per delivered packet (every generated flow uses a 1500-byte MSS).
const MSS: f64 = 1500.0;

/// A generated scenario pool: the sources and their compiled configs.
pub struct Pool {
    pub sources: Vec<String>,
    pub scenarios: Vec<scenario::Scenario>,
    pub configs: Vec<SimConfig>,
}

/// Parse and compile generated sources.
pub fn compile_pool(sources: Vec<String>) -> Result<Pool, String> {
    let scenarios = sources
        .iter()
        .map(|s| scenario::parse(s).map_err(|e| format!("generated scenario does not parse: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let configs = scenarios.iter().map(scenario::compile).collect();
    Ok(Pool {
        sources,
        scenarios,
        configs,
    })
}

/// What must not change when nothing but the measurement changes:
/// dispatched events, and per flow the delivered, sent and lost bytes and
/// the tail drops.
pub fn fingerprint(r: &SimResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(r.events);
    for f in &r.flows {
        h.u64(f.total_delivered())
            .u64(f.sent_bytes)
            .u64(f.lost_bytes)
            .u64(f.drops);
    }
    h.0
}

/// Delivered data packets (MSS-sized equivalents).
pub fn delivered_pkts(r: &SimResult) -> f64 {
    r.flows
        .iter()
        .map(|f| bytes_as_f64(f.total_delivered()))
        .sum::<f64>()
        / MSS
}

/// `cfg` traced into a sink that discards every event.
fn with_null_sink(cfg: SimConfig) -> SimConfig {
    cfg.with_trace(Arc::new(|| Box::new(NullSink) as Box<dyn TraceSink>))
}

/// Every `tests/scenarios/*.scn` must reproduce its `tests/golden/*.digest`
/// through the public trace digest, under the auditor.
pub fn check_goldens(root: &Path, report: &mut Report) {
    let dir = root.join("tests/scenarios");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter_map(|n| n.strip_suffix(".scn").map(str::to_owned))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    report.check(if names.is_empty() {
        Err(format!("no scenarios in {}", dir.display()))
    } else {
        Ok(())
    });
    for name in names {
        report.check((|| {
            let s = scenario::load_file(&dir.join(format!("{name}.scn")))?;
            let want = std::fs::read_to_string(root.join(format!("tests/golden/{name}.digest")))
                .map_err(|e| format!("golden digest for {name}: {e}"))?;
            let ring = RingSink::new(1);
            let probe = ring.clone();
            let cfg = scenario::compile(&s)
                .with_trace(Arc::new(move || {
                    Box::new(probe.clone()) as Box<dyn TraceSink>
                }))
                .with_audit(true);
            Network::new(cfg).run();
            let got = ring.digest().render();
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "scenario {name}: trace digest differs from tests/golden\n{got}"
                ))
            }
        })());
    }
}

/// The timed closed loop: simulate the pool's scenarios back to back, one
/// at a time, for `seconds` (and at least [`MIN_SIMS`] simulations). Every
/// repeat of a scenario must reproduce its first fingerprint, and after
/// timing each scenario is run once more with a trace sink attached,
/// which must not change the fingerprint either.
pub fn timed(pool: &Pool, seconds: f64, cal: &mut Calibration, report: &mut Report) {
    let n = pool.configs.len();
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut spans: Vec<(Instant, Instant)> = Vec::new();
    let mut pkts = 0.0;
    let start = now();
    while spans.len() < MIN_SIMS || start.elapsed().as_secs_f64() < seconds {
        let k = spans.len() % n;
        let cfg = pool.configs[k].clone();
        let t0 = now();
        let r = Network::new(cfg).run();
        let (fp, p) = (fingerprint(&r), delivered_pkts(&r));
        drop(r);
        spans.push((t0, now()));
        pkts += p;
        cal.tick();
        let want = *first[k].get_or_insert(fp);
        report.check(if fp == want {
            Ok(())
        } else {
            Err(format!(
                "scenario {k}: repeat run fingerprint {fp:016x} != first {want:016x}"
            ))
        });
    }
    for (k, want) in first.iter().enumerate() {
        let Some(want) = *want else { continue };
        let fp = fingerprint(&Network::new(with_null_sink(pool.configs[k].clone())).run());
        report.check(if fp == want {
            Ok(())
        } else {
            Err(format!(
                "scenario {k}: traced fingerprint {fp:016x} != untraced {want:016x}"
            ))
        });
    }
    cal.sample();
    let host: Vec<f64> = spans
        .iter()
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect();
    let ms: Vec<f64> = spans
        .iter()
        .map(|&(a, b)| cal.reference(a, b) * 1e3)
        .collect();
    let total_s = ms.iter().sum::<f64>() / 1e3;
    eprintln!(
        "timed: {} simulations of {n} scenarios; host p50 {:.3} ms, p90 {:.3} ms",
        ms.len(),
        median(&host),
        quantile(&host, 0.9)
    );
    report.metric("op_ms_p50", median(&ms), "ms");
    report.metric("op_ms_p90", quantile(&ms, 0.9), "ms");
    report.metric("ops_per_s", ms.len() as f64 / total_s, "1/s");
    report.metric("pkts_per_s", pkts / total_s, "pkt/s");
}

/// Sums over the traced simulations.
#[derive(Default)]
struct Totals {
    untraced_ns: f64,
    traced_ns: f64,
    pkts: f64,
    events: u64,
    trace_events: u64,
    dispatched: u64,
    samples: u64,
    offered: u64,
    dropped: u64,
    queue_hwm: u64,
    arrivals: u64,
    acks: u64,
}

/// Per-layer replay totals; `None` once any replay of the layer diverged.
#[derive(Clone, Copy)]
struct Layer(Option<Replayed>);

impl Layer {
    fn add(&mut self, outcome: &Result<Replayed, String>) {
        self.0 = match (self.0, outcome) {
            (Some(t), Ok(r)) => Some(Replayed {
                ops: t.ops + r.ops,
                ns: t.ns + r.ns,
            }),
            _ => None,
        };
    }

    fn per_op(&self) -> Option<f64> {
        self.0
            .filter(|t| t.ops > 0)
            .map(|t| t.ns as f64 / t.ops as f64)
    }
}

/// The traced run over `configs`: for each scenario, untraced runs (the
/// base time), a run into an in-memory trace and a run with recording
/// packet stores and CCAs; then every stream is replayed against a fresh
/// instance of its layer. A layer whose replay diverges anywhere has its
/// numbers withheld, and the divergence counts as a failed operation.
pub fn traced(configs: &[SimConfig], report: &mut Report) {
    let mut t = Totals::default();
    // wheel, link, jitter, receiver, pktstore, cca
    let mut layers = [Layer(Some(Replayed::default())); 6];
    for (k, cfg) in configs.iter().enumerate() {
        // Base time: the median of three untraced runs.
        let mut base = Vec::new();
        let mut result = None;
        for _ in 0..3 {
            let t0 = now();
            result = Some(Network::new(cfg.clone()).run());
            base.push(t0.elapsed().as_nanos() as f64);
        }
        let r = result.expect("three runs");
        let fp = fingerprint(&r);
        t.untraced_ns += median(&base);
        t.pkts += delivered_pkts(&r);
        t.events += r.events;
        t.samples += r
            .flows
            .iter()
            .map(|f| (f.rtt.len() + f.cwnd.len() + f.pacing.len() + f.delivered.len()) as u64)
            .sum::<u64>();
        drop(r);

        let rec = record(cfg);
        t.traced_ns += rec.traced_ns as f64;
        t.trace_events += rec.trace.len() as u64;
        for (what, got) in ["traced", "recorded"].into_iter().zip(rec.fingerprints) {
            report.check(if got == fp {
                Ok(())
            } else {
                Err(format!(
                    "scenario {k}: {what} run fingerprint {got:016x} != untraced {fp:016x}"
                ))
            });
        }
        let replays = match replay_all(cfg, &rec) {
            Ok(r) => r,
            Err(e) => {
                report.check(Err(format!("scenario {k}: trace is inconsistent: {e}")));
                layers = [Layer(None); 6];
                continue;
            }
        };
        drop(rec);
        let path = &replays.path;
        t.dispatched += path.dispatched();
        t.offered += path.offered;
        t.dropped += path.dropped;
        t.queue_hwm = t.queue_hwm.max(path.queue_hwm);
        t.arrivals += path.delivered();
        t.acks += replays.acks;
        for (layer, (name, outcome)) in layers.iter_mut().zip(replays.layers()) {
            report.check(
                outcome
                    .clone()
                    .map(|_| ())
                    .map_err(|e| format!("scenario {k}: {name} replay diverged: {e}")),
            );
            layer.add(outcome);
        }
    }
    let per = |n: f64, d: f64| n / d;
    let ev = t.events as f64;
    report.metric("wheel.events_per_pkt", per(ev, t.pkts), "count");
    report.metric(
        "wheel.timer_frac",
        per(ev - t.dispatched as f64, ev),
        "ratio",
    );
    report.metric(
        "link.drop_frac",
        per(t.dropped as f64, t.offered as f64),
        "ratio",
    );
    report.metric("link.queue_hwm_bytes", t.queue_hwm as f64, "count");
    report.metric(
        "receiver.acks_per_pkt",
        per(t.acks as f64, t.arrivals as f64),
        "count",
    );
    let [wheel, link, jitter, receiver, pktstore, cca] = layers;
    if let Some(s) = pktstore.0 {
        report.metric("pktstore.calls_per_pkt", per(s.ops as f64, t.pkts), "count");
    }
    if let Some(c) = cca.0 {
        report.metric("cca.calls_per_pkt", per(c.ops as f64, t.pkts), "count");
    }
    for (layer, name) in [
        (wheel, "wheel.ns_per_op"),
        (link, "link.ns_per_pkt"),
        (jitter, "jitter.ns_per_pkt"),
        (receiver, "receiver.ns_per_pkt"),
        (pktstore, "pktstore.ns_per_call"),
        (cca, "cca.ns_per_call"),
    ] {
        if let Some(v) = layer.per_op() {
            report.metric(name, v, "ns");
        }
    }
    if layers.iter().all(|l| l.0.is_some()) {
        let replayed: f64 = layers.iter().filter_map(|l| l.0).map(|r| r.ns as f64).sum();
        report.metric(
            "loop.residual_frac",
            1.0 - replayed / t.untraced_ns,
            "ratio",
        );
    }
    let n = configs.len() as f64;
    report.metric("loop.untraced_ms", t.untraced_ns / n / 1e6, "ms");
    report.metric("trace.traced_ms", t.traced_ns / n / 1e6, "ms");
    report.metric(
        "trace.overhead_frac",
        t.traced_ns / t.untraced_ns - 1.0,
        "ratio",
    );
    report.metric(
        "trace.events_per_pkt",
        per(t.trace_events as f64, t.pkts),
        "count",
    );
    report.metric(
        "metrics.samples_per_pkt",
        per(t.samples as f64, t.pkts),
        "count",
    );
}
