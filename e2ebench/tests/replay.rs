//! Replay self-checks: every layer replay reproduces the canonical
//! scenarios exactly, and rejects a stream with one call dropped.

use e2ebench::record::{record, Recording};
use e2ebench::replay::{replay_all, LayerReplays};
use netsim::SimConfig;
use simcore::trace::Event;
use std::path::PathBuf;

fn canonical(name: &str) -> SimConfig {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../tests/scenarios/{name}.scn"));
    scenario::compile(&scenario::load_file(&path).unwrap_or_else(|e| panic!("{e}")))
}

const CANONICAL: [&str; 5] = [
    "bbr-two-flow",
    "copa-jitter",
    "reno-ideal",
    "vivace-lossy",
    "workload-1k",
];

fn diverged(r: Result<LayerReplays, String>) -> Vec<&'static str> {
    match r {
        Err(_) => vec!["trace"],
        Ok(r) => r
            .layers()
            .iter()
            .filter(|(_, o)| o.is_err())
            .map(|(name, _)| *name)
            .collect(),
    }
}

#[test]
fn replays_reproduce_every_canonical_scenario() {
    for name in CANONICAL {
        let cfg = canonical(name);
        let rec = record(&cfg);
        assert_eq!(
            rec.fingerprints[0], rec.fingerprints[1],
            "{name}: recorders changed the result"
        );
        let r = replay_all(&cfg, &rec).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (layer, outcome) in r.layers() {
            let done = outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}: {layer} replay diverged: {e}"));
            assert!(done.ops > 0, "{name}: {layer} replay issued no operations");
        }
        assert_eq!(
            r.path.delivered(),
            r.acks,
            "{name}: per-packet ACK policy acks every arrival"
        );
    }
}

/// The recording with the `n`-th trace event of class `class` removed.
fn without_event(rec: &Recording, class: &str, n: usize) -> Recording {
    let mut trace = rec.trace.clone();
    let at = trace
        .iter()
        .enumerate()
        .filter(|(_, (_, e))| e.class() == class)
        .nth(n)
        .map(|(i, _)| i)
        .unwrap_or_else(|| panic!("no {class} event #{n}"));
    trace.remove(at);
    Recording {
        trace,
        store: rec.store.clone(),
        cca: clone_cca(rec),
        ..*rec
    }
}

fn clone_cca(rec: &Recording) -> Vec<e2ebench::record::CcaLog> {
    rec.cca
        .iter()
        .map(|l| e2ebench::record::CcaLog {
            initial: l.initial.clone_box(),
            calls: l.calls.clone(),
        })
        .collect()
}

#[test]
fn a_stream_missing_one_call_is_rejected() {
    let cfg = canonical("bbr-two-flow");
    let rec = record(&cfg);
    // Trace-derived streams: link offers and departures, jitter holds,
    // receiver arrivals, ACKs (the receiver's expected output).
    for class in ["enqueue", "dequeue", "jitter-hold", "jitter-release", "ack"] {
        let bad = diverged(replay_all(&cfg, &without_event(&rec, class, 10)));
        assert!(!bad.is_empty(), "dropping a {class} event went unnoticed");
    }
    // The wheel alone: a dropped hold removes a scheduled arrival that the
    // trace still shows dispatched.
    let held = without_event(&rec, "jitter-hold", 10);
    let r = replay_all(&cfg, &held);
    assert!(r.is_err() || r.as_ref().is_ok_and(|r| r.wheel.is_err()));

    // Packet store: drop the tenth call of the first flow's stream.
    let mut store = rec.store.clone();
    store[0].remove(10);
    let bad = Recording {
        trace: rec.trace.clone(),
        store,
        cca: clone_cca(&rec),
        ..rec
    };
    assert_eq!(diverged(replay_all(&cfg, &bad)), ["pktstore"]);

    // CCA: drop an ACK from a slow-starting NewReno flow.
    let cfg = canonical("reno-ideal");
    let rec = record(&cfg);
    let mut cca = clone_cca(&rec);
    let first_ack = cca[0]
        .calls
        .iter()
        .position(|(c, _)| matches!(c, e2ebench::record::CcaInput::Ack(_)))
        .expect("an ACK call");
    cca[0].calls.remove(first_ack);
    let bad = Recording {
        trace: rec.trace.clone(),
        store: rec.store.clone(),
        cca,
        ..rec
    };
    assert_eq!(diverged(replay_all(&cfg, &bad)), ["cca"]);
}

#[test]
fn trace_has_the_classes_the_replays_read() {
    let rec = record(&canonical("workload-1k"));
    for class in [
        "send",
        "enqueue",
        "dequeue",
        "jitter-hold",
        "jitter-release",
        "ack",
        "flow-arrive",
    ] {
        assert!(
            rec.trace.iter().any(|(_, e)| e.class() == class),
            "no {class} events"
        );
    }
    assert!(
        !rec.trace
            .iter()
            .any(|(_, e)| matches!(e, Event::Drop { .. })),
        "ample buffer never drops"
    );
}
