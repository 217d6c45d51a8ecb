//! Metamorphic equivalence suite for the arena packet store.
//!
//! The sender's per-sequence bookkeeping moved from four B-tree
//! containers to the flat slot arena ([`netsim::PktStore`]). The original
//! containers survive verbatim as [`netsim::RefStore`] behind the same
//! [`netsim::SeqStore`] trait, which makes the old implementation an
//! executable specification: `Network::<RefStore>` must be observably
//! indistinguishable from the default arena-backed `Network`.
//!
//! Three relations (same shape as the wheel-vs-BinaryHeap suite that
//! guarded the timer-wheel swap):
//!
//! * the reference store reproduces the committed golden trace digests —
//!   so the arena, which is separately pinned to those digests by
//!   `tests/golden_traces.rs`, agrees with the reference on the full
//!   packet-level timeline of every canonical scenario;
//! * bit-identical `SimResult`s between arena and reference across a
//!   seeded loss/SACK-heavy grid chosen to hammer exactly the paths the
//!   arena rewrote (SACK merges, hole detection, RTO drains, datagram
//!   go-front scans);
//! * the batched wheel pop dispatches in exactly the order a single-pop
//!   loop produces, including same-time events scheduled mid-batch.
//!
//! Plus the byte-accounting regression for partial final segments: a
//! Pareto-sized workload (sizes almost never a multiple of the MSS) runs
//! under the trace auditor, whose per-ACK identity
//! `sent + spurious_rtx = delivered + in_flight + lost + unresolved`
//! is the oracle that per-packet byte accounting stays exact.

use netsim::{
    ArrivalProcess, FlowConfig, Jitter, LinkConfig, Network, RefStore, SimConfig, SimResult,
    SizeDist, Workload,
};
use simcore::wheel::TimerWheel;
use simcore::rng::Xoshiro256;
use simcore::series::TimeSeries;
use simcore::trace::{RingSink, TraceSink};
use simcore::units::{Dur, Rate, Time};
use starvation::{canonical_scenario, CANONICAL};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn series_bits(s: &TimeSeries) -> Vec<(u128, u64)> {
    s.points()
        .iter()
        .map(|&(t, v)| (t.as_nanos() as u128, v.to_bits()))
        .collect()
}

fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.end, b.end, "{what}: end");
    assert_eq!(a.events, b.events, "{what}: event count");
    assert_eq!(a.utilization.to_bits(), b.utilization.to_bits(), "{what}: utilization");
    assert_eq!(a.flows.len(), b.flows.len(), "{what}: flow count");
    for (i, (fa, fb)) in a.flows.iter().zip(&b.flows).enumerate() {
        assert_eq!(fa.drops, fb.drops, "{what}: flow {i} drops");
        assert_eq!(fa.sent_bytes, fb.sent_bytes, "{what}: flow {i} sent");
        assert_eq!(fa.lost_bytes, fb.lost_bytes, "{what}: flow {i} lost");
        assert_eq!(
            fa.retransmitted_bytes, fb.retransmitted_bytes,
            "{what}: flow {i} retransmitted"
        );
        assert_eq!(fa.fast_retransmits, fb.fast_retransmits, "{what}: flow {i} fr");
        assert_eq!(fa.timeouts, fb.timeouts, "{what}: flow {i} timeouts");
        assert_eq!(fa.completed, fb.completed, "{what}: flow {i} completion");
        assert_eq!(series_bits(&fa.rtt), series_bits(&fb.rtt), "{what}: flow {i} rtt");
        assert_eq!(series_bits(&fa.cwnd), series_bits(&fb.cwnd), "{what}: flow {i} cwnd");
        assert_eq!(
            series_bits(&fa.delivered),
            series_bits(&fb.delivered),
            "{what}: flow {i} delivered"
        );
    }
}

/// The reference (B-tree) store must reproduce the *committed* golden
/// digests. `tests/golden_traces.rs` pins the arena to the same files, so
/// together the two tests prove arena and reference agree event-for-event
/// on every canonical scenario.
#[test]
fn reference_store_reproduces_golden_digests() {
    for &name in CANONICAL {
        let ring = RingSink::new(16);
        let probe = ring.clone();
        let cfg = canonical_scenario(name)
            .unwrap_or_else(|| panic!("unknown canonical scenario {name}"))
            .with_trace(Arc::new(move || Box::new(probe.clone()) as Box<dyn TraceSink>))
            .with_audit(true);
        Network::<RefStore>::with_store(cfg).run();
        let got = ring.digest().render();
        let path = golden_dir().join(format!("{name}.digest"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(got, want, "reference store diverged from golden on {name}");
    }
}

/// One cell of the loss/SACK-heavy grid: two adaptive reliable flows with
/// Bernoulli loss and jitter (SACK merges, hole detection, fast
/// retransmit, RTO) plus a lossy datagram flow (the go-front scan path).
fn grid_config(seed: u64, loss: f64) -> SimConfig {
    let link = LinkConfig::bdp_buffer(Rate::from_mbps(30.0), Dur::from_millis(40), 0.8);
    let f1 = FlowConfig::bulk(Box::new(cca::Bbr::new(1500, seed)), Dur::from_millis(40))
        .with_jitter(Jitter::Random {
            max: Dur::from_millis(4),
            rng: Xoshiro256::new(seed.wrapping_mul(3).wrapping_add(1)),
        })
        .with_loss(loss, seed.wrapping_add(100));
    let f2 = FlowConfig::bulk(Box::new(cca::Cubic::default_params()), Dur::from_millis(60))
        .with_loss(2.0 * loss, seed.wrapping_add(200));
    let f3 = FlowConfig::bulk(
        Box::new(cca::Vivace::new(seed.wrapping_add(7))),
        Dur::from_millis(50),
    )
    .with_transport(netsim::Transport::Datagram)
    .with_loss(loss, seed.wrapping_add(300));
    SimConfig::new(link, vec![f1, f2, f3], Dur::from_secs(5))
}

#[test]
fn arena_matches_reference_on_loss_sack_grid() {
    for seed in [1u64, 7, 42] {
        for loss in [0.005, 0.03] {
            let arena = Network::new(grid_config(seed, loss)).run();
            let reference = Network::<RefStore>::with_store(grid_config(seed, loss)).run();
            // Sanity: the grid actually exercises the rewritten paths.
            assert!(
                arena.flows.iter().any(|f| f.lost_bytes > 0),
                "grid cell seed={seed} loss={loss} saw no loss"
            );
            assert_bit_identical(&arena, &reference, &format!("seed={seed} loss={loss}"));
        }
    }
}

/// Satellite regression: byte accounting must stay exact for finite
/// transfers whose size is not a multiple of the MSS. The Pareto size
/// distribution makes ragged sizes the common case; the auditor checks
/// `sent + spurious_rtx = delivered + in_flight + lost + unresolved`
/// per-packet on every ACK and panics the run on the first violation.
#[test]
fn pareto_sized_flows_keep_exact_byte_accounting_under_audit() {
    let link = LinkConfig::bdp_buffer(Rate::from_mbps(20.0), Dur::from_millis(30), 1.0);
    let wl = Workload::new(
        40,
        ArrivalProcess::Poisson {
            mean: Dur::from_millis(40),
            seed: 11,
        },
        SizeDist::Pareto {
            min_bytes: 2001, // never a multiple of the 1500-byte MSS
            alpha: 1.3,
            cap_bytes: 400_000,
            seed: 13,
        },
        Box::new(cca::NewReno::default_params()),
        Dur::from_millis(30),
    )
    .with_start(Time::from_millis(50))
    .with_jitter(Dur::from_millis(2), 17)
    .with_loss(0.02, 19);
    let cfg = SimConfig::new(link, Vec::new(), Dur::from_secs(12))
        .with_workload(wl)
        .with_audit(true);
    let res = Network::new(cfg).run();
    let done = res.flows.iter().filter(|f| f.completed.is_some()).count();
    assert!(done > 10, "too few finite flows completed: {done}");
    assert!(
        res.flows.iter().any(|f| f.lost_bytes > 0),
        "loss never fired; the audit exercised nothing"
    );
    // And the arena agrees with the reference store on the whole run.
    let cfg2 = |audit| {
        let wl = Workload::new(
            40,
            ArrivalProcess::Poisson {
                mean: Dur::from_millis(40),
                seed: 11,
            },
            SizeDist::Pareto {
                min_bytes: 2001,
                alpha: 1.3,
                cap_bytes: 400_000,
                seed: 13,
            },
            Box::new(cca::NewReno::default_params()),
            Dur::from_millis(30),
        )
        .with_start(Time::from_millis(50))
        .with_jitter(Dur::from_millis(2), 17)
        .with_loss(0.02, 19);
        SimConfig::new(
            LinkConfig::bdp_buffer(Rate::from_mbps(20.0), Dur::from_millis(30), 1.0),
            Vec::new(),
            Dur::from_secs(12),
        )
        .with_workload(wl)
        .with_audit(audit)
    };
    let reference = Network::<RefStore>::with_store(cfg2(true)).run();
    assert_bit_identical(&res, &reference, "pareto workload");
}

/// Property test: draining the queue with `pop_batch_at_or_before` yields
/// exactly the `(time, payload)` sequence of a single-pop loop, under a
/// seeded schedule dense with ties and with same-time events scheduled
/// *during* dispatch (the follow-up pattern simulation handlers use).
#[test]
fn batched_pop_matches_single_pop_order() {
    fn run_single(seed: u64) -> Vec<(Time, u64)> {
        let (mut q, mut rng) = seeded_queue(seed);
        let mut out = Vec::new();
        let mut budget = 200u32; // follow-up events scheduled mid-dispatch
        while let Some((t, v)) = q.pop_at_or_before(Time::from_millis(u64::MAX / 2_000_000)) {
            out.push((t, v));
            maybe_follow_up(&mut q, &mut rng, t, v, &mut budget);
        }
        out
    }

    fn run_batched(seed: u64) -> Vec<(Time, u64)> {
        let (mut q, mut rng) = seeded_queue(seed);
        let mut out = Vec::new();
        let mut batch = Vec::new();
        let mut budget = 200u32;
        while let Some(t) = q.pop_batch_at_or_before(Time::from_millis(u64::MAX / 2_000_000), &mut batch)
        {
            for v in batch.drain(..) {
                out.push((t, v));
                maybe_follow_up(&mut q, &mut rng, t, v, &mut budget);
            }
        }
        out
    }

    fn seeded_queue(seed: u64) -> (TimerWheel<u64>, Xoshiro256) {
        let mut rng = Xoshiro256::new(seed);
        let mut q = TimerWheel::new();
        // A handful of tick-sharing time values so batches are non-trivial.
        let times: Vec<Time> = (0..40)
            .map(|_| Time(rng.next_u64() % 5_000_000))
            .collect();
        for i in 0..2000u64 {
            let t = times[(rng.next_u64() % times.len() as u64) as usize];
            q.schedule_at(t, i);
        }
        (q, rng)
    }

    /// Deterministically (from the shared PRNG stream) schedule follow-up
    /// events at the current instant or slightly later — the pattern that
    /// distinguishes batch semantics from a frozen snapshot of the queue.
    fn maybe_follow_up(q: &mut TimerWheel<u64>, rng: &mut Xoshiro256, t: Time, v: u64, budget: &mut u32) {
        if *budget == 0 {
            return;
        }
        match rng.next_u64() % 8 {
            0 => {
                *budget -= 1;
                q.schedule_at(t, 1_000_000 + v); // same-instant follow-up
            }
            1 => {
                *budget -= 1;
                q.schedule_at(t + Dur(1 + rng.next_u64() % 10_000), 2_000_000 + v);
            }
            _ => {}
        }
    }

    for seed in [3u64, 17, 99, 2024] {
        assert_eq!(run_single(seed), run_batched(seed), "seed {seed}");
    }
}
