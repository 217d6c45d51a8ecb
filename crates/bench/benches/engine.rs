//! Microbenchmarks of the simulation substrate: event queue, filters,
//! PRNG, CCA ack-processing cost, and end-to-end simulator throughput
//! (simulated packets per wall-second).
//!
//! Run with `cargo bench` (full) or `cargo bench -- --quick` (smoke mode);
//! results land in `results/bench/engine.json`.

use cca::AckEvent;
use netsim::{FlowConfig, LinkConfig, Network, SimConfig};
use simcore::wheel::TimerWheel;
use simcore::filter::{WindowedMax, WindowedMin};
use simcore::rng::Xoshiro256;
use simcore::units::{Dur, Rate, Time};
use std::hint::black_box;
use testkit::bench::Runner;

fn bench_event_queue(r: &mut Runner) {
    r.bench("engine/event_queue_push_pop_1k", || {
        let mut q = TimerWheel::new();
        for i in 0..1000u64 {
            q.schedule_at(Time(i * 977 % 50_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        black_box(acc)
    });
}

fn bench_filters(r: &mut Runner) {
    let mut rng = Xoshiro256::new(5);
    r.bench("engine/windowed_max_insert_1k", || {
        let mut f = WindowedMax::new(100);
        for i in 0..1000u64 {
            f.insert(i, rng.next_f64());
        }
        black_box(f.get())
    });
    let mut rng = Xoshiro256::new(6);
    r.bench("engine/windowed_min_insert_1k", || {
        let mut f = WindowedMin::new(100);
        for i in 0..1000u64 {
            f.insert(i, rng.next_f64());
        }
        black_box(f.get())
    });
}

fn bench_rng(r: &mut Runner) {
    let mut rng = Xoshiro256::new(7);
    r.bench("engine/xoshiro_next_1k", || {
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        black_box(acc)
    });
}

fn bench_cca_on_ack(r: &mut Runner) {
    type MkCca = Box<dyn Fn() -> cca::BoxCca>;
    let algos: Vec<(&str, MkCca)> = vec![
        ("vegas", Box::new(|| Box::new(cca::Vegas::default_params()))),
        ("copa", Box::new(|| Box::new(cca::Copa::default_params()))),
        ("bbr", Box::new(|| Box::new(cca::Bbr::default_params()))),
        ("vivace", Box::new(|| Box::new(cca::Vivace::default_params()))),
        ("cubic", Box::new(|| Box::new(cca::Cubic::default_params()))),
    ];
    for (name, mk) in algos {
        r.bench(&format!("engine/cca_on_ack_1k/{name}"), || {
            let mut cca = mk();
            let mut now = Time::ZERO;
            let mut delivered = 0u64;
            for _ in 0..1000 {
                now += Dur::from_micros(500);
                delivered += 1500;
                cca.on_ack(&AckEvent {
                    now,
                    rtt: Dur::from_millis(50),
                    newly_acked: 1500,
                    in_flight: 30 * 1500,
                    delivered,
                    delivered_at_send: delivered.saturating_sub(30 * 1500),
                    delivery_rate: Some(Rate::from_mbps(24.0)),
                    app_limited: false,
                    ecn: false,
                });
            }
            black_box(cca.cwnd())
        });
    }
}

fn bench_simulator_throughput(r: &mut Runner) {
    // One saturating flow, 5 simulated seconds at 24 Mbit/s ≈ 10k packets.
    r.bench("engine/sim_5s_24mbps_single_flow", || {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(24.0));
        let flow = FlowConfig::bulk(
            Box::new(cca::ConstCwnd::new(120 * 1500)),
            Dur::from_millis(40),
        );
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(5))).run();
        black_box(r.flows[0].total_delivered())
    });
}

fn main() {
    let mut r = Runner::from_args("engine");
    bench_event_queue(&mut r);
    bench_filters(&mut r);
    bench_rng(&mut r);
    bench_cca_on_ack(&mut r);
    bench_simulator_throughput(&mut r);
    r.finish();
}
