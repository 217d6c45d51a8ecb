//! Seeded input generation. Every workload's inputs derive from the
//! benchmark seed alone; the simulator only ever sees the generated
//! scenario sources (or the sweep grid built from them).

use simcore::rng::Xoshiro256;
use simcore::units::Dur;
use starvation::sweep::{CcaSpec, ScenarioSpec, SweepJob};

/// Scenarios in the `population` and `contended` pools. The closed loop
/// cycles through the pool, so each run's medians average over this many
/// independent draws.
pub const POOL: usize = 64;

/// Child generator `i` of the benchmark seed.
fn rng(seed: u64, stream: u64, i: u64) -> Xoshiro256 {
    Xoshiro256::new(
        seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

fn draw_seed(r: &mut Xoshiro256) -> u64 {
    1 + r.range_u64(1 << 31)
}

/// One `population` scenario: a Poisson-arrival, bounded-Pareto-sized
/// NewReno population (the `workload-1k` family) on an ample-buffer,
/// 2 ms-jittered 48 Mbit/s link, offered roughly two thirds of capacity.
pub fn population_source(seed: u64, i: usize) -> String {
    let mut r = rng(seed, 1, i as u64);
    let rtt = 10 + r.range_u64(31);
    let (arrivals, sizes, jitter) = (draw_seed(&mut r), draw_seed(&mut r), draw_seed(&mut r));
    format!(
        "scenario \"population-{i}\" {{\n  link {{ rate 48mbps buffer ample }}\n  duration 12s\n  workload {{\n    flows 1000\n    arrivals poisson 8ms seed {arrivals}\n    sizes pareto 12000B 1.3 300000B seed {sizes}\n    cca reno\n    rtt {rtt}ms\n    jitter 2ms seed {jitter}\n    start 100ms\n  }}\n}}\n"
    )
}

/// One `contended` scenario: five long-lived flows running the paper's
/// CCAs — two BBR, Copa behind random jitter, Vivace over datagram
/// transport and Cubic — through a two-BDP buffer with random loss
/// (§5's starvation setting). Only the random streams vary between
/// scenarios: the tail-drop storms BBR provokes already make their costs
/// vary widely.
pub fn contended_source(seed: u64, i: usize) -> String {
    let mut r = rng(seed, 2, i as u64);
    let flow = |id: &str, cca: &str, extra: &str, r: &mut Xoshiro256| {
        format!(
            "  flow {id} {{\n    cca {cca}\n    rtt 40ms\n    loss 0.002 seed {}\n{extra}  }}\n",
            draw_seed(r)
        )
    };
    let copa_jitter = format!("    jitter 10ms seed {}\n", draw_seed(&mut r));
    let flows = [
        flow("b0", "bbr", "", &mut r),
        flow("b1", "bbr", "", &mut r),
        flow("c0", "copa", &copa_jitter, &mut r),
        flow("v0", "vivace", "    transport datagram\n", &mut r),
        flow("u0", "cubic", "", &mut r),
    ];
    format!(
        "scenario \"contended-{i}\" {{\n  link {{ rate 48mbps buffer bdp 2 40ms }}\n  duration 8s\n{}}}\n",
        flows.concat()
    )
}

/// The `commands` workload's sweep grid: CCA × rate × jitter × seed over
/// the two-flow asymmetric-jitter topology, 3 × 2 × 2 × 2 = 24 points.
/// Only the seeds come from the benchmark seed: the rates and jitter set
/// how much work the grid is, which must not vary between runs.
pub fn grid(seed: u64) -> ScenarioSpec {
    let mut r = rng(seed, 3, 0);
    let seeds = [draw_seed(&mut r), draw_seed(&mut r)];
    ScenarioSpec::new("bench-grid")
        .cca(CcaSpec::new("copa", |_s| {
            Box::new(cca::Copa::default_params())
        }))
        .cca(CcaSpec::new("bbr", |s| Box::new(cca::Bbr::new(1500, s))))
        .cca(CcaSpec::new("cubic", |_s| {
            Box::new(cca::Cubic::default_params())
        }))
        .rates_mbps(&[32.0, 64.0])
        .rtts_ms(&[40])
        .jitters_ms(&[0, 10])
        .seeds(&seeds)
        .duration(Dur::from_secs(20))
        .sample_every(Dur::from_millis(20))
}

/// The grid's jobs, in row-major order.
pub fn grid_jobs(seed: u64) -> Vec<SweepJob> {
    grid(seed).expand()
}

/// The fuzz campaign's master seed: fixed, the CI smoke campaign's. The
/// fuzzer generates its scenarios from this seed, and their sizes vary so
/// much between seeds that a 240-scenario campaign's time per scenario
/// ranged 3.0–5.4 ms over three benchmark seeds; a fixed campaign keeps
/// every run's work the same.
pub const FUZZ_SEED: u64 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_parse_and_depend_on_the_seed() {
        for i in 0..3 {
            for src in [population_source(7, i), contended_source(7, i)] {
                scenario::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            }
        }
        assert_eq!(population_source(7, 0), population_source(7, 0));
        assert_ne!(population_source(7, 0), population_source(8, 0));
        assert_ne!(contended_source(7, 0), contended_source(7, 1));
        assert_eq!(grid_jobs(7).len(), 24);
    }
}
