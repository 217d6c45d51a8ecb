//! Benches that regenerate the paper's *figures* (shortened parameters —
//! the full regeneration is `repro <fig> [--quick]`). Each figure gets a
//! tracked wall-time in `results/bench/figures.json` so regressions in the
//! pipeline show up.

use std::hint::black_box;
use testkit::bench::Runner;

fn bench_fig1(r: &mut Runner) {
    r.bench("figures/fig1_copa_trajectory", || {
        black_box(repro::fig1::run(true).conv.delta())
    });
}

fn bench_fig2(r: &mut Runner) {
    r.bench("figures/fig2_vegas_rate_delay", || {
        black_box(repro::fig2::run(true).points.len())
    });
}

fn bench_fig3(r: &mut Runner) {
    // The full 4-panel sweep is heavy; bench a single representative panel
    // via the public profiler on two rates.
    use cca::factory;
    use simcore::units::Dur;
    use starvation::profiler::profile_rate_delay;
    r.bench("figures/fig3_single_panel_2pts", || {
        let f = factory(|| Box::new(cca::Copa::default_params()));
        let rates = [
            simcore::units::Rate::from_mbps(12.0),
            simcore::units::Rate::from_mbps(48.0),
        ];
        let pts = profile_rate_delay(&f, &rates, Dur::from_millis(100), Dur::from_secs(10));
        black_box(pts.len())
    });
}

fn bench_fig7(r: &mut Runner) {
    use simcore::units::Dur;
    r.bench("figures/fig7_reno_delayed_acks_20s", || {
        let mk = || Box::new(cca::NewReno::default_params()) as cca::BoxCca;
        let config = starvation::paper::delayed_ack_pair(mk, Dur::from_secs(20));
        black_box(netsim::Network::new(config).run().throughput_ratio())
    });
}

fn bench_merit(r: &mut Runner) {
    use simcore::units::Dur;
    use starvation::merit::{exponential_merit, vegas_family_merit};
    r.bench("figures/merit_table_eval", || {
        let mut acc = 0.0;
        for d_ms in 1..50u64 {
            let d = Dur::from_millis(d_ms);
            acc += exponential_merit(Dur::from_millis(100), Dur::from_millis(0), d, 2.0);
            acc += vegas_family_merit(Dur::from_millis(100), Dur::from_millis(0), d, 2.0);
        }
        black_box(acc)
    });
}

fn main() {
    let mut r = Runner::from_args("figures");
    bench_fig1(&mut r);
    bench_fig2(&mut r);
    bench_fig3(&mut r);
    bench_fig7(&mut r);
    bench_merit(&mut r);
    r.finish();
}
