//! Benches that regenerate the paper's *experiments* at reduced duration —
//! §5's starvation scenarios, the Theorem 1 construction, Algorithm 1's
//! ablation, and a ccmc model-checker query. Each iteration runs the whole
//! scenario, so the reported time is the cost of reproducing that result.
//! Results land in `results/bench/scenarios.json`.

use netsim::Network;
use simcore::units::{Dur, Rate};
use starvation::paper;
use std::hint::black_box;
use testkit::bench::Runner;

fn bench_copa_starvation(r: &mut Runner) {
    r.bench("scenarios/copa_minrtt_poison_10s", || {
        let config = paper::copa_pair(Dur::from_millis(1), Dur::from_secs(10));
        black_box(Network::new(config).run().throughput_ratio())
    });
}

fn bench_bbr_starvation(r: &mut Runner) {
    r.bench("scenarios/bbr_rtt_asymmetry_10s", || {
        let config = paper::bbr_rtt_pair(0, Dur::from_secs(10));
        black_box(Network::new(config).run().throughput_ratio())
    });
}

fn bench_vivace_starvation(r: &mut Runner) {
    r.bench("scenarios/vivace_ack_quantization_10s", || {
        let config = paper::vivace_quantized_pair(0, Dur::from_secs(10));
        black_box(Network::new(config).run().throughput_ratio())
    });
}

fn bench_allegro_starvation(r: &mut Runner) {
    r.bench("scenarios/allegro_asymmetric_loss_15s", || {
        let config = paper::allegro_loss_pair(0, Dur::from_secs(15));
        black_box(Network::new(config).run().throughput_ratio())
    });
}

fn bench_theorem1(r: &mut Runner) {
    use cca::factory;
    use starvation::theorem1::{run_theorem1, Theorem1Config};
    r.bench("scenarios/theorem1_vegas_quick", || {
        let f = factory(|| Box::new(cca::Vegas::default_params()));
        let mut cfg = Theorem1Config::quick();
        cfg.record_duration = Dur::from_secs(15);
        cfg.emulate_duration = Dur::from_secs(10);
        black_box(run_theorem1(&f, cfg).map(|r| r.ratio()))
    });
}

fn bench_algo1_ablation(r: &mut Runner) {
    // Ablation from DESIGN.md: Algorithm 1 vs Vegas under the same
    // asymmetric jitter (the jitter-aware mapping on/off), on §6.3's
    // `paper::jitter_pair` — the configuration the integration tests
    // assert fairness on.
    use cca::jitter_aware::JitterAwareConfig;
    type MkCca = Box<dyn Fn(u64) -> cca::BoxCca>;
    let cases: Vec<(&str, MkCca)> = vec![
        (
            "jitter_aware",
            Box::new(|_| {
                let mut cfg = JitterAwareConfig::example(Dur::from_millis(50));
                cfg.a = Rate::from_mbps(0.4);
                Box::new(cca::JitterAware::new(cfg)) as cca::BoxCca
            }),
        ),
        (
            "vegas_control",
            Box::new(|_| Box::new(cca::Vegas::default_params()) as cca::BoxCca),
        ),
    ];
    for (name, mk) in cases {
        r.bench(&format!("scenarios/algo1_ablation_15s/{name}"), || {
            let config = paper::jitter_pair(&mk, Dur::from_millis(10), 11, Dur::from_secs(15));
            black_box(Network::new(config).run().throughput_ratio())
        });
    }
}

fn bench_ccmc(r: &mut Runner) {
    use ccmc::{search_max_ratio, ModelConfig, ModelState, SearchConfig};
    r.bench("scenarios/ccmc_exhaustive_h5", || {
        let m = ModelState::new(
            ModelConfig {
                rate: Rate::from_mbps(12.0),
                tau: Dur::from_millis(20),
                d_steps: 2,
                buffer: 40 * 1500,
                rm: Dur::from_millis(40),
                horizon: 5,
            },
            vec![
                Box::new(cca::NewReno::default_params()),
                Box::new(cca::NewReno::default_params()),
            ],
        );
        black_box(search_max_ratio(&m, 5, SearchConfig::default()).best_value)
    });
}

fn main() {
    let mut r = Runner::from_args("scenarios");
    bench_copa_starvation(&mut r);
    bench_bbr_starvation(&mut r);
    bench_vivace_starvation(&mut r);
    bench_allegro_starvation(&mut r);
    bench_theorem1(&mut r);
    bench_algo1_ablation(&mut r);
    bench_ccmc(&mut r);
    r.finish();
}
