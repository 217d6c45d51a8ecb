//! The paper's paired-flow scenarios, one seeded constructor each.
//!
//! §5's four starvation experiments, Figure 7's delayed-ACK pair and
//! §6.3's one-jittered, one-clean pair are built here and nowhere else:
//! the `repro` experiments, the seed sweep, the ablations, the benches,
//! the examples and the integration tests all call these functions, so
//! every view of a scenario runs the same configuration.
//!
//! Seeds follow one convention. A paired scenario at seed `s` gives its
//! first (disadvantaged) flow CCA seed `2s + 1` and its second flow
//! `2s + 2`; seed 0 is the configuration `repro` publishes.

use cca::BoxCca;
use netsim::{AckPolicy, FlowConfig, Jitter, LinkConfig, SimConfig, Transport};
use simcore::rng::Xoshiro256;
use simcore::units::{Dur, Rate};

/// The 120 Mbit/s ample-buffer link of §5.1–§5.3.
pub fn section5_link() -> LinkConfig {
    LinkConfig::ample_buffer(Rate::from_mbps(120.0))
}

/// §5.1: a Copa flow whose min-RTT estimate is poisoned. The path's
/// propagation RTT is `60 ms − poison`, and every packet gets `poison`
/// of extra delay except one in every 5000, which refreshes the too-low
/// minimum within Copa's 10 s window.
pub fn copa_poisoned(poison: Dur) -> FlowConfig {
    FlowConfig::bulk(
        Box::new(cca::Copa::default_params()),
        Dur::from_millis(60) - poison,
    )
    .with_jitter(Jitter::ExtraExcept {
        extra: poison,
        period: 5_000,
        offset: 0,
    })
}

/// §5.1: a Copa flow on a clean 60 ms path.
pub fn copa_clean() -> FlowConfig {
    FlowConfig::bulk(Box::new(cca::Copa::default_params()), Dur::from_millis(60))
}

/// §5.1: the poisoned Copa flow against a clean one on the §5 link.
pub fn copa_pair(poison: Dur, dur: Dur) -> SimConfig {
    SimConfig::new(
        section5_link(),
        vec![copa_poisoned(poison), copa_clean()],
        dur,
    )
}

/// §5.2: BBR flows with `Rm` 40 ms and 80 ms on the §5 link, each path
/// with up to 2 ms of random jitter seeded `7·(CCA seed) + 1`.
pub fn bbr_rtt_pair(seed: u64, dur: Dur) -> SimConfig {
    let flow = |rm_ms: u64, cca_seed: u64| {
        FlowConfig::bulk(
            Box::new(cca::Bbr::new(1500, cca_seed)),
            Dur::from_millis(rm_ms),
        )
        .with_jitter(Jitter::Random {
            max: Dur::from_millis(2),
            rng: Xoshiro256::new(cca_seed * 7 + 1),
        })
    };
    SimConfig::new(
        section5_link(),
        vec![flow(40, seed * 2 + 1), flow(80, seed * 2 + 2)],
        dur,
    )
}

/// §5.3: two datagram Vivace flows at `Rm` = 60 ms on the §5 link; the
/// first flow's ACKs are released only at 60 ms multiples.
pub fn vivace_quantized_pair(seed: u64, dur: Dur) -> SimConfig {
    let rm = Dur::from_millis(60);
    let flow = |cca_seed: u64| {
        FlowConfig::bulk(Box::new(cca::Vivace::new(cca_seed)), rm)
            .with_transport(Transport::Datagram)
    };
    let quantized = flow(seed * 2 + 1).with_ack_policy(AckPolicy::Quantized {
        period: Dur::from_millis(60),
    });
    SimConfig::new(section5_link(), vec![quantized, flow(seed * 2 + 2)], dur)
}

/// §5.4: the 120 Mbit/s, 40 ms link with a 1-BDP buffer.
pub fn allegro_link() -> LinkConfig {
    LinkConfig::bdp_buffer(Rate::from_mbps(120.0), Dur::from_millis(40), 1.0)
}

/// §5.4: a datagram Allegro flow at `Rm` = 40 ms with Bernoulli random
/// loss `loss` drawn from stream `loss_seed` (no loss when `loss` is 0).
pub fn allegro_flow(loss: f64, cca_seed: u64, loss_seed: u64) -> FlowConfig {
    let f = FlowConfig::bulk(Box::new(cca::Allegro::new(cca_seed)), Dur::from_millis(40))
        .with_transport(Transport::Datagram);
    if loss > 0.0 {
        f.with_loss(loss, loss_seed)
    } else {
        f
    }
}

/// §5.4: one Allegro flow with 2 % random loss (loss stream `13s + 7`)
/// against a clean one. Allegro's RCT noise makes the outcome depend on
/// the loss stream; `repro seeds` publishes the distribution.
pub fn allegro_loss_pair(seed: u64, dur: Dur) -> SimConfig {
    SimConfig::new(
        allegro_link(),
        vec![
            allegro_flow(0.02, seed * 2 + 1, seed * 13 + 7),
            allegro_flow(0.0, seed * 2 + 2, 0),
        ],
        dur,
    )
}

/// Figure 7: two `mk` flows on a 6 Mbit/s link with a 60-packet buffer
/// and `Rm` = 120 ms; the second receiver delays ACKs by up to 4 packets
/// or 100 ms.
pub fn delayed_ack_pair(mk: impl Fn() -> BoxCca, dur: Dur) -> SimConfig {
    let rm = Dur::from_millis(120);
    let clean = FlowConfig::bulk(mk(), rm);
    let delayed = FlowConfig::bulk(mk(), rm).with_ack_policy(AckPolicy::Delayed {
        max_pkts: 4,
        timeout: Dur::from_millis(100),
    });
    SimConfig::new(
        LinkConfig::new(Rate::from_mbps(6.0), 60 * 1500),
        vec![clean, delayed],
        dur,
    )
}

/// §6.3: flows `mk(1)` and `mk(2)` on a 40 Mbit/s ample-buffer link at
/// `Rm` = 50 ms; the first path adds uniform random jitter up to
/// `jitter`, drawn from stream `jitter_seed`.
pub fn jitter_pair(
    mk: impl Fn(u64) -> BoxCca,
    jitter: Dur,
    jitter_seed: u64,
    dur: Dur,
) -> SimConfig {
    let rm = Dur::from_millis(50);
    let jittered = FlowConfig::bulk(mk(1), rm).with_jitter(Jitter::Random {
        max: jitter,
        rng: Xoshiro256::new(jitter_seed),
    });
    SimConfig::new(
        LinkConfig::ample_buffer(Rate::from_mbps(40.0)),
        vec![jittered, FlowConfig::bulk(mk(2), rm)],
        dur,
    )
}
