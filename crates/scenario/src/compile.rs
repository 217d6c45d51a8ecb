//! Compile a parsed [`Scenario`] into a runnable `netsim::SimConfig`.
//!
//! Compilation is infallible: everything that can be wrong with a
//! scenario is rejected at parse time with a positioned diagnostic, so a
//! `Scenario` value is a valid simulation by construction. The mapping is
//! deliberately thin — each DSL field corresponds to exactly one
//! `LinkConfig`/`FlowConfig`/`SimConfig` builder call, so a `.scn` file
//! and the Rust constructor it replaces produce bit-identical configs
//! (the golden-trace suite holds the canonical corpus to this).

use crate::ast::{ArrivalSpec, Buffer, CcaId, Flow, Link, Scenario, SizeSpec, WorkloadSpec};
use cca::delay_aimd::DelayAimdConfig;
use cca::jitter_aware::JitterAwareConfig;
use cca::BoxCca;
use netsim::{ArrivalProcess, FlowConfig, Jitter, LinkConfig, SimConfig, SizeDist, Workload};
use simcore::rng::Xoshiro256;
use simcore::units::{Dur, Rate, Time};

/// Fixed window of the `const-cwnd` "silly CCA" (§4.2): 20 packets.
const CONST_CWND_BYTES: u64 = 20 * 1500;

/// Designed-for jitter bound used by the two rtt-parameterized CCAs
/// (`delay-aimd`, `jitter-aware`) when the flow declares no jitter element.
const DEFAULT_DESIGN_JITTER: Dur = Dur(10_000_000); // 10 ms

/// Instantiate a CCA for a flow. `rm` parameterizes the algorithms that
/// take the propagation RTT as an oracle (`delay-aimd`, `jitter-aware`);
/// their designed-for jitter bound `D` is the flow's declared jitter bound
/// (or 10 ms on clean paths), so fuzzing jitter across the design point is
/// meaningful.
fn build_cca(id: CcaId, rm: Dur, declared_jitter: Option<Dur>) -> BoxCca {
    let design = match declared_jitter {
        Some(d) if d > Dur::ZERO => d,
        _ => DEFAULT_DESIGN_JITTER,
    };
    match id {
        CcaId::Reno => Box::new(cca::NewReno::default_params()),
        CcaId::Cubic => Box::new(cca::Cubic::default_params()),
        CcaId::Vegas => Box::new(cca::Vegas::default_params()),
        CcaId::Fast => Box::new(cca::FastTcp::default_params()),
        CcaId::Ledbat => Box::new(cca::Ledbat::default_params()),
        CcaId::Copa => Box::new(cca::Copa::default_params()),
        CcaId::Bbr => Box::new(cca::Bbr::default_params()),
        CcaId::Verus => Box::new(cca::Verus::default_params()),
        CcaId::Vivace => Box::new(cca::Vivace::default_params()),
        CcaId::Allegro => Box::new(cca::Allegro::default_params()),
        CcaId::DelayAimd => Box::new(cca::DelayAimd::new(DelayAimdConfig::for_jitter(rm, design))),
        CcaId::JitterAware => Box::new(cca::JitterAware::new(JitterAwareConfig::example(rm))),
        CcaId::ConstCwnd => Box::new(cca::ConstCwnd::new(CONST_CWND_BYTES)),
    }
}

fn flow_config(f: &Flow) -> FlowConfig {
    let mut cfg = FlowConfig::bulk(build_cca(f.cca, f.rtt, f.jitter.map(|j| j.max)), f.rtt);
    if let Some(j) = f.jitter {
        cfg = cfg.with_jitter(Jitter::Random { max: j.max, rng: Xoshiro256::new(j.seed) });
    }
    if let Some(l) = f.loss {
        cfg = cfg.with_loss(l.rate, l.seed);
    }
    if f.datagram {
        cfg = cfg.with_transport(netsim::Transport::Datagram);
    }
    if let Some(start) = f.start {
        cfg = cfg.with_start(Time(start.as_nanos()));
    }
    if let Some(mss) = f.mss {
        cfg = cfg.with_mss(mss);
    }
    if let Some(bound) = f.audit_jitter_bound {
        cfg = cfg.with_audit_jitter_bound(bound);
    }
    cfg
}

fn workload_config(w: &WorkloadSpec) -> Workload {
    let arrivals = match w.arrivals {
        ArrivalSpec::Every(interval) => ArrivalProcess::Fixed { interval },
        ArrivalSpec::Poisson { mean, seed } => ArrivalProcess::Poisson { mean, seed },
    };
    let sizes = match w.sizes {
        SizeSpec::Fixed(bytes) => SizeDist::Fixed { bytes },
        SizeSpec::Pareto { min, alpha, cap, seed } => {
            SizeDist::Pareto { min_bytes: min, alpha, cap_bytes: cap, seed }
        }
    };
    let cca = build_cca(w.cca, w.rtt, w.jitter.map(|j| j.max));
    let mut wl = Workload::new(w.count, arrivals, sizes, cca, w.rtt);
    if let Some(start) = w.start {
        wl = wl.with_start(Time(start.as_nanos()));
    }
    if let Some(mss) = w.mss {
        wl = wl.with_mss(mss);
    }
    if let Some(j) = w.jitter {
        wl = wl.with_jitter(j.max, j.seed);
    }
    if let Some(l) = w.loss {
        wl = wl.with_loss(l.rate, l.seed);
    }
    wl
}

/// Lower a link block. The parser evaluates the same formula to reject a
/// buffer that cannot hold one packet.
pub(crate) fn link_config(link: &Link) -> LinkConfig {
    let rate = Rate::from_mbps(link.rate_mbps);
    let config = match link.buffer {
        Buffer::Ample => LinkConfig::ample_buffer(rate),
        Buffer::Bytes(b) => LinkConfig::new(rate, b),
        Buffer::Bdp { n, rtt } => LinkConfig::bdp_buffer(rate, rtt, n),
    };
    match link.ecn_bytes {
        Some(threshold) => config.with_ecn(threshold),
        None => config,
    }
}

/// Lower a scenario to a runnable simulation configuration.
pub fn compile(s: &Scenario) -> SimConfig {
    let flows = s.flows.iter().map(flow_config).collect();
    let mut cfg = SimConfig::new(link_config(&s.link), flows, s.duration);
    if let Some(every) = s.sample_every {
        cfg = cfg.with_sample_every(every);
    }
    if let Some(w) = &s.workload {
        cfg = cfg.with_workload(workload_config(w));
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use netsim::Network;

    fn compile_src(src: &str) -> SimConfig {
        compile(&parse(src).expect("parses"))
    }

    #[test]
    fn canonical_copa_jitter_matches_its_rust_construction() {
        let from_dsl = compile_src(
            r#"
scenario "copa-jitter" {
  link { rate 24mbps buffer ample }
  duration 5s
  flow f0 { cca copa rtt 40ms jitter 10ms seed 42 }
}
"#,
        );
        let link = LinkConfig::ample_buffer(Rate::from_mbps(24.0));
        let flow = FlowConfig::bulk(Box::new(cca::Copa::default_params()), Dur::from_millis(40))
            .with_jitter(Jitter::Random { max: Dur::from_millis(10), rng: Xoshiro256::new(42) });
        let by_hand = SimConfig::new(link, vec![flow], Dur::from_secs(5));
        assert_eq!(from_dsl.link.buffer_bytes, by_hand.link.buffer_bytes);
        assert_eq!(from_dsl.duration, by_hand.duration);
        assert_eq!(from_dsl.sample_every, by_hand.sample_every);
        // Bit-identical behaviour, not just matching fields.
        let a = Network::new(from_dsl).run();
        let b = Network::new(by_hand).run();
        assert_eq!(a.flows[0].sent_bytes, b.flows[0].sent_bytes);
        assert_eq!(a.flows[0].total_delivered(), b.flows[0].total_delivered());
    }

    #[test]
    fn bdp_buffer_and_builders_lower_exactly() {
        let cfg = compile_src(
            r#"
scenario "builders" {
  link { rate 24mbps buffer bdp 1 40ms ecn 15000B }
  duration 1s
  sample-every 5ms
  flow f0 {
    cca vivace rtt 40ms
    loss 0.02 seed 7
    transport datagram
    start 250ms
    mss 1200
  }
}
"#,
        );
        let want = LinkConfig::bdp_buffer(Rate::from_mbps(24.0), Dur::from_millis(40), 1.0);
        assert_eq!(cfg.link.buffer_bytes, want.buffer_bytes);
        assert_eq!(cfg.link.ecn_threshold, Some(15000));
        assert_eq!(cfg.sample_every, Dur::from_millis(5));
        let f = &cfg.flows[0];
        assert_eq!(f.loss_rate, 0.02);
        assert_eq!(f.loss_seed, 7);
        assert_eq!(f.start, Time::from_millis(250));
        assert_eq!(f.mss, 1200);
        assert!(matches!(f.transport, netsim::Transport::Datagram));
    }

    #[test]
    fn audit_jitter_bound_lowers_to_the_flow_config() {
        let cfg = compile_src(
            r#"
scenario "seeded-violation" {
  link { rate 12mbps buffer ample }
  duration 1s
  flow f0 { cca const-cwnd rtt 40ms jitter 20ms seed 5 audit-jitter-bound 1ms }
}
"#,
        );
        assert_eq!(cfg.flows[0].audit_jitter_bound, Some(Dur::from_millis(1)));
    }

    #[test]
    fn workload_block_lowers_to_a_netsim_workload() {
        let cfg = compile_src(
            r#"
scenario "population" {
  link { rate 48mbps buffer ample }
  duration 4s
  workload {
    flows 16
    arrivals poisson 50ms seed 9
    sizes pareto 12000B 1.3 300000B seed 5
    cca reno
    rtt 20ms
    jitter 2ms seed 3
    start 100ms
    mss 1200
  }
}
"#,
        );
        assert!(cfg.flows.is_empty());
        let w = cfg.workload.as_ref().expect("workload lowered");
        assert_eq!(w.count, 16);
        assert_eq!(w.arrivals, ArrivalProcess::Poisson { mean: Dur::from_millis(50), seed: 9 });
        assert_eq!(
            w.sizes,
            SizeDist::Pareto { min_bytes: 12_000, alpha: 1.3, cap_bytes: 300_000, seed: 5 }
        );
        assert_eq!(w.start, Time::from_millis(100));
        assert_eq!(w.mss, 1200);
        assert_eq!(w.jitter, Some((Dur::from_millis(2), 3)));
        assert_eq!(w.loss, None);
        // And the whole thing runs audited: flows spawn, deliver, retire.
        let r = Network::new(compile_src(
            r#"
scenario "population" {
  link { rate 48mbps buffer ample }
  duration 4s
  workload {
    flows 16
    arrivals poisson 50ms seed 9
    sizes pareto 12000B 1.3 300000B seed 5
    cca reno
    rtt 20ms
    jitter 2ms seed 3
    start 100ms
    mss 1200
  }
}
"#,
        ).with_audit(true))
        .run();
        assert_eq!(r.flows.len(), 16);
        assert!(r.fcts().len() >= 12, "most flows should complete: {}", r.fcts().len());
    }

    #[test]
    fn every_registry_cca_compiles_and_runs() {
        for &id in crate::ast::ALL_CCAS {
            let cfg = compile_src(&format!(
                "scenario \"all-ccas\" {{ link {{ rate 8mbps buffer ample }} duration 400ms flow f0 {{ cca {} rtt 20ms }} }}",
                id.slug()
            ));
            let r = Network::new(cfg.with_audit(true)).run();
            assert!(r.flows[0].sent_bytes > 0, "{} sent nothing", id.slug());
        }
    }
}
