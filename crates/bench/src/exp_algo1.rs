//! §6.3 — Algorithm 1 (the jitter-aware CCA) avoids starvation where the
//! Vegas family starves.
//!
//! Scenario: a 40 Mbit/s, 50 ms link shared by two flows; flow 1's path has
//! up to 10 ms of random non-congestive jitter, flow 2's path is clean —
//! exactly the asymmetric-ambiguity situation that starves delay-convergent
//! CCAs. Algorithm 1 is configured with `D` = 10 ms, `s` = 2, so its delay
//! oscillations are designed to dominate the jitter; the theory predicts it
//! stays `s`-fair. Vegas under the same jitter starves. A single-flow run
//! checks Algorithm 1's efficiency.

use crate::table::{fnum, TextTable};
use cca::jitter_aware::JitterAwareConfig;
use cca::BoxCca;
use netsim::{FlowConfig, Jitter, LinkConfig, Network, SimConfig};
use simcore::rng::Xoshiro256;
use simcore::units::{Dur, Rate, Time};
use starvation::paper;
use std::fmt;

/// Outcome of the Algorithm 1 evaluation.
pub struct Algo1Report {
    /// Two jitter-aware flows: (jittered path, clean path) Mbit/s.
    pub algo1: (f64, f64),
    /// Two Vegas flows in the same scenario.
    pub vegas: (f64, f64),
    /// Single jitter-aware flow under jitter: achieved Mbit/s (efficiency).
    pub single_mbps: f64,
    /// The link rate.
    pub link_mbps: f64,
    /// The `s` Algorithm 1 was configured for.
    pub s: f64,
}

fn scenario(mk: impl Fn(u64) -> BoxCca, secs: u64) -> (f64, f64) {
    let config = paper::jitter_pair(mk, Dur::from_millis(10), 11, Dur::from_secs(secs));
    let r = Network::new(config).run();
    let half = Time(r.end.as_nanos() / 2);
    (
        r.flows[0].throughput_over(half, r.end).mbps(),
        r.flows[1].throughput_over(half, r.end).mbps(),
    )
}

fn jitter_aware(_seed: u64) -> BoxCca {
    let mut cfg = JitterAwareConfig::example(Dur::from_millis(50));
    cfg.mu_minus = Rate::from_mbps(0.1);
    cfg.a = Rate::from_mbps(0.4);
    Box::new(cca::JitterAware::new(cfg))
}

/// Run all three scenarios.
pub fn run(quick: bool) -> Algo1Report {
    let secs = if quick { 40 } else { 120 };
    let algo1 = scenario(jitter_aware, secs);
    let vegas = scenario(|_| Box::new(cca::Vegas::default_params()), secs);

    // Single-flow efficiency under jitter.
    let link = LinkConfig::ample_buffer(Rate::from_mbps(40.0));
    let flow = FlowConfig::bulk(jitter_aware(1), Dur::from_millis(50)).with_jitter(
        Jitter::Random {
            max: Dur::from_millis(10),
            rng: Xoshiro256::new(13),
        },
    );
    let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(secs))).run();
    let half = Time(r.end.as_nanos() / 2);
    let single_mbps = r.flows[0].throughput_over(half, r.end).mbps();

    Algo1Report {
        algo1,
        vegas,
        single_mbps,
        link_mbps: 40.0,
        s: 2.0,
    }
}

impl Algo1Report {
    fn ratio(pair: (f64, f64)) -> f64 {
        let (a, b) = pair;
        a.max(b) / a.min(b).max(1e-9)
    }

    /// Algorithm 1's two-flow ratio.
    pub fn algo1_ratio(&self) -> f64 {
        Self::ratio(self.algo1)
    }

    /// Vegas's two-flow ratio in the same scenario.
    pub fn vegas_ratio(&self) -> f64 {
        Self::ratio(self.vegas)
    }

    /// Summary table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&[
            "CCA",
            "jittered flow (Mbit/s)",
            "clean flow (Mbit/s)",
            "ratio",
        ]);
        t.row(&[
            "Algorithm 1".into(),
            fnum(self.algo1.0),
            fnum(self.algo1.1),
            fnum(self.algo1_ratio()),
        ]);
        t.row(&[
            "Vegas".into(),
            fnum(self.vegas.0),
            fnum(self.vegas.1),
            fnum(self.vegas_ratio()),
        ]);
        t
    }
}

impl fmt::Display for Algo1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§6.3 — Algorithm 1 vs Vegas, {} Mbit/s, Rm = 50 ms, 10 ms jitter on one path (designed s = {})",
            self.link_mbps, self.s
        )?;
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "single jitter-aware flow under jitter: {:.1} Mbit/s of {}",
            self.single_mbps, self.link_mbps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm1_is_fairer_than_vegas_under_jitter() {
        let r = run(true);
        assert!(
            r.algo1_ratio() < r.vegas_ratio(),
            "algo1={:?} (ratio {:.2})  vegas={:?} (ratio {:.2})",
            r.algo1,
            r.algo1_ratio(),
            r.vegas,
            r.vegas_ratio()
        );
        // Roughly s-fair: designed for s = 2, with AIMD sawtooth slack.
        assert!(r.algo1_ratio() < 2.0 * 1.8, "ratio={}", r.algo1_ratio());
        // Efficient alone: µ+ = 51 Mbit/s covers the 40 Mbit/s link.
        assert!(r.single_mbps > 0.5 * r.link_mbps, "single={}", r.single_mbps);
    }
}
