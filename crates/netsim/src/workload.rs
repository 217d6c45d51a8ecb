//! Dynamic workloads: scheduled flow arrivals with finite sizes.
//!
//! Every scenario used to be a small fixed set of flows that start near
//! t = 0 and run to the end. A [`Workload`] generalizes that to the
//! population scale the paper's starvation claim is really about: a
//! schedule of flow descriptors — arrival time from a deterministic
//! arrival process, flow size from a (possibly heavy-tailed) size
//! distribution, a template CCA/path — that the simulator consumes by
//! self-rescheduling the next arrival as an event, spawning the flow
//! mid-run, and retiring it when its byte budget is delivered. Per-flow
//! completion times feed the FCT and starvation-duration distributions in
//! [`crate::metrics::SimResult`].
//!
//! Both the arrival process and the size distribution draw from the
//! hermetic [`Xoshiro256`] streams, so a workload of a thousand flows is
//! exactly as reproducible as a two-flow scenario: same config, same bits.

use crate::config::{FlowConfig, DEFAULT_MSS};
use crate::jitter::Jitter;
use cca::BoxCca;
use simcore::rng::Xoshiro256;
use simcore::units::{bytes_as_f64, f64_as_bytes, Dur, Time};

/// How flow arrivals are spaced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// One arrival every `interval`, exactly.
    Fixed {
        /// The inter-arrival gap.
        interval: Dur,
    },
    /// Poisson arrivals: exponential inter-arrival times with the given
    /// mean, drawn from a seeded stream (inverse-CDF on uniform draws).
    Poisson {
        /// Mean inter-arrival time (`1 / λ`).
        mean: Dur,
        /// Seed of the arrival stream.
        seed: u64,
    },
}

/// How flow sizes are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeDist {
    /// Every flow transfers exactly this many bytes.
    Fixed {
        /// The transfer size.
        bytes: u64,
    },
    /// Bounded Pareto: `X = min / U^(1/α)` capped at `cap` — the classic
    /// heavy-tailed "mice and elephants" mix (small `α` ⇒ heavier tail).
    Pareto {
        /// Minimum flow size.
        min_bytes: u64,
        /// Tail index `α` (must be > 0; 1.1–1.5 is the usual WAN range).
        alpha: f64,
        /// Upper truncation of the tail.
        cap_bytes: u64,
        /// Seed of the size stream.
        seed: u64,
    },
}

/// Golden-ratio increment used to decorrelate per-flow seed streams.
const SEED_PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derive the `k`-th flow's seed from a base seed: deterministic, distinct
/// for every `k`, and uncorrelated enough that per-flow jitter/loss streams
/// don't march in lockstep.
pub fn decorrelate(base: u64, k: u64) -> u64 {
    base ^ k.wrapping_add(1).wrapping_mul(SEED_PHI)
}

/// A schedule of dynamic flow arrivals sharing one template path.
///
/// `count` flows arrive starting at `start`, spaced by `arrivals`, each
/// transferring `sizes`-many bytes through a clone of the template CCA on
/// an `rm` path. Jitter and loss, when configured, get per-flow
/// decorrelated seeds via [`decorrelate`]. Spawned flows take ids
/// continuing after the statically-configured flows, in arrival order.
#[derive(Clone)]
pub struct Workload {
    /// How many flows the schedule spawns (arrivals past the end of the
    /// run are dropped).
    pub count: u64,
    /// When the first flow arrives.
    pub start: Time,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// The flow-size distribution.
    pub sizes: SizeDist,
    /// Template CCA, deep-cloned per spawned flow.
    pub cca: BoxCca,
    /// Propagation RTT of every spawned flow's path.
    pub rm: Dur,
    /// Packet size of every spawned flow.
    pub mss: u64,
    /// Optional random jitter `(max, seed base)`; flow `k` draws from the
    /// stream seeded with `decorrelate(seed, k)`.
    pub jitter: Option<(Dur, u64)>,
    /// Optional Bernoulli loss `(rate, seed base)`, decorrelated per flow.
    pub loss: Option<(f64, u64)>,
}

impl Workload {
    /// A workload of `count` flows with the given arrival process and size
    /// distribution, on clean `rm` paths driven by clones of `cca`.
    pub fn new(
        count: u64,
        arrivals: ArrivalProcess,
        sizes: SizeDist,
        cca: BoxCca,
        rm: Dur,
    ) -> Workload {
        Workload {
            count,
            start: Time::ZERO,
            arrivals,
            sizes,
            cca,
            rm,
            mss: DEFAULT_MSS,
            jitter: None,
            loss: None,
        }
    }

    /// Builder: delay the first arrival.
    pub fn with_start(mut self, t: Time) -> Workload {
        self.start = t;
        self
    }

    /// Builder: replace the packet size.
    pub fn with_mss(mut self, mss: u64) -> Workload {
        self.mss = mss;
        self
    }

    /// Builder: random jitter in `[0, max]`, per-flow decorrelated seeds.
    pub fn with_jitter(mut self, max: Dur, seed: u64) -> Workload {
        self.jitter = Some((max, seed));
        self
    }

    /// Builder: Bernoulli loss, per-flow decorrelated seeds.
    pub fn with_loss(mut self, rate: f64, seed: u64) -> Workload {
        self.loss = Some((rate, seed));
        self
    }

    /// The [`FlowConfig`] for the `k`-th spawned flow, arriving at
    /// `arrival` with a drawn `size`.
    pub fn flow_config(&self, k: u64, arrival: Time, size: u64) -> FlowConfig {
        let mut f = FlowConfig::bulk(self.cca.clone(), self.rm)
            .with_mss(self.mss)
            .with_start(arrival)
            .with_size(size.max(1));
        if let Some((max, seed)) = self.jitter {
            if max > Dur::ZERO {
                f = f.with_jitter(Jitter::Random {
                    max,
                    rng: Xoshiro256::new(decorrelate(seed, k)),
                });
            }
        }
        if let Some((rate, seed)) = self.loss {
            if rate > 0.0 {
                f = f.with_loss(rate, decorrelate(seed, k));
            }
        }
        f
    }
}

/// Runtime state of a workload within one simulation: the RNG streams the
/// arrival process and size distribution consume as flows spawn.
pub(crate) struct WorkloadRun {
    pub spec: Workload,
    /// Flows spawned so far (the next flow is spawn number `spawned`).
    pub spawned: u64,
    arrival_rng: Option<Xoshiro256>,
    size_rng: Option<Xoshiro256>,
}

impl WorkloadRun {
    pub fn new(spec: Workload) -> WorkloadRun {
        let arrival_rng = match spec.arrivals {
            ArrivalProcess::Fixed { .. } => None,
            ArrivalProcess::Poisson { seed, .. } => Some(Xoshiro256::new(seed)),
        };
        let size_rng = match spec.sizes {
            SizeDist::Fixed { .. } => None,
            SizeDist::Pareto { seed, .. } => Some(Xoshiro256::new(seed)),
        };
        WorkloadRun {
            spec,
            spawned: 0,
            arrival_rng,
            size_rng,
        }
    }

    /// The gap between this arrival and the next one.
    pub fn next_interarrival(&mut self) -> Dur {
        match self.spec.arrivals {
            ArrivalProcess::Fixed { interval } => interval,
            ArrivalProcess::Poisson { mean, .. } => {
                let rng = self
                    .arrival_rng
                    .as_mut()
                    .expect("Poisson arrivals always carry an RNG stream");
                // Inverse CDF of Exp(1/mean): −mean · ln(1 − U), with
                // 1 − U ∈ (0, 1] so the log is finite.
                let u = rng.next_f64();
                Dur::from_secs_f64(-mean.as_secs_f64() * (1.0 - u).ln())
            }
        }
    }

    /// Draw the next flow's size in bytes (≥ 1).
    pub fn draw_size(&mut self) -> u64 {
        match self.spec.sizes {
            SizeDist::Fixed { bytes } => bytes.max(1),
            SizeDist::Pareto { min_bytes, alpha, cap_bytes, .. } => {
                let rng = self
                    .size_rng
                    .as_mut()
                    .expect("Pareto sizes always carry an RNG stream");
                let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
                let x = bytes_as_f64(min_bytes.max(1)) / u.powf(1.0 / alpha.max(1e-9));
                f64_as_bytes(x.min(bytes_as_f64(cap_bytes.max(min_bytes.max(1)))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::ConstCwnd;

    fn wl(arrivals: ArrivalProcess, sizes: SizeDist) -> Workload {
        Workload::new(
            100,
            arrivals,
            sizes,
            Box::new(ConstCwnd::ten_packets()),
            Dur::from_millis(20),
        )
    }

    #[test]
    fn fixed_arrivals_are_exact() {
        let mut run = WorkloadRun::new(wl(
            ArrivalProcess::Fixed { interval: Dur::from_millis(7) },
            SizeDist::Fixed { bytes: 30_000 },
        ));
        for _ in 0..5 {
            assert_eq!(run.next_interarrival(), Dur::from_millis(7));
            assert_eq!(run.draw_size(), 30_000);
        }
    }

    #[test]
    fn poisson_interarrivals_are_deterministic_and_averaged_near_the_mean() {
        let spec = wl(
            ArrivalProcess::Poisson { mean: Dur::from_millis(10), seed: 42 },
            SizeDist::Fixed { bytes: 1 },
        );
        let draw = |spec: &Workload| {
            let mut run = WorkloadRun::new(spec.clone());
            (0..4000).map(|_| run.next_interarrival()).collect::<Vec<_>>()
        };
        let a = draw(&spec);
        let b = draw(&spec);
        assert_eq!(a, b, "same seed, same arrival schedule");
        let mean_ns =
            a.iter().map(|d| d.as_nanos() as f64).sum::<f64>() / a.len() as f64;
        let target = Dur::from_millis(10).as_nanos() as f64;
        assert!(
            (mean_ns - target).abs() < target * 0.1,
            "empirical mean {mean_ns} ns vs target {target} ns"
        );
    }

    #[test]
    fn pareto_sizes_are_bounded_and_heavy_tailed() {
        let spec = wl(
            ArrivalProcess::Fixed { interval: Dur::from_millis(1) },
            SizeDist::Pareto { min_bytes: 10_000, alpha: 1.3, cap_bytes: 400_000, seed: 7 },
        );
        let mut run = WorkloadRun::new(spec);
        let sizes: Vec<u64> = (0..4000).map(|_| run.draw_size()).collect();
        assert!(sizes.iter().all(|&s| (10_000..=400_000).contains(&s)));
        // Heavy tail: some flows near the floor, some an order of
        // magnitude above it, and the cap actually binds occasionally.
        assert!(sizes.iter().filter(|&&s| s < 15_000).count() > sizes.len() / 4);
        assert!(sizes.iter().any(|&s| s > 100_000));
        assert!(sizes.contains(&400_000));
    }

    #[test]
    fn decorrelated_seeds_differ_per_flow() {
        let s: Vec<u64> = (0..50).map(|k| decorrelate(99, k)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }

    #[test]
    fn flow_config_applies_template_and_per_flow_seeds() {
        let spec = wl(
            ArrivalProcess::Fixed { interval: Dur::from_millis(1) },
            SizeDist::Fixed { bytes: 50_000 },
        )
        .with_mss(1200)
        .with_jitter(Dur::from_millis(5), 3)
        .with_loss(0.01, 4);
        let f = spec.flow_config(2, Time::from_millis(123), 50_000);
        assert_eq!(f.mss, 1200);
        assert_eq!(f.start, Time::from_millis(123));
        assert_eq!(f.size, Some(50_000));
        assert_eq!(f.loss_seed, decorrelate(4, 2));
        assert!(matches!(f.jitter, Jitter::Random { max, .. } if max == Dur::from_millis(5)));
        // A different flow index gets a different loss stream.
        let g = spec.flow_config(3, Time::from_millis(124), 50_000);
        assert_ne!(f.loss_seed, g.loss_seed);
    }
}
