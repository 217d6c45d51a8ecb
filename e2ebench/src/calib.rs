//! Host-speed calibration.
//!
//! The benchmark runs on machines shared with other tenants, whose load
//! slows every process by a factor that drifts over seconds to minutes: an
//! identical simulation read 25–37 ms in successive 10-second windows of
//! one process on the reference machine. A fixed kernel, owned by the
//! benchmark and independent of the program under test, is timed between
//! the measured operations, at least every [`EVERY_S`]. Each operation's
//! time is multiplied by [`REFERENCE_NS`] / (the kernel's time around that
//! operation), which expresses it at the reference machine's speed. The
//! program never runs inside the kernel, so a change to the program moves
//! the operations and not the scale. On the reference machine this halved
//! the window-to-window spread of a simulation's time.

use crate::report::now;
use std::time::Instant;

/// Kernel time the scale maps to: the median on the reference machine (a
/// 2-vCPU Xeon VM), nanoseconds.
pub const REFERENCE_NS: f64 = 2.0e6;

/// Sample at most this often inside a timed loop, seconds.
const EVERY_S: f64 = 0.2;

/// Random read-modify-writes over a 4 MiB table. Of the kernels tried
/// (random access over 4–64 MiB, a binary-heap agenda), this one tracked a
/// `population` simulation's drift best: their ratio varied half as much
/// as the simulation's time over 8-second windows.
fn kernel(table: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    let mask = table.len() - 1;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x as usize & mask;
        table[k] = table[k].wrapping_add(acc);
        acc = acc.rotate_left(3) ^ table[k];
    }
    acc
}

/// The kernel timings of one run, in time order.
pub struct Calibration {
    table: Vec<u64>,
    samples: Vec<(Instant, f64)>,
}

impl Default for Calibration {
    fn default() -> Self {
        let mut c = Calibration {
            table: vec![0; 1 << 19],
            samples: Vec::new(),
        };
        c.sample();
        c
    }
}

impl Calibration {
    /// Time the kernel once.
    pub fn sample(&mut self) {
        let t0 = now();
        std::hint::black_box(kernel(&mut self.table));
        self.samples.push((now(), t0.elapsed().as_nanos() as f64));
    }

    /// Sample if the last sample is older than [`EVERY_S`].
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|(t, _)| t.elapsed().as_secs_f64() >= EVERY_S)
        {
            self.sample();
        }
    }

    /// An operation's host time `[start, end)` in reference time: scaled by
    /// the mean of the kernel samples just before and just after it (the
    /// machine's speed while it ran). Take a sample after the last
    /// operation before calling this.
    pub fn reference(&self, start: Instant, end: Instant) -> f64 {
        let before = self.samples.iter().rev().find(|(t, _)| *t <= start);
        let after = self.samples.iter().find(|(t, _)| *t >= end);
        let local: Vec<f64> = before.into_iter().chain(after).map(|s| s.1).collect();
        let kernel = if local.is_empty() {
            crate::report::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
        } else {
            local.iter().sum::<f64>() / local.len() as f64
        };
        end.duration_since(start).as_secs_f64() * REFERENCE_NS / kernel
    }
}
