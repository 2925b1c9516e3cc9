//! How fast the host is right now, on a fixed reference kernel.
//!
//! The hosts this runs on are shared. Their arithmetic speed is steady
//! (a pure ALU loop repeats within 1 %), but for minutes at a time
//! anything that allocates and copies on all cores at once runs up to
//! 1.7 times slower, and every workload slows with it by 1.2 to 1.4
//! times — far more than any bound. So between measurement windows the
//! benchmark times a small kernel that owes nothing to the code under
//! test (std only: half arithmetic, half allocator and copy traffic, on
//! as many threads as the workload uses), and reports rates and times
//! relative to it. README.md has the readings behind this.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Kernel rounds per second and thread that count as speed 1.0: what
/// the reference host (2 vCPUs of a 2.1 GHz Xeon) does undisturbed.
/// Only a scale; changing it rescales every calibrated metric alike.
pub const NOMINAL_ROUNDS_PER_S: f64 = 7.0e6;

/// The percentile of a run's samples — host-speed samples and
/// throughput slices alike — that is reported. Interference only ever
/// slows a sample and comes in bursts that can cover half a run, so
/// the median follows the host's mood; the upper quartile stays on the
/// undisturbed side without reaching into the rare lucky samples at
/// the very top (README.md compares the candidates).
pub const UNDISTURBED: f64 = 75.0;

const ROUNDS: u32 = 50_000;
const NAMES: [&str; 8] = ["x", "ts", "k", "n", "a", "b", "scene", "sect"];
/// Arithmetic steps per round, set so that arithmetic is about half of
/// an undisturbed round.
const ALU_STEPS: u64 = 16;

/// One thread's share of a sample: small sorted vectors built through
/// hash lookups, queued, drained and freed, with a dependent
/// multiply-shift chain in between.
fn kernel(rounds: u32) -> u64 {
    let labels: HashMap<&'static str, u32> = NAMES
        .iter()
        .enumerate()
        .map(|(i, n)| (*n, i as u32))
        .collect();
    let mut queue: VecDeque<Vec<(u32, i64)>> = VecDeque::with_capacity(64);
    let mut acc = 0u64;
    for i in 0..rounds {
        let mut rec: Vec<(u32, i64)> = Vec::with_capacity(2);
        for name in [NAMES[(i % 8) as usize], NAMES[((i / 8) % 8) as usize]] {
            let id = labels[black_box(name)];
            match rec.binary_search_by(|p| p.0.cmp(&id)) {
                Ok(j) => rec[j].1 += 1,
                Err(j) => rec.insert(j, (id, i as i64)),
            }
        }
        for step in 0..ALU_STEPS {
            acc = crate::gen::mix64(acc ^ step);
        }
        queue.push_back(rec);
        if queue.len() >= 32 {
            while let Some(r) = queue.pop_front() {
                acc = acc.wrapping_add(r[0].1 as u64 ^ r.len() as u64);
            }
        }
    }
    black_box(acc)
}

/// Calibration samples of one run.
pub struct HostSpeed {
    threads: usize,
    /// Rounds per second and thread, one per sample.
    rates: Vec<f64>,
}

impl HostSpeed {
    pub fn new(threads: usize) -> HostSpeed {
        HostSpeed {
            threads,
            rates: Vec::new(),
        }
    }

    /// Times the kernel twice, each time on every thread at once (about
    /// 7 ms a time). Call between measurement windows, never inside
    /// one.
    pub fn sample(&mut self) {
        for _ in 0..2 {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 1..self.threads {
                    s.spawn(|| kernel(ROUNDS));
                }
                kernel(ROUNDS);
            });
            self.rates.push(ROUNDS as f64 / t0.elapsed().as_secs_f64());
        }
    }

    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The host's speed over the run as a share of nominal: the
    /// [`UNDISTURBED`] sample, the same reading the throughput slices
    /// are summarised by. 1.0 before any sample.
    pub fn speed(&self) -> f64 {
        if self.rates.is_empty() {
            1.0
        } else {
            crate::stats::rank(&self.rates, UNDISTURBED) / NOMINAL_ROUNDS_PER_S
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed() {
        assert_eq!(kernel(1_000), kernel(1_000));
        assert_ne!(kernel(1_000), kernel(1_001));
    }

    #[test]
    fn speed_is_the_upper_quartile_over_nominal() {
        let mut h = HostSpeed::new(1);
        assert_eq!(h.speed(), 1.0);
        h.rates = (1..=8)
            .map(|i| i as f64 * NOMINAL_ROUNDS_PER_S / 8.0)
            .collect();
        assert!((h.speed() - 0.75).abs() < 1e-12);
        h.sample();
        assert_eq!(h.rates().len(), 10);
        assert!(h.rates()[9] > 0.0);
    }
}
