//! Seeded input generation and the open-loop schedule.
//!
//! Everything a workload feeds the engines — payloads, routing tags, the
//! scene — derives from `--seed` through [`SplitMix64`]; the engines see
//! only the generated records.

/// SplitMix64 (Steele, Lea, Flood): tiny, seedable, and good enough to
/// spread payloads and routing tags evenly.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// A child generator, so one seed gives each trial and window its
    /// own independent stream.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64(self.next_u64())
    }
}

/// The SplitMix64 finaliser: a bijection on `u64`, used to digest
/// output records into an order-independent checksum.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digest of one stream output `{x, <k>, <n>}`. A run's checksum is the
/// wrapping sum of its outputs' digests, so it does not depend on
/// arrival order, and a lost, duplicated or altered record changes it.
pub fn digest(x: i64, k: i64, n: i64) -> u64 {
    mix64((x as u64) ^ mix64((k as u64).wrapping_mul(31).wrapping_add(n as u64)))
}

/// The open-loop schedule: record `i` is due `i / rate` seconds after
/// the window opens, whatever the system under test is doing. Latency
/// is counted from the due time, so the wait a stall imposes on the
/// records behind it is measured, not hidden.
#[derive(Clone, Copy, Debug)]
pub struct DueSchedule {
    period_ns: f64,
}

impl DueSchedule {
    pub fn new(rate_per_s: f64) -> DueSchedule {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        DueSchedule {
            period_ns: 1e9 / rate_per_s,
        }
    }

    /// When record `i` is due, in nanoseconds after the window opened.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * self.period_ns) as u64
    }

    /// How many records are due by `now_ns` (record 0 is due at 0).
    pub fn due_by(&self, now_ns: u64) -> u64 {
        let mut n = (now_ns as f64 / self.period_ns) as u64 + 1;
        // Float rounding may land one off on an exact boundary.
        while self.due_ns(n) <= now_ns {
            n += 1;
        }
        while n > 0 && self.due_ns(n - 1) > now_ns {
            n -= 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = SplitMix64::new(2010);
        let mut b = SplitMix64::new(2010);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(2011);
        assert_ne!(xs[0], c.next_u64());
        let mut f1 = a.fork();
        let mut f2 = a.fork();
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn checksum_is_order_free_and_sees_loss_duplication_and_change() {
        let outs = [(5, 0, 0), (6, 1, 0), (7, 2, 0)];
        let sum = |v: &[(i64, i64, i64)]| {
            v.iter()
                .fold(0u64, |acc, &(x, k, n)| acc.wrapping_add(digest(x, k, n)))
        };
        let base = sum(&outs);
        assert_eq!(base, sum(&[outs[2], outs[0], outs[1]]));
        assert_ne!(base, sum(&outs[..2]));
        assert_ne!(base, sum(&[outs[0], outs[0], outs[1], outs[2]]));
        assert_ne!(base, sum(&[(5, 0, 0), (6, 1, 0), (7, 2, 1)]));
        // Swapping a payload between two records is a change too.
        assert_ne!(base, sum(&[(6, 0, 0), (5, 1, 0), (7, 2, 0)]));
    }

    #[test]
    fn due_times_follow_the_rate_not_the_system() {
        let s = DueSchedule::new(200_000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 5_000);
        assert_eq!(s.due_ns(200_000), 1_000_000_000);
        assert_eq!(s.due_by(0), 1);
        assert_eq!(s.due_by(4_999), 1);
        assert_eq!(s.due_by(5_000), 2);
        assert_eq!(s.due_by(1_000_000_000), 200_001);
        // An awkward rate still counts consistently with `due_ns`.
        let s = DueSchedule::new(150_000.0);
        for now in [0, 1, 6_666, 6_667, 1_000_000, 999_999_999] {
            let n = s.due_by(now);
            assert!(s.due_ns(n - 1) <= now && s.due_ns(n) > now, "now={now}");
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_records_behind_it() {
        // The generator is held up for 1 ms at 100 k rec/s: the hundred
        // records that fell due meanwhile are all sent at t = 1 ms, and
        // each one's lateness runs from its own due time.
        let s = DueSchedule::new(100_000.0);
        let now = 1_000_000;
        let due = s.due_by(now);
        assert_eq!(due, 101);
        let lags: Vec<u64> = (0..due).map(|i| now - s.due_ns(i)).collect();
        assert_eq!(lags[0], 1_000_000);
        assert_eq!(lags[50], 500_000);
        assert_eq!(lags[100], 0);
        // An egress at t = 1.2 ms gives record 0 a latency of 1.2 ms,
        // not the 0.2 ms it spent inside the system.
        assert_eq!(1_200_000 - s.due_ns(0), 1_200_000);
    }
}
