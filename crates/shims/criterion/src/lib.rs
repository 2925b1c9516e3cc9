//! Offline shim for `criterion`.
//!
//! A minimal wall-clock benchmark harness exposing the criterion API
//! the workspace's bench targets use: `Criterion::benchmark_group`,
//! `sample_size`, `bench_with_input`, `BenchmarkId`, `Bencher::iter`,
//! and the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement model: per benchmark, one warm-up call, then
//! `sample_size` timed calls; the reported statistic is the median.
//! `--test` (criterion's smoke mode, used by CI) runs each benchmark
//! body exactly once and reports `ok` without timing.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Harness entry point; one per bench binary.
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                // Flags cargo/criterion pass that this shim ignores.
                "--bench" | "--verbose" | "--quiet" | "--noplot" => {}
                other if other.starts_with('-') => {}
                other => filter = Some(other.to_owned()),
            }
        }
        Criterion { test_mode, filter }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_owned(),
            sample_size: 10,
        }
    }

    fn matches(&self, full_id: &str) -> bool {
        match &self.filter {
            None => true,
            Some(f) => full_id.contains(f.as_str()),
        }
    }
}

/// A named identifier for one benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: &str, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        if self.criterion.matches(&full) {
            run_one(
                &full,
                self.sample_size,
                self.criterion.test_mode,
                &mut |b| f(b, input),
            );
        }
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Passed to benchmark bodies; `iter` performs the measurement.
pub struct Bencher {
    test_mode: bool,
    samples: usize,
    /// Median duration of one routine call, filled by `iter`.
    pub last_median: Option<Duration>,
}

impl Bencher {
    /// Times the routine (or runs it once in `--test` mode).
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        if self.test_mode {
            black_box(routine());
            return;
        }
        black_box(routine()); // warm-up
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                black_box(routine());
                t0.elapsed()
            })
            .collect();
        times.sort_unstable();
        self.last_median = Some(times[times.len() / 2]);
    }
}

fn run_one(id: &str, samples: usize, test_mode: bool, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        test_mode,
        samples,
        last_median: None,
    };
    f(&mut b);
    if test_mode {
        println!("bench {id:<40} ... ok (smoke)");
    } else {
        match b.last_median {
            Some(d) => println!("bench {id:<40} median {}", fmt_duration(d)),
            None => println!("bench {id:<40} ... (no measurement)"),
        }
    }
}

/// Formats a duration with benchmark-appropriate units.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_in_normal_mode() {
        let mut b = Bencher {
            test_mode: false,
            samples: 3,
            last_median: None,
        };
        b.iter(|| std::thread::sleep(Duration::from_millis(1)));
        assert!(b.last_median.unwrap() >= Duration::from_millis(1));
    }

    #[test]
    fn test_mode_runs_once() {
        let mut b = Bencher {
            test_mode: true,
            samples: 50,
            last_median: None,
        };
        let mut calls = 0;
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(b.last_median.is_none());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
    }
}
