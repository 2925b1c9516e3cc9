//! What arming a run deadline costs when it never expires — the one
//! same-run engine ratio `benchmark/` does not read.
//!
//! The depth-16 box pipeline runs unfused (`fuse: false`: sixteen
//! components and fifteen hand-offs, so every preemption point is
//! crossed sixteen times per batch) on a one-worker pool over
//! 256-record batches, with and without a generous
//! [`EngineConfig::deadline`]. Without one a preemption check is an
//! atomic load and an `Option` test; with one it also reads the clock,
//! and the gate holds that to 5%. One worker, because the quantity is
//! CPU time per step: with the caller blocked in `run_batch` exactly
//! one thread runs, and which worker stole what stops being part of
//! the number.
//!
//! The gated number is **paired**: the two sides are sampled
//! round-robin — one round is one timed run of each side, back to back
//! — and the statistic is the median over rounds of the per-round
//! ratio. A slow phase of the host (this VM has minutes-long ones) then
//! lands on both sides of every ratio it touches instead of on
//! whichever side's block it happened to overlap.
//!
//! ```text
//! cargo run -p snet-bench --release --bin bench_engines
//! cargo run -p snet-bench --release --bin bench_engines -- \
//!     --fault-out f.json --rounds 1000
//! ```

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::{NetSpec, Record, Value};
use snet_runtime::{EngineConfig, SchedNet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const RECORDS: i64 = 256;
const DEPTH: usize = 16;

fn inc_box() -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("inc", &["x"], &[&["x"]]),
        |r| {
            let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            Ok(BoxOutput::one(
                Record::new().with_field("x", Value::Int(x + 1)),
                Work::ops(1),
            ))
        },
    ))
}

fn records() -> Vec<Record> {
    (0..RECORDS)
        .map(|i| {
            Record::new()
                .with_field("x", Value::Int(i))
                .with_tag("k", i % 4)
        })
        .collect()
}

/// One side of a paired measurement: its wall-clock times by round.
struct Side(Vec<Duration>);

impl Side {
    fn min(&self) -> Duration {
        *self.0.iter().min().expect("at least one round")
    }

    fn median(&self) -> Duration {
        let mut times = self.0.clone();
        times.sort_unstable();
        times[times.len() / 2]
    }

    /// Median over rounds of `self / base`, each ratio taken within one
    /// round.
    fn ratio_to(&self, base: &Side) -> f64 {
        let mut ratios: Vec<f64> = std::iter::zip(&self.0, &base.0)
            .map(|(t, b)| t.as_secs_f64() / b.as_secs_f64())
            .collect();
        ratios.sort_unstable_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    }
}

/// Samples `sides` round-robin: one warm-up of each, then `rounds`
/// rounds timing every side once, in order.
fn paired<const N: usize>(rounds: usize, mut sides: [impl FnMut(); N]) -> [Side; N] {
    sides.iter_mut().for_each(|f| f());
    let mut times = [(); N].map(|()| Side(Vec::with_capacity(rounds)));
    for _ in 0..rounds {
        for (f, side) in sides.iter_mut().zip(&mut times) {
            let t0 = Instant::now();
            f();
            side.0.push(t0.elapsed());
        }
    }
    times
}

fn main() {
    let mut fault_path = "BENCH_fault_overhead.json".to_owned();
    let mut rounds = 600usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fault-out" => fault_path = args.next().expect("--fault-out needs a path"),
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds needs a number");
            }
            other => panic!("unknown flag `{other}` (--fault-out PATH, --rounds N)"),
        }
    }

    let config = EngineConfig {
        fuse: false,
        workers: 1,
        ..EngineConfig::default()
    };
    let modes = [
        ("failfast", config),
        (
            "deadline_generous",
            EngineConfig {
                deadline: Some(Duration::from_secs(3600)),
                ..config
            },
        ),
    ];
    let sides = paired(
        rounds,
        modes.map(|(_, cfg)| {
            let net = SchedNet::with_config(NetSpec::pipeline((0..DEPTH).map(|_| inc_box())), cfg);
            move || {
                let outs = net.run_batch(records()).unwrap();
                assert_eq!(outs.len(), RECORDS as usize);
            }
        }),
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"cost of an armed run deadline that never expires, scheduled serial_depth={DEPTH} pipeline, {RECORDS}-record batches\",",
    );
    let _ = writeln!(json, "  \"workers\": {},", config.workers);
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(
        json,
        "  \"gate\": \"overhead_vs_failfast (median over rounds of deadline_generous/failfast, both timed in the same round) <= 1.05\",",
    );
    json.push_str("  \"results\": [\n");
    for (i, ((mode, _), side)) in modes.iter().zip(&sides).enumerate() {
        let overhead = side.ratio_to(&sides[0]);
        eprintln!(
            "serial_depth={DEPTH} {mode:>18}: sched min {:>10.3?} med {:>10.3?}  paired overhead {overhead:.3}x",
            side.min(),
            side.median(),
        );
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{mode}\", \"sched_min_ns\": {}, \"sched_median_ns\": {}, \"overhead_vs_failfast\": {overhead:.3}}}{}",
            side.min().as_nanos(),
            side.median().as_nanos(),
            if i + 1 < modes.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&fault_path, &json).expect("write fault overhead json");
    println!("wrote {fault_path}");
}
