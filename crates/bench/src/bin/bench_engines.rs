//! Threaded vs. scheduled engine baseline + batched hand-off sweep +
//! streaming-vs-batch comparison + operator-fusion speedup.
//!
//! All sections except `--fusion-out` run with fusion *disabled*
//! (`fuse: false`): they are longitudinal trajectory files whose
//! committed baselines predate fusion, and they measure the
//! per-component engines — thread-per-component spawning, the hand-off
//! protocol, the streaming handle, the policy machinery. Fusion would
//! collapse the pipelines they sweep into one task and change what the
//! numbers mean. The fused-vs-unfused comparison gets its own file.
//!
//! Writes five result files:
//!
//! * `--out` (default `BENCH_threaded_vs_sched.json`): threaded vs
//!   scheduled engine at the default configuration, the perf
//!   trajectory file started in PR 1;
//! * `--handoff-out` (default `BENCH_batched_handoff.json`): the
//!   scheduled engine swept across hand-off batch sizes
//!   `{1, 8, 32, 128}`, with speedups relative to the in-run `batch=1`
//!   point;
//! * `--streaming-out` (default `BENCH_streaming.json`): the streaming
//!   handle path vs the one-shot batch path on the same engine and
//!   topology, for both unified-API drivers — `run_stream` (feeder
//!   thread against the ingress bound) and `run_stream_interleaved`
//!   (single thread, caller-runs `drive()` helping). Both
//!   scheduled-engine modes ride the same persistent pool; the gate
//!   (enforced in CI, on the min-of-samples statistic) is that
//!   interleaved streaming costs at most 5% vs batch on the depth-16
//!   pipeline;
//! * `--fault-out` (default `BENCH_fault_overhead.json`): the cost of
//!   the failure-policy machinery on the depth-16 scheduled pipeline.
//!   `failfast` (policy machinery disabled: no record clone, one
//!   `Option` check per preemption point) is gated at < 3% vs the
//!   committed pre-robustness scheduler number when measured locally;
//!   CI re-measures on its own hardware, so it gates the relaxed
//!   cross-machine backstop (>= 0.85x vs committed) plus the same-run
//!   property that enabling a deadline or a lenient policy on a
//!   fault-free run stays within noise of `failfast`;
//! * `--fusion-out` (default `BENCH_fusion.json`): the scheduled engine
//!   with SISO-chain fusion on vs off on the same pipelines. The
//!   depth-16 pipeline fuses to a single task (three components:
//!   source, chain, sink), eliminating 15 mailbox hops per record; the
//!   gate is >= 1.5x fused-over-unfused locally on the min-of-samples
//!   statistic, with a >= 1.2x cross-machine backstop in CI.
//!
//! ```text
//! cargo run -p snet-bench --release --bin bench_engines
//! cargo run -p snet-bench --release --bin bench_engines -- \
//!     --out path.json --handoff-out sweep.json --streaming-out s.json \
//!     --fault-out f.json --samples 30
//! ```
//!
//! The headline number is `serial_depth=16`: a 16-stage box pipeline
//! over 256 records, where the threaded engine pays 17 thread spawns
//! plus a channel hand-off per record per stage, and the scheduled
//! engine runs the same graph on a fixed 4-worker pool.

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::{NetSpec, Record, Value};
use snet_runtime::{
    run_stream, run_stream_interleaved, EngineConfig, FailurePolicy, Net, SchedNet,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const RECORDS: i64 = 256;

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

/// Median wall-clock duration of `f` over `samples` runs (after one
/// warm-up run).
fn median(samples: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

struct Row {
    topology: String,
    threaded: Duration,
    sched: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.threaded.as_secs_f64() / self.sched.as_secs_f64()
    }
}

/// Pulls `"sched_ns"` for a topology out of a previously committed
/// results file (our own fixed format — not a general JSON parser).
fn baseline_sched_ns(json: &str, topology: &str) -> Option<u128> {
    let key = format!("\"topology\": \"{topology}\"");
    let row = &json[json.find(&key)?..];
    let row = &row[..row.find('}')?];
    let ns = &row[row.find("\"sched_ns\": ")? + "\"sched_ns\": ".len()..];
    let end = ns.find(|c: char| !c.is_ascii_digit())?;
    ns[..end].parse().ok()
}

const SWEEP_BATCHES: [usize; 4] = [1, 8, 32, 128];

fn main() {
    let mut out_path = "BENCH_threaded_vs_sched.json".to_owned();
    let mut handoff_path = "BENCH_batched_handoff.json".to_owned();
    let mut streaming_path = "BENCH_streaming.json".to_owned();
    let mut fault_path = "BENCH_fault_overhead.json".to_owned();
    let mut fusion_path = "BENCH_fusion.json".to_owned();
    let mut baseline_path = "BENCH_threaded_vs_sched.json".to_owned();
    let mut samples = 20usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--handoff-out" => handoff_path = args.next().expect("--handoff-out needs a path"),
            "--streaming-out" => {
                streaming_path = args.next().expect("--streaming-out needs a path");
            }
            "--fault-out" => fault_path = args.next().expect("--fault-out needs a path"),
            "--fusion-out" => fusion_path = args.next().expect("--fusion-out needs a path"),
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            "--samples" => {
                samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samples needs a number");
            }
            other => panic!(
                "unknown flag `{other}` (--out PATH, --handoff-out PATH, --streaming-out PATH, --fault-out PATH, --fusion-out PATH, --baseline PATH, --samples N)"
            ),
        }
    }
    // Read the committed baseline BEFORE regenerating `--out` (they default
    // to the same path).
    let baseline_json = std::fs::read_to_string(&baseline_path).unwrap_or_default();

    // Fusion off for the trajectory sections (see the module docs); the
    // fused-vs-unfused comparison below constructs its own config. The
    // pool is the fixed 4 workers every committed baseline was recorded
    // with, whatever the host's CPU count makes the default.
    let config = EngineConfig {
        fuse: false,
        workers: 4,
        ..EngineConfig::default()
    };
    let mut rows: Vec<Row> = Vec::new();
    for depth in [1usize, 4, 16] {
        let spec = NetSpec::pipeline((0..depth).map(|_| inc_box()));
        // Engines are constructed once per topology, outside the timed
        // routine: the measurement is batch execution, not setup.
        let threaded_net = Net::with_config(spec.clone(), config);
        let threaded = median(samples, || {
            let outs = threaded_net.run_batch(records()).unwrap();
            assert_eq!(outs.len(), RECORDS as usize);
        });
        let sched_net = SchedNet::with_config(spec, config);
        let sched = median(samples, || {
            let outs = sched_net.run_batch(records()).unwrap();
            assert_eq!(outs.len(), RECORDS as usize);
        });
        let row = Row {
            topology: format!("serial_depth={depth}"),
            threaded,
            sched,
        };
        eprintln!(
            "{:>16}: threaded {:>10.3?}  sched {:>10.3?}  speedup {:.2}x",
            row.topology,
            row.threaded,
            row.sched,
            row.speedup(),
        );
        rows.push(row);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"combinator serial pipelines, {RECORDS}-record batches\","
    );
    let _ = writeln!(json, "  \"workers\": {},", config.workers);
    let _ = writeln!(json, "  \"samples_per_point\": {samples},");
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"topology\": \"{}\", \"threaded_ns\": {}, \"sched_ns\": {}, \"speedup_sched_over_threaded\": {:.3}}}{}",
            row.topology,
            row.threaded.as_nanos(),
            row.sched.as_nanos(),
            row.speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("wrote {out_path}");

    let headline = rows.last().expect("three rows");
    println!(
        "serial_depth=16: scheduled engine is {:.2}x the threaded engine's throughput",
        headline.speedup()
    );

    // ---- Batched hand-off sweep (scheduled engine only) ----
    struct SweepRow {
        topology: String,
        batch: usize,
        sched: Duration,
    }
    let mut sweep: Vec<SweepRow> = Vec::new();
    for depth in [4usize, 16] {
        let topology = format!("serial_depth={depth}");
        let spec = NetSpec::pipeline((0..depth).map(|_| inc_box()));
        for batch in SWEEP_BATCHES {
            let net = SchedNet::with_config(spec.clone(), EngineConfig { batch, ..config });
            let sched = median(samples, || {
                let outs = net.run_batch(records()).unwrap();
                assert_eq!(outs.len(), RECORDS as usize);
            });
            eprintln!("{topology:>16} batch={batch:>3}: sched {sched:>10.3?}");
            sweep.push(SweepRow {
                topology: topology.clone(),
                batch,
                sched,
            });
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"scheduled engine hand-off batch sweep, combinator serial pipelines, {RECORDS}-record batches\",",
    );
    let _ = writeln!(json, "  \"workers\": {},", config.workers);
    let _ = writeln!(json, "  \"default_batch\": {},", config.batch);
    let _ = writeln!(json, "  \"samples_per_point\": {samples},");
    json.push_str("  \"results\": [\n");
    for (i, row) in sweep.iter().enumerate() {
        let batch1_ns = sweep
            .iter()
            .find(|r| r.topology == row.topology && r.batch == 1)
            .expect("batch=1 is in the sweep")
            .sched
            .as_nanos();
        let vs_batch1 = batch1_ns as f64 / row.sched.as_nanos() as f64;
        let _ = writeln!(
            json,
            "    {{\"topology\": \"{}\", \"batch\": {}, \"sched_ns\": {}, \"speedup_vs_batch1\": {:.3}}}{}",
            row.topology,
            row.batch,
            row.sched.as_nanos(),
            vs_batch1,
            if i + 1 < sweep.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&handoff_path, &json).expect("write hand-off sweep json");
    println!("wrote {handoff_path}");

    // ---- Streaming handle vs one-shot batch (both engines) ----
    //
    // Two unified-API streaming drivers are measured against the batch
    // path on the same engine instance and config:
    //
    // * `interleaved` (`run_stream_interleaved`, window = the ingress
    //   capacity): one thread alternates bounded-window sends with
    //   output drains — the cheapest legitimate streaming client, and
    //   the number that isolates the handle indirection itself;
    // * `threads` (`run_stream`): a feeder thread pushes against the
    //   ingress bound while the main thread drains — true concurrent
    //   production/consumption, which on a single-CPU host additionally
    //   pays cross-thread wakeups.
    //
    // Both min (robust against CI scheduler noise — the gated statistic)
    // and median are reported.
    struct StreamRow {
        engine: &'static str,
        mode: &'static str,
        topology: String,
        streaming_min: Duration,
        streaming_median: Duration,
        batch_min: Duration,
        batch_median: Duration,
    }
    /// (median, min) wall-clock over `samples` runs, after one warm-up.
    fn med_min(samples: usize, mut f: impl FnMut()) -> (Duration, Duration) {
        f();
        let mut times: Vec<Duration> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed()
            })
            .collect();
        times.sort_unstable();
        (times[times.len() / 2], times[0])
    }
    let window = config.channel_capacity.max(1);
    let mut streaming_rows: Vec<StreamRow> = Vec::new();
    for depth in [4usize, 16] {
        let topology = format!("serial_depth={depth}");
        let spec = NetSpec::pipeline((0..depth).map(|_| inc_box()));
        let sched_net = SchedNet::with_config(spec.clone(), config);
        let threaded_net = Net::with_config(spec, config);

        let (sched_batch_med, sched_batch_min) = med_min(samples, || {
            let outs = sched_net.run_batch(records()).unwrap();
            assert_eq!(outs.len(), RECORDS as usize);
        });
        let (threaded_batch_med, threaded_batch_min) = med_min(samples, || {
            let outs = threaded_net.run_batch(records()).unwrap();
            assert_eq!(outs.len(), RECORDS as usize);
        });

        let mut measure = |engine: &'static str, mode: &'static str, f: &mut dyn FnMut()| {
            let (streaming_median, streaming_min) = med_min(samples, f);
            let (batch_median, batch_min) = match engine {
                "threaded" => (threaded_batch_med, threaded_batch_min),
                _ => (sched_batch_med, sched_batch_min),
            };
            eprintln!(
                "{topology:>16} {engine:>8}/{mode:<11}: streaming min {streaming_min:>10.3?} med {streaming_median:>10.3?}  batch min {batch_min:>10.3?}  min-ratio {:.2}x",
                batch_min.as_secs_f64() / streaming_min.as_secs_f64(),
            );
            streaming_rows.push(StreamRow {
                engine,
                mode,
                topology: topology.clone(),
                streaming_min,
                streaming_median,
                batch_min,
                batch_median,
            });
        };
        measure("sched", "interleaved", &mut || {
            let outs = run_stream_interleaved(&sched_net, records()).unwrap();
            assert_eq!(outs.len(), RECORDS as usize);
        });
        measure("sched", "threads", &mut || {
            let outs = run_stream(&sched_net, records()).unwrap();
            assert_eq!(outs.len(), RECORDS as usize);
        });
        measure("threaded", "interleaved", &mut || {
            let outs = run_stream_interleaved(&threaded_net, records()).unwrap();
            assert_eq!(outs.len(), RECORDS as usize);
        });
        measure("threaded", "threads", &mut || {
            let outs = run_stream(&threaded_net, records()).unwrap();
            assert_eq!(outs.len(), RECORDS as usize);
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"streaming handle (start/send_all/recv, bounded ingress) vs one-shot batch, combinator serial pipelines, {RECORDS}-record batches\",",
    );
    let _ = writeln!(json, "  \"workers\": {},", config.workers);
    let _ = writeln!(json, "  \"channel_capacity\": {},", config.channel_capacity);
    let _ = writeln!(json, "  \"stream_window\": {window},");
    let _ = writeln!(json, "  \"samples_per_point\": {samples},");
    let _ = writeln!(
        json,
        "  \"gate\": \"sched/interleaved min-ratio on serial_depth=16 must be >= 0.95 (min-of-samples is the gated statistic: robust to CI scheduler noise)\",",
    );
    json.push_str("  \"results\": [\n");
    for (i, row) in streaming_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"mode\": \"{}\", \"topology\": \"{}\", \"streaming_min_ns\": {}, \"streaming_median_ns\": {}, \"batch_min_ns\": {}, \"batch_median_ns\": {}, \"streaming_throughput_vs_batch\": {:.3}}}{}",
            row.engine,
            row.mode,
            row.topology,
            row.streaming_min.as_nanos(),
            row.streaming_median.as_nanos(),
            row.batch_min.as_nanos(),
            row.batch_median.as_nanos(),
            row.batch_min.as_secs_f64() / row.streaming_min.as_secs_f64(),
            if i + 1 < streaming_rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&streaming_path, &json).expect("write streaming json");
    println!("wrote {streaming_path}");

    let d16_stream = streaming_rows
        .iter()
        .find(|r| r.engine == "sched" && r.mode == "interleaved" && r.topology == "serial_depth=16")
        .expect("sched/interleaved depth-16 is in the streaming rows");
    println!(
        "serial_depth=16: streaming sched (interleaved) runs at {:.2}x batch-sched throughput (CI gate: >= 0.95x)",
        d16_stream.batch_min.as_secs_f64() / d16_stream.streaming_min.as_secs_f64()
    );

    // ---- Failure-policy machinery overhead (scheduled engine) ----
    //
    // All four configurations run the identical fault-free depth-16
    // pipeline; only the policy/deadline knobs differ. `failfast` is
    // the post-robustness hot path with the machinery disabled — the
    // configuration the < 3%-vs-committed-baseline claim is about. The
    // other rows measure what merely *enabling* a deadline or a
    // lenient policy costs when no fault ever fires.
    struct FaultRow {
        mode: &'static str,
        min: Duration,
        median: Duration,
    }
    let fault_spec = NetSpec::pipeline((0..16).map(|_| inc_box()));
    let fault_baseline_ns = baseline_sched_ns(&baseline_json, "serial_depth=16");
    let mut fault_rows: Vec<FaultRow> = Vec::new();
    for (mode, cfg) in [
        ("failfast", config),
        (
            "deadline_generous",
            EngineConfig {
                deadline: Some(Duration::from_secs(3600)),
                ..config
            },
        ),
        (
            "deadletter_clean",
            EngineConfig {
                policy: FailurePolicy::DeadLetter,
                ..config
            },
        ),
        (
            "retry_clean",
            EngineConfig {
                policy: FailurePolicy::Retry {
                    max_attempts: 3,
                    backoff: Duration::from_micros(100),
                },
                ..config
            },
        ),
    ] {
        let net = SchedNet::with_config(fault_spec.clone(), cfg);
        let (median, min) = med_min(samples, || {
            let outs = net.run_batch(records()).unwrap();
            assert_eq!(outs.len(), RECORDS as usize);
        });
        eprintln!("serial_depth=16 {mode:>18}: sched min {min:>10.3?} med {median:>10.3?}");
        fault_rows.push(FaultRow { mode, min, median });
    }

    let failfast_min = fault_rows[0].min;
    let vs_committed = fault_baseline_ns
        .map(|ns| format!("{:.3}", ns as f64 / failfast_min.as_nanos() as f64))
        .unwrap_or_else(|| "null".into());

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"failure-policy machinery overhead, fault-free scheduled serial_depth=16 pipeline, {RECORDS}-record batches\",",
    );
    let _ = writeln!(json, "  \"workers\": {},", config.workers);
    let _ = writeln!(json, "  \"samples_per_point\": {samples},");
    let _ = writeln!(
        json,
        "  \"committed_baseline\": \"sched_ns for serial_depth=16 from {} as committed before this run (the pre-robustness scheduler)\",",
        baseline_path
    );
    let _ = writeln!(
        json,
        "  \"gate\": \"failfast_vs_committed_throughput >= 0.97 locally (< 3% overhead with the machinery disabled); CI gates the cross-machine backstop >= 0.85, same-run overhead_vs_failfast <= 1.05 for deadline_generous, and <= 1.30 for the lenient policies (their one-clone-per-record cost)\",",
    );
    let _ = writeln!(
        json,
        "  \"failfast_vs_committed_throughput\": {vs_committed},"
    );
    json.push_str("  \"results\": [\n");
    for (i, row) in fault_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"sched_min_ns\": {}, \"sched_median_ns\": {}, \"overhead_vs_failfast\": {:.3}}}{}",
            row.mode,
            row.min.as_nanos(),
            row.median.as_nanos(),
            row.min.as_nanos() as f64 / failfast_min.as_nanos() as f64,
            if i + 1 < fault_rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&fault_path, &json).expect("write fault overhead json");
    println!("wrote {fault_path}");
    if let Some(ns) = fault_baseline_ns {
        println!(
            "serial_depth=16: failfast (machinery off) runs at {:.3}x the committed pre-robustness throughput (local gate: >= 0.97x)",
            ns as f64 / failfast_min.as_nanos() as f64
        );
    }

    // ---- Operator fusion: fused vs unfused scheduled engine ----
    //
    // The same fault-free pipelines, same pool, same hand-off batch —
    // the only difference is the planner collapsing the SISO box run
    // into one fused-chain task. min-of-samples is the gated statistic.
    struct FusionRow {
        topology: String,
        fused_min: Duration,
        fused_median: Duration,
        unfused_min: Duration,
        unfused_median: Duration,
    }
    /// (median, min) pairs for two alternating measurees. The fusion
    /// gate is a *ratio* of the two, so the samples are interleaved —
    /// A, B, A, B, … — rather than block-sampled: slow machine drift
    /// (thermal, scheduler mood) then hits both sides equally instead
    /// of skewing whichever block ran during the bad stretch.
    #[allow(clippy::type_complexity)]
    fn med_min_paired(
        samples: usize,
        mut a: impl FnMut(),
        mut b: impl FnMut(),
    ) -> ((Duration, Duration), (Duration, Duration)) {
        a();
        b();
        let mut ta: Vec<Duration> = Vec::with_capacity(samples);
        let mut tb: Vec<Duration> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            a();
            ta.push(t0.elapsed());
            let t0 = Instant::now();
            b();
            tb.push(t0.elapsed());
        }
        ta.sort_unstable();
        tb.sort_unstable();
        ((ta[ta.len() / 2], ta[0]), (tb[tb.len() / 2], tb[0]))
    }
    let mut fusion_rows: Vec<FusionRow> = Vec::new();
    for depth in [4usize, 16] {
        let topology = format!("serial_depth={depth}");
        let spec = NetSpec::pipeline((0..depth).map(|_| inc_box()));
        let fused_net = SchedNet::with_config(
            spec.clone(),
            EngineConfig {
                fuse: true,
                ..config
            },
        );
        let unfused_net = SchedNet::with_config(spec, config);
        let ((fused_median, fused_min), (unfused_median, unfused_min)) = med_min_paired(
            samples,
            || {
                let outs = fused_net.run_batch(records()).unwrap();
                assert_eq!(outs.len(), RECORDS as usize);
            },
            || {
                let outs = unfused_net.run_batch(records()).unwrap();
                assert_eq!(outs.len(), RECORDS as usize);
            },
        );
        eprintln!(
            "{topology:>16}: fused min {fused_min:>10.3?}  unfused min {unfused_min:>10.3?}  speedup {:.2}x",
            unfused_min.as_secs_f64() / fused_min.as_secs_f64(),
        );
        fusion_rows.push(FusionRow {
            topology,
            fused_min,
            fused_median,
            unfused_min,
            unfused_median,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"SISO-chain operator fusion on vs off, scheduled engine, combinator serial pipelines, {RECORDS}-record batches\",",
    );
    let _ = writeln!(json, "  \"workers\": {},", config.workers);
    let _ = writeln!(json, "  \"samples_per_point\": {samples},");
    let _ = writeln!(
        json,
        "  \"gate\": \"speedup_fused_over_unfused on serial_depth=16 must be >= 1.5 locally; CI gates the cross-machine backstop >= 1.2 (min-of-samples is the gated statistic)\",",
    );
    json.push_str("  \"results\": [\n");
    for (i, row) in fusion_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"topology\": \"{}\", \"fused_min_ns\": {}, \"fused_median_ns\": {}, \"unfused_min_ns\": {}, \"unfused_median_ns\": {}, \"speedup_fused_over_unfused\": {:.3}}}{}",
            row.topology,
            row.fused_min.as_nanos(),
            row.fused_median.as_nanos(),
            row.unfused_min.as_nanos(),
            row.unfused_median.as_nanos(),
            row.unfused_min.as_nanos() as f64 / row.fused_min.as_nanos() as f64,
            if i + 1 < fusion_rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&fusion_path, &json).expect("write fusion json");
    println!("wrote {fusion_path}");

    let d16_fusion = fusion_rows.last().expect("two fusion rows");
    println!(
        "serial_depth=16: fused chain runs at {:.2}x unfused scheduled throughput (local gate: >= 1.5x; CI backstop: >= 1.2x)",
        d16_fusion.unfused_min.as_nanos() as f64 / d16_fusion.fused_min.as_nanos() as f64
    );
}
