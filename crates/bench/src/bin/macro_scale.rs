//! Million-record macro-benchmark: many concurrent streaming sessions
//! on one scheduled-engine pool.
//!
//! Every other bench in the workspace measures 256-record batches; the
//! ROADMAP's north star is *sustained* heavy traffic. This harness
//! streams `--records` records (default 1,000,000) split across
//! `--sessions` concurrent streaming sessions, each a `SchedHandle` on
//! the **same** persistent worker pool, through a depth-`--depth`
//! pipeline of `tick` boxes (which fuses to a single chain task per
//! session under the default config). It reports:
//!
//! * **sustained throughput** (records/s, wall-clock over all sessions);
//! * **end-to-end latency p50/p99** — each record carries a
//!   timestamp-on-ingress tag (`<ts>`, nanoseconds since the shared
//!   epoch) stamped when it is admitted, and latency is measured when
//!   the record leaves the egress channel;
//! * **peak RSS** (`VmHWM` from `/proc/self/status`) — the bounded
//!   ingress/egress channels plus the per-component high-water marks
//!   give in-flight memory a ceiling that does not grow with the record
//!   count, and the buffer pool (`snet_core::pool`) keeps the
//!   steady-state allocation rate at zero, so peak RSS should be flat
//!   in `--records`.
//!
//! Results land in `--out` (default `BENCH_macro_scale.json`) with the
//! headline metrics at the JSON top level; `bench_gates.toml` gates a
//! throughput backstop, a p99 latency bound, and an RSS ceiling on it.
//!
//! ```text
//! # full mode (the committed BENCH_macro_scale.json):
//! cargo run --release -p snet-bench --bin macro_scale
//! # CI smoke mode (reduced record count, same gates):
//! cargo run --release -p snet-bench --bin macro_scale -- \
//!     --records 150000 --out macro_ci.json
//! ```

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::{NetSpec, Record, Value};
use snet_runtime::TrySendError;
use snet_runtime::{EngineConfig, SchedNet};
use std::fmt::Write as _;
use std::time::Instant;

/// A box that increments `x` and passes the ingress timestamp tag
/// through explicitly. Carrying `<ts>` in the signature (instead of
/// leaving it to flow inheritance) keeps the record an exact match for
/// the box's input variant, which is the engines' no-split fast path —
/// the same calling convention a latency-conscious deployment would
/// pick.
fn tick_box() -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("tick", &["x", "<ts>"], &[&["x", "<ts>"]]),
        |r| {
            let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            let ts = r.tag("ts").unwrap_or(0);
            Ok(BoxOutput::one(
                Record::new()
                    .with_field("x", Value::Int(x + 1))
                    .with_tag("ts", ts),
                Work::ops(1),
            ))
        },
    ))
}

/// `VmHWM` (peak resident set) of this process, in bytes. Linux only;
/// 0 elsewhere.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One streaming session: an interleaved send/drain loop (the
/// `run_stream_interleaved` shape, plus latency bookkeeping) pushing
/// `count` records through its own `SchedHandle` and helping the pool
/// via `drive()` whenever it would otherwise spin. Returns the
/// per-record end-to-end latencies in nanoseconds.
fn run_session(net: &SchedNet, epoch: Instant, count: usize) -> Vec<u64> {
    let handle = net.start();
    let mut latencies: Vec<u64> = Vec::with_capacity(count);
    let mut sent = 0usize;
    let mut closed = false;
    let mut pending: Option<Record> = None;
    while latencies.len() < count {
        // Send phase: admit as much as the ingress bound allows. The
        // timestamp is (re)stamped immediately before each admission
        // attempt so it measures in-network latency, not producer-side
        // throttling.
        while sent < count {
            let now = epoch.elapsed().as_nanos() as i64;
            let rec = match pending.take() {
                Some(mut r) => {
                    r.set_tag("ts", now);
                    r
                }
                None => Record::new()
                    .with_field("x", Value::Int(sent as i64))
                    .with_tag("ts", now),
            };
            match handle.try_send(rec) {
                Ok(()) => sent += 1,
                Err(TrySendError::Full(r)) => {
                    pending = Some(r);
                    break;
                }
                Err(TrySendError::Closed(e)) => panic!("ingress closed mid-run: {e}"),
            }
        }
        if sent == count && !closed {
            handle.close_input();
            closed = true;
        }
        // Drain phase: every egress record yields one latency sample.
        let mut drained = false;
        while let Some(rec) = handle.try_recv() {
            let now = epoch.elapsed().as_nanos() as i64;
            let ts = rec.tag("ts").expect("ts tag survives the pipeline");
            latencies.push(now.saturating_sub(ts).max(0) as u64);
            drained = true;
        }
        // Neither side moved: help the pool instead of spinning.
        if !drained && latencies.len() < count && !handle.drive() {
            std::thread::yield_now();
        }
    }
    handle.finish().expect("run failed");
    latencies
}

/// `p`-th percentile (0–100) of an unsorted sample set, in place.
fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * p / 100.0).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

fn main() {
    let mut records = 1_000_000usize;
    let mut sessions = 8usize;
    let mut depth = 16usize;
    let mut out_path = "BENCH_macro_scale.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--records" => {
                records = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--records needs a number");
            }
            "--sessions" => {
                sessions = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0)
                    .expect("--sessions needs a positive number");
            }
            "--depth" => {
                depth = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&d| d > 0)
                    .expect("--depth needs a positive number");
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                panic!("unknown flag `{other}` (--records N, --sessions N, --depth N, --out PATH)")
            }
        }
    }
    let mode = if records >= 1_000_000 {
        "full"
    } else {
        "smoke"
    };
    let config = EngineConfig::default();
    let spec = NetSpec::pipeline((0..depth).map(|_| tick_box()));
    let net = SchedNet::with_config(spec, config);

    // Warm-up: fills the buffer pools, spawns the workers, and grows
    // every mailbox/channel to its steady-state capacity, so the
    // measured window is the steady state the gates reason about.
    run_session(&net, Instant::now(), 10_000.min(records));

    let per_session = records / sessions;
    let remainder = records - per_session * sessions;
    eprintln!(
        "macro_scale: {records} records, {sessions} sessions, depth {depth}, \
         {} workers ({mode} mode)",
        config.workers
    );
    let epoch = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let net = &net;
                let count = per_session + usize::from(s < remainder);
                scope.spawn(move || run_session(net, epoch, count))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("session panicked"))
            .collect()
    });
    let elapsed = epoch.elapsed();
    assert_eq!(latencies.len(), records, "every record must come back");

    let throughput = records as f64 / elapsed.as_secs_f64();
    let p50_us = percentile(&mut latencies, 50.0) as f64 / 1_000.0;
    let p99_us = percentile(&mut latencies, 99.0) as f64 / 1_000.0;
    let peak_rss = peak_rss_bytes();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"macro_scale: {records} records over {sessions} \
         concurrent streaming sessions, depth-{depth} pipeline, one pool\","
    );
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"records\": {records},");
    let _ = writeln!(json, "  \"sessions\": {sessions},");
    let _ = writeln!(json, "  \"depth\": {depth},");
    let _ = writeln!(json, "  \"workers\": {},", config.workers);
    let _ = writeln!(json, "  \"channel_capacity\": {},", config.channel_capacity);
    let _ = writeln!(json, "  \"batch\": {},", config.batch);
    let _ = writeln!(json, "  \"fuse\": {},", config.fuse);
    let _ = writeln!(json, "  \"elapsed_s\": {:.3},", elapsed.as_secs_f64());
    let _ = writeln!(json, "  \"throughput_rps\": {throughput:.0},");
    let _ = writeln!(json, "  \"p50_latency_us\": {p50_us:.1},");
    let _ = writeln!(json, "  \"p99_latency_us\": {p99_us:.1},");
    let _ = writeln!(json, "  \"peak_rss_bytes\": {peak_rss},");
    let _ = writeln!(
        json,
        "  \"note\": \"latency = egress time minus the ts tag stamped at ingress \
         admission; peak RSS is VmHWM, which is flat in the record count because \
         in-flight records are bounded by the channel capacities and high-water \
         marks and steady-state buffers are pool-recycled (see the Memory & scale \
         section in snet-runtime)\""
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write macro_scale json");

    eprintln!(
        "macro_scale: {throughput:.0} rec/s, p50 {p50_us:.1} us, p99 {p99_us:.1} us, \
         peak RSS {:.1} MiB over {:.2}s",
        peak_rss as f64 / (1024.0 * 1024.0),
        elapsed.as_secs_f64()
    );
    println!("wrote {out_path}");
}
