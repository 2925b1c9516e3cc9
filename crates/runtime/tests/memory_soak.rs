//! Million-record soak: peak RSS stays under the bounded-memory
//! ceiling the streaming design promises.
//!
//! A feeder thread pushes 1M records through a depth-8 unfused pipeline
//! (nine mailboxes — the full hand-off graph, the worst case for
//! resident buffers) while the consumer is deliberately *throttled*, so
//! ingress backpressure and every per-component high-water mark are
//! actually exercised. Records in flight are bounded by
//! `channel_capacity` (ingress + egress channels) plus the
//! per-component high-water mark (`16 × channel_capacity`), so peak
//! RSS growth over the run must be a function of the topology and
//! configuration — **not** of the record count. Without bounded
//! channels (or with a leak in the recycling layer) a throttled
//! consumer lets the full million records pile up resident, which costs
//! ~100+ MB and fails the bound by an order of magnitude.

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::{NetSpec, Record, Value};
use snet_runtime::{EngineConfig, SchedNet};

/// `VmHWM` (peak resident set) of this process in bytes (Linux).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let kb: u64 = line
            .strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb * 1024)
    })
}

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

#[test]
fn million_record_soak_stays_under_the_rss_ceiling() {
    // The full million in optimized builds; enough to dwarf the ceiling
    // by >10x in debug builds too, without a multi-minute test step.
    let records: usize = if cfg!(debug_assertions) {
        250_000
    } else {
        1_000_000
    };
    const DEPTH: usize = 8;
    let config = EngineConfig {
        fuse: false,
        ..EngineConfig::default()
    };
    let net = SchedNet::with_config(NetSpec::pipeline((0..DEPTH).map(|_| inc_box())), config);

    // Warm-up run: worker threads (stacks!), pools, and channel
    // capacities all come into existence here, so the measured growth
    // below is the streaming steady state, not one-time setup.
    let outs = net
        .run_batch(
            (0..1024)
                .map(|i| Record::new().with_field("x", Value::Int(i)))
                .collect(),
        )
        .expect("warm-up run failed");
    assert_eq!(outs.len(), 1024);

    let Some(before) = peak_rss_bytes() else {
        eprintln!("no /proc/self/status; skipping RSS soak on this platform");
        return;
    };

    let handle = net.start();
    let received = std::thread::scope(|scope| {
        let feeder = {
            let handle = &handle;
            scope.spawn(move || {
                for i in 0..records {
                    // Blocking send: parks on the ingress bound whenever
                    // the throttled consumer lets the pipeline back up.
                    handle
                        .send(Record::new().with_field("x", Value::Int(i as i64)))
                        .expect("send failed");
                }
                handle.close_input();
            })
        };
        let mut received = 0usize;
        let mut check = 0u64;
        while let Some(rec) = handle.recv() {
            check += rec.field("x").and_then(|v| v.as_int()).unwrap_or(0) as u64;
            received += 1;
            // Throttle: pause the consumer every 8k records so the
            // backpressure path (full egress channel, high-water
            // yields, parked feeder) is genuinely exercised.
            if received.is_multiple_of(8192) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        feeder.join().expect("feeder panicked");
        // Spot-check the stream actually flowed through all stages:
        // sum of (i + DEPTH) over 0..records.
        let expect: u64 = (0..records as u64).sum::<u64>() + records as u64 * DEPTH as u64;
        assert_eq!(check, expect);
        received
    });
    handle.finish().expect("run failed");
    assert_eq!(received, records);

    let after = peak_rss_bytes().expect("VmHWM read before, must read after");
    let growth = after.saturating_sub(before);

    // The ceiling, derived from the configuration: records in flight
    // are bounded by the ingress mailbox + one high-water mark per
    // mailbox behind it (DEPTH boxes + the egress) + `cap` (the window
    // a take moves the egress's backlog into can hold up to one more
    // high-water mark, well inside the slack below), each record
    // costing well under 1 KiB here. Everything else (pool freelists,
    // mailbox waiter lists, trace counters) is configuration-sized too.
    // 16 MiB of slack covers allocator fragmentation and thread-cache
    // noise; a million resident records (~100+ MB) fails by an order of
    // magnitude, in debug-mode record counts too.
    let cap = config.channel_capacity;
    let high_water = cap * 16;
    let in_flight = cap + (DEPTH + 1) * high_water + cap;
    let ceiling = 16 * 1024 * 1024 + (in_flight as u64) * 1024;
    eprintln!(
        "soak: {records} records, RSS growth {:.1} MiB (ceiling {:.1} MiB, \
         {in_flight} bounded in-flight records)",
        growth as f64 / (1024.0 * 1024.0),
        ceiling as f64 / (1024.0 * 1024.0),
    );
    assert!(
        growth < ceiling,
        "peak RSS grew {growth} bytes over the soak — past the {ceiling}-byte \
         ceiling derived from channel_capacity={cap}; streaming memory must \
         not scale with record count"
    );
}
