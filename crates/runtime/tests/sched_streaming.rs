//! Lifecycle and backpressure regression tests for the scheduled
//! engine's persistent worker pool and streaming `start()` API.
//!
//! What is pinned down here, each a bug in the pre-streaming engine:
//!
//! * `run_batch` used to spawn and join a fresh worker pool on every
//!   call — consecutive batches must now reuse the same OS threads;
//! * the driver used to poll for quiescence on a 5 ms timeout loop —
//!   completion must be wake-driven, so short runs finish promptly;
//! * the entry mailbox used to accept the whole input unboundedly —
//!   streaming ingress must hold resident records at
//!   `EngineConfig::channel_capacity`;
//! * dropping a handle without `finish()` must neither deadlock nor
//!   leak pool threads;
//! * a handle that outlives its network used to accept records nobody
//!   would process, block a full send forever and finish `Ok` — it
//!   must fail instead, unless its run had completed.

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::{NetSpec, Record, SnetError, Value};
use snet_runtime::{
    run_stream, run_stream_interleaved, EngineConfig, SchedHandle, SchedNet, Trace, TrySendError,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn int_box(name: &str, f: fn(i64) -> i64) -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse(name, &["x"], &[&["x"]]),
        move |r| {
            let x = r
                .field("x")
                .and_then(|v| v.as_int())
                .ok_or_else(|| SnetError::Engine("expected int field x".into()))?;
            Ok(BoxOutput::one(
                Record::new().with_field("x", Value::Int(f(x))),
                Work::ops(1),
            ))
        },
    ))
}

fn recs(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new().with_field("x", Value::Int(i)))
        .collect()
}

fn xs(records: &[Record]) -> Vec<i64> {
    let mut v: Vec<i64> = records
        .iter()
        .filter_map(|r| r.field("x").and_then(|v| v.as_int()))
        .collect();
    v.sort_unstable();
    v
}

/// Two consecutive `run_batch` calls on one `SchedNet` must run their
/// box code on the same pool threads: the set of distinct worker
/// thread ids across both runs stays within the configured pool size,
/// and the spawn counter never moves past it.
#[test]
fn run_batch_reuses_pool_threads() {
    let ids: Arc<Mutex<HashSet<ThreadId>>> = Arc::new(Mutex::new(HashSet::new()));
    let ids2 = Arc::clone(&ids);
    let probe = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("probe", &["x"], &[&["x"]]),
        move |r| {
            ids2.lock().unwrap().insert(std::thread::current().id());
            Ok(BoxOutput::one(r.clone(), Work::ops(1)))
        },
    ));
    let workers = 2;
    let net = SchedNet::with_config(
        probe,
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    );
    for round in 0..2 {
        let outs = net.run_batch(recs(64)).unwrap();
        assert_eq!(outs.len(), 64, "round {round}");
    }
    let distinct = ids.lock().unwrap().len();
    assert!(
        distinct <= workers,
        "two runs touched {distinct} distinct worker threads — a fresh pool \
         per run would show up to {}",
        2 * workers
    );
    assert_eq!(
        net.workers_spawned(),
        workers,
        "the pool must be spawned exactly once across runs"
    );
}

/// Completion is wake-driven (the egress's last close wakes the
/// driver), so a trivial depth-1 run must not pay a polling-interval
/// tail. 50 runs at the old 5 ms poll interval alone would take 250 ms;
/// the bound below fails even the cheapest polling regression while
/// leaving two orders of magnitude of headroom over the measured
/// per-run cost on a loaded CI box. The stream case holds a consumer
/// blocked in `recv` across the close: a close that does not wake it
/// leaves it to the 100 ms backstop, 5 s over 50 runs.
#[test]
fn short_runs_complete_promptly_without_polling() {
    let net = SchedNet::new(int_box("inc", |x| x + 1));
    net.run_batch(recs(1)).unwrap(); // spawn + warm the pool
    let t0 = Instant::now();
    for _ in 0..50 {
        let outs = net.run_batch(recs(1)).unwrap();
        assert_eq!(outs.len(), 1);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 warm depth-1 batches took {elapsed:?} — completion is polling, not wake-driven"
    );

    let t0 = Instant::now();
    for _ in 0..50 {
        let h = net.start();
        h.send_all(recs(1)).unwrap();
        assert!(h.recv().is_some());
        std::thread::scope(|s| {
            let consumer = s.spawn(|| h.recv());
            std::thread::sleep(Duration::from_millis(1));
            h.close_input();
            assert!(consumer.join().unwrap().is_none());
        });
        h.finish().unwrap();
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 warm depth-1 streams took {elapsed:?} — end-of-stream is polling, not wake-driven"
    );
}

/// Deterministic ingress bound: with the single worker wedged inside a
/// box call, the entry mailbox fills to exactly `channel_capacity` and
/// the next `try_send` reports `Full` instead of buffering.
#[test]
fn try_send_reports_full_at_configured_capacity() {
    // Gate protocol: 0 = no record seen, 1 = first record inside the
    // box (worker wedged), 2 = released.
    let gate = Arc::new((Mutex::new(0u8), Condvar::new()));
    let gate2 = Arc::clone(&gate);
    let gated = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("gated", &["x"], &[&["x"]]),
        move |r| {
            let (lock, cv) = &*gate2;
            let mut st = lock.lock().unwrap();
            if *st == 0 {
                *st = 1;
                cv.notify_all();
            }
            while *st < 2 {
                st = cv.wait(st).unwrap();
            }
            drop(st);
            Ok(BoxOutput::one(r.clone(), Work::ops(1)))
        },
    ));
    let cap = 4;
    let net = SchedNet::with_config(
        gated,
        EngineConfig {
            workers: 1,
            channel_capacity: cap,
            ..EngineConfig::default()
        },
    );
    let h = net.start();
    h.send(Record::new().with_field("x", Value::Int(0)))
        .unwrap();
    {
        // Wait until the worker has claimed that record and is wedged
        // inside the box; from here on nothing drains the entry mailbox.
        let (lock, cv) = &*gate;
        let mut st = lock.lock().unwrap();
        while *st < 1 {
            st = cv.wait(st).unwrap();
        }
    }
    for i in 1..=cap as i64 {
        h.try_send(Record::new().with_field("x", Value::Int(i)))
            .unwrap_or_else(|_| panic!("record {i} fits under the capacity bound"));
    }
    assert_eq!(h.input_backlog(), cap, "entry mailbox filled to the bound");
    let overflow = Record::new().with_field("x", Value::Int(99));
    let back = match h.try_send(overflow) {
        Err(TrySendError::Full(rec)) => rec,
        other => panic!("expected Full at capacity, got {other:?}"),
    };
    // Release the worker; the blocking send path must now find space.
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = 2;
        cv.notify_all();
    }
    h.send(back).unwrap();
    h.close_input();
    let mut outs = Vec::new();
    while let Some(r) = h.recv() {
        outs.push(r);
    }
    assert_eq!(xs(&outs), vec![0, 1, 2, 3, 4, 99]);
    h.finish().unwrap();
}

/// The issue's backpressure scenario: a producer pushes N ≫ capacity
/// records against a throttled consumer. Resident records in the entry
/// mailbox must never exceed the configured capacity while outputs
/// stream out, and every record must still arrive.
#[test]
fn slow_consumer_bounds_resident_records() {
    let cap = 8;
    let total = 400i64;
    let net = SchedNet::with_config(
        int_box("inc", |x| x + 1),
        EngineConfig {
            workers: 2,
            channel_capacity: cap,
            ..EngineConfig::default()
        },
    );
    let h = net.start();
    let max_backlog = AtomicUsize::new(0);
    let mut outs = Vec::new();
    std::thread::scope(|s| {
        let h = &h;
        s.spawn(move || {
            for rec in recs(total) {
                h.send(rec).expect("network stays up");
            }
            h.close_input();
        });
        while let Some(r) = h.recv() {
            outs.push(r);
            // Throttle the drain so ingress pressure actually builds.
            if outs.len() % 16 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            max_backlog.fetch_max(h.input_backlog(), Ordering::Relaxed);
        }
    });
    h.finish().unwrap();
    assert_eq!(outs.len(), total as usize);
    assert_eq!(xs(&outs), (1..=total).collect::<Vec<_>>());
    let observed = max_backlog.load(Ordering::Relaxed);
    assert!(
        observed <= cap,
        "entry mailbox reached {observed} resident records with capacity {cap}"
    );
}

/// Backpressure propagates upstream: with the second stage of an
/// unfused `fast .. gate` pipeline wedged in its box, the first stage
/// stops consuming once the gate's mailbox passes its high-water mark,
/// so the entry mailbox fills and `try_send` stays `Full` after a few
/// dozen records — the bound a component's `held_back_by` port sets.
/// Opened, the gate lets every record through.
#[test]
fn a_stalled_stage_holds_back_the_stage_feeding_it() {
    const TOTAL: i64 = 20_000;
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let gate2 = Arc::clone(&gate);
    let gated = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("gate", &["x"], &[&["x"]]),
        move |r| {
            let (lock, cv) = &*gate2;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            Ok(BoxOutput::one(r.clone(), Work::ops(1)))
        },
    ));
    let net = SchedNet::with_config(
        NetSpec::serial(int_box("fast", |x| x + 1), gated),
        EngineConfig {
            workers: 2,
            channel_capacity: 4,
            fuse: false,
            ..EngineConfig::default()
        },
    );
    let h = net.start();
    let mut accepted = 0;
    let mut full_since: Option<Instant> = None;
    while accepted < TOTAL {
        match h.try_send(Record::new().with_field("x", Value::Int(accepted))) {
            Ok(()) => {
                accepted += 1;
                full_since = None;
            }
            Err(TrySendError::Full(_)) => {
                let since = *full_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= Duration::from_millis(200) {
                    break;
                }
                std::thread::yield_now();
            }
            Err(other) => panic!("the network stays up: {other:?}"),
        }
    }
    // Opened before the bound is checked, so a run that breaks it fails
    // instead of leaving a worker wedged in the gate.
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    assert!(
        accepted < 1_000,
        "{accepted} records accepted against a stalled stage"
    );
    // The egress fills while `send` blocks, so a thread of its own
    // drains it.
    let outs = std::thread::scope(|s| {
        let h = &h;
        let consumer = s.spawn(move || std::iter::from_fn(|| h.recv()).collect::<Vec<_>>());
        for i in accepted..TOTAL {
            h.send(Record::new().with_field("x", Value::Int(i)))
                .expect("network stays up");
        }
        h.close_input();
        consumer.join().expect("the consumer does not panic")
    });
    h.finish().unwrap();
    assert_eq!(xs(&outs), (1..=TOTAL).collect::<Vec<_>>());
}

/// Dropping a handle without `finish()` — with input still open and
/// outputs undelivered in the egress — must tear the run
/// down without deadlocking a pool worker, and the pool must stay
/// usable (and un-respawned) for later runs.
#[test]
fn dropping_handle_without_finish_is_safe() {
    let net = SchedNet::with_config(
        int_box("inc", |x| x + 1),
        EngineConfig {
            workers: 2,
            channel_capacity: 2, // tiny bounds: nobody takes from the egress
            ..EngineConfig::default()
        },
    );
    {
        let h = net.start();
        for i in 0..20 {
            h.send(Record::new().with_field("x", Value::Int(i)))
                .unwrap();
        }
        // No recv, no close, no finish.
    }
    // The pool survives the abandoned run and serves fresh ones.
    for _ in 0..2 {
        let outs = net.run_batch(recs(50)).unwrap();
        assert_eq!(xs(&outs), (1..=50).collect::<Vec<_>>());
    }
    assert_eq!(
        net.workers_spawned(),
        2,
        "abandoned run must not respawn the pool"
    );
    // `net` drops here; a deadlocked worker would hang the join and
    // thus the test.
}

/// A handle dropped unread while its egress holds back the last stage,
/// with everything upstream held back behind it: only the handle's drop
/// can wake that stage now. The drop hangs up the egress, which must
/// let the held-back stages drain into it and retire every component.
#[test]
fn an_abandoned_handle_retires_every_component() {
    let net = SchedNet::with_config(
        NetSpec::pipeline([int_box("inc", |x| x + 1), int_box("dec", |x| x - 1)]),
        EngineConfig {
            workers: 2,
            channel_capacity: 2,
            fuse: false,
            ..EngineConfig::default()
        },
    );
    let h = net.start();
    let trace = h.trace_arc();
    // Offer records until the ingress has stayed full for 100 ms: the
    // egress and every mailbox behind it are full.
    let mut full_since = None;
    for i in 0..10_000 {
        let mut rec = Record::new().with_field("x", Value::Int(i));
        loop {
            match h.try_send(rec) {
                Ok(()) => {
                    full_since = None;
                    break;
                }
                Err(TrySendError::Full(back)) => rec = back,
                Err(TrySendError::Closed(e)) => panic!("ingress closed: {e}"),
            }
            if full_since.get_or_insert_with(Instant::now).elapsed() > Duration::from_millis(100) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if full_since.is_some() {
            break;
        }
    }
    assert!(
        full_since.is_some(),
        "10 000 records and the ingress never filled"
    );
    drop(h);
    let deadline = Instant::now() + Duration::from_secs(10);
    while trace.get(&trace.components_finalized) < trace.get(&trace.components_built)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        trace.get(&trace.components_finalized),
        trace.get(&trace.components_built),
        "a component of the abandoned run was never retired"
    );
}

/// Streaming a long input through a deep pipeline with tiny ingress and
/// egress bounds: maximal send-side blocking, and a last stage the
/// egress holds back over and over — a 1 → 5 fan-out in front means
/// every activation hands the egress more than its 16- or 32-record
/// limit, so the stage waits on the consumer's take again and again —
/// must still deliver every record in stream order. Both drivers, one
/// and two pool workers.
#[test]
fn tight_capacity_streaming_soak() {
    fn x_of(r: &Record) -> i64 {
        r.field("x").and_then(|v| v.as_int()).expect("int field x")
    }
    let fan_out = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("fan", &["x"], &[&["x"]]),
        |r| {
            let x = x_of(r);
            let outs = (0..5).map(move |k| Record::new().with_field("x", Value::Int(5 * x + k)));
            Ok(BoxOutput::from_iter(outs, Work::ops(1)))
        },
    ));
    let stages = std::iter::once(fan_out).chain((0..8).map(|_| int_box("inc", |x| x + 1)));
    let spec = NetSpec::pipeline(stages.collect::<Vec<_>>());
    let want: Vec<i64> = (8..508).collect();
    for (channel_capacity, workers) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
        let net = SchedNet::with_config(
            spec.clone(),
            EngineConfig {
                workers,
                channel_capacity,
                ..EngineConfig::default()
            },
        );
        let case = format!("capacity {channel_capacity}, {workers} workers");
        for round in 0..2 {
            let outs = run_stream(&net, recs(100)).unwrap();
            let got: Vec<i64> = outs.iter().map(x_of).collect();
            assert_eq!(got, want, "{case}, round {round}");
        }
        let outs = run_stream_interleaved(&net, recs(100)).unwrap();
        let got: Vec<i64> = outs.iter().map(x_of).collect();
        assert_eq!(got, want, "{case}, interleaved");
    }
}

/// One streaming run through a handle, keeping its trace (the public
/// drivers do not hand it back): shaped like `run_stream` (a feeder
/// thread against the blocking ingress while this thread drains) or
/// like `run_stream_interleaved` (one thread: `try_send`, drain what is
/// there, help the pool).
fn stream_traced(
    h: SchedHandle,
    records: Vec<Record>,
    interleaved: bool,
) -> (Vec<Record>, Arc<Trace>) {
    let trace = h.trace_arc();
    let mut outs = Vec::new();
    if interleaved {
        for mut pending in records {
            while let Err(e) = h.try_send(pending) {
                let TrySendError::Full(back) = e else {
                    panic!("ingress closed mid-run: {e}")
                };
                pending = back;
                outs.extend(std::iter::from_fn(|| h.try_recv()));
                if !h.drive() {
                    std::thread::yield_now();
                }
            }
        }
        h.close_input();
    } else {
        std::thread::scope(|s| {
            s.spawn(|| {
                h.send_all(records).expect("network stays up");
                h.close_input();
            });
            outs.extend(std::iter::from_fn(|| h.recv()));
        });
    }
    outs.extend(std::iter::from_fn(|| h.recv()));
    h.finish().unwrap();
    (outs, trace)
}

/// `route_stream`'s net from its source, with a 1 → 2 fan-out box in
/// the star body: at the fused grain each tap runs the body's whole
/// chain (`[{<n>} -> {<n -= 1>}] .. fan .. inc`), so what a tap emits
/// per record it takes in is no longer one, and the tap is held back by
/// the next tap's mailbox. At capacities 1 and 2 the taps, the split
/// and the last stage all run against full mailboxes; every record must still
/// come out, and every component unfolded must be torn down.
#[test]
fn tight_capacity_star_soak() {
    fn x(v: i64) -> Result<BoxOutput, SnetError> {
        Ok(BoxOutput::one(
            Record::new().with_field("x", Value::Int(v)),
            Work::ops(1),
        ))
    }
    fn int(r: &Record, name: &str) -> i64 {
        r.field(name).and_then(|v| v.as_int()).expect("int field")
    }
    let mut reg = snet_lang::BoxRegistry::new();
    reg.register("fromA", |r: &Record| x(2 * int(r, "a") + 1));
    reg.register("fromB", |r: &Record| x(3 * int(r, "b")));
    reg.register("inc", |r: &Record| x(int(r, "x") + 1));
    reg.register("fan", |r: &Record| {
        let v = int(r, "x");
        let outs = [2 * v, 2 * v + 1].map(|v| Record::new().with_field("x", Value::Int(v)));
        Ok(BoxOutput::from_iter(outs, Work::ops(1)))
    });
    let spec = snet_lang::compile(
        "net route_fan {\n    box fromA ((a) -> (x));\n    box fromB ((b) -> (x));\n    \
         box inc ((x) -> (x));\n    box fan ((x) -> (x));\n} connect\n    \
         (fromA | fromB) .. (inc ! <k>)\n    \
         .. ([ {<n>} -> {<n -= 1>} ] .. fan .. inc) * {<n> == 0}\n",
        &reg,
    )
    .unwrap();

    // Record i: `a` or `b` alternately, `<k>` in 0..3, `<n>` in 0..4.
    fn inputs() -> Vec<Record> {
        (0..60)
            .map(|i| {
                let label = if i % 2 == 0 { "a" } else { "b" };
                Record::new()
                    .with_field(label, Value::Int(i))
                    .with_tag("k", i % 3)
                    .with_tag("n", i % 4)
            })
            .collect()
    }
    /// `(x, <k>)` of every output, sorted; `<n>` must have reached 0.
    fn got(outs: &[Record]) -> Vec<(i64, i64)> {
        let mut got: Vec<(i64, i64)> = outs
            .iter()
            .map(|r| {
                assert_eq!(r.tag("n"), Some(0), "{r:?}");
                (int(r, "x"), r.tag("k").expect("<k>"))
            })
            .collect();
        got.sort_unstable();
        got
    }
    // Closed form: `from` + 1 behind the split, then per round every
    // `x` becomes `2x + 1` and `2x + 2`; `<k>` rides along.
    let mut want: Vec<(i64, i64)> = Vec::new();
    for r in inputs() {
        let mut xs = vec![match r.field("a") {
            Some(_) => 2 * int(&r, "a") + 1 + 1,
            None => 3 * int(&r, "b") + 1,
        }];
        for _ in 0..r.tag("n").unwrap() {
            xs = xs.iter().flat_map(|&x| [2 * x + 1, 2 * x + 2]).collect();
        }
        want.extend(xs.into_iter().map(|x| (x, r.tag("k").unwrap())));
    }
    want.sort_unstable();

    for (channel_capacity, workers) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
        let net = SchedNet::with_config(
            spec.clone(),
            EngineConfig {
                workers,
                channel_capacity,
                ..EngineConfig::default()
            },
        );
        let case = format!("capacity {channel_capacity}, {workers} workers");
        let outs = run_stream(&net, inputs()).unwrap();
        assert_eq!(got(&outs), want, "{case}, run_stream");
        let outs = run_stream_interleaved(&net, inputs()).unwrap();
        assert_eq!(got(&outs), want, "{case}, run_stream_interleaved");
        for interleaved in [false, true] {
            let (outs, trace) = stream_traced(net.start(), inputs(), interleaved);
            assert_eq!(
                got(&outs),
                want,
                "{case}, traced, interleaved {interleaved}"
            );
            assert!(trace.get(&trace.star_unfoldings) > 0, "{case}");
            assert_eq!(
                trace.get(&trace.components_built),
                trace.get(&trace.components_finalized),
                "{case}, interleaved {interleaved}: every component torn down"
            );
        }
    }
}

/// A handle is shared by reference between a producer and a consumer
/// thread.
#[test]
fn handles_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SchedHandle>();
}

fn inc_net(channel_capacity: usize) -> SchedNet {
    SchedNet::with_config(
        int_box("inc", |x| x + 1),
        EngineConfig {
            channel_capacity,
            ..EngineConfig::default()
        },
    )
}

/// A handle whose network dropped right after `start()`: the records it
/// accepts while the entry mailbox has room are never processed, so
/// `recv` ends with nothing and `finish` reports an engine error; a
/// send that would wait for room fails at once instead of blocking
/// forever, and so does a `try_send` that would report `Full`.
#[test]
fn a_handle_outliving_its_network_fails_instead_of_hanging() {
    let net = inc_net(4);
    let h = net.start();
    drop(net);
    for i in 0..3 {
        h.send(Record::new().with_field("x", Value::Int(i)))
            .expect("room in the entry mailbox");
    }
    assert!(h.recv().is_none(), "nothing processes the records");
    assert!(matches!(h.finish(), Err(SnetError::Engine(_))));

    let net = inc_net(4);
    let h = net.start();
    drop(net);
    for i in 0..4 {
        h.send(Record::new().with_field("x", Value::Int(i)))
            .expect("room in the entry mailbox");
    }
    let t0 = Instant::now();
    let err = h
        .send(Record::new().with_field("x", Value::Int(4)))
        .expect_err("a full mailbox on a dead pool never drains");
    assert!(matches!(err, SnetError::Engine(_)), "{err}");
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    match h.try_send(Record::new().with_field("x", Value::Int(5))) {
        Err(TrySendError::Closed(SnetError::Engine(_))) => {}
        other => panic!("expected Closed, got {other:?}"),
    }
    assert!(matches!(h.finish(), Err(SnetError::Engine(_))));
}

/// A run that completed before its network dropped, or that the
/// handle's owner carried to completion with `drive()` afterwards, still
/// finishes `Ok` with every output.
#[test]
fn a_run_completed_despite_its_dropped_network_finishes_ok() {
    let net = inc_net(4);
    let h = net.start();
    h.send_all(recs(3)).unwrap();
    h.close_input();
    let outs: Vec<Record> = std::iter::from_fn(|| h.recv()).collect();
    drop(net);
    assert_eq!(xs(&outs), vec![1, 2, 3]);
    h.finish().unwrap();

    let net = inc_net(4);
    let h = net.start();
    drop(net);
    h.send_all(recs(3)).unwrap();
    h.close_input();
    while h.drive() {}
    let outs: Vec<Record> = std::iter::from_fn(|| h.recv()).collect();
    assert_eq!(xs(&outs), vec![1, 2, 3]);
    h.finish().unwrap();
}
