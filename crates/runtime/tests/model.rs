//! The scheduler's own code under the `snet-check` model checker.
//!
//! Built only with `--cfg snet_check`, where the scheduler's atomics,
//! condvars, threads and (through the `parking_lot` shim) mutexes are
//! the checker's, so each scenario below runs real `SchedNet`s — the
//! pool's `notify`/`park`, the task transport, the egress and the
//! handle — under every schedule up to its preemption bound:
//!
//! ```text
//! RUSTFLAGS="--cfg snet_check" cargo test -p snet-runtime --test model
//! ```
//!
//! The nets are unfused, hand off one record at a time (`batch = 1`)
//! and hold a capacity of one record at the ingress, so every
//! hand-off is a mailbox lock and a wake, and the high-water mark is
//! 16 records. Each scenario asserts its outputs, that the search
//! exhausted its bound, and that no timed wait ever fired: the park
//! quantum and the 100 ms poll of a thread outside the pool are
//! backstops, and a wake that leaves the net stuck until one fires is
//! a lost wake.

#![cfg(snet_check)]

use snet_check::sync::{Condvar, Mutex};
use snet_check::{check, thread, Config};
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::{NetSpec, Record, SnetError, Value};
use snet_runtime::{EngineConfig, SchedNet};
use std::sync::Arc;
use std::time::Instant;

/// A one-field box `x -> f(x)`.
fn step(name: &str, f: impl Fn(i64) -> i64 + Send + Sync + 'static) -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse(name, &["x"], &[&["x"]]),
        move |r| {
            let x = r
                .field("x")
                .and_then(|v| v.as_int())
                .ok_or_else(|| SnetError::Engine("expected int field x".into()))?;
            Ok(BoxOutput::one(rec(f(x)), Work::ZERO))
        },
    ))
}

fn inc(name: &str) -> NetSpec {
    step(name, |x| x + 1)
}

fn rec(x: i64) -> Record {
    Record::new().with_field("x", Value::Int(x))
}

/// The `x` of each record, sorted.
fn xs(records: &[Record]) -> Vec<i64> {
    let mut xs: Vec<i64> = records
        .iter()
        .map(|r| r.field("x").and_then(|v| v.as_int()).expect("int field x"))
        .collect();
    xs.sort_unstable();
    xs
}

/// The finest grain the engine has, on `workers` workers.
fn fine(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        batch: 1,
        channel_capacity: 1,
        fuse: false,
        ..EngineConfig::default()
    }
}

/// Explores every schedule of `scenario` with at most `bound`
/// preemptions, failing on the first schedule that breaks it, and
/// insists the search exhausted the bound. Prints what it explored.
fn explore(name: &str, bound: usize, scenario: impl Fn() + Send + Sync + 'static) {
    let cfg = Config {
        preemption_bound: Some(bound),
        max_schedules: 1_000_000,
        ..Config::default()
    };
    let start = Instant::now();
    let report = check(cfg, move || {
        scenario();
        assert_eq!(snet_check::timeouts_fired(), 0, "a wake was lost");
    })
    .unwrap_or_else(|f| panic!("{f}"));
    eprintln!(
        "{name}: bound {bound}, {} schedules, {:.2} s",
        report.schedules,
        start.elapsed().as_secs_f64()
    );
    assert!(report.complete, "{name}: {report:?}");
}

/// Stream: one stage, two records, a consumer thread. The second
/// `send` waits for room at the ingress, the consumer waits at the
/// egress for records and then for the end: both waits of a thread
/// outside the pool against the worker's drains, flushes and closes.
#[test]
fn stream_waits_at_the_ingress_and_the_egress() {
    explore("stream", 2, || {
        let net = SchedNet::with_config(inc("inc"), fine(1));
        let handle = Arc::new(net.start());
        let consumer = {
            let handle = Arc::clone(&handle);
            thread::spawn(move || std::iter::from_fn(|| handle.recv()).collect::<Vec<_>>())
        };
        handle.send(rec(1)).expect("send");
        handle.send(rec(2)).expect("send");
        handle.close_input();
        let outputs = consumer.join().expect("consumer");
        assert_eq!(xs(&outputs), [2, 3]);
        Arc::into_inner(handle)
            .expect("the consumer let go of the handle")
            .finish()
            .expect("finish");
    });
}

/// Batch: two stages, 17 records. The first stage's backlog in the
/// second's mailbox reaches the 16-record high-water mark, so it is
/// held back and must be queued again by the second stage's drain.
#[test]
fn batch_holds_back_at_the_high_water_mark() {
    explore("batch hold-back", 2, || {
        let net = SchedNet::with_config(NetSpec::pipeline([inc("a"), inc("b")]), fine(1));
        let outputs = net.run_batch((0..17).map(rec).collect()).expect("run");
        assert_eq!(xs(&outputs), (2..19).collect::<Vec<_>>());
    });
}

/// A split unfolds a replica per tag value and, at end-of-stream,
/// closes them from its own finalize. Whoever closes the split's last
/// sender — the driver, when the worker has drained it — finalizes it
/// in place and the cascade reaches the replicas, while the worker runs
/// the replica activations the split queued.
#[test]
fn split_unfolding_races_the_last_close() {
    explore("split eos", 2, || {
        let net = SchedNet::with_config(NetSpec::split(inc("inc"), "k"), fine(1));
        let inputs = (0..2).map(|k| rec(k).with_tag("k", k)).collect();
        let outputs = net.run_batch(inputs).expect("run");
        assert_eq!(xs(&outputs), [1, 2]);
    });
}

/// Two workers, two stages, 17 records: the first stage's outputs land
/// on the queue of the worker that ran it, where the other raids them,
/// and the second stage drains the backlog that holds the first back
/// while the first looks at it from the other worker.
#[test]
fn two_workers_hold_back_and_steal() {
    explore("two workers hold-back", 1, || {
        let net = SchedNet::with_config(NetSpec::pipeline([inc("a"), inc("b")]), fine(2));
        let outputs = net.run_batch((0..17).map(rec).collect()).expect("run");
        assert_eq!(xs(&outputs), (2..19).collect::<Vec<_>>());
    });
}

/// Two workers and a box that holds its worker: `a` takes long over its
/// first record (it yields the core) and will not pass on its second
/// until `b` has passed on the first. `b` waits on the queue of the
/// worker stuck in `a`, so only the other worker can run it — whether
/// it was parking when `b` was queued, or spinning on `a`, which is
/// queued again behind the running activation.
#[test]
fn two_workers_steal_from_a_held_worker() {
    explore("two workers held", 1, || {
        let seen = Arc::new((Mutex::new(0usize), Condvar::new()));
        let a = {
            let seen = Arc::clone(&seen);
            step("a", move |x| {
                if x == 0 {
                    thread::yield_now();
                } else {
                    let (count, cv) = &*seen;
                    let mut count = count.lock().unwrap();
                    while *count == 0 {
                        count = cv.wait(count).unwrap();
                    }
                }
                x + 1
            })
        };
        let b = step("b", move |x| {
            let (count, cv) = &*seen;
            *count.lock().unwrap() += 1;
            cv.notify_all();
            x + 1
        });
        let net = SchedNet::with_config(NetSpec::pipeline([a, b]), fine(2));
        let outputs = net.run_batch((0..2).map(rec).collect()).expect("run");
        assert_eq!(xs(&outputs), [2, 3]);
    });
}
