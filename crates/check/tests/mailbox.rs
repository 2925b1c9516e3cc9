//! The sched engine's mailbox wake protocol (`notify` / `park` in
//! `crates/runtime/src/sched/pool.rs`), modeled against the snet-check
//! façade — runs in every build, no special RUSTFLAGS.
//!
//! The protocol: producers CAS a per-task `scheduled` flag, push the
//! task onto a run queue — the shared one from a thread outside the
//! pool, its own from a worker mid-activation — and wake the worker
//! condvar only when `sleepers > 0` (skipping the syscall when every
//! worker is busy). A parking worker registers as a sleeper and
//! **re-probes every run queue** before waiting, holding the sleep
//! lock throughout; the producer-side wake is **lock-then-notify**
//! (acquire and release the sleep lock before `notify_one`), which
//! serializes the notify against the probe→wait window.
//!
//! That lock-then-notify is a fix this checker found. The original
//! protocol notified without the lock, and the DFS driver surfaced the
//! schedule where the producer's entire push+load+notify lands between
//! the worker's re-probe and its condvar wait: the wake is lost and
//! the worker burns its 1ms timed-wait backstop (observable here as
//! `timeouts_fired() == 1`; in production, as bounded wake latency).
//! `unlocked_notify_leans_on_the_timeout` keeps that schedule as a
//! regression model; `shipped_protocol_*` pins that the fixed protocol
//! never touches the backstop on any schedule. The re-probe used to
//! cover the shared queue only, which left the same hole for a push
//! onto a busy worker's own queue: `shared_only_reprobe_*` is that
//! protocol, `own_queue_push_*` the shipped one.

use snet_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use snet_check::sync::{Arc, Condvar, Mutex};
use snet_check::{check, thread, Config};
use std::time::Duration;

/// How the producer-side wake is issued, and how the worker waits.
#[derive(Clone, Copy)]
struct Variant {
    /// Skip the notify when `sleepers == 0` (the shipped gate).
    gate_on_sleepers: bool,
    /// Acquire+release the sleep lock before notifying (the fix).
    lock_before_notify: bool,
    /// Which run queues a parking worker re-probes after sleeper
    /// registration (shipped: every one).
    reprobe: Reprobe,
    /// The queue the producer pushes to: `SHARED` for a thread outside
    /// the pool, `SIBLING` for a worker that queues on its own queue and
    /// stays busy, so only the modelled worker can take the task.
    push_to: usize,
    /// Timed wait (the 1ms production backstop) vs. untimed — untimed
    /// turns any lost wake into a hard deadlock the checker reports.
    timed: bool,
}

/// How many of the run queues, shared one first, `park` re-probes.
#[derive(Clone, Copy)]
enum Reprobe {
    Nothing = 0,
    SharedOnly = 1,
    Every = 2,
}

const SHARED: usize = 0;
const SIBLING: usize = 1;

const SHIPPED: Variant = Variant {
    gate_on_sleepers: true,
    lock_before_notify: true,
    reprobe: Reprobe::Every,
    push_to: SHARED,
    timed: true,
};

/// The worker-pool shared state, reduced to the wake protocol: a run
/// queue is a plain queue of task ids (the shared one and a sibling
/// worker's own), each task is its `scheduled` flag.
struct Pool {
    queues: [Mutex<Vec<usize>>; 2],
    sleep: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
    scheduled: [AtomicBool; 2],
    done: [AtomicUsize; 2],
}

impl Pool {
    fn new() -> Pool {
        Pool {
            queues: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
            sleep: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            scheduled: [AtomicBool::new(false), AtomicBool::new(false)],
            done: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }

    /// `sched/pool.rs::notify`: claim the flag, push, conditionally wake.
    fn notify(&self, task: usize, v: Variant) {
        if self.scheduled[task]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.queues[v.push_to].lock().unwrap().push(task);
            if !v.gate_on_sleepers || self.sleepers.load(Ordering::SeqCst) > 0 {
                if v.lock_before_notify {
                    drop(self.sleep.lock().unwrap());
                }
                self.cv.notify_one();
            }
        }
    }

    /// `sched/pool.rs::park`: register as sleeper under the sleep lock,
    /// re-probe, wait (releasing the lock atomically).
    fn park(&self, v: Variant) {
        let sleep = self.sleep.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.queues[..v.reprobe as usize]
            .iter()
            .any(|q| !q.lock().unwrap().is_empty())
        {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        if v.timed {
            let _ = self
                .cv
                .wait_timeout(sleep, Duration::from_millis(1))
                .unwrap();
        } else {
            let _ = self.cv.wait(sleep).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Worker loop: probe (the shared queue, then a raid on the
    /// sibling's), park when empty, run claimed tasks until both have
    /// been executed once.
    fn worker(&self, v: Variant) {
        loop {
            let task = self.queues.iter().find_map(|q| q.lock().unwrap().pop());
            match task {
                Some(t) => {
                    // `run_task`'s tail: clear the flag, process.
                    self.scheduled[t].store(false, Ordering::Release);
                    self.done[t].fetch_add(1, Ordering::SeqCst);
                }
                None => {
                    if self.done[0].load(Ordering::SeqCst) > 0
                        && self.done[1].load(Ordering::SeqCst) > 0
                    {
                        return;
                    }
                    self.park(v);
                }
            }
        }
    }
}

fn scenario(v: Variant) {
    let pool = Arc::new(Pool::new());
    let producer = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            pool.notify(0, v);
            pool.notify(1, v);
        })
    };
    pool.worker(v);
    producer.join().unwrap();
    assert_eq!(pool.done[0].load(Ordering::SeqCst), 1, "task 0 must run");
    assert_eq!(pool.done[1].load(Ordering::SeqCst), 1, "task 1 must run");
    assert!(
        pool.queues.iter().all(|q| q.lock().unwrap().is_empty()),
        "all pushed work drained"
    );
}

/// The shipped protocol: every schedule drains both tasks and *never*
/// needs the timed-wait backstop.
#[test]
fn shipped_protocol_never_uses_the_timeout() {
    // Bound 4 rather than the default 3: the 2-thread protocol
    // exhausts at bound 3; one more preemption level clears the
    // 1,000-schedule coverage floor while still completing.
    let cfg = Config {
        preemption_bound: Some(4),
        ..Config::default()
    };
    let report = check(cfg, || {
        scenario(SHIPPED);
        assert_eq!(
            snet_check::timeouts_fired(),
            0,
            "wake protocol must work without its timeout backstop"
        );
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}

/// The shipped protocol with the backstop removed entirely (untimed
/// wait) still cannot deadlock — the timeout really is redundant.
#[test]
fn shipped_protocol_sound_without_any_timeout() {
    let cfg = Config {
        preemption_bound: Some(4),
        ..Config::default()
    };
    let report = check(cfg, || {
        scenario(Variant {
            timed: false,
            ..SHIPPED
        })
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}

/// Regression model for the bug this checker found: with the notify
/// issued *outside* the sleep lock (the original protocol), the
/// producer's push+gate-check+notify can land entirely between the
/// worker's injector re-probe and its wait — the wake is lost. With
/// the backstop removed that is a hard deadlock, and the checker
/// reports the schedule.
#[test]
fn unlocked_notify_leans_on_the_timeout() {
    let failure = check(Config::default(), || {
        scenario(Variant {
            lock_before_notify: false,
            timed: false,
            ..SHIPPED
        })
    })
    .expect_err("the unlocked notify must lose a wake under some schedule");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}

/// Delete the re-probe instead and the untimed variant also deadlocks:
/// the producer pushes after the worker's empty probe but reads
/// `sleepers == 0` before registration and skips the notify — the race
/// `park`'s re-probe exists to close.
#[test]
fn missing_reprobe_is_a_lost_wakeup() {
    let failure = check(Config::default(), || {
        scenario(Variant {
            reprobe: Reprobe::Nothing,
            timed: false,
            ..SHIPPED
        })
    })
    .expect_err("removing the re-probe must deadlock under some schedule");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}

/// A worker mid-activation queues on its own queue and stays busy, so
/// the push is the parked sibling's to find: with every queue
/// re-probed, no schedule needs the backstop.
#[test]
fn own_queue_push_never_uses_the_timeout() {
    let report = check(Config::default(), || {
        scenario(Variant {
            push_to: SIBLING,
            ..SHIPPED
        });
        assert_eq!(
            snet_check::timeouts_fired(),
            0,
            "a push onto a sibling's queue must wake the parker without the backstop"
        );
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(report.complete, "{report:?}");
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}

/// What shipped before: only the shared queue was re-probed, and the
/// 1ms timed wait "backstopped" pushes to a worker's own queue. The
/// producer pushes there after the worker's empty probe, reads
/// `sleepers == 0` before registration and skips the notify; nothing in
/// the re-probe sees the task. Untimed, that is a deadlock.
#[test]
fn shared_only_reprobe_leans_on_the_timeout() {
    let failure = check(Config::default(), || {
        scenario(Variant {
            reprobe: Reprobe::SharedOnly,
            push_to: SIBLING,
            timed: false,
            ..SHIPPED
        })
    })
    .expect_err("a shared-only re-probe must lose a wake for a push to a sibling's queue");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}

/// The sleeper gate is pure performance, not correctness: removing it
/// (notify on every push) while keeping lock-then-notify and the
/// re-probe stays sound without any timeout.
#[test]
fn gate_is_perf_only() {
    let cfg = Config {
        preemption_bound: Some(4),
        ..Config::default()
    };
    let report = check(cfg, || {
        scenario(Variant {
            gate_on_sleepers: false,
            timed: false,
            ..SHIPPED
        })
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}

/// And the converse: notifying on every push does NOT excuse skipping
/// lock-then-notify. Even ungated, an unlocked notify can land between
/// the worker's re-probe and its wait — the race is in the
/// probe-to-wait window, not in the gate. Anyone weakening
/// `park`/`notify` must break one of these tests.
#[test]
fn unlocked_notify_races_even_ungated() {
    let failure = check(Config::default(), || {
        scenario(Variant {
            gate_on_sleepers: false,
            lock_before_notify: false,
            timed: false,
            ..SHIPPED
        })
    })
    .expect_err("the unlocked notify must lose a wake even without the gate");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}
