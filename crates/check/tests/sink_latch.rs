//! The sink-finalize completion latch (`Latch::signal` / `wait` in
//! `crates/runtime/src/sched/mod.rs`), modeled against the snet-check
//! façade — runs in every build, no special RUSTFLAGS.
//!
//! The protocol: the worker that finalizes the sink sets `done` under
//! its mutex and `notify_all`s; drivers wait in a while-loop under the
//! same mutex with a 500ms timed wait that is documented as "a
//! lost-wakeup safety net, not a poll interval". These models make
//! that documentation a theorem: on every schedule the latch completes
//! without firing a timeout, even with the safety net deleted — and
//! the variant that writes the flag *outside* the mutex (the bug the
//! pattern exists to prevent) deadlocks on a schedule the checker
//! prints.

use snet_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use snet_check::sync::{Arc, Condvar, Mutex};
use snet_check::{check, thread, Config};
use std::time::Duration;

struct Latch {
    done: Mutex<bool>,
    done_cv: Condvar,
    /// The broken variant's flag: written without the mutex.
    done_racy: AtomicBool,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            done_racy: AtomicBool::new(false),
        }
    }

    /// `Latch::signal`: flag under the lock, then notify.
    fn signal(&self) {
        *self.done.lock().unwrap() = true;
        self.done_cv.notify_all();
    }

    /// `Latch::wait`: while-loop under the flag's mutex; `timed`
    /// mirrors the 500ms production safety net.
    fn wait(&self, timed: bool) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            if timed {
                let (guard, _) = self
                    .done_cv
                    .wait_timeout(done, Duration::from_millis(500))
                    .unwrap();
                done = guard;
            } else {
                done = self.done_cv.wait(done).unwrap();
            }
        }
    }

    /// The bug the under-lock write prevents: set the flag *outside*
    /// the mutex, then notify. A waiter that read `false` under the
    /// lock can be preempted before its wait; the notify lands in the
    /// gap and is lost.
    fn signal_racy(&self) {
        self.done_racy.store(true, Ordering::SeqCst);
        self.done_cv.notify_all();
    }

    fn wait_racy(&self) {
        loop {
            if self.done_racy.load(Ordering::SeqCst) {
                return;
            }
            let g = self.done.lock().unwrap();
            // Re-check inside the lock — but the flag is not written
            // under this lock, so the re-check closes nothing.
            if self.done_racy.load(Ordering::SeqCst) {
                return;
            }
            let _g = self.done_cv.wait(g).unwrap();
        }
    }
}

/// One finalizing worker, two waiting drivers (the `run_batch` caller
/// and a helper — `notify_all` must wake both): every schedule
/// completes without touching the 500ms safety net.
#[test]
fn latch_never_needs_the_safety_net() {
    let cfg = Config {
        preemption_bound: Some(4),
        ..Config::default()
    };
    let report = check(cfg, || {
        let latch = Arc::new(Latch::new());
        let woken = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let latch = Arc::clone(&latch);
                let woken = Arc::clone(&woken);
                thread::spawn(move || {
                    latch.wait(true);
                    woken.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        latch.signal();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(woken.load(Ordering::SeqCst), 2, "notify_all wakes both");
        assert_eq!(
            snet_check::timeouts_fired(),
            0,
            "the 500ms timeout must be a safety net, never the mechanism"
        );
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}

/// Delete the safety net entirely (untimed waits): still no schedule
/// hangs — completion is genuinely wake-driven.
#[test]
fn latch_sound_without_the_safety_net() {
    let cfg = Config {
        preemption_bound: None,
        ..Config::default()
    };
    let report = check(cfg, || {
        let latch = Arc::new(Latch::new());
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let latch = Arc::clone(&latch);
                thread::spawn(move || latch.wait(false))
            })
            .collect();
        latch.signal();
        for w in waiters {
            w.join().unwrap();
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}

/// The broken variant: flag written outside the latch mutex. The
/// checker finds the schedule where the waiter's locked re-check reads
/// `false`, the signal+notify land before the wait, and the waiter
/// sleeps forever.
#[test]
fn flag_outside_lock_is_a_lost_wakeup() {
    let failure = check(Config::default(), || {
        let latch = Arc::new(Latch::new());
        let l2 = Arc::clone(&latch);
        let signaler = thread::spawn(move || l2.signal_racy());
        latch.wait_racy();
        signaler.join().unwrap();
    })
    .expect_err("the outside-lock flag write must lose a wakeup");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}
