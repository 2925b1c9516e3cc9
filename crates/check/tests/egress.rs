//! A run's end at its egress (`Task::wait_outside`, `Task::wake_outside`
//! and `Port::close` in `crates/runtime/src/sched/task.rs`; the take in
//! `crates/runtime/src/sched/mod.rs`), modeled against the snet-check
//! façade — runs in every build, no special RUSTFLAGS.
//!
//! The egress is a mailbox no worker runs. The last components' ports
//! push their records into it under its lock (`Port::flush`) and close,
//! the last close bringing its sender count to zero — which is not
//! written under the lock. Each flush and the last close wake the
//! threads outside the pool registered on it: lock, then notify. The
//! consumer takes the whole backlog at a time and, finding none, waits
//! until there is a backlog or the egress has closed. It registers
//! first and then re-checks under the lock; the lock-then-notify can
//! then not land between its check and its wait, and a close after the
//! check reads its registration.
//!
//! `timeouts_fired() == 0` pins that the production wait's 100 ms
//! backstop never carries the protocol. The negative twin checks before
//! it registers: the close lands in between, reads no waiter, and the
//! consumer waits for a wake nobody will send.

use snet_check::sync::atomic::{AtomicUsize, Ordering};
use snet_check::sync::{Arc, Condvar, Mutex};
use snet_check::{check, thread, Config};
use std::time::Duration;

/// Ports writing into the egress, one record each.
const PORTS: usize = 2;

struct Egress {
    /// Records queued (the mailbox's `VecDeque`).
    queue: Mutex<usize>,
    senders: AtomicUsize,
    waiters: AtomicUsize,
    cv: Condvar,
}

impl Egress {
    /// `Task::wake_outside`.
    fn wake_outside(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            drop(self.queue.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// One port: `Port::flush` of its record, then `Port::close`.
    fn port(&self) {
        *self.queue.lock().unwrap() += 1;
        self.wake_outside();
        if self.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.wake_outside();
        }
    }

    /// The consumer's takes until end-of-stream (`Handle::next_output` under
    /// `recv`, a `Task::wait_outside` per wait); returns the records
    /// taken. `check_first` is the negative twin's order.
    fn consume(&self, check_first: bool, timed: bool) -> usize {
        let ready = |queued: usize| queued > 0 || self.senders.load(Ordering::SeqCst) == 0;
        let mut taken = 0;
        let mut queued = self.queue.lock().unwrap();
        loop {
            let was_ready = if check_first {
                let was = ready(*queued);
                self.waiters.fetch_add(1, Ordering::SeqCst);
                was
            } else {
                self.waiters.fetch_add(1, Ordering::SeqCst);
                ready(*queued)
            };
            if !was_ready {
                queued = if timed {
                    self.cv
                        .wait_timeout(queued, Duration::from_millis(100))
                        .unwrap()
                        .0
                } else {
                    self.cv.wait(queued).unwrap()
                };
            }
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            if was_ready {
                if *queued == 0 {
                    return taken;
                }
                taken += std::mem::take(&mut *queued);
            }
        }
    }
}

fn scenario(check_first: bool, timed: bool) {
    let egress = Arc::new(Egress {
        queue: Mutex::new(0),
        senders: AtomicUsize::new(PORTS),
        waiters: AtomicUsize::new(0),
        cv: Condvar::new(),
    });
    let ports: Vec<_> = (0..PORTS)
        .map(|_| {
            let egress = Arc::clone(&egress);
            thread::spawn(move || egress.port())
        })
        .collect();
    let taken = egress.consume(check_first, timed);
    for port in ports {
        port.join().unwrap();
    }
    assert_eq!(taken, PORTS, "every record taken before the end");
}

/// The shipped order, no timer to fall back on: every schedule takes
/// both records and then sees the end.
#[test]
fn registering_before_the_check_never_loses_the_end() {
    let report =
        check(Config::default(), || scenario(false, false)).unwrap_or_else(|f| panic!("{f}"));
    assert!(report.complete, "{report:?}");
}

/// With the production backstop in the wait, it never fires.
#[test]
fn registering_before_the_check_never_needs_the_backstop() {
    let report = check(Config::default(), || {
        scenario(false, true);
        assert_eq!(snet_check::timeouts_fired(), 0, "a wake was lost");
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(report.complete, "{report:?}");
}

/// Negative twin: the last close lands between the consumer's check and
/// its registration, reads no waiter, and the consumer waits for good.
#[test]
fn checking_before_registering_loses_the_end() {
    let failure = check(Config::default(), || scenario(true, false))
        .expect_err("a check before the registration must lose the close under some schedule");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}
