//! The scheduled engine's backpressure wakes (`Port::holds_back`, the
//! refill in `run_task` and `SinkDest::flush` in
//! `crates/runtime/src/sched/task.rs`; `Egress::took` in
//! `crates/runtime/src/sched/mod.rs`), modeled against the snet-check
//! façade — runs in every build, no special RUSTFLAGS.
//!
//! Two protocols, one shape: a task that cannot hand its output on
//! leaves a note where the room will appear and stops; whoever makes
//! the room reads the note and queues the task.
//!
//! * **Full mailbox.** A producer looks at its consumer's backlog under
//!   the mailbox lock and, finding it at the high-water mark, registers
//!   as a waiter in the same critical section. The consumer's drain
//!   takes the waiters, under that lock, once the backlog is under the
//!   mark, and queues them. `split_look_and_register_loses_the_wake`
//!   looks and registers under two acquisitions: the drain slips in
//!   between and the producer waits for a wake nobody will send.
//! * **Full egress.** The sink's `try_send` is refused; it raises the
//!   flag it shares with the handle, tries once more and stops. The
//!   consumer's take reads the flag and, finding it raised, lowers it
//!   and runs the sink (`run_here`: `notify`'s claim of the `scheduled`
//!   flag, then the activation on the consumer's thread; here, the
//!   sink's wake token). `flag_after_the_retry_loses_the_wake` raises
//!   the flag after the retry: a take between the two reads a lowered
//!   flag.
//!
//! A task is a thread here, and "queued" is a wake token (the
//! `scheduled` flag and run queue of `sched::pool`, which
//! `tests/mailbox.rs` models): a notify before the park is not lost,
//! the park then returns at once, as a task queued mid-activation runs
//! again. The timed variants re-run the stopped task when the park
//! times out, as a timer-driven retry would; `timeouts_fired() == 0`
//! pins that the shipped protocols never need one. The six checks take
//! about 0.2 s together in a debug build.

use snet_check::sync::atomic::{AtomicBool, Ordering};
use snet_check::sync::{Arc, Condvar, Mutex};
use snet_check::{check, thread, Config};
use std::time::Duration;

/// Records each model hands over.
const RECORDS: usize = 2;

/// A task's "queued" state: `notify` sets the token, `park` waits for
/// it and consumes it.
struct Wake {
    token: Mutex<bool>,
    cv: Condvar,
}

impl Wake {
    fn new() -> Wake {
        Wake {
            token: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn notify(&self) {
        *self.token.lock().unwrap() = true;
        self.cv.notify_one();
    }

    /// Waits for the token; `timed` gives up after the production
    /// park quantum, so the caller re-runs as if a timer had queued it.
    fn park(&self, timed: bool) {
        let mut token = self.token.lock().unwrap();
        if !*token {
            token = if timed {
                self.cv
                    .wait_timeout(token, Duration::from_millis(1))
                    .unwrap()
                    .0
            } else {
                self.cv.wait(token).unwrap()
            };
        }
        *token = false;
    }
}

/// `sched/task.rs::Mailbox`, reduced to a backlog count and one
/// producer's registration.
struct Mailbox {
    backlog: usize,
    waiting: bool,
}

/// The high-water mark: one record held back the producer.
const HIGH_WATER: usize = 1;

struct Pipe {
    mailbox: Mutex<Mailbox>,
    producer: Wake,
    consumer: Wake,
}

impl Pipe {
    /// `Port::holds_back` for the shipped protocol: look and register
    /// under one lock. The split variant registers under a second one.
    fn holds_back(&self, split: bool) -> bool {
        let mut mb = self.mailbox.lock().unwrap();
        let full = mb.backlog >= HIGH_WATER;
        if full && split {
            drop(mb);
            mb = self.mailbox.lock().unwrap();
        }
        if full {
            mb.waiting = true;
        }
        full
    }

    /// One producer activation per record: held back, it parks; else
    /// it pushes the record and queues the consumer (`Port::flush`).
    fn produce(&self, split: bool, timed: bool) {
        for _ in 0..RECORDS {
            while self.holds_back(split) {
                self.producer.park(timed);
            }
            self.mailbox.lock().unwrap().backlog += 1;
            self.consumer.notify();
        }
    }

    /// The consumer's refill: take a record and, under the same lock,
    /// the waiters once the backlog is under the mark; queue them after.
    fn consume(&self, timed: bool) {
        let mut taken = 0;
        while taken < RECORDS {
            let (took, woken) = {
                let mut mb = self.mailbox.lock().unwrap();
                let took = mb.backlog > 0;
                if took {
                    mb.backlog -= 1;
                }
                let woken = mb.backlog < HIGH_WATER && std::mem::take(&mut mb.waiting);
                (took, woken)
            };
            if woken {
                self.producer.notify();
            }
            if took {
                taken += 1;
            } else {
                self.consumer.park(timed);
            }
        }
    }
}

fn mailbox_scenario(split: bool, timed: bool) {
    let pipe = Arc::new(Pipe {
        mailbox: Mutex::new(Mailbox {
            backlog: 0,
            waiting: false,
        }),
        producer: Wake::new(),
        consumer: Wake::new(),
    });
    let producer = {
        let pipe = Arc::clone(&pipe);
        thread::spawn(move || pipe.produce(split, timed))
    };
    pipe.consume(timed);
    producer.join().unwrap();
    assert_eq!(
        pipe.mailbox.lock().unwrap().backlog,
        0,
        "every record consumed"
    );
}

/// The shipped registration: every schedule hands both records over,
/// with no timer to fall back on.
#[test]
fn registering_under_the_look_never_loses_the_wake() {
    let report = check(Config::default(), || mailbox_scenario(false, false))
        .unwrap_or_else(|f| panic!("{f}"));
    assert!(report.complete, "{report:?}");
}

/// With the old timer back as a fallback, it never fires.
#[test]
fn registering_under_the_look_never_needs_a_timer() {
    let report = check(Config::default(), || {
        mailbox_scenario(false, true);
        assert_eq!(snet_check::timeouts_fired(), 0, "a wake was lost");
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(report.complete, "{report:?}");
}

/// Negative twin: the drain runs between the look and the registration,
/// finds nobody to wake, and the producer parks for good.
#[test]
fn split_look_and_register_loses_the_wake() {
    let failure = check(Config::default(), || mailbox_scenario(true, false))
        .expect_err("a split look and register must lose a wake under some schedule");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}

/// The streaming sink against its output channel (capacity one) and
/// the consumer draining it.
struct Egress {
    /// Records in the channel (not modelled: std's mpsc; a mutex and a
    /// condvar stand in).
    channel: Mutex<usize>,
    readable: Condvar,
    full: AtomicBool,
    sink: Wake,
}

impl Egress {
    fn try_send(&self) -> bool {
        let mut queued = self.channel.lock().unwrap();
        if *queued == 1 {
            return false;
        }
        *queued += 1;
        self.readable.notify_one();
        true
    }

    /// `SinkDest::flush`: returns the records still undelivered. The
    /// shipped flush raises the flag before its one retry; the broken
    /// one after.
    fn flush(&self, mut left: usize, flag_after_retry: bool) -> usize {
        let mut retried = false;
        while left > 0 {
            if self.try_send() {
                left -= 1;
            } else if retried {
                break;
            } else {
                if !flag_after_retry {
                    self.full.store(true, Ordering::SeqCst);
                }
                retried = true;
            }
        }
        if flag_after_retry && left > 0 {
            self.full.store(true, Ordering::SeqCst);
        }
        left
    }

    fn sink(&self, flag_after_retry: bool, timed: bool) {
        let mut left = RECORDS;
        loop {
            left = self.flush(left, flag_after_retry);
            if left == 0 {
                return;
            }
            self.sink.park(timed);
        }
    }

    /// `Handle::recv`, then `Egress::took`.
    fn recv(&self) {
        let mut queued = self.channel.lock().unwrap();
        while *queued == 0 {
            queued = self.readable.wait(queued).unwrap();
        }
        *queued -= 1;
        drop(queued);
        if self.full.load(Ordering::SeqCst) && self.full.swap(false, Ordering::SeqCst) {
            self.sink.notify();
        }
    }
}

fn egress_scenario(flag_after_retry: bool, timed: bool) {
    let egress = Arc::new(Egress {
        channel: Mutex::new(0),
        readable: Condvar::new(),
        full: AtomicBool::new(false),
        sink: Wake::new(),
    });
    let sink = {
        let egress = Arc::clone(&egress);
        thread::spawn(move || egress.sink(flag_after_retry, timed))
    };
    for _ in 0..RECORDS {
        egress.recv();
    }
    sink.join().unwrap();
}

/// The shipped sink: every schedule delivers both records.
#[test]
fn flag_before_the_retry_never_loses_the_wake() {
    let report = check(Config::default(), || egress_scenario(false, false))
        .unwrap_or_else(|f| panic!("{f}"));
    assert!(report.complete, "{report:?}");
}

/// With the old timer back as a fallback, it never fires.
#[test]
fn flag_before_the_retry_never_needs_a_timer() {
    let report = check(Config::default(), || {
        egress_scenario(false, true);
        assert_eq!(snet_check::timeouts_fired(), 0, "a wake was lost");
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(report.complete, "{report:?}");
}

/// Negative twin: the consumer's take lands between the failed retry
/// and the flag, reads it lowered, and the sink parks for good.
#[test]
fn flag_after_the_retry_loses_the_wake() {
    let failure = check(Config::default(), || egress_scenario(true, false))
        .expect_err("a flag raised after the retry must lose a wake under some schedule");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}
