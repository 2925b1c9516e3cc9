//! The scheduled engine's backpressure wake (`Port::holds_back` and the
//! refill in `run_task`, `crates/runtime/src/sched/task.rs`; the take
//! in `Handle::next_output`, `crates/runtime/src/sched/mod.rs`), modeled
//! against the snet-check façade — runs in every build, no special
//! RUSTFLAGS.
//!
//! A task that cannot hand its output on leaves a note where the room
//! will appear and stops; whoever makes the room reads the note and
//! queues the task. A producer looks at its consumer's backlog under
//! the mailbox lock and, finding it at the limit, registers as a
//! waiter in the same critical section. The consumer's drain takes the
//! waiters, under that lock, once the backlog is under the limit, and
//! queues them. The egress is a mailbox like any other, and the
//! handle's take is its drain, so this one protocol covers the last
//! stage held back by a lagging consumer too.
//! `split_look_and_register_loses_the_wake` looks and registers under
//! two acquisitions: the drain slips in between and the producer waits
//! for a wake nobody will send.
//!
//! A task is a thread here, and "queued" is a wake token (the
//! `scheduled` flag and run queue of `sched::pool`, which
//! `tests/mailbox.rs` models): a notify before the park is not lost,
//! the park then returns at once, as a task queued mid-activation runs
//! again. The timed variant re-runs the stopped task when the park
//! times out, as a timer-driven retry would; `timeouts_fired() == 0`
//! pins that the shipped protocol never needs one.

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
