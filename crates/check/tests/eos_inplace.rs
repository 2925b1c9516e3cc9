//! In-place end-of-stream (`Port::close` / `finalize_in_place` in
//! `crates/runtime/src/sched/task.rs`), modeled against the snet-check
//! façade — runs in every build, no special RUSTFLAGS.
//!
//! The protocol: whoever drops a task's last sender finalizes the task
//! on the spot when it can take the task's state lock (`try_lock`: no
//! activation is running) and finds the mailbox empty; otherwise it
//! queues the task (`notify`) and the activation finalizes it. The sink
//! is never finalized in place — its finalization is the run's
//! completion signal and stays with the queue.
//!
//! The model is two producers feeding one relay task that feeds the
//! sink, plus one worker. Each producer sends a record (mailbox push +
//! `notify`) and closes; whichever close comes last takes the in-place
//! path while the other producer's `notify` and the worker's queued
//! activation of the relay race it. On every schedule the sink must
//! see both records before its own end-of-stream, the relay must be
//! finalized exactly once, and the worker's timed park must never fire
//! (an in-place finalize still wakes the worker for the sink).
//! `skipping_the_drained_check_loses_a_record` keeps the one condition
//! that is easy to think redundant honest.

use snet_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use snet_check::sync::{Arc, Condvar, Mutex};
use snet_check::{check, thread, Config};
use std::time::Duration;

const RELAY: usize = 0;
const SINK: usize = 1;

/// `sched/task.rs::State`, reduced to what end-of-stream touches.
enum State {
    Live,
    /// The sink and the records it has collected.
    Sink(Vec<u32>),
    Done,
}

struct Task {
    mailbox: Mutex<Vec<u32>>,
    open_senders: AtomicUsize,
    scheduled: AtomicBool,
    state: Mutex<State>,
}

impl Task {
    fn new(state: State, senders: usize) -> Task {
        Task {
            mailbox: Mutex::new(Vec::new()),
            open_senders: AtomicUsize::new(senders),
            scheduled: AtomicBool::new(false),
            state: Mutex::new(state),
        }
    }
}

struct Net {
    tasks: [Task; 2],
    injector: Mutex<Vec<usize>>,
    sleep: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
    /// What the sink had received when it finalized. (Bookkeeping, not
    /// protocol: a plain std mutex, invisible to the model scheduler —
    /// like `relay_finalized`.)
    delivered: std::sync::Mutex<Option<Vec<u32>>>,
    relay_finalized: std::sync::atomic::AtomicUsize,
    /// The in-place path insists on an empty mailbox (shipped: true).
    check_drained: bool,
}

impl Net {
    fn new(check_drained: bool) -> Net {
        Net {
            tasks: [
                Task::new(State::Live, 2),
                Task::new(State::Sink(Vec::new()), 1),
            ],
            injector: Mutex::new(Vec::new()),
            sleep: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            delivered: std::sync::Mutex::new(None),
            relay_finalized: std::sync::atomic::AtomicUsize::new(0),
            check_drained,
        }
    }

    /// `sched/pool.rs::notify` as shipped (see `mailbox.rs`).
    fn notify(&self, t: usize) {
        if self.tasks[t]
            .scheduled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.injector.lock().unwrap().push(t);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                drop(self.sleep.lock().unwrap());
                self.cv.notify_one();
            }
        }
    }

    /// `Port::flush`: push under the mailbox lock, then wake.
    fn send(&self, t: usize, recs: Vec<u32>) {
        if recs.is_empty() {
            return;
        }
        self.tasks[t].mailbox.lock().unwrap().extend(recs);
        self.notify(t);
    }

    /// `Port::close`: the last sender tries the in-place path first.
    fn close(&self, t: usize) {
        if self.tasks[t].open_senders.fetch_sub(1, Ordering::AcqRel) == 1
            && !self.finalize_in_place(t)
        {
            self.notify(t);
        }
    }

    fn finalize_in_place(&self, t: usize) -> bool {
        let Ok(mut state) = self.tasks[t].state.try_lock() else {
            return false;
        };
        if !matches!(*state, State::Live)
            || (self.check_drained && !self.tasks[t].mailbox.lock().unwrap().is_empty())
        {
            return false;
        }
        self.finalize(t, &mut state);
        true
    }

    /// `finalize`: retire the mailbox (whatever is in it is dropped),
    /// become `Done`, close downstream (the relay) or publish completion
    /// (the sink).
    fn finalize(&self, t: usize, state: &mut State) {
        self.tasks[t].mailbox.lock().unwrap().clear();
        match std::mem::replace(state, State::Done) {
            State::Live => {
                self.relay_finalized.fetch_add(1, Ordering::SeqCst);
                self.close(SINK);
            }
            State::Sink(seen) => *self.delivered.lock().unwrap() = Some(seen),
            State::Done => {}
        }
    }

    /// `activate` + `run_task`: one activation, or hand the task back
    /// when another thread holds its state.
    fn activate(&self, t: usize) {
        let task = &self.tasks[t];
        let Ok(mut state) = task.state.try_lock() else {
            self.injector.lock().unwrap().push(t);
            // The real worker parks on a task it fails to lock twice
            // running; the model waits for the holder instead, so the
            // retry loop cannot spin to the op cap.
            drop(task.state.lock().unwrap());
            return;
        };
        task.scheduled.store(false, Ordering::Release);
        let drained = std::mem::take(&mut *task.mailbox.lock().unwrap());
        match &mut *state {
            State::Live => self.send(SINK, drained),
            State::Sink(seen) => seen.extend(drained),
            State::Done => {}
        }
        // Sender count before the final mailbox probe, as in `run_task`.
        let senders = task.open_senders.load(Ordering::Acquire);
        let empty = task.mailbox.lock().unwrap().is_empty();
        if !empty {
            drop(state);
            self.notify(t);
        } else if senders == 0 {
            self.finalize(t, &mut state);
        }
    }

    /// `park` as shipped, with the 1ms backstop.
    fn park(&self) {
        let sleep = self.sleep.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if !self.injector.lock().unwrap().is_empty() {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = self
            .cv
            .wait_timeout(sleep, Duration::from_millis(1))
            .unwrap();
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// The pool's one worker; returns once the sink has finalized.
    fn worker(&self) {
        loop {
            let task = self.injector.lock().unwrap().pop();
            match task {
                Some(t) => self.activate(t),
                None if self.delivered.lock().unwrap().is_some() => return,
                None => self.park(),
            }
        }
    }
}

/// Two producers race their send + close into the relay while the
/// worker runs whatever gets queued; returns what the sink saw.
fn scenario(check_drained: bool) -> Vec<u32> {
    let net = Arc::new(Net::new(check_drained));
    let producers: Vec<_> = [1u32, 2]
        .into_iter()
        .map(|rec| {
            let net = Arc::clone(&net);
            thread::spawn(move || {
                net.send(RELAY, vec![rec]);
                net.close(RELAY);
            })
        })
        .collect();
    net.worker();
    for p in producers {
        p.join().unwrap();
    }
    assert_eq!(
        net.relay_finalized.load(Ordering::SeqCst),
        1,
        "the relay is finalized exactly once"
    );
    let mut seen = net
        .delivered
        .lock()
        .unwrap()
        .take()
        .expect("sink finalized");
    seen.sort_unstable();
    seen
}

/// The shipped rule: both records reach the sink before its
/// end-of-stream, on every schedule, without the park backstop.
#[test]
fn in_place_finalize_delivers_everything_exactly_once() {
    let report = check(Config::default(), || {
        assert_eq!(scenario(true), vec![1, 2], "every record is delivered");
        assert_eq!(
            snet_check::timeouts_fired(),
            0,
            "an in-place finalize must still wake the worker for the sink"
        );
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(
        report.complete && report.schedules >= 1000,
        "expected an exhausted search of >= 1000 schedules, got {report:?}"
    );
}

/// Without the drained check the last closer can finalize the relay
/// over a record the other producer has already put in its mailbox: the
/// queued activation then finds a retired task and the record is gone.
#[test]
fn skipping_the_drained_check_loses_a_record() {
    let failure = check(Config::default(), || {
        assert_eq!(scenario(false), vec![1, 2], "every record is delivered");
    })
    .expect_err("finalizing over a non-empty mailbox must lose a record");
    assert!(
        failure.message.contains("every record is delivered"),
        "expected a lost record, got: {failure}"
    );
}
