//! # snet-check — a loom-style model checker for the scheduler
//!
//! Stress tests sample interleavings; this crate *enumerates* them.
//! A model is an ordinary closure that spawns threads and touches
//! shared state through [`sync`] / [`thread`] — the same surface as
//! `std`. The checker runs the closure repeatedly, each time under a
//! different schedule, driving the choice of which thread performs each
//! visible operation (atomic access, lock, notify, spawn, yield) by
//! depth-first search over the decision tree.
//!
//! ```
//! use snet_check::{model, sync::Mutex, sync::Arc, thread};
//!
//! let report = model(|| {
//!     let m = Arc::new(Mutex::new(0));
//!     let m2 = Arc::clone(&m);
//!     let t = thread::spawn(move || *m2.lock().unwrap() += 1);
//!     *m.lock().unwrap() += 1;
//!     t.join().unwrap();
//!     assert_eq!(*m.lock().unwrap(), 2);
//! });
//! assert!(report.schedules > 1);
//! ```
//!
//! On failure (assertion panic, deadlock, or a livelock that runs past
//! [`Config::max_ops`]) the checker reports the exact schedule — a
//! `Vec<u32>` of decisions — plus the tail of the operation trace, and
//! [`replay`] re-runs that one schedule under a debugger. A failure
//! unwinds every model thread; what their destructors then lock, join
//! or notify is inert, so the failure is reported, not turned into a
//! process abort.
//!
//! ## What the model covers — and what it does not
//!
//! - **Sequentially consistent interleavings only.** Every atomic runs
//!   `SeqCst` regardless of the ordering the code requested, so
//!   weak-memory reorderings (a `Relaxed` load hoisted over an
//!   `Acquire`) are *not* explored. The TSan and Miri CI lanes cover
//!   that axis; the checker covers the scheduling axis (lost wakeups,
//!   missed-CAS windows, deadlocks), which is where every concurrency
//!   bug this workspace has actually shipped lived.
//! - **Preemption bounding.** Unbounded DFS explodes; by default a
//!   schedule may contain at most 3 *forced* preemptions (switching
//!   away from a runnable thread at a non-yield operation). Bugs
//!   reachable in few preemptions is the CHESS observation, and it has
//!   held for every scheduler bug this checker has found. Set
//!   [`Config::preemption_bound`] to `None` for exhaustive search on
//!   small models.
//! - **Fair yields.** A [`thread::yield_now`] switches to another
//!   runnable thread, one that has not yielded itself if there is one,
//!   so a spin loop waits for the thread it spins on instead of handing
//!   the floor to a second spinner.
//! - **Timed waits have stuck-state semantics.** `wait_timeout` fires
//!   its timeout only when *no* thread is runnable — i.e. exactly when
//!   the execution would otherwise be stuck. A protocol that is
//!   correct never needs that backstop, which is checkable:
//!   [`timeouts_fired`] returns the count for the current execution
//!   and models assert it is zero. Code that branches on *real* time
//!   (`Instant::now` deadlines) cannot be modeled — keep real-time
//!   paths out of models.
//!
//! ## Running
//!
//! The façade is always compiled, and the checker's own tests run in
//! every build (`cargo test -p snet-check`). The `parking_lot` mutex
//! `snet-runtime` locks through, and the scheduler's atomics, condvars
//! and threads, are the façade's under `--cfg snet_check`, which is how
//! `snet-runtime`'s `tests/model.rs` runs the scheduler itself, through
//! its public API, under the checker:
//!
//! ```text
//! RUSTFLAGS="--cfg snet_check" cargo test -p snet-runtime --test model
//! ```
//!
//! Only the code that runs is checked; there is no second copy of the
//! scheduler's protocols to drift from it.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod sync;
pub mod thread;

mod exec;

use exec::Choice;
use std::sync::Arc;

/// Search configuration. Real nets under the checker take a bound of
/// 1 or 2 and tens of thousands of schedules (`snet-runtime`'s
/// `tests/model.rs`).
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum *forced* preemptions per schedule (switching away from a
    /// runnable thread anywhere other than a voluntary yield). `None`
    /// means unbounded — full DFS.
    pub preemption_bound: Option<usize>,
    /// Stop after exploring this many schedules; the [`Report`] records
    /// whether the search completed or was cut off.
    pub max_schedules: usize,
    /// An execution that runs past this many visible operations is a
    /// livelock: a [`Failure`] with its trace, like a deadlock.
    pub max_ops: usize,
    /// Record the operation trace (thread id + op name) so failures can
    /// print it. Costs allocation per op; on by default.
    pub trace: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: Some(3),
            max_schedules: 200_000,
            max_ops: 20_000,
            trace: true,
        }
    }
}

/// Outcome of a completed search.
#[derive(Clone, Debug)]
pub struct Report {
    /// Distinct schedules fully explored.
    pub schedules: usize,
    /// Whether the decision tree was exhausted (vs. cut off by
    /// `max_schedules`).
    pub complete: bool,
    /// Deepest decision sequence seen.
    pub max_depth: usize,
}

/// A schedule that violated the model: an assertion panicked, or the
/// execution deadlocked or livelocked.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What went wrong, including per-thread wait states on deadlock.
    pub message: String,
    /// The decision sequence to pass to [`replay`].
    pub schedule: Vec<u32>,
    /// Operation trace of the failing execution (empty if
    /// [`Config::trace`] was off).
    pub trace: Vec<(usize, &'static str)>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "model failure: {}", self.message)?;
        writeln!(f, "schedule: {:?}", self.schedule)?;
        if !self.trace.is_empty() {
            let tail = self.trace.len().saturating_sub(40);
            writeln!(f, "trace (last {} ops):", self.trace.len() - tail)?;
            for (tid, op) in &self.trace[tail..] {
                writeln!(f, "  [t{tid}] {op}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for Failure {}

/// Explores every schedule of `f` under the default [`Config`],
/// panicking with the schedule and trace on the first failure.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    match check(Config::default(), f) {
        Ok(report) => report,
        Err(failure) => panic!("{failure}"),
    }
}

/// Explores schedules of `f` under `cfg`, returning the first
/// [`Failure`] instead of panicking — the form used by tests that
/// *expect* a buggy protocol to be caught.
pub fn check<F>(cfg: Config, f: F) -> Result<Report, Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut prefix: Vec<Choice> = Vec::new();
    let mut report = Report {
        schedules: 0,
        complete: false,
        max_depth: 0,
    };
    loop {
        let outcome = exec::run_once(
            &f,
            prefix.clone(),
            cfg.preemption_bound,
            cfg.max_ops,
            cfg.trace,
        );
        report.schedules += 1;
        report.max_depth = report.max_depth.max(outcome.path.len());
        if let Some(message) = outcome.failure {
            return Err(Failure {
                message,
                schedule: outcome.path.iter().map(|c| c.chosen).collect(),
                trace: outcome.trace,
            });
        }
        if report.schedules >= cfg.max_schedules {
            return Ok(report);
        }
        // Backtrack: advance the deepest decision that still has an
        // unexplored alternative, dropping everything after it.
        prefix = outcome.path;
        loop {
            match prefix.last_mut() {
                None => {
                    report.complete = true;
                    return Ok(report);
                }
                Some(last) if last.chosen + 1 < last.n => {
                    last.chosen += 1;
                    break;
                }
                Some(_) => {
                    prefix.pop();
                }
            }
        }
    }
}

/// Re-runs `f` under one exact schedule (as printed by a [`Failure`]),
/// for debugging. Panics propagate out.
pub fn replay<F>(schedule: &[u32], f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let path: Vec<Choice> = schedule
        .iter()
        .map(|&chosen| Choice { n: 0, chosen })
        .collect();
    let outcome = exec::run_once(&f, path, None, usize::MAX, true);
    if let Some(message) = outcome.failure {
        let failure = Failure {
            message,
            schedule: outcome.path.iter().map(|c| c.chosen).collect(),
            trace: outcome.trace,
        };
        panic!("{failure}");
    }
}

/// How many timed waits were released by the stuck-state timeout rule
/// in the *current* execution. Call from inside a model, typically at
/// the end: `assert_eq!(snet_check::timeouts_fired(), 0)` pins that
/// the protocol under test never lost a wakeup and fell back on its
/// timeout.
pub fn timeouts_fired() -> usize {
    exec::timeouts_fired_now()
}

#[cfg(test)]
mod self_tests {
    //! The checker checking itself: these run under plain `cargo test`
    //! (no `--cfg snet_check` needed — the façade is always compiled,
    //! only the `parking_lot` shim's and the scheduler's use of it is
    //! cfg-gated).

    use super::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use super::sync::{Arc, Condvar, Mutex};
    use super::{check, model, thread, Config};

    /// Two unsynchronized increments: load+store is not atomic, so some
    /// schedule must observe the lost update.
    #[test]
    fn finds_lost_update() {
        let failure = check(Config::default(), || {
            let n = Arc::new(AtomicUsize::new(0));
            let n2 = Arc::clone(&n);
            let t = thread::spawn(move || {
                let v = n2.load(Ordering::SeqCst);
                n2.store(v + 1, Ordering::SeqCst);
            });
            let v = n.load(Ordering::SeqCst);
            n.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        })
        .expect_err("the lost-update schedule must be found");
        assert!(failure.message.contains("lost update"), "{failure}");
    }

    /// The same increments under a mutex: every schedule passes, and
    /// the search terminates (completeness of backtracking).
    #[test]
    fn mutex_protects_counter() {
        let report = model(|| {
            let m = Arc::new(Mutex::new(0usize));
            let m2 = Arc::clone(&m);
            let t = thread::spawn(move || *m2.lock().unwrap() += 1);
            *m.lock().unwrap() += 1;
            t.join().unwrap();
            assert_eq!(*m.lock().unwrap(), 2);
        });
        assert!(report.complete, "search should exhaust: {report:?}");
        assert!(report.schedules > 1, "must explore >1 schedule");
    }

    /// Classic lost wakeup: the waiter checks the flag, the notifier
    /// sets-and-notifies in between... except a condvar wait while
    /// holding the check's mutex cannot lose the notify. The *broken*
    /// version (flag check outside the lock) deadlocks and the checker
    /// says so.
    #[test]
    fn finds_check_then_wait_race() {
        let failure = check(
            Config {
                // No timed waits here, so a lost wakeup is a hard
                // deadlock the checker reports directly.
                ..Config::default()
            },
            || {
                let pair = Arc::new((Mutex::new(false), Condvar::new()));
                let pair2 = Arc::clone(&pair);
                let t = thread::spawn(move || {
                    let (flag, cv) = &*pair2;
                    *flag.lock().unwrap() = true;
                    cv.notify_one();
                });
                let (flag, cv) = &*pair;
                // BUG under test: check the flag, drop the lock, then
                // wait without rechecking. The set+notify can land in
                // the window, and the notify finds no waiter.
                let ready = *flag.lock().unwrap();
                if !ready {
                    let g = flag.lock().unwrap();
                    let _g = cv.wait(g).unwrap();
                }
                t.join().unwrap();
            },
        )
        .expect_err("the eaten-wakeup deadlock must be found");
        assert!(failure.message.contains("deadlock"), "{failure}");
    }

    /// Correct condvar use: wait in a while-loop under the same lock
    /// as the flag. No schedule deadlocks.
    #[test]
    fn condvar_wait_while_is_sound() {
        let report = model(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let pair2 = Arc::clone(&pair);
            let t = thread::spawn(move || {
                let (flag, cv) = &*pair2;
                *flag.lock().unwrap() = true;
                cv.notify_one();
            });
            let (flag, cv) = &*pair;
            let mut g = flag.lock().unwrap();
            while !*g {
                g = cv.wait(g).unwrap();
            }
            drop(g);
            t.join().unwrap();
        });
        assert!(report.complete);
    }

    /// Deterministic replay: a failing schedule re-runs to the same
    /// failure.
    #[test]
    fn replay_reproduces() {
        let body = || {
            let n = Arc::new(AtomicUsize::new(0));
            let n2 = Arc::clone(&n);
            let t = thread::spawn(move || {
                let v = n2.load(Ordering::SeqCst);
                n2.store(v + 1, Ordering::SeqCst);
            });
            let v = n.load(Ordering::SeqCst);
            n.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        };
        let failure = check(Config::default(), body).expect_err("must fail");
        let schedule = failure.schedule.clone();
        let replayed = std::panic::catch_unwind(|| super::replay(&schedule, body));
        assert!(replayed.is_err(), "replaying the schedule must re-fail");
    }

    /// Timed waits fire only when stuck, and the count is observable.
    #[test]
    fn timed_wait_backstop_counts() {
        let report = model(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            // Nobody will ever notify: the timed wait *must* use its
            // backstop, exactly once.
            let (flag, cv) = &*pair;
            let g = flag.lock().unwrap();
            let (_g, res) = cv
                .wait_timeout(g, std::time::Duration::from_millis(1))
                .unwrap();
            assert!(res.timed_out());
            assert_eq!(super::timeouts_fired(), 1);
        });
        assert!(report.complete);
    }

    /// Two threads spin with `yield_now` on a flag a third holds: a
    /// yield hands the floor to the holder rather than to the other
    /// spinner, so every schedule ends and the search exhausts.
    #[test]
    fn yielding_spinners_let_the_holder_run() {
        let cfg = Config {
            max_schedules: 20_000,
            max_ops: 2_000,
            ..Config::default()
        };
        let report = check(cfg, || {
            let held = Arc::new(AtomicBool::new(true));
            let spinners: Vec<_> = (0..2)
                .map(|_| {
                    let held = Arc::clone(&held);
                    thread::spawn(move || {
                        while held.load(Ordering::SeqCst) {
                            thread::yield_now();
                        }
                    })
                })
                .collect();
            let work = AtomicUsize::new(0);
            work.fetch_add(1, Ordering::SeqCst);
            work.fetch_add(1, Ordering::SeqCst);
            held.store(false, Ordering::SeqCst);
            for s in spinners {
                s.join().unwrap();
            }
        })
        .unwrap_or_else(|f| panic!("{f}"));
        assert!(report.complete, "the search must exhaust: {report:?}");
    }

    /// A spin on a flag nobody sets never ends: the execution passes
    /// `max_ops` and comes back as a failure that carries its trace.
    #[test]
    fn a_livelock_is_a_failure_with_its_trace() {
        let cfg = Config {
            max_ops: 500,
            ..Config::default()
        };
        let failure = check(cfg, || {
            let flag = AtomicBool::new(false);
            while !flag.load(Ordering::SeqCst) {
                thread::yield_now();
            }
        })
        .expect_err("an endless spin must fail");
        assert!(failure.message.contains("livelock"), "{failure}");
        assert!(
            failure
                .trace
                .iter()
                .any(|&(_, op)| op == "thread::yield_now"),
            "{failure}"
        );
    }

    /// A model thread's panic aborts the execution, and the other
    /// threads unwind. A destructor that locks on the way out is inert
    /// there: the failure is reported and the process lives on.
    #[test]
    fn a_drop_that_locks_during_an_abort_is_inert() {
        struct LockOnDrop(Arc<Mutex<usize>>);
        impl Drop for LockOnDrop {
            fn drop(&mut self) {
                *self.0.lock().unwrap() += 1;
            }
        }
        let failure = check(Config::default(), || {
            let m = Arc::new(Mutex::new(0));
            let _on_drop = LockOnDrop(Arc::clone(&m));
            let t = thread::spawn(move || {
                let _g = m.lock().unwrap();
                panic!("boom");
            });
            t.join().unwrap();
        })
        .expect_err("the panic must be reported");
        assert!(failure.message.contains("boom"), "{failure}");
    }

    /// A failing model runs the panic hook for its own panics only: the
    /// threads its abort unwinds do not each report a panic of their
    /// own ahead of the failure.
    #[test]
    fn an_abort_does_not_run_the_panic_hook() {
        use std::cell::Cell;
        use std::sync::atomic::AtomicUsize as StdAtomicUsize;
        thread_local! {
            /// Set by every thread of the model below, so that the hook
            /// counts none of the panics of tests running beside it.
            static IN_MODEL: Cell<bool> = const { Cell::new(false) };
        }
        static HOOK_CALLS: StdAtomicUsize = StdAtomicUsize::new(0);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_MODEL.get() {
                HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
            } else {
                prev(info);
            }
        }));
        let failure = check(Config::default(), || {
            IN_MODEL.set(true);
            let started = Arc::new(AtomicUsize::new(0));
            let _spinners: Vec<_> = (0..2)
                .map(|_| {
                    let started = Arc::clone(&started);
                    thread::spawn(move || {
                        IN_MODEL.set(true);
                        started.fetch_add(1, Ordering::SeqCst);
                        loop {
                            thread::yield_now();
                        }
                    })
                })
                .collect();
            while started.load(Ordering::SeqCst) < 2 {
                thread::yield_now();
            }
            panic!("three-thread boom");
        });
        drop(std::panic::take_hook());
        let failure = failure.expect_err("the panic must be reported");
        assert!(failure.message.contains("three-thread boom"), "{failure}");
        assert_eq!(
            HOOK_CALLS.load(Ordering::SeqCst),
            1,
            "the model's one panic, and nothing for the two threads it unwound"
        );
    }

    /// Three threads under a preemption bound still terminate quickly.
    #[test]
    fn three_threads_bounded() {
        let report = model(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let ts: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        n.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            n.fetch_add(1, Ordering::SeqCst);
            for t in ts {
                t.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 3);
        });
        assert!(report.schedules > 10);
    }
}
