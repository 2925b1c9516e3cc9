//! The controlled scheduler: one execution = one schedule.
//!
//! Model threads are real OS threads, but exactly one ever runs at a
//! time: every thread owns a token (mutex + condvar pair) and blocks on
//! it whenever the scheduler has not handed it the floor. Each visible
//! operation (atomic access, lock, notify, spawn, yield) calls into
//! [`Ctx::op`], which picks the thread that performs the *next*
//! operation. Whenever more than one thread could run, the choice is a
//! **decision point**: the sequence of decisions is the schedule, and
//! the driver in `lib.rs` enumerates schedules by depth-first search
//! over the decision tree, bounded by [`crate::Config`].
//!
//! Blocking is modeled, not real: a thread that would block (contended
//! mutex, condvar wait, join) parks on its token after recording *what*
//! it waits for, and the unblocking operation (unlock, notify, thread
//! exit) marks it runnable again. When no thread is runnable the
//! execution is **stuck**: if timed waiters exist their timeouts fire
//! (counted in [`Exec::timeouts_fired`], so models can assert that a
//! protocol never needs its timeout safety net); otherwise the stuck
//! state is a deadlock and the schedule that produced it is reported.
//!
//! A yield is a fair switch: the yielder is not chosen again while
//! another thread can run, and a switch that costs no preemption goes
//! to a thread that has not yielded whenever there is one, so two
//! spinners cannot hand the floor back and forth past the thread they
//! wait for. An execution that still runs past `max_ops` is a livelock
//! and fails like a deadlock.
//!
//! Once an execution aborts, every thread unwinds at its next visible
//! operation. The operations its destructors then perform (a lock, a
//! join, a notify) are inert: they schedule nothing and cannot fail,
//! and a lock spins on the real mutex word, which the other unwinding
//! threads release as they go.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// Hard cap on model threads per execution; decision-point arity and
/// the token table stay tiny.
pub(crate) const MAX_THREADS: usize = 8;

/// Panic payload used to unwind model threads during teardown. Not a
/// failure by itself — the failure (if any) is already recorded in the
/// execution state.
pub(crate) struct AbortToken;

/// One scheduling (or notify-victim) decision: `chosen` out of `n`
/// alternatives. `n == 0` marks a replayed choice whose arity was not
/// recorded (external replay input) and is not consistency-checked.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Choice {
    pub n: u32,
    pub chosen: u32,
}

/// What a parked thread is waiting for. Mutexes and condvars are
/// identified by address; addresses are stable because waiting borrows
/// the primitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Ready to run (possibly holding locks).
    Runnable,
    /// Contending for the model mutex at this address.
    Mutex(usize),
    /// Parked on the condvar at this address; `timed` waiters may be
    /// woken by the stuck-state timeout rule.
    Condvar { addr: usize, timed: bool },
    /// Waiting for the thread with this id to finish.
    Join(usize),
    /// Exited (normally or by abort).
    Finished,
}

/// A thread's run token: the scheduler sets it, the thread waits on it.
pub(crate) struct Token {
    go: StdMutex<bool>,
    cv: StdCondvar,
}

impl Token {
    fn new() -> Arc<Token> {
        Arc::new(Token {
            go: StdMutex::new(false),
            cv: StdCondvar::new(),
        })
    }

    fn wait(&self) {
        let mut go = self.go.lock().unwrap_or_else(|e| e.into_inner());
        while !*go {
            go = self.cv.wait(go).unwrap_or_else(|e| e.into_inner());
        }
        *go = false;
    }

    fn set(&self) {
        *self.go.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_one();
    }
}

struct ThreadSlot {
    status: Status,
    token: Arc<Token>,
    /// Set when the thread was released from a timed condvar wait by
    /// the stuck-state rule rather than by a notify.
    timed_out: bool,
    /// The thread's last visible operation was a yield: a free switch
    /// picks it only when every other runnable thread has yielded too.
    yielded: bool,
}

/// Per-execution mutable state, guarded by one real mutex. Only the
/// running thread mutates it between decision points; during teardown
/// several unwinding threads may touch it concurrently, which the real
/// mutex makes safe.
pub(crate) struct Exec {
    threads: Vec<ThreadSlot>,
    current: usize,
    /// Schedule prefix to replay, then extended with default choices.
    path: Vec<Choice>,
    pos: usize,
    preemptions: usize,
    ops: usize,
    pub(crate) trace: Vec<(usize, &'static str)>,
    aborting: bool,
    pub(crate) failure: Option<String>,
    finished: usize,
    pub(crate) timeouts_fired: usize,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

impl Exec {
    fn new(path: Vec<Choice>) -> Exec {
        Exec {
            threads: Vec::new(),
            current: 0,
            path,
            pos: 0,
            preemptions: 0,
            ops: 0,
            trace: Vec::new(),
            aborting: false,
            failure: None,
            finished: 0,
            timeouts_fired: 0,
            os_handles: Vec::new(),
        }
    }

    fn runnable(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| self.threads[t].status == Status::Runnable)
            .collect()
    }

    /// Orders `threads` for a switch: those that have not yielded
    /// first. With `fair`, the yielders are dropped whenever anyone
    /// else is left.
    fn rank(&self, threads: Vec<usize>, fair: bool) -> Vec<usize> {
        let (fresh, yielded): (Vec<usize>, Vec<usize>) =
            threads.into_iter().partition(|&t| !self.threads[t].yielded);
        if fair && !fresh.is_empty() {
            fresh
        } else {
            fresh.into_iter().chain(yielded).collect()
        }
    }

    /// Records `msg` as the execution's failure (the first one wins)
    /// and tears the execution down.
    fn fail(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
        self.abort_all();
    }

    /// Consumes (or records) one decision among `n` alternatives.
    /// Single-alternative points are not recorded — they carry no
    /// information and would bloat the search tree.
    fn decide(&mut self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        if self.pos < self.path.len() {
            let c = self.path[self.pos];
            assert!(
                c.n == 0 || c.n as usize == n,
                "nondeterministic model: decision point {} had {} alternatives on \
                 replay but {} originally (models must not branch on real time or \
                 ambient randomness)",
                self.pos,
                n,
                c.n
            );
            assert!(
                (c.chosen as usize) < n,
                "replay schedule chose alternative {} of {n} at decision point {}",
                c.chosen,
                self.pos
            );
            self.pos += 1;
            c.chosen as usize
        } else {
            self.path.push(Choice {
                n: n as u32,
                chosen: 0,
            });
            self.pos += 1;
            0
        }
    }

    fn status_summary(&self) -> String {
        self.threads
            .iter()
            .enumerate()
            .map(|(t, s)| format!("thread {t}: {:?}", s.status))
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Wakes every registered thread so that blocked/parked threads
    /// observe `aborting` and unwind.
    fn abort_all(&mut self) {
        self.aborting = true;
        for slot in &self.threads {
            slot.token.set();
        }
    }
}

/// Per-execution context shared by the driver and every model thread.
pub(crate) struct Ctx {
    pub(crate) exec: StdMutex<Exec>,
    /// Signalled when the last thread exits.
    all_done: StdCondvar,
    preemption_bound: Option<usize>,
    max_ops: usize,
    record_trace: bool,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Ctx>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The calling thread's execution context; panics outside a model run.
pub(crate) fn current() -> (Arc<Ctx>, usize) {
    CTX.with(|c| c.borrow().clone()).expect(
        "snet-check sync primitive used outside snet_check::model \
         (checked builds only run under the model scheduler)",
    )
}

pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

fn lock_exec(ctx: &Ctx) -> std::sync::MutexGuard<'_, Exec> {
    ctx.exec.lock().unwrap_or_else(|e| e.into_inner())
}

impl Ctx {
    /// One visible operation by the running thread `tid`: records the
    /// trace event and decides who performs the next operation.
    /// `voluntary` marks explicit yields (`thread::yield_now`): the
    /// switch away from a yield is free (not a preemption) and never
    /// comes back to the yielder while another thread can run.
    pub(crate) fn op(self: &Arc<Ctx>, tid: usize, desc: &'static str, voluntary: bool) {
        let next_token;
        let my_token;
        {
            let mut ex = lock_exec(self);
            if self.stop(&ex) {
                return;
            }
            ex.ops += 1;
            if ex.ops > self.max_ops {
                let msg = format!(
                    "livelock: the execution passed {} visible operations ({})",
                    self.max_ops,
                    ex.status_summary()
                );
                ex.fail(msg);
                if self.stop(&ex) {
                    return;
                }
            }
            if self.record_trace {
                ex.trace.push((tid, desc));
            }
            ex.threads[tid].yielded = voluntary;
            let runnable = ex.runnable();
            debug_assert!(runnable.contains(&tid), "running thread must be runnable");
            let others: Vec<usize> = runnable.iter().copied().filter(|&t| t != tid).collect();
            let bounded = !voluntary && self.preemption_bound.is_some_and(|b| ex.preemptions >= b);
            let cands: Vec<usize> = if others.is_empty() || bounded {
                vec![tid]
            } else if voluntary {
                ex.rank(others, true)
            } else {
                [tid].into_iter().chain(ex.rank(others, false)).collect()
            };
            let next = cands[ex.decide(cands.len())];
            if next == tid {
                return;
            }
            if !voluntary {
                ex.preemptions += 1;
            }
            ex.current = next;
            next_token = Arc::clone(&ex.threads[next].token);
            my_token = Arc::clone(&ex.threads[tid].token);
        }
        next_token.set();
        my_token.wait();
        self.stop(&lock_exec(self));
    }

    /// What an aborting execution does to the calling thread: `false`
    /// while the execution runs; unwinds the thread at its first
    /// operation after the abort; and `true` (the operation is inert)
    /// once the thread is unwinding, so a destructor that locks, joins
    /// or notifies cannot panic in a panic.
    fn stop(&self, ex: &Exec) -> bool {
        if !ex.aborting {
            return false;
        }
        if std::thread::panicking() {
            return true;
        }
        panic::panic_any(AbortToken);
    }

    /// Parks `tid` with the given wait reason and hands the floor to
    /// some runnable thread (resolving stuck states). Returns whether
    /// the wake came from the stuck-state timeout rule; returns at once
    /// on an unwinding thread of an aborted execution.
    fn block(self: &Arc<Ctx>, tid: usize, status: Status) -> bool {
        let my_token;
        {
            let mut ex = lock_exec(self);
            if self.stop(&ex) {
                return false;
            }
            ex.threads[tid].status = status;
            ex.threads[tid].timed_out = false;
            my_token = Arc::clone(&ex.threads[tid].token);
            self.dispatch(&mut ex);
            if self.stop(&ex) {
                return false;
            }
        }
        my_token.wait();
        let mut ex = lock_exec(self);
        if self.stop(&ex) {
            return false;
        }
        let timed_out = ex.threads[tid].timed_out;
        ex.threads[tid].timed_out = false;
        timed_out
    }

    /// Hands the floor to a runnable thread (a decision point when
    /// several are runnable, those that have not yielded first). Called
    /// when the current thread parked or exited, so staying put is not
    /// an option: if nothing is runnable, fire pending timed waits, and
    /// failing that record a deadlock and abort. Does nothing when every
    /// thread has finished.
    fn dispatch(self: &Arc<Ctx>, ex: &mut Exec) {
        let mut runnable = ex.runnable();
        if runnable.is_empty() {
            let timed: Vec<usize> = (0..ex.threads.len())
                .filter(|&t| matches!(ex.threads[t].status, Status::Condvar { timed: true, .. }))
                .collect();
            if !timed.is_empty() {
                for &t in &timed {
                    ex.threads[t].status = Status::Runnable;
                    ex.threads[t].timed_out = true;
                    ex.timeouts_fired += 1;
                }
                runnable = timed;
            } else if ex.finished == ex.threads.len() {
                return; // execution complete; nobody left to schedule
            } else {
                let msg = format!(
                    "deadlock: no runnable thread and no timed waiter ({})",
                    ex.status_summary()
                );
                ex.fail(msg);
                return;
            }
        }
        let cands = ex.rank(runnable, true);
        let next = cands[ex.decide(cands.len())];
        ex.current = next;
        ex.threads[next].token.set();
    }

    // ---- mutex protocol -------------------------------------------------

    /// Blocks until the model mutex at `addr` is observed free. The
    /// caller (the mutex itself) re-checks and re-calls on contention;
    /// on an unwinding thread of an aborted execution that is a spin,
    /// which the other threads' unwinding ends.
    pub(crate) fn mutex_block(self: &Arc<Ctx>, tid: usize, addr: usize) {
        if self.stop(&lock_exec(self)) {
            std::thread::yield_now();
        } else {
            self.block(tid, Status::Mutex(addr));
        }
    }

    /// Marks every thread contending for `addr` runnable again.
    pub(crate) fn mutex_unlocked(self: &Arc<Ctx>, addr: usize) {
        let mut ex = lock_exec(self);
        if ex.aborting {
            return; // teardown: everyone is already being woken
        }
        for slot in &mut ex.threads {
            if slot.status == Status::Mutex(addr) {
                slot.status = Status::Runnable;
            }
        }
    }

    // ---- condvar protocol -----------------------------------------------

    /// Atomically releases the mutex at `mutex_addr` (waking its
    /// contenders) and parks on the condvar at `cv_addr` — the no-lost-
    /// wakeup guarantee of a real condvar. Returns true if the wake
    /// came from the stuck-state timeout rule.
    pub(crate) fn condvar_wait(
        self: &Arc<Ctx>,
        tid: usize,
        cv_addr: usize,
        mutex_addr: usize,
        timed: bool,
    ) -> bool {
        {
            let mut ex = lock_exec(self);
            if self.stop(&ex) {
                return false;
            }
            for slot in &mut ex.threads {
                if slot.status == Status::Mutex(mutex_addr) {
                    slot.status = Status::Runnable;
                }
            }
        }
        self.block(
            tid,
            Status::Condvar {
                addr: cv_addr,
                timed,
            },
        )
    }

    /// Wakes one (or all) waiters of the condvar at `addr`. With
    /// several waiters, *which* one receives a single notify is a
    /// decision point — exactly the nondeterminism that lost-wakeup
    /// bugs hide behind.
    pub(crate) fn condvar_notify(self: &Arc<Ctx>, addr: usize, all: bool) {
        let mut ex = lock_exec(self);
        if ex.aborting {
            return;
        }
        let waiters: Vec<usize> = (0..ex.threads.len())
            .filter(
                |&t| matches!(ex.threads[t].status, Status::Condvar { addr: a, .. } if a == addr),
            )
            .collect();
        if waiters.is_empty() {
            return; // notify with nobody waiting is lost, as in real life
        }
        if all {
            for &t in &waiters {
                ex.threads[t].status = Status::Runnable;
            }
        } else {
            let victim = waiters[ex.decide(waiters.len())];
            ex.threads[victim].status = Status::Runnable;
        }
    }

    // ---- thread protocol ------------------------------------------------

    /// Registers a new model thread and returns its id. The OS-level
    /// spawn happens in `thread.rs`; the new thread starts parked on
    /// its token and becomes schedulable immediately (or, spawned
    /// during teardown, exits at once).
    pub(crate) fn register_thread(self: &Arc<Ctx>) -> (usize, Arc<Token>) {
        let mut ex = lock_exec(self);
        let tid = ex.threads.len();
        assert!(
            tid < MAX_THREADS,
            "model spawned more than {MAX_THREADS} threads"
        );
        let token = Token::new();
        if ex.aborting {
            token.set();
        }
        ex.threads.push(ThreadSlot {
            status: Status::Runnable,
            token: Arc::clone(&token),
            timed_out: false,
            yielded: false,
        });
        (tid, token)
    }

    pub(crate) fn adopt_os_handle(self: &Arc<Ctx>, h: std::thread::JoinHandle<()>) {
        lock_exec(self).os_handles.push(h);
    }

    /// Parks the caller until thread `target` finishes (at once, and
    /// without it, on an unwinding thread of an aborted execution).
    pub(crate) fn join_block(self: &Arc<Ctx>, tid: usize, target: usize) {
        loop {
            {
                let ex = lock_exec(self);
                if self.stop(&ex) || ex.threads[target].status == Status::Finished {
                    return;
                }
            }
            self.block(tid, Status::Join(target));
        }
    }

    /// Normal end of a model thread's closure: mark finished, wake
    /// joiners, hand the floor onward.
    fn retire(self: &Arc<Ctx>, tid: usize) {
        {
            let mut ex = lock_exec(self);
            ex.threads[tid].status = Status::Finished;
            ex.finished += 1;
            if !ex.aborting {
                for slot in &mut ex.threads {
                    if slot.status == Status::Join(tid) {
                        slot.status = Status::Runnable;
                    }
                }
                self.dispatch(&mut ex);
            }
        }
        self.signal_if_done();
    }

    /// Exit path for a thread unwound by [`AbortToken`] or a real
    /// panic: count the exit without scheduling anything.
    fn exit_aborted(self: &Arc<Ctx>, tid: usize) {
        let mut ex = lock_exec(self);
        if ex.threads[tid].status != Status::Finished {
            ex.threads[tid].status = Status::Finished;
            ex.finished += 1;
        }
        drop(ex);
        self.signal_if_done();
    }

    fn signal_if_done(self: &Arc<Ctx>) {
        let ex = lock_exec(self);
        if ex.finished == ex.threads.len() {
            self.all_done.notify_all();
        }
    }

    /// Records a user panic (assertion failure in the model) and tears
    /// the execution down.
    fn fail_from_panic(self: &Arc<Ctx>, tid: usize, payload: &(dyn std::any::Any + Send)) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "model thread panicked".to_string());
        lock_exec(self).fail(format!("thread {tid} panicked: {msg}"));
    }
}

/// Body wrapper for every model thread (including thread 0): installs
/// the thread-local context, waits for its first token, runs the
/// closure under `catch_unwind`, and routes the three exit flavors.
fn run_thread(ctx: Arc<Ctx>, tid: usize, token: Arc<Token>, body: impl FnOnce()) {
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&ctx), tid)));
    token.wait();
    let aborted_before_start = lock_exec(&ctx).aborting;
    if aborted_before_start {
        ctx.exit_aborted(tid);
    } else {
        match panic::catch_unwind(AssertUnwindSafe(body)) {
            Ok(()) => ctx.retire(tid),
            Err(payload) => {
                if !payload.is::<AbortToken>() {
                    ctx.fail_from_panic(tid, payload.as_ref());
                }
                ctx.exit_aborted(tid);
            }
        }
    }
    CTX.with(|c| *c.borrow_mut() = None);
}

/// Spawn entry point used by `thread.rs` for model-spawned threads.
pub(crate) fn spawn_model_thread(
    ctx: &Arc<Ctx>,
    tid: usize,
    token: Arc<Token>,
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let ctx = Arc::clone(ctx);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || run_thread(ctx, tid, token, body))
        .expect("spawn model thread")
}

/// Outcome of one fully explored schedule.
pub(crate) struct ExecOutcome {
    pub failure: Option<String>,
    pub path: Vec<Choice>,
    pub trace: Vec<(usize, &'static str)>,
}

/// Runs the model closure once under the schedule prefix `path`
/// (extending it with default choices past the prefix) and returns the
/// complete schedule actually taken.
pub(crate) fn run_once(
    f: &Arc<dyn Fn() + Send + Sync>,
    path: Vec<Choice>,
    preemption_bound: Option<usize>,
    max_ops: usize,
    record_trace: bool,
) -> ExecOutcome {
    let ctx = Arc::new(Ctx {
        exec: StdMutex::new(Exec::new(path)),
        all_done: StdCondvar::new(),
        preemption_bound,
        max_ops,
        record_trace,
    });
    let (tid0, token0) = ctx.register_thread();
    debug_assert_eq!(tid0, 0);
    let f0 = Arc::clone(f);
    let h0 = {
        let ctx = Arc::clone(&ctx);
        let token = Arc::clone(&token0);
        std::thread::Builder::new()
            .name("snet-check-0".into())
            .spawn(move || run_thread(ctx, 0, token, move || f0()))
            .expect("spawn model thread 0")
    };
    token0.set();
    let handles;
    let outcome;
    {
        let mut ex = lock_exec(&ctx);
        while ex.finished < ex.threads.len() {
            ex = ctx.all_done.wait(ex).unwrap_or_else(|e| e.into_inner());
        }
        handles = std::mem::take(&mut ex.os_handles);
        outcome = ExecOutcome {
            failure: ex.failure.take(),
            path: std::mem::take(&mut ex.path),
            trace: std::mem::take(&mut ex.trace),
        };
    }
    let _ = h0.join();
    for h in handles {
        let _ = h.join();
    }
    outcome
}

/// Stuck-state timeout count for the *current* execution; models call
/// this (via [`crate::timeouts_fired`]) to assert a protocol never
/// relied on its timeout safety net.
pub(crate) fn timeouts_fired_now() -> usize {
    let (ctx, _) = current();
    let n = lock_exec(&ctx).timeouts_fired;
    n
}
