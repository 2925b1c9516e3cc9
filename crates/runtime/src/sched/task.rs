//! Tasks: one per component instance — a mailbox, the component's
//! state, and the activation that drains one into the other.
//!
//! A task becomes runnable when a record lands in its mailbox (or its
//! last upstream [`Port`] closes); a worker runs it by draining the
//! mailbox up to a budget through [`Component::step_batch`], flushing
//! every output edge, and finalizing once end-of-stream is reached.
//! End-of-stream is sender refcounting: when the last upstream port of
//! a task closes, the task finalizes and closes its own outputs, so
//! termination cascades from the entry to the egress the way channel
//! disconnection would. The general way there is one more activation: the
//! closer queues the task, whose activation finds no sender and an
//! empty mailbox. The short way (`finalize_in_place`) skips that
//! activation when it could do nothing else: a component that is idle
//! and drained when its last sender closes is finalized by the closer,
//! and the cascade continues from there, to a bounded depth — a torn-
//! down replica costs no queue round trip per task.
//!
//! A run's egress is a task too, one that is never queued
//! ([`Task::egress`]): the last components write into its mailbox as
//! into any other, and the handle or the batch driver takes what it
//! holds from outside the pool. Its last port's close is the run's
//! end. A thread outside the pool — a sender waiting for room at the
//! entry, the consumer waiting for records or end-of-stream at the
//! egress — registers on the mailbox and then re-checks under its lock;
//! every flush, drain and last close wakes it ([`Task::wake_outside`]).
//! `tests/model.rs` runs both waits under the model checker.
//!
//! Backpressure is a wake, like everything else that makes a task
//! runnable. A component whose downstream backlog is at or over that
//! mailbox's limit registers on it and stops; the drain that takes the
//! backlog under the limit queues it again — at the egress, the take.
//! `tests/model.rs` holds a stage back at the high-water mark under
//! the model checker, and races a split's in-place end-of-stream
//! against the activations it queued.

use super::pool::{notify, Pool};
use super::sync::{AtomicBool, AtomicUsize, Condvar};
use crate::component::{Component, Transport};
use crate::run::Run;
use crate::trace::Trace;
use parking_lot::{Mutex, MutexGuard};
use snet_core::{panic_cause, pool, Record, SnetError};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How long a thread outside the pool waits on a mailbox before it
/// looks at the abort flag, the deadline and the worker pool again:
/// the one backstop of every wait from outside, never the wake.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Records processed per task activation before yielding back to the
/// scheduler (keeps long streams from starving sibling components).
/// When [`crate::EngineConfig::batch`] exceeds this, the budget
/// stretches so a full hand-off batch is always processed in one
/// activation.
const ACTIVATION_BUDGET: usize = 64;

/// How many tasks one end-of-stream cascade may finalize in place,
/// nested, before it hands the next one to the queue. Each level holds
/// its task's state lock and a stack frame; a long unfolded star is a
/// chain thousands of tasks deep, so the recursion must be bounded.
const EOS_INPLACE_DEPTH: u32 = 32;

/// One component instance: mailbox + state.
pub(super) struct Task {
    /// The run this task belongs to (trace, error slot, abort flag).
    pub(super) run: Arc<Run>,
    pub(super) mailbox: Mutex<Mailbox>,
    /// Threads outside the pool waiting on the mailbox (paired with its
    /// mutex): a sender for room at the entry, the consumer for records
    /// or end-of-stream at the egress.
    outside_cv: Condvar,
    outside_waiters: AtomicUsize,
    /// Open upstream ports; 0 = end-of-stream once the mailbox drains.
    open_senders: AtomicUsize,
    /// True while queued (prevents double-queueing; cleared when an
    /// activation starts, so a wake that lands during it re-queues).
    pub(super) scheduled: AtomicBool,
    pub(super) state: Mutex<State>,
}

/// A task's input: the records waiting for it and the producers its
/// backlog holds back. One lock covers both, so a producer registers in
/// the same critical section that found the backlog at the limit, and
/// no drain can slip in between the look and the registration.
pub(super) struct Mailbox {
    pub(super) queue: VecDeque<Record>,
    /// Held-back producers, each at most once. Strong: once its senders
    /// have closed, a held-back task is owned by nothing else. The cycle
    /// this makes with the producer's port is broken by the drain that
    /// wakes it, or by this task's finalize; a run stranded on a shut-
    /// down pool (its network dropped mid-run) keeps it.
    pub(super) waiters: Vec<Arc<Task>>,
    /// The backlog at which a producer is held back: the pool's high-
    /// water mark, or unbounded for an egress nobody takes from before
    /// the end (a batch run's, a hung-up handle's).
    pub(super) limit: usize,
}

/// Queues every producer in `waiters`.
pub(super) fn wake(waiters: Vec<Arc<Task>>, sh: &Pool, local: Option<usize>) {
    for producer in &waiters {
        notify(producer, sh, local);
    }
}

// One `State` per task, inside the task's own heap allocation: boxing
// the component would only add a pointer hop to every step.
#[allow(clippy::large_enum_variant)]
pub(super) enum State {
    /// A live component and its output ports.
    Live(Component<Port>),
    /// Finalized (outputs closed, no further effects), or an egress.
    Done,
}

impl Task {
    /// A task built `Done` is an egress (see [`Task::egress`]).
    fn new(state: State, run: &Arc<Run>, limit: usize) -> Arc<Task> {
        let egress = matches!(state, State::Done);
        Arc::new(Task {
            run: Arc::clone(run),
            mailbox: Mutex::new(Mailbox {
                queue: if egress {
                    VecDeque::new()
                } else {
                    pool::take_deque()
                },
                waiters: Vec::new(),
                limit,
            }),
            outside_cv: Condvar::new(),
            outside_waiters: AtomicUsize::new(0),
            open_senders: AtomicUsize::new(0),
            scheduled: AtomicBool::new(egress),
            state: Mutex::new(state),
        })
    }

    /// A run's egress: a mailbox with no component behind it, built
    /// with `scheduled` raised so no wake ever queues it (and, `Done`,
    /// no close finalizes it). Threads outside the pool take what it
    /// holds. Its deque leaves with the outputs and never returns to
    /// the buffer pool, so it is not drawn from there either: a draw
    /// would miss or hit by which thread's freelist the run's retired
    /// mailboxes last spilled to.
    pub(super) fn egress(run: &Arc<Run>, limit: usize) -> Arc<Task> {
        Task::new(State::Done, run, limit)
    }

    /// Has the last port onto this task closed?
    pub(super) fn closed(&self) -> bool {
        self.open_senders.load(Ordering::SeqCst) == 0
    }

    /// Wakes the threads outside the pool waiting on the mailbox, if
    /// any registered. Lock-then-notify: a waiter holds the lock from
    /// its registration through its re-check into the wait, so a change
    /// it did not see — a close is not made under the lock — cannot
    /// land its notify before the wait.
    pub(super) fn wake_outside(&self) {
        if self.outside_waiters.load(Ordering::SeqCst) > 0 {
            drop(self.mailbox.lock());
            self.outside_cv.notify_all();
        }
    }

    /// Waits on the mailbox from a thread outside the pool until
    /// `ready` holds or [`POLL_INTERVAL`] passes; returns the guard and
    /// whether `ready` held before the wait. Registers first, then
    /// checks: a wake after the check finds the registration.
    pub(super) fn wait_outside<'a>(
        &self,
        mb: MutexGuard<'a, Mailbox>,
        ready: impl Fn(&Mailbox) -> bool,
    ) -> (MutexGuard<'a, Mailbox>, bool) {
        self.outside_waiters.fetch_add(1, Ordering::SeqCst);
        let ready = ready(&mb);
        let mb = if ready {
            mb
        } else {
            self.outside_cv
                .wait_timeout(mb, POLL_INTERVAL)
                .unwrap_or_else(|e| e.into_inner())
                .0
        };
        self.outside_waiters.fetch_sub(1, Ordering::SeqCst);
        (mb, ready)
    }
}

/// An open upstream handle onto a task's mailbox. Creating one
/// increments the task's sender count; [`Port::close`] decrements it.
/// Ports are closed explicitly (not on drop) so the close can schedule
/// the receiving task.
///
/// Sends coalesce in `buf` (owned by the producing task's activation —
/// the state lock serializes all access): records are pushed downstream
/// only when the buffer reaches [`crate::EngineConfig::batch`] records
/// or the activation ends, so the consumer-side mailbox lock and wake
/// are paid once per batch, not once per record. The invariant between
/// activations is an *empty* buffer — every activation flushes all of
/// its output edges before yielding, so no record can be stranded in a
/// buffer while its producer waits.
pub(super) struct Port {
    pub(super) task: Arc<Task>,
    buf: Vec<Record>,
}

impl Port {
    pub(super) fn new(task: &Arc<Task>) -> Port {
        task.open_senders.fetch_add(1, Ordering::AcqRel);
        Port {
            task: Arc::clone(task),
            buf: pool::take_vec(),
        }
    }

    /// Buffered send: coalesces until `batch` records are pending, then
    /// pushes the whole run with one lock acquisition and one wake.
    fn send(&mut self, rec: Record, sh: &Pool, local: Option<usize>) {
        self.buf.push(rec);
        if self.buf.len() >= sh.config.batch.max(1) {
            self.flush(sh, local);
        }
    }

    /// Pushes any buffered records downstream: one mailbox lock, one
    /// consumer wake, however many records.
    fn flush(&mut self, sh: &Pool, local: Option<usize>) {
        if self.buf.is_empty() {
            return;
        }
        self.task.mailbox.lock().queue.extend(self.buf.drain(..));
        notify(&self.task, sh, local);
        self.task.wake_outside();
    }

    /// Unbuffered batch send (batch-driver feed path): extends the
    /// mailbox under one lock and wakes the consumer once.
    pub(super) fn send_now(
        &self,
        recs: impl IntoIterator<Item = Record>,
        sh: &Pool,
        local: Option<usize>,
    ) {
        let any = {
            let mut mb = self.task.mailbox.lock();
            let before = mb.queue.len();
            mb.queue.extend(recs);
            mb.queue.len() > before
        };
        if any {
            notify(&self.task, sh, local);
        }
    }

    /// Is the receiving backlog at or over its limit? If so,
    /// `producer` is registered, under the lock the backlog was read
    /// with, to be queued when a drain takes it under the limit.
    fn holds_back(&self, producer: &Arc<Task>) -> bool {
        let mut mb = self.task.mailbox.lock();
        let full = mb.queue.len() >= mb.limit;
        if full && !mb.waiters.iter().any(|w| Arc::ptr_eq(w, producer)) {
            mb.waiters.push(Arc::clone(producer));
        }
        full
    }

    /// Closes the port. When it was the task's last sender, the task
    /// has reached end-of-stream: if it is an idle, drained component
    /// it is finalized here and now, which closes *its* outputs the
    /// same way (`depth` counts that nesting); otherwise it is queued
    /// and finalizes in its next activation. An egress is never queued:
    /// its last close wakes the thread waiting on it for the end.
    pub(super) fn close(mut self, sh: &Pool, local: Option<usize>, depth: u32) {
        // Sends happen-before close: drain the coalescing buffer first.
        self.flush(sh, local);
        pool::give_vec(std::mem::take(&mut self.buf));
        if self.task.open_senders.fetch_sub(1, Ordering::SeqCst) == 1
            && !finalize_in_place(&self.task, sh, local, depth)
        {
            // Last sender gone: the task must run once more to observe
            // end-of-stream and finalize.
            notify(&self.task, sh, local);
            self.task.wake_outside();
        }
    }
}

/// The short way to end-of-stream, taken by whoever closed `task`'s last
/// sender: with no sender left nothing can arrive any more, so a task
/// that is not mid-activation (`try_lock`) and has nothing left to
/// process (empty mailbox) would spend its last activation only
/// finding that out. Returns `false` — and the caller queues the task
/// as usual — when an activation holds the state lock (its tail sees
/// the zero sender count, or the queued activation does), when records
/// are still waiting, when the cascade is already `EOS_INPLACE_DEPTH`
/// tasks deep, and always for an egress (no component behind it).
fn finalize_in_place(task: &Arc<Task>, sh: &Pool, local: Option<usize>, depth: u32) -> bool {
    if depth >= EOS_INPLACE_DEPTH {
        return false;
    }
    let Some(mut state) = task.state.try_lock() else {
        return false;
    };
    if !matches!(*state, State::Live(_)) || !task.mailbox.lock().queue.is_empty() {
        return false;
    }
    finalize(task, &mut state, sh, local, depth);
    true
}

/// The scheduled engine's transport: a port is a [`Port`], spawning a
/// component is creating its [`Task`].
pub(super) struct TaskCx<'a> {
    pub(super) pool: &'a Pool,
    pub(super) run: &'a Arc<Run>,
    /// The worker stepping the component (`None`: a thread outside the
    /// pool), whose own run queue takes the tasks it makes runnable.
    pub(super) local: Option<usize>,
}

impl Transport for TaskCx<'_> {
    type Port = Port;

    fn spawn(&mut self, comp: Component<Port>) -> Port {
        let limit = self.pool.high_water();
        Port::new(&Task::new(State::Live(comp), self.run, limit))
    }

    fn another(port: &Port) -> Port {
        Port::new(&port.task)
    }

    fn send(&mut self, port: &mut Port, rec: Record) {
        port.send(rec, self.pool, self.local);
    }
}

/// Runs one activation with panic containment. User box panics are
/// already converted to errors inside `step`; a panic escaping the
/// activation itself (a semantics/scheduler bug) must still not kill a
/// persistent-pool thread — the pool never respawns workers, so an
/// unwinding activation would silently shrink the pool and leave the
/// run's egress open forever. Instead the task's run is failed and
/// the task finalized, so the end-of-stream cascade (and the driver)
/// still complete, with the panic reported as the run's error.
pub(super) fn execute(
    task: &Arc<Task>,
    state: parking_lot::MutexGuard<'_, State>,
    sh: &Pool,
    local: Option<usize>,
) {
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_task(task, state, sh, local)
    }));
    if let Err(payload) = unwound {
        let cause = panic_cause(payload.as_ref());
        task.run.fail(SnetError::Engine(format!(
            "scheduler activation panicked: {cause}"
        )));
        // The state mutex recovers from the poisoned unwind (shim
        // semantics); finalizing closes the task's ports so the cascade
        // still reaches the egress. A racing activation that holds the
        // lock instead finds the run failed and finalizes.
        if let Some(mut st) = task.state.try_lock() {
            finalize(task, &mut st, sh, local, 0);
        }
    }
}

/// Runs one activation of a task: drain its mailbox in hand-off
/// batches (bounded by the activation budget and the downstream
/// mailbox's limit), flush every output edge once, then finalize if
/// end-of-stream has been reached. The caller holds the state lock
/// (acquired with `try_lock`, so workers never block behind a running
/// activation). An activation ends in one of four ways: finalized, idle
/// (nothing queued for it), re-queued (budget spent), or held back by
/// its downstream, waiting for the wake it registered for; one that
/// finds its task already finalized ends at once.
fn run_task(
    task: &Arc<Task>,
    mut state: parking_lot::MutexGuard<'_, State>,
    sh: &Pool,
    local: Option<usize>,
) {
    // From here on, producers may re-queue the task; the held state
    // lock serializes actual execution.
    task.scheduled.store(false, Ordering::Release);
    Trace::add(&task.run.trace.activations, 1);

    // A stale activation: a send or a close queued the task while the
    // activation before was running, and that one's tail finalized it.
    // Nothing is left to run. Finalizing again only drops stragglers
    // (sent after an abort finalized the task) and wakes the producers
    // they held back, so that they observe the abort.
    let State::Live(comp) = &mut *state else {
        finalize(task, &mut state, sh, local, 0);
        return;
    };

    // Activation-start preemption point: abort flag and run deadline.
    if task.run.should_stop() {
        finalize(task, &mut state, sh, local, 0);
        return;
    }

    let batch = sh.config.batch.max(1);
    let budget = ACTIVATION_BUDGET.max(batch);
    // Probing the downstream mailbox for backpressure takes its lock;
    // amortize the check over at least a batch (and no fewer than 16
    // records, so `batch = 1` keeps the pre-batching cadence).
    let bp_stride = batch.max(16);
    let mut next_bp_check = 0usize;
    let mut processed = 0usize;
    let mut held_back = false;
    // Records claimed from the mailbox for the current hand-off batch.
    // Pooled (with drop-reclaim, for the failure exits): one activation
    // per batch used to mean one short-lived Vec per batch — in steady
    // state that is the hottest allocation in the engine.
    let mut inbuf = pool::PooledVec::take();
    while processed < budget {
        if processed >= next_bp_check {
            // Mid-drain preemption point, amortized on the same stride
            // as the backpressure probe.
            if task.run.should_stop() {
                finalize(task, &mut state, sh, local, 0);
                return;
            }
            if output_backpressured(task, comp) {
                held_back = true;
                break;
            }
            next_bp_check = processed + bp_stride;
        }
        // Refill: claim up to a whole batch with one mailbox lock.
        let woken = {
            let mut mb = task.mailbox.lock();
            let take = batch.min(budget - processed).min(mb.queue.len());
            if take == 0 {
                break;
            }
            inbuf.extend(mb.queue.drain(..take));
            if mb.queue.len() < mb.limit {
                std::mem::take(&mut mb.waiters)
            } else {
                Vec::new()
            }
        };
        // The mailbox just shrank: wake a streaming sender blocked on
        // the ingress bound, if any, and the producers the backlog held
        // back once it is under the limit.
        task.wake_outside();
        wake(woken, sh, local);
        let n = inbuf.len();
        let mut cx = TaskCx {
            pool: sh,
            run: &task.run,
            local,
        };
        if let Err(e) = comp.step_batch(inbuf.drain(..), &task.run, &sh.config, &mut cx) {
            task.run.fail(e);
            finalize(task, &mut state, sh, local, 0);
            return;
        }
        processed += n;
    }

    // Forward this activation's entire output: every edge gets at most
    // one more mailbox push + wake, and the between-activations
    // invariant (empty coalescing buffers) is restored.
    comp.for_each_port(|port| port.flush(sh, local));

    // Order matters: read the sender count BEFORE the final mailbox
    // probe. Each port's sends happen-before its close, so observing
    // zero senders first guarantees the mailbox probe sees every record
    // — probing the mailbox first could miss a record sent (and closed)
    // between the two reads.
    let senders = task.open_senders.load(Ordering::Acquire);
    if task.mailbox.lock().queue.is_empty() {
        if senders == 0 {
            finalize(task, &mut state, sh, local, 0);
        }
    } else if !held_back {
        // Budget yield: run again soon, from this worker's own queue.
        drop(state);
        notify(task, sh, local);
    }
    // Otherwise the task waits for the wake it registered for: its
    // downstream's drain under the limit.
}

/// Cooperative backpressure: stop consuming while the mailbox the
/// component's boxes and filters write to is at or over its limit
/// ([`Component::held_back_by`]; pure dispatchers, which run no box or
/// filter, are exempt: their work per record is trivial and they feed
/// many outputs), and register there for the drain that takes it
/// under.
fn output_backpressured(task: &Arc<Task>, comp: &Component<Port>) -> bool {
    comp.held_back_by().is_some_and(|out| out.holds_back(task))
}

/// Observes end-of-stream: count stranded synchrocell records, close
/// every downstream port, and become inert.
fn finalize(task: &Arc<Task>, state: &mut State, sh: &Pool, local: Option<usize>, depth: u32) {
    // Retire the mailbox's backing storage (it is empty on every orderly
    // end-of-stream; on abort the pool discards what is left). Stragglers
    // that land after teardown go into the fresh empty deque, and the
    // activation they queue finalizes again, which drops them. Whoever
    // waits on the mailbox is woken: a sender on the ingress bound,
    // producers it held back.
    let (queue, waiters) = {
        let mut mb = task.mailbox.lock();
        (
            std::mem::take(&mut mb.queue),
            std::mem::take(&mut mb.waiters),
        )
    };
    pool::give_deque(queue);
    task.wake_outside();
    wake(waiters, sh, local);
    if let State::Live(comp) = std::mem::replace(state, State::Done) {
        comp.end_of_stream(&task.run, |port| port.close(sh, local, depth + 1));
    }
}
