//! Tasks: one per component instance — a mailbox, the component's
//! state, and the activation that drains one into the other.
//!
//! A task becomes runnable when a record lands in its mailbox (or its
//! last upstream [`Port`] closes); a worker runs it by draining the
//! mailbox up to a budget through [`Component::step_batch`], flushing
//! every output edge, and finalizing once end-of-stream is reached.
//! End-of-stream is sender refcounting: when the last upstream port of
//! a task closes, the task finalizes and closes its own outputs, so
//! termination cascades from the entry to the sink the way channel
//! disconnection would. The general way there is one more activation: the
//! closer queues the task, whose activation finds no sender and an
//! empty mailbox. The short way (`finalize_in_place`) skips that
//! activation when it could do nothing else: a component that is idle
//! and drained when its last sender closes is finalized by the closer,
//! and the cascade continues from there, to a bounded depth — a torn-
//! down replica costs no queue round trip per task. The sink is always
//! the last task of a run to finalize and always does so in an
//! activation of its own, so its finalization doubles as the run's
//! completion signal ([`Latch`]).
//!
//! A streaming run's sink is where the graph meets the handle's egress,
//! a bounded [`std::sync::mpsc`] channel: it delivers with `try_send`
//! only (a worker never blocks on the consumer), keeps what the channel
//! hands back at the front of its buffer, and re-defers itself through
//! the same zero-progress back-off a backpressured component uses — the
//! channel has no back-edge into the scheduler to wake it.

use super::pool::{notify, Pool};
use super::sync::{AtomicBool, AtomicU32, AtomicUsize, Condvar};
use super::Latch;
use crate::component::{Component, Transport};
use crate::run::Run;
use parking_lot::Mutex;
use snet_core::{panic_cause, pool, Record, SnetError};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records processed per task activation before yielding back to the
/// scheduler (keeps long streams from starving sibling components).
/// When [`crate::EngineConfig::batch`] exceeds this, the budget
/// stretches so a full hand-off batch is always processed in one
/// activation.
const ACTIVATION_BUDGET: usize = 64;

/// Cap on the exponential backpressure backoff: a zero-progress task is
/// re-enqueued after `1µs << min(n, BACKOFF_MAX_SHIFT)`, i.e. at most
/// ~1ms — the same latency bound as a worker's park quantum.
const BACKOFF_MAX_SHIFT: u32 = 10;

/// How many tasks one end-of-stream cascade may finalize in place,
/// nested, before it hands the next one to the queue. Each level holds
/// its task's state lock and a stack frame; a long unfolded star is a
/// chain thousands of tasks deep, so the recursion must be bounded.
const EOS_INPLACE_DEPTH: u32 = 32;

/// One component instance: mailbox + state.
pub(super) struct Task {
    /// The run this task belongs to (trace, error slot, abort flag).
    pub(super) run: Arc<Run>,
    pub(super) mailbox: Mutex<VecDeque<Record>>,
    /// Signalled (paired with the `mailbox` mutex) whenever the mailbox
    /// shrinks while `ingress_waiters` is non-zero; only the streaming
    /// entry path ever waits on it.
    pub(super) ingress_cv: Condvar,
    pub(super) ingress_waiters: AtomicUsize,
    /// Open upstream ports; 0 = end-of-stream once the mailbox drains.
    open_senders: AtomicUsize,
    /// True while queued or deferred (prevents double-queueing; cleared
    /// when a worker picks the task up).
    pub(super) scheduled: AtomicBool,
    /// Consecutive zero-progress (backpressured) activations; drives
    /// the exponential re-enqueue backoff. Reset on any progress.
    backoff: AtomicU32,
    pub(super) state: Mutex<State>,
}

// One `State` per task, inside the task's own heap allocation: boxing
// the component would only add a pointer hop to every step.
#[allow(clippy::large_enum_variant)]
pub(super) enum State {
    /// A live component and its output ports.
    Live(Component<Port>),
    /// Terminal output collector; records coalesce in `buf` and move to
    /// `dest` once per batch/activation.
    Sink {
        buf: Vec<Record>,
        dest: SinkDest,
        latch: Arc<Latch>,
    },
    /// Finalized: outputs closed, no further effects.
    Done,
}

/// Where a run's sink delivers its records.
pub(super) enum SinkDest {
    /// Batch mode: append to the driver's output vector.
    Collect(Arc<Mutex<Vec<Record>>>),
    /// Streaming mode: push into the handle's bounded output channel.
    /// Dropping the sender (at sink finalization) is the consumer's
    /// end-of-stream.
    Stream(SyncSender<Record>),
}

impl SinkDest {
    /// Best-effort delivery of the sink's coalescing buffer. A worker
    /// must never block (or sleep) inside a sink activation — it holds
    /// the sink's state lock, so every other worker would churn on the
    /// re-queued-but-locked task while the consumer starves. Streamed
    /// records that do not fit in the output channel therefore stay at
    /// the front of `buf` and the sink *defers* through the scheduler's
    /// zero-progress backoff machinery until the consumer drains.
    fn flush(&self, buf: &mut Vec<Record>) {
        if buf.is_empty() {
            return;
        }
        match self {
            SinkDest::Collect(outs) => outs.lock().append(buf),
            SinkDest::Stream(tx) => {
                // Front to back, one `try_send` each. A record handed
                // back as `Full` goes back where it was, at the front
                // of the leftovers the deferred retry starts from; a
                // disconnected consumer drops the rest.
                let mut sent = 0;
                while sent < buf.len() {
                    match tx.try_send(std::mem::take(&mut buf[sent])) {
                        Ok(()) => sent += 1,
                        Err(TrySendError::Full(rec)) => {
                            buf[sent] = rec;
                            break;
                        }
                        Err(TrySendError::Disconnected(_)) => sent = buf.len(),
                    }
                }
                buf.drain(..sent);
            }
        }
    }
}

impl Task {
    pub(super) fn new(state: State, run: &Arc<Run>) -> Arc<Task> {
        Arc::new(Task {
            run: Arc::clone(run),
            mailbox: Mutex::new(pool::take_deque()),
            ingress_cv: Condvar::new(),
            ingress_waiters: AtomicUsize::new(0),
            open_senders: AtomicUsize::new(0),
            scheduled: AtomicBool::new(false),
            backoff: AtomicU32::new(0),
            state: Mutex::new(state),
        })
    }

    /// Discards buffered input (abort path), waking any ingress waiter
    /// blocked on the freed space.
    fn clear_mailbox(&self) {
        self.mailbox.lock().clear();
        if self.ingress_waiters.load(Ordering::Acquire) > 0 {
            self.ingress_cv.notify_all();
        }
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
        {
            let mut mb = self.task.mailbox.lock();
            mb.extend(self.buf.drain(..));
        }
        notify(&self.task, sh, local);
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
            let before = mb.len();
            mb.extend(recs);
            mb.len() > before
        };
        if any {
            notify(&self.task, sh, local);
        }
    }

    fn backlog(&self) -> usize {
        self.task.mailbox.lock().len()
    }

    /// Closes the port. When it was the task's last sender, the task
    /// has reached end-of-stream: if it is an idle, drained component
    /// it is finalized here and now, which closes *its* outputs the
    /// same way (`depth` counts that nesting); otherwise it is queued
    /// and finalizes in its next activation.
    pub(super) fn close(mut self, sh: &Pool, local: Option<usize>, depth: u32) {
        // Sends happen-before close: drain the coalescing buffer first.
        self.flush(sh, local);
        pool::give_vec(std::mem::take(&mut self.buf));
        if self.task.open_senders.fetch_sub(1, Ordering::AcqRel) == 1
            && !finalize_in_place(&self.task, sh, local, depth)
        {
            // Last sender gone: the task must run once more to observe
            // end-of-stream and finalize.
            notify(&self.task, sh, local);
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
/// tasks deep, and always for the sink: its delivery gate and the run's
/// completion signal live in `run_task`.
fn finalize_in_place(task: &Arc<Task>, sh: &Pool, local: Option<usize>, depth: u32) -> bool {
    if depth >= EOS_INPLACE_DEPTH {
        return false;
    }
    let Some(mut state) = task.state.try_lock() else {
        return false;
    };
    if !matches!(*state, State::Live(_)) || !task.mailbox.lock().is_empty() {
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
        Port::new(&Task::new(State::Live(comp), self.run))
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
/// unwinding activation would silently shrink the pool and strand the
/// run's completion latch forever. Instead the task's run is failed and
/// the task finalized, so the end-of-stream cascade (and the driver)
/// still complete, with the panic reported as the run's error.
pub(super) fn execute(
    task: &Arc<Task>,
    state: parking_lot::MutexGuard<'_, State>,
    sh: &Pool,
    local: Option<usize>,
) -> Option<Instant> {
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_task(task, state, sh, local)
    }));
    match unwound {
        Ok(defer) => defer,
        Err(payload) => {
            let cause = panic_cause(payload.as_ref());
            task.run.fail(SnetError::Engine(format!(
                "scheduler activation panicked: {cause}"
            )));
            task.clear_mailbox();
            // The state mutex recovers from the poisoned unwind (shim
            // semantics); finalizing closes the task's ports so the
            // cascade still reaches the sink.
            if let Some(mut st) = task.state.try_lock() {
                finalize(task, &mut st, sh, local, 0);
            }
            None
        }
    }
}

/// Runs one activation of a task: drain its mailbox in hand-off
/// batches (bounded by the activation budget and downstream high-water
/// marks), flush every output edge once, then finalize if end-of-stream
/// has been reached. The caller holds the state lock (acquired with
/// `try_lock`, so workers never block behind a running activation).
///
/// Returns `Some(deadline)` for a zero-progress backpressure yield that
/// must be re-run no earlier than the deadline, `None` otherwise.
fn run_task(
    task: &Arc<Task>,
    mut state: parking_lot::MutexGuard<'_, State>,
    sh: &Pool,
    local: Option<usize>,
) -> Option<Instant> {
    // From here on, producers may re-queue the task; the held state
    // lock serializes actual execution.
    task.scheduled.store(false, Ordering::Release);

    // Activation-start preemption point: abort flag and run deadline.
    if task.run.should_stop() {
        task.clear_mailbox();
        finalize(task, &mut state, sh, local, 0);
        return None;
    }

    let batch = sh.config.batch.max(1);
    let budget = ACTIVATION_BUDGET.max(batch);
    // Probing the downstream mailbox for backpressure takes its lock;
    // amortize the check over at least a batch (and no fewer than 16
    // records, so `batch = 1` keeps the pre-batching cadence).
    let bp_stride = batch.max(16);
    let mut next_bp_check = 0usize;
    let mut processed = 0usize;
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
                task.clear_mailbox();
                finalize(task, &mut state, sh, local, 0);
                return None;
            }
            if output_backpressured(&mut state, sh) {
                break;
            }
            next_bp_check = processed + bp_stride;
        }
        // Refill: claim up to a whole batch with one mailbox lock.
        {
            let mut mb = task.mailbox.lock();
            let take = batch.min(budget - processed).min(mb.len());
            if take == 0 {
                break;
            }
            inbuf.extend(mb.drain(..take));
        }
        // The mailbox just shrank: wake a streaming sender blocked on
        // the ingress bound, if any.
        if task.ingress_waiters.load(Ordering::Acquire) > 0 {
            task.ingress_cv.notify_all();
        }
        match &mut *state {
            State::Live(comp) => {
                let n = inbuf.len();
                let mut cx = TaskCx {
                    pool: sh,
                    run: &task.run,
                    local,
                };
                if let Err(e) = comp.step_batch(inbuf.drain(..), &task.run, &sh.config, &mut cx) {
                    task.run.fail(e);
                    task.clear_mailbox();
                    finalize(task, &mut state, sh, local, 0);
                    return None;
                }
                processed += n;
            }
            State::Sink { buf, dest, .. } => {
                processed += inbuf.len();
                for rec in inbuf.drain(..) {
                    buf.push(rec);
                    if buf.len() >= batch {
                        dest.flush(buf);
                    }
                }
            }
            // Post-teardown stragglers are dropped.
            State::Done => processed += inbuf.drain(..).count(),
        }
    }

    // Forward this activation's entire output: every edge gets at most
    // one more mailbox push + wake, and the between-activations
    // invariant (empty coalescing buffers) is restored.
    flush_outputs(&mut state, sh, local);
    if processed > 0 {
        task.backoff.store(0, Ordering::Relaxed);
    }

    // Order matters: read the sender count BEFORE the final mailbox
    // probe. Each port's sends happen-before its close, so observing
    // zero senders first guarantees the mailbox probe sees every record
    // — probing the mailbox first could miss a record sent (and closed)
    // between the two reads.
    let senders = task.open_senders.load(Ordering::Acquire);
    let mailbox_empty = task.mailbox.lock().is_empty();
    // Sink delivery happens here, not in `flush_outputs`: deliver when
    // the inbound stream pauses (empty mailbox — latency now matters)
    // or a full hand-off batch has accumulated; holding smaller
    // dribbles while more input is already queued coalesces consumer
    // wakes without ever stranding a record (a non-empty mailbox
    // guarantees another activation). A streaming sink can still be
    // left with undelivered records when the output channel was full:
    // nothing in the graph re-schedules it when the consumer drains
    // (the channel has no back-edge into the scheduler), so it must
    // re-defer itself even with an empty mailbox.
    let undelivered = if let State::Sink { buf, dest, .. } = &mut *state {
        if mailbox_empty || buf.len() >= batch {
            dest.flush(buf);
        }
        !buf.is_empty()
    } else {
        false
    };
    if mailbox_empty && !undelivered {
        if senders == 0 {
            finalize(task, &mut state, sh, local, 0);
        }
        None
    } else {
        // Note the finalize-gate: a sink with undelivered output is
        // never finalized, even at end-of-stream — it re-defers until
        // the consumer makes room (or hangs up). Finalizing instead
        // would force a blocking drain inside an activation, which
        // deadlocks a single-threaded driver that is simultaneously
        // the pool helper (`drive`) and the consumer.
        drop(state);
        if processed == 0 {
            // Zero-progress (backpressured) yield. Requeueing straight
            // onto a run queue spins hot while the downstream
            // mailbox stays full; instead, re-enqueue with exponential
            // backoff. Claiming `scheduled` here keeps producers from
            // double-queueing the task; if a producer won the race, its
            // queue entry owns the re-run.
            if task
                .scheduled
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let shift = task
                    .backoff
                    .fetch_add(1, Ordering::Relaxed)
                    .min(BACKOFF_MAX_SHIFT);
                return Some(Instant::now() + Duration::from_micros(1u64 << shift));
            }
            None
        } else {
            // Budget yield with progress made: run again soon, from this
            // worker's own queue.
            notify(task, sh, local);
            None
        }
    }
}

/// Flushes every coalescing output buffer reachable from `state`: one
/// downstream mailbox push + consumer wake per edge with pending
/// records. The sink is absent on purpose: its delivery cadence is
/// decided in `run_task`'s tail (full batches, or everything once its
/// mailbox pauses), not at every activation boundary — flushing
/// dribbles per activation would wake the consumer per couple of
/// records and let it preempt the worker mid-stream.
fn flush_outputs(state: &mut State, sh: &Pool, local: Option<usize>) {
    if let State::Live(comp) = state {
        comp.for_each_port(|port| port.flush(sh, local));
    }
}

/// Cooperative backpressure: stop consuming while the mailbox the
/// component's boxes and filters write to is over the high-water mark
/// ([`Component::held_back_by`]; pure dispatchers are exempt: their
/// work per record is trivial and they feed many outputs). A streaming
/// sink yields the same way while its consumer lags — it must not grow
/// its buffer then — and learns that from the channel handing a record
/// back, not from probing it: a whole hand-off batch still buffered
/// here means the delivery that was due found the channel full, so it
/// is retried, and whatever comes back again is the backpressure. (A
/// shorter buffer is a dribble the tail of `run_task` is holding on
/// purpose, or leftovers the next due delivery takes along.)
fn output_backpressured(state: &mut State, sh: &Pool) -> bool {
    match state {
        State::Live(comp) => comp
            .held_back_by()
            .is_some_and(|out| out.backlog() >= sh.high_water()),
        State::Sink { buf, dest, .. } => {
            buf.len() >= sh.config.batch.max(1) && {
                dest.flush(buf);
                !buf.is_empty()
            }
        }
        State::Done => false,
    }
}

/// Observes end-of-stream: count stranded synchrocell records, close
/// every downstream port, and become inert. The sink's finalization is
/// the run's completion: it delivers the last buffered outputs, drops
/// the streaming sender (end-of-stream for the consumer) and wakes the
/// driver's completion latch.
fn finalize(task: &Arc<Task>, state: &mut State, sh: &Pool, local: Option<usize>, depth: u32) {
    // Retire the mailbox's backing storage (it is empty on every orderly
    // end-of-stream; abort paths cleared it). Stragglers that land after
    // teardown go into the fresh empty deque and are dropped with it.
    pool::give_deque(std::mem::take(&mut *task.mailbox.lock()));
    if task.ingress_waiters.load(Ordering::Acquire) > 0 {
        task.ingress_cv.notify_all();
    }
    match std::mem::replace(state, State::Done) {
        State::Live(comp) => comp.end_of_stream(&task.run, |port| port.close(sh, local, depth + 1)),
        State::Sink {
            mut buf,
            dest,
            latch,
        } => {
            // By the finalize-gate in `run_task` the buffer is empty on
            // every orderly end-of-stream; a non-empty buffer here means
            // abort or a hung-up consumer, where dropping leftovers is
            // the contract.
            dest.flush(&mut buf);
            pool::give_vec(buf);
            // Streaming mode: dropping `dest` here disconnects the
            // output channel — the consumer's end-of-stream.
            drop(dest);
            latch.signal();
        }
        State::Done => {}
    }
}
