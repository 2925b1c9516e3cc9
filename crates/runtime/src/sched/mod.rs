//! The scheduled engine: component tasks multiplexed over a fixed,
//! **persistent** work-stealing worker pool.
//!
//! A network of hundreds of component instances — a 16-deep pipeline
//! with parallel branches and star unfoldings — runs on a handful of
//! workers, not a thread each:
//!
//! * every component instance (box, filter, synchrocell, dispatcher,
//!   star round) is a lightweight **task** with an SPSC mailbox
//!   (`task`);
//! * a task becomes **runnable** when a record lands in its mailbox (or
//!   its last upstream sender closes), and is then queued on the run
//!   queue of the worker that made it so, where idle siblings steal
//!   from (`pool`; a thread outside the pool queues on a shared one);
//! * a worker runs a task by draining its mailbox up to a batch budget
//!   through the shared component step (`crate::component`, which the
//!   simulated cluster of `snet-dist` runs too), then yields the task
//!   back to the scheduler;
//! * a task whose output mailbox is at its limit stops consuming input
//!   and registers on that mailbox; the drain that takes it under the
//!   limit queues the task again — cooperative backpressure in place of
//!   blocking, woken rather than timed.
//!
//! The worker pool belongs to the network, not to any single run: it is
//! spawned lazily on the first run and joined when the `SchedNet`
//! drops. Every run — a one-shot `run_batch` or a streaming `start` —
//! instantiates a fresh task graph whose tasks carry their own per-run
//! state (trace counters, error slot), so any number of runs can share
//! the pool, even concurrently, and repeated batches stop paying
//! per-call thread spawn/join.
//!
//! A run's output is a mailbox like any other, its **egress**, which no
//! worker ever runs: the last components write into it, and the handle
//! (or the batch driver) takes its whole backlog at a time from outside
//! the pool, waking the producers it held back. The egress's last port
//! closing is the run's end, and it wakes whoever waits there.
//!
//! Streaming ingress is *bounded*: `send` refuses to grow the entry
//! mailbox past [`EngineConfig::channel_capacity`] and blocks (or, for
//! `try_send`, reports `Full`) until the entry task drains — real
//! backpressure on the producer.

mod pool;
mod task;

// Under `--cfg snet_check` the atomics, condvars and threads of the
// scheduler come from the snet-check model scheduler (and its mutex
// from the `parking_lot` shim), so `crates/runtime/tests/model.rs` runs
// this very code under the checker. Its Condvar's timed waits have
// stuck-state semantics, matching how this module uses timeouts: pure
// lost-wakeup backstops, never deadlines.
mod sync {
    #[cfg(snet_check)]
    pub(super) use snet_check::{
        sync::{
            atomic::{AtomicBool, AtomicUsize},
            Condvar,
        },
        thread,
    };
    #[cfg(not(snet_check))]
    pub(super) use std::{
        sync::{
            atomic::{AtomicBool, AtomicUsize},
            Condvar,
        },
        thread,
    };
}

use crate::component::build;
use crate::config::{EngineConfig, Plan};
use crate::handle::TrySendError;
use crate::run::Run;
use crate::{Network, RunReport};
use parking_lot::Mutex;
use pool::{notify, Pool};
use snet_core::{Record, SnetError};
use std::collections::VecDeque;
use std::sync::Arc;
use sync::thread::JoinHandle;
use task::{wake, Mailbox, Port, Task, TaskCx};

/// The scheduled engine (see [`crate::SchedNet`]): owner of the
/// persistent worker pool.
///
/// Dropping it stops the pool and joins its threads. Outstanding
/// [`crate::SchedHandle`]s stay safe to use after that, but no new
/// records will be processed (see [`Handle`]), so finish or drop
/// handles first.
pub(crate) struct Scheduled {
    pool: Arc<Pool>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduled {
    /// Spawns the worker pool if it is not already running.
    fn ensure_workers(&self) {
        let mut workers = self.workers.lock();
        if workers.is_empty() {
            *workers = self.pool.spawn_workers();
        }
    }

    /// Instantiates the plan's task graph for `run`, writing into a
    /// fresh egress that holds back its producers at `limit`; returns
    /// the entry port and the egress.
    fn instantiate(&self, plan: &Plan, run: &Arc<Run>, limit: usize) -> (Port, Arc<Task>) {
        let egress = Task::egress(run, limit);
        let mut cx = TaskCx {
            pool: &self.pool,
            run,
            local: None,
        };
        let entry = build(&plan.root, Port::new(&egress), run, &mut cx);
        (entry, egress)
    }

    pub(crate) fn new(config: &EngineConfig) -> Scheduled {
        Scheduled {
            pool: Arc::new(Pool::new(*config)),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Ingress is bounded by [`EngineConfig::channel_capacity`]; the
    /// egress holds back its producers at the pool's high-water mark
    /// until the handle takes what it holds.
    pub(crate) fn start(&self, plan: &Plan) -> Handle {
        self.ensure_workers();
        let run = plan.new_run(plan.dead_capacity());
        let (entry, egress) = self.instantiate(plan, &run, self.pool.high_water());
        Handle {
            input: Mutex::new(Some(entry)),
            pool: Arc::clone(&self.pool),
            egress,
            window: Mutex::new(VecDeque::new()),
            run,
        }
    }

    /// The batch rides the same persistent pool as streaming runs: the
    /// whole input lands in the entry mailbox under one lock with one
    /// wake (the input is already materialized, so bounding ingress
    /// would buy nothing), the input closes, and the driver sleeps
    /// until the egress — unbounded, nobody takes from it before the
    /// end — closes; what it holds is the outputs, in arrival order.
    pub(crate) fn run_batch_report(
        &self,
        plan: &Plan,
        records: Vec<Record>,
    ) -> Result<RunReport, SnetError> {
        plan.check()?;
        self.ensure_workers();
        let run = plan.new_run(usize::MAX);
        let (entry, egress) = self.instantiate(plan, &run, usize::MAX);
        entry.send_now(records, &self.pool, None);
        entry.close(&self.pool, None, 0);
        wait_closed(&egress, &run, &self.pool);
        run.take_result()?;
        let outputs = std::mem::take(&mut egress.mailbox.lock().queue);
        Ok(RunReport {
            outputs: outputs.into(),
            dead_letters: run.take_dead_letters(),
            trace: Arc::clone(&run.trace),
        })
    }
}

impl Drop for Scheduled {
    fn drop(&mut self) {
        self.pool.shut_down();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Network {
    /// Worker threads spawned by this net over its whole lifetime.
    /// Stays at [`EngineConfig::workers`] no matter how many runs the
    /// net executes — the observable guarantee that runs reuse the
    /// persistent pool instead of spawning per call.
    pub fn workers_spawned(&self) -> usize {
        self.engine.workers.lock().len()
    }
}

/// Blocks until the run's egress has closed, or `pool` has shut down
/// and never will close it; returns whether it closed. Each wakeup
/// re-checks the deadline, so an expired run is failed (and its tasks
/// abort at their next activation) even while the driver sleeps here.
fn wait_closed(egress: &Task, run: &Run, pool: &Pool) -> bool {
    let mut mb = egress.mailbox.lock();
    loop {
        let (guard, ready) = egress.wait_outside(mb, |_| egress.closed() || pool.is_shut_down());
        if ready {
            return egress.closed();
        }
        mb = guard;
        let _ = run.should_stop();
    }
}

/// A running network instance accepting an input stream and producing
/// an output stream.
///
/// All methods take `&self`, so a producer thread can [`send`] while a
/// consumer thread [`recv`]s through a shared reference — the shape
/// [`crate::run_stream`] uses. Ingress is bounded (the entry mailbox
/// holds at most [`crate::EngineConfig::channel_capacity`] records), so
/// `send` exerts real backpressure on the producer.
/// Dropping the handle closes the input, so the end-of-stream cascade
/// tears the run down even when the user walks away without calling
/// [`finish`]; it also hangs up the egress, so undelivered records are
/// discarded rather than held back on.
///
/// A handle holds the worker pool, not the network: it stays safe to
/// use after its [`crate::SchedNet`] drops, but nothing processes its
/// records any more. A send that would wait for room, or a `try_send`
/// that would report `Full`, fails instead; `recv` ends; and
/// [`finish`] reports [`SnetError::Engine`] unless the run had
/// completed — before the drop, or carried there by [`Handle::drive`].
///
/// [`send`]: Handle::send
/// [`recv`]: Handle::recv
/// [`finish`]: Handle::finish
pub struct Handle {
    /// The entry task while the input is open; its mailbox holds at
    /// most [`EngineConfig::channel_capacity`] records.
    input: Mutex<Option<Port>>,
    pool: Arc<Pool>,
    /// The run's output mailbox, which no worker runs.
    egress: Arc<Task>,
    /// What the consumer took from the egress and has not received yet.
    window: Mutex<VecDeque<Record>>,
    pub(crate) run: Arc<Run>,
}

impl Handle {
    /// The entry task, if the input is still open. Cloned out of the
    /// `input` mutex so no caller ever blocks while holding it — a
    /// `send` stalled on ingress backpressure must not lock out
    /// `input_backlog`/`close_input` from other threads. A send racing
    /// `close_input` may consequently land after finalization, where it is
    /// dropped like any other post-teardown straggler.
    fn entry_task(&self) -> Result<Arc<Task>, SnetError> {
        let task = self.input.lock().as_ref().map(|p| Arc::clone(&p.task));
        task.ok_or_else(|| SnetError::Engine("input already closed".into()))
    }

    fn capacity(&self) -> usize {
        self.pool.config.channel_capacity.max(1)
    }

    fn failed(&self) -> SnetError {
        self.run.current_error("network failed while sending")
    }

    /// Fails the run for good: its pool shut down (the network was
    /// dropped), so nothing will process its records.
    fn abandon(&self) -> SnetError {
        self.run.fail(SnetError::Engine(
            "the worker pool shut down before the run finished".into(),
        ));
        self.failed()
    }

    /// Blocks until the entry mailbox has room or the run aborts,
    /// handing the re-acquired mailbox guard back; a full mailbox on a
    /// shut-down pool never drains, so that fails the run instead. The
    /// entry task's drains wake the wait.
    fn wait_for_space<'a>(
        &self,
        task: &'a Task,
        mut mb: parking_lot::MutexGuard<'a, Mailbox>,
    ) -> Result<parking_lot::MutexGuard<'a, Mailbox>, SnetError> {
        let cap = self.capacity();
        loop {
            // `should_stop` also trips on deadline expiry, so a sender
            // blocked on a stalled network is released with
            // `DeadlineExceeded` rather than parked forever. No ports
            // are closed here (we hold the mailbox lock; closing flushes
            // other locks) — `finish`/`cancel` kick the cascade.
            if self.run.should_stop() {
                return Err(self.failed());
            }
            let (guard, _) =
                task.wait_outside(mb, |mb| mb.queue.len() < cap || self.pool.is_shut_down());
            mb = guard;
            if mb.queue.len() < cap {
                return Ok(mb);
            }
            if self.pool.is_shut_down() {
                return Err(self.abandon());
            }
        }
    }

    /// Sends one record into the network, blocking while the bounded
    /// ingress is full (real backpressure: a slow network throttles
    /// its producer instead of buffering unboundedly). Fails once the
    /// input is closed or the run has failed.
    pub fn send(&self, rec: Record) -> Result<(), SnetError> {
        let task = self.entry_task()?;
        let mut mb = self.wait_for_space(&task, task.mailbox.lock())?;
        mb.queue.push_back(rec);
        drop(mb);
        notify(&task, &self.pool, None);
        Ok(())
    }

    /// Non-blocking send: hands the record back as
    /// [`TrySendError::Full`] instead of blocking when the bounded
    /// ingress is full.
    #[allow(clippy::result_large_err)] // Full carries the record back by design
    pub fn try_send(&self, rec: Record) -> Result<(), TrySendError> {
        let task = self.entry_task().map_err(TrySendError::Closed)?;
        if self.run.should_stop() {
            return Err(TrySendError::Closed(self.failed()));
        }
        {
            let mut mb = task.mailbox.lock();
            if mb.queue.len() >= self.capacity() {
                if self.pool.is_shut_down() {
                    return Err(TrySendError::Closed(self.abandon()));
                }
                return Err(TrySendError::Full(rec));
            }
            mb.queue.push_back(rec);
        }
        notify(&task, &self.pool, None);
        Ok(())
    }

    /// Sends a pre-materialized batch, still against the bounded
    /// ingress: the call blocks for drain space whenever the ingress
    /// is full, so resident records stay within
    /// [`crate::EngineConfig::channel_capacity`]. The entry mailbox
    /// takes them a capacity window per lock and wake.
    pub fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError> {
        let task = self.entry_task()?;
        let cap = self.capacity();
        let mut queue = records.into_iter();
        let mut next = queue.next();
        while next.is_some() {
            let mut mb = self.wait_for_space(&task, task.mailbox.lock())?;
            while next.is_some() && mb.queue.len() < cap {
                mb.queue.push_back(next.take().expect("loop guard"));
                next = queue.next();
            }
            drop(mb);
            notify(&task, &self.pool, None);
        }
        Ok(())
    }

    /// Closes the input stream (end-of-stream for the network).
    /// Idempotent.
    pub fn close_input(&self) {
        if let Some(port) = self.input.lock().take() {
            port.close(&self.pool, None, 0);
        }
    }

    /// Runs at most one unit of engine work on the calling thread
    /// (caller-runs helping); returns `true` if something was executed.
    /// A streaming driver that would otherwise block — ingress full,
    /// nothing to drain — can call this to push the pipeline forward
    /// itself instead of paying a park/wake round trip against the
    /// worker pool; on a single-CPU host this is the difference between
    /// streaming and batch-mode throughput. Work of *any* run on the
    /// same pool may be executed, exactly as a pool worker would.
    pub fn drive(&self) -> bool {
        self.pool.drive()
    }

    /// The next output from the window; an empty window first takes
    /// the egress's whole backlog and wakes the producers the egress
    /// held back. With `block`, the take first waits until there is a
    /// backlog, the egress has closed or the pool has shut down; an
    /// abort seen while waiting closes the input, so the run tears down
    /// and the egress closes.
    pub(crate) fn next_output(&self, block: bool) -> Option<Record> {
        let mut window = self.window.lock();
        if let Some(rec) = window.pop_front() {
            return Some(rec);
        }
        let egress = &*self.egress;
        let mut mb = egress.mailbox.lock();
        if block {
            loop {
                let (guard, ready) = egress.wait_outside(mb, |mb| {
                    !mb.queue.is_empty() || egress.closed() || self.pool.is_shut_down()
                });
                mb = guard;
                if ready {
                    break;
                }
                if self.run.should_stop() {
                    drop(mb);
                    self.close_input();
                    mb = egress.mailbox.lock();
                }
            }
        }
        std::mem::swap(&mut *window, &mut mb.queue);
        let woken = std::mem::take(&mut mb.waiters);
        drop(mb);
        wake(woken, &self.pool, None);
        window.pop_front()
    }

    /// Blocks until the run has terminated (its egress closed); a run
    /// whose pool shut down first is failed.
    pub(crate) fn join(&self) {
        if !wait_closed(&self.egress, &self.run, &self.pool) {
            self.abandon();
        }
    }

    /// Records currently resident in the entry mailbox (0 once the
    /// input is closed). Never exceeds
    /// [`EngineConfig::channel_capacity`] when the handle's own senders
    /// are the only producers — the observable ingress bound.
    pub fn input_backlog(&self) -> usize {
        self.entry_task()
            .map_or(0, |t| t.mailbox.lock().queue.len())
    }
}

/// Dropping the handle closes the input and hangs up the egress: what it
/// holds is discarded, it holds nobody back any more, and the producers
/// it held are woken, so the run drains to its end unread. Dead letters
/// are discarded from then on too.
impl Drop for Handle {
    fn drop(&mut self) {
        self.run.hang_up_dead_letters();
        self.close_input();
        let woken = {
            let mut mb = self.egress.mailbox.lock();
            mb.queue.clear();
            mb.limit = usize::MAX;
            std::mem::take(&mut mb.waiters)
        };
        wake(woken, &self.pool, None);
    }
}

#[cfg(test)]
mod tests {
    use crate::suite::{int_box, ints};
    use crate::{EngineConfig, SchedNet};
    use snet_core::boxdef::{BoxDef, BoxSig};
    use snet_core::{NetSpec, Record, SnetError, Value};

    crate::suite::engine_suite!(EngineConfig::default());

    #[test]
    fn deep_pipeline_with_single_worker() {
        // workers = 1 exercises the no-stealing degenerate case.
        let stages: Vec<NetSpec> = (0..8)
            .map(|_| int_box("inc", "x", "x", |x| x + 1))
            .collect();
        let net = SchedNet::with_config(
            NetSpec::pipeline(stages),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let outs = net
            .run_batch(
                (0..200)
                    .map(|i| Record::new().with_field("x", Value::Int(i)))
                    .collect(),
            )
            .unwrap();
        assert_eq!(outs.len(), 200);
        assert_eq!(ints(&outs, "x"), (8..208).collect::<Vec<_>>());
    }

    #[test]
    fn shared_plan_serves_concurrent_jobs() {
        let net = crate::suite::concurrent_jobs(EngineConfig::default());
        assert_eq!(net.workers_spawned(), EngineConfig::default().workers);
    }

    /// A box of one network streams its record through a second network
    /// and `drive()`s that one along on its own thread: a chain step
    /// nested inside a chain step. The thread's chain scratch is lent to
    /// the outer step, so the inner one must get buffers of its own.
    #[test]
    fn nested_chain_steps_on_one_thread_do_not_share_scratch() {
        use snet_core::boxdef::{BoxOutput, Work};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        thread_local! {
            /// Set while this thread is inside the outer box's body.
            static IN_OUTER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }
        let nested = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&nested);
        let inner_spec = NetSpec::pipeline([
            int_box("triple", "x", "x", |x| 3 * x),
            NetSpec::Box(BoxDef::from_fn(
                BoxSig::parse("probe", &["x"], &[&["x"]]),
                move |r| {
                    if IN_OUTER.get() {
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(BoxOutput::one(r.clone(), Work::ZERO))
                },
            )),
        ]);
        let inner = Arc::new(SchedNet::with_config(
            inner_spec,
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        ));
        let via_inner = {
            let inner = Arc::clone(&inner);
            NetSpec::Box(BoxDef::from_fn(
                BoxSig::parse("via_inner", &["x"], &[&["x"]]),
                move |r| {
                    IN_OUTER.set(true);
                    let outs = crate::run_stream_interleaved(&inner, vec![r.clone()]);
                    IN_OUTER.set(false);
                    Ok(BoxOutput::from_iter(outs?, Work::ZERO))
                },
            ))
        };
        let outer_spec = NetSpec::pipeline([
            int_box("inc", "x", "x", |x| x + 1),
            via_inner,
            int_box("dec", "x", "x", |x| x - 1),
        ]);
        let inputs = || -> Vec<Record> {
            (0..64)
                .map(|i| Record::new().with_field("x", Value::Int(i)))
                .collect()
        };
        let want = crate::Interp::new(&outer_spec).run_batch(inputs()).unwrap();
        let got = SchedNet::new(outer_spec).run_batch(inputs()).unwrap();
        assert_eq!(ints(&got, "x"), ints(&want.outputs, "x"));
        assert_eq!(
            ints(&got, "x"),
            (0..64).map(|i| 3 * (i + 1) - 1).collect::<Vec<_>>()
        );
        assert!(
            nested.load(Ordering::Relaxed) > 0,
            "no inner step ever ran inside the outer box's thread"
        );
    }

    #[test]
    fn empty_batch_terminates() {
        let net = SchedNet::new(int_box("inc", "x", "x", |x| x + 1));
        assert!(net.run_batch(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn streaming_error_propagates_to_finish() {
        let bad = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("bad", &["x"], &[&["y"]]),
            |_| Err(SnetError::Engine("deliberate".into())),
        ));
        let net = SchedNet::new(bad);
        let h = net.start();
        let _ = h.send(Record::new().with_field("x", Value::Int(1)));
        // The failure tears the run down; a cancel after it does not
        // replace the first error.
        while h.recv().is_some() {}
        h.cancel();
        let err = h.finish().unwrap_err();
        assert!(matches!(err, SnetError::BoxFailure { .. }), "{err}");
    }

    #[test]
    fn batch_and_streaming_runs_interleave_on_one_pool() {
        let net = SchedNet::new(int_box("inc", "x", "x", |x| x + 1));
        let h = net.start();
        h.send(Record::new().with_field("x", Value::Int(10)))
            .unwrap();
        // A whole batch run completes while the streaming run stays open.
        let outs = net
            .run_batch(vec![Record::new().with_field("x", Value::Int(100))])
            .unwrap();
        assert_eq!(ints(&outs, "x"), vec![101]);
        assert_eq!(h.recv().unwrap().field("x").unwrap().as_int(), Some(11));
        h.finish().unwrap();
    }
}
