//! The scheduled engine: component tasks multiplexed over a fixed,
//! **persistent** work-stealing worker pool.
//!
//! A network of hundreds of component instances — a 16-deep pipeline
//! with parallel branches and star unfoldings — runs on a handful of
//! workers, not a thread each:
//!
//! * every component instance (box, filter, synchrocell, dispatcher,
//!   star tap) is a lightweight **task** with an SPSC mailbox
//!   (`task`);
//! * a task becomes **runnable** when a record lands in its mailbox (or
//!   its last upstream sender closes), and is then queued on the run
//!   queue of the worker that made it so, where idle siblings steal
//!   from (`pool`; a thread outside the pool queues on a shared one);
//! * a worker runs a task by draining its mailbox up to a batch budget
//!   through the shared component step (`crate::component`, which the
//!   simulated cluster of `snet-dist` runs too), then yields the task
//!   back to the scheduler;
//! * a task whose output mailbox is at the high-water mark stops
//!   consuming input and registers on that mailbox; the drain that
//!   takes it under the mark queues the task again — cooperative
//!   backpressure in place of blocking, woken rather than timed. The
//!   streaming sink waits the same way on a full output channel, and
//!   the handle's `recv` that makes room runs it.
//!
//! The worker pool belongs to the network, not to any single run: it is
//! spawned lazily on the first run and joined when the `SchedNet`
//! drops. Every run — a one-shot `run_batch` or a streaming `start` —
//! instantiates a fresh task graph whose tasks carry their own per-run
//! state (trace counters, error slot, completion latch), so any number
//! of runs can share the pool, even concurrently, and repeated batches
//! stop paying per-call thread spawn/join.
//!
//! The sink is always the last task of a run to finalize, so its
//! finalization doubles as the run's completion signal: it wakes the
//! waiting driver (`Latch` — no completion polling) and, in
//! streaming mode, disconnects the output channel.
//!
//! Streaming ingress is *bounded*: `send` refuses to grow the entry
//! mailbox past [`EngineConfig::channel_capacity`] and blocks (or, for
//! `try_send`, reports `Full`) until the entry task drains — real
//! backpressure on the producer.

mod pool;
mod task;

// Under `--cfg snet_check` the atomics and condvars of the mailbox
// hand-off path come from the snet-check model scheduler, which makes
// `RUSTFLAGS="--cfg snet_check" cargo check -p snet-runtime` prove the
// whole scheduler compiles against the façade (the protocol models in
// crates/check/tests mirror `pool`'s notify/park and the latch below;
// see the table in lib.rs). The snet-check Condvar's timed waits have
// stuck-state semantics, matching how this module uses timeouts: pure
// lost-wakeup backstops, never deadlines.
mod sync {
    #[cfg(snet_check)]
    pub(super) use snet_check::sync::{
        atomic::{AtomicBool, AtomicUsize},
        Condvar,
    };
    #[cfg(not(snet_check))]
    pub(super) use std::sync::{
        atomic::{AtomicBool, AtomicUsize},
        Condvar,
    };
}

use crate::component::build;
use crate::config::{EngineConfig, Plan};
use crate::handle::TrySendError;
use crate::run::{DeadDest, Run};
use crate::{Network, RunReport};
use parking_lot::Mutex;
use pool::{notify, run_here, Pool};
use snet_core::fault::DeadLetter;
use snet_core::{Record, SnetError};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use sync::AtomicBool;
use task::{Mailbox, Port, SinkDest, State, Task, TaskCx};

/// Safety net on the driver's completion wait. Completion is
/// wake-driven (the sink's finalization signals the run's latch); the
/// timeout only bounds how long a lost wakeup could strand the driver.
const DONE_SAFETY_TIMEOUT: Duration = Duration::from_millis(500);

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

    /// Instantiates the plan's task graph for `run`, draining into a
    /// fresh sink that delivers to `dest`; returns the entry port, the
    /// sink and the run's completion latch.
    fn instantiate(
        &self,
        plan: &Plan,
        run: &Arc<Run>,
        dest: SinkDest,
    ) -> (Port, Arc<Task>, Arc<Latch>) {
        let latch = Arc::new(Latch {
            done: Mutex::new(false),
            cv: sync::Condvar::new(),
        });
        let sink = Task::new(
            State::Sink {
                buf: snet_core::pool::take_vec(),
                dest,
                latch: Arc::clone(&latch),
            },
            run,
        );
        let mut cx = TaskCx {
            pool: &self.pool,
            run,
            local: None,
        };
        let entry = build(&plan.root, Port::new(&sink), run, &mut cx);
        (entry, sink, latch)
    }

    pub(crate) fn new(config: &EngineConfig) -> Scheduled {
        Scheduled {
            pool: Arc::new(Pool::new(*config)),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Ingress is bounded by [`EngineConfig::channel_capacity`];
    /// outputs stream out through a bounded channel as the sink
    /// produces them.
    pub(crate) fn start(&self, plan: &Plan) -> Handle {
        self.ensure_workers();
        let (dead_tx, dead_rx) = sync_channel(plan.dead_capacity());
        let run = plan.new_run(DeadDest::Stream(dead_tx));
        let (tx, out_rx) = sync_channel(plan.config.channel_capacity.max(1));
        let full = Arc::new(AtomicBool::new(false));
        let dest = SinkDest::Stream {
            tx,
            full: Arc::clone(&full),
        };
        let (entry, sink, latch) = self.instantiate(plan, &run, dest);
        Handle {
            input: Mutex::new(Some(entry)),
            pool: Arc::clone(&self.pool),
            latch,
            output: Mutex::new(out_rx),
            dead: Mutex::new(dead_rx),
            run,
            egress: Egress {
                full,
                sink,
                pool: Arc::clone(&self.pool),
            },
        }
    }

    /// The batch rides the same persistent pool as streaming runs: the
    /// whole input lands in the entry mailbox under one lock with one
    /// wake (the input is already materialized, so bounding ingress
    /// would buy nothing), the input closes, and the driver sleeps
    /// until the sink's finalization signals completion.
    pub(crate) fn run_batch_report(
        &self,
        plan: &Plan,
        records: Vec<Record>,
    ) -> Result<RunReport, SnetError> {
        plan.check()?;
        self.ensure_workers();
        let run = plan.new_run(DeadDest::Collect(Mutex::new(Vec::new())));
        let outputs = Arc::new(Mutex::new(Vec::new()));
        let (entry, _, latch) =
            self.instantiate(plan, &run, SinkDest::Collect(Arc::clone(&outputs)));
        entry.send_now(records, &self.pool, None);
        entry.close(&self.pool, None, 0);
        latch.wait(&run, &self.pool);
        run.take_result()?;
        let outputs = std::mem::take(&mut *outputs.lock());
        Ok(RunReport {
            outputs,
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

/// A run's completion latch, set by the sink's finalization (the sink
/// is always the last task of a run to finalize — its senders only
/// reach zero after every upstream task has closed its ports). The
/// protocol `crates/check/tests/sink_latch.rs` model-checks.
pub(crate) struct Latch {
    done: Mutex<bool>,
    cv: sync::Condvar,
}

impl Latch {
    fn signal(&self) {
        *self.done.lock() = true;
        self.cv.notify_all();
    }

    /// Blocks until the run's sink has finalized, or `pool` has shut
    /// down and never will; returns whether the sink finalized. Purely
    /// wake-driven; the timeout is a lost-wakeup safety net, not a poll
    /// interval. Each wakeup re-checks the deadline so an expired run is
    /// failed (and its tasks abort at their next activation) even while
    /// the driver sleeps here.
    fn wait(&self, run: &Run, pool: &Pool) -> bool {
        let mut done = self.done.lock();
        while !*done && !pool.is_shut_down() {
            let (guard, _) = self
                .cv
                .wait_timeout(done, DONE_SAFETY_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
            done = guard;
            if !*done {
                let _ = run.should_stop();
            }
        }
        *done
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
/// [`finish`]; the receiver drop disconnects the output channel, so
/// undelivered records are discarded rather than blocked on.
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
    latch: Arc<Latch>,
    pub(crate) output: Mutex<Receiver<Record>>,
    pub(crate) dead: Mutex<Receiver<DeadLetter>>,
    pub(crate) run: Arc<Run>,
    /// Declared after `output`, so it drops after the receiver.
    pub(crate) egress: Egress,
}

/// The handle's end of the streaming sink's wake: the flag the sink
/// raises when the output channel refuses a record, and the sink to
/// queue once a record has left the channel. Dropping it, after the
/// receiver, wakes a waiting sink one last time: it finds the channel
/// disconnected, drops what it holds and goes on to finalize.
pub(crate) struct Egress {
    full: Arc<AtomicBool>,
    sink: Arc<Task>,
    pool: Arc<Pool>,
}

impl Egress {
    /// The consumer took a record: if the sink is waiting on the full
    /// channel, run it. The sink raises the flag before its last try
    /// (`SinkDest::flush`), so a take after that try fails reads it.
    /// The consumer runs the activation itself: queued from outside the
    /// pool, the sink would wait on the shared queue until a worker's
    /// own queue ran dry, while its upstream filled the sink's mailbox
    /// to the high-water mark (`chain_stream`'s peak RSS read 1.17x
    /// that way, ten 20 s benchmark pairs on a 2-vCPU host).
    pub(crate) fn took(&self) {
        if self.full.load(Ordering::SeqCst) && self.full.swap(false, Ordering::SeqCst) {
            run_here(&self.sink, &self.pool);
        }
    }
}

impl Drop for Egress {
    fn drop(&mut self) {
        self.took();
    }
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
    /// timed wait is a lost-wakeup safety net; the entry task signals
    /// `ingress_cv` whenever it drains the mailbox.
    fn wait_for_space<'a>(
        &self,
        task: &'a Task,
        mut mb: parking_lot::MutexGuard<'a, Mailbox>,
    ) -> Result<parking_lot::MutexGuard<'a, Mailbox>, SnetError> {
        loop {
            // `should_stop` also trips on deadline expiry, so a sender
            // blocked on a stalled network is released with
            // `DeadlineExceeded` rather than parked forever. No ports
            // are closed here (we hold the mailbox lock; closing flushes
            // other locks) — `finish`/`cancel` kick the cascade.
            if self.run.should_stop() {
                return Err(self.failed());
            }
            if mb.queue.len() < self.capacity() {
                return Ok(mb);
            }
            if self.pool.is_shut_down() {
                return Err(self.abandon());
            }
            task.ingress_waiters.fetch_add(1, Ordering::AcqRel);
            let (guard, _) = task
                .ingress_cv
                .wait_timeout(mb, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            task.ingress_waiters.fetch_sub(1, Ordering::AcqRel);
            mb = guard;
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

    /// A dropped pool (`SchedNet` gone) can no longer run the sink;
    /// don't block forever on it.
    pub(crate) fn abandoned(&self) -> bool {
        self.pool.is_shut_down()
    }

    /// Blocks until the run has terminated (the sink finalized); a run
    /// whose pool shut down first is failed.
    pub(crate) fn join(&self) {
        if !self.latch.wait(&self.run, &self.pool) {
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
