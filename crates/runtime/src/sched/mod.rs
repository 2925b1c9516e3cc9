//! The scheduled engine: component tasks multiplexed over a fixed,
//! **persistent** work-stealing worker pool.
//!
//! The threaded engine ([`crate::engine`]) renders the paper's
//! execution model literally: one OS thread per component instance.
//! That is faithful but does not scale — a 16-deep pipeline with
//! parallel branches and star unfoldings spawns hundreds of threads for
//! a 256-record batch, and most of them sit blocked on channel edges.
//! This module multiplexes the same component graph over a fixed pool
//! of workers instead:
//!
//! * every component instance (box, filter, synchrocell, dispatcher,
//!   star tap) is a lightweight **task** with an SPSC mailbox
//!   (`task`);
//! * a task becomes **runnable** when a record lands in its mailbox (or
//!   its last upstream sender closes), and is then queued on the run
//!   queue of the worker that made it so, where idle siblings steal
//!   from (`pool`; a thread outside the pool queues on a shared one);
//! * a worker runs a task by draining its mailbox up to a batch budget
//!   through the *same* component step (`crate::component`) as the
//!   threaded engine, then yields the task back to the scheduler;
//! * a task whose output mailbox is over the high-water mark stops
//!   consuming input and re-queues itself — cooperative backpressure in
//!   place of bounded-channel blocking.
//!
//! The worker pool belongs to the engine, not to any single run: it is
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
//! `try_send`, reports `Full`) until the entry task drains, giving the
//! same real backpressure as the threaded engine's bounded entry
//! channel.

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
        atomic::{AtomicBool, AtomicU32, AtomicUsize},
        Condvar,
    };
    #[cfg(not(snet_check))]
    pub(super) use std::sync::{
        atomic::{AtomicBool, AtomicU32, AtomicUsize},
        Condvar,
    };
}

use crate::component::build;
use crate::config::{EngineConfig, Plan};
use crate::handle::{Handle, Ingress, TrySendError};
use crate::run::{DeadDest, Run};
use crate::{Engine, Network, RunReport};
use parking_lot::Mutex;
use pool::{notify, Pool};
use snet_core::{Record, SnetError};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use task::{Port, SinkDest, State, Task, TaskCx};

/// Safety net on the driver's completion wait. Completion is
/// wake-driven (the sink's finalization signals the run's latch); the
/// timeout only bounds how long a lost wakeup could strand the driver.
const DONE_SAFETY_TIMEOUT: Duration = Duration::from_millis(500);

/// The scheduled engine (see [`crate::SchedNet`]): owner of the
/// persistent worker pool.
///
/// Dropping it stops the pool and joins its threads. Outstanding
/// [`crate::SchedHandle`]s stay safe to use after that — sends fail and
/// `recv` drains whatever was already produced — but no new records
/// will be processed, so finish or drop handles first.
pub struct Scheduled {
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
    /// fresh sink that delivers to `dest`; returns the entry port and
    /// the run's completion latch.
    fn instantiate(&self, plan: &Plan, run: &Arc<Run>, dest: SinkDest) -> (Port, Arc<Latch>) {
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
        (build(&plan.root, Port::new(&sink), run, &mut cx), latch)
    }
}

impl Engine for Scheduled {
    type Ingress = MailboxIngress;
    const NAME: &'static str = "sched";

    fn new(config: &EngineConfig) -> Scheduled {
        Scheduled {
            pool: Arc::new(Pool::new(*config)),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Ingress is bounded by [`EngineConfig::channel_capacity`];
    /// outputs stream out through a bounded channel as the sink
    /// produces them.
    fn start(&self, plan: &Plan) -> Handle<MailboxIngress> {
        self.ensure_workers();
        let (dead_tx, dead_rx) = sync_channel(plan.dead_capacity());
        let run = plan.new_run(DeadDest::Stream(dead_tx));
        let (out_tx, out_rx) = sync_channel(plan.config.channel_capacity.max(1));
        let (entry, latch) = self.instantiate(plan, &run, SinkDest::Stream(out_tx));
        Handle {
            ingress: MailboxIngress {
                input: Mutex::new(Some(entry)),
                run: Arc::clone(&run),
                pool: Arc::clone(&self.pool),
                latch,
            },
            output: Mutex::new(out_rx),
            dead: Mutex::new(dead_rx),
            run,
        }
    }

    /// The batch rides the same persistent pool as streaming runs: the
    /// whole input lands in the entry mailbox under one lock with one
    /// wake (the input is already materialized, so bounding ingress
    /// would buy nothing), the input closes, and the driver sleeps
    /// until the sink's finalization signals completion.
    fn run_batch_report(&self, plan: &Plan, records: Vec<Record>) -> Result<RunReport, SnetError> {
        plan.check()?;
        self.ensure_workers();
        let run = plan.new_run(DeadDest::Collect(Mutex::new(Vec::new())));
        let outputs = Arc::new(Mutex::new(Vec::new()));
        let (entry, latch) = self.instantiate(plan, &run, SinkDest::Collect(Arc::clone(&outputs)));
        entry.send_now(records, &self.pool, None);
        entry.close(&self.pool, None, 0);
        latch.wait(&run);
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

impl Network<Scheduled> {
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

    /// Blocks until the run's sink has finalized. Purely wake-driven;
    /// the timeout is a lost-wakeup safety net, not a poll interval.
    /// Each wakeup re-checks the deadline so an expired run is failed
    /// (and its tasks abort at their next activation) even while the
    /// driver sleeps here.
    fn wait(&self, run: &Run) {
        let mut done = self.done.lock();
        while !*done {
            let (guard, _) = self
                .cv
                .wait_timeout(done, DONE_SAFETY_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
            done = guard;
            if !*done {
                let _ = run.should_stop();
            }
        }
    }
}

/// The scheduled engine's ingress: the entry task's mailbox, capped at
/// [`EngineConfig::channel_capacity`] resident records.
pub struct MailboxIngress {
    input: Mutex<Option<Port>>,
    run: Arc<Run>,
    pool: Arc<Pool>,
    latch: Arc<Latch>,
}

impl MailboxIngress {
    /// The entry task, if the input is still open. Cloned out of the
    /// `input` mutex so no caller ever blocks while holding it — a
    /// `send` stalled on ingress backpressure must not lock out
    /// `input_backlog`/`close` from other threads. A send racing
    /// `close` may consequently land after finalization, where it is
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

    /// Blocks until the entry mailbox has room or the run aborts,
    /// handing the re-acquired mailbox guard back. The timed wait is a
    /// lost-wakeup safety net; the entry task signals `ingress_cv`
    /// whenever it drains the mailbox.
    fn wait_for_space<'a>(
        &self,
        task: &'a Task,
        mut mb: parking_lot::MutexGuard<'a, VecDeque<Record>>,
    ) -> Result<parking_lot::MutexGuard<'a, VecDeque<Record>>, SnetError> {
        loop {
            // `should_stop` also trips on deadline expiry, so a sender
            // blocked on a stalled network is released with
            // `DeadlineExceeded` rather than parked forever. No ports
            // are closed here (we hold the mailbox lock; closing flushes
            // other locks) — `finish`/`cancel` kick the cascade.
            if self.run.should_stop() {
                return Err(self.failed());
            }
            if mb.len() < self.capacity() {
                return Ok(mb);
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
}

impl Ingress for MailboxIngress {
    const POLL_INTERVAL: Duration = Duration::from_millis(100);

    fn send(&self, rec: Record) -> Result<(), SnetError> {
        let task = self.entry_task()?;
        let mut mb = self.wait_for_space(&task, task.mailbox.lock())?;
        mb.push_back(rec);
        drop(mb);
        notify(&task, &self.pool, None);
        Ok(())
    }

    fn try_send(&self, rec: Record) -> Result<(), TrySendError> {
        let task = self.entry_task().map_err(TrySendError::Closed)?;
        if self.run.is_aborted() {
            return Err(TrySendError::Closed(self.failed()));
        }
        {
            let mut mb = task.mailbox.lock();
            if mb.len() >= self.capacity() {
                return Err(TrySendError::Full(rec));
            }
            mb.push_back(rec);
        }
        notify(&task, &self.pool, None);
        Ok(())
    }

    /// Records land in the entry mailbox in capacity-sized windows —
    /// one mailbox lock and one wake per window instead of per record.
    fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError> {
        let task = self.entry_task()?;
        let cap = self.capacity();
        let mut queue = records.into_iter();
        let mut next = queue.next();
        while next.is_some() {
            let mut mb = self.wait_for_space(&task, task.mailbox.lock())?;
            while next.is_some() && mb.len() < cap {
                mb.push_back(next.take().expect("loop guard"));
                next = queue.next();
            }
            drop(mb);
            notify(&task, &self.pool, None);
        }
        Ok(())
    }

    fn close(&self) {
        if let Some(port) = self.input.lock().take() {
            port.close(&self.pool, None, 0);
        }
    }

    fn drive(&self) -> bool {
        self.pool.drive()
    }

    /// A dropped pool (`SchedNet` gone) can no longer run the sink;
    /// don't block forever on it.
    fn abandoned(&self) -> bool {
        self.pool.is_shut_down()
    }

    fn join(&self) {
        if !self.pool.is_shut_down() {
            self.latch.wait(&self.run);
        }
    }
}

impl Handle<MailboxIngress> {
    /// Records currently resident in the entry mailbox (0 once the
    /// input is closed). Never exceeds
    /// [`EngineConfig::channel_capacity`] when the handle's own senders
    /// are the only producers — the observable ingress bound.
    pub fn input_backlog(&self) -> usize {
        self.ingress
            .entry_task()
            .map_or(0, |t| t.mailbox.lock().len())
    }
}

#[cfg(test)]
mod tests {
    use crate::suite::{int_box, ints};
    use crate::{EngineConfig, SchedNet};
    use snet_core::boxdef::{BoxDef, BoxSig};
    use snet_core::{NetSpec, Record, SnetError, Value};

    crate::suite::engine_suite!(crate::sched::Scheduled);

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
        let net = crate::suite::concurrent_jobs::<crate::sched::Scheduled>();
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
