//! The streaming handle of a running network: one [`Handle`] whose
//! egress half is the same on every engine, over an engine-specific
//! [`Ingress`].
//!
//! The egress is two bounded [`std::sync::mpsc`] channels, outputs and
//! dead letters. An mpsc [`Receiver`] is single-consumer (`!Sync`), so
//! each sits behind a mutex: the handle stays `Send + Sync`, one
//! consumer at a time is the supported shape, and consumers that do
//! call in concurrently take turns rather than race.

use crate::run::Run;
use crate::trace::Trace;
use parking_lot::Mutex;
use snet_core::fault::DeadLetter;
use snet_core::{Record, SnetError};
use std::fmt;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Error returned by [`Handle::try_send`].
#[derive(Debug)]
pub enum TrySendError {
    /// The ingress is at [`crate::EngineConfig::channel_capacity`]; the
    /// record is handed back untouched.
    Full(Record),
    /// The run can no longer accept input (input closed or the run
    /// failed); the cause is attached.
    Closed(SnetError),
}

impl fmt::Display for TrySendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "ingress full; record handed back"),
            TrySendError::Closed(e) => write!(f, "ingress closed: {e}"),
        }
    }
}

impl std::error::Error for TrySendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrySendError::Full(_) => None,
            TrySendError::Closed(e) => Some(e),
        }
    }
}

/// The engine-specific half of a [`Handle`]: how records enter the run
/// and how its termination is awaited. Implemented by the threaded
/// engine over its bounded entry channel and by the scheduled engine
/// over its entry mailbox; use it through the [`Handle`] methods of the
/// same names.
pub trait Ingress: Send + Sync {
    /// How long a blocked [`Handle::recv`] sleeps between checks of the
    /// abort flag and deadline.
    const POLL_INTERVAL: Duration;

    /// See [`Handle::send`].
    fn send(&self, rec: Record) -> Result<(), SnetError>;

    /// See [`Handle::try_send`].
    #[allow(clippy::result_large_err)] // Full carries the record back by design
    fn try_send(&self, rec: Record) -> Result<(), TrySendError>;

    /// See [`Handle::send_all`].
    fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError>;

    /// See [`Handle::close_input`].
    fn close(&self);

    /// See [`Handle::drive`]. An engine without a task queue has
    /// nothing to help with.
    fn drive(&self) -> bool {
        false
    }

    /// Whether whatever executes the run is gone for good, so that
    /// waiting for more output is pointless.
    fn abandoned(&self) -> bool {
        false
    }

    /// Blocks until every component of the run has terminated. Called
    /// with the input closed and the output drained.
    fn join(&self);
}

/// A running network instance accepting an input stream and producing
/// an output stream, independent of which engine executes it.
///
/// All methods take `&self`, so a producer thread can [`send`] while a
/// consumer thread [`recv`]s through a shared reference — the shape
/// [`crate::run_stream`] uses. Ingress is bounded on both engines (the
/// threaded engine's entry channel, the scheduled engine's entry
/// mailbox cap), so `send` exerts real backpressure on the producer.
/// Dropping the handle closes the input, so the end-of-stream cascade
/// tears the run down even when the user walks away without calling
/// [`finish`]; the receiver drop disconnects the output channel, so
/// undelivered records are discarded rather than blocked on.
///
/// [`send`]: Handle::send
/// [`recv`]: Handle::recv
/// [`finish`]: Handle::finish
pub struct Handle<I: Ingress> {
    pub(crate) ingress: I,
    pub(crate) output: Mutex<Receiver<Record>>,
    pub(crate) dead: Mutex<Receiver<DeadLetter>>,
    pub(crate) run: Arc<Run>,
}

impl<I: Ingress> Handle<I> {
    /// Sends one record into the network, blocking while the bounded
    /// ingress is full (real backpressure: a slow network throttles
    /// its producer instead of buffering unboundedly). Fails once the
    /// input is closed or the run has failed.
    pub fn send(&self, rec: Record) -> Result<(), SnetError> {
        self.ingress.send(rec)
    }

    /// Non-blocking send: hands the record back as
    /// [`TrySendError::Full`] instead of blocking when the bounded
    /// ingress is full.
    #[allow(clippy::result_large_err)] // Full carries the record back by design
    pub fn try_send(&self, rec: Record) -> Result<(), TrySendError> {
        self.ingress.try_send(rec)
    }

    /// Sends a pre-materialized batch, still against the bounded
    /// ingress: the call blocks for drain space whenever the ingress
    /// is full, so resident records stay within
    /// [`crate::EngineConfig::channel_capacity`]. (The scheduled
    /// engine's mailbox takes them a capacity window per lock and
    /// wake; the threaded engine's channel takes them one by one.)
    pub fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError> {
        self.ingress.send_all(records)
    }

    /// Closes the input stream (end-of-stream for the network).
    /// Idempotent.
    pub fn close_input(&self) {
        self.ingress.close();
    }

    /// Runs at most one unit of engine work on the calling thread, if
    /// the engine supports caller-runs helping (the scheduled engine
    /// does; the threaded engine has no task queue and returns
    /// `false`). Returns `true` if something was executed. A streaming
    /// driver that would otherwise block — ingress full, nothing to
    /// drain — can call this to push the pipeline forward itself
    /// instead of paying a park/wake round trip against the worker
    /// pool; on a single-CPU host this is the difference between
    /// streaming and batch-mode throughput. Work of *any* run on the
    /// same pool may be executed, exactly as a pool worker would.
    pub fn drive(&self) -> bool {
        self.ingress.drive()
    }

    /// Requests cooperative cancellation: the run fails with
    /// [`SnetError::Cancelled`] (reported by [`Handle::finish`]), the
    /// abort flag every component checks at its preemption points is
    /// raised, and the input closes so the end-of-stream cascade
    /// reaches every component. Outputs already produced remain
    /// drainable via [`Handle::recv`]. Idempotent; a no-op if the run
    /// already failed or finished.
    pub fn cancel(&self) {
        self.run.fail(SnetError::Cancelled);
        self.close_input();
    }

    /// Receives the next output record; `None` once the output stream
    /// has terminated. Checks the abort flag and run deadline while
    /// blocked, so a stalled network cannot park the consumer past
    /// [`crate::EngineConfig::deadline`].
    pub fn recv(&self) -> Option<Record> {
        let output = self.output.lock();
        loop {
            match output.recv_timeout(I::POLL_INTERVAL) {
                Ok(rec) => return Some(rec),
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    if self.ingress.abandoned() {
                        return None;
                    }
                    if self.run.should_stop() {
                        // Aborted (cancel / failure / deadline): close
                        // the input so the cascade tears the run down,
                        // then keep draining what is already in flight
                        // until the channel disconnects.
                        self.close_input();
                    }
                }
            }
        }
    }

    /// Non-blocking receive: `None` when nothing is currently queued
    /// (including after termination — use [`Handle::recv`] to
    /// distinguish end-of-stream).
    pub fn try_recv(&self) -> Option<Record> {
        self.output.lock().try_recv().ok()
    }

    /// Non-blocking receive on the run's dead-letter stream: the next
    /// record diverted under
    /// [`snet_core::fault::FailurePolicy::DeadLetter`], or `None` when
    /// nothing is queued. Drain it while the run progresses — the
    /// stream is bounded and overflow fails the run.
    pub fn try_recv_dead_letter(&self) -> Option<DeadLetter> {
        self.dead.lock().try_recv().ok()
    }

    /// The scoped feed-and-drain loop under [`crate::run_stream`] and the
    /// threaded engine's batch driver: a helper thread pushes `records`
    /// against the bounded ingress and closes the input while the
    /// calling thread drains the output to end-of-stream, so bounded
    /// channels cannot deadlock against the draining loop. Dead letters
    /// are drained at the same cadence, so the bounded dead-letter
    /// stream never overflows while this driver is in charge. A send
    /// error means the run tore down early; `finish` reports why.
    pub(crate) fn feed_and_drain(&self, records: Vec<Record>) -> (Vec<Record>, Vec<DeadLetter>) {
        let mut outputs = Vec::new();
        let mut dead_letters = Vec::new();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = self.send_all(records);
                self.close_input();
            });
            loop {
                let out = self.recv();
                dead_letters.extend(std::iter::from_fn(|| self.try_recv_dead_letter()));
                match out {
                    Some(rec) => outputs.push(rec),
                    None => break,
                }
            }
        });
        (outputs, dead_letters)
    }

    /// Shared event counters of this run.
    pub fn trace(&self) -> &Trace {
        &self.run.trace
    }

    /// Clonable handle to the run's counters.
    pub fn trace_arc(&self) -> Arc<Trace> {
        Arc::clone(&self.run.trace)
    }

    /// Closes the input, drains any remaining output, waits for the
    /// run to terminate, and reports the first error raised during the
    /// run, if any.
    pub fn finish(self) -> Result<(), SnetError> {
        self.close_input();
        // Drain the output so nothing upstream can block on a full
        // channel; `recv` keeps enforcing the deadline while blocked.
        while self.recv().is_some() {}
        self.ingress.join();
        self.run.take_result()
    }
}

impl<I: Ingress> Drop for Handle<I> {
    fn drop(&mut self) {
        self.close_input();
    }
}
