//! The streaming handle of a running network. Records enter through
//! the entry task's bounded mailbox — [`Handle`]'s ingress methods live
//! with the scheduler (`sched`), whose tasks and pool they reach into —
//! and leave through an egress of two bounded [`std::sync::mpsc`]
//! channels, outputs and dead letters, which this module reads. An mpsc
//! [`Receiver`](std::sync::mpsc::Receiver) is single-consumer (`!Sync`),
//! so each sits behind a mutex: the handle stays `Send + Sync`, one
//! consumer at a time is the supported shape, and consumers that do
//! call in concurrently take turns rather than race.

pub use crate::sched::Handle;

use crate::trace::Trace;
use snet_core::fault::DeadLetter;
use snet_core::{Record, SnetError};
use std::fmt;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocked [`Handle::recv`] sleeps between checks of the
/// abort flag, the deadline and the worker pool.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

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

impl Handle {
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
    /// has terminated, or once the worker pool is gone. Checks the
    /// abort flag and run deadline while blocked, so a stalled network
    /// cannot park the consumer past [`crate::EngineConfig::deadline`].
    /// A record taken from a full output channel makes room for the
    /// sink waiting on it, whose next delivery then runs on the calling
    /// thread (as with [`Handle::try_recv`]).
    pub fn recv(&self) -> Option<Record> {
        let output = self.output.lock();
        loop {
            match output.recv_timeout(POLL_INTERVAL) {
                Ok(rec) => {
                    self.egress.took();
                    return Some(rec);
                }
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    if self.abandoned() {
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
        let rec = self.output.lock().try_recv().ok()?;
        self.egress.took();
        Some(rec)
    }

    /// Non-blocking receive on the run's dead-letter stream: the next
    /// record diverted under
    /// [`snet_core::fault::FailurePolicy::DeadLetter`], or `None` when
    /// nothing is queued. Drain it while the run progresses — the
    /// stream is bounded and overflow fails the run.
    pub fn try_recv_dead_letter(&self) -> Option<DeadLetter> {
        self.dead.lock().try_recv().ok()
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
        self.join();
        self.run.take_result()
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.close_input();
    }
}
