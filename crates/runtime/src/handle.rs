//! The streaming handle of a running network. Records enter through
//! the entry task's bounded mailbox and leave through the run's egress
//! mailbox — [`Handle`]'s methods that reach into tasks and the pool
//! live with the scheduler (`sched`). A take moves the egress's whole
//! backlog into the handle's window, which `recv` and `try_recv` hand
//! out a record at a time; dead letters wait in the run's bounded
//! queue, which `try_recv_dead_letter` pops. The window and the queue
//! each sit behind a mutex: the handle stays `Send + Sync`, one
//! consumer at a time is the supported shape, and consumers that do
//! call in concurrently take turns rather than race.

pub use crate::sched::Handle;

use crate::trace::Trace;
use snet_core::fault::DeadLetter;
use snet_core::{Record, SnetError};
use std::fmt;
use std::sync::Arc;

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
    /// cannot park the consumer past [`crate::EngineConfig::deadline`];
    /// an aborted run's records already in flight are still delivered.
    pub fn recv(&self) -> Option<Record> {
        self.next_output(true)
    }

    /// Non-blocking receive: `None` when nothing is currently queued
    /// (including after termination — use [`Handle::recv`] to
    /// distinguish end-of-stream).
    pub fn try_recv(&self) -> Option<Record> {
        self.next_output(false)
    }

    /// Non-blocking receive on the run's dead-letter stream: the next
    /// record diverted under
    /// [`snet_core::fault::FailurePolicy::DeadLetter`], or `None` when
    /// nothing is queued. Drain it while the run progresses — the
    /// stream is bounded and overflow fails the run.
    pub fn try_recv_dead_letter(&self) -> Option<DeadLetter> {
        self.run.next_dead_letter()
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
        // Drain the output so nothing upstream stays held back on the
        // egress; `recv` keeps enforcing the deadline while blocked.
        while self.recv().is_some() {}
        self.join();
        self.run.take_result()
    }
}
