//! The per-run control block shared by every component of one run, on
//! either transport: first-error slot, abort flag, deadline,
//! dead-letter stream and event counters. (`pub` but hidden, like
//! [`crate::component`]: `snet-dist`'s simulated processes report into
//! the same block the scheduler's tasks do.)

use crate::trace::Trace;
use parking_lot::Mutex;
use snet_core::fault::DeadLetter;
use snet_core::SnetError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Per-run state: every component of one run's graph holds an `Arc` to
/// it, which is how a pool worker — which knows nothing about runs —
/// finds the right trace and error slot for whatever component it is
/// executing. Independent runs therefore share nothing.
pub struct Run {
    pub trace: Arc<Trace>,
    error: Mutex<Option<SnetError>>,
    /// Set by the first `fail` (including cancellation and deadline
    /// expiry); components poll it at their preemption points and stop
    /// cooperatively.
    aborted: AtomicBool,
    /// Absolute deadline for this run, fixed when the run is created
    /// from [`crate::EngineConfig::deadline`]; `None` costs a single
    /// branch per check.
    deadline_at: Option<Instant>,
    /// Dead-letter sequence-number allocator for this run.
    pub(crate) seq: AtomicU64,
    /// Where records diverted under `FailurePolicy::DeadLetter` go.
    dead: DeadDest,
}

/// Where a run's dead letters are delivered.
pub enum DeadDest {
    /// Batch mode: collected here for the driver to take at the end.
    Collect(Mutex<Vec<DeadLetter>>),
    /// Streaming mode: pushed into the handle's bounded dead-letter
    /// channel. A component never blocks on it — overflow fails the
    /// run.
    Stream(SyncSender<DeadLetter>),
}

impl Run {
    pub(crate) fn new(deadline_at: Option<Instant>, dead: DeadDest) -> Arc<Run> {
        Arc::new(Run {
            trace: Arc::new(Trace::new()),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
            deadline_at,
            seq: AtomicU64::new(0),
            dead,
        })
    }

    /// Records `e` as the run's error unless one is already recorded,
    /// and raises the abort flag.
    pub fn fail(&self, e: SnetError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.aborted.store(true, Ordering::Release);
    }

    /// Preemption check: true once the run is aborted or past its
    /// deadline (recording `DeadlineExceeded` on first detection).
    /// Without a deadline this is one atomic load and one branch.
    pub fn should_stop(&self) -> bool {
        if self.aborted.load(Ordering::Acquire) {
            return true;
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                self.fail(SnetError::DeadlineExceeded);
                return true;
            }
        }
        false
    }

    /// Delivers a diverted record to the run's dead-letter destination.
    /// Never blocks; a full streaming channel (consumer not draining)
    /// is a fatal error so the bound is real.
    pub(crate) fn divert(&self, dl: DeadLetter) -> Result<(), SnetError> {
        Trace::add(&self.trace.dead_letters, 1);
        match &self.dead {
            DeadDest::Collect(v) => {
                v.lock().push(dl);
                Ok(())
            }
            DeadDest::Stream(tx) => match tx.try_send(dl) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(dl)) => Err(SnetError::Engine(format!(
                    "dead-letter channel overflow; last report: {}",
                    dl.report
                ))),
                // Receiver dropped: the consumer stopped listening;
                // letters are discarded but the run continues.
                Err(TrySendError::Disconnected(_)) => Ok(()),
            },
        }
    }

    /// The dead letters a batch run collected (empty for streaming
    /// runs, whose letters went out through the channel).
    pub fn take_dead_letters(&self) -> Vec<DeadLetter> {
        match &self.dead {
            DeadDest::Collect(v) => std::mem::take(&mut *v.lock()),
            DeadDest::Stream(_) => Vec::new(),
        }
    }

    /// The run's outcome so far, consuming the recorded error.
    pub fn take_result(&self) -> Result<(), SnetError> {
        match self.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The recorded error, or an engine error saying `fallback`.
    pub(crate) fn current_error(&self, fallback: &str) -> SnetError {
        self.error
            .lock()
            .clone()
            .unwrap_or_else(|| SnetError::Engine(fallback.into()))
    }
}
