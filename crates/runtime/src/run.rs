//! The per-run control block shared by every component of one run, on
//! either transport: first-error slot, abort flag, deadline,
//! dead-letter queue and event counters. (`pub` but hidden, like
//! [`crate::component`]: `snet-dist`'s simulated processes report into
//! the same block the scheduler's tasks do.)

use crate::trace::Trace;
use parking_lot::Mutex;
use snet_core::fault::DeadLetter;
use snet_core::SnetError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// Records diverted under `FailurePolicy::DeadLetter`, oldest first.
    dead: Mutex<DeadLetters>,
}

/// A run's dead letters, waiting for the batch driver's take at the
/// end or a streaming consumer's `try_recv_dead_letter`.
struct DeadLetters {
    queue: VecDeque<DeadLetter>,
    /// How many may wait: unbounded for a batch run; a stream's
    /// consumer must keep up, and a component never blocks on it, so a
    /// diversion past the limit fails the run.
    limit: usize,
    /// Cleared when the streaming handle is dropped: nobody will take
    /// the letters any more, so they are discarded.
    listening: bool,
}

impl Run {
    pub(crate) fn new(deadline_at: Option<Instant>, dead_limit: usize) -> Arc<Run> {
        Arc::new(Run {
            trace: Arc::new(Trace::new()),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
            deadline_at,
            seq: AtomicU64::new(0),
            dead: Mutex::new(DeadLetters {
                queue: VecDeque::new(),
                limit: dead_limit,
                listening: true,
            }),
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

    /// Queues a diverted record for whoever takes the run's dead
    /// letters. Never blocks; a queue at its limit (a streaming consumer
    /// not draining) is a fatal error so the bound is real.
    pub(crate) fn divert(&self, dl: DeadLetter) -> Result<(), SnetError> {
        Trace::add(&self.trace.dead_letters, 1);
        let mut dead = self.dead.lock();
        if !dead.listening {
            // The consumer stopped listening: the letter is discarded,
            // the run continues.
            return Ok(());
        }
        if dead.queue.len() >= dead.limit {
            return Err(SnetError::Engine(format!(
                "dead-letter channel overflow; last report: {}",
                dl.report
            )));
        }
        dead.queue.push_back(dl);
        Ok(())
    }

    /// The oldest dead letter waiting, if any.
    pub(crate) fn next_dead_letter(&self) -> Option<DeadLetter> {
        self.dead.lock().queue.pop_front()
    }

    /// Every dead letter waiting, oldest first.
    pub fn take_dead_letters(&self) -> Vec<DeadLetter> {
        std::mem::take(&mut self.dead.lock().queue).into()
    }

    /// Nobody will take this run's dead letters any more: what waits is
    /// dropped, and later ones are discarded.
    pub(crate) fn hang_up_dead_letters(&self) {
        let mut dead = self.dead.lock();
        dead.listening = false;
        dead.queue.clear();
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
