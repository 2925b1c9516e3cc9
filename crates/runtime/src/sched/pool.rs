//! The worker pool: the global injector, per-worker deques, the
//! `notify`/`park` wake protocol and the backpressure deferral heap.
//!
//! The wake protocol is the one `crates/check/tests/mailbox.rs` model-
//! checks (lock-then-notify, the sleeper gate, the injector re-probe;
//! `timeouts_fired() == 0` pins that the timed waits are backstops and
//! never carry the protocol).

use super::sync::{AtomicBool, AtomicUsize, Condvar};
use super::task::{execute, Task};
use crate::config::EngineConfig;
use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool-lifetime scheduler state, shared by all runs of one `SchedNet`.
pub(super) struct Pool {
    injector: Injector<Arc<Task>>,
    /// Backpressure-deferred tasks (min-heap on deadline), shared so
    /// that *any* worker picks an expired deferral up — a deferring
    /// worker that then sinks into a long activation must not pin the
    /// deferred task. Survives across runs: a deferral parked at the
    /// end of one run is resumed by whichever worker probes next.
    /// Guarded by `deferred_count` so the lock is only touched under
    /// backpressure (cold path).
    deferred: Mutex<BinaryHeap<Deferred>>,
    /// Entries in `deferred`; lets the per-activation dispatch path skip
    /// the heap mutex entirely in the common no-backpressure case.
    deferred_count: AtomicUsize,
    sleep: Mutex<()>,
    cv: Condvar,
    /// Workers currently parked on the condvar (lets producers skip the
    /// notify syscall on the hot path when everyone is busy).
    sleepers: AtomicUsize,
    /// Pool teardown flag, set once when the owning `SchedNet` drops.
    shutdown: AtomicBool,
    pub(super) config: EngineConfig,
}

impl Pool {
    pub(super) fn new(config: EngineConfig) -> Pool {
        Pool {
            injector: Injector::new(),
            deferred: Mutex::new(BinaryHeap::new()),
            deferred_count: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            config,
        }
    }

    /// Mailbox backlog past which a producing task stops consuming.
    pub(super) fn high_water(&self) -> usize {
        self.config.channel_capacity.max(1).saturating_mul(16)
    }

    pub(super) fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Tells every worker to exit and wakes the parked ones.
    pub(super) fn shut_down(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Lock-then-notify: a worker that saw `shutdown == false` is
        // either still holding the sleep lock (we wait for it to start
        // waiting) or already parked — both observe the notify.
        drop(self.sleep.lock());
        self.cv.notify_all();
    }

    /// Spawns the pool's worker threads.
    pub(super) fn spawn_workers(self: &Arc<Pool>) -> Vec<std::thread::JoinHandle<()>> {
        let n = self.config.workers.max(1);
        let locals: Vec<Worker<Arc<Task>>> = (0..n).map(|_| Worker::new_fifo()).collect();
        let stealers: Arc<Vec<Stealer<Arc<Task>>>> =
            Arc::new(locals.iter().map(|w| w.stealer()).collect());
        locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let pool = Arc::clone(self);
                let stealers = Arc::clone(&stealers);
                std::thread::Builder::new()
                    .name(format!("snet-sched-{i}"))
                    .spawn(move || worker_loop(i, local, &stealers, &pool))
                    .expect("spawn sched worker")
            })
            .collect()
    }

    /// Runs at most one ready task on the *calling* thread (caller-runs
    /// work helping, à la Rayon): pops from the pool's global queues
    /// and executes the activation in place. Returns `true` if a task
    /// was executed; `false` also when the popped task was
    /// mid-activation on another thread — it is handed back and the
    /// caller should yield to the thread actually running it.
    pub(super) fn drive(&self) -> bool {
        pop_global(self).is_some_and(|task| activate(&task, self, None))
    }
}

/// Queues a task if it is not already queued.
pub(super) fn notify(task: &Arc<Task>, sh: &Pool, local: Option<&Worker<Arc<Task>>>) {
    if task
        .scheduled
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        match local {
            Some(w) => w.push(Arc::clone(task)),
            None => sh.injector.push(Arc::clone(task)),
        }
        // Skipping the syscall when every worker is busy is a large win
        // on the hot path. The push above is SeqCst-ordered against a
        // parking worker's sleeper registration (see `park`), so a
        // registered sleeper is always observed here.
        //
        // Lock-then-notify (as in `Pool::shut_down`): a parking
        // worker holds the sleep lock from sleeper registration until
        // its condvar wait releases it, so acquiring it here squeezes
        // out the window where the push lands after the worker's
        // injector re-probe but the notify fires before the worker is
        // actually waiting — a lost wake that previously cost the 1ms
        // timed-wait backstop in latency. Found by the snet-check
        // mailbox model (`crates/check/tests/mailbox.rs`, which pins
        // `timeouts_fired() == 0`); only taken when a worker is
        // actually asleep, so the busy hot path is unchanged.
        if sh.sleepers.load(Ordering::SeqCst) > 0 {
            drop(sh.sleep.lock());
            sh.cv.notify_one();
        }
    }
}

/// A backpressure-deferred task: re-run no earlier than `due`.
/// Ordered as a min-heap on the deadline.
struct Deferred {
    due: Instant,
    task: Arc<Task>,
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        other.due.cmp(&self.due)
    }
}

/// Runs one activation of `task` on the calling thread. A task can be
/// re-queued while its previous activation is still draining on another
/// thread; blocking on the state mutex would idle this thread behind up
/// to a full activation budget of box calls, so a locked task is handed
/// back to the global queue instead and `false` is returned.
fn activate(task: &Arc<Task>, sh: &Pool, local: Option<&Worker<Arc<Task>>>) -> bool {
    let guard = task.state.try_lock();
    match guard {
        Some(state) => {
            if let Some(due) = execute(task, state, sh, local) {
                // Zero-progress backpressure yield: the task holds its
                // `scheduled` flag and re-runs at the deadline. Count
                // first (release): a probe that sees the count also
                // sees the entry once it takes the heap lock.
                sh.deferred_count.fetch_add(1, Ordering::Release);
                sh.deferred.lock().push(Deferred {
                    due,
                    task: Arc::clone(task),
                });
            }
            true
        }
        None => {
            sh.injector.push(Arc::clone(task));
            false
        }
    }
}

fn worker_loop(index: usize, local: Worker<Arc<Task>>, stealers: &[Stealer<Arc<Task>>], sh: &Pool) {
    // The task we last failed to lock (its activation was still running
    // on another worker). Seeing it twice in a row means there is no
    // other work — park briefly instead of spinning on the mutex.
    let mut contended: Option<*const Task> = None;
    // The sibling we last stole from successfully; probed first on the
    // next steal (producers are bursty, so the victim that had work a
    // moment ago likely still does).
    let mut last_victim: Option<usize> = None;
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        let task = find_task(index, &local, stealers, &mut last_victim, sh);
        match task {
            Some(task) => {
                if activate(&task, sh, Some(&local)) {
                    contended = None;
                } else {
                    let ptr = Arc::as_ptr(&task);
                    if contended.replace(ptr) == Some(ptr) && park(sh, Duration::from_millis(1)) {
                        return;
                    }
                }
            }
            None => {
                contended = None;
                // Park until notified, but no longer than the earliest
                // deferred deadline (nor the 1ms re-probe quantum).
                let quantum = Duration::from_millis(1);
                let timeout = if sh.deferred_count.load(Ordering::Acquire) > 0 {
                    sh.deferred
                        .lock()
                        .peek()
                        .map(|d| d.due.saturating_duration_since(Instant::now()).min(quantum))
                        .unwrap_or(quantum)
                } else {
                    quantum
                };
                if park(sh, timeout) {
                    return;
                }
            }
        }
    }
}

/// Parks the worker until new work may exist; returns true on shutdown.
fn park(sh: &Pool, timeout: Duration) -> bool {
    let sleep = sh.sleep.lock();
    if sh.shutdown.load(Ordering::Acquire) {
        return true;
    }
    sh.sleepers.fetch_add(1, Ordering::SeqCst);
    // Closing the probe/park race: a producer that pushed after our
    // (empty) queue probe may have read `sleepers == 0` before the
    // increment above and skipped its notify. Re-probing the injector
    // *after* registering as a sleeper bounds that loss to the
    // injector-push window; the timed wait below backstops the
    // remaining (local-deque) cases. Deferrals are deliberately NOT
    // re-probed: they are deadline-driven, the caller's `timeout`
    // already expires at the earliest deadline, and bailing out on a
    // merely-pending (not yet due) deferral would turn every idle
    // worker into a busy-spinner for the whole backpressure window.
    if !sh.injector.is_empty() {
        sh.sleepers.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    let _ = sh
        .cv
        .wait_timeout(sleep, timeout)
        .unwrap_or_else(|e| e.into_inner());
    sh.sleepers.fetch_sub(1, Ordering::SeqCst);
    false
}

/// Pops the earliest backpressure deferral if its deadline has passed.
/// The atomic count keeps the no-backpressure path off the heap mutex;
/// counting is Release/AcqRel-paired with the push sites so a probe
/// that sees the count also sees the entry under the lock.
fn pop_due_deferral(sh: &Pool) -> Option<Arc<Task>> {
    if sh.deferred_count.load(Ordering::Acquire) == 0 {
        return None;
    }
    let mut deferred = sh.deferred.lock();
    if let Some(d) = deferred.peek() {
        if d.due <= Instant::now() {
            let task = deferred.pop().expect("peeked entry").task;
            sh.deferred_count.fetch_sub(1, Ordering::AcqRel);
            return Some(task);
        }
    }
    None
}

/// Pops one ready task from the pool's *global* sources (expired
/// deferrals, then the injector) — the part of [`find_task`] available
/// to threads without a worker deque, i.e. a driver thread helping out
/// via [`Pool::drive`].
fn pop_global(sh: &Pool) -> Option<Arc<Task>> {
    if let Some(task) = pop_due_deferral(sh) {
        return Some(task);
    }
    loop {
        match sh.injector.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Retry => std::hint::spin_loop(),
            Steal::Empty => return None,
        }
    }
}

fn find_task(
    index: usize,
    local: &Worker<Arc<Task>>,
    stealers: &[Stealer<Arc<Task>>],
    last_victim: &mut Option<usize>,
    sh: &Pool,
) -> Option<Arc<Task>> {
    // Expired backoff deferrals first: they are the oldest work and
    // their congestion has had the longest time to clear. The heap is
    // shared, so whichever worker probes first resumes the task.
    if let Some(task) = pop_due_deferral(sh) {
        return Some(task);
    }
    if let Some(t) = local.pop() {
        return Some(t);
    }
    // The injector and sibling deques can report transient `Retry`
    // (lost CAS or a mid-swap buffer); keep probing until every source
    // reports a definitive miss. Sibling steals take *half* the
    // victim's backlog into the local deque (steal-half): one raid
    // covers several future activations, so stolen tasks and their
    // record batches keep running on this worker's core instead of
    // ping-ponging back.
    loop {
        let mut retry = false;
        match sh.injector.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Retry => retry = true,
            Steal::Empty => {}
        }
        // Affinity probe: the last productive victim first.
        if let Some(v) = *last_victim {
            match stealers[v].steal_batch_and_pop(local) {
                Steal::Success(t) => return Some(t),
                Steal::Retry => retry = true,
                Steal::Empty => *last_victim = None,
            }
        }
        // Ring scan from our own slot.
        let n = stealers.len();
        for k in 1..n {
            let v = (index + k) % n;
            match stealers[v].steal_batch_and_pop(local) {
                Steal::Success(t) => {
                    *last_victim = Some(v);
                    return Some(t);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
        std::hint::spin_loop();
    }
}
