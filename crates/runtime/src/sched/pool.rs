//! The worker pool: the run queues (one shared, one per worker) and the
//! `notify`/`park` wake protocol. Every wake goes through `notify`,
//! backpressure included (a held-back task is queued by the drain that
//! makes room, `sched::task`); nothing is queued by the clock.
//!
//! A run queue is a mutex around a `VecDeque` ([`Queues`]): the pool is
//! at most four workers and a queue operation is paid once per hand-off
//! batch, not per record, so a lock-free deque measured as the same
//! scheduler on every `benchmark/` workload (ROADMAP, "What the
//! committed numbers say") and this one has no `unsafe` to audit. What
//! does show is having a queue per worker at all: it keeps a consumer
//! on its producer's core.
//!
//! The wake protocol (lock-then-notify, the sleeper gate, the re-probe
//! of every run queue) runs under the `snet-check` model checker in
//! `tests/model.rs`, threads and all: every scenario there asserts
//! `timeouts_fired() == 0`, so the timed waits are backstops and never
//! carry the protocol.

use super::sync::{thread, AtomicBool, AtomicUsize, Condvar};
use super::task::{execute, Task};
use crate::config::EngineConfig;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The most tasks one raid on a sibling's queue takes.
const STEAL_MAX: usize = 32;

/// How long a parked worker sleeps before it re-probes the run queues
/// on its own: a backstop, the wakes carry the protocol.
const PARK_QUANTUM: Duration = Duration::from_millis(1);

/// The pool's run queues, FIFO each: slot 0 is shared (fed by threads
/// that are not workers, and where a contended task is handed back),
/// slot `1 + i` is worker `i`'s own (fed by the activations that worker
/// runs, raided by idle siblings). No operation holds two queue locks —
/// two workers raiding each other would deadlock.
struct Queues<T>(Box<[Mutex<VecDeque<T>>]>);

impl<T> Queues<T> {
    fn new(workers: usize) -> Queues<T> {
        Queues((0..=workers).map(|_| Mutex::new(VecDeque::new())).collect())
    }

    /// Worker `i`'s own queue, or the shared one for `None`.
    fn of(&self, worker: Option<usize>) -> &Mutex<VecDeque<T>> {
        &self.0[worker.map_or(0, |i| i + 1)]
    }

    fn push(&self, worker: Option<usize>, item: T) {
        self.of(worker).lock().push_back(item);
    }

    fn pop(&self, worker: Option<usize>) -> Option<T> {
        self.of(worker).lock().pop_front()
    }

    /// Moves the older half of `victim`'s backlog (at least one task, at
    /// most [`STEAL_MAX`]) to `thief`'s queue and returns the oldest:
    /// one raid covers several future activations, so stolen tasks and
    /// their record batches keep running on the thief's core instead of
    /// ping-ponging back. The loot crosses on the stack: taken under the
    /// victim's lock, pushed under the thief's, never both.
    fn steal_half(&self, victim: usize, thief: usize) -> Option<T> {
        let mut from = self.of(Some(victim)).lock();
        let take = (from.len() / 2).clamp(1, STEAL_MAX);
        let first = from.pop_front()?;
        let mut loot = [const { None }; STEAL_MAX];
        for (slot, item) in loot.iter_mut().zip(from.drain(..take - 1)) {
            *slot = Some(item);
        }
        drop(from);
        if take > 1 {
            self.of(Some(thief))
                .lock()
                .extend(loot.into_iter().flatten());
        }
        Some(first)
    }

    /// Is a task waiting in any queue? Takes each lock in turn (never
    /// two); only a parking worker asks.
    fn any_ready(&self) -> bool {
        self.0.iter().any(|q| !q.lock().is_empty())
    }
}

/// Pool-lifetime scheduler state, shared by all runs of one `SchedNet`.
pub(super) struct Pool {
    queues: Queues<Arc<Task>>,
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
            queues: Queues::new(config.workers.max(1)),
            sleep: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            config,
        }
    }

    fn workers(&self) -> usize {
        self.config.workers.max(1)
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
    pub(super) fn spawn_workers(self: &Arc<Pool>) -> Vec<thread::JoinHandle<()>> {
        (0..self.workers())
            .map(|i| {
                let pool = Arc::clone(self);
                thread::Builder::new()
                    .name(format!("snet-sched-{i}"))
                    .spawn(move || worker_loop(i, &pool))
                    .expect("spawn sched worker")
            })
            .collect()
    }

    /// Runs at most one ready task on the *calling* thread (caller-runs
    /// work helping, à la Rayon): pops from the pool's shared queue and
    /// executes the activation in place. Returns `true` if a task
    /// was executed; `false` also when the popped task was
    /// mid-activation on another thread — it is handed back and the
    /// caller should yield to the thread actually running it.
    pub(super) fn drive(&self) -> bool {
        self.queues
            .pop(None)
            .is_some_and(|task| activate(&task, self, None))
    }
}

/// Queues a task if it is not already queued: on worker `local`'s own
/// queue when an activation on that worker made it runnable, on the
/// shared queue otherwise.
pub(super) fn notify(task: &Arc<Task>, sh: &Pool, local: Option<usize>) {
    if task
        .scheduled
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        sh.queues.push(local, Arc::clone(task));
        // Skipping the syscall when every worker is busy is a large win
        // on the hot path. The push above (its queue lock is released
        // by now) is ordered against a parking worker's sleeper
        // registration and re-probe (see `park`), so either the parker
        // finds the task or its registration is observed here.
        //
        // Lock-then-notify (as in `Pool::shut_down`): a parking
        // worker holds the sleep lock from sleeper registration until
        // its condvar wait releases it, so acquiring it here squeezes
        // out the window where the push lands after the worker's
        // re-probe but the notify fires before the worker is actually
        // waiting — a lost wake that previously cost the 1ms
        // timed-wait backstop in latency. Found by the snet-check
        // model checker; without it the stream scenario of
        // `tests/model.rs` fires the backstop. Only taken when a worker
        // is actually asleep, so the busy hot path is unchanged.
        if sh.sleepers.load(Ordering::SeqCst) > 0 {
            drop(sh.sleep.lock());
            sh.cv.notify_one();
        }
    }
}

/// Runs one activation of `task` on the calling thread. A task can be
/// re-queued while its previous activation is still draining on another
/// thread; blocking on the state mutex would idle this thread behind up
/// to a full activation budget of box calls, so a locked task is handed
/// back to the shared queue instead and `false` is returned.
fn activate(task: &Arc<Task>, sh: &Pool, local: Option<usize>) -> bool {
    let guard = task.state.try_lock();
    match guard {
        Some(state) => {
            execute(task, state, sh, local);
            true
        }
        None => {
            sh.queues.push(None, Arc::clone(task));
            false
        }
    }
}

fn worker_loop(index: usize, sh: &Pool) {
    // The task we last failed to lock (its activation was still running
    // on another thread). Seeing it twice in a row means it is back on
    // the shared queue, where this worker's next look would find it
    // again (and `park` would return at once): run a sibling's backlog
    // meanwhile, or yield the core to the thread that holds the lock.
    let mut contended: Option<*const Task> = None;
    // The sibling we last stole from successfully; probed first on the
    // next steal (producers are bursty, so the victim that had work a
    // moment ago likely still does).
    let mut last_victim: Option<usize> = None;
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        let task = find_task(index, &mut last_victim, sh);
        match task {
            Some(task) => {
                if activate(&task, sh, Some(index)) {
                    contended = None;
                } else {
                    let ptr = Arc::as_ptr(&task);
                    if contended.replace(ptr) == Some(ptr) {
                        match steal(index, &mut last_victim, sh) {
                            Some(stolen) => {
                                activate(&stolen, sh, Some(index));
                            }
                            None => thread::yield_now(),
                        }
                    }
                }
            }
            None => {
                contended = None;
                if park(sh) {
                    return;
                }
            }
        }
    }
}

/// Parks the worker until new work may exist; returns true on shutdown.
fn park(sh: &Pool) -> bool {
    let sleep = sh.sleep.lock();
    if sh.shutdown.load(Ordering::Acquire) {
        return true;
    }
    sh.sleepers.fetch_add(1, Ordering::SeqCst);
    // Closing the probe/park race: a producer that pushed after our
    // (empty) probe of its queue may have read `sleepers == 0` before
    // the increment above and skipped its notify. Re-probing *every*
    // run queue after registering as a sleeper closes it whichever
    // queue the push went to — a busy sibling's own queue included,
    // which only this worker can relieve: a push that this probe
    // misses comes after it, so its producer reads our registration
    // and notifies. A handful of uncontended locks on the cold path;
    // lock order is sleep → queue, and `notify` has released its queue
    // lock before it takes the sleep lock. The timed wait below is a
    // backstop only.
    if sh.queues.any_ready() {
        sh.sleepers.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    let _ = sh
        .cv
        .wait_timeout(sleep, PARK_QUANTUM)
        .unwrap_or_else(|e| e.into_inner());
    sh.sleepers.fetch_sub(1, Ordering::SeqCst);
    false
}

fn find_task(index: usize, last_victim: &mut Option<usize>, sh: &Pool) -> Option<Arc<Task>> {
    // This worker's own queue, then the shared one, then a sibling's.
    sh.queues
        .pop(Some(index))
        .or_else(|| sh.queues.pop(None))
        .or_else(|| steal(index, last_victim, sh))
}

/// Raids a sibling's queue: the last productive victim first, then a
/// ring scan from this worker's own slot.
fn steal(index: usize, last_victim: &mut Option<usize>, sh: &Pool) -> Option<Arc<Task>> {
    if let Some(v) = *last_victim {
        match sh.queues.steal_half(v, index) {
            Some(task) => return Some(task),
            None => *last_victim = None,
        }
    }
    let n = sh.workers();
    (1..n).map(|k| (index + k) % n).find_map(|v| {
        let task = sh.queues.steal_half(v, index)?;
        *last_victim = Some(v);
        Some(task)
    })
}

#[cfg(test)]
mod tests {
    use super::{Queues, STEAL_MAX};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn fifo_order_across_owner_pop_and_thief() {
        let q = Queues::new(2);
        for i in 1..=3 {
            q.push(Some(0), i);
        }
        assert_eq!(q.steal_half(0, 1), Some(1));
        assert_eq!(q.pop(Some(0)), Some(2));
        assert_eq!(q.steal_half(0, 1), Some(3));
        assert_eq!(q.steal_half(0, 1), None);
        assert_eq!(q.pop(Some(1)), None, "single steals leave nothing behind");
        assert_eq!(q.pop(None), None, "the shared queue is a queue of its own");
        assert!(!q.any_ready());
    }

    #[test]
    fn steal_half_takes_the_older_half_capped() {
        for len in [1usize, 2, 3, 10, 64, 65, 200] {
            let q = Queues::new(2);
            for i in 0..len {
                q.push(Some(0), i);
            }
            let take = (len / 2).clamp(1, STEAL_MAX);
            assert_eq!(q.steal_half(0, 1), Some(0), "returns the oldest of {len}");
            let moved: Vec<usize> = std::iter::from_fn(|| q.pop(Some(1))).collect();
            assert_eq!(moved, (1..take).collect::<Vec<_>>(), "of {len}");
            let left: Vec<usize> = std::iter::from_fn(|| q.pop(Some(0))).collect();
            assert_eq!(left, (take..len).collect::<Vec<_>>(), "of {len}");
        }
    }

    /// One owner pushing and popping its own queue while three thieves
    /// raid it into theirs: every element is consumed by exactly one
    /// thread and dropped exactly once.
    #[test]
    fn churn_consumes_and_drops_every_element_once() {
        const ITEMS: usize = 40_000;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Item(usize);
        impl Drop for Item {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }

        let q = Queues::new(4);
        let start = Barrier::new(4);
        let pushed_all = AtomicBool::new(false);
        let raids = AtomicUsize::new(0);
        let mut seen = vec![0u8; ITEMS];
        let per_thread: Vec<Vec<usize>> = std::thread::scope(|s| {
            let owner = s.spawn(|| {
                let mut got = Vec::new();
                start.wait();
                for i in 0..ITEMS {
                    q.push(Some(0), Item(i));
                    if i % 3 == 0 {
                        got.extend(q.pop(Some(0)).map(|item| item.0));
                    }
                }
                pushed_all.store(true, Ordering::Release);
                // Two thirds of the items are still queued: leave them
                // until a thief has been in, however few cores there are.
                while raids.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                got.extend(std::iter::from_fn(|| q.pop(Some(0))).map(|item| item.0));
                got
            });
            let thieves: Vec<_> = (1..4)
                .map(|me| {
                    let (q, start, pushed_all, raids) = (&q, &start, &pushed_all, &raids);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        start.wait();
                        loop {
                            // Read the flag before the raid: a miss after
                            // the last push means the queue is drained.
                            let done = pushed_all.load(Ordering::Acquire);
                            match q.steal_half(0, me) {
                                Some(item) => {
                                    raids.fetch_add(1, Ordering::Release);
                                    got.push(item.0);
                                }
                                None if done => break,
                                None => std::thread::yield_now(),
                            }
                            got.extend(std::iter::from_fn(|| q.pop(Some(me))).map(|item| item.0));
                        }
                        got
                    })
                })
                .collect();
            std::iter::once(owner)
                .chain(thieves)
                .map(|t| t.join().expect("churn thread"))
                .collect()
        });
        for &i in per_thread.iter().flatten() {
            seen[i] += 1;
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "an element was lost or duplicated"
        );
        assert!(!q.any_ready());
        assert!(per_thread[1..].iter().any(|got| !got.is_empty()));
        assert_eq!(DROPS.load(Ordering::Relaxed), ITEMS);
    }
}
