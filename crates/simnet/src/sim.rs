//! The discrete-event kernel and its blocked-thread processes.
//!
//! Processes are real OS threads running real application code (the ray
//! tracer actually renders), but *time* is virtual: a strict hand-off
//! protocol guarantees that at any moment either the scheduler or
//! exactly one process thread is running. A process interacts with
//! virtual time only through its [`SimCtx`]: it can read the clock,
//! sleep ([`SimCtx::advance`]), spawn further processes, and block on
//! kernel objects (queues, resources) that wake it through scheduled
//! events.
//!
//! Determinism: the event queue is ordered by `(time, sequence number)`,
//! sequence numbers are handed out in scheduling order, and only one
//! thread ever runs at a time — so two runs of the same program produce
//! identical event logs, identical results and identical makespans.

use crate::time::SimTime;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Identifies a process within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub(crate) u32);

impl ProcId {
    /// Raw process index (stable within a run; used in event logs).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Errors terminating a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Every runnable event was consumed but some processes are still
    /// blocked — the simulated program deadlocked.
    Deadlock {
        /// Virtual time of the deadlock.
        at: SimTime,
        /// `name (blocked on …)` for every stuck process.
        blocked: Vec<String>,
    },
    /// A process panicked; the panic message is attached.
    ProcessPanic {
        /// Process name.
        name: String,
        /// Panic payload rendered to a string.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, blocked } => {
                write!(f, "simulation deadlocked at {at}: {}", blocked.join("; "))
            }
            SimError::ProcessPanic { name, message } => {
                write!(f, "process `{name}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time of the last processed event (the makespan).
    pub end_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// Number of processes that ran.
    pub processes: usize,
    /// `(time, process)` log of every scheduling decision — identical
    /// across runs of the same program (the determinism witness).
    pub event_log: Vec<(SimTime, ProcId)>,
}

#[derive(PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    proc: ProcId,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

enum YieldKind {
    Blocked,
    Done,
    Panicked(String),
}

struct ProcEntry {
    name: String,
    go_tx: SyncSender<()>,
    done: bool,
    /// Human-readable description of what the process is blocked on
    /// (for deadlock reports).
    blocked_on: Option<String>,
}

pub(crate) struct Kernel {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    procs: Vec<ProcEntry>,
    threads: Vec<JoinHandle<()>>,
    event_log: Vec<(SimTime, ProcId)>,
    events_processed: u64,
}

impl Kernel {
    pub(crate) fn schedule_wake(&mut self, proc: ProcId, at: SimTime) {
        let at = at.max(self.now);
        self.seq += 1;
        self.events.push(Reverse(Event {
            at,
            seq: self.seq,
            proc,
        }));
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    fn register(&mut self, name: String, go_tx: SyncSender<()>) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(ProcEntry {
            name,
            go_tx,
            done: false,
            blocked_on: None,
        });
        id
    }
}

/// Cloneable handle to a simulation's kernel; the factory for kernel
/// objects ([`crate::SimQueue`], [`crate::Resource`], …).
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) kernel: Arc<Mutex<Kernel>>,
    yield_tx: Sender<(ProcId, YieldKind)>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.lock().now()
    }

    /// Spawns a process that becomes runnable at the current virtual
    /// time (after all already-scheduled events at that time).
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        let (go_tx, go_rx) = sync_channel(1);
        let pid = {
            let mut k = self.kernel.lock();
            let pid = k.register(name.to_owned(), go_tx);
            let at = k.now();
            k.schedule_wake(pid, at);
            pid
        };
        let ctx = SimCtx {
            pid,
            handle: self.clone(),
            go_rx,
        };
        let yield_tx = self.yield_tx.clone();
        let thread_name = format!("sim-{name}");
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                // First activation: wait to be scheduled.
                if ctx.go_rx.recv().is_err() {
                    return; // simulation torn down before we ever ran
                }
                let pid = ctx.pid;
                let tx = yield_tx;
                let result = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
                let kind = match result {
                    Ok(()) => YieldKind::Done,
                    Err(payload) => {
                        if payload.downcast_ref::<SimAborted>().is_some() {
                            // Teardown-induced unwind; not a user panic.
                            return;
                        }
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_owned())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        YieldKind::Panicked(msg)
                    }
                };
                let _ = tx.send((pid, kind));
            })
            .expect("spawn sim process thread");
        self.kernel.lock().threads.push(handle);
        pid
    }
}

/// Panic payload used to unwind process threads when the simulation is
/// torn down early (deadlock or another process's panic).
struct SimAborted;

/// The process-side API: everything a simulated process may do with
/// virtual time.
pub struct SimCtx {
    pid: ProcId,
    handle: SimHandle,
    go_rx: Receiver<()>,
}

impl SimCtx {
    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// A cloneable handle for creating kernel objects or spawning.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Spawns a child process runnable at the current time.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.handle.spawn(name, f)
    }

    /// Lets virtual time pass for this process.
    pub fn advance(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        {
            let mut k = self.handle.kernel.lock();
            let at = k.now() + d;
            k.schedule_wake(self.pid, at);
        }
        self.block("advance");
    }

    /// Yields without letting time pass (reschedules this process after
    /// every event already queued at the current instant).
    pub fn yield_now(&self) {
        {
            let mut k = self.handle.kernel.lock();
            let at = k.now();
            k.schedule_wake(self.pid, at);
        }
        self.block("yield");
    }

    /// Blocks until another process wakes us via a scheduled event.
    ///
    /// Kernel objects call this after registering the process in their
    /// waiter lists. The caller must not hold any lock. The `reason`
    /// shows up in deadlock reports.
    pub(crate) fn block(&self, reason: &str) {
        {
            let mut k = self.handle.kernel.lock();
            k.procs[self.pid.0 as usize].blocked_on = Some(reason.to_owned());
        }
        self.handle
            .yield_tx
            .send((self.pid, YieldKind::Blocked))
            .expect("scheduler alive");
        if self.go_rx.recv().is_err() {
            // The scheduler dropped our go channel: teardown. Unwind the
            // process thread; `spawn` recognises the payload.
            std::panic::panic_any(SimAborted);
        }
        self.handle.kernel.lock().procs[self.pid.0 as usize].blocked_on = None;
    }
}

/// A simulation: create it, spawn root processes, run to completion.
pub struct Simulation {
    handle: SimHandle,
    yield_rx: Receiver<(ProcId, YieldKind)>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Simulation {
        let (yield_tx, yield_rx) = channel();
        let kernel = Arc::new(Mutex::new(Kernel {
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            procs: Vec::new(),
            threads: Vec::new(),
            event_log: Vec::new(),
            events_processed: 0,
        }));
        Simulation {
            handle: SimHandle { kernel, yield_tx },
            yield_rx,
        }
    }

    /// Handle for spawning root processes and creating kernel objects.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Spawns a root process (runnable at time zero).
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.handle.spawn(name, f)
    }

    /// Runs events until none remain, then reports.
    ///
    /// Returns an error if any process panicked or if processes remain
    /// blocked once the event queue is exhausted (deadlock).
    pub fn run(self) -> Result<SimReport, SimError> {
        let kernel = Arc::clone(&self.handle.kernel);
        let mut failure: Option<SimError> = None;
        loop {
            let next = {
                let mut k = kernel.lock();
                match k.events.pop() {
                    Some(Reverse(ev)) => {
                        k.now = ev.at;
                        if k.procs[ev.proc.0 as usize].done {
                            continue; // stale wake
                        }
                        k.events_processed += 1;
                        k.event_log.push((ev.at, ev.proc));
                        Some(ev.proc)
                    }
                    None => None,
                }
            };
            let Some(pid) = next else { break };
            let go_tx = kernel.lock().procs[pid.0 as usize].go_tx.clone();
            if go_tx.send(()).is_err() {
                // Process thread died without yielding — only possible
                // after a panic we are about to surface.
                continue;
            }
            match self.yield_rx.recv() {
                Ok((ypid, YieldKind::Blocked)) => {
                    debug_assert_eq!(ypid, pid, "only the scheduled process may yield");
                }
                Ok((ypid, YieldKind::Done)) => {
                    kernel.lock().procs[ypid.0 as usize].done = true;
                }
                Ok((ypid, YieldKind::Panicked(message))) => {
                    let name = {
                        let mut k = kernel.lock();
                        k.procs[ypid.0 as usize].done = true;
                        k.procs[ypid.0 as usize].name.clone()
                    };
                    failure = Some(SimError::ProcessPanic { name, message });
                    break;
                }
                Err(_) => break,
            }
        }

        // Collect the report and any deadlock before tearing down.
        let (report, stuck) = {
            let k = kernel.lock();
            let stuck: Vec<String> = k
                .procs
                .iter()
                .filter(|p| !p.done)
                .map(|p| {
                    format!(
                        "{} (blocked on {})",
                        p.name,
                        p.blocked_on.as_deref().unwrap_or("start")
                    )
                })
                .collect();
            (
                SimReport {
                    end_time: k.now,
                    events: k.events_processed,
                    processes: k.procs.len(),
                    event_log: k.event_log.clone(),
                },
                stuck,
            )
        };

        // Tear down: dropping every go sender unwinds blocked process
        // threads (they observe a disconnected channel and abort).
        let threads = {
            let mut k = kernel.lock();
            for p in &mut k.procs {
                let (dead_tx, _) = sync_channel(1);
                p.go_tx = dead_tx; // drop the real sender
            }
            std::mem::take(&mut k.threads)
        };
        for t in threads {
            let _ = t.join();
        }

        if let Some(e) = failure {
            return Err(e);
        }
        if !stuck.is_empty() {
            return Err(SimError::Deadlock {
                at: report.end_time,
                blocked: stuck,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let report = Simulation::new().run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events, 0);
    }

    #[test]
    fn advance_moves_the_clock() {
        let sim = Simulation::new();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        sim.spawn("sleeper", move |ctx| {
            ctx.advance(Duration::from_secs(3));
            seen2.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_secs_f64(3.0));
        assert_eq!(seen.load(Ordering::SeqCst), 3_000_000_000);
    }

    #[test]
    fn processes_interleave_by_time_not_spawn_order() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, delay_ms) in [("late", 20u64), ("early", 10u64)] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                ctx.advance(Duration::from_millis(delay_ms));
                log.lock().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec!["early", "late"]);
    }

    #[test]
    fn equal_times_run_in_schedule_order() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let log = Arc::clone(&log);
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.advance(Duration::from_millis(7));
                log.lock().push(i);
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn spawned_children_run_at_parent_time() {
        let sim = Simulation::new();
        let t_child = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t_child);
        sim.spawn("parent", move |ctx| {
            ctx.advance(Duration::from_secs(1));
            let t2 = Arc::clone(&t2);
            ctx.spawn("child", move |cctx| {
                t2.store(cctx.now().as_nanos(), Ordering::SeqCst);
            });
        });
        sim.run().unwrap();
        assert_eq!(t_child.load(Ordering::SeqCst), 1_000_000_000);
    }

    #[test]
    fn panics_are_reported_with_process_name() {
        let sim = Simulation::new();
        sim.spawn("exploder", |_ctx| panic!("kaboom {}", 42));
        match sim.run() {
            Err(SimError::ProcessPanic { name, message }) => {
                assert_eq!(name, "exploder");
                assert!(message.contains("kaboom 42"));
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn event_log_is_deterministic() {
        fn run_once() -> Vec<(SimTime, ProcId)> {
            let sim = Simulation::new();
            for i in 0..6u64 {
                sim.spawn(&format!("p{i}"), move |ctx| {
                    for _ in 0..4 {
                        ctx.advance(Duration::from_millis(3 + i));
                    }
                });
            }
            sim.run().unwrap().event_log
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn yield_now_reorders_within_an_instant() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        sim.spawn("a", move |ctx| {
            ctx.yield_now();
            l1.lock().push("a-after-yield");
        });
        let l2 = Arc::clone(&log);
        sim.spawn("b", move |_ctx| {
            l2.lock().push("b");
        });
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec!["b", "a-after-yield"]);
    }
}
