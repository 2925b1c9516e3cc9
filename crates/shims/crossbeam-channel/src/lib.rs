//! Offline shim for `crossbeam-channel`.
//!
//! A Mutex + Condvar MPMC channel with the semantics the workspace
//! relies on:
//!
//! * `bounded(n)` blocks senders when `n` messages are queued;
//!   `unbounded()` never blocks senders;
//! * `send` fails (returning the message) once every receiver is gone;
//! * `recv` fails once every sender is gone *and* the queue is drained;
//! * dropping the last sender/receiver wakes all blocked peers.
//!
//! Not a lock-free implementation — correctness and API compatibility
//! over raw throughput; the workspace's hot path moved to the
//! work-stealing scheduler, which does not use channels for hand-off.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, PoisonError};

// Under `--cfg snet_check` the lock and the condvars come from the
// snet-check model scheduler, so `cargo test -p snet-check` explores
// interleavings of this *exact* implementation — notably the
// waiter-gated notify protocol (`recv_waiting`/`send_waiting`) whose
// PR-4 eaten-wakeup bug stress tests missed. Note the timed entry
// point (`recv_timeout`) branches on `Instant::now` and cannot be
// modeled; models use the untimed `send`/`recv`.
#[cfg(snet_check)]
use snet_check::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(snet_check))]
use std::sync::{Condvar, Mutex, MutexGuard};

struct State<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
    /// Receivers currently blocked in `recv`/`recv_timeout`. Senders
    /// skip the `readable` notify syscall when nobody is waiting —
    /// the same parked-thread gating the real crossbeam implements —
    /// which matters on record-at-a-time hand-off paths.
    recv_waiting: usize,
    /// Senders currently blocked on a full bounded queue; receivers
    /// skip the `writable` notify symmetrically.
    send_waiting: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when a message arrives or the last sender leaves.
    readable: Condvar,
    /// Signalled when space frees up or the last receiver leaves.
    writable: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Error returned by [`Sender::send`] when all receivers are gone;
/// carries the undelivered message.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently empty but senders remain.
    Empty,
    /// Channel empty and all senders gone.
    Disconnected,
}

/// Error returned by [`Sender::try_send`]; carries the undelivered
/// message.
#[derive(PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The bounded queue is at capacity.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "TrySendError::Full(..)"),
            TrySendError::Disconnected(_) => write!(f, "TrySendError::Disconnected(..)"),
        }
    }
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived within the timeout; senders remain.
    Timeout,
    /// Channel empty and all senders gone.
    Disconnected,
}

/// The sending half of a channel. Clonable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel. Clonable (MPMC).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a channel with capacity `cap` (0 is treated as 1: true
/// rendezvous channels are not used by this workspace).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap.max(1)))
}

/// Creates a channel with unlimited capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
            recv_waiting: 0,
            send_waiting: 0,
        }),
        readable: Condvar::new(),
        writable: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Sends every message from `iter`, acquiring the channel lock once
    /// per *chunk* (and once per capacity window within a chunk)
    /// instead of once per message, and waking receivers once per
    /// window instead of once per message.
    ///
    /// Blocks (like [`Sender::send`]) whenever the bounded queue is
    /// full. If every receiver disconnects mid-send, the error carries
    /// the undelivered remainder (messages already enqueued stay
    /// delivered).
    pub fn send_iter<I>(&self, iter: I) -> Result<(), SendError<Vec<T>>>
    where
        I: IntoIterator<Item = T>,
    {
        // The caller's iterator runs arbitrary code, so it is never
        // advanced while the channel lock is held (it could touch this
        // very channel, and std's mutex is not reentrant): items are
        // pulled into a local chunk first, then delivered.
        const CHUNK: usize = 64;
        let mut it = iter.into_iter();
        loop {
            let chunk: Vec<T> = it.by_ref().take(CHUNK).collect();
            let mut chunk_it = chunk.into_iter();
            // Invariant: never wait for space without an undelivered
            // message in hand. Each `writable` notification is a
            // one-slot token; a sender that consumed one and returned
            // without pushing would strand the freed slot while its
            // sibling senders (and then the receiver, on the emptied
            // queue) sleep forever.
            let Some(mut pending) = chunk_it.next() else {
                return Ok(());
            };
            let mut st = self.shared.lock();
            let mut queued = 0usize;
            loop {
                if st.receivers == 0 {
                    let wake = queued > 0 && st.recv_waiting > 0;
                    drop(st);
                    if wake {
                        self.shared.readable.notify_all();
                    }
                    let mut rest = vec![pending];
                    rest.extend(chunk_it);
                    rest.extend(it);
                    return Err(SendError(rest));
                }
                if st.cap.is_some_and(|c| st.queue.len() >= c) {
                    // Full: publish the window queued so far, then wait
                    // for space. notify_all because a window may
                    // satisfy many parked receivers at once.
                    if queued > 0 && st.recv_waiting > 0 {
                        self.shared.readable.notify_all();
                    }
                    queued = 0;
                    st.send_waiting += 1;
                    st = self
                        .shared
                        .writable
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                    st.send_waiting -= 1;
                    continue;
                }
                st.queue.push_back(pending);
                queued += 1;
                match chunk_it.next() {
                    Some(v) => pending = v,
                    None => break,
                }
            }
            let wake = queued > 0 && st.recv_waiting > 0;
            drop(st);
            if wake {
                self.shared.readable.notify_all();
            }
        }
    }

    /// Is the bounded queue currently at capacity? (Unbounded channels
    /// are never full.)
    pub fn is_full(&self) -> bool {
        let st = self.shared.lock();
        st.cap.is_some_and(|c| st.queue.len() >= c)
    }

    /// Shim extension (not part of crossbeam's API; callers must treat
    /// it as `try_send` in a loop, which is the drop-in replacement if
    /// the real crate is ever vendored): moves as many items as fit
    /// from the front of `src` into the queue under **one** lock with
    /// at most **one** receiver wake. One wake per window instead of
    /// one per record matters on a loaded single-core host, where every
    /// wake lets the consumer preempt the producer mid-window.
    /// Returns the number delivered; `Err` when every receiver is gone
    /// (items stay in `src`).
    pub fn try_send_front(&self, src: &mut Vec<T>) -> Result<usize, SendError<()>> {
        let mut st = self.shared.lock();
        if st.receivers == 0 {
            return Err(SendError(()));
        }
        let room = match st.cap {
            Some(c) => c.saturating_sub(st.queue.len()),
            None => src.len(),
        };
        let n = room.min(src.len());
        st.queue.extend(src.drain(..n));
        let wake = n > 0 && st.recv_waiting > 0;
        drop(st);
        if wake {
            self.shared.readable.notify_all();
        }
        Ok(n)
    }

    /// Non-blocking send: fails with [`TrySendError::Full`] instead of
    /// waiting when the bounded queue is at capacity.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.shared.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if st.cap.is_some_and(|c| st.queue.len() >= c) {
            return Err(TrySendError::Full(value));
        }
        st.queue.push_back(value);
        let wake = st.recv_waiting > 0;
        drop(st);
        if wake {
            self.shared.readable.notify_one();
        }
        Ok(())
    }

    /// Blocks until the message is enqueued or every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            let full = st.cap.is_some_and(|c| st.queue.len() >= c);
            if !full {
                st.queue.push_back(value);
                let wake = st.recv_waiting > 0;
                drop(st);
                if wake {
                    self.shared.readable.notify_one();
                }
                return Ok(());
            }
            st.send_waiting += 1;
            st = self
                .shared
                .writable
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.send_waiting -= 1;
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let last = {
            let mut st = self.shared.lock();
            st.senders -= 1;
            st.senders == 0
        };
        if last {
            // Receivers blocked on an empty queue must observe EOS.
            self.shared.readable.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message is available or the channel disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                let wake = st.send_waiting > 0;
                drop(st);
                if wake {
                    self.shared.writable.notify_one();
                }
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st.recv_waiting += 1;
            st = self
                .shared
                .readable
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.recv_waiting -= 1;
        }
    }

    /// Blocks until a message is available, the channel disconnects, or
    /// `timeout` elapses.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                let wake = st.send_waiting > 0;
                drop(st);
                if wake {
                    self.shared.writable.notify_one();
                }
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st.recv_waiting += 1;
            let (guard, _) = self
                .shared
                .readable
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            st.recv_waiting -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.lock();
        match st.queue.pop_front() {
            Some(v) => {
                let wake = st.send_waiting > 0;
                drop(st);
                if wake {
                    self.shared.writable.notify_one();
                }
                Ok(v)
            }
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocking iterator over received messages; ends at disconnect.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Is the queue currently empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let last = {
            let mut st = self.shared.lock();
            st.receivers -= 1;
            st.receivers == 0
        };
        if last {
            // Senders blocked on a full queue must observe the failure.
            self.shared.writable.notify_all();
        }
    }
}

/// Borrowing blocking iterator (see [`Receiver::iter`]).
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Owning blocking iterator.
pub struct IntoIter<T> {
    rx: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter { rx: self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_and_eos() {
        let (tx, rx) = bounded(2);
        let t = thread::spawn(move || {
            for i in 0..10 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<i32> = rx.iter().collect();
        t.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocked_sender_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send(2));
        thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn multiple_senders_disconnect_only_when_all_gone() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(5).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(5));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn try_recv_states() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_iter_unbounded_is_one_shot() {
        let (tx, rx) = unbounded::<u32>();
        tx.send_iter(0..100).unwrap();
        let got: Vec<u32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn send_iter_blocks_on_bounded_and_preserves_order() {
        let (tx, rx) = bounded::<u32>(4);
        let t = thread::spawn(move || tx.send_iter(0..64));
        let got: Vec<u32> = rx.iter().collect();
        t.join().unwrap().unwrap();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn send_iter_returns_remainder_on_disconnect() {
        let (tx, rx) = bounded::<u32>(2);
        let t = thread::spawn(move || tx.send_iter(0..10));
        // Take two, then hang up: the sender must fail with the
        // undelivered tail (whatever had not been enqueued yet).
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recv(), Ok(1));
        thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        let err = t.join().unwrap().unwrap_err();
        let SendError(rest) = err;
        assert!(!rest.is_empty());
        assert_eq!(*rest.last().unwrap(), 9, "tail preserved in order");
    }

    #[test]
    fn send_iter_empty_returns_without_blocking_on_a_full_queue() {
        // Regression: an exhausted/empty iterator must never wait for
        // space it will not use — a woken sender that returns without
        // pushing swallows the receiver's one-slot wakeup token and
        // deadlocks its sibling senders (then the receiver).
        let (tx, rx) = bounded::<u32>(1);
        tx.send(7).unwrap(); // queue now full
        tx.send_iter(std::iter::empty()).unwrap(); // must not block
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn contended_send_iter_senders_never_eat_each_others_wakeups() {
        // Many senders (batched and plain, some with empty batches)
        // funnel through a capacity-1 channel: every message must come
        // out. The pre-fix protocol wedged here within a few windows.
        let (tx, rx) = bounded::<u32>(1);
        const SENDERS: u32 = 4;
        const PER: u32 = 500;
        let handles: Vec<_> = (0..SENDERS)
            .map(|s| {
                let tx = tx.clone();
                thread::spawn(move || {
                    let base = s * PER;
                    for chunk in (0..PER).collect::<Vec<_>>().chunks(7) {
                        tx.send_iter(chunk.iter().map(|i| base + i)).unwrap();
                        tx.send_iter(std::iter::empty()).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let got: Vec<u32> = rx.iter().collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), (SENDERS * PER) as usize);
        let mut sorted = got;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..SENDERS * PER).collect::<Vec<_>>());
    }

    #[test]
    fn try_send_reports_full_then_disconnected() {
        let (tx, rx) = bounded::<u32>(1);
        tx.try_send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        drop(rx);
        assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers_then_disconnects() {
        let d = std::time::Duration::from_millis(10);
        let (tx, rx) = bounded::<u32>(4);
        assert_eq!(rx.recv_timeout(d), Err(RecvTimeoutError::Timeout));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(d), Ok(9));
        drop(tx);
        assert_eq!(rx.recv_timeout(d), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn mpmc_consumes_each_message_once() {
        let (tx, rx) = unbounded::<u32>();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || rx.iter().count())
            })
            .collect();
        drop(rx);
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1000);
    }
}
