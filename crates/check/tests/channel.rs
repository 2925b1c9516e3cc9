//! Model-checks the *real* crossbeam-channel shim
//! (`crates/shims/crossbeam-channel`) — only meaningful when the shim
//! is compiled against the snet-check façade:
//!
//! ```text
//! RUSTFLAGS="--cfg snet_check" cargo test -p snet-check --test channel
//! ```
//!
//! The shim's load-bearing subtlety is waiter-gated notification:
//! senders/receivers skip the condvar notify when the `recv_waiting` /
//! `send_waiting` counters say nobody is parked. A miscounted gate is
//! a lost wakeup — exactly the PR-4 `send_iter` bug, where an
//! exhausted-iterator sender parked on a full queue and swallowed the
//! receiver's one-slot wake token. These models enumerate the
//! interleavings of the real implementation; the hand-modeled buggy
//! protocol (for "the checker catches it") lives in
//! `eaten_wakeup.rs`, which runs in every build.
//!
//! The timed entry point (`recv_timeout`) branches on real
//! `Instant::now` deadlines and cannot be modeled — models use the
//! untimed operations only.

#![cfg(snet_check)]

use crossbeam_channel::bounded;
use snet_check::sync::atomic::{AtomicUsize, Ordering};
use snet_check::sync::Arc;
use snet_check::{check, thread, Config, Report};

fn check_ok(cfg: Config, f: impl Fn() + Send + Sync + 'static) -> Report {
    check(cfg, f).unwrap_or_else(|f| panic!("{f}"))
}

/// cap=1 with a blocking sender and receiver: every message arrives,
/// no schedule loses a wakeup (a lost wakeup here is a deadlock — the
/// untimed waits have no backstop). Unbounded preemptions: this is the
/// complete SC space of the 2-thread protocol.
#[test]
fn bounded_one_send_recv_all_delivered() {
    let cfg = Config {
        preemption_bound: None,
        ..Config::default()
    };
    let report = check_ok(cfg, || {
        let (tx, rx) = bounded::<usize>(1);
        let t = thread::spawn(move || {
            for i in 0..3 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv().unwrap());
        }
        t.join().unwrap();
        assert_eq!(got, vec![0, 1, 2], "FIFO, nothing lost");
        assert!(rx.try_recv().is_err());
    });
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}

/// The PR-4 regression surface: `send_iter` over a *full* cap=1 queue,
/// including an empty iterator from a second sender. The empty-iterator
/// sender must return without parking (and without eating the
/// receiver's wake); the checker explores every ordering of the two
/// senders against the receiver's drains.
#[test]
fn send_iter_empty_iterator_never_eats_wakeup() {
    let report = check_ok(Config::default(), || {
        let (tx, rx) = bounded::<usize>(1);
        tx.send(99).unwrap(); // queue now full
        let tx2 = tx.clone();
        let t_empty = thread::spawn(move || {
            // Pre-fix, this parked on the full queue waiting for space
            // it would never use, then swallowed the receiver's
            // one-slot `writable` token: deadlock.
            tx2.send_iter(std::iter::empty()).unwrap();
        });
        let t_send = thread::spawn(move || {
            tx.send_iter([1usize, 2].into_iter()).unwrap();
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv().unwrap());
        }
        t_empty.join().unwrap();
        t_send.join().unwrap();
        assert_eq!(got, vec![99, 1, 2], "per-sender FIFO, nothing lost");
    });
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}

/// Two competing senders, one receiver, cap=1: the waiter-gated
/// `writable` notify must wake *a* parked sender whenever a slot
/// frees, under every interleaving of the gate counters.
#[test]
fn two_senders_contend_for_one_slot() {
    let report = check_ok(Config::default(), || {
        let (tx, rx) = bounded::<usize>(1);
        let txs: Vec<_> = (0..2)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(rx.recv().unwrap());
        }
        for t in txs {
            t.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1], "both sends must land");
        assert!(rx.recv().is_err(), "all senders gone -> disconnected");
    });
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}

/// Disconnect while parked: a receiver blocked on an empty channel is
/// woken by the last sender dropping; a sender blocked on a full
/// channel is woken by the last receiver dropping. No schedule leaves
/// either parked forever.
#[test]
fn disconnect_wakes_parked_peers() {
    let cfg = Config {
        preemption_bound: None,
        ..Config::default()
    };
    let report = check_ok(cfg, || {
        let drained = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = bounded::<usize>(1);
        let drained2 = Arc::clone(&drained);
        let t = thread::spawn(move || {
            // Receive until disconnect; count what arrived.
            while rx.recv().is_ok() {
                drained2.fetch_add(1, Ordering::SeqCst);
            }
        });
        tx.send(5).unwrap();
        tx.send(6).unwrap(); // may park on the full slot mid-drain
        drop(tx); // last sender leaves; parked receiver must wake
        t.join().unwrap();
        assert_eq!(drained.load(Ordering::SeqCst), 2);
    });
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 schedules, got {report:?}"
    );
}
