//! Recycled batch buffers for the streaming hot path.
//!
//! The scheduled engine's steady state is a loop over the same handful
//! of buffer shapes: a `Vec<Record>` drained out of a mailbox per
//! activation, a `Vec<Record>` of coalesced outputs per producer port,
//! the two ping-pong buffers inside a [`ChainRunner`], and the
//! `VecDeque<Record>` backing every component mailbox. None of these
//! need to be *fresh* — they are cleared before reuse — yet before this
//! module each run-task activation and each short-lived port paid the
//! allocator for them. The S-Net-vs-CnC study (arXiv:1305.7167) calls
//! out memory behaviour as the axis on which coordination runtimes win
//! or lose at scale, and S+Net (arXiv:1306.2743) argues such resource
//! concerns belong at the coordination layer — so the coordination
//! layer recycles.
//!
//! Design: one freelist per buffer shape, **thread-local first** (the
//! worker that drains a batch usually takes the next one, so the common
//! case is an uncontended `RefCell` pop), with a **bounded global
//! spill** behind a mutex for cross-thread imbalance (e.g. buffers
//! retired on the caller thread by `SchedHandle` but taken on workers).
//! Both tiers are capacity-capped, and buffers whose retained element
//! capacity exceeds [`MAX_RETAINED_CAP`] are dropped rather than pooled
//! so a one-off giant batch cannot pin its memory forever. Everything
//! is best-effort: a miss simply allocates, a full pool simply drops,
//! so correctness never depends on the pool.
//!
//! [`ChainRunner`]: crate::ChainRunner

use crate::record::Record;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Buffers retained per thread, per shape.
const LOCAL_CAP: usize = 32;
/// Buffers retained in the global spill, per shape.
const GLOBAL_CAP: usize = 256;
/// A buffer retaining more element capacity than this is dropped
/// instead of recycled (bounds the memory a quiet pool can pin).
const MAX_RETAINED_CAP: usize = 4096;

/// Cumulative counters, exposed for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take_*` calls satisfied from a freelist.
    pub hits: u64,
    /// `take_*` calls that fell through to the allocator.
    pub misses: u64,
    /// Buffers accepted back by `give_*`.
    pub recycled: u64,
    /// Buffers refused (pool full or buffer over the capacity cap).
    pub dropped: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
    }
}

/// The recyclable buffer shapes. Capacity here means *element*
/// capacity: what the buffer would keep alive while sitting idle in
/// the pool.
trait Recyclable: Sized {
    fn retained_cap(&self) -> usize;
    /// Drops contents, keeps capacity.
    fn reset(&mut self);
}

impl Recyclable for Vec<Record> {
    fn retained_cap(&self) -> usize {
        self.capacity()
    }
    fn reset(&mut self) {
        self.clear();
    }
}

impl Recyclable for VecDeque<Record> {
    fn retained_cap(&self) -> usize {
        self.capacity()
    }
    fn reset(&mut self) {
        self.clear();
    }
}

fn take_from<T: Recyclable>(
    local: &'static std::thread::LocalKey<RefCell<Vec<T>>>,
    global: &'static Mutex<Vec<T>>,
) -> Option<T> {
    if let Some(buf) = local.with(|l| l.borrow_mut().pop()) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Some(buf);
    }
    let from_global = {
        let mut g = global.lock().unwrap_or_else(|p| p.into_inner());
        g.pop()
    };
    match from_global {
        Some(buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            Some(buf)
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

fn give_to<T: Recyclable>(
    local: &'static std::thread::LocalKey<RefCell<Vec<T>>>,
    global: &'static Mutex<Vec<T>>,
    mut buf: T,
) {
    // Zero-capacity buffers carry nothing worth keeping, and oversized
    // ones would pin memory while idle.
    let cap = buf.retained_cap();
    if cap == 0 || cap > MAX_RETAINED_CAP {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    buf.reset();
    // `try_with`: a buffer owned by another thread-local (the engines'
    // per-thread chain scratch) is given back from that value's
    // destructor, which may run after this freelist's own.
    let Ok(spill) = local.try_with(move |l| {
        let mut l = l.borrow_mut();
        if l.len() < LOCAL_CAP {
            l.push(buf);
            None
        } else {
            Some(buf)
        }
    }) else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let Some(buf) = spill else {
        RECYCLED.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let mut g = global.lock().unwrap_or_else(|p| p.into_inner());
    if g.len() < GLOBAL_CAP {
        g.push(buf);
        drop(g);
        RECYCLED.fetch_add(1, Ordering::Relaxed);
    } else {
        drop(g);
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

thread_local! {
    static LOCAL_VECS: RefCell<Vec<Vec<Record>>> = const { RefCell::new(Vec::new()) };
    static LOCAL_DEQUES: RefCell<Vec<VecDeque<Record>>> = const { RefCell::new(Vec::new()) };
}
static GLOBAL_VECS: Mutex<Vec<Vec<Record>>> = Mutex::new(Vec::new());
static GLOBAL_DEQUES: Mutex<Vec<VecDeque<Record>>> = Mutex::new(Vec::new());

/// Takes a cleared `Vec<Record>` from the pool (or allocates an empty
/// one on a miss).
pub fn take_vec() -> Vec<Record> {
    take_from(&LOCAL_VECS, &GLOBAL_VECS).unwrap_or_default()
}

/// Returns a drained `Vec<Record>` to the pool. Contents (if any) are
/// dropped; the backing capacity is what gets recycled.
pub fn give_vec(buf: Vec<Record>) {
    give_to(&LOCAL_VECS, &GLOBAL_VECS, buf);
}

/// Takes a cleared `VecDeque<Record>` from the pool.
pub fn take_deque() -> VecDeque<Record> {
    take_from(&LOCAL_DEQUES, &GLOBAL_DEQUES).unwrap_or_default()
}

/// Returns a drained `VecDeque<Record>` to the pool.
pub fn give_deque(buf: VecDeque<Record>) {
    give_to(&LOCAL_DEQUES, &GLOBAL_DEQUES, buf);
}

/// A pooled `Vec<Record>` that returns itself on drop. Use where the
/// buffer's lifetime has early exits (e.g. a task activation that can
/// bail on failure); plain [`take_vec`]/[`give_vec`] is cheaper to
/// reason about where there is a single reclaim point.
#[derive(Debug)]
pub struct PooledVec(Option<Vec<Record>>);

impl PooledVec {
    /// Takes a buffer from the pool, wrapped for drop-reclaim.
    pub fn take() -> PooledVec {
        PooledVec(Some(take_vec()))
    }
}

impl std::ops::Deref for PooledVec {
    type Target = Vec<Record>;
    fn deref(&self) -> &Vec<Record> {
        self.0.as_ref().expect("buffer present until drop")
    }
}

impl std::ops::DerefMut for PooledVec {
    fn deref_mut(&mut self) -> &mut Vec<Record> {
        self.0.as_mut().expect("buffer present until drop")
    }
}

impl Drop for PooledVec {
    fn drop(&mut self) {
        if let Some(buf) = self.0.take() {
            give_vec(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn vec_round_trip_reuses_capacity() {
        let mut v = take_vec();
        v.reserve(64);
        let cap = v.capacity();
        v.push(Record::new().with_field("x", Value::Int(1)));
        give_vec(v);
        // Thread-local freelist: the very next take on this thread gets
        // the same buffer back, cleared.
        let v2 = take_vec();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap);
    }

    #[test]
    fn deque_round_trip_clears_contents() {
        let mut q = take_deque();
        q.push_back(Record::new().with_tag("t", 7));
        let cap = q.capacity();
        assert!(cap > 0);
        give_deque(q);
        let q2 = take_deque();
        assert!(q2.is_empty());
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let before = stats().dropped;
        let v: Vec<Record> = Vec::with_capacity(MAX_RETAINED_CAP + 1);
        give_vec(v);
        assert!(stats().dropped > before);
    }

    #[test]
    fn zero_capacity_buffers_are_not_retained() {
        let before = stats().dropped;
        give_vec(Vec::new());
        assert!(stats().dropped > before);
    }

    #[test]
    fn pooled_vec_reclaims_on_drop() {
        let before = stats().recycled;
        {
            let mut v = PooledVec::take();
            v.reserve(8);
            v.push(Record::new().with_field("x", Value::Int(2)));
        }
        assert!(stats().recycled > before);
    }
}
