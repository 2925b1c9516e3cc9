//! Drop-in replacements for the `std::sync` surface the `parking_lot`
//! shim and the sched mailbox path use. Under the model every access is
//! a visible operation (a potential preemption point) and blocking is
//! simulated, so the DFS driver in `lib.rs` can enumerate
//! interleavings. The signatures mirror `std::sync` closely enough that
//! both switch between the two with a pair of cfg'd `use` lines.

use std::cell::UnsafeCell;
use std::sync::atomic::Ordering;

pub use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

use crate::exec;

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model mutex. Ownership lives in a real atomic (`0` = free, else
/// owner tid + 1) so teardown — when several threads unwind at once —
/// stays race-free, but contention is *simulated*: a locker that
/// observes the mutex held parks in the scheduler until an unlock
/// marks it runnable, then re-checks.
pub struct Mutex<T: ?Sized> {
    held: std::sync::atomic::AtomicUsize,
    value: UnsafeCell<T>,
}

// SAFETY: the model scheduler runs exactly one thread at a time between
// visible operations, and `held` serializes access to `value` exactly
// like a real mutex: a `&mut T` only exists inside a `MutexGuard`,
// which is only constructed after winning `held`.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above — the guard protocol provides the mutual exclusion
// that `Sync` requires.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            held: std::sync::atomic::AtomicUsize::new(0),
            value: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.value.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        &self.held as *const _ as usize
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let (ctx, tid) = exec::current();
        loop {
            ctx.op(tid, "Mutex::lock", false);
            if self
                .held
                .compare_exchange(0, tid + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(MutexGuard { lock: self });
            }
            ctx.mutex_block(tid, self.addr());
        }
    }

    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        let (ctx, tid) = exec::current();
        ctx.op(tid, "Mutex::try_lock", false);
        if self
            .held
            .compare_exchange(0, tid + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            Ok(MutexGuard { lock: self })
        } else {
            Err(TryLockError::WouldBlock)
        }
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        // SAFETY: `&mut self` is exclusive access — no other thread can
        // observe this mutex, so no guard exists and the cell is ours.
        Ok(unsafe { &mut *self.value.get() })
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the mutex (`held` was won in `lock`/
        // `try_lock` and is only cleared in `drop`/`condvar wait`), so
        // no other reference to the value exists.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive by the mutex protocol.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.held.store(0, Ordering::SeqCst);
        if exec::in_model() {
            let (ctx, _) = exec::current();
            ctx.mutex_unlocked(self.lock.addr());
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of a timed wait. `std`'s `WaitTimeoutResult` cannot be
/// constructed outside `std`, so the façade ships its own with the same
/// `timed_out()` accessor; code that only calls `timed_out()` (all of
/// ours) compiles against either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model condvar. Waiters are tracked by the scheduler keyed on this
/// struct's address; the marker byte keeps distinct condvars at
/// distinct addresses (a ZST would let two condvars coincide).
///
/// Timed waits have *stuck-state* semantics rather than real-time
/// semantics: a timeout fires only when no thread is runnable, i.e.
/// exactly when the wait would otherwise deadlock. The per-execution
/// count of fired timeouts is exposed via [`crate::timeouts_fired`] so
/// models can assert a protocol never leaned on its timeout backstop.
pub struct Condvar {
    _marker: std::sync::atomic::AtomicU8,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            _marker: std::sync::atomic::AtomicU8::new(0),
        }
    }

    fn addr(&self) -> usize {
        &self._marker as *const _ as usize
    }

    fn wait_inner<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        timed: bool,
    ) -> (MutexGuard<'a, T>, bool) {
        let (ctx, tid) = exec::current();
        ctx.op(
            tid,
            if timed {
                "Condvar::wait_timeout"
            } else {
                "Condvar::wait"
            },
            false,
        );
        let mutex = guard.lock;
        // Release the mutex without running the guard's wake-up logic:
        // the scheduler wakes the mutex's contenders inside the same
        // critical section that parks us, making unlock-and-wait atomic
        // (the real condvar guarantee — no window for a lost wakeup).
        mutex.held.store(0, Ordering::SeqCst);
        std::mem::forget(guard);
        let mutex_addr = mutex.addr();
        let timed_out = ctx.condvar_wait(tid, self.addr(), mutex_addr, timed);
        // Re-acquire before returning, as a real condvar does.
        let guard = mutex.lock().unwrap_or_else(PoisonError::into_inner);
        (guard, timed_out)
    }

    pub fn wait<'a, T: ?Sized>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let (guard, _) = self.wait_inner(guard, false);
        Ok(guard)
    }

    pub fn wait_timeout<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        _dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let (guard, timed_out) = self.wait_inner(guard, true);
        Ok((guard, WaitTimeoutResult(timed_out)))
    }

    pub fn wait_while<'a, T: ?Sized, F: FnMut(&mut T) -> bool>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: F,
    ) -> LockResult<MutexGuard<'a, T>> {
        while condition(&mut guard) {
            guard = self.wait(guard)?;
        }
        Ok(guard)
    }

    pub fn notify_one(&self) {
        let (ctx, tid) = exec::current();
        ctx.op(tid, "Condvar::notify_one", false);
        ctx.condvar_notify(self.addr(), false);
    }

    pub fn notify_all(&self) {
        let (ctx, tid) = exec::current();
        ctx.op(tid, "Condvar::notify_all", false);
        ctx.condvar_notify(self.addr(), true);
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Arc re-export — no scheduling semantics of its own.
// ---------------------------------------------------------------------------

pub use std::sync::Arc;

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Atomics under the model: every access first yields to the scheduler
/// (a decision point), then performs the real operation SeqCst. The
/// checker therefore explores **sequentially consistent interleavings
/// only** — weaker-ordering reorderings are out of scope and covered
/// by the TSan/Miri CI lanes instead. The requested ordering is kept
/// in the trace label for readability but does not affect exploration.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::exec;

    macro_rules! model_atomic {
        ($name:ident, $std:ident, $ty:ty) => {
            #[derive(Debug, Default)]
            pub struct $name(std::sync::atomic::$std);

            impl $name {
                pub const fn new(v: $ty) -> Self {
                    Self(std::sync::atomic::$std::new(v))
                }

                fn op(desc: &'static str) {
                    let (ctx, tid) = exec::current();
                    ctx.op(tid, desc, false);
                }

                pub fn load(&self, _o: Ordering) -> $ty {
                    Self::op(concat!(stringify!($name), "::load"));
                    self.0.load(Ordering::SeqCst)
                }

                pub fn store(&self, v: $ty, _o: Ordering) {
                    Self::op(concat!(stringify!($name), "::store"));
                    self.0.store(v, Ordering::SeqCst)
                }

                pub fn swap(&self, v: $ty, _o: Ordering) -> $ty {
                    Self::op(concat!(stringify!($name), "::swap"));
                    self.0.swap(v, Ordering::SeqCst)
                }

                pub fn compare_exchange(
                    &self,
                    cur: $ty,
                    new: $ty,
                    _s: Ordering,
                    _f: Ordering,
                ) -> Result<$ty, $ty> {
                    Self::op(concat!(stringify!($name), "::compare_exchange"));
                    self.0
                        .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                }

                pub fn compare_exchange_weak(
                    &self,
                    cur: $ty,
                    new: $ty,
                    _s: Ordering,
                    _f: Ordering,
                ) -> Result<$ty, $ty> {
                    // Weak CAS spurious failure is a scheduling artifact
                    // the SC model does not reproduce; strong semantics
                    // over-approximate success, and retry loops remain
                    // correct either way.
                    Self::op(concat!(stringify!($name), "::compare_exchange_weak"));
                    self.0
                        .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                }

                pub fn get_mut(&mut self) -> &mut $ty {
                    self.0.get_mut()
                }

                pub fn into_inner(self) -> $ty {
                    self.0.into_inner()
                }
            }
        };
        ($name:ident, $std:ident, $ty:ty, arith) => {
            model_atomic!($name, $std, $ty);

            impl $name {
                pub fn fetch_add(&self, v: $ty, _o: Ordering) -> $ty {
                    Self::op(concat!(stringify!($name), "::fetch_add"));
                    self.0.fetch_add(v, Ordering::SeqCst)
                }

                pub fn fetch_sub(&self, v: $ty, _o: Ordering) -> $ty {
                    Self::op(concat!(stringify!($name), "::fetch_sub"));
                    self.0.fetch_sub(v, Ordering::SeqCst)
                }

                pub fn fetch_or(&self, v: $ty, _o: Ordering) -> $ty {
                    Self::op(concat!(stringify!($name), "::fetch_or"));
                    self.0.fetch_or(v, Ordering::SeqCst)
                }

                pub fn fetch_and(&self, v: $ty, _o: Ordering) -> $ty {
                    Self::op(concat!(stringify!($name), "::fetch_and"));
                    self.0.fetch_and(v, Ordering::SeqCst)
                }

                pub fn fetch_max(&self, v: $ty, _o: Ordering) -> $ty {
                    Self::op(concat!(stringify!($name), "::fetch_max"));
                    self.0.fetch_max(v, Ordering::SeqCst)
                }
            }
        };
    }

    model_atomic!(AtomicUsize, AtomicUsize, usize, arith);
    model_atomic!(AtomicU32, AtomicU32, u32, arith);
    model_atomic!(AtomicU64, AtomicU64, u64, arith);

    #[derive(Debug, Default)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        pub const fn new(v: bool) -> Self {
            Self(std::sync::atomic::AtomicBool::new(v))
        }

        fn yield_op(desc: &'static str) {
            let (ctx, tid) = exec::current();
            ctx.op(tid, desc, false);
        }

        pub fn load(&self, _o: Ordering) -> bool {
            Self::yield_op("AtomicBool::load");
            self.0.load(Ordering::SeqCst)
        }

        pub fn store(&self, v: bool, _o: Ordering) {
            Self::yield_op("AtomicBool::store");
            self.0.store(v, Ordering::SeqCst)
        }

        pub fn swap(&self, v: bool, _o: Ordering) -> bool {
            Self::yield_op("AtomicBool::swap");
            self.0.swap(v, Ordering::SeqCst)
        }

        pub fn compare_exchange(
            &self,
            cur: bool,
            new: bool,
            _s: Ordering,
            _f: Ordering,
        ) -> Result<bool, bool> {
            Self::yield_op("AtomicBool::compare_exchange");
            self.0
                .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
        }

        pub fn get_mut(&mut self) -> &mut bool {
            self.0.get_mut()
        }

        pub fn into_inner(self) -> bool {
            self.0.into_inner()
        }
    }
}
