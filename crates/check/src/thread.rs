//! Model threads: `spawn`/`JoinHandle`/`yield_now` with the `std::thread`
//! surface the models use. Spawned closures run on real OS threads but
//! only ever one at a time, under the scheduler in `exec.rs`.

use std::sync::{Arc, Mutex as StdMutex};

use crate::exec;

pub struct JoinHandle<T> {
    tid: usize,
    result: Arc<StdMutex<Option<T>>>,
}

/// Spawns a model thread. The spawn itself is a visible operation, and
/// the child is schedulable immediately — the scheduler may run it
/// before, interleaved with, or after the parent's next operation.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (ctx, parent) = exec::current();
    let (tid, token) = ctx.register_thread();
    let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let h = exec::spawn_model_thread(&ctx, tid, token, move || {
        let out = f();
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
    });
    ctx.adopt_os_handle(h);
    // The decision point *after* registration: the child may win it.
    ctx.op(parent, "thread::spawn", false);
    JoinHandle { tid, result }
}

impl<T> JoinHandle<T> {
    /// Blocks (in the model) until the thread finishes. The model
    /// aborts the whole execution on any panic, so unlike
    /// `std::thread::JoinHandle::join` this never returns `Err`.
    pub fn join(self) -> std::thread::Result<T> {
        let (ctx, tid) = exec::current();
        ctx.op(tid, "JoinHandle::join", false);
        ctx.join_block(tid, self.tid);
        let out = self
            .result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("joined model thread produced no value");
        Ok(out)
    }
}

/// A voluntary yield: switching away costs no preemption budget, and
/// the scheduler prefers to run *someone else* so spin loops make
/// progress under the default (all-zero) schedule.
pub fn yield_now() {
    let (ctx, tid) = exec::current();
    ctx.op(tid, "thread::yield_now", true);
}
