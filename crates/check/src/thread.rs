//! Model threads: `spawn`/`Builder`/`JoinHandle`/`yield_now` with the
//! `std::thread` surface the models and the scheduler's pool use.
//! Spawned closures run on real OS threads but only ever one at a time,
//! under the scheduler in `exec.rs`.

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
    Builder::new().spawn(f).expect("spawn model thread")
}

/// `std::thread::Builder`'s naming surface: the name goes to the OS
/// thread that carries the model thread.
#[derive(Debug, Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    pub fn new() -> Builder {
        Builder::default()
    }

    pub fn name(self, name: String) -> Builder {
        Builder { name: Some(name) }
    }

    /// [`spawn`] under this builder's name.
    pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (ctx, parent) = exec::current();
        let (tid, token) = ctx.register_thread();
        let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
        let slot = Arc::clone(&result);
        let name = self.name.unwrap_or_else(|| format!("snet-check-{tid}"));
        let h = exec::spawn_model_thread(&ctx, tid, token, name, move || {
            let out = f();
            *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        });
        ctx.adopt_os_handle(h);
        // The decision point *after* registration: the child may win it.
        ctx.op(parent, "thread::spawn", false);
        Ok(JoinHandle { tid, result })
    }
}

impl<T> JoinHandle<T> {
    /// Blocks (in the model) until the thread finishes. The model
    /// aborts the whole execution on any panic, so this returns `Err`
    /// only from a thread unwinding that abort, where a join waits for
    /// nothing.
    pub fn join(self) -> std::thread::Result<T> {
        let (ctx, tid) = exec::current();
        ctx.op(tid, "JoinHandle::join", false);
        ctx.join_block(tid, self.tid);
        let out = self.result.lock().unwrap_or_else(|e| e.into_inner()).take();
        out.ok_or_else(|| Box::new("model execution aborted before the thread finished") as _)
    }
}

/// A voluntary yield: switching away costs no preemption budget, and
/// the yielder runs again only once every other runnable thread has
/// run or yielded too, so a spin loop waits for the thread it spins on.
pub fn yield_now() {
    let (ctx, tid) = exec::current();
    ctx.op(tid, "thread::yield_now", true);
}
