//! The one thread lifecycle: every long-lived thread in the workspace is a
//! [`Worker`], which only names, joins and carries a panic home. Workers
//! talk over [`crate::spsc`] rings, whose one wait is also how they idle.

use std::thread::{self, JoinHandle};

/// A named thread, joined when dropped. [`join`](Worker::join) hands back
/// its result or its panic payload, so each caller keeps its own panic
/// policy; dropping an unjoined worker joins it and re-raises its panic,
/// unless the dropping thread is already unwinding (that would abort).
#[derive(Debug)]
pub struct Worker<R> {
    /// `None` only inside `join`, which consumes the worker.
    handle: Option<JoinHandle<R>>,
}

impl<R: Send + 'static> Worker<R> {
    /// Runs `f` on a new thread called `name` (Linux keeps its first 15
    /// bytes); `Err` if the OS refused the thread.
    pub fn spawn(name: &str, f: impl FnOnce() -> R + Send + 'static) -> std::io::Result<Self> {
        let handle = thread::Builder::new().name(name.into()).spawn(f)?;
        Ok(Self {
            handle: Some(handle),
        })
    }
}

impl<R> Worker<R> {
    /// `true` once the thread's closure has returned or panicked.
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_some_and(JoinHandle::is_finished)
    }

    /// Waits for the thread: its return value, or its panic payload.
    pub fn join(mut self) -> thread::Result<R> {
        self.handle
            .take()
            .expect("only `join` takes the handle, and it consumes the worker")
            .join()
    }
}

impl<R> Drop for Worker<R> {
    fn drop(&mut self) {
        if let Some(Err(panic)) = self.handle.take().map(JoinHandle::join) {
            if !thread::panicking() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Builds a worker that panics with `message`, already finished.
    fn panicked(message: &'static str) -> Worker<()> {
        let worker = Worker::spawn("ss-test-panic", move || panic!("{message}")).expect("spawns");
        while !worker.is_finished() {
            thread::yield_now();
        }
        worker
    }

    #[test]
    fn the_thread_carries_its_name() {
        let name = Worker::spawn("ss-test-name", || {
            thread::current().name().map(String::from)
        })
        .expect("spawns")
        .join()
        .expect("returns");
        assert_eq!(name.as_deref(), Some("ss-test-name"));
    }

    #[test]
    fn join_returns_the_value_or_the_panic() {
        let worker = Worker::spawn("ss-test-value", || 6 * 7).expect("spawns");
        assert_eq!(worker.join().expect("returns"), 42);
        let payload = panicked("the worker broke").join().expect_err("panicked");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted payload");
        assert_eq!(message, "the worker broke");
    }

    #[test]
    fn drop_joins() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = Worker::spawn("ss-test-drop", move || {
            thread::sleep(std::time::Duration::from_millis(20));
            tx.send(()).expect("the test thread is listening");
        })
        .expect("spawns");
        drop(worker);
        assert!(
            rx.try_recv().is_ok(),
            "the thread finished before drop returned"
        );
    }

    #[test]
    fn drop_re_raises_a_panic_on_a_healthy_thread() {
        let worker = panicked("carried home");
        let payload = catch_unwind(AssertUnwindSafe(|| drop(worker))).expect_err("re-raised");
        let message = payload
            .downcast_ref::<String>()
            .expect("the worker's own payload");
        assert_eq!(message, "carried home");
    }

    #[test]
    fn drop_while_unwinding_does_not_panic_twice() {
        let worker = panicked("swallowed");
        // Had the drop re-raised during this unwind, the process would
        // abort; reaching the assert is the test.
        let payload = catch_unwind(AssertUnwindSafe(move || {
            let _worker = worker;
            panic!("the dropping thread's own panic");
        }))
        .expect_err("unwound");
        let message = payload.downcast_ref::<&str>().expect("a literal payload");
        assert_eq!(*message, "the dropping thread's own panic");
    }
}
