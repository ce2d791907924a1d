//! A small set of long-lived worker threads.
//!
//! Everything in a statement that fans out — a multi-service `TASK` batch, a
//! multi-service `COMMIT`/`ABORT` list, the partials of a cross-database
//! join — goes through [`WorkerSet::run`]: the caller runs the first job
//! itself and hands the other k − 1 to threads that are already parked on
//! the set's mailbox. A session keeps one set for its whole life, so after
//! the first statement of a given width no thread is created on the
//! statement path; a single job never touches a worker at all.
//!
//! There is nothing to size: the set grows to the largest number of jobs
//! ever outstanding at once and stays there until it is dropped, which joins
//! every thread.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

enum Msg {
    Run(Box<dyn FnOnce() + Send>),
    Stop,
}

struct Inner {
    mailbox: Sender<Msg>,
    /// Cloned into every worker started later.
    parked: Receiver<Msg>,
    /// Jobs handed to the mailbox and not yet finished. Raised under the
    /// `threads` lock; lowered by each job just before it reports, so a
    /// caller that has its results never counts them as still running.
    outstanding: Arc<AtomicUsize>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A handle on one worker set; clones share it. The threads are joined when
/// the last handle goes away.
#[derive(Clone)]
pub struct WorkerSet {
    inner: Arc<Inner>,
}

impl Default for WorkerSet {
    fn default() -> Self {
        WorkerSet::new()
    }
}

impl WorkerSet {
    /// An empty set: no thread exists until a [`Self::run`] needs one.
    pub fn new() -> Self {
        let (mailbox, parked) = unbounded();
        WorkerSet {
            inner: Arc::new(Inner {
                mailbox,
                parked,
                outstanding: Arc::new(AtomicUsize::new(0)),
                threads: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Threads this set has started (they live as long as the set).
    pub fn threads(&self) -> usize {
        self.inner.threads.lock().len()
    }

    /// Runs every job and returns their results in job order: the first on
    /// the calling thread, the others concurrently on parked workers. A job
    /// that panics makes this call panic with the same payload (the first in
    /// job order, once the handed jobs have all finished).
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else { return Vec::new() };
        let handed = jobs.len();
        if handed == 0 {
            return vec![first()];
        }
        self.reserve(handed);
        let (done, results) = mpsc::channel();
        for (i, job) in jobs.enumerate() {
            let done = done.clone();
            let outstanding = Arc::clone(&self.inner.outstanding);
            let run = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(job));
                outstanding.fetch_sub(1, Ordering::SeqCst);
                // The caller may be gone (its own job panicked): nobody to tell.
                let _ = done.send((i, result));
            });
            self.inner.mailbox.send(Msg::Run(run)).expect("the set holds the mailbox's receiver");
        }
        drop(done);
        let mut out = Vec::with_capacity(handed + 1);
        out.push(first());
        let mut rest: Vec<Option<std::thread::Result<T>>> = (0..handed).map(|_| None).collect();
        for (i, result) in results {
            rest[i] = Some(result);
        }
        for result in rest {
            match result.expect("every handed job reports before its channel closes") {
                Ok(value) => out.push(value),
                Err(panic) => resume_unwind(panic),
            }
        }
        out
    }

    /// Books `jobs` more jobs and makes sure a thread will be free for each:
    /// with the bookings counted under the lock that guards growth, the
    /// threads never number fewer than the jobs outstanding, so a handed job
    /// never waits behind one that is blocked.
    fn reserve(&self, jobs: usize) {
        let mut threads = self.inner.threads.lock();
        let outstanding = self.inner.outstanding.fetch_add(jobs, Ordering::SeqCst) + jobs;
        while threads.len() < outstanding {
            let parked = self.inner.parked.clone();
            let thread = std::thread::Builder::new()
                .name("dol-worker".into())
                .spawn(move || {
                    while let Ok(Msg::Run(job)) = parked.recv() {
                        job();
                    }
                })
                .expect("failed to start a worker thread");
            threads.push(thread);
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        let threads = std::mem::take(&mut *self.threads.lock());
        for _ in &threads {
            let _ = self.mailbox.send(Msg::Stop);
        }
        for thread in threads {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    fn ids(set: &WorkerSet, n: usize) -> Vec<ThreadId> {
        set.run((0..n).map(|_| || std::thread::current().id()).collect())
    }

    #[test]
    fn first_job_runs_on_the_caller_and_one_job_needs_no_thread() {
        let set = WorkerSet::new();
        assert_eq!(ids(&set, 1), vec![std::thread::current().id()]);
        assert_eq!(set.threads(), 0);
        let seen = ids(&set, 3);
        assert_eq!(seen[0], std::thread::current().id());
        assert!(seen[1..].iter().all(|id| *id != seen[0]));
        assert_eq!(set.threads(), 2);
        assert!(set.run(Vec::<fn() -> u8>::new()).is_empty());
    }

    #[test]
    fn threads_are_reused_and_grow_only_to_the_widest_call() {
        let set = WorkerSet::new();
        for _ in 0..50 {
            ids(&set, 3);
        }
        assert_eq!(set.threads(), 2);
        ids(&set, 5);
        ids(&set, 2);
        assert_eq!(set.threads(), 4);
    }

    #[test]
    fn jobs_run_concurrently_and_results_keep_job_order() {
        // Every job waits for all the others: passes only if each has its
        // own thread.
        let set = WorkerSet::new();
        let barrier = Arc::new(Barrier::new(4));
        let jobs: Vec<_> = (0..4)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                move || {
                    barrier.wait();
                    i * 10
                }
            })
            .collect();
        assert_eq!(set.run(jobs), vec![0, 10, 20, 30]);
    }

    #[test]
    fn a_call_from_inside_a_job_gets_threads_of_its_own() {
        let set = WorkerSet::new();
        let inner = set.clone();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 0), Box::new(move || ids(&inner, 2).len())];
        assert_eq!(set.run(jobs), vec![0, 2]);
    }

    #[test]
    fn a_panicking_job_panics_the_caller_and_the_set_survives() {
        let set = WorkerSet::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> =
                vec![Box::new(|| 1), Box::new(|| panic!("job failed")), Box::new(|| 3)];
            set.run(jobs)
        }));
        let payload = caught.expect_err("the job's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job failed"));
        assert_eq!(ids(&set, 3).len(), 3);
        assert_eq!(set.threads(), 2);
    }

    #[test]
    fn dropping_the_last_handle_joins_the_threads() {
        // A thread-local's destructor runs when its thread ends, which a
        // join waits for.
        struct Exit(Arc<AtomicUsize>);
        impl Drop for Exit {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static EXIT: std::cell::RefCell<Option<Exit>> = const { std::cell::RefCell::new(None) });
        let exits = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(3));
        let set = WorkerSet::new();
        let jobs: Vec<_> = (0..3)
            .map(|i| {
                let (exits, barrier) = (Arc::clone(&exits), Arc::clone(&barrier));
                move || {
                    if i > 0 {
                        EXIT.with(|slot| *slot.borrow_mut() = Some(Exit(exits)));
                    }
                    barrier.wait();
                }
            })
            .collect();
        set.run(jobs);
        let clone = set.clone();
        drop(set);
        assert_eq!((clone.threads(), exits.load(Ordering::SeqCst)), (2, 0));
        drop(clone);
        assert_eq!(exits.load(Ordering::SeqCst), 2);
    }
}
