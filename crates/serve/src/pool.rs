//! A fixed worker pool over a bounded MPMC job queue.
//!
//! `std` only: the queue is a `Mutex<VecDeque>` with two condvars (one for
//! "queue not empty", one for "queue not full"). Submitting to a full queue
//! blocks the producer — backpressure, not unbounded buffering. The server
//! runs one instance, the compute pool a reactor fans a `/v1/batch` body out
//! over.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Workers currently executing a job (not parked on the queue).
    busy: AtomicUsize,
    /// Worker-thread count, fixed at construction.
    workers: usize,
}

/// A cloneable, read-only view of a pool's load: queue depth and worker
/// saturation, for gauges scraped by `/metrics`. Stays valid (reporting a
/// drained queue) after the pool itself is dropped.
#[derive(Clone)]
pub struct PoolStats {
    shared: Arc<Shared>,
}

impl PoolStats {
    /// Jobs waiting in the queue right now.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .jobs
            .len()
    }

    /// Workers currently executing a job.
    pub fn busy_workers(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Total worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }
}

/// Error returned by [`WorkerPool::submit`] after [`WorkerPool::close`]; the
/// rejected job is handed back so the caller can run it inline.
pub struct PoolClosed(pub Job);

impl std::fmt::Debug for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolClosed(..)")
    }
}

/// A fixed set of worker threads draining a bounded FIFO of jobs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (minimum 1) over a queue holding at most
    /// `capacity` pending jobs (minimum 1). `name` labels the worker threads.
    pub fn new(name: &str, threads: usize, capacity: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            busy: AtomicUsize::new(0),
            workers: threads.max(1),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn thread_count(&self) -> usize {
        self.workers.len()
    }

    /// A load-gauge handle ([`PoolStats`]) usable after the pool moves away.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Enqueues a job, blocking while the queue is full. Returns the job back
    /// inside [`PoolClosed`] when the pool has been closed.
    pub fn submit(&self, job: Job) -> Result<(), PoolClosed> {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        loop {
            if queue.closed {
                return Err(PoolClosed(job));
            }
            if queue.jobs.len() < self.shared.capacity {
                queue.jobs.push_back(job);
                drop(queue);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            queue = self
                .shared
                .not_full
                .wait(queue)
                .expect("pool queue poisoned");
        }
    }

    /// Runs `work` over every item on the pool, blocking until all results are
    /// in. Items are evaluated in parallel (bounded by the pool width); the
    /// results come back in item order. Falls back to inline evaluation for
    /// jobs rejected by a closing pool, so the call always completes.
    ///
    /// # Panics
    /// A panic inside `work` is caught on the worker (the pool stays intact
    /// and `remaining` still drains — the caller never hangs) and re-raised
    /// here once every other item has finished.
    pub fn run_batch<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let total = items.len();
        let work = Arc::new(work);
        let collector = Arc::new((Mutex::new(BatchState::<R>::new(total)), Condvar::new()));
        for (index, item) in items.into_iter().enumerate() {
            let work = Arc::clone(&work);
            let collector = Arc::clone(&collector);
            let job: Job = Box::new(move || {
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || work(item)));
                let (state, done) = &*collector;
                let mut state = state.lock().expect("batch collector poisoned");
                if let Ok(result) = outcome {
                    state.results[index] = Some(result);
                }
                state.remaining -= 1;
                if state.remaining == 0 {
                    done.notify_all();
                }
            });
            if let Err(PoolClosed(job)) = self.submit(job) {
                job();
            }
        }
        let (state, done) = &*collector;
        let mut state = state.lock().expect("batch collector poisoned");
        while state.remaining > 0 {
            state = done.wait(state).expect("batch collector poisoned");
        }
        state
            .results
            .iter_mut()
            .map(|slot| slot.take().expect("a batch job panicked"))
            .collect()
    }

    /// Closes the queue: pending jobs still run, further submissions fail.
    pub fn close(&self) {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        queue.closed = true;
        drop(queue);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.close();
        for worker in self.workers.drain(..) {
            // A worker that panicked already surfaced its panic message; the
            // drop path only reclaims the threads.
            let _ = worker.join();
        }
    }
}

struct BatchState<R> {
    results: Vec<Option<R>>,
    remaining: usize,
}

impl<R> BatchState<R> {
    fn new(total: usize) -> Self {
        Self {
            results: (0..total).map(|_| None).collect(),
            remaining: total,
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.closed {
                    return;
                }
                queue = shared.not_empty.wait(queue).expect("pool queue poisoned");
            }
        };
        shared.not_full.notify_one();
        shared.busy.fetch_add(1, Ordering::Relaxed);
        // A panicking job must not take its worker thread down with it — one
        // poisonous batch item would otherwise shrink the pool permanently. The panic message still reaches stderr via the hook.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        shared.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_batches_keep_item_order() {
        let pool = WorkerPool::new("test", 4, 2);
        assert_eq!(pool.thread_count(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        let squares = pool.run_batch((0usize..64).collect(), |x| x * x);
        assert_eq!(squares.len(), 64);
        for (i, sq) in squares.iter().enumerate() {
            assert_eq!(*sq, i * i);
        }
        // run_batch acts as a barrier for its own jobs, not the earlier ones;
        // close + drop drains everything.
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn bounded_queue_applies_backpressure_but_completes() {
        let pool = WorkerPool::new("bp", 1, 1);
        let counter = Arc::new(AtomicUsize::new(0));
        // 16 slow-ish jobs through a single worker and a 1-slot queue: the
        // submitter must block repeatedly, and every job must still run.
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                counter.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn closed_pools_reject_but_run_batch_degrades_inline() {
        let pool = WorkerPool::new("closed", 2, 4);
        pool.close();
        assert!(pool.submit(Box::new(|| {})).is_err());
        // Inline fallback: the batch still completes on the caller's thread.
        let doubled = pool.run_batch(vec![1, 2, 3], |x| x * 2);
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn stats_track_queue_depth_and_busy_workers() {
        let pool = WorkerPool::new("gauge", 1, 8);
        let stats = pool.stats();
        assert_eq!(stats.worker_count(), 1);
        assert_eq!(stats.busy_workers(), 0);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            rx.recv().unwrap();
        }))
        .unwrap();
        started_rx.recv().unwrap();
        // The single worker is now blocked inside the job: busy == 1, and a
        // second submission sits in the queue.
        assert_eq!(stats.busy_workers(), 1);
        pool.submit(Box::new(|| {})).unwrap();
        assert_eq!(stats.queue_depth(), 1);
        tx.send(()).unwrap();
        drop(pool);
        assert_eq!(stats.busy_workers(), 0);
        assert_eq!(stats.queue_depth(), 0);
    }

    #[test]
    fn empty_batches_return_immediately() {
        let pool = WorkerPool::new("empty", 1, 1);
        let none: Vec<u32> = pool.run_batch(Vec::<u32>::new(), |x| x);
        assert!(none.is_empty());
    }

    #[test]
    fn panicking_jobs_neither_kill_workers_nor_hang_batches() {
        let pool = WorkerPool::new("panic", 1, 4);
        // A panicking fire-and-forget job: the single worker must survive it.
        pool.submit(Box::new(|| panic!("poison job"))).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let after = Arc::clone(&counter);
        pool.submit(Box::new(move || {
            after.fetch_add(1, Ordering::Relaxed);
        }))
        .unwrap();
        // A batch with one panicking item: the call returns (re-raising the
        // panic) instead of hanging, and the pool still works afterwards.
        let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(vec![1u32, 2, 3], |x| {
                if x == 2 {
                    panic!("poison item");
                }
                x
            })
        }));
        assert!(batch.is_err(), "the batch panic must be re-raised");
        let doubled = pool.run_batch(vec![4u32, 5], |x| x * 2);
        assert_eq!(doubled, vec![8, 10]);
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }
}
