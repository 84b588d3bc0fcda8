//! A fixed-size worker thread pool with a bounded queue.
//!
//! The server parses requests on cheap per-connection reader threads and
//! executes them here, so total request concurrency (and therefore peak
//! memory: detection matrices, PODEM state) is bounded by the worker
//! count no matter how many connections are open. The queue is a
//! [`std::sync::mpsc::sync_channel`], so [`WorkerPool::submit`] blocks
//! once `queue_depth` requests are waiting — backpressure propagates to
//! the sockets instead of growing an unbounded buffer.
//!
//! Shutdown is graceful: [`WorkerPool::shutdown`] closes the queue,
//! lets the workers drain every job already accepted, and joins them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads consuming a bounded job queue.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use adi_service::WorkerPool;
///
/// let pool = WorkerPool::new(4, 16);
/// let done = Arc::new(AtomicUsize::new(0));
/// for _ in 0..100 {
///     let done = Arc::clone(&done);
///     pool.submit(move || {
///         done.fetch_add(1, Ordering::Relaxed);
///     })
///     .unwrap();
/// }
/// pool.shutdown(); // drains the queue, joins the workers
/// assert_eq!(done.load(Ordering::Relaxed), 100);
/// ```
pub struct WorkerPool {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    panics: Arc<AtomicU64>,
    queued: Arc<AtomicU64>,
}

/// Error returned when submitting to a pool whose queue is closed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("worker pool is shut down")
    }
}

impl std::error::Error for PoolClosed {}

impl WorkerPool {
    /// Spawns `workers` threads sharing a queue of at most `queue_depth`
    /// waiting jobs.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_depth` is zero.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        assert!(workers > 0, "at least one worker required");
        assert!(queue_depth > 0, "queue depth must be positive");
        let (tx, rx) = sync_channel::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let panics = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("adi-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &panics))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers: handles,
            panics,
            queued: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Enqueues `job`, blocking while the queue is full (backpressure).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolClosed> {
        let wrapped = self.count_queued(job);
        self.sender().send(wrapped).map_err(|_| {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            PoolClosed
        })
    }

    /// Counts `job` as queued until the moment a worker starts it, so
    /// [`queued`](Self::queued) reports the live backlog (the admission
    /// bound's early-warning signal — see the `stats` and `metrics`
    /// endpoints).
    fn count_queued(&self, job: impl FnOnce() + Send + 'static) -> Job {
        self.queued.fetch_add(1, Ordering::SeqCst);
        let queued = Arc::clone(&self.queued);
        Box::new(move || {
            queued.fetch_sub(1, Ordering::SeqCst);
            job();
        })
    }

    /// Jobs accepted but not yet started by a worker.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::SeqCst)
    }

    /// Shared handle to the queued-jobs count, for transports that wire
    /// the pool's backlog into the service metrics.
    pub(crate) fn queued_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.queued)
    }

    fn sender(&self) -> &SyncSender<Job> {
        self.tx.as_ref().expect("sender present until shutdown")
    }

    /// Number of jobs that panicked (the worker survives a panicking
    /// job; the count is exposed for monitoring).
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting jobs, drain everything already
    /// queued, and join the workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    /// Dropping behaves like [`shutdown`](WorkerPool::shutdown): queued
    /// jobs drain before the pool disappears. Do not drop a pool from
    /// inside one of its own jobs.
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, panics: &AtomicU64) {
    loop {
        // Hold the lock only to *receive*; run the job unlocked so the
        // other workers keep draining the queue.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a sibling panicked while receiving
        };
        match job {
            Ok(job) => {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    panics.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => return, // queue closed and drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn executes_every_submitted_job() {
        let pool = WorkerPool::new(3, 4);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let count = Arc::clone(&count);
            pool.submit(move || {
                count.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 4);
        pool.submit(|| panic!("job goes boom")).unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        pool.submit(move || {
            c.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        let t0 = std::time::Instant::now();
        while pool.panic_count() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.panic_count(), 1);
        pool.shutdown();
        assert_eq!(count.load(Ordering::Relaxed), 1, "worker survived the panic");
    }

    #[test]
    fn queued_counts_backlog_and_drains_to_zero() {
        let pool = WorkerPool::new(1, 8);
        let gate = Arc::new(Mutex::new(()));
        let hold = gate.lock().unwrap();
        let blocker = Arc::clone(&gate);
        pool.submit(move || {
            let _unused = blocker.lock();
        })
        .unwrap();
        for _ in 0..3 {
            pool.submit(|| {}).unwrap();
        }
        // The blocking job may or may not have started yet; the three
        // behind it are definitely still queued.
        let queued = pool.queued();
        assert!((3..=4).contains(&queued), "queued = {queued}");
        drop(hold);
        let t0 = std::time::Instant::now();
        while pool.queued() > 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.queued(), 0, "backlog drains once the worker unblocks");
        pool.shutdown();
    }

    #[test]
    fn drop_drains_like_shutdown() {
        let count = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2, 8);
            for _ in 0..16 {
                let count = Arc::clone(&count);
                pool.submit(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
        }
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }
}
