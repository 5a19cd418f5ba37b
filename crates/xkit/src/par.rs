//! Scoped worker pools over `std::thread::scope` + `std::sync::Mutex`,
//! plus the long-lived [`Pool`] the serve daemon shards tenants across.
//!
//! The helpers here preserve *input order* in their outputs no matter how
//! the work is scheduled across threads, so a parallel run is observably
//! identical to a sequential one — the property every determinism test in
//! the workspace leans on.
//!
//! This module and `xkit::obs::http` are the only places allowed to start
//! a thread, scoped or not (`repro lint` enforces `thread-spawn-fence`
//! on `thread::spawn`, `thread::scope` and `thread::Builder`); everything
//! else either borrows a scoped helper or submits to a [`Pool`].

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Barrier, Condvar, Mutex, PoisonError};

/// Number of worker threads the machine can usefully run.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolve a `--threads` style request: `0` means "use all cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Map `f` over `items` on up to `threads` scoped workers, returning the
/// results in input order.
///
/// `f` receives `(index, item)`. Work is dealt from a shared queue, so
/// uneven item costs balance automatically; results land by index, so the
/// output never depends on scheduling. `threads <= 1` degrades to a plain
/// sequential map with no thread spawns.
pub fn par_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = resolve_threads(threads).min(n.max(1));
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = queue.lock().unwrap().pop_front();
                let Some((i, item)) = job else { break };
                let out = f(i, item);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

/// Run two independent closures on separate threads and return both
/// results. Degrades to sequential calls when `threads <= 1`.
pub fn join<A, B, FA, FB>(threads: usize, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if resolve_threads(threads) <= 1 {
        return (fa(), fb());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(fb);
        let a = fa();
        (a, hb.join().expect("join worker panicked"))
    })
}

/// Advance every item in rounds, in lock-step: each round runs
/// `step(item)` once per item, in parallel, and then `between` once on
/// the caller's thread with every item in input order. The rounds stop
/// when `between` returns `false`.
///
/// `min(threads, items)` workers, the caller's thread among them, persist
/// across rounds (item `k` always steps on worker `k % workers`), so a
/// long run spawns threads once, not once per round; no round allocates.
/// `threads <= 1` or a single item spawns nothing: every step runs on the
/// caller's thread. A panicking step is re-raised on the caller once its
/// round ends.
pub fn lockstep<T, F, G>(threads: usize, items: &mut [T], step: F, mut between: G)
where
    T: Send,
    F: Fn(&mut T) + Sync,
    G: FnMut(&mut [&mut T]) -> bool,
{
    let n = items.len();
    let workers = resolve_threads(threads).clamp(1, n.max(1));
    // Items travel between the caller and the workers through one slot
    // each; a step that panics poisons its slot's lock and leaves the slot
    // itself as it was. The barrier opens and closes every round; opened
    // on empty slots, it stops the workers.
    let slots: Vec<Mutex<Option<&mut T>>> = items.iter_mut().map(|item| Mutex::new(Some(item))).collect();
    let slot = |k: usize| slots[k].lock().unwrap_or_else(PoisonError::into_inner);
    let steps = |w: usize| {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            for k in (w..n).step_by(workers) {
                step(slot(k).as_mut().expect("every slot is filled while a round runs"));
            }
        }))
    };
    let barrier = Barrier::new(workers);
    let failed = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 1..workers {
            let (slot, steps, barrier, failed) = (&slot, &steps, &barrier, &failed);
            scope.spawn(move || loop {
                barrier.wait();
                if slot(w).is_none() {
                    return;
                }
                if let Err(payload) = steps(w) {
                    *failed.lock().expect("nothing panics holding it") = Some(payload);
                }
                barrier.wait();
            });
        }
        let _stop = OpenOnDrop(&barrier);
        let mut refs = Vec::with_capacity(n);
        loop {
            barrier.wait();
            let own = steps(0);
            barrier.wait();
            refs.extend((0..n).filter_map(|k| slot(k).take()));
            if let Some(payload) = own.err().or_else(|| failed.lock().expect("nothing panics holding it").take()) {
                std::panic::resume_unwind(payload);
            }
            if !between(&mut refs) {
                return;
            }
            for (k, item) in refs.drain(..).enumerate() {
                *slot(k) = Some(item);
            }
        }
    });
}

/// Opens a barrier once more when dropped: how [`lockstep`] stops its
/// workers.
struct OpenOnDrop<'a>(&'a Barrier);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    active: usize,
    stop: bool,
    panicked: u64,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for jobs (or stop).
    work: Condvar,
    /// [`Pool::wait_idle`] parks here waiting for quiescence.
    idle: Condvar,
}

/// A long-lived worker pool with a shared FIFO job queue — the execution
/// substrate for the multi-tenant serve daemon, where tenant streams
/// outlive any one scoped region.
///
/// Unlike the scoped helpers above, jobs are detached `FnOnce`s with no
/// return channel: results travel through whatever the job closes over
/// (the daemon publishes into per-tenant `ObsHub`s). [`wait_idle`]
/// blocks until the queue is empty *and* every worker is parked, which
/// is the daemon's drain barrier. A job that panics is contained: the
/// worker survives, the panic is counted, and [`panicked`] reports it.
///
/// [`wait_idle`]: Pool::wait_idle
/// [`panicked`]: Pool::panicked
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool of `resolve_threads(threads)` workers (min 1).
    pub fn new(threads: usize) -> Pool {
        let workers = resolve_threads(threads).max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                active: 0,
                stop: false,
                panicked: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("par-pool-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers: handles }
    }

    /// Enqueue a job. Panics if the pool is already shut down (a
    /// programming error, not a runtime condition).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut st = self.lock();
        assert!(!st.stop, "submit on a shut-down pool");
        st.queue.push_back(Box::new(job));
        drop(st);
        self.shared.work.notify_one();
    }

    /// Block until the queue is empty and no job is running. This is
    /// the drain barrier: jobs submitted *during* the wait extend it.
    pub fn wait_idle(&self) {
        let mut st = self.lock();
        while !(st.queue.is_empty() && st.active == 0) {
            st = self
                .shared
                .idle
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Jobs that panicked since the pool started (contained, workers
    /// survive).
    pub fn panicked(&self) -> u64 {
        self.lock().panicked
    }

    /// Stop the workers and join them. Queued-but-unstarted jobs are
    /// abandoned — call [`wait_idle`](Pool::wait_idle) first to drain.
    /// Also runs on drop; idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.lock();
            st.stop = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut st = shared
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    loop {
        if let Some(job) = st.queue.pop_front() {
            st.active += 1;
            drop(st);
            // Contain panics so one bad tenant can't wedge the pool:
            // the worker survives and wait_idle still terminates.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            st = shared
                .state
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st.active -= 1;
            if outcome.is_err() {
                st.panicked += 1;
            }
            if st.queue.is_empty() && st.active == 0 {
                shared.idle.notify_all();
            }
        } else if st.stop {
            return;
        } else {
            st = shared
                .work
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(threads, items.clone(), |_, x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_passes_indices() {
        let got = par_map(4, vec!["a", "b", "c"], |i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(8, Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(par_map(8, vec![5], |_, x| x + 1), vec![6]);
    }

    #[test]
    fn work_is_actually_distributed() {
        let seen = AtomicUsize::new(0);
        let _ = par_map(4, (0..100).collect(), |_, i: usize| {
            seen.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(seen.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn join_runs_both() {
        for threads in [1, 2] {
            let (a, b) = join(threads, || 2 + 2, || "ok".to_string());
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    /// Each item logs its steps (`s`) and the rounds' ends (`b`); the
    /// logs and the items' values are the same at every width.
    #[test]
    fn lockstep_rounds_agree_at_any_width() {
        let run = |threads| {
            let mut items: Vec<(usize, u64, String)> = (0..5).map(|k| (k, k as u64, String::new())).collect();
            let mut rounds = 0;
            lockstep(
                threads,
                &mut items,
                |(at, value, log)| {
                    *value = value.wrapping_mul(31).wrapping_add((*at + log.len()) as u64);
                    log.push('s');
                },
                |items| {
                    for (k, (at, _, log)) in items.iter_mut().enumerate() {
                        assert_eq!(*at, k, "the items come back in input order");
                        log.push('b');
                    }
                    rounds += 1;
                    rounds < 4
                },
            );
            items
        };
        let one = run(1);
        assert!(one.iter().all(|(_, _, log)| log == "sbsbsbsb"), "{one:?}");
        for threads in [2, 8] {
            assert_eq!(run(threads), one, "threads={threads}");
        }
    }

    #[test]
    fn lockstep_reraises_a_panicking_step() {
        for threads in [1, 2, 8] {
            let mut items: Vec<u32> = (0..4).collect();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                lockstep(threads, &mut items, |k| assert_ne!(*k, 2, "step 2 fails"), |_| true)
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains("step 2 fails"), "threads={threads}: {message}");
            // A panicking `between` leaves no worker parked either.
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                lockstep(threads, &mut items, |_| {}, |_| panic!("between fails"))
            }));
            assert!(caught.is_err(), "threads={threads}");
        }
    }

    /// Which threads ran the steps, counted by their ids: the caller's
    /// alone when nothing may be spawned, the caller's and `threads - 1`
    /// others otherwise.
    #[test]
    fn lockstep_spawns_only_when_there_is_parallel_work() {
        let step_threads = |threads, n| {
            let mut items: Vec<Vec<std::thread::ThreadId>> = vec![Vec::new(); n];
            let mut rounds = 0;
            lockstep(threads, &mut items, |seen| seen.push(std::thread::current().id()), |_| {
                rounds += 1;
                rounds < 3
            });
            let mut ids: Vec<_> = items.into_iter().flatten().collect();
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            ids
        };
        let caller = std::thread::current().id();
        for (threads, n) in [(1, 4), (0, 1), (8, 1), (1, 1)] {
            assert_eq!(step_threads(threads, n), [caller], "threads={threads} items={n}");
        }
        let two = step_threads(2, 4);
        assert_eq!(two.len(), 2, "two workers for four items");
        assert!(two.contains(&caller), "the caller is one of them");
        assert_eq!(step_threads(8, 3).len(), 3, "never more workers than items");
    }

    #[test]
    fn zero_means_all_cores() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn pool_runs_every_job_and_drains() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let done = Arc::new(AtomicUsize::new(0));
            for _ in 0..100 {
                let done = Arc::clone(&done);
                pool.submit(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait_idle();
            assert_eq!(done.load(Ordering::Relaxed), 100, "threads={threads}");
            assert_eq!(pool.panicked(), 0);
        }
    }

    #[test]
    fn pool_wait_idle_covers_in_flight_jobs() {
        // A job that submits another job: wait_idle must cover both.
        let pool = Arc::new(Pool::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = Arc::clone(&done);
            let inner_done = Arc::clone(&done);
            let pool2 = Arc::clone(&pool);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
                pool2.submit(move || {
                    inner_done.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_contains_panicking_jobs() {
        let pool = Pool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("bad tenant"));
        for _ in 0..10 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 10, "workers survive a panic");
        assert_eq!(pool.panicked(), 1);
    }

    #[test]
    fn pool_shutdown_is_idempotent_and_drop_safe() {
        let mut pool = Pool::new(2);
        pool.submit(|| {});
        pool.wait_idle();
        pool.shutdown();
        pool.shutdown();
        drop(pool);
    }
}
