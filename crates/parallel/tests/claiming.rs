//! The work-claiming launch contract: a launch never waits for a worker that
//! is busy elsewhere, never runs on more than `width` threads, and runs every
//! task exactly once even with stale offers left in the workers' inboxes.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Duration;
use xplace_parallel::WorkerPool;

/// How long a held worker waits for its release before giving up. A pool
/// that makes a launch wait behind a busy worker stalls for this long and
/// then fails the test instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(5);

/// A one-shot signal with a bounded wait.
struct Flag(Mutex<bool>, Condvar);

impl Flag {
    fn new() -> Self {
        Self(Mutex::new(false), Condvar::new())
    }

    fn raise(&self) {
        *self.0.lock().unwrap() = true;
        self.1.notify_all();
    }

    /// Whether the flag was raised within `PATIENCE`.
    fn wait(&self) -> bool {
        let raised = self.0.lock().unwrap();
        *self
            .1
            .wait_timeout_while(raised, PATIENCE, |r| !*r)
            .unwrap()
            .0
    }
}

fn on_pool_worker() -> bool {
    thread::current()
        .name()
        .is_some_and(|name| name.starts_with("xplace-worker-"))
}

/// Runs `body` on the caller of a two-task, width-2 launch while `pool`'s
/// only worker is held inside the launch's other task, then releases the
/// worker. Returns `body`'s value and whether the worker saw its release
/// (`false`: it gave up after `PATIENCE`, so `body` was stuck behind it).
fn with_worker_held<R: Send>(pool: &WorkerPool, body: impl Fn() -> R + Sync) -> (R, bool) {
    assert_eq!(
        pool.threads(),
        2,
        "the helper must be the pool's only worker"
    );
    let busy = Flag::new();
    let release = Flag::new();
    let roles = pool.run(2, 2, |_| {
        if on_pool_worker() {
            busy.raise();
            Err(release.wait())
        } else {
            assert!(busy.wait(), "the worker never picked up its task");
            let value = body();
            release.raise();
            Ok(value)
        }
    });
    let mut value = None;
    let mut released = None;
    for role in roles {
        match role {
            Ok(v) => value = Some(v),
            Err(r) => released = Some(r),
        }
    }
    (
        value.expect("the caller ran one task"),
        released.expect("the worker ran one task"),
    )
}

#[test]
fn launch_completes_while_its_only_helper_is_busy() {
    let pool = WorkerPool::new(2);
    let (sum, released) = with_worker_held(&pool, || pool.run(64, 2, |i| i).iter().sum::<usize>());
    assert_eq!(sum, (0..64).sum::<usize>());
    assert!(
        released,
        "the caller's launch waited for the busy worker instead of running its tasks"
    );
}

#[test]
fn no_launch_runs_on_more_than_width_threads() {
    let pool = WorkerPool::new(4);
    for width in 1..=4 {
        for _ in 0..10 {
            let seen = Mutex::new(HashSet::new());
            pool.run(32, width, |_| {
                seen.lock().unwrap().insert(thread::current().id());
                // Long enough for every woken worker to claim some indices.
                thread::sleep(Duration::from_micros(100));
            });
            let threads = seen.into_inner().unwrap().len();
            assert!(
                threads <= width,
                "a width-{width} launch ran on {threads} threads"
            );
        }
    }
}

#[test]
fn tasks_run_exactly_once_with_stale_offers_queued() {
    const LAUNCHES: usize = 1000;
    const TASKS: usize = 8;
    let pool = WorkerPool::new(2);
    let counts: Vec<AtomicUsize> = (0..LAUNCHES * TASKS).map(|_| AtomicUsize::new(0)).collect();
    // Every launch offers itself to the held worker and finishes on the
    // caller, so its offer is dead: the next launch's push drops it, and
    // the worker pops the last one once released.
    let ((), released) = with_worker_held(&pool, || {
        for launch in 0..LAUNCHES {
            let got = pool.run(TASKS, 2, |i| {
                counts[launch * TASKS + i].fetch_add(1, Ordering::Relaxed);
                launch * TASKS + i
            });
            let want: Vec<usize> = (0..TASKS).map(|i| launch * TASKS + i).collect();
            assert_eq!(got, want, "launch {launch} returned out of task order");
        }
    });
    assert!(released, "the launches waited for the busy worker");
    // Fresh launches interleave with the worker draining the stale offers.
    for _ in 0..50 {
        let fresh: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        pool.run(32, 2, |i| fresh[i].fetch_add(1, Ordering::Relaxed));
        assert!(fresh.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
    // Dropping the pool joins the worker after it has popped every offer.
    drop(pool);
    for (slot, count) in counts.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "launch {} task {} ran a wrong count",
            slot / TASKS,
            slot % TASKS
        );
    }
}
