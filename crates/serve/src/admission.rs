//! Admission control: a bounded FIFO queue with round-robin fairness
//! across client identities, per-client in-flight quotas, and
//! load-shedding.
//!
//! The model:
//!
//! * Every batch request becomes a **ticket**. A ticket is either
//!   *queued* (waiting for the one run slot) or *running*.
//! * Each client identity has its own FIFO; a global **round-robin
//!   cursor** walks the clients in first-seen order, granting the run
//!   slot to one non-empty queue per turn. One client flooding the queue
//!   cannot starve another: with `k` active clients, a newly arriving
//!   client waits at most `k - 1` grants before its first ticket runs.
//! * The *queued* population is bounded by `queue_depth`; beyond it
//!   requests are **shed** (HTTP 503 + `Retry-After`), never buffered.
//! * Each client may have at most `max_inflight_per_client` tickets
//!   queued + running; beyond it requests are rejected (HTTP 429).
//! * [`Admission::shutdown`] flips to draining: already-admitted
//!   tickets run to completion, new requests are shed.
//!
//! Tickets block on a condvar; [`Ticket::acquire`] returns a
//! [`RunningPermit`] whose drop releases the slot and promotes the next
//! ticket. Dropping an unacquired ticket (client disconnected while
//! queued) cleanly withdraws it.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// The global waiting queue is at `queue_depth`.
    QueueFull {
        /// The configured bound that was hit.
        depth: usize,
    },
    /// The client already has `max_inflight_per_client` tickets live.
    QuotaExceeded {
        /// The client's live (queued + running) ticket count.
        inflight: usize,
        /// The configured per-client bound.
        quota: usize,
    },
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QueueFull { depth } => {
                write!(f, "queue full ({depth} batches waiting); retry later")
            }
            Reject::QuotaExceeded { inflight, quota } => write!(
                f,
                "client has {inflight} batches in flight (quota {quota}); \
                 wait for one to finish"
            ),
            Reject::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// A live snapshot of the admission state (the `/stats` payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Tickets waiting for the run slot.
    pub queued: usize,
    /// Tickets holding the run slot (0 or 1).
    pub running: usize,
    /// Requests shed because the queue was full.
    pub shed_queue_full: usize,
    /// Requests rejected by the per-client quota.
    pub shed_quota: usize,
    /// Requests shed while draining.
    pub shed_shutdown: usize,
    /// Tickets admitted since startup.
    pub admitted: usize,
    /// Whether the controller is draining.
    pub shutting_down: bool,
}

#[derive(Debug, Default)]
struct State {
    shutting_down: bool,
    /// Clients in first-seen order — the round-robin ring.
    clients: Vec<String>,
    /// Per-client FIFO of queued ticket ids.
    queues: HashMap<String, VecDeque<u64>>,
    /// Queued + running tickets per client (the quota quantity).
    inflight: HashMap<String, usize>,
    /// The ticket holding the run slot, whether or not its waiting
    /// thread has picked it up yet.
    slot: Option<u64>,
    queued: usize,
    cursor: usize,
    next_ticket: u64,
    shed_queue_full: usize,
    shed_quota: usize,
    shed_shutdown: usize,
    admitted: usize,
}

impl State {
    /// Grants the free run slot to the next queued ticket, round-robin
    /// across clients.
    fn promote(&mut self) {
        if self.slot.is_some() || self.queued == 0 {
            return;
        }
        // Find the next client (from the cursor) with queued work.
        let n = self.clients.len();
        let (clients, queues) = (&self.clients, &mut self.queues);
        let grant = (0..n).map(|step| (self.cursor + step) % n).find_map(|idx| {
            let id = queues.get_mut(&clients[idx])?.pop_front()?;
            Some((idx, id))
        });
        debug_assert!(grant.is_some(), "queued > 0 implies some non-empty queue");
        if let Some((idx, id)) = grant {
            self.slot = Some(id);
            self.queued -= 1;
            // Deliberately not reduced modulo `n` here: a client first
            // seen *after* this grant is appended to the ring, and an
            // eagerly wrapped cursor would skip it. The scan above folds
            // with the ring size of the day.
            self.cursor = idx + 1;
        }
    }
}

/// The admission controller. Cheap to share via [`Arc`].
#[derive(Debug)]
pub struct Admission {
    queue_depth: usize,
    quota: usize,
    state: Mutex<State>,
    wake: Condvar,
}

impl Admission {
    /// A controller admitting up to `queue_depth` waiting tickets and at
    /// most `quota` live tickets per client, running one at a time. Zero
    /// values are clamped to 1.
    pub fn new(queue_depth: usize, quota: usize) -> Self {
        Admission {
            queue_depth: queue_depth.max(1),
            quota: quota.max(1),
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits a ticket for `client`, or sheds the request.
    ///
    /// # Errors
    ///
    /// [`Reject::ShuttingDown`] while draining, [`Reject::QuotaExceeded`]
    /// when the client is at its in-flight quota, [`Reject::QueueFull`]
    /// when the waiting queue is at depth. Quota is checked before queue
    /// depth so an over-quota client sees 429, not 503, even under load.
    pub fn try_enqueue(self: &Arc<Self>, client: &str) -> Result<Ticket, Reject> {
        let mut state = self.lock();
        if state.shutting_down {
            state.shed_shutdown += 1;
            return Err(Reject::ShuttingDown);
        }
        let inflight = state.inflight.get(client).copied().unwrap_or(0);
        if inflight >= self.quota {
            state.shed_quota += 1;
            return Err(Reject::QuotaExceeded {
                inflight,
                quota: self.quota,
            });
        }
        if state.queued >= self.queue_depth {
            state.shed_queue_full += 1;
            return Err(Reject::QueueFull {
                depth: self.queue_depth,
            });
        }
        let id = state.next_ticket;
        state.next_ticket += 1;
        if !state.queues.contains_key(client) {
            state.clients.push(client.to_string());
            state.queues.insert(client.to_string(), VecDeque::new());
        }
        state
            .queues
            .get_mut(client)
            .expect("just inserted")
            .push_back(id);
        *state.inflight.entry(client.to_string()).or_insert(0) += 1;
        state.queued += 1;
        state.admitted += 1;
        state.promote();
        drop(state);
        self.wake.notify_all();
        Ok(Ticket {
            admission: Arc::clone(self),
            id,
            client: client.to_string(),
            resolved: false,
        })
    }

    /// Flips to draining: admitted tickets run to completion, new
    /// requests are shed with [`Reject::ShuttingDown`].
    pub fn shutdown(&self) {
        self.lock().shutting_down = true;
        self.wake.notify_all();
    }

    /// Blocks until every ticket (queued or running) has resolved.
    /// Call after [`Admission::shutdown`] to drain.
    pub fn wait_idle(&self) {
        let mut state = self.lock();
        while state.queued > 0 || state.slot.is_some() {
            state = self.wake.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> AdmissionStats {
        let state = self.lock();
        AdmissionStats {
            queued: state.queued,
            running: usize::from(state.slot.is_some()),
            shed_queue_full: state.shed_queue_full,
            shed_quota: state.shed_quota,
            shed_shutdown: state.shed_shutdown,
            admitted: state.admitted,
            shutting_down: state.shutting_down,
        }
    }

    fn release(&self, client: &str) {
        let mut state = self.lock();
        state.slot = None;
        if let Some(count) = state.inflight.get_mut(client) {
            *count -= 1;
        }
        state.promote();
        drop(state);
        self.wake.notify_all();
    }

    fn withdraw(&self, id: u64, client: &str) {
        let mut state = self.lock();
        if state.slot == Some(id) {
            // Promoted but never picked up: it held the run slot.
            state.slot = None;
        } else {
            // Still queued: pull it out of its client's FIFO.
            if let Some(queue) = state.queues.get_mut(client) {
                if let Some(pos) = queue.iter().position(|&q| q == id) {
                    queue.remove(pos);
                    state.queued -= 1;
                }
            }
        }
        if let Some(count) = state.inflight.get_mut(client) {
            *count -= 1;
        }
        state.promote();
        drop(state);
        self.wake.notify_all();
    }
}

/// An admitted request waiting for its turn. [`Ticket::acquire`] blocks
/// until the round-robin scheduler grants a run slot.
#[derive(Debug)]
pub struct Ticket {
    admission: Arc<Admission>,
    id: u64,
    client: String,
    resolved: bool,
}

impl Ticket {
    /// Blocks until this ticket holds a run slot.
    pub fn acquire(mut self) -> RunningPermit {
        let mut state = self.admission.lock();
        while state.slot != Some(self.id) {
            state = self
                .admission
                .wake
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(state);
        self.resolved = true;
        RunningPermit {
            admission: Arc::clone(&self.admission),
            client: std::mem::take(&mut self.client),
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.resolved {
            self.admission.withdraw(self.id, &self.client);
        }
    }
}

/// The held run slot; dropping it releases the slot and promotes the
/// next queued ticket.
#[derive(Debug)]
pub struct RunningPermit {
    admission: Arc<Admission>,
    client: String,
}

impl Drop for RunningPermit {
    fn drop(&mut self) {
        self.admission.release(&self.client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_fifo_order() {
        let adm = Arc::new(Admission::new(8, 8));
        let t1 = adm.try_enqueue("a").unwrap();
        let t2 = adm.try_enqueue("a").unwrap();
        let p1 = t1.acquire(); // promoted immediately (slot free)
        assert_eq!(adm.stats().running, 1);
        assert_eq!(adm.stats().queued, 1);
        drop(p1);
        let p2 = t2.acquire();
        assert_eq!(adm.stats().running, 1);
        assert_eq!(adm.stats().queued, 0);
        drop(p2);
        assert_eq!(adm.stats().running, 0);
    }

    #[test]
    fn queue_depth_sheds_beyond_bound() {
        // First ticket takes the slot, next two wait,
        // fourth is shed (queue_depth 2 counts only *waiting* tickets).
        let adm = Arc::new(Admission::new(2, 8));
        let _t1 = adm.try_enqueue("a").unwrap();
        let _t2 = adm.try_enqueue("b").unwrap();
        let _t3 = adm.try_enqueue("c").unwrap();
        let err = adm.try_enqueue("d").unwrap_err();
        assert_eq!(err, Reject::QueueFull { depth: 2 });
        assert_eq!(adm.stats().shed_queue_full, 1);
    }

    #[test]
    fn per_client_quota_rejects_before_queue_depth() {
        let adm = Arc::new(Admission::new(64, 2));
        let _t1 = adm.try_enqueue("a").unwrap();
        let _t2 = adm.try_enqueue("a").unwrap();
        let err = adm.try_enqueue("a").unwrap_err();
        assert_eq!(
            err,
            Reject::QuotaExceeded {
                inflight: 2,
                quota: 2
            }
        );
        // A different client is unaffected.
        assert!(adm.try_enqueue("b").is_ok());
        assert_eq!(adm.stats().shed_quota, 1);
    }

    #[test]
    fn round_robin_interleaves_clients() {
        // Client a floods 3 tickets, then b submits 1. Grant order must
        // be a, b, a, a — b's first ticket is served after exactly one
        // of a's, not after all of them.
        let adm = Arc::new(Admission::new(16, 16));
        let a1 = adm.try_enqueue("a").unwrap(); // takes the slot
        let a2 = adm.try_enqueue("a").unwrap();
        let a3 = adm.try_enqueue("a").unwrap();
        let b1 = adm.try_enqueue("b").unwrap();

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (ticket, tag) in [(a2, "a2"), (a3, "a3"), (b1, "b1")] {
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let permit = ticket.acquire();
                order.lock().unwrap().push(tag);
                // Hold briefly so the grant order is observable.
                std::thread::sleep(std::time::Duration::from_millis(10));
                drop(permit);
            }));
        }
        // Give the waiters time to block, then free the slot.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(a1.acquire());
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec!["b1", "a2", "a3"]);
    }

    #[test]
    fn shutdown_sheds_new_but_drains_admitted() {
        let adm = Arc::new(Admission::new(8, 8));
        let t1 = adm.try_enqueue("a").unwrap();
        adm.shutdown();
        assert_eq!(adm.try_enqueue("b").unwrap_err(), Reject::ShuttingDown);
        assert_eq!(adm.stats().shed_shutdown, 1);
        // The admitted ticket still runs.
        let permit = t1.acquire();
        assert_eq!(adm.stats().running, 1);
        drop(permit);
        adm.wait_idle();
        assert_eq!(adm.stats().running + adm.stats().queued, 0);
    }

    #[test]
    fn dropping_a_queued_ticket_withdraws_it() {
        let adm = Arc::new(Admission::new(8, 8));
        let t1 = adm.try_enqueue("a").unwrap();
        let t2 = adm.try_enqueue("a").unwrap();
        assert_eq!(adm.stats().queued, 1);
        drop(t2); // client went away while queued
        assert_eq!(adm.stats().queued, 0);
        let inflight_after = {
            let t3 = adm.try_enqueue("a").unwrap();
            drop(t3);
            adm.stats()
        };
        assert_eq!(inflight_after.queued, 0);
        drop(t1.acquire());
        adm.wait_idle();
    }

    #[test]
    fn dropping_a_promoted_but_unacquired_ticket_frees_the_slot() {
        let adm = Arc::new(Admission::new(8, 8));
        let t1 = adm.try_enqueue("a").unwrap(); // holds the slot
        assert_eq!(adm.stats().running, 1);
        drop(t1);
        assert_eq!(adm.stats().running, 0);
        // The slot is usable again.
        let t2 = adm.try_enqueue("b").unwrap();
        drop(t2.acquire());
    }
}
