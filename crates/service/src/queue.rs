//! Bounded three-band priority queue with per-client round-robin fairness.
//!
//! Admission control's data structure: [`push`](FairQueue::push) fails fast
//! with [`PushError::QueueFull`] when the global bound is hit (the service turns that
//! into a typed `Rejected { retry_after }`), and
//! [`pop`](FairQueue::pop) blocks workers until work or shutdown.
//!
//! Fairness: each band keeps one FIFO lane per client and rotates among
//! them, so a client that floods the queue only ever delays itself — the
//! paper's skew pathology, transplanted to the serving layer, is exactly
//! "one hot client starves the rest", and the rotation is the analogue of
//! routing hot keys through their own code path.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::request::Priority;

/// Push failure: the queue is at capacity (load shedding) or shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The global bound is reached; shed load.
    QueueFull {
        /// Entries currently queued (== capacity).
        depth: usize,
    },
    /// [`FairQueue::close`] was called; no further work is accepted.
    Closed,
}

/// One band: per-client FIFO lanes, rotated round-robin. Linear client
/// scans are fine — the lane count is the number of *distinct clients in
/// flight*, not the queue depth.
struct Band<T> {
    lanes: VecDeque<(String, VecDeque<T>)>,
}

impl<T> Band<T> {
    fn new() -> Self {
        Self {
            lanes: VecDeque::new(),
        }
    }

    fn push(&mut self, client: &str, item: T) {
        if let Some((_, lane)) = self.lanes.iter_mut().find(|(c, _)| c == client) {
            lane.push_back(item);
        } else {
            let mut lane = VecDeque::new();
            lane.push_back(item);
            self.lanes.push_back((client.to_string(), lane));
        }
    }

    /// Pops from the front lane, then rotates it to the back (or drops it
    /// when empty) so the next pop serves the next client.
    fn pop(&mut self) -> Option<T> {
        let (client, mut lane) = self.lanes.pop_front()?;
        let item = lane.pop_front();
        if !lane.is_empty() {
            self.lanes.push_back((client, lane));
        }
        item
    }
}

struct Inner<T> {
    bands: [Band<T>; 3],
    len: usize,
    closed: bool,
}

/// The bounded fair priority queue. All methods are `&self`; share it in an
/// `Arc` between submitters and workers.
pub struct FairQueue<T> {
    inner: Mutex<Inner<T>>,
    readable: Condvar,
    capacity: usize,
}

impl<T> FairQueue<T> {
    /// A queue admitting at most `capacity` entries (min 1) across all
    /// bands.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                bands: [Band::new(), Band::new(), Band::new()],
                len: 0,
                closed: false,
            }),
            readable: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues without blocking; fails fast when full or closed.
    pub fn push(&self, priority: Priority, client: &str, item: T) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.len >= self.capacity {
            return Err(PushError::QueueFull { depth: inner.len });
        }
        inner.bands[priority.index()].push(client, item);
        inner.len += 1;
        drop(inner);
        self.readable.notify_one();
        Ok(())
    }

    /// Blocks until an entry is available (highest band first, clients
    /// rotated within a band) or the queue is closed *and* drained, which
    /// returns `None` — the workers' exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = Self::pop_locked(&mut inner) {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .readable
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Like [`pop`](Self::pop) with a bound on the wait; `None` may then
    /// also mean "timed out while open" — callers distinguish via
    /// [`is_closed`](Self::is_closed).
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut inner = self.lock();
        if let Some(item) = Self::pop_locked(&mut inner) {
            return Some(item);
        }
        if inner.closed {
            return None;
        }
        let (mut inner, _) = self
            .readable
            .wait_timeout(inner, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Self::pop_locked(&mut inner)
    }

    fn pop_locked(inner: &mut Inner<T>) -> Option<T> {
        for band in inner.bands.iter_mut() {
            if let Some(item) = band.pop() {
                inner.len -= 1;
                return Some(item);
            }
        }
        None
    }

    /// Closes the queue: pushes fail, blocked pops wake. Queued entries
    /// remain poppable (or use [`drain`](Self::drain) to reap them).
    pub fn close(&self) {
        self.lock().closed = true;
        self.readable.notify_all();
    }

    /// Removes and returns everything still queued, in dequeue order.
    pub fn drain(&self) -> Vec<T> {
        let mut inner = self.lock();
        let mut out = Vec::with_capacity(inner.len);
        while let Some(item) = Self::pop_locked(&mut inner) {
            out.push(item);
        }
        out
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Maximum entries the queue admits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bands_dequeue_in_priority_order() {
        let q = FairQueue::new(16);
        q.push(Priority::Low, "a", 3).unwrap();
        q.push(Priority::Normal, "a", 2).unwrap();
        q.push(Priority::High, "a", 1).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn clients_rotate_within_a_band() {
        let q = FairQueue::new(16);
        // Client "hog" floods before "meek" submits one request.
        for i in 0..4 {
            q.push(Priority::Normal, "hog", ("hog", i)).unwrap();
        }
        q.push(Priority::Normal, "meek", ("meek", 0)).unwrap();
        let order: Vec<&str> = (0..5).map(|_| q.pop().unwrap().0).collect();
        // "meek" is served second, not fifth.
        assert_eq!(order[1], "meek");
        assert_eq!(order.iter().filter(|c| **c == "hog").count(), 4);
    }

    #[test]
    fn capacity_bound_sheds_load() {
        let q = FairQueue::new(2);
        q.push(Priority::Normal, "a", 1).unwrap();
        q.push(Priority::Normal, "b", 2).unwrap();
        assert_eq!(
            q.push(Priority::High, "c", 3),
            Err(PushError::QueueFull { depth: 2 })
        );
        q.pop().unwrap();
        q.push(Priority::High, "c", 3).unwrap();
    }

    #[test]
    fn close_wakes_blocked_workers_and_rejects_pushes() {
        let q: Arc<FairQueue<u32>> = Arc::new(FairQueue::new(4));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the worker a moment to block, then close.
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(worker.join().unwrap(), None);
        assert_eq!(q.push(Priority::Normal, "a", 1), Err(PushError::Closed));
    }

    #[test]
    fn drain_reaps_everything_in_dequeue_order() {
        let q = FairQueue::new(8);
        q.push(Priority::Low, "a", 30).unwrap();
        q.push(Priority::High, "a", 10).unwrap();
        q.push(Priority::Normal, "b", 20).unwrap();
        q.close();
        assert_eq!(q.drain(), vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_timeout_returns_none_while_open() {
        let q: FairQueue<u32> = FairQueue::new(2);
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), None);
        assert!(!q.is_closed());
    }
}
