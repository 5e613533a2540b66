//! The memory governor: a global byte budget that every admitted query
//! reserves its estimated footprint against before executing.
//!
//! Reservation sizes come from the plan [`skewjoin::planner::fit_to_budget`]
//! returns, priced by `estimate_join_memory` — a deliberate
//! over-approximation, so the governor queues queries that might have
//! squeaked by rather than admitting one that OOMs the process.
//! Reservations are RAII: dropping a [`Reservation`] releases the bytes and
//! wakes waiters, so no error path can leak budget.
//!
//! Alongside the memory pool the governor can carry a **scratch-disk pool**
//! for spilled joins (see [`MemoryGovernor::with_disk`]). Disk reservations
//! follow the same contract — blocking waits, cancellation-aware, RAII
//! release — against an independent budget, so an over-budget join that
//! degrades to the grace-hash spill rung reserves its bounded working set
//! from memory *and* its scratch footprint from disk before touching either.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use skewjoin::common::CancelToken;

/// Which of the governor's two budgets a reservation draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Memory,
    Disk,
}

#[derive(Default)]
struct PoolState {
    in_use: u64,
    peak: u64,
}

struct State {
    mem: PoolState,
    disk: PoolState,
    /// Reservation requests currently blocked in a wait loop (either pool).
    /// The service derives its `retry_after` hint from this: a deep wait
    /// queue means freed budget will be contended, so rejected clients
    /// should back off longer.
    waiters: u64,
}

/// Why a reservation could not be granted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReserveError {
    /// The request alone exceeds the whole budget — waiting can never help.
    ExceedsBudget {
        /// Bytes requested.
        requested: u64,
        /// The governor's total budget.
        budget: u64,
    },
    /// The wait was cancelled (or its deadline expired) before space freed
    /// up.
    Cancelled,
}

/// A global memory budget (and optional scratch-disk budget) with blocking
/// reservations.
pub struct MemoryGovernor {
    budget: u64,
    disk_budget: u64,
    state: Mutex<State>,
    freed: Condvar,
}

impl MemoryGovernor {
    /// A governor over `budget` bytes of memory, with no disk pool: every
    /// disk reservation fails fast with [`ReserveError::ExceedsBudget`].
    pub fn new(budget: u64) -> Arc<Self> {
        Self::with_disk(budget, 0)
    }

    /// A governor over `budget` bytes of memory and `disk_budget` bytes of
    /// spill scratch space.
    pub fn with_disk(budget: u64, disk_budget: u64) -> Arc<Self> {
        Arc::new(Self {
            budget,
            disk_budget,
            state: Mutex::new(State {
                mem: PoolState::default(),
                disk: PoolState::default(),
                waiters: 0,
            }),
            freed: Condvar::new(),
        })
    }

    /// Reserves `bytes` of memory, blocking while the budget is fully
    /// committed. Checks `cancel` (including its deadline) each time the
    /// wait wakes, so a cancelled query stops queuing instead of holding a
    /// worker.
    pub fn reserve(
        self: &Arc<Self>,
        bytes: u64,
        cancel: &CancelToken,
    ) -> Result<Reservation, ReserveError> {
        self.reserve_in(Pool::Memory, bytes, cancel)
    }

    /// Non-blocking variant of [`reserve`](Self::reserve): `None` when the
    /// bytes are not available right now (including the never-fits case).
    pub fn try_reserve(self: &Arc<Self>, bytes: u64) -> Option<Reservation> {
        self.try_reserve_in(Pool::Memory, bytes)
    }

    /// Reserves `bytes` of scratch-disk space, blocking like
    /// [`reserve`](Self::reserve). With no disk pool configured this fails
    /// fast with [`ReserveError::ExceedsBudget`] (budget 0).
    pub fn reserve_disk(
        self: &Arc<Self>,
        bytes: u64,
        cancel: &CancelToken,
    ) -> Result<Reservation, ReserveError> {
        self.reserve_in(Pool::Disk, bytes, cancel)
    }

    /// Non-blocking variant of [`reserve_disk`](Self::reserve_disk).
    pub fn try_reserve_disk(self: &Arc<Self>, bytes: u64) -> Option<Reservation> {
        self.try_reserve_in(Pool::Disk, bytes)
    }

    fn reserve_in(
        self: &Arc<Self>,
        pool: Pool,
        bytes: u64,
        cancel: &CancelToken,
    ) -> Result<Reservation, ReserveError> {
        let budget = self.budget_of(pool);
        if bytes > budget {
            return Err(ReserveError::ExceedsBudget {
                requested: bytes,
                budget,
            });
        }
        let mut state = self.lock();
        let mut waiting = false;
        let result = loop {
            if cancel.is_cancelled() {
                break Err(ReserveError::Cancelled);
            }
            let p = State::pool_mut(&mut state, pool);
            if budget - p.in_use >= bytes {
                p.in_use += bytes;
                p.peak = p.peak.max(p.in_use);
                break Ok(Reservation {
                    governor: Arc::clone(self),
                    pool,
                    bytes,
                });
            }
            if !waiting {
                waiting = true;
                state.waiters += 1;
            }
            // Wake periodically even without a release so deadline expiry
            // is noticed; releases notify immediately.
            let (next, _) = self
                .freed
                .wait_timeout(state, Duration::from_millis(10))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
        };
        if waiting {
            state.waiters -= 1;
        }
        result
    }

    fn try_reserve_in(self: &Arc<Self>, pool: Pool, bytes: u64) -> Option<Reservation> {
        let budget = self.budget_of(pool);
        if bytes > budget {
            return None;
        }
        let mut state = self.lock();
        let p = State::pool_mut(&mut state, pool);
        if budget - p.in_use >= bytes {
            p.in_use += bytes;
            p.peak = p.peak.max(p.in_use);
            Some(Reservation {
                governor: Arc::clone(self),
                pool,
                bytes,
            })
        } else {
            None
        }
    }

    fn budget_of(&self, pool: Pool) -> u64 {
        match pool {
            Pool::Memory => self.budget,
            Pool::Disk => self.disk_budget,
        }
    }

    /// Total memory budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Total scratch-disk budget in bytes (0 when no disk pool exists).
    pub fn disk_budget(&self) -> u64 {
        self.disk_budget
    }

    /// Memory bytes currently reserved.
    pub fn occupancy(&self) -> u64 {
        self.lock().mem.in_use
    }

    /// High-water mark of [`occupancy`](Self::occupancy) — the acceptance
    /// criterion "peak governor occupancy ≤ budget" reads this.
    pub fn peak(&self) -> u64 {
        self.lock().mem.peak
    }

    /// Scratch-disk bytes currently reserved.
    pub fn disk_occupancy(&self) -> u64 {
        self.lock().disk.in_use
    }

    /// High-water mark of [`disk_occupancy`](Self::disk_occupancy).
    pub fn disk_peak(&self) -> u64 {
        self.lock().disk.peak
    }

    /// Reservation requests currently blocked waiting for budget (either
    /// pool). A point-in-time congestion signal, not a counter.
    pub fn waiters(&self) -> u64 {
        self.lock().waiters
    }

    fn release(&self, pool: Pool, bytes: u64) {
        let mut state = self.lock();
        let p = State::pool_mut(&mut state, pool);
        p.in_use = p.in_use.saturating_sub(bytes);
        drop(state);
        self.freed.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl State {
    fn pool_mut(state: &mut State, pool: Pool) -> &mut PoolState {
        match pool {
            Pool::Memory => &mut state.mem,
            Pool::Disk => &mut state.disk,
        }
    }
}

/// A granted byte reservation against one of the governor's pools; released
/// on drop.
pub struct Reservation {
    governor: Arc<MemoryGovernor>,
    pool: Pool,
    bytes: u64,
}

impl Reservation {
    /// Bytes this reservation holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether this reservation draws from the scratch-disk pool.
    pub fn is_disk(&self) -> bool {
        self.pool == Pool::Disk
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.governor.release(self.pool, self.bytes);
    }
}

impl std::fmt::Debug for Reservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reservation")
            .field("pool", &self.pool)
            .field("bytes", &self.bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn reservations_release_on_drop_and_track_peak() {
        let gov = MemoryGovernor::new(1000);
        let a = gov.try_reserve(600).unwrap();
        assert_eq!(gov.occupancy(), 600);
        let b = gov.try_reserve(400).unwrap();
        assert_eq!(gov.occupancy(), 1000);
        assert!(gov.try_reserve(1).is_none());
        drop(a);
        assert_eq!(gov.occupancy(), 400);
        drop(b);
        assert_eq!(gov.occupancy(), 0);
        assert_eq!(gov.peak(), 1000);
    }

    #[test]
    fn oversized_requests_fail_fast() {
        let gov = MemoryGovernor::new(100);
        match gov.reserve(101, &CancelToken::none()) {
            Err(ReserveError::ExceedsBudget { requested, budget }) => {
                assert_eq!((requested, budget), (101, 100));
            }
            other => panic!("expected ExceedsBudget, got {other:?}"),
        }
    }

    #[test]
    fn blocked_reserve_proceeds_when_space_frees() {
        let gov = MemoryGovernor::new(100);
        let held = gov.try_reserve(80).unwrap();
        let waiter = {
            let gov = Arc::clone(&gov);
            std::thread::spawn(move || gov.reserve(50, &CancelToken::none()).map(|r| r.bytes()))
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert_eq!(waiter.join().unwrap(), Ok(50));
        assert_eq!(gov.occupancy(), 0);
    }

    #[test]
    fn deadline_expiry_unblocks_a_waiting_reserve() {
        let gov = MemoryGovernor::new(100);
        let _held = gov.try_reserve(100).unwrap();
        let cancel = CancelToken::with_timeout(Duration::from_millis(30));
        let start = Instant::now();
        assert!(matches!(
            gov.reserve(50, &cancel),
            Err(ReserveError::Cancelled)
        ));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn disk_pool_is_independent_of_the_memory_pool() {
        let gov = MemoryGovernor::with_disk(100, 1000);
        let mem = gov.try_reserve(100).unwrap();
        // Memory exhaustion does not block disk, and vice versa.
        let disk = gov.try_reserve_disk(1000).unwrap();
        assert!(disk.is_disk());
        assert!(!mem.is_disk());
        assert_eq!(gov.occupancy(), 100);
        assert_eq!(gov.disk_occupancy(), 1000);
        assert!(gov.try_reserve_disk(1).is_none());
        drop(disk);
        assert_eq!(gov.disk_occupancy(), 0);
        assert_eq!(gov.disk_peak(), 1000);
        // `new` configures no disk pool: disk requests can never be granted.
        let no_disk = MemoryGovernor::new(100);
        assert!(matches!(
            no_disk.reserve_disk(1, &CancelToken::none()),
            Err(ReserveError::ExceedsBudget { budget: 0, .. })
        ));
    }

    #[test]
    fn panicking_holder_still_releases_both_pools() {
        // A worker that panics while holding reservations must not leak
        // budget: the RAII drop runs during unwinding, and the accounting a
        // later query sees is as if the panicked one had completed.
        let gov = MemoryGovernor::with_disk(100, 200);
        let gov2 = Arc::clone(&gov);
        let handle = std::thread::spawn(move || {
            let _mem = gov2.try_reserve(100).unwrap();
            let _disk = gov2.try_reserve_disk(200).unwrap();
            assert_eq!(gov2.occupancy(), 100);
            panic!("worker died mid-join");
        });
        assert!(handle.join().is_err());
        assert_eq!(gov.occupancy(), 0);
        assert_eq!(gov.disk_occupancy(), 0);
        // The budget is whole again: a full-budget reservation succeeds.
        let m = gov.try_reserve(100).unwrap();
        let d = gov.try_reserve_disk(200).unwrap();
        drop((m, d));
        assert_eq!(gov.peak(), 100);
        assert_eq!(gov.disk_peak(), 200);
    }

    #[test]
    fn waiters_gauge_rises_while_blocked_and_falls_after() {
        let gov = MemoryGovernor::with_disk(100, 100);
        assert_eq!(gov.waiters(), 0);
        let held = gov.try_reserve(100).unwrap();
        let waiter = {
            let gov = Arc::clone(&gov);
            std::thread::spawn(move || gov.reserve(60, &CancelToken::none()))
        };
        // The gauge reflects the blocked thread once it enters the wait.
        let mut saw_waiter = false;
        for _ in 0..200 {
            if gov.waiters() == 1 {
                saw_waiter = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_waiter, "waiter never observed in the gauge");
        drop(held);
        assert!(waiter.join().unwrap().is_ok());
        assert_eq!(gov.waiters(), 0);
    }
}
