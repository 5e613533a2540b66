//! Cooperative cancellation and deadline tokens.
//!
//! A [`CancelToken`] is a cheap, cloneable handle the service layer hands to
//! a join execution. The join checks it **at phase boundaries** — between
//! skew detection, partitioning, and the join phase on the CPU, and in the
//! unified `run_join` front door before a GPU launch (`gpu_execute`) and
//! before a GPU join's CPU fallback (`cpu_fallback`) — and bails out with [`crate::JoinError::Cancelled`] naming the phase it was about to
//! enter. The CPU probe loops additionally poll [`CancelToken::is_cancelled`]
//! every ~1024 probe tuples, because a skew-degenerate chained table can make
//! a single probe phase run for minutes; a cancel observed mid-phase discards
//! the phase's partial output and surfaces the same typed error. Cancellation
//! stays cooperative — the granularity is a probe chunk, not one tuple.
//!
//! Tokens carry an optional deadline. A token is *cancelled* once either the
//! flag was raised via [`CancelToken::cancel`] or the deadline has passed;
//! both are observed by the same [`CancelToken::check`] call sites.
//!
//! The default token ([`CancelToken::none`]) is inert: it never cancels and
//! costs nothing to check beyond a `None` branch, so configurations that
//! embed a token pay nothing when no service is involved.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::JoinError;

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle; see the module docs.
///
/// Clones share state: cancelling any clone cancels them all. Equality is
/// identity (two tokens are equal iff they share state, or are both inert),
/// which lets configuration structs that embed a token keep deriving
/// `PartialEq`.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl CancelToken {
    /// The inert token: never cancelled, no deadline. This is the `Default`.
    pub fn none() -> Self {
        Self { inner: None }
    }

    /// A live token with no deadline; cancelled only via [`cancel`].
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A live token that auto-cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// A live token that auto-cancels `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// `true` for tokens that can actually cancel (not [`CancelToken::none`]).
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Raises the cancellation flag. No-op on an inert token.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Release);
        }
    }

    /// `true` once the flag is raised or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.flag.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// The token's deadline, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Time remaining until the deadline; `None` when there is no deadline,
    /// `Some(ZERO)` once it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Phase-boundary check: `Err(JoinError::Cancelled { phase })` once the
    /// token is cancelled, `Ok(())` otherwise. `phase` names the phase the
    /// caller was *about to start*, so the error localizes how far the join
    /// got before the cancellation was observed.
    pub fn check(&self, phase: &str) -> Result<(), JoinError> {
        if self.is_cancelled() {
            Err(JoinError::Cancelled {
                phase: phase.to_string(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_cancels() {
        let t = CancelToken::none();
        assert!(!t.is_live());
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(!t.is_cancelled());
        t.check("anything").unwrap();
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        match c.check("probe") {
            Err(JoinError::Cancelled { phase }) => assert_eq!(phase, "probe"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));

        let far = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn equality_is_identity() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_eq!(CancelToken::none(), CancelToken::none());
        assert_ne!(a, CancelToken::none());
    }
}
