//! # skewjoin-service
//!
//! `skewjoind`: a concurrent join service over the `skewjoin` engine, built
//! from three mechanisms the paper's skew story maps onto directly:
//!
//! * **Admission control + backpressure** ([`queue`], [`service`]) — a
//!   bounded three-band priority queue with per-client round-robin lanes.
//!   A full queue sheds load with a typed `Rejected { retry_after }`
//!   instead of letting latency collapse, and a flooding client only ever
//!   delays itself — the serving-layer analogue of routing hot keys
//!   through their own path.
//! * **Memory governor** ([`governor`]) — every admitted join reserves its
//!   planner-estimated footprint against a global byte budget before
//!   executing. Over-budget requests degrade down one ladder
//!   (`planner::fit_to_budget`: narrower radix bits, then a GPU join's CPU
//!   twin, then the grace-hash spill) or queue until bytes free up;
//!   infeasible-even-degraded requests are rejected at admission.
//! * **Plan cache** ([`skewjoin::planner::PlanCache`], surfaced in
//!   [`service`]) — `Auto` requests reuse planner decisions keyed by
//!   (relation fingerprint, size bucket, skew bucket) with hit/miss
//!   counters in the service snapshot.
//!
//! Clients talk to the service in-process via [`JoinService::submit`]
//! (returning a [`service::Ticket`]) or over a length-prefixed TCP JSON
//! protocol ([`protocol`]); the `skewjoind` binary serves the latter.
//!
//! Every submission resolves to exactly one typed [`Outcome`] — completed,
//! rejected, cancelled, or failed — and the metrics reconcile exactly:
//! `submitted = admitted + rejected` and
//! `admitted = completed + cancelled + failed`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod governor;
pub mod protocol;
pub mod queue;
pub mod request;
pub mod service;

pub use governor::{MemoryGovernor, Reservation, ReserveError};
pub use protocol::{serve, serve_shard, Client, ClientError, ServerHandle, PROTOCOL_VERSION};
pub use queue::{FairQueue, PushError};
pub use request::{
    AlgoChoice, JoinRequest, JoinResponse, JoinSummary, Outcome, Priority, RequestId,
    RequestPayload,
};
pub use service::{JoinService, ServiceConfig, Ticket};
