//! # skewjoin-common
//!
//! Shared building blocks for the `skewjoin` workspace: tuple and relation
//! types, hash functions and radix extraction, histogram/prefix-sum helpers,
//! join output sinks (including the paper's volcano-style ring buffer), and
//! per-phase timing statistics.
//!
//! Every join algorithm in the workspace (CPU `Cbase`/`cbase-npj`/`CSH` and
//! GPU `Gbase`/`GSH`) is built on these primitives, which keeps their results
//! directly comparable: all of them report an order-independent
//! [`sink::OutputSink::checksum`] plus a result count, so integration tests
//! can assert bit-for-bit agreement across algorithms and devices.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cancel;
pub mod error;
pub mod faults;
pub mod hash;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod report;
pub mod scratch;
pub mod sink;
pub mod stats;
pub mod trace;
pub mod tuple;

pub use cancel::CancelToken;
pub use error::JoinError;
pub use json::Json;
pub use metrics::MetricsRegistry;
pub use sink::{
    CountSinkFactory, CountingSink, KeyCountSink, MaterializeSink, OutputSink, SinkFactory,
    SinkSpec, VolcanoSink, VolcanoSinkFactory,
};
pub use stats::{JoinStats, PhaseTimes};
pub use trace::{PhaseTrace, Rung, SkewedKey, Trace, TwinCause};
pub use tuple::{Key, Payload, Relation, Tuple};
