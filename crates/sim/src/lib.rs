//! Discrete-event simulation engine for the Venice SSD reproduction.
//!
//! This crate provides the substrate every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulated clock
//!   (`u64` newtypes with saturating arithmetic and pretty printing),
//! * [`EventQueue`] — a stable (FIFO among equal timestamps) bucketed
//!   time-wheel event calendar (binary-heap overflow tier for the far
//!   future) generic over the event payload, with [`EventQueue::pop_batch`]
//!   for draining same-instant bursts,
//! * [`DenseBitSet`] — a fixed-universe ordered bit set (O(1)
//!   insert/remove, ascending iteration, rank queries): the storage behind
//!   the SSD engine's incremental ready sets, walked circularly by
//!   [`SetWalk`],
//! * [`rng`] — small deterministic generators: an `xorshift64*` PRNG with the
//!   distributions the workload generators need, and the 2-bit linear-feedback
//!   shift register the Venice router uses for random output-port selection,
//! * [`stats`] — online mean/variance, latency histograms with percentile and
//!   CDF extraction, and geometric-mean helpers used by the figure harnesses.
//!
//! # Example
//!
//! Run a tiny simulation that schedules two events and drains them in time
//! order:
//!
//! ```
//! use venice_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "second");
//! q.schedule(SimTime::ZERO + SimDuration::from_nanos(10), "first");
//! let (t1, e1) = q.pop().unwrap();
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((e1, e2), ("first", "second"));
//! assert!(t1 < t2);
//! assert!(q.pop().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod event;
pub mod rng;
pub mod stats;
mod time;

pub use dense::{DenseBitSet, SetWalk};
pub use event::{EventQueue, ReferenceHeapQueue, BUCKET_NS, WHEEL_BUCKETS};
pub use time::{SimDuration, SimTime};
