//! # hns-faults — deterministic fault injection for hostnet
//!
//! The paper measures healthy hosts; real deployments see bursty in-network
//! loss, link flaps, latency spikes, descriptor-ring exhaustion, allocator
//! pressure and noisy-neighbor core stalls. This crate provides a
//! seed-driven, fully deterministic fault plan so the reproduction's
//! recovery machinery (RTO backoff, zero-window probing, NAPI re-arm,
//! descriptor replenish) can be exercised and regression-tested:
//!
//! * [`LossModel`] / [`LossProcess`] — uniform or Gilbert–Elliott bursty
//!   wire loss,
//! * [`PhaseSchedule`] — one-shot or periodic activity windows on the
//!   simulation clock,
//! * [`FaultConfig`] — the host-side plan threaded through `SimConfig`:
//!   ring exhaustion, pool pressure and core stalls, each a window on the
//!   receiver host ([`VICTIM_HOST`]); the wire's loss, flaps and latency
//!   spikes ride on the link's configuration.
//!
//! Everything is `Copy` and seeded from the run's master seed; the same
//! seed and plan reproduce the same byte-level run.

pub mod config;
pub mod loss;
pub mod schedule;

pub use config::{FaultConfig, STALLED_CORE, VICTIM_HOST};
pub use loss::{LossModel, LossProcess};
pub use schedule::PhaseSchedule;
