//! # simbench — the simulator's end-to-end and per-layer benchmark
//!
//! Named workloads run against the public APIs of `netsim`, `trim-tcp`,
//! `trim-workload`, `trim-serve` and `trim-check`, one workload per
//! process, repetitions back to back:
//!
//! - [`drive`] — the workloads, and the phase-split runners that execute
//!   one repetition and check its outputs;
//! - [`hooks`] — the outside-in tracing wrappers (a timed `Agent` around
//!   `TcpHost`, a timed `InvariantMonitor` decorator);
//! - [`stats`] — medians, quartile spreads and peak memory;
//! - [`calib`] — the host-speed reference kernel that end-to-end times
//!   are scaled by;
//! - [`clock`] — the benchmark's single host-clock read.
//!
//! See `README.md` in this directory for the metric catalogue.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::dbg_macro, clippy::print_stdout, clippy::float_cmp)
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calib;
pub mod clock;
pub mod drive;
pub mod hooks;
pub mod stats;

pub use drive::{Counts, Digest, Phases, Plan, Rep, Workload};
pub use hooks::{HookTally, Host, Tally, Traced};

/// The committed default-seed digests, one `<workload> <digest>` line
/// each.
pub const GOLDEN_DIGESTS: &str = include_str!("../digests.txt");

/// The committed default-seed digest of `w`, if one is recorded.
pub fn golden_digest(w: Workload) -> Option<Digest> {
    GOLDEN_DIGESTS.lines().find_map(|line| {
        let (name, rest) = line.trim().split_once(' ')?;
        (name == w.name()).then(|| Digest::parse(rest)).flatten()
    })
}
