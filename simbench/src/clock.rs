//! Host wall-clock reads for the benchmark.
//!
//! This is the only place the benchmark reads the host clock: every
//! phase span, hook timer and repetition budget goes through
//! [`Stopwatch`]. The simulator crates themselves never see it.

use std::time::Instant;

/// A started host-time measurement.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring now.
    #[inline]
    pub fn start() -> Self {
        Stopwatch(Instant::now()) // trim-lint: allow(no-wall-clock, reason = "the benchmark measures host time on purpose; this is its single clock read")
    }

    /// Host nanoseconds since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Host seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
