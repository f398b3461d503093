//! The host-speed reference: a fixed kernel timed around every
//! repetition, so that end-to-end times can be scaled to one host speed.
//!
//! The shared hosts this benchmark runs on change speed for seconds to
//! minutes at a time. Cache-bound code slows by up to 2× while a
//! register-only loop keeps its speed, so the slowdown comes from other
//! tenants contending for the shared caches, not from the clock rate.
//! The reference kernel sorts a fixed pseudo-random array of about
//! 800 KB with the standard library's sort: branchy, cache-bound work
//! that slows with the simulator (its time tracked the `incast_bulk`
//! event loop with a per-repetition correlation of 0.76). It uses none
//! of the simulator's code, so a change to the simulator does not move
//! it.

use std::hint::black_box;

use crate::clock::Stopwatch;

/// The reference kernel's time on the host the benchmark was tuned on,
/// when that host ran at full speed (a 2-vCPU Intel Xeon VM). A scaled
/// time is the time the measured work would have taken there.
pub const NOMINAL_S: f64 = 0.005;

/// Values the kernel sorts.
const LEN: u32 = 200_000;

/// Runs the reference kernel once and returns its host seconds.
pub fn reference_s() -> f64 {
    let t = Stopwatch::start();
    black_box(kernel(black_box(LEN)));
    t.elapsed_s()
}

/// The factor that scales a time measured between two reference
/// readings to the nominal host speed.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    2.0 * NOMINAL_S / (before_s + after_s)
}

/// Sorts `len` xorshift values and returns the middle one.
fn kernel(len: u32) -> u64 {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut v: Vec<u32> = (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    v.sort();
    u64::from(v[len as usize / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(1_000), kernel(1_000));
    }

    #[test]
    fn scale_is_one_at_nominal_speed() {
        assert!((scale(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!((scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 0.5).abs() < 1e-12);
    }
}
