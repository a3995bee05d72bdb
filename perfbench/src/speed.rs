//! Host clock-speed probe: a fixed piece of work that shares no code with
//! the simulator, timed after every simulation run.
//!
//! On a shared host the core clock of the benchmark's CPU moves with the
//! load of the whole machine, by 10-20% over tens of minutes, and every run
//! made in that time moves with it. The probe is a chain of dependent
//! integer operations: it touches no memory, so its time follows the clock
//! alone. Dividing a host time by the probe's slowdown puts runs made at
//! different times at one clock speed. See README.md for the measurements.

use std::hint::black_box;

use crate::clock::cpu_timed;

/// Steps of the chain in one probe: about 30 ms of CPU on the reference
/// host, 3% of a simulation run.
const STEPS: u64 = 15_000_000;

/// CPU seconds of one probe on the reference host (a 2-vCPU Intel Xeon VM)
/// at its usual clock. Host times divided by the probe's slowdown against
/// it read as seconds at that clock.
pub const REFERENCE_S: f64 = 0.030;

/// Odd multiplier of the chain's steps.
const MULTIPLIER: u64 = 0xBF58_476D_1CE4_E5B9;

/// `steps` xorshift-multiply steps, each depending on the one before, so
/// that no two can overlap in the core. The shift keeps the compiler from
/// folding several steps into one, as it can with a plain multiply-add.
fn chain(steps: u64) -> u64 {
    let mut x = black_box(1u64);
    for _ in 0..steps {
        x = (x ^ (x >> 29)).wrapping_mul(MULTIPLIER);
    }
    x
}

/// Runs the probe once; returns the thread CPU seconds it took.
pub fn probe() -> f64 {
    let (x, secs) = cpu_timed(|| chain(black_box(STEPS)));
    black_box(x);
    secs
}

/// `raw_s` host seconds measured while the probe took `probe_s`, rescaled to
/// the reference host's clock.
pub fn at_reference_clock(raw_s: f64, probe_s: f64) -> f64 {
    raw_s * REFERENCE_S / probe_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_the_generator_and_is_not_folded_away() {
        assert_eq!(chain(0), 1);
        assert_eq!(chain(1), MULTIPLIER);
        assert_eq!(
            chain(2),
            (MULTIPLIER ^ (MULTIPLIER >> 29)).wrapping_mul(MULTIPLIER)
        );
        // A probe must take time in proportion to its steps, not be
        // computed at compile time.
        let (_, short) = cpu_timed(|| chain(black_box(STEPS / 10)));
        let long = probe();
        assert!(long > short, "probe {long} s, a tenth of it {short} s");
    }

    #[test]
    fn rescaling_arithmetic() {
        // A clock half as fast doubles the probe and halves host times.
        assert_eq!(at_reference_clock(2.0, 2.0 * REFERENCE_S), 1.0);
        assert_eq!(at_reference_clock(1.5, REFERENCE_S), 1.5);
        assert!((at_reference_clock(0.3, 0.5 * REFERENCE_S) - 0.6).abs() < 1e-12);
    }
}
