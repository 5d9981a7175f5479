//! The reference kernel: a fixed unit of host work, independent of the
//! simulators, that the benchmark times between every two simulations
//! and before every setup.
//!
//! On a host that other tenants share, the same simulation runs up to
//! twice as fast at one hour as at another, and both the simulation and
//! the kernel runs on either side of it see the host's speed of the
//! moment. The host metrics are therefore reported at reference speed: a
//! measured time scaled by [`NOMINAL_MS`] over the kernel's time, which
//! is the time the work would take on a host where the kernel takes
//! [`NOMINAL_MS`]. A change to the simulators moves the measured time but
//! not the kernel's, so it shows in full.
//!
//! The kernel is arithmetic on a few registers (a splitmix64 stream, a
//! logarithm, a square root and an exponential per step), with no memory
//! traffic to speak of. Kernels that also walk a large table or a heap
//! tracked the simulators' speed less closely on a shared 2-vCPU host:
//! their own timings spread more, from cache contention the simulations
//! do not feel to the same degree.

use std::time::Instant;

/// Steps of one kernel run: about 10 ms on the reference box.
const STEPS: u64 = 400_000;

/// The kernel's host time on the reference box, in ms: the scale the
/// host metrics are reported at.
pub const NOMINAL_MS: f64 = 10.0;

/// Runs the kernel once and returns its checksum, which depends only on
/// [`STEPS`].
pub fn work() -> u64 {
    let mut state: u64 = 7;
    let mut acc = 0.0f64;
    for _ in 0..STEPS {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        acc += (-u.ln()).sqrt() * (3.0 * u).exp();
    }
    acc.to_bits()
}

/// Runs the kernel once and returns its host time, in ms.
pub fn time_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(work());
    start.elapsed().as_secs_f64() * 1e3
}

/// `measured` (any unit) at reference speed, given the kernel's time
/// `kernel_ms` measured next to it.
pub fn at_reference(measured: f64, kernel_ms: f64) -> f64 {
    measured * NOMINAL_MS / kernel_ms
}
