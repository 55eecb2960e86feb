//! Taking the host's clock state out of CPU-bound timings.
//!
//! The reference host (a 2-vCPU guest) runs CPU-bound code at one of
//! two speeds about 1.27x apart — its base clock most of the time, a
//! boosted clock in stretches that last from a second to a whole run —
//! and which one a run mostly sees is luck: unfiltered, the same binary
//! reads 5.9 or 7.5 µs per request. A fixed, dependency-bound
//! arithmetic loop timed just before and just after every measured
//! pass shows how fast the host was running during it, and every
//! CPU-bound time is scaled to the speed at which a step of that loop
//! takes [`REFERENCE_STEP_NS`]: on the reference host, its base clock.
//! The loop runs on as many threads as the pass keeps busy.
//!
//! A change to the program moves the pass and not the loop, so it
//! shows in full; a change of clock moves both, and cancels. Each
//! run's report also prints the unscaled median and the measured
//! speed, and the wire workload, whose time is sleeps, is not scaled.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Steps of the single-thread calibration loop: about a quarter of a
/// millisecond, long enough to time within a percent or two, short
/// beside any pass.
const STEPS: u64 = 200_000;

/// Steps per thread when the loop runs on several threads at once:
/// longer, so the threads overlap for nearly all of it.
const SHARED_STEPS: u64 = 1_000_000;

/// What one step of the loop takes on the reference host at its base
/// clock with one thread busy, ns. One-caller passes are reported as
/// if they ran at this speed.
pub const REFERENCE_STEP_NS: f64 = 1.235;

/// The same with every hardware thread busy, which the host runs a
/// little slower (and boosts by less: about 1.11x, not 1.27x — the
/// reason passes on `nproc` threads are calibrated on `nproc` threads).
pub const REFERENCE_SHARED_STEP_NS: f64 = 1.255;

/// Time the calibration loop on this thread, ns per step. Each step
/// depends on the last and passes through `black_box`, so the loop
/// cannot be vectorised or folded and its time follows the core's
/// clock alone.
fn step_ns(steps: u64) -> f64 {
    let begin = Instant::now();
    let mut x: u64 = 1;
    for i in 0..steps {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    black_box(x);
    begin.elapsed().as_nanos() as f64 / steps as f64
}

/// One calibration reading with `threads` threads busy, ns per step
/// (the mean over the threads, each timing its own loop after a common
/// start).
pub fn calibrate(threads: usize) -> f64 {
    if threads <= 1 {
        return step_ns(STEPS);
    }
    let barrier = Barrier::new(threads);
    let readings: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    step_ns(SHARED_STEPS)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("calibration thread panicked"))
            .collect()
    });
    readings.iter().sum::<f64>() / threads as f64
}

/// Print this host's readings beside the reference constants: what to
/// look at before trusting scaled figures on a new host.
pub fn print_readings() {
    let threads = crate::deploy::nproc();
    for (busy, reference) in [(1, REFERENCE_STEP_NS), (threads, REFERENCE_SHARED_STEP_NS)] {
        let mut readings: Vec<f64> = (0..400).map(|_| calibrate(busy)).collect();
        readings.sort_by(f64::total_cmp);
        let q = |p: f64| crate::stats::quantile_sorted(&readings, p);
        println!(
            "{busy} thread(s) busy: ns per step p10={:.4} p50={:.4} p90={:.4}; reference {reference}",
            q(0.1),
            q(0.5),
            q(0.9)
        );
    }
}

/// Calibration readings taken just before and just after one pass, on
/// as many threads as the pass keeps busy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bracket {
    pub before: f64,
    pub after: f64,
    /// What a reading is at the reference clock.
    pub reference: f64,
}

impl Bracket {
    /// Run a `threads`-thread `pass` between two calibration readings.
    pub fn around<R>(threads: usize, pass: impl FnOnce() -> R) -> (Bracket, R) {
        let before = calibrate(threads);
        let out = pass();
        (
            Bracket {
                before,
                after: calibrate(threads),
                reference: if threads <= 1 {
                    REFERENCE_STEP_NS
                } else {
                    REFERENCE_SHARED_STEP_NS
                },
            },
            out,
        )
    }

    /// How fast the host ran across the pass, relative to the
    /// reference clock: 1.0 at the reference host's base clock. The
    /// mean of the two readings: the state can flicker several times a
    /// second, and a pass that straddles a change ran, on average, at
    /// the mean. (Taking the faster reading instead, to shed disturbed
    /// ones, was tried and over-corrects exactly those passes.)
    pub fn speed(&self) -> f64 {
        self.reference / ((self.before + self.after) / 2.0)
    }

    /// A measured time as it would read at the reference clock.
    pub fn time(&self, measured: f64) -> f64 {
        measured * self.speed()
    }

    /// A measured rate as it would read at the reference clock.
    pub fn rate(&self, measured: f64) -> f64 {
        measured / self.speed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bracket(before: f64, after: f64) -> Bracket {
        Bracket {
            before,
            after,
            reference: REFERENCE_STEP_NS,
        }
    }

    #[test]
    fn a_boosted_pass_scales_back_to_the_reference_clock() {
        let base = bracket(REFERENCE_STEP_NS, REFERENCE_STEP_NS);
        assert_eq!(base.speed(), 1.0);
        assert_eq!(base.time(7.5), 7.5);
        // The same work on a clock 1.25x faster: the loop and the
        // pass both take 1/1.25 of the time, and the scaled time is
        // unchanged.
        let boosted = bracket(REFERENCE_STEP_NS / 1.25, REFERENCE_STEP_NS / 1.25);
        assert!((boosted.speed() - 1.25).abs() < 1e-12);
        assert!((boosted.time(7.5 / 1.25) - 7.5).abs() < 1e-12);
        assert!((boosted.rate(100_000.0 * 1.25) - 100_000.0).abs() < 1e-6);
        // Half the pass at each clock: a speed between the two.
        let straddling = bracket(REFERENCE_STEP_NS, REFERENCE_STEP_NS / 1.25);
        assert!(straddling.speed() > 1.0 && straddling.speed() < 1.25);
    }

    #[test]
    fn calibration_reads_a_plausible_step_time_on_one_thread_and_on_two() {
        for threads in [1, 2] {
            let step = calibrate(threads);
            assert!(
                (0.05..50.0).contains(&step),
                "{step} ns per step on {threads} threads: the loop was folded away or stalled"
            );
        }
    }
}
