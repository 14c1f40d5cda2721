//! The host-speed reference: a fixed piece of work, independent of the
//! simulator, timed between the measured calls.
//!
//! The benchmark shares a few cores of a host with other tenants, and the
//! host's speed drifts as they come and go: on a 2-vCPU Intel Xeon VM the
//! same simulation ran up to 1.8x slower from one minute to the next. The
//! reference slows with it, so each run expresses its host times as times
//! on a nominal host: measured time × (nominal / reference)^sensitivity,
//! where `reference` is the median of the run's samples and `sensitivity`
//! is measured per kind of workload. The factor does
//! not depend on the simulator, so a change to the simulator moves the
//! scaled metrics exactly as it moves the measured ones.
//!
//! One sample runs three small kernels that stand for the simulator's inner
//! loops: dispatch through a table of step functions (indirect and
//! data-dependent branches over a small state), four independent streams of
//! table lookups (instruction-level parallelism over L1), and random
//! read-modify-writes over a 1 MiB table (L2).

use crate::stats;
use std::time::Instant;

/// Median reference sample, in seconds, on an uncontended host: the
/// fastest run medians seen on a 2-vCPU Intel Xeon (105 MiB L3) VM.
pub const NOMINAL_S: f64 = 3.0e-3;

/// How much more the simulator slows than the reference when the host
/// slows: the log-log slope of measured host time over the reference's
/// median across runs. The simulation workloads' 0.5-1M-instruction runs
/// measured 1.4-2.4 (median 1.9).
pub const SIMULATION_SENSITIVITY: f64 = 2.0;

/// The same slope for `fault-campaign`, whose 20k-instruction trials have
/// a smaller working set: measured 0.7-1.9 (median 1.2).
pub const CAMPAIGN_SENSITIVITY: f64 = 1.25;

/// Words of state the step functions work on.
const STATE_WORDS: usize = 256;

/// Words of the read-modify-write table: 1 MiB.
const TABLE_WORDS: usize = 1 << 18;

type Step = fn(&mut [u32; STATE_WORDS], u32) -> u32;

/// One of 64 distinct step functions: a read, a data-dependent branch and
/// a write, with constants that differ per instance.
fn step<const N: u32>(s: &mut [u32; STATE_WORDS], x: u32) -> u32 {
    let i = (x ^ N.wrapping_mul(0x9E37)) as usize % STATE_WORDS;
    let v = s[i].wrapping_mul(2 * N + 1).rotate_left(N % 31) ^ (x >> (N % 7));
    if v & (N % 5 + 1) == 0 {
        s[i] = v ^ x.wrapping_mul(N + 3);
    } else if v % (N % 11 + 2) == 1 {
        s[(i + N as usize) % STATE_WORDS] = v.wrapping_add(x);
    } else {
        s[i] = v.wrapping_sub(N);
    }
    v
}

macro_rules! steps4 {
    ($b:expr) => {
        [step::<{ $b }>, step::<{ $b + 1 }>, step::<{ $b + 2 }>, step::<{ $b + 3 }>]
    };
}
macro_rules! steps16 {
    ($b:expr) => {
        [steps4!($b), steps4!($b + 4), steps4!($b + 8), steps4!($b + 12)]
    };
}

const STEPS: [[[Step; 4]; 4]; 4] = [steps16!(0), steps16!(16), steps16!(32), steps16!(48)];

/// Xorshift32.
fn next(x: &mut u32) -> u32 {
    *x ^= *x << 13;
    *x ^= *x >> 17;
    *x ^= *x << 5;
    *x
}

/// The reference's working set and samples.
#[derive(Debug)]
pub struct HostRef {
    state: [u32; STATE_WORDS],
    table: Vec<u32>,
    /// Seconds of every sample, in order.
    samples: Vec<f64>,
    /// The scale's exponent: [`SIMULATION_SENSITIVITY`] or
    /// [`CAMPAIGN_SENSITIVITY`].
    pub sensitivity: f64,
}

impl Default for HostRef {
    fn default() -> HostRef {
        HostRef::new()
    }
}

impl HostRef {
    /// A reference with no samples, at the simulation sensitivity.
    pub fn new() -> HostRef {
        HostRef {
            state: [1; STATE_WORDS],
            table: vec![0; TABLE_WORDS],
            samples: Vec::new(),
            sensitivity: SIMULATION_SENSITIVITY,
        }
    }

    /// Runs the three kernels once and records their seconds.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut x = 0x1234_5678;
        for _ in 0..60_000 {
            let r = next(&mut x) as usize;
            let f = STEPS[r % 4][r / 4 % 4][r / 16 % 4];
            x = x.wrapping_add(f(&mut self.state, x));
        }
        let mut h = [1u32, 2, 3, 4];
        let mut acc = [0u32; 4];
        for _ in 0..150_000 {
            for (v, a) in h.iter_mut().zip(acc.iter_mut()) {
                let t = self.state[next(v) as usize % STATE_WORDS];
                *a = if t & 3 == 0 { a.wrapping_add(t) } else { *a ^ (t >> 1) };
            }
        }
        let mut y = 0x9E37_79B9;
        let mut sum = 0u32;
        for _ in 0..200_000 {
            let i = next(&mut y) as usize % TABLE_WORDS;
            let v = self.table[i];
            sum = if v & 1 == 0 { sum.wrapping_add(v) } else { sum ^ v.rotate_left(7) };
            self.table[i] = v.wrapping_mul(0x9E37_79B1).wrapping_add(sum);
        }
        std::hint::black_box((x, acc, sum));
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// The median sample in seconds (`NaN` before the first sample).
    pub fn median_s(&self) -> f64 {
        stats::median(&self.samples)
    }

    /// The factor that turns host seconds measured in this run into
    /// seconds on the nominal host; 1 before the first sample.
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            (NOMINAL_S / self.median_s()).powf(self.sensitivity)
        }
    }

    /// A line stating the samples and the scale.
    pub fn note(&self) -> String {
        format!(
            "host reference: median {:.4} ms over {} samples, nominal {:.4} ms, sensitivity {}: \
             host times scaled by {:.4}",
            self.median_s() * 1e3,
            self.samples.len(),
            NOMINAL_S * 1e3,
            self.sensitivity,
            self.scale()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_the_nominal_speed_and_follows_the_sensitivity() {
        let mut r = HostRef::new();
        assert_eq!(r.scale(), 1.0);
        r.samples = vec![NOMINAL_S; 3];
        assert!((r.scale() - 1.0).abs() < 1e-12);
        r.samples = vec![2.0 * NOMINAL_S, 2.0 * NOMINAL_S, 100.0];
        assert!((r.scale() - 0.25).abs() < 1e-12);
        r.sensitivity = 1.0;
        assert!((r.scale() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sample_records_a_positive_time() {
        let mut r = HostRef::new();
        r.sample();
        r.sample();
        assert_eq!(r.samples.len(), 2);
        assert!(r.samples.iter().all(|&s| s > 0.0));
    }
}
