//! Host fingerprint, peak memory, and the three single-core ceilings the
//! per-layer `ceiling_frac` divides by.

use crate::stats::median;
use crate::work::Unit;
use std::hint::black_box;
use std::time::Instant;

/// What every result is printed with, so a number is never read apart
/// from the machine and build that produced it.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Hardware popcount detected at run time.
    pub popcnt: bool,
    /// AVX2 detected at run time.
    pub avx2: bool,
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The engine tier the served plan resolved to.
    pub tier: String,
}

impl Fingerprint {
    /// Probes the host; `tier` is the served plan's resolved backend.
    pub fn probe(tier: &str) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu,
            popcnt: has_popcnt(),
            avx2: wp_engine::avx2_available(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            tier: tier.to_string(),
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: cpu=\"{}\" popcnt={} avx2={} cores={} profile={} engine_tier={}",
            self.cpu, self.popcnt, self.avx2, self.cores, self.profile, self.tier
        )
    }
}

fn has_popcnt() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured single-core ceilings, in units (or bytes) per nanosecond —
/// equivalently G/s.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// AND+popcount of L1-resident `u64` words.
    pub popcnt_gword_s: f64,
    /// Int8 multiply-accumulates of L1-resident operands.
    pub int8_gmac_s: f64,
    /// Bytes read plus written by an L2-resident copy.
    pub memcpy_gb_s: f64,
}

impl Ceilings {
    /// Runs the three microbenches (about a third of a second in all),
    /// each the median of several timed trials, with the widest
    /// instructions the host offers.
    pub fn measure() -> Self {
        let words_a: Vec<u64> =
            (0..512u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let words_b: Vec<u64> = words_a.iter().map(|w| w.rotate_left(17) ^ 0xA5A5).collect();
        let popcnt = rate(words_a.len() as f64, || u64::from(popcount_sum(&words_a, &words_b)));

        let bytes_a: Vec<i8> = (0..4096).map(|i| (i * 37 % 255 - 127) as i8).collect();
        let bytes_b: Vec<i8> = (0..4096).map(|i| (i * 91 % 255 - 127) as i8).collect();
        let macs = rate(bytes_a.len() as f64, || dot_i8(&bytes_a, &bytes_b) as u64);

        let src = vec![7u8; 256 * 1024];
        let mut dst = vec![0u8; src.len()];
        let copy = rate(2.0 * src.len() as f64, || {
            dst.copy_from_slice(black_box(&src));
            u64::from(black_box(&dst)[dst.len() / 2])
        });
        Self { popcnt_gword_s: popcnt, int8_gmac_s: macs, memcpy_gb_s: copy }
    }

    /// The ceiling that bounds work counted in `unit`.
    pub fn for_unit(&self, unit: Unit) -> f64 {
        match unit {
            Unit::PopcountWords => self.popcnt_gword_s,
            Unit::LutLookups | Unit::Macs => self.int8_gmac_s,
            Unit::Bytes => self.memcpy_gb_s,
        }
    }
}

/// Units per nanosecond of `op`, which does `units` units per call.
fn rate(units: f64, op: impl FnMut() -> u64) -> f64 {
    units / ns_per_call(15, op)
}

/// Nanoseconds per call of `op`: the median of seven trials of at least
/// `min_trial_ms` each, after a warm-up that also sizes the trials. The
/// op's result goes through `black_box` so its work is not optimized
/// away.
pub fn ns_per_call<T>(min_trial_ms: u64, mut op: impl FnMut() -> T) -> f64 {
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            black_box(op());
        }
        if t.elapsed().as_millis() >= u128::from(min_trial_ms) {
            break;
        }
        calls *= 2;
    }
    let trials: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(op());
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&trials)
}

fn popcount_sum(a: &[u64], b: &[u64]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if has_popcnt() {
            // SAFETY: the `popcnt` feature was detected at run time.
            return unsafe { popcount_sum_hw(black_box(a), black_box(b)) };
        }
    }
    popcount_sum_portable(black_box(a), black_box(b))
}

fn popcount_sum_portable(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// # Safety
///
/// The caller must have detected the `popcnt` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn popcount_sum_hw(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    {
        if wp_engine::avx2_available() {
            // SAFETY: the `avx2` feature was detected at run time.
            return unsafe { dot_i8_avx2(black_box(a), black_box(b)) };
        }
    }
    dot_i8_portable(black_box(a), black_box(b))
}

fn dot_i8_portable(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
}

/// # Safety
///
/// The caller must have detected the `avx2` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_with_their_portable_forms() {
        let a: Vec<u64> = (0..100).map(|i| i * 0x0123_4567_89AB_CDEF).collect();
        let b: Vec<u64> = a.iter().map(|w| !w).collect();
        assert_eq!(popcount_sum(&a, &a), popcount_sum_portable(&a, &a));
        assert_eq!(popcount_sum(&a, &b), 0);
        let x: Vec<i8> = (0..300).map(|i| (i % 255 - 127) as i8).collect();
        assert_eq!(dot_i8(&x, &x), dot_i8_portable(&x, &x));
    }

    #[test]
    fn probes_read_the_host() {
        assert!(peak_rss_mb() > 0.0);
        let f = Fingerprint::probe("swar");
        assert!(f.cores >= 1);
        assert!(f.line().contains("engine_tier=swar"));
    }
}
