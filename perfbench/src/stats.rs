//! Order statistics and outcome accounting shared by every workload.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.99 from rounding
    // up a whole rank through binary representation error.
    ((n as f64 * p / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Percentiles the tail metric may report, highest first. The ladder
/// stops at p99: a higher percentile of a few thousand requests reads
/// the handful stalled behind a reload or a burst of outside load, and
/// swung by more than half between runs of the same code. Its steps are
/// a decade apart so that request counts, which move with throughput,
/// rarely cross a step.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// Samples a percentile leaves beyond it must number at least this many
/// for the percentile to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile on the ladder that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond its nearest rank; `None`
/// when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n > 0 && n - nearest_rank(n, p) >= TAIL_MIN_BEYOND)
}

/// How one attempted request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered 200 and every output verified.
    Ok,
    /// Answered with a non-200 status other than an overload refusal, or
    /// the connection failed mid-request.
    Failed,
    /// Refused: `503` from a full batcher queue, or the connection could
    /// not be opened.
    Refused,
    /// No complete response before the client's read timeout.
    TimedOut,
}

/// Running count of request outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted (every outcome).
    pub attempted: u64,
    /// Requests answered 200 and verified.
    pub ok: u64,
    /// [`Outcome::Failed`] count.
    pub failed: u64,
    /// [`Outcome::Refused`] count.
    pub refused: u64,
    /// [`Outcome::TimedOut`] count.
    pub timed_out: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::TimedOut => self.timed_out += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
    }

    /// Requests that did not end in [`Outcome::Ok`].
    pub fn errors(&self) -> u64 {
        self.failed + self.refused + self.timed_out
    }

    /// Failed, refused or timed-out requests over requests attempted (0
    /// when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.errors() as f64 / self.attempted as f64
        }
    }
}

/// Median of the smaller half of `values`: for timings that outside load
/// can only lengthen, the half it lengthened least.
pub fn quiet_median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(sorted.len().div_ceil(2));
    median(&sorted)
}

/// The rates of `slices` consecutive slices of equal completion count,
/// in window order. `completions` holds `(completion time in seconds
/// since the window opened, items completed)` in completion order; a
/// slice's rate is its items over the time since the previous slice
/// ended. Slicing by count rather than by clock keeps each rate free of
/// the quantization a fixed time bin would add.
pub fn slice_rates(completions: &[(f64, u64)], slices: usize) -> Vec<f64> {
    let slices = slices.clamp(1, completions.len().max(1));
    let per = completions.len() / slices;
    let mut out = Vec::with_capacity(slices);
    let mut prev_end = 0.0;
    for c in 0..slices {
        let range = c * per..if c + 1 == slices { completions.len() } else { (c + 1) * per };
        let Some(&(last, _)) = completions[range.clone()].last() else { break };
        let items: u64 = completions[range].iter().map(|&(_, n)| n).sum();
        if last > prev_end {
            out.push(items as f64 / (last - prev_end));
        }
        prev_end = last;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // One fewer sample leaves nine beyond p99, so fall back to p95.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(100_000), Some(99.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in [20, 57, 199, 200, 1000, 5000, 123_456] {
            let p = tail_percentile(n).expect("n >= 20");
            assert!(n - nearest_rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quiet_median(&[9.0, 1.0, 3.0, 2.0, 50.0]), 2.0);
        assert_eq!(quiet_median(&[4.0, 1.0]), 1.0);
        assert_eq!(quiet_median(&[]), 0.0);
    }

    #[test]
    fn error_rate_counts_failed_refused_and_timed_out_over_attempted() {
        let mut t = Tally::default();
        for _ in 0..7 {
            t.record(Outcome::Ok);
        }
        t.record(Outcome::Failed);
        t.record(Outcome::Refused);
        t.record(Outcome::TimedOut);
        assert_eq!((t.attempted, t.ok, t.errors()), (10, 7, 3));
        assert!((t.error_rate() - 0.3).abs() < 1e-12);

        let mut total = Tally::default();
        total.merge(&t);
        total.merge(&t);
        assert_eq!((total.attempted, total.errors()), (20, 6));
        assert!((total.error_rate() - 0.3).abs() < 1e-12);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn slice_rates_cut_by_completion_count() {
        // Ten items at 100 per second, then ten at 50 per second, then
        // ten at 100 per second again.
        let mut completions = Vec::new();
        let mut t = 0.0;
        for i in 0..30 {
            t += if i / 10 == 1 { 0.02 } else { 0.01 };
            completions.push((t, 1));
        }
        let rates = slice_rates(&completions, 3);
        assert_eq!(rates.len(), 3);
        for (got, want) in rates.iter().zip([100.0, 50.0, 100.0]) {
            assert!((got - want).abs() < 1e-6, "{rates:?}");
        }
        assert!((median(&rates) - 100.0).abs() < 1e-6);
        assert!(slice_rates(&[], 10).is_empty());
        assert_eq!(slice_rates(&[(0.5, 3)], 10), vec![6.0]);
    }
}
