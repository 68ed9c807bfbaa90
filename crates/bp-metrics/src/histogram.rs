//! Log-bucketed latency histogram (HDR-style): a fixed-size array of
//! counts over log-linear buckets of integer nanoseconds. Recording is a
//! few integer ops (no allocation), merging is element-wise addition, and
//! quantiles come from deterministic integer bucket lower bounds — so two
//! histograms built from the same multiset of values are bitwise
//! identical regardless of recording order or how the values were split
//! across histograms before merging.

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per octave, giving a
/// worst-case quantile error of 12.5%.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: values below `SUB` map
/// exactly, then 8 sub-buckets for each of the remaining 61 octaves.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Fixed-size, mergeable, log-bucketed histogram over integer nanoseconds.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Box<[u64; NUM_BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let shift = msb - SUB_BITS as usize;
    (shift + 1) * SUB + ((v >> shift) as usize & (SUB - 1))
}

/// Lower bound of bucket `idx` — the value quantiles report.
#[inline]
fn bucket_low(idx: usize) -> u64 {
    let g = idx / SUB;
    let s = idx % SUB;
    if g == 0 {
        s as u64
    } else {
        ((SUB + s) as u64) << (g - 1)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; NUM_BUCKETS]),
            total: 0,
            max: 0,
        }
    }

    /// Record one integer-nanosecond value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        if v > self.max {
            self.max = v;
        }
    }

    /// Record a duration in seconds, quantized to integer nanoseconds
    /// (saturating; negative values clamp to zero).
    #[inline]
    pub fn record_seconds(&mut self, s: f64) {
        self.record((s * 1e9) as u64);
    }

    /// Record `n` copies of the value `v` at once — bitwise identical to
    /// calling [`record`](Self::record) `n` times (counts are additive and
    /// all copies share one bucket and one max candidate). This is the
    /// flush primitive for callers that batch runs of equal values.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[bucket_of(v)] += n;
        self.total += n;
        if n > 0 && v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value in nanoseconds (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket-wise merge: the result is identical to having recorded both
    /// histograms' values into one, in any order.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Value (bucket lower bound, clamped to the exact max) at quantile
    /// `q` in `[0, 1]`. Returns 0 for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        if target == self.total {
            return self.max;
        }
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_low(idx).min(self.max);
            }
        }
        self.max
    }

    /// Fold the histogram's state into an FNV accumulator via the given
    /// callback (called once per word: total, max, then every bucket).
    pub fn fold_words(&self, f: &mut impl FnMut(u64)) {
        f(self.total);
        f(self.max);
        for &c in self.counts.iter() {
            f(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_exhaustive() {
        let mut prev = bucket_of(0);
        assert_eq!(prev, 0);
        for v in [
            1u64,
            7,
            8,
            9,
            15,
            16,
            31,
            1000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket order broken at {v}");
            assert!(b < NUM_BUCKETS);
            assert!(bucket_low(b) <= v, "low({b}) > {v}");
            prev = b;
        }
        // Small values are exact.
        for v in 0..16u64 {
            assert_eq!(bucket_low(bucket_of(v)), v);
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for (i, v) in [3u64, 900, 17, 250_000, 42, 42, 8].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            both.record(*v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.value_at_quantile(q), both.value_at_quantile(q));
        }
    }

    #[test]
    fn quantiles_bound_error() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.value_at_quantile(0.5);
        // Within one sub-bucket (12.5%) below the exact median.
        assert!(p50 <= 500 && p50 as f64 >= 500.0 * 0.875, "p50 = {p50}");
        assert_eq!(h.value_at_quantile(1.0), 1000);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn seconds_quantize_deterministically() {
        let mut h = LogHistogram::new();
        h.record_seconds(1.5e-6);
        h.record_seconds(-3.0); // clamps to 0
        assert_eq!(h.count(), 2);
        assert_eq!(h.value_at_quantile(0.0), 0);
    }
}
