//! Log-bucketed latency histogram (HDR-style): counts over log-linear
//! buckets of integer nanoseconds, held as the contiguous window of
//! buckets recorded into so far. Recording is a few integer ops (it
//! allocates only when a value lands outside the window), merging is
//! cell-wise addition, and quantiles come from deterministic integer
//! bucket lower bounds — so two histograms built from the same multiset of
//! values report bitwise identical counts, maxima and quantiles regardless
//! of recording order or how the values were split across histograms
//! before merging.

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per octave, giving a
/// worst-case quantile error of 12.5%.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: values below `SUB` map
/// exactly, then 8 sub-buckets for each of the remaining 61 octaves. A
/// histogram's window never holds more cells than this.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Mergeable, log-bucketed histogram over integer nanoseconds.
///
/// `counts[i]` is bucket `lo + i`; buckets outside the window are zero.
/// A node's firing latencies land in one to three buckets, so the window
/// stays a few cells long where a dense array would hold all
/// [`NUM_BUCKETS`]; an empty histogram allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct LogHistogram {
    lo: u32,
    counts: Vec<u64>,
    total: u64,
    max: u64,
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
        Self::default()
    }

    /// The cell of bucket `b`, growing the window to cover it first.
    #[inline]
    fn cell(&mut self, b: usize) -> &mut u64 {
        let lo = self.lo as usize;
        if b < lo || b >= lo + self.counts.len() {
            self.cover(b, b + 1);
        }
        &mut self.counts[b - self.lo as usize]
    }

    /// Grow the window to cover buckets `from..to`: zeros in front when
    /// `from` is below it, zeros behind when `to` is past it.
    #[cold]
    fn cover(&mut self, from: usize, to: usize) {
        if self.counts.is_empty() {
            self.lo = from as u32;
        }
        let lo = self.lo as usize;
        if from < lo {
            let mut grown = vec![0; lo - from + self.counts.len()];
            grown[lo - from..].copy_from_slice(&self.counts);
            self.counts = grown;
            self.lo = from as u32;
        }
        let len = to - self.lo as usize;
        if len > self.counts.len() {
            self.counts.resize(len, 0);
        }
        debug_assert!(self.lo as usize + self.counts.len() <= NUM_BUCKETS);
    }

    /// Record one integer-nanosecond value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
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
    /// `n = 0` changes nothing, the window included.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.cell(bucket_of(v)) += n;
        self.total += n;
        if v > self.max {
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
        if other.counts.is_empty() {
            return;
        }
        let from = other.lo as usize;
        self.cover(from, from + other.counts.len());
        let at = from - self.lo as usize;
        for (a, b) in self.counts[at..].iter_mut().zip(&other.counts) {
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
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_low(self.lo as usize + i).min(self.max);
            }
        }
        self.max
    }

    /// Count in bucket `idx` (zero outside the window).
    #[cfg(test)]
    fn bucket_count(&self, idx: usize) -> u64 {
        idx.checked_sub(self.lo as usize)
            .and_then(|i| self.counts.get(i))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Rng64;

    /// The dense representation the window replaced: every bucket held in
    /// a boxed array. The differential test below holds the window to it.
    #[derive(Clone)]
    struct Dense {
        counts: Box<[u64; NUM_BUCKETS]>,
        total: u64,
        max: u64,
    }

    impl Dense {
        fn new() -> Self {
            Self {
                counts: Box::new([0; NUM_BUCKETS]),
                total: 0,
                max: 0,
            }
        }

        fn record_n(&mut self, v: u64, n: u64) {
            self.counts[bucket_of(v)] += n;
            self.total += n;
            if n > 0 && v > self.max {
                self.max = v;
            }
        }

        fn merge(&mut self, other: &Self) {
            for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a += *b;
            }
            self.total += other.total;
            if other.max > self.max {
                self.max = other.max;
            }
        }

        fn value_at_quantile(&self, q: f64) -> u64 {
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
    }

    fn assert_same(h: &LogHistogram, d: &Dense, what: &str) {
        assert_eq!(h.count(), d.total, "{what}: count");
        assert_eq!(h.max(), d.max, "{what}: max");
        for idx in 0..NUM_BUCKETS {
            assert_eq!(h.bucket_count(idx), d.counts[idx], "{what}: bucket {idx}");
        }
        for k in 0..=40 {
            let q = k as f64 / 40.0;
            assert_eq!(
                h.value_at_quantile(q),
                d.value_at_quantile(q),
                "{what}: quantile {q}"
            );
        }
        assert!(
            h.lo as usize + h.counts.len() <= NUM_BUCKETS,
            "{what}: window"
        );
    }

    /// One value from a mix of shapes: the extremes, two far-apart
    /// clusters, any `u64`, and a descending run that makes the window
    /// grow in front.
    fn value(rng: &mut Rng64, step: u64) -> u64 {
        match rng.gen_index(6) {
            0 => [0, 1, 7, 8, u64::MAX, u64::MAX - 1][rng.gen_index(6)],
            1 => 1_000 + rng.gen_index(200) as u64,
            2 => (1 << 50) + rng.gen_index(1 << 20) as u64,
            3 => rng.next_u64() >> rng.gen_index(64),
            4 => u64::MAX >> step.min(63),
            _ => 5_000_000u64.saturating_sub(step * 40_000),
        }
    }

    #[test]
    fn window_matches_the_dense_histogram() {
        for seed in 0..32u64 {
            let mut rng = Rng64::seed_from_u64(seed);
            let mut hs = [LogHistogram::new(), LogHistogram::new()];
            let mut ds = [Dense::new(), Dense::new()];
            for step in 0..200u64 {
                let which = rng.gen_index(2);
                match rng.gen_index(5) {
                    0 | 1 => {
                        let v = value(&mut rng, step);
                        hs[which].record(v);
                        ds[which].record_n(v, 1);
                    }
                    2 => {
                        let v = value(&mut rng, step);
                        let n = [0, 0, 1, 3, 1 << 20][rng.gen_index(5)];
                        hs[which].record_n(v, n);
                        ds[which].record_n(v, n);
                    }
                    3 => {
                        let (h, d) = (hs[1 - which].clone(), ds[1 - which].clone());
                        hs[which].merge(&h);
                        ds[which].merge(&d);
                    }
                    _ => {
                        // Merging into or from an empty histogram.
                        let mut fresh = LogHistogram::new();
                        let mut dense = Dense::new();
                        fresh.merge(&hs[which]);
                        dense.merge(&ds[which]);
                        assert_same(&fresh, &dense, "merged into empty");
                        hs[which].merge(&LogHistogram::new());
                        ds[which].merge(&Dense::new());
                    }
                }
                let what = format!("seed {seed}, step {step}");
                assert_same(&hs[which], &ds[which], &what);
            }
        }
    }

    #[test]
    fn empty_histograms_hold_no_cells() {
        let mut h = LogHistogram::new();
        assert_eq!(h.counts.capacity(), 0);
        h.record_n(12_345, 0);
        h.merge(&LogHistogram::new());
        assert_eq!(h.counts.capacity(), 0);
        assert_eq!((h.count(), h.max(), h.value_at_quantile(0.5)), (0, 0, 0));
        // Descending values grow the window in front.
        for v in [900, 800, 100, 9] {
            h.record(v);
        }
        assert_eq!(h.lo as usize, bucket_of(9));
        assert_eq!(h.counts.len(), bucket_of(900) - bucket_of(9) + 1);
    }

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
