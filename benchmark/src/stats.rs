//! The benchmark's one estimator: medians with quartiles, and the highest
//! percentile that still has at least ten samples beyond it.

/// Percentiles a summary may report as its tail, in rising order, as parts
/// per thousand so the "samples beyond" count is exact integer arithmetic.
const TAIL_LADDER: [usize; 5] = [750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Median, quartiles and tail of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`, when enough samples lie beyond one.
    pub tail: Option<(f64, f64)>,
}

/// The `p`-quantile (0..=1) of ascending `sorted`, interpolating linearly
/// between the two nearest ranks. Empty input gives 0.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The highest ladder percentile with at least ten of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|&&pm| n * (1000 - pm) / 1000 >= TAIL_MIN_BEYOND)
        .map(|&pm| pm as f64 / 1000.0)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        tail: tail_percentile(sorted.len()).map(|p| (p, quantile(&sorted, p))),
    }
}

impl Summary {
    /// `median 0.1548 q1 0.1450 q3 0.1680 p75 0.1680 n=49`
    pub fn render(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{} {v:.6}", p * 100.0),
            None => String::new(),
        };
        format!(
            "median {:.6} q1 {:.6} q3 {:.6}{tail} n={}",
            self.median, self.q1, self.q3, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate_between_ranks() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (4, 2.5, 1.75, 3.25));
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.q1, s.q3), (3.0, 2.0, 4.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert_eq!(summarize(&[]).median, 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(summarize(&samples).tail, Some((0.90, 91.0)));
    }
}
