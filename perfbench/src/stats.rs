//! Order statistics of one run's operation latencies.

/// Fewest samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Operations a timed phase must complete so that p90 has
/// [`TAIL_SAMPLES`] samples beyond it.
pub const MIN_OPS: usize = 100;

/// Nearest-rank percentile `q` (0 < q <= 1) of ascending `sorted`
/// samples: the value at rank `ceil(q * n)`, so exactly
/// `n - ceil(q * n)` samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile that still has at least
/// [`TAIL_SAMPLES`] samples beyond it among `n` samples (`None` below
/// [`TAIL_SAMPLES`] + 1 samples).
pub fn highest_tail_percentile(n: usize) -> Option<u32> {
    (1..100u32)
        .rev()
        .find(|&p| n.saturating_sub((p as usize * n).div_ceil(100)) >= TAIL_SAMPLES)
}

/// Median and p90 of a run's operation latencies, with the sample
/// count they rest on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Samples the percentiles were taken over.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The highest whole percentile with [`TAIL_SAMPLES`] samples
    /// beyond it, and its value (what p90 generalises to on long runs).
    pub tail: Option<(u32, f64)>,
}

impl Latency {
    /// Percentiles of `samples`, or `None` when fewer than [`MIN_OPS`]
    /// were taken: p90 would then have under ten samples beyond it.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        if samples.len() < MIN_OPS {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = highest_tail_percentile(sorted.len())
            .map(|p| (p, percentile(&sorted, f64::from(p) / 100.0)));
        Some(Latency {
            samples: sorted.len(),
            p50: percentile(&sorted, 0.5),
            p90: percentile(&sorted, 0.9),
            tail,
        })
    }
}

/// Median of `values` (mean of the two middle values for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_a_hundred_leaves_exactly_ten_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let lat = Latency::of(&samples).expect("100 samples suffice");
        assert_eq!(lat.samples, 100);
        assert_eq!(lat.p90, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > lat.p90).count(), 10);
        assert_eq!(lat.p50, 50.0);
        assert_eq!(lat.tail, Some((90, 90.0)));
    }

    #[test]
    fn fewer_than_a_hundred_samples_give_no_p90() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(Latency::of(&samples).is_none());
    }

    #[test]
    fn tail_percentile_rises_with_the_sample_count() {
        assert_eq!(highest_tail_percentile(10), None);
        assert_eq!(highest_tail_percentile(100), Some(90));
        assert_eq!(highest_tail_percentile(1000), Some(99));
        for n in [11, 57, 100, 333, 1000, 4321] {
            let p = highest_tail_percentile(n).expect("more than ten samples");
            let beyond = n - (p as usize * n).div_ceil(100);
            assert!(beyond >= TAIL_SAMPLES, "n={n} p={p} beyond={beyond}");
            if p < 99 {
                let next = n - ((p as usize + 1) * n).div_ceil(100);
                assert!(
                    next < TAIL_SAMPLES,
                    "p{} would also qualify at n={n}",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn latency_is_order_independent() {
        let mut samples: Vec<f64> = (0..250).map(|i| f64::from((i * 7919) % 250)).collect();
        let a = Latency::of(&samples).unwrap();
        samples.reverse();
        assert_eq!(Latency::of(&samples).unwrap(), a);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
