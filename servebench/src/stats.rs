//! Order statistics for latency samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; `None` when empty.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Mean of `samples`; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Samples a tail value must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 · (n − TAIL_BEYOND) / n`.
    pub percentile: f64,
    /// How many samples the tail was taken over.
    pub samples: usize,
}

/// The tail of `samples`: of `n` sorted samples, the `(n − 10)`-th
/// smallest, which leaves exactly ten samples beyond it. `None` with ten
/// or fewer samples, where no rank qualifies.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based
    Some(Tail { value: v[rank - 1], percentile: 100.0 * rank as f64 / n as f64, samples: n })
}

/// Indices of the `keep` highest of `rates`, in ascending index order;
/// ties go to the earlier index.
pub fn quickest(rates: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| rates[b].total_cmp(&rates[a]).then(a.cmp(&b)));
    order.truncate(keep);
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), TAIL_BEYOND);

        // 1,000 samples reach p99; order of input does not matter.
        let mut many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        many.swap(3, 700);
        let t = tail(&many).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[1.0; 10]), None);
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.value, 0.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn quickest_keeps_the_highest_rates() {
        let rates = [4.1, 2.9, 4.4, 3.0, 4.1, 3.9];
        assert_eq!(quickest(&rates, 3), vec![0, 2, 4]);
        assert_eq!(quickest(&rates, 1), vec![2]);
        assert_eq!(quickest(&rates, 9), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(quickest(&[], 3), Vec::<usize>::new());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0]), Some(1.5));
    }
}
