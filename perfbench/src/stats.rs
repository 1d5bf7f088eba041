//! Order statistics for the benchmark's reports.

/// Samples beyond the `.tail` percentile: the tail is the highest
/// percentile that still has this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// A tail read from a sample set: the value, the percentile it sits at,
/// and how many samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `.tail` of `values`: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, i.e. the 11th-largest sample. With
/// `n` samples that is the `100·(n−10)/n`-th percentile. `None` when
/// there are too few samples for any such percentile.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = n - TAIL_BEYOND - 1;
    Some(Tail { value: v[at], percentile: 100.0 * (at + 1) as f64 / n as f64, samples: n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("11 samples have a tail");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_of_a_hundred_is_p90() {
        // Shuffled 1..=100: the tail is the 90th value, with 91..=100
        // (ten samples) beyond it.
        let v: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
        let t = tail(&v).expect("tail");
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        let beyond = v.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_of_a_thousand_is_p99() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }
}
