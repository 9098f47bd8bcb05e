//! Order statistics on raw samples.
//!
//! Every timing the benchmark reports is computed here from the raw
//! samples, never from a bucketed histogram: a histogram's bucket midpoints
//! would hide any change smaller than one bucket.

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are less than or equal to it.
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median (the 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean. An operation's mean time over a run weighs the host's
/// fast and slow periods by how long each lasted, as one long operation
/// does; `perfbench/README.md` says why the benchmark's times use it.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_weighs_every_sample() {
        assert_eq!(mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn returns_a_sample_not_an_interpolation() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), 198.0);
        assert_eq!(percentile(&[7.25], 99.0), 7.25);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug() {
        median(&[]);
    }
}
