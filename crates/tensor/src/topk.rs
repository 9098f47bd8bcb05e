//! Top-k selection and threshold utilities.
//!
//! The paper selects strong attention connections two ways: *row-wise top-k*
//! over (estimated) attention scores (§2.2, §3.1), and *threshold
//! comparison* against a preset value in the hardware Detector (§4.3). Both
//! primitives live here, along with helpers to convert selections into the
//! binary masks the rest of the stack consumes.

use crate::Matrix;

/// Indices of the `k` largest values in `row`, in descending value order.
///
/// The order is total: `-0.0` ranks equal to `+0.0`, NaN ranks after every
/// number (below `-inf`), and ties of any kind go to the lower index, so
/// results are deterministic. If `k >= row.len()` every index is returned.
///
/// Each score is packed with its index into one `u64` key whose integer
/// order is that ranking, so only the `k` winners are sorted: `O(n + k log k)`
/// per row instead of a full sort.
///
/// # Panics
///
/// Panics if `row` has more than `u32::MAX` entries.
///
/// # Example
///
/// ```
/// use dota_tensor::topk::top_k_indices;
///
/// let idx = top_k_indices(&[0.1, 0.9, 0.5], 2);
/// assert_eq!(idx, vec![1, 2]);
/// assert_eq!(top_k_indices(&[f32::NAN, -1.0], 1), vec![1]);
/// ```
pub fn top_k_indices(row: &[f32], k: usize) -> Vec<usize> {
    let k = k.min(row.len());
    if k == 0 {
        return Vec::new();
    }
    assert!(
        u32::try_from(row.len()).is_ok(),
        "row of {} scores exceeds u32 indices",
        row.len()
    );
    // Smaller key ranks first: the inverted score key in the high half,
    // the index (the tie-break) in the low half.
    let mut keys: Vec<u64> = row
        .iter()
        .enumerate()
        .map(|(i, &x)| (u64::from(!score_key(x)) << 32) | i as u64)
        .collect();
    if k < keys.len() {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
    keys.sort_unstable();
    keys.into_iter()
        .map(|key| (key & 0xffff_ffff) as usize)
        .collect()
}

/// Order-preserving `u32` key of a score: `a` ranks above `b` in
/// [`top_k_indices`]'s order exactly when `score_key(a) > score_key(b)`.
/// `-0.0` and `+0.0` share a key, and every NaN maps to `0`, below `-inf`.
pub fn score_key(x: f32) -> u32 {
    if x.is_nan() {
        return 0;
    }
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    // Negative floats order backwards as integers: flip them all; set the
    // sign bit of the rest so they sit above every negative.
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Row-wise top-k selection over a score matrix, producing one index set per
/// row. Every row keeps exactly `k` entries (the equal-`k` workload-balance
/// constraint of §4.3), so downstream token-parallel execution stays
/// synchronized across rows.
pub fn top_k_rows(scores: &Matrix, k: usize) -> Vec<Vec<usize>> {
    scores
        .rows_iter()
        .map(|row| top_k_indices(row, k))
        .collect()
}

/// Converts per-row selected indices into a dense boolean mask with the given
/// number of columns.
///
/// # Panics
///
/// Panics if any index is `>= cols`.
pub fn indices_to_mask(selected: &[Vec<usize>], cols: usize) -> Vec<Vec<bool>> {
    selected
        .iter()
        .map(|row| {
            let mut mask = vec![false; cols];
            for &i in row {
                assert!(i < cols, "selected index {i} out of bounds ({cols})");
                mask[i] = true;
            }
            mask
        })
        .collect()
}

/// Per-row threshold selection: keep entry `(r, c)` when
/// `scores[(r, c)] >= threshold`. This models the hardware Detector's
/// comparator (§4.3), which compares estimated scores against a preset
/// threshold rather than sorting.
pub fn threshold_mask(scores: &Matrix, threshold: f32) -> Vec<Vec<bool>> {
    scores
        .rows_iter()
        .map(|row| row.iter().map(|&x| x >= threshold).collect())
        .collect()
}

/// Finds, per row, the threshold that would keep exactly `k` entries; returns
/// the k-th largest value of each row. Used to calibrate hardware threshold
/// registers from a validation set (§3.1).
pub fn kth_value_rows(scores: &Matrix, k: usize) -> Vec<f32> {
    scores
        .rows_iter()
        .map(|row| {
            let idx = top_k_indices(row, k);
            idx.last().map(|&i| row[i]).unwrap_or(f32::NEG_INFINITY)
        })
        .collect()
}

/// Fraction of `true` entries in a mask.
pub fn mask_density(mask: &[Vec<bool>]) -> f64 {
    let total: usize = mask.iter().map(|r| r.len()).sum();
    if total == 0 {
        return 0.0;
    }
    let kept: usize = mask.iter().map(|r| r.iter().filter(|&&b| b).count()).sum();
    kept as f64 / total as f64
}

/// Overlap between two per-row index selections: the mean fraction of
/// `reference` indices also present in `candidate`. This is the detection
/// *recall* metric used to evaluate detector quality against oracle top-k.
///
/// # Panics
///
/// Panics if the two selections have different row counts.
pub fn selection_recall(reference: &[Vec<usize>], candidate: &[Vec<usize>]) -> f64 {
    assert_eq!(reference.len(), candidate.len(), "row count mismatch");
    if reference.is_empty() {
        return 1.0;
    }
    let mut acc = 0.0;
    for (r, c) in reference.iter().zip(candidate) {
        if r.is_empty() {
            acc += 1.0;
            continue;
        }
        let cset: std::collections::HashSet<usize> = c.iter().copied().collect();
        let hit = r.iter().filter(|i| cset.contains(i)).count();
        acc += hit as f64 / r.len() as f64;
    }
    acc / reference.len() as f64
}

/// Number of entries each row keeps under `mask`.
pub fn row_counts(mask: &[Vec<bool>]) -> Vec<usize> {
    mask.iter()
        .map(|r| r.iter().filter(|&&b| b).count())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::rng::SeededRng;

    #[test]
    fn top_k_basic() {
        let row = [0.2, 0.8, 0.5, 0.9];
        assert_eq!(top_k_indices(&row, 2), vec![3, 1]);
        assert_eq!(top_k_indices(&row, 0), Vec::<usize>::new());
        assert_eq!(top_k_indices(&row, 10).len(), 4);
    }

    #[test]
    fn top_k_tie_break_deterministic() {
        let row = [1.0, 1.0, 1.0];
        assert_eq!(top_k_indices(&row, 2), vec![0, 1]);
    }

    #[test]
    fn nan_scores_rank_last_without_panicking() {
        // A comparator that is not a total order makes the standard sort
        // panic on wide rows with NaNs; NaN must instead rank after every
        // number, ties toward the lower index.
        let mut rng = SeededRng::new(3);
        for _ in 0..20 {
            let mut row: Vec<f32> = (0..2048).map(|_| rng.normal()).collect();
            for _ in 0..64 {
                let i = rng.below(row.len());
                row[i] = f32::NAN;
            }
            let nans = row.iter().filter(|x| x.is_nan()).count();
            let all = top_k_indices(&row, row.len());
            assert_eq!(all, reference::top_k_indices(&row, row.len()));
            let (numbers, tail) = all.split_at(row.len() - nans);
            assert!(numbers.iter().all(|&i| !row[i].is_nan()));
            assert!(tail.iter().all(|&i| row[i].is_nan()));
            assert!(tail.windows(2).all(|w| w[0] < w[1]), "NaN ties by index");
        }
        assert_eq!(top_k_indices(&[f32::NAN, f32::NEG_INFINITY], 1), vec![1]);
        assert_eq!(top_k_indices(&[f32::NAN, f32::NAN, 0.0], 2), vec![2, 0]);
    }

    #[test]
    fn signed_zeros_tie_and_infinities_rank_at_the_ends() {
        let row = [0.0, -0.0, f32::INFINITY, -1.0, f32::NEG_INFINITY, -0.0];
        assert_eq!(top_k_indices(&row, 6), vec![2, 0, 1, 5, 3, 4]);
        assert!(score_key(-0.0) == score_key(0.0));
        assert!(score_key(f32::NEG_INFINITY) > score_key(f32::NAN));
        assert!(score_key(-f32::MIN_POSITIVE) < score_key(0.0));
        assert!(score_key(f32::MIN_POSITIVE) > score_key(0.0));
    }

    #[test]
    fn top_k_rows_equal_k() {
        let mut rng = SeededRng::new(1);
        let m = rng.normal_matrix(8, 16, 1.0);
        let sel = top_k_rows(&m, 4);
        assert!(sel.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn indices_to_mask_round_trip() {
        let sel = vec![vec![0, 2], vec![1]];
        let mask = indices_to_mask(&sel, 3);
        assert_eq!(mask[0], vec![true, false, true]);
        assert_eq!(mask[1], vec![false, true, false]);
        assert_eq!(row_counts(&mask), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indices_to_mask_checks_bounds() {
        let _ = indices_to_mask(&[vec![5]], 3);
    }

    #[test]
    fn threshold_mask_matches_kth_value() {
        let m = Matrix::from_rows(&[&[0.1, 0.5, 0.9, 0.3]]).unwrap();
        let kth = kth_value_rows(&m, 2);
        let mask = threshold_mask(&m, kth[0]);
        assert_eq!(row_counts(&mask), vec![2]);
        assert!(mask[0][2] && mask[0][1]);
    }

    #[test]
    fn mask_density_counts() {
        let mask = vec![vec![true, false], vec![false, false]];
        assert!((mask_density(&mask) - 0.25).abs() < 1e-9);
        assert_eq!(mask_density(&[]), 0.0);
    }

    #[test]
    fn recall_perfect_and_disjoint() {
        let a = vec![vec![0, 1], vec![2, 3]];
        assert_eq!(selection_recall(&a, &a), 1.0);
        let b = vec![vec![4, 5], vec![6, 7]];
        assert_eq!(selection_recall(&a, &b), 0.0);
        let c = vec![vec![0, 5], vec![2, 7]];
        assert!((selection_recall(&a, &c) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn recall_of_topk_under_noise_degrades_gracefully() {
        let mut rng = SeededRng::new(2);
        let scores = rng.normal_matrix(16, 64, 1.0);
        let noisy = scores
            .add(&rng.normal_matrix(16, 64, 0.1))
            .expect("same shape");
        let exact = top_k_rows(&scores, 8);
        let approx = top_k_rows(&noisy, 8);
        let recall = selection_recall(&exact, &approx);
        assert!(recall > 0.7, "recall {recall}");
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::reference;
    use crate::rng::SeededRng;
    use proptest::prelude::*;

    /// A row drawn from a small palette so ties are common (like quantized
    /// scores), salted with signed zeros, infinities and NaNs.
    fn palette_row(seed: u64, len: usize, specials: bool) -> Vec<f32> {
        let mut rng = SeededRng::new(seed);
        let special = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        (0..len)
            .map(|_| {
                if specials && rng.below(4) == 0 {
                    special[rng.below(special.len())]
                } else {
                    (rng.below(7) as f32 - 3.0) * 0.25
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The select-based top-k returns exactly the full sort's prefix for
        /// every `k` from empty to past the row length.
        #[test]
        fn top_k_matches_full_sort(
            seed in 0u64..1_000_000,
            len in 0usize..300,
            specials in any::<bool>(),
        ) {
            let row = palette_row(seed, len, specials);
            let mut ks = vec![0, 1, len.saturating_sub(1), len, len + 1, len + 7];
            ks.push(SeededRng::new(seed ^ 0x5eed).below(len + 1));
            for k in ks {
                prop_assert_eq!(top_k_indices(&row, k), reference::top_k_indices(&row, k));
            }
        }
    }
}
