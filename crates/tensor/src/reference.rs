//! Naive reference kernels: the shared test oracle.
//!
//! Every product in [`crate::Matrix`]'s optimized GEMM family (`A·B`,
//! `A·Bᵀ`, `Aᵀ·B`) is validated against the corresponding textbook triple
//! loop here, both by the unit tests in `gemm.rs` and by the property tests
//! in `tests/parallel_kernels.rs`; [`crate::topk::top_k_indices`] is
//! validated against the full-sort [`top_k_indices`]. Keeping the oracle in
//! one place means there is exactly one definition of "the right answer" —
//! the optimized kernels may reorder work for speed, the oracle never does.

use crate::Matrix;
use std::cmp::Ordering;

/// Textbook `A·B`: `out[i][j] = Σ_k a[i][k]·b[k][j]`, accumulated in
/// ascending `k` order with a single accumulator.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "reference matmul shape");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Textbook `A·Bᵀ`: `out[i][j] = Σ_k a[i][k]·b[j][k]`.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "reference matmul_nt shape");
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(j, k)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Textbook `Aᵀ·B`: `out[i][j] = Σ_k a[k][i]·b[k][j]`.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "reference matmul_tn shape");
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.rows() {
                acc += a[(k, i)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Full-sort top-k: every index sorted by value descending (NaN after every
/// number, `-0.0` equal to `+0.0`), ties toward the lower index, then
/// truncated to `k`.
pub fn top_k_indices(row: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| {
        let (x, y) = (row[a], row[b]);
        let by_value = match (x.is_nan(), y.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => y.partial_cmp(&x).expect("neither value is NaN"),
        };
        by_value.then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}
