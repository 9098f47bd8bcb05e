//! Quantized host GEMM kernels mirroring the RMMU precision modes.
//!
//! The RMMU model (`rmmu`) prices low-precision products in *cycles*; this
//! module makes the same precision modes a real execution path on the
//! host, so `bench_report` can put measured fp32-vs-int8 throughput next
//! to the cycle model in `BENCH_kernels.json`:
//!
//! * [`Int8Matrix`] — codes narrowed to `i8` (any [`Precision`] of ≤ 8
//!   bits fits), with an i32-accumulating `A·Bᵀ` kernel.
//! * [`Int4Packed`] — two INT4 codes per byte (the storage the RMMU's
//!   bit-fusion blocks assume), unpacked once into the same kernel.
//!
//! The kernel packs the key operand (`B`) once into panels of 8 keys with
//! the depth interleaved in pairs as `i16`, and each query row's codes
//! into `i32` words holding one depth pair. A tile of 4 query rows × 8 keys
//! then costs one panel load, 4 broadcasts and 4 AVX2 `madd_epi16` per
//! depth pair, with every sum kept in a register — at the detector's depth
//! of 12 that replaces 32 separate dot products, each paying a call and a
//! scalar tail. Hosts without AVX2 run the same tiles in scalar code.
//! Integer addition is associative, so the SIMD and scalar paths are
//! bitwise identical at every depth by construction — no kernel-family
//! knob is needed here, only availability. Scale handling is exactly
//! [`QuantizedMatrix`]'s: symmetric, zero-point 0, output scaled by the
//! product of the operand scales.
//!
//! [`QuantizedMatrix::matmul_nt_dequant`] routes through the `i8` kernel
//! automatically whenever its operands fit, so the detector's estimated
//! scores (the `S̃ = Q̃·K̃ᵀ` path) get the fast kernel without callers
//! changing.

use crate::{Precision, QuantizedMatrix, Quantizer};
use dota_tensor::{Matrix, ShapeError};

/// Largest inner dimension the i32-accumulating kernel accepts: every
/// partial product is at most `2^14` in magnitude (`(-128)²`), so `k`
/// summands stay well inside `i32` for any `k < 2^16` with headroom to
/// spare. Bigger products fall back to the `i64` scalar path.
pub const I32_SAFE_K: usize = 1 << 16;

/// A quantized matrix with codes narrowed to `i8`.
///
/// Any precision of 8 bits or fewer fits; the value range is whatever the
/// source [`Precision`] allows, the storage is always one byte per code —
/// a quarter of [`QuantizedMatrix`]'s `i32` codes, which is the point: the
/// kernel is memory-bound on the operand streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Int8Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scale: f32,
    precision: Precision,
}

impl Int8Matrix {
    /// Narrows a [`QuantizedMatrix`] to `i8` codes.
    ///
    /// # Panics
    ///
    /// Panics if the source precision is wider than 8 bits (`Fx16` codes
    /// do not fit a byte).
    pub fn from_quantized(q: &QuantizedMatrix) -> Self {
        assert!(
            q.precision().bits() <= 8,
            "{} codes do not fit i8",
            q.precision()
        );
        let mut data = Vec::with_capacity(q.rows() * q.cols());
        for r in 0..q.rows() {
            data.extend(q.code_row(r).iter().map(|&c| c as i8));
        }
        Self {
            rows: q.rows(),
            cols: q.cols(),
            data,
            scale: q.scale(),
            precision: q.precision(),
        }
    }

    /// Quantizes a real matrix at `precision` (≤ 8 bits) and narrows it.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is wider than 8 bits.
    pub fn quantize(m: &Matrix, precision: Precision) -> Self {
        Self::from_quantized(&Quantizer::symmetric(precision).quantize(m))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantization scale (real value per integer step).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The precision the codes fit in.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Row `r` of `i8` codes.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn code_row(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Integer matrix product with transposed right operand,
    /// `self · otherᵀ`, dequantized by both scales — the low-precision
    /// score kernel, on host lanes.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the inner dimensions disagree.
    pub fn matmul_nt_dequant(&self, other: &Int8Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.cols {
            return Err(ShapeError::new(
                "qmatmul_nt_i8",
                (self.rows, self.cols),
                (other.rows, other.cols),
            ));
        }
        let _prof = dota_prof::span("gemm.qmatmul_nt_i8");
        Ok(matmul_nt_codes(
            &self.data,
            self.rows,
            &other.data,
            other.rows,
            self.cols,
            self.scale * other.scale,
        ))
    }
}

/// Query rows per tile: `MR` accumulators share each key-panel load.
const MR: usize = 4;
/// Keys per panel: one AVX2 register of eight `i32` sums per query row.
const NR: usize = 8;

/// `a · bᵀ` over `i8` codes (`a` is `m × k`, `b` is `n × k`, both
/// row-major), each exact integer sum converted to `f32` and multiplied by
/// `out_scale`. Depths of [`I32_SAFE_K`] or more take the `i64` path.
fn matmul_nt_codes(a: &[i8], m: usize, b: &[i8], n: usize, k: usize, out_scale: f32) -> Matrix {
    if k >= I32_SAFE_K {
        // Never hit by the paper's sequence lengths.
        return matmul_nt_i64(a, m, b, n, k, out_scale);
    }
    let packed = Packed::new(a, m, b, n, k);
    let mut out = Matrix::zeros(m, n);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 verified just above, the only requirement.
        unsafe { tiles_avx2(&packed, &mut out, out_scale) };
        return out;
    }
    tiles_scalar(&packed, &mut out, out_scale);
    out
}

/// The operands of [`matmul_nt_codes`] in tile order.
struct Packed {
    /// Query rows padded to a whole tile, one depth pair per `i32` (low
    /// half the even depth), matching the panels' lane order.
    a_words: Vec<i32>,
    /// Key panels of `NR` keys: per depth pair, `[b_t[2p], b_t[2p+1]]` for
    /// each key `t`; missing keys are zero.
    panels: Vec<i16>,
    /// Depth pairs per row; a zero depth still packs one all-zero pair.
    pairs: usize,
}

impl Packed {
    fn new(a: &[i8], m: usize, b: &[i8], n: usize, k: usize) -> Self {
        let pairs = k.div_ceil(2).max(1);
        let code = |row: &[i8], p: usize| -> [i16; 2] {
            let at = |c: usize| row.get(c).map_or(0, |&x| i16::from(x));
            [at(2 * p), at(2 * p + 1)]
        };
        let mut a_words = vec![0i32; m.div_ceil(MR) * MR * pairs];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            for p in 0..pairs {
                let [lo, hi] = code(row, p);
                a_words[i * pairs + p] = i32::from(lo as u16) | (i32::from(hi) << 16);
            }
        }
        let mut panels = vec![0i16; n.div_ceil(NR) * pairs * 2 * NR];
        for j in 0..n {
            let row = &b[j * k..(j + 1) * k];
            let (panel, t) = (j / NR, j % NR);
            for p in 0..pairs {
                let at = (panel * pairs + p) * 2 * NR + 2 * t;
                panels[at..at + 2].copy_from_slice(&code(row, p));
            }
        }
        Self {
            a_words,
            panels,
            pairs,
        }
    }
}

/// Writes one tile's sums into `out` at `(i0, j0)`, clipped to the matrix.
fn store_tile(out: &mut Matrix, i0: usize, j0: usize, acc: &[[i32; NR]; MR], out_scale: f32) {
    let (m, n) = out.shape();
    for (r, sums) in acc.iter().enumerate().take(m - i0) {
        let row = &mut out.row_mut(i0 + r)[j0..(j0 + NR).min(n)];
        for (o, &s) in row.iter_mut().zip(sums) {
            *o = s as f32 * out_scale;
        }
    }
}

/// Portable tiles over [`Packed`] operands.
fn tiles_scalar(packed: &Packed, out: &mut Matrix, out_scale: f32) {
    let pairs = packed.pairs;
    for (ib, words) in packed.a_words.chunks_exact(MR * pairs).enumerate() {
        for (jb, panel) in packed.panels.chunks_exact(2 * NR * pairs).enumerate() {
            let mut acc = [[0i32; NR]; MR];
            for (p, lanes) in panel.chunks_exact(2 * NR).enumerate() {
                for (r, sums) in acc.iter_mut().enumerate() {
                    let w = words[r * pairs + p];
                    let (lo, hi) = (i32::from(w as i16), w >> 16);
                    for (s, b) in sums.iter_mut().zip(lanes.chunks_exact(2)) {
                        *s += lo * i32::from(b[0]) + hi * i32::from(b[1]);
                    }
                }
            }
            store_tile(out, ib * MR, jb * NR, &acc, out_scale);
        }
    }
}

/// AVX2 tiles over [`Packed`] operands; bitwise identical to
/// [`tiles_scalar`].
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tiles_avx2(packed: &Packed, out: &mut Matrix, out_scale: f32) {
    use std::arch::x86_64::*;
    let (m, n) = out.shape();
    let pairs = packed.pairs;
    let scale = _mm256_set1_ps(out_scale);
    for (ib, words) in packed.a_words.chunks_exact(MR * pairs).enumerate() {
        let i0 = ib * MR;
        for (jb, panel) in packed.panels.chunks_exact(2 * NR * pairs).enumerate() {
            let j0 = jb * NR;
            let mut acc = [_mm256_setzero_si256(); MR];
            for p in 0..pairs {
                // SAFETY: `panel` holds `pairs` runs of 16 `i16`.
                let b = _mm256_loadu_si256(panel.as_ptr().add(p * 2 * NR) as *const __m256i);
                for (r, a) in acc.iter_mut().enumerate() {
                    let w = _mm256_set1_epi32(words[r * pairs + p]);
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(w, b));
                }
            }
            if i0 + MR <= m && j0 + NR <= n {
                for (r, a) in acc.iter().enumerate() {
                    let row = out.row_mut(i0 + r)[j0..j0 + NR].as_mut_ptr();
                    // `cvtepi32_ps` rounds to nearest like `as f32`, and
                    // `mul_ps` is the same IEEE product as the scalar `*`.
                    let f = _mm256_mul_ps(_mm256_cvtepi32_ps(*a), scale);
                    // SAFETY: the slice above has exactly `NR` floats.
                    _mm256_storeu_ps(row, f);
                }
            } else {
                let mut sums = [[0i32; NR]; MR];
                for (s, a) in sums.iter_mut().zip(&acc) {
                    // SAFETY: `s` is `NR` = 8 `i32`, one register.
                    _mm256_storeu_si256(s.as_mut_ptr() as *mut __m256i, *a);
                }
                store_tile(out, i0, j0, &sums, out_scale);
            }
        }
    }
}

/// `a · bᵀ` accumulated in `i64`: the exact path for operands too wide or
/// too deep for the `i32` kernel, and the oracle it is tested against.
pub(crate) fn matmul_nt_i64<T: Copy + Into<i64>>(
    a: &[T],
    m: usize,
    b: &[T],
    n: usize,
    k: usize,
    out_scale: f32,
) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, o) in out.row_mut(i).iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let acc: i64 = a_row
                .iter()
                .zip(b_row)
                .map(|(&x, &y)| x.into() * y.into())
                .sum();
            *o = acc as f32 * out_scale;
        }
    }
    out
}

/// An INT4 (or INT2) matrix packed two codes per byte, the density the
/// RMMU's bit-fusion multiplier blocks assume: column `2c` in the low
/// nibble, `2c+1` in the high nibble, rows padded to a whole byte.
#[derive(Debug, Clone, PartialEq)]
pub struct Int4Packed {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
    scale: f32,
    precision: Precision,
}

impl Int4Packed {
    /// Packs a [`QuantizedMatrix`] of ≤ 4-bit codes, two per byte.
    ///
    /// # Panics
    ///
    /// Panics if the source precision is wider than 4 bits.
    pub fn from_quantized(q: &QuantizedMatrix) -> Self {
        assert!(
            q.precision().bits() <= 4,
            "{} codes do not fit a nibble",
            q.precision()
        );
        let bytes_per_row = q.cols().div_ceil(2);
        let mut data = Vec::with_capacity(q.rows() * bytes_per_row);
        for r in 0..q.rows() {
            let row = q.code_row(r);
            for pair in row.chunks(2) {
                let lo = (pair[0] as u8) & 0x0f;
                let hi = pair.get(1).map_or(0, |&c| (c as u8) & 0x0f);
                data.push(lo | (hi << 4));
            }
        }
        Self {
            rows: q.rows(),
            cols: q.cols(),
            data,
            scale: q.scale(),
            precision: q.precision(),
        }
    }

    /// Quantizes a real matrix at `precision` (≤ 4 bits) and packs it.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is wider than 4 bits.
    pub fn quantize(m: &Matrix, precision: Precision) -> Self {
        Self::from_quantized(&Quantizer::symmetric(precision).quantize(m))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (codes, not bytes).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantization scale (real value per integer step).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The precision the codes fit in.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Packed bytes behind the matrix (half a byte per code).
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Sign-extends row `r` into `buf` (length ≥ `cols`) as `i8` codes.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `buf` is too short.
    pub fn unpack_row(&self, r: usize, buf: &mut [i8]) {
        assert!(r < self.rows, "row out of bounds");
        let bytes_per_row = self.cols.div_ceil(2);
        let row = &self.data[r * bytes_per_row..(r + 1) * bytes_per_row];
        for c in 0..self.cols {
            let byte = row[c / 2];
            let nibble = if c % 2 == 0 { byte & 0x0f } else { byte >> 4 };
            // Shift to the top of the byte and back: arithmetic shift
            // right sign-extends the nibble.
            buf[c] = ((nibble << 4) as i8) >> 4;
        }
    }

    /// Integer matrix product with transposed right operand,
    /// `self · otherᵀ`, dequantized by both scales. Both operands unpack
    /// once to `i8` codes that then run the same kernel as
    /// [`Int8Matrix::matmul_nt_dequant`] — unpacking is O((m+n)·k)
    /// against O(m·n·k) arithmetic.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the inner dimensions disagree.
    pub fn matmul_nt_dequant(&self, other: &Int4Packed) -> Result<Matrix, ShapeError> {
        if self.cols != other.cols {
            return Err(ShapeError::new(
                "qmatmul_nt_i4",
                (self.rows, self.cols),
                (other.rows, other.cols),
            ));
        }
        let _prof = dota_prof::span("gemm.qmatmul_nt_i4");
        Ok(matmul_nt_codes(
            &self.unpack(),
            self.rows,
            &other.unpack(),
            other.rows,
            self.cols,
            self.scale * other.scale,
        ))
    }

    /// Every row sign-extended to `i8` codes, row-major.
    fn unpack(&self) -> Vec<i8> {
        let mut codes = vec![0i8; self.rows * self.cols];
        for (r, buf) in codes.chunks_exact_mut(self.cols.max(1)).enumerate() {
            self.unpack_row(r, buf);
        }
        codes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_tensor::rng::SeededRng;

    /// Depths around the pair and tile boundaries, the detector's 12, and
    /// a deep product.
    const DEPTHS: [usize; 10] = [1, 2, 11, 12, 13, 16, 17, 37, 64, 512];
    /// Row and key counts that leave partial tiles (4 rows, 8 keys) too.
    const SHAPES: [(usize, usize); 4] = [(9, 13), (1, 1), (4, 8), (6, 21)];

    /// Row-major codes of a quantized matrix.
    fn codes(q: &QuantizedMatrix) -> Vec<i32> {
        (0..q.rows()).flat_map(|r| q.code_row(r).to_vec()).collect()
    }

    /// The `i64` scalar path on `qa · qbᵀ`.
    fn i64_path(qa: &QuantizedMatrix, qb: &QuantizedMatrix) -> Matrix {
        let (a, b) = (codes(qa), codes(qb));
        let scale = qa.scale() * qb.scale();
        matmul_nt_i64(&a, qa.rows(), &b, qb.rows(), qa.cols(), scale)
    }

    fn assert_bits_eq(want: &Matrix, got: &Matrix, what: &str) {
        assert_eq!(want.shape(), got.shape(), "{what}");
        let want_bits: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
        let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(want_bits, got_bits, "{what}");
    }

    #[test]
    fn i8_matmul_matches_i32_reference_bitwise() {
        // Integer accumulation has one possible answer; the f32 conversion
        // and scaling are identical expressions — so the tiled kernel, on
        // whichever lanes this host runs and on the portable tiles, must
        // agree with the i64 path bit for bit, not just approximately.
        let mut rng = SeededRng::new(11);
        for p in [Precision::Int2, Precision::Int4, Precision::Int8] {
            for k in DEPTHS {
                for (m, n) in SHAPES {
                    let what = format!("{p} {m}x{n}x{k}");
                    let qa = Quantizer::symmetric(p).quantize(&rng.normal_matrix(m, k, 1.0));
                    let qb = Quantizer::symmetric(p).quantize(&rng.normal_matrix(n, k, 1.0));
                    let want = i64_path(&qa, &qb);
                    let (a8, b8) = (
                        Int8Matrix::from_quantized(&qa),
                        Int8Matrix::from_quantized(&qb),
                    );
                    assert_bits_eq(&want, &a8.matmul_nt_dequant(&b8).unwrap(), &what);
                    assert_bits_eq(&want, &qa.matmul_nt_dequant(&qb).unwrap(), &what);
                    let mut scalar = Matrix::zeros(m, n);
                    let packed = Packed::new(&a8.data, m, &b8.data, n, k);
                    tiles_scalar(&packed, &mut scalar, a8.scale * b8.scale);
                    assert_bits_eq(&want, &scalar, &what);
                }
            }
        }
    }

    #[test]
    fn i8_matmul_extreme_codes_do_not_overflow() {
        // Every code at -128: each madd pair is 2·(-128)² = 2^15, the
        // largest an i16 pair can make, summed over a deep product.
        let q = Quantizer::symmetric(Precision::Int8);
        let qa = q.quantize_with_scale(&Matrix::filled(5, 512, -1e3), 1.0);
        let qb = q.quantize_with_scale(&Matrix::filled(11, 512, -1e3), 1.0);
        assert_eq!(qa.code(0, 0), -128);
        let got = Int8Matrix::from_quantized(&qa)
            .matmul_nt_dequant(&Int8Matrix::from_quantized(&qb))
            .unwrap();
        assert_bits_eq(&i64_path(&qa, &qb), &got, "extreme codes");
        assert_eq!(got[(4, 10)], (512 * 128 * 128) as f32);
    }

    #[test]
    fn int4_pack_round_trips() {
        let mut rng = SeededRng::new(12);
        for p in [Precision::Int2, Precision::Int4] {
            // Odd column count exercises the padded last nibble.
            let m = rng.normal_matrix(5, 7, 1.0);
            let q = Quantizer::symmetric(p).quantize(&m);
            let packed = Int4Packed::from_quantized(&q);
            assert_eq!(packed.packed_bytes(), 5 * 4); // ceil(7/2) bytes per row
            let mut buf = vec![0i8; 7];
            for r in 0..5 {
                packed.unpack_row(r, &mut buf);
                let want: Vec<i8> = q.code_row(r).iter().map(|&c| c as i8).collect();
                assert_eq!(buf, want, "{p} row {r}");
            }
        }
    }

    #[test]
    fn int4_matmul_matches_i32_reference_bitwise() {
        let mut rng = SeededRng::new(13);
        for p in [Precision::Int2, Precision::Int4] {
            for k in DEPTHS {
                for (m, n) in SHAPES {
                    let qa = Quantizer::symmetric(p).quantize(&rng.normal_matrix(m, k, 1.0));
                    let qb = Quantizer::symmetric(p).quantize(&rng.normal_matrix(n, k, 1.0));
                    let got = Int4Packed::from_quantized(&qa)
                        .matmul_nt_dequant(&Int4Packed::from_quantized(&qb))
                        .unwrap();
                    assert_bits_eq(&i64_path(&qa, &qb), &got, &format!("{p} {m}x{n}x{k}"));
                }
            }
        }
    }

    #[test]
    fn shape_errors() {
        let a = Int8Matrix::quantize(&Matrix::zeros(2, 3), Precision::Int8);
        let b = Int8Matrix::quantize(&Matrix::zeros(2, 4), Precision::Int8);
        assert!(a.matmul_nt_dequant(&b).is_err());
        let pa = Int4Packed::quantize(&Matrix::zeros(2, 3), Precision::Int4);
        let pb = Int4Packed::quantize(&Matrix::zeros(2, 4), Precision::Int4);
        assert!(pa.matmul_nt_dequant(&pb).is_err());
    }

    #[test]
    #[should_panic(expected = "do not fit i8")]
    fn fx16_rejected_by_i8() {
        let q = Quantizer::symmetric(Precision::Fx16).quantize(&Matrix::zeros(2, 2));
        let _ = Int8Matrix::from_quantized(&q);
    }

    #[test]
    #[should_panic(expected = "do not fit a nibble")]
    fn int8_rejected_by_nibble_packing() {
        let q = Quantizer::symmetric(Precision::Int8).quantize(&Matrix::zeros(2, 2));
        let _ = Int4Packed::from_quantized(&q);
    }
}
