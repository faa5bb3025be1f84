//! Minimal dense matrix type and the two decompositions the fitting code
//! needs: Householder QR (least squares) and Cholesky (normal equations
//! inside NNLS).

use serde::{Deserialize, Serialize};

/// Row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major slice of rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let ncols = rows.first().map_or(0, Vec::len);
        let mut m = Matrix::zeros(rows.len(), ncols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols, "ragged rows");
            m.data[i * ncols..(i + 1) * ncols].copy_from_slice(r);
        }
        m
    }

    /// Identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The elements, row-major.
    #[must_use]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrowed row slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch in matmul");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "shape mismatch in matvec");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Least-squares solution of `self * x ≈ b` via Householder QR with
    /// column pivoting omitted (the design matrices here are tiny and well
    /// scaled after normalization). Rank-deficient columns get coefficient
    /// zero.
    ///
    /// Returns `None` if shapes mismatch or fewer rows than columns.
    #[must_use]
    pub fn solve_least_squares(&self, b: &[f64]) -> Option<Vec<f64>> {
        if b.len() != self.rows || self.rows < self.cols || self.cols == 0 {
            return None;
        }
        let m = self.rows;
        let n = self.cols;
        let mut a = self.data.clone();
        let mut y = b.to_vec();
        // Householder transformations, applied in place.
        for k in 0..n {
            // Norm of the k-th column below the diagonal.
            let mut norm = 0.0;
            for i in k..m {
                norm += a[i * n + k] * a[i * n + k];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                continue; // zero column: leave as-is; back-substitution zeroes it.
            }
            let alpha = if a[k * n + k] > 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            v[k] = a[k * n + k] - alpha;
            for (i, vi) in v.iter_mut().enumerate().take(m).skip(k + 1) {
                *vi = a[i * n + k];
            }
            let vtv: f64 = v[k..].iter().map(|x| x * x).sum();
            if vtv < 1e-300 {
                continue;
            }
            // Apply H = I - 2 v vᵀ / (vᵀv) to A[:, k..] and y.
            for j in k..n {
                let dot: f64 = (k..m).map(|i| v[i] * a[i * n + j]).sum();
                let s = 2.0 * dot / vtv;
                for i in k..m {
                    a[i * n + j] -= s * v[i];
                }
            }
            let dot: f64 = (k..m).map(|i| v[i] * y[i]).sum();
            let s = 2.0 * dot / vtv;
            for i in k..m {
                y[i] -= s * v[i];
            }
        }
        // Back substitution on the upper-triangular R.
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut sum = y[k];
            for j in k + 1..n {
                sum -= a[k * n + j] * x[j];
            }
            let diag = a[k * n + k];
            x[k] = if diag.abs() < 1e-12 { 0.0 } else { sum / diag };
        }
        Some(x)
    }

    /// Solves the symmetric positive-definite system `self * x = b` via
    /// Cholesky. Returns `None` if the matrix is not (numerically) SPD.
    ///
    /// # Panics
    /// Panics if the matrix is not square or `b` has the wrong length.
    #[must_use]
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve_spd needs a square matrix");
        assert_eq!(b.len(), self.rows);
        let (mut l, mut x) = (Vec::new(), Vec::new());
        cholesky_solve(self.rows, |i, j| self[(i, j)], |i| b[i], &mut l, &mut x).then_some(x)
    }

    /// `log(det(selfᵀ · self + ridge·I))` — the D-optimality objective used
    /// by the greedy experiment-design selector.
    ///
    /// # Panics
    /// Panics if `ridge < 0`.
    #[must_use]
    pub fn logdet_gram(&self, ridge: f64) -> f64 {
        assert!(ridge >= 0.0);
        let mut g = self.transpose().matmul(self);
        for i in 0..g.rows {
            g[(i, i)] += ridge;
        }
        // Cholesky log-det: 2 Σ log L_ii.
        let n = g.rows;
        let mut l = vec![0.0f64; n * n];
        let mut logdet = 0.0;
        for i in 0..n {
            for j in 0..=i {
                let mut sum = g[(i, j)];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return f64::NEG_INFINITY;
                    }
                    l[i * n + j] = sum.sqrt();
                    logdet += 2.0 * l[i * n + j].ln();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        logdet
    }
}

/// Solves the `n × n` symmetric positive-definite system `G·x = rhs` by
/// Cholesky, reading `G` through `g(row, col)` (only `col <= row`) and
/// `rhs` through `rhs(row)`. The factor goes to `l` and the solution to
/// `x`, both caller-owned so repeated solves can reuse them. Returns
/// `false` if `G` is not (numerically) positive definite.
pub(crate) fn cholesky_solve(
    n: usize,
    g: impl Fn(usize, usize) -> f64,
    rhs: impl Fn(usize) -> f64,
    l: &mut Vec<f64>,
    x: &mut Vec<f64>,
) -> bool {
    // Cholesky factor L (lower), row-major.
    l.clear();
    l.resize(n * n, 0.0);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = g(i, j);
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return false;
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    // Forward substitution L z = rhs, then backward Lᵀ x = z in place.
    x.clear();
    for i in 0..n {
        let mut sum = rhs(i);
        for k in 0..i {
            sum -= l[i * n + k] * x[k];
        }
        x.push(sum / l[i * n + i]);
    }
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    true
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let at = a.transpose();
        assert_eq!(at.rows(), 2);
        assert_eq!(at.cols(), 3);
        let g = at.matmul(&a);
        assert_eq!(g[(0, 0)], 35.0);
        assert_eq!(g[(0, 1)], 44.0);
        assert_eq!(g[(1, 1)], 56.0);
    }

    #[test]
    fn matvec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 2.0]]);
        assert_close(&a.matvec(&[2.0, 3.0]), &[-1.0, 7.0], 1e-12);
    }

    #[test]
    fn least_squares_exact_system() {
        // x = [2, -3] exactly.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let b = [2.0, -3.0, -1.0];
        let x = a.solve_least_squares(&b).unwrap();
        assert_close(&x, &[2.0, -3.0], 1e-10);
    }

    #[test]
    fn least_squares_overdetermined_regression() {
        // Fit y = 3 + 2 t on noisy-free points.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![1.0, t]).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| 3.0 + 2.0 * t).collect();
        let x = Matrix::from_rows(&rows).solve_least_squares(&ys).unwrap();
        assert_close(&x, &[3.0, 2.0], 1e-10);
    }

    #[test]
    fn least_squares_rank_deficient_gives_zero_coeff() {
        // Second column is all zeros.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0], vec![3.0, 0.0]]);
        let b = [2.0, 4.0, 6.0];
        let x = a.solve_least_squares(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert!(a.solve_least_squares(&[1.0]).is_none());
    }

    #[test]
    fn spd_solve_roundtrip() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve_spd(&[1.0, 2.0]).unwrap();
        let back = a.matvec(&x);
        assert_close(&back, &[1.0, 2.0], 1e-12);
    }

    #[test]
    fn spd_solve_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(a.solve_spd(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn logdet_gram_of_identity() {
        let i3 = Matrix::identity(3);
        assert!((i3.logdet_gram(0.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn logdet_gram_monotone_in_added_rows() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        assert!(b.logdet_gram(1e-9) > a.logdet_gram(1e-9));
    }
}
