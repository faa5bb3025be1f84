//! Non-negative least squares (Lawson–Hanson active-set algorithm).
//!
//! Juggler trains its size and time models with scipy's `curve_fit` under
//! "enforced positive bounds, which avoids negative coefficients" (§5.2).
//! For linear-in-coefficients models that is exactly the NNLS problem
//! `min ‖A·x − b‖₂ s.t. x ≥ 0`.

use crate::linalg::{cholesky_solve, Matrix};

/// Solves `min ‖a·x − b‖₂` subject to `x ≥ 0` with Lawson–Hanson.
///
/// Returns the coefficient vector (length `a.cols()`). The algorithm always
/// terminates on finite inputs; an internal iteration cap (`30 · cols`)
/// guards against numerically degenerate cycling, returning the best iterate
/// found.
///
/// # Panics
/// Panics if `b.len() != a.rows()`, or if an input is non-finite.
#[must_use]
pub fn nnls(a: &Matrix, b: &[f64]) -> Vec<f64> {
    nnls_with_stats(a, b).0
}

/// [`nnls`] plus the number of Lawson–Hanson outer iterations the solve
/// took — the model-quality diagnostics surface this, and each solve also
/// feeds the `modeling_nnls_*` metrics when the global registry is
/// enabled.
///
/// # Panics
/// Panics if `b.len() != a.rows()`, or if an input is non-finite.
#[must_use]
pub fn nnls_with_stats(a: &Matrix, b: &[f64]) -> (Vec<f64>, u64) {
    assert_eq!(b.len(), a.rows(), "shape mismatch in nnls");
    let mut ws = NnlsWorkspace::default();
    let (da, db) = ws.load(a.rows(), a.cols());
    da.copy_from_slice(a.as_slice());
    db.copy_from_slice(b);
    let iterations = ws.solve();
    (std::mem::take(&mut ws.x), iterations)
}

/// Every buffer one Lawson–Hanson solve touches, reused from solve to
/// solve: after the first solve of a given shape, solving allocates
/// nothing. LOO-CV runs all folds of all candidates of one model
/// selection through a single workspace.
///
/// The arithmetic is the textbook dense formulation (transpose, Gram
/// product, restricted normal equations solved by Cholesky), performed in
/// exactly that operation order, so results and iteration counts are
/// bit-identical to building each matrix afresh.
#[derive(Debug, Default)]
pub(crate) struct NnlsWorkspace {
    rows: usize,
    cols: usize,
    /// The design matrix, row-major `rows × cols`; column-normalized in
    /// place by [`NnlsWorkspace::solve`].
    a: Vec<f64>,
    /// The right-hand side, length `rows`.
    b: Vec<f64>,
    /// Column norms the coefficients are unscaled by.
    scales: Vec<f64>,
    /// `AᵀA`, `cols × cols`.
    gram: Vec<f64>,
    /// `Aᵀb`.
    atb: Vec<f64>,
    /// The current iterate; the solution once `solve` returns.
    x: Vec<f64>,
    /// The passive-set candidate solution (zero off the passive set).
    z: Vec<f64>,
    /// The negative gradient `Aᵀb − AᵀA·x`.
    w: Vec<f64>,
    passive: Vec<bool>,
    /// Indices of the passive columns, ascending.
    idx: Vec<usize>,
    /// Cholesky factor of the restricted Gram matrix, `k × k`.
    chol: Vec<f64>,
    /// The restricted solution.
    y: Vec<f64>,
}

impl NnlsWorkspace {
    /// Shapes the workspace for a `rows × cols` problem and returns the
    /// design-matrix and right-hand-side buffers for the caller to fill.
    pub(crate) fn load(&mut self, rows: usize, cols: usize) -> (&mut [f64], &mut [f64]) {
        self.rows = rows;
        self.cols = cols;
        self.a.resize(rows * cols, 0.0);
        self.b.resize(rows, 0.0);
        (&mut self.a[..rows * cols], &mut self.b[..rows])
    }

    /// The coefficients of the last [`NnlsWorkspace::solve`].
    pub(crate) fn solution(&self) -> &[f64] {
        &self.x[..self.cols]
    }

    /// Solves the loaded problem and returns the number of outer
    /// iterations. Columns are normalized to unit norm first: design
    /// matrices here span many orders of magnitude (a constant term next
    /// to e·f ~ 1e10), and unit columns keep the Gram matrix well
    /// conditioned. Unscaling at the end preserves non-negativity because
    /// the scales are positive.
    pub(crate) fn solve(&mut self) -> u64 {
        let _prof = obs::prof::scope("nnls");
        let (m, n) = (self.rows, self.cols);
        let a = &mut self.a[..m * n];
        self.scales.clear();
        self.scales.resize(n, 1.0);
        for j in 0..n {
            let norm = (0..m)
                .map(|i| a[i * n + j] * a[i * n + j])
                .sum::<f64>()
                .sqrt();
            if norm > 1e-300 {
                self.scales[j] = norm;
                for i in 0..m {
                    a[i * n + j] /= norm;
                }
            }
        }
        let iterations = self.lawson_hanson();
        for (x, scale) in self.x.iter_mut().zip(&self.scales) {
            *x /= scale;
        }
        obs::prof::count("nnls_iterations", iterations);
        let reg = obs::global();
        if reg.enabled() {
            reg.counter("modeling_nnls_solves_total", "NNLS solves performed")
                .inc();
            reg.counter(
                "modeling_nnls_iterations_total",
                "Lawson-Hanson outer iterations across all solves",
            )
            .add(iterations);
            reg.histogram(
                "modeling_nnls_iterations",
                "Lawson-Hanson outer iterations per solve",
            )
            .record(iterations);
        }
        iterations
    }

    /// Lawson–Hanson on the column-normalized matrix. Leaves the solution
    /// in `x` and returns the number of outer iterations executed.
    fn lawson_hanson(&mut self) -> u64 {
        let (m, n) = (self.rows, self.cols);
        let a = &self.a[..m * n];
        let b = &self.b[..m];
        // AᵀA, accumulated as the row-by-column product of Aᵀ and A.
        self.gram.clear();
        self.gram.resize(n * n, 0.0);
        for i in 0..n {
            for k in 0..m {
                let v = a[k * n + i];
                if v == 0.0 {
                    continue;
                }
                for j in 0..n {
                    self.gram[i * n + j] += v * a[k * n + j];
                }
            }
        }
        self.atb.clear();
        self.atb
            .extend((0..n).map(|i| (0..m).map(|k| a[k * n + i] * b[k]).sum::<f64>()));
        for v in [&mut self.x, &mut self.z, &mut self.w] {
            v.clear();
            v.resize(n, 0.0);
        }
        self.passive.clear();
        self.passive.resize(n, false);
        let max_outer = 30 * n.max(1);
        let tol = 1e-10 * (1.0 + self.atb.iter().fold(0.0f64, |m, v| m.max(v.abs())));

        let mut iterations = 0u64;
        for _ in 0..max_outer {
            iterations += 1;
            // Gradient of ½‖Ax−b‖² is AᵀAx − Aᵀb; w = −gradient.
            for j in 0..n {
                let grad: f64 = self.gram[j * n..(j + 1) * n]
                    .iter()
                    .zip(&self.x)
                    .map(|(g, x)| g * x)
                    .sum();
                self.w[j] = self.atb[j] - grad;
            }

            // Pick the most violated inactive constraint.
            let (w, passive) = (&self.w, &self.passive);
            let candidate = (0..n)
                .filter(|&j| !passive[j])
                .max_by(|&i, &j| w[i].partial_cmp(&w[j]).expect("finite gradients"));
            let Some(jmax) = candidate else { break };
            if self.w[jmax] <= tol {
                break; // KKT conditions met.
            }
            self.passive[jmax] = true;

            // Inner loop: retreat until the passive solution is feasible.
            loop {
                if !self.solve_passive() {
                    // Singular restricted system: drop the newest variable.
                    self.passive[jmax] = false;
                    break;
                }
                // Step from x toward z, stopping at the first boundary.
                let mut infeasible = false;
                let mut alpha = f64::INFINITY;
                for j in 0..n {
                    if self.passive[j] && self.z[j] <= 0.0 {
                        infeasible = true;
                        alpha = f64::min(alpha, self.x[j] / (self.x[j] - self.z[j]));
                    }
                }
                if !infeasible {
                    self.x.copy_from_slice(&self.z);
                    break;
                }
                let alpha = alpha.clamp(0.0, 1.0);
                for j in 0..n {
                    if self.passive[j] {
                        self.x[j] += alpha * (self.z[j] - self.x[j]);
                        if self.x[j] <= 1e-14 {
                            self.x[j] = 0.0;
                            self.passive[j] = false;
                        }
                    }
                }
            }
        }
        iterations
    }

    /// Solves the unconstrained problem restricted to the passive set into
    /// `z`: the normal equations `G·z = Aᵀb` over the passive columns,
    /// with a tiny ridge for numerical robustness on near-collinear terms.
    /// Returns `false` when the restricted system is not (numerically)
    /// positive definite.
    fn solve_passive(&mut self) -> bool {
        let n = self.cols;
        self.idx.clear();
        self.idx.extend((0..n).filter(|&j| self.passive[j]));
        self.z.fill(0.0);
        let k = self.idx.len();
        if k == 0 {
            return true;
        }
        let (idx, gram, atb) = (&self.idx, &self.gram, &self.atb);
        let g = |r: usize, c: usize| {
            let v = gram[idx[r] * n + idx[c]];
            if r == c {
                v + 1e-12 * (1.0 + v.abs())
            } else {
                v
            }
        };
        if !cholesky_solve(k, g, |r| atb[idx[r]], &mut self.chol, &mut self.y) {
            return false;
        }
        for (&j, &y) in idx.iter().zip(&self.y) {
            self.z[j] = y;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn unconstrained_optimum_already_nonnegative() {
        // y = 2 a + 3 b exactly; NNLS must find it.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ]);
        let b = [2.0, 3.0, 5.0, 7.0];
        let x = nnls(&a, &b);
        assert!((x[0] - 2.0).abs() < 1e-8, "{x:?}");
        assert!((x[1] - 3.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn clamps_negative_coefficient_to_zero() {
        // Unconstrained fit of y = -1·a would be negative; NNLS clamps.
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let b = [-1.0, -2.0, -3.0];
        let x = nnls(&a, &b);
        assert_eq!(x, vec![0.0]);
    }

    #[test]
    fn mixed_signs_projects_correctly() {
        // True model y = 4·a − 2·b. With b's coefficient clamped to 0, the
        // solution must be the best fit using `a` alone.
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![f64::from(i), f64::from(i % 3)])
            .collect();
        let a = Matrix::from_rows(&rows);
        let b: Vec<f64> = rows.iter().map(|r| 4.0 * r[0] - 2.0 * r[1]).collect();
        let x = nnls(&a, &b);
        assert!(x.iter().all(|&c| c >= 0.0));
        // Compare against the one-variable OLS optimum.
        let a1 = Matrix::from_rows(&rows.iter().map(|r| vec![r[0]]).collect::<Vec<_>>());
        let best1 = a1.solve_least_squares(&b).unwrap();
        let mut x_ref = vec![best1[0], 0.0];
        // NNLS may also keep b active at 0; residuals must match the
        // restricted optimum up to tolerance.
        let r_nnls = residual(&a, &x, &b);
        let r_ref = residual(&a, &x_ref, &b);
        assert!(r_nnls <= r_ref + 1e-8, "{r_nnls} vs {r_ref}");
        x_ref[1] = 0.0;
    }

    #[test]
    fn stats_report_outer_iterations() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let (x, iterations) = nnls_with_stats(&a, &[2.0, 3.0, 5.0]);
        assert!(iterations >= 2, "two variables enter the passive set");
        assert!((x[0] - 2.0).abs() < 1e-8, "{x:?}");
        assert!((x[1] - 3.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn zero_matrix_returns_zero() {
        let a = Matrix::zeros(3, 2);
        let x = nnls(&a, &[1.0, 2.0, 3.0]);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn recovers_paper_style_size_model() {
        // D_size = θ0·e + θ1·e·f with θ = (120, 8.5): the second size-model
        // family from §5.2.
        let grid = [
            (1000.0, 10.0),
            (1000.0, 50.0),
            (5000.0, 10.0),
            (5000.0, 50.0),
            (9000.0, 90.0),
        ];
        let rows: Vec<Vec<f64>> = grid.iter().map(|&(e, f)| vec![e, e * f]).collect();
        let y: Vec<f64> = grid.iter().map(|&(e, f)| 120.0 * e + 8.5 * e * f).collect();
        let x = nnls(&Matrix::from_rows(&rows), &y);
        assert!((x[0] - 120.0).abs() < 1e-4, "{x:?}");
        assert!((x[1] - 8.5).abs() < 1e-6, "{x:?}");
    }

    #[test]
    fn large_scale_features_stay_stable() {
        // e up to 1e5, f up to 1e5 — e·f ~ 1e10 as in real HiBench params.
        let grid = [
            (1.0e4, 1.0e4),
            (1.0e4, 1.2e5),
            (7.0e4, 1.0e4),
            (7.0e4, 1.2e5),
            (4.0e4, 5.0e4),
        ];
        let rows: Vec<Vec<f64>> = grid.iter().map(|&(e, f)| vec![1.0, e, e * f]).collect();
        let y: Vec<f64> = grid
            .iter()
            .map(|&(e, f)| 3.0e6 + 40.0 * e + 0.008 * e * f)
            .collect();
        let x = nnls(&Matrix::from_rows(&rows), &y);
        let pred_err: f64 = rows
            .iter()
            .zip(&y)
            .map(|(r, t)| {
                let p = x[0] * r[0] + x[1] * r[1] + x[2] * r[2];
                ((p - t) / t).abs()
            })
            .sum::<f64>()
            / y.len() as f64;
        assert!(pred_err < 1e-6, "relative error {pred_err}, coeffs {x:?}");
    }
}
