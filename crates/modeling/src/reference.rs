//! Reference implementations of the fitting path, kept as test oracles:
//! LOO-CV that re-evaluates feature rows and rebuilds the design matrix
//! for every fold, over a Lawson–Hanson solver that allocates every
//! matrix and vector it uses. The workspace implementations in
//! [`crate::nnls`] and [`crate::fit`] must agree with these bit for bit.

use crate::families::ModelSpec;
use crate::fit::{CandidateScore, CrossValidated, FitError, FitReport, FittedModel, Sample};
use crate::linalg::Matrix;

/// Heap-allocating NNLS: coefficients and outer iteration count.
pub(crate) fn nnls_with_stats(a: &Matrix, b: &[f64]) -> (Vec<f64>, u64) {
    assert_eq!(b.len(), a.rows(), "shape mismatch in nnls");
    let n = a.cols();
    let mut scales = vec![1.0f64; n];
    let mut scaled = a.clone();
    for j in 0..n {
        let norm = (0..a.rows())
            .map(|i| a[(i, j)] * a[(i, j)])
            .sum::<f64>()
            .sqrt();
        if norm > 1e-300 {
            scales[j] = norm;
            for i in 0..a.rows() {
                scaled[(i, j)] /= norm;
            }
        }
    }
    let (mut x, iterations) = nnls_normalized(&scaled, b);
    for j in 0..n {
        x[j] /= scales[j];
    }
    (x, iterations)
}

fn nnls_normalized(a: &Matrix, b: &[f64]) -> (Vec<f64>, u64) {
    let n = a.cols();
    let at = a.transpose();
    let gram = at.matmul(a);
    let atb = at.matvec(b);

    let mut x = vec![0.0f64; n];
    let mut passive = vec![false; n];
    let max_outer = 30 * n.max(1);

    let solve_passive = |passive: &[bool]| -> Option<Vec<f64>> {
        let idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
        if idx.is_empty() {
            return Some(vec![0.0; n]);
        }
        let k = idx.len();
        let mut g = Matrix::zeros(k, k);
        let mut rhs = vec![0.0; k];
        for (r, &jr) in idx.iter().enumerate() {
            rhs[r] = atb[jr];
            for (c, &jc) in idx.iter().enumerate() {
                g[(r, c)] = gram[(jr, jc)];
            }
        }
        for r in 0..k {
            g[(r, r)] += 1e-12 * (1.0 + g[(r, r)].abs());
        }
        let z = g.solve_spd(&rhs)?;
        let mut full = vec![0.0; n];
        for (r, &j) in idx.iter().enumerate() {
            full[j] = z[r];
        }
        Some(full)
    };

    let mut iterations = 0u64;
    for _ in 0..max_outer {
        iterations += 1;
        let grad = gram.matvec(&x);
        let w: Vec<f64> = (0..n).map(|j| atb[j] - grad[j]).collect();
        let candidate = (0..n)
            .filter(|&j| !passive[j])
            .max_by(|&i, &j| w[i].partial_cmp(&w[j]).expect("finite gradients"));
        let Some(jmax) = candidate else { break };
        let tol = 1e-10 * (1.0 + atb.iter().fold(0.0f64, |m, v| m.max(v.abs())));
        if w[jmax] <= tol {
            break;
        }
        passive[jmax] = true;
        loop {
            let Some(z) = solve_passive(&passive) else {
                passive[jmax] = false;
                break;
            };
            let infeasible: Vec<usize> = (0..n).filter(|&j| passive[j] && z[j] <= 0.0).collect();
            if infeasible.is_empty() {
                x = z;
                break;
            }
            let alpha = infeasible
                .iter()
                .map(|&j| x[j] / (x[j] - z[j]))
                .fold(f64::INFINITY, f64::min)
                .clamp(0.0, 1.0);
            for j in 0..n {
                if passive[j] {
                    x[j] += alpha * (z[j] - x[j]);
                    if x[j] <= 1e-14 {
                        x[j] = 0.0;
                        passive[j] = false;
                    }
                }
            }
        }
    }
    (x, iterations)
}

/// The design matrix and response of `spec` over `samples`.
pub(crate) fn design(spec: &ModelSpec, samples: &[Sample]) -> (Matrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| spec.features(s.e, s.f, s.i))
        .collect();
    let y = samples.iter().map(|s| s.y).collect();
    (Matrix::from_rows(&rows), y)
}

fn fit_spec(spec: &ModelSpec, samples: &[Sample]) -> FittedModel {
    let (a, y) = design(spec, samples);
    FittedModel {
        spec: spec.clone(),
        coeffs: nnls_with_stats(&a, &y).0,
    }
}

pub(crate) fn loocv_residuals(spec: &ModelSpec, samples: &[Sample]) -> Vec<f64> {
    let n = samples.len();
    if n < 2 || spec.terms.is_empty() || spec.terms.len() > n - 1 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n);
    for hold in 0..n {
        let train: Vec<Sample> = samples
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != hold)
            .map(|(_, s)| *s)
            .collect();
        let model = fit_spec(spec, &train);
        let s = samples[hold];
        let pred = model.predict(s.e, s.f, s.i);
        out.push(if s.y.abs() < 1e-12 {
            (pred - s.y).abs()
        } else {
            ((pred - s.y) / s.y).abs()
        });
    }
    out
}

fn loocv_error(spec: &ModelSpec, samples: &[Sample]) -> f64 {
    let residuals = loocv_residuals(spec, samples);
    if residuals.is_empty() {
        return f64::INFINITY;
    }
    residuals.iter().sum::<f64>() / residuals.len() as f64
}

pub(crate) fn fit_best_with_report(
    candidates: &[ModelSpec],
    samples: &[Sample],
) -> Result<(CrossValidated, FitReport), FitError> {
    if candidates.is_empty() {
        return Err(FitError::NoCandidates);
    }
    if samples.is_empty() {
        return Err(FitError::NoSamples);
    }
    let mut scores = Vec::with_capacity(candidates.len());
    let mut best: Option<(f64, usize)> = None;
    for (k, spec) in candidates.iter().enumerate() {
        let err = loocv_error(spec, samples);
        let better = match best {
            None => true,
            Some((e, _)) => err < e - 1e-15,
        };
        if better {
            best = Some((err, k));
        }
        scores.push(CandidateScore {
            spec: spec.clone(),
            cv_error: err,
            selected: false,
        });
    }
    let (cv_error, kbest) = best.expect("candidates is non-empty");
    scores[kbest].selected = true;
    let model = fit_spec(&candidates[kbest], samples);
    let residuals = loocv_residuals(&candidates[kbest], samples);
    let report = FitReport {
        candidates: scores,
        winner: model.clone(),
        cv_error,
        residuals,
    };
    Ok((CrossValidated { model, cv_error }, report))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Sample sets shaped like the calibration stages' and worse: points
    /// drawn from three-level axes (so grids, duplicates and collinear
    /// columns occur) or freely, with responses from a non-negative model
    /// times noise, a decreasing law, or arbitrary finite values
    /// including zeros and negatives.
    fn samples() -> impl Strategy<Value = Vec<Sample>> {
        let point = (
            (0usize..3, 1.0e3f64..1.0e5),
            (0usize..3, 1.0e2f64..1.2e5),
            (0usize..3, 1.0f64..100.0),
            (0.0f64..1.0, -1.0e9f64..1.0e9),
        );
        (
            prop::collection::vec(point, 1..14),
            any::<bool>(),
            0u32..4,
            (0.0f64..50.0, 0.0f64..1.0e-3, 0.0f64..1.0e-6),
        )
            .prop_map(|(points, on_grid, law, (c0, c1, c2))| {
                const E: [f64; 3] = [1.0e4, 4.0e4, 7.0e4];
                const F: [f64; 3] = [2.0e4, 6.0e4, 1.2e5];
                const I: [f64; 3] = [10.0, 50.0, 100.0];
                points
                    .into_iter()
                    .map(|((ek, e), (fk, f), (ik, i), (noise, free))| {
                        let (e, f, i) = if on_grid {
                            (E[ek], F[fk], I[ik])
                        } else {
                            (e, f, i)
                        };
                        let jitter = 1.0 + (noise - 0.5) * 0.02;
                        let y = match law {
                            0 => (c0 + c1 * e * f + c2 * e * f * i) * jitter,
                            1 => (1.0e9 + 50.0 * e - 0.001 * f) * jitter,
                            2 => free,
                            _ => 0.0,
                        };
                        Sample { e, f, i, y }
                    })
                    .collect()
            })
    }

    fn candidate_lists() -> [Vec<ModelSpec>; 3] {
        [
            ModelSpec::size_candidates(),
            ModelSpec::time_candidates(),
            ModelSpec::time_candidates_with_iterations(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn selection_matches_the_per_fold_reference(samples in samples()) {
            for candidates in candidate_lists() {
                let (cv, report) = crate::fit::fit_best_with_report(&candidates, &samples).unwrap();
                let (cv_ref, report_ref) = fit_best_with_report(&candidates, &samples).unwrap();
                prop_assert_eq!(&cv.model.spec, &cv_ref.model.spec);
                prop_assert_eq!(bits(&cv.model.coeffs), bits(&cv_ref.model.coeffs));
                prop_assert_eq!(cv.cv_error.to_bits(), cv_ref.cv_error.to_bits());
                prop_assert_eq!(bits(&report.residuals), bits(&report_ref.residuals));
                prop_assert_eq!(report.candidates.len(), report_ref.candidates.len());
                for (c, r) in report.candidates.iter().zip(&report_ref.candidates) {
                    prop_assert_eq!(c.cv_error.to_bits(), r.cv_error.to_bits(), "{}", c.spec);
                    prop_assert_eq!(c.selected, r.selected);
                }
                for spec in &candidates {
                    prop_assert_eq!(
                        bits(&crate::fit::loocv_residuals(spec, &samples)),
                        bits(&loocv_residuals(spec, &samples))
                    );
                }
            }
        }

        #[test]
        fn every_fold_solve_matches_the_heap_reference(samples in samples()) {
            for candidates in candidate_lists() {
                for spec in &candidates {
                    let n = samples.len();
                    let folds = (0..n).map(|hold| {
                        let mut train = samples.clone();
                        train.remove(hold);
                        train
                    });
                    for train in folds.chain([samples.clone()]) {
                        if train.is_empty() {
                            continue;
                        }
                        let (a, y) = design(spec, &train);
                        let (x, iterations) = crate::nnls::nnls_with_stats(&a, &y);
                        let (x_ref, iterations_ref) = nnls_with_stats(&a, &y);
                        prop_assert_eq!(bits(&x), bits(&x_ref), "{}", spec);
                        prop_assert_eq!(iterations, iterations_ref, "{}", spec);
                    }
                }
            }
        }
    }
}
