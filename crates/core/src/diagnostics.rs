//! Decision and model-quality diagnostics for the offline pipeline.
//!
//! [`TrainingDiagnostics`] bundles everything `juggler doctor` needs to
//! explain *why* a trained artifact looks the way it does: the hotspot
//! decision trace ([`HotspotAudit`]), the per-dataset size-model fit
//! reports and per-schedule time-model fit reports (each a
//! [`modeling::FitReport`] with every candidate family's LOO-CV score),
//! and the calibration notes. [`PredictionLedger`] then records
//! predicted-vs-simulated outcomes so prediction quality can be
//! summarized as relative errors.
//!
//! Everything here is plain serializable data — no wall-clock values, so
//! a diagnostics dump is deterministic for a given (workload, config).

use serde::{Deserialize, Serialize};

use dagflow::DatasetId;
use modeling::FitReport;

use crate::hotspot::HotspotAudit;

/// The model-quality and decision evidence gathered during one offline
/// training (see [`crate::OfflineTraining::run_full`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingDiagnostics {
    /// The hotspot-detection decision trace (stage 1).
    pub hotspot: HotspotAudit,
    /// Per-dataset size-model fit reports (stage 2), ordered by dataset.
    pub size_fits: Vec<(DatasetId, FitReport)>,
    /// Per-schedule time-model fit reports (stage 4), aligned with the
    /// trained artifact's schedule order.
    pub time_fits: Vec<FitReport>,
    /// Non-fatal calibration anomalies, human-readable (a clamped stage-3
    /// scale target, a retried or skipped run).
    pub notes: Vec<String>,
}

/// One predicted-vs-observed comparison row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Workload name.
    pub workload: String,
    /// Index of the schedule in the trained artifact.
    pub schedule_index: usize,
    /// Application parameter `e` (examples).
    pub examples: f64,
    /// Application parameter `f` (features).
    pub features: f64,
    /// Machine count the prediction targeted (Eq. 6).
    pub machines: u32,
    /// Predicted execution time, seconds.
    pub predicted_time_s: f64,
    /// Observed (simulated) execution time, seconds.
    pub actual_time_s: f64,
    /// Predicted schedule memory budget, bytes.
    pub predicted_size_bytes: u64,
    /// Observed peak cached bytes during the run.
    pub actual_peak_bytes: u64,
    /// Content digest of the validating run's report (see
    /// `cluster_sim::RunReport::digest`) — lets run manifests prove which
    /// simulated outcome backed each prediction row.
    pub report_digest: String,
}

/// Relative error `|predicted − actual| / |actual|`; absolute error when
/// the reference is (numerically) zero. Shared by [`LedgerEntry`] and the
/// watchtower's fold over stored manifests.
pub(crate) fn rel_error(predicted: f64, actual: f64) -> f64 {
    let diff = (predicted - actual).abs();
    if actual.abs() < 1e-12 {
        diff
    } else {
        diff / actual.abs()
    }
}

impl LedgerEntry {
    /// Relative time-prediction error against the observed run.
    #[must_use]
    pub fn time_rel_error(&self) -> f64 {
        rel_error(self.predicted_time_s, self.actual_time_s)
    }

    /// Relative size-prediction error against the observed peak.
    #[must_use]
    pub fn size_rel_error(&self) -> f64 {
        rel_error(
            self.predicted_size_bytes as f64,
            self.actual_peak_bytes as f64,
        )
    }
}

/// A collection of predicted-vs-observed rows with error summaries —
/// the evidence behind the paper's Figure 11/12 accuracy claims.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PredictionLedger {
    /// The comparison rows, in recording order.
    pub entries: Vec<LedgerEntry>,
}

impl PredictionLedger {
    /// Appends one comparison row.
    pub fn push(&mut self, entry: LedgerEntry) {
        self.entries.push(entry);
    }

    /// Mean relative time-prediction error, `None` when empty.
    #[must_use]
    pub fn mean_time_rel_error(&self) -> Option<f64> {
        mean(self.entries.iter().map(LedgerEntry::time_rel_error))
    }

    /// Worst relative time-prediction error, `None` when empty.
    #[must_use]
    pub fn max_time_rel_error(&self) -> Option<f64> {
        self.entries
            .iter()
            .map(LedgerEntry::time_rel_error)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }

    /// Mean relative size-prediction error, `None` when empty.
    #[must_use]
    pub fn mean_size_rel_error(&self) -> Option<f64> {
        mean(self.entries.iter().map(LedgerEntry::size_rel_error))
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> Option<f64> {
    let mut n = 0u32;
    let mut sum = 0.0;
    for v in iter {
        n += 1;
        sum += v;
    }
    (n > 0).then(|| sum / f64::from(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pred_t: f64, act_t: f64, pred_b: u64, act_b: u64) -> LedgerEntry {
        LedgerEntry {
            workload: "LOR".into(),
            schedule_index: 0,
            examples: 1e4,
            features: 1e3,
            machines: 4,
            predicted_time_s: pred_t,
            actual_time_s: act_t,
            predicted_size_bytes: pred_b,
            actual_peak_bytes: act_b,
            report_digest: String::new(),
        }
    }

    #[test]
    fn rel_errors_use_actual_as_reference() {
        let e = entry(110.0, 100.0, 90, 100);
        assert!((e.time_rel_error() - 0.1).abs() < 1e-12);
        assert!((e.size_rel_error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_reference_falls_back_to_absolute() {
        let e = entry(0.25, 0.0, 0, 0);
        assert!((e.time_rel_error() - 0.25).abs() < 1e-12);
        assert_eq!(e.size_rel_error(), 0.0);
    }

    #[test]
    fn ledger_summaries() {
        let mut ledger = PredictionLedger::default();
        assert_eq!(ledger.mean_time_rel_error(), None);
        ledger.push(entry(110.0, 100.0, 100, 100));
        ledger.push(entry(100.0, 100.0, 100, 100));
        let mean = ledger.mean_time_rel_error().unwrap();
        assert!((mean - 0.05).abs() < 1e-12, "{mean}");
        let max = ledger.max_time_rel_error().unwrap();
        assert!((max - 0.1).abs() < 1e-12, "{max}");
        assert_eq!(ledger.mean_size_rel_error().unwrap(), 0.0);
    }
}
