//! Reconstructing dataset metrics from profiling observations — the
//! operator-level execution-time model of §3.3 plus partition-size
//! aggregation (§3.2).

use serde::{Deserialize, Serialize};

use dagflow::{Application, DatasetId, JobId, StageId};

use crate::db::{ProfilingDatabase, StageRecord, TransformationObservation};

/// Metrics of one (original) dataset, as Juggler's hotspot detection
/// consumes them. The computation count `n` is *not* here — it comes from
/// the merged-DAG analysis (`dagflow::LineageAnalysis`), not from
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetMetrics {
    /// The dataset (original plan id).
    pub dataset: DatasetId,
    /// Measured size: sum of observed partition sizes (§3.2).
    pub size_bytes: u64,
    /// Measured computation time `ET_T` (§3.3): wave-weighted mean task
    /// ENT, with wide transformations as Shuffle Write + Shuffle Read
    /// (Eq. 3).
    pub et_seconds: f64,
    /// Number of (non-cache-read) observations supporting `et_seconds`.
    pub observations: u32,
}

/// Derives per-dataset metrics from a profiling database.
///
/// `total_cores` is the number of parallel task slots of the cluster the
/// instrumented sample run used (`machines × cores`) — the denominator of
/// the `N_waves = ⌈tasks / cores⌉` term of Eq. 2.
///
/// The result is a pure function of the database contents: per-stage
/// ENT means are summed in `(job, stage)` order, so repeated calls agree
/// bit for bit.
#[must_use]
pub fn derive_metrics(
    db: &ProfilingDatabase,
    app: &Application,
    total_cores: u32,
) -> Vec<DatasetMetrics> {
    db.with_inner(|inner| derive(&inner.stages, &inner.observations, app, total_cores))
}

/// [`derive_metrics`] over the raw database contents. `stages` is sorted
/// by `(job, stage)` and holds a record for every observed stage.
///
/// Everything is indexed densely: datasets by id, `(job, stage)` pairs by
/// `slot = job_base[job] + stage`, whose order is the `(job, stage)`
/// order. Observations are bucketed by slot (a stable counting sort), and
/// the buckets are walked in slot order.
fn derive(
    stages: &[StageRecord],
    observations: &[TransformationObservation],
    app: &Application,
    total_cores: u32,
) -> Vec<DatasetMetrics> {
    let n_data = app.datasets().len();
    let n_jobs = stages.last().map_or(0, |s| s.job.index() + 1);
    let mut job_base = vec![0u32; n_jobs + 1];
    for s in stages {
        let span = &mut job_base[s.job.index() + 1];
        *span = (*span).max(s.stage.0 + 1);
    }
    for j in 0..n_jobs {
        job_base[j + 1] += job_base[j];
    }
    let slot = |job: JobId, stage: StageId| (job_base[job.index()] + stage.0) as usize;
    let n_slots = job_base[n_jobs] as usize;
    let mut waves = vec![1.0f64; n_slots];
    for s in stages {
        let n = s.n_tasks.max(1);
        waves[slot(s.job, s.stage)] = f64::from(n.div_ceil(total_cores.max(1)));
    }

    // Partition sizes per dataset: partition index → bytes (last write
    // wins), in one flat array with `part_base[d]..part_base[d + 1]`
    // covering partitions `0..=max observed task` of dataset `d`.
    let mut part_base = vec![0u32; n_data + 1];
    // Bucket bounds of the non-cache-read observations, by slot.
    let mut bucket = vec![0u32; n_slots + 1];
    for o in observations {
        let d = o.dataset.index();
        if d >= n_data {
            continue; // not a dataset of `app`: never reported
        }
        if !o.is_shuffle_write {
            part_base[d + 1] = part_base[d + 1].max(o.task + 1);
        }
        if !o.is_cache_read {
            bucket[slot(o.job, o.stage) + 1] += 1;
        }
    }
    for d in 0..n_data {
        part_base[d + 1] += part_base[d];
    }
    for s in 0..n_slots {
        bucket[s + 1] += bucket[s];
    }
    let mut parts = vec![0u64; part_base[n_data] as usize];
    let mut order = vec![0u32; bucket[n_slots] as usize];
    let mut cursor = bucket.clone();
    for (k, o) in observations.iter().enumerate() {
        let d = o.dataset.index();
        if d >= n_data {
            continue;
        }
        if !o.is_shuffle_write {
            parts[(part_base[d] + o.task) as usize] = o.partition_bytes;
        }
        if !o.is_cache_read {
            let c = &mut cursor[slot(o.job, o.stage)];
            order[*c as usize] = k as u32;
            *c += 1;
        }
    }

    // Per (dataset, half) — index `2·dataset + is_shuffle_write`: the
    // running (total, count) of the current stage, and the (sum, count)
    // over stages of (mean ENT × waves) — Eq. 2.
    let mut acc = vec![(0.0f64, 0u32); 2 * n_data];
    let mut half_et = vec![(0.0f64, 0u32); 2 * n_data];
    let mut touched: Vec<usize> = Vec::new();
    for s in 0..n_slots {
        for &k in &order[bucket[s] as usize..bucket[s + 1] as usize] {
            let o = &observations[k as usize];
            let h = 2 * o.dataset.index() + usize::from(o.is_shuffle_write);
            let a = &mut acc[h];
            if a.1 == 0 {
                touched.push(h);
            }
            a.0 += (o.finish - o.start).max(0.0);
            a.1 += 1;
        }
        for &h in &touched {
            let (total, count) = std::mem::take(&mut acc[h]);
            let sum = &mut half_et[h];
            sum.0 += total / f64::from(count) * waves[s];
            sum.1 += 1;
        }
        touched.clear();
    }

    // Average each half over its stages, then sum the halves — Eq. 3.
    let mut out = Vec::new();
    for d in app.datasets() {
        let i = d.id.index();
        let partitions = &parts[part_base[i] as usize..part_base[i + 1] as usize];
        let halves = [half_et[2 * i], half_et[2 * i + 1]];
        if halves.iter().all(|&(_, n)| n == 0) && partitions.is_empty() {
            continue; // never touched in the sample run
        }
        let mut et = 0.0;
        let mut obs_count = 0;
        for (total, n) in halves {
            if n > 0 {
                et += total / f64::from(n);
                obs_count += n;
            }
        }
        out.push(DatasetMetrics {
            dataset: d.id,
            size_bytes: partitions.iter().sum(),
            et_seconds: et,
            observations: obs_count,
        });
    }
    out
}

/// Convenience: metrics as a dense lookup (`None` where unobserved).
#[must_use]
pub fn metrics_by_dataset(
    metrics: &[DatasetMetrics],
    dataset_count: usize,
) -> Vec<Option<DatasetMetrics>> {
    let mut v = vec![None; dataset_count];
    for m in metrics {
        v[m.dataset.index()] = Some(*m);
    }
    v
}
