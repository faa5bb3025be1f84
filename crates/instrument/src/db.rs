//! The central profiling database (paper §4): when a task finishes, its
//! low-level runtime data is sent here; application/job/stage/task records
//! follow when the application ends.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use cluster_sim::{RunReport, StepKind, TaskTrace};
use dagflow::{DatasetId, JobId, StageId};

use crate::inject::Instrumented;

/// One task's bookkeeping row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Job the task belongs to.
    pub job: JobId,
    /// Stage within the job.
    pub stage: StageId,
    /// Task index within the stage.
    pub task: u32,
    /// Task start timestamp (seconds).
    pub start: f64,
    /// Task finish timestamp (seconds).
    pub finish: f64,
}

/// One stage's bookkeeping row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StageRecord {
    /// Job the stage belongs to.
    pub job: JobId,
    /// Stage id within the job.
    pub stage: StageId,
    /// Number of tasks the stage ran.
    pub n_tasks: u32,
}

/// What a profiling operator observed about one *original* transformation
/// in one task: the ENT interval (per the three cases of §3.3) and the
/// produced partition size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransformationObservation {
    /// Original dataset the transformation produces.
    pub dataset: DatasetId,
    /// Containing task.
    pub job: JobId,
    /// Containing stage.
    pub stage: StageId,
    /// Task index.
    pub task: u32,
    /// ENT start timestamp.
    pub start: f64,
    /// ENT finish timestamp.
    pub finish: f64,
    /// Partition bytes recorded by the following profiling operator
    /// (0 for Shuffle-Write halves, whose size is the written shuffle
    /// data and not a dataset partition).
    pub partition_bytes: u64,
    /// Which half of the transformation this is: plain narrow / Shuffle
    /// Read (`false`) or Shuffle Write (`true`).
    pub is_shuffle_write: bool,
    /// Whether the interval was a cache read rather than a computation
    /// (excluded from execution-time estimates, used for size estimates).
    pub is_cache_read: bool,
}

/// The profiling database. Interior mutability with a [`Mutex`] mirrors the
/// central-collector role it plays (tasks report concurrently in Spark_i);
/// the simulator reports one run at a time, but the harness profiles many
/// applications in parallel into one database.
#[derive(Debug, Default)]
pub struct ProfilingDatabase {
    inner: Mutex<DbInner>,
}

#[derive(Debug, Default)]
pub(crate) struct DbInner {
    tasks: Vec<TaskRecord>,
    /// One record per `(job, stage)`, kept sorted by that key.
    pub(crate) stages: Vec<StageRecord>,
    pub(crate) observations: Vec<TransformationObservation>,
}

impl ProfilingDatabase {
    /// Empty database.
    #[must_use]
    pub fn new() -> Self {
        ProfilingDatabase::default()
    }

    /// Ingests an instrumented run: walks every task trace, splits it at
    /// profiling-operator boundaries, and stores one observation per
    /// original transformation — using only profile-visible timestamps.
    pub fn ingest(&self, instr: &Instrumented, report: &RunReport) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        // Each step yields at most one observation.
        let steps: usize = report.traces.iter().map(|t| t.steps.len()).sum();
        inner.tasks.reserve(report.traces.len());
        inner.observations.reserve(steps);
        // The executor emits a stage's traces back to back, so the sorted
        // stage table is searched once per stage, not once per task.
        let mut current: Option<((JobId, StageId), usize)> = None;
        for trace in &report.traces {
            inner.tasks.push(TaskRecord {
                job: trace.job,
                stage: trace.stage,
                task: trace.task,
                start: trace.start,
                finish: trace.finish,
            });
            let key = (trace.job, trace.stage);
            let pos = match current {
                Some((k, pos)) if k == key => pos,
                _ => {
                    let pos = match inner
                        .stages
                        .binary_search_by_key(&key, |s| (s.job, s.stage))
                    {
                        Ok(pos) => pos,
                        Err(pos) => {
                            inner.stages.insert(
                                pos,
                                StageRecord {
                                    job: trace.job,
                                    stage: trace.stage,
                                    n_tasks: 0,
                                },
                            );
                            pos
                        }
                    };
                    current = Some((key, pos));
                    pos
                }
            };
            let rec = &mut inner.stages[pos];
            rec.n_tasks = rec.n_tasks.max(trace.task + 1);
            Self::observe_task(instr, trace, &mut inner.observations);
        }
    }

    /// Runs `f` over the database contents under its lock, without copying
    /// them — the path [`crate::derive_metrics`] reads through.
    pub(crate) fn with_inner<R>(&self, f: impl FnOnce(&DbInner) -> R) -> R {
        f(&self.inner.lock())
    }

    /// Splits one task at profile boundaries (the §3.3 ENT cases).
    fn observe_task(
        instr: &Instrumented,
        trace: &TaskTrace,
        out: &mut Vec<TransformationObservation>,
    ) {
        // `boundary` is the last profile-visible timestamp: task start, or
        // the finish of the most recent profiling operator.
        let mut boundary = trace.start;
        for step in &trace.steps {
            let did = step.dataset;
            if let Some(original) = instr.profiles.get(did.index()).copied().flatten() {
                if step.kind == StepKind::CacheRead {
                    // The cached replica was read; the profile still "sees"
                    // its size but there was no computation.
                    out.push(TransformationObservation {
                        dataset: original,
                        job: trace.job,
                        stage: trace.stage,
                        task: trace.task,
                        start: boundary,
                        finish: step.finish,
                        partition_bytes: step.out_bytes,
                        is_shuffle_write: false,
                        is_cache_read: true,
                    });
                    boundary = step.finish;
                    continue;
                }
                // A profiling operator ran: everything since `boundary` up
                // to ITS OWN start is the preceding transformation's ENT.
                // (cases 1 and 3 of §3.3: first-in-task intervals start at
                // task start, middle intervals at the previous profile's
                // finish.)
                out.push(TransformationObservation {
                    dataset: original,
                    job: trace.job,
                    stage: trace.stage,
                    task: trace.task,
                    start: boundary,
                    finish: step.start,
                    partition_bytes: step.out_bytes,
                    is_shuffle_write: false,
                    is_cache_read: false,
                });
                boundary = step.finish;
            } else if step.kind == StepKind::ShuffleWrite {
                // Case 2: last transformation in the task — ENT runs to the
                // task's finish. The wide dataset id in the instrumented
                // plan is a copy; map back to the original.
                let original = instr.copy_of.get(did.index()).copied().flatten();
                if let Some(original) = original {
                    out.push(TransformationObservation {
                        dataset: original,
                        job: trace.job,
                        stage: trace.stage,
                        task: trace.task,
                        start: boundary,
                        finish: trace.finish,
                        partition_bytes: 0,
                        is_shuffle_write: true,
                        is_cache_read: false,
                    });
                }
            }
            // Plain copy steps are invisible: their time is absorbed into
            // the interval ending at the next profile — exactly the
            // information a real profiling operator has.
        }
    }

    /// All task records, in ingest order. A full copy: metric derivation
    /// does not use it.
    #[must_use]
    pub fn tasks(&self) -> Vec<TaskRecord> {
        self.inner.lock().tasks.clone()
    }

    /// All stage records, sorted by `(job, stage)`.
    #[must_use]
    pub fn stages(&self) -> Vec<StageRecord> {
        self.inner.lock().stages.clone()
    }

    /// All transformation observations, in ingest order. A full copy:
    /// metric derivation reads them in place under the lock instead.
    #[must_use]
    pub fn observations(&self) -> Vec<TransformationObservation> {
        self.inner.lock().observations.clone()
    }

    /// Number of observations (cheap, for tests).
    #[must_use]
    pub fn observation_count(&self) -> usize {
        self.inner.lock().observations.len()
    }
}
