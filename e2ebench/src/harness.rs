//! Inputs, rounds and the cross-round checks.

use std::collections::BTreeMap;

use juggler::{TrainedJuggler, TrainingConfig};
use workloads::Workload;

use crate::replay;
use crate::round::{self, artifact_bytes, untraced_family, DetMetrics, FamilyOutcome};
use crate::spans::Tracer;

/// Training seeds per run. Rounds cycle through them, so one run's
/// simulated-time metrics are medians over this many trained models per
/// family, and its host times mix the slightly different work each model
/// implies.
pub const SEED_SLOTS: usize = 96;

/// SplitMix64: a small, fixed generator, so the inputs depend only on the
/// seed and never on a library's stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub families: Vec<Box<dyn Workload>>,
    /// One training configuration per seed slot.
    pub configs: Vec<TrainingConfig>,
}

impl Inputs {
    /// The run's inputs, derived from its seed: one training seed per
    /// slot, which also seeds that slot's validation runs.
    pub fn new(families: &[&str], seed: u64, threads: usize) -> Inputs {
        let families = families
            .iter()
            .map(|n| juggler::workload_by_name(n).expect("every listed family exists"))
            .collect();
        // Slot seeds are drawn, not consecutive: the pipeline offsets a
        // training seed by small constants per experiment, so consecutive
        // seeds would share simulator noise between slots.
        let mut rng = SplitMix64::new(seed);
        let configs = (0..SEED_SLOTS)
            .map(|_| TrainingConfig {
                seed: rng.next_u64(),
                threads,
                ..TrainingConfig::default()
            })
            .collect();
        Inputs { families, configs }
    }
}

/// Fails the run with `msg` unless `ok`.
pub fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// What one round produced.
pub struct RoundResult {
    pub trained: Vec<TrainedJuggler>,
    pub outcomes: Vec<FamilyOutcome>,
}

/// The first round of each seed slot, which every later round of that
/// slot must reproduce.
#[derive(Default)]
pub struct Reference {
    slots: BTreeMap<usize, (Vec<Vec<u8>>, Vec<FamilyOutcome>)>,
}

impl Reference {
    /// Records the first round of `slot`; checks any later one against it:
    /// artifacts byte for byte, the simulated-time metrics and the
    /// validation counters exactly.
    pub fn observe(&mut self, slot: usize, r: RoundResult, what: &str) -> Result<(), String> {
        let artifacts: Vec<Vec<u8>> = r.trained.iter().map(artifact_bytes).collect();
        let Some((first_artifacts, first)) = self.slots.get(&slot) else {
            self.slots.insert(slot, (artifacts, r.outcomes));
            return Ok(());
        };
        for ((a, b), t) in artifacts.iter().zip(first_artifacts).zip(&r.trained) {
            check(a == b, || {
                format!(
                    "{what}: {} artifact differs from the first round's",
                    t.workload
                )
            })?;
        }
        let (det, first_det) = (DetMetrics::of(&r.outcomes), DetMetrics::of(first));
        check(det == first_det, || {
            format!("{what}: simulated-time metrics {det:?} differ from {first_det:?}")
        })?;
        let cache =
            |os: &[FamilyOutcome]| -> Vec<_> { os.iter().map(|o| o.validation_cache).collect() };
        check(cache(&r.outcomes) == cache(first), || {
            format!("{what}: validation cache counters differ from the first round's")
        })
    }

    /// Simulated-time metrics of each slot seen so far.
    pub fn det(&self) -> Vec<DetMetrics> {
        self.slots
            .values()
            .map(|(_, o)| DetMetrics::of(o))
            .collect()
    }
}

/// One family's train → recommend → validate, traced or not.
fn family(
    inp: &Inputs,
    slot: usize,
    fi: usize,
    tracer: Option<&Tracer>,
) -> Result<(TrainedJuggler, FamilyOutcome), String> {
    let w = inp.families[fi].as_ref();
    let config = &inp.configs[slot];
    match tracer {
        None => untraced_family(w, config),
        Some(t) => {
            let trained = replay::train_traced(w, config, t)?;
            round::recommend_and_validate(w, config, &trained, Some(t)).map(|o| (trained, o))
        }
    }
}

/// A round at seed slot `slot`: every family trained, recommended and
/// validated. Each family is one operation, counted in `attempted`; the
/// first that fails ends the round with its error.
pub fn full_round(
    inp: &Inputs,
    slot: usize,
    tracer: Option<&Tracer>,
    attempted: &mut u64,
) -> Result<RoundResult, String> {
    let _root = tracer.map(|t| t.span("round"));
    let mut trained = Vec::with_capacity(inp.families.len());
    let mut outcomes = Vec::with_capacity(inp.families.len());
    for fi in 0..inp.families.len() {
        *attempted += 1;
        let (t, o) = family(inp, slot, fi, tracer)?;
        trained.push(t);
        outcomes.push(o);
    }
    Ok(RoundResult { trained, outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_stream() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let seeds = |s: u64| -> Vec<u64> {
            Inputs::new(&["LOR"], s, 2)
                .configs
                .iter()
                .map(|c| c.seed)
                .collect()
        };
        let a = seeds(7);
        assert_eq!(a, seeds(7));
        assert_ne!(a, seeds(8));
        assert_eq!(a.len(), SEED_SLOTS);
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), SEED_SLOTS);
    }

    #[test]
    fn traced_replay_equals_the_pipeline() {
        for name in ["LOR", "KMEANS"] {
            let w = juggler::workload_by_name(name).expect("known family");
            let config = TrainingConfig {
                seed: 0x5EED,
                threads: 2,
                ..TrainingConfig::default()
            };
            let pipeline = juggler::OfflineTraining::run(w.as_ref(), &config).expect("trains");
            let t = Tracer::default();
            let replayed = replay::train_traced(w.as_ref(), &config, &t).expect("replays");
            assert_eq!(
                artifact_bytes(&pipeline),
                artifact_bytes(&replayed),
                "{name}"
            );
            let counters = t.counters();
            assert!(counters["cluster_sim.runs"] > 0 && counters["modeling.fits"] > 0);
        }
    }

    #[test]
    fn a_changed_artifact_fails_the_round_check() {
        let inp = Inputs::new(&["KMEANS"], 3, 1);
        let mut attempted = 0;
        let mut reference = Reference::default();
        let first = full_round(&inp, 0, None, &mut attempted).expect("round runs");
        reference
            .observe(0, first, "first")
            .expect("first round is the reference");
        let again = full_round(&inp, 0, None, &mut attempted).expect("round runs");
        assert_eq!(reference.observe(0, again, "again"), Ok(()));
        let mut changed = full_round(&inp, 0, None, &mut attempted).expect("round runs");
        changed.trained[0].max_machines += 1;
        assert!(reference.observe(0, changed, "changed").is_err());
    }
}
