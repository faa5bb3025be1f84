//! One family's share of a round: train → recommend → validate.
//!
//! The untraced path trains with `OfflineTraining::run`, the program
//! under test. Recommendation, validation and the menu checks are shared
//! with the traced replay, which passes a [`Tracer`] so the same calls
//! get spans.

use std::sync::Arc;

use cluster_sim::{ClusterConfig, Engine, EnginePrep, RunOptions};
use juggler::{
    LedgerEntry, OfflineTraining, Recommendation, RecommendationMenu, TrainedJuggler,
    TrainingConfig,
};
use workloads::Workload;

use crate::replay::{cache_counts, count_plain_run};
use crate::spans::{span, Tracer};

/// Seed offset of the validation runs, as `juggler doctor` uses it:
/// option `i` of the menu is simulated with seed `seed + 7000 + i`.
const VALIDATION_SEED_OFFSET: u64 = 7000;

/// Everything one family contributes to a round besides its artifact.
#[derive(Debug)]
pub struct FamilyOutcome {
    /// Simulated machine-minutes of every training experiment (Fig. 16).
    pub train_machine_min: f64,
    /// Predicted vs simulated rows, one per validated menu option.
    pub ledger: Vec<LedgerEntry>,
    /// Simulated cost of the cheapest option's validation run.
    pub cheapest_cost_machine_min: f64,
    /// Exact counters of the validation runs: (hits, misses, evictions).
    pub validation_cache: (u64, u64, u64),
}

/// The four metrics taken from simulated time, which repeat exactly for a
/// given training seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetMetrics {
    pub train_machine_min: f64,
    pub pred_time_err_pct: f64,
    pub pred_size_err_pct: f64,
    pub rec_cost_machine_min: f64,
}

impl DetMetrics {
    /// Sums the costs of a round and averages the prediction errors of
    /// every option it validated.
    pub fn of(round: &[FamilyOutcome]) -> Self {
        let rows: Vec<&LedgerEntry> = round.iter().flat_map(|o| &o.ledger).collect();
        let mean_pct = |err: fn(&LedgerEntry) -> f64| {
            100.0 * rows.iter().map(|r| err(r)).sum::<f64>() / rows.len().max(1) as f64
        };
        DetMetrics {
            train_machine_min: round.iter().map(|o| o.train_machine_min).sum(),
            pred_time_err_pct: mean_pct(LedgerEntry::time_rel_error),
            pred_size_err_pct: mean_pct(LedgerEntry::size_rel_error),
            rec_cost_machine_min: round.iter().map(|o| o.cheapest_cost_machine_min).sum(),
        }
    }

    /// Field-wise median over rounds at different training seeds. A
    /// median, not a mean, because a single seed can blow one training up
    /// by many orders of magnitude (see README.md, "Known outliers").
    pub fn median(rounds: &[DetMetrics]) -> Self {
        let med = |f: fn(&DetMetrics) -> f64| {
            crate::stats::percentile(&rounds.iter().map(f).collect::<Vec<_>>(), 50.0)
        };
        DetMetrics {
            train_machine_min: med(|d| d.train_machine_min),
            pred_time_err_pct: med(|d| d.pred_time_err_pct),
            pred_size_err_pct: med(|d| d.pred_size_err_pct),
            rec_cost_machine_min: med(|d| d.rec_cost_machine_min),
        }
    }
}

/// Serializes an artifact the way `juggler train --out` writes it.
pub fn artifact_bytes(trained: &TrainedJuggler) -> Vec<u8> {
    serde_json::to_string_pretty(trained)
        .expect("a trained artifact always serializes")
        .into_bytes()
}

/// Trains one family with the program's pipeline, then recommends and
/// validates. `Err` names the failed operation.
pub fn untraced_family(
    workload: &dyn Workload,
    config: &TrainingConfig,
) -> Result<(TrainedJuggler, FamilyOutcome), String> {
    let trained = OfflineTraining::run(workload, config)
        .map_err(|e| format!("{}: training failed: {e}", workload.name()))?;
    let outcome = recommend_and_validate(workload, config, &trained, None)?;
    Ok((trained, outcome))
}

/// The §5.5 step at Table-1 parameters, then one paper-scale simulation
/// per Pareto option. The app and its `EnginePrep` are built once per
/// family and shared by the option runs, as the training pipeline does
/// for its grid cells.
pub fn recommend_and_validate(
    workload: &dyn Workload,
    config: &TrainingConfig,
    trained: &TrainedJuggler,
    tracer: Option<&Tracer>,
) -> Result<FamilyOutcome, String> {
    let name = workload.name();
    let paper = workload.paper_params();
    let (e, f) = (paper.examples as f64, paper.features as f64);
    let menu = {
        let _s = span(tracer, "recommend.menu");
        trained.recommend(e, f)
    };
    check_menu(&menu)
        .and_then(|()| check_machines(trained, &menu, e, f))
        .map_err(|m| format!("{name}: menu at Table-1 parameters: {m}"))?;
    if let Some(t) = tracer {
        t.count("recommend.menus", 1);
        t.count("recommend.candidates", menu_candidates(&menu) as u64);
        t.count("recommend.options", menu.options.len() as u64);
        time_predictions(t, trained, e, f);
    }

    let _validate = span(tracer, "validate");
    let app = {
        let _s = span(tracer, "dagflow.build");
        workload.build(&paper)
    };
    let prep = {
        let _s = span(tracer, "cluster_sim.prep");
        Arc::new(EnginePrep::new(&app))
    };
    if let Some(t) = tracer {
        t.count("dagflow.builds", 1);
        t.count("dagflow.datasets", app.dataset_count() as u64);
        t.count("cluster_sim.preps", 1);
    }
    let mut ledger = Vec::with_capacity(menu.options.len());
    let mut cheapest_cost_machine_min = 0.0;
    let mut validation_cache = (0, 0, 0);
    for (rank, opt) in menu.options.iter().enumerate() {
        let mut sim = workload.sim_params();
        sim.seed = config
            .seed
            .wrapping_add(VALIDATION_SEED_OFFSET + opt.schedule_index as u64);
        let cluster = ClusterConfig::new(opt.machines.max(1), config.target_spec);
        let report = {
            let _s = span(tracer, "cluster_sim.run");
            Engine::with_prep(&app, cluster, sim, Arc::clone(&prep))
                .run_shared(&opt.schedule, RunOptions::default())
        }
        .map_err(|err| {
            format!(
                "{name}: validation of schedule {} failed: {err}",
                opt.schedule_index
            )
        })?;
        let (hits, misses, evictions) = cache_counts(&report);
        validation_cache.0 += hits;
        validation_cache.1 += misses;
        validation_cache.2 += evictions;
        if let Some(t) = tracer {
            count_plain_run(t, &report);
            t.count("validate.runs", 1);
        }
        if rank == 0 {
            cheapest_cost_machine_min = report.cost_machine_minutes();
        }
        ledger.push(LedgerEntry {
            workload: trained.workload.clone(),
            schedule_index: opt.schedule_index,
            examples: e,
            features: f,
            machines: opt.machines,
            predicted_time_s: opt.predicted_time_s,
            actual_time_s: report.total_time_s,
            predicted_size_bytes: opt.predicted_size_bytes,
            actual_peak_bytes: report.cache.peak_storage_bytes,
            report_digest: String::new(),
        });
    }
    Ok(FamilyOutcome {
        train_machine_min: trained.costs.total_machine_minutes(),
        ledger,
        cheapest_cost_machine_min,
        validation_cache,
    })
}

/// Times the two model evaluations a menu is built from, one call per
/// schedule each, so their per-call cost is reported on its own.
fn time_predictions(t: &Tracer, trained: &TrainedJuggler, e: f64, f: f64) {
    {
        let _s = t.span("param_calibration.predict");
        for rs in &trained.schedules {
            std::hint::black_box(trained.sizes.predict_schedule_size(&rs.schedule, e, f));
        }
    }
    {
        let _s = t.span("time_model.predict");
        for m in &trained.time_models {
            std::hint::black_box(m.predict(e, f));
        }
    }
    t.count("param_calibration.predicts", trained.schedules.len() as u64);
    t.count("time_model.predicts", trained.time_models.len() as u64);
}

/// Candidates the menu was built from: offered, dominated and invalid.
pub fn menu_candidates(menu: &RecommendationMenu) -> usize {
    menu.options.len() + menu.dominated.len() + menu.invalid.len()
}

/// A menu is usable when it offers at least one option, every offered
/// prediction is finite and non-negative, options are sorted cheapest
/// first, no offered option is both faster and cheaper than another, and
/// every dominated candidate is beaten by some offered option.
pub fn check_menu(menu: &RecommendationMenu) -> Result<(), String> {
    // The tolerance `RecommendationMenu::from_candidates` filters with.
    const EPS: f64 = 1e-12;
    let beats = |a: &Recommendation, b: &Recommendation| {
        a.predicted_time_s < b.predicted_time_s - EPS
            && a.predicted_cost_machine_min < b.predicted_cost_machine_min - EPS
    };
    let opts = &menu.options;
    if opts.is_empty() {
        return Err("empty menu".into());
    }
    if let Some(o) = opts
        .iter()
        .find(|o| !o.is_finite() || o.predicted_time_s < 0.0 || o.predicted_cost_machine_min < 0.0)
    {
        return Err(format!(
            "schedule {} has a non-finite or negative prediction",
            o.schedule_index
        ));
    }
    if opts
        .windows(2)
        .any(|w| w[0].predicted_cost_machine_min > w[1].predicted_cost_machine_min)
    {
        return Err("options not sorted cheapest first".into());
    }
    for a in opts {
        if let Some(b) = opts.iter().find(|b| beats(b, a)) {
            return Err(format!(
                "option {} is dominated by offered option {}",
                a.schedule_index, b.schedule_index
            ));
        }
    }
    if let Some(d) = menu
        .dominated
        .iter()
        .find(|d| !opts.iter().any(|o| beats(o, d)))
    {
        return Err(format!(
            "schedule {} was filtered as dominated but no offered option beats it",
            d.schedule_index
        ));
    }
    Ok(())
}

/// `machines_for` must agree with the machine count of every offered
/// option (Eq. 6 computed two ways).
fn check_machines(
    trained: &TrainedJuggler,
    menu: &RecommendationMenu,
    e: f64,
    f: f64,
) -> Result<(), String> {
    for opt in &menu.options {
        let machines = trained.machines_for(opt.schedule_index, e, f);
        if machines != opt.machines {
            return Err(format!(
                "schedule {}: machines_for gives {machines}, the menu {}",
                opt.schedule_index, opt.machines
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::Schedule;

    fn rec(i: usize, time: f64, cost: f64) -> Recommendation {
        Recommendation {
            schedule_index: i,
            schedule: Arc::new(Schedule::empty()),
            predicted_size_bytes: 0,
            machines: 1,
            predicted_time_s: time,
            predicted_cost_machine_min: cost,
        }
    }

    #[test]
    fn menus_built_by_the_program_pass() {
        let menu = RecommendationMenu::from_candidates(vec![
            rec(0, 10.0, 5.0),
            rec(1, 5.0, 10.0),
            rec(2, 12.0, 12.0),
            rec(3, f64::NAN, 1.0),
        ]);
        assert_eq!(menu.dominated.len(), 1);
        assert_eq!(check_menu(&menu), Ok(()));
        assert_eq!(menu_candidates(&menu), 4);
    }

    #[test]
    fn broken_menus_fail() {
        let empty = RecommendationMenu::from_candidates(vec![rec(0, f64::NAN, 1.0)]);
        assert!(check_menu(&empty).is_err());

        let two = vec![rec(0, 10.0, 5.0), rec(1, 5.0, 10.0)];
        let mut unsorted = RecommendationMenu::from_candidates(two);
        unsorted.options.reverse();
        assert!(check_menu(&unsorted).is_err());

        let mut dominated = RecommendationMenu::from_candidates(vec![rec(0, 10.0, 5.0)]);
        dominated.options.push(rec(1, 20.0, 6.0));
        assert!(check_menu(&dominated).is_err());

        let mut orphan = RecommendationMenu::from_candidates(vec![rec(0, 10.0, 5.0)]);
        orphan.dominated.push(rec(1, 1.0, 1.0));
        assert!(check_menu(&orphan).is_err());
    }

    #[test]
    fn det_metrics_median_ignores_one_blown_up_seed() {
        let d = |train: f64| DetMetrics {
            train_machine_min: train,
            pred_time_err_pct: 1.0,
            pred_size_err_pct: 2.0,
            rec_cost_machine_min: 3.0,
        };
        let m = DetMetrics::median(&[d(600.0), d(1.2e13), d(610.0)]);
        assert_eq!(m.train_machine_min, 610.0);
    }
}
