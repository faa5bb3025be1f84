//! Per-layer metrics of a traced round, folded from its spans and counters.

use std::collections::BTreeMap;

use crate::spans::Tracer;
use crate::stats::percentile;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The per-layer metrics of one traced round.
pub fn layer_metrics(t: &Tracer, threads: usize) -> BTreeMap<&'static str, f64> {
    let layers = t.layers();
    let counters = t.counters();
    let total = |n: &str| layers.get(n).map_or(0, |l| l.total_ns);
    let c = |n: &str| counters.get(n).copied().unwrap_or(0) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let fanout_ns = total("parallel.fanout") as f64;
    let busy_ns = total("parallel.item") as f64;
    let mut m = BTreeMap::new();
    for (key, span) in [
        ("dagflow.build_ms", "dagflow.build"),
        ("cluster_sim.prep_ms", "cluster_sim.prep"),
        ("cluster_sim.run_ms", "cluster_sim.run"),
        ("instrument.inject_ms", "instrument.inject"),
        ("instrument.sim_ms", "instrument.sim"),
        ("instrument.ingest_ms", "instrument.ingest"),
        ("instrument.derive_ms", "instrument.derive"),
        ("hotspot.detect_ms", "hotspot.detect"),
        ("modeling.fit_ms", "modeling.fit"),
        ("memory_calibration.scale_ms", "memory_calibration.scale"),
        ("parallel.fanout_ms", "parallel.fanout"),
        ("parallel.busy_ms", "parallel.item"),
        ("validate.ms", "validate"),
    ] {
        m.insert(key, ms(total(span)));
    }
    for key in [
        "dagflow.builds",
        "dagflow.datasets",
        "cluster_sim.preps",
        "cluster_sim.runs",
        "cluster_sim.tasks",
        "cluster_sim.cache_hits",
        "cluster_sim.cache_misses",
        "cluster_sim.evictions",
        "instrument.traced_tasks",
        "hotspot.bcr_evaluations",
        "hotspot.schedules",
        "modeling.fits",
        "modeling.candidates",
        "modeling.samples",
        "memory_calibration.scale_evals",
        "validate.runs",
    ] {
        m.insert(key, c(key));
    }
    m.insert(
        "cluster_sim.ns_per_task",
        per(total("cluster_sim.run") as f64, c("cluster_sim.tasks")),
    );
    let hits = c("cluster_sim.cache_hits");
    m.insert(
        "cluster_sim.hit_ratio",
        per(hits, hits + c("cluster_sim.cache_misses")),
    );
    m.insert(
        "parallel.idle_frac",
        if fanout_ns > 0.0 {
            1.0 - busy_ns / (threads as f64 * fanout_ns)
        } else {
            0.0
        },
    );
    m.insert(
        "recommend.menu_us",
        per(total("recommend.menu") as f64 / 1e3, c("recommend.menus")),
    );
    m.insert(
        "recommend.pareto_ratio",
        per(c("recommend.options"), c("recommend.candidates")),
    );
    m.insert(
        "param_calibration.predict_ns",
        per(
            total("param_calibration.predict") as f64,
            c("param_calibration.predicts"),
        ),
    );
    m.insert(
        "time_model.predict_ns",
        per(total("time_model.predict") as f64, c("time_model.predicts")),
    );
    m.insert(
        "glue.unattributed_ms",
        ms(layers.get("round").map_or(0, |l| l.self_ns)),
    );
    m
}

/// The per-layer metrics reported by `--trace 1`, with units, in output
/// order. `trace.overhead_pct` is added from the round times.
pub const LAYER_UNITS: [(&str, &str); 38] = [
    ("dagflow.build_ms", "ms"),
    ("dagflow.builds", "count"),
    ("dagflow.datasets", "count"),
    ("cluster_sim.prep_ms", "ms"),
    ("cluster_sim.preps", "count"),
    ("cluster_sim.run_ms", "ms"),
    ("cluster_sim.runs", "count"),
    ("cluster_sim.tasks", "count"),
    ("cluster_sim.ns_per_task", "ns"),
    ("cluster_sim.cache_hits", "count"),
    ("cluster_sim.cache_misses", "count"),
    ("cluster_sim.evictions", "count"),
    ("cluster_sim.hit_ratio", "ratio"),
    ("instrument.inject_ms", "ms"),
    ("instrument.sim_ms", "ms"),
    ("instrument.ingest_ms", "ms"),
    ("instrument.derive_ms", "ms"),
    ("instrument.traced_tasks", "count"),
    ("hotspot.detect_ms", "ms"),
    ("hotspot.bcr_evaluations", "count"),
    ("hotspot.schedules", "count"),
    ("modeling.fit_ms", "ms"),
    ("modeling.fits", "count"),
    ("modeling.candidates", "count"),
    ("modeling.samples", "count"),
    ("memory_calibration.scale_ms", "ms"),
    ("memory_calibration.scale_evals", "count"),
    ("parallel.fanout_ms", "ms"),
    ("parallel.busy_ms", "ms"),
    ("parallel.idle_frac", "ratio"),
    ("validate.ms", "ms"),
    ("validate.runs", "count"),
    ("recommend.menu_us", "us"),
    ("recommend.pareto_ratio", "ratio"),
    ("param_calibration.predict_ns", "ns"),
    ("time_model.predict_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("glue.unattributed_ms", "ms"),
];

/// Median of each metric over several traced rounds.
pub fn median_layers(rounds: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = rounds.first() {
        for &k in first.keys() {
            let v: Vec<f64> = rounds.iter().map(|r| r[k]).collect();
            out.insert(k, percentile(&v, 50.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{full_round, Inputs};
    use crate::stats::valid_metric_name;

    #[test]
    fn a_traced_round_yields_every_layer_metric() {
        let inp = Inputs::new(&["KMEANS"], 1, 2);
        let t = Tracer::default();
        full_round(&inp, 0, Some(&t), &mut 0).expect("round runs");
        let m = layer_metrics(&t, 2);
        for (name, _) in LAYER_UNITS {
            assert!(valid_metric_name(name), "{name}");
            if name != "trace.overhead_pct" {
                assert!(m.contains_key(name), "{name} missing");
            }
        }
        assert!(m["cluster_sim.runs"] > 0.0 && m["instrument.traced_tasks"] > 0.0);
        assert!(m["glue.unattributed_ms"] >= 0.0);
    }
}
