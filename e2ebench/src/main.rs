//! End-to-end benchmark of the Juggler offline pipeline: train →
//! recommend → validate on every workload family, with a traced
//! per-layer breakdown. See README.md.
//!
//! ```text
//! e2ebench --workload <train-sim|train-calib> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the run context
//! and a readable table go to standard error. A failed check makes the
//! exit code non-zero.

mod harness;
mod layers;
mod replay;
mod round;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use juggler::{OfflineTraining, TrainingConfig};

use harness::{check, full_round, Inputs, Reference, SEED_SLOTS};
use layers::{layer_metrics, median_layers, LAYER_UNITS};
use round::{artifact_bytes, DetMetrics};
use spans::Tracer;
use stats::{percentile, result_line, tail_supported, Metric};

const USAGE: &str = "usage: e2ebench --workload <train-sim|train-calib> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-up is repeated this many times in an untraced run; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 5;
/// Seed slots whose first round runs during set-up (the warm-up).
const WARM_SLOTS: usize = 4;
/// Seeds of the replay-equals-pipeline check: the pipeline's default
/// seed and one held out from everything else the benchmark runs.
const REPLAY_CHECK_SEEDS: [u64; 2] = [0x5EED, 0x00DD_BA11];
/// A run measures at most this many times `--seconds` while it waits for
/// enough samples beyond the reported tail percentiles.
const MAX_EXTENSION: u32 = 3;
/// Traced rounds a `--trace 1` run takes at least.
const MIN_TRACED_ROUNDS: usize = 8;

/// All eight families: the first three make `train-sim`, the rest
/// `train-calib`.
const ALL_FAMILIES: [&str; 8] = [
    "SVM", "LOR", "PCA", "RFC", "LIR", "SQLJOIN", "KMEANS", "STREAM",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Simulator-heavy training: SVM, LOR, PCA.
    TrainSim,
    /// Calibration-heavy training: RFC, LIR, SQLJOIN, KMEANS, STREAM.
    TrainCalib,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "train-sim" => Some(Kind::TrainSim),
            "train-calib" => Some(Kind::TrainCalib),
            _ => None,
        }
    }

    fn families(self) -> &'static [&'static str] {
        match self {
            Kind::TrainSim => &ALL_FAMILIES[..3],
            Kind::TrainCalib => &ALL_FAMILIES[3..],
        }
    }
}

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().ok().filter(|s| (1..=60).contains(s));
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in process status")?;
    Ok(kb / 1024.0)
}

/// Telemetry that would perturb the timings must be off: the metrics
/// registry, the phase profiler, and the simulator's structured trace.
fn check_telemetry_off(configs: &[TrainingConfig]) -> Result<(), String> {
    check(!obs::global().enabled(), || "metrics registry is on".into())?;
    check(!obs::prof::profiler().enabled(), || {
        "phase profiler is on".into()
    })?;
    check(configs.iter().all(|c| !c.trace.enabled), || {
        "simulator tracing is on".into()
    })
}

/// The traced replay must serialize to exactly the pipeline's artifact
/// for every family, at the default seed and a held-out one.
fn check_replay_equals_pipeline(threads: usize) -> Result<(), String> {
    for seed in REPLAY_CHECK_SEEDS {
        let config = TrainingConfig {
            seed,
            threads,
            ..TrainingConfig::default()
        };
        for name in ALL_FAMILIES {
            let w = juggler::workload_by_name(name).expect("known family");
            let pipeline = OfflineTraining::run(w.as_ref(), &config)
                .map_err(|e| format!("{name}: pipeline training failed: {e}"))?;
            let replayed = replay::train_traced(w.as_ref(), &config, &Tracer::default())?;
            check(
                artifact_bytes(&pipeline) == artifact_bytes(&replayed),
                || {
                    format!(
                        "{name} at seed {seed:#x}: the traced replay's artifact differs \
                     from OfflineTraining::run's"
                    )
                },
            )?;
        }
    }
    Ok(())
}

/// Set-up: generate the inputs, then run the warm-up rounds, which also
/// fill the reference that later rounds of those seed slots must
/// reproduce. Repeated `repeats` times; later repetitions must reproduce
/// the first. Returns the duration of each repetition.
fn setup(
    args: &Args,
    threads: usize,
    repeats: usize,
    reference: &mut Reference,
    attempted: &mut u64,
) -> Result<(Inputs, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(repeats);
    let mut inp = None;
    for _ in 0..repeats {
        let clock = Instant::now();
        let fresh = Inputs::new(args.kind.families(), args.seed, threads);
        check_telemetry_off(&fresh.configs)?;
        let mut warm = Vec::with_capacity(WARM_SLOTS);
        for slot in 0..WARM_SLOTS {
            warm.push(full_round(&fresh, slot, None, attempted)?);
        }
        setup_s.push(clock.elapsed().as_secs_f64());
        for (slot, r) in warm.into_iter().enumerate() {
            reference.observe(slot, r, "set-up round")?;
        }
        inp = Some(fresh);
    }
    Ok((inp.expect("set-up ran"), setup_s))
}

/// Host-time samples of the timed loop.
#[derive(Default)]
struct Samples {
    round_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    traced_layers: Vec<BTreeMap<&'static str, f64>>,
}

/// The timed loop: full rounds, cycling through the seed slots, for
/// `--seconds` (longer, up to `MAX_EXTENSION` times, while the tail
/// percentile lacks samples). With tracing, an untraced and a traced
/// round alternate so both see the same host conditions.
fn timed_loop(
    args: &Args,
    inp: &Inputs,
    reference: &mut Reference,
    threads: usize,
    attempted: &mut u64,
) -> Result<Samples, String> {
    let budget = Duration::from_secs(args.seconds);
    let mut out = Samples::default();
    let mut traced_counters: BTreeMap<usize, BTreeMap<&str, u64>> = BTreeMap::new();
    let loop_start = Instant::now();
    for pos in WARM_SLOTS.. {
        let elapsed = loop_start.elapsed();
        let enough = if args.trace {
            out.traced_ms.len() >= MIN_TRACED_ROUNDS
        } else {
            out.round_ms.len() >= SEED_SLOTS && tail_supported(out.round_ms.len(), 90.0)
        };
        if (elapsed >= budget && enough) || elapsed >= budget * MAX_EXTENSION {
            break;
        }
        let slot = pos % SEED_SLOTS;
        let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &traced in passes {
            let tracer = traced.then(Tracer::default);
            let clock = Instant::now();
            let r = full_round(inp, slot, tracer.as_ref(), attempted)?;
            let took_ms = clock.elapsed().as_secs_f64() * 1e3;
            reference.observe(slot, r, if traced { "traced round" } else { "round" })?;
            let Some(t) = tracer else {
                out.round_ms.push(took_ms);
                continue;
            };
            out.traced_ms.push(took_ms);
            out.traced_layers.push(layer_metrics(&t, threads));
            let counters = t.counters();
            let first = traced_counters
                .entry(slot)
                .or_insert_with(|| counters.clone());
            check(*first == counters, || {
                format!("exact work counters differ between traced rounds of slot {slot}")
            })?;
        }
    }
    Ok(out)
}

/// Everything a run reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    context: Vec<(&'static str, String)>,
}

fn run(args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = nproc.min(2);
    let mut attempted = 0;
    let mut reference = Reference::default();

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (inp, setup_s) = setup(args, threads, repeats, &mut reference, &mut attempted)?;
    // Read before the timed loop, whose sample vectors grow with speed.
    let peak_rss = peak_rss_mb()?;

    let loop_start = Instant::now();
    let s = timed_loop(args, &inp, &mut reference, threads, &mut attempted)?;
    let measured_s = loop_start.elapsed().as_secs_f64();
    check_telemetry_off(&inp.configs)?;

    // Checks outside the timed loop.
    check_replay_equals_pipeline(threads)?;
    if !args.trace {
        let t = Tracer::default();
        let r = full_round(&inp, 0, Some(&t), &mut attempted)?;
        reference.observe(0, r, "traced round")?;
    }

    let mut context = vec![
        ("workload", format!("{:?}", args.kind)),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("training_threads", threads.to_string()),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("families", inp.families.len().to_string()),
        ("seed_slots", SEED_SLOTS.to_string()),
        ("setup_repeats", repeats.to_string()),
        ("measured_s", format!("{measured_s:.3}")),
        ("untraced_rounds", s.round_ms.len().to_string()),
        ("traced_rounds", s.traced_ms.len().to_string()),
    ];
    let median = |v: &[f64]| percentile(v, 50.0);
    let mut metrics = Vec::new();
    if args.trace {
        let mut layers = median_layers(&s.traced_layers);
        let untraced = median(&s.round_ms);
        layers.insert(
            "trace.overhead_pct",
            100.0 * (median(&s.traced_ms) - untraced) / untraced,
        );
        for &(name, unit) in &LAYER_UNITS {
            metrics.push(Metric {
                name,
                value: layers[name],
                unit,
            });
        }
    } else {
        // Every slot runs unless the loop hit its time cap first.
        let per_slot = reference.det();
        let det = DetMetrics::median(&per_slot);
        let worst_train = per_slot
            .iter()
            .map(|d| d.train_machine_min)
            .fold(0.0, f64::max);
        context.extend([
            ("slots_run", per_slot.len().to_string()),
            (
                "tail_samples_ok",
                tail_supported(s.round_ms.len(), 90.0).to_string(),
            ),
            (
                "round_ms_q1",
                format!("{:.4}", percentile(&s.round_ms, 25.0)),
            ),
            (
                "round_ms_q3",
                format!("{:.4}", percentile(&s.round_ms, 75.0)),
            ),
            ("train_machine_min_worst_slot", format!("{worst_train:.6e}")),
        ]);
        let rounds_s: f64 = s.round_ms.iter().sum::<f64>() / 1e3;
        for (name, value, unit) in [
            ("setup_s", median(&setup_s), "s"),
            ("rounds_per_s", s.round_ms.len() as f64 / rounds_s, "1/s"),
            ("round_ms_p50", median(&s.round_ms), "ms"),
            ("round_ms_p90", percentile(&s.round_ms, 90.0), "ms"),
            ("train_machine_min", det.train_machine_min, "machine-min"),
            ("pred_time_err_pct", det.pred_time_err_pct, "%"),
            ("pred_size_err_pct", det.pred_size_err_pct, "%"),
            (
                "rec_cost_machine_min",
                det.rec_cost_machine_min,
                "machine-min",
            ),
            ("peak_rss_mb", peak_rss, "MiB"),
        ] {
            metrics.push(Metric { name, value, unit });
        }
    }
    Ok(Report {
        metrics,
        attempted,
        context,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(m) => {
            eprintln!("e2ebench: {m}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(m) => {
            eprintln!("e2ebench: check failed: {m}");
            return ExitCode::FAILURE;
        }
    };
    let context: Vec<String> = report
        .context
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("context: {}", context.join(" "));
    for m in &report.metrics {
        eprintln!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    // Any failed operation or check ends the run above, so a printed
    // result is a correct one with no failures.
    println!("{}", result_line(report.attempted, &report.metrics));
    ExitCode::SUCCESS
}
