//! The search workloads: a mini Table 4 matrix (4 registry datasets ×
//! LR/XGB/MLP × all 15 algorithms, eval-count budget) run through the
//! bench harness's `run_matrix_with`, either in-process with no caches
//! (`search_cold`) or over a supervised two-worker `evald` fleet with
//! the shared trial cache and a trial store (`search_fleet`).

use crate::report::Report;
use crate::summary::{median, Tail};
use crate::sys;
use crate::trace::Tracer;
use autofp_bench::{cells_tsv, run_matrix_with, CacheMode, HarnessConfig, MatrixOutcome};
use autofp_core::{
    fnv1a, Budget, EvalConfig, EvalError, Evaluate, Evaluator, RemoteEvaluator, SharedEvalCache,
    Trial, TrialRepo,
};
use autofp_data::{spec_by_name, DatasetSpec};
use autofp_evald::{EvalContext, FleetSupervisor, SupervisorConfig, TcpPool, WorkerStats};
use autofp_models::classifier::ModelKind;
use autofp_models::CancelToken;
use autofp_preprocess::{Pipeline, Preproc, PreprocKind};
use autofp_search::AlgName;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Four small registry datasets of different shapes (rows × cols ×
/// classes at the harness scale).
pub const DATASETS: [&str; 4] = ["austrilian", "blood", "vehicle", "wine"];
/// Budget-counted trials per cell.
pub const EVALS_PER_CELL: usize = 8;
/// Worker daemons in the fleet workload.
pub const FLEET_WORKERS: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 7;
/// Seed of every dataset's train/validation split (and the trainers'
/// seeds). Fixed, like the datasets themselves: the workload seed drives
/// the searchers, and with validation sets of a few dozen rows a
/// seed-dependent split would swing accuracy and trial cost far more
/// than any change under test.
const SPLIT_SEED: u64 = 7;
/// Matrix passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;
/// Per-request socket timeout towards the fleet (the harness default).
const REMOTE_TIMEOUT: Duration = Duration::from_secs(60);

/// The evaluation config a matrix group runs with: the harness's, on
/// the fixed split.
fn fixed_split(c: EvalConfig) -> EvalConfig {
    EvalConfig {
        seed: SPLIT_SEED,
        ..c
    }
}

/// The workload's harness configuration for `seed`.
pub fn config(seed: u64, fleet: bool) -> HarnessConfig {
    HarnessConfig {
        budget: Budget::evals(EVALS_PER_CELL),
        seed,
        n_datasets: None,
        threads: sys::nproc(),
        cache_mode: if fleet {
            CacheMode::Shared
        } else {
            CacheMode::Off
        },
        prefix_cache: false,
        ..HarnessConfig::default()
    }
}

fn specs() -> Vec<DatasetSpec> {
    DATASETS
        .iter()
        .map(|n| spec_by_name(n).expect("registry dataset"))
        .collect()
}

/// What the timing wrapper saw of one evaluation call.
struct Call {
    dataset: String,
    model: ModelKind,
    pipeline: Pipeline,
    /// The trial it produced (`None` on error).
    trial: Option<Trial>,
}

/// Evaluation calls of one run, from every pool thread: every call's
/// wall time, and in a traced run what it evaluated.
#[derive(Default)]
struct CallLog {
    wall_ms: Mutex<Vec<f64>>,
    calls: Mutex<Vec<Call>>,
}

/// Wraps the real evaluator and times each call: the per-evaluation
/// latency is an end-to-end metric, so this runs untraced too (two
/// clock reads per evaluation). Traced runs also record a span.
struct Timed {
    inner: Box<dyn Evaluate>,
    dataset: String,
    log: Arc<CallLog>,
    tracer: Arc<Tracer>,
    span: &'static str,
    parent: Arc<AtomicU64>,
}

impl Evaluate for Timed {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        let start = Instant::now();
        let out = self.inner.evaluate_raw(pipeline, fraction, cancel);
        let end = Instant::now();
        self.log
            .wall_ms
            .lock()
            .expect("call log poisoned")
            .push((end - start).as_secs_f64() * 1e3);
        if self.tracer.enabled() {
            self.tracer
                .record(self.span, self.parent.load(Ordering::Relaxed), start, end);
            self.log
                .calls
                .lock()
                .expect("call log poisoned")
                .push(Call {
                    dataset: self.dataset.clone(),
                    model: self.inner.config().model,
                    pipeline: pipeline.clone(),
                    trial: out.as_ref().ok().cloned(),
                });
        }
        out
    }
    fn config(&self) -> &EvalConfig {
        self.inner.config()
    }
    fn baseline_accuracy(&self) -> f64 {
        self.inner.baseline_accuracy()
    }
    fn train_rows(&self) -> usize {
        self.inner.train_rows()
    }
    fn prefix_stats(&self) -> Option<autofp_core::PrefixStats> {
        self.inner.prefix_stats()
    }
}

/// One matrix pass and what was read off it before teardown.
struct Pass {
    outcome: MatrixOutcome,
    wall: Duration,
    peak_rss_mb: f64,
    /// Fleet only: worker counters read before shutdown.
    workers: Vec<WorkerStats>,
    /// Fleet only: the pool's reconnects, retries, failovers, circuit
    /// opens and respawns.
    fleet_incidents: u64,
    store_bytes: u64,
    store_reopen: Option<Duration>,
    /// Processes or listeners still alive after teardown.
    leftovers: Vec<String>,
}

fn spawn_fleet() -> FleetSupervisor {
    FleetSupervisor::spawn(
        &sys::sibling_binary("evald"),
        FLEET_WORKERS,
        SupervisorConfig::default(),
    )
    .expect("spawn evald workers")
}

/// Set-up: generate the datasets and build every (dataset, model)
/// evaluator, which measures its no-FP baseline; for the fleet, also
/// spawn the workers and wait until they are ready.
fn setup_once(cfg: &HarnessConfig, fleet: bool) -> Duration {
    let start = Instant::now();
    let datasets: Vec<_> = specs().iter().map(|s| cfg.generate(s)).collect();
    for d in &datasets {
        for model in ModelKind::ALL {
            let config = EvalConfig {
                model,
                train_fraction: 0.8,
                seed: SPLIT_SEED,
                train_subsample: None,
            };
            std::hint::black_box(Evaluator::new(d, config).baseline_accuracy());
        }
    }
    let supervisor = fleet.then(spawn_fleet);
    let elapsed = start.elapsed();
    drop(supervisor);
    elapsed
}

/// Run one matrix pass. The fleet gets fresh workers and a fresh,
/// empty trial store each pass, so every pass does the same work; both
/// are gone again when this returns.
fn run_pass(
    cfg: &HarnessConfig,
    log: &Arc<CallLog>,
    tracer: &Arc<Tracer>,
    pass_span: &Arc<AtomicU64>,
) -> Pass {
    let specs = specs();
    let mut cfg = cfg.clone();
    let fleet = cfg.cache_mode == CacheMode::Shared;
    let mut monitor = None;
    let mut addrs = Vec::new();
    if fleet {
        let supervisor = spawn_fleet();
        addrs = supervisor.addrs();
        cfg.fleet_spec = Some(supervisor.fleet());
        monitor = Some(supervisor.monitor(Duration::from_millis(500)));
        cfg.trial_store = Some(sys::fresh_dir("trial-store"));
    }
    let timed = |inner: Box<dyn Evaluate>, dataset: &str, span| -> Box<dyn Evaluate> {
        Box::new(Timed {
            inner,
            dataset: dataset.to_string(),
            log: log.clone(),
            tracer: tracer.clone(),
            span,
            parent: pass_span.clone(),
        })
    };
    let opened = tracer.open();
    pass_span.store(opened.0, Ordering::Relaxed);
    let start = Instant::now();
    let (outcome, fleet_incidents) = match cfg.fleet_spec.clone() {
        None => {
            let outcome =
                run_matrix_with(&specs, &ModelKind::ALL, &AlgName::ALL, &cfg, |d, c, _| {
                    timed(
                        Box::new(Evaluator::new(d, fixed_split(c))),
                        &d.name,
                        "core.evaluate",
                    )
                });
            (outcome, 0)
        }
        Some(spec) => {
            // The harness's `--workers` routing (one pool for the whole
            // matrix, a RemoteEvaluator per group), with the timing
            // wrapper around each RemoteEvaluator.
            let pool = TcpPool::new(spec, REMOTE_TIMEOUT);
            let mut outcome =
                run_matrix_with(&specs, &ModelKind::ALL, &AlgName::ALL, &cfg, |d, c, _| {
                    let c = fixed_split(c);
                    let spec = spec_by_name(&d.name).expect("registry dataset");
                    let ctx = EvalContext {
                        dataset: d.name.clone(),
                        scale: cfg.effective_scale(&spec),
                        model: c.model,
                        train_fraction: c.train_fraction,
                        seed: c.seed,
                        train_subsample: c.train_subsample.map(|v| v as u64),
                    };
                    timed(
                        Box::new(RemoteEvaluator::new(Box::new(pool.backend(ctx)), c)),
                        &d.name,
                        "evald.rtt",
                    )
                });
            let s = pool.fleet_stats();
            outcome.fleet = Some(s);
            (
                outcome,
                s.reconnects + s.retries + s.failovers + s.circuit_opens + s.respawns,
            )
        }
    };
    let wall = start.elapsed();
    tracer.close("search.matrix", 0, opened);

    let workers: Vec<WorkerStats> = addrs
        .iter()
        .filter_map(|a| autofp_evald::stats(a, Duration::from_secs(5)).ok())
        .collect();
    let peak_rss_mb = sys::family_peak_rss_mb();
    // Workers get their Shutdown request, then are reaped.
    drop(monitor.and_then(|m| m.stop()));
    let leftovers = sys::leftovers(&addrs);
    let mut store_bytes = 0;
    let mut store_reopen = None;
    if let Some(dir) = &cfg.trial_store {
        store_bytes = sys::dir_bytes(dir);
        if tracer.enabled() {
            let start = Instant::now();
            reopen_store(dir, &cfg);
            let end = Instant::now();
            tracer.record("store.reopen", 0, start, end);
            store_reopen = Some(end - start);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    Pass {
        outcome,
        wall,
        peak_rss_mb,
        workers,
        fleet_incidents,
        store_bytes,
        store_reopen,
        leftovers,
    }
}

/// `TrialRepo::open` plus preloading every segment the pass wrote.
fn reopen_store(dir: &std::path::Path, cfg: &HarnessConfig) {
    let repo = TrialRepo::open(dir).expect("reopen trial store");
    for spec in specs() {
        for m in ModelKind::ALL {
            let context = cfg.eval_context(&spec, m).canonical();
            let store = repo.open_context(&context).expect("reopen segment");
            std::hint::black_box(SharedEvalCache::new().preload_from(&store));
        }
    }
}

/// Run a search workload for about `seconds` (at least
/// [`MIN_PASSES`] passes) and fill `report`.
pub fn run(fleet: bool, seed: u64, seconds: f64, tracer: &Arc<Tracer>, report: &mut Report) {
    let cfg = config(seed, fleet);
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| setup_once(&cfg, fleet).as_secs_f64())
        .collect();
    let setup_leftovers = sys::leftovers(&[]);

    let log = Arc::new(CallLog::default());
    let pass_span = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        passes.push(run_pass(&cfg, &log, tracer, &pass_span));
    }

    // Correctness gates.
    let cells_per_pass = DATASETS.len() * ModelKind::ALL.len() * AlgName::ALL.len();
    let digests: Vec<u64> = passes
        .iter()
        .map(|p| fnv1a(cells_tsv(&p.outcome).as_bytes()))
        .collect();
    let short_cells: usize = passes
        .iter()
        .flat_map(|p| &p.outcome.cells)
        .filter(|c| c.n_evals != EVALS_PER_CELL)
        .count();
    let cell_count_ok = passes
        .iter()
        .all(|p| p.outcome.cells.len() == cells_per_pass);
    report.gate(
        "full_budget",
        short_cells == 0 && cell_count_ok,
        format!("{short_cells} cells short of {EVALS_PER_CELL} evals"),
    );
    let (reference, recorded_now) = reference_digest(seed, digests[0]);
    let mismatched = digests.iter().filter(|&&d| d != reference).count();
    report.gate(
        "cells_digest",
        mismatched == 0,
        format!(
            "{mismatched} of {} passes differ from {reference:016x} ({})",
            digests.len(),
            if recorded_now {
                "recorded by this run"
            } else {
                "recorded earlier for this build and seed"
            }
        ),
    );
    let leftovers: Vec<String> = setup_leftovers
        .into_iter()
        .chain(passes.iter().flat_map(|p| p.leftovers.clone()))
        .collect();
    report.gate(
        "no_leftover_processes",
        leftovers.is_empty(),
        leftovers.join("; "),
    );
    let incidents: u64 = passes.iter().map(|p| p.fleet_incidents).sum();
    report.gate(
        "fleet_undisturbed",
        incidents == 0,
        format!("{incidents} reconnects/retries/failovers"),
    );

    // End-to-end metrics.
    let trials: u64 = passes
        .iter()
        .flat_map(|p| &p.outcome.cells)
        .map(|c| c.n_evals as u64)
        .sum();
    // A worst-error trial fails; so does every trial of a pass whose
    // results differ from the reference.
    let failed: u64 = passes
        .iter()
        .zip(&digests)
        .map(|(p, &d)| {
            if d == reference {
                p.outcome.failures.total()
            } else {
                p.outcome.cells.iter().map(|c| c.n_evals as u64).sum()
            }
        })
        .sum::<u64>()
        + short_cells as u64;
    report.attempted = trials;
    report.failed = failed;
    let evals_per_s: Vec<f64> = passes
        .iter()
        .map(|p| {
            p.outcome
                .cells
                .iter()
                .map(|c| c.n_evals as f64)
                .sum::<f64>()
                / p.wall.as_secs_f64()
        })
        .collect();
    let wall_ms = log.wall_ms.lock().expect("call log poisoned").clone();
    let tail = Tail::of(&wall_ms);
    let last = &passes[passes.len() - 1].outcome;
    let accuracy =
        100.0 * last.cells.iter().map(|c| c.best_accuracy).sum::<f64>() / last.cells.len() as f64;
    let improvement =
        last.cells.iter().map(|c| c.improvement_pp()).sum::<f64>() / last.cells.len() as f64;
    let n = passes.len();
    report.e2e(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUP_REPEATS} set-ups"),
    );
    report.e2e(
        "work_per_s",
        median(&evals_per_s),
        "1/s",
        format!("budget-counted evals per wall second, median of {n} passes"),
    );
    // The mean, not the median: per-call latencies spread flat over
    // 0-20 ms, and the quartile spread of their median over ten seeds
    // reached 17-22% with the searchers' pipeline mix; the mean moves
    // with the work.
    report.e2e(
        "latency_ms",
        wall_ms.iter().sum::<f64>() / wall_ms.len().max(1) as f64,
        "ms",
        format!("mean per evaluation call, n={}", tail.n),
    );
    report.e2e(
        "p90_ms",
        tail.p90.unwrap_or(f64::NAN),
        "ms",
        format!("per evaluation call, n={}", tail.n),
    );
    report.e2e(
        "accuracy_pct",
        accuracy,
        "%",
        format!(
            "mean best validation accuracy over {} cells",
            last.cells.len()
        ),
    );
    report.e2e(
        "ok_share",
        1.0 - failed as f64 / trials.max(1) as f64,
        "share",
        format!("{failed} failed of {trials} trials"),
    );
    report.e2e(
        "peak_rss_mb",
        passes.iter().map(|p| p.peak_rss_mb).fold(0.0, f64::max),
        "MB",
        "benchmark process plus workers",
    );
    report.record("passes", n);
    report.record(
        "pass_evals_per_s",
        evals_per_s
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    report.record("evals_per_cell", EVALS_PER_CELL);
    report.record("datasets", DATASETS.join(","));
    report.record("mean_improvement_pp", format!("{improvement:.6}"));
    report.record("matrix_threads", cfg.threads);

    if tracer.enabled() {
        layers(&cfg, &passes, &log, improvement, tracer, report);
    }
}

/// The `cells_tsv` digest every pass of a seed must reproduce, on both
/// search workloads and in every run of one build: the first pass ever
/// run for this build and seed records it in the scratch directory
/// (keyed by the binaries' fingerprint), later ones read it back.
fn reference_digest(seed: u64, first: u64) -> (u64, bool) {
    let build = sys::fingerprint(&[
        std::env::current_exe().unwrap_or_default(),
        sys::sibling_binary("evald"),
    ]);
    let dir = sys::state_dir().join("digests");
    let path = dir.join(format!("{build:016x}-seed{seed}"));
    let recorded = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| u64::from_str_radix(s.trim(), 16).ok());
    match recorded {
        Some(d) => (d, false),
        None => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, format!("{first:016x}\n"));
            (first, true)
        }
    }
}

/// Per-layer metrics of a traced run.
fn layers(
    cfg: &HarnessConfig,
    passes: &[Pass],
    log: &CallLog,
    improvement: f64,
    tracer: &Tracer,
    report: &mut Report,
) {
    let n = passes.len() as f64;
    let cells: Vec<&autofp_bench::CellResult> =
        passes.iter().flat_map(|p| &p.outcome.cells).collect();
    let total = |f: fn(&autofp_core::PhaseBreakdown) -> Duration| -> f64 {
        cells.iter().map(|c| f(&c.breakdown).as_secs_f64()).sum()
    };
    let (pick, prep, train) = (total(|b| b.pick), total(|b| b.prep), total(|b| b.train));
    let all = (pick + prep + train).max(f64::MIN_POSITIVE);
    report.layer(
        "search.pick_share",
        pick / all,
        "share",
        "Pick of Pick+Prep+Train, all cells",
    );
    for alg in AlgName::ALL {
        let of_alg: Vec<_> = cells
            .iter()
            .filter(|c| c.algorithm == alg.as_str())
            .collect();
        let pick: f64 = of_alg.iter().map(|c| c.breakdown.pick.as_secs_f64()).sum();
        let trials: usize = of_alg.iter().map(|c| c.n_evals).sum();
        report.layer(
            &format!("search.pick_ms_per_trial.{}", alg.as_str()),
            1e3 * pick / trials.max(1) as f64,
            "ms",
            format!("{} cells", of_alg.len()),
        );
    }
    report.layer(
        "search.mean_improvement_pp",
        improvement,
        "pp",
        "over the no-FP baseline, mean of cells",
    );

    let calls = log.calls.lock().expect("call log poisoned");
    let fresh: Vec<&Trial> = calls.iter().filter_map(|c| c.trial.as_ref()).collect();
    let eval_ms: Vec<f64> = fresh
        .iter()
        .map(|t| (t.prep_time + t.train_time).as_secs_f64() * 1e3)
        .collect();
    let eval_tail = Tail::of(&eval_ms);
    report.layer(
        "core.evals",
        calls.len() as f64 / n,
        "count",
        "evaluations per pass that reached an evaluator",
    );
    report.layer(
        "core.eval_ms_p50",
        eval_tail.p50.unwrap_or(0.0),
        "ms",
        format!("Prep+Train per evaluation, n={}", eval_tail.n),
    );
    report.layer(
        "core.eval_ms_p99",
        eval_tail.p99.unwrap_or(0.0),
        "ms",
        format!("n={}", eval_tail.n),
    );
    report.layer(
        "core.prep_share",
        prep / all,
        "share",
        "Prep of Pick+Prep+Train, all cells",
    );
    report.layer(
        "core.train_share",
        train / all,
        "share",
        "Train of Pick+Prep+Train, all cells",
    );
    for model in ModelKind::ALL {
        let ms: Vec<f64> = calls
            .iter()
            .filter(|c| c.model == model)
            .filter_map(|c| c.trial.as_ref())
            .map(|t| t.train_time.as_secs_f64() * 1e3)
            .collect();
        report.layer(
            &format!("models.{}.train_ms_p50", model.name().to_lowercase()),
            crate::summary::median(&ms),
            "ms",
            format!("n={}", ms.len()),
        );
    }
    preprocess_layer(cfg, &calls, tracer, report);

    let fleet = cfg.cache_mode == CacheMode::Shared;
    if !fleet {
        return;
    }
    let cache_lookups: u64 = passes.iter().map(|p| p.outcome.cache.lookups()).sum();
    let cache_hits: u64 = passes.iter().map(|p| p.outcome.cache.hits).sum();
    let saved: f64 = passes
        .iter()
        .map(|p| p.outcome.cache.saved.as_secs_f64())
        .sum();
    report.layer(
        "cache.lookups",
        cache_lookups as f64 / n,
        "count",
        "per pass",
    );
    report.layer(
        "cache.hit_ratio",
        cache_hits as f64 / cache_lookups.max(1) as f64,
        "share",
        format!("of {cache_lookups} lookups"),
    );
    report.layer(
        "cache.saved_s",
        saved / n,
        "s",
        "Prep+Train the hits avoided, per pass",
    );
    let workers: Vec<&WorkerStats> = passes.iter().flat_map(|p| &p.workers).collect();
    let prefix_hits: u64 = workers.iter().map(|w| w.prefix_hits).sum();
    let prefix_lookups: u64 = workers
        .iter()
        .map(|w| w.prefix_hits + w.prefix_misses)
        .sum();
    report.layer(
        "prefix.hit_ratio",
        prefix_hits as f64 / prefix_lookups.max(1) as f64,
        "share",
        format!("of {prefix_lookups} lookups"),
    );
    report.layer(
        "prefix.steps_saved",
        workers.iter().map(|w| w.prefix_steps_saved).sum::<u64>() as f64 / n,
        "count",
        "per pass",
    );
    let appended: u64 = passes
        .iter()
        .filter_map(|p| p.outcome.store)
        .map(|s| s.appended)
        .sum();
    report.layer("store.appended", appended as f64 / n, "count", "per pass");
    report.layer(
        "store.bytes",
        passes.iter().map(|p| p.store_bytes as f64).sum::<f64>() / n,
        "bytes",
        "segment bytes per pass",
    );
    let reopen: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.store_reopen)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    report.layer(
        "store.reopen_ms",
        median(&reopen),
        "ms",
        "TrialRepo::open plus preload, median of passes",
    );
    let rtt = Tail::of(&log.wall_ms.lock().expect("call log poisoned"));
    report.layer(
        "evald.rtt_ms_p50",
        rtt.p50.unwrap_or(0.0),
        "ms",
        format!("RemoteEvaluator call, n={}", rtt.n),
    );
    report.layer(
        "evald.rtt_ms_p99",
        rtt.p99.unwrap_or(0.0),
        "ms",
        format!("n={}", rtt.n),
    );
    report.layer(
        "evald.served",
        workers.iter().map(|w| w.served).sum::<u64>() as f64 / n,
        "count",
        "per pass",
    );
    report.layer(
        "evald.retries",
        passes.iter().map(|p| p.fleet_incidents).sum::<u64>() as f64,
        "count",
        "reconnects+retries+failovers, expected 0",
    );
    codec_layer(cfg, &calls, tracer, report);
}

/// Time `f` over `reps` repetitions; microseconds per call.
fn micros_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Fit+transform cost per preprocessor, on the splits and pipelines the
/// run evaluated: each step is fitted on the training rows it saw in
/// the run and applied to the validation rows.
fn preprocess_layer(cfg: &HarnessConfig, calls: &[Call], tracer: &Tracer, report: &mut Report) {
    const PIPELINES_PER_DATASET: usize = 24;
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for spec in specs() {
        let split = cfg.generate(&spec).stratified_split(0.8, SPLIT_SEED);
        let mut seen = std::collections::BTreeSet::new();
        let mut pipelines: Vec<Pipeline> = calls
            .iter()
            .filter(|c| c.dataset == spec.name && seen.insert(c.pipeline.key()))
            .map(|c| c.pipeline.clone())
            .take(PIPELINES_PER_DATASET)
            .collect();
        // Every kind is timed at least once per dataset.
        pipelines.extend(
            PreprocKind::ALL
                .iter()
                .map(|&k| Pipeline::new(vec![Preproc::default_for(k)])),
        );
        for p in &pipelines {
            let mut train = split.train.x.clone();
            let mut valid = split.valid.x.clone();
            for step in p.steps() {
                let start = Instant::now();
                let fitted = step.fit_transform(&mut train);
                fitted.transform(&mut valid);
                let end = Instant::now();
                tracer.record("preprocess.fit_transform", 0, start, end);
                samples
                    .entry(step.kind().name())
                    .or_default()
                    .push((end - start).as_secs_f64() * 1e6);
            }
        }
    }
    for kind in PreprocKind::ALL {
        let v = samples.get(kind.name()).cloned().unwrap_or_default();
        report.layer(
            &format!("preprocess.{}.fit_transform_us", kind.name()),
            median(&v),
            "us",
            format!("median of {} steps", v.len()),
        );
    }
}

/// The `evald` wire codec on this run's own message shapes: Eval
/// requests for the pipelines evaluated and Trial responses carrying
/// their trials.
fn codec_layer(cfg: &HarnessConfig, calls: &[Call], tracer: &Tracer, report: &mut Report) {
    use autofp_evald::wire::{decode_request, decode_response, encode_request, encode_response};
    use autofp_evald::{Request, Response};
    let sample: Vec<&Call> = calls
        .iter()
        .filter(|c| c.trial.is_some())
        .take(256)
        .collect();
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for c in &sample {
        let spec = spec_by_name(&c.dataset).expect("registry dataset");
        let ctx = EvalContext {
            seed: SPLIT_SEED,
            ..cfg.eval_context(&spec, c.model)
        };
        requests.push(Request::Eval {
            ctx,
            pipeline: c.pipeline.clone(),
            fraction: 1.0,
        });
        let trial = c.trial.clone().expect("filtered to trials");
        responses.push(Response::Trial {
            trial,
            stats: WorkerStats::default(),
        });
    }
    let reps = 20;
    let start = Instant::now();
    let mut frames = Vec::new();
    let encode_us = micros_per_call(reps, || {
        frames = requests
            .iter()
            .map(encode_request)
            .chain(responses.iter().map(encode_response))
            .collect();
    }) / (2 * sample.len().max(1)) as f64;
    let (req_frames, resp_frames) = frames.split_at(requests.len());
    let decode_us = micros_per_call(reps, || {
        for f in req_frames {
            std::hint::black_box(decode_request(f).expect("own request decodes"));
        }
        for f in resp_frames {
            std::hint::black_box(decode_response(f).expect("own response decodes"));
        }
    }) / (2 * sample.len().max(1)) as f64;
    tracer.record("evald.codec", 0, start, Instant::now());
    report.layer(
        "evald.encode_us",
        encode_us,
        "us",
        format!(
            "per message, {} Eval requests + Trial responses",
            sample.len()
        ),
    );
    report.layer(
        "evald.decode_us",
        decode_us,
        "us",
        "per message, same messages",
    );
}
