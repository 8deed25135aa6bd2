//! The `serve_tcp` workload: export an artifact with `autofp export
//! --pipeline` from a generated CSV, start the `autofp serve` daemon,
//! and drive it over TCP from this one client process.
//!
//! - `bulk`: a closed loop over [`BULK_CONNECTIONS`] connections, each
//!   sending the next [`BULK_ROWS`]-row batch as soon as the previous
//!   answer is in.
//! - `online`: an open loop of 1-row requests over [`ONLINE_CONNECTIONS`]
//!   connections, at each rate of a fixed ladder of offered rates; each
//!   request is timed from its due time.
//!
//! Both phases carry seeded dirty rows (about 1 in 32 with NaN/±inf,
//! about 1 in 97 with the wrong arity). Every answer is compared with
//! the in-process `ServeEngine::predict_batch` on the same artifact.

use crate::report::Report;
use crate::summary::{
    self, backlog_growing, median, open_loop, schedule, Sent, Step, Tail, WallClock,
};
use crate::sys;
use crate::trace::Tracer;
use autofp_data::{Dataset, Personality, SynthConfig};
use autofp_linalg::Matrix;
use autofp_models::Classifier;
use autofp_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, recv_response, send_request,
};
use autofp_serve::{
    EngineStats, RowOutcome, ServeArtifact, ServeEngine, ServeRequest, ServeResponse,
};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FEATURES: usize = 12;
const CLASSES: usize = 3;
const TRAIN_ROWS: usize = 2000;
/// Held-out rows the requests are drawn from.
const POOL_ROWS: usize = 1000;
/// The `bench_serve` shape.
const PIPELINE: &str = "StandardScaler,PowerTransformer,QuantileTransformer,MinMaxScaler";
const SETUP_REPEATS: usize = 7;
pub const BULK_ROWS: usize = 1024;
pub const BULK_CONNECTIONS: usize = 2;
/// Bulk throughput is the median over windows of this many seconds.
const BULK_WINDOW_S: f64 = 0.25;
/// Distinct bulk batches, cycled.
const BULK_BATCHES: usize = 8;
pub const ONLINE_CONNECTIONS: usize = 4;
/// Distinct 1-row requests, cycled.
const ONLINE_POOL: usize = 4096;
/// Offered rates of the online ladder (requests per second), ascending.
/// The first is the reference rate `latency_ms` is measured at.
pub const LADDER: [f64; 5] = [8000.0, 16000.0, 24000.0, 32000.0, 48000.0];
/// Requests per window of the reference step's windowed p99.
const P99_WINDOW: usize = 4000;
/// The p99 latency limit a ladder step must meet.
pub const LIMIT_MS: f64 = 5.0;
/// Shares of `--seconds`: bulk phase, online warm-up, reference step,
/// and the other steps together.
const BULK_SHARE: f64 = 0.3;
const WARMUP_SHARE: f64 = 0.05;
const REFERENCE_SHARE: f64 = 0.4;
const LADDER_SHARE: f64 = 0.25;

/// Small deterministic generator for request selection and dirt.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// How a request row was dirtied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dirt {
    Clean,
    NonFinite,
    Arity,
}

/// A request row with its label (for accuracy) and what was done to it.
struct Row {
    values: Vec<f64>,
    label: usize,
    dirt: Dirt,
}

fn draw_row(pool: &Dataset, rng: &mut SplitMix) -> Row {
    let i = rng.below(pool.x.nrows());
    let mut values = pool.x.row(i).to_vec();
    let dirt = if rng.below(32) == 0 {
        values[rng.below(FEATURES)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
        Dirt::NonFinite
    } else if rng.below(97) == 0 {
        if rng.below(2) == 0 {
            values.pop();
        } else {
            values.push(0.5);
        }
        Dirt::Arity
    } else {
        Dirt::Clean
    };
    Row {
        values,
        label: pool.y[i],
        dirt,
    }
}

/// Prepared requests with their expected answers.
struct Request {
    req: ServeRequest,
    expected: Vec<RowOutcome>,
    non_finite: u64,
    arity: u64,
    rows: u64,
}

fn prepare(rows: Vec<Row>, engine: &ServeEngine) -> (Request, usize, usize) {
    let values: Vec<Vec<f64>> = rows.iter().map(|r| r.values.clone()).collect();
    let expected = engine.predict_batch(&values, 1).outcomes;
    let mut correct = 0;
    let mut clean = 0;
    for (r, o) in rows.iter().zip(&expected) {
        if let (Dirt::Clean, RowOutcome::Predicted(c)) = (r.dirt, o) {
            clean += 1;
            correct += usize::from(*c == r.label);
        }
    }
    let count = |d| rows.iter().filter(|r| r.dirt == d).count() as u64;
    let req = Request {
        req: ServeRequest::Predict { rows: values },
        expected,
        non_finite: count(Dirt::NonFinite),
        arity: count(Dirt::Arity),
        rows: rows.len() as u64,
    };
    (req, correct, clean)
}

/// Send one prepared request and check the answer against the
/// in-process reference.
fn call(stream: &mut TcpStream, r: &Request) -> bool {
    if send_request(stream, &r.req).is_err() {
        return false;
    }
    matches!(recv_response(stream), Ok(Some(ServeResponse::PredictAck { outcomes, .. })) if outcomes == r.expected)
}

/// The running `autofp serve` daemon; killed and reaped on drop if it
/// was not shut down.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn spawn(artifact: &Path) -> Daemon {
        let mut child = Command::new(sys::sibling_binary("autofp"))
            .arg("serve")
            .arg("--artifact")
            .arg(artifact)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn autofp serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("autofp serve listening on ") {
                        break addr.trim().to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("autofp serve exited before its ready line");
                }
            }
        };
        let drain = std::thread::spawn(move || for _ in lines {});
        Daemon {
            child,
            addr,
            drain: Some(drain),
        }
    }

    fn stats(&self) -> Option<EngineStats> {
        autofp_serve::ServeClient::connect(&self.addr)
            .ok()?
            .stats()
            .ok()
    }

    /// Send `Shutdown` and wait for the process to exit; kill it after
    /// five seconds. Returns whether it stopped on its own.
    fn shutdown(mut self) -> bool {
        let acked = autofp_serve::ServeClient::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut exited = false;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                exited = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        acked && exited
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn write_csv(path: &Path, d: &Dataset, rows: std::ops::Range<usize>) {
    use std::fmt::Write as _;
    let mut s: String = (0..FEATURES).map(|j| format!("f{j},")).collect();
    s.push_str("label\n");
    for i in rows {
        for v in d.x.row(i) {
            let _ = write!(s, "{v:?},");
        }
        let _ = writeln!(s, "{}", d.y[i]);
    }
    std::fs::write(path, s).expect("write training CSV");
}

/// The served dataset is fixed, like the registry datasets of the
/// search workloads; the workload seed picks the export split, the
/// request rows and their dirt.
const DATA_SEED: u64 = 11;

fn generate() -> Dataset {
    let p = Personality {
        scale_spread: 5.0,
        skew: 0.3,
        ..Personality::default()
    };
    SynthConfig::new(
        "serve-tcp",
        TRAIN_ROWS + POOL_ROWS,
        FEATURES,
        CLASSES,
        DATA_SEED,
    )
    .with_personality(p)
    .generate()
}

/// Set-up: generate the data, write the training CSV, export the
/// artifact, start the daemon and wait until it answers.
fn setup_once(seed: u64, dir: &Path) -> (Duration, Daemon, Dataset, PathBuf) {
    let start = Instant::now();
    let data = generate();
    let csv = dir.join("train.csv");
    write_csv(&csv, &data, 0..TRAIN_ROWS);
    let artifact = dir.join("model.afp");
    let out = Command::new(sys::sibling_binary("autofp"))
        .args(["export", "--model", "lr", "--pipeline", PIPELINE, "--seed"])
        .arg(seed.to_string())
        .arg("--csv")
        .arg(&csv)
        .arg("--out")
        .arg(&artifact)
        .output()
        .expect("run autofp export");
    assert!(
        out.status.success(),
        "autofp export failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let daemon = Daemon::spawn(&artifact);
    autofp_serve::ServeClient::connect(&daemon.addr)
        .and_then(|mut c| c.ping())
        .expect("daemon answers ping");
    (start.elapsed(), daemon, data, artifact)
}

fn connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to daemon");
    let _ = s.set_nodelay(true);
    s
}

/// Requests sent in a phase, with the rows they carried.
#[derive(Default)]
struct Tally {
    requests: u64,
    failed: u64,
    rows: u64,
    non_finite: u64,
    arity: u64,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        self.requests += other.requests;
        self.failed += other.failed;
        self.rows += other.rows;
        self.non_finite += other.non_finite;
        self.arity += other.arity;
    }

    fn add(&mut self, r: &Request, ok: bool) {
        self.requests += 1;
        self.failed += u64::from(!ok);
        self.rows += r.rows;
        self.non_finite += r.non_finite;
        self.arity += r.arity;
    }
}

pub fn run(seed: u64, seconds: f64, tracer: &Arc<Tracer>, report: &mut Report) {
    let dir = sys::fresh_dir("serve");
    let mut setups = Vec::new();
    let mut kept = None;
    let mut setup_stops = true;
    for i in 0..SETUP_REPEATS {
        let (t, daemon, data, artifact) = setup_once(seed, &dir);
        setups.push(t.as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            setup_stops &= daemon.shutdown();
        } else {
            kept = Some((daemon, data, artifact));
        }
    }
    let (daemon, data, artifact) = kept.expect("at least one set-up");
    let pool = Dataset {
        x: data
            .x
            .select_rows(&(TRAIN_ROWS..TRAIN_ROWS + POOL_ROWS).collect::<Vec<_>>()),
        y: data.y[TRAIN_ROWS..].to_vec(),
        n_classes: data.n_classes,
        name: data.name.clone(),
    };
    let engine = ServeEngine::new(ServeArtifact::load(&artifact).expect("load exported artifact"));
    let mut rng = SplitMix(seed ^ 0x005e_ed0f_5e7e);
    let (mut correct, mut clean) = (0, 0);
    let bulk_requests: Vec<Request> = (0..BULK_BATCHES)
        .map(|_| {
            let (r, c, n) = prepare(
                (0..BULK_ROWS).map(|_| draw_row(&pool, &mut rng)).collect(),
                &engine,
            );
            correct += c;
            clean += n;
            r
        })
        .collect();
    let online_requests: Vec<Request> = (0..ONLINE_POOL)
        .map(|_| prepare(vec![draw_row(&pool, &mut rng)], &engine).0)
        .collect();

    let mut totals = Tally::default();
    let bulk = bulk_phase(&daemon.addr, &bulk_requests, seconds * BULK_SHARE, tracer);
    totals.absorb(&bulk.tally);
    let online = online_phase(&daemon.addr, &online_requests, seconds, tracer);
    totals.absorb(&online.tally);
    let (bulk_tail, window_rates, steps, reference) =
        (bulk.tail, bulk.window_rates, online.steps, online.reference);
    let max_rps = summary::max_rate_meeting(&steps, LIMIT_MS);

    // Counters, memory and teardown.
    let stats = daemon.stats();
    let peak_rss_mb = sys::family_peak_rss_mb();
    let addr = daemon.addr.clone();
    let stopped = daemon.shutdown() && setup_stops;
    let leftovers = sys::leftovers(&[addr]);
    let _ = std::fs::remove_dir_all(&dir);

    report.gate(
        "outcomes_match_reference",
        totals.failed == 0,
        format!(
            "{} of {} requests failed or mismatched",
            totals.failed, totals.requests
        ),
    );
    let quarantine_ok = stats.is_some_and(|s| {
        s.rejected_non_finite == totals.non_finite
            && s.rejected_arity == totals.arity
            && s.rows == totals.rows
    });
    report.gate(
        "quarantine_counts_match",
        quarantine_ok,
        format!(
            "daemon {stats:?}; injected non-finite {}, arity {}, rows {}",
            totals.non_finite, totals.arity, totals.rows
        ),
    );
    report.gate(
        "daemon_shutdown",
        stopped,
        "every daemon acknowledged Shutdown and exited",
    );
    report.gate(
        "no_leftover_processes",
        leftovers.is_empty(),
        leftovers.join("; "),
    );

    report.attempted = totals.requests;
    report.failed = totals.failed;
    let ref_tail = steps[0].tail;
    let ref_lat: Vec<f64> = reference.iter().map(|(_, s)| s.latency_ms()).collect();
    let ref_p99 = summary::windowed_p99(&ref_lat, P99_WINDOW);
    report.e2e(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUP_REPEATS} set-ups (CSV, export, daemon start)"),
    );
    report.e2e(
        "work_per_s",
        median(&window_rates),
        "1/s",
        format!(
            "bulk rows per second, {BULK_CONNECTIONS} connections x {BULK_ROWS}-row batches, median of {} {BULK_WINDOW_S} s windows",
            window_rates.len()
        ),
    );
    report.e2e(
        "latency_ms",
        ref_tail.p50.unwrap_or(f64::NAN),
        "ms",
        format!(
            "online median, from due time at {} req/s, n={}",
            LADDER[0], ref_tail.n
        ),
    );
    // On a shared machine the p99s swing several-fold between runs (a
    // host that deschedules the VM for milliseconds stalls requests far
    // beyond their 0.1-2 ms); the bulk p90 holds still. The p99s are
    // per-layer metrics.
    report.e2e(
        "p90_ms",
        bulk_tail.p90.unwrap_or(f64::NAN),
        "ms",
        format!("bulk request, send to answer, n={}", bulk_tail.n),
    );
    report.e2e(
        "accuracy_pct",
        100.0 * correct as f64 / clean.max(1) as f64,
        "%",
        format!("served predictions on {clean} clean labelled rows"),
    );
    report.e2e(
        "ok_share",
        1.0 - totals.failed as f64 / totals.requests.max(1) as f64,
        "share",
        format!("{} failed of {} requests", totals.failed, totals.requests),
    );
    report.e2e(
        "peak_rss_mb",
        peak_rss_mb,
        "MB",
        "benchmark process plus daemon",
    );

    let late = Tail::of(&online.lateness_us);
    report.record(
        "ladder_rps",
        LADDER
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    report.record("latency_limit_ms", LIMIT_MS);
    report.record(
        "generator_lateness_us",
        format!("p50 {:?} p99 {:?} n {}", late.p50, late.p99, late.n),
    );
    report.record("online_connections", ONLINE_CONNECTIONS);
    report.record("bulk_requests", bulk_tail.n);
    report.record(
        "bulk_window_rows_per_s",
        window_rates
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    for s in &steps {
        report.record(
            &format!("online_step_{}", s.rate),
            format!(
                "p50 {:?} p99 {:?} n {} backlog_growing {}",
                s.tail.p50, s.tail.p99, s.tail.n, s.backlog_growing
            ),
        );
    }
    report.record(
        "online_max_rps",
        max_rps.map_or("none".into(), |r| r.to_string()),
    );

    if tracer.enabled() {
        report.layer(
            "serve.bulk_p50_ms",
            bulk_tail.p50.unwrap_or(0.0),
            "ms",
            format!("n={}", bulk_tail.n),
        );
        report.layer(
            "serve.bulk_p99_ms",
            bulk_tail.p99.unwrap_or(0.0),
            "ms",
            format!("n={}", bulk_tail.n),
        );
        report.layer(
            "serve.online_p99_ms",
            ref_p99.unwrap_or(0.0),
            "ms",
            format!(
                "online, from due time at {} req/s, median p99 of {P99_WINDOW}-request windows, n={}",
                LADDER[0], ref_tail.n
            ),
        );
        report.layer(
            "serve.online_max_rps",
            max_rps.unwrap_or(0.0),
            "1/s",
            format!("p99 <= {LIMIT_MS} ms, no growing backlog"),
        );
        engine_layer(&engine, &bulk_requests, tracer, report);
        wire_layer(&online_requests, &engine, &reference, report);
    }
}

/// The serve engine's stages, in process, on the bulk batches.
fn engine_layer(engine: &ServeEngine, bulk: &[Request], tracer: &Tracer, report: &mut Report) {
    const REPS: usize = 5;
    let artifact = engine.artifact();
    let (mut whole, mut transform, mut predict) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        for r in bulk {
            let ServeRequest::Predict { rows } = &r.req else {
                continue;
            };
            let start = Instant::now();
            std::hint::black_box(engine.predict_batch(rows, 1));
            let end = Instant::now();
            tracer.record("serve.predict_batch", 0, start, end);
            whole.push((end - start).as_secs_f64() * 1e3);
            let clean: Vec<f64> = rows
                .iter()
                .filter(|row| row.len() == FEATURES && row.iter().all(|v| v.is_finite()))
                .flatten()
                .copied()
                .collect();
            let mut m = Matrix::from_vec(clean.len() / FEATURES, FEATURES, clean);
            let t = Instant::now();
            artifact.pipeline.transform(&mut m);
            transform.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            for k in 0..m.nrows() {
                std::hint::black_box(artifact.model.predict_row(m.row(k)));
            }
            predict.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let (w, t, p) = (median(&whole), median(&transform), median(&predict));
    let n = format!("{BULK_ROWS}-row batch, median of {}", whole.len());
    report.layer("serve.predict_batch_ms", w, "ms", n.clone());
    report.layer("serve.transform_ms", t, "ms", n.clone());
    report.layer("serve.predict_ms", p, "ms", n);
    report.layer(
        "serve.quarantine_ms_derived",
        (w - t - p).max(0.0),
        "ms",
        "derived: predict_batch - transform - predict",
    );
}

/// The serve wire codec on 1-row messages, and the client-side overhead
/// of an online request over the in-process engine.
fn wire_layer(
    online: &[Request],
    engine: &ServeEngine,
    reference: &[(usize, Sent)],
    report: &mut Report,
) {
    let sample = &online[..256.min(online.len())];
    let responses: Vec<ServeResponse> = sample
        .iter()
        .map(|r| ServeResponse::PredictAck {
            outcomes: r.expected.clone(),
            stats: EngineStats::default(),
        })
        .collect();
    let reps = 50;
    let messages = (2 * sample.len() * reps) as f64;
    let mut frames = Vec::new();
    let t = Instant::now();
    for _ in 0..reps {
        frames = sample
            .iter()
            .map(|r| encode_request(&r.req))
            .chain(responses.iter().map(encode_response))
            .collect();
    }
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / messages;
    let (reqs, resps) = frames.split_at(sample.len());
    let t = Instant::now();
    for _ in 0..reps {
        for f in reqs {
            std::hint::black_box(decode_request(f).expect("own request decodes"));
        }
        for f in resps {
            std::hint::black_box(decode_response(f).expect("own response decodes"));
        }
    }
    let decode_us = t.elapsed().as_secs_f64() * 1e6 / messages;
    report.layer(
        "serve.wire_encode_us",
        encode_us,
        "us",
        "per 1-row Predict request or PredictAck",
    );
    report.layer(
        "serve.wire_decode_us",
        decode_us,
        "us",
        "per 1-row Predict request or PredictAck",
    );

    // In-process time of each distinct 1-row request (median of 3).
    let inproc_us: Vec<f64> = online
        .iter()
        .map(|r| {
            let ServeRequest::Predict { rows } = &r.req else {
                return 0.0;
            };
            let v: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(engine.predict_batch(rows, 1));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&v)
        })
        .collect();
    let overhead: Vec<f64> = reference
        .iter()
        .filter(|(_, s)| !s.failed)
        .map(|(i, s)| (s.done - s.sent).as_secs_f64() * 1e6 - inproc_us[*i])
        .collect();
    let o = Tail::of(&overhead);
    report.layer(
        "serve.overhead_us_p50",
        o.p50.unwrap_or(0.0),
        "us",
        format!(
            "client round trip minus in-process predict_batch, n={}",
            o.n
        ),
    );
}

/// One open-loop step: `rate` requests per second for `seconds`, spread
/// round-robin over the connections; requests are numbered from
/// `first`. Returns (request index, what happened), in due order.
fn online_step(
    streams: &mut [TcpStream],
    online: &[Request],
    rate: f64,
    seconds: f64,
    first: usize,
    tracer: &Tracer,
) -> Vec<(usize, Sent)> {
    let due = schedule(rate, seconds, Duration::from_millis(2));
    let conns = streams.len();
    let clock = WallClock::start();
    let per_conn: Vec<Vec<(usize, Sent)>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(k, stream)| {
                let mine: Vec<usize> = (k..due.len())
                    .step_by(conns)
                    .map(|i| (first + i) % online.len())
                    .collect();
                let my_due: Vec<Duration> = (k..due.len()).step_by(conns).map(|i| due[i]).collect();
                let clock = &clock;
                s.spawn(move || {
                    let sent = open_loop(clock, &my_due, |j| {
                        let start = Instant::now();
                        let ok = call(stream, &online[mine[j]]);
                        tracer.record("serve.online_request", 0, start, Instant::now());
                        ok
                    });
                    mine.into_iter().zip(sent).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("online client thread"))
            .collect()
    });
    let mut merged: Vec<(usize, Sent)> = per_conn.into_iter().flatten().collect();
    merged.sort_by_key(|(_, s)| s.due);
    merged
}

/// One bulk connection's record.
#[derive(Default)]
struct BulkConn {
    lat_ms: Vec<f64>,
    /// (completion time since the phase began, rows answered).
    finished: Vec<(Duration, u64)>,
    tally: Tally,
}

/// What the bulk phase measured.
struct Bulk {
    /// Request latency, send to answer.
    tail: Tail,
    /// Rows answered per second in each full window of the phase.
    window_rates: Vec<f64>,
    tally: Tally,
}

/// Closed loop: each connection sends the next batch as soon as the
/// previous answer is in, for `seconds`.
fn bulk_phase(addr: &str, bulk: &[Request], seconds: f64, tracer: &Tracer) -> Bulk {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<BulkConn> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BULK_CONNECTIONS)
            .map(|k| {
                s.spawn(move || {
                    let mut stream = connect(addr);
                    let mut c = BulkConn::default();
                    let mut i = k;
                    while Instant::now() < deadline {
                        let r = &bulk[i % bulk.len()];
                        let sent = Instant::now();
                        let ok = call(&mut stream, r);
                        let done = Instant::now();
                        tracer.record("serve.bulk_request", 0, sent, done);
                        c.lat_ms.push((done - sent).as_secs_f64() * 1e3);
                        c.finished.push((done - start, r.rows));
                        c.tally.add(r, ok);
                        i += BULK_CONNECTIONS;
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bulk client thread"))
            .collect()
    });
    // The median window is the phase's throughput, so a stall of the
    // machine costs one window, not the run.
    let mut window_rows = vec![0u64; (seconds / BULK_WINDOW_S).floor() as usize];
    let mut lat_all = Vec::new();
    let mut tally = Tally::default();
    for c in per_conn {
        lat_all.extend(c.lat_ms);
        for (at, rows) in c.finished {
            if let Some(w) = window_rows.get_mut((at.as_secs_f64() / BULK_WINDOW_S) as usize) {
                *w += rows;
            }
        }
        tally.absorb(&c.tally);
    }
    Bulk {
        tail: Tail::of(&lat_all),
        window_rates: window_rows
            .iter()
            .map(|&r| r as f64 / BULK_WINDOW_S)
            .collect(),
        tally,
    }
}

/// What the online phase measured.
struct Online {
    /// One entry per ladder rate, ascending.
    steps: Vec<Step>,
    /// The reference step's requests: (request index, what happened).
    reference: Vec<(usize, Sent)>,
    /// How late the generator sent each request, in microseconds.
    lateness_us: Vec<f64>,
    tally: Tally,
}

/// Open loop over the ladder, after a warm-up at the reference rate
/// that is checked and counted but not timed.
fn online_phase(addr: &str, online: &[Request], seconds: f64, tracer: &Tracer) -> Online {
    let mut streams: Vec<TcpStream> = (0..ONLINE_CONNECTIONS).map(|_| connect(addr)).collect();
    let mut out = Online {
        steps: Vec::new(),
        reference: Vec::new(),
        lateness_us: Vec::new(),
        tally: Tally::default(),
    };
    let warmup = std::iter::once((LADDER[0], seconds * WARMUP_SHARE));
    let ladder = LADDER.iter().enumerate().map(|(si, &rate)| {
        let share = if si == 0 {
            REFERENCE_SHARE
        } else {
            LADDER_SHARE / (LADDER.len() - 1) as f64
        };
        (rate, seconds * share)
    });
    let mut next = 0usize;
    for (si, (rate, step_seconds)) in warmup.chain(ladder).enumerate() {
        let sent = online_step(&mut streams, online, rate, step_seconds, next, tracer);
        next += sent.len();
        for (i, s) in &sent {
            out.tally.add(&online[*i], !s.failed);
            out.lateness_us.push(s.lateness.as_secs_f64() * 1e6);
        }
        if si == 0 {
            continue;
        }
        let in_order: Vec<Sent> = sent.iter().map(|(_, s)| *s).collect();
        let lat: Vec<f64> = in_order.iter().map(Sent::latency_ms).collect();
        out.steps.push(Step {
            rate,
            tail: Tail::of(&lat),
            backlog_growing: backlog_growing(&in_order, LIMIT_MS),
        });
        if si == 1 {
            out.reference = sent;
        }
    }
    out
}
