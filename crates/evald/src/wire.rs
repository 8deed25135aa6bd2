//! The evaluation service's wire protocol.
//!
//! Dependency-free, length-prefixed, canonical: every message is one
//! frame of `[u32 LE payload length][payload]`, and every payload
//! starts with a one-byte message tag. Integers are little-endian,
//! floats travel as their IEEE-754 bit patterns (`f64::to_bits`), and
//! strings are a `u32` byte length followed by UTF-8 — so an encoded
//! message is a pure function of its value and round-trips
//! bit-exactly, which the golden-bytes tests below pin.
//!
//! Decoding is total: truncated, oversized, or corrupt input returns
//! [`EvalError::Transport`] with a diagnostic detail — this module
//! must never panic on untrusted bytes (enforced by the xtask
//! panic-boundary lint, which covers this file).

use autofp_core::{EvalConfig, EvalError, FailureKind, Trial};
use autofp_models::classifier::ModelKind;
use autofp_preprocess::{Norm, OutputDist, Pipeline, Preproc, PreprocKind};
use std::io::{Read, Write};
use std::time::Duration;

/// Hard cap on one frame's payload size (16 MiB): a corrupt length
/// prefix must not make a worker allocate unbounded memory.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Hard cap on pipeline length in a decoded message; the search space
/// never exceeds [`autofp_preprocess::pipeline::DEFAULT_MAX_LEN`] by much, so
/// anything larger is a corrupt frame.
pub const MAX_STEPS: u32 = 64;

/// Hard cap on the number of worker addresses in a decoded
/// [`FleetSpec`]; fleets are process-scale, so anything larger is a
/// corrupt frame.
pub const MAX_FLEET: u32 = 1024;

/// An epoch-stamped description of the worker fleet: which addresses
/// hold which slots, versioned so every party can tell stale specs
/// from fresh ones.
///
/// The slot *index* (position in `addrs`) is a worker's routing
/// identity — rendezvous hashing maps fingerprints to slots, so a
/// respawned worker that comes back on a new port keeps its keyspace.
/// `epoch` increases monotonically on every membership change
/// (respawn, resize); receivers adopt a spec only if its epoch is not
/// older than the one they hold.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetSpec {
    /// Monotonic version of the fleet membership.
    pub epoch: u64,
    /// Worker addresses by slot index.
    pub addrs: Vec<String>,
}

/// The evaluation context a request addresses: which dataset (by
/// registry name) at which generation scale, evaluated under which
/// [`EvalConfig`]. A worker keeps one evaluator + cache per distinct
/// context.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalContext {
    /// Registry dataset name (see `autofp_data::registry`).
    pub dataset: String,
    /// Row-count generation scale in `(0, 1]`.
    pub scale: f64,
    /// Downstream model family.
    pub model: ModelKind,
    /// Train fraction for the split (paper: 0.8).
    pub train_fraction: f64,
    /// Split / training seed.
    pub seed: u64,
    /// Optional stratified training-row cap.
    pub train_subsample: Option<u64>,
}

impl EvalContext {
    /// The [`EvalConfig`] this context evaluates under.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            model: self.model,
            train_fraction: self.train_fraction,
            seed: self.seed,
            train_subsample: self.train_subsample.map(|v| v as usize),
        }
    }

    /// Canonical string identity (the worker's context-map key): a pure
    /// function of the context's value, float fields by bit pattern.
    pub fn canonical(&self) -> String {
        format!(
            "ds={};scale={};m={};tf={};seed={};sub={}",
            self.dataset,
            self.scale.to_bits(),
            self.model.name(),
            self.train_fraction.to_bits(),
            self.seed,
            self.train_subsample.map_or(-1_i64, |v| v as i64),
        )
    }
}

/// Cumulative counters a worker reports: requests served, distinct
/// contexts built, and its cache counters folded over every context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Evaluation requests handled (cache hits included).
    pub served: u64,
    /// Distinct evaluation contexts materialized.
    pub contexts: u64,
    /// Cache hits over all contexts.
    pub hits: u64,
    /// Cache misses over all contexts.
    pub misses: u64,
    /// Live memoized trials over all contexts.
    pub entries: u64,
    /// LRU evictions over all contexts.
    pub evictions: u64,
    /// Prep + Train wall-clock the hits avoided, in nanoseconds.
    pub saved_nanos: u64,
    /// Prefix-transform cache hits over all contexts.
    pub prefix_hits: u64,
    /// Prefix-transform cache misses over all contexts.
    pub prefix_misses: u64,
    /// Prefix-transform cache evictions (LRU + oversize rejects).
    pub prefix_evictions: u64,
    /// Transform invocations the prefix hits skipped.
    pub prefix_steps_saved: u64,
    /// Trials preloaded from the durable trial store
    /// ([`autofp_core::TrialStore`]) into context caches at
    /// materialization; 0 when the worker runs without `--trial-store`.
    pub preloaded: u64,
}

/// A client-to-worker message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ask for the context's baseline accuracy and training-row count
    /// (materializes the context on the worker).
    Describe(EvalContext),
    /// Evaluate one pipeline at a training-budget fraction.
    Eval {
        /// The evaluation context.
        ctx: EvalContext,
        /// The pipeline to evaluate (kinds and parameters).
        pipeline: Pipeline,
        /// Training-budget fraction in `[0, 1]`.
        fraction: f64,
    },
    /// Ask for the worker's cumulative [`WorkerStats`].
    Stats,
    /// Ask the worker to stop accepting connections and exit.
    Shutdown,
    /// Cheap health probe: answers with the worker's fleet epoch and
    /// load counters without touching any evaluation context.
    Health,
    /// Publish a new fleet spec to the worker (supervisor -> worker on
    /// membership change). The worker adopts it if not stale.
    SetFleet(FleetSpec),
}

/// A worker-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Answer to [`Request::Describe`].
    Described {
        /// Validation accuracy of the empty pipeline (no-FP baseline).
        baseline_accuracy: f64,
        /// Training rows the context's evaluator fits on.
        train_rows: u64,
    },
    /// Answer to [`Request::Eval`]: the finished trial (worst-error
    /// trials included — their [`FailureKind`] rides on the trial) and
    /// a stats snapshot taken after serving it.
    Trial {
        /// The evaluated (or worst-error) trial.
        trial: Trial,
        /// Worker counters after this request.
        stats: WorkerStats,
    },
    /// Answer to [`Request::Stats`].
    Stats(WorkerStats),
    /// The request could not be served (unknown dataset, malformed
    /// frame reflected back, ...).
    Error(EvalError),
    /// Answer to [`Request::Health`].
    Health {
        /// Epoch of the fleet spec the worker holds (0 until told).
        epoch: u64,
        /// Evaluation requests handled so far.
        served: u64,
        /// Distinct evaluation contexts materialized.
        contexts: u64,
    },
    /// Answer to [`Request::SetFleet`]: the epoch the worker holds
    /// after considering the published spec (equal to the published
    /// epoch when adopted, higher when the publish was stale).
    FleetAck {
        /// The worker's post-publish fleet epoch.
        epoch: u64,
    },
}

fn transport(detail: impl Into<String>) -> EvalError {
    EvalError::Transport { detail: detail.into() }
}

// ---------------------------------------------------------------- frames

/// Write one frame (`u32` LE length + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), EvalError> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(transport(format!("frame of {} bytes exceeds MAX_FRAME", payload.len())));
    }
    let len = (payload.len() as u32).to_le_bytes();
    w.write_all(&len).map_err(|e| transport(format!("write frame length: {e}")))?;
    w.write_all(payload).map_err(|e| transport(format!("write frame payload: {e}")))?;
    w.flush().map_err(|e| transport(format!("flush frame: {e}")))?;
    Ok(())
}

/// Read one frame. `Ok(None)` on a clean end-of-stream (no bytes at a
/// frame boundary); [`EvalError::Transport`] on a torn or oversized
/// frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, EvalError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        // lint:allow(panic-reach): `got < 4` loop guard bounds the range start within the 4-byte array
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(transport("connection closed inside a frame length")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                if got == 0 {
                    return Err(transport(format!("read frame length: {e}")));
                }
                return Err(transport(format!("read frame length (torn): {e}")));
            }
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(transport(format!("frame length {len} exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| transport(format!("read frame payload: {e}")))?;
    Ok(Some(payload))
}

// ------------------------------------------------------------- encoding

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Enc {
        Enc { buf: vec![tag] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], EvalError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| transport(format!("truncated frame reading {what}")))?;
        // lint:allow(panic-reach): checked_add + `end <= buf.len()` above make the range provably in bounds
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self, what: &str) -> Result<u8, EvalError> {
        Ok(self.take(1, what)?[0])
    }
    fn u32(&mut self, what: &str) -> Result<u32, EvalError> {
        let b = self.take(4, what)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }
    fn u64(&mut self, what: &str) -> Result<u64, EvalError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn f64(&mut self, what: &str) -> Result<f64, EvalError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
    fn string(&mut self, what: &str) -> Result<String, EvalError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| transport(format!("invalid UTF-8 in {what}")))
    }
    fn opt_u64(&mut self, what: &str) -> Result<Option<u64>, EvalError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            flag => Err(transport(format!("bad Option flag {flag} in {what}"))),
        }
    }
    fn finish(self, what: &str) -> Result<(), EvalError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(transport(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )))
        }
    }
}

// --------------------------------------------------------- field codecs

fn enc_context(e: &mut Enc, ctx: &EvalContext) {
    e.string(&ctx.dataset);
    e.f64(ctx.scale);
    e.u8(model_code(ctx.model));
    e.f64(ctx.train_fraction);
    e.u64(ctx.seed);
    e.opt_u64(ctx.train_subsample);
}

fn dec_context(d: &mut Dec) -> Result<EvalContext, EvalError> {
    Ok(EvalContext {
        dataset: d.string("context dataset")?,
        scale: d.f64("context scale")?,
        model: dec_model(d.u8("context model")?)?,
        train_fraction: d.f64("context train_fraction")?,
        seed: d.u64("context seed")?,
        train_subsample: d.opt_u64("context train_subsample")?,
    })
}

fn model_code(m: ModelKind) -> u8 {
    // ALL is tiny and total over the enum, so the position exists.
    ModelKind::ALL.iter().position(|&k| k == m).map_or(0, |i| i as u8)
}

fn dec_model(code: u8) -> Result<ModelKind, EvalError> {
    ModelKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| transport(format!("bad model code {code}")))
}

fn enc_pipeline(e: &mut Enc, pipeline: &Pipeline) {
    e.u32(pipeline.len() as u32);
    for step in pipeline.steps() {
        e.u8(step.kind().index() as u8);
        match step {
            Preproc::Binarizer { threshold } => e.f64(*threshold),
            Preproc::MaxAbsScaler | Preproc::MinMaxScaler => {}
            Preproc::Normalizer { norm } => e.u8(match norm {
                Norm::L1 => 0,
                Norm::L2 => 1,
                Norm::Max => 2,
            }),
            Preproc::PowerTransformer { standardize } => e.u8(u8::from(*standardize)),
            Preproc::QuantileTransformer { n_quantiles, output } => {
                e.u64(*n_quantiles as u64);
                e.u8(match output {
                    OutputDist::Uniform => 0,
                    OutputDist::Normal => 1,
                });
            }
            Preproc::StandardScaler { with_mean } => e.u8(u8::from(*with_mean)),
        }
    }
}

fn dec_pipeline(d: &mut Dec) -> Result<Pipeline, EvalError> {
    let n = d.u32("pipeline length")?;
    if n > MAX_STEPS {
        return Err(transport(format!("pipeline of {n} steps exceeds MAX_STEPS")));
    }
    let mut steps = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let code = d.u8("step kind")? as usize;
        if code >= PreprocKind::ALL.len() {
            return Err(transport(format!("bad preprocessor code {code}")));
        }
        let kind = PreprocKind::from_index(code);
        let step = match kind {
            PreprocKind::Binarizer => Preproc::Binarizer { threshold: d.f64("Binarizer threshold")? },
            PreprocKind::MaxAbsScaler => Preproc::MaxAbsScaler,
            PreprocKind::MinMaxScaler => Preproc::MinMaxScaler,
            PreprocKind::Normalizer => Preproc::Normalizer {
                norm: match d.u8("Normalizer norm")? {
                    0 => Norm::L1,
                    1 => Norm::L2,
                    2 => Norm::Max,
                    v => return Err(transport(format!("bad norm code {v}"))),
                },
            },
            PreprocKind::PowerTransformer => {
                Preproc::PowerTransformer { standardize: dec_bool(d, "PowerTransformer standardize")? }
            }
            PreprocKind::QuantileTransformer => Preproc::QuantileTransformer {
                n_quantiles: d.u64("QuantileTransformer n_quantiles")? as usize,
                output: match d.u8("QuantileTransformer output")? {
                    0 => OutputDist::Uniform,
                    1 => OutputDist::Normal,
                    v => return Err(transport(format!("bad output-dist code {v}"))),
                },
            },
            PreprocKind::StandardScaler => {
                Preproc::StandardScaler { with_mean: dec_bool(d, "StandardScaler with_mean")? }
            }
        };
        steps.push(step);
    }
    Ok(Pipeline::new(steps))
}

fn dec_bool(d: &mut Dec, what: &str) -> Result<bool, EvalError> {
    match d.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(transport(format!("bad bool {v} in {what}"))),
    }
}

fn failure_code(kind: FailureKind) -> u8 {
    FailureKind::ALL.iter().position(|&k| k == kind).map_or(0, |i| i as u8)
}

fn dec_failure(code: u8) -> Result<FailureKind, EvalError> {
    FailureKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| transport(format!("bad failure code {code}")))
}

fn enc_trial(e: &mut Enc, t: &Trial) {
    enc_pipeline(e, &t.pipeline);
    e.f64(t.accuracy);
    e.f64(t.error);
    e.u64(duration_nanos(t.prep_time));
    e.u64(duration_nanos(t.train_time));
    e.f64(t.train_fraction);
    match t.failure {
        Some(kind) => {
            e.u8(1);
            e.u8(failure_code(kind));
        }
        None => e.u8(0),
    }
}

fn dec_trial(d: &mut Dec) -> Result<Trial, EvalError> {
    let pipeline = dec_pipeline(d)?;
    let accuracy = d.f64("trial accuracy")?;
    let error = d.f64("trial error")?;
    let prep_time = Duration::from_nanos(d.u64("trial prep_time")?);
    let train_time = Duration::from_nanos(d.u64("trial train_time")?);
    let train_fraction = d.f64("trial train_fraction")?;
    let failure = match d.u8("trial failure flag")? {
        0 => None,
        1 => Some(dec_failure(d.u8("trial failure kind")?)?),
        v => return Err(transport(format!("bad failure flag {v}"))),
    };
    Ok(Trial { pipeline, accuracy, error, prep_time, train_time, train_fraction, failure })
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn enc_stats(e: &mut Enc, s: &WorkerStats) {
    e.u64(s.served);
    e.u64(s.contexts);
    e.u64(s.hits);
    e.u64(s.misses);
    e.u64(s.entries);
    e.u64(s.evictions);
    e.u64(s.saved_nanos);
    e.u64(s.prefix_hits);
    e.u64(s.prefix_misses);
    e.u64(s.prefix_evictions);
    e.u64(s.prefix_steps_saved);
    e.u64(s.preloaded);
}

fn dec_stats(d: &mut Dec) -> Result<WorkerStats, EvalError> {
    Ok(WorkerStats {
        served: d.u64("stats served")?,
        contexts: d.u64("stats contexts")?,
        hits: d.u64("stats hits")?,
        misses: d.u64("stats misses")?,
        entries: d.u64("stats entries")?,
        evictions: d.u64("stats evictions")?,
        saved_nanos: d.u64("stats saved_nanos")?,
        prefix_hits: d.u64("stats prefix_hits")?,
        prefix_misses: d.u64("stats prefix_misses")?,
        prefix_evictions: d.u64("stats prefix_evictions")?,
        prefix_steps_saved: d.u64("stats prefix_steps_saved")?,
        preloaded: d.u64("stats preloaded")?,
    })
}

fn enc_fleet_spec(e: &mut Enc, spec: &FleetSpec) {
    e.u64(spec.epoch);
    e.u32(spec.addrs.len() as u32);
    for addr in &spec.addrs {
        e.string(addr);
    }
}

fn dec_fleet_spec(d: &mut Dec) -> Result<FleetSpec, EvalError> {
    let epoch = d.u64("fleet epoch")?;
    let n = d.u32("fleet size")?;
    if n > MAX_FLEET {
        return Err(transport(format!("fleet of {n} workers exceeds MAX_FLEET")));
    }
    let mut addrs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        addrs.push(d.string("fleet addr")?);
    }
    Ok(FleetSpec { epoch, addrs })
}

fn enc_error(e: &mut Enc, err: &EvalError) {
    match err {
        EvalError::NonFiniteTransform { detail } => {
            e.u8(0);
            e.string(detail);
        }
        EvalError::DegenerateMatrix { detail } => {
            e.u8(1);
            e.string(detail);
        }
        EvalError::TrainerDiverged { detail } => {
            e.u8(2);
            e.string(detail);
        }
        EvalError::Panic { message } => {
            e.u8(3);
            e.string(message);
        }
        EvalError::DeadlineExceeded => e.u8(4),
        EvalError::Transport { detail } => {
            e.u8(5);
            e.string(detail);
        }
    }
}

fn dec_error(d: &mut Dec) -> Result<EvalError, EvalError> {
    Ok(match d.u8("error tag")? {
        0 => EvalError::NonFiniteTransform { detail: d.string("error detail")? },
        1 => EvalError::DegenerateMatrix { detail: d.string("error detail")? },
        2 => EvalError::TrainerDiverged { detail: d.string("error detail")? },
        3 => EvalError::Panic { message: d.string("error detail")? },
        4 => EvalError::DeadlineExceeded,
        5 => EvalError::Transport { detail: d.string("error detail")? },
        tag => return Err(transport(format!("bad error tag {tag}"))),
    })
}

// ------------------------------------------------------------- messages

const REQ_PING: u8 = 0;
const REQ_DESCRIBE: u8 = 1;
const REQ_EVAL: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_HEALTH: u8 = 5;
const REQ_SET_FLEET: u8 = 6;

const RESP_PONG: u8 = 0;
const RESP_DESCRIBED: u8 = 1;
const RESP_TRIAL: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_ERROR: u8 = 4;
const RESP_HEALTH: u8 = 5;
const RESP_FLEET_ACK: u8 = 6;

/// Canonical bytes of a [`Request`].
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => Enc::new(REQ_PING).buf,
        Request::Describe(ctx) => {
            let mut e = Enc::new(REQ_DESCRIBE);
            enc_context(&mut e, ctx);
            e.buf
        }
        Request::Eval { ctx, pipeline, fraction } => {
            let mut e = Enc::new(REQ_EVAL);
            enc_context(&mut e, ctx);
            enc_pipeline(&mut e, pipeline);
            e.f64(*fraction);
            e.buf
        }
        Request::Stats => Enc::new(REQ_STATS).buf,
        Request::Shutdown => Enc::new(REQ_SHUTDOWN).buf,
        Request::Health => Enc::new(REQ_HEALTH).buf,
        Request::SetFleet(spec) => {
            let mut e = Enc::new(REQ_SET_FLEET);
            enc_fleet_spec(&mut e, spec);
            e.buf
        }
    }
}

/// Decode a [`Request`] payload (total: corrupt input is an `Err`).
pub fn decode_request(payload: &[u8]) -> Result<Request, EvalError> {
    let mut d = Dec::new(payload);
    let req = match d.u8("request tag")? {
        REQ_PING => Request::Ping,
        REQ_DESCRIBE => Request::Describe(dec_context(&mut d)?),
        REQ_EVAL => {
            let ctx = dec_context(&mut d)?;
            let pipeline = dec_pipeline(&mut d)?;
            let fraction = d.f64("eval fraction")?;
            Request::Eval { ctx, pipeline, fraction }
        }
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_HEALTH => Request::Health,
        REQ_SET_FLEET => Request::SetFleet(dec_fleet_spec(&mut d)?),
        tag => return Err(transport(format!("bad request tag {tag}"))),
    };
    d.finish("request")?;
    Ok(req)
}

/// Canonical bytes of a [`Response`].
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Pong => Enc::new(RESP_PONG).buf,
        Response::Described { baseline_accuracy, train_rows } => {
            let mut e = Enc::new(RESP_DESCRIBED);
            e.f64(*baseline_accuracy);
            e.u64(*train_rows);
            e.buf
        }
        Response::Trial { trial, stats } => {
            let mut e = Enc::new(RESP_TRIAL);
            enc_trial(&mut e, trial);
            enc_stats(&mut e, stats);
            e.buf
        }
        Response::Stats(stats) => {
            let mut e = Enc::new(RESP_STATS);
            enc_stats(&mut e, stats);
            e.buf
        }
        Response::Error(err) => {
            let mut e = Enc::new(RESP_ERROR);
            enc_error(&mut e, err);
            e.buf
        }
        Response::Health { epoch, served, contexts } => {
            let mut e = Enc::new(RESP_HEALTH);
            e.u64(*epoch);
            e.u64(*served);
            e.u64(*contexts);
            e.buf
        }
        Response::FleetAck { epoch } => {
            let mut e = Enc::new(RESP_FLEET_ACK);
            e.u64(*epoch);
            e.buf
        }
    }
}

/// Decode a [`Response`] payload (total: corrupt input is an `Err`).
pub fn decode_response(payload: &[u8]) -> Result<Response, EvalError> {
    let mut d = Dec::new(payload);
    let resp = match d.u8("response tag")? {
        RESP_PONG => Response::Pong,
        RESP_DESCRIBED => Response::Described {
            baseline_accuracy: d.f64("described baseline")?,
            train_rows: d.u64("described train_rows")?,
        },
        RESP_TRIAL => {
            let trial = dec_trial(&mut d)?;
            let stats = dec_stats(&mut d)?;
            Response::Trial { trial, stats }
        }
        RESP_STATS => Response::Stats(dec_stats(&mut d)?),
        RESP_ERROR => Response::Error(dec_error(&mut d)?),
        RESP_HEALTH => Response::Health {
            epoch: d.u64("health epoch")?,
            served: d.u64("health served")?,
            contexts: d.u64("health contexts")?,
        },
        RESP_FLEET_ACK => Response::FleetAck { epoch: d.u64("fleet ack epoch")? },
        tag => return Err(transport(format!("bad response tag {tag}"))),
    };
    d.finish("response")?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> EvalContext {
        EvalContext {
            dataset: "heart".to_string(),
            scale: 0.05,
            model: ModelKind::Xgb,
            train_fraction: 0.8,
            seed: 11,
            train_subsample: Some(64),
        }
    }

    fn every_step_pipeline() -> Pipeline {
        Pipeline::new(vec![
            Preproc::Binarizer { threshold: 0.25 },
            Preproc::MaxAbsScaler,
            Preproc::MinMaxScaler,
            Preproc::Normalizer { norm: Norm::Max },
            Preproc::PowerTransformer { standardize: false },
            Preproc::QuantileTransformer { n_quantiles: 77, output: OutputDist::Normal },
            Preproc::StandardScaler { with_mean: false },
        ])
    }

    fn trial() -> Trial {
        Trial {
            pipeline: every_step_pipeline(),
            accuracy: 0.8125,
            error: 0.1875,
            prep_time: Duration::from_nanos(123_456_789),
            train_time: Duration::from_nanos(987_654_321),
            train_fraction: 0.5,
            failure: Some(FailureKind::Transport),
        }
    }

    fn stats() -> WorkerStats {
        WorkerStats {
            served: 10,
            contexts: 2,
            hits: 4,
            misses: 6,
            entries: 6,
            evictions: 1,
            saved_nanos: 42_000,
            prefix_hits: 9,
            prefix_misses: 3,
            prefix_evictions: 2,
            prefix_steps_saved: 17,
            preloaded: 5,
        }
    }

    fn fleet_spec() -> FleetSpec {
        FleetSpec {
            epoch: 7,
            addrs: vec!["127.0.0.1:4101".to_string(), "127.0.0.1:4102".to_string()],
        }
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Describe(ctx()),
            Request::Eval { ctx: ctx(), pipeline: every_step_pipeline(), fraction: 0.25 },
            Request::Stats,
            Request::Shutdown,
            Request::Health,
            Request::SetFleet(fleet_spec()),
            Request::SetFleet(FleetSpec::default()),
        ]
    }

    fn all_responses() -> Vec<Response> {
        let mut errors: Vec<EvalError> = vec![
            EvalError::NonFiniteTransform { detail: "a".into() },
            EvalError::DegenerateMatrix { detail: "b".into() },
            EvalError::TrainerDiverged { detail: "c".into() },
            EvalError::Panic { message: "d".into() },
            EvalError::DeadlineExceeded,
            EvalError::Transport { detail: "e".into() },
        ];
        let mut out = vec![
            Response::Pong,
            Response::Described { baseline_accuracy: 0.5, train_rows: 193 },
            Response::Trial { trial: trial(), stats: stats() },
            Response::Stats(stats()),
            Response::Health { epoch: 7, served: 41, contexts: 3 },
            Response::FleetAck { epoch: 9 },
        ];
        out.extend(errors.drain(..).map(Response::Error));
        out
    }

    #[test]
    fn every_request_round_trips_bit_exactly() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("decode");
            assert_eq!(back, req);
            // Canonical: re-encoding the decoded value reproduces the
            // exact bytes.
            assert_eq!(encode_request(&back), bytes);
        }
    }

    #[test]
    fn every_response_round_trips_bit_exactly() {
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes).expect("decode");
            assert_eq!(back, resp);
            assert_eq!(encode_response(&back), bytes);
        }
    }

    /// Golden bytes: the wire format is a compatibility surface — a
    /// silent encoding change would strand every deployed worker.
    /// These constants were transcribed from known-good encodings.
    #[test]
    fn golden_bytes_are_locked() {
        assert_eq!(encode_request(&Request::Ping), vec![0u8]);
        assert_eq!(encode_request(&Request::Stats), vec![3u8]);
        assert_eq!(encode_request(&Request::Shutdown), vec![4u8]);
        assert_eq!(encode_response(&Response::Pong), vec![0u8]);

        // Describe(heart, scale 0.05, XGB, tf 0.8, seed 11, sub 64):
        let describe = encode_request(&Request::Describe(ctx()));
        let mut expect: Vec<u8> = vec![1];
        expect.extend_from_slice(&5u32.to_le_bytes());
        expect.extend_from_slice(b"heart");
        expect.extend_from_slice(&0.05f64.to_bits().to_le_bytes());
        expect.push(1); // XGB = ModelKind::ALL[1]
        expect.extend_from_slice(&0.8f64.to_bits().to_le_bytes());
        expect.extend_from_slice(&11u64.to_le_bytes());
        expect.push(1);
        expect.extend_from_slice(&64u64.to_le_bytes());
        assert_eq!(describe, expect);

        // A one-step Eval: StandardScaler(with_mean=true) @ 1.0.
        let eval = encode_request(&Request::Eval {
            ctx: ctx(),
            pipeline: Pipeline::from_kinds(&[PreprocKind::StandardScaler]),
            fraction: 1.0,
        });
        let mut expect: Vec<u8> = vec![2];
        expect.extend_from_slice(&describe[1..]); // same context bytes
        expect.extend_from_slice(&1u32.to_le_bytes()); // 1 step
        expect.push(6); // StandardScaler = PreprocKind::ALL[6]
        expect.push(1); // with_mean = true
        expect.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert_eq!(eval, expect);

        // Error response carrying a Transport error.
        let err = encode_response(&Response::Error(EvalError::Transport { detail: "x".into() }));
        assert_eq!(err, vec![4, 5, 1, 0, 0, 0, b'x']);

        // Health probe and answer.
        assert_eq!(encode_request(&Request::Health), vec![5u8]);
        let health = encode_response(&Response::Health { epoch: 7, served: 41, contexts: 3 });
        let mut expect: Vec<u8> = vec![5];
        expect.extend_from_slice(&7u64.to_le_bytes());
        expect.extend_from_slice(&41u64.to_le_bytes());
        expect.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(health, expect);

        // SetFleet(epoch 7, two addrs) and its ack.
        let set = encode_request(&Request::SetFleet(fleet_spec()));
        let mut expect: Vec<u8> = vec![6];
        expect.extend_from_slice(&7u64.to_le_bytes());
        expect.extend_from_slice(&2u32.to_le_bytes());
        for addr in &fleet_spec().addrs {
            expect.extend_from_slice(&(addr.len() as u32).to_le_bytes());
            expect.extend_from_slice(addr.as_bytes());
        }
        assert_eq!(set, expect);
        let ack = encode_response(&Response::FleetAck { epoch: 9 });
        let mut expect: Vec<u8> = vec![6];
        expect.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(ack, expect);
    }

    #[test]
    fn oversized_fleet_spec_is_rejected() {
        // Hand-build a SetFleet frame claiming MAX_FLEET + 1 addresses;
        // the decoder must reject it on the count, before reading them.
        let mut bytes: Vec<u8> = vec![6];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&(MAX_FLEET + 1).to_le_bytes());
        let err = decode_request(&bytes).unwrap_err();
        assert!(format!("{err}").contains("MAX_FLEET"), "{err}");
    }

    #[test]
    fn truncated_and_corrupt_frames_error_without_panic() {
        // Every prefix of every valid message must decode to an error
        // (or, for proper prefixes that happen to parse, at least not
        // panic — the `finish` check rejects trailing bytes instead).
        for req in all_requests() {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                assert!(
                    decode_request(&bytes[..cut]).is_err(),
                    "prefix of {req:?} at {cut} decoded"
                );
            }
        }
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                assert!(
                    decode_response(&bytes[..cut]).is_err(),
                    "prefix of {resp:?} at {cut} decoded"
                );
            }
        }
        // Corrupt tags and fields.
        assert!(decode_request(&[99]).is_err());
        assert!(decode_response(&[99]).is_err());
        assert!(decode_request(&[]).is_err());
        // Bad model code inside Describe.
        let mut bytes = encode_request(&Request::Describe(ctx()));
        bytes[1 + 4 + 5 + 8] = 250; // model byte
        assert!(decode_request(&bytes).is_err());
        // Trailing garbage is rejected.
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
        // A string length pointing past the buffer.
        let mut bytes = encode_request(&Request::Describe(ctx()));
        bytes[1] = 255; // dataset length LSB
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn corrupt_bytes_never_panic_exhaustively() {
        // Flip every byte of a rich message to a handful of values; the
        // decoder must return (Ok or Err), never panic.
        let bytes = encode_response(&Response::Trial { trial: trial(), stats: stats() });
        for i in 0..bytes.len() {
            for v in [0u8, 1, 2, 127, 255] {
                let mut mutated = bytes.clone();
                mutated[i] = v;
                let _ = decode_response(&mutated);
            }
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let payload = encode_request(&Request::Eval {
            ctx: ctx(),
            pipeline: every_step_pipeline(),
            fraction: 0.75,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        write_frame(&mut buf, &encode_request(&Request::Ping)).expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("frame 1"), Some(payload));
        assert_eq!(read_frame(&mut r).expect("frame 2"), Some(vec![0u8]));
        assert_eq!(read_frame(&mut r).expect("eof"), None);

        // Oversized length prefix is rejected before allocation.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
        // A torn length prefix is an error, not EOF.
        let torn = [1u8, 0];
        let mut r = &torn[..];
        assert!(read_frame(&mut r).is_err());
        // A torn payload is an error.
        let mut torn_payload = Vec::new();
        write_frame(&mut torn_payload, &[1, 2, 3, 4]).expect("write");
        torn_payload.pop();
        let mut r = &torn_payload[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn context_canonical_distinguishes_every_field() {
        let base = ctx();
        let variants = [
            EvalContext { dataset: "pd".into(), ..base.clone() },
            EvalContext { scale: 0.1, ..base.clone() },
            EvalContext { model: ModelKind::Lr, ..base.clone() },
            EvalContext { train_fraction: 0.7, ..base.clone() },
            EvalContext { seed: 12, ..base.clone() },
            EvalContext { train_subsample: None, ..base.clone() },
        ];
        for v in &variants {
            assert_ne!(v.canonical(), base.canonical(), "{v:?}");
        }
        assert_eq!(base.canonical(), ctx().canonical());
    }
}
