//! The repository benchmark: runs one workload and prints every metric
//! by name with its unit, then one JSON result line.
//!
//! ```text
//! perfbench --workload search_cold|search_fleet|serve_tcp --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same workload with spans recorded around the calls into each layer
//! and reports the per-layer metrics. See `perfbench/README.md`.

mod report;
mod search;
mod serve;
mod summary;
mod sys;
mod trace;

use report::Report;
use std::sync::Arc;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["search_cold", "search_fleet", "serve_tcp"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("p90_ms", "ms"),
    ("accuracy_pct", "%"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not reach reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("search.pick_share".into(), "share")];
    for alg in autofp_search::AlgName::ALL {
        v.push((format!("search.pick_ms_per_trial.{}", alg.as_str()), "ms"));
    }
    v.push(("search.mean_improvement_pp".into(), "pp"));
    for (n, u) in [
        ("core.evals", "count"),
        ("core.eval_ms_p50", "ms"),
        ("core.eval_ms_p99", "ms"),
        ("core.prep_share", "share"),
        ("core.train_share", "share"),
    ] {
        v.push((n.into(), u));
    }
    for kind in autofp_preprocess::PreprocKind::ALL {
        v.push((format!("preprocess.{}.fit_transform_us", kind.name()), "us"));
    }
    for m in ["lr", "xgb", "mlp"] {
        v.push((format!("models.{m}.train_ms_p50"), "ms"));
    }
    for (n, u) in [
        ("cache.lookups", "count"),
        ("cache.hit_ratio", "share"),
        ("cache.saved_s", "s"),
        ("prefix.hit_ratio", "share"),
        ("prefix.steps_saved", "count"),
        ("store.appended", "count"),
        ("store.bytes", "bytes"),
        ("store.reopen_ms", "ms"),
        ("evald.rtt_ms_p50", "ms"),
        ("evald.rtt_ms_p99", "ms"),
        ("evald.served", "count"),
        ("evald.retries", "count"),
        ("evald.encode_us", "us"),
        ("evald.decode_us", "us"),
        ("serve.bulk_p50_ms", "ms"),
        ("serve.bulk_p99_ms", "ms"),
        ("serve.online_p99_ms", "ms"),
        ("serve.online_max_rps", "1/s"),
        ("serve.predict_batch_ms", "ms"),
        ("serve.transform_ms", "ms"),
        ("serve.predict_ms", "ms"),
        ("serve.quarantine_ms_derived", "ms"),
        ("serve.wire_encode_us", "us"),
        ("serve.wire_decode_us", "us"),
        ("serve.overhead_us_p50", "us"),
        ("trace.work_per_s", "1/s"),
        ("trace.latency_ms", "ms"),
    ] {
        v.push((n.into(), u));
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload `{value}` (one of {WORKLOADS:?})"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!(
                "error: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    for bin in ["autofp", "evald"] {
        if !sys::sibling_binary(bin).is_file() {
            eprintln!(
                "error: {} is missing; build the repository binaries first",
                sys::sibling_binary(bin).display()
            );
            std::process::exit(1);
        }
    }

    let tracer = Arc::new(Tracer::new(args.trace));
    let mut report = Report::default();
    report.record("workload", &args.workload);
    report.record("seed", args.seed);
    report.record("seconds", args.seconds);
    report.record("trace", u8::from(args.trace));
    report.record("nproc", sys::nproc());
    report.record("git_rev", sys::git_rev());
    report.record("profile", sys::profile());
    match args.workload.as_str() {
        "search_cold" => search::run(false, args.seed, args.seconds, &tracer, &mut report),
        "search_fleet" => search::run(true, args.seed, args.seconds, &tracer, &mut report),
        _ => serve::run(args.seed, args.seconds, &tracer, &mut report),
    }

    let unmeasured: Vec<&str> = END_TO_END
        .iter()
        .filter(|(n, _)| !report.value(n).is_some_and(|v| v.is_finite() && v > 0.0))
        .map(|(n, _)| *n)
        .collect();
    report.gate(
        "end_to_end_measured",
        unmeasured.is_empty(),
        format!("unmeasured: {unmeasured:?}"),
    );

    let results = sys::state_dir().join("results");
    let _ = std::fs::create_dir_all(&results);
    let stem = format!("{}-seed{}", args.workload, args.seed);
    if args.trace {
        finish_traced(&mut report, &tracer, &results, &stem);
    }
    let record = results.join(format!("{stem}-trace{}.json", u8::from(args.trace)));
    let _ = std::fs::write(&record, report.json_record(args.trace));
    if !args.trace {
        // What a traced run of this seed compares itself with.
        let e2e: String = report
            .end_to_end
            .iter()
            .map(|m| format!("{}\t{:?}\n", m.name, m.value))
            .collect();
        let _ = std::fs::write(results.join(format!("{stem}-e2e.tsv")), e2e);
    }
    report.print_text();
    println!("record file = {}", record.display());
    println!("{}", report.json_line(args.trace));
}

/// Complete a traced run: fill in layers this workload does not reach,
/// set the traced end-to-end numbers beside the untraced ones, and write
/// the spans out.
fn finish_traced(report: &mut Report, tracer: &Tracer, results: &std::path::Path, stem: &str) {
    for name in ["work_per_s", "latency_ms"] {
        let v = report.value(name).unwrap_or(0.0);
        report.layer(
            &format!("trace.{name}"),
            v,
            if name == "latency_ms" { "ms" } else { "1/s" },
            "end-to-end value of the traced run",
        );
    }
    for (name, unit) in per_layer() {
        if report.per_layer.iter().all(|m| m.name != name) {
            report.layer(&name, 0.0, unit, "not on this workload's path");
        }
    }
    let order: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    report.per_layer.sort_by_key(|m| {
        order
            .iter()
            .position(|n| *n == m.name)
            .unwrap_or(usize::MAX)
    });

    // Tracing overhead against the untraced run of the same seed.
    let untraced =
        std::fs::read_to_string(results.join(format!("{stem}-e2e.tsv"))).unwrap_or_default();
    let base: Vec<(&str, f64)> = untraced
        .lines()
        .filter_map(|l| l.split_once('\t'))
        .filter_map(|(n, v)| Some((n, v.parse().ok()?)))
        .collect();
    for m in &report.end_to_end {
        let note = match base.iter().find(|(n, _)| *n == m.name) {
            Some((_, b)) if *b != 0.0 => {
                format!("untraced {b}, traced/untraced {:.4}", m.value / b)
            }
            _ => "no untraced record for this seed".into(),
        };
        println!(
            "trace overhead {} traced {} {} ({note})",
            m.name, m.value, m.unit
        );
    }
    for (name, count, total, own) in tracer.summary() {
        println!(
            "span {name}: count {count}, total {:.3} s, self {:.3} s",
            total.as_secs_f64(),
            own.as_secs_f64()
        );
    }
    let spans = results.join(format!("{stem}-spans.tsv"));
    if let Err(e) = tracer.write(&spans) {
        eprintln!("warning: could not write {}: {e}", spans.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in BENCHMARK.json.
    fn declared(key: &str) -> Vec<String> {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layers);
        assert_eq!(declared("workloads"), WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&a("--workload serve_tcp --seed 3 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve_tcp", 3, 10.0, true)
        );
        assert!(parse_args(&a("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&a("--workload serve_tcp --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&a("--workload serve_tcp --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&a("--workload serve_tcp --seed x --seconds 10 --trace 0")).is_err());
    }
}
