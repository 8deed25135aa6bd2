//! A run's result: correctness gates, end-to-end and per-layer metrics,
//! and the record fields, printed for people and as the closing JSON
//! line.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or how the value was derived.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (trials or requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// `(gate, passed, detail)`.
    pub gates: Vec<(String, bool, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Record fields: nproc, git rev, profile, seed, ladder, ...
    pub record: Vec<(String, String)>,
}

impl Report {
    pub fn gate(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.gates.push((name.to_string(), passed, detail.into()));
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn record(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.1)
    }

    /// Value of a metric already reported, end-to-end or per-layer.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable lines that precede the JSON result.
    pub fn print_text(&self) {
        for (k, v) in &self.record {
            println!("record {k} = {v}");
        }
        for (name, passed, detail) in &self.gates {
            println!(
                "gate {name}: {} ({detail})",
                if *passed { "ok" } else { "FAILED" }
            );
        }
        for (kind, list) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            for m in list {
                println!(
                    "{kind} {} = {} {} [{}]",
                    m.name,
                    fmt_value(m.value),
                    m.unit,
                    m.note
                );
            }
        }
    }

    /// The closing JSON line: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn json_line(&self, traced: bool) -> String {
        let list = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = list
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    json_number(m.value),
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The whole result as one JSON document (kept in the scratch
    /// directory as the run's record).
    pub fn json_record(&self, traced: bool) -> String {
        let mut s = String::from("{\n  \"record\": {");
        let rec: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        s.push_str(&rec.join(", "));
        s.push_str("},\n  \"gates\": {");
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|(k, ok, _)| format!("\"{}\": {ok}", escape(k)))
            .collect();
        s.push_str(&gates.join(", "));
        s.push_str("},\n");
        for (key, list) in [
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ] {
            let _ = write!(s, "  \"{key}\": {{");
            let ms: Vec<String> = list
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}",
                        escape(&m.name),
                        json_number(m.value),
                        escape(m.unit),
                        escape(&m.note)
                    )
                })
                .collect();
            s.push_str(&ms.join(", "));
            s.push_str("},\n");
        }
        let _ = writeln!(s, "  \"result\": {}\n}}", self.json_line(traced));
        s
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    } else {
        "n/a".into()
    }
}

/// A finite JSON number with all its digits; a value that could not be
/// measured becomes 0 (its gate or note says why).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.gate("a", true, "");
        r.e2e("work_per_s", 12.5, "1/s", "");
        r.layer("core.evals", 3.0, "count", "");
        assert_eq!(
            r.json_line(false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"work_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        assert!(r
            .json_line(true)
            .contains("\"core.evals\": {\"value\": 3.0"));
        r.gate("b", false, "");
        assert!(r.json_line(true).starts_with("{\"correct\": false"));
    }
}
