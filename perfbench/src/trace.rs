//! In-memory spans recorded around calls into the layers, written out
//! when the benchmark ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = the run itself).
    pub parent: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// Span sink shared by every thread of a traced run. A disabled tracer
/// records nothing, so the untraced run pays only the branch.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Record a span that ran from `start` to `end`; returns its id
    /// (0 when tracing is off).
    pub fn record(&self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
        id
    }

    /// Reserve an id for a span whose children are recorded before it
    /// ends; close it with [`Tracer::close`].
    pub fn open(&self) -> (u64, Instant) {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        (id, Instant::now())
    }

    pub fn close(&self, name: &'static str, parent: u64, opened: (u64, Instant)) {
        if !self.on {
            return;
        }
        let (id, start) = opened;
        let span = Span {
            id,
            parent,
            name,
            start: start.saturating_duration_since(self.t0),
            end: Instant::now().saturating_duration_since(self.t0),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Per span name: count, total time and self time (total minus the
    /// part of its interval that its direct children cover; children
    /// running in parallel are counted once), sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, u64, Duration, Duration)> {
        use std::collections::BTreeMap;
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let covered = |id: u64| -> Duration {
            let Some(intervals) = children.get(&id) else {
                return Duration::ZERO;
            };
            let mut v = intervals.clone();
            v.sort();
            let (mut sum, mut reach) = (Duration::ZERO, Duration::ZERO);
            for (start, end) in v {
                let start = start.max(reach);
                if end > start {
                    sum += end - start;
                    reach = end;
                }
            }
            sum
        };
        let mut by_name: BTreeMap<&'static str, (u64, Duration, Duration)> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end.saturating_sub(s.start);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(covered(s.id));
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, o))| (n, c, t, o))
            .collect()
    }

    /// Write every span as TSV (`id parent name start_us end_us`).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut out = String::from("id\tparent\tname\tstart_us\tend_us\n");
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let t = Tracer::new(true);
        let at = |ms: u64| t.t0 + Duration::from_millis(ms);
        let parent = t.open();
        // Two parallel children overlap on 20..30 ms: 25 ms covered.
        t.record("child", parent.0, at(10), at(30));
        t.record("child", parent.0, at(20), at(35));
        // Closing at "now" after 40 ms keeps every child inside.
        std::thread::sleep(Duration::from_millis(40));
        t.close("parent", 0, (parent.0, at(0)));
        let summary = t.summary();
        let parent = summary
            .iter()
            .find(|s| s.0 == "parent")
            .expect("parent span");
        let child = summary
            .iter()
            .find(|s| s.0 == "child")
            .expect("child spans");
        assert_eq!(child.1, 2);
        assert_eq!(child.2, Duration::from_millis(35));
        assert_eq!(parent.3, parent.2 - Duration::from_millis(25));
        assert!(!Tracer::new(false).enabled());
    }
}
