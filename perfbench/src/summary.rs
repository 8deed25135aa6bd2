//! Summary statistics over measured samples: percentiles under the
//! "at least ten samples beyond" rule, the open-loop request loop that
//! times each request from its due time, and the offered-rate ladder
//! selection.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail is too thin to say anything.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// A sorted copy of `samples` (NaN-free by construction of the callers;
/// `total_cmp` keeps the order total regardless).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, p90 and p99 of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: Option<f64>,
    pub p90: Option<f64>,
    pub p99: Option<f64>,
}

impl Tail {
    pub fn of(samples: &[f64]) -> Tail {
        let s = sorted(samples);
        Tail {
            n: s.len(),
            p50: percentile_sorted(&s, 0.5),
            p90: percentile_sorted(&s, 0.9),
            p99: percentile_sorted(&s, 0.99),
        }
    }
}

/// Median of the p99s of consecutive `window`-sample windows of
/// `in_order` (each window needs 1000 samples for a p99): one burst of
/// stalls moves one window, not the whole run's tail. `None` without a
/// single full window.
pub fn windowed_p99(in_order: &[f64], window: usize) -> Option<f64> {
    let p99s: Vec<f64> = in_order
        .chunks_exact(window)
        .filter_map(|w| percentile_sorted(&sorted(w), 0.99))
        .collect();
    (!p99s.is_empty()).then(|| median(&p99s))
}

/// Plain median (no tail rule): for a handful of per-pass values.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Time source of the open loop; the benchmark uses the wall clock,
/// tests a simulated one.
pub trait Clock {
    /// Time since the loop's reference instant.
    fn now(&self) -> Duration;
    /// Block until [`Clock::now`] reaches `t` (no-op when past it).
    fn sleep_until(&self, t: Duration);
}

/// The wall clock, relative to when it was made.
pub struct WallClock(std::time::Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(std::time::Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// One open-loop request as it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its response arrived.
    pub done: Duration,
    /// The generator's own delay: how long after the due time the
    /// request went out although the connection was already free.
    pub lateness: Duration,
    /// The call failed or its answer was wrong.
    pub failed: bool,
}

impl Sent {
    /// Latency counted from the due time, so a stalled server also
    /// charges the requests that queued behind the stall. A failed
    /// request misses every limit.
    pub fn latency_ms(&self) -> f64 {
        if self.failed {
            f64::INFINITY
        } else {
            (self.done - self.due).as_secs_f64() * 1e3
        }
    }
}

/// Send one connection's share of an open-loop schedule: each request
/// goes out at its due time, or as soon as the previous response is in
/// when the connection is still busy. `call(i)` performs request `i`
/// and returns whether it succeeded.
pub fn open_loop(
    clock: &impl Clock,
    due: &[Duration],
    mut call: impl FnMut(usize) -> bool,
) -> Vec<Sent> {
    let mut out = Vec::with_capacity(due.len());
    let mut free_at = Duration::ZERO;
    for (i, &d) in due.iter().enumerate() {
        clock.sleep_until(d);
        let sent = clock.now();
        let ok = call(i);
        let done = clock.now();
        out.push(Sent {
            due: d,
            sent,
            done,
            lateness: sent.saturating_sub(d.max(free_at)),
            failed: !ok,
        });
        free_at = done;
    }
    out
}

/// Evenly spaced due times for `rate` requests per second over
/// `seconds`, offset by `start`.
pub fn schedule(rate: f64, seconds: f64, start: Duration) -> Vec<Duration> {
    let n = (rate * seconds).round() as usize;
    (0..n)
        .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// The backlog grew over a step when the requests of its last tenth
/// (in due order) waited past the latency limit at the median.
pub fn backlog_growing(in_due_order: &[Sent], limit_ms: f64) -> bool {
    let n = in_due_order.len();
    let tail: Vec<f64> = in_due_order[n - n / 10..]
        .iter()
        .map(Sent::latency_ms)
        .collect();
    !tail.is_empty() && median(&tail) > limit_ms
}

/// One step of the offered-rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Offered rate in requests per second.
    pub rate: f64,
    /// Latency tail over the step (failed requests count as infinite).
    pub tail: Tail,
    /// Whether the queue kept growing through the step.
    pub backlog_growing: bool,
}

impl Step {
    /// The step met the limit: a p99 exists, is within it, and the
    /// backlog did not grow.
    pub fn meets(&self, limit_ms: f64) -> bool {
        !self.backlog_growing && self.tail.p99.is_some_and(|p| p <= limit_ms)
    }
}

/// The highest rate of the ladder (ascending) reached before the first
/// step that misses the limit; `None` when even the lowest misses it.
pub fn max_rate_meeting(ladder: &[Step], limit_ms: f64) -> Option<f64> {
    ladder
        .iter()
        .take_while(|s| s.meets(limit_ms))
        .last()
        .map(|s| s.rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 is rank 990; exactly 10 lie beyond it.
        assert_eq!(percentile_sorted(&v, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile_sorted(&v[..999], 0.99), None);
        assert_eq!(percentile_sorted(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile_sorted(&v[..19], 0.5), None);
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn tail_and_median() {
        let v: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(
            (t.n, t.p50, t.p90, t.p99),
            (2000, Some(999.0), Some(1799.0), Some(1979.0))
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn windowed_p99_ignores_one_bad_window() {
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        // A stall burst inflates 200 samples of the second window only.
        for x in &mut v[1000..1200] {
            *x = 1e6;
        }
        assert_eq!(windowed_p99(&v, 1000), Some(989.0));
        assert_eq!(Tail::of(&v).p99, Some(1e6));
        assert_eq!(windowed_p99(&v[..999], 1000), None);
    }

    /// A simulated clock: sleeping jumps ahead, a call spends its
    /// service time.
    struct SimClock(Cell<Duration>);

    impl Clock for SimClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn open_loop_counts_queueing_behind_a_stall() {
        let ms = Duration::from_millis;
        let clock = SimClock(Cell::new(Duration::ZERO));
        let due = schedule(1000.0, 1.0, Duration::ZERO); // every 1 ms
        assert_eq!(due.len(), 1000);
        // The server answers in 0.1 ms, except request 10 stalls 50 ms.
        let sent = open_loop(&clock, &due, |i| {
            let service = if i == 10 {
                ms(50)
            } else {
                Duration::from_micros(100)
            };
            clock.0.set(clock.0.get() + service);
            true
        });
        let lat: Vec<f64> = sent.iter().map(Sent::latency_ms).collect();
        assert!((lat[9] - 0.1).abs() < 1e-9);
        assert!((lat[10] - 50.0).abs() < 1e-9);
        // Request 11 was due at 11 ms but could only go out at 60 ms:
        // from its due time it waited 49.1 ms, not the 0.1 ms a
        // send-to-reply clock would show.
        assert!((lat[11] - 49.1).abs() < 1e-9);
        // The queue drains by 0.9 ms per request after the stall.
        assert!(lat[30] > 30.0 && lat[70] < 1.0);
        // None of that wait is the generator's fault.
        assert!(sent.iter().all(|s| s.lateness.is_zero()));
        // The 55 queued requests put the stall into the p99; timed
        // from send, only request 10 would be slow.
        let tail = Tail::of(&lat);
        assert!(tail.p50.expect("p50") < 1.0);
        assert!(tail.p99.expect("p99") > 30.0);
        let from_send: Vec<f64> = sent
            .iter()
            .map(|s| (s.done - s.sent).as_secs_f64() * 1e3)
            .collect();
        assert!(Tail::of(&from_send).p99.expect("p99") < 1.0);
    }

    /// A clock whose sleeps overshoot by 0.3 ms.
    struct Oversleep(SimClock);

    impl Clock for Oversleep {
        fn now(&self) -> Duration {
            self.0.now()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.sleep_until(t + Duration::from_micros(300));
        }
    }

    #[test]
    fn open_loop_reports_generator_lateness() {
        let clock = Oversleep(SimClock(Cell::new(Duration::ZERO)));
        let due = schedule(100.0, 0.05, Duration::ZERO);
        let sent = open_loop(&clock, &due, |_| true);
        assert!(sent
            .iter()
            .all(|s| s.lateness == Duration::from_micros(300)));
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let s = Sent {
            due: Duration::ZERO,
            sent: Duration::ZERO,
            done: Duration::from_micros(10),
            lateness: Duration::ZERO,
            failed: true,
        };
        assert_eq!(s.latency_ms(), f64::INFINITY);
    }

    fn step(rate: f64, p99: Option<f64>, backlog_growing: bool) -> Step {
        Step {
            rate,
            tail: Tail {
                n: 2000,
                p50: Some(0.1),
                p90: Some(0.2),
                p99,
            },
            backlog_growing,
        }
    }

    #[test]
    fn max_rate_is_the_last_step_before_the_first_miss() {
        let limit = 5.0;
        let ladder = [
            step(1000.0, Some(0.4), false),
            step(2000.0, Some(0.9), false),
            step(4000.0, Some(4.9), false),
            step(8000.0, Some(7.0), false),  // p99 over the limit
            step(16000.0, Some(1.0), false), // a lucky step after a miss
        ];
        assert_eq!(max_rate_meeting(&ladder, limit), Some(4000.0));
        // A growing backlog fails a step even with a good p99.
        let ladder = [
            step(1000.0, Some(0.4), false),
            step(2000.0, Some(0.9), true),
        ];
        assert_eq!(max_rate_meeting(&ladder, limit), Some(1000.0));
        // Too few samples for a p99 fails the step.
        let ladder = [step(1000.0, None, false)];
        assert_eq!(max_rate_meeting(&ladder, limit), None);
        assert_eq!(max_rate_meeting(&[], limit), None);
    }

    #[test]
    fn backlog_detection_uses_the_last_tenth() {
        let mk = |lat_us: u64| Sent {
            due: Duration::ZERO,
            sent: Duration::ZERO,
            done: Duration::from_micros(lat_us),
            lateness: Duration::ZERO,
            failed: false,
        };
        let mut steady: Vec<Sent> = (0..100).map(|_| mk(200)).collect();
        assert!(!backlog_growing(&steady, 5.0));
        for s in steady.iter_mut().skip(90) {
            *s = mk(9_000);
        }
        assert!(backlog_growing(&steady, 5.0));
    }
}
