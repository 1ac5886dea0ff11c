//! Sample sets, percentiles and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Latency samples of one op type, in seconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total_s(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `p` (0–100) in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "percentile of an empty sample set");
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1] * 1e3
    }

    /// The median in milliseconds, smoothed: the mean of the samples
    /// from the 45th to the 55th percentile. Where an op type's latencies
    /// spread over decades (a `pivot_search` query costs 0.6 ms to 200 ms
    /// depending on the query), neighbouring order statistics sit tens of
    /// percent apart and the plain median jumps between them from run to
    /// run; the band average does not.
    pub fn p50_ms(&self) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "median of an empty sample set");
        let n = v.len();
        let lo = (n * 45 / 100).min(n - 1);
        let hi = (n * 55).div_ceil(100).clamp(lo + 1, n);
        let band = &v[lo..hi];
        band.iter().sum::<f64>() / band.len() as f64 * 1e3
    }

    /// The tail percentile `p` in milliseconds. Each workload fixes `p`
    /// so that at least ten of its samples lie beyond it.
    pub fn tail_ms(&self, p: f64) -> f64 {
        assert!(
            self.len() as f64 * (1.0 - p / 100.0) >= 10.0,
            "fewer than ten samples beyond p{p}"
        );
        self.percentile_ms(p)
    }

    pub fn merge(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }
}

/// Latency samples keyed by op type (a `BTreeMap`, so reports list op
/// types in a fixed order).
#[derive(Default)]
pub struct OpSamples(pub BTreeMap<&'static str, Samples>);

impl OpSamples {
    pub fn push(&mut self, op: &'static str, d: Duration) {
        self.0.entry(op).or_default().push(d);
    }

    pub fn get(&self, op: &str) -> &Samples {
        self.0
            .get(op)
            .unwrap_or_else(|| panic!("no samples for op {op}"))
    }

    pub fn all(&self) -> Samples {
        let mut all = Samples::default();
        for s in self.0.values() {
            all.merge(s);
        }
        all
    }

    /// One context line per op type: its median with the sample count.
    pub fn describe(&self, into: &mut Vec<(String, String)>) {
        for (op, s) in &self.0 {
            into.push((
                format!("{op}_p50_ms"),
                format!("{:.4} (n={})", s.p50_ms(), s.len()),
            ));
        }
    }
}

/// When a timed phase stops: at a cycle boundary, once the timed ops have
/// taken `Seconds` of program time, or once `Cycles` timed cycles ran.
#[derive(Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Cycles(usize),
}

impl Budget {
    pub fn reached(self, timed_s: f64, cycles: usize) -> bool {
        match self {
            Budget::Seconds(s) => timed_s >= s,
            Budget::Cycles(n) => cycles >= n,
        }
    }
}

/// Each scripted op's best (fastest) time over the timed cycles of a run.
///
/// Every cycle runs the same ops on the same state, so every repeat of a
/// slot does the same work, and its best time is that work with the
/// machine at its quickest. On a shared host the time-averaged figures
/// move with the neighbours' load: on a 2-core Xeon VM a 64-pair GEDHOT
/// batch took 12 ms at best and 17–21 ms at the median within one run,
/// and over five seeds the pooled median batch time ranged 14.8–19.7 ms
/// while the median of the batches' best times ranged 12.0–12.4 ms. The
/// end-to-end metrics are therefore taken over best times; the context
/// line keeps the pooled figures.
#[derive(Default)]
pub struct BestTimes {
    /// `(op, best seconds, repeats)` per slot of the cycle.
    slots: Vec<(&'static str, f64, usize)>,
}

impl BestTimes {
    pub fn push(&mut self, slot: usize, op: &'static str, d: Duration) {
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, ("", f64::INFINITY, 0));
        }
        let s = &mut self.slots[slot];
        assert!(
            s.0.is_empty() || s.0 == op,
            "slot {slot} ran both {} and {op}",
            s.0
        );
        *s = (op, s.1.min(d.as_secs_f64()), s.2 + 1);
    }

    /// The best times of the slots running one of `ops` (every slot when
    /// `ops` is empty), as a sample set.
    pub fn of(&self, ops: &[&str]) -> Samples {
        let mut out = Samples::default();
        for &(op, best, repeats) in &self.slots {
            if repeats > 0 && (ops.is_empty() || ops.contains(&op)) {
                out.0.push(best);
            }
        }
        out
    }

    /// Ops (× `per_op`) per second with every slot at its best time.
    pub fn ops_per_s(&self, per_op: f64) -> f64 {
        let all = self.of(&[]);
        all.len() as f64 * per_op / all.total_s()
    }

    /// `n slots, each best of m-k repeats`, for the context line.
    pub fn describe(&self) -> String {
        let repeats = self.slots.iter().map(|s| s.2);
        let min = repeats.clone().min().unwrap_or(0);
        let max = repeats.max().unwrap_or(0);
        format!("{} slots, each best of {min}-{max} repeats", self.slots.len())
    }
}

/// The median of a small set of repeated measurements (e.g. set-ups).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One named metric value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct RunResult {
    /// Operations run (warm-up included) and how many of them failed a
    /// correctness check or got an error back.
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not tied to one op (count repeatability, thread
    /// parity, ...), as `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Run context: per-op medians with sample counts, tail rung, ...
    pub context: Vec<(String, String)>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push((key.to_string(), value.to_string()));
    }

    pub fn check(&mut self, what: &str, passed: bool) {
        if !passed {
            eprintln!("perfbench: check failed: {what}");
        }
        self.checks.push((what.to_string(), passed));
    }

    /// Counts one op outcome; a failed op is reported on stderr.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: failed op: {why}");
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which a correct run never produces)
/// become `null` so the line stays valid JSON.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &RunResult) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct(),
        r.attempted,
        r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    s.push_str("}}");
    s
}

/// The context line printed before the result line.
pub fn context_line(pairs: &[(String, String)]) -> String {
    let mut s = String::from("{\"context\": {");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{}: {}", json_string(k), json_string(v));
    }
    s.push_str("}}");
    s
}
