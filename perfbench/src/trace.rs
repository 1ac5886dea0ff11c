//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each layer's public functions (nothing inside the program is
//! instrumented). Each span keeps its name, start, end, parent and the id
//! of the request it belongs to; spans stay in memory and are written out
//! when the run ends. A span's self time is its duration minus the
//! durations of its children, which always nest inside it.
//!
//! The recorder is thread-local and off by default: [`span`] costs one
//! thread-local read when no recorder is installed. Every traced pass runs
//! at one thread, so spans opened inside the engine (by [`TimingSolver`])
//! land in the recorder of the calling thread.

use ged_core::pairs::GedPair;
use ged_core::solver::{GedEstimate, GedSolver, PathEstimate, SolverScratch};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        });
    });
}

/// Removes this thread's recorder and returns its spans.
pub fn finish() -> Trace {
    let rec = RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("trace::finish without trace::start");
    assert!(rec.open.is_empty(), "trace finished with open spans");
    Trace { spans: rec.spans }
}

/// Tags the spans that follow with request id `id`.
pub fn set_request(id: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request = id;
        }
    });
}

fn now_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// Runs `f` inside a span named `name` (a plain call when no recorder is
/// installed on this thread).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len();
        let start_ns = now_ns(rec.origin);
        rec.spans.push(Span {
            name,
            request: rec.request,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder outlives its spans");
            let end = now_ns(rec.origin);
            rec.spans[idx].end_ns = end;
            assert_eq!(rec.open.pop(), Some(idx), "spans close in LIFO order");
        });
    }
    out
}

/// Per-name totals of a trace.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.duration_ns());
            }
        }
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Solver calls made inside store-query spans.
    pub fn query_solver_calls(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == "solver.call")
            .filter(|s| {
                s.parent
                    .is_some_and(|p| crate::layers::QUERY_SPANS.contains(&self.spans[p].name))
            })
            .count() as u64
    }

    /// Time spent in spans named `name` per request id.
    pub fn per_request_ns(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// Writes the spans to `out/trace-<workload>-<seed>.jsonl`.
    pub fn write(&self, workload: &str, seed: u64) {
        let path = crate::out_dir().join(format!("trace-{workload}-{seed}.jsonl"));
        if let Err(e) = std::fs::write(&path, self.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    /// The spans as JSON lines (`name`, `req`, `start_ns`, `end_ns`,
    /// `parent` index or -1).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// A solver that runs another one inside a `solver.call` span. Values are
/// the wrapped solver's, bit for bit, so an engine built over it answers
/// exactly like one built over the wrapped solver.
pub struct TimingSolver<S>(pub S);

impl<S: GedSolver> GedSolver for TimingSolver<S> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn predict(&self, pair: &GedPair) -> GedEstimate {
        span("solver.call", || self.0.predict(pair))
    }

    fn predict_scratch(&self, pair: &GedPair, scratch: &mut SolverScratch) -> GedEstimate {
        span("solver.call", || self.0.predict_scratch(pair, scratch))
    }

    fn edit_path(&self, pair: &GedPair, k: usize) -> Option<PathEstimate> {
        span("solver.path", || self.0.edit_path(pair, k))
    }
}
