//! The traced run's span recorder. Spans are opened around the benchmark's
//! own calls into each layer (name, start, end, parent, request id), kept
//! in memory, and summarised when the run ends. With tracing off, opening
//! a span is one relaxed load.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Enclosing span on the same thread, 0 for none.
    pub parent: u64,
    /// The caller operation this span belongs to, 0 for set-up work.
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    live: Option<Span>,
}

/// Opens a span named `name` for caller operation `request`.
pub fn span(name: &'static str, request: u64) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let now = Instant::now();
    Guard {
        live: Some(Span {
            name,
            id,
            parent,
            request,
            start: now,
            end: now,
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.live.take() {
            span.end = Instant::now();
            OPEN.with(|s| s.borrow_mut().pop());
            SPANS.lock().expect("span log poisoned").push(span);
        }
    }
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

/// Per-name totals: calls, summed duration and summed self time (duration
/// minus the part covered by child spans), in nanoseconds.
pub struct LayerStat {
    pub name: &'static str,
    pub calls: u64,
    /// Distinct caller operations (request ids) the spans belong to.
    pub requests: usize,
    pub total_ns: u128,
    pub self_ns: u128,
}

pub fn summarize(spans: &[Span]) -> Vec<LayerStat> {
    // Children of one parent run on the parent's thread, one after the
    // other, so their clipped durations add up without overlap.
    let mut covered: HashMap<u64, u128> = HashMap::new();
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let start = s.start.max(p.start);
            let end = s.end.min(p.end);
            if end > start {
                *covered.entry(p.id).or_default() += (end - start).as_nanos();
            }
        }
    }
    let mut stats: Vec<LayerStat> = Vec::new();
    let mut index: HashMap<&'static str, usize> = HashMap::new();
    let mut requests: HashMap<&'static str, HashSet<u64>> = HashMap::new();
    for s in spans {
        let i = *index.entry(s.name).or_insert_with(|| {
            stats.push(LayerStat {
                name: s.name,
                calls: 0,
                requests: 0,
                total_ns: 0,
                self_ns: 0,
            });
            stats.len() - 1
        });
        let d = (s.end - s.start).as_nanos();
        let st = &mut stats[i];
        st.calls += 1;
        st.total_ns += d;
        st.self_ns += d.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        requests.entry(s.name).or_default().insert(s.request);
    }
    for st in &mut stats {
        st.requests = requests[st.name].len();
    }
    stats.sort_by(|a, b| a.name.cmp(b.name));
    stats
}

/// Mean duration in milliseconds of the spans named `name` (0 if none).
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u32, 0.0), |(n, t), s| {
            (n + 1, t + (s.end - s.start).as_secs_f64())
        });
    if n == 0 {
        0.0
    } else {
        total * 1e3 / n as f64
    }
}

/// The per-layer table printed by a traced run (stderr).
pub fn print_table(stats: &[LayerStat]) {
    eprintln!(
        "{:<28} {:>9} {:>9} {:>12} {:>12} {:>12} {:>7}",
        "span", "calls", "requests", "total_ms", "mean_us", "self_ms", "self%"
    );
    for s in stats {
        let total = s.total_ns as f64 / 1e6;
        let own = s.self_ns as f64 / 1e6;
        eprintln!(
            "{:<28} {:>9} {:>9} {:>12.3} {:>12.3} {:>12.3} {:>6.1}%",
            s.name,
            s.calls,
            s.requests,
            total,
            s.total_ns as f64 / 1e3 / s.calls.max(1) as f64,
            own,
            if total > 0.0 {
                100.0 * own / total
            } else {
                0.0
            }
        );
    }
}
