//! In-memory spans around the benchmark's calls into the repository's
//! public API. Off by default; a traced run turns them on, and they are
//! written out once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique span id (1-based).
    pub id: u64,
    /// The span that was open on this thread when this one started.
    pub parent: Option<u64>,
    /// The operation this span belongs to (shared by all its spans).
    pub op: u64,
    /// The public call the span wraps, as `crate::item`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread: (id, op).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` that starts operation `op`.
pub fn op<T>(name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    record(name, Some(op), f)
}

/// Runs `f` inside a span named `name`, a child of the span open on
/// this thread (if any) and part of its operation.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    record(name, None, f)
}

fn record<T>(name: &'static str, op: Option<u64>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        let op = op.or(parent.map(|(_, o)| o)).unwrap_or(0);
        open.push((id, op));
        (parent.map(|(p, _)| p), op)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    OPEN.with(|open| open.borrow_mut().pop());
    SPANS.lock().expect("span log poisoned").push(Span {
        id,
        parent,
        op,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Removes and returns every recorded span, ordered by id.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span log poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the part its children cover),
    /// nanoseconds.
    pub self_ns: u64,
}

/// Count, total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// One JSON line per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                op: 7,
                name: "a",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                op: 7,
                name: "b",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: Some(1),
                op: 7,
                name: "b",
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let t = totals(&spans);
        assert_eq!(
            t["a"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["b"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
    }
}
