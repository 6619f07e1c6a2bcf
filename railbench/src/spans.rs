//! In-memory span tracing from the benchmark's own code.
//!
//! Every call the benchmark makes into a layer's public function can be
//! wrapped in [`span`]. With tracing off (the end-to-end runs) a span is
//! one relaxed atomic load; with tracing on it records name, start, end,
//! parent span and unit id into a process-global buffer that is taken
//! with [`take`] and written out when the run ends. [`self_times`]
//! derives each span's self time: its duration minus the part of it
//! covered by its children.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span name: a layer call such as `exec.run_model`.
    pub name: &'static str,
    /// Start, nanoseconds since the process's trace epoch.
    pub start: u64,
    /// End, nanoseconds since the trace epoch (`end >= start`).
    pub end: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// The unit being worked on when the span opened.
    pub unit: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static UNIT: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    let _ = now(); // pin the epoch before the first span
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the unit id stamped on spans opened from now on.
pub fn set_unit(unit: u64) {
    UNIT.store(unit, Ordering::Relaxed);
}

/// Closes the span at `idx` when dropped, so a unit that panics inside
/// a span (units run under `catch_unwind`) still stamps its end and
/// leaves the open-span stack as it found it.
struct Close {
    idx: usize,
}

impl Drop for Close {
    fn drop(&mut self) {
        OPEN.with(|o| o.borrow_mut().pop());
        // No `expect` here: panicking while unwinding would abort.
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        spans[self.idx].end = now();
    }
}

/// Runs `f` inside a span named `name` (just runs it when tracing is
/// off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let idx = {
        let mut spans = SPANS.lock().expect("span buffer poisoned");
        spans.push(Span {
            name,
            start: now(),
            end: 0,
            parent,
            unit: UNIT.load(Ordering::Relaxed),
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(idx));
    let _close = Close { idx };
    f()
}

/// Takes every recorded span, leaving the buffer empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}
