//! The tail-percentile rule and the span self-time arithmetic.

use railbench::spans::{self, self_times, Span};
use railbench::stats::{beyond, keep_best, median, percentile, tail_rung, unit_latency};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Serialises the tests that record spans: the span buffer and the
/// on/off switch are process-wide.
static RECORDING: Mutex<()> = Mutex::new(());

fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        unit: 0,
    }
}

#[test]
fn tail_rung_leaves_ten_samples_beyond() {
    assert_eq!(tail_rung(19), None, "p50 of 19 leaves 9 beyond");
    assert_eq!(tail_rung(20), Some(50.0));
    assert_eq!(tail_rung(99), Some(50.0), "p90 of 99 leaves 9 beyond");
    assert_eq!(tail_rung(100), Some(90.0));
    assert_eq!(tail_rung(1_000), Some(99.0));
    assert_eq!(tail_rung(10_000), Some(99.9));
    assert_eq!(tail_rung(1_000_000), Some(99.9), "the ladder tops out");
    for n in [20, 100, 1_000, 10_000, 123_456] {
        assert!(beyond(n, tail_rung(n).unwrap()) >= 10, "n = {n}");
    }
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 90.0), 90.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&[7.0], 99.9), 7.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn unit_latency_takes_the_rung_from_the_guaranteed_count() {
    let v: Vec<f64> = (1..=150).map(f64::from).collect();
    // 150 samples, but only 60 guaranteed: the tail stays at p50.
    let lat = unit_latency(&v, 60);
    assert_eq!(
        (lat.rung, lat.p50, lat.tail, lat.n),
        (50.0, 75.0, 75.0, 150)
    );
    let lat = unit_latency(&v, 100);
    assert_eq!((lat.rung, lat.tail), (90.0, 135.0));
    // Fewer than 20 samples: no rung qualifies, the tail is the median.
    assert_eq!(unit_latency(&[1.0, 2.0, 3.0], 3).tail, 2.0);
}

#[test]
fn best_of_passes_is_the_per_unit_minimum() {
    let mut best = Vec::new();
    keep_best(&mut best, &[3.0, 5.0, 9.0]);
    keep_best(&mut best, &[4.0, 2.0, 9.5]);
    keep_best(&mut best, &[3.5, 6.0, 1.0]);
    assert_eq!(best, vec![3.0, 2.0, 1.0]);
}

#[test]
fn self_time_subtracts_covered_child_time() {
    // root [0,100] with children [10,30] and [20,50] (overlapping: 40
    // covered) and [90,120] (clipped to 10); grandchild [12,18] only
    // counts against its own parent.
    let spans = vec![
        s("root", 0, 100, None),
        s("a", 10, 30, Some(0)),
        s("b", 20, 50, Some(0)),
        s("c", 90, 120, Some(0)),
        s("g", 12, 18, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
}

#[test]
fn self_times_of_a_leaf_and_a_fully_covered_span() {
    let spans = vec![s("p", 5, 9, None), s("q", 5, 9, Some(0))];
    assert_eq!(self_times(&spans), vec![0, 4]);
}

#[test]
fn recorded_spans_nest_and_account_for_their_parent() {
    let _guard = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    spans::set_enabled(true);
    spans::set_unit(7);
    let out = spans::span("outer", || {
        spans::span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        41 + 1
    });
    spans::set_enabled(false);
    spans::span("ignored", || ());
    let recorded = spans::take();
    assert_eq!(out, 42);
    assert_eq!(recorded.len(), 2);
    assert_eq!((recorded[0].name, recorded[0].parent), ("outer", None));
    assert_eq!((recorded[1].name, recorded[1].parent), ("inner", Some(0)));
    assert!(recorded.iter().all(|r| r.unit == 7 && r.end >= r.start));
    let own = self_times(&recorded);
    assert_eq!(own[0] + own[1], recorded[0].dur());
}

#[test]
fn a_panic_inside_a_span_closes_it_and_unwinds_the_nesting() {
    let _guard = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    spans::set_enabled(true);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        spans::span("unit", || spans::span("layer", || panic!("unit failed")))
    }));
    spans::span("next", || ());
    spans::set_enabled(false);
    let recorded = spans::take();
    assert!(caught.is_err());
    let names: Vec<_> = recorded.iter().map(|r| (r.name, r.parent)).collect();
    assert_eq!(
        names,
        vec![("unit", None), ("layer", Some(0)), ("next", None)],
        "the span after the panic must not nest under the dead ones"
    );
    assert!(recorded.iter().all(|r| r.end >= r.start && r.end > 0));
    let own = self_times(&recorded);
    assert_eq!(own[0] + own[1], recorded[0].dur());
}
