//! The four workloads and the per-layer metric table they feed.
//!
//! | workload | unit | event | layers it exercises |
//! |---|---|---|---|
//! | `model-check` | one explored execution | model step | `orc11::{exec,explore,dpor,checkpoint}`, model-rail specs |
//! | `conform-check` | one generated history | history event | `compass::{conform,graph,history}` |
//! | `forensics` | one bundle written and rechecked | graph event | `compass::{bundle,dot,report}`, `conform::recheck` |
//! | `native-record` | one two-thread round | native op | `compass_native`, `native::recorder`, the round driver |

mod conform;
mod forensics;
mod model;
mod native;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use railbench::mem;
use railbench::spans::{self_times, Span};
use railbench::stats::median;

/// What one pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of every unit, in µs.
    pub unit_us: Vec<f64>,
    /// Resident high-water mark of every unit run with [`Pass::unit`]
    /// while [`mem::metering`] is on, in MB.
    pub unit_peak_mb: Vec<f64>,
    /// Events processed (the workload's event kind).
    pub events: u64,
    /// Verdicts checked against their known answer.
    pub attempted: u64,
    /// Verdicts that differed from it, panicked, errored or ran out of
    /// budget.
    pub failed: u64,
}

impl Pass {
    /// Runs one unit, recording its latency and, while metering, its
    /// resident high-water mark: the heap is trimmed and the peak reset
    /// first, so that the memory an earlier unit freed does not count.
    pub fn unit<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let metering = mem::metering();
        if metering {
            mem::trim_heap();
            mem::reset_peak();
        }
        let t0 = Instant::now();
        let out = f();
        self.unit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if metering {
            self.unit_peak_mb.push(mem::peak_rss_mb());
        }
        out
    }

    /// Counts one verdict.
    pub fn verdict(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("railbench: wrong verdict: {}", what());
        }
    }
}

/// A workload after set-up.
pub trait Workload {
    /// One line naming the inputs.
    fn describe(&self) -> String;
    /// Runs every unit once. `layers` is `Some` on traced passes, for
    /// the counters the program keeps (explored executions, search
    /// nodes, ...).
    fn pass(&mut self, layers: Option<&mut Layers>) -> Pass;
    /// After a traced pass: times the layer calls that run *inside* a
    /// unit's call and so cannot get a span of their own (e.g. the
    /// well-formedness check inside `check_conform_queue`), by calling
    /// them once more on the same inputs, outside the timed pass.
    fn probe(&mut self, _layers: &mut Layers) {}
    /// Whether every pass does the same work in the same order (so
    /// passes differ only by host noise). `native-record` does not: its
    /// threads interleave differently every round.
    fn deterministic(&self) -> bool {
        true
    }
}

/// Sets up the named workload: generates its inputs from `seed`, builds
/// what the units need, and runs one untimed warm-up unit. `scratch` is
/// a directory the workload may create and fill (bundles).
pub fn setup(name: &str, seed: u64, scratch: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "model-check" => Box::new(model::ModelCheck::setup()?),
        "conform-check" => Box::new(conform::ConformCheck::setup(seed)?),
        "forensics" => Box::new(forensics::Forensics::setup(seed, scratch)?),
        "native-record" => Box::new(native::NativeRecord::setup(seed)?),
        _ => return Err(format!("unknown workload {name:?}")),
    })
}

/// Every span name the workloads open; each gets a `self_frac.<name>`
/// metric (its share of the traced passes' wall time).
pub const SPAN_NAMES: [&str; 15] = [
    "pass",
    "unit",
    "explore",
    "exec.run_model",
    "spec.check",
    "conform.to_graph",
    "conform.check.queue",
    "conform.check.stack",
    "conform.check.deque",
    "conform.check.stm",
    "bundle.write",
    "conform.recheck",
    "model.recheck",
    "native.round",
    "recorder.round",
];

/// Spans whose per-call duration is reported as a median.
const MEDIAN_SPANS: [&str; 7] = [
    "exec.run_model",
    "conform.check.queue",
    "conform.check.stack",
    "conform.check.deque",
    "conform.check.stm",
    "bundle.write",
    "conform.recheck",
];

/// Per-layer samples (for medians) and counters (summed over traced
/// passes), filled by traced passes and probes, plus per-span-name
/// totals of the traced passes' spans.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
    span_total_ns: BTreeMap<&'static str, f64>,
    span_self_ns: BTreeMap<&'static str, f64>,
    span_durs_ns: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Records one sample of `key` (reported as a median).
    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// Adds to the counter `key` (reported per traced pass).
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn med(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |v| median(v))
    }

    /// Folds one traced pass's spans into the per-name totals, self
    /// times and (for [`MEDIAN_SPANS`]) durations.
    pub fn absorb(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let dur = s.dur() as f64;
            *self.span_total_ns.entry(s.name).or_insert(0.0) += dur;
            *self.span_self_ns.entry(s.name).or_insert(0.0) += own as f64;
            if MEDIAN_SPANS.contains(&s.name) {
                self.span_durs_ns.entry(s.name).or_default().push(dur);
            }
        }
    }

    /// Total self time of the spans named `name`, in ns.
    pub fn span_self_ns(&self, name: &str) -> f64 {
        self.span_self_ns.get(name).copied().unwrap_or(0.0)
    }

    /// Total duration of the spans named `name`, in ns.
    pub fn span_total_ns(&self, name: &str) -> f64 {
        self.span_total_ns.get(name).copied().unwrap_or(0.0)
    }

    /// Per-name self times, in ns.
    pub fn self_ns(&self) -> &BTreeMap<&'static str, f64> {
        &self.span_self_ns
    }

    /// The per-layer metrics `(name, value, unit)`, in a fixed order.
    /// Layers a workload does not exercise read 0.
    pub fn finish(&self, traced_passes: f64) -> Vec<(&'static str, f64, &'static str)> {
        let total = |name: &str| self.span_total_ns(name);
        let med = |name: &str| self.span_durs_ns.get(name).map_or(0.0, |d| median(d));
        let explore_self = self.span_self_ns("explore");
        let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let n = traced_passes.max(1.0);
        let native_ns = per(total("native.round"), self.sum("native.ops"));
        let recorder_ns = per(total("recorder.round"), self.sum("recorder.ops"));
        vec![
            (
                "exec.ns_per_step",
                per(total("exec.run_model"), self.sum("explore.steps")),
                "ns",
            ),
            ("exec.run_model_us", med("exec.run_model") / 1e3, "us"),
            (
                "explore.overhead_ns_per_exec",
                per(explore_self, self.sum("explore.execs")),
                "ns",
            ),
            ("explore.execs", self.sum("explore.execs") / n, "count"),
            ("explore.steps", self.sum("explore.steps") / n, "count"),
            (
                "dpor.pruned_subtrees",
                self.sum("dpor.pruned_subtrees") / n,
                "count",
            ),
            ("dpor.sleep_hits", self.sum("dpor.sleep_hits") / n, "count"),
            (
                "checkpoint.restored",
                self.sum("checkpoint.restored") / n,
                "count",
            ),
            (
                "checkpoint.prefix_steps_saved",
                self.sum("checkpoint.prefix_steps_saved") / n,
                "count",
            ),
            ("spec.check_us", total("spec.check") / n / 1e3, "us"),
            (
                "conform.to_graph_ns_per_event",
                per(total("conform.to_graph"), self.sum("conform.graph_events")),
                "ns",
            ),
            (
                "graph.well_formed_us",
                self.med("graph.well_formed_us"),
                "us",
            ),
            (
                "graph.well_formed_frac",
                per(
                    self.sum("graph.well_formed_ns"),
                    self.sum("conform.check_ns"),
                ),
                "ratio",
            ),
            (
                "conform.check_us.queue",
                med("conform.check.queue") / 1e3,
                "us",
            ),
            (
                "conform.check_us.stack",
                med("conform.check.stack") / 1e3,
                "us",
            ),
            (
                "conform.check_us.deque",
                med("conform.check.deque") / 1e3,
                "us",
            ),
            ("conform.check_us.stm", med("conform.check.stm") / 1e3, "us"),
            (
                "history.linearize_us",
                self.med("history.linearize_us"),
                "us",
            ),
            (
                "history.search_nodes",
                self.sum("history.search_nodes") / n,
                "count",
            ),
            (
                "history.backtracks",
                self.sum("history.backtracks") / n,
                "count",
            ),
            (
                "history.memo_prunes",
                self.sum("history.memo_prunes") / n,
                "count",
            ),
            ("dot.render_ms", self.med("dot.render_ms"), "ms"),
            ("report.failure_ms", self.med("report.failure_ms"), "ms"),
            ("report.narrative_ms", self.med("report.narrative_ms"), "ms"),
            ("conform.render_us", self.med("conform.render_us"), "us"),
            ("bundle.write_ms", med("bundle.write") / 1e6, "ms"),
            ("conform.recheck_ms", med("conform.recheck") / 1e6, "ms"),
            ("bundle.bytes", self.sum("bundle.bytes") / n, "B"),
            ("native.ns_per_op", native_ns, "ns"),
            ("recorder.ns_per_op", recorder_ns, "ns"),
            (
                "recorder.overhead_frac",
                if native_ns > 0.0 {
                    recorder_ns / native_ns - 1.0
                } else {
                    0.0
                },
                "ratio",
            ),
            (
                "driver.round_setup_us",
                self.med("driver.round_setup_us"),
                "us",
            ),
        ]
    }
}
