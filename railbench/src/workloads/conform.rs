//! `conform-check`: the staged runtime conformance checks over seeded
//! generated histories. The unit is one history — `History::to_graph`
//! then `check_conform_*` — and its known answer is `Ok` for a clean
//! history and the seeded clause for a mutated one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use compass::conform::{linearize, ConformEvent, History};
use compass::history::take_search_stats;
use compass::SpecResult;
use railbench::gen::{deque_rows, mutate, queue_rows, stack_rows, stm_rows, Mutable, Rows, Shape};
use railbench::spans::{self, span};

use super::{Layers, Pass, Workload};

/// Histories per pass: `(clean, mutated)` for each container family
/// and for the STM — 100 in all, enough for a p90 tail over the
/// histories of one pass. The STM's share (a quarter) puts that p90
/// inside the STM histories, the costliest, instead of on the single
/// costliest container history, an extreme that moves with the seed.
const CONTAINER_CASES: (usize, usize) = (20, 5);
const STM_CASES: (usize, usize) = (20, 5);

/// Operations per thread: 2 × 128 = 256 events for the containers,
/// 4 × 100 = 400 for the STM.
const CONTAINER_OPS: usize = 128;
const STM_OPS: usize = 100;

/// One history and the verdict it must get.
struct Case<E> {
    hist: History<E>,
    expect: Option<&'static str>,
}

/// `clean` clean and `mutated` mutated histories from `seed`, generated
/// by `rows` (each case gets its own derived seed).
fn cases<E: Mutable>(
    seed: u64,
    (clean_n, mutated_n): (usize, usize),
    rows: impl Fn(u64) -> Rows<E>,
) -> Result<Vec<Case<E>>, String> {
    let mut out = Vec::with_capacity(clean_n + mutated_n);
    for i in 0..(clean_n + mutated_n) as u64 {
        let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
        let clean = rows(s);
        if i < clean_n as u64 {
            out.push(Case {
                hist: History::from_tuples(clean),
                expect: None,
            });
        } else {
            let (bad, rule) = mutate(s, &clean).ok_or_else(|| format!("seed {s}: no victim"))?;
            out.push(Case {
                hist: History::from_tuples(bad),
                expect: Some(rule),
            });
        }
    }
    Ok(out)
}

/// Runs one unit: reconstruct, check, compare with the known answer.
fn unit<E: ConformEvent>(
    case: &Case<E>,
    check_span: &'static str,
    pass: &mut Pass,
    layers: Option<&mut Layers>,
) {
    let result: Result<SpecResult, _> = pass.unit(|| {
        catch_unwind(AssertUnwindSafe(|| {
            span("unit", || {
                let g = span("conform.to_graph", || case.hist.to_graph());
                span(check_span, || E::check(&g))
            })
        }))
    });
    pass.events += case.hist.ops() as u64;
    let got = result
        .as_ref()
        .ok()
        .map(|r| r.as_ref().err().map(|v| v.rule));
    pass.verdict(got == Some(case.expect), || {
        format!("{check_span}: expected {:?}, got {result:?}", case.expect)
    });
    let search = take_search_stats();
    if let Some(l) = layers {
        l.add("conform.graph_events", case.hist.ops() as f64);
        l.add("history.search_nodes", search.nodes as f64);
        l.add("history.backtracks", search.backtracks as f64);
        l.add("history.memo_prunes", search.memo_prunes as f64);
    }
}

/// Times the calls nested inside a clean case's check on their own.
fn probe_case<E: ConformEvent>(case: &Case<E>, layers: &mut Layers) {
    let g = case.hist.to_graph();
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let _ = std::hint::black_box(g.check_well_formed());
    let wf_ns = ns(t);
    let t = Instant::now();
    std::hint::black_box(linearize(&g));
    let lin_ns = ns(t);
    let t = Instant::now();
    let _ = std::hint::black_box(E::check(&g));
    let check_ns = ns(t);
    let _ = take_search_stats();
    layers.sample("graph.well_formed_us", wf_ns / 1e3);
    layers.sample("history.linearize_us", lin_ns / 1e3);
    layers.add("graph.well_formed_ns", wf_ns);
    layers.add("conform.check_ns", check_ns);
}

/// The `conform-check` workload.
pub struct ConformCheck {
    queue: Vec<Case<compass::queue_spec::QueueEvent>>,
    stack: Vec<Case<compass::stack_spec::StackEvent>>,
    deque: Vec<Case<compass::deque_spec::DequeEvent>>,
    stm: Vec<Case<compass::stm_spec::StmEvent>>,
}

impl ConformCheck {
    /// Generates every history and checks the first one untimed.
    pub fn setup(seed: u64) -> Result<ConformCheck, String> {
        let two = Shape::two_threads(CONTAINER_OPS);
        let four = Shape::four_threads(STM_OPS);
        let w = ConformCheck {
            queue: cases(seed, CONTAINER_CASES, |s| queue_rows(s, &two))?,
            stack: cases(seed ^ 1, CONTAINER_CASES, |s| stack_rows(s, &two))?,
            deque: cases(seed ^ 2, CONTAINER_CASES, |s| deque_rows(s, &two))?,
            stm: cases(seed ^ 3, STM_CASES, |s| stm_rows(s, &four))?,
        };
        let mut warm = Pass::default();
        unit(&w.queue[0], "conform.check.queue", &mut warm, None);
        if warm.failed > 0 {
            return Err("warm-up history got the wrong verdict".into());
        }
        Ok(w)
    }
}

impl Workload for ConformCheck {
    fn describe(&self) -> String {
        format!(
            "clean + mutated histories: queue/stack/deque {CONTAINER_CASES:?} each at \
             2x{CONTAINER_OPS} events, stm {STM_CASES:?} at 4x{STM_OPS} events"
        )
    }

    fn pass(&mut self, mut layers: Option<&mut Layers>) -> Pass {
        let mut pass = Pass::default();
        let mut unit_id = 0;
        let mut next = || {
            unit_id += 1;
            spans::set_unit(unit_id);
        };
        for c in &self.queue {
            next();
            unit(c, "conform.check.queue", &mut pass, layers.as_deref_mut());
        }
        for c in &self.stack {
            next();
            unit(c, "conform.check.stack", &mut pass, layers.as_deref_mut());
        }
        for c in &self.deque {
            next();
            unit(c, "conform.check.deque", &mut pass, layers.as_deref_mut());
        }
        for c in &self.stm {
            next();
            unit(c, "conform.check.stm", &mut pass, layers.as_deref_mut());
        }
        pass
    }

    fn probe(&mut self, layers: &mut Layers) {
        probe_case(&self.queue[0], layers);
        probe_case(&self.stack[0], layers);
        probe_case(&self.deque[0], layers);
        probe_case(&self.stm[0], layers);
    }
}
