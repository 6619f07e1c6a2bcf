//! `forensics`: replay bundles for large violating histories and for
//! one model-rail violation, each written and then rechecked. The unit
//! is one bundle; its known answer is that the bundle rechecks to the
//! clause it was written for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use compass::bundle::{load_trace, replay, write_bundle, write_conform_bundle};
use compass::checker::{check_executions_with, CheckOptions, ExecOrigin, Exploration};
use compass::conform::{recheck, ConformEvent, History, RoundSpec};
use compass::dot::to_dot_flagged;
use compass::report::{render_failure, render_narrative};
use compass::stm_spec::{check_stm_consistent, StmEvent};
use compass::{Graph, Violation};
use orc11::RunOutcome;
use railbench::gen::{
    deque_rows, mutate, queue_rows, stack_rows, stm_rows, Family, Mutable, Rows, Shape,
};
use railbench::spans::{self, span};

use super::model::unvalidated_client;
use super::{Layers, Pass, Workload};

/// Operations per thread of the violating histories: 2 × 200 (+1
/// duplicate) container events, 4 × 100 STM events.
const CONTAINER_OPS: usize = 200;
const STM_OPS: usize = 100;

/// Random executions searched for the model-rail violation.
const MODEL_SEARCH: u64 = 256;

/// A violating history, its graph and its violation.
struct Bad<E> {
    family: Family,
    hist: History<E>,
    graph: Graph<E>,
    violation: Violation,
}

fn bad<E: Mutable>(family: Family, seed: u64, rows: Rows<E>) -> Result<Bad<E>, String> {
    let (broken, rule) = mutate(seed, &rows).ok_or_else(|| format!("{family:?}: no victim"))?;
    let hist = History::from_tuples(broken);
    let graph = hist.to_graph();
    let violation = E::check(&graph).err().ok_or("mutation not convicted")?;
    if violation.rule != rule {
        return Err(format!("{family:?}: {} instead of {rule}", violation.rule));
    }
    Ok(Bad {
        family,
        hist,
        graph,
        violation,
    })
}

/// Total size of the files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn conform_unit<E: ConformEvent>(
    b: &Bad<E>,
    root: &Path,
    pass: &mut Pass,
    layers: Option<&mut Layers>,
) {
    let spec = RoundSpec {
        seed: 0,
        threads: b.hist.threads(),
        ops_per_thread: b.hist.ops() / b.hist.threads().max(1),
    };
    let result = pass.unit(|| {
        catch_unwind(AssertUnwindSafe(|| {
            span("unit", || {
                let dir = span("bundle.write", || {
                    write_conform_bundle(
                        root,
                        b.family.name(),
                        &b.hist,
                        &b.graph,
                        &b.violation,
                        &spec,
                    )
                })
                .map_err(|e| e.to_string())?;
                let (_, again) =
                    span("conform.recheck", || recheck::<E>(&dir)).map_err(|e| e.to_string())?;
                Ok::<_, String>((dir, again.err().map(|v| v.rule)))
            })
        }))
    });
    pass.events += b.graph.len() as u64;
    settle(result, b.violation.rule, pass, layers);
}

/// Compares a unit's recheck with the rule its bundle was written for,
/// then removes the bundle.
fn settle(
    result: std::thread::Result<Result<(PathBuf, Option<&'static str>), String>>,
    rule: &'static str,
    pass: &mut Pass,
    layers: Option<&mut Layers>,
) {
    let ok = matches!(&result, Ok(Ok((_, Some(r)))) if *r == rule);
    if let Ok(Ok((dir, _))) = &result {
        if let Some(l) = layers {
            l.add("bundle.bytes", dir_bytes(dir) as f64);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    pass.verdict(ok, || format!("bundle for {rule}: {result:?}"));
}

/// The model-rail violation: the first one random exploration of
/// `UnvalidatedTml` finds from the seed, with its execution.
struct ModelViolation {
    origin: ExecOrigin,
    violation: Violation,
    out: RunOutcome<Graph<StmEvent>>,
}

impl ModelViolation {
    fn find(seed: u64) -> Result<ModelViolation, String> {
        let report = check_executions_with(
            &Exploration::Random {
                iters: MODEL_SEARCH,
                seed0: seed,
            },
            &CheckOptions {
                threads: 1,
                ..CheckOptions::default()
            },
            unvalidated_client,
            check_stm_consistent,
        );
        let (origin, violation) = report
            .samples
            .first()
            .cloned()
            .ok_or("no model-rail violation found")?;
        let out = unvalidated_client(origin.strategy());
        Ok(ModelViolation {
            origin,
            violation,
            out,
        })
    }

    fn unit(&self, root: &Path, pass: &mut Pass, layers: Option<&mut Layers>) {
        let g = self
            .out
            .result
            .as_ref()
            .expect("the violating run completed");
        let result = pass.unit(|| {
            catch_unwind(AssertUnwindSafe(|| {
                span("unit", || {
                    let dir = span("bundle.write", || {
                        write_bundle(root, g, &self.violation, &self.out, &self.origin)
                    })
                    .map_err(|e| e.to_string())?;
                    let rule = span("model.recheck", || {
                        let trace = load_trace(&dir.join("trace.txt"))?;
                        let again = replay(&trace, unvalidated_client);
                        Ok::<_, std::io::Error>(match again.result {
                            Ok(g) => check_stm_consistent(&g).err().map(|v| v.rule),
                            Err(_) => None,
                        })
                    })
                    .map_err(|e| e.to_string())?;
                    Ok::<_, String>((dir, rule))
                })
            }))
        });
        pass.events += g.len() as u64;
        settle(result, self.violation.rule, pass, layers);
    }
}

/// Times the renderings a conform bundle is made of.
fn probe_bad<E: ConformEvent>(b: &Bad<E>, layers: &mut Layers) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let dot = to_dot_flagged(&b.graph, "violation", &b.violation.events);
    layers.sample("dot.render_ms", ms(t));
    let t = Instant::now();
    let report = render_failure(&b.graph, &b.violation, &[]);
    layers.sample("report.failure_ms", ms(t));
    let t = Instant::now();
    let narrative = render_narrative(&b.graph, &b.violation);
    layers.sample("report.narrative_ms", ms(t));
    let t = Instant::now();
    let text = b.hist.render(&[]);
    layers.sample("conform.render_us", ms(t) * 1e3);
    std::hint::black_box((dot, report, narrative, text));
}

/// The `forensics` workload.
pub struct Forensics {
    root: PathBuf,
    queue: Bad<compass::queue_spec::QueueEvent>,
    stack: Bad<compass::stack_spec::StackEvent>,
    deque: Bad<compass::deque_spec::DequeEvent>,
    stm: Bad<StmEvent>,
    model: ModelViolation,
}

impl Forensics {
    /// Generates the violating histories, finds the model violation, and
    /// writes and rechecks one bundle untimed.
    pub fn setup(seed: u64, scratch: &Path) -> Result<Forensics, String> {
        let two = Shape::two_threads(CONTAINER_OPS);
        let four = Shape::four_threads(STM_OPS);
        let w = Forensics {
            root: scratch.join("bundles"),
            queue: bad(Family::Queue, seed, queue_rows(seed, &two))?,
            stack: bad(Family::Stack, seed, stack_rows(seed ^ 1, &two))?,
            deque: bad(Family::Deque, seed, deque_rows(seed ^ 2, &two))?,
            stm: bad(Family::Stm, seed, stm_rows(seed ^ 3, &four))?,
            model: ModelViolation::find(seed)?,
        };
        let mut warm = Pass::default();
        conform_unit(&w.queue, &w.root, &mut warm, None);
        if warm.failed > 0 {
            return Err("warm-up bundle did not recheck to its clause".into());
        }
        Ok(w)
    }
}

impl Workload for Forensics {
    fn describe(&self) -> String {
        format!(
            "bundles: queue/stack/deque {} events, stm {} events, model {} ({} events)",
            self.queue.graph.len(),
            self.stm.graph.len(),
            self.model.violation.rule,
            self.model.out.result.as_ref().map_or(0, Graph::len)
        )
    }

    fn pass(&mut self, mut layers: Option<&mut Layers>) -> Pass {
        let mut pass = Pass::default();
        let root = &self.root;
        spans::set_unit(1);
        conform_unit(&self.queue, root, &mut pass, layers.as_deref_mut());
        spans::set_unit(2);
        conform_unit(&self.stack, root, &mut pass, layers.as_deref_mut());
        spans::set_unit(3);
        conform_unit(&self.deque, root, &mut pass, layers.as_deref_mut());
        spans::set_unit(4);
        conform_unit(&self.stm, root, &mut pass, layers.as_deref_mut());
        spans::set_unit(5);
        self.model.unit(root, &mut pass, layers);
        pass
    }

    fn probe(&mut self, layers: &mut Layers) {
        probe_bad(&self.queue, layers);
        probe_bad(&self.stack, layers);
        probe_bad(&self.deque, layers);
        probe_bad(&self.stm, layers);
    }
}
