//! `model-check`: exhaustive DFS, plain and DPOR-pruned, over three
//! model programs, each through `check_executions_with` with one
//! explorer worker. The unit is one explored execution (model run plus
//! clause check); the known answer is the exact exhausted-DFS outcome
//! of each check.

use std::sync::Mutex;
use std::time::Instant;

use compass::checker::{check_executions_with, CheckOptions, CheckTarget, Exploration};
use compass::stm_spec::check_stm_consistent;
use compass::{CheckReport, Violation};
use compass_structures::buggy::UnvalidatedTml;
use compass_structures::clients::{check_mp, run_mp, MpResult};
use compass_structures::queue::MsQueue;
use compass_structures::stm::{Aborted, ModelTml};
use orc11::{run_model, BodyFn, Config, OpRecord, RunOutcome, Strategy, ThreadCtx, Val};
use railbench::spans::{self, span};

use super::{Layers, Pass, Workload};

/// DFS budget: far above every program's tree, so exhausting it is part
/// of the known answer.
const BUDGET: u64 = 200_000;

/// The model programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Program {
    /// `ModelTml`: one writer transaction against one read-only one.
    Tml,
    /// The Figure 1 message-passing client over the Michael-Scott queue.
    MsQueueMp,
    /// `UnvalidatedTml`, the seeded control that skips read validation.
    UnvalidatedTml,
}

/// One check of the pass and its known answer.
#[derive(Clone, Copy, Debug)]
struct Check {
    program: Program,
    dpor: bool,
    execs: u64,
    consistent: u64,
    /// The only clause allowed to fire, if any.
    rule: Option<&'static str>,
}

/// Exhausted-DFS outcomes, pinned (the STM counts agree with the e14
/// table in EXPERIMENTS.md).
const CHECKS: [Check; 6] = [
    Check {
        program: Program::Tml,
        dpor: false,
        execs: 9916,
        consistent: 9916,
        rule: None,
    },
    Check {
        program: Program::Tml,
        dpor: true,
        execs: 3016,
        consistent: 3016,
        rule: None,
    },
    Check {
        program: Program::MsQueueMp,
        dpor: false,
        execs: 4949,
        consistent: 4949,
        rule: None,
    },
    Check {
        program: Program::MsQueueMp,
        dpor: true,
        execs: 90,
        consistent: 90,
        rule: None,
    },
    Check {
        program: Program::UnvalidatedTml,
        dpor: false,
        execs: 1203,
        consistent: 766,
        rule: Some("STM-RO"),
    },
    Check {
        program: Program::UnvalidatedTml,
        dpor: true,
        execs: 1092,
        consistent: 670,
        rule: Some("STM-RO"),
    },
];

/// The MP client's result as a check target (its graph renders; the
/// postcondition is checked alongside queue consistency).
struct Mp(MpResult);

impl CheckTarget for Mp {
    fn event_count(&self) -> usize {
        self.0.graph.len()
    }
    fn failure_report(&self, violation: &Violation, ops: &[OpRecord]) -> String {
        self.0.graph.failure_report(violation, ops)
    }
    fn dot(&self) -> String {
        self.0.graph.dot()
    }
}

fn tml_client(
    strategy: Box<dyn Strategy>,
) -> RunOutcome<compass::Graph<compass::stm_spec::StmEvent>> {
    run_model(
        &Config::default(),
        strategy,
        |ctx| ModelTml::new(ctx, 2),
        vec![
            Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                // One writer attempt: increment both keys or abort.
                let mut txn = tm.begin(ctx, 1);
                let a = match tm.read(ctx, &mut txn, 0) {
                    Ok(v) => v.expect_int(),
                    Err(Aborted) => return,
                };
                if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_err() {
                    return;
                }
                let b = tm
                    .read(ctx, &mut txn, 1)
                    .expect("locked reads cannot abort")
                    .expect_int();
                tm.write(ctx, &mut txn, 1, Val::Int(b + 1))
                    .expect("locked writes cannot abort");
                tm.commit(ctx, txn);
            }) as BodyFn<'_, _, ()>,
            Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                // One read-only snapshot of both keys.
                let mut txn = tm.begin(ctx, 10);
                if tm.read(ctx, &mut txn, 0).is_err() {
                    return;
                }
                if tm.read(ctx, &mut txn, 1).is_err() {
                    return;
                }
                tm.commit(ctx, txn);
            }),
        ],
        |_, tm, _| tm.obj().snapshot(),
    )
}

/// The unvalidated control under the same client shape. Also the
/// forensics workload's model-rail violation.
pub fn unvalidated_client(
    strategy: Box<dyn Strategy>,
) -> RunOutcome<compass::Graph<compass::stm_spec::StmEvent>> {
    run_model(
        &Config::default(),
        strategy,
        |ctx| UnvalidatedTml::new(ctx, 2),
        vec![
            Box::new(|ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                let mut txn = tm.begin(ctx, 1);
                let a = tm.read(ctx, &mut txn, 0).expect_int();
                if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_ok() {
                    let b = tm.read(ctx, &mut txn, 1).expect_int();
                    tm.write(ctx, &mut txn, 1, Val::Int(b + 1))
                        .expect("a writer holding the lock cannot abort");
                    tm.commit(ctx, txn);
                }
            }) as BodyFn<'_, _, ()>,
            Box::new(|ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                let mut txn = tm.begin(ctx, 10);
                tm.read(ctx, &mut txn, 0);
                tm.read(ctx, &mut txn, 1);
                tm.commit(ctx, txn);
            }),
        ],
        |_, tm, _| tm.obj().snapshot(),
    )
}

fn mp_client(strategy: Box<dyn Strategy>) -> RunOutcome<Mp> {
    let out = run_mp(MsQueue::new, true, strategy);
    RunOutcome {
        result: out.result.map(Mp),
        steps: out.steps,
        trace: out.trace,
        ops: out.ops,
        stats: out.stats,
        accesses: out.accesses,
    }
}

fn check_mp_client(mp: &Mp) -> Result<(), Violation> {
    check_mp(&mp.0, true).map_err(|m| Violation::new("MP-POSTCONDITION", m, Vec::new()))
}

/// Per-execution timing shared by the program and check closures: the
/// program stamps its start, the check closes the unit.
#[derive(Default)]
struct UnitClock {
    start: Mutex<Option<Instant>>,
    unit_us: Mutex<Vec<f64>>,
}

impl UnitClock {
    fn begin(&self) {
        *self.start.lock().expect("unit clock poisoned") = Some(Instant::now());
    }
    fn end(&self) {
        if let Some(t0) = self.start.lock().expect("unit clock poisoned").take() {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.unit_us.lock().expect("unit clock poisoned").push(us);
        }
    }
}

/// Runs one check with every unit timed and every layer call spanned.
fn explore<G: CheckTarget>(
    dpor: bool,
    clock: &UnitClock,
    program: impl Fn(Box<dyn Strategy>) -> RunOutcome<G> + Send + Sync,
    check: impl Fn(&G) -> Result<(), Violation> + Sync,
) -> CheckReport {
    let unit = std::sync::atomic::AtomicU64::new(0);
    span("explore", || {
        check_executions_with(
            &Exploration::Dfs { budget: BUDGET },
            &CheckOptions {
                threads: 1,
                dpor: Some(dpor),
                ..CheckOptions::default()
            },
            |strategy| {
                spans::set_unit(unit.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
                clock.begin();
                span("exec.run_model", || program(strategy))
            },
            |g| {
                let r = span("spec.check", || check(g));
                clock.end();
                r
            },
        )
    })
}

fn run_check(c: &Check, clock: &UnitClock) -> CheckReport {
    match c.program {
        Program::Tml => explore(c.dpor, clock, tml_client, check_stm_consistent),
        Program::MsQueueMp => explore(c.dpor, clock, mp_client, check_mp_client),
        Program::UnvalidatedTml => explore(c.dpor, clock, unvalidated_client, check_stm_consistent),
    }
}

/// Whether a report is the check's known answer.
fn known_answer(c: &Check, r: &CheckReport) -> bool {
    let rules_ok = match c.rule {
        None => r.violations.is_empty(),
        Some(rule) => r.violations.keys().all(|&k| k == rule) && r.violated(rule),
    };
    r.exhausted
        && !r.truncated
        && r.model_errors == 0
        && r.execs == c.execs
        && r.consistent == c.consistent
        && rules_ok
}

/// The `model-check` workload.
pub struct ModelCheck;

impl ModelCheck {
    /// Nothing to generate; the warm-up unit is the smallest check.
    pub fn setup() -> Result<ModelCheck, String> {
        let warm = &CHECKS[5];
        let r = run_check(warm, &UnitClock::default());
        if !known_answer(warm, &r) {
            return Err(format!("warm-up check {warm:?} gave {r}"));
        }
        Ok(ModelCheck)
    }
}

impl Workload for ModelCheck {
    fn describe(&self) -> String {
        let list: Vec<String> = CHECKS
            .iter()
            .map(|c| format!("{:?}/{}", c.program, if c.dpor { "dpor" } else { "dfs" }))
            .collect();
        format!("exhaustive DFS, one explorer worker: {}", list.join(", "))
    }

    fn pass(&mut self, mut layers: Option<&mut Layers>) -> Pass {
        let clock = UnitClock::default();
        let mut pass = Pass::default();
        for c in &CHECKS {
            let r = run_check(c, &clock);
            pass.events += r.stats.steps;
            pass.verdict(known_answer(c, &r), || format!("{c:?}: {r}"));
            if let Some(l) = layers.as_deref_mut() {
                l.add("explore.execs", r.execs as f64);
                l.add("explore.steps", r.stats.steps as f64);
                if let Some(d) = &r.dpor {
                    l.add("dpor.pruned_subtrees", d.pruned_subtrees as f64);
                    l.add("dpor.sleep_hits", d.sleep_hits as f64);
                }
                l.add("checkpoint.restored", r.reuse.checkpoints_restored as f64);
                l.add(
                    "checkpoint.prefix_steps_saved",
                    r.reuse.prefix_steps_saved as f64,
                );
            }
        }
        pass.unit_us = clock.unit_us.into_inner().expect("unit clock poisoned");
        pass
    }
}
