//! Property-based tests for the Compass checkers: graphs generated from
//! sequential oracle runs are always accepted; targeted mutations are
//! always rejected; the linearization search is sound and agrees with the
//! oracle.
//!
//! The bitset logview kernels (well-formedness, DOT transitive
//! reduction, linearization search, topological order, `to_graph`,
//! `retain`, `prefix_at`) are additionally checked, output for output,
//! against the ordered-set algorithms they replaced (`mod reference`).
//!
//! Properties are exercised over deterministic seeded random operation
//! sequences (the repository builds offline with no property-testing
//! dependency); every failure message carries the seed, and the generator
//! is a pure function of it.

use std::collections::{BTreeSet, VecDeque};

use compass::conform::ConformEvent;
use compass::dot::to_dot_flagged;
use compass::exchanger_spec::ExchangeEvent;
use compass::history::{find_linearization, validate_linearization, QueueInterp, StackInterp};
use compass::queue_spec::{check_queue_consistent, QueueEvent};
use compass::report::render_failure;
use compass::stack_spec::{check_stack_consistent, StackEvent};
use compass::{EventId, Graph, Violation};
use orc11::rng::SmallRng;
use orc11::Val;

/// Seeds per property; generation is cheap and graphs are small.
const CASES: u64 = 300;

/// An abstract operation for the oracle generators.
#[derive(Copy, Clone, Debug)]
enum Op {
    Insert(i64),
    Remove,
}

/// Mirrors the original proptest strategy: up to 24 operations, inserts of
/// small values and removes equally likely.
fn gen_ops(seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6f70_735f_6765_6e21);
    let len = rng.gen_index(24);
    (0..len)
        .map(|_| {
            if rng.gen_bool() {
                Op::Insert(rng.gen_range(0, 50) as i64)
            } else {
                Op::Remove
            }
        })
        .collect()
}

/// Runs `ops` through a sequential queue, building a totally-ordered
/// graph (every event sees all predecessors) with `visibility(i)` events
/// in each logview (a prefix, so logviews stay hb-closed).
fn queue_graph(ops: &[Op], full_visibility: bool) -> Graph<QueueEvent> {
    let mut g: Graph<QueueEvent> = Graph::new();
    let mut state: VecDeque<(i64, EventId)> = VecDeque::new();
    let mut step = 0u64;
    for op in ops {
        let id = g.next_id();
        let logview: BTreeSet<EventId> = if full_visibility {
            (0..=id.raw()).map(EventId::from_raw).collect()
        } else {
            [id].into_iter().collect()
        };
        step += 1;
        match op {
            Op::Insert(v) => {
                g.add_event(QueueEvent::Enq(Val::Int(*v)), 1, step, logview);
                state.push_back((*v, id));
            }
            Op::Remove => match state.pop_front() {
                Some((v, src)) => {
                    // A dequeue must happen-after its enqueue (SO-LHB):
                    // even with thin visibility, include the source's
                    // logview.
                    let mut lv = logview;
                    lv.insert(src);
                    lv.extend(g.event(src).logview.iter());
                    g.add_event(QueueEvent::Deq(Val::Int(v)), 1, step, lv);
                    g.add_so(src, id);
                }
                None => {
                    g.add_event(QueueEvent::EmpDeq, 1, step, logview);
                }
            },
        }
    }
    g
}

fn stack_graph(ops: &[Op], full_visibility: bool) -> Graph<StackEvent> {
    let mut g: Graph<StackEvent> = Graph::new();
    let mut state: Vec<(i64, EventId)> = Vec::new();
    let mut step = 0u64;
    for op in ops {
        let id = g.next_id();
        let logview: BTreeSet<EventId> = if full_visibility {
            (0..=id.raw()).map(EventId::from_raw).collect()
        } else {
            [id].into_iter().collect()
        };
        step += 1;
        match op {
            Op::Insert(v) => {
                g.add_event(StackEvent::Push(Val::Int(*v)), 1, step, logview);
                state.push((*v, id));
            }
            Op::Remove => match state.pop() {
                Some((v, src)) => {
                    let mut lv = logview;
                    lv.insert(src);
                    lv.extend(g.event(src).logview.iter());
                    g.add_event(StackEvent::Pop(Val::Int(v)), 1, step, lv);
                    g.add_so(src, id);
                }
                None => {
                    g.add_event(StackEvent::EmpPop, 1, step, logview);
                }
            },
        }
    }
    g
}

#[test]
fn sequential_queue_histories_are_consistent() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, true);
        assert!(
            check_queue_consistent(&g).is_ok(),
            "seed {seed}: {:?}",
            check_queue_consistent(&g)
        );
        // The identity order is a linearization witness.
        let order = compass::abs::commit_order(&g);
        assert!(
            validate_linearization(&g, &QueueInterp, &order).is_ok(),
            "seed {seed}"
        );
    }
}

#[test]
fn thin_visibility_queue_histories_are_consistent() {
    // Minimal logviews (only so edges) are weaker premises: the
    // conditions must still hold.
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, false);
        assert!(check_queue_consistent(&g).is_ok(), "seed {seed}");
        assert!(
            find_linearization(&g, &QueueInterp, &[]).is_some(),
            "seed {seed}"
        );
    }
}

#[test]
fn sequential_stack_histories_are_consistent() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = stack_graph(&ops, true);
        assert!(
            check_stack_consistent(&g).is_ok(),
            "seed {seed}: {:?}",
            check_stack_consistent(&g)
        );
        let order = compass::abs::commit_order(&g);
        assert!(
            validate_linearization(&g, &StackInterp, &order).is_ok(),
            "seed {seed}"
        );
    }
}

#[test]
fn corrupting_a_dequeue_value_is_caught() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, true);
        // Find a successful dequeue and corrupt its value to a fresh one.
        let victim = g
            .iter()
            .find(|(_, e)| matches!(e.ty, QueueEvent::Deq(_)))
            .map(|(id, _)| id);
        let Some(victim) = victim else { continue };
        let mut events: Vec<_> = g.iter().map(|(_, e)| e.clone()).collect();
        events[victim.index()].ty = QueueEvent::Deq(Val::Int(999));
        let mut g2: Graph<QueueEvent> = Graph::new();
        for e in events {
            g2.add_event(e.ty, e.tid, e.step, e.logview);
        }
        for &(a, b) in g.so() {
            g2.add_so(a, b);
        }
        assert!(check_queue_consistent(&g2).is_err(), "seed {seed}");
    }
}

#[test]
fn dropping_an_so_edge_is_caught() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, true);
        if g.so().is_empty() {
            continue;
        }
        let drop_edge = *g.so().iter().next().unwrap();
        let mut g2: Graph<QueueEvent> = Graph::new();
        for (_, e) in g.iter() {
            g2.add_event(e.ty, e.tid, e.step, e.logview.clone());
        }
        for &(a, b) in g.so() {
            if (a, b) != drop_edge {
                g2.add_so(a, b);
            }
        }
        // The orphaned dequeue violates injectivity (and usually FIFO).
        assert!(check_queue_consistent(&g2).is_err(), "seed {seed}");
    }
}

#[test]
fn linearization_search_is_sound() {
    // Whatever the search returns must validate.
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, false);
        if let Some(order) = find_linearization(&g, &QueueInterp, &[]) {
            assert!(
                validate_linearization(&g, &QueueInterp, &order).is_ok(),
                "seed {seed}"
            );
        }
        let s = stack_graph(&ops, false);
        if let Some(order) = find_linearization(&s, &StackInterp, &[]) {
            assert!(
                validate_linearization(&s, &StackInterp, &order).is_ok(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn prefix_graphs_stay_well_formed() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6375_745f_7074);
        let cut = rng.gen_range(0, 30);
        let g = queue_graph(&ops, true);
        let p = g.prefix_at(cut);
        assert!(p.check_well_formed().is_ok(), "seed {seed} cut {cut}");
        assert!(check_queue_consistent(&p).is_ok(), "seed {seed} cut {cut}");
    }
}

// ---------------------------------------------------------------------
// Reference equivalence: the bitset logview kernels against the
// ordered-set algorithms they replaced, kept here (reading logviews into
// `BTreeSet`s) as executable specifications.
// ---------------------------------------------------------------------

/// The ordered-set formulations of the graph kernels.
mod reference {
    use std::collections::{BTreeSet, HashSet};
    use std::fmt::{Debug, Write as _};

    use compass::conform::{ConformEvent, History};
    use compass::history::SeqInterp;
    use compass::{EventId, Graph, SpecResult, Violation};

    pub type Set = BTreeSet<EventId>;

    /// Every event's logview as an ordered set.
    pub fn logviews<T>(g: &Graph<T>) -> Vec<Set> {
        g.iter()
            .map(|(_, ev)| ev.logview.iter().collect())
            .collect()
    }

    fn lhb(lv: &[Set], e: EventId, d: EventId) -> bool {
        e != d && lv[d.index()].contains(&e)
    }

    pub fn check_well_formed<T>(g: &Graph<T>) -> SpecResult {
        let lv = logviews(g);
        let n = lv.len() as u64;
        for (i, view) in lv.iter().enumerate() {
            let id = EventId::from_raw(i as u64);
            for &e in view {
                if e.raw() >= n {
                    return Err(Violation::new(
                        "WF-LOGVIEW",
                        format!("logview of {id} contains unknown event {e}"),
                        vec![id, e],
                    ));
                }
            }
            if !view.contains(&id) {
                return Err(Violation::new(
                    "WF-SELF",
                    format!("event {id} is not in its own logview"),
                    vec![id],
                ));
            }
            for &e in view {
                if e != id && !lv[e.index()].is_subset(view) {
                    return Err(Violation::new(
                        "WF-CLOSED",
                        format!("logview of {id} contains {e} but not all of {e}'s logview"),
                        vec![id, e],
                    ));
                }
            }
        }
        for &(a, b) in g.so() {
            if a.raw() >= n || b.raw() >= n {
                return Err(Violation::new(
                    "WF-SO",
                    format!("so edge ({a}, {b}) mentions unknown events"),
                    vec![a, b],
                ));
            }
        }
        Ok(())
    }

    pub fn to_dot_flagged<T: Debug>(g: &Graph<T>, name: &str, flagged: &[EventId]) -> String {
        let lv = logviews(g);
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
        for (id, ev) in g.iter() {
            let mark = if flagged.contains(&id) {
                ", style=filled, fillcolor=\"#ffd3d3\", color=red"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {id} [label=\"{id}: {:?}\\nt{} @{}\"{mark}];",
                ev.ty, ev.tid, ev.step
            );
        }
        for &(a, b) in g.so() {
            let _ = writeln!(out, "  {a} -> {b} [color=blue, penwidth=2];");
        }
        for (i, view) in lv.iter().enumerate() {
            let d = EventId::from_raw(i as u64);
            let preds: Vec<EventId> = view
                .iter()
                .copied()
                .filter(|&e| e != d && !(lhb(&lv, d, e) && e > d))
                .collect();
            for &e in &preds {
                let implied = preds.iter().any(|&m| m != e && lhb(&lv, e, m));
                if !implied && !g.so().contains(&(e, d)) {
                    let _ = writeln!(out, "  {e} -> {d} [style=dashed, color=gray40];");
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// `render_failure` without an instruction log.
    pub fn render_failure<T: Debug>(g: &Graph<T>, violation: &Violation) -> String {
        let mut out = String::new();
        out.push_str("════ CONSISTENCY VIOLATION ════\n");
        out.push_str(&format!("{violation}\n\n"));
        out.push_str("── event graph ──\n");
        for (id, ev) in g.iter() {
            let marker = if violation.events.contains(&id) {
                "⚠ "
            } else {
                "  "
            };
            let preds: Set = ev.logview.iter().collect();
            out.push_str(&format!(
                "{marker}{id}: {:?} by t{} @step {} lhb-preds {:?}\n",
                ev.ty,
                ev.tid,
                ev.step,
                preds.iter().filter(|&&e| e != id).collect::<Vec<_>>()
            ));
        }
        out.push_str(&format!("  so: {:?}\n", g.so()));
        out.push_str("\n── graphviz ──\n");
        out.push_str(&to_dot_flagged(g, "violation", &[]));
        out
    }

    pub fn find_linearization<I: SeqInterp>(
        g: &Graph<I::Ev>,
        interp: &I,
        extra: &[(EventId, EventId)],
    ) -> Option<Vec<EventId>> {
        let lv = logviews(g);
        let n = lv.len();
        if n == 0 {
            return Some(Vec::new());
        }
        let mut preds: Vec<Vec<usize>> = lv
            .iter()
            .enumerate()
            .map(|(i, view)| view.iter().map(|e| e.index()).filter(|&e| e != i).collect())
            .collect();
        for &(a, b) in extra {
            preds[b.index()].push(a.index());
        }
        for (i, pred) in preds.iter_mut().enumerate() {
            let me = EventId::from_raw(i as u64);
            pred.retain(|&p| !(lv[p].contains(&me) && p > i));
            pred.sort_unstable();
            pred.dedup();
        }
        let mut done = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut memo: HashSet<(Vec<bool>, I::State)> = HashSet::new();

        #[allow(clippy::too_many_arguments)]
        fn dfs<I: SeqInterp>(
            g: &Graph<I::Ev>,
            interp: &I,
            preds: &[Vec<usize>],
            done: &mut Vec<bool>,
            order: &mut Vec<EventId>,
            state: &I::State,
            memo: &mut HashSet<(Vec<bool>, I::State)>,
        ) -> bool {
            if order.len() == preds.len() {
                return true;
            }
            if !memo.insert((done.clone(), state.clone())) {
                return false;
            }
            for i in 0..preds.len() {
                if done[i] || !preds[i].iter().all(|&p| done[p]) {
                    continue;
                }
                let id = EventId::from_raw(i as u64);
                if let Some(next) = interp.apply(state, &g.event(id).ty) {
                    done[i] = true;
                    order.push(id);
                    if dfs(g, interp, preds, done, order, &next, memo) {
                        return true;
                    }
                    order.pop();
                    done[i] = false;
                }
            }
            false
        }

        let state = I::State::default();
        dfs(g, interp, &preds, &mut done, &mut order, &state, &mut memo).then_some(order)
    }

    pub fn lhb_topological_order<T>(g: &Graph<T>) -> Vec<EventId> {
        let lv = logviews(g);
        let n = lv.len();
        let mut indegree: Vec<usize> = (0..n)
            .map(|i| {
                let id = EventId::from_raw(i as u64);
                lv[i]
                    .iter()
                    .filter(|&&e| e != id && !lv[e.index()].contains(&id))
                    .count()
            })
            .collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            let id = EventId::from_raw(i as u64);
            order.push(id);
            for j in 0..n {
                let jd = EventId::from_raw(j as u64);
                if jd != id && lv[j].contains(&id) && !lv[i].contains(&jd) {
                    indegree[j] -= 1;
                    if indegree[j] == 0 {
                        ready.push(std::cmp::Reverse(j));
                    }
                }
            }
        }
        order
    }

    /// `History::to_graph` over ordered sets.
    pub fn to_graph<E: ConformEvent>(h: &History<E>) -> Graph<E> {
        let mut flat: Vec<_> = h.iter().map(|(tid, t)| (tid, *t)).collect();
        flat.sort_by_key(|&(tid, t)| (t.inv, t.resp, tid));
        let mut g = Graph::new();
        for (i, &(tid, t)) in flat.iter().enumerate() {
            let mut logview: Set = flat[..i]
                .iter()
                .enumerate()
                .filter(|(_, &(_, p))| p.resp < t.inv)
                .map(|(j, _)| EventId::from_raw(j as u64))
                .collect();
            logview.insert(EventId::from_raw(i as u64));
            g.add_event(t.op, tid, i as u64, logview);
        }
        g
    }

    /// `Graph::retain` over ordered sets.
    pub fn retain<T: Clone>(g: &Graph<T>, keep: impl Fn(EventId) -> bool) -> Graph<T> {
        let mut remap: Vec<Option<EventId>> = vec![None; g.len()];
        let mut next = 0u64;
        for (id, _) in g.iter() {
            if keep(id) {
                remap[id.index()] = Some(EventId::from_raw(next));
                next += 1;
            }
        }
        let lv = logviews(g);
        let mut out = Graph::new();
        for (id, ev) in g.iter() {
            if let Some(new_id) = remap[id.index()] {
                let logview: Set = lv[id.index()]
                    .iter()
                    .filter_map(|e| remap.get(e.index()).copied().flatten())
                    .chain(std::iter::once(new_id))
                    .collect();
                out.add_event(ev.ty.clone(), ev.tid, ev.step, logview);
            }
        }
        for &(a, b) in g.so() {
            if let (Some(na), Some(nb)) = (remap[a.index()], remap[b.index()]) {
                out.add_so(na, nb);
            }
        }
        out
    }

    /// `Graph::prefix_at` over ordered sets.
    pub fn prefix_at<T: Clone>(g: &Graph<T>, step: u64) -> Graph<T> {
        let keep = |id: EventId| g.event(id).step < step;
        let lv = logviews(g);
        let mut out = Graph::new();
        for (id, ev) in g.iter().take_while(|(_, e)| e.step < step) {
            let logview: Set = lv[id.index()]
                .iter()
                .copied()
                .filter(|&x| keep(x))
                .collect();
            out.add_event(ev.ty.clone(), ev.tid, ev.step, logview);
        }
        for &(a, b) in g.so() {
            if keep(a) && keep(b) {
                out.add_so(a, b);
            }
        }
        out
    }
}

/// Seeds per reference-equivalence property.
const REF_CASES: u64 = 200;

/// A random interval history over a sequential queue run: operation `k`
/// takes effect at time `2k` (ties when `spread` draws collide) inside an
/// interval of random width, on a random thread; with `corrupt`, one
/// dequeue returns a value nobody enqueued, so some histories do not
/// linearize.
fn interval_history(
    rng: &mut SmallRng,
    ops: usize,
    spread: u64,
    corrupt: bool,
) -> compass::conform::History<QueueEvent> {
    let threads = 1 + rng.gen_index(4);
    let mut rows: Vec<Vec<(QueueEvent, u64, u64)>> = vec![Vec::new(); threads];
    let mut queue: VecDeque<i64> = VecDeque::new();
    let mut next_val = 0i64;
    for k in 0..ops as u64 {
        let at = 2 * k + spread;
        let ev = if rng.gen_bool() || queue.is_empty() && rng.gen_bool() {
            next_val += 1;
            queue.push_back(next_val);
            QueueEvent::Enq(Val::Int(next_val))
        } else {
            match queue.pop_front() {
                Some(v) => QueueEvent::Deq(Val::Int(v)),
                None => QueueEvent::EmpDeq,
            }
        };
        let ev = match ev {
            QueueEvent::Deq(_) if corrupt && rng.gen_index(8) == 0 => QueueEvent::Deq(Val::Int(-1)),
            ev => ev,
        };
        let inv = at - rng.gen_range(0, spread + 1);
        let resp = at + rng.gen_range(0, spread + 1);
        rows[rng.gen_index(threads)].push((ev, inv, resp));
    }
    compass::conform::History::from_tuples(rows)
}

/// A random model-style graph: each commit sees the closure of a random
/// set of earlier events; some commits are helping pairs sharing one
/// logview (mutually lhb-related); matched events get `so` edges. With
/// `corrupt`, one defect is planted (dropped self, a hole in a closed
/// view, an unknown id, or a dangling `so` edge).
fn model_graph(rng: &mut SmallRng, events: usize, corrupt: bool) -> Graph<QueueEvent> {
    let mut g: Graph<QueueEvent> = Graph::new();
    let mut views: Vec<BTreeSet<EventId>> = Vec::new();
    let ty = |rng: &mut SmallRng| match rng.gen_index(3) {
        0 => QueueEvent::Enq(Val::Int(rng.gen_range(0, 4) as i64)),
        1 => QueueEvent::Deq(Val::Int(rng.gen_range(0, 4) as i64)),
        _ => QueueEvent::EmpDeq,
    };
    let mut step = 0;
    while views.len() < events {
        step += 1 + rng.gen_range(0, 2);
        let mut view: BTreeSet<EventId> = BTreeSet::new();
        for earlier in &views {
            if rng.gen_index(3) == 0 {
                view.extend(earlier.iter().copied());
            }
        }
        let first = EventId::from_raw(views.len() as u64);
        let pair = views.len() + 2 <= events && rng.gen_index(5) == 0;
        view.insert(first);
        if pair {
            let second = EventId::from_raw(first.raw() + 1);
            view.insert(second);
            views.push(view.clone());
            views.push(view);
            g.add_event(ty(rng), 1, step, views[first.index()].clone());
            g.add_event(ty(rng), 2, step, views[second.index()].clone());
            g.add_so(first, second);
            if rng.gen_bool() {
                g.add_so(second, first);
            }
        } else {
            views.push(view.clone());
            g.add_event(ty(rng), 1 + rng.gen_index(3), step, view);
            if first.raw() > 0 && rng.gen_index(3) == 0 {
                g.add_so(EventId::from_raw(rng.gen_range(0, first.raw())), first);
            }
        }
    }
    if !corrupt || events == 0 {
        return g;
    }
    let mut so: Vec<(EventId, EventId)> = g.so().iter().copied().collect();
    let victim = rng.gen_index(events);
    match rng.gen_index(4) {
        0 => {
            views[victim].remove(&EventId::from_raw(victim as u64));
        }
        1 => {
            if let Some(&e) = views[victim].iter().next() {
                views[victim].remove(&e);
            }
        }
        2 => {
            for _ in 0..1 + rng.gen_index(2) {
                views[victim].insert(EventId::from_raw((events + rng.gen_index(70)) as u64));
            }
        }
        _ => so.push((
            EventId::from_raw(victim as u64),
            EventId::from_raw(events as u64 + 3),
        )),
    }
    let mut bad: Graph<QueueEvent> = Graph::new();
    for ((_, ev), view) in g.iter().zip(views) {
        bad.add_event(ev.ty, ev.tid, ev.step, view);
    }
    for (a, b) in so {
        bad.add_so(a, b);
    }
    bad
}

/// Whether the graph names an event it does not have (the reference
/// kernels index such ids and panic, so rendering comparisons skip
/// these graphs; the well-formedness comparison keeps them).
fn mentions_unknown<T>(g: &Graph<T>) -> bool {
    let n = g.len() as u64;
    g.iter()
        .any(|(_, ev)| ev.logview.iter().any(|e| e.raw() >= n))
        || g.so().iter().any(|&(a, b)| a.raw() >= n || b.raw() >= n)
}

/// The same events and `so` with another event vocabulary.
fn as_exchanges<T>(g: &Graph<T>) -> Graph<ExchangeEvent> {
    let mut out = Graph::new();
    for (id, ev) in g.iter() {
        let give = Val::Int(id.raw() as i64);
        out.add_event(
            ExchangeEvent { give, got: None },
            ev.tid,
            ev.step,
            &ev.logview,
        );
    }
    for &(a, b) in g.so() {
        out.add_so(a, b);
    }
    out
}

/// Asserts every rewritten kernel agrees with its reference on `g`.
fn assert_kernels_match(g: &Graph<QueueEvent>, what: &str, search: bool) {
    assert_eq!(
        g.check_well_formed(),
        reference::check_well_formed(g),
        "{what}: verdict"
    );
    if mentions_unknown(g) {
        return;
    }
    let flagged: Vec<EventId> = g
        .iter()
        .map(|(id, _)| id)
        .filter(|id| id.raw() % 3 == 1)
        .collect();
    assert_eq!(
        to_dot_flagged(g, "t", &flagged),
        reference::to_dot_flagged(g, "t", &flagged),
        "{what}: dot"
    );
    let violation = Violation::new("X-RULE", "reference check".to_string(), flagged);
    assert_eq!(
        render_failure(g, &violation, &[]),
        reference::render_failure(g, &violation),
        "{what}: report"
    );
    let ex = as_exchanges(g);
    assert_eq!(
        ExchangeEvent::linearize(&ex),
        Some(reference::lhb_topological_order(&ex)),
        "{what}: topological order"
    );
    let keep = |id: EventId| id.raw() % 4 != 2;
    assert_eq!(
        g.retain(|id, _| keep(id)),
        reference::retain(g, keep),
        "{what}: retain"
    );
    if let Some((_, last)) = g.iter().last() {
        let cut = last.step / 2 + 1;
        assert_eq!(
            g.prefix_at(cut),
            reference::prefix_at(g, cut),
            "{what}: prefix"
        );
    }
    if search {
        assert_eq!(
            find_linearization(g, &QueueInterp, &[]),
            reference::find_linearization(g, &QueueInterp, &[]),
            "{what}: linearization"
        );
        let n = g.len() as u64;
        if n >= 2 {
            let extra = [
                (EventId::from_raw(n - 1), EventId::from_raw(0)),
                (EventId::from_raw(1), EventId::from_raw(0)),
            ];
            assert_eq!(
                find_linearization(g, &QueueInterp, &extra),
                reference::find_linearization(g, &QueueInterp, &extra),
                "{what}: linearization with extra edges"
            );
        }
    }
}

#[test]
fn interval_graph_kernels_match_the_ordered_set_reference() {
    for seed in 0..REF_CASES {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7265_665f_6976);
        // Small spreads force timestamp ties; small histories keep the
        // (exponential) reference search cheap, large ones cover
        // multi-word logviews.
        let (ops, search) = if seed % 4 == 0 {
            (60 + rng.gen_index(140), false)
        } else {
            (1 + rng.gen_index(14), true)
        };
        let spread = rng.gen_range(0, 4);
        let h = interval_history(&mut rng, ops, spread, seed % 3 == 0);
        let g = h.to_graph();
        let r = reference::to_graph(&h);
        assert_eq!(
            reference::logviews(&g),
            reference::logviews(&r),
            "seed {seed}: logviews"
        );
        assert_eq!(g, r, "seed {seed}: to_graph");
        assert_kernels_match(&g, &format!("interval seed {seed}"), search);
        let mutators = g.retain(|_, ev| !matches!(ev.ty, QueueEvent::EmpDeq));
        if search {
            assert_eq!(
                find_linearization(&mutators, &QueueInterp, &[]),
                reference::find_linearization(&mutators, &QueueInterp, &[]),
                "seed {seed}: mutator linearization"
            );
            let order = find_linearization(&g, &QueueInterp, &[]);
            if let Some(order) = order {
                validate_linearization(&g, &QueueInterp, &order).unwrap();
            }
        }
    }
}

#[test]
fn model_graph_kernels_match_the_ordered_set_reference() {
    let mut rules = BTreeSet::new();
    for seed in 0..REF_CASES {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7265_665f_6d6f);
        let big = seed % 5 == 0;
        let events = if big {
            64 + rng.gen_index(100)
        } else {
            rng.gen_index(11)
        };
        let g = model_graph(&mut rng, events, seed % 2 == 1);
        if let Err(v) = g.check_well_formed() {
            rules.insert(v.rule);
        }
        assert_kernels_match(&g, &format!("model seed {seed}"), !big);
    }
    // Every well-formedness clause was exercised.
    for rule in ["WF-LOGVIEW", "WF-SELF", "WF-CLOSED", "WF-SO"] {
        assert!(
            rules.contains(rule),
            "no generated graph tripped {rule}: {rules:?}"
        );
    }
}
