//! Seeded generation of runtime-rail histories.
//!
//! A generated history stands in for a recorded native round: same
//! event vocabularies, same distinct-values discipline
//! (`(thread+1)*1_000_000 + k`), same `history.txt` rendering, but its
//! shape, its check cost and its verdict are a pure function of the
//! seed. Generation has two phases:
//!
//! 1. **Timing skeleton.** Each logical thread alternates "think" gaps
//!    and operation intervals `[inv, resp]`; each operation gets a
//!    linearization point `lin` inside its interval. The mean think time
//!    ([`Shape`]) against a fixed mean duration sets the *overlap* — the
//!    mean number of other operations whose interval intersects an
//!    operation's interval — which is what decides the cost of the
//!    linearization search. The presets are calibrated to recorded
//!    native rounds (see the tests).
//! 2. **Semantic fill.** Operations are visited in `lin` order and run
//!    against the library's sequential semantics (a FIFO, a LIFO, a
//!    work-stealing deque, a TML store with a global version lock), so
//!    the history is linearizable by construction and every staged
//!    conformance check returns `Ok`.
//!
//! [`mutate`] then seeds one violation with a known clause into a clean
//! history, for the known-answer checks and the forensics workload.

use compass::conform::ConformEvent;
use compass::deque_spec::DequeEvent;
use compass::queue_spec::QueueEvent;
use compass::stack_spec::StackEvent;
use compass::stm_spec::StmEvent;
use compass_native::recorder::Jitter;
use orc11::Val;

/// Mean operation duration, in clock ticks. Overlap is calibrated by
/// [`Shape::think`] against this fixed scale.
const DUR: u64 = 100;

/// The shape of a generated history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Logical threads.
    pub threads: usize,
    /// Operations (events) per thread.
    pub ops_per_thread: usize,
    /// Mean think time between a thread's operations, in clock ticks.
    pub think: u64,
}

impl Shape {
    /// A two-thread shape with overlap in the 0.3–0.8 band measured on
    /// recorded two-thread MsQueue/Treiber/Tml rounds.
    pub fn two_threads(ops_per_thread: usize) -> Shape {
        Shape {
            threads: 2,
            ops_per_thread,
            think: 360,
        }
    }

    /// A four-thread shape with overlap in the 1.3–1.5 band measured on
    /// recorded four-thread Tml rounds.
    pub fn four_threads(ops_per_thread: usize) -> Shape {
        Shape {
            threads: 4,
            ops_per_thread,
            think: 330,
        }
    }
}

/// A library family the generator covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// FIFO queue (`QueueEvent`, checked by `check_conform_queue`).
    Queue,
    /// LIFO stack (`StackEvent`).
    Stack,
    /// Chase-Lev work-stealing deque (`DequeEvent`); thread 1 owns it.
    Deque,
    /// TML software transactional memory (`StmEvent`).
    Stm,
}

impl Family {
    /// Short lower-case name (metric suffixes, bundle names).
    pub fn name(self) -> &'static str {
        match self {
            Family::Queue => "queue",
            Family::Stack => "stack",
            Family::Deque => "deque",
            Family::Stm => "stm",
        }
    }
}

/// Per-thread `(op, inv, resp)` rows: the input of
/// [`compass::conform::History::from_tuples`], kept open so [`mutate`] can edit it.
pub type Rows<E> = Vec<Vec<(E, u64, u64)>>;

/// One operation slot of the timing skeleton.
#[derive(Clone, Copy, Debug)]
struct Slot {
    inv: u64,
    lin: u64,
    resp: u64,
}

/// A draw in `1..=2*mean-1` (mean `mean`), or 1 for `mean <= 1`.
fn around(rng: &mut Jitter, mean: u64) -> u64 {
    if mean <= 1 {
        1
    } else {
        1 + rng.below(2 * mean - 1)
    }
}

/// Phase 1: per-thread interval slots plus the global linearization
/// order `(thread index, slot index)`. Every slot's `lin` lies inside
/// its interval and a thread's slots are disjoint and increasing, so
/// `resp(a) < inv(b)` implies `lin(a) < lin(b)`: visiting slots in
/// `lin` order respects the real-time interval order.
fn skeleton(rng: &mut Jitter, shape: &Shape) -> (Vec<Vec<Slot>>, Vec<(usize, usize)>) {
    let mut slots = Vec::with_capacity(shape.threads);
    for _ in 0..shape.threads {
        let mut t = rng.below(shape.think.max(1) * 2);
        let mut mine = Vec::with_capacity(shape.ops_per_thread);
        for _ in 0..shape.ops_per_thread {
            let d = around(rng, DUR);
            let inv = t;
            let resp = inv + d;
            let lin = inv + rng.below(d + 1);
            mine.push(Slot { inv, lin, resp });
            t = resp + around(rng, shape.think);
        }
        slots.push(mine);
    }
    let mut order: Vec<(usize, usize)> = slots
        .iter()
        .enumerate()
        .flat_map(|(t, s)| (0..s.len()).map(move |i| (t, i)))
        .collect();
    order.sort_by_key(|&(t, i)| (slots[t][i].lin, t));
    (slots, order)
}

/// The distinct value thread `index` produces as its `k`-th value (the
/// native drivers' convention).
pub fn value(index: usize, k: usize) -> i64 {
    (index as i64 + 1) * 1_000_000 + k as i64
}

/// Phase 2 driver: visits the skeleton in `lin` order, asking `fill`
/// for each slot's event given `(rng, thread index)`.
fn fill<E>(seed: u64, shape: &Shape, mut fill: impl FnMut(&mut Jitter, usize) -> E) -> Rows<E> {
    let mut rng = Jitter::seed(seed);
    let (slots, order) = skeleton(&mut rng, shape);
    let mut ops: Vec<Vec<Option<E>>> = slots
        .iter()
        .map(|s| (0..s.len()).map(|_| None).collect())
        .collect();
    for (t, i) in order {
        ops[t][i] = Some(fill(&mut rng, t));
    }
    slots
        .iter()
        .zip(ops)
        .map(|(s, o)| {
            s.iter()
                .zip(o)
                .map(|(slot, e)| (e.expect("every slot filled"), slot.inv, slot.resp))
                .collect()
        })
        .collect()
}

/// A clean FIFO-queue history: half enqueues, half dequeues.
pub fn queue_rows(seed: u64, shape: &Shape) -> Rows<QueueEvent> {
    let mut q = std::collections::VecDeque::new();
    let mut produced = vec![0usize; shape.threads];
    fill(seed, shape, |rng, t| {
        if rng.chance(1, 2) {
            let v = value(t, produced[t]);
            produced[t] += 1;
            q.push_back(v);
            QueueEvent::Enq(Val::Int(v))
        } else {
            match q.pop_front() {
                Some(v) => QueueEvent::Deq(Val::Int(v)),
                None => QueueEvent::EmpDeq,
            }
        }
    })
}

/// A clean LIFO-stack history: half pushes, half pops.
pub fn stack_rows(seed: u64, shape: &Shape) -> Rows<StackEvent> {
    let mut s = Vec::new();
    let mut produced = vec![0usize; shape.threads];
    fill(seed, shape, |rng, t| {
        if rng.chance(1, 2) {
            let v = value(t, produced[t]);
            produced[t] += 1;
            s.push(v);
            StackEvent::Push(Val::Int(v))
        } else {
            match s.pop() {
                Some(v) => StackEvent::Pop(Val::Int(v)),
                None => StackEvent::EmpPop,
            }
        }
    })
}

/// A clean work-stealing-deque history: thread 1 (index 0) owns the
/// deque and pushes or pops at the bottom; every other thread steals
/// from the top.
pub fn deque_rows(seed: u64, shape: &Shape) -> Rows<DequeEvent> {
    let mut d = std::collections::VecDeque::new();
    let mut produced = 0usize;
    fill(seed, shape, |rng, t| {
        if t == 0 {
            if rng.chance(1, 2) {
                let v = value(0, produced);
                produced += 1;
                d.push_back(v);
                DequeEvent::Push(Val::Int(v))
            } else {
                match d.pop_back() {
                    Some(v) => DequeEvent::Pop(Val::Int(v)),
                    None => DequeEvent::EmpPop,
                }
            }
        } else {
            match d.pop_front() {
                Some(v) => DequeEvent::Steal(Val::Int(v)),
                None => DequeEvent::EmpSteal,
            }
        }
    })
}

/// Keys of the generated TML store (the native drivers use `Tml::new(4)`).
const STM_KEYS: u64 = 4;

/// One logical thread's transaction in flight.
#[derive(Clone, Copy, Debug)]
struct Txn {
    tx: i64,
    begin_ver: i64,
    /// Read/write steps left before the commit.
    steps_left: u64,
    /// Steps left when the write happens (`None`: read-only).
    write_at: Option<u64>,
    locked: bool,
}

/// A clean TML history. Each thread runs transactions of 2–3 read/write
/// steps (about half of them writing once, at a random step) framed by a
/// begin and a commit — the native driver's shape — every step its own
/// event. The sequential semantics is TML's: a global version, even
/// when unlocked; a writer takes the lock by moving it from its begin
/// version to the next odd one, writes eagerly, and publishes `begin +
/// 2` at commit; unlocked reads validate that the version is still the
/// begin version and abort otherwise; a write that cannot take the lock
/// aborts. A begin while a writer holds the lock observes the version
/// before the lock (the native begin waits for it to be released).
pub fn stm_rows(seed: u64, shape: &Shape) -> Rows<StmEvent> {
    let mut ver: i64 = 0;
    let mut store = [0i64; STM_KEYS as usize];
    let mut txns: Vec<Option<Txn>> = vec![None; shape.threads];
    let mut started = vec![0usize; shape.threads];
    fill(seed, shape, |rng, t| {
        let Some(mut txn) = txns[t] else {
            let tx = value(t, started[t]);
            started[t] += 1;
            let steps = 2 + rng.below(2);
            let write_at = rng.chance(1, 2).then(|| 1 + rng.below(steps));
            let begin_ver = ver & !1;
            txns[t] = Some(Txn {
                tx,
                begin_ver,
                steps_left: steps,
                write_at,
                locked: false,
            });
            return StmEvent::Begin { tx, ver: begin_ver };
        };
        let tx = txn.tx;
        if txn.steps_left == 0 {
            txns[t] = None;
            return if txn.locked {
                ver = txn.begin_ver + 2;
                StmEvent::Commit { tx, ver }
            } else {
                StmEvent::Commit {
                    tx,
                    ver: txn.begin_ver,
                }
            };
        }
        let key = rng.below(STM_KEYS);
        let writing = txn.write_at == Some(txn.steps_left);
        txn.steps_left -= 1;
        let event = if writing {
            if !txn.locked && ver == txn.begin_ver {
                ver += 1;
                txn.locked = true;
            }
            if txn.locked {
                let v = txn.tx;
                store[key as usize] = v;
                StmEvent::Write {
                    tx,
                    key: key as i64,
                    v: Val::Int(v),
                }
            } else {
                StmEvent::Abort { tx }
            }
        } else if txn.locked || ver == txn.begin_ver {
            StmEvent::Read {
                tx,
                key: key as i64,
                v: Val::Int(store[key as usize]),
            }
        } else {
            StmEvent::Abort { tx }
        };
        txns[t] = if matches!(event, StmEvent::Abort { .. }) {
            None
        } else {
            Some(txn)
        };
        event
    })
}

/// Mean number of *other* operations whose interval intersects an
/// operation's interval (touching intervals count: the conformance
/// graph treats `resp(a) == inv(b)` as concurrent).
pub fn overlap<E>(rows: &Rows<E>) -> f64 {
    let flat: Vec<(u64, u64)> = rows
        .iter()
        .flat_map(|r| r.iter().map(|&(_, inv, resp)| (inv, resp)))
        .collect();
    if flat.is_empty() {
        return 0.0;
    }
    let mut sorted = flat.clone();
    sorted.sort_unstable();
    let mut pairs = 0u64;
    for (i, &(_, resp)) in sorted.iter().enumerate() {
        // Later-starting intervals that start no later than we end.
        pairs += sorted[i + 1..]
            .iter()
            .take_while(|&&(inv2, _)| inv2 <= resp)
            .count() as u64;
    }
    2.0 * pairs as f64 / flat.len() as f64
}

/// Seeds one violation into clean rows, choosing the victim with `seed`,
/// and returns the broken rows with the clause they must fail:
///
/// * queue / stack / deque — a value that was taken once is taken a
///   second time, by an extra logical thread over the same interval
///   (`CONFORM-{QUEUE,STACK,DEQUE}-DUP`; a deque duplicates a steal,
///   since a second thread popping would trip the owner clause first);
/// * STM — a read of a committed transaction returns a value no
///   transaction ever wrote: `CONFORM-STM-RO` for a read-only
///   transaction, `CONFORM-STM-SER` for a writer.
///
/// Returns `None` when the history has no candidate victim.
pub fn mutate<E: Mutable>(seed: u64, rows: &Rows<E>) -> Option<(Rows<E>, &'static str)> {
    let mut rng = Jitter::seed(seed ^ 0x6d75_7461_7465);
    E::mutate(&mut rng, rows)
}

/// An event vocabulary [`mutate`] knows how to break.
pub trait Mutable: ConformEvent {
    /// See [`mutate`].
    fn mutate(rng: &mut Jitter, rows: &Rows<Self>) -> Option<(Rows<Self>, &'static str)>;
}

/// Picks one of the `(thread, index)` positions whose op satisfies
/// `pick`.
fn choose<E>(
    rng: &mut Jitter,
    rows: &Rows<E>,
    pick: impl Fn(&E) -> bool,
) -> Option<(usize, usize)> {
    let hits: Vec<(usize, usize)> = rows
        .iter()
        .enumerate()
        .flat_map(|(t, r)| r.iter().enumerate().map(move |(i, row)| (t, i, row)))
        .filter(|(_, _, row)| pick(&row.0))
        .map(|(t, i, _)| (t, i))
        .collect();
    if hits.is_empty() {
        None
    } else {
        Some(hits[rng.below(hits.len() as u64) as usize])
    }
}

/// The duplicated-take mutation shared by the container families.
fn duplicate_take<E: Copy>(
    rng: &mut Jitter,
    rows: &Rows<E>,
    is_take: impl Fn(&E) -> bool,
    rule: &'static str,
) -> Option<(Rows<E>, &'static str)> {
    let (t, i) = choose(rng, rows, is_take)?;
    let mut out = rows.clone();
    out.push(vec![rows[t][i]]);
    Some((out, rule))
}

impl Mutable for QueueEvent {
    fn mutate(rng: &mut Jitter, rows: &Rows<Self>) -> Option<(Rows<Self>, &'static str)> {
        duplicate_take(
            rng,
            rows,
            |e| matches!(e, QueueEvent::Deq(_)),
            "CONFORM-QUEUE-DUP",
        )
    }
}

impl Mutable for StackEvent {
    fn mutate(rng: &mut Jitter, rows: &Rows<Self>) -> Option<(Rows<Self>, &'static str)> {
        duplicate_take(
            rng,
            rows,
            |e| matches!(e, StackEvent::Pop(_)),
            "CONFORM-STACK-DUP",
        )
    }
}

impl Mutable for DequeEvent {
    fn mutate(rng: &mut Jitter, rows: &Rows<Self>) -> Option<(Rows<Self>, &'static str)> {
        duplicate_take(
            rng,
            rows,
            |e| matches!(e, DequeEvent::Steal(_)),
            "CONFORM-DEQUE-DUP",
        )
    }
}

impl Mutable for StmEvent {
    fn mutate(rng: &mut Jitter, rows: &Rows<Self>) -> Option<(Rows<Self>, &'static str)> {
        // Committed transactions, and which of them wrote.
        let mut committed = std::collections::BTreeMap::new();
        for r in rows {
            let mut wrote = std::collections::BTreeSet::new();
            for &(e, _, _) in r {
                match e {
                    StmEvent::Write { tx, .. } => {
                        wrote.insert(tx);
                    }
                    StmEvent::Commit { tx, .. } => {
                        committed.insert(tx, wrote.contains(&tx));
                    }
                    _ => {}
                }
            }
        }
        let (t, i) = choose(
            rng,
            rows,
            |e| matches!(e, StmEvent::Read { tx, .. } if committed.contains_key(tx)),
        )?;
        let mut out = rows.clone();
        let StmEvent::Read { tx, key, .. } = out[t][i].0 else {
            unreachable!("choose picked a read");
        };
        out[t][i].0 = StmEvent::Read {
            tx,
            key,
            v: Val::Int(-1),
        };
        let rule = if committed[&tx] {
            "CONFORM-STM-SER"
        } else {
            "CONFORM-STM-RO"
        };
        Some((out, rule))
    }
}
