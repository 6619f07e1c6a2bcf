//! `native-record`: native structures on two OS threads in a closed
//! loop — each thread issues its next operation when the last one
//! returns — once through the recorder (`native::recorder::run_round`,
//! timestamps and op logs) and once bare, with no checking. The unit is
//! one round; its known answer is conservation: every value put in was
//! taken out during the round or drained after it.
//!
//! The subjects are the Herlihy-Wing queue and the Chase-Lev deque:
//! both free what they take. The Michael-Scott queue and the Treiber
//! stack leak every node they unlink (their epoch shim never reclaims),
//! so a time-bounded run of them would grow its peak RSS with its speed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};

use compass::deque_spec::DequeEvent;
use compass::queue_spec::QueueEvent;
use compass_native::recorder::{run_round, Jitter};
use compass_native::{chase_lev, ConcurrentQueue, HwQueue, Steal, Stealer, Worker};
use orc11::Val;
use railbench::gen::value;
use railbench::spans::{self, span};

use super::{Layers, Pass, Workload};

/// OS threads per round (the container has two cores).
const THREADS: usize = 2;

/// Operations per thread and round.
const OPS: usize = 20_000;

/// Rounds of each kind per structure and pass.
const REPEATS: usize = 5;

/// A native structure under the closed loop.
trait Bag: Sync {
    type Ev: Send + Copy;
    /// A thread's handle on the structure.
    type Local<'a>
    where
        Self: 'a;
    /// A fresh instance for one round.
    fn make() -> Self;
    fn local(&self, index: usize) -> Self::Local<'_>;
    /// One operation — a put when `put`, else a take — and its event
    /// (`None` for a lost steal race, which the drivers do not record).
    fn step(l: &Self::Local<'_>, v: i64, put: bool) -> Option<Self::Ev>;
    fn is_put(e: &Self::Ev) -> bool;
    fn is_take(e: &Self::Ev) -> bool;
    /// Takes everything left after the round; returns how many.
    fn drain(&self) -> u64;
}

impl Bag for HwQueue<i64> {
    type Ev = QueueEvent;
    type Local<'a> = &'a HwQueue<i64>;
    fn make() -> Self {
        HwQueue::new(THREADS * OPS)
    }
    fn local(&self, _index: usize) -> &HwQueue<i64> {
        self
    }
    fn step(q: &&HwQueue<i64>, v: i64, put: bool) -> Option<QueueEvent> {
        Some(if put {
            q.enqueue(v);
            QueueEvent::Enq(Val::Int(v))
        } else {
            q.dequeue()
                .map_or(QueueEvent::EmpDeq, |w| QueueEvent::Deq(Val::Int(w)))
        })
    }
    fn is_put(e: &QueueEvent) -> bool {
        matches!(e, QueueEvent::Enq(_))
    }
    fn is_take(e: &QueueEvent) -> bool {
        matches!(e, QueueEvent::Deq(_))
    }
    fn drain(&self) -> u64 {
        std::iter::from_fn(|| self.dequeue()).count() as u64
    }
}

/// A Chase-Lev deque: thread 0 takes the owner's handle, the others
/// steal.
struct Deque {
    worker: Mutex<Option<Worker<i64>>>,
    stealer: Stealer<i64>,
}

enum DequeHandle {
    Owner(Worker<i64>),
    Thief(Stealer<i64>),
}

impl Bag for Deque {
    type Ev = DequeEvent;
    type Local<'a> = DequeHandle;
    fn make() -> Self {
        let (worker, stealer) = chase_lev(OPS);
        Deque {
            worker: Mutex::new(Some(worker)),
            stealer,
        }
    }
    fn local(&self, index: usize) -> DequeHandle {
        if index == 0 {
            let w = self
                .worker
                .lock()
                .expect("deque handle lock poisoned")
                .take();
            DequeHandle::Owner(w.expect("one owner per round"))
        } else {
            DequeHandle::Thief(self.stealer.clone())
        }
    }
    fn step(h: &DequeHandle, v: i64, put: bool) -> Option<DequeEvent> {
        match h {
            DequeHandle::Owner(w) if put => {
                w.push(v);
                Some(DequeEvent::Push(Val::Int(v)))
            }
            DequeHandle::Owner(w) => Some(
                w.pop()
                    .map_or(DequeEvent::EmpPop, |x| DequeEvent::Pop(Val::Int(x))),
            ),
            DequeHandle::Thief(s) => match s.steal() {
                Steal::Stolen(x) => Some(DequeEvent::Steal(Val::Int(x))),
                Steal::Empty => Some(DequeEvent::EmpSteal),
                Steal::Retry => None,
            },
        }
    }
    fn is_put(e: &DequeEvent) -> bool {
        matches!(e, DequeEvent::Push(_))
    }
    fn is_take(e: &DequeEvent) -> bool {
        matches!(e, DequeEvent::Pop(_) | DequeEvent::Steal(_))
    }
    fn drain(&self) -> u64 {
        let mut n = 0;
        loop {
            match self.stealer.steal() {
                Steal::Stolen(_) => n += 1,
                Steal::Empty => return n,
                Steal::Retry => {}
            }
        }
    }
}

/// One recorded round; returns whether it conserved values.
fn recorded<B: Bag>(seed: u64, layers: Option<&mut Layers>) -> bool {
    let bag = B::make();
    let logs = span("recorder.round", || {
        run_round(THREADS, seed, |ctx, log| {
            let local = bag.local(ctx.index);
            for k in 0..OPS {
                let put = ctx.jitter.chance(1, 2);
                let v = value(ctx.index, k);
                log.record(ctx.clock, || B::step(&local, v, put), |e| *e);
            }
        })
    });
    let ops: Vec<&B::Ev> = logs.iter().flatten().map(|t| &t.op).collect();
    let puts = ops.iter().filter(|e| B::is_put(e)).count() as u64;
    let takes = ops.iter().filter(|e| B::is_take(e)).count() as u64;
    if let Some(l) = layers {
        l.add("recorder.ops", (THREADS * OPS) as f64);
        // The clock starts just before the threads spawn, so the
        // earliest invocation stamp is the spawn-plus-barrier cost.
        let first = logs.iter().filter_map(|l| l.first()).map(|t| t.inv).min();
        l.sample("driver.round_setup_us", first.unwrap_or(0) as f64 / 1e3);
    }
    puts == takes + bag.drain()
}

/// One bare round (same loop, no recorder); returns whether it
/// conserved values.
fn bare<B: Bag>(seed: u64, layers: Option<&mut Layers>) -> bool {
    let bag = B::make();
    let barrier = Barrier::new(THREADS);
    let counts: Vec<(u64, u64)> = span("native.round", || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|index| {
                    let (bag, barrier) = (&bag, &barrier);
                    s.spawn(move || {
                        let mut jitter = Jitter::for_thread(seed, index);
                        let local = bag.local(index);
                        let (mut puts, mut takes) = (0, 0);
                        barrier.wait();
                        for k in 0..OPS {
                            let put = jitter.chance(1, 2);
                            if let Some(e) = B::step(&local, value(index, k), put) {
                                puts += u64::from(B::is_put(&e));
                                takes += u64::from(B::is_take(&e));
                            }
                        }
                        (puts, takes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("native round thread panicked"))
                .collect()
        })
    });
    if let Some(l) = layers {
        l.add("native.ops", (THREADS * OPS) as f64);
    }
    let puts: u64 = counts.iter().map(|c| c.0).sum();
    let takes: u64 = counts.iter().map(|c| c.1).sum();
    puts == takes + bag.drain()
}

/// The `native-record` workload.
pub struct NativeRecord {
    seed: u64,
}

type Round = fn(u64, Option<&mut Layers>) -> bool;

/// The rounds of a pass, in order.
const ROUNDS: [(&str, Round); 4] = [
    ("HwQueue/recorded", recorded::<HwQueue<i64>>),
    ("HwQueue/bare", bare::<HwQueue<i64>>),
    ("ChaseLev/recorded", recorded::<Deque>),
    ("ChaseLev/bare", bare::<Deque>),
];

impl NativeRecord {
    /// Nothing to generate beyond the round seeds; the warm-up unit is
    /// one recorded queue round.
    pub fn setup(seed: u64) -> Result<NativeRecord, String> {
        if !recorded::<HwQueue<i64>>(seed, None) {
            return Err("warm-up round lost or duplicated values".into());
        }
        Ok(NativeRecord { seed })
    }
}

impl Workload for NativeRecord {
    fn describe(&self) -> String {
        format!(
            "{THREADS} threads x {OPS} ops per round, {REPEATS} rounds each of \
             HwQueue/ChaseLev x recorded/bare per pass"
        )
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn pass(&mut self, mut layers: Option<&mut Layers>) -> Pass {
        let mut pass = Pass::default();
        for r in 0..REPEATS {
            for (i, (name, round)) in ROUNDS.iter().enumerate() {
                let unit = (r * ROUNDS.len() + i) as u64;
                spans::set_unit(unit);
                let seed = self
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(unit);
                let ok = pass.unit(|| {
                    catch_unwind(AssertUnwindSafe(|| {
                        span("unit", || round(seed, layers.as_deref_mut()))
                    }))
                });
                pass.events += (THREADS * OPS) as u64;
                pass.verdict(matches!(ok, Ok(true)), || {
                    format!("{name} round {unit}: {ok:?}")
                });
            }
        }
        pass
    }
}
