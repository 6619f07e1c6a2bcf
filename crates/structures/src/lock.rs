//! A test-and-set spinlock on the model, with its own event graph.
//!
//! The lock is both a useful client-side tool (its critical sections make
//! lhb *total* among the operations they protect — the §3.1 "weaker but
//! flexible" discussion: a client that adds enough external
//! synchronization recovers the strong, SC-style conditions) and a small
//! library with a checkable spec of its own:
//!
//! * `LOCK-ALTERNATION`: in commit order, each thread's `Acq` is followed
//!   by its own `Rel` before any other `Acq` commits — critical sections
//!   never overlap;
//! * `LOCK-HB`: each `Acq` happens-after the `Rel` it follows (the lock
//!   transfers views, so resources protected by it are race-free).

use compass::{EventId, Graph, LibObj, SpecResult, Violation};
use orc11::{Loc, Mode, ThreadCtx, ThreadId, Val};

/// Lock events.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum LockEvent {
    /// The lock was acquired.
    Acq,
    /// The lock was released.
    Rel,
}

/// A test-and-set spinlock (see module docs).
#[derive(Debug)]
pub struct SpinLock {
    flag: Loc,
    obj: LibObj<LockEvent>,
}

impl SpinLock {
    /// Allocates an unlocked lock.
    pub fn new(ctx: &mut ThreadCtx) -> Self {
        SpinLock {
            flag: ctx.alloc_atomic("lock.flag", Val::Int(0)),
            obj: LibObj::new("spinlock"),
        }
    }

    /// The lock's library object.
    pub fn obj(&self) -> &LibObj<LockEvent> {
        &self.obj
    }

    /// Acquires the lock, blocking (in model terms) until it is free.
    /// Commit point: the successful acquire CAS.
    pub fn lock(&self, ctx: &mut ThreadCtx) -> EventId {
        loop {
            // Wait until the lock looks free, then race for it.
            ctx.read_await(self.flag, Mode::Relaxed, |v| v == Val::Int(0));
            let (res, ev) = ctx.cas_with(
                self.flag,
                Val::Int(0),
                Val::Int(1),
                Mode::Acquire,
                Mode::Relaxed,
                |r, gh| r.new.is_some().then(|| self.obj.commit(gh, LockEvent::Acq)),
            );
            if res.is_ok() {
                return ev.expect("committed");
            }
        }
    }

    /// Releases the lock. Commit point: the release store.
    ///
    /// # Panics
    ///
    /// The model aborts if called without holding the lock (the store
    /// still executes, but the spec check will flag the alternation).
    pub fn unlock(&self, ctx: &mut ThreadCtx) -> EventId {
        ctx.write_with(self.flag, Val::Int(0), Mode::Release, |gh| {
            self.obj.commit(gh, LockEvent::Rel)
        })
    }

    /// Runs `f` under the lock.
    pub fn with<R>(&self, ctx: &mut ThreadCtx, f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
        self.lock(ctx);
        let r = f(ctx);
        self.unlock(ctx);
        r
    }
}

/// `LockConsistent`: alternation + view transfer (see module docs).
pub fn check_lock_consistent(g: &Graph<LockEvent>) -> SpecResult {
    g.check_well_formed()?;
    let mut holder: Option<(EventId, ThreadId)> = None;
    let mut last_rel: Option<EventId> = None;
    for (id, ev) in g.iter() {
        match ev.ty {
            LockEvent::Acq => {
                if let Some((held, tid)) = holder {
                    return Err(Violation::new(
                        "LOCK-ALTERNATION",
                        format!("{id} acquired while {held} (thread {tid}) still holds the lock"),
                        vec![id, held],
                    ));
                }
                if let Some(rel) = last_rel {
                    if !g.lhb(rel, id) {
                        return Err(Violation::new(
                            "LOCK-HB",
                            format!("{id} does not happen-after the previous release {rel}"),
                            vec![id, rel],
                        ));
                    }
                }
                holder = Some((id, ev.tid));
            }
            LockEvent::Rel => match holder.take() {
                Some((acq, tid)) if tid == ev.tid => {
                    if !g.lhb(acq, id) {
                        return Err(Violation::new(
                            "LOCK-HB",
                            format!("release {id} does not happen-after its acquire {acq}"),
                            vec![id, acq],
                        ));
                    }
                    last_rel = Some(id);
                }
                Some((acq, tid)) => {
                    return Err(Violation::new(
                        "LOCK-ALTERNATION",
                        format!(
                            "{id} (thread {}) released a lock held by {acq} (thread {tid})",
                            ev.tid
                        ),
                        vec![id, acq],
                    ))
                }
                None => {
                    return Err(Violation::new(
                        "LOCK-ALTERNATION",
                        format!("{id} released an unheld lock"),
                        vec![id],
                    ))
                }
            },
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orc11::{random_strategy, run_model, BodyFn, Config};

    #[test]
    fn mutual_exclusion_protects_nonatomics() {
        // A non-atomic counter incremented under the lock: race-free and
        // exact — the canonical mutual-exclusion demonstration.
        for seed in 0..80 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| {
                    let lock = SpinLock::new(ctx);
                    let counter = ctx.alloc("counter", Val::Int(0));
                    (lock, counter)
                },
                (0..3)
                    .map(|_| {
                        Box::new(|ctx: &mut ThreadCtx, (lock, counter): &(SpinLock, Loc)| {
                            lock.with(ctx, |ctx| {
                                let v = ctx.read(*counter, Mode::NonAtomic).expect_int();
                                ctx.write(*counter, Val::Int(v + 1), Mode::NonAtomic);
                            });
                        }) as BodyFn<'_, _, ()>
                    })
                    .collect(),
                |ctx, (lock, counter), _| {
                    check_lock_consistent(&lock.obj().snapshot()).unwrap();
                    ctx.read(*counter, Mode::NonAtomic)
                },
            );
            assert_eq!(
                out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}")),
                Val::Int(3),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn alternation_violation_detected_synthetically() {
        use compass::LogView;
        let mut g: Graph<LockEvent> = Graph::new();
        let lv = |ids: &[u64]| -> LogView { ids.iter().map(|&i| EventId::from_raw(i)).collect() };
        g.add_event(LockEvent::Acq, 1, 1, lv(&[0]));
        g.add_event(LockEvent::Acq, 2, 2, lv(&[1]));
        assert_eq!(
            check_lock_consistent(&g).unwrap_err().rule,
            "LOCK-ALTERNATION"
        );
    }

    #[test]
    fn unsynchronized_acquire_detected_synthetically() {
        use compass::LogView;
        let mut g: Graph<LockEvent> = Graph::new();
        let lv = |ids: &[u64]| -> LogView { ids.iter().map(|&i| EventId::from_raw(i)).collect() };
        g.add_event(LockEvent::Acq, 1, 1, lv(&[0]));
        g.add_event(LockEvent::Rel, 1, 2, lv(&[0, 1]));
        // Second acquire does NOT happen-after the release.
        g.add_event(LockEvent::Acq, 2, 3, lv(&[2]));
        assert_eq!(check_lock_consistent(&g).unwrap_err().rule, "LOCK-HB");
    }
}
