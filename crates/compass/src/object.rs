//! Library objects: shared graphs plus the commit-point API.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use orc11::sync::{Mutex, MutexGuard};

use orc11::{GhostHandle, ThreadCtx};

use crate::event::{logview_from_raw, EventId, LogView};
use crate::graph::Graph;

static NEXT_KEY: AtomicU64 = AtomicU64::new(1);

/// A library object: the shared event graph of one data-structure
/// instance, together with its ghost-view key.
///
/// This plays the role of the paper's *atomically shared ownership*
/// assertion (`Queue(q, G)`, `Stack(s, G)`, `Exchanger(x, G)`): the graph
/// is the abstract state guarded by the (objective) invariant, and
/// [`LibObj::commit`] is the logically atomic update at the commit point.
/// Because the model serializes instructions and `commit` is called from
/// inside a commit window ([`GhostHandle`]), the graph extension is atomic
/// with the memory instruction — the operational content of a logically
/// atomic triple.
///
/// The object's *key* indexes the model's ghost views: a thread's ghost set
/// for the key is its thread-local logical view (the `M₀` of a
/// `SeenQueue(q, G₀, M₀)` assertion), and it is transferred between threads
/// by the model exactly along release/acquire synchronization.
pub struct LibObj<T> {
    key: u64,
    name: String,
    graph: Mutex<Graph<T>>,
}

impl<T> fmt::Debug for LibObj<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LibObj")
            .field("key", &self.key)
            .field("name", &self.name)
            .finish()
    }
}

impl<T> LibObj<T> {
    /// Creates a fresh object with an empty graph and a globally unique
    /// ghost key.
    pub fn new(name: &str) -> Self {
        LibObj {
            key: NEXT_KEY.fetch_add(1, Ordering::Relaxed),
            name: name.to_string(),
            graph: Mutex::new(Graph::new()),
        }
    }

    /// The object's ghost-view key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The object's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Locks and returns the graph.
    ///
    /// Safe to call from commit windows (the model's step lock already
    /// serializes them) and from the finish phase.
    pub fn graph(&self) -> MutexGuard<'_, Graph<T>> {
        self.graph.lock()
    }

    /// A clone of the current graph.
    pub fn snapshot(&self) -> Graph<T>
    where
        T: Clone,
    {
        self.graph.lock().clone()
    }

    /// The calling thread's logical view of this object (its `M₀`).
    pub fn seen(&self, ctx: &ThreadCtx) -> LogView {
        logview_from_raw(&ctx.ghost(self.key))
    }

    /// Commits one event at the current commit window.
    ///
    /// The event's logical view is the committing thread's ghost set for
    /// this object — everything that happens-before the commit — plus the
    /// event itself; the event is then added to the thread's ghost set so
    /// that it is released on the message the enclosing instruction
    /// publishes (write/RMW windows) and appears in the thread's later
    /// logical views.
    pub fn commit(&self, gh: &mut GhostHandle<'_>, ty: T) -> EventId {
        let mut g = self.graph.lock();
        let id = g.next_id();
        let mut logview = logview_from_raw(&gh.ghost(self.key));
        logview.insert(id);
        g.push_event(ty, gh.tid(), gh.step_index(), logview);
        gh.ghost_add(self.key, id.raw());
        id
    }

    /// Commits an event on behalf of another thread (helping with a
    /// *split* commit — used by deliberately buggy implementations; a
    /// correct helper uses [`LibObj::commit_pair`]).
    pub fn commit_as(&self, gh: &mut GhostHandle<'_>, tid: orc11::ThreadId, ty: T) -> EventId {
        let mut g = self.graph.lock();
        let id = g.next_id();
        let mut logview = logview_from_raw(&gh.ghost(self.key));
        logview.insert(id);
        g.push_event(ty, tid, gh.step_index(), logview);
        gh.ghost_add(self.key, id.raw());
        id
    }

    /// Commits a matched event: like [`LibObj::commit`], plus an `so` edge
    /// from `source` (e.g. the enqueue a dequeue takes its value from).
    pub fn commit_matched(&self, gh: &mut GhostHandle<'_>, ty: T, source: EventId) -> EventId {
        let mut g = self.graph.lock();
        let id = g.next_id();
        let mut logview = logview_from_raw(&gh.ghost(self.key));
        logview.insert(id);
        g.push_event(ty, gh.tid(), gh.step_index(), logview);
        g.add_so(source, id);
        gh.ghost_add(self.key, id.raw());
        id
    }

    /// Commits a *helping pair* atomically (§4.2): the helper's single
    /// commit instruction performs the helpee's commit and then its own.
    ///
    /// Both events share the same logical view `M' = M ∪ {e₁, e₂}` (as in
    /// the paper's HB-EXCHANGE, where the completed graph has
    /// `G(e₁).logview = G(e₂).logview = M'`), and both share the step index
    /// of the helper's instruction — no other operation can observe the
    /// intermediate state between the two commits.
    ///
    /// Each side is given as `(tid, type)` — the first is the helpee's
    /// event, the second the helper's (committed by the calling thread on
    /// the helpee's behalf, so the tids need not be the caller's).
    /// `so_edges` lists edges among the pair as `(from, to)` indices into
    /// `[first, second]` — e.g. `&[(0, 1), (1, 0)]` for the exchanger's
    /// symmetric so, or `&[(0, 1)]` for an elimination push→pop edge.
    ///
    /// Returns `(first_id, second_id)`.
    pub fn commit_pair(
        &self,
        gh: &mut GhostHandle<'_>,
        first: (orc11::ThreadId, T),
        second: (orc11::ThreadId, T),
        so_edges: &[(usize, usize)],
    ) -> (EventId, EventId) {
        let mut g = self.graph.lock();
        let e1 = g.next_id();
        let e2 = EventId::from_raw(e1.raw() + 1);
        let mut logview = logview_from_raw(&gh.ghost(self.key));
        logview.insert(e1);
        logview.insert(e2);
        let step = gh.step_index();
        g.push_event(first.1, first.0, step, logview.clone());
        g.push_event(second.1, second.0, step, logview);
        let pick = |i: usize| if i == 0 { e1 } else { e2 };
        for &(a, b) in so_edges {
            g.add_so(pick(a), pick(b));
        }
        gh.ghost_add(self.key, e1.raw());
        gh.ghost_add(self.key, e2.raw());
        (e1, e2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orc11::{random_strategy, run_model, BodyFn, Config, Loc, Mode, Val};

    #[test]
    fn keys_are_unique() {
        let a: LibObj<()> = LibObj::new("a");
        let b: LibObj<()> = LibObj::new("b");
        assert_ne!(a.key(), b.key());
        assert_eq!(a.name(), "a");
    }

    #[test]
    fn commit_inside_release_write_flows_to_acquirer() {
        let out = run_model(
            &Config::default(),
            random_strategy(1),
            |ctx| {
                let flag = ctx.alloc("flag", Val::Int(0));
                (flag, LibObj::<&'static str>::new("q"))
            },
            vec![
                Box::new(
                    |ctx: &mut orc11::ThreadCtx, (flag, obj): &(Loc, LibObj<&str>)| {
                        ctx.write_with(*flag, Val::Int(1), Mode::Release, |gh| {
                            obj.commit(gh, "enq");
                        });
                        LogView::new()
                    },
                ) as BodyFn<'_, _, LogView>,
                Box::new(
                    |ctx: &mut orc11::ThreadCtx, (flag, obj): &(Loc, LibObj<&str>)| {
                        ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                        obj.seen(ctx)
                    },
                ),
            ],
            |_, (_, obj), outs| {
                let g = obj.snapshot();
                g.check_well_formed().unwrap();
                assert_eq!(g.len(), 1);
                // The acquiring thread has the event in its logical view.
                assert!(outs[1].contains(EventId::from_raw(0)));
                g.event(EventId::from_raw(0)).ty
            },
        );
        assert_eq!(out.result.unwrap(), "enq");
    }

    #[test]
    fn commit_logview_contains_self_and_priors() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| {
                let l = ctx.alloc("x", Val::Int(0));
                (l, LibObj::<u32>::new("s"))
            },
            vec![Box::new(
                |ctx: &mut orc11::ThreadCtx, (l, obj): &(Loc, LibObj<u32>)| {
                    ctx.write_with(*l, Val::Int(1), Mode::Release, |gh| {
                        obj.commit(gh, 1);
                    });
                    ctx.write_with(*l, Val::Int(2), Mode::Release, |gh| {
                        obj.commit(gh, 2);
                    });
                },
            ) as BodyFn<'_, _, ()>],
            |_, (_, obj), _| {
                let g = obj.snapshot();
                g.check_well_formed().unwrap();
                // po: first event is in the logview of the second.
                assert!(g.lhb(EventId::from_raw(0), EventId::from_raw(1)));
                assert!(!g.lhb(EventId::from_raw(1), EventId::from_raw(0)));
                g.len()
            },
        );
        assert_eq!(out.result.unwrap(), 2);
    }

    #[test]
    fn commit_pair_is_atomic_and_symmetric() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| {
                let l = ctx.alloc("slot", Val::Int(0));
                (l, LibObj::<&'static str>::new("x"))
            },
            vec![Box::new(
                |ctx: &mut orc11::ThreadCtx, (l, obj): &(Loc, LibObj<&str>)| {
                    let _ = ctx.cas_with(
                        *l,
                        Val::Int(0),
                        Val::Int(1),
                        Mode::AcqRel,
                        Mode::Relaxed,
                        |res, gh| {
                            assert!(res.new.is_some());
                            let helper_tid = gh.tid();
                            obj.commit_pair(
                                gh,
                                (7, "helpee"),
                                (helper_tid, "helper"),
                                &[(0, 1), (1, 0)],
                            );
                        },
                    );
                },
            ) as BodyFn<'_, _, ()>],
            |_, (_, obj), _| {
                let g = obj.snapshot();
                g.check_well_formed().unwrap();
                let (a, b) = (EventId::from_raw(0), EventId::from_raw(1));
                assert_eq!(g.event(a).step, g.event(b).step);
                assert_eq!(g.event(a).tid, 7);
                assert!(g.so().contains(&(a, b)) && g.so().contains(&(b, a)));
                // Mutual logviews.
                assert!(g.event(a).logview.contains(b));
                assert!(g.event(b).logview.contains(a));
                g.len()
            },
        );
        assert_eq!(out.result.unwrap(), 2);
    }
}
