//! Abstract-state checks (`LAT_hb^abs`, §3.1, and the commit-order replay
//! argument of §3.2).
//!
//! An implementation satisfies a `LAT_hb^abs`-style spec when the abstract
//! state `vs` can be *constructed at the commit points*: the commit order
//! itself must be a valid sequential history. The Michael-Scott queue
//! (release/acquire) satisfies this; the relaxed Herlihy-Wing queue does
//! not in general — its commit order may interleave in a way no sequential
//! queue allows, which is exactly why the paper verifies it against the
//! weaker `LAT_hb` specs (§3.2). [`replay_commit_order`] makes that
//! distinction *measurable* on executions (experiment E2 of `DESIGN.md`).

use crate::event::EventId;
use crate::graph::Graph;
use crate::history::SeqInterp;
use crate::spec::Violation;

/// Replays the graph's *state-changing* events in commit order (event-id
/// order, which is the order commits entered the shared graph) through the
/// sequential interpretation.
///
/// Read-only events ([`SeqInterp::read_only`], e.g. empty dequeues) are
/// skipped: the paper's abs-style specs give no facts about the abstract
/// state for read-only operations (§2.3) — those are governed by the graph
/// conditions (QUEUE-EMPDEQ) instead.
///
/// `Ok(final_state)` means the commit order is itself a valid sequential
/// history of the mutators — the implementation could have constructed the
/// abstract state at its commit points, i.e. it satisfies the
/// `LAT_hb^abs` style.
pub fn replay_commit_order<I: SeqInterp>(
    g: &Graph<I::Ev>,
    interp: &I,
) -> Result<I::State, Violation>
where
    I::Ev: std::fmt::Debug,
{
    let mut st = I::State::default();
    for (id, ev) in g.iter() {
        if interp.read_only(&ev.ty) {
            continue;
        }
        match interp.apply(&st, &ev.ty) {
            Some(next) => st = next,
            None => {
                return Err(Violation::new(
                    "ABS-COMMIT-ORDER",
                    format!(
                        "event {id} ({:?}) is not sequentially enabled at its commit point \
                         (state {st:?})",
                        ev.ty
                    ),
                    vec![id],
                ))
            }
        }
    }
    Ok(st)
}

/// Convenience: `true` iff the commit order replays successfully.
pub fn commit_order_is_linearization<I: SeqInterp>(g: &Graph<I::Ev>, interp: &I) -> bool
where
    I::Ev: std::fmt::Debug,
{
    replay_commit_order(g, interp).is_ok()
}

/// The commit order as a vector of event ids (useful as a linearization
/// witness for [`crate::history::validate_linearization`]).
pub fn commit_order<T>(g: &Graph<T>) -> Vec<EventId> {
    g.iter().map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogView;
    use crate::history::{QueueInterp, StackInterp};
    use crate::queue_spec::QueueEvent::{Deq, EmpDeq, Enq};
    use crate::stack_spec::StackEvent::{Pop, Push};
    use orc11::Val;

    fn id(i: u64) -> EventId {
        EventId::from_raw(i)
    }

    fn graph<T: Copy>(events: &[T]) -> Graph<T> {
        let mut g = Graph::new();
        for (i, ty) in events.iter().enumerate() {
            let lv: LogView = [id(i as u64)].into_iter().collect();
            g.add_event(*ty, 1, i as u64, lv);
        }
        g
    }

    #[test]
    fn fifo_commit_order_replays() {
        let g = graph(&[
            Enq(Val::Int(1)),
            Enq(Val::Int(2)),
            Deq(Val::Int(1)),
            Deq(Val::Int(2)),
            EmpDeq,
        ]);
        let st = replay_commit_order(&g, &QueueInterp).unwrap();
        assert!(st.is_empty());
    }

    #[test]
    fn out_of_order_commit_fails_abs() {
        // Dequeue committed before the matching enqueue's commit: the
        // abstract state cannot be constructed at commit points, even if a
        // reordered linearization exists.
        let g = graph(&[Deq(Val::Int(1)), Enq(Val::Int(1))]);
        let err = replay_commit_order(&g, &QueueInterp).unwrap_err();
        assert_eq!(err.rule, "ABS-COMMIT-ORDER");
        assert!(!commit_order_is_linearization(&g, &QueueInterp));
        // ...but the LAT_hb^hist search does find a reordering:
        assert!(crate::history::find_linearization(&g, &QueueInterp, &[]).is_some());
    }

    #[test]
    fn stack_commit_order() {
        let g = graph(&[Push(Val::Int(1)), Push(Val::Int(2)), Pop(Val::Int(2))]);
        let st = replay_commit_order(&g, &StackInterp).unwrap();
        assert_eq!(st, vec![Val::Int(1)]);
    }

    #[test]
    fn commit_order_witness() {
        let g = graph(&[Enq(Val::Int(1)), Deq(Val::Int(1))]);
        let order = commit_order(&g);
        assert_eq!(order, vec![id(0), id(1)]);
        crate::history::validate_linearization(&g, &QueueInterp, &order).unwrap();
    }
}
