//! P3 — checking throughput: model executions per second per structure,
//! and the cost of the `LAT_hb^hist` linearization search as histories
//! grow.

use compass::history::{find_linearization, QueueInterp};
use compass::queue_spec::QueueEvent;
use compass::{EventId, Graph};
use compass_bench::timing::Group;
use compass_bench::workloads::{deque_stats, elim_stats, queue_spec_stats, treiber_hist_stats};
use compass_structures::queue::{HwQueue, MsQueue};
use orc11::Val;

const SAMPLES: u64 = 10;

fn bench_model_checking() {
    let mut group = Group::new("p3_model_checking", SAMPLES);
    group.warmup(2);
    const RUNS: u64 = 10;
    group.throughput(RUNS);
    let mut seed = 0;
    group.bench("ms-queue/run+check", || {
        let s = queue_spec_stats(MsQueue::new, seed..seed + RUNS);
        seed += RUNS;
        s
    });
    let mut seed = 0;
    group.bench("hw-queue/run+check", || {
        let s = queue_spec_stats(|ctx| HwQueue::new(ctx, 8), seed..seed + RUNS);
        seed += RUNS;
        s
    });
    let mut seed = 0;
    group.bench("treiber/run+check", || {
        let s = treiber_hist_stats(seed..seed + RUNS);
        seed += RUNS;
        s
    });
    let mut seed = 0;
    group.bench("chase-lev/run+check", || {
        let s = deque_stats(seed..seed + RUNS);
        seed += RUNS;
        s
    });
    let mut seed = 0;
    group.bench("elim-stack/run+check", || {
        let s = elim_stats(seed..seed + RUNS, 3);
        seed += RUNS;
        s
    });
    group.finish();
}

/// A worst-ish-case history for the search: n concurrent enqueues (no
/// lhb) followed by n matched dequeues.
fn synthetic_history(n: usize) -> Graph<QueueEvent> {
    let mut g = Graph::new();
    for i in 0..n {
        let id = EventId::from_raw(i as u64);
        g.add_event(QueueEvent::Enq(Val::Int(i as i64)), 1, i as u64, [id]);
    }
    for i in 0..n {
        let id = EventId::from_raw((n + i) as u64);
        let src = EventId::from_raw(i as u64);
        g.add_event(
            QueueEvent::Deq(Val::Int(i as i64)),
            2,
            (n + i) as u64,
            [src, id],
        );
        g.add_so(src, id);
    }
    g
}

fn bench_linearization_search() {
    let mut group = Group::new("p3_linearization_search", SAMPLES);
    group.warmup(2);
    for n in [2usize, 4, 6, 8] {
        let g = synthetic_history(n);
        group.throughput((2 * n) as u64);
        group.bench(&format!("events/{}", 2 * n), || {
            find_linearization(&g, &QueueInterp, &[]).is_some()
        });
    }
    group.finish();
}

fn main() {
    bench_model_checking();
    bench_linearization_search();
}
