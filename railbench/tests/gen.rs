//! The history generator: determinism, validity, calibration, and the
//! known clause of every mutation.

use compass::conform::{ConformEvent, History};
use railbench::gen::{
    deque_rows, mutate, overlap, queue_rows, stack_rows, stm_rows, Family, Mutable, Rows, Shape,
};

fn render<E: ConformEvent>(rows: &Rows<E>) -> String {
    History::from_tuples(rows.clone()).render(&[])
}

/// Same seed, byte-identical `History::render`; another seed, another
/// history.
fn deterministic<E: ConformEvent>(gen: impl Fn(u64) -> Rows<E>) {
    for seed in [0, 1, 0xdead_beef] {
        assert_eq!(render(&gen(seed)), render(&gen(seed)), "seed {seed}");
    }
    assert_ne!(render(&gen(1)), render(&gen(2)));
}

/// Clean rows check `Ok`; the mutation fails with its named clause.
fn known_answers<E: Mutable>(family: Family, prefix: &str, gen: impl Fn(u64) -> Rows<E>) {
    for seed in 0..12 {
        let rows = gen(seed);
        let g = History::from_tuples(rows.clone()).to_graph();
        assert_eq!(E::check(&g), Ok(()), "{family:?} seed {seed}: clean rows");
        let (bad, rule) =
            mutate(seed, &rows).unwrap_or_else(|| panic!("{family:?} seed {seed}: no victim"));
        let v = E::check(&History::from_tuples(bad).to_graph()).expect_err("mutation convicted");
        assert_eq!(v.rule, rule, "{family:?} seed {seed}");
        assert!(
            v.rule.starts_with(prefix),
            "{family:?}: {} is not {prefix}*",
            v.rule
        );
    }
}

/// Mean overlap over a few seeds lies in `[lo, hi]`.
fn calibrated<E>(what: &str, gen: impl Fn(u64) -> Rows<E>, lo: f64, hi: f64) {
    let mean = (0..8).map(|s| overlap(&gen(s))).sum::<f64>() / 8.0;
    assert!(
        (lo..=hi).contains(&mean),
        "{what}: mean overlap {mean:.3} outside {lo}..={hi}"
    );
}

#[test]
fn generation_is_deterministic() {
    let two = Shape::two_threads(64);
    deterministic(|s| queue_rows(s, &two));
    deterministic(|s| stack_rows(s, &two));
    deterministic(|s| deque_rows(s, &two));
    deterministic(|s| stm_rows(s, &Shape::four_threads(50)));
}

#[test]
fn clean_histories_conform_and_mutations_hit_their_clause() {
    let two = Shape::two_threads(64);
    known_answers(Family::Queue, "CONFORM-QUEUE-DUP", |s| queue_rows(s, &two));
    known_answers(Family::Stack, "CONFORM-STACK-DUP", |s| stack_rows(s, &two));
    known_answers(Family::Deque, "CONFORM-DEQUE-DUP", |s| deque_rows(s, &two));
    known_answers(Family::Stm, "CONFORM-STM-", |s| stm_rows(s, &two));
    known_answers(Family::Stm, "CONFORM-STM-", |s| {
        stm_rows(s, &Shape::four_threads(50))
    });
}

#[test]
fn overlap_matches_recorded_native_rounds() {
    let two = Shape::two_threads(128);
    calibrated("queue x2", |s| queue_rows(s, &two), 0.3, 0.8);
    calibrated("stack x2", |s| stack_rows(s, &two), 0.3, 0.8);
    calibrated("stm x2", |s| stm_rows(s, &two), 0.3, 0.8);
    calibrated(
        "stm x4",
        |s| stm_rows(s, &Shape::four_threads(100)),
        1.3,
        1.5,
    );
}

#[test]
fn overlap_counts_intersecting_pairs() {
    // [0,10] meets [5,25] and [10,12] (touching counts); [5,25] also
    // meets [10,12] and [20,30]: 4 intersecting pairs over 4 ops.
    let rows: Rows<u8> = vec![
        vec![(0, 0, 10), (0, 20, 30)],
        vec![(0, 5, 25)],
        vec![(0, 10, 12)],
    ];
    assert_eq!(overlap(&rows), 2.0);
}

#[test]
fn shapes_have_the_requested_size() {
    let rows = stm_rows(3, &Shape::four_threads(100));
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().all(|r| r.len() == 100));
    let (dup, _) = mutate(3, &queue_rows(3, &Shape::two_threads(128))).unwrap();
    assert_eq!(dup.iter().map(Vec::len).sum::<usize>(), 257);
}
