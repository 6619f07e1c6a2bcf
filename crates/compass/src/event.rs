//! Events: the nodes of a library's event graph.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use orc11::ThreadId;

/// Identifier of an event within one library object's graph.
///
/// Ids are dense indices in commit order of the object's events (ties —
/// helping pairs committed in the same instruction — are broken by id).
/// The raw `u64` doubles as the representation stored in the model's ghost
/// views.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Creates an id from its raw value.
    pub fn from_raw(raw: u64) -> Self {
        EventId(raw)
    }

    /// The raw value (as stored in ghost views).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Converts a ghost-view set into a logical view.
pub fn logview_from_raw(raw: &BTreeSet<u64>) -> LogView {
    raw.iter().map(|&r| EventId::from_raw(r)).collect()
}

/// A set of events, stored as a dense bitset: bit `i % 64` of word
/// `i / 64` is event `e{i}`.
///
/// This is the crate's one representation of an event set — event
/// logviews, [`crate::seen::Seen`] snapshots, and the checkers' working
/// sets (done-sets, predecessor sets) — so membership (and with it
/// [`crate::Graph::lhb`]) is O(1), and subset and union run a word at a
/// time. Memory is one bit per id up to the largest member; ids beyond a
/// graph's length stay representable, so well-formedness checks can
/// report them. Equality and hashing ignore trailing zero words, and
/// iteration is in ascending id order.
#[derive(Clone, Default)]
pub struct LogView {
    words: Vec<u64>,
}

impl LogView {
    /// The empty set.
    pub fn new() -> Self {
        LogView::default()
    }

    /// The empty set, with room for ids below `n` without reallocating.
    pub fn with_capacity(n: usize) -> Self {
        LogView {
            words: Vec::with_capacity(n.div_ceil(64)),
        }
    }

    /// Whether `e` is a member.
    pub fn contains(&self, e: EventId) -> bool {
        let i = e.index();
        self.words
            .get(i / 64)
            .is_some_and(|&w| w & (1 << (i % 64)) != 0)
    }

    /// Adds `e`; returns whether it was new.
    pub fn insert(&mut self, e: EventId) -> bool {
        let i = e.index();
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        let w = &mut self.words[i / 64];
        let new = *w & (1 << (i % 64)) == 0;
        *w |= 1 << (i % 64);
        new
    }

    /// Removes `e`; returns whether it was a member.
    pub fn remove(&mut self, e: EventId) -> bool {
        let i = e.index();
        match self.words.get_mut(i / 64) {
            Some(w) if *w & (1 << (i % 64)) != 0 => {
                *w &= !(1 << (i % 64));
                true
            }
            _ => false,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members in ascending id order.
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(EventId::from_raw(0))
    }

    /// The members `>= start`, in ascending id order.
    pub fn iter_from(&self, start: EventId) -> Iter<'_> {
        let i = start.index();
        let bits = self
            .words
            .get(i / 64)
            .map_or(0, |&w| w & (u64::MAX << (i % 64)));
        Iter {
            words: &self.words,
            word: i / 64,
            bits,
        }
    }

    /// Whether every member of `self` is a member of `other`.
    pub fn is_subset(&self, other: &LogView) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(k, &w)| w & !other.words.get(k).copied().unwrap_or(0) == 0)
    }

    /// Adds every member of `other`.
    pub fn union_with(&mut self, other: &LogView) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Keeps only the members of `other`.
    pub fn intersect_with(&mut self, other: &LogView) {
        self.words.truncate(other.words.len());
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// The words up to the last non-zero one (what equality and hashing
    /// compare).
    fn trimmed(&self) -> &[u64] {
        let len = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |k| k + 1);
        &self.words[..len]
    }
}

impl PartialEq for LogView {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for LogView {}

impl Hash for LogView {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.trimmed().hash(state);
    }
}

impl fmt::Debug for LogView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<EventId> for LogView {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        let mut view = LogView::new();
        view.extend(iter);
        view
    }
}

impl Extend<EventId> for LogView {
    fn extend<I: IntoIterator<Item = EventId>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

impl<'a> IntoIterator for &'a LogView {
    type Item = EventId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl IntoIterator for LogView {
    type Item = EventId;
    type IntoIter = std::vec::IntoIter<EventId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

/// Ascending iterator over a [`LogView`]'s members.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// The not-yet-yielded bits of `words[word]`.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = EventId;

    fn next(&mut self) -> Option<EventId> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(EventId::from_raw((self.word * 64 + bit) as u64))
    }
}

/// An event of a library object (the paper's `Event` type, §3.1): an event
/// type plus the *logical view* recorded at the operation's commit point.
///
/// The paper also records the commit point's physical view; here the
/// physical view lives in the model and the event instead records the
/// global `step` index of its commit instruction, which serves as the
/// commit order (the `<` of §4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event<T> {
    /// The event type (e.g. `Enq(v)`, `Deq(v)`, `EmpDeq`).
    pub ty: T,
    /// The thread whose operation this event represents.
    pub tid: ThreadId,
    /// Global step index of the commit instruction. Events committed by
    /// the same instruction (helping pairs) share a step.
    pub step: u64,
    /// All events of this object that happen before this event — including
    /// the event itself. `e ∈ G(d).logview` is the paper's `(e, d) ∈ G.lhb`.
    pub logview: LogView,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let id = EventId::from_raw(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "e42");
    }

    #[test]
    fn ids_order_by_raw() {
        assert!(EventId::from_raw(1) < EventId::from_raw(2));
    }

    #[test]
    fn logview_conversion() {
        let raw: BTreeSet<u64> = [3, 1].into_iter().collect();
        let lv = logview_from_raw(&raw);
        assert!(lv.contains(EventId::from_raw(1)));
        assert!(lv.contains(EventId::from_raw(3)));
        assert_eq!(lv.len(), 2);
    }

    fn view(ids: &[u64]) -> LogView {
        ids.iter().map(|&i| EventId::from_raw(i)).collect()
    }

    #[test]
    fn logview_set_operations() {
        let mut a = view(&[0, 63, 64, 200]);
        assert_eq!(a.len(), 4);
        assert!(a.contains(EventId::from_raw(64)) && !a.contains(EventId::from_raw(65)));
        assert!(
            !a.contains(EventId::from_raw(100_000)),
            "beyond the last word"
        );
        assert!(!a.insert(EventId::from_raw(63)));
        assert!(a.remove(EventId::from_raw(63)) && !a.remove(EventId::from_raw(63)));
        assert!(view(&[0, 64]).is_subset(&a));
        assert!(!view(&[0, 65]).is_subset(&a));
        assert!(!view(&[300]).is_subset(&a), "longer than the superset");
        let mut u = view(&[1]);
        u.union_with(&a);
        assert_eq!(u, view(&[0, 1, 64, 200]));
        u.intersect_with(&view(&[1, 64]));
        assert_eq!(u, view(&[1, 64]));
        assert!(LogView::new().is_empty() && view(&[]).is_subset(&LogView::new()));
    }

    #[test]
    fn logview_iterates_in_ascending_order() {
        let a = view(&[200, 3, 64, 0, 127]);
        let ids: Vec<u64> = a.iter().map(EventId::raw).collect();
        assert_eq!(ids, [0, 3, 64, 127, 200]);
        let tail: Vec<u64> = a
            .iter_from(EventId::from_raw(64))
            .map(EventId::raw)
            .collect();
        assert_eq!(tail, [64, 127, 200]);
        assert_eq!(a.iter_from(EventId::from_raw(201)).count(), 0);
        assert_eq!(a.iter_from(EventId::from_raw(1 << 20)).count(), 0);
        let owned: Vec<EventId> = a.clone().into_iter().collect();
        assert_eq!(owned, a.iter().collect::<Vec<_>>());
        // Same rendering as the ordered set it replaces.
        let set: BTreeSet<EventId> = a.iter().collect();
        assert_eq!(format!("{a:?}"), format!("{set:?}"));
    }

    #[test]
    fn logview_equality_ignores_trailing_zero_words() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |v: &LogView| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let a = view(&[1, 2]);
        let mut b = view(&[1, 2, 500]);
        assert_ne!(a, b);
        b.remove(EventId::from_raw(500));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        let mut c = LogView::with_capacity(1000);
        c.insert(EventId::from_raw(999));
        c.remove(EventId::from_raw(999));
        assert_eq!(c, LogView::new());
    }
}
