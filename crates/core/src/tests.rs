//! Case-by-case checks of [`InlineVec`], the in-place storage behind
//! records and step outputs: each pins one state change (empty, one,
//! full, heap) or one teardown path. `inline::tests` holds the property
//! that checks it against a `Vec` model over random operation
//! sequences.

use crate::inline::InlineVec;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn push_insert_remove() {
    let mut v: InlineVec<u32, 2> = InlineVec::new();
    v.push(1);
    v.push(3);
    v.insert(1, 2);
    assert_eq!(&v[..], &[1, 2, 3]);
    assert_eq!(v.remove(0), 1);
    assert_eq!(v.len(), 2);
}

#[test]
fn slice_ops_via_deref() {
    let mut v: InlineVec<u32, 2> = (0..10).collect();
    assert_eq!(v.binary_search(&7), Ok(7));
    v.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(v[0], 9);

    let mut pair: InlineVec<u32, 2> = [5, 4].into_iter().collect();
    assert!(matches!(pair, InlineVec::Full(_)));
    pair.sort_unstable();
    pair[1] += 1;
    assert_eq!(&pair[..], &[4, 6]);
}

#[test]
fn macro_and_eq() {
    // Equality is by contents, whichever state or route built them.
    let mut pushed: InlineVec<i32, 2> = InlineVec::new();
    for x in [1, 2, 3] {
        pushed.push(x);
    }
    let collected: InlineVec<i32, 2> = (1..=3).collect();
    let mut inserted: InlineVec<i32, 2> = InlineVec::with_capacity(8);
    inserted.extend([1, 3]);
    inserted.insert(1, 2);
    assert_eq!(pushed, collected);
    assert_eq!(collected, inserted);

    let full: InlineVec<i32, 2> = [1, 2].into_iter().collect();
    let mut shrunk = collected.clone();
    assert_eq!(shrunk.remove(2), 3);
    assert!(matches!(full, InlineVec::Full(_)));
    assert!(matches!(shrunk, InlineVec::Heap(_)));
    assert_eq!(full, shrunk);
    assert_ne!(full, collected);
}

/// Pushes twenty strings one at a time, reading each state back.
fn push_twenty<const N: usize>() {
    let mut v: InlineVec<String, N> = InlineVec::new();
    for i in 0..20 {
        v.push(format!("s{i}"));
        // Every intermediate state must read back correctly.
        assert_eq!(v.len(), i + 1);
        assert_eq!(v[i], format!("s{i}"));
    }
    let all: Vec<String> = v.into_iter().collect();
    assert_eq!(all, (0..20).map(|i| format!("s{i}")).collect::<Vec<_>>());
}

#[test]
fn spills_past_inline_capacity_and_preserves_order() {
    push_twenty::<1>();
    push_twenty::<2>();
}

#[test]
fn insert_remove_across_the_spill_boundary() {
    let mut v: InlineVec<u32, 2> = InlineVec::new();
    v.insert(0, 2);
    assert!(matches!(v, InlineVec::One(2)));
    v.insert(0, 0);
    assert!(matches!(v, InlineVec::Full([0, 2])));
    v.insert(1, 1); // outgrows its place mid-insert
    assert!(matches!(v, InlineVec::Heap(_)));
    assert_eq!(&v[..], &[0, 1, 2]);
    assert_eq!(v.remove(1), 1);
    assert_eq!(&v[..], &[0, 2]);
    assert_eq!(v.remove(1), 2);
    assert_eq!(v.remove(0), 0);
    assert!(v.is_empty());

    let mut w: InlineVec<u32, 2> = [7, 9].into_iter().collect();
    assert_eq!(w.remove(0), 7);
    assert!(matches!(w, InlineVec::One(9)));
    assert_eq!(w.remove(0), 9);
    assert!(matches!(w, InlineVec::Empty));
}

/// Element with a drop counter: every constructed element must be
/// dropped exactly once, in every storage state and teardown path.
struct Counted<'a>(&'a AtomicUsize);
impl Drop for Counted<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn drops_exactly_once_inline_heap_and_partial_iter() {
    let drops = AtomicUsize::new(0);
    {
        let mut v: InlineVec<Counted<'_>, 2> = InlineVec::new();
        for _ in 0..2 {
            v.push(Counted(&drops)); // stays in place
        }
        assert!(matches!(v, InlineVec::Full(_)));
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        2,
        "in-place drop-on-scope-exit"
    );

    let drops = AtomicUsize::new(0);
    {
        let mut v: InlineVec<Counted<'_>, 2> = InlineVec::new();
        for _ in 0..6 {
            v.push(Counted(&drops)); // moves to the heap
        }
        drop(v.remove(5));
        drop(v.remove(0));
        assert_eq!(drops.load(Ordering::SeqCst), 2, "heap removes");
    }
    assert_eq!(drops.load(Ordering::SeqCst), 6, "heap remove + scope exit");

    let drops = AtomicUsize::new(0);
    {
        let v: InlineVec<Counted<'_>, 2> = (0..4).map(|_| Counted(&drops)).collect();
        let mut it = v.into_iter();
        drop(it.next()); // consume one
                         // Drop the iterator with three elements unconsumed.
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        4,
        "partially consumed IntoIter"
    );
}

#[test]
fn clone_is_deep_and_independent() {
    let mut a: InlineVec<String, 2> = ["x".to_owned(), "y".to_owned()].into_iter().collect();
    let b = a.clone();
    a.push("z".to_owned()); // moves a to the heap, not b
    a[0].push('!');
    assert!(matches!(b, InlineVec::Full(_)));
    assert_eq!(&b[..], &["x".to_owned(), "y".to_owned()]);
    assert_eq!(&a[..], &["x!".to_owned(), "y".to_owned(), "z".to_owned()]);
}

#[test]
fn with_capacity_chooses_mode() {
    let small: InlineVec<u8, 2> = InlineVec::with_capacity(2);
    let big: InlineVec<u8, 2> = InlineVec::with_capacity(64);
    assert!(matches!(small, InlineVec::Empty));
    match big {
        InlineVec::Heap(v) => assert!(v.capacity() >= 64),
        other => panic!("with_capacity(64) stayed in place: {other:?}"),
    }
}

#[test]
fn vec_conversions_round_trip_in_both_modes() {
    let full: InlineVec<String, 2> = vec!["a".to_owned(), "b".to_owned()].into_iter().collect();
    assert!(matches!(full, InlineVec::Full(_)));
    assert_eq!(full.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);

    let one: InlineVec<u32, 2> = vec![1].into_iter().collect();
    assert!(matches!(one, InlineVec::One(1)));
    assert_eq!(one.into_iter().collect::<Vec<_>>(), vec![1]);

    let mut long: InlineVec<u32, 2> = InlineVec::new();
    long.extend(vec![1, 2, 3, 4]);
    assert!(matches!(long, InlineVec::Heap(_)));
    assert_eq!(long.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
}

#[test]
fn conversions_drop_exactly_once() {
    let drops = AtomicUsize::new(0);
    {
        let v: InlineVec<Counted<'_>, 2> = [Counted(&drops), Counted(&drops)].into_iter().collect();
        assert!(matches!(v, InlineVec::Full(_)));
        let back: Vec<Counted<'_>> = v.into_iter().collect();
        assert_eq!(back.len(), 2);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "moved, not dropped");
    }
    assert_eq!(drops.load(Ordering::SeqCst), 2, "in place → Vec");

    let drops = AtomicUsize::new(0);
    {
        let v: InlineVec<Counted<'_>, 2> = [Counted(&drops), Counted(&drops), Counted(&drops)]
            .into_iter()
            .collect();
        assert!(matches!(v, InlineVec::Heap(_)));
        drop(v);
    }
    assert_eq!(drops.load(Ordering::SeqCst), 3, "collected, heap mode");
}

#[test]
fn zero_capacity_array_spills_immediately() {
    let mut v: InlineVec<u32, 0> = InlineVec::new();
    v.push(1);
    v.push(2);
    assert!(matches!(v, InlineVec::Heap(_)));
    assert_eq!(&v[..], &[1, 2]);
    assert_eq!(v.remove(0), 1);
    assert_eq!(&v[..], &[2]);
}
