//! A growable array that keeps short contents in place, in safe code.
//!
//! A record keeps two label–value pairs per namespace in itself, and a
//! box step hands back its one output record, without touching the
//! heap: [`InlineVec`] is that storage. It is an enum of live states
//! only — no slot is ever uninitialised or a filler — so it needs
//! neither `unsafe` nor a `Default` bound on its elements.

use std::ops::{Deref, DerefMut};
use std::{fmt, mem, slice};

/// A vector of `T` that keeps none, one or exactly `N` elements in
/// place and any other count in a `Vec`. It dereferences to `[T]`.
///
/// A vector that has moved to the heap stays there when it shrinks, so
/// a buffer is allocated once, where it first outgrew its place.
#[derive(Clone, Default)]
pub enum InlineVec<T, const N: usize> {
    /// No elements.
    #[default]
    Empty,
    /// One element.
    One(T),
    /// Exactly `N` elements.
    Full([T; N]),
    /// Any number of elements, on the heap.
    Heap(Vec<T>),
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty vector (no allocation).
    pub fn new() -> Self {
        InlineVec::Empty
    }

    /// An empty vector with room for `cap` elements: in place if they
    /// fit, on the heap otherwise.
    pub fn with_capacity(cap: usize) -> Self {
        if cap <= N {
            InlineVec::Empty
        } else {
            InlineVec::Heap(Vec::with_capacity(cap))
        }
    }

    /// Appends an element. An empty or heap vector takes it where it
    /// is; only a vector changing state is moved out and rebuilt.
    #[inline]
    pub fn push(&mut self, value: T) {
        match self {
            InlineVec::Heap(v) => v.push(value),
            InlineVec::Empty => *self = InlineVec::One(value),
            _ => self.grow(value),
        }
    }

    /// `push` on a vector holding one or `N` elements.
    fn grow(&mut self, value: T) {
        *self = match mem::take(self) {
            InlineVec::One(first) if N == 2 => {
                let mut pair = [first, value].into_iter();
                InlineVec::Full(std::array::from_fn(|_| pair.next().expect("N == 2")))
            }
            short => {
                let mut v = Vec::with_capacity((2 * N).max(4));
                v.extend(short);
                v.push(value);
                InlineVec::Heap(v)
            }
        };
    }

    /// Inserts an element at `index`, shifting the tail right.
    pub fn insert(&mut self, index: usize, value: T) {
        if let InlineVec::Heap(v) = self {
            return v.insert(index, value);
        }
        assert!(index <= self.len(), "insert index {index} out of bounds");
        let mut rest = mem::take(self).into_iter();
        self.extend(rest.by_ref().take(index));
        self.push(value);
        self.extend(rest);
    }

    /// Removes and returns the element at `index`, shifting the tail
    /// left.
    pub fn remove(&mut self, index: usize) -> T {
        if let InlineVec::Heap(v) = self {
            return v.remove(index);
        }
        assert!(index < self.len(), "remove index {index} out of bounds");
        let mut rest = mem::take(self).into_iter();
        self.extend(rest.by_ref().take(index));
        let hit = rest.next().expect("index < len");
        self.extend(rest);
        hit
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Heap(v) => v,
            InlineVec::Full(a) => a,
            InlineVec::One(x) => slice::from_ref(x),
            InlineVec::Empty => &[],
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Heap(v) => v,
            InlineVec::Full(a) => a,
            InlineVec::One(x) => slice::from_mut(x),
            InlineVec::Empty => &mut [],
        }
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        v.extend(iter);
        v
    }
}

/// The owning iterator of an [`InlineVec`].
pub enum IntoIter<T, const N: usize> {
    /// What an empty or one-element vector held.
    One(std::option::IntoIter<T>),
    /// What a full in-place vector held.
    Full(std::array::IntoIter<T, N>),
    /// What a heap vector held.
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            IntoIter::One(it) => it.next(),
            IntoIter::Full(it) => it.next(),
            IntoIter::Heap(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IntoIter::One(it) => it.size_hint(),
            IntoIter::Full(it) => it.size_hint(),
            IntoIter::Heap(it) => it.size_hint(),
        }
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    #[inline]
    fn into_iter(self) -> IntoIter<T, N> {
        match self {
            InlineVec::Empty => IntoIter::One(None.into_iter()),
            InlineVec::One(x) => IntoIter::One(Some(x).into_iter()),
            InlineVec::Full(a) => IntoIter::Full(a.into_iter()),
            InlineVec::Heap(v) => IntoIter::Heap(v.into_iter()),
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = slice::Iter<'a, T>;

    fn into_iter(self) -> slice::Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// Applies `ops` to an `InlineVec<_, N>` made `with_capacity(cap)`
    /// and to a `Vec` side by side and checks they agree after each one,
    /// and in `into_iter`, `clone` and `==` at the end.
    fn agrees_with_vec<const N: usize>(
        cap: usize,
        ops: &[(u8, usize, u8)],
    ) -> Result<(), TestCaseError> {
        let mut v: InlineVec<String, N> = InlineVec::with_capacity(cap);
        let mut model: Vec<String> = Vec::new();
        for &(op, at, n) in ops {
            let item = format!("s{n}");
            match op {
                0 => {
                    v.push(item.clone());
                    model.push(item);
                }
                1 => {
                    let at = at % (model.len() + 1);
                    v.insert(at, item.clone());
                    model.insert(at, item);
                }
                2 if !model.is_empty() => {
                    let at = at % model.len();
                    prop_assert_eq!(v.remove(at), model.remove(at));
                }
                _ => {
                    let more: Vec<String> = (0..n % 4).map(|i| format!("e{i}")).collect();
                    v.extend(more.clone());
                    model.extend(more);
                }
            }
            prop_assert_eq!(&v[..], &model[..]);
        }
        let copy = v.clone();
        prop_assert!(copy == v);
        let mut wider = v.clone();
        wider.push("extra".to_owned());
        prop_assert!(wider != v);
        let mut it = v.into_iter();
        prop_assert_eq!(it.size_hint(), (model.len(), Some(model.len())));
        let first = it.next();
        prop_assert_eq!(first.as_ref(), model.first());
        let rest: Vec<String> = it.collect();
        prop_assert_eq!(&rest[..], model.get(1..).unwrap_or_default());
        prop_assert_eq!(&copy[..], &model[..]);
        Ok(())
    }

    proptest! {
        #[test]
        fn matches_a_vec_model(
            cap in 0usize..4,
            ops in prop::collection::vec((0u8..4, 0usize..8, 0u8..8), 0..12),
        ) {
            agrees_with_vec::<1>(cap, &ops)?;
            agrees_with_vec::<2>(cap, &ops)?;
        }
    }

    /// Counts its drops.
    struct Counted<'a>(&'a Cell<usize>);
    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn drops_exactly_once_inline_heap_and_partial_iter() {
        for n in 0..6 {
            let drops = Cell::new(0);
            let v: InlineVec<Counted<'_>, 2> = (0..n).map(|_| Counted(&drops)).collect();
            assert_eq!(matches!(v, InlineVec::Heap(_)), n > 2);
            drop(v);
            assert_eq!(drops.get(), n, "{n} elements, dropped whole");

            let drops = Cell::new(0);
            let v: InlineVec<Counted<'_>, 2> = (0..n).map(|_| Counted(&drops)).collect();
            let mut it = v.into_iter();
            drop(it.next());
            assert_eq!(drops.get(), n.min(1), "{n} elements, one taken");
            drop(it);
            assert_eq!(
                drops.get(),
                n,
                "{n} elements, iterator dropped half consumed"
            );
        }
    }
}
