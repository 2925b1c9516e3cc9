//! Offline shim for `smallvec` — with real inline storage.
//!
//! Exposes the `SmallVec<[T; N]>` type the workspace uses. The first
//! `N` elements live *inline* (no heap allocation); pushing past `N`
//! spills to a `Vec`, after which the vector behaves exactly like the
//! plain-`Vec` fallback this shim used to be. The flat, contiguous,
//! binary-searchable layout the record representation depends on holds
//! in both modes (`Deref<Target = [T]>` over either storage).
//!
//! Records carry at most a handful of fields and tags, so inline
//! storage turns the per-record allocation pair (fields + tags) into
//! zero heap traffic on the engines' hot hand-off path.
//!
//! The load-bearing invariant for every `unsafe` block below: in
//! `Store::Inline { len, buf }`, exactly the first `len` slots of
//! `buf` hold initialized `A::Item`s, and `len <= A::CAP`. Each block
//! carries a `SAFETY:` comment tying it back to this invariant
//! (enforced by `scripts/check_unsafe.py`); the drop-safety unit tests
//! below run under Miri in CI.

#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::ptr;

/// Marker trait tying `SmallVec<[T; N]>` syntax to an element type and
/// an inline capacity.
pub trait Array {
    /// Element type.
    type Item;
    /// Inline capacity.
    const CAP: usize;
}

impl<T, const N: usize> Array for [T; N] {
    type Item = T;
    const CAP: usize = N;
}

/// Either `CAP` inline slots or a spilled heap vector.
///
/// `MaybeUninit<A>` (i.e. `MaybeUninit<[T; N]>`) is raw storage for the
/// inline mode — only the first `len` slots are initialized. Using the
/// array type itself as the buffer sidesteps the unstable
/// `[MaybeUninit<T>; A::CAP]` const-generic form.
enum Store<A: Array> {
    Inline { len: usize, buf: MaybeUninit<A> },
    Heap(Vec<A::Item>),
}

/// A contiguous growable array storing its first
/// [`Array::CAP`] elements inline.
pub struct SmallVec<A: Array> {
    store: Store<A>,
}

impl<A: Array> SmallVec<A> {
    /// Creates an empty vector (inline; no allocation).
    pub fn new() -> SmallVec<A> {
        SmallVec {
            store: Store::Inline {
                len: 0,
                buf: MaybeUninit::uninit(),
            },
        }
    }

    /// Creates an empty vector with at least `cap` capacity (inline if
    /// it fits, heap otherwise).
    pub fn with_capacity(cap: usize) -> SmallVec<A> {
        if cap <= A::CAP {
            SmallVec::new()
        } else {
            SmallVec {
                store: Store::Heap(Vec::with_capacity(cap)),
            }
        }
    }

    fn inline_ptr(buf: &MaybeUninit<A>) -> *const A::Item {
        buf.as_ptr() as *const A::Item
    }

    fn inline_ptr_mut(buf: &mut MaybeUninit<A>) -> *mut A::Item {
        buf.as_mut_ptr() as *mut A::Item
    }

    /// Moves the inline elements into a heap vector with room for at
    /// least `extra` more elements.
    fn spill(&mut self, extra: usize) {
        if let Store::Inline { len, buf } = &mut self.store {
            let n = *len;
            let mut vec = Vec::with_capacity((A::CAP * 2).max(n + extra).max(4));
            // SAFETY: the inline invariant says the first `n` slots of
            // `buf` are initialized, and the Vec was allocated with
            // capacity >= n, so the copy reads and writes in bounds and
            // `set_len(n)` covers exactly the moved prefix. `*len = 0`
            // below marks the moved-from slots as logically dead so the
            // replacement of `self.store` cannot double-drop them (the
            // old Inline variant's buffer is plain bytes once len is 0).
            unsafe {
                ptr::copy_nonoverlapping(Self::inline_ptr(buf), vec.as_mut_ptr(), n);
                vec.set_len(n);
            }
            *len = 0;
            self.store = Store::Heap(vec);
        }
    }

    /// Appends an element.
    pub fn push(&mut self, value: A::Item) {
        match &mut self.store {
            // SAFETY: the guard gives `*len < A::CAP`, so slot `*len`
            // is in bounds and (by the inline invariant) uninitialized;
            // `ptr::write` claims it without dropping stale bytes, and
            // the increment extends the initialized prefix over it.
            Store::Inline { len, buf } if *len < A::CAP => unsafe {
                ptr::write(Self::inline_ptr_mut(buf).add(*len), value);
                *len += 1;
            },
            Store::Inline { .. } => {
                self.spill(1);
                match &mut self.store {
                    Store::Heap(v) => v.push(value),
                    Store::Inline { .. } => unreachable!("just spilled"),
                }
            }
            Store::Heap(v) => v.push(value),
        }
    }

    /// Inserts an element at `index`, shifting the tail right.
    pub fn insert(&mut self, index: usize, value: A::Item) {
        match &mut self.store {
            Store::Inline { len, buf } if *len < A::CAP => {
                assert!(index <= *len, "insert index {index} out of bounds");
                // SAFETY: `index <= len < CAP` (assert + match guard),
                // so the shift's source `index..len` and destination
                // `index+1..len+1` are both within the CAP-slot buffer;
                // `ptr::copy` handles the overlap. Slot `index` then
                // holds a duplicate (moved-from) element, immediately
                // overwritten by `ptr::write` without dropping it.
                unsafe {
                    let p = Self::inline_ptr_mut(buf);
                    ptr::copy(p.add(index), p.add(index + 1), *len - index);
                    ptr::write(p.add(index), value);
                }
                *len += 1;
            }
            Store::Inline { .. } => {
                self.spill(1);
                self.insert(index, value);
            }
            Store::Heap(v) => v.insert(index, value),
        }
    }

    /// Removes and returns the element at `index`, shifting the tail
    /// left.
    pub fn remove(&mut self, index: usize) -> A::Item {
        match &mut self.store {
            Store::Inline { len, buf } => {
                assert!(index < *len, "remove index {index} out of bounds");
                // SAFETY: `index < len`, so slot `index` is initialized
                // and `ptr::read` moves it out; the overlapping shift
                // of `index+1..len` left by one re-covers the hole, and
                // the decrement un-claims the now-duplicated last slot
                // so it is never read or dropped again.
                unsafe {
                    let p = Self::inline_ptr_mut(buf);
                    let value = ptr::read(p.add(index));
                    ptr::copy(p.add(index + 1), p.add(index), *len - index - 1);
                    *len -= 1;
                    value
                }
            }
            Store::Heap(v) => v.remove(index),
        }
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        match &mut self.store {
            Store::Inline { len, buf } => {
                let n = std::mem::replace(len, 0);
                // SAFETY: the first `n` slots were initialized, and
                // `len` was zeroed *before* dropping so a panicking
                // element Drop cannot lead to a second drop of the
                // prefix (the vector is already observably empty).
                unsafe {
                    ptr::drop_in_place(ptr::slice_from_raw_parts_mut(Self::inline_ptr_mut(buf), n));
                }
            }
            Store::Heap(v) => v.clear(),
        }
    }

    /// Removes the last element.
    pub fn pop(&mut self) -> Option<A::Item> {
        match &mut self.store {
            Store::Inline { len, buf } => {
                if *len == 0 {
                    return None;
                }
                *len -= 1;
                // SAFETY: pre-decrement `len >= 1`, so the slot at the
                // new `*len` is the initialized last element; the
                // decrement already un-claimed it, making this read the
                // unique move-out.
                Some(unsafe { ptr::read(Self::inline_ptr(buf).add(*len)) })
            }
            Store::Heap(v) => v.pop(),
        }
    }

    /// Borrows the backing slice.
    pub fn as_slice(&self) -> &[A::Item] {
        self
    }

    /// `true` once the contents have spilled to the heap. Lets callers
    /// (and allocation tests) observe whether a short vector is still
    /// in its no-allocation inline mode.
    pub fn spilled(&self) -> bool {
        matches!(self.store, Store::Heap(_))
    }

    /// Constructs from a full inline array without allocating.
    pub fn from_buf(buf: A) -> SmallVec<A> {
        SmallVec {
            store: Store::Inline {
                len: A::CAP,
                buf: MaybeUninit::new(buf),
            },
        }
    }

    /// Converts into a `Vec`, handing over the heap buffer when already
    /// spilled (inline contents are moved out, which allocates).
    pub fn into_vec(self) -> Vec<A::Item> {
        let this = std::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is ManuallyDrop, so our own Drop (which would
        // drop the prefix a second time) never runs; this read is the
        // unique transfer of the store's ownership.
        match unsafe { ptr::read(&this.store) } {
            Store::Inline { len, buf } => {
                let mut vec = Vec::with_capacity(len);
                // SAFETY: first `len` slots of `buf` are initialized
                // and the Vec has capacity >= len; after the copy,
                // `buf` is dead bytes (local, plain `MaybeUninit`, no
                // Drop), so the elements are moved exactly once.
                unsafe {
                    ptr::copy_nonoverlapping(Self::inline_ptr(&buf), vec.as_mut_ptr(), len);
                    vec.set_len(len);
                }
                vec
            }
            Store::Heap(v) => v,
        }
    }
}

impl<A: Array> Drop for SmallVec<A> {
    fn drop(&mut self) {
        // Heap mode drops via the Vec; inline mode must drop the
        // initialized prefix explicitly.
        self.clear();
    }
}

impl<A: Array> Default for SmallVec<A> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<A: Array> Deref for SmallVec<A> {
    type Target = [A::Item];
    fn deref(&self) -> &[A::Item] {
        match &self.store {
            // SAFETY: the inline invariant — first `len` slots
            // initialized — is exactly the validity requirement of
            // `from_raw_parts`; the borrow of `self` keeps the buffer
            // alive and un-mutated for the slice's lifetime.
            Store::Inline { len, buf } => unsafe {
                std::slice::from_raw_parts(Self::inline_ptr(buf), *len)
            },
            Store::Heap(v) => v,
        }
    }
}

impl<A: Array> DerefMut for SmallVec<A> {
    fn deref_mut(&mut self) -> &mut [A::Item] {
        match &mut self.store {
            // SAFETY: as in `deref`, plus the `&mut self` borrow makes
            // this the unique reference into the buffer.
            Store::Inline { len, buf } => unsafe {
                std::slice::from_raw_parts_mut(Self::inline_ptr_mut(buf), *len)
            },
            Store::Heap(v) => v,
        }
    }
}

impl<A: Array> Clone for SmallVec<A>
where
    A::Item: Clone,
{
    fn clone(&self) -> Self {
        let mut out = SmallVec::with_capacity(self.len());
        for item in self.iter() {
            out.push(item.clone());
        }
        out
    }
}

impl<A: Array> PartialEq for SmallVec<A>
where
    A::Item: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<A: Array> Eq for SmallVec<A> where A::Item: Eq {}

impl<A: Array> fmt::Debug for SmallVec<A>
where
    A::Item: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

impl<A: Array> FromIterator<A::Item> for SmallVec<A> {
    fn from_iter<I: IntoIterator<Item = A::Item>>(iter: I) -> Self {
        let mut v = SmallVec::new();
        v.extend(iter);
        v
    }
}

impl<A: Array> Extend<A::Item> for SmallVec<A> {
    fn extend<I: IntoIterator<Item = A::Item>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

/// Owning iterator over a [`SmallVec`]. Fields are private: the inline
/// variant's buffer/window pair is an ownership invariant (`next..len`
/// initialized), so safe construction from outside would be unsound.
pub struct IntoIter<A: Array> {
    inner: IntoIterInner<A>,
}

enum IntoIterInner<A: Array> {
    /// Inline mode: the raw buffer plus the un-consumed window
    /// `next..len`. Dropped without being fully consumed, the window's
    /// remaining elements are dropped in place.
    Inline {
        buf: MaybeUninit<A>,
        next: usize,
        len: usize,
    },
    /// Spilled mode: the heap vector's own iterator.
    Heap(std::vec::IntoIter<A::Item>),
}

impl<A: Array> Iterator for IntoIter<A> {
    type Item = A::Item;

    fn next(&mut self) -> Option<A::Item> {
        match &mut self.inner {
            IntoIterInner::Inline { buf, next, len } => {
                if next < len {
                    let p = buf.as_ptr() as *const A::Item;
                    // SAFETY: the iterator invariant is that slots
                    // `next..len` are initialized and owned by the
                    // iterator; `next < len` puts this slot in that
                    // window, and the increment removes it from the
                    // window before anything can read it again.
                    let value = unsafe { ptr::read(p.add(*next)) };
                    *next += 1;
                    Some(value)
                } else {
                    None
                }
            }
            IntoIterInner::Heap(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            IntoIterInner::Inline { next, len, .. } => {
                let n = *len - *next;
                (n, Some(n))
            }
            IntoIterInner::Heap(it) => it.size_hint(),
        }
    }
}

impl<A: Array> Drop for IntoIter<A> {
    fn drop(&mut self) {
        if let IntoIterInner::Inline { buf, next, len } = &mut self.inner {
            // SAFETY: the un-consumed window `next..len` is exactly the
            // initialized, iterator-owned slots (see `next`); dropping
            // it in place drops each remaining element exactly once.
            // `next()` can never run again after Drop.
            unsafe {
                ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                    (buf.as_mut_ptr() as *mut A::Item).add(*next),
                    *len - *next,
                ));
            }
        }
    }
}

impl<A: Array> IntoIterator for SmallVec<A> {
    type Item = A::Item;
    type IntoIter = IntoIter<A>;
    fn into_iter(self) -> IntoIter<A> {
        // Disassemble without running our Drop (the iterator takes over
        // ownership of the initialized prefix).
        let this = std::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is ManuallyDrop so SmallVec's Drop never runs;
        // this read is the unique ownership transfer of the store into
        // the iterator, which assumes the drop obligation for the
        // `next..len` window (see `Drop for IntoIter`).
        let inner = match unsafe { ptr::read(&this.store) } {
            Store::Inline { len, buf } => IntoIterInner::Inline { buf, next: 0, len },
            Store::Heap(v) => IntoIterInner::Heap(v.into_iter()),
        };
        IntoIter { inner }
    }
}

impl<'a, A: Array> IntoIterator for &'a SmallVec<A> {
    type Item = &'a A::Item;
    type IntoIter = std::slice::Iter<'a, A::Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Convenience constructor macro mirroring `smallvec::smallvec!`.
#[macro_export]
macro_rules! smallvec {
    ($($x:expr),* $(,)?) => {{
        let mut v = $crate::SmallVec::new();
        $(v.push($x);)*
        v
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn push_insert_remove() {
        let mut v: SmallVec<[u32; 4]> = SmallVec::new();
        v.push(1);
        v.push(3);
        v.insert(1, 2);
        assert_eq!(&v[..], &[1, 2, 3]);
        assert_eq!(v.remove(0), 1);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn slice_ops_via_deref() {
        let mut v: SmallVec<[u32; 4]> = (0..10).collect();
        assert_eq!(v.binary_search(&7), Ok(7));
        v.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(v[0], 9);
    }

    #[test]
    fn macro_and_eq() {
        let a: SmallVec<[i32; 2]> = smallvec![1, 2, 3];
        let b: SmallVec<[i32; 2]> = (1..=3).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn spills_past_inline_capacity_and_preserves_order() {
        let mut v: SmallVec<[String; 3]> = SmallVec::new();
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
    fn insert_remove_across_the_spill_boundary() {
        let mut v: SmallVec<[u32; 2]> = SmallVec::new();
        v.insert(0, 2);
        v.insert(0, 0); // inline, full
        v.insert(1, 1); // forces spill mid-insert
        assert_eq!(&v[..], &[0, 1, 2]);
        assert_eq!(v.remove(1), 1);
        assert_eq!(&v[..], &[0, 2]);
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(0));
        assert_eq!(v.pop(), None);
    }

    /// Element with a drop counter: every constructed element must be
    /// dropped exactly once, in every storage mode and teardown path.
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
            let mut v: SmallVec<[Counted<'_>; 4]> = SmallVec::new();
            for _ in 0..3 {
                v.push(Counted(&drops)); // stays inline
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3, "inline drop-on-scope-exit");

        let drops = AtomicUsize::new(0);
        {
            let mut v: SmallVec<[Counted<'_>; 2]> = SmallVec::new();
            for _ in 0..6 {
                v.push(Counted(&drops)); // spills
            }
            drop(v.pop());
            v.clear();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 6, "heap pop+clear");

        let drops = AtomicUsize::new(0);
        {
            let mut v: SmallVec<[Counted<'_>; 4]> = SmallVec::new();
            for _ in 0..4 {
                v.push(Counted(&drops));
            }
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
        let mut a: SmallVec<[String; 2]> = smallvec!["x".to_owned(), "y".to_owned()];
        let b = a.clone();
        a.push("z".to_owned()); // spills a, not b
        assert_eq!(&b[..], &["x".to_owned(), "y".to_owned()]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn with_capacity_chooses_mode() {
        let small: SmallVec<[u8; 8]> = SmallVec::with_capacity(4);
        let big: SmallVec<[u8; 8]> = SmallVec::with_capacity(64);
        assert!(matches!(small.store, Store::Inline { .. }));
        assert!(matches!(big.store, Store::Heap(_)));
    }

    #[test]
    fn vec_conversions_round_trip_in_both_modes() {
        let inline: SmallVec<[String; 4]> =
            SmallVec::from_buf(["a".into(), "b".into(), "c".into(), "d".into()]);
        assert_eq!(inline.len(), 4);
        assert_eq!(inline.into_vec(), vec!["a", "b", "c", "d"]);

        let short: SmallVec<[u32; 4]> = vec![1, 2].into_iter().collect();
        assert!(matches!(short.store, Store::Inline { .. }));
        assert_eq!(short.into_vec(), vec![1, 2]);

        let mut long: SmallVec<[u32; 2]> = SmallVec::new();
        long.extend(vec![1, 2, 3, 4]);
        assert!(matches!(long.store, Store::Heap(_)));
        assert_eq!(long.into_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn conversions_drop_exactly_once() {
        let drops = AtomicUsize::new(0);
        {
            let v: SmallVec<[Counted<'_>; 2]> =
                SmallVec::from_buf([Counted(&drops), Counted(&drops)]);
            let back = v.into_vec();
            assert_eq!(back.len(), 2);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 2, "from_buf → into_vec");

        let drops = AtomicUsize::new(0);
        {
            let v: SmallVec<[Counted<'_>; 2]> = [Counted(&drops), Counted(&drops), Counted(&drops)]
                .into_iter()
                .collect();
            assert!(matches!(v.store, Store::Heap(_)));
            drop(v);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3, "collected, heap mode");
    }

    #[test]
    fn zero_capacity_array_spills_immediately() {
        let mut v: SmallVec<[u32; 0]> = SmallVec::new();
        v.push(1);
        v.push(2);
        assert_eq!(&v[..], &[1, 2]);
    }
}
