//! Records: the communication quantum of S-Net.
//!
//! A record is a non-recursive set of label–value pairs, with labels
//! subdivided into *fields* (opaque values) and *tags* (integers
//! accessible to the coordination layer). See §III of the paper.
//!
//! # Representation
//!
//! Every component hop performs label lookups, projections and merges,
//! so the representation is the hottest data structure in the workspace.
//! Records are stored as two flat arrays ([`SmallVec`]s) sorted by
//! interned label id: the first two labels per namespace live *inline*
//! in the record itself (the 1–2-field records the benchmarks and the
//! paper's application stream through pipelines allocate nothing),
//! larger records spill to one contiguous allocation per namespace.
//! Lookups are a branch-light binary search over `u32` keys, and set
//! operations (absorb/project/without) are linear merges — replacing
//! the previous pointer-chasing `BTreeMap` pair. Iteration order is
//! interning-id order: deterministic within a process, which is all the
//! engines' multiset comparisons need. The inline capacity is a
//! move-size/alloc-rate trade-off: records are moved by value through
//! mailboxes and hand-off batches, so a larger inline buffer was
//! measured slower than the allocs it avoided.
//!
//! Two things follow from the sorted-by-id layout and are used by the
//! step semantics. An insert whose label sorts after every pair present
//! — every first insert, and a record built in ascending id order —
//! appends without a search. And a component that keeps its own labels
//! as id-sorted arrays ([`crate::boxdef::BoxDef`] does) matches a record
//! (`covers`) and takes an *owned* record apart (`split_off`,
//! `absorb_owned`) by merging integers and moving values, where the
//! borrowed forms ([`Record::project`], [`Record::without`],
//! [`Record::absorb`]) clone every value and probe a [`Variant`]'s
//! spelling-ordered sets. A 128-byte record is cheap to build and
//! expensive to shuffle: the owned forms work in place for that reason.
//! The filter step goes one further and never leaves the record: it
//! takes the consumed labels out ([`Record::take_field`],
//! [`Record::take_tag`]) and sets its output's pairs over the rest
//! (`overlay`), so an array that has spilled — the third tag of
//! `{x,<k>,<n>,<ts>}` — is allocated once, where the record was built,
//! and not again at every filter it crosses.

use crate::label::Label;
use crate::rtype::Variant;
use crate::value::Value;
use smallvec::SmallVec;
use std::fmt;

/// Sorted flat storage for one label namespace.
type Pairs<V> = SmallVec<[(Label, V); 2]>;

#[inline]
fn find<V>(pairs: &[(Label, V)], label: Label) -> Result<usize, usize> {
    pairs.binary_search_by(|(l, _)| l.id().cmp(&label.id()))
}

/// Does `label` sort after every pair present (so it is absent, and
/// belongs at the end)? True of every first insert and of a record
/// built in ascending id order, which then skip the search and the
/// shift.
#[inline]
fn appends<V>(pairs: &[(Label, V)], label: Label) -> bool {
    pairs.last().is_none_or(|(last, _)| last.id() < label.id())
}

#[inline]
fn upsert<V>(pairs: &mut Pairs<V>, label: Label, value: V) {
    if appends(pairs, label) {
        return pairs.push((label, value));
    }
    match find(pairs, label) {
        Ok(i) => pairs[i].1 = value,
        Err(i) => pairs.insert(i, (label, value)),
    }
}

/// Adds every pair of `src` (ascending ids) whose label `dst` lacks;
/// `own` turns a source value into a stored one (a clone, or the value
/// itself) and runs only for the pairs added.
fn merge_absent<T, V>(
    dst: &mut Pairs<V>,
    src: impl IntoIterator<Item = (Label, T)>,
    own: impl Fn(T) -> V,
) {
    for (l, v) in src {
        if appends(dst, l) {
            dst.push((l, own(v)));
        } else if let Err(i) = find(dst, l) {
            dst.insert(i, (l, own(v)));
        }
    }
}

/// Is every label of `want` among `pairs`? Both ascend by id, so one
/// pass over `pairs` answers for all of `want`: each label is looked for
/// from where the one before it was found.
#[inline]
fn covers<V>(pairs: &[(Label, V)], want: &[Label]) -> bool {
    let mut rest = pairs.iter();
    want.len() <= pairs.len() && want.iter().all(|w| rest.any(|(l, _)| l == w))
}

/// Moves the pairs labelled in `want` out of `pairs` (both ascending by
/// id); what stays keeps its order.
fn extract<V>(pairs: &mut Pairs<V>, want: &[Label]) -> Pairs<V> {
    let mut hit = Pairs::new();
    let mut at = 0;
    for w in want {
        at += pairs[at..]
            .iter()
            .take_while(|(l, _)| l.id() < w.id())
            .count();
        if pairs.get(at).is_some_and(|(l, _)| l == w) {
            hit.push(pairs.remove(at));
        }
    }
    hit
}

#[inline]
fn get<V>(pairs: &[(Label, V)], label: Label) -> Option<&V> {
    find(pairs, label).ok().map(|i| &pairs[i].1)
}

/// A data record flowing through a streaming network.
///
/// Records are value-like: cloning clones the label arrays but shares
/// all opaque payloads (fields hold `Arc`ed values).
#[derive(Clone, Default, PartialEq)]
pub struct Record {
    fields: Pairs<Value>,
    tags: Pairs<i64>,
}

impl Record {
    /// The empty record `{}`.
    pub fn new() -> Record {
        Record::default()
    }

    /// Builder-style field insertion.
    pub fn with_field(mut self, label: impl Into<Label>, value: impl Into<Value>) -> Record {
        self.set_field(label, value);
        self
    }

    /// Builder-style tag insertion.
    pub fn with_tag(mut self, label: impl Into<Label>, value: i64) -> Record {
        self.set_tag(label, value);
        self
    }

    /// Sets (or overwrites) a field.
    pub fn set_field(&mut self, label: impl Into<Label>, value: impl Into<Value>) {
        upsert(&mut self.fields, label.into(), value.into());
    }

    /// Sets (or overwrites) a tag.
    pub fn set_tag(&mut self, label: impl Into<Label>, value: i64) {
        upsert(&mut self.tags, label.into(), value);
    }

    /// Looks up a field.
    pub fn field(&self, label: impl Into<Label>) -> Option<&Value> {
        get(&self.fields, label.into())
    }

    /// Looks up a tag.
    pub fn tag(&self, label: impl Into<Label>) -> Option<i64> {
        get(&self.tags, label.into()).copied()
    }

    /// Removes and returns a field.
    pub fn take_field(&mut self, label: impl Into<Label>) -> Option<Value> {
        match find(&self.fields, label.into()) {
            Ok(i) => Some(self.fields.remove(i).1),
            Err(_) => None,
        }
    }

    /// Removes and returns a tag.
    pub fn take_tag(&mut self, label: impl Into<Label>) -> Option<i64> {
        match find(&self.tags, label.into()) {
            Ok(i) => Some(self.tags.remove(i).1),
            Err(_) => None,
        }
    }

    /// Does the record carry this field label?
    pub fn has_field(&self, label: impl Into<Label>) -> bool {
        find(&self.fields, label.into()).is_ok()
    }

    /// Does the record carry this tag label?
    pub fn has_tag(&self, label: impl Into<Label>) -> bool {
        find(&self.tags, label.into()).is_ok()
    }

    /// Iterates over fields (interning-id order — deterministic within a
    /// process).
    pub fn fields(&self) -> impl Iterator<Item = (Label, &Value)> {
        self.fields.iter().map(|(l, v)| (*l, v))
    }

    /// Iterates over tags (interning-id order).
    pub fn tags(&self) -> impl Iterator<Item = (Label, i64)> + '_ {
        self.tags.iter().map(|(l, v)| (*l, *v))
    }

    /// Number of labels (fields + tags).
    pub fn len(&self) -> usize {
        self.fields.len() + self.tags.len()
    }

    /// Is this the empty record?
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty() && self.tags.is_empty()
    }

    /// The record's exact type (its label sets).
    pub fn variant(&self) -> Variant {
        Variant::new(
            self.fields.iter().map(|(l, _)| *l),
            self.tags.iter().map(|(l, _)| *l),
        )
    }

    /// Adds every label of `other` that is *absent* here (the
    /// no-overwrite union used by flow inheritance and synchrocell
    /// merging — the receiver's own labels win).
    pub fn absorb(&mut self, other: &Record) {
        let fields = other.fields.iter().map(|(l, v)| (*l, v));
        merge_absent(&mut self.fields, fields, Value::clone);
        merge_absent(&mut self.tags, other.tags.iter().copied(), |v| v);
    }

    /// [`absorb`](Record::absorb) of a record the caller is done with:
    /// the values move instead of being cloned.
    pub(crate) fn absorb_owned(&mut self, other: Record) {
        // A namespace the receiver lacks altogether (a box that emits
        // no tags inheriting some) changes hands whole.
        fn merge<V>(dst: &mut Pairs<V>, src: Pairs<V>) {
            if dst.is_empty() {
                *dst = src;
            } else {
                merge_absent(dst, src, |v| v);
            }
        }
        merge(&mut self.fields, other.fields);
        merge(&mut self.tags, other.tags);
    }

    /// Sets every pair of `top` here, overwriting: what
    /// `top.absorb_owned(self)` leaves in `top`, built in `self`'s
    /// storage instead.
    pub(crate) fn overlay(&mut self, top: Record) {
        for (l, v) in top.fields {
            upsert(&mut self.fields, l, v);
        }
        for (l, v) in top.tags {
            upsert(&mut self.tags, l, v);
        }
    }

    /// Does the record carry every one of these labels (each slice
    /// ascending by id)? [`Variant::accepts`] over id arrays: a merge
    /// instead of a binary search per label.
    pub(crate) fn covers(&self, fields: &[Label], tags: &[Label]) -> bool {
        covers(&self.fields, fields) && covers(&self.tags, tags)
    }

    /// Moves the pairs labelled in `fields`/`tags` (each ascending by
    /// id) out into a record of their own; `self` keeps the remainder.
    /// The owned form of [`project`](Record::project) +
    /// [`without`](Record::without).
    pub(crate) fn split_off(&mut self, fields: &[Label], tags: &[Label]) -> Record {
        Record {
            fields: extract(&mut self.fields, fields),
            tags: extract(&mut self.tags, tags),
        }
    }

    /// Restriction of this record to the labels of `variant`
    /// (the "consumed" part a component actually sees).
    pub fn project(&self, variant: &Variant) -> Record {
        let mut out = Record::new();
        // The variant's label sets are tiny; per-label binary search into
        // the flat arrays keeps the scan allocation-free.
        for l in variant.fields() {
            if let Some(v) = get(&self.fields, l) {
                out.fields.push((l, v.clone()));
            }
        }
        out.fields.sort_unstable_by_key(|(l, _)| l.id());
        for l in variant.tags() {
            if let Some(v) = get(&self.tags, l) {
                out.tags.push((l, *v));
            }
        }
        out.tags.sort_unstable_by_key(|(l, _)| l.id());
        out
    }

    /// Restriction of this record to the labels *not* in `variant`
    /// (the part flow inheritance forwards).
    pub fn without(&self, variant: &Variant) -> Record {
        let mut out = Record::new();
        for (l, v) in self.fields.iter() {
            if !variant.has_field(*l) {
                out.fields.push((*l, v.clone()));
            }
        }
        for (l, v) in self.tags.iter() {
            if !variant.has_tag(*l) {
                out.tags.push((*l, *v));
            }
        }
        // Source arrays were sorted; filtered copies stay sorted.
        out
    }

    /// Approximate wire size: payload bytes plus a fixed per-label framing
    /// overhead (label id + discriminant ≈ 8 bytes, tag payload 8 bytes).
    pub fn approx_bytes(&self) -> usize {
        let fields: usize = self.fields.iter().map(|(_, v)| v.approx_bytes() + 8).sum();
        let tags = self.tags.len() * 16;
        fields + tags
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Storage is interning-id order (fast lookups), but printed
        // output sorts by spelling via `Label`'s `Ord` so that logs,
        // error messages and test multiset keys are identical across
        // processes regardless of interning order. Printing is cold;
        // the sort costs nothing that matters.
        let mut fields: Vec<(Label, &Value)> = self.fields().collect();
        fields.sort_unstable_by_key(|&(a, _)| a);
        let mut tags: Vec<(Label, i64)> = self.tags().collect();
        tags.sort_unstable_by_key(|&(a, _)| a);
        write!(f, "{{")?;
        let mut first = true;
        for (l, v) in fields {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{l}={v:?}")?;
        }
        for (l, v) in tags {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "<{l}={v}>")?;
        }
        write!(f, "}}")
    }
}

/// Builds a record: `record!{ fields: { "a" => 1i64 }, tags: { "t" => 2 } }`.
/// Both sections are optional.
#[macro_export]
macro_rules! record {
    () => { $crate::record::Record::new() };
    (fields: { $($fl:expr => $fv:expr),* $(,)? } $(, tags: { $($tl:expr => $tv:expr),* $(,)? })? $(,)?) => {{
        #[allow(unused_mut)]
        let mut r = $crate::record::Record::new();
        $( r.set_field($fl, $fv); )*
        $( $( r.set_tag($tl, $tv); )* )?
        r
    }};
    (tags: { $($tl:expr => $tv:expr),* $(,)? } $(,)?) => {{
        #[allow(unused_mut)]
        let mut r = $crate::record::Record::new();
        $( r.set_tag($tl, $tv); )*
        r
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record::new()
            .with_field("scene", Value::from("geometry"))
            .with_field("sect", Value::Int(4))
            .with_tag("node", 2)
            .with_tag("tasks", 8)
    }

    #[test]
    fn basic_access() {
        let r = sample();
        assert_eq!(r.tag("node"), Some(2));
        assert_eq!(r.field("sect").unwrap().as_int(), Some(4));
        assert!(r.has_field("scene"));
        assert!(!r.has_field("node")); // node is a tag, not a field
        assert!(!r.has_tag("scene"));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn variant_reflects_labels() {
        let v = sample().variant();
        assert!(v.has_field(Label::new("scene")));
        assert!(v.has_tag(Label::new("tasks")));
        assert_eq!(v.arity(), 4);
    }

    #[test]
    fn absorb_does_not_overwrite() {
        let mut a = Record::new()
            .with_tag("cnt", 1)
            .with_field("pic", Value::Int(10));
        let b = Record::new()
            .with_tag("cnt", 99)
            .with_tag("tasks", 8)
            .with_field("chunk", Value::Int(20));
        a.absorb(&b);
        assert_eq!(a.tag("cnt"), Some(1)); // kept
        assert_eq!(a.tag("tasks"), Some(8)); // added
        assert!(a.has_field("chunk"));
    }

    #[test]
    fn project_and_without_partition_the_record() {
        let r = sample();
        let v = Variant::new([Label::new("scene")], [Label::new("node")]);
        let consumed = r.project(&v);
        let rest = r.without(&v);
        assert_eq!(consumed.len(), 2);
        assert_eq!(rest.len(), 2);
        let mut merged = consumed;
        merged.absorb(&rest);
        assert_eq!(merged, r);
    }

    /// The labels of `names`, ascending by id as the id-array callers
    /// keep them.
    fn by_id(names: &[&str]) -> Vec<Label> {
        let mut labels: Vec<Label> = names.iter().map(|n| Label::new(n)).collect();
        labels.sort_unstable_by_key(Label::id);
        labels
    }

    #[test]
    fn covers_is_accepts_over_id_arrays() {
        let r = sample();
        assert!(r.covers(&[], &[]));
        assert!(r.covers(&by_id(&["sect", "scene"]), &by_id(&["tasks"])));
        assert!(r.covers(&by_id(&["scene"]), &by_id(&["node", "tasks"])));
        assert!(!r.covers(&by_id(&["node"]), &[])); // a tag, not a field
        assert!(!r.covers(&by_id(&["scene", "absent"]), &[]));
        assert!(!r.covers(&[], &by_id(&["node", "tasks", "absent"])));
        assert!(!Record::new().covers(&by_id(&["scene"]), &[]));
    }

    #[test]
    fn split_off_moves_what_project_and_without_copy() {
        let wide = sample()
            .with_field("chunk", Value::from("payload"))
            .with_tag("fst", 1);
        let cases: [(&[&str], &[&str]); 5] = [
            (&[], &[]),
            (&["scene"], &["node"]),
            (&["chunk", "scene", "sect"], &[]),
            (&["sect"], &["fst", "node", "tasks"]),
            (&["absent", "sect"], &["absent"]),
        ];
        for (fields, tags) in cases {
            let v = Variant::parse_labels(fields, tags);
            let mut rest = wide.clone();
            let consumed = rest.split_off(&by_id(fields), &by_id(tags));
            assert_eq!(consumed, wide.project(&v), "{v}");
            assert_eq!(rest, wide.without(&v), "{v}");
        }
    }

    #[test]
    fn absorb_owned_is_absorb() {
        let b = Record::new()
            .with_tag("cnt", 99)
            .with_tag("tasks", 8)
            .with_field("chunk", Value::from("payload"));
        let receivers = [
            Record::new(),
            Record::new().with_tag("cnt", 1),
            Record::new().with_field("pic", Value::Int(10)),
            sample().with_field("chunk", Value::Unit).with_tag("cnt", 1),
        ];
        for a in receivers {
            let (mut by_ref, mut by_move) = (a.clone(), a);
            by_ref.absorb(&b);
            by_move.absorb_owned(b.clone());
            assert_eq!(by_move, by_ref);
        }
    }

    #[test]
    fn record_macro_forms() {
        let a = record! {};
        assert!(a.is_empty());
        let b = record! { tags: { "t" => 3 } };
        assert_eq!(b.tag("t"), Some(3));
        let c = record! { fields: { "x" => 1i64 }, tags: { "t" => 2 } };
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn approx_bytes_counts_payload_and_framing() {
        let r = Record::new()
            .with_field("data", Value::from(vec![0u8; 100]))
            .with_tag("t", 1);
        assert_eq!(r.approx_bytes(), 100 + 8 + 16);
    }

    #[test]
    fn debug_format_is_stable() {
        let r = Record::new()
            .with_field("a", Value::Int(1))
            .with_tag("t", 2);
        assert_eq!(format!("{r:?}"), "{a=1, <t=2>}");
    }

    #[test]
    fn debug_prints_in_spelling_order_regardless_of_interning() {
        // Intern in reverse lexicographic order on purpose: printed
        // output must still be alphabetical.
        let r = Record::new()
            .with_tag("zz-debug-order", 1)
            .with_tag("aa-debug-order", 2)
            .with_field("mm-debug-order", Value::Int(3));
        assert_eq!(
            format!("{r:?}"),
            "{mm-debug-order=3, <aa-debug-order=2>, <zz-debug-order=1>}"
        );
    }

    #[test]
    fn take_removes_and_returns() {
        let mut r = sample();
        assert_eq!(r.take_tag("node"), Some(2));
        assert_eq!(r.take_tag("node"), None);
        assert!(r.take_field("scene").is_some());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn overwrite_keeps_one_entry_per_label() {
        let mut r = Record::new().with_tag("t", 1);
        r.set_tag("t", 2);
        r.set_tag("t", 3);
        assert_eq!(r.tag("t"), Some(3));
        assert_eq!(r.len(), 1);
        let mut r = Record::new().with_field("f", Value::Int(1));
        r.set_field("f", Value::Int(9));
        assert_eq!(r.field("f").unwrap().as_int(), Some(9));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn storage_stays_sorted_under_random_insertion_orders() {
        // The flat representation's invariant: equal label sets compare
        // equal regardless of insertion order.
        let names = ["m", "a", "z", "k", "b", "q", "c"];
        let mut fwd = Record::new();
        for (i, n) in names.iter().enumerate() {
            fwd.set_tag(*n, i as i64);
            fwd.set_field(*n, Value::Int(i as i64));
        }
        let mut rev = Record::new();
        for (i, n) in names.iter().enumerate().rev() {
            rev.set_tag(*n, i as i64);
            rev.set_field(*n, Value::Int(i as i64));
        }
        assert_eq!(fwd, rev);
        for (i, n) in names.iter().enumerate() {
            assert_eq!(fwd.tag(*n), Some(i as i64));
            assert_eq!(rev.field(*n).unwrap().as_int(), Some(i as i64));
        }
    }
}
