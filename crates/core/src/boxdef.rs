//! Boxes: stateless user components.
//!
//! A box is "a self-contained function of value parameters received only
//! via the explicit parameter-passing mechanism" (§I). On the S-Net level
//! a box is characterized by its *box signature*: an ordered input
//! variant (the calling convention of the box language) mapped to a
//! disjunction of output variants, e.g.
//!
//! ```text
//! box foo ((a,<b>) -> (c) | (c,d,<e>));
//! ```
//!
//! Boxes also report abstract *work* ([`Work`]) so that the cluster
//! simulator can charge virtual CPU time for their execution; on the
//! scheduled engine the work value is simply recorded by the tracer.

use crate::error::SnetError;
use crate::fault::FailurePolicy;
use crate::inline::InlineVec;
use crate::label::Label;
use crate::record::Record;
use crate::rtype::{RType, Variant};
use std::fmt;
use std::sync::Arc;

/// Records emitted by one step. Every engine produces one of these per
/// record per component, and the overwhelmingly common case is a single
/// output record, which `RecordVec::One` holds in place; two or more
/// move to the heap. It dereferences to `[Record]` and grows by `push`,
/// `insert`, `extend` or `collect`.
pub type RecordVec = InlineVec<Record, 1>;

/// One entry of an ordered box signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigItem {
    /// An opaque field parameter.
    Field(Label),
    /// An integer tag parameter.
    Tag(Label),
}

impl SigItem {
    /// The label, regardless of kind.
    pub fn label(&self) -> Label {
        match self {
            SigItem::Field(l) | SigItem::Tag(l) => *l,
        }
    }
}

/// A box signature: ordered input items and a disjunction of ordered
/// output variants.
#[derive(Clone, Debug, PartialEq)]
pub struct BoxSig {
    /// Box name (used in diagnostics and the textual language).
    pub name: String,
    /// Ordered input parameters.
    pub input: Vec<SigItem>,
    /// Output variants (each an ordered item list).
    pub outputs: Vec<Vec<SigItem>>,
}

impl BoxSig {
    /// Builds a signature from string specs: fields as `"name"`, tags as
    /// `"<name>"`.
    ///
    /// ```
    /// use snet_core::BoxSig;
    /// let sig = BoxSig::parse("solver", &["scene", "sect"], &[&["chunk"]]);
    /// assert_eq!(sig.input_variant().arity(), 2);
    /// ```
    pub fn parse(name: &str, input: &[&str], outputs: &[&[&str]]) -> BoxSig {
        fn item(s: &str) -> SigItem {
            if let Some(tag) = s.strip_prefix('<').and_then(|s| s.strip_suffix('>')) {
                SigItem::Tag(Label::new(tag))
            } else {
                SigItem::Field(Label::new(s))
            }
        }
        BoxSig {
            name: name.to_owned(),
            input: input.iter().map(|s| item(s)).collect(),
            outputs: outputs
                .iter()
                .map(|o| o.iter().map(|s| item(s)).collect())
                .collect(),
        }
    }

    /// The input type (order dropped), per §III: "the box signature
    /// naturally induces a type signature".
    pub fn input_variant(&self) -> Variant {
        let mut v = Variant::empty();
        for item in &self.input {
            match item {
                SigItem::Field(l) => v.add_field(*l),
                SigItem::Tag(l) => v.add_tag(*l),
            }
        }
        v
    }

    /// The output type (multivariant, order dropped).
    pub fn output_type(&self) -> RType {
        let mut t = RType::default();
        for out in &self.outputs {
            let mut v = Variant::empty();
            for item in out {
                match item {
                    SigItem::Field(l) => v.add_field(*l),
                    SigItem::Tag(l) => v.add_tag(*l),
                }
            }
            t.push(v);
        }
        t
    }
}

impl fmt::Display for BoxSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn items(f: &mut fmt::Formatter<'_>, items: &[SigItem]) -> fmt::Result {
            write!(f, "(")?;
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match it {
                    SigItem::Field(l) => write!(f, "{l}")?,
                    SigItem::Tag(l) => write!(f, "<{l}>")?,
                }
            }
            write!(f, ")")
        }
        write!(f, "box {} (", self.name)?;
        items(f, &self.input)?;
        write!(f, " -> ")?;
        for (i, out) in self.outputs.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            items(f, out)?;
        }
        write!(f, ")")
    }
}

/// Abstract work performed by one box invocation, in machine-neutral
/// "operations". The cluster simulator converts ops to seconds via the
/// node's speed; the unit is calibrated in `snet-dist`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Operation count.
    pub ops: u64,
}

impl Work {
    /// No measurable work (signalling boxes, tiny glue).
    pub const ZERO: Work = Work { ops: 0 };

    pub fn ops(ops: u64) -> Work {
        Work { ops }
    }
}

impl std::ops::Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        Work {
            ops: self.ops + rhs.ops,
        }
    }
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        self.ops += rhs.ops;
    }
}

/// The result of one box invocation: the produced records (before flow
/// inheritance, which the engine applies) and the work performed.
#[derive(Debug, Default)]
pub struct BoxOutput {
    /// Produced records in emission order.
    pub records: RecordVec,
    /// Abstract work for the simulator's cost model.
    pub work: Work,
}

impl BoxOutput {
    /// Single-record output with work: `RecordVec::One`, no heap
    /// allocation.
    pub fn one(rec: Record, work: Work) -> BoxOutput {
        BoxOutput {
            records: RecordVec::One(rec),
            work,
        }
    }

    /// Multi-record output from an already-built [`RecordVec`]: build
    /// it in place (one record stays inline, more take one allocation)
    /// and hand it over, with no intermediate `Vec` round-trip.
    pub fn many_into(records: RecordVec, work: Work) -> BoxOutput {
        BoxOutput { records, work }
    }

    /// Multi-record output collected from an iterator.
    pub fn from_iter(records: impl IntoIterator<Item = Record>, work: Work) -> BoxOutput {
        BoxOutput {
            records: records.into_iter().collect(),
            work,
        }
    }

    /// No output records, only work (consuming boxes, dead ends).
    pub fn none(work: Work) -> BoxOutput {
        BoxOutput {
            records: RecordVec::new(),
            work,
        }
    }
}

/// A box function: pure (no mutable static data), thread-safe, invoked
/// once per matched input record. The argument is the *consumed*
/// sub-record (exactly the signature's labels); the engine applies flow
/// inheritance to the produced records.
pub trait BoxFn: Send + Sync {
    /// Executes the box on one input record.
    fn call(&self, input: &Record) -> Result<BoxOutput, SnetError>;
}

impl<F> BoxFn for F
where
    F: Fn(&Record) -> Result<BoxOutput, SnetError> + Send + Sync,
{
    fn call(&self, input: &Record) -> Result<BoxOutput, SnetError> {
        self(input)
    }
}

/// A named, signed, executable box — the unit the topology references.
#[derive(Clone)]
pub struct BoxDef {
    /// Signature (name, input, outputs).
    pub sig: BoxSig,
    /// Implementation.
    pub func: Arc<dyn BoxFn>,
    /// Per-box failure-policy override; `None` follows the engine's
    /// configured policy.
    pub policy: Option<FailurePolicy>,
    /// `sig.input_variant()` cached at construction. Rebuilding the
    /// variant allocates label sets, and every engine consults it once
    /// per record per box — the single hottest line in the workspace.
    /// `sig` is never mutated after construction (every constructor
    /// funnels through `new`/`from_fn`), so the cache cannot go stale.
    iv: Variant,
    /// `iv`'s fields and tags once more, each ascending by interned id
    /// — the order a record stores its pairs in — so the per-record
    /// match and split are merges over integers; `iv`'s own sets order
    /// by spelling, which reads the global label table per comparison.
    in_fields: Box<[Label]>,
    in_tags: Box<[Label]>,
}

impl BoxDef {
    pub fn new(sig: BoxSig, func: Arc<dyn BoxFn>) -> BoxDef {
        fn by_id(labels: impl Iterator<Item = Label>) -> Box<[Label]> {
            let mut labels: Box<[Label]> = labels.collect();
            labels.sort_unstable_by_key(Label::id);
            labels
        }
        let iv = sig.input_variant();
        BoxDef {
            sig,
            func,
            policy: None,
            in_fields: by_id(iv.fields()),
            in_tags: by_id(iv.tags()),
            iv,
        }
    }

    /// Convenience constructor from a closure.
    pub fn from_fn<F>(sig: BoxSig, f: F) -> BoxDef
    where
        F: Fn(&Record) -> Result<BoxOutput, SnetError> + Send + Sync + 'static,
    {
        BoxDef::new(sig, Arc::new(f))
    }

    /// The box's input variant, cached at construction (the per-record
    /// hot path must not rebuild label sets).
    pub fn input_variant(&self) -> &Variant {
        &self.iv
    }

    /// The input variant's field and tag labels, each ascending by id.
    pub(crate) fn input_ids(&self) -> (&[Label], &[Label]) {
        (&self.in_fields, &self.in_tags)
    }

    /// Overrides the engine-level failure policy for this box only.
    pub fn with_policy(mut self, policy: FailurePolicy) -> BoxDef {
        self.policy = Some(policy);
        self
    }

    /// The policy this box runs under, given the engine default.
    pub fn effective_policy(&self, engine_default: FailurePolicy) -> FailurePolicy {
        self.policy.unwrap_or(engine_default)
    }
}

impl fmt::Debug for BoxDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BoxDef({})", self.sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn signature_parsing_and_types() {
        let sig = BoxSig::parse("foo", &["a", "<b>"], &[&["c"], &["c", "d", "<e>"]]);
        let iv = sig.input_variant();
        assert!(iv.has_field(Label::new("a")));
        assert!(iv.has_tag(Label::new("b")));
        let ot = sig.output_type();
        assert_eq!(ot.variants().len(), 2);
        assert_eq!(sig.to_string(), "box foo ((a, <b>) -> (c) | (c, d, <e>))");
    }

    #[test]
    fn closure_box_executes() {
        let sig = BoxSig::parse("double", &["x"], &[&["y"]]);
        let b = BoxDef::from_fn(sig, |input| {
            let x = input.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            Ok(BoxOutput::one(
                Record::new().with_field("y", Value::Int(2 * x)),
                Work::ops(1),
            ))
        });
        let out = b
            .func
            .call(&Record::new().with_field("x", Value::Int(21)))
            .unwrap();
        assert_eq!(out.records[0].field("y").unwrap().as_int(), Some(42));
        assert_eq!(out.work, Work::ops(1));
    }

    #[test]
    fn output_constructors_avoid_the_heap_when_short() {
        // `one` and a single-record `many_into` stay inline.
        let a = BoxOutput::one(Record::new().with_tag("t", 1), Work::ZERO);
        assert!(matches!(a.records, RecordVec::One(_)));
        let mut rv = RecordVec::new();
        rv.push(Record::new().with_tag("t", 2));
        let b = BoxOutput::many_into(rv, Work::ops(3));
        assert!(matches!(b.records, RecordVec::One(_)));
        assert_eq!(b.work, Work::ops(3));
        assert!(BoxOutput::none(Work::ZERO).records.is_empty());
        // The iterator form keeps emission order.
        let recs = vec![
            Record::new().with_tag("t", 3),
            Record::new().with_tag("t", 4),
        ];
        let d = BoxOutput::from_iter(recs.clone(), Work::ZERO);
        assert_eq!(d.records[..], recs[..]);
    }

    #[test]
    fn work_arithmetic() {
        let mut w = Work::ops(5);
        w += Work::ops(7);
        assert_eq!(w + Work::ZERO, Work::ops(12));
    }
}
