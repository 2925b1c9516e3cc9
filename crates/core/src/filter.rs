//! Filters: `[ pattern -> template₁ ; template₂ ; … ]`.
//!
//! A filter consumes the part of a record matched by its pattern and
//! produces one record per output template; the unconsumed remainder is
//! flow-inherited into *every* output. Templates copy/rename fields and
//! (re)compute tags. The empty filter `[]` is the identity.
//!
//! Fig 4's `[{chunk,<node>} -> {chunk}; {<node>}]` — splitting a solver
//! result into an image chunk and a freed node token — is the canonical
//! example of a multi-output filter.
//!
//! The semantics are written twice. [`FilterSpec::apply`] is the
//! definition, spelled with [`flow::split`] and [`flow::inherit_all`] on
//! a borrowed record: two records built per input, one `Vec` per call,
//! nothing clever. `FilterSpec::rewrite` is what the engines run
//! (through `semantics::filter_core`): the same outputs, made by editing
//! the record the step was handed, so the usual single-output filter —
//! `[{<cnt>} -> {<cnt += 1>}]`, `[]` — builds no second record and
//! allocates nothing, and a record whose arrays have spilled keeps them.
//! The property `filter_step_is_match_apply_inherit` holds the second
//! to the first.

use crate::boxdef::RecordVec;
use crate::error::SnetError;
use crate::expr::TagExpr;
use crate::flow;
use crate::label::Label;
use crate::pattern::Pattern;
use crate::record::Record;
use crate::rtype::Variant;
use std::fmt;

/// One item of an output template.
#[derive(Clone, Debug, PartialEq)]
pub enum OutItem {
    /// `{b = a}`: output field `dst` takes the value of input field `src`
    /// (`{a}` is shorthand for `{a = a}`).
    Field { dst: Label, src: Label },
    /// `{<t = expr>}`: output tag `dst` takes the value of `expr`
    /// evaluated over the *input* record's tags (`{<t>}` is shorthand
    /// for `{<t = t>}`, `{<t += 1>}` for `{<t = t + 1>}`).
    Tag { dst: Label, expr: TagExpr },
}

/// An output template: the items of one produced record.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct OutputTemplate {
    /// Items in declaration order.
    pub items: Vec<OutItem>,
}

impl OutputTemplate {
    /// The empty template `{}` (produces a record that is pure
    /// inheritance of the remainder).
    pub fn empty() -> OutputTemplate {
        OutputTemplate::default()
    }

    /// Adds a field copy.
    pub fn keep_field(mut self, name: &str) -> OutputTemplate {
        let l = Label::new(name);
        self.items.push(OutItem::Field { dst: l, src: l });
        self
    }

    /// Adds a field rename.
    pub fn rename_field(mut self, dst: &str, src: &str) -> OutputTemplate {
        self.items.push(OutItem::Field {
            dst: Label::new(dst),
            src: Label::new(src),
        });
        self
    }

    /// Adds a tag assignment.
    pub fn set_tag(mut self, name: &str, expr: TagExpr) -> OutputTemplate {
        self.items.push(OutItem::Tag {
            dst: Label::new(name),
            expr,
        });
        self
    }

    /// Adds a tag copy (`{<t>}`).
    pub fn keep_tag(self, name: &str) -> OutputTemplate {
        let e = TagExpr::tag(name);
        self.set_tag(name, e)
    }

    /// The output variant this template produces (before inheritance).
    pub fn variant(&self) -> Variant {
        let mut v = Variant::empty();
        for item in &self.items {
            match item {
                OutItem::Field { dst, .. } => v.add_field(*dst),
                OutItem::Tag { dst, .. } => v.add_tag(*dst),
            }
        }
        v
    }

    /// The record this template produces from `input`, before
    /// inheritance; every item reads the input, none reads another.
    fn eval(&self, input: &Record) -> Result<Record, SnetError> {
        let mut out = Record::new();
        for item in &self.items {
            match item {
                OutItem::Field { dst, src } => {
                    let v = input.field(*src).ok_or(SnetError::MissingField(*src))?;
                    out.set_field(*dst, v.clone());
                }
                OutItem::Tag { dst, expr } => out.set_tag(*dst, expr.eval(input)?),
            }
        }
        Ok(out)
    }
}

/// A complete filter specification.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterSpec {
    /// Consumption pattern (also the filter's input type).
    pub pattern: Pattern,
    /// One produced record per template, in order.
    pub outputs: Vec<OutputTemplate>,
}

impl FilterSpec {
    /// Builds a filter.
    pub fn new(pattern: Pattern, outputs: Vec<OutputTemplate>) -> FilterSpec {
        FilterSpec { pattern, outputs }
    }

    /// The identity filter `[]`.
    pub fn identity() -> FilterSpec {
        FilterSpec {
            pattern: Pattern::any(),
            outputs: vec![OutputTemplate::empty()],
        }
    }

    /// Is this the identity filter?
    pub fn is_identity(&self) -> bool {
        self.pattern == Pattern::any()
            && self.outputs.len() == 1
            && self.outputs[0].items.is_empty()
    }

    /// Applies the filter to a matched record, producing the output
    /// records (with flow inheritance applied).
    ///
    /// The caller must have checked [`FilterSpec::pattern`] matches;
    /// non-matching records are passed through unchanged by the engines
    /// (see `semantics::filter_step`).
    pub fn apply(&self, input: &Record) -> Result<Vec<Record>, SnetError> {
        let (consumed, rest) = flow::split(input, &self.pattern.variant);
        let mut outs = Vec::with_capacity(self.outputs.len());
        for template in &self.outputs {
            let mut out = Record::new();
            for item in &template.items {
                match item {
                    OutItem::Field { dst, src } => {
                        let v = consumed
                            .field(*src)
                            .or_else(|| input.field(*src))
                            .cloned()
                            .ok_or(SnetError::MissingField(*src))?;
                        out.set_field(*dst, v);
                    }
                    OutItem::Tag { dst, expr } => {
                        out.set_tag(*dst, expr.eval(input)?);
                    }
                }
            }
            outs.push(out);
        }
        flow::inherit_all(&mut outs, &rest);
        Ok(outs)
    }

    /// [`apply`](FilterSpec::apply) to a matched record the caller owns,
    /// the outputs appended to `sink` — what the engines run. Every
    /// template is evaluated against the intact record first, so an
    /// error leaves `sink` as it was; then the consumed labels are taken
    /// out of the record in place, each output before the last takes a
    /// copy of what is left, and the last output is laid over the
    /// remainder itself, which moves on with the storage it came with.
    pub(crate) fn rewrite(
        &self,
        mut rec: Record,
        sink: &mut impl Extend<Record>,
    ) -> Result<(), SnetError> {
        let Some((last, earlier)) = self.outputs.split_last() else {
            return Ok(()); // no template: the record is consumed whole
        };
        let mut copies = RecordVec::new();
        for template in earlier {
            copies.push(template.eval(&rec)?);
        }
        let top = last.eval(&rec)?;
        let consumed = &self.pattern.variant;
        for l in consumed.fields() {
            rec.take_field(l);
        }
        for l in consumed.tags() {
            rec.take_tag(l);
        }
        for mut out in copies {
            out.absorb(&rec);
            sink.extend(Some(out));
        }
        rec.overlay(top);
        sink.extend(Some(rec));
        Ok(())
    }
}

impl fmt::Display for FilterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_identity() {
            return write!(f, "[]");
        }
        write!(f, "[ {} ->", self.pattern)?;
        for (i, t) in self.outputs.iter().enumerate() {
            if i > 0 {
                write!(f, " ;")?;
            }
            write!(f, " {{")?;
            for (j, item) in t.items.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                match item {
                    OutItem::Field { dst, src } if dst == src => write!(f, "{dst}")?,
                    OutItem::Field { dst, src } => write!(f, "{dst} = {src}")?,
                    OutItem::Tag { dst, expr } => {
                        if let TagExpr::Tag(src) = expr {
                            if src == dst {
                                write!(f, "<{dst}>")?;
                                continue;
                            }
                        }
                        write!(f, "<{dst} = {expr}>")?
                    }
                }
            }
            write!(f, "}}")?;
        }
        write!(f, " ]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::value::Value;

    /// `[ {} -> {<cnt=1>} ]` from Fig 3.
    #[test]
    fn init_counter_filter() {
        let f = FilterSpec::new(
            Pattern::any(),
            vec![OutputTemplate::empty().set_tag("cnt", TagExpr::Const(1))],
        );
        let input = Record::new()
            .with_field("pic", Value::Int(9))
            .with_tag("tasks", 8);
        let outs = f.apply(&input).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].tag("cnt"), Some(1));
        assert_eq!(outs[0].tag("tasks"), Some(8)); // inherited
        assert!(outs[0].has_field("pic")); // inherited
    }

    /// `[ {<cnt>} -> {<cnt+=1>} ]` from Fig 3.
    #[test]
    fn increment_filter() {
        let f = FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&[], &["cnt"])),
            vec![OutputTemplate::empty().set_tag(
                "cnt",
                TagExpr::bin(BinOp::Add, TagExpr::tag("cnt"), TagExpr::Const(1)),
            )],
        );
        let input = Record::new()
            .with_tag("cnt", 3)
            .with_field("pic", Value::Unit);
        let outs = f.apply(&input).unwrap();
        assert_eq!(outs[0].tag("cnt"), Some(4));
        assert!(outs[0].has_field("pic"));
    }

    /// `[ {chunk, <node>} -> {chunk}; {<node>} ]` from Fig 4: one record
    /// becomes an image chunk plus a node token, both inheriting the rest.
    #[test]
    fn chunk_token_split() {
        let f = FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&["chunk"], &["node"])),
            vec![
                OutputTemplate::empty().keep_field("chunk"),
                OutputTemplate::empty().keep_tag("node"),
            ],
        );
        let input = Record::new()
            .with_field("chunk", Value::Int(42))
            .with_tag("node", 5)
            .with_tag("tasks", 8);
        let outs = f.apply(&input).unwrap();
        assert_eq!(outs.len(), 2);
        // chunk record: has chunk + inherited tasks, no node
        assert!(outs[0].has_field("chunk"));
        assert_eq!(outs[0].tag("node"), None);
        assert_eq!(outs[0].tag("tasks"), Some(8));
        // token record: node only + inherited tasks
        assert!(!outs[1].has_field("chunk"));
        assert_eq!(outs[1].tag("node"), Some(5));
        assert_eq!(outs[1].tag("tasks"), Some(8));
    }

    #[test]
    fn identity_filter_is_identity() {
        let f = FilterSpec::identity();
        assert!(f.is_identity());
        let input = Record::new()
            .with_field("x", Value::Int(1))
            .with_tag("t", 2);
        let outs = f.apply(&input).unwrap();
        assert_eq!(outs, vec![input]);
    }

    #[test]
    fn field_rename() {
        let f = FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            vec![OutputTemplate::empty().rename_field("b", "a")],
        );
        let outs = f
            .apply(&Record::new().with_field("a", Value::Int(1)))
            .unwrap();
        assert!(outs[0].has_field("b"));
        assert!(!outs[0].has_field("a")); // consumed, not inherited
    }

    #[test]
    fn missing_source_field_is_an_error() {
        let f = FilterSpec::new(
            Pattern::any(),
            vec![OutputTemplate::empty().keep_field("ghost")],
        );
        assert!(matches!(
            f.apply(&Record::new()),
            Err(SnetError::MissingField(_))
        ));
    }

    /// The owned form against the definition, on the shapes it treats
    /// differently: no template, one, several; a consumed label kept,
    /// renamed, redefined and dropped; an inherited label overridden.
    #[test]
    fn rewrite_is_apply() {
        let on = |fields: &[&str], tags: &[&str]| {
            Pattern::from_variant(Variant::parse_labels(fields, tags))
        };
        let bump = |t: &str| TagExpr::bin(BinOp::Add, TagExpr::tag(t), TagExpr::Const(1));
        let specs = [
            FilterSpec::identity(),
            FilterSpec::new(on(&["a"], &["t"]), vec![]),
            FilterSpec::new(
                on(&[], &["t"]),
                vec![OutputTemplate::empty().set_tag("t", bump("t"))],
            ),
            FilterSpec::new(
                on(&["a"], &["t"]),
                vec![OutputTemplate::empty()
                    .rename_field("b", "a")
                    .set_tag("u", bump("t"))],
            ),
            FilterSpec::new(
                on(&["a"], &["t"]),
                vec![
                    OutputTemplate::empty()
                        .keep_field("a")
                        .set_tag("u", bump("u")),
                    OutputTemplate::empty().rename_field("a", "b"),
                    OutputTemplate::empty().keep_tag("t"),
                ],
            ),
        ];
        let narrow = Record::new()
            .with_field("a", Value::Int(1))
            .with_field("b", Value::Int(2))
            .with_tag("t", 3)
            .with_tag("u", 4);
        let spilled = narrow
            .clone()
            .with_field("c", Value::Int(5))
            .with_tag("v", 6);
        for spec in &specs {
            for rec in [&narrow, &spilled] {
                let mut sink = vec![Record::new()];
                spec.rewrite(rec.clone(), &mut sink).unwrap();
                assert_eq!(sink[1..], spec.apply(rec).unwrap()[..], "{spec} on {rec:?}");
            }
        }
    }

    #[test]
    fn a_failing_template_leaves_the_sink_alone() {
        let f = FilterSpec::new(
            Pattern::any(),
            vec![
                OutputTemplate::empty().keep_field("a"),
                OutputTemplate::empty().keep_tag("ghost"),
            ],
        );
        let rec = Record::new().with_field("a", Value::Unit);
        let mut sink = Vec::new();
        assert!(matches!(
            f.rewrite(rec, &mut sink),
            Err(SnetError::MissingTag(_))
        ));
        assert!(sink.is_empty());
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(FilterSpec::identity().to_string(), "[]");
        let f = FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&["chunk"], &["node"])),
            vec![
                OutputTemplate::empty().keep_field("chunk"),
                OutputTemplate::empty().keep_tag("node"),
            ],
        );
        assert_eq!(f.to_string(), "[ {chunk, <node>} -> {chunk} ; {<node>} ]");
    }
}
