//! Engine-agnostic small-step semantics.
//!
//! The scheduled engine, the deterministic reference interpreter and the
//! discrete-event cluster simulator all drive records through components
//! by calling these pure functions, so the three cannot drift apart
//! semantically. Each function maps *one* input record to the records a
//! component emits in response, plus the abstract work performed.
//!
//! A step comes in two forms over one implementation. [`box_step`] and
//! [`filter_step`] return a [`StepOut`] — what the interpreter, the
//! simulator and anything stepping one record at a time want.
//! [`box_step_into`] and [`filter_step_into`] append the emitted records
//! to a buffer the caller already has — what the chain driver
//! (`fusion::ChainRunner`) wants, whose next stage reads that buffer:
//! the records go from where the step wrote them to where the next stage
//! reads them, without a `StepOut` in between.
//!
//! Both steps work on the record they own. For a box, matched, exact or
//! inheriting is decided by one merge of the record's id-sorted pairs
//! with the box's id-sorted input labels; an inheriting step moves the
//! consumed values out to the box's argument and what is left into the
//! last output, cloning only for the outputs before the last. For a
//! filter the pattern decides, every template is evaluated against the
//! intact record, and then the record itself — consumed labels taken
//! out in place, the last template's labels set over what is left —
//! *is* the last output; only the outputs before it take a copy of the
//! remainder (`FilterSpec::rewrite`). `FilterSpec::apply` over
//! [`crate::flow`] stays as the definition that
//! `tests/properties.rs::filter_step_is_match_apply_inherit` holds the
//! step to, as `project` + `without` + `absorb` are the box step's.

use crate::boxdef::{BoxDef, BoxOutput, RecordVec, Work};
use crate::error::SnetError;
use crate::filter::FilterSpec;
use crate::pattern::Pattern;
use crate::record::Record;
use std::fmt;

/// Result of feeding one record to a stateless component.
#[derive(Debug)]
pub struct StepOut {
    /// Emitted records, in order (inline for the common single record).
    pub records: RecordVec,
    /// Abstract work performed (box compute; zero for glue).
    pub work: Work,
    /// Whether the record actually matched the component (false means it
    /// was passed through untouched).
    pub matched: bool,
}

impl StepOut {
    fn passthrough(rec: Record) -> StepOut {
        StepOut {
            records: RecordVec::from_buf([rec]),
            work: Work::ZERO,
            matched: false,
        }
    }
}

/// How engines treat records that reach a component whose input type they
/// do not match. In a well-typed network this cannot happen; it can occur
/// when users bypass the checker and assemble [`crate::NetSpec`]s by hand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MismatchPolicy {
    /// Forward the record unchanged (the permissive default — mirrors the
    /// identity bypass the S-Net idioms use pervasively).
    #[default]
    Forward,
    /// Raise [`SnetError::TypeMismatch`].
    Error,
}

/// What a stateless component made of one record, before anyone has
/// collected it: the record itself when it did not match and was
/// forwarded, the component's own output when it did.
enum Stepped<T> {
    Forwarded(Record),
    Matched(T),
}

/// A record its component does not match: handed back to be forwarded
/// untouched, or an error naming what the component `expected`.
fn mismatch(
    rec: Record,
    policy: MismatchPolicy,
    expected: &dyn fmt::Display,
) -> Result<Record, SnetError> {
    match policy {
        MismatchPolicy::Forward => Ok(rec),
        MismatchPolicy::Error => Err(SnetError::TypeMismatch {
            expected: expected.to_string(),
            got: format!("{rec:?}"),
        }),
    }
}

/// The one implementation of box semantics; [`box_step`] and
/// [`box_step_into`] differ only in the `done` they hand it, which
/// says where the outcome goes. (A continuation, and inlined, rather
/// than a returned `Stepped`: the output is then collected from where
/// the box wrote it, without one more move of a 150-byte value.)
#[inline(always)]
fn box_core<T>(
    def: &BoxDef,
    rec: Record,
    policy: MismatchPolicy,
    done: impl FnOnce(Stepped<BoxOutput>) -> T,
) -> Result<T, SnetError> {
    let (fields, tags) = def.input_ids();
    if !rec.covers(fields, tags) {
        let rec = mismatch(rec, policy, def.input_variant())?;
        return Ok(done(Stepped::Forwarded(rec)));
    }
    let map_fail = |e| match e {
        SnetError::BoxFailure { .. } => e,
        other => SnetError::BoxFailure {
            name: def.sig.name.clone(),
            cause: other.to_string(),
        },
    };
    // Exact match: the record covers the input labels per namespace, so
    // equal totals mean the labels coincide exactly — the consumed part
    // *is* the record and there is nothing to inherit.
    if rec.len() == fields.len() + tags.len() {
        let out = def.func.call(&rec).map_err(map_fail)?;
        return Ok(done(Stepped::Matched(out)));
    }
    // Flow inheritance on the owned record: the consumed values move out
    // to the box's argument, and what is left of the record moves into
    // the last output (earlier outputs each take a copy).
    let mut rest = rec;
    let consumed = rest.split_off(fields, tags);
    let mut out = def.func.call(&consumed).map_err(map_fail)?;
    if let Some((last, earlier)) = out.records.split_last_mut() {
        for o in earlier {
            o.absorb(&rest);
        }
        last.absorb_owned(rest);
    }
    Ok(done(Stepped::Matched(out)))
}

/// Feeds one record to a box.
///
/// If the record matches the box's input variant: split into
/// consumed/rest, invoke the function on the consumed part, flow-inherit
/// the rest into every output. Otherwise apply `policy`.
pub fn box_step(def: &BoxDef, rec: Record, policy: MismatchPolicy) -> Result<StepOut, SnetError> {
    box_core(def, rec, policy, |stepped| match stepped {
        Stepped::Forwarded(rec) => StepOut::passthrough(rec),
        Stepped::Matched(out) => StepOut {
            records: out.records,
            work: out.work,
            matched: true,
        },
    })
}

/// [`box_step`], appending the emitted records to `sink`: `Some` of the
/// work performed when the record matched, `None` when it was passed
/// through untouched. Nothing reaches `sink` unless the step succeeds.
pub fn box_step_into(
    def: &BoxDef,
    rec: Record,
    policy: MismatchPolicy,
    sink: &mut impl Extend<Record>,
) -> Result<Option<Work>, SnetError> {
    box_core(def, rec, policy, |stepped| match stepped {
        Stepped::Forwarded(rec) => {
            sink.extend(Some(rec));
            None
        }
        Stepped::Matched(out) => {
            sink.extend(out.records);
            Some(out.work)
        }
    })
}

/// The one implementation of filter semantics, as [`box_core`] is of a
/// box's: the emitted records go to `sink`, which [`filter_step`] and
/// [`filter_step_into`] choose, and `true` comes back for a match.
#[inline(always)]
fn filter_core(
    spec: &FilterSpec,
    rec: Record,
    policy: MismatchPolicy,
    sink: &mut impl Extend<Record>,
) -> Result<bool, SnetError> {
    if !spec.pattern.matches(&rec) {
        sink.extend(Some(mismatch(rec, policy, &spec.pattern)?));
        return Ok(false);
    }
    spec.rewrite(rec, sink)?;
    Ok(true)
}

/// Feeds one record to a filter.
pub fn filter_step(
    spec: &FilterSpec,
    rec: Record,
    policy: MismatchPolicy,
) -> Result<StepOut, SnetError> {
    let mut records = RecordVec::new();
    let matched = filter_core(spec, rec, policy, &mut records)?;
    Ok(StepOut {
        records,
        work: Work::ZERO,
        matched,
    })
}

/// [`filter_step`], appending the emitted records to `sink`; reads like
/// [`box_step_into`], a matched filter reporting no work.
pub fn filter_step_into(
    spec: &FilterSpec,
    rec: Record,
    policy: MismatchPolicy,
    sink: &mut impl Extend<Record>,
) -> Result<Option<Work>, SnetError> {
    let matched = filter_core(spec, rec, policy, sink)?;
    Ok(matched.then_some(Work::ZERO))
}

/// Best-match branch selection for parallel composition: the index of
/// the branch achieving the maximal match score, the first in
/// declaration order on a tie, or `None` when no branch matches.
pub fn best_branch(branch_patterns: &[Vec<Pattern>], rec: &Record) -> Option<usize> {
    let mut best = None;
    for (i, patterns) in branch_patterns.iter().enumerate() {
        let score = patterns.iter().filter_map(|p| p.match_score(rec)).max();
        if let Some(s) = score {
            if best.is_none_or(|(b, _)| s > b) {
                best = Some((s, i));
            }
        }
    }
    best.map(|(_, i)| i)
}

impl fmt::Display for StepOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StepOut({} records, {} ops, matched={})",
            self.records.len(),
            self.work.ops,
            self.matched
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxdef::{BoxOutput, BoxSig};
    use crate::filter::{FilterSpec, OutputTemplate};
    use crate::rtype::Variant;
    use crate::value::Value;

    fn adder_box() -> BoxDef {
        BoxDef::from_fn(BoxSig::parse("adder", &["x", "<k>"], &[&["y"]]), |input| {
            let x = input.field("x").and_then(|v| v.as_int()).unwrap();
            let k = input.tag("k").unwrap();
            Ok(BoxOutput::one(
                Record::new().with_field("y", Value::Int(x + k)),
                Work::ops(1),
            ))
        })
    }

    #[test]
    fn box_step_applies_inheritance() {
        let rec = Record::new()
            .with_field("x", Value::Int(40))
            .with_tag("k", 2)
            .with_tag("extra", 7)
            .with_field("scene", Value::from("s"));
        let out = box_step(&adder_box(), rec, MismatchPolicy::Forward).unwrap();
        assert!(out.matched);
        let y = &out.records[0];
        assert_eq!(y.field("y").unwrap().as_int(), Some(42));
        assert_eq!(y.tag("extra"), Some(7)); // inherited
        assert!(y.has_field("scene")); // inherited
        assert_eq!(y.tag("k"), None); // consumed
        assert!(!y.has_field("x")); // consumed
    }

    #[test]
    fn every_output_inherits_and_its_own_labels_win() {
        // Two outputs, the first overriding an inherited tag: the
        // earlier output takes a copy of the remainder, the last one the
        // remainder itself, and both read the same.
        let fork = BoxDef::from_fn(
            BoxSig::parse("fork", &["x"], &[&["y", "<extra>"], &["z"]]),
            |_| {
                Ok(BoxOutput::from_iter(
                    [
                        Record::new()
                            .with_field("y", Value::Unit)
                            .with_tag("extra", -1),
                        Record::new().with_field("z", Value::Unit),
                    ],
                    Work::ops(2),
                ))
            },
        );
        let rec = Record::new()
            .with_field("x", Value::Int(1))
            .with_field("scene", Value::from("s"))
            .with_tag("extra", 7);
        let out = box_step(&fork, rec.clone(), MismatchPolicy::Forward).unwrap();
        assert_eq!(out.work, Work::ops(2));
        let [y, z] = &out.records[..] else {
            panic!("two outputs expected: {out}")
        };
        assert_eq!((y.tag("extra"), z.tag("extra")), (Some(-1), Some(7)));
        assert!(y.has_field("scene") && z.has_field("scene"));
        assert!(!y.has_field("x") && !z.has_field("x"));
        // The sink form appends the same two records.
        let mut sink = vec![Record::new()];
        let work = box_step_into(&fork, rec, MismatchPolicy::Forward, &mut sink).unwrap();
        assert_eq!(work, Some(Work::ops(2)));
        assert_eq!(sink[1..], out.records[..]);
    }

    #[test]
    fn a_box_that_emits_nothing_drops_the_remainder() {
        let sink_box = BoxDef::from_fn(BoxSig::parse("sink", &["x"], &[]), |_| {
            Ok(BoxOutput::none(Work::ZERO))
        });
        let rec = Record::new().with_field("x", Value::Unit).with_tag("t", 1);
        let out = box_step(&sink_box, rec, MismatchPolicy::Forward).unwrap();
        assert!(out.matched && out.records.is_empty());
    }

    #[test]
    fn box_step_passthrough_on_mismatch() {
        let rec = Record::new().with_tag("other", 1);
        let out = box_step(&adder_box(), rec.clone(), MismatchPolicy::Forward).unwrap();
        assert!(!out.matched);
        assert_eq!(out.records.to_vec(), vec![rec]);
    }

    #[test]
    fn box_step_strict_errors_on_mismatch() {
        let rec = Record::new().with_tag("other", 1);
        assert!(matches!(
            box_step(&adder_box(), rec, MismatchPolicy::Error),
            Err(SnetError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn box_failure_is_attributed() {
        let failing = BoxDef::from_fn(BoxSig::parse("bad", &[], &[&[]]), |_| {
            Err(SnetError::Engine("boom".into()))
        });
        let err = box_step(&failing, Record::new(), MismatchPolicy::Forward).unwrap_err();
        match err {
            SnetError::BoxFailure { name, cause } => {
                assert_eq!(name, "bad");
                assert!(cause.contains("boom"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn filter_step_passthrough() {
        let f = FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            vec![OutputTemplate::empty().keep_field("a")],
        );
        let rec = Record::new().with_field("b", Value::Unit);
        let out = filter_step(&f, rec.clone(), MismatchPolicy::Forward).unwrap();
        assert!(!out.matched);
        assert_eq!(out.records.to_vec(), vec![rec.clone()]);
        // The sink form: `None` for the pass-through, `Some` for a match.
        let mut sink = Vec::new();
        let work = filter_step_into(&f, rec.clone(), MismatchPolicy::Forward, &mut sink);
        assert_eq!((work.unwrap(), &sink[..]), (None, &[rec][..]));
        let hit = Record::new().with_field("a", Value::Unit).with_tag("t", 1);
        let work = filter_step_into(&f, hit.clone(), MismatchPolicy::Forward, &mut sink);
        assert_eq!(work.unwrap(), Some(Work::ZERO));
        assert_eq!(
            sink[1..],
            filter_step(&f, hit, MismatchPolicy::Forward)
                .unwrap()
                .records[..]
        );
    }

    #[test]
    fn best_match_prefers_specificity() {
        // Branch 0: merge box {chunk, pic}; branch 1: identity [].
        let branches = vec![
            vec![Pattern::from_variant(Variant::parse_labels(
                &["chunk", "pic"],
                &[],
            ))],
            vec![Pattern::any()],
        ];
        let merged = Record::new()
            .with_field("chunk", Value::Unit)
            .with_field("pic", Value::Unit);
        let lone_chunk = Record::new().with_field("chunk", Value::Unit);
        assert_eq!(best_branch(&branches, &merged), Some(0));
        assert_eq!(best_branch(&branches, &lone_chunk), Some(1));
    }

    #[test]
    fn ties_reported_in_declaration_order() {
        let on = |f: &str| vec![Pattern::from_variant(Variant::parse_labels(&[f], &[]))];
        let rec = Record::new()
            .with_field("a", Value::Unit)
            .with_field("b", Value::Unit);
        // Branches 1 and 2 tie at the maximal score; the earlier wins.
        let branches = [on("zzz"), on("a"), on("b")];
        assert_eq!(best_branch(&branches, &rec), Some(1));
    }

    #[test]
    fn no_match_is_empty() {
        let branches = vec![vec![Pattern::from_variant(Variant::parse_labels(
            &["a"],
            &[],
        ))]];
        assert_eq!(best_branch(&branches, &Record::new()), None);
    }
}
