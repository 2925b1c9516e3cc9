//! Engine-agnostic small-step semantics.
//!
//! The threaded runtime, the deterministic reference interpreter and the
//! discrete-event cluster engine all drive records through components by
//! calling these pure functions, so the three engines cannot drift apart
//! semantically. Each function maps *one* input record to the records a
//! component emits in response, plus the abstract work performed.

use crate::boxdef::{BoxDef, RecordVec, Work};
use crate::error::SnetError;
use crate::filter::FilterSpec;
use crate::flow;
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

/// Feeds one record to a box.
///
/// If the record matches the box's input variant: split into
/// consumed/rest, invoke the function on the consumed part, flow-inherit
/// the rest into every output. Otherwise apply `policy`.
pub fn box_step(def: &BoxDef, rec: Record, policy: MismatchPolicy) -> Result<StepOut, SnetError> {
    let iv = def.input_variant();
    if !iv.accepts(&rec) {
        return match policy {
            MismatchPolicy::Forward => Ok(StepOut::passthrough(rec)),
            MismatchPolicy::Error => Err(SnetError::TypeMismatch {
                expected: iv.to_string(),
                got: format!("{rec:?}"),
            }),
        };
    }
    let map_fail = |e| match e {
        SnetError::BoxFailure { .. } => e,
        other => SnetError::BoxFailure {
            name: def.sig.name.clone(),
            cause: other.to_string(),
        },
    };
    // Exact match: `accepts` proved the record a per-namespace superset of
    // the variant, so equal totals mean the labels coincide exactly — the
    // consumed part *is* the record and the rest is empty. Skip the two
    // record builds in `flow::split` and the inheritance walk.
    if rec.len() == iv.arity() {
        let out = def.func.call(&rec).map_err(map_fail)?;
        return Ok(StepOut {
            records: out.records,
            work: out.work,
            matched: true,
        });
    }
    let (consumed, rest) = flow::split(&rec, iv);
    let out = def.func.call(&consumed).map_err(map_fail)?;
    let mut records = out.records;
    flow::inherit_all(&mut records, &rest);
    Ok(StepOut {
        records,
        work: out.work,
        matched: true,
    })
}

/// Feeds one record to a filter.
pub fn filter_step(
    spec: &FilterSpec,
    rec: Record,
    policy: MismatchPolicy,
) -> Result<StepOut, SnetError> {
    if !spec.pattern.matches(&rec) {
        return match policy {
            MismatchPolicy::Forward => Ok(StepOut::passthrough(rec)),
            MismatchPolicy::Error => Err(SnetError::TypeMismatch {
                expected: spec.pattern.to_string(),
                got: format!("{rec:?}"),
            }),
        };
    }
    let records = RecordVec::from_vec(spec.apply(&rec)?);
    Ok(StepOut {
        records,
        work: Work::ZERO,
        matched: true,
    })
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
        assert_eq!(out.records.to_vec(), vec![rec]);
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
