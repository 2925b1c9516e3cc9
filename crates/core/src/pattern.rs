//! Type patterns with optional tag guards.
//!
//! Patterns appear as filter inputs, synchrocell slots and star exit
//! conditions. A pattern is a [`Variant`] (the labels a record must
//! carry) plus an optional boolean [`TagExpr`] guard over the record's
//! tags — the paper's `*{<tasks> == <cnt>}` is the pattern with variant
//! `{<tasks>, <cnt>}` and guard `<tasks> == <cnt>`.

use crate::expr::TagExpr;
use crate::record::Record;
use crate::rtype::Variant;
use std::fmt;

/// A record pattern: required labels plus an optional tag guard.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Pattern {
    /// Labels the record must carry.
    pub variant: Variant,
    /// Optional guard evaluated over the record's tags; tags referenced
    /// by the guard are implicitly required (they are part of `variant`
    /// when constructed via [`Pattern::guarded`]).
    pub guard: Option<TagExpr>,
}

impl Pattern {
    /// Pattern requiring exactly the given labels, no guard.
    pub fn from_variant(variant: Variant) -> Pattern {
        Pattern {
            variant,
            guard: None,
        }
    }

    /// The empty pattern `{}` — matches every record.
    pub fn any() -> Pattern {
        Pattern::default()
    }

    /// Builds a guarded pattern; every tag referenced by the guard is
    /// added to the required variant, so `{<tasks> == <cnt>}` requires
    /// both tags to be present before the comparison is attempted.
    pub fn guarded(mut variant: Variant, guard: TagExpr) -> Pattern {
        let mut tags = Vec::new();
        guard.referenced_tags(&mut tags);
        for t in tags {
            variant.add_tag(t);
        }
        Pattern {
            variant,
            guard: Some(guard),
        }
    }

    /// Does the record satisfy labels *and* guard?
    ///
    /// Guard evaluation cannot fail here: all referenced tags are part of
    /// the variant check, and guards are pure comparisons/arithmetic — a
    /// division by zero inside a guard counts as "no match".
    pub fn matches(&self, rec: &Record) -> bool {
        if !self.variant.accepts(rec) {
            return false;
        }
        match &self.guard {
            None => true,
            Some(g) => g.eval_bool(rec).unwrap_or(false),
        }
    }

    /// Best-match score: label count if matched (guard included), else
    /// `None`. A guard does not change specificity beyond the tags it
    /// forces into the variant.
    pub fn match_score(&self, rec: &Record) -> Option<usize> {
        if self.matches(rec) {
            Some(self.variant.arity())
        } else {
            None
        }
    }
}

/// S-Net source: `{labels…, guard}`, re-parsing to the same pattern.
impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        write!(f, "{{")?;
        for l in self.variant.fields() {
            write!(f, "{sep}{l}")?;
            sep = ", ";
        }
        for l in self.variant.tags() {
            write!(f, "{sep}<{l}>")?;
            sep = ", ";
        }
        match &self.guard {
            // A bare `<t>` would re-parse as a tag label.
            Some(g @ TagExpr::Tag(_)) => write!(f, "{sep}({g})")?,
            Some(g) => write!(f, "{sep}{g}")?,
            None => {}
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, TagExpr};

    #[test]
    fn unguarded_matches_by_labels() {
        let p = Pattern::from_variant(Variant::parse_labels(&["chunk"], &[]));
        let yes = Record::new().with_field("chunk", crate::value::Value::Unit);
        let no = Record::new().with_tag("chunk", 1); // tag, not field
        assert!(p.matches(&yes));
        assert!(!p.matches(&no));
    }

    #[test]
    fn any_matches_everything() {
        assert!(Pattern::any().matches(&Record::new()));
        assert!(Pattern::any().matches(&Record::new().with_tag("x", 1)));
        assert_eq!(Pattern::any().match_score(&Record::new()), Some(0));
    }

    #[test]
    fn guard_requires_its_tags() {
        // *{<tasks> == <cnt>} from Fig 3.
        let p = Pattern::guarded(
            Variant::empty(),
            TagExpr::bin(BinOp::Eq, TagExpr::tag("tasks"), TagExpr::tag("cnt")),
        );
        assert!(p.variant.has_tag(crate::label::Label::new("tasks")));
        assert!(p.variant.has_tag(crate::label::Label::new("cnt")));
        let done = Record::new().with_tag("tasks", 8).with_tag("cnt", 8);
        let not_done = Record::new().with_tag("tasks", 8).with_tag("cnt", 3);
        let missing = Record::new().with_tag("tasks", 8);
        assert!(p.matches(&done));
        assert!(!p.matches(&not_done));
        assert!(!p.matches(&missing));
    }

    #[test]
    fn guarded_score_counts_guard_tags() {
        let p = Pattern::guarded(
            Variant::parse_labels(&["pic"], &[]),
            TagExpr::bin(BinOp::Gt, TagExpr::tag("cnt"), TagExpr::Const(0)),
        );
        let rec = Record::new()
            .with_field("pic", crate::value::Value::Unit)
            .with_tag("cnt", 2);
        assert_eq!(p.match_score(&rec), Some(2)); // pic + <cnt>
    }

    #[test]
    fn prints_as_source() {
        let zero = TagExpr::bin(BinOp::Eq, TagExpr::tag("n"), TagExpr::Const(0));
        let p = Pattern::guarded(Variant::parse_labels(&["x"], &["n"]), zero);
        assert_eq!(p.to_string(), "{x, <n>, (<n> == 0)}");
        let bare = Pattern::guarded(Variant::empty(), TagExpr::tag("t"));
        assert_eq!(bare.to_string(), "{<t>, (<t>)}");
        assert_eq!(Pattern::any().to_string(), "{}");
    }
}
