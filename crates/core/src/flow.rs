//! Flow inheritance (§I.B, §III).
//!
//! "Excess fields and tags from incoming records are not just ignored …
//! but are also attached to any outgoing record produced in response to
//! that record" — unless an identically labelled item is already present
//! (override).
//!
//! These helpers are the *definition* of flow inheritance on borrowed
//! records — readable, and paid for in copies: `split` builds two
//! records, `inherit` clones every value it attaches. No step on an
//! engine's path calls them any more: the box step and the filter step
//! take the consumed part out of the record they own and move the
//! remainder on (`semantics::box_core`, `FilterSpec::rewrite`).
//! What still does is [`crate::FilterSpec::apply`], the reference the
//! filter step is tested against, and the property tests that state the
//! laws of §III over `split` and `inherit` themselves.

use crate::record::Record;
use crate::rtype::Variant;

/// Splits `input` into the part consumed by `variant` and the inherited
/// remainder. `consumed ∪ rest == input`, `consumed ∩ rest == ∅`.
pub fn split(input: &Record, variant: &Variant) -> (Record, Record) {
    (input.project(variant), input.without(variant))
}

/// Attaches the inherited remainder to an output record, without
/// overriding labels the output already defines.
pub fn inherit(output: &mut Record, rest: &Record) {
    output.absorb(rest);
}

/// Applies inheritance to a batch of outputs (each output gets its own
/// copy of the remainder — the paper's "each of the output records").
pub fn inherit_all(outputs: &mut [Record], rest: &Record) {
    for out in outputs {
        inherit(out, rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn split_partitions() {
        let rec = Record::new()
            .with_field("scene", Value::from("s"))
            .with_field("sect", Value::Int(1))
            .with_tag("node", 2)
            .with_tag("fst", 1);
        let v = Variant::parse_labels(&["scene", "sect"], &[]);
        let (consumed, rest) = split(&rec, &v);
        assert_eq!(consumed.len(), 2);
        assert!(rest.has_tag("node") && rest.has_tag("fst"));
        assert!(!rest.has_field("scene"));
    }

    #[test]
    fn inheritance_attaches_without_override() {
        // Box consumes {chunk,<node>} and emits {chunk}; <tasks> and <fst>
        // must flow through, but a freshly set <node> must not be clobbered.
        let rest = Record::new().with_tag("tasks", 8).with_tag("node", 3);
        let mut out = Record::new()
            .with_field("chunk", Value::Int(7))
            .with_tag("node", 99); // override
        inherit(&mut out, &rest);
        assert_eq!(out.tag("node"), Some(99));
        assert_eq!(out.tag("tasks"), Some(8));
    }

    #[test]
    fn each_output_gets_the_remainder() {
        let rest = Record::new().with_tag("tasks", 4);
        let mut outs = vec![
            Record::new().with_field("chunk", Value::Unit),
            Record::new().with_tag("node", 1),
        ];
        inherit_all(&mut outs, &rest);
        assert!(outs.iter().all(|r| r.tag("tasks") == Some(4)));
    }
}
