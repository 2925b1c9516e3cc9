//! Property tests for the S-Net type system and record semantics.
//!
//! The laws under test are the ones the paper's §III relies on:
//! structural subtyping is a partial order compatible with matching;
//! flow inheritance loses nothing and overrides correctly; filters
//! produce records conforming to their declared shape; synchrocells
//! neither duplicate nor invent labels.

use proptest::prelude::*;
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, SigItem, Work};
use snet_core::filter::{FilterSpec, OutItem, OutputTemplate};
use snet_core::semantics::{
    box_step, box_step_into, filter_step, filter_step_into, MismatchPolicy,
};
use snet_core::{
    flow, BinOp, ChainRunner, ChainStage, ChainTally, FailurePolicy, Label, Pattern, Record,
    SnetError, SyncOutcome, SyncSpec, TagExpr, Value, Variant,
};
use std::sync::atomic::AtomicU64;

const FIELDS: [&str; 5] = ["a", "b", "c", "d", "e"];
const TAGS: [&str; 4] = ["t", "u", "v", "w"];

fn arb_variant() -> impl Strategy<Value = Variant> {
    (
        prop::collection::btree_set(0usize..FIELDS.len(), 0..4),
        prop::collection::btree_set(0usize..TAGS.len(), 0..3),
    )
        .prop_map(|(fs, ts)| {
            Variant::parse_labels(
                &fs.iter().map(|&i| FIELDS[i]).collect::<Vec<_>>(),
                &ts.iter().map(|&i| TAGS[i]).collect::<Vec<_>>(),
            )
        })
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        prop::collection::btree_map(0usize..FIELDS.len(), 0i64..100, 0..5),
        prop::collection::btree_map(0usize..TAGS.len(), -10i64..10, 0..4),
    )
        .prop_map(|(fs, ts)| {
            let mut r = Record::new();
            for (i, v) in fs {
                r.set_field(FIELDS[i], Value::Int(v));
            }
            for (i, v) in ts {
                r.set_tag(TAGS[i], v);
            }
            r
        })
}

/// A box over `input` that emits one record per template, each stamped
/// with what the box was handed (`<seen>`: how many labels, `<sum>`: its
/// tags and integer fields added up), so a wrong consumed part shows in
/// the output.
fn stamping_box(input: &Variant, templates: Vec<Record>) -> BoxDef {
    let items = input
        .fields()
        .map(SigItem::Field)
        .chain(input.tags().map(SigItem::Tag))
        .collect();
    let sig = BoxSig {
        name: "stamp".to_owned(),
        input: items,
        outputs: Vec::new(),
    };
    BoxDef::from_fn(sig, move |input| {
        let ints = input.fields().filter_map(|(_, v)| v.as_int());
        let sum: i64 = ints.chain(input.tags().map(|(_, v)| v)).sum();
        let stamped = templates.iter().map(|t| {
            t.clone()
                .with_tag("seen", input.len() as i64)
                .with_tag("sum", sum)
        });
        Ok(BoxOutput::from_iter(
            stamped,
            Work::ops(templates.len() as u64),
        ))
    })
}

/// `box_step` spelled out from the record operations it is defined by:
/// the records emitted, the work, and whether the record matched.
fn reference_box_step(
    def: &BoxDef,
    rec: &Record,
    policy: MismatchPolicy,
) -> Result<(Vec<Record>, Work, bool), SnetError> {
    let iv = def.input_variant();
    if !iv.accepts(rec) {
        return match policy {
            MismatchPolicy::Forward => Ok((vec![rec.clone()], Work::ZERO, false)),
            MismatchPolicy::Error => Err(SnetError::TypeMismatch {
                expected: iv.to_string(),
                got: format!("{rec:?}"),
            }),
        };
    }
    let (consumed, rest) = (rec.project(iv), rec.without(iv));
    let out = def.func.call(&consumed)?;
    let inherit = |mut o: Record| {
        o.absorb(&rest);
        o
    };
    Ok((
        out.records.into_iter().map(inherit).collect(),
        out.work,
        true,
    ))
}

/// A pattern over `variant`: unguarded, guarded by a comparison, or by a
/// guard that divides by a tag (a zero there is a mismatch, not an error).
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (arb_variant(), 0usize..3, -2i64..3).prop_map(|(variant, guard, c)| match guard {
        0 => Pattern::from_variant(variant),
        1 => Pattern::guarded(
            variant,
            TagExpr::bin(BinOp::Gt, TagExpr::tag("t"), TagExpr::Const(c)),
        ),
        _ => Pattern::guarded(
            variant,
            TagExpr::bin(
                BinOp::Ge,
                TagExpr::bin(BinOp::Div, TagExpr::tag("u"), TagExpr::tag("t")),
                TagExpr::Const(c),
            ),
        ),
    })
}

/// One template item. A label index one past `FIELDS`/`TAGS` names a
/// label no record carries: fresh as a destination, missing as a source.
/// Which of the others a pattern consumes and which a record carries is
/// the draw's, so an item may keep, rename onto or redefine a consumed
/// label, an inherited one or a new one, and read either kind.
fn arb_item() -> impl Strategy<Value = OutItem> {
    (0usize..5, 0usize..6, 0usize..6, -2i64..3).prop_map(|(kind, dst, src, c)| {
        let field = |i: usize| Label::new(FIELDS.get(i).copied().unwrap_or("fresh"));
        let tag = |i: usize| Label::new(TAGS.get(i % 5).copied().unwrap_or("absent"));
        match kind {
            0 => OutItem::Field {
                dst: field(src),
                src: field(src),
            },
            1 => OutItem::Field {
                dst: field(dst),
                src: field(src),
            },
            2 => OutItem::Tag {
                dst: tag(dst),
                expr: TagExpr::Const(c),
            },
            3 => OutItem::Tag {
                dst: tag(dst),
                expr: TagExpr::bin(BinOp::Add, TagExpr::Tag(tag(src)), TagExpr::Const(c)),
            },
            _ => OutItem::Tag {
                dst: tag(dst),
                expr: TagExpr::bin(BinOp::Div, TagExpr::Tag(tag(src)), TagExpr::Tag(tag(dst))),
            },
        }
    })
}

/// `filter_step` spelled out from its definition: the pattern decides,
/// `FilterSpec::apply` (`project` + `without` + `absorb`) produces.
fn reference_filter_step(
    spec: &FilterSpec,
    rec: &Record,
    policy: MismatchPolicy,
) -> Result<(Vec<Record>, bool), SnetError> {
    if spec.pattern.matches(rec) {
        return Ok((spec.apply(rec)?, true));
    }
    match policy {
        MismatchPolicy::Forward => Ok((vec![rec.clone()], false)),
        MismatchPolicy::Error => Err(SnetError::TypeMismatch {
            expected: spec.pattern.to_string(),
            got: format!("{rec:?}"),
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- the filter step ----------------------------------------------

    #[test]
    fn filter_step_is_match_apply_inherit(
        pattern in arb_pattern(),
        templates in prop::collection::vec(prop::collection::vec(arb_item(), 0..4), 0..4),
        rec in arb_record(),
    ) {
        // The record as drawn (mostly a mismatch), widened to a superset
        // of the pattern, cut down to an exact match, and carrying every
        // label there is (spilled in both namespaces).
        let outputs = templates.into_iter().map(|items| OutputTemplate { items }).collect();
        let spec = FilterSpec::new(pattern, outputs);
        let mut superset = rec.clone();
        for l in spec.pattern.variant.fields() {
            superset.set_field(l, Value::Int(7));
        }
        for l in spec.pattern.variant.tags() {
            superset.set_tag(l, 3);
        }
        let exact = superset.project(&spec.pattern.variant);
        let mut wide = superset.clone();
        for (i, f) in FIELDS.iter().enumerate() {
            wide.set_field(*f, Value::Int(i as i64));
        }
        for (i, t) in TAGS.iter().enumerate() {
            wide.set_tag(*t, i as i64 - 1);
        }
        let stages = [ChainStage::Filter(spec.clone())];
        let mut runner = ChainRunner::new();
        let marker = Record::new().with_tag("already-there", 1);
        for rec in [rec, superset, exact, wide] {
            for policy in [MismatchPolicy::Forward, MismatchPolicy::Error] {
                let expected = reference_filter_step(&spec, &rec, policy);
                let step = filter_step(&spec, rec.clone(), policy).map(|s| {
                    assert_eq!(s.work, Work::ZERO);
                    (s.records.into_iter().collect(), s.matched)
                });
                prop_assert_eq!(&step, &expected, "filter_step of {} on {:?}", spec, rec);
                // The sink form appends the same records, `None` for a
                // record passed through; an error leaves the sink alone.
                let mut sink = vec![marker.clone()];
                let into = filter_step_into(&spec, rec.clone(), policy, &mut sink).map(|work| {
                    assert!(work.is_none_or(|w| w == Work::ZERO));
                    (sink.split_off(1), work.is_some())
                });
                prop_assert_eq!(&into, &expected, "filter_step_into of {} on {:?}", spec, rec);
                prop_assert_eq!(&sink, &vec![marker.clone()]);
                // The chain driver runs the same step and tallies it.
                let mut tally = ChainTally::default();
                let ran = runner
                    .step_batch(
                        &stages,
                        FailurePolicy::FailFast,
                        policy,
                        &AtomicU64::new(0),
                        [rec.clone()],
                        &mut tally,
                        &mut sink,
                        &mut |_| Ok(()),
                    )
                    .map(|()| (sink.split_off(1), tally.filter_records == 1));
                prop_assert_eq!(&ran, &expected, "a chain of {} on {:?}", spec, rec);
                prop_assert_eq!(&sink, &vec![marker.clone()]);
                let (filter_records, passthroughs) = expected
                    .map_or((0, 0), |(_, matched)| (u64::from(matched), u64::from(!matched)));
                prop_assert_eq!(
                    tally,
                    ChainTally { filter_records, passthroughs, ..ChainTally::default() }
                );
            }
        }
    }

    // ---- the box step -------------------------------------------------

    #[test]
    fn box_step_is_project_call_absorb(
        input in arb_variant(),
        templates in prop::collection::vec(arb_record(), 0..4),
        rec in arb_record(),
    ) {
        // Signatures of any arity (none, tags only), zero to three
        // outputs that may override what they would inherit, and the
        // record as drawn (mostly a mismatch), widened to a superset of
        // the input, and cut down to an exact match.
        let def = stamping_box(&input, templates);
        let mut superset = rec.clone();
        for l in input.fields() {
            superset.set_field(l, Value::Int(7));
        }
        for l in input.tags() {
            superset.set_tag(l, 3);
        }
        let exact = superset.project(&input);
        for rec in [rec, superset, exact] {
            for policy in [MismatchPolicy::Forward, MismatchPolicy::Error] {
                let expected = reference_box_step(&def, &rec, policy);
                let step = box_step(&def, rec.clone(), policy)
                    .map(|s| (s.records.into_iter().collect(), s.work, s.matched));
                prop_assert_eq!(&step, &expected, "box_step on {:?}", rec);
                // The sink form appends the same records and reports
                // the same work, `None` for a record passed through.
                let mut sink = vec![Record::new().with_tag("already-there", 1)];
                let into = box_step_into(&def, rec.clone(), policy, &mut sink).map(|work| {
                    let records = sink.split_off(1);
                    (records, work.unwrap_or(Work::ZERO), work.is_some())
                });
                prop_assert_eq!(&into, &expected, "box_step_into on {:?}", rec);
                prop_assert_eq!(sink.len(), 1, "a failed step leaves the sink alone");
            }
        }
    }

    // ---- subtyping is a partial order --------------------------------

    #[test]
    fn subtyping_reflexive(v in arb_variant()) {
        prop_assert!(v.is_subtype_of(&v));
    }

    #[test]
    fn subtyping_antisymmetric(a in arb_variant(), b in arb_variant()) {
        if a.is_subtype_of(&b) && b.is_subtype_of(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn subtyping_transitive(a in arb_variant(), b in arb_variant(), c in arb_variant()) {
        // Build a chain by unioning, then check transitivity on it plus
        // whatever the raw triple satisfies.
        let ab = a.union(&b);
        let abc = ab.union(&c);
        prop_assert!(abc.is_subtype_of(&ab));
        prop_assert!(ab.is_subtype_of(&a));
        prop_assert!(abc.is_subtype_of(&a)); // the chained instance
        if a.is_subtype_of(&b) && b.is_subtype_of(&c) {
            prop_assert!(a.is_subtype_of(&c));
        }
    }

    // ---- matching is compatible with subtyping -----------------------

    #[test]
    fn subtype_records_match_supertype_patterns(r in arb_record(), v in arb_variant()) {
        // If the record's own variant is a subtype of v, then v accepts
        // the record — "a component expecting {a,b} can also accept
        // {a,c,b}" (§III).
        if r.variant().is_subtype_of(&v) {
            prop_assert!(v.accepts(&r));
        }
        // And conversely: acceptance is exactly the subtype relation on
        // the record's variant.
        prop_assert_eq!(v.accepts(&r), r.variant().is_subtype_of(&v));
    }

    #[test]
    fn match_score_monotone_in_specificity(r in arb_record(), v in arb_variant(), w in arb_variant()) {
        // If both match, the more specific (larger) variant never scores
        // lower — the "better match" routing rule.
        let u = v.union(&w);
        if let (Some(sv), Some(su)) = (v.match_score(&r), u.match_score(&r)) {
            prop_assert!(su >= sv, "union {su} vs part {sv}");
        }
    }

    // ---- flow inheritance --------------------------------------------

    #[test]
    fn split_partitions_exactly(r in arb_record(), v in arb_variant()) {
        let (consumed, rest) = flow::split(&r, &v);
        // No overlap, full coverage.
        prop_assert_eq!(consumed.len() + rest.len(), r.len());
        let mut merged = consumed.clone();
        merged.absorb(&rest);
        prop_assert_eq!(merged, r.clone());
        // Consumed part carries only labels of v.
        for (l, _) in consumed.fields() {
            prop_assert!(v.has_field(l));
        }
        for (l, _) in consumed.tags() {
            prop_assert!(v.has_tag(l));
        }
    }

    #[test]
    fn inheritance_preserves_uninvolved_labels(r in arb_record(), v in arb_variant(), out in arb_record()) {
        let (_, rest) = flow::split(&r, &v);
        let mut enriched = out.clone();
        flow::inherit(&mut enriched, &rest);
        // Every label of `out` survives with its own value (override).
        for (l, val) in out.fields() {
            prop_assert_eq!(enriched.field(l), Some(val));
        }
        for (l, val) in out.tags() {
            prop_assert_eq!(enriched.tag(l), Some(val));
        }
        // Every uninvolved label of `r` reaches the output.
        for (l, val) in rest.fields() {
            if !out.has_field(l) {
                prop_assert_eq!(enriched.field(l), Some(val));
            }
        }
        for (l, val) in rest.tags() {
            if !out.has_tag(l) {
                prop_assert_eq!(enriched.tag(l), Some(val));
            }
        }
        // Nothing else appears.
        prop_assert!(enriched.len() <= out.len() + rest.len());
    }

    // ---- filters ------------------------------------------------------

    #[test]
    fn filter_outputs_conform_to_declared_shape(r in arb_record(), v in arb_variant()) {
        // [ v -> {<t' = 1>} ; {} ]: outputs must carry the template
        // labels plus only inherited labels.
        let spec = FilterSpec::new(
            Pattern::from_variant(v.clone()),
            vec![
                OutputTemplate::empty().set_tag("fresh", TagExpr::Const(1)),
                OutputTemplate::empty(),
            ],
        );
        if !spec.pattern.matches(&r) {
            return Ok(());
        }
        let outs = spec.apply(&r).unwrap();
        prop_assert_eq!(outs.len(), 2);
        prop_assert_eq!(outs[0].tag("fresh"), Some(1));
        let fresh = Label::new("fresh");
        for out in &outs {
            for (l, _) in out.fields() {
                // Field labels come only from inheritance (the template
                // declares none).
                prop_assert!(r.has_field(l) && !v.has_field(l), "leaked field {l}");
            }
            for (l, _) in out.tags() {
                prop_assert!(
                    l == fresh || (r.has_tag(l) && !v.has_tag(l)),
                    "leaked tag {l}"
                );
            }
        }
    }

    #[test]
    fn guard_evaluation_never_panics(r in arb_record()) {
        // Guards over arbitrary tag combinations either evaluate or
        // report missing tags / division by zero — no panics.
        let g = TagExpr::bin(
            BinOp::Div,
            TagExpr::tag("t"),
            TagExpr::bin(BinOp::Add, TagExpr::tag("u"), TagExpr::Const(0)),
        );
        let p = Pattern::guarded(Variant::empty(), g);
        let _ = p.matches(&r); // bool either way
    }

    // ---- synchrocells ---------------------------------------------------

    #[test]
    fn sync_never_invents_or_duplicates_labels(records in prop::collection::vec(arb_record(), 1..12)) {
        let spec = SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]);
        let mut st = spec.new_state();
        let mut stored_labels: Vec<Label> = Vec::new();
        for r in records {
            let labels: Vec<Label> = r
                .fields()
                .map(|(l, _)| l)
                .chain(r.tags().map(|(l, _)| l))
                .collect();
            match st.push(&spec, r) {
                SyncOutcome::Stored => stored_labels.extend(labels),
                SyncOutcome::Passed(out) => {
                    // Pass-through is exact.
                    let out_labels: Vec<Label> = out
                        .fields()
                        .map(|(l, _)| l)
                        .chain(out.tags().map(|(l, _)| l))
                        .collect();
                    prop_assert_eq!(out_labels, labels);
                }
                SyncOutcome::Fired(m) => {
                    // The merge's labels are exactly the union of the
                    // stored record's and this record's.
                    for (l, _) in m.fields() {
                        prop_assert!(
                            stored_labels.contains(&l) || labels.contains(&l),
                            "invented field {l}"
                        );
                    }
                    for (l, _) in m.tags() {
                        prop_assert!(
                            stored_labels.contains(&l) || labels.contains(&l),
                            "invented tag {l}"
                        );
                    }
                }
            }
        }
    }
}
