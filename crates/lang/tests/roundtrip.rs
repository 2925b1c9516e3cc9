//! Property test: printing is a fixed point of print∘parse∘compile.
//!
//! For random topologies over the full combinator algebra — boxes,
//! filters (with templates over every tag-expression form), synchrocells,
//! serial, (det) parallel, (det) star with guards, (placed) splits,
//! static placement, named subnets — the printed program re-parses,
//! re-compiles against the extracted registry, and prints to the
//! identical string.

use proptest::prelude::*;
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::filter::OutputTemplate;
use snet_core::{BinOp, FilterSpec, NetSpec, Pattern, Record, SyncSpec, TagExpr, UnOp, Variant};
use snet_lang::{compile, extract_registry, to_source};

const FIELDS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const TAGS: [&str; 4] = ["t", "u", "v", "w"];

fn arb_variant() -> impl Strategy<Value = Variant> {
    (
        prop::collection::btree_set(0usize..FIELDS.len(), 0..3),
        prop::collection::btree_set(0usize..TAGS.len(), 0..3),
    )
        .prop_map(|(fs, ts)| {
            Variant::parse_labels(
                &fs.iter().map(|&i| FIELDS[i]).collect::<Vec<_>>(),
                &ts.iter().map(|&i| TAGS[i]).collect::<Vec<_>>(),
            )
        })
}

fn arb_expr() -> impl Strategy<Value = TagExpr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(TagExpr::Const),
        (0usize..TAGS.len()).prop_map(|i| TagExpr::tag(TAGS[i])),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (
                prop::sample::select(vec![
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Mod,
                    BinOp::Min,
                    BinOp::Max,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ]),
                inner.clone(),
                inner.clone(),
            )
                .prop_map(|(op, a, b)| TagExpr::bin(op, a, b)),
            (
                prop::sample::select(vec![UnOp::Neg, UnOp::Not, UnOp::Abs]),
                inner.clone(),
            )
                .prop_map(|(op, e)| TagExpr::Unary(op, Box::new(e))),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| TagExpr::Cond(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (arb_variant(), prop::option::of(arb_expr())).prop_map(|(v, g)| match g {
        None => Pattern::from_variant(v),
        Some(g) => Pattern::guarded(v, g),
    })
}

fn arb_filter() -> impl Strategy<Value = NetSpec> {
    (
        arb_pattern(),
        prop::collection::vec(
            prop::collection::vec(
                prop_oneof![
                    (0usize..FIELDS.len()).prop_map(|i| (Some(FIELDS[i]), None)),
                    (0usize..TAGS.len()).prop_map(|i| (None, Some(TAGS[i]))),
                ],
                0..3,
            ),
            1..3,
        ),
        arb_expr(),
    )
        .prop_map(|(pattern, templates, expr)| {
            // Output fields must exist on the input: restrict field
            // copies to labels the pattern requires.
            let available: Vec<&str> = pattern.variant.fields().map(|l| l.as_str()).collect();
            let outputs: Vec<OutputTemplate> = templates
                .into_iter()
                .map(|items| {
                    let mut t = OutputTemplate::empty();
                    for (field, tag) in items {
                        if let Some(f) = field {
                            if available.contains(&f) {
                                t = t.keep_field(f);
                            }
                        }
                        if let Some(tag) = tag {
                            t = t.set_tag(tag, expr.clone());
                        }
                    }
                    t
                })
                .collect();
            NetSpec::Filter(FilterSpec::new(pattern, outputs))
        })
}

fn arb_box(
    counter: std::sync::Arc<std::sync::atomic::AtomicUsize>,
) -> impl Strategy<Value = NetSpec> {
    arb_variant().prop_map(move |v| {
        let n = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let fields: Vec<String> = v.fields().map(|l| l.to_string()).collect();
        let tags: Vec<String> = v.tags().map(|l| format!("<{l}>")).collect();
        let input: Vec<&str> = fields
            .iter()
            .chain(tags.iter())
            .map(|s| s.as_str())
            .collect();
        NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse(&format!("bx{n}"), &input, &[&["alpha"]]),
            |r: &Record| Ok(BoxOutput::one(r.clone(), Work::ZERO)),
        ))
    })
}

fn arb_net() -> impl Strategy<Value = NetSpec> {
    let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let leaf = prop_oneof![
        Just(NetSpec::identity()),
        arb_filter(),
        arb_box(counter),
        prop::collection::vec(arb_pattern(), 1..3).prop_map(|ps| NetSpec::Sync(SyncSpec::new(ps))),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| NetSpec::serial(a, b)),
            (prop::collection::vec(inner.clone(), 2..4), any::<bool>())
                .prop_map(|(branches, det)| NetSpec::Parallel { branches, det }),
            (inner.clone(), arb_pattern(), any::<bool>()).prop_map(|(body, exit, det)| {
                NetSpec::Star {
                    body: Box::new(body),
                    exit,
                    det,
                }
            }),
            (inner.clone(), 0usize..TAGS.len(), any::<bool>()).prop_map(|(body, tag, placed)| {
                NetSpec::Split {
                    body: Box::new(body),
                    tag: snet_core::Label::new(TAGS[tag]),
                    placed,
                }
            }),
            (inner.clone(), 0u32..8).prop_map(|(body, node)| NetSpec::at(body, node)),
            // Names are descriptive only: a named subnet prints inline.
            (inner, 0usize..FIELDS.len()).prop_map(|(body, i)| NetSpec::named(FIELDS[i], body)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn printing_is_a_fixed_point(net in arb_net()) {
        let src = to_source(&net).expect("generated boxes have unique names");
        let reg = extract_registry(&net);
        let reparsed = compile(&src, &reg)
            .unwrap_or_else(|e| panic!("printed program must reparse: {e}\n---\n{src}"));
        let src2 = to_source(&reparsed).expect("reprint");
        prop_assert_eq!(src, src2);
    }

    #[test]
    fn printed_patterns_preserve_matching(p in arb_pattern(), n in 0i64..5, u in 0i64..5) {
        // A pattern survives the trip through text with its matching
        // behaviour intact (checked via a star exit, where patterns
        // carry guards).
        let net = NetSpec::star(NetSpec::identity(), p.clone());
        let src = to_source(&net).unwrap();
        let reparsed = compile(&src, &snet_lang::BoxRegistry::new()).unwrap();
        let NetSpec::Star { exit, .. } = reparsed else {
            return Err(TestCaseError::fail("expected a star"));
        };
        // Probe with records over the tag alphabet.
        let mut rec = Record::new().with_tag("t", n).with_tag("u", u);
        for f in FIELDS {
            rec.set_field(f, snet_core::Value::Int(1));
        }
        for t in TAGS {
            if !rec.has_tag(t) {
                rec.set_tag(t, 2);
            }
        }
        prop_assert_eq!(p.matches(&rec), exit.matches(&rec));
    }
}
