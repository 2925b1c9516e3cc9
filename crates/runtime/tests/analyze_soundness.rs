//! Analyzer soundness, pinned against the reference interpreter.
//!
//! `snet-analyze`'s error-severity findings are universal claims
//! ("records of this shape can never be routed", "this branch never
//! receives a record"). The interpreter provides witnesses: a record
//! the interpreter routes successfully must never be the subject of an
//! unroutable/dead finding. Two angles:
//!
//! * top-level parallels, where the dispatch rule is directly
//!   observable per record (`semantics::best_branch`), pin
//!   SNA001/SNA002 exactly;
//! * arbitrary recursive nets, where an SNA001 claim implies the
//!   strict-mismatch interpreter must reject the batch — and an
//!   analyzer-accepted net must produce the interpreter's exact output
//!   multiset on the scheduled engine.

use proptest::prelude::*;
use snet_analyze::{analyze, AnalyzeConfig};
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, RecordVec, Work};
use snet_core::filter::OutputTemplate;
use snet_core::semantics::{best_branch, MismatchPolicy};
use snet_core::{
    BinOp, DiagCode, FilterSpec, NetSpec, Pattern, RType, Record, SnetError, SyncSpec, TagExpr,
    Value, Variant,
};
use snet_runtime::{EngineConfig, Interp, SchedNet};

fn add_box() -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("add", &["a"], &[&["a"]]),
        |r| {
            let a = r.field("a").and_then(|v| v.as_int()).unwrap_or(0);
            Ok(BoxOutput::one(
                Record::new().with_field("a", Value::Int(a + 1)),
                Work::ops(1),
            ))
        },
    ))
}

fn dup_box() -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("dup", &["a"], &[&["a"], &["b"]]),
        |r| {
            let a = r.field("a").and_then(|v| v.as_int()).unwrap_or(0);
            let mut out = RecordVec::new();
            out.push(Record::new().with_field("a", Value::Int(a)));
            out.push(Record::new().with_field("b", Value::Int(a)));
            Ok(BoxOutput::many_into(out, Work::ops(2)))
        },
    ))
}

fn rename_filter() -> NetSpec {
    NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        vec![OutputTemplate::empty().rename_field("c", "b")],
    ))
}

fn tag_filter() -> NetSpec {
    NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![OutputTemplate::empty().keep_tag("n").set_tag(
            "m",
            TagExpr::bin(BinOp::Mul, TagExpr::tag("n"), TagExpr::Const(2)),
        )],
    ))
}

fn dec_filter() -> NetSpec {
    NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![OutputTemplate::empty().set_tag(
            "n",
            TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
        )],
    ))
}

fn countdown_star() -> NetSpec {
    NetSpec::star(
        dec_filter(),
        Pattern::guarded(
            Variant::empty(),
            TagExpr::bin(BinOp::Le, TagExpr::tag("n"), TagExpr::Const(0)),
        ),
    )
}

fn leaf() -> impl Strategy<Value = NetSpec> {
    prop_oneof![
        Just(NetSpec::identity()),
        Just(add_box()),
        Just(dup_box()),
        Just(rename_filter()),
        Just(tag_filter()),
        Just(countdown_star()),
    ]
}

fn arb_net() -> impl Strategy<Value = NetSpec> {
    leaf().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| NetSpec::serial(a, b)),
            prop::collection::vec(inner.clone(), 2..4).prop_map(NetSpec::parallel),
            inner.prop_map(|body| NetSpec::split(body, "k")),
        ]
    })
}

/// Records always carry `<n>` and `<k>` (so stars terminate and splits
/// route) plus a random subset of fields.
fn arb_record() -> impl Strategy<Value = Record> {
    (
        0i64..4,
        0i64..3,
        prop::option::of(0i64..100),
        prop::option::of(0i64..100),
    )
        .prop_map(|(n, k, a, b)| {
            let mut r = Record::new().with_tag("n", n).with_tag("k", k);
            if let Some(a) = a {
                r.set_field("a", Value::Int(a));
            }
            if let Some(b) = b {
                r.set_field("b", Value::Int(b));
            }
            r
        })
}

/// The exact label set of a record — one closed entry variant.
fn shape_of(rec: &Record) -> Variant {
    let mut v = Variant::empty();
    for (l, _) in rec.fields() {
        v.add_field(l);
    }
    for (l, _) in rec.tags() {
        v.add_tag(l);
    }
    v
}

/// The closed entry type induced by a batch: one variant per distinct
/// record label set.
fn entry_of(batch: &[Record]) -> RType {
    let mut t = RType::default();
    for rec in batch {
        let v = shape_of(rec);
        if !t.variants().contains(&v) {
            t.push(v);
        }
    }
    t
}

fn multiset(records: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// SNA001/SNA002 at a top-level parallel, checked against the actual
/// dispatch rule record by record: a branch some record is dispatched
/// to must not be declared dead, and if every record finds a branch
/// none may be declared unroutable.
fn check_dispatchable(branches: Vec<NetSpec>, batch: Vec<Record>) -> Result<(), String> {
    let patterns: Vec<Vec<Pattern>> = branches.iter().map(|b| b.input_patterns()).collect();
    let net = NetSpec::parallel(branches);
    let analysis = analyze(&net, &entry_of(&batch), &AnalyzeConfig::default());

    let mut live = vec![false; patterns.len()];
    let mut all_routed = true;
    for rec in &batch {
        match best_branch(&patterns, rec) {
            Some(i) => live[i] = true,
            None => all_routed = false,
        }
    }
    for d in &analysis.diagnostics {
        if d.code == DiagCode::DeadBranch {
            for (i, &is_live) in live.iter().enumerate() {
                if is_live && d.path == format!("net/par[{i}]") {
                    return Err(format!(
                        "branch {i} received a record but was declared dead: {d}"
                    ));
                }
            }
        }
    }
    if all_routed
        && analysis
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::UnroutableAtParallel)
    {
        return Err(format!(
            "every record routed, yet the analyzer claims unroutability: {:?}",
            analysis.diagnostics
        ));
    }
    Ok(())
}

/// Arbitrary recursive nets: when the analyzer accepts the net for the
/// batch's entry type, the engines must reproduce the interpreter's
/// output multiset; when it rejects with SNA001, the strict mismatch
/// interpreter must reject the batch too.
fn check_verdict(net: NetSpec, batch: Vec<Record>) -> Result<(), String> {
    let entry = entry_of(&batch);
    match SchedNet::with_entry_type(net.clone(), &entry, EngineConfig::default()) {
        Ok(sched) => {
            let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
            let actual = sched.run_batch(batch).unwrap();
            if multiset(&actual) != multiset(&expected.outputs) {
                return Err("scheduled engine diverged from interp on an accepted net".into());
            }
            Ok(())
        }
        Err(SnetError::Analysis(diags)) => {
            if diags.is_empty() {
                return Err("analysis rejection with no diagnostics".into());
            }
            if diags
                .iter()
                .any(|d| d.code == DiagCode::UnroutableAtParallel)
            {
                let strict = Interp::new(&net)
                    .with_mismatch(MismatchPolicy::Error)
                    .run_batch(batch);
                if strict.is_ok() {
                    return Err(format!(
                        "analyzer claims an unroutable record, strict interp disagrees: {diags:?}"
                    ));
                }
            }
            Ok(())
        }
        Err(other) => Err(format!("unexpected construction error: {other}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dispatchable_records_are_never_flagged(
        branches in prop::collection::vec(leaf(), 2..5),
        batch in prop::collection::vec(arb_record(), 1..16),
    ) {
        if let Err(msg) = check_dispatchable(branches, batch) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn analyzer_verdict_agrees_with_interp(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 1..12),
    ) {
        if let Err(msg) = check_verdict(net, batch) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Runtime routing errors carry the same stable codes the analyzer
/// uses, so a dynamic failure and its static prediction are one
/// diagnostic vocabulary.
#[test]
fn runtime_errors_carry_diag_codes() {
    // Split without the index tag → SNA004.
    let net = SchedNet::new(NetSpec::split(add_box(), "k"));
    let err = net
        .run_batch(vec![Record::new().with_field("a", Value::Int(1))])
        .unwrap_err();
    assert_eq!(err.diag_code(), Some(DiagCode::SplitMissingTag));

    // Strict-policy mismatch → SNA001.
    let err = Interp::new(&NetSpec::parallel(vec![add_box(), rename_filter()]))
        .with_mismatch(MismatchPolicy::Error)
        .run_batch(vec![Record::new().with_tag("z", 1)])
        .unwrap_err();
    assert_eq!(err.diag_code(), Some(DiagCode::UnroutableAtParallel));
}

/// The construction-time pre-flight check: a structural defect (here a
/// star whose exit pattern matches everything, SNA007) is caught before
/// any record runs, batch or streamed, in the default configuration.
#[test]
fn preflight_rejects_structural_errors() {
    let spec = NetSpec::star(add_box(), Pattern::any());
    let batch = vec![Record::new().with_field("a", Value::Int(1))];

    fn rejected(err: SnetError) {
        assert_eq!(err.diag_code(), Some(DiagCode::StarBodyUnreachable));
        assert!(matches!(err, SnetError::Analysis(_)), "{err}");
    }
    let sched = SchedNet::new(spec.clone());
    assert_eq!(sched.preflight_diagnostics().len(), 1);
    rejected(sched.run_batch(batch.clone()).unwrap_err());

    // A started run fails at finish() with the same error.
    rejected(sched.start().finish().unwrap_err());

    // The same star with a real exit condition runs normally.
    let exit = Pattern::from_variant(Variant::parse_labels(&[], &["done"]));
    let ok = SchedNet::new(NetSpec::star(add_box(), exit));
    assert!(ok.preflight_diagnostics().is_empty());
    let done = vec![Record::new().with_tag("done", 1)];
    assert_eq!(ok.run_batch(done).unwrap().len(), 1);
}

/// `with_entry_type` rejects a shape-level defect the open pre-flight
/// cannot see, and reports the analyzer's structured diagnostics.
#[test]
fn entry_typed_construction_rejects_unroutable_nets() {
    // No branch accepts {z}: SNA001 at construction.
    let spec = NetSpec::parallel(vec![add_box(), rename_filter()]);
    let entry = RType::single(Variant::parse_labels(&["z"], &[]));
    let Err(err) = SchedNet::with_entry_type(spec, &entry, EngineConfig::default()) else {
        panic!("expected an analysis rejection");
    };
    let SnetError::Analysis(diags) = &err else {
        panic!("expected an analysis rejection, got {err}");
    };
    assert!(diags
        .iter()
        .any(|d| d.code == DiagCode::UnroutableAtParallel));

    // A synchrocell that can never complete: SNA003 at construction.
    let spec = NetSpec::Sync(SyncSpec::new(vec![
        Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
        Pattern::from_variant(Variant::parse_labels(&["never"], &[])),
    ]));
    let entry = RType::single(Variant::parse_labels(&["a"], &[]));
    let Err(err) = SchedNet::with_entry_type(spec, &entry, EngineConfig::default()) else {
        panic!("expected an analysis rejection");
    };
    assert_eq!(err.diag_code(), Some(DiagCode::SyncNeverFires));
}

/// The entry-typed veto analyses the topology as written, not the
/// engines' compiled plan: a defect inside a fusable run is located by
/// the subnet names its author gave, exactly as `snet-lint` reports it.
#[test]
fn entry_typed_diagnostics_name_the_topology_as_written() {
    // [] .. [{a} -> {a, c = b}] .. add, wrapped as `stage`: the filter
    // in the middle copies field `b`, which {a} never carries.
    let unbound = NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
        vec![OutputTemplate::empty()
            .keep_field("a")
            .rename_field("c", "b")],
    ));
    let spec = NetSpec::named(
        "stage",
        NetSpec::pipeline([NetSpec::identity(), unbound, add_box()]),
    );
    let entry = RType::single(Variant::parse_labels(&["a"], &[]));
    let Err(SnetError::Analysis(diags)) =
        SchedNet::with_entry_type(spec.clone(), &entry, EngineConfig::default())
    else {
        panic!("expected an analysis rejection");
    };
    let [d] = &diags[..] else {
        panic!("expected one finding: {diags:?}");
    };
    assert_eq!(d.code, DiagCode::UnboundLabel);
    assert_eq!(d.path, "net/stage/filter");
    let direct = analyze(&spec, &entry, &AnalyzeConfig::default());
    assert_eq!(diags, direct.errors().cloned().collect::<Vec<_>>());
}
