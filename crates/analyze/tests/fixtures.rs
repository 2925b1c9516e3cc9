//! Known-bad fixtures, one per diagnostic code.
//!
//! Each fixture is a minimal network with exactly one defect; the test
//! asserts the analyzer reports *that* code (and the expected
//! severity), pinning the code assignments as a stable contract. The
//! structural codes (SNA006–009) are checked through both entry points
//! and each beside a clean net that differs only in the defect. These
//! complement the soundness property suite in `snet-runtime` (which
//! proves the analyzer never flags behaviour the interpreter permits):
//! here we prove it does flag behaviour the paper's type system
//! forbids.

use snet_analyze::{analyze, analyze_open, AnalyzeConfig};
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::filter::OutputTemplate;
use snet_core::{
    DiagCode, DiagSeverity, FilterSpec, NetSpec, Pattern, RType, Record, SyncSpec, TagExpr, Variant,
};

/// A box `name` consuming the single field `field`.
fn consume(name: &str, field: &str) -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse(name, &[field], &[&["out"]]),
        |_| Ok(BoxOutput::one(Record::new(), Work::ZERO)),
    ))
}

fn consume_a() -> NetSpec {
    consume("consume_a", "a")
}

fn entry(fields: &[&str], tags: &[&str]) -> RType {
    RType::single(Variant::parse_labels(fields, tags))
}

/// Run the analyzer and return its single expected diagnostic.
fn sole_diagnostic(net: &NetSpec, input: &RType) -> snet_core::Diagnostic {
    let analysis = analyze(net, input, &AnalyzeConfig::default());
    assert_eq!(
        analysis.diagnostics.len(),
        1,
        "expected exactly one diagnostic, got {:?}",
        analysis.diagnostics
    );
    analysis.diagnostics.into_iter().next().unwrap()
}

#[test]
fn sna001_unroutable_at_parallel() {
    // Both branches demand {a}; the entry record only carries {b}.
    // (The starved branches additionally earn SNA002 warnings, and the
    // twin patterns an SNA008 one.)
    let net = NetSpec::parallel(vec![consume_a(), consume_a()]);
    let analysis = analyze(&net, &entry(&["b"], &[]), &AnalyzeConfig::default());
    let errors: Vec<_> = analysis.errors().collect();
    assert_eq!(errors.len(), 1, "{:?}", analysis.diagnostics);
    assert_eq!(errors[0].code, DiagCode::UnroutableAtParallel);
    assert_eq!(errors[0].path, "net");
}

#[test]
fn sna002_dead_branch() {
    // Branch 0 accepts {a} (which the entry provides); branch 1 demands
    // {zzz}, which nothing upstream can ever produce.
    let net = NetSpec::parallel(vec![consume_a(), consume("wants_zzz", "zzz")]);
    let d = sole_diagnostic(&net, &entry(&["a"], &[]));
    assert_eq!(d.code, DiagCode::DeadBranch);
    assert_eq!(d.severity, DiagSeverity::Warning);
    assert_eq!(d.path, "net/par[1]");
}

#[test]
fn sna003_sync_never_fires() {
    // The {a} pattern can match the entry; the {never} pattern cannot,
    // so the cell's stored {a} records are stranded forever.
    let net = NetSpec::Sync(SyncSpec::new(vec![
        Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
        Pattern::from_variant(Variant::parse_labels(&["never"], &[])),
    ]));
    let d = sole_diagnostic(&net, &entry(&["a"], &[]));
    assert_eq!(d.code, DiagCode::SyncNeverFires);
    assert_eq!(d.severity, DiagSeverity::Error);
    assert_eq!(d.path, "net/sync");
}

#[test]
fn sna004_split_missing_tag() {
    // The entry type is exact and lacks <k>: every record is guaranteed
    // to hit the split without its index tag.
    let net = NetSpec::split(NetSpec::identity(), "k");
    let d = sole_diagnostic(&net, &entry(&["a"], &[]));
    assert_eq!(d.code, DiagCode::SplitMissingTag);
    assert_eq!(d.severity, DiagSeverity::Error);
    assert_eq!(d.path, "net/split<k>");
}

#[test]
fn sna005_unbound_label() {
    // The filter matches {a} unconditionally but its template copies
    // field `b`, which the exact input type does not carry.
    let net = NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
        vec![OutputTemplate::empty()
            .keep_field("a")
            .rename_field("c", "b")],
    ));
    let d = sole_diagnostic(&net, &entry(&["a"], &[]));
    assert_eq!(d.code, DiagCode::UnboundLabel);
    assert_eq!(d.severity, DiagSeverity::Error);
    assert_eq!(d.path, "net/filter");
}

#[test]
fn sna005_unbound_tag_in_expression() {
    // Same defect via a tag expression: <m> = <missing> + 1 where the
    // input type has no <missing>.
    let net = NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
        vec![OutputTemplate::empty().keep_field("a").set_tag(
            "m",
            TagExpr::bin(
                snet_core::BinOp::Add,
                TagExpr::tag("missing"),
                TagExpr::Const(1),
            ),
        )],
    ));
    let d = sole_diagnostic(&net, &entry(&["a"], &[]));
    assert_eq!(d.code, DiagCode::UnboundLabel);
    assert_eq!(d.severity, DiagSeverity::Error);
}

#[test]
fn sna006_placement_out_of_range() {
    let net = NetSpec::at(NetSpec::identity(), 7);
    let cfg = AnalyzeConfig {
        nodes: Some(4),
        ..AnalyzeConfig::default()
    };
    let analysis = analyze(&net, &entry(&["a"], &[]), &cfg);
    let d = &analysis.diagnostics[0];
    assert_eq!(d.code, DiagCode::PlacementOutOfRange);
    assert_eq!(d.severity, DiagSeverity::Error);
    assert_eq!(d.path, "net/@7");
}

/// A structural fixture: `bad` earns exactly `code` from the pre-flight
/// walk and from the full analysis alike; `clean` earns nothing.
fn structural(bad: &NetSpec, clean: &NetSpec, code: DiagCode, severity: DiagSeverity, path: &str) {
    let cfg = AnalyzeConfig::default();
    let open = analyze_open(bad, &cfg).diagnostics;
    assert_eq!(open.len(), 1, "{open:?}");
    assert_eq!(
        (open[0].code, open[0].severity, open[0].path.as_str()),
        (code, severity, path)
    );
    let input = entry(&["a"], &[]);
    assert!(analyze(bad, &input, &cfg).diagnostics.contains(&open[0]));
    assert!(analyze_open(clean, &cfg).diagnostics.is_empty());
    assert!(analyze(clean, &input, &cfg).diagnostics.is_empty());
}

#[test]
fn sna007_star_body_unreachable() {
    // `consume_a * {}`: the empty exit pattern matches every record
    // before the first replica. A guard or a label makes it a real exit.
    let exit_on_out = Pattern::from_variant(Variant::parse_labels(&["out"], &[]));
    structural(
        &NetSpec::star(consume_a(), Pattern::any()),
        &NetSpec::star(consume_a(), exit_on_out),
        DiagCode::StarBodyUnreachable,
        DiagSeverity::Error,
        "net/star",
    );
}

#[test]
fn sna008_duplicate_branch_patterns() {
    // Two branches attracting exactly {a}: branch 1 loses every tie.
    structural(
        &NetSpec::parallel(vec![consume_a(), consume_a()]),
        &NetSpec::parallel(vec![consume_a(), NetSpec::identity()]),
        DiagCode::DuplicateBranchPatterns,
        DiagSeverity::Warning,
        "net",
    );
}

#[test]
fn sna009_degenerate_sync() {
    let a = || Pattern::from_variant(Variant::parse_labels(&["a"], &[]));
    structural(
        &NetSpec::Sync(SyncSpec::new(vec![a()])),
        &NetSpec::Sync(SyncSpec::new(vec![a(), a()])),
        DiagCode::DegenerateSync,
        DiagSeverity::Warning,
        "net/sync",
    );
}

/// The structural pass visits nodes no shape reaches: `@9` sits in a
/// branch the entry type never routes to (SNA002), and is still range
/// checked (SNA006). The flow pass alone skipped dead branches.
#[test]
fn structural_codes_fire_in_dead_branches() {
    let net = NetSpec::parallel(vec![consume_a(), NetSpec::at(consume("wants_b", "b"), 9)]);
    let cfg = AnalyzeConfig {
        nodes: Some(4),
        ..AnalyzeConfig::default()
    };
    let codes: Vec<_> = analyze(&net, &entry(&["a"], &[]), &cfg)
        .diagnostics
        .iter()
        .map(|d| (d.code, d.path.clone()))
        .collect();
    assert_eq!(
        codes,
        [
            (DiagCode::PlacementOutOfRange, "net/par[1]/@9".to_owned()),
            (DiagCode::DeadBranch, "net/par[1]".to_owned()),
        ]
    );
}

#[test]
fn every_code_is_distinct() {
    let all = DiagCode::all();
    assert_eq!(all.len(), 9);
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            assert_ne!(a.code(), b.code());
            assert_ne!(a.title(), b.title());
        }
    }
}
