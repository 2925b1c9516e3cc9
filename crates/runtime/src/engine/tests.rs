use crate::component::{build, Component, Transport};
use crate::config::Plan;
use crate::suite::{fine_grain, int_box, ints};
use crate::{EngineConfig, SchedNet};
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::filter::OutputTemplate;
use snet_core::{BinOp, FilterSpec, NetSpec, Pattern, Record, TagExpr, Value, Variant};

crate::suite::engine_suite!(fine_grain());

#[test]
fn shared_plan_serves_concurrent_jobs() {
    let net = crate::suite::concurrent_jobs(fine_grain());
    assert_eq!(net.workers_spawned(), fine_grain().workers);
}

#[test]
fn deep_pipeline_respects_backpressure() {
    // One-record ends and a task per stage + many records: exercises
    // the bounded mailboxes between eight tasks without deadlocking.
    let stages: Vec<NetSpec> = (0..8)
        .map(|_| int_box("inc", "x", "x", |x| x + 1))
        .collect();
    let net = SchedNet::with_config(NetSpec::pipeline(stages), fine_grain());
    let outs = net
        .run_batch(
            (0..200)
                .map(|i| Record::new().with_field("x", Value::Int(i)))
                .collect(),
        )
        .unwrap();
    assert_eq!(outs.len(), 200);
    assert_eq!(ints(&outs, "x"), (8..208).collect::<Vec<_>>());
}

/// A transport that runs nothing: a port is the index of the component
/// it feeds, and every spawn is kept, with its label.
#[derive(Default)]
struct Ledger {
    comps: Vec<Option<Component<usize>>>,
    labels: Vec<String>,
}

impl Transport for Ledger {
    type Port = usize;

    fn spawn(&mut self, comp: Component<usize>) -> usize {
        self.labels.push(comp.label());
        self.comps.push(Some(comp));
        self.comps.len() - 1
    }

    fn another(port: &usize) -> usize {
        *port
    }

    fn send(&mut self, _port: &mut usize, _rec: Record) {}
}

/// The labels of every component `spec` builds at the given grain, and
/// of what its entry component unfolds stepping `rec`. A label is what
/// names a component's thread of control: `snet-dist` names each
/// simulated process `<label>@<node>`.
fn labels(spec: &NetSpec, fuse: bool, rec: Option<Record>) -> Vec<String> {
    let config = EngineConfig {
        fuse,
        ..EngineConfig::default()
    };
    let plan = Plan::new(spec.clone(), config);
    let run = plan.new_run(usize::MAX);
    let mut t = Ledger::default();
    let entry = build(&plan.root, usize::MAX, &run, &mut t);
    if let Some(rec) = rec {
        let mut comp = t.comps[entry].take().expect("the entry component");
        comp.step(rec, &run, &config, &mut t).expect("a clean step");
    }
    t.labels
}

fn pass(name: &str) -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse(name, &["x"], &[&["x"]]),
        |r| Ok(BoxOutput::one(r.clone(), Work::ZERO)),
    ))
}

/// A box standing alone is named for the box; a fused run by its ends
/// and length.
#[test]
fn threads_are_named_for_what_is_in_the_chain() {
    assert_eq!(labels(&pass("solo"), true, None), ["box-solo"]);
    let run = NetSpec::pipeline([pass("head"), NetSpec::identity(), pass("tail")]);
    assert_eq!(labels(&run, true, None), ["chain3-box-head..box-tail"]);
}

/// `<n> -= 1`.
fn dec() -> NetSpec {
    NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![OutputTemplate::empty().set_tag(
            "n",
            TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
        )],
    ))
}

/// `body * {<n> == 0}`.
fn countdown(body: NetSpec) -> NetSpec {
    let exit = Pattern::guarded(
        Variant::empty(),
        TagExpr::bin(BinOp::Eq, TagExpr::tag("n"), TagExpr::Const(0)),
    );
    NetSpec::star(body, exit)
}

/// A record the countdown star keeps in for a round.
fn stays() -> Option<Record> {
    Some(
        Record::new()
            .with_field("x", Value::Int(1))
            .with_tag("n", 2),
    )
}

/// A loop is named for the chain it runs, its whole body.
#[test]
fn star_taps_are_named_for_the_chain_they_run() {
    let star = countdown(NetSpec::serial(dec(), pass("inc")));
    // Fused, the body is one chain and the star is one loop running
    // it, which unfolds nothing; unfused, the body is built behind
    // each tap back to front.
    assert_eq!(
        labels(&star, true, stays()),
        ["star-loop+chain2-filter..box-inc"]
    );
    assert_eq!(
        labels(&star, false, stays()),
        ["star-tap", "star-tap", "box-inc", "filter"]
    );
}

/// `[| {x}, {y} |]`.
fn cell_xy() -> NetSpec {
    NetSpec::Sync(snet_core::SyncSpec::new(vec![
        Pattern::from_variant(Variant::parse_labels(&["x"], &[])),
        Pattern::from_variant(Variant::parse_labels(&["y"], &[])),
    ]))
}

/// A star whose body runs inline loops through it, whatever chains and
/// cells it holds. Fused, a body with a split is a round per replica:
/// round 1 runs the head up to and including the split, and every
/// later round runs the tail of the round before, then the head; the
/// split's replicas are built onto the next round. Unfused, each
/// replica is the body behind a plain tap, built back to front.
#[test]
fn a_star_whose_body_splits_runs_a_round_per_replica() {
    let star = countdown(NetSpec::pipeline([dec(), pass("inc"), cell_xy()]));
    assert_eq!(
        labels(&star, true, stays()),
        ["star-loop+chain2-filter..box-inc..sync"]
    );
    assert_eq!(
        labels(&star, false, stays()),
        ["star-tap", "star-tap", "sync", "box-inc", "filter"]
    );
    // A record the split routes: `<k>` picks its replica.
    let routed = stays().map(|rec| rec.with_tag("k", 0));
    let split = countdown(NetSpec::pipeline([
        dec(),
        pass("inc"),
        NetSpec::split(pass("s"), "k"),
    ]));
    assert_eq!(
        labels(&split, true, routed.clone()),
        [
            "star-round+chain2-filter..box-inc..split-dispatch",
            "star-round+chain2-filter..box-inc..split-dispatch",
            "box-s"
        ]
    );
    assert_eq!(
        labels(&split, false, routed.clone()),
        [
            "star-tap",
            "star-tap",
            "split-dispatch",
            "box-inc",
            "filter"
        ]
    );
    let tailed = countdown(NetSpec::pipeline([
        dec(),
        NetSpec::split(pass("s"), "k"),
        pass("inc"),
        cell_xy(),
    ]));
    assert_eq!(
        labels(&tailed, true, routed.clone()),
        [
            "star-round+filter..split-dispatch",
            "star-round+box-inc..sync..filter..split-dispatch",
            "box-s"
        ]
    );
    assert_eq!(
        labels(&tailed, false, routed),
        [
            "star-tap",
            "star-tap",
            "sync",
            "box-inc",
            "split-dispatch",
            "filter"
        ]
    );
}

/// Fused, a parallel runs each branch that runs or routes inline itself
/// — a chain, a cell, a split, or a composition of those — and is named
/// for them; a split builds its replicas onto the merged output.
/// Unfused, every branch is built, in declaration order, each back to
/// front.
#[test]
fn a_parallel_is_named_for_the_chains_it_runs() {
    let par = NetSpec::parallel(vec![
        NetSpec::serial(pass("a"), pass("b")),
        cell_xy(),
        NetSpec::serial(cell_xy(), NetSpec::parallel(vec![pass("c"), pass("d")])),
        NetSpec::split(pass("s"), "k"),
    ]);
    assert_eq!(
        labels(&par, true, None),
        ["par-dispatch+chain2-box-a..box-b+sync+sync..(box-c|box-d)+split-dispatch"]
    );
    assert_eq!(
        labels(&par, false, None),
        [
            "box-b",
            "box-a",
            "sync",
            "box-c",
            "box-d",
            "par-dispatch",
            "sync",
            "split-dispatch",
            "par-dispatch"
        ]
    );
}

/// Fused, a split replica whose body is a serial spine that runs inline
/// — Fig 4's shape, a box and then a parallel of two filters — is one
/// component stepping the spine, named for it. Unfused, the replica is
/// its body as written: each filter, the dispatcher and the box.
#[test]
fn a_split_replica_of_a_spine_is_one_component() {
    let split = NetSpec::split(
        NetSpec::serial(
            pass("a"),
            NetSpec::parallel(vec![dec(), NetSpec::identity()]),
        ),
        "k",
    );
    let routed = stays().map(|rec| rec.with_tag("k", 0));
    assert_eq!(
        labels(&split, true, routed.clone()),
        ["split-dispatch", "box-a..(filter|filter)"]
    );
    assert_eq!(
        labels(&split, false, routed),
        [
            "split-dispatch",
            "filter",
            "filter",
            "par-dispatch",
            "box-a"
        ]
    );
}
