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

/// A star whose body is more than a chain keeps plain taps: the body's
/// leading chain is built in each replica, behind the tap, like the
/// rest of it.
#[test]
fn a_star_whose_body_is_more_than_a_chain_has_plain_taps() {
    let cell = NetSpec::Sync(snet_core::SyncSpec::new(vec![
        Pattern::from_variant(Variant::parse_labels(&["x"], &[])),
        Pattern::from_variant(Variant::parse_labels(&["y"], &[])),
    ]));
    let star = countdown(NetSpec::pipeline([dec(), pass("inc"), cell]));
    assert_eq!(
        labels(&star, true, stays()),
        ["star-tap", "star-tap", "sync", "chain2-filter..box-inc"]
    );
    assert_eq!(
        labels(&star, false, stays()),
        ["star-tap", "star-tap", "sync", "box-inc", "filter"]
    );
}

/// Fused, a parallel runs each branch that is one chain itself and is
/// named for those chains; a branch that is more than a chain is built
/// behind a port. Unfused, every branch is built, back to front.
#[test]
fn a_parallel_is_named_for_the_chains_it_runs() {
    let cell = NetSpec::Sync(snet_core::SyncSpec::new(vec![
        Pattern::from_variant(Variant::parse_labels(&["x"], &[])),
        Pattern::from_variant(Variant::parse_labels(&["y"], &[])),
    ]));
    let par = NetSpec::parallel(vec![NetSpec::serial(pass("a"), pass("b")), cell]);
    assert_eq!(
        labels(&par, true, None),
        ["sync", "par-dispatch+chain2-box-a..box-b"]
    );
    assert_eq!(
        labels(&par, false, None),
        ["box-b", "box-a", "sync", "par-dispatch"]
    );
}
