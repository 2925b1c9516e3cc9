//! The simulated cluster is a transport under the engines' own component
//! step, so a simulated run and a real run of one topology must agree
//! on everything the coordination layer observes: the output multiset
//! and the eight semantic counters, exactly. And placement, which only
//! the simulator acts on, must stay inert on a local engine.

use snet_apps::{
    image_slot, input_record, raytracing_net, NetVariant, Schedule, SnetConfig, Workload,
};
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::filter::OutputTemplate;
use snet_core::{BinOp, FilterSpec, NetSpec, Pattern, Record, SyncSpec, TagExpr, Value, Variant};
use snet_dist::{run_on_cluster, OverheadModel, StatsSnapshot};
use snet_runtime::{Interp, SchedNet, Trace};
use snet_simnet::ClusterSpec;

fn multiset(records: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// The eight counters `StatsSnapshot` reads off the run's trace, in its
/// field order.
fn shared(t: &Trace) -> [u64; 8] {
    [
        &t.box_ops,
        &t.sync_stores,
        &t.sync_fires,
        &t.sync_stranded,
        &t.star_unfoldings,
        &t.split_replicas,
        &t.dispatched,
        &t.passthroughs,
    ]
    .map(|c| t.get(c))
}

fn shared_sim(s: &StatsSnapshot) -> [u64; 8] {
    [
        s.box_ops,
        s.sync_stores,
        s.sync_fires,
        s.sync_stranded,
        s.star_unfoldings,
        s.split_replicas,
        s.dispatched,
        s.passthroughs,
    ]
}

/// Runs `net` over `inputs` on the scheduled engine and on a one-node
/// simulated cluster and holds the two runs to each other.
fn assert_sim_matches_engine(net: NetSpec, inputs: Vec<Record>) -> [u64; 8] {
    let (outs, trace) = SchedNet::new(net.clone())
        .run_batch_traced(inputs.clone())
        .expect("engine run");
    let cluster = ClusterSpec {
        cpu_ops_per_sec: 200.0e6,
        ..ClusterSpec::paper_testbed(1)
    };
    let sim = run_on_cluster(&net, inputs, cluster, OverheadModel::default()).expect("sim run");
    assert_eq!(multiset(&sim.outputs), multiset(&outs));
    assert_eq!(shared_sim(&sim.stats), shared(&trace));
    shared(&trace)
}

#[test]
fn fig4_dynamic_net_counts_the_same_simulated_and_real() {
    let wl = Workload {
        width: 48,
        height: 48,
        ..Workload::small()
    };
    let cfg = SnetConfig {
        variant: NetVariant::Dynamic,
        nodes: 1,
        tasks: 8,
        tokens: 4,
        schedule: Schedule::Block,
    };
    let net = raytracing_net(cfg.variant, image_slot(), None);
    let counters = assert_sim_matches_engine(net, vec![input_record(&wl, &cfg)]);
    // The run really scheduled dynamically: it unfolded, joined tokens
    // to sections and rendered.
    let [box_ops, _, sync_fires, _, star_unfoldings, ..] = counters;
    assert!(box_ops > 0 && sync_fires > 0 && star_unfoldings > 0);
}

/// A box consuming `{<field>}` and emitting it incremented.
fn inc(name: &str, field: &'static str) -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse(name, &[field], &[&[field]]),
        move |r| {
            let v = r.field(field).and_then(|v| v.as_int()).unwrap_or(0);
            Ok(BoxOutput::one(
                Record::new().with_field(field, Value::Int(v + 1)),
                Work::ops(100),
            ))
        },
    ))
}

fn fields(labels: &[&str]) -> Pattern {
    Pattern::from_variant(Variant::parse_labels(labels, &[]))
}

/// `(a | b) .. (a ! <k>) .. ([ {<n>} -> {<n -= 1>} ] * {<n> <= 0}) .. [| {p}, {q} |]`
fn four_combinators() -> NetSpec {
    let dec = NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![OutputTemplate::empty().set_tag(
            "n",
            TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
        )],
    ));
    let countdown = NetSpec::star(
        dec,
        Pattern::guarded(
            Variant::empty(),
            TagExpr::bin(BinOp::Le, TagExpr::tag("n"), TagExpr::Const(0)),
        ),
    );
    NetSpec::pipeline([
        NetSpec::parallel(vec![inc("pa", "a"), inc("pb", "b")]),
        NetSpec::split(inc("sa", "a"), "k"),
        countdown,
        NetSpec::Sync(SyncSpec::new(vec![fields(&["p"]), fields(&["q"])])),
    ])
}

#[test]
fn parallel_split_star_and_sync_count_the_same_simulated_and_real() {
    // `{a}` and `{b}` records route at the parallel, `{a}` ones work in
    // their `<k>` replica, everything counts `<n>` down; exactly one
    // `{p}` and one `{q}` meet in the synchrocell (one of each: which
    // pair joins must not depend on arrival order), and a `{c}` record
    // matches nothing on the way.
    let mut inputs: Vec<Record> = (0..12)
        .map(|i| {
            let field = if i % 3 == 0 { "b" } else { "a" };
            Record::new()
                .with_field(field, Value::Int(i))
                .with_tag("k", i % 4)
                .with_tag("n", i % 3)
        })
        .collect();
    for field in ["p", "q", "c"] {
        inputs.push(
            Record::new()
                .with_field(field, Value::Int(7))
                .with_tag("k", 9)
                .with_tag("n", 1),
        );
    }
    let counters = assert_sim_matches_engine(four_combinators(), inputs);
    assert!(
        counters.iter().enumerate().all(|(i, &c)| c > 0 || i == 3),
        "every counter but `sync_stranded` moves: {counters:?}"
    );
}

#[test]
fn placement_is_inert_on_a_local_engine() {
    // `A @ 1 .. B !@ <k>`
    let net = NetSpec::serial(
        NetSpec::at(inc("a1", "a"), 1),
        NetSpec::split_placed(inc("a2", "a"), "k"),
    );
    let inputs: Vec<Record> = (0..9)
        .map(|i| {
            Record::new()
                .with_field("a", Value::Int(i))
                .with_tag("k", i % 3)
        })
        .collect();
    let expected = Interp::new(&net)
        .run_batch(inputs.clone())
        .expect("interpreter");
    let (outs, trace) = SchedNet::new(net)
        .run_batch_traced(inputs)
        .expect("engine run");
    assert_eq!(multiset(&outs), multiset(&expected.outputs));
    assert_eq!(trace.get(&trace.split_replicas), 3);
    assert_eq!(trace.get(&trace.box_records), 18);
}
