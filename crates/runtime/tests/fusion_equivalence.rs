//! Property tests: the grain of the compiled network is semantically
//! invisible.
//!
//! A fused run (`fuse: true`, the default: maximal chains), an unfused
//! run (`fuse: false`: a chain of one per box and filter — the same
//! chain step, sixteen components where fused has one), and the
//! reference interpreter must agree on the output multiset for randomly generated
//! networks — including nets whose chains are broken by sync, star and
//! split boundaries, and chains whose boxes carry per-box
//! [`FailurePolicy`] overrides under seeded [`faultinject::chaos`]
//! schedules. The fault-attribution guarantee is asserted directly:
//! a dead letter minted inside a fused chain names the original box,
//! not the chain.

use proptest::prelude::*;
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, RecordVec, Work};
use snet_core::filter::OutputTemplate;
use snet_core::fusion::Node;
use snet_core::{
    BinOp, FilterSpec, NetSpec, Pattern, Record, SnetError, SyncSpec, TagExpr, Value, Variant,
};
use snet_runtime::faultinject::{chaos, FaultSpec};
use snet_runtime::{DeadLetter, EngineConfig, FailurePolicy, Interp, SchedNet, Trace};
use std::time::Duration;

/// A box consuming `{a}` and emitting `{a: a + 1}`.
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

/// A box consuming `{a}` and emitting two records, `{a}` and `{b: a}`.
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

/// A filter renaming field `b` to `c`.
fn rename_filter() -> NetSpec {
    NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        vec![OutputTemplate::empty().rename_field("c", "b")],
    ))
}

/// A filter computing tag `<m> = <n> * 2` (leaves `<n>` untouched).
fn tag_filter() -> NetSpec {
    NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![OutputTemplate::empty().keep_tag("n").set_tag(
            "m",
            TagExpr::bin(BinOp::Mul, TagExpr::tag("n"), TagExpr::Const(2)),
        )],
    ))
}

/// `([ {<n>} -> {<n = n - 1>} ]) * {<n> <= 0}` — a chain boundary that
/// always terminates for finite `<n>`.
fn countdown_star() -> NetSpec {
    NetSpec::star(
        NetSpec::Filter(FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
            vec![OutputTemplate::empty().set_tag(
                "n",
                TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
            )],
        )),
        Pattern::guarded(
            Variant::empty(),
            TagExpr::bin(BinOp::Le, TagExpr::tag("n"), TagExpr::Const(0)),
        ),
    )
}

/// SISO leaves — the raw material chains are made of.
fn siso_leaf() -> impl Strategy<Value = NetSpec> {
    prop_oneof![
        Just(add_box()),
        Just(dup_box()),
        Just(rename_filter()),
        Just(tag_filter()),
    ]
}

/// A serial run of 1–5 SISO leaves: length ≥ 2 fuses, length 1 stays a
/// plain component, so both planner paths appear in every sample set.
fn arb_chain() -> impl Strategy<Value = NetSpec> {
    prop::collection::vec(siso_leaf(), 1..6).prop_map(NetSpec::pipeline)
}

/// Chains glued together by the constructs that *break* fusion: serial
/// composition over a star boundary, parallel merge, and `!`-split.
/// The fragment stays confluent, so output multisets are well-defined.
fn arb_net() -> impl Strategy<Value = NetSpec> {
    arb_chain().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| NetSpec::serial(a, b)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| { NetSpec::serial(a, NetSpec::serial(countdown_star(), b)) }),
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

fn multiset(records: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

fn fused_cfg() -> EngineConfig {
    EngineConfig {
        fuse: true,
        ..EngineConfig::default()
    }
}

fn unfused_cfg() -> EngineConfig {
    EngineConfig {
        fuse: false,
        ..EngineConfig::default()
    }
}

/// Fused, with every hand-off one record: a loop or a parallel steps
/// its chain on one record at a time, as the simulated cluster's
/// processes do.
fn record_at_a_time_cfg() -> EngineConfig {
    EngineConfig {
        batch: 1,
        ..fused_cfg()
    }
}

/// The fused chains in a compiled plan: those of two or more stages (a
/// standalone box or filter is a chain of one).
fn count_chains(node: &Node) -> usize {
    match node {
        Node::Chain(stages) => usize::from(stages.len() >= 2),
        Node::Sync(_) => 0,
        Node::Serial(a, b) => count_chains(a) + count_chains(b),
        Node::Par(par) => par.branches.iter().map(count_chains).sum(),
        Node::Star(star) => count_chains(&star.body),
        Node::Loop(lp) => usize::from(lp.stages.len() >= 2),
        Node::Split(split) => count_chains(&split.body),
        Node::At { body, .. } => count_chains(body),
    }
}

/// Whether a compiled plan contains at least one fused chain — used to
/// keep the equivalence properties honest (a suite whose generator never
/// produces a fusable run proves nothing about fusion).
fn contains_chain(node: &Node) -> bool {
    count_chains(node) > 0
}

/// A flaky `{x} -> {x+1}` box on a content-keyed schedule.
fn flaky_inc(spec: FaultSpec) -> BoxDef {
    let inc = BoxDef::from_fn(BoxSig::parse("inc", &["x"], &[&["x"]]), |r| {
        let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
        Ok(BoxOutput::one(
            Record::new().with_field("x", Value::Int(x + 1)),
            Work::ops(1),
        ))
    });
    chaos(&inc, spec)
}

/// `{x} -> {x * 10}` — gives the chain healthy stages around the flaky
/// one, so fused execution crosses policy domains inside one task.
fn times_box(name: &str) -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse(name, &["x"], &[&["x"]]),
        |r| {
            let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            Ok(BoxOutput::one(
                Record::new().with_field("x", Value::Int(x * 10)),
                Work::ops(1),
            ))
        },
    ))
}

fn xs(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new().with_field("x", Value::Int(i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_equals_unfused_equals_interp(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..16),
    ) {
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let fused = SchedNet::with_config(net.clone(), fused_cfg())
            .run_batch(batch.clone())
            .unwrap();
        let unfused = SchedNet::with_config(net, unfused_cfg())
            .run_batch(batch)
            .unwrap();
        prop_assert_eq!(multiset(&fused), multiset(&expected.outputs));
        prop_assert_eq!(multiset(&unfused), multiset(&expected.outputs));
    }

    #[test]
    fn fusion_preserves_work_accounting(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..12),
    ) {
        // ChainTally must fold into the trace exactly what per-component
        // tasks would have counted: abstract ops drive the cluster
        // simulator, so fusion must not change them.
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let (_, trace) = SchedNet::with_config(net, fused_cfg())
            .run_batch_traced(batch)
            .unwrap();
        prop_assert_eq!(
            trace.box_ops.load(std::sync::atomic::Ordering::Relaxed),
            expected.work.ops
        );
    }

    #[test]
    fn fused_matches_unfused_with_leading_sync(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..16),
    ) {
        // A synchrocell at the stream head is deterministic and is a
        // fusion boundary: everything downstream still fuses and must
        // agree with the oracle.
        let cell = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let full = NetSpec::serial(cell, net);
        let expected = Interp::new(&full).run_batch(batch.clone()).unwrap();
        let fused = SchedNet::with_config(full.clone(), fused_cfg())
            .run_batch(batch.clone())
            .unwrap();
        let unfused = SchedNet::with_config(full, unfused_cfg()).run_batch(batch).unwrap();
        prop_assert_eq!(multiset(&fused), multiset(&expected.outputs));
        prop_assert_eq!(multiset(&unfused), multiset(&expected.outputs));
    }

    #[test]
    fn chaos_dead_letters_agree_fused_vs_unfused(
        seed in 0u64..1024,
        n in 8i64..40,
    ) {
        // A chain whose middle box is permanently flaky and opts into
        // DeadLetter while the engine default stays FailFast. The fused
        // run must divert exactly the records the schedule selects —
        // same set as the unfused run and the oracle — and each dead
        // letter must name the *original* box, not the chain.
        let spec = FaultSpec::errors(seed, 3, u32::MAX);
        let chain = |spec| {
            NetSpec::pipeline([
                times_box("pre"),
                NetSpec::Box(flaky_inc(spec).with_policy(FailurePolicy::DeadLetter)),
                times_box("post"),
            ])
        };
        prop_assert!(contains_chain(&snet_core::fuse(&chain(spec))));
        let batch = xs(n);
        let doomed: Vec<Record> = batch
            .iter()
            // The flaky stage sees `pre`'s output, so selection is keyed
            // on the record as it arrives *at that stage*.
            .filter(|r| {
                let x = r.field("x").and_then(|v| v.as_int()).unwrap();
                spec.selects(&Record::new().with_field("x", Value::Int(x * 10)))
            })
            .cloned()
            .collect();

        let oracle = Interp::new(&chain(spec)).run_batch(batch.clone()).unwrap();
        for (engine, report) in [
            (
                "sched-fused",
                SchedNet::with_config(chain(spec), fused_cfg())
                    .run_batch_report(batch.clone())
                    .unwrap(),
            ),
            (
                "sched-unfused",
                SchedNet::with_config(chain(spec), unfused_cfg())
                    .run_batch_report(batch.clone())
                    .unwrap(),
            ),
        ] {
            prop_assert_eq!(
                multiset(&report.outputs),
                multiset(&oracle.outputs),
                "{}: survivors diverge from the oracle", engine
            );
            prop_assert_eq!(report.dead_letters.len(), doomed.len(), "{}", engine);
            for d in &report.dead_letters {
                prop_assert_eq!(&d.report.component, "inc", "{}", engine);
            }
        }
        prop_assert_eq!(oracle.dead_letters.len(), doomed.len());
    }

    #[test]
    fn chaos_retry_converges_inside_fused_chains(
        seed in 0u64..1024,
        n in 8i64..32,
    ) {
        // Bounded faults + a per-box Retry override: the fused chain
        // must re-run only the failing stage (on the record as it
        // arrived there) and converge to the fault-free output.
        let spec = FaultSpec::errors(seed, 3, 2);
        let retry = FailurePolicy::Retry {
            max_attempts: 4,
            backoff: Duration::from_micros(10),
        };
        let chain = |flaky: BoxDef| {
            NetSpec::pipeline([
                times_box("pre"),
                NetSpec::Box(flaky.with_policy(retry)),
                times_box("post"),
            ])
        };
        let expected = Interp::new(&chain(flaky_inc(FaultSpec::errors(seed, 0, 0))))
            .run_batch(xs(n))
            .unwrap();
        // Fresh chaos wrap per run: the per-record fault budget lives in
        // the wrapper, and a shared one would let the first run spend it.
        for fuse in [true, false] {
            let cfg = EngineConfig { fuse, ..EngineConfig::default() };
            let outs = SchedNet::with_config(chain(flaky_inc(spec)), cfg)
                .run_batch(xs(n))
                .unwrap();
            prop_assert_eq!(
                multiset(&outs),
                multiset(&expected.outputs),
                "fuse={} diverged from fault-free output", fuse
            );
        }
    }
}

#[test]
fn generator_produces_fusable_chains() {
    // Keep the properties above honest: a depth-4 pipeline of SISO
    // leaves must actually fuse under the planner.
    let net = NetSpec::pipeline([add_box(), dup_box(), rename_filter(), tag_filter()]);
    assert!(contains_chain(&snet_core::fuse(&net)));
}

#[test]
fn the_plan_shows_in_the_trace() {
    // What the engines instantiate is the compiled tree: the same
    // depth-4 pipeline is one component fused and four as written.
    fn built(config: EngineConfig) -> u64 {
        let net = NetSpec::pipeline([add_box(), dup_box(), rename_filter(), tag_filter()]);
        let batch = vec![Record::new()
            .with_field("a", Value::Int(1))
            .with_tag("n", 2)];
        let (outs, trace) = SchedNet::with_config(net, config)
            .run_batch_traced(batch)
            .unwrap();
        assert_eq!(outs.len(), 2);
        trace.get(&trace.components_built)
    }
    assert_eq!(built(fused_cfg()), 1);
    assert_eq!(built(unfused_cfg()), 4);
}

#[test]
fn a_parallel_runs_its_chain_branches() {
    // `(add | dup) .. tag`: fused, the dispatcher runs both one-box
    // branches itself, so the net is the parallel and the filter; as
    // written, each box is a component of its own.
    fn built(config: EngineConfig) -> u64 {
        let net = NetSpec::serial(NetSpec::parallel(vec![add_box(), dup_box()]), tag_filter());
        let batch = vec![Record::new()
            .with_field("a", Value::Int(1))
            .with_tag("n", 2)];
        let (outs, trace) = SchedNet::with_config(net, config)
            .run_batch_traced(batch)
            .unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(trace.get(&trace.dispatched), 1);
        let built = trace.get(&trace.components_built);
        assert_eq!(trace.get(&trace.components_finalized), built);
        built
    }
    assert_eq!(built(fused_cfg()), 2);
    assert_eq!(built(unfused_cfg()), 4);
}

#[test]
fn a_fused_tap_is_the_whole_replica() {
    // `countdown_star`'s body is one filter: fused, the star is one
    // loop running it, whatever the depth; as written, a replica is the
    // filter and the next tap. `<n> = 3` unfolds three replicas either
    // way: the loop counts the rounds the taps would have unfolded.
    fn built(config: EngineConfig) -> u64 {
        let batch = vec![Record::new().with_tag("n", 3)];
        let (outs, trace) = SchedNet::with_config(countdown_star(), config)
            .run_batch_traced(batch)
            .unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(trace.get(&trace.star_unfoldings), 3);
        assert_eq!(trace.get(&trace.filter_records), 3);
        let built = trace.get(&trace.components_built);
        assert_eq!(trace.get(&trace.components_finalized), built);
        built
    }
    assert_eq!(built(fused_cfg()), 1);
    assert_eq!(built(unfused_cfg()), 7);
}

/// A box consuming `{a}` and emitting `a mod 3` records `{a: a + 1}`:
/// none, one or two.
fn fan_box() -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("fan", &["a"], &[&["a"]]),
        |r| {
            let a = r.field("a").and_then(|v| v.as_int()).unwrap_or(0);
            let outs =
                (0..a.rem_euclid(3)).map(|_| Record::new().with_field("a", Value::Int(a + 1)));
            Ok(BoxOutput::from_iter(outs, Work::ops(1)))
        },
    ))
}

/// `[{b} -> {c = b}; {b}]`: a filter emitting two records.
fn fork_filter() -> NetSpec {
    NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        vec![
            OutputTemplate::empty().rename_field("c", "b"),
            OutputTemplate::empty().keep_field("b"),
        ],
    ))
}

/// `add` under a permanent content-keyed fault schedule, diverting what
/// it selects under its own `DeadLetter` override.
fn flaky_add(seed: u64) -> NetSpec {
    let add = BoxDef::from_fn(BoxSig::parse("flaky", &["a"], &[&["a"]]), |r| {
        let a = r.field("a").and_then(|v| v.as_int()).unwrap_or(0);
        Ok(BoxOutput::one(
            Record::new().with_field("a", Value::Int(a + 1)),
            Work::ops(1),
        ))
    });
    NetSpec::Box(
        chaos(&add, FaultSpec::errors(seed, 3, u32::MAX)).with_policy(FailurePolicy::DeadLetter),
    )
}

/// `[{<n>} -> {<n -= 1>}]`, the countdown that makes a star terminate.
fn dec_filter() -> NetSpec {
    let NetSpec::Star { body, .. } = countdown_star() else {
        unreachable!("countdown_star is a star")
    };
    *body
}

/// `body * {<n> <= 0}`: `countdown_star`'s loop around another body.
fn countdown_loop(body: NetSpec) -> NetSpec {
    let NetSpec::Star { exit, .. } = countdown_star() else {
        unreachable!("countdown_star is a star")
    };
    NetSpec::star(body, exit)
}

/// `(leaves with the countdown at `at` [.. rest ! <k>]) * {<n> <= 0}`:
/// a star whose body starts with a chain (the whole body, which fused
/// runs as a loop, or a chain and a rest, which keeps its taps).
fn arb_chain_star() -> impl Strategy<Value = NetSpec> {
    let leaf = (0usize..6, 0u64..1024).prop_map(|(which, seed)| match which {
        0 => add_box(),
        1 => dup_box(),
        2 => fan_box(),
        3 => fork_filter(),
        4 => tag_filter(),
        _ => flaky_add(seed),
    });
    (
        prop::collection::vec(leaf, 0..4),
        0usize..4,
        prop::option::of(arb_chain()),
    )
        .prop_map(|(mut leaves, at, rest)| {
            leaves.insert(at.min(leaves.len()), dec_filter());
            let mut body = NetSpec::pipeline(leaves);
            if let Some(rest) = rest {
                body = NetSpec::serial(body, NetSpec::split(rest, "k"));
            }
            countdown_loop(body)
        })
}

/// Every counter of a run but the two that count components (which is
/// what the grain changes), after checking that those two agree.
fn semantic_counters(trace: &Trace) -> [u64; 12] {
    assert_eq!(
        trace.get(&trace.components_built),
        trace.get(&trace.components_finalized)
    );
    [
        &trace.box_records,
        &trace.box_ops,
        &trace.filter_records,
        &trace.passthroughs,
        &trace.sync_stores,
        &trace.sync_fires,
        &trace.sync_stranded,
        &trace.star_unfoldings,
        &trace.split_replicas,
        &trace.dispatched,
        &trace.dead_letters,
        &trace.retries,
    ]
    .map(|counter| trace.get(counter))
}

/// A chain for a parallel branch: 1–4 leaves, among them the ones that
/// fork (`dup`, `fork_filter`), divert (`flaky_add`) and pass on (`[]`).
fn arb_branch_chain() -> impl Strategy<Value = NetSpec> {
    let leaf = prop_oneof![
        siso_leaf(),
        Just(fork_filter()),
        Just(NetSpec::identity()),
        (0u64..1024).prop_map(flaky_add),
    ];
    prop::collection::vec(leaf, 1..5).prop_map(NetSpec::pipeline)
}

/// `[{a}, {b}]`: a synchrocell joining the first `{a}` and `{b}` it is
/// handed.
fn sync_ab() -> NetSpec {
    NetSpec::Sync(SyncSpec::new(vec![
        Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
        Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
    ]))
}

/// A parallel branch that is not one chain: a split, a nested parallel
/// of chains, or (with `sync`) a synchrocell, alone or before a chain.
fn arb_port_branch(sync: bool) -> BoxedStrategy<NetSpec> {
    let split = arb_chain().prop_map(|body| NetSpec::split(body, "k"));
    let nested = prop::collection::vec(arb_branch_chain(), 2..4).prop_map(NetSpec::parallel);
    if !sync {
        return BoxedStrategy::new(prop_oneof![split, nested]);
    }
    let cell = prop::option::of(arb_chain()).prop_map(|rest| match rest {
        Some(rest) => NetSpec::serial(sync_ab(), rest),
        None => sync_ab(),
    });
    BoxedStrategy::new(prop_oneof![split, nested, cell])
}

/// A parallel of 2–3 branches, at least one of them a chain.
fn arb_par_of(sync: bool) -> impl Strategy<Value = NetSpec> {
    let branch = prop_oneof![arb_branch_chain(), arb_port_branch(sync)];
    (
        arb_branch_chain(),
        prop::collection::vec(branch, 1..3),
        0usize..3,
    )
        .prop_map(|(chain, mut branches, at)| {
            branches.insert(at.min(branches.len()), chain);
            NetSpec::parallel(branches)
        })
}

/// `arb_par_of`, alone or before the countdown inside `countdown_loop`
/// (the shape of Fig 4's solver and of `bench_unfold`'s star). A
/// synchrocell is only drawn outside the loop: inside, a replica's cell
/// would join records in the order the branches before it merged them,
/// and that order is the scheduler's.
fn arb_par() -> impl Strategy<Value = NetSpec> {
    prop_oneof![
        arb_par_of(true),
        arb_par_of(false).prop_map(|par| countdown_loop(NetSpec::serial(par, dec_filter()))),
    ]
}

/// How many branches the plan's parallels run themselves.
fn inline_branches(node: &Node) -> usize {
    match node {
        Node::Chain(_) | Node::Sync(_) => 0,
        Node::Serial(a, b) => inline_branches(a) + inline_branches(b),
        Node::Par(par) => {
            let here = par.inline.iter().filter(|&&inline| inline).count();
            here + par.branches.iter().map(inline_branches).sum::<usize>()
        }
        Node::Star(star) => inline_branches(&star.body),
        Node::Loop(_) => 0,
        Node::Split(split) => inline_branches(&split.body),
        Node::At { body, .. } => inline_branches(body),
    }
}

fn dead_multiset(dead: &[DeadLetter]) -> Vec<String> {
    let mut v: Vec<String> = dead
        .iter()
        .map(|d| format!("{} {:?}", d.report.component, d.record))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_chain_led_star_is_the_body_as_written(
        net in arb_chain_star(),
        batch in prop::collection::vec(arb_record(), 0..12),
    ) {
        let plan = snet_core::fuse(&net);
        prop_assert!(matches!(plan, Node::Loop(_) | Node::Star(_)), "a star: {:?}", plan);

        let oracle = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let fused = SchedNet::with_config(net.clone(), fused_cfg())
            .run_batch_report(batch.clone())
            .unwrap();
        let unfused = SchedNet::with_config(net.clone(), unfused_cfg())
            .run_batch_report(batch.clone())
            .unwrap();
        let one_by_one = SchedNet::with_config(net, record_at_a_time_cfg())
            .run_batch_report(batch)
            .unwrap();
        let counters = semantic_counters(&unfused.trace);
        prop_assert_eq!(counters[1], oracle.work.ops);
        for (engine, report) in [
            ("fused", &fused),
            ("unfused", &unfused),
            ("fused, batch 1", &one_by_one),
        ] {
            prop_assert_eq!(
                multiset(&report.outputs),
                multiset(&oracle.outputs),
                "{}: outputs", engine
            );
            prop_assert_eq!(
                dead_multiset(&report.dead_letters),
                dead_multiset(&oracle.dead_letters),
                "{}: dead letters", engine
            );
            prop_assert_eq!(semantic_counters(&report.trace), counters, "{}: trace", engine);
        }
    }

    #[test]
    fn a_parallel_running_its_chain_branches_is_the_net_as_written(
        net in arb_par(),
        batch in prop::collection::vec(arb_record(), 0..12),
    ) {
        let plan = snet_core::fuse(&net);
        prop_assert!(inline_branches(&plan) > 0, "a branch runs inline: {:?}", plan);
        let plain = snet_core::fusion::compile(&net, false);
        prop_assert_eq!(inline_branches(&plain), 0, "unfused, none does: {:?}", plain);

        let oracle = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let fused = SchedNet::with_config(net.clone(), fused_cfg())
            .run_batch_report(batch.clone())
            .unwrap();
        let unfused = SchedNet::with_config(net.clone(), unfused_cfg())
            .run_batch_report(batch.clone())
            .unwrap();
        let one_by_one = SchedNet::with_config(net, record_at_a_time_cfg())
            .run_batch_report(batch)
            .unwrap();
        let counters = semantic_counters(&unfused.trace);
        prop_assert_eq!(counters[1], oracle.work.ops);
        for (engine, report) in [
            ("fused", &fused),
            ("unfused", &unfused),
            ("fused, batch 1", &one_by_one),
        ] {
            prop_assert_eq!(
                multiset(&report.outputs),
                multiset(&oracle.outputs),
                "{}: outputs", engine
            );
            prop_assert_eq!(
                dead_multiset(&report.dead_letters),
                dead_multiset(&oracle.dead_letters),
                "{}: dead letters", engine
            );
            prop_assert_eq!(semantic_counters(&report.trace), counters, "{}: trace", engine);
        }
    }
}

#[test]
fn a_panic_in_a_fused_head_is_attributed_to_its_stage() {
    // FailFast, a chaos box that panics on one record in three inside
    // the tap's head: every engine fails with the stage's own name, or
    // none does and all agree on the outputs — and across the seeds
    // both happen.
    let batch: Vec<Record> = (0..6)
        .map(|i| {
            Record::new()
                .with_field("a", Value::Int(i))
                .with_tag("n", i % 4)
        })
        .collect();
    let (mut failed, mut passed) = (0, 0);
    for seed in 0..24 {
        let boom = BoxDef::from_fn(BoxSig::parse("boom", &["a"], &[&["a"]]), |r| {
            Ok(BoxOutput::one(r.clone(), Work::ops(1)))
        });
        let net = countdown_loop(NetSpec::pipeline([
            add_box(),
            NetSpec::Box(chaos(&boom, FaultSpec::panics(seed, 3, u32::MAX))),
            dec_filter(),
        ]));
        let oracle = Interp::new(&net).run_batch(batch.clone());
        for (engine, got) in [
            (
                "fused",
                SchedNet::with_config(net.clone(), fused_cfg()).run_batch(batch.clone()),
            ),
            (
                "unfused",
                SchedNet::with_config(net.clone(), unfused_cfg()).run_batch(batch.clone()),
            ),
            (
                "fused, batch 1",
                SchedNet::with_config(net.clone(), record_at_a_time_cfg()).run_batch(batch.clone()),
            ),
        ] {
            match (&oracle, got) {
                (Ok(want), Ok(got)) => assert_eq!(multiset(&got), multiset(&want.outputs)),
                (Err(_), Err(SnetError::BoxFailure { name, cause })) => {
                    assert_eq!(name, "boom", "seed {seed}, {engine}");
                    assert!(
                        cause.starts_with("panicked"),
                        "seed {seed}, {engine}: {cause}"
                    );
                }
                (want, got) => panic!("seed {seed}, {engine}: {got:?} against {want:?}"),
            }
        }
        match oracle {
            Ok(_) => passed += 1,
            Err(SnetError::BoxFailure { name, .. }) if name == "boom" => failed += 1,
            Err(e) => panic!("seed {seed}: the oracle failed elsewhere: {e}"),
        }
    }
    assert!(failed > 0 && passed > 0, "{failed} failed, {passed} passed");
}

#[test]
fn boundaries_split_chains_into_fused_halves() {
    // pipeline .. star .. pipeline: the star breaks the chain, both
    // halves fuse, and all engines agree with the oracle.
    let half = || NetSpec::pipeline([add_box(), tag_filter()]);
    let net = NetSpec::serial(half(), NetSpec::serial(countdown_star(), half()));
    let plan = snet_core::fuse(&net);
    assert_eq!(count_chains(&plan), 2, "both halves must fuse: {plan:?}");

    let batch: Vec<Record> = (0..12)
        .map(|i| {
            Record::new()
                .with_tag("n", i % 4)
                .with_field("a", Value::Int(i))
        })
        .collect();
    let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
    let fused = SchedNet::with_config(net.clone(), fused_cfg())
        .run_batch(batch.clone())
        .unwrap();
    let unfused = SchedNet::with_config(net, unfused_cfg())
        .run_batch(batch)
        .unwrap();
    assert_eq!(multiset(&fused), multiset(&expected.outputs));
    assert_eq!(multiset(&unfused), multiset(&expected.outputs));
}

#[test]
fn mid_stream_sync_breaks_the_chain_and_still_agrees() {
    // A synchrocell *between* two fusable runs, fed in a deterministic
    // (stream-head-equivalent) position: the upstream chain output order
    // is FIFO through the fused task, so the cell's merges match the
    // oracle's.
    let cell = NetSpec::Sync(SyncSpec::new(vec![
        Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
        Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
    ]));
    let net = NetSpec::serial(
        NetSpec::pipeline([tag_filter(), tag_filter()]),
        NetSpec::serial(cell, NetSpec::pipeline([tag_filter(), tag_filter()])),
    );
    let plan = snet_core::fuse(&net);
    assert!(contains_chain(&plan));

    let batch: Vec<Record> = (0..10)
        .map(|i| {
            let r = Record::new().with_tag("n", i);
            if i % 2 == 0 {
                r.with_field("a", Value::Int(i))
            } else {
                r.with_field("b", Value::Int(i))
            }
        })
        .collect();
    let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
    let fused = SchedNet::with_config(net.clone(), fused_cfg())
        .run_batch(batch.clone())
        .unwrap();
    let unfused = SchedNet::with_config(net, unfused_cfg())
        .run_batch(batch)
        .unwrap();
    assert_eq!(multiset(&fused), multiset(&expected.outputs));
    assert_eq!(multiset(&unfused), multiset(&expected.outputs));
}
