//! The engine's unit suite: one body per behaviour the scheduled engine
//! must show, instantiated by [`engine_suite!`] once per base
//! configuration — the default one in `sched::tests`, [`fine_grain`] in
//! `engine::tests`.

use crate::{EngineConfig, FailurePolicy, Interp, SchedNet, Trace};
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::semantics::MismatchPolicy;
use snet_core::{
    BinOp, FilterSpec, Label, NetSpec, Pattern, Record, SnetError, SyncSpec, TagExpr, Value,
    Variant,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instantiates every case of the suite as a test, each building its
/// networks from the base configuration `$base` (a case that needs a
/// field of its own overrides just that one).
macro_rules! engine_suite {
    ($base:expr) => {
        crate::suite::engine_suite!(@cases ($base)
            single_box_pipeline,
            serial_composes,
            parallel_routes_by_best_match,
            star_unrolls_until_exit,
            split_creates_replica_per_tag_value,
            split_without_tag_is_an_error,
            sync_joins_in_stream,
            stranded_sync_records_are_counted,
            box_error_propagates,
            panicking_box_is_reported_not_swallowed,
            strict_mismatch_policy_errors,
            streaming_interface_overlaps,
            net_is_reusable_with_fresh_state,
            failed_batch_leaves_nothing_for_the_next_run,
            standalone_box_honours_its_policy_at_either_grain,
            every_component_is_retired_exactly_once,
        );
    };
    (@cases ($base:expr) $($case:ident,)*) => {
        $(
            #[test]
            fn $case() {
                crate::suite::$case($base);
            }
        )*
    };
}
pub(crate) use engine_suite;

/// The finest grain the engine takes: a task per box and filter
/// (`fuse: false`), record-at-a-time hand-off, one-record ends (so
/// every interior mailbox's high-water mark is 16), and two workers so
/// tasks still migrate on a one-CPU host.
pub(crate) fn fine_grain() -> EngineConfig {
    EngineConfig {
        fuse: false,
        batch: 1,
        channel_capacity: 1,
        workers: 2,
        ..EngineConfig::default()
    }
}

pub(crate) fn int_box(name: &str, input: &str, output: &str, f: fn(i64) -> i64) -> NetSpec {
    let out_label = output.to_owned();
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse(name, &[input], &[&[output]]),
        move |r| {
            let x = r
                .fields()
                .next()
                .and_then(|(_, v)| v.as_int())
                .ok_or_else(|| SnetError::Engine("expected int field".into()))?;
            Ok(BoxOutput::one(
                Record::new().with_field(out_label.as_str(), Value::Int(f(x))),
                Work::ops(1),
            ))
        },
    ))
}

pub(crate) fn ints(records: &[Record], label: &str) -> Vec<i64> {
    let mut v: Vec<i64> = records
        .iter()
        .filter_map(|r| r.field(label).and_then(|x| x.as_int()))
        .collect();
    v.sort_unstable();
    v
}

fn xs(range: std::ops::Range<i64>) -> Vec<Record> {
    range
        .map(|i| Record::new().with_field("x", Value::Int(i)))
        .collect()
}

/// `base` with `fuse` on, then off.
fn either_grain(base: EngineConfig) -> [EngineConfig; 2] {
    [true, false].map(|fuse| EngineConfig { fuse, ..base })
}

fn ab_cell() -> NetSpec {
    NetSpec::Sync(SyncSpec::new(vec![
        Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
        Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
    ]))
}

pub(crate) fn single_box_pipeline(base: EngineConfig) {
    let net = SchedNet::with_config(int_box("double", "x", "x", |x| 2 * x), base);
    let outs = net.run_batch(xs(0..10)).unwrap();
    assert_eq!(ints(&outs, "x"), (0..10).map(|i| 2 * i).collect::<Vec<_>>());
}

pub(crate) fn serial_composes(base: EngineConfig) {
    let net = SchedNet::with_config(
        NetSpec::serial(
            int_box("inc", "x", "x", |x| x + 1),
            int_box("sq", "x", "x", |x| x * x),
        ),
        base,
    );
    let outs = net.run_batch(xs(3..4)).unwrap();
    assert_eq!(ints(&outs, "x"), vec![16]);
}

pub(crate) fn parallel_routes_by_best_match(base: EngineConfig) {
    // Branch 0 expects {a}, branch 1 expects {b}; {c} matches neither
    // and passes through.
    let net = SchedNet::with_config(
        NetSpec::parallel(vec![
            int_box("fa", "a", "ra", |x| x + 100),
            int_box("fb", "b", "rb", |x| x + 200),
        ]),
        base,
    );
    let (outs, trace) = net
        .run_batch_traced(vec![
            Record::new().with_field("a", Value::Int(1)),
            Record::new().with_field("b", Value::Int(2)),
            Record::new().with_field("a", Value::Int(3)),
            Record::new().with_field("c", Value::Int(4)),
        ])
        .unwrap();
    assert_eq!(ints(&outs, "ra").len(), 2);
    assert_eq!(ints(&outs, "rb"), vec![202]);
    assert_eq!(ints(&outs, "c"), vec![4]);
    assert_eq!(trace.get(&trace.dispatched), 3);
    assert_eq!(trace.get(&trace.passthroughs), 1);
}

pub(crate) fn star_unrolls_until_exit(base: EngineConfig) {
    // ( [ {<n>} -> {<n = n - 1>} ] ) * {<n> == 0}: decrement until zero.
    let dec = NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![snet_core::filter::OutputTemplate::empty().set_tag(
            "n",
            TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
        )],
    ));
    let exit = Pattern::guarded(
        Variant::empty(),
        TagExpr::bin(BinOp::Eq, TagExpr::tag("n"), TagExpr::Const(0)),
    );
    let net = SchedNet::with_config(NetSpec::star(dec, exit), base);
    let (outs, trace) = net
        .run_batch_traced(vec![Record::new().with_tag("n", 5)])
        .unwrap();
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].tag("n"), Some(0));
    assert_eq!(trace.get(&trace.star_unfoldings), 5);
}

pub(crate) fn split_creates_replica_per_tag_value(base: EngineConfig) {
    let net = SchedNet::with_config(NetSpec::split(int_box("id", "x", "x", |x| x), "k"), base);
    let recs: Vec<Record> = (0..12)
        .map(|i| {
            Record::new()
                .with_field("x", Value::Int(i))
                .with_tag("k", i % 3)
        })
        .collect();
    let (outs, trace) = net.run_batch_traced(recs).unwrap();
    assert_eq!(outs.len(), 12);
    assert_eq!(trace.get(&trace.split_replicas), 3);
    assert_eq!(trace.get(&trace.dispatched), 12);
}

pub(crate) fn split_without_tag_is_an_error(base: EngineConfig) {
    let net = SchedNet::with_config(NetSpec::split(int_box("id", "x", "x", |x| x), "k"), base);
    let err = net.run_batch(xs(1..2)).unwrap_err();
    assert_eq!(err, SnetError::MissingTag(Label::new("k")));
}

pub(crate) fn sync_joins_in_stream(base: EngineConfig) {
    let net = SchedNet::with_config(ab_cell(), base);
    let outs = net
        .run_batch(vec![
            Record::new().with_field("a", Value::Int(1)),
            Record::new().with_field("b", Value::Int(2)),
        ])
        .unwrap();
    assert_eq!(outs.len(), 1);
    assert!(outs[0].has_field("a") && outs[0].has_field("b"));
}

pub(crate) fn stranded_sync_records_are_counted(base: EngineConfig) {
    let net = SchedNet::with_config(ab_cell(), base);
    let (outs, trace) = net
        .run_batch_traced(vec![Record::new().with_field("a", Value::Int(1))])
        .unwrap();
    assert!(outs.is_empty());
    assert_eq!(trace.get(&trace.sync_stranded), 1);
}

pub(crate) fn box_error_propagates(base: EngineConfig) {
    let bad = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("bad", &["x"], &[&["y"]]),
        |_| Err(SnetError::Engine("deliberate".into())),
    ));
    let err = SchedNet::with_config(bad, base)
        .run_batch(xs(1..2))
        .unwrap_err();
    assert!(matches!(err, SnetError::BoxFailure { .. }), "{err}");
}

pub(crate) fn panicking_box_is_reported_not_swallowed(base: EngineConfig) {
    let bomb = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("bomb", &["x"], &[&["y"]]),
        |r| {
            let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            if x == 2 {
                panic!("boom at {x}");
            }
            Ok(BoxOutput::one(r.clone(), Work::ZERO))
        },
    ));
    // A box standing alone is a chain of one whatever `fuse` says.
    for config in either_grain(base) {
        let err = SchedNet::with_config(bomb.clone(), config)
            .run_batch(xs(0..5))
            .unwrap_err();
        match err {
            SnetError::BoxFailure { name, cause } => {
                assert_eq!(name, "bomb");
                assert!(cause.contains("boom at 2"), "{cause}");
            }
            other => panic!("expected box failure, got {other:?}"),
        }
    }
}

pub(crate) fn strict_mismatch_policy_errors(base: EngineConfig) {
    let net = SchedNet::with_config(
        int_box("f", "x", "y", |x| x),
        EngineConfig {
            mismatch: MismatchPolicy::Error,
            ..base
        },
    );
    let err = net
        .run_batch(vec![Record::new().with_field("other", Value::Int(1))])
        .unwrap_err();
    assert!(matches!(err, SnetError::TypeMismatch { .. }));
}

pub(crate) fn streaming_interface_overlaps(base: EngineConfig) {
    let net = SchedNet::with_config(int_box("inc", "x", "x", |x| x + 1), base);
    let h = net.start();
    h.send(Record::new().with_field("x", Value::Int(1)))
        .unwrap();
    let first = h.recv().expect("one output while input still open");
    assert_eq!(first.field("x").unwrap().as_int(), Some(2));
    h.send(Record::new().with_field("x", Value::Int(5)))
        .unwrap();
    h.close_input();
    let second = h.recv().expect("second output");
    assert_eq!(second.field("x").unwrap().as_int(), Some(6));
    assert!(h.recv().is_none());
    h.finish().unwrap();
}

pub(crate) fn net_is_reusable_with_fresh_state(base: EngineConfig) {
    // A synchrocell net must not remember fires across runs.
    let net = SchedNet::with_config(ab_cell(), base);
    for _ in 0..2 {
        let outs = net
            .run_batch(vec![
                Record::new().with_field("a", Value::Int(1)),
                Record::new().with_field("b", Value::Int(2)),
            ])
            .unwrap();
        assert_eq!(outs.len(), 1, "cell must fire in every fresh run");
    }
}

/// Chain scratch belongs to the stepping thread and outlives the run; a
/// batch that dies half way through a stage must leave none of its
/// records in it. One worker, so both runs step on the same thread.
pub(crate) fn failed_batch_leaves_nothing_for_the_next_run(base: EngineConfig) {
    let picky = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("picky", &["x"], &[&["x"]]),
        |r| match r.field("x").and_then(|v| v.as_int()) {
            Some(7) => Err(SnetError::Engine("deliberate".into())),
            _ => Ok(BoxOutput::one(r.clone(), Work::ZERO)),
        },
    ));
    for config in either_grain(base) {
        let net = SchedNet::with_config(
            NetSpec::pipeline([int_box("inc", "x", "x", |x| x + 1), picky.clone()]),
            EngineConfig {
                workers: 1,
                ..config
            },
        );
        // 0..8 arrives at `picky` as 1..9: six records pass before 7.
        let err = net.run_batch(xs(0..8)).unwrap_err();
        assert!(matches!(err, SnetError::BoxFailure { .. }), "{err}");
        let outs = net.run_batch(xs(100..104)).unwrap();
        assert_eq!(ints(&outs, "x"), vec![101, 102, 103, 104]);
    }
}

/// A per-box `DeadLetter` override diverts the record as it arrived and
/// `Retry` counts its extra attempts, for a box standing alone under
/// `fuse` on and off alike.
pub(crate) fn standalone_box_honours_its_policy_at_either_grain(base: EngineConfig) {
    for config in either_grain(base) {
        let bad = BoxDef::from_fn(BoxSig::parse("bad", &["x"], &[&["x"]]), |r| {
            match r.field("x").and_then(|v| v.as_int()) {
                Some(3) => Err(SnetError::Engine("deliberate".into())),
                _ => Ok(BoxOutput::one(r.clone(), Work::ZERO)),
            }
        })
        .with_policy(FailurePolicy::DeadLetter);
        let report = SchedNet::with_config(NetSpec::Box(bad), config)
            .run_batch_report(xs(0..6))
            .unwrap();
        assert_eq!(ints(&report.outputs, "x"), vec![0, 1, 2, 4, 5]);
        let [dead] = &report.dead_letters[..] else {
            panic!("one dead letter: {:?}", report.dead_letters);
        };
        assert_eq!(dead.report.component, "bad");
        assert_eq!(ints(std::slice::from_ref(&dead.record), "x"), vec![3]);

        // Fails every record's first attempt.
        let calls = Arc::new(AtomicU64::new(0));
        let flaky = BoxDef::from_fn(BoxSig::parse("flaky", &["x"], &[&["x"]]), move |r| {
            if calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                return Err(SnetError::Engine("first attempt".into()));
            }
            Ok(BoxOutput::one(r.clone(), Work::ZERO))
        });
        let retrying = EngineConfig {
            policy: FailurePolicy::Retry {
                max_attempts: 2,
                backoff: Duration::ZERO,
            },
            ..config
        };
        let report = SchedNet::with_config(NetSpec::Box(flaky), retrying)
            .run_batch_report(xs(0..6))
            .unwrap();
        assert_eq!(report.outputs.len(), 6);
        assert_eq!(report.trace.get(&report.trace.retries), 6);
    }
}

/// The dynamic-scheduling net of the paper's Fig 4 with a trivial
/// solver: a star whose body holds an index split and a synchrocell.
///
/// ```text
/// ( ( (solve .. [ {chunk,<node>} -> {chunk}; {<node>} ])!<node> | [] )
///   .. ( [] | [| {sect}, {<node>} |] ) ) * {chunk}
/// ```
fn fig4_net() -> NetSpec {
    let pat =
        |fields: &[&str], tags: &[&str]| Pattern::from_variant(Variant::parse_labels(fields, tags));
    let release = NetSpec::Filter(FilterSpec::new(
        pat(&["chunk"], &["node"]),
        vec![
            snet_core::filter::OutputTemplate::empty().keep_field("chunk"),
            snet_core::filter::OutputTemplate::empty().keep_tag("node"),
        ],
    ));
    let solve = NetSpec::serial(int_box("solve", "sect", "chunk", |x| x + 1000), release);
    let first = NetSpec::parallel(vec![NetSpec::split(solve, "node"), NetSpec::identity()]);
    let join = NetSpec::parallel(vec![
        NetSpec::identity(),
        NetSpec::Sync(SyncSpec::new(vec![
            pat(&["sect"], &[]),
            pat(&[], &["node"]),
        ])),
    ]);
    NetSpec::star(NetSpec::serial(first, join), pat(&["chunk"], &[]))
}

/// One Fig 4 job: six sections numbered from `base`, the first two
/// carrying the node tokens.
fn fig4_job(base: i64) -> Vec<Record> {
    (0..6)
        .map(|i| {
            let sect = Record::new().with_field("sect", Value::Int(base + i));
            if i < 2 {
                sect.with_tag("node", i)
            } else {
                sect
            }
        })
        .collect()
}

fn multiset(records: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// Four threads run 250 jobs each on one network. Every run
/// instantiates its components from the network's one compiled plan,
/// concurrently with the other threads' runs unfolding and retiring
/// theirs. Outside [`engine_suite!`] because the caller also checks
/// the pool on the returned network.
pub(crate) fn concurrent_jobs(base: EngineConfig) -> SchedNet {
    let spec = fig4_net();
    let net = SchedNet::with_config(spec.clone(), base);
    std::thread::scope(|s| {
        for thread in 0..4 {
            let (net, spec) = (&net, &spec);
            s.spawn(move || {
                for job in 0..250 {
                    let first = (thread * 250 + job) * 10;
                    let want = Interp::new(spec).run_batch(fig4_job(first)).unwrap();
                    let got = net.run_batch(fig4_job(first)).unwrap();
                    assert_eq!(multiset(&got), multiset(&want.outputs), "job {first}");
                }
            });
        }
    });
    net
}

/// Waits (bounded) for a run nobody joined to finish tearing down.
fn torn_down(trace: &Trace) -> (u64, u64) {
    let counts = || {
        (
            trace.get(&trace.components_built),
            trace.get(&trace.components_finalized),
        )
    };
    let give_up = Instant::now() + Duration::from_secs(10);
    while counts().0 != counts().1 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    counts()
}

/// However a run ends, every component instance it created — the
/// start-up graph and every replica unfolded on the way — observes
/// end-of-stream exactly once.
pub(crate) fn every_component_is_retired_exactly_once(base: EngineConfig) {
    let retired = |what: &str, trace: &Trace| {
        let (built, finalized) = torn_down(trace);
        assert!(built > 0, "{what}: nothing was built");
        assert_eq!(built, finalized, "{what}: built vs finalized");
    };

    let net = SchedNet::with_config(fig4_net(), base);
    let (outs, trace) = net.run_batch_traced(fig4_job(0)).unwrap();
    assert_eq!(outs.len(), 6);
    assert!(trace.get(&trace.star_unfoldings) > 0 && trace.get(&trace.split_replicas) > 0);
    retired("clean run", &trace);

    let h = net.start();
    h.send_all(fig4_job(0)).unwrap();
    h.cancel();
    let trace = h.trace_arc();
    assert_eq!(h.finish(), Err(SnetError::Cancelled));
    retired("cancelled run", &trace);

    // Once its six outputs are out the run sits idle; cancelling it
    // closes the input, so it tears down before anything finishes it.
    let h = net.start();
    h.send_all(fig4_job(0)).unwrap();
    for _ in 0..6 {
        h.recv().expect("an output");
    }
    h.cancel();
    retired("cancelled idle run", h.trace());
    assert_eq!(h.finish(), Err(SnetError::Cancelled));

    let h = net.start();
    h.send_all(fig4_job(0)).unwrap();
    let trace = h.trace_arc();
    drop(h);
    retired("dropped handle", &trace);

    let expired = SchedNet::with_config(
        fig4_net(),
        EngineConfig {
            deadline: Some(Duration::ZERO),
            ..base
        },
    );
    let h = expired.start();
    let _ = h.send_all(fig4_job(0));
    let trace = h.trace_arc();
    assert_eq!(h.finish(), Err(SnetError::DeadlineExceeded));
    retired("expired deadline", &trace);

    // A box that fails on its third record, behind a split that has
    // unfolded replicas by then.
    let failing = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("bad", &["x"], &[&["x"]]),
        |r| match r.field("x").and_then(|v| v.as_int()) {
            Some(2) => Err(SnetError::Engine("deliberate".into())),
            _ => Ok(BoxOutput::one(r.clone(), Work::ZERO)),
        },
    ));
    let net = SchedNet::with_config(
        NetSpec::serial(NetSpec::split(int_box("id", "x", "x", |x| x), "k"), failing),
        base,
    );
    let h = net.start();
    let _ = h.send_all(
        (0..8)
            .map(|i| {
                Record::new()
                    .with_field("x", Value::Int(i))
                    .with_tag("k", i % 4)
            })
            .collect(),
    );
    let trace = h.trace_arc();
    let err = h.finish().unwrap_err();
    assert!(matches!(err, SnetError::BoxFailure { .. }), "{err}");
    retired("failed run", &trace);
}
