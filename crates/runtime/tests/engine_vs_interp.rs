//! Property test: the work-stealing scheduled engine and the
//! deterministic reference interpreter agree on the output *multiset*
//! for randomly generated networks and record batches, batch or
//! streamed, at every hand-off batch size, pool size and grain.
//!
//! The generated networks are restricted to the confluent fragment of
//! S-Net — stateless components composed with `..`, `|`, `*` (with a
//! strictly decreasing body) and `!` — where the nondeterministic
//! arrival-order merge cannot change the set of produced records, only
//! their order. Synchrocells are covered separately with the cell in a
//! deterministic (stream-head) position.

use proptest::prelude::*;
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, RecordVec, Work};
use snet_core::filter::OutputTemplate;
use snet_core::{BinOp, FilterSpec, NetSpec, Pattern, Record, SyncSpec, TagExpr, Value, Variant};
use snet_runtime::{run_stream, run_stream_interleaved, EngineConfig, Interp, SchedNet, Trace};

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

/// The strictly-decreasing star body: `[ {<n>} -> {<n = n - 1>} ]`.
fn dec_filter() -> NetSpec {
    NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![OutputTemplate::empty().set_tag(
            "n",
            TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
        )],
    ))
}

/// `(dec) * {<n> <= 0}` — always terminates for finite `<n>`.
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

/// `box_ops`, `box_records`, `filter_records`, `dispatched`,
/// `passthroughs`: the counters a confluent net fixes regardless of
/// arrival order.
fn order_free_counters(t: &Trace) -> [u64; 5] {
    [
        &t.box_ops,
        &t.box_records,
        &t.filter_records,
        &t.dispatched,
        &t.passthroughs,
    ]
    .map(|c| t.get(c))
}

/// A task per box and filter: every composition edge is a mailbox hop.
fn unfused() -> EngineConfig {
    EngineConfig {
        fuse: false,
        ..EngineConfig::default()
    }
}

fn multiset(records: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_matches_interp_on_confluent_nets(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..20),
    ) {
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let actual = SchedNet::with_config(net, unfused()).run_batch(batch).unwrap();
        prop_assert_eq!(multiset(&actual), multiset(&expected.outputs));
    }

    #[test]
    fn engine_matches_interp_with_leading_sync(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..20),
    ) {
        // The cell is a task of its own here, fed in batch order all the
        // same, so its merges stay deterministic.
        let cell = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let full = NetSpec::serial(cell, net);
        let expected = Interp::new(&full).run_batch(batch.clone()).unwrap();
        let actual = SchedNet::with_config(full, unfused()).run_batch(batch).unwrap();
        prop_assert_eq!(multiset(&actual), multiset(&expected.outputs));
    }

    #[test]
    fn engines_charge_identical_work(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..16),
    ) {
        // Fused or not, one worker stepping record at a time or the
        // default pool: every run charges the interpreter's total ops
        // and agrees with the others on every counter that does not
        // depend on arrival order.
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let serial = EngineConfig { workers: 1, batch: 1, ..EngineConfig::default() };
        let traces = [EngineConfig::default(), unfused(), serial].map(|cfg| {
            let (_, trace) = SchedNet::with_config(net.clone(), cfg)
                .run_batch_traced(batch.clone())
                .unwrap();
            trace
        });
        for trace in &traces {
            prop_assert_eq!(trace.get(&trace.box_ops), expected.work.ops);
            prop_assert_eq!(order_free_counters(trace), order_free_counters(&traces[0]));
        }
    }

    #[test]
    fn sched_engine_matches_interp_on_confluent_nets(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..20),
    ) {
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let actual = SchedNet::new(net).run_batch(batch).unwrap();
        prop_assert_eq!(multiset(&actual), multiset(&expected.outputs));
    }

    #[test]
    fn sched_engine_matches_interp_with_leading_sync(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..20),
    ) {
        // [| {a}, {b} |] at the head of the stream is fed in batch order,
        // so its merges are deterministic.
        let cell = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let full = NetSpec::serial(cell, net);
        let expected = Interp::new(&full).run_batch(batch.clone()).unwrap();
        let actual = SchedNet::new(full).run_batch(batch).unwrap();
        prop_assert_eq!(multiset(&actual), multiset(&expected.outputs));
    }

    #[test]
    fn sched_engine_charges_identical_work(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..16),
    ) {
        // Abstract work is part of the semantics (it drives the cluster
        // simulator): the engine must charge the interpreter's total ops
        // for the same inputs on confluent nets.
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let (_, trace) = SchedNet::new(net).run_batch_traced(batch).unwrap();
        prop_assert_eq!(
            trace.box_ops.load(std::sync::atomic::Ordering::Relaxed),
            expected.work.ops
        );
    }

    #[test]
    fn sched_engine_is_worker_count_invariant(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..12),
    ) {
        // The pool size must never change the output multiset.
        let one = SchedNet::with_config(net.clone(), EngineConfig { workers: 1, ..EngineConfig::default() })
            .run_batch(batch.clone())
            .unwrap();
        let eight = SchedNet::with_config(net, EngineConfig { workers: 8, ..EngineConfig::default() })
            .run_batch(batch)
            .unwrap();
        prop_assert_eq!(multiset(&one), multiset(&eight));
    }

    #[test]
    fn sched_batched_matches_unbatched_on_confluent_nets(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..20),
        handoff in prop_oneof![Just(8usize), Just(32), Just(128)],
    ) {
        // Batched hand-off must not change the produced multiset: a
        // batch=1 run (record-at-a-time, the pre-batching protocol) and
        // a batched run must agree with each other and the oracle.
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let unbatched = SchedNet::with_config(
            net.clone(),
            EngineConfig { batch: 1, ..EngineConfig::default() },
        )
        .run_batch(batch.clone())
        .unwrap();
        let batched = SchedNet::with_config(
            net,
            EngineConfig { batch: handoff, ..EngineConfig::default() },
        )
        .run_batch(batch)
        .unwrap();
        prop_assert_eq!(multiset(&unbatched), multiset(&expected.outputs));
        prop_assert_eq!(multiset(&batched), multiset(&expected.outputs));
    }

    #[test]
    fn sched_batching_preserves_per_stream_fifo_order(
        n_records in 1usize..48,
        keys in 2i64..4,
        depth in 1usize..5,
        handoff in prop_oneof![Just(1usize), Just(8), Just(32), Just(128)],
    ) {
        // Records that take the same path (same `<k>` replica of a
        // `!`-indexed pipeline) must come out in the order they went
        // in, at every hand-off batch size: batching may coalesce
        // hand-offs but never reorder an edge. `<s>` is a per-record
        // sequence number; `<n> = 0` keeps stars out of the picture.
        let net = NetSpec::split(
            NetSpec::pipeline((0..depth).map(|_| add_box())),
            "k",
        );
        let records: Vec<Record> = (0..n_records)
            .map(|i| {
                Record::new()
                    .with_tag("k", i as i64 % keys)
                    .with_tag("s", i as i64)
                    .with_field("a", Value::Int(i as i64))
            })
            .collect();
        let outs = SchedNet::with_config(
            net,
            EngineConfig { batch: handoff, ..EngineConfig::default() },
        )
        .run_batch(records)
        .unwrap();
        prop_assert_eq!(outs.len(), n_records);
        for k in 0..keys {
            let seq: Vec<i64> = outs
                .iter()
                .filter(|r| r.tag("k") == Some(k))
                .map(|r| r.tag("s").expect("sequence tag survives"))
                .collect();
            let expected: Vec<i64> =
                (0..n_records as i64).filter(|s| s % keys == k).collect();
            prop_assert_eq!(seq, expected, "stream k={} reordered", k);
        }
    }

    #[test]
    fn streamed_sched_matches_batch_and_interp(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..20),
    ) {
        // The streaming handle (bounded ingress, outputs draining
        // concurrently out of the bounded egress) must produce
        // the same multiset as the one-shot batch path and the oracle —
        // both runs sharing one SchedNet's persistent pool.
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let sched = SchedNet::new(net);
        let streamed = run_stream(&sched, batch.clone()).unwrap();
        let batched = sched.run_batch(batch).unwrap();
        prop_assert_eq!(multiset(&streamed), multiset(&expected.outputs));
        prop_assert_eq!(multiset(&batched), multiset(&expected.outputs));
    }

    #[test]
    fn streamed_threaded_matches_interp(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..12),
    ) {
        // Both streaming drivers over one unfused net: `run_stream`'s
        // feeder thread against the blocking ingress, and
        // `run_stream_interleaved` feeding, draining and stepping on
        // this one thread.
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let sched = SchedNet::with_config(net, unfused());
        let threaded = run_stream(&sched, batch.clone()).unwrap();
        let interleaved = run_stream_interleaved(&sched, batch).unwrap();
        prop_assert_eq!(multiset(&threaded), multiset(&expected.outputs));
        prop_assert_eq!(multiset(&interleaved), multiset(&expected.outputs));
    }

    #[test]
    fn streamed_sched_under_tight_capacity_matches_interp(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..16),
    ) {
        // Capacity 1 maximizes ingress blocking and output-channel
        // stalls: the backpressure machinery must never drop, duplicate
        // or manufacture records.
        let expected = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let sched = SchedNet::with_config(
            net,
            EngineConfig { channel_capacity: 1, ..EngineConfig::default() },
        );
        let streamed = run_stream(&sched, batch).unwrap();
        prop_assert_eq!(multiset(&streamed), multiset(&expected.outputs));
    }

    #[test]
    fn interp_is_deterministic(
        net in arb_net(),
        batch in prop::collection::vec(arb_record(), 0..16),
    ) {
        let a = Interp::new(&net).run_batch(batch.clone()).unwrap();
        let b = Interp::new(&net).run_batch(batch).unwrap();
        prop_assert_eq!(
            a.outputs.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>(),
            b.outputs.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>()
        );
        prop_assert_eq!(a.work, b.work);
        prop_assert_eq!(a.stranded, b.stranded);
    }
}
