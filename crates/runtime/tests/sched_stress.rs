//! Stress test: topology scale a thread per component could not reach.
//!
//! The generated network is a star whose body is a 16-branch parallel
//! composition of 16-deep box pipelines. Every star unfolding
//! instantiates ~290 component instances (16 × 16 boxes plus glue); a
//! 6-level unfolding is ~1,750 components — ~1,750 OS threads *per run*
//! if each were a thread, past default thread limits in constrained
//! environments. The scheduled engine runs the same topology on pools of
//! 1 to 8 workers, and must still agree with the deterministic
//! interpreter on the output multiset.

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::filter::OutputTemplate;
use snet_core::{BinOp, FilterSpec, NetSpec, Pattern, Record, TagExpr, Value, Variant};
use snet_runtime::{EngineConfig, Interp, SchedNet};

const WIDTH: usize = 16; // parallel branches
const DEPTH: usize = 16; // pipeline stages per branch
const ROUNDS: i64 = 6; // star unfoldings per record

/// A box consuming `{x}` and emitting `{x: x + 1}`.
fn inc_box() -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("inc", &["x"], &[&["x"]]),
        |r| {
            let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            Ok(BoxOutput::one(
                Record::new().with_field("x", Value::Int(x + 1)),
                Work::ops(1),
            ))
        },
    ))
}

/// `[ {<n>} -> {<n = n - 1>} ]`.
fn dec_filter() -> NetSpec {
    NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![OutputTemplate::empty().set_tag(
            "n",
            TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
        )],
    ))
}

/// deep pipelines × wide parallel × star: the scaling shape every
/// later PR (sharding, batching, placement) has to survive.
fn stress_net() -> NetSpec {
    let branch = || NetSpec::pipeline((0..DEPTH).map(|_| inc_box()));
    let wide = NetSpec::parallel((0..WIDTH).map(|_| branch()).collect());
    let body = NetSpec::serial(wide, dec_filter());
    let exit = Pattern::guarded(
        Variant::empty(),
        TagExpr::bin(BinOp::Le, TagExpr::tag("n"), TagExpr::Const(0)),
    );
    NetSpec::star(body, exit)
}

fn batch(records: i64) -> Vec<Record> {
    (0..records)
        .map(|i| {
            Record::new()
                .with_field("x", Value::Int(i))
                .with_tag("n", ROUNDS)
        })
        .collect()
}

fn multiset(records: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

#[test]
fn deep_wide_star_topology_runs_on_a_small_worker_pool() {
    let inputs = batch(64);
    let expected = Interp::new(&stress_net())
        .run_batch(inputs.clone())
        .expect("oracle completes");
    // Every record makes ROUNDS passes, each adding DEPTH increments.
    assert!(expected.outputs.iter().all(|r| r.tag("n") == Some(0)));

    let net = SchedNet::with_config(
        stress_net(),
        EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
    );
    let (outs, trace) = net
        .run_batch_traced(inputs)
        .expect("sched engine completes");
    assert_eq!(multiset(&outs), multiset(&expected.outputs));

    // The topology really did reach stress scale: ROUNDS unfoldings,
    // each running 64 records through 16 × 16 boxes.
    use std::sync::atomic::Ordering;
    assert_eq!(trace.star_unfoldings.load(Ordering::Relaxed), ROUNDS as u64);
    assert_eq!(
        trace.box_ops.load(Ordering::Relaxed),
        64 * ROUNDS as u64 * DEPTH as u64,
    );
}

#[test]
fn stress_topology_is_repeatable_across_pool_sizes() {
    let inputs = batch(16);
    let expected = Interp::new(&stress_net())
        .run_batch(inputs.clone())
        .unwrap();
    for workers in [1usize, 2, 8] {
        let net = SchedNet::with_config(
            stress_net(),
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
        );
        let outs = net.run_batch(inputs.clone()).unwrap();
        assert_eq!(
            multiset(&outs),
            multiset(&expected.outputs),
            "workers = {workers}"
        );
    }
}
