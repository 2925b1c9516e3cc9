//! Quickstart: build a tiny S-Net streaming network and run it — as a
//! batch and as a live stream on the scheduled engine, checked against
//! the reference interpreter.
//!
//! Demonstrates the core methodology of the paper in ~100 lines:
//! *algorithm engineering* is the plain `double` function; *concurrency
//! engineering* is the coordination source text; the two only meet at
//! the box signature. Flow inheritance carries labels the boxes never
//! mention. The compiled network then runs on the scheduled engine (a
//! persistent work-stealing worker pool) through its batch and
//! streaming `Handle` APIs, and on the deterministic interpreter.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use snet_core::boxdef::{BoxOutput, Work};
use snet_core::{Record, Value};
use snet_lang::{compile, BoxRegistry};
use snet_runtime::{Interp, SchedNet};

/// Streams records one at a time through the network: sends push against
/// the handle's bounded ingress while this thread drains outputs — the
/// continuous-stream execution mode the paper's runtime section is
/// about, as opposed to a one-shot batch.
fn stream_through(net: &SchedNet, inputs: Vec<Record>) -> Vec<(i64, i64)> {
    let handle = net.start();
    let mut results = Vec::new();
    std::thread::scope(|s| {
        let h = &handle;
        s.spawn(move || {
            for rec in inputs {
                h.send(rec).expect("network accepts input");
            }
            h.close_input();
        });
        while let Some(r) = h.recv() {
            results.push((
                r.field("x").and_then(|v| v.as_int()).expect("x survives"),
                r.tag("n").expect("n survives"),
            ));
        }
    });
    handle.finish().expect("runs to completion");
    results.sort_unstable();
    results
}

fn main() {
    // --- Algorithm engineering: an ordinary sequential function. -----
    // `double` knows nothing about streams, threads or routing.
    let mut registry = BoxRegistry::new();
    registry.register("double", |r: &Record| {
        let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
        Ok(BoxOutput::one(
            Record::new().with_field("x", Value::Int(2 * x)),
            Work::ops(1),
        ))
    });

    // --- Concurrency engineering: the coordination program. ----------
    // Records with field `x` are doubled `<n>` times by unrolling a
    // star; the filter decrements the counter after every pass.
    let source = r#"
        net repeat_double {
            box double ((x) -> (x));
        } connect
            ( double .. [ {<n>} -> {<n = n - 1>} ] ) * {<n> == 0}
    "#;
    let net = compile(source, &registry).expect("the program is well-formed");
    println!("network: {net}");

    let inputs: Vec<Record> = (1..=5)
        .map(|i| {
            Record::new()
                .with_field("x", Value::Int(i))
                .with_tag("n", i)
        })
        .collect();
    // i doubled i times = i * 2^i.
    let expected: Vec<(i64, i64)> = (1..=5).map(|i| (i << i, 0)).collect();

    let pairs = |outputs: Vec<Record>| {
        let mut pairs: Vec<(i64, i64)> = outputs
            .iter()
            .map(|r| {
                (
                    r.field("x").and_then(|v| v.as_int()).expect("x survives"),
                    r.tag("n").expect("n survives"),
                )
            })
            .collect();
        pairs.sort_unstable();
        pairs
    };

    // --- Execution: one-shot batch on the scheduled engine. ----------
    let sched = SchedNet::new(net.clone());
    let batch = pairs(sched.run_batch(inputs.clone()).expect("runs to completion"));
    assert_eq!(batch, expected, "each record is doubled <n> times");
    println!("batch (scheduled engine):");
    for (x, n) in &batch {
        println!("  x = {x:3}  (counter ended at {n})");
    }

    // --- Execution: the same net as a live stream. --------------------
    // The capped entry mailbox pushes back on the sender; outputs
    // arrive while input is still being fed.
    let streamed = stream_through(&sched, inputs.clone());
    assert_eq!(
        streamed, expected,
        "streaming preserves the batch semantics"
    );
    println!("streaming: same results, fed record by record");

    // --- The oracle: the deterministic reference interpreter. ---------
    let oracle = Interp::new(&net)
        .run_batch(inputs)
        .expect("runs to completion");
    assert_eq!(pairs(oracle.outputs), expected, "the interpreter agrees");
    println!("ok: every record was doubled exactly <n> times on every path");
}
