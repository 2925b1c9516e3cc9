//! Robustness properties under deterministic fault injection.
//!
//! Every test drives the same content-keyed chaos schedules
//! ([`snet_runtime::faultinject`]) through the reference interpreter
//! and the scheduled engine, so the *same* records fault in each —
//! which is what lets us assert convergence, dead-letter partitioning,
//! and parity with the oracle rather than merely "it didn't crash".

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::{NetSpec, Record, SnetError, Value};
use snet_runtime::faultinject::{chaos, chaos_with_stats, FaultSpec};
use snet_runtime::{
    run_stream, run_stream_interleaved, DeadLetter, EngineConfig, FailurePolicy, Interp, SchedNet,
    TrySendError,
};
use std::time::Duration;

/// A box consuming `{x}` and emitting `{x: x + 1}`.
fn inc_box() -> BoxDef {
    BoxDef::from_fn(BoxSig::parse("inc", &["x"], &[&["x"]]), |r| {
        let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
        Ok(BoxOutput::one(
            Record::new().with_field("x", Value::Int(x + 1)),
            Work::ops(1),
        ))
    })
}

fn inputs(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new().with_field("x", Value::Int(i)))
        .collect()
}

fn multiset(records: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// The retry policy used throughout: enough attempts to outlast every
/// bounded schedule below, with a negligible backoff so tests stay fast.
fn retry() -> FailurePolicy {
    FailurePolicy::Retry {
        max_attempts: 4,
        backoff: Duration::from_micros(10),
    }
}

#[test]
fn retry_converges_to_fault_free_output_on_all_engines() {
    let spec = FaultSpec::errors(0xfeed, 3, 2); // every 3rd record fails twice
    let expected = Interp::new(&NetSpec::Box(inc_box()))
        .run_batch(inputs(40))
        .unwrap();

    // Fresh chaos wrap per engine: the per-record fault budget lives in
    // the wrapper, and a shared one would let the first run spend it.
    let (flaky, stats) = chaos_with_stats(&inc_box(), spec);
    let cfg = EngineConfig {
        policy: retry(),
        ..EngineConfig::default()
    };
    let outs = SchedNet::with_config(NetSpec::Box(flaky), cfg)
        .run_batch(inputs(40))
        .unwrap();
    assert_eq!(multiset(&outs), multiset(&expected.outputs));
    assert!(stats.injected() > 0, "schedule injected nothing");

    let (flaky, stats) = chaos_with_stats(&inc_box(), spec);
    let interp = Interp::new(&NetSpec::Box(flaky)).with_policy(retry());
    let res = interp.run_batch(inputs(40)).unwrap();
    assert_eq!(multiset(&res.outputs), multiset(&expected.outputs));
    assert!(res.dead_letters.is_empty());
    assert!(stats.injected() > 0);
}

#[test]
fn retry_recovers_from_formatted_panics() {
    // Panic payloads here are `String`s (formatted), exercising the
    // catch-site downcast on every engine.
    let spec = FaultSpec::panics(0xabad, 2, 1);
    let expected = Interp::new(&NetSpec::Box(inc_box()))
        .run_batch(inputs(24))
        .unwrap();
    let cfg = EngineConfig {
        policy: retry(),
        ..EngineConfig::default()
    };

    let (flaky, stats) = chaos_with_stats(&inc_box(), spec);
    let outs = SchedNet::with_config(NetSpec::Box(flaky), cfg)
        .run_batch(inputs(24))
        .unwrap();
    assert_eq!(multiset(&outs), multiset(&expected.outputs));
    assert!(stats.injected() > 0);
}

#[test]
fn retry_counts_surface_in_the_trace() {
    let spec = FaultSpec::errors(0xfeed, 3, 2);
    let (flaky, stats) = chaos_with_stats(&inc_box(), spec);
    let cfg = EngineConfig {
        policy: retry(),
        ..EngineConfig::default()
    };
    let report = SchedNet::with_config(NetSpec::Box(flaky), cfg)
        .run_batch_report(inputs(40))
        .unwrap();
    let retries = report.trace.get(&report.trace.retries);
    assert_eq!(retries, stats.injected(), "each injection costs one retry");
    assert!(retries > 0);
}

/// Predicts the fault partition for permanent faults: records the
/// schedule selects are diverted, the rest flow through.
fn partition(spec: FaultSpec, batch: &[Record]) -> (Vec<Record>, Vec<Record>) {
    batch.iter().cloned().partition(|r| spec.selects(r))
}

#[test]
fn dead_letter_partitions_the_input_set() {
    let spec = FaultSpec::errors(0x0dead, 3, u32::MAX); // permanent
    let batch = inputs(30);
    let (doomed, healthy) = partition(spec, &batch);
    assert!(
        !doomed.is_empty() && !healthy.is_empty(),
        "degenerate schedule"
    );
    let expected_outputs = Interp::new(&NetSpec::Box(inc_box()))
        .run_batch(healthy.clone())
        .unwrap();

    let cfg = EngineConfig {
        policy: FailurePolicy::DeadLetter,
        ..EngineConfig::default()
    };

    let check = |outputs: Vec<Record>, dead: Vec<snet_runtime::DeadLetter>, engine: &str| {
        assert_eq!(
            outputs.len() + dead.len(),
            batch.len(),
            "{engine}: outputs + dead letters must partition the input set"
        );
        assert_eq!(
            multiset(&outputs),
            multiset(&expected_outputs.outputs),
            "{engine}"
        );
        let dead_recs: Vec<Record> = dead.iter().map(|d| d.record.clone()).collect();
        assert_eq!(multiset(&dead_recs), multiset(&doomed), "{engine}");
        for d in &dead {
            assert_eq!(d.report.component, "inc", "{engine}");
            assert_eq!(d.report.attempts, 1, "{engine}");
            assert!(
                matches!(d.report.cause, SnetError::BoxFailure { .. }),
                "{engine}: cause was {:?}",
                d.report.cause
            );
        }
    };

    let report = SchedNet::with_config(NetSpec::Box(chaos(&inc_box(), spec)), cfg)
        .run_batch_report(batch.clone())
        .unwrap();
    check(report.outputs, report.dead_letters, "sched");

    let res = Interp::new(&NetSpec::Box(chaos(&inc_box(), spec)))
        .with_policy(FailurePolicy::DeadLetter)
        .run_batch(batch.clone())
        .unwrap();
    check(res.outputs, res.dead_letters, "interp");
}

#[test]
fn engines_agree_on_the_error_variant_under_fail_fast() {
    // Permanent faults on every record: each engine must report the
    // injected BoxFailure (whichever record wins the race to fail).
    let spec = FaultSpec::errors(7, 1, u32::MAX);
    let batch = inputs(8);

    let interp_err = Interp::new(&NetSpec::Box(chaos(&inc_box(), spec)))
        .run_batch(batch.clone())
        .unwrap_err();
    let sched_err = SchedNet::new(NetSpec::Box(chaos(&inc_box(), spec)))
        .run_batch(batch)
        .unwrap_err();

    for (engine, err) in [("interp", &interp_err), ("sched", &sched_err)] {
        match err {
            SnetError::BoxFailure { name, cause } => {
                assert_eq!(name, "inc", "{engine}");
                assert!(cause.contains("injected fault"), "{engine}: {cause}");
            }
            other => panic!("{engine}: expected BoxFailure, got {other:?}"),
        }
    }
}

#[test]
fn engines_agree_on_dead_letter_survivors() {
    // Same permanent schedule, DeadLetter policy: the engine must keep
    // the oracle's survivors and divert the same records, batch or
    // streamed.
    let spec = FaultSpec::panics(0x5eed, 4, u32::MAX);
    let batch = inputs(32);
    let cfg = EngineConfig {
        policy: FailurePolicy::DeadLetter,
        ..EngineConfig::default()
    };

    let oracle = Interp::new(&NetSpec::Box(chaos(&inc_box(), spec)))
        .with_policy(FailurePolicy::DeadLetter)
        .run_batch(batch.clone())
        .unwrap();
    assert!(!oracle.dead_letters.is_empty(), "degenerate schedule");

    let report = SchedNet::with_config(NetSpec::Box(chaos(&inc_box(), spec)), cfg)
        .run_batch_report(batch)
        .unwrap();
    assert_eq!(
        multiset(&report.outputs),
        multiset(&oracle.outputs),
        "surviving outputs diverge from the oracle"
    );
    let records = |dead: &[snet_runtime::DeadLetter]| -> Vec<Record> {
        dead.iter().map(|d| d.record.clone()).collect()
    };
    assert_eq!(
        multiset(&records(&report.dead_letters)),
        multiset(&records(&oracle.dead_letters))
    );
    assert_eq!(
        report.trace.get(&report.trace.dead_letters),
        oracle.dead_letters.len() as u64,
        "the trace counts every diversion"
    );
}

#[test]
fn glue_errors_divert_under_dead_letter() {
    // A split on `<k>` fed a record with no `<k>`: under FailFast that
    // is fatal; under DeadLetter the dispatcher diverts it and the rest
    // of the batch flows on. Same on the engine as on the oracle.
    let net = NetSpec::split(NetSpec::Box(inc_box()), "k");
    let mut batch = vec![
        Record::new()
            .with_field("x", Value::Int(1))
            .with_tag("k", 0),
        Record::new().with_field("x", Value::Int(2)), // no <k>
        Record::new()
            .with_field("x", Value::Int(3))
            .with_tag("k", 1),
    ];
    let cfg = EngineConfig {
        policy: FailurePolicy::DeadLetter,
        ..EngineConfig::default()
    };

    let res = Interp::new(&net)
        .with_policy(FailurePolicy::DeadLetter)
        .run_batch(batch.clone())
        .unwrap();
    assert_eq!(res.outputs.len(), 2);
    assert_eq!(res.dead_letters.len(), 1);
    assert_eq!(res.dead_letters[0].report.component, "split-dispatch");
    assert!(matches!(
        res.dead_letters[0].report.cause,
        SnetError::MissingTag(_)
    ));

    let report = SchedNet::with_config(net.clone(), cfg)
        .run_batch_report(batch.clone())
        .unwrap();
    assert_eq!(report.outputs.len(), 2);
    assert_eq!(report.dead_letters.len(), 1);
    assert_eq!(report.dead_letters[0].report.component, "split-dispatch");

    // And FailFast still refuses.
    batch.rotate_left(1); // lead with the bad record to lose the race less
    assert!(matches!(
        Interp::new(&net).run_batch(batch).unwrap_err(),
        SnetError::MissingTag(_)
    ));
}

#[test]
fn streaming_dead_letters_arrive_on_the_handle() {
    let spec = FaultSpec::errors(0x0dead, 3, u32::MAX);
    let batch = inputs(30);
    let (doomed, _) = partition(spec, &batch);
    let cfg = EngineConfig {
        policy: FailurePolicy::DeadLetter,
        ..EngineConfig::default()
    };

    fn drive(net: &SchedNet, batch: Vec<Record>) -> (Vec<Record>, Vec<Record>) {
        let h = net.start();
        let mut outs = Vec::new();
        let mut dead = Vec::new();
        std::thread::scope(|s| {
            let h = &h;
            s.spawn(move || {
                let _ = h.send_all(batch);
                h.close_input();
            });
            loop {
                while let Some(d) = h.try_recv_dead_letter() {
                    dead.push(d.record);
                }
                match h.recv() {
                    Some(r) => outs.push(r),
                    None => break,
                }
            }
        });
        while let Some(d) = h.try_recv_dead_letter() {
            dead.push(d.record);
        }
        h.finish().unwrap();
        (outs, dead)
    }

    let sched = SchedNet::with_config(NetSpec::Box(chaos(&inc_box(), spec)), cfg);
    let (outs, dead) = drive(&sched, batch.clone());
    assert_eq!(outs.len() + dead.len(), batch.len());
    assert_eq!(multiset(&dead), multiset(&doomed));
}

/// `run_stream` and `run_stream_interleaved` hand back only the
/// outputs, but they drain the bounded dead-letter stream as they go: a
/// run that diverts more records than the stream holds (16 ×
/// `channel_capacity`) must not overflow it. One record in four is
/// doomed, so however far the engine runs ahead of the draining
/// consumer, the letters in flight stay a third of the outputs it can
/// buffer, well under the bound.
#[test]
fn run_stream_drains_the_dead_letters_it_discards() {
    let spec = FaultSpec::errors(0x0dead, 4, u32::MAX);
    let batch = inputs(6000);
    let (doomed, healthy) = partition(spec, &batch);
    let cfg = EngineConfig {
        policy: FailurePolicy::DeadLetter,
        ..EngineConfig::default()
    };
    assert!(
        doomed.len() > 16 * cfg.channel_capacity,
        "{} diversions fit in the stream undrained",
        doomed.len()
    );
    let net = SchedNet::with_config(NetSpec::Box(chaos(&inc_box(), spec)), cfg);
    let outs = run_stream(&net, batch.clone()).expect("no dead-letter overflow");
    assert_eq!(outs.len(), healthy.len());
    let outs = run_stream_interleaved(&net, batch).expect("no dead-letter overflow, interleaved");
    assert_eq!(outs.len(), healthy.len());
}

#[test]
fn per_box_policy_overrides_the_engine_default() {
    // Two flaky boxes in series; only the first opts into DeadLetter.
    // The engine default is FailFast, so the second box's faults kill
    // the run — but a schedule that only ever hits the first box lets
    // the override show.
    let spec = FaultSpec::errors(0x0dd, 2, u32::MAX);
    let flaky = chaos(&inc_box(), spec).with_policy(FailurePolicy::DeadLetter);
    let net = NetSpec::serial(NetSpec::Box(flaky), NetSpec::Box(inc_box()));
    let batch = inputs(16);
    let (doomed, _) = partition(spec, &batch);
    assert!(!doomed.is_empty());

    // Engine default FailFast; the override still diverts.
    let report = SchedNet::new(net).run_batch_report(batch).unwrap();
    assert_eq!(report.dead_letters.len(), doomed.len());
}

/// A net whose every activation stalls, for cancellation and deadline
/// tests: slow enough that a run over `n` records cannot finish before
/// the test reacts, fast enough to drain promptly afterwards.
fn stalling_net() -> NetSpec {
    NetSpec::Box(chaos(
        &inc_box(),
        FaultSpec::stalls(1, 1, Duration::from_millis(10)),
    ))
}

#[test]
fn cancel_reports_cancelled_and_leaves_the_pool_reusable() {
    let sched = SchedNet::with_config(
        stalling_net(),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    );

    let h = sched.start();
    for rec in inputs(200) {
        h.send(rec).unwrap();
    }
    // Partial outputs must remain retrievable across cancel.
    let first = h.recv().expect("at least one output before cancel");
    assert!(first.field("x").is_some());
    h.cancel();
    let mut drained = 1;
    while h.recv().is_some() {
        drained += 1;
    }
    assert!(drained < 200, "cancel did not stop the run");
    match h.finish() {
        Err(SnetError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // The pool survives: same workers, and the next run succeeds.
    let spawned = sched.workers_spawned();
    let outs = sched.run_batch(inputs(3)).unwrap();
    assert_eq!(outs.len(), 3);
    assert_eq!(sched.workers_spawned(), spawned, "cancel respawned workers");
}

/// A cancel issued from a thread of its own reaches the threads blocked
/// on the run: a feeder waiting on a full one-record ingress in front of
/// a stalling box, and this thread waiting in `recv`. Both return, and
/// the run reports `Cancelled`.
#[test]
fn cancel_works_on_the_threaded_engine() {
    let net = SchedNet::with_config(
        stalling_net(),
        EngineConfig {
            channel_capacity: 1,
            ..EngineConfig::default()
        },
    );
    let h = net.start();
    let accepted = std::thread::scope(|s| {
        let h = &h;
        let feeder = s.spawn(move || {
            let mut accepted = 0;
            for rec in inputs(100) {
                if h.send(rec).is_err() {
                    break;
                }
                accepted += 1;
            }
            accepted
        });
        let first = h.recv().expect("one output before cancel");
        assert!(first.field("x").is_some());
        s.spawn(move || h.cancel()).join().unwrap();
        while h.recv().is_some() {}
        feeder.join().unwrap()
    });
    assert!(accepted < 100, "cancel never refused the feeder");
    assert_eq!(h.finish(), Err(SnetError::Cancelled));
}

#[test]
fn deadlines_expire_with_deadline_exceeded() {
    let cfg = EngineConfig {
        deadline: Some(Duration::from_millis(30)),
        ..EngineConfig::default()
    };
    let batch = inputs(100); // ~1s of stalls: cannot finish in 30ms

    match SchedNet::with_config(stalling_net(), cfg).run_batch(batch.clone()) {
        Err(SnetError::DeadlineExceeded) => {}
        other => panic!("sched: expected DeadlineExceeded, got {other:?}"),
    }
    match Interp::new(&stalling_net())
        .with_deadline(Duration::from_millis(30))
        .run_batch(batch)
    {
        Err(SnetError::DeadlineExceeded) => {}
        other => panic!("interp: expected DeadlineExceeded, got {other:?}"),
    }
}

/// A deadline that expires while the input is still open and every
/// task is idle ends the stream anyway: the blocked `recv` notices,
/// closes the input, and returns `None` once the teardown has drained.
#[test]
fn an_expired_deadline_ends_an_open_stream() {
    let net = SchedNet::with_config(
        NetSpec::Box(inc_box()),
        EngineConfig {
            deadline: Some(Duration::from_millis(30)),
            ..EngineConfig::default()
        },
    );
    let h = net.start();
    let _ = h.send(Record::new().with_field("x", Value::Int(1)));
    while h.recv().is_some() {}
    assert_eq!(h.finish(), Err(SnetError::DeadlineExceeded));
}

/// `try_send` tests the deadline as `send` does: on an idle net whose
/// deadline has passed, an offered record is refused with
/// `DeadlineExceeded` instead of accepted.
#[test]
fn try_send_after_the_deadline_is_refused() {
    let net = SchedNet::with_config(
        NetSpec::Box(inc_box()),
        EngineConfig {
            deadline: Some(Duration::from_millis(1)),
            ..EngineConfig::default()
        },
    );
    let h = net.start();
    std::thread::sleep(Duration::from_millis(20));
    match h.try_send(Record::new().with_field("x", Value::Int(1))) {
        Err(TrySendError::Closed(SnetError::DeadlineExceeded)) => {}
        other => panic!("expected Closed(DeadlineExceeded), got {other:?}"),
    }
    assert_eq!(h.finish(), Err(SnetError::DeadlineExceeded));
}

#[test]
fn deadline_costs_nothing_when_disabled_and_run_still_completes() {
    // Fault machinery fully disabled: FailFast, no deadline. The run
    // must behave exactly as before the robustness work.
    let outs = SchedNet::new(NetSpec::Box(inc_box()))
        .run_batch(inputs(100))
        .unwrap();
    assert_eq!(outs.len(), 100);
}

#[test]
fn string_panic_payloads_reach_failure_reports() {
    // The chaos panic payload is formatted (a `String`); the catch
    // sites must extract it rather than reporting "non-string panic
    // payload".
    let spec = FaultSpec::panics(3, 1, u32::MAX);
    let cfg = EngineConfig {
        policy: FailurePolicy::DeadLetter,
        ..EngineConfig::default()
    };
    let report = SchedNet::with_config(NetSpec::Box(chaos(&inc_box(), spec)), cfg)
        .run_batch_report(inputs(4))
        .unwrap();
    assert_eq!(report.dead_letters.len(), 4);
    for d in &report.dead_letters {
        match &d.report.cause {
            SnetError::BoxFailure { cause, .. } => {
                assert!(
                    cause.contains("injected panic in inc"),
                    "payload lost: {cause}"
                );
            }
            other => panic!("expected BoxFailure, got {other:?}"),
        }
    }
}

#[test]
fn failure_reports_compose_with_dyn_error_callers() {
    // The anyhow-style shape: `?` through `Box<dyn Error>`, then walk
    // the source chain back to the SnetError.
    fn run() -> Result<Vec<Record>, Box<dyn std::error::Error>> {
        let spec = FaultSpec::errors(7, 1, u32::MAX);
        let outs = SchedNet::new(NetSpec::Box(chaos(&inc_box(), spec))).run_batch(inputs(2))?;
        Ok(outs)
    }
    let err = run().unwrap_err();
    assert!(err.to_string().contains("box inc failed"));

    // A diverted record's report chains component → cause.
    let spec = FaultSpec::errors(7, 1, u32::MAX);
    let report = SchedNet::with_config(
        NetSpec::Box(chaos(&inc_box(), spec)),
        EngineConfig {
            policy: FailurePolicy::DeadLetter,
            ..EngineConfig::default()
        },
    )
    .run_batch_report(inputs(1))
    .unwrap();
    let dl = &report.dead_letters[0];
    let as_std: &dyn std::error::Error = &dl.report;
    let source = as_std.source().expect("report chains to its cause");
    assert!(source.to_string().contains("injected fault"));

    // TrySendError composes the same way once the run is gone.
    let sched = SchedNet::new(NetSpec::Box(inc_box()));
    let h = sched.start();
    h.cancel();
    let err = loop {
        // Cancellation is cooperative; the ingress refuses once the
        // teardown lands.
        match h.try_send(Record::new().with_field("x", Value::Int(1))) {
            Err(e) => break e,
            Ok(()) => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    let as_std: &dyn std::error::Error = &err;
    assert!(as_std.to_string().contains("ingress"));
}

#[test]
fn chaos_schedule_is_reproducible_across_runs() {
    // Two identical runs on fresh wrappers divert exactly the same
    // records in the same per-run count — the harness's core promise.
    let spec = FaultSpec::errors(0xc0ffee, 3, u32::MAX);
    let cfg = EngineConfig {
        policy: FailurePolicy::DeadLetter,
        ..EngineConfig::default()
    };
    let a = SchedNet::with_config(NetSpec::Box(chaos(&inc_box(), spec)), cfg)
        .run_batch_report(inputs(50))
        .unwrap();
    let b = SchedNet::with_config(NetSpec::Box(chaos(&inc_box(), spec)), cfg)
        .run_batch_report(inputs(50))
        .unwrap();
    let recs = |r: &[snet_runtime::DeadLetter]| -> Vec<Record> {
        r.iter().map(|d| d.record.clone()).collect()
    };
    assert_eq!(
        multiset(&recs(&a.dead_letters)),
        multiset(&recs(&b.dead_letters))
    );
    assert_eq!(multiset(&a.outputs), multiset(&b.outputs));
}

/// Code that knows only "something that runs a batch" reaches the
/// fault APIs through `FnOnce` alone: the engine's batch report, its
/// streaming handle and the interpreter fed one record at a time keep
/// the same survivors and divert the same records.
#[test]
fn engine_generic_code_reaches_fault_apis_through_the_traits() {
    type Run = (Vec<Record>, Vec<DeadLetter>);
    fn survivors(run: impl FnOnce(Vec<Record>) -> Run, batch: Vec<Record>) -> [Vec<String>; 2] {
        let (outs, dead) = run(batch);
        let dead: Vec<Record> = dead.into_iter().map(|d| d.record).collect();
        [multiset(&outs), multiset(&dead)]
    }
    let spec = FaultSpec::errors(0x0dead, 3, u32::MAX);
    let batch = inputs(30);
    let (doomed, healthy) = partition(spec, &batch);
    let healthy = Interp::new(&NetSpec::Box(inc_box()))
        .run_batch(healthy)
        .unwrap();
    let want = [multiset(&healthy.outputs), multiset(&doomed)];
    let net = || NetSpec::Box(chaos(&inc_box(), spec));
    let cfg = EngineConfig {
        policy: FailurePolicy::DeadLetter,
        ..EngineConfig::default()
    };

    let reported = |batch| {
        let report = SchedNet::with_config(net(), cfg)
            .run_batch_report(batch)
            .unwrap();
        (report.outputs, report.dead_letters)
    };
    let streamed = |batch| {
        let sched = SchedNet::with_config(net(), cfg);
        let h = sched.start();
        h.send_all(batch).unwrap();
        h.close_input();
        let outs: Vec<Record> = std::iter::from_fn(|| h.recv()).collect();
        let dead: Vec<DeadLetter> = std::iter::from_fn(|| h.try_recv_dead_letter()).collect();
        h.finish().unwrap();
        (outs, dead)
    };
    let fed = |batch: Vec<Record>| {
        let mut interp = Interp::new(&net()).with_policy(FailurePolicy::DeadLetter);
        let mut outs = Vec::new();
        for rec in batch {
            outs.extend(interp.feed(rec).unwrap());
        }
        (outs, interp.dead_letters().to_vec())
    };
    assert_eq!(survivors(reported, batch.clone()), want, "batch report");
    assert_eq!(survivors(streamed, batch.clone()), want, "streaming handle");
    assert_eq!(survivors(fed, batch), want, "interpreter, fed");
}
