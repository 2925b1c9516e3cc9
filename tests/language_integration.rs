//! Cross-crate integration: S-Net source text → compiled topology →
//! execution, on the paper's own programs.

use snet_apps::{image_slot, input_record, registry, NetVariant, Schedule, SnetConfig, Workload};
use snet_core::boxdef::{BoxOutput, Work};
use snet_core::{Record, Value};
use snet_lang::{compile, BoxRegistry};
use snet_raytracer::ScenePreset;
use snet_runtime::{Interp, SchedNet};

fn workload() -> Workload {
    Workload {
        preset: ScenePreset::Balanced,
        spheres: 25,
        seed: 5,
        width: 64,
        height: 64,
    }
}

#[test]
fn fig2_source_compiles_and_renders() {
    // The paper's own program text (extended with the scheduling tags),
    // compiled against the real boxes and executed on the scheduled
    // engine.
    let wl = workload();
    let reference = wl.reference_image();
    let slot = image_slot();
    let net = compile(
        snet_apps::RAYTRACING_STAT_SOURCE,
        &registry(slot.clone(), None),
    )
    .expect("the paper's program compiles");
    let cfg = SnetConfig {
        variant: NetVariant::Static,
        nodes: 2,
        tasks: 4,
        tokens: 4,
        schedule: Schedule::Block,
    };
    let outs = SchedNet::new(net)
        .run_batch(vec![input_record(&wl, &cfg)])
        .unwrap();
    assert!(outs.is_empty(), "genImg terminates the stream");
    let img = slot.lock().take().expect("picture produced");
    assert_eq!(img, reference);
}

#[test]
fn fig3_merger_text_compiles_against_prebuilt_subnet() {
    // `net merger (sig);` with no body resolves to the programmatic
    // Fig 3 net from the registry — the paper's mix of textual and
    // host-language network construction.
    let slot = image_slot();
    let reg = registry(slot, None);
    let src = r#"
        net merger ( (chunk, <fst>) -> (pic), (chunk) -> (pic) );
        connect merger
    "#;
    let net = compile(src, &reg).expect("compiles");
    assert!(net.component_count() >= 4, "the merger subnet was inlined");
}

#[test]
fn textual_star_with_guard_runs_on_both_engines() {
    let mut reg = BoxRegistry::new();
    reg.register("bump", |r: &Record| {
        let x = r.field("acc").and_then(|v| v.as_int()).unwrap_or(0);
        Ok(BoxOutput::one(
            Record::new().with_field("acc", Value::Int(x + 3)),
            Work::ops(1),
        ))
    });
    let src = r#"
        box bump ((acc) -> (acc));
        connect ( bump .. [ {<i>} -> {<i = i + 1>} ] ) * {<i> >= <stop>}
    "#;
    let net = compile(src, &reg).unwrap();
    let inputs = vec![Record::new()
        .with_field("acc", Value::Int(0))
        .with_tag("i", 0)
        .with_tag("stop", 4)];
    let a = SchedNet::new(net.clone())
        .run_batch(inputs.clone())
        .unwrap();
    let b = Interp::new(&net).run_batch(inputs).unwrap();
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].field("acc").unwrap().as_int(), Some(12)); // 4 bumps
    assert_eq!(a[0].tag("i"), Some(4));
    assert_eq!(b.outputs, a, "both engines agree");
}

#[test]
fn subtyping_routes_records_in_compiled_parallel() {
    // §III's `box foo ((a,<b>) -> …)` subtyping example as running
    // code: records with extra labels still match, and the more
    // specific branch wins.
    let mut reg = BoxRegistry::new();
    reg.register("narrow", |_r: &Record| {
        Ok(BoxOutput::one(
            Record::new().with_field("via", Value::from("narrow")),
            Work::ZERO,
        ))
    });
    reg.register("wide", |_r: &Record| {
        Ok(BoxOutput::one(
            Record::new().with_field("via", Value::from("wide")),
            Work::ZERO,
        ))
    });
    let src = r#"
        box narrow ((a) -> (via));
        box wide ((a, c) -> (via));
        connect ( wide | narrow )
    "#;
    let net = compile(src, &reg).unwrap();
    let outs = SchedNet::new(net)
        .run_batch(vec![
            Record::new().with_field("a", Value::Int(1)),
            Record::new()
                .with_field("a", Value::Int(2))
                .with_field("c", Value::Int(3)),
        ])
        .unwrap();
    let mut vias: Vec<&str> = outs
        .iter()
        .map(|r| r.field("via").and_then(|v| v.as_str()).unwrap())
        .collect();
    vias.sort_unstable();
    assert_eq!(vias, vec!["narrow", "wide"]);
}

#[test]
fn flow_inheritance_survives_compiled_pipelines() {
    // "a chain of boxes operating on a message can process a certain
    // subset of it each, while being oblivious of … the rest" (§I.B).
    let mut reg = BoxRegistry::new();
    reg.register("stage_a", |r: &Record| {
        let x = r.field("a").and_then(|v| v.as_int()).unwrap_or(0);
        Ok(BoxOutput::one(
            Record::new().with_field("b", Value::Int(x * 10)),
            Work::ZERO,
        ))
    });
    reg.register("stage_b", |r: &Record| {
        let x = r.field("b").and_then(|v| v.as_int()).unwrap_or(0);
        Ok(BoxOutput::one(
            Record::new().with_field("c", Value::Int(x + 1)),
            Work::ZERO,
        ))
    });
    let src = r#"
        box stage_a ((a) -> (b));
        box stage_b ((b) -> (c));
        connect stage_a .. stage_b
    "#;
    let net = compile(src, &reg).unwrap();
    let outs = SchedNet::new(net)
        .run_batch(vec![Record::new()
            .with_field("a", Value::Int(4))
            .with_field("payload", Value::from("untouched"))
            .with_tag("session", 9)])
        .unwrap();
    let out = &outs[0];
    assert_eq!(out.field("c").unwrap().as_int(), Some(41));
    // Labels neither stage mentioned travelled through both.
    assert_eq!(
        out.field("payload").and_then(|v| v.as_str()),
        Some("untouched")
    );
    assert_eq!(out.tag("session"), Some(9));
    assert!(
        !out.has_field("a") && !out.has_field("b"),
        "consumed along the way"
    );
}

#[test]
fn parse_errors_carry_positions() {
    let err = compile("connect ( a .. ", &BoxRegistry::new()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("parse error"), "{msg}");
}
