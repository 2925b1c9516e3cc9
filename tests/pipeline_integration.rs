//! Cross-crate integration: the full ray-tracing pipelines (scheduled
//! engine, simulated cluster, and reference interpreter) produce
//! pictures byte-identical to the sequential Algorithm 1 render, under
//! every variant and under adversarial arrival orders in the merger.

use snet_apps::{
    image_slot, input_record, merger_net, raytracing_net, run_snet_cluster, run_snet_local,
    ChunkData, NetVariant, PicData, Schedule, SnetConfig, Workload,
};
use snet_core::{Record, SnetError, Value};
use snet_dist::OverheadModel;
use snet_raytracer::{split_rows, Chunk, Image, ScenePreset};
use snet_runtime::{EngineConfig, Interp, SchedNet};
use snet_simnet::ClusterSpec;

fn workload() -> Workload {
    Workload {
        preset: ScenePreset::Clustered,
        spheres: 35,
        seed: 77,
        width: 80,
        height: 80,
    }
}

/// One engine entry point under test.
type EngineFn = fn(&Workload, &SnetConfig) -> Result<Image, SnetError>;

fn run_local(wl: &Workload, cfg: &SnetConfig) -> Result<Image, SnetError> {
    run_snet_local(wl, cfg, EngineConfig::default()).map(|(image, _)| image)
}

fn run_simulated(wl: &Workload, cfg: &SnetConfig) -> Result<Image, SnetError> {
    let cluster = ClusterSpec::paper_testbed(cfg.nodes);
    run_snet_cluster(wl, cfg, cluster, OverheadModel::default()).map(|out| out.image)
}

/// The two transports the component step runs on, behind one function
/// shape: the scheduled engine's tasks and the simulated cluster.
fn engines() -> [(&'static str, EngineFn); 2] {
    [
        ("sched", run_local as EngineFn),
        ("sim", run_simulated as EngineFn),
    ]
}

#[test]
fn static_pipeline_on_both_engines_is_exact() {
    let wl = workload();
    let reference = wl.reference_image();
    for (engine, run) in engines() {
        for tasks in [1u32, 3, 8] {
            let cfg = SnetConfig {
                variant: NetVariant::Static,
                nodes: 4,
                tasks,
                tokens: tasks,
                schedule: Schedule::Block,
            };
            let img = run(&wl, &cfg).expect("pipeline completes");
            assert_eq!(img, reference, "{engine}, tasks = {tasks}");
        }
    }
}

#[test]
fn dynamic_pipeline_on_both_engines_is_exact() {
    let wl = workload();
    let reference = wl.reference_image();
    for (engine, run) in engines() {
        for (tasks, tokens) in [(8u32, 2u32), (8, 8), (10, 3)] {
            let cfg = SnetConfig {
                variant: NetVariant::Dynamic,
                nodes: 4,
                tasks,
                tokens,
                schedule: Schedule::Block,
            };
            let img = run(&wl, &cfg).expect("pipeline completes");
            assert_eq!(
                img, reference,
                "{engine}, tasks = {tasks}, tokens = {tokens}"
            );
        }
    }
}

#[test]
fn factoring_schedule_end_to_end() {
    let wl = workload();
    let reference = wl.reference_image();
    let cfg = SnetConfig {
        variant: NetVariant::Static,
        nodes: 4,
        tasks: 8,
        tokens: 8,
        schedule: Schedule::paper_factoring(),
    };
    for (engine, run) in engines() {
        let img = run(&wl, &cfg).expect("pipeline completes");
        assert_eq!(img, reference, "{engine}");
    }
}

/// Streams the raytracing input through the handle API (send → close →
/// drain → finish) and returns the picture deposited in `slot`.
fn render_streamed(
    engine: &SchedNet,
    wl: &Workload,
    cfg: &SnetConfig,
    slot: &snet_apps::ImageSlot,
) -> Image {
    let handle = engine.start();
    handle.send(input_record(wl, cfg)).expect("input accepted");
    handle.close_input();
    let mut stray = 0usize;
    while handle.recv().is_some() {
        stray += 1;
    }
    assert_eq!(stray, 0, "genImg terminates the stream");
    handle.finish().expect("pipeline completes");
    slot.lock().take().expect("genImg filled the slot")
}

#[test]
fn streaming_handle_renders_exact() {
    // The streaming path must produce the byte-exact picture on the
    // full application net.
    let wl = workload();
    let reference = wl.reference_image();
    let cfg = SnetConfig {
        variant: NetVariant::Dynamic,
        nodes: 4,
        tasks: 8,
        tokens: 4,
        schedule: Schedule::Block,
    };
    let slot = image_slot();
    let engine = SchedNet::new(raytracing_net(cfg.variant, slot.clone(), None));
    // Two streamed renders on one engine: the persistent pool and a
    // fresh task graph per run must not leak state between them.
    for round in 0..2 {
        let img = render_streamed(&engine, &wl, &cfg, &slot);
        assert_eq!(img, reference, "streaming render, round {round}");
    }
}

#[test]
fn reference_interpreter_runs_the_whole_static_pipeline() {
    // The deterministic oracle executes the complete application net —
    // stars, synchrocells, splits and all.
    let wl = workload();
    let reference = wl.reference_image();
    let slot = image_slot();
    let net = raytracing_net(NetVariant::Static, slot.clone(), None);
    let cfg = SnetConfig {
        variant: NetVariant::Static,
        nodes: 3,
        tasks: 6,
        tokens: 6,
        schedule: Schedule::Block,
    };
    let result = Interp::new(&net)
        .run_batch(vec![input_record(&wl, &cfg)])
        .expect("interpreter completes");
    assert!(result.outputs.is_empty(), "genImg ends the stream");
    assert_eq!(result.stranded, 0, "merger must leave no stranded records");
    let img = slot.lock().take().expect("genImg filled the slot");
    assert_eq!(img, reference);
}

/// Renders chunks directly and feeds them to the merger in a hostile
/// order: the <fst> chunk last, the rest reversed.
#[test]
fn merger_tolerates_adversarial_arrival_order() {
    let wl = workload();
    let reference = wl.reference_image();
    let (scene, bvh) = wl.scene();
    let tasks = 6u32;
    let mut records: Vec<Record> = split_rows(wl.height, tasks)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let mut c = snet_raytracer::Counters::default();
            let chunk =
                snet_raytracer::render_section(&scene, &bvh, wl.width, wl.height, s, &mut c);
            let mut rec = Record::new()
                .with_field(
                    "chunk",
                    Value::data(ChunkData {
                        chunk,
                        img_height: wl.height,
                    }),
                )
                .with_tag("tasks", tasks as i64);
            if i == 0 {
                rec.set_tag("fst", 1);
            }
            rec
        })
        .collect();
    records.reverse(); // <fst> arrives last
    let outs = SchedNet::new(merger_net())
        .run_batch(records)
        .expect("merger completes");
    assert_eq!(outs.len(), 1, "exactly one assembled picture");
    let pic: &PicData = outs[0]
        .field("pic")
        .and_then(|v| v.downcast_ref())
        .expect("pic payload");
    assert_eq!(pic.0, reference);
    assert_eq!(outs[0].tag("cnt"), Some(tasks as i64), "all chunks counted");
}

/// Duplicate-width chunks, single chunk, and a one-task merger.
#[test]
fn merger_single_chunk_degenerate_case() {
    let img = Image::new(16, 16);
    let chunk = Chunk {
        y0: 0,
        width: 16,
        pixels: img.pixels.clone(),
    };
    let rec = Record::new()
        .with_field(
            "chunk",
            Value::data(ChunkData {
                chunk,
                img_height: 16,
            }),
        )
        .with_tag("tasks", 1)
        .with_tag("fst", 1);
    let outs = SchedNet::new(merger_net())
        .run_batch(vec![rec])
        .expect("merger completes");
    assert_eq!(outs.len(), 1);
    let pic: &PicData = outs[0].field("pic").and_then(|v| v.downcast_ref()).unwrap();
    assert_eq!(pic.0, img);
}

#[test]
fn sched_engine_matches_interpreter_on_the_real_merger() {
    // The confluence property, exercised on the actual application
    // net rather than synthetic nets: same output multiset from the
    // scheduled engine and the oracle.
    let wl = workload();
    let (scene, bvh) = wl.scene();
    let tasks = 5u32;
    let records: Vec<Record> = split_rows(wl.height, tasks)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let mut c = snet_raytracer::Counters::default();
            let chunk =
                snet_raytracer::render_section(&scene, &bvh, wl.width, wl.height, s, &mut c);
            let mut rec = Record::new()
                .with_field(
                    "chunk",
                    Value::data(ChunkData {
                        chunk,
                        img_height: wl.height,
                    }),
                )
                .with_tag("tasks", tasks as i64);
            if i == 0 {
                rec.set_tag("fst", 1);
            }
            rec
        })
        .collect();
    let from_interp = Interp::new(&merger_net())
        .run_batch(records.clone())
        .expect("interp completes");
    let pic_oracle: &PicData = from_interp.outputs[0]
        .field("pic")
        .and_then(|v| v.downcast_ref())
        .unwrap();

    let from_sched = SchedNet::new(merger_net())
        .run_batch(records)
        .expect("scheduled engine completes");
    assert_eq!(from_sched.len(), from_interp.outputs.len());
    let pic_s: &PicData = from_sched[0]
        .field("pic")
        .and_then(|v| v.downcast_ref())
        .unwrap();
    assert_eq!(
        pic_s.0, pic_oracle.0,
        "scheduled engine agrees with the oracle"
    );
}

#[test]
fn many_sections_under_tight_backpressure() {
    // Soak: 32 sections through the full static net with every channel
    // capacity and mailbox high-water mark forced to their minimum —
    // maximal backpressure churn across hundreds of component tasks must
    // still produce the exact image.
    let wl = workload();
    let reference = wl.reference_image();
    let slot = image_slot();
    let net = raytracing_net(NetVariant::Static, slot.clone(), None);
    let cfg = SnetConfig {
        variant: NetVariant::Static,
        nodes: 4,
        tasks: 32,
        tokens: 32,
        schedule: Schedule::Block,
    };
    let engine = SchedNet::with_config(
        net,
        EngineConfig {
            channel_capacity: 1,
            ..EngineConfig::default()
        },
    );
    let outs = engine.run_batch(vec![input_record(&wl, &cfg)]).unwrap();
    assert!(outs.is_empty());
    let img = slot.lock().take().expect("picture produced");
    assert_eq!(img, reference);
}

#[test]
fn repeated_runs_share_nothing() {
    // The same net re-instantiated 4 times per engine: state
    // (synchrocells, star replicas, counters) must never leak between
    // runs.
    let wl = workload();
    let reference = wl.reference_image();
    let cfg = SnetConfig {
        variant: NetVariant::Dynamic,
        nodes: 2,
        tasks: 6,
        tokens: 3,
        schedule: Schedule::Block,
    };
    for (engine, run) in engines() {
        for round in 0..4 {
            let img = run(&wl, &cfg).unwrap();
            assert_eq!(img, reference, "{engine} round {round}");
        }
    }
}

#[test]
fn sched_engine_scales_workers_without_changing_the_picture() {
    // Worker-pool size is a pure performance knob: 1, 2, and 8 workers
    // must all render the exact image.
    let wl = workload();
    let reference = wl.reference_image();
    let cfg = SnetConfig {
        variant: NetVariant::Static,
        nodes: 4,
        tasks: 8,
        tokens: 8,
        schedule: Schedule::Block,
    };
    for workers in [1usize, 2, 8] {
        let slot = image_slot();
        let net = SchedNet::with_config(
            raytracing_net(NetVariant::Static, slot.clone(), None),
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
        );
        let outs = net.run_batch(vec![input_record(&wl, &cfg)]).unwrap();
        assert!(outs.is_empty());
        let img = slot.lock().take().expect("picture produced");
        assert_eq!(img, reference, "workers = {workers}");
    }
}
