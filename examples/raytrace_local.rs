//! Render the paper's case study on the local scheduled engine.
//!
//! Runs the full Fig 2 network — `splitter .. solver!@<node> ..
//! merger .. genImg` — on this machine's worker pool (real
//! parallelism, not simulation), verifies the picture against the sequential
//! Algorithm 1 render, and writes it next to the target directory.
//!
//! ```text
//! cargo run --release --example raytrace_local -- [size] [tasks]
//! ```

use snet_apps::{run_snet_local, NetVariant, Schedule, SnetConfig, Workload};
use snet_raytracer::ScenePreset;
use snet_runtime::EngineConfig;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let size: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let tasks: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let wl = Workload {
        preset: ScenePreset::Clustered,
        spheres: 120,
        seed: 2010,
        width: size,
        height: size,
    };
    let cfg = SnetConfig {
        variant: NetVariant::Static,
        // Locally, placement tags pick solver *instances* (split
        // replicas, each a task on the pool), not machines — more
        // "nodes" means more sections rendered side by side.
        nodes: std::thread::available_parallelism().map_or(4, |n| n.get()),
        tasks,
        tokens: tasks,
        schedule: Schedule::Block,
    };

    println!(
        "rendering {size}x{size} ({tasks} sections over {} solver instances)…",
        cfg.nodes
    );
    let t0 = Instant::now();
    let (image, _) =
        run_snet_local(&wl, &cfg, EngineConfig::default()).expect("the network runs to completion");
    let parallel_time = t0.elapsed();

    let t1 = Instant::now();
    let reference = wl.reference_image();
    let sequential_time = t1.elapsed();

    assert_eq!(
        image, reference,
        "coordinated render must be byte-identical"
    );
    let out = std::path::Path::new("target").join("raytrace_local.ppm");
    image.write_ppm(&out).expect("write ppm");
    println!(
        "ok: image matches the sequential render (checksum {:#018x})",
        image.checksum()
    );
    println!(
        "S-Net scheduled: {parallel_time:?}   sequential: {sequential_time:?}   -> {}",
        out.display()
    );
}
