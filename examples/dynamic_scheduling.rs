//! Watch Fig 4's token-based dynamic scheduling at work.
//!
//! First runs the dynamic (token-scheduled) raytracing net *locally*,
//! streamed through the unified handle API on both real engines — the
//! thread-per-component engine and the persistent-pool scheduled
//! engine — to show the same coordination program executing live.
//! Then sweeps the token count for a fixed task count on the simulated
//! 8-node testbed and prints the resulting virtual runtimes — a single
//! row of Fig 5 — together with the synchrocell statistics that reveal
//! the mechanism: every tokenless section must win a token in a
//! `[| {sect}, {<node>} |]` synchrocell before it may run, and leftover
//! tokens strand in unfired cells when the stream ends.
//!
//! ```text
//! cargo run --release --example dynamic_scheduling -- [tasks] [size]
//! ```

use snet_apps::{
    image_slot, input_record, raytracing_net, run_snet_cluster, NetVariant, Schedule, SnetConfig,
    Workload,
};
use snet_dist::OverheadModel;
use snet_raytracer::ScenePreset;
use snet_runtime::{Engine, Net, Network, SchedNet};
use snet_simnet::ClusterSpec;

const NODES: usize = 8;

/// Streams the single input record of the raytracing net through any
/// engine and returns the wall time: the net's `genImg` sink consumes
/// the stream (the picture lands in the image slot), so the drain loop
/// simply waits for end-of-stream.
fn stream_locally<E: Engine>(
    engine: &Network<E>,
    wl: &Workload,
    cfg: &SnetConfig,
) -> std::time::Duration {
    let t0 = std::time::Instant::now();
    let handle = engine.start();
    handle.send(input_record(wl, cfg)).expect("input accepted");
    handle.close_input();
    while handle.recv().is_some() {}
    handle.finish().expect("render completes");
    t0.elapsed()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let tasks: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let size: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);

    // ---- Local streaming execution, both engines, unified API. ----
    let local_wl = Workload {
        preset: ScenePreset::Clustered,
        spheres: 35,
        seed: 2010,
        width: 96,
        height: 96,
    };
    let local_cfg = SnetConfig {
        variant: NetVariant::Dynamic,
        nodes: 4,
        tasks: 8,
        tokens: 4,
        schedule: Schedule::Block,
    };
    let reference_small = local_wl.reference_image();
    println!(
        "dynamic net streamed locally ({}x{} probe render, 8 tasks / 4 tokens):",
        96, 96
    );
    {
        let slot = image_slot();
        let threaded = Net::new(raytracing_net(NetVariant::Dynamic, slot.clone(), None));
        let took = stream_locally(&threaded, &local_wl, &local_cfg);
        let img = slot.lock().take().expect("picture produced");
        assert_eq!(img, reference_small, "threaded engine must render exactly");
        println!(
            "  {:>8}: {took:>10.3?} (thread per component)",
            threaded.name()
        );
    }
    {
        let slot = image_slot();
        let sched = SchedNet::new(raytracing_net(NetVariant::Dynamic, slot.clone(), None));
        let took = stream_locally(&sched, &local_wl, &local_cfg);
        let img = slot.lock().take().expect("picture produced");
        assert_eq!(img, reference_small, "scheduled engine must render exactly");
        println!(
            "  {:>8}: {took:>10.3?} (persistent worker pool)",
            sched.name()
        );
    }
    println!();

    let wl = Workload {
        preset: ScenePreset::Clustered,
        spheres: 150,
        seed: 2010,
        width: size,
        height: size,
    };
    let reference = wl.reference_image();
    println!("dynamic scheduling on {NODES} dual-CPU nodes, {tasks} tasks, {size}x{size} image");
    println!(
        "{:>7} {:>12} {:>12} {:>14} {:>15}",
        "tokens", "runtime (s)", "sync fires", "tokens stranded", "star unfoldings"
    );

    let mut best = (0u32, f64::INFINITY);
    for tokens in [4u32, 8, 16, 32, 48, 64] {
        let tokens = tokens.min(tasks);
        let cfg = SnetConfig {
            variant: NetVariant::Dynamic,
            nodes: NODES,
            tasks,
            tokens,
            schedule: Schedule::Block,
        };
        let out = run_snet_cluster(
            &wl,
            &cfg,
            ClusterSpec::paper_testbed(NODES),
            OverheadModel::default(),
        )
        .expect("dynamic run completes");
        assert_eq!(out.image, reference, "picture must stay exact");
        println!(
            "{tokens:>7} {:>12.3} {:>12} {:>14} {:>15}",
            out.makespan_secs,
            out.stats.sync_fires,
            out.stats.sync_stranded,
            out.stats.star_unfoldings,
        );
        if out.makespan_secs < best.1 {
            best = (tokens, out.makespan_secs);
        }
        if tokens == tasks {
            break; // more tokens than tasks changes nothing
        }
    }
    println!(
        "\nbest: {} tokens ({:.3} s) — the paper finds 16 (two per node, one per CPU)",
        best.0, best.1
    );
}
