//! Experiment drivers: run the paper's network variants on the
//! simulated cluster (or the local scheduled engine) and report the
//! numbers the evaluation section plots.

use crate::boxes::{image_slot, ImageSlot};
use crate::data::{field, SceneData};
use crate::nets::{raytracing_net, NetVariant};
use crate::schedule::Schedule;
use snet_core::{Record, SnetError, Value};
use snet_dist::{run_on_cluster, OverheadModel, StatsSnapshot};
use snet_raytracer::{Bvh, Counters, Image, Scene, ScenePreset};
use snet_runtime::{DeadLetter, EngineConfig, SchedNet};
use snet_simnet::ClusterSpec;
use std::sync::Arc;

/// The rendering workload shared by every variant of an experiment.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Scene family (the imbalance knob).
    pub preset: ScenePreset,
    /// Number of procedural spheres.
    pub spheres: usize,
    /// Scene seed.
    pub seed: u64,
    /// Image width.
    pub width: u32,
    /// Image height.
    pub height: u32,
}

impl Workload {
    /// A laptop-fast workload for tests and examples.
    pub fn small() -> Workload {
        Workload {
            preset: ScenePreset::Clustered,
            spheres: 40,
            seed: 2010,
            width: 96,
            height: 96,
        }
    }

    /// The default benchmark workload (resolution-scaled stand-in for
    /// the paper's 3000×3000 scene; pass `--full` to the figure
    /// binaries for the original size).
    pub fn benchmark(width: u32, height: u32, preset: ScenePreset) -> Workload {
        Workload {
            preset,
            spheres: 180,
            seed: 2010,
            width,
            height,
        }
    }

    /// Builds the scene and its BVH once (shared by reference renders
    /// and record construction).
    pub fn scene(&self) -> (Arc<Scene>, Arc<Bvh>) {
        let scene = Arc::new(Scene::preset(self.preset, self.spheres, self.seed));
        let (bvh, _) = scene.build_bvh();
        (scene, Arc::new(bvh))
    }

    /// The `scene` field value for the initial record.
    pub fn scene_value(&self) -> Value {
        let (scene, bvh) = self.scene();
        field(SceneData {
            scene,
            bvh,
            width: self.width,
            height: self.height,
        })
    }

    /// The sequential reference render (Algorithm 1) every parallel
    /// variant must reproduce byte-for-byte.
    pub fn reference_image(&self) -> Image {
        let (scene, _) = self.scene();
        let mut c = Counters::default();
        snet_raytracer::render_full(&scene, self.width, self.height, &mut c)
    }
}

/// Coordination parameters of one S-Net run.
#[derive(Clone, Copy, Debug)]
pub struct SnetConfig {
    /// Which solver segment to use.
    pub variant: NetVariant,
    /// Cluster nodes.
    pub nodes: usize,
    /// Sections the splitter creates.
    pub tasks: u32,
    /// Node tokens initially issued (== `tasks` makes the dynamic net
    /// behave statically; ignored by the static variants, which always
    /// tag every section).
    pub tokens: u32,
    /// Section sizing.
    pub schedule: Schedule,
}

impl SnetConfig {
    /// Fig 6's "S-Net Static": one section per node.
    pub fn fig6_static(nodes: usize) -> SnetConfig {
        SnetConfig {
            variant: NetVariant::Static,
            nodes,
            tasks: nodes as u32,
            tokens: nodes as u32,
            schedule: Schedule::Block,
        }
    }

    /// Fig 6's "S-Net Static 2 CPU": two sections per node, one per CPU.
    pub fn fig6_static_2cpu(nodes: usize) -> SnetConfig {
        SnetConfig {
            variant: NetVariant::Static2Cpu,
            nodes,
            tasks: 2 * nodes as u32,
            tokens: 2 * nodes as u32,
            schedule: Schedule::Block,
        }
    }

    /// Fig 6's "S-Net Best Dynamic": `nodes · 8` tasks, `tasks / 2`
    /// tokens, block scheduling (§V).
    pub fn fig6_dynamic(nodes: usize) -> SnetConfig {
        let tasks = 8 * nodes as u32;
        SnetConfig {
            variant: NetVariant::Dynamic,
            nodes,
            tasks,
            tokens: tasks / 2,
            schedule: Schedule::Block,
        }
    }

    fn cpus(&self) -> i64 {
        match self.variant {
            NetVariant::Static2Cpu => 2,
            _ => 1,
        }
    }

    fn effective_tokens(&self) -> u32 {
        match self.variant {
            NetVariant::Dynamic => self.tokens.min(self.tasks),
            // Static splitters tag every section.
            _ => self.tasks,
        }
    }
}

/// Result of one S-Net run.
#[derive(Debug)]
pub struct SnetOutcome {
    /// Virtual runtime in seconds (the y axis of Figs 5 and 6).
    pub makespan_secs: f64,
    /// The rendered picture.
    pub image: Image,
    /// Runtime counters.
    pub stats: StatsSnapshot,
    /// Discrete events processed.
    pub events: u64,
    /// Simulated processes instantiated.
    pub processes: usize,
    /// Per-node CPU busy seconds (idle time = imbalance made visible).
    pub cpu_busy_secs: Vec<f64>,
}

/// The initial record: the whole application is triggered by one
/// record carrying the scene and the coordination tags.
pub fn input_record(wl: &Workload, cfg: &SnetConfig) -> Record {
    Record::new()
        .with_field("scene", wl.scene_value())
        .with_tag("nodes", cfg.nodes as i64)
        .with_tag("tasks", cfg.tasks as i64)
        .with_tag("tokens", cfg.effective_tokens() as i64)
        .with_tag("sched", cfg.schedule.to_tag())
        .with_tag("cpus", cfg.cpus())
}

/// Runs an S-Net variant on the simulated cluster and reports the
/// virtual makespan.
pub fn run_snet_cluster(
    wl: &Workload,
    cfg: &SnetConfig,
    cluster: ClusterSpec,
    overhead: OverheadModel,
) -> Result<SnetOutcome, SnetError> {
    assert!(
        cluster.nodes >= cfg.nodes,
        "config names {} nodes but the cluster has {}",
        cfg.nodes,
        cluster.nodes
    );
    let slot = image_slot();
    let net = raytracing_net(cfg.variant, Arc::clone(&slot), None);
    let result = run_on_cluster(&net, vec![input_record(wl, cfg)], cluster, overhead)?;
    let image = take_picture(&slot)?;
    Ok(SnetOutcome {
        makespan_secs: result.makespan.as_secs_f64(),
        image,
        stats: result.stats,
        events: result.events,
        processes: result.processes,
        cpu_busy_secs: result.cpu_busy_secs,
    })
}

/// The picture `genImg` left in `slot` when the run ended.
fn take_picture(slot: &ImageSlot) -> Result<Image, SnetError> {
    let picture = slot.lock().take();
    picture.ok_or_else(|| SnetError::Engine("genImg never produced the picture".into()))
}

/// Runs an S-Net variant on the local scheduled engine (real
/// parallelism on a work-stealing pool, wall-clock time) under
/// `engine`'s failure policy and deadline, and returns the picture with
/// any records diverted on the way.
pub fn run_snet_local(
    wl: &Workload,
    cfg: &SnetConfig,
    engine: EngineConfig,
) -> Result<(Image, Vec<DeadLetter>), SnetError> {
    let slot = image_slot();
    let net = raytracing_net(cfg.variant, Arc::clone(&slot), None);
    let report =
        SchedNet::with_config(net, engine).run_batch_report(vec![input_record(wl, cfg)])?;
    debug_assert!(report.outputs.is_empty(), "genImg terminates the stream");
    let image = take_picture(&slot)?;
    Ok((image, report.dead_letters))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed(nodes: usize) -> ClusterSpec {
        // The paper's testbed shape, sped up so tests render quickly.
        ClusterSpec {
            cpu_ops_per_sec: 200.0e6,
            ..ClusterSpec::paper_testbed(nodes)
        }
    }

    #[test]
    fn static_cluster_run_reproduces_the_reference_image() {
        let wl = Workload::small();
        let reference = wl.reference_image();
        let out = run_snet_cluster(
            &wl,
            &SnetConfig::fig6_static(4),
            testbed(4),
            OverheadModel::default(),
        )
        .unwrap();
        assert_eq!(out.image, reference, "distributed render must be exact");
        assert!(out.makespan_secs > 0.0);
        assert_eq!(out.stats.split_replicas, 4);
    }

    #[test]
    fn static_2cpu_uses_two_solver_instances_per_node() {
        let wl = Workload::small();
        let reference = wl.reference_image();
        let out = run_snet_cluster(
            &wl,
            &SnetConfig::fig6_static_2cpu(2),
            testbed(2),
            OverheadModel::default(),
        )
        .unwrap();
        assert_eq!(out.image, reference);
        // Outer split: 2 node replicas; inner splits: 2 cpu replicas each.
        assert_eq!(out.stats.split_replicas, 6);
    }

    #[test]
    fn dynamic_cluster_run_reproduces_the_reference_image() {
        let wl = Workload::small();
        let reference = wl.reference_image();
        let out = run_snet_cluster(
            &wl,
            &SnetConfig {
                variant: NetVariant::Dynamic,
                nodes: 3,
                tasks: 9,
                tokens: 3,
                schedule: Schedule::Block,
            },
            testbed(3),
            OverheadModel::default(),
        )
        .unwrap();
        assert_eq!(
            out.image, reference,
            "dynamic scheduling must not corrupt the picture"
        );
        assert!(
            out.stats.sync_fires >= 6,
            "tokenless sections must join tokens"
        );
    }

    #[test]
    fn dynamic_with_factoring_schedule() {
        let wl = Workload::small();
        let reference = wl.reference_image();
        let out = run_snet_cluster(
            &wl,
            &SnetConfig {
                variant: NetVariant::Dynamic,
                nodes: 2,
                tasks: 8,
                tokens: 4,
                schedule: Schedule::paper_factoring(),
            },
            testbed(2),
            OverheadModel::default(),
        )
        .unwrap();
        assert_eq!(out.image, reference);
    }

    fn local(cfg: &SnetConfig, engine: EngineConfig) -> Result<Image, SnetError> {
        let (image, dead) = run_snet_local(&Workload::small(), cfg, engine)?;
        assert!(dead.is_empty());
        Ok(image)
    }

    #[test]
    fn local_sched_run_matches_reference() {
        let img = local(&SnetConfig::fig6_static(2), EngineConfig::default());
        assert_eq!(img.unwrap(), Workload::small().reference_image());
    }

    /// Four workers and a task per box whatever the host's CPU count
    /// (the default pool is one worker on a one-CPU host): the picture
    /// must not depend on which thread renders which section.
    #[test]
    fn local_threaded_run_matches_reference() {
        let threaded = EngineConfig {
            workers: 4,
            fuse: false,
            ..EngineConfig::default()
        };
        let img = local(&SnetConfig::fig6_static(2), threaded);
        assert_eq!(img.unwrap(), Workload::small().reference_image());
    }

    #[test]
    fn local_run_honours_the_engine_config() {
        // Healthy run under DeadLetter: same picture, no diversions.
        let lenient = EngineConfig {
            policy: snet_runtime::FailurePolicy::DeadLetter,
            ..EngineConfig::default()
        };
        let img = local(&SnetConfig::fig6_static(2), lenient);
        assert_eq!(img.unwrap(), Workload::small().reference_image());

        let expired = EngineConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..EngineConfig::default()
        };
        let err = local(&SnetConfig::fig6_static(2), expired);
        assert_eq!(err, Err(SnetError::DeadlineExceeded));
    }

    #[test]
    fn local_dynamic_run_matches_reference() {
        let cfg = SnetConfig {
            variant: NetVariant::Dynamic,
            nodes: 2,
            tasks: 6,
            tokens: 2,
            schedule: Schedule::Block,
        };
        let img = local(&cfg, EngineConfig::default());
        assert_eq!(img.unwrap(), Workload::small().reference_image());
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let wl = Workload::small();
        let cfg = SnetConfig::fig6_dynamic(2);
        let a = run_snet_cluster(&wl, &cfg, testbed(2), OverheadModel::default()).unwrap();
        let b = run_snet_cluster(&wl, &cfg, testbed(2), OverheadModel::default()).unwrap();
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.image, b.image);
    }

    #[test]
    fn tokens_equal_tasks_degenerates_to_static_shape() {
        // §V: "Performance is generally at its worst when the number of
        // tasks equals the number of tokens. In this case all sections
        // are immediately mapped to the nodes and the benefits of
        // dynamic scheduling are lost."
        let wl = Workload::small();
        let all_tokens = run_snet_cluster(
            &wl,
            &SnetConfig {
                variant: NetVariant::Dynamic,
                nodes: 2,
                tasks: 8,
                tokens: 8,
                schedule: Schedule::Block,
            },
            testbed(2),
            OverheadModel::default(),
        )
        .unwrap();
        // Every section was pre-assigned: no section ever waits in the
        // join synchrocell.
        assert_eq!(all_tokens.stats.sync_fires, 7, "only merger joins remain");
    }
}
