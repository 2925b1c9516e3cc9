//! The two ray-tracing workloads: the paper's Fig 4 dynamic net on the
//! scheduled engine, once as a large render where box work dominates
//! (`raytrace`) and once as a burst of tiny jobs where the per-run
//! machinery does (`forkjoin_burst`).

use crate::gen::SplitMix64;
use snet_apps::data::{field, SceneData};
use snet_apps::{image_slot, raytracing_net, ImageSlot, NetVariant, Schedule};
use snet_core::{NetSpec, Record};
use snet_raytracer::{
    render_section, Bvh, Chunk, Counters, Image, Scene, ScenePreset, Section, Shape,
};
use snet_runtime::{EngineConfig, SchedNet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Size and coordination parameters of a ray-tracing workload.
#[derive(Clone, Copy, Debug)]
pub struct RenderShape {
    pub side: u32,
    pub spheres: usize,
    pub tasks: u32,
    pub tokens: u32,
}

/// Every run renders a member of one scene family: the clustered preset
/// at this seed, which `--seed` then perturbs.
const FAMILY_SEED: u64 = 2010;

/// The scene for `seed`: the family scene with every sphere nudged (up
/// to 0.05 units per axis, 2 % in radius) and recoloured. The seed
/// changes the picture, and with it every pixel the checks compare, but
/// hardly the amount of work: independently seeded preset scenes differ
/// by 20–25 % in ray-tracing cost, which would drown any change to the
/// engines in scene-to-scene spread.
pub fn scene_for(shape: RenderShape, seed: u64) -> Scene {
    let mut scene = Scene::preset(ScenePreset::Clustered, shape.spheres, FAMILY_SEED);
    let mut rng = SplitMix64::new(seed);
    let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    for (s, m) in scene.shapes.iter_mut().zip(&mut scene.materials) {
        if let Shape::Sphere { center, radius } = s {
            center.x += 0.1 * unit() - 0.05;
            center.y += 0.1 * unit() - 0.05;
            center.z += 0.1 * unit() - 0.05;
            *radius *= 0.98 + 0.04 * unit();
            m.diffuse.x = 0.2 + 0.8 * unit();
            m.diffuse.y = 0.2 + 0.8 * unit();
            m.diffuse.z = 0.2 + 0.8 * unit();
        }
    }
    scene
}

/// A scene with its BVH, ready to be rendered by any of the three
/// renderers (sequential reference, scheduled engine, plain threads).
pub struct Job {
    pub shape: RenderShape,
    pub scene: Arc<Scene>,
    pub bvh: Arc<Bvh>,
    /// The block-scheduled sections the splitter will cut.
    pub sections: Vec<Section>,
}

impl Job {
    pub fn new(shape: RenderShape, seed: u64) -> Job {
        let scene = Arc::new(scene_for(shape, seed));
        let bvh = Arc::new(scene.build_bvh().0);
        Job {
            shape,
            scene,
            bvh,
            sections: Schedule::Block.sections(shape.side, shape.tasks),
        }
    }

    /// The sequential Algorithm 1 render every other render must equal
    /// byte for byte, with its exact work counters.
    pub fn reference(&self) -> (Image, Counters) {
        let mut c = Counters::default();
        let side = self.shape.side;
        let whole = Section::new(0, side);
        let chunk = render_section(&self.scene, &self.bvh, side, side, whole, &mut c);
        (Image::assemble(side, side, &[chunk]), c)
    }

    /// The one record that triggers a render on the Fig 4 net, as
    /// `snet_apps::input_record` builds it for a preset scene.
    pub fn input(&self, nodes: usize) -> Record {
        let scene = field(SceneData {
            scene: Arc::clone(&self.scene),
            bvh: Arc::clone(&self.bvh),
            width: self.shape.side,
            height: self.shape.side,
        });
        Record::new()
            .with_field("scene", scene)
            .with_tag("nodes", nodes as i64)
            .with_tag("tasks", self.shape.tasks as i64)
            .with_tag("tokens", self.shape.tokens.min(self.shape.tasks) as i64)
            .with_tag("sched", Schedule::Block.to_tag())
            .with_tag("cpus", 1)
    }

    /// Renders on `threads` plain workers pulling section indices from
    /// a shared counter — the hand-written stand-in for the paper's
    /// C/MPI renderer: no records, no scheduler. Also returns each
    /// section's render time in seconds.
    pub fn render_plain_threads(&self, threads: usize) -> (Image, Vec<f64>) {
        let side = self.shape.side;
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, Chunk, f64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            // Relaxed: the counter hands out indices
                            // and publishes nothing else.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&section) = self.sections.get(i) else {
                                return mine;
                            };
                            let t0 = std::time::Instant::now();
                            let mut c = Counters::default();
                            let chunk =
                                render_section(&self.scene, &self.bvh, side, side, section, &mut c);
                            mine.push((i, chunk, t0.elapsed().as_secs_f64()));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("plain render worker panicked"))
                .collect()
        });
        done.sort_unstable_by_key(|d| d.0);
        let times = done.iter().map(|d| d.2).collect();
        let chunks: Vec<Chunk> = done.into_iter().map(|d| d.1).collect();
        (Image::assemble(side, side, &chunks), times)
    }
}

/// The Fig 4 dynamic net with the slot `genImg` leaves the picture in.
pub fn fig4_net() -> (NetSpec, ImageSlot) {
    let slot = image_slot();
    let spec = raytracing_net(NetVariant::Dynamic, Arc::clone(&slot), None);
    (spec, slot)
}

/// The Fig 4 net on a scheduled engine.
pub struct RenderNet {
    pub net: SchedNet,
    pub slot: ImageSlot,
}

impl RenderNet {
    pub fn build(config: EngineConfig) -> RenderNet {
        let (spec, slot) = fig4_net();
        RenderNet {
            net: SchedNet::with_config(spec, config),
            slot,
        }
    }

    /// Takes the picture the last job left in the slot; `Err` when the
    /// slot is empty.
    pub fn take_image(&self) -> Result<Image, String> {
        self.slot
            .lock()
            .take()
            .ok_or_else(|| "genImg never produced the picture".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: RenderShape = RenderShape {
        side: 16,
        spheres: 8,
        tasks: 16,
        tokens: 8,
    };

    #[test]
    fn engine_and_plain_threads_reproduce_the_sequential_image() {
        let job = Job::new(TINY, 2010);
        let (reference, counters) = job.reference();
        assert!(counters.primary_rays == 256);
        let rn = RenderNet::build(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let input = job.input(2);
        for _ in 0..3 {
            assert!(rn.net.run_batch(vec![input.clone()]).unwrap().is_empty());
            assert_eq!(rn.take_image().unwrap(), reference);
        }
        assert!(rn.take_image().is_err(), "the slot is emptied by each take");
        let (plain, times) = job.render_plain_threads(2);
        assert_eq!(plain, reference);
        assert_eq!(times.len(), 16);
    }

    #[test]
    fn the_input_record_is_the_one_snet_apps_builds() {
        let job = Job::new(TINY, 1);
        let theirs = snet_apps::input_record(
            &snet_apps::Workload::small(),
            &snet_apps::SnetConfig {
                variant: NetVariant::Dynamic,
                nodes: 3,
                tasks: TINY.tasks,
                tokens: TINY.tokens,
                schedule: Schedule::Block,
            },
        );
        let ours = job.input(3);
        assert_eq!(ours.variant(), theirs.variant());
        assert_eq!(
            ours.tags().collect::<Vec<_>>(),
            theirs.tags().collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_seed_changes_the_picture_but_hardly_the_work() {
        let shape = RenderShape { side: 48, ..TINY };
        let (img_a, work_a) = Job::new(shape, 1).reference();
        let (img_b, work_b) = Job::new(shape, 2).reference();
        assert_ne!(img_a, img_b);
        assert_ne!(work_a, work_b);
        let (a, b) = (work_a.ops() as f64, work_b.ops() as f64);
        assert!((a - b).abs() / a < 0.05, "ops {a} vs {b}");
        assert_eq!(
            Job::new(shape, 1).reference().0,
            img_a,
            "same seed, same scene"
        );
    }
}
