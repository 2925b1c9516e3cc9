//! Scenes: camera, lights, shapes, and the procedural presets used by
//! the benchmark figures.
//!
//! The paper renders an (unpublished) 3000×3000 scene whose object
//! distribution is imbalanced enough that "imbalances in the
//! distribution of objects within any given scene quickly lead to
//! limited scalability on clusters with more than 2 processing nodes"
//! (§IV.A). We substitute seeded procedural scenes with a controlled
//! imbalance knob: [`ScenePreset::Balanced`] spreads work evenly over
//! image rows; [`ScenePreset::Clustered`] concentrates reflective
//! geometry so the lower image rows are several times more expensive —
//! reproducing exactly the load-imbalance phenomenology the evaluation
//! depends on.

use crate::bvh::Bvh;
use crate::ray::Ray;
use crate::shape::{Material, Shape};
use crate::vec3::{v3, Vec3};

/// The scenes' seeded generator: xoshiro256++ with its state drawn from
/// the seed by SplitMix64. Every figure and every `benchmark/` scene
/// hangs off this stream, so it is pinned bit for bit (`tests` below).
struct Rng([u64; 4]);

impl Rng {
    fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng(std::array::from_fn(|_| {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }))
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `[lo, hi)`: 53 random mantissa bits.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }
}

/// A point light.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Light {
    /// World-space position.
    pub pos: Vec3,
    /// RGB intensity.
    pub color: Vec3,
}

/// A pinhole camera.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Camera {
    /// Eye position.
    pub origin: Vec3,
    /// Point looked at.
    pub look_at: Vec3,
    /// Up hint.
    pub up: Vec3,
    /// Vertical field of view in degrees.
    pub vfov_deg: f64,
}

impl Camera {
    /// The primary ray through pixel `(px, py)` of a `width`×`height`
    /// image ("the primary ray is shot through each pixel in the image
    /// plane", §II). Row 0 is the top of the image.
    pub fn primary_ray(&self, px: u32, py: u32, width: u32, height: u32) -> Ray {
        let aspect = width as f64 / height as f64;
        let half_h = (self.vfov_deg.to_radians() / 2.0).tan();
        let half_w = aspect * half_h;
        let w = (self.origin - self.look_at).normalized();
        let u = self.up.cross(w).normalized();
        let v = w.cross(u);
        let sx = (px as f64 + 0.5) / width as f64 * 2.0 - 1.0;
        let sy = 1.0 - (py as f64 + 0.5) / height as f64 * 2.0;
        let dir = u * (sx * half_w) + v * (sy * half_h) - w;
        Ray::new(self.origin, dir)
    }
}

/// Procedural scene families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenePreset {
    /// Geometry spread uniformly — image rows cost roughly the same.
    Balanced,
    /// Most geometry (and nearly all reflective geometry) packed into a
    /// band near the floor — lower image rows are far more expensive.
    Clustered,
}

/// A complete renderable scene.
#[derive(Clone, Debug)]
pub struct Scene {
    /// Primitives, indexed by the BVH and hit records.
    pub shapes: Vec<Shape>,
    /// One material per shape.
    pub materials: Vec<Material>,
    /// Point lights.
    pub lights: Vec<Light>,
    /// Color returned by rays that escape the scene.
    pub background: Vec3,
    /// The camera.
    pub camera: Camera,
    /// Maximum recursion depth (the paper's `MAX_RAY_DEPTH`).
    pub max_depth: u32,
}

impl Scene {
    /// Builds a preset scene with `spheres` spheres from a seed.
    pub fn preset(preset: ScenePreset, spheres: usize, seed: u64) -> Scene {
        let mut rng = Rng::new(seed);
        let mut shapes = Vec::with_capacity(spheres + 1);
        let mut materials = Vec::with_capacity(spheres + 1);

        // The floor: a matte checkerless plane, slightly reflective so
        // lower rows always carry some secondary-ray work.
        shapes.push(Shape::Floor {
            level: 0.0,
            half: 120.0,
        });
        materials.push(Material {
            reflectivity: 0.15,
            ..Material::matte(v3(0.55, 0.55, 0.6))
        });

        for i in 0..spheres {
            let clustered = matches!(preset, ScenePreset::Clustered) && i % 5 != 0;
            let (center, radius) = if clustered {
                // A dense band hugging the floor in front of the camera:
                // it fills the lower image rows.
                (
                    v3(
                        rng.range(-10.0, 10.0),
                        rng.range(0.4, 2.2),
                        rng.range(-4.0, 8.0),
                    ),
                    rng.range(0.35, 0.9),
                )
            } else {
                (
                    v3(
                        rng.range(-18.0, 18.0),
                        rng.range(0.5, 11.0),
                        rng.range(-10.0, 22.0),
                    ),
                    rng.range(0.4, 1.3),
                )
            };
            shapes.push(Shape::Sphere { center, radius });
            let hue = v3(
                rng.range(0.2, 1.0),
                rng.range(0.2, 1.0),
                rng.range(0.2, 1.0),
            );
            let style = rng.range(0.0, 1.0);
            let mat = if clustered {
                // The cluster is mostly mirrors: deep secondary-ray
                // trees inside the band amplify the imbalance.
                if style < 0.7 {
                    Material::mirror(hue, 0.6)
                } else {
                    Material::glass(hue, 0.7, 1.45)
                }
            } else if style < 0.65 {
                Material::matte(hue)
            } else if style < 0.9 {
                Material::mirror(hue, 0.45)
            } else {
                Material::glass(hue, 0.6, 1.5)
            };
            materials.push(mat);
        }

        Scene {
            shapes,
            materials,
            lights: vec![
                Light {
                    pos: v3(-14.0, 18.0, -10.0),
                    color: v3(0.9, 0.85, 0.8),
                },
                Light {
                    pos: v3(12.0, 22.0, 4.0),
                    color: v3(0.5, 0.55, 0.65),
                },
            ],
            background: v3(0.08, 0.10, 0.16),
            camera: Camera {
                origin: v3(0.0, 5.5, -22.0),
                look_at: v3(0.0, 2.2, 2.0),
                up: v3(0.0, 1.0, 0.0),
                vfov_deg: 55.0,
            },
            max_depth: 5,
        }
    }

    /// Builds the scene's BVH (the `scene ← construct a BVH` step of
    /// Algorithm 1) and reports the abstract work of doing so: one
    /// insertion costs O(depth) surface-area evaluations.
    pub fn build_bvh(&self) -> (Bvh, u64) {
        let bvh = Bvh::build(&self.shapes);
        // ~40 ops per node touched per insertion; a calibrated constant,
        // only visible as a small startup cost in the simulation.
        let ops = (self.shapes.len() as u64) * (bvh.depth().max(1) as u64) * 40;
        (bvh, ops)
    }

    /// Nominal serialized size: what broadcasting the scene to a
    /// compute node costs on the simulated network.
    pub fn wire_bytes(&self) -> usize {
        self.shapes.len() * 48 + self.materials.len() * 56 + self.lights.len() * 24 + 96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_deterministic() {
        let a = Scene::preset(ScenePreset::Clustered, 60, 7);
        let b = Scene::preset(ScenePreset::Clustered, 60, 7);
        assert_eq!(a.shapes, b.shapes);
        let c = Scene::preset(ScenePreset::Clustered, 60, 8);
        assert_ne!(a.shapes, c.shapes);
    }

    /// Folds every drawn number of a scene (sphere geometry, material
    /// colour and kind) into one word, FNV-1a over the `f64` bits.
    fn checksum(scene: &Scene) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: f64| h = (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
        for shape in &scene.shapes {
            if let Shape::Sphere { center, radius } = *shape {
                [center.x, center.y, center.z, radius]
                    .into_iter()
                    .for_each(&mut eat);
            }
        }
        for m in &scene.materials {
            let d = m.diffuse;
            [d.x, d.y, d.z, m.reflectivity, m.transparency]
                .into_iter()
                .for_each(&mut eat);
        }
        h
    }

    /// The generator's stream is a contract: the benchmark's scene
    /// family, `fig5`/`fig6` and the distributed integration tests are
    /// all `Scene::preset(.., seed)`. Values captured from the `rand`
    /// shim's `StdRng` (the same xoshiro256++) before it was folded in
    /// here.
    #[test]
    fn preset_stream_is_pinned() {
        let s = Scene::preset(ScenePreset::Clustered, 180, 2010);
        let Shape::Sphere { center, radius } = s.shapes[1] else {
            panic!("shape 1 is the first sphere");
        };
        assert_eq!(
            [center.x, center.y, center.z, radius].map(f64::to_bits),
            [
                0xc014_27e9_7907_0c40, // -5.038976565413634
                0x400f_b9d5_6cce_254d, // 3.965739107171123
                0x4030_9592_dec5_c5a5, // 16.58427231148166
                0x3ff1_0767_c18f_3f48, // 1.0643079338951384
            ]
        );
        assert_eq!(checksum(&s), 0x7c5e_997e_cb31_2751);
        let balanced = Scene::preset(ScenePreset::Balanced, 60, 7);
        assert_eq!(checksum(&balanced), 0x0de5_239a_3475_2bac);
    }

    #[test]
    fn scene_has_floor_plus_spheres() {
        let s = Scene::preset(ScenePreset::Balanced, 40, 1);
        assert_eq!(s.shapes.len(), 41);
        assert_eq!(s.materials.len(), 41);
        assert!(matches!(s.shapes[0], Shape::Floor { .. }));
        assert!(s.wire_bytes() > 41 * 48);
    }

    #[test]
    fn camera_rays_pass_through_the_view_frustum() {
        let s = Scene::preset(ScenePreset::Balanced, 1, 1);
        let center = s.camera.primary_ray(50, 50, 100, 100);
        let corner = s.camera.primary_ray(0, 0, 100, 100);
        // Central ray points roughly at look_at.
        let to_target = (s.camera.look_at - s.camera.origin).normalized();
        assert!(center.dir.dot(to_target) > 0.99);
        // Corner ray diverges but still points forward.
        assert!(corner.dir.dot(to_target) > 0.5);
        assert!(corner.dir.y > center.dir.y, "row 0 is the top of the image");
    }

    #[test]
    fn bvh_build_reports_work() {
        let s = Scene::preset(ScenePreset::Clustered, 50, 3);
        let (bvh, ops) = s.build_bvh();
        assert_eq!(bvh.node_count(), 2 * 51 - 1);
        assert!(ops > 0);
    }
}
