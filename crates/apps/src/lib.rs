//! # snet-apps — the paper's ray-tracing case study
//!
//! Everything §IV and §V of the paper build on top of the S-Net
//! machinery:
//!
//! * [`boxes`] — the application boxes (`splitter`, `solver`, `init`,
//!   `merge`, `genImg`): sequential functions with no concurrency
//!   knowledge (the "algorithm engineering" concern);
//! * [`nets`] — the coordination networks: the Fig 3 merger, the Fig 2
//!   static fork-join net, its `(solver!<cpu>)!@<node>` 2-CPU variant,
//!   and the Fig 4 token-based dynamic solver (the "concurrency
//!   engineering" concern);
//! * [`schedule`] — block scheduling and the paper's simple variant of
//!   factoring (Hummel et al. \[13\]);
//! * [`experiment`] — drivers running any variant on the simulated
//!   cluster ([`run_snet_cluster`]) or a local engine
//!   ([`run_snet_local`]), plus the [`Workload`] definitions;
//! * [`mpi_app`] — the hand-written C/MPI baseline on simulated MPI.
//!
//! Every run — static, 2-CPU, dynamic, MPI, local — produces an image
//! byte-identical to the sequential Algorithm 1 render; the virtual
//! makespans are what the fig5/fig6 benchmark binaries plot.

pub mod boxes;
pub mod data;
pub mod experiment;
pub mod mpi_app;
pub mod nets;
pub mod schedule;

pub use boxes::{
    gen_img_box, image_slot, init_box, merge_box, solver_box, splitter_box, ImageSlot,
};
pub use data::{ChunkData, PicData, SceneData, SectData};
pub use experiment::{
    input_record, run_snet_cluster, run_snet_local, SnetConfig, SnetOutcome, Workload,
};
pub use mpi_app::{run_mpi_raytrace, MpiOutcome};
pub use nets::{
    dynamic_solver, merger_net, raytracing_net, registry, static_solver, static_solver_2cpu,
    NetVariant, RAYTRACING_STAT_SOURCE,
};
pub use schedule::Schedule;
