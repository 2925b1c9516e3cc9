//! # snet-core — the S-Net record model and combinator algebra
//!
//! This crate implements the language-independent heart of S-Net as
//! described in *"Message Driven Programming with S-Net: Methodology and
//! Performance"* (Penczek et al., ICPP Workshops 2010):
//!
//! * **Records** ([`Record`]) — non-recursive sets of label–value pairs.
//!   Labels are split into *fields* (opaque, box-language values) and
//!   *tags* (integers, visible to the coordination layer).
//! * **Structural subtyping** ([`Variant`], [`RType`]) — a record type
//!   `t1` is a subtype of `t2` iff `t2 ⊆ t1` (inverse set inclusion on
//!   label sets), extended to multivariant types.
//! * **Flow inheritance** ([`flow`]) — labels of an input record that a
//!   component does not consume are attached to every output record it
//!   produces in response, unless the output overrides them.
//! * **Filters** ([`FilterSpec`]) and **tag expressions** ([`TagExpr`]) —
//!   the `[ pattern -> out₁ ; out₂ … ]` record transformers.
//! * **Synchrocells** ([`SyncSpec`], [`SyncState`]) — the only stateful
//!   entity: joins one record per pattern, fires once, then becomes the
//!   identity.
//! * **Boxes** ([`BoxSig`], [`BoxFn`]) — stateless user components with a
//!   single input variant and a disjunction of output variants.
//! * **Topology** ([`NetSpec`]) — the four SISO combinators (serial `..`,
//!   parallel `|`, serial replication `*`, parallel replication `!`) plus
//!   the Distributed S-Net placement combinators `@` and `!@`.
//! * **Compilation** ([`fusion`]) — the one walk from a [`NetSpec`] to
//!   the shared tree the engine and the simulator instantiate, fusing
//!   serial runs of boxes and filters into single components on the way.
//!
//! The crate is engine-agnostic: the per-record small-step semantics live
//! in [`semantics`] as pure functions, and a network has exactly two
//! operational readings of them — the deterministic reference
//! interpreter (the oracle) and the component step of `snet-runtime`,
//! which the scheduled engine and the discrete-event cluster simulator
//! (`snet-dist`) both drive, each over its own transport.

#![forbid(unsafe_code)]

pub mod boxdef;
pub mod diag;
pub mod error;
pub mod expr;
pub mod fault;
pub mod filter;
pub mod flow;
pub mod fusion;
mod inline;
pub mod label;
pub mod pattern;
pub mod pool;
pub mod record;
pub mod rtype;
pub mod semantics;
pub mod sync;
pub mod topology;
pub mod value;

#[cfg(test)]
mod tests;

pub use boxdef::{BoxFn, BoxOutput, BoxSig, RecordVec, SigItem, Work};
pub use diag::{DiagCode, DiagSeverity, Diagnostic};
pub use error::{panic_cause, SnetError};
pub use expr::{BinOp, TagExpr, UnOp};
pub use fault::{DeadLetter, FailurePolicy, FailureReport, StepVerdict};
pub use filter::{FilterSpec, OutItem, OutputTemplate};
pub use fusion::{fuse, ChainRunner, ChainStage, ChainTally};
pub use label::Label;
pub use pattern::Pattern;
pub use pool::PoolStats;
pub use record::Record;
pub use rtype::{RType, Variant};
pub use sync::{SyncOutcome, SyncSpec, SyncState};
pub use topology::NetSpec;
pub use value::Value;

/// Convenience result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, SnetError>;
