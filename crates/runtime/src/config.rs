//! Engine configuration and the construction-time work both concurrent
//! engines share: the structural pre-flight, the entry-typed veto and
//! compilation (fusion included) happen once, in [`Plan`], whichever
//! engine then runs the plan.
//!
//! The plan's executable form is one shared, immutable tree
//! ([`snet_core::fusion::Node`], compiled straight from the topology as
//! written). Every run — and every replica unfolded inside a run — is
//! instantiated from that tree by reference count, so `&Plan` can
//! serve any number of concurrent runs without copying a spec.

use crate::run::{DeadDest, Run};
use snet_analyze::AnalyzeConfig;
use snet_core::fault::FailurePolicy;
use snet_core::fusion::{compile, Node};
use snet_core::semantics::MismatchPolicy;
use snet_core::{Diagnostic, NetSpec, RType, SnetError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dead-letter channel capacity multiplier over `channel_capacity` for
/// streaming runs (batch runs collect into a vector). Bounded so a
/// component never blocks on a lagging dead-letter consumer; overflow
/// is a fatal engine error instead of a stall. Sized so a consumer
/// draining at output cadence never sees overflow.
const DEAD_CAPACITY_FACTOR: usize = 16;

/// Engine tuning knobs (shared by the threaded and scheduled engines;
/// each engine reads the knobs that apply to it). Each field's last doc
/// line names who needs a value other than the default — the audit that
/// keeps a knob a knob.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Capacity of every inter-component channel. Bounded channels give
    /// backpressure ("throttling" in the paper's list of coordination
    /// concerns); 0 would mean rendezvous, which deadlocks multi-output
    /// filters feeding themselves through a star, so the minimum is 1.
    /// The scheduled engine derives its mailbox high-water mark from
    /// this value.
    /// Non-default: `sched_streaming` and `pipeline_integration` (1), `memory_soak`.
    pub channel_capacity: usize,
    /// What to do when a record reaches a component it cannot match.
    /// Non-default: the engine suite's `strict_mismatch_policy_errors` (`Error`).
    pub mismatch: MismatchPolicy,
    /// Worker threads in the scheduled engine's pool
    /// ([`crate::SchedNet`]); the threaded engine ignores it (its
    /// thread count is the component count).
    /// Default: the CPUs available to the process, at most 4.
    /// Non-default: every `benchmark/` workload (T or T−1), `sched_stress`, `bench_engines` (1: CPU time per step).
    pub workers: usize,
    /// Records coalesced per mailbox hand-off in the scheduled engine:
    /// a task's activation buffers up to this many records per output
    /// edge and pushes them downstream with a single lock acquisition
    /// and a single consumer wake; input mailboxes are drained at the
    /// same granularity. `1` restores record-at-a-time hand-off
    /// (bit-identical scheduling to the pre-batching engine). The
    /// threaded engine hands off per record regardless, one channel
    /// `send` each. Default 32, and it shows: `route_stream`, the
    /// `benchmark/` workload that hands off at every stage, reads
    /// ≈1.45× the `throughput_per_s` of a build whose default is 1.
    /// No caller needs another value; the field stays because the
    /// frozen `benchmark/` names it.
    /// Non-default: `engine_vs_interp` (batched == unbatched == interp); `benchmark/` reads it.
    pub batch: usize,
    /// Engine-wide failure policy; individual boxes may override it
    /// via [`snet_core::boxdef::BoxDef::with_policy`]. Default
    /// [`FailurePolicy::FailFast`] (the historical behavior).
    /// Non-default: `fault_tolerance` (`Retry`, `DeadLetter`), the `snet-apps` robust runner.
    pub policy: FailurePolicy,
    /// Wall-clock budget for a run, measured from
    /// [`crate::Network::start`]. On expiry the run aborts at the next
    /// preemption point and reports [`SnetError::DeadlineExceeded`];
    /// partial outputs already emitted remain retrievable. `None`
    /// (default) disables the check entirely.
    /// Non-default: `fault_tolerance`'s deadline tests, the `snet-apps` robust runner.
    pub deadline: Option<Duration>,
    /// The grain of the compiled network
    /// ([`snet_core::fusion::compile`]): `true` (default) puts every
    /// maximal static run of boxes/filters in one component, `false`
    /// gives each box and filter its own (one task/thread per
    /// primitive, the topology exactly as written). Either way a leaf
    /// runs through the same chain step, so the choice moves what a
    /// run builds and how far a record travels — `components_built`,
    /// mailbox hops per record, resident tasks — and nothing
    /// observable: same output multiset, traces and fault attribution
    /// (the `fusion_equivalence` property suite). It is not a speed
    /// switch: a hop saved is worth ≈160 ns, and on deep pipelines of
    /// trivial boxes fused reads about the same as unfused once
    /// records carry an inherited tag (ROADMAP).
    /// Non-default: `fusion_equivalence`, `alloc_steady`, `memory_soak`, `benchmark/`'s `runtime.sched.hop_ns` row.
    pub fuse: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            channel_capacity: 64,
            mismatch: MismatchPolicy::Forward,
            workers: default_workers(),
            batch: 32,
            policy: FailurePolicy::FailFast,
            deadline: None,
            fuse: true,
        }
    }
}

/// Default scheduled-engine pool size: the CPUs this process may run
/// on ([`std::thread::available_parallelism`], which on Linux honours
/// the affinity mask, so `taskset -c 0` yields one worker), capped at
/// 4; 4 when the count is unavailable. Asked once: the query reads
/// cgroup files, and `EngineConfig::default()` is called per network.
fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get().min(4)))
}

/// A topology prepared for execution: what [`crate::Network`] hands its
/// engine on every run. Built once per network, identically for both
/// engines.
pub struct Plan {
    /// The topology as the caller wrote it.
    pub(crate) spec: NetSpec,
    /// What actually runs: `spec` compiled into the shared tree every
    /// run instantiates from, maximal SISO chains fused into single
    /// components unless [`EngineConfig::fuse`] is off.
    #[doc(hidden)]
    pub root: Node,
    pub(crate) config: EngineConfig,
    /// Error-severity findings of the construction-time structural
    /// pre-flight (empty when clean). A non-empty list fails every run
    /// with [`SnetError::Analysis`].
    pub(crate) preflight: Vec<Diagnostic>,
    /// Whether any component can dead-letter under this configuration,
    /// precomputed so a streaming run can skip the dead-letter buffer
    /// (and its allocation) when diversion is provably impossible.
    diverts: bool,
}

impl Plan {
    /// Compiles `spec` (fusing unless opted out) and runs the
    /// structural pre-flight: sound for any input stream, and
    /// placement-blind (the local engines ignore `@`, so no node count
    /// is configured).
    #[doc(hidden)]
    pub fn new(spec: NetSpec, config: EngineConfig) -> Plan {
        let preflight = snet_analyze::analyze_open(&spec, &AnalyzeConfig::default())
            .errors()
            .cloned()
            .collect();
        Plan {
            diverts: spec.diverts_under(config.policy),
            root: compile(&spec, config.fuse),
            spec,
            config,
            preflight,
        }
    }

    /// Like [`Plan::new`] for a declared (closed) entry type: the flow
    /// analysis from `entry` runs on top of the structural pass, and any
    /// error-severity finding of either refuses the plan. Both passes
    /// read `spec` as written, so a finding's path names the subnets
    /// the author named.
    pub(crate) fn with_entry_type(
        spec: NetSpec,
        entry: &RType,
        config: EngineConfig,
    ) -> Result<Plan, SnetError> {
        let errors: Vec<_> = snet_analyze::analyze(&spec, entry, &AnalyzeConfig::default())
            .errors()
            .cloned()
            .collect();
        if errors.is_empty() {
            Ok(Plan::new(spec, config))
        } else {
            Err(SnetError::Analysis(errors))
        }
    }

    /// The pre-flight verdict as a run result.
    #[doc(hidden)]
    pub fn check(&self) -> Result<(), SnetError> {
        if self.preflight.is_empty() {
            Ok(())
        } else {
            Err(SnetError::Analysis(self.preflight.clone()))
        }
    }

    /// A fresh control block for one run of this plan, its deadline
    /// counted from now. A plan the pre-flight rejected starts its runs
    /// already failed: components stop at their first preemption check
    /// and `finish()` reports the analysis error.
    #[doc(hidden)]
    pub fn new_run(&self, dead: DeadDest) -> Arc<Run> {
        let run = Run::new(self.config.deadline.map(|d| Instant::now() + d), dead);
        if let Err(e) = self.check() {
            run.fail(e);
        }
        run
    }

    /// Capacity of a streaming run's dead-letter channel. A network
    /// that provably cannot divert gets a 1-slot stub instead of the
    /// real buffer, keeping the fault-free path free of the allocation.
    pub(crate) fn dead_capacity(&self) -> usize {
        if self.diverts {
            self.config.channel_capacity.max(1) * DEAD_CAPACITY_FACTOR
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pool_fits_the_available_cpus() {
        let workers = EngineConfig::default().workers;
        assert!((1..=4).contains(&workers), "{workers}");
        if let Ok(cpus) = std::thread::available_parallelism() {
            assert!(workers <= cpus.get(), "{workers} workers on {cpus} CPUs");
        }
    }
}
