//! Engine configuration and the construction-time work both concurrent
//! engines share: fusion, the pre-flight analysis and the entry-typed
//! veto happen once, in [`Plan`], whichever engine then runs the plan.

use crate::run::{DeadDest, Run};
use snet_core::fault::FailurePolicy;
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
/// each engine reads the knobs that apply to it).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Capacity of every inter-component channel. Bounded channels give
    /// backpressure ("throttling" in the paper's list of coordination
    /// concerns); 0 would mean rendezvous, which deadlocks multi-output
    /// filters feeding themselves through a star, so the minimum is 1.
    /// The scheduled engine derives its mailbox high-water mark from
    /// this value.
    pub channel_capacity: usize,
    /// What to do when a record reaches a component it cannot match.
    pub mismatch: MismatchPolicy,
    /// Worker threads in the scheduled engine's pool
    /// ([`crate::SchedNet`]); the threaded engine ignores it (its
    /// thread count is the component count).
    pub workers: usize,
    /// Records coalesced per mailbox hand-off in the scheduled engine:
    /// a task's activation buffers up to this many records per output
    /// edge and pushes them downstream with a single lock acquisition
    /// and a single consumer wake; input mailboxes are drained at the
    /// same granularity. `1` restores record-at-a-time hand-off
    /// (bit-identical scheduling to the pre-batching engine). The
    /// threaded engine hands off per record regardless, though
    /// multi-record component outputs go through the channel's batched
    /// `send_iter`. Default 32, tuned on the serial-pipeline benchmark
    /// (see `BENCH_batched_handoff.json`).
    pub batch: usize,
    /// Engine-wide failure policy; individual boxes may override it
    /// via [`snet_core::boxdef::BoxDef::with_policy`]. Default
    /// [`FailurePolicy::FailFast`] (the historical behavior).
    pub policy: FailurePolicy,
    /// Wall-clock budget for a run, measured from
    /// [`crate::Network::start`]. On expiry the run aborts at the next
    /// preemption point and reports [`SnetError::DeadlineExceeded`];
    /// partial outputs already emitted remain retrievable. `None`
    /// (default) disables the check entirely.
    pub deadline: Option<Duration>,
    /// Fuse maximal static SISO chains of boxes/filters into single
    /// components ([`snet_core::fusion::fuse`]) before instantiating
    /// the network. Default `true`: fusion is observationally
    /// equivalent (same output multiset, traces, and fault
    /// attribution — see the `fusion_equivalence` property suite) and
    /// strictly cheaper on deep pipelines. Set `false` to run the
    /// topology exactly as written (one task/thread per component),
    /// e.g. to measure hand-off cost itself.
    pub fuse: bool,
    /// Run the static analyzer (`snet-analyze`) over the topology at
    /// construction time as a pre-flight check. The check is sound for
    /// *any* input stream (the entry type is unknown), so it only
    /// rejects structural defects — today that is placement targets out
    /// of range (`SNA006`, needs [`EngineConfig::nodes`]). A rejected
    /// net reports [`SnetError::Analysis`] from `run_batch*` and fails
    /// `start()`ed runs immediately. Default `true`; set `false` to
    /// opt out. For the full shape-aware analysis, declare the entry
    /// type via `with_entry_type`.
    pub analyze: bool,
    /// Number of compute nodes available to the placement combinators
    /// (`@ node`, `!@ tag`), used only by the pre-flight analyzer's
    /// range check. `None` (default) disables the check — the local
    /// engines ignore placement, so any node index runs fine here.
    pub nodes: Option<u32>,
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
            analyze: true,
            nodes: None,
        }
    }
}

/// Default scheduled-engine pool size: the `SNET_WORKERS` environment
/// variable when set to a positive integer (the CI constrained lane
/// uses `SNET_WORKERS=1` under `taskset -c 0`), else 4. Read once; a
/// later env change does not move the default mid-process.
fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("SNET_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(4)
    })
}

/// The analyzer configuration induced by an engine configuration.
fn analyze_cfg(config: &EngineConfig) -> snet_analyze::AnalyzeConfig {
    snet_analyze::AnalyzeConfig {
        nodes: config.nodes,
        ..snet_analyze::AnalyzeConfig::default()
    }
}

/// A topology prepared for execution: what [`crate::Network`] hands its
/// engine on every run. Built once per network, identically for both
/// engines.
pub struct Plan {
    /// The topology as the caller wrote it.
    pub(crate) spec: NetSpec,
    /// What actually runs: `spec` with maximal SISO chains fused into
    /// single components (or a clone of `spec` when
    /// [`EngineConfig::fuse`] is off).
    pub(crate) fused: NetSpec,
    pub(crate) config: EngineConfig,
    /// Error-severity findings of the construction-time pre-flight
    /// analysis (empty when clean or when [`EngineConfig::analyze`] is
    /// off). A non-empty list fails every run with
    /// [`SnetError::Analysis`].
    pub(crate) preflight: Vec<Diagnostic>,
    /// Whether any component can dead-letter under this configuration,
    /// precomputed so a streaming run can skip the dead-letter buffer
    /// (and its allocation) when diversion is provably impossible.
    diverts: bool,
}

impl Plan {
    /// Fuses `spec` (unless opted out) and runs the open-entry
    /// pre-flight analysis (unless opted out).
    pub(crate) fn new(spec: NetSpec, config: EngineConfig) -> Plan {
        let fused = if config.fuse {
            snet_core::fuse(&spec)
        } else {
            spec.clone()
        };
        let preflight = if config.analyze {
            snet_analyze::analyze_open(&spec, &analyze_cfg(&config))
                .errors()
                .cloned()
                .collect()
        } else {
            Vec::new()
        };
        Plan {
            diverts: spec.diverts_under(config.policy),
            spec,
            fused,
            config,
            preflight,
        }
    }

    /// Like [`Plan::new`] for a declared (closed) entry type: the full
    /// shape-aware analysis replaces the open pre-flight, and any
    /// error-severity finding refuses the plan.
    pub(crate) fn with_entry_type(
        spec: NetSpec,
        entry: &RType,
        config: EngineConfig,
    ) -> Result<Plan, SnetError> {
        let mut plan = Plan::new(spec, config);
        let errors: Vec<_> = snet_analyze::analyze(&plan.fused, entry, &analyze_cfg(&config))
            .errors()
            .cloned()
            .collect();
        if !errors.is_empty() {
            return Err(SnetError::Analysis(errors));
        }
        plan.preflight.clear();
        Ok(plan)
    }

    /// The pre-flight verdict as a run result.
    pub(crate) fn check(&self) -> Result<(), SnetError> {
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
    pub(crate) fn new_run(&self, dead: DeadDest) -> Arc<Run> {
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
