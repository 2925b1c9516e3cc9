//! The component layer the engine and the simulator share: what a chain
//! (the one stateless leaf: a run of one or more boxes and filters), a
//! synchrocell, a parallel dispatcher, a star tap or a split dispatcher
//! does to one record, written once over an abstract [`Transport`].
//!
//! A transport contributes only what a port is, how a record is put on
//! one, and how a component gets something to run on. There are two:
//! the scheduled engine's `TaskCx` (`sched::task`: a scheduler task, a
//! mailbox) and `snet-dist`'s simulated cluster (a discrete-event
//! process on a named node, a queue whose sends cost virtual time).
//! Everything semantic lives here: the failure policy around each step,
//! the trace counters, best-match dispatch, and the lazy unfolding of
//! star and split replicas. This is the only code outside the
//! interpreter that calls [`ChainRunner`] (which owns the failure policy
//! around every box and filter step), [`fault::reject`],
//! [`semantics::best_branch`] or bumps a [`Trace`] counter, so a
//! simulated run of a topology agrees with a real one on every count by
//! construction (`tests/sim_vs_engine.rs` checks it).
//!
//! The module is `pub` but hidden: the seam ([`Transport`],
//! [`Component`], [`build`], with [`crate::run::Run`] and
//! [`crate::config::Plan`]) is what `snet-dist` implements its transport
//! against, not API. The simulator lives over there rather than in this
//! crate so that nothing here — nor `benchmark/`, nor the `snet_check`
//! lane — depends on `snet-simnet`, and so that this crate's documented
//! surface does not grow by a `ClusterSpec`-typed entry point.
//!
//! ## Compiled once, instantiated many times
//!
//! A network is instantiated at every `start`/`run_batch`, and *during*
//! a run whenever a star or an index split unfolds — the paper's Fig 4
//! net schedules that way, a fresh replica per wave of sections — so
//! what one instance costs is coordination overhead. The topology is
//! compiled once per network ([`snet_core::fusion::compile`], called by
//! [`crate::config::Plan`]) into a shared [`Node`] tree; this module
//! holds only what exists per instance:
//!
//! * **shared, immutable** (behind `Arc`s in the tree): every chain's
//!   stage list (its `BoxDef`s and `FilterSpec`s) and every
//!   [`SyncSpec`]; each parallel node's branch patterns; each star's
//!   exit pattern, the head its taps run and the rest of its body; each
//!   split's body and tag;
//! * **per instance** (in `Kind`): one `Arc` pointer into the tree plus
//!   the instance's own state — output ports, a synchrocell's slots,
//!   the replicas unfolded so far. A chain has no state of its own;
//! * **per thread** (`SCRATCH`): the buffers a chain step works
//!   in, so a standalone box costs an instance nothing a pointer does
//!   not.
//!
//! [`build`] and the unfoldings a [`Component::step`] makes therefore
//! copy reference counts, never a spec: an unfolding of a
//! four-component star body is 7 heap allocations (its tasks), whatever
//! the size of the signatures and templates inside (pinned by
//! `tests/alloc_steady.rs`, timed by `bench_unfold`).
//!
//! [`crate::Interp`] deliberately does not use the tree: it is the
//! reference the engine is tested against, so it stays an independent
//! implementation that walks the `NetSpec` itself.

use crate::config::EngineConfig;
use crate::run::Run;
use crate::trace::Trace;
use snet_core::fault;
use snet_core::fusion::{Node, ParNode, SplitNode, StarNode};
use snet_core::pool;
use snet_core::semantics::{self, MismatchPolicy};
use snet_core::{
    ChainRunner, ChainStage, ChainTally, Record, SnetError, SyncOutcome, SyncSpec, SyncState,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// The seam between the component semantics and what carries records.
pub trait Transport {
    /// A sending handle onto one component's input stream. End of
    /// stream is every port onto it having been closed (how is the
    /// transport's business: disconnect, sender refcount).
    type Port;

    /// Gives `comp` something to run on and returns a port onto its
    /// input.
    fn spawn(&mut self, comp: Component<Self::Port>) -> Self::Port;

    /// A second port onto the stream `port` feeds.
    fn another(port: &Self::Port) -> Self::Port;

    /// Puts one record on `port`.
    fn send(&mut self, port: &mut Self::Port, rec: Record);

    /// Runs `build` with its spawns placed on `node` (`A @ node`, or a
    /// `!@` replica's tag value). The local engine has one node:
    /// placement is inert and it does not override this.
    fn at<R>(&mut self, _node: i64, build: impl FnOnce(&mut Self) -> R) -> R {
        build(self)
    }
}

/// One component instance: its semantic state and its output ports.
pub struct Component<P> {
    kind: Kind<P>,
    /// The primary output (for dispatchers: the merged output stream
    /// their branches also write to).
    out: P,
}

enum Kind<P> {
    /// A run of boxes and filters: each record crosses every stage
    /// inside one step. Stateless, so the instance is the pointer.
    Chain(Arc<[ChainStage]>),
    Sync {
        spec: Arc<SyncSpec>,
        st: SyncState,
    },
    Par {
        node: Arc<ParNode>,
        branches: Vec<P>,
    },
    /// One tap of a serial-replication star. The tap inspects every
    /// record *before* the replica (§III: "the chain is tapped before
    /// every replica"): matching records exit to `out`; the rest enter
    /// a lazily instantiated replica of the body whose output feeds the
    /// next tap. A tap with a [`StarNode::head`] runs it on the records
    /// that stay, and `replica` is where its outputs go: the rest of
    /// the body, or the next tap.
    Star {
        node: Arc<StarNode>,
        replica: Option<P>,
    },
    Split {
        node: Arc<SplitNode>,
        replicas: HashMap<i64, P>,
    },
}

/// Recursively instantiates `node` feeding `output`, back to front, and
/// returns the subnet's input port.
pub fn build<T: Transport>(node: &Node, output: T::Port, run: &Run, t: &mut T) -> T::Port {
    let kind = match node {
        Node::Chain(stages) => Kind::Chain(Arc::clone(stages)),
        Node::Sync(spec) => Kind::Sync {
            st: spec.new_state(),
            spec: Arc::clone(spec),
        },
        Node::Serial(a, b) => {
            let mid = build(b, output, run, t);
            return build(a, mid, run, t);
        }
        // Every branch writes to its own port onto `output`, so the
        // merge is arrival-order — the paper's nondeterministic merger.
        Node::Par(par) => Kind::Par {
            branches: par
                .branches
                .iter()
                .map(|b| build(b, T::another(&output), run, t))
                .collect(),
            node: Arc::clone(par),
        },
        Node::Star(star) => Kind::Star {
            node: Arc::clone(star),
            replica: None,
        },
        Node::Split(split) => Kind::Split {
            node: Arc::clone(split),
            replicas: HashMap::new(),
        },
        // Not a component: the body, built where the transport puts it.
        Node::At { body, node } => {
            return t.at(i64::from(*node), |t| build(body, output, run, t));
        }
    };
    spawn(kind, output, run, t)
}

/// Hands a new component instance to the transport. Every instance is
/// created here and retired in [`Component::end_of_stream`], which is
/// what keeps `components_built` and `components_finalized` equal at
/// the end of every run.
fn spawn<T: Transport>(kind: Kind<T::Port>, out: T::Port, run: &Run, t: &mut T) -> T::Port {
    Trace::add(&run.trace.components_built, 1);
    t.spawn(Component { kind, out })
}

impl<P> Component<P> {
    /// Applies one record (the shared small-step semantics), emitting
    /// through `t`. An error is fatal to the run; a record diverted
    /// under `DeadLetter` is not an error.
    pub fn step<T: Transport<Port = P>>(
        &mut self,
        rec: Record,
        run: &Run,
        config: &EngineConfig,
        t: &mut T,
    ) -> Result<(), SnetError> {
        let out = &mut self.out;
        match &mut self.kind {
            Kind::Chain(stages) => chain_step(stages, [rec], run, config, t, out),
            Kind::Sync { spec, st } => {
                match st.push(spec, rec) {
                    SyncOutcome::Stored => Trace::add(&run.trace.sync_stores, 1),
                    SyncOutcome::Fired(merged) => {
                        Trace::add(&run.trace.sync_fires, 1);
                        t.send(out, merged);
                    }
                    SyncOutcome::Passed(rec) => t.send(out, rec),
                }
                Ok(())
            }
            Kind::Par { node, branches } => match semantics::best_branch(&node.patterns, &rec) {
                Some(i) => {
                    Trace::add(&run.trace.dispatched, 1);
                    t.send(&mut branches[i], rec);
                    Ok(())
                }
                None => match config.mismatch {
                    MismatchPolicy::Forward => {
                        Trace::add(&run.trace.passthroughs, 1);
                        t.send(out, rec);
                        Ok(())
                    }
                    MismatchPolicy::Error => {
                        let cause = SnetError::TypeMismatch {
                            expected: "any parallel branch".into(),
                            got: format!("{rec:?}"),
                        };
                        fault::reject(config.policy, "par-dispatch", &run.seq, rec, cause)
                            .and_then(|dl| run.divert(dl))
                    }
                },
            },
            Kind::Star { node, replica } => tap(node, replica, out, [rec], run, config, t),
            Kind::Split { node, replicas } => {
                let Some(value) = rec.tag(node.tag) else {
                    let cause = SnetError::MissingTag(node.tag);
                    return fault::reject(config.policy, "split-dispatch", &run.seq, rec, cause)
                        .and_then(|dl| run.divert(dl));
                };
                let port = replicas.entry(value).or_insert_with(|| {
                    Trace::add(&run.trace.split_replicas, 1);
                    let replica = |t: &mut T| build(&node.body, T::another(out), run, t);
                    // `!@<tag>`: the tag value names the hosting node.
                    if node.placed {
                        t.at(value, replica)
                    } else {
                        replica(t)
                    }
                });
                Trace::add(&run.trace.dispatched, 1);
                t.send(port, rec);
                Ok(())
            }
        }
    }

    /// Applies a claimed hand-off batch. Chains and taps take it whole
    /// (a chain step is stage-major: one panic guard and one buffer
    /// reset per batch); every other component steps record-at-a-time.
    pub(crate) fn step_batch<T: Transport<Port = P>>(
        &mut self,
        recs: impl IntoIterator<Item = Record>,
        run: &Run,
        config: &EngineConfig,
        t: &mut T,
    ) -> Result<(), SnetError> {
        let out = &mut self.out;
        match &mut self.kind {
            Kind::Chain(stages) => chain_step(stages, recs, run, config, t, out),
            Kind::Star { node, replica } => tap(node, replica, out, recs, run, config, t),
            _ => recs
                .into_iter()
                .try_for_each(|rec| self.step(rec, run, config, t)),
        }
    }

    /// Observes end-of-stream: counts stranded synchrocell records and
    /// hands every output port to `close` (branch ports in declaration
    /// order or replica ports in ascending tag order first, the primary
    /// output last — a fixed order, so a transport that logs its events
    /// logs the same teardown every run).
    pub fn end_of_stream(self, run: &Run, mut close: impl FnMut(P)) {
        // Counted before any port closes: the run's last close is what
        // lets its driver read the trace.
        Trace::add(&run.trace.components_finalized, 1);
        match self.kind {
            Kind::Chain(_) => {}
            Kind::Sync { st, .. } => {
                let stranded = st.pending().count() as u64;
                if stranded > 0 {
                    Trace::add(&run.trace.sync_stranded, stranded);
                }
            }
            Kind::Par { branches, .. } => branches.into_iter().for_each(&mut close),
            Kind::Star { replica, .. } => replica.into_iter().for_each(&mut close),
            Kind::Split { replicas, .. } => {
                let mut replicas: Vec<_> = replicas.into_iter().collect();
                replicas.sort_unstable_by_key(|&(tag, _)| tag);
                replicas.into_iter().for_each(|(_, port)| close(port));
            }
        }
        close(self.out);
    }

    /// Visits every output port (branch and replica ports first, the
    /// primary output last).
    pub(crate) fn for_each_port(&mut self, mut f: impl FnMut(&mut P)) {
        match &mut self.kind {
            Kind::Par { branches, .. } => branches.iter_mut().for_each(&mut f),
            Kind::Star { replica, .. } => replica.iter_mut().for_each(&mut f),
            Kind::Split { replicas, .. } => replicas.values_mut().for_each(&mut f),
            Kind::Chain(_) | Kind::Sync { .. } => {}
        }
        f(&mut self.out);
    }

    /// The port whose backlog holds this component back: a chain's or
    /// synchrocell's output, or a head-running tap's replica port. Pure
    /// dispatchers (trivial work, many outputs) are never held back.
    pub(crate) fn held_back_by(&self) -> Option<&P> {
        match &self.kind {
            Kind::Chain(_) | Kind::Sync { .. } => Some(&self.out),
            Kind::Star { node, replica } if node.head.is_some() => replica.as_ref(),
            Kind::Star { .. } | Kind::Par { .. } | Kind::Split { .. } => None,
        }
    }

    /// A short name for the component instance (the simulator's process
    /// names). A chain is named for what is in it: its one stage, or its
    /// ends and length; a tap that runs a head, for that chain.
    pub fn label(&self) -> String {
        match &self.kind {
            Kind::Chain(stages) => chain_label(stages),
            Kind::Sync { .. } => "sync".into(),
            Kind::Par { .. } => "par-dispatch".into(),
            Kind::Star { node, .. } => match &node.head {
                Some(head) => format!("star-tap+{}", chain_label(head)),
                None => "star-tap".into(),
            },
            Kind::Split { .. } => "split-dispatch".into(),
        }
    }
}

fn chain_label(stages: &[ChainStage]) -> String {
    fn stage(s: &ChainStage) -> String {
        match s {
            ChainStage::Box(def) => format!("box-{}", def.sig.name),
            ChainStage::Filter(_) => "filter".into(),
        }
    }
    match stages {
        [only] => stage(only),
        [first, .., last] => format!("chain{}-{}..{}", stages.len(), stage(first), stage(last)),
        [] => unreachable!("compile never emits an empty chain"),
    }
}

/// A tap's step over a batch: exits leave on `out`, the first stayer
/// unfolds the replica, and the stayers go to it — through the head,
/// if any, in one chain step (the policy, names and tally of the chain
/// fusion handed the tap).
fn tap<T: Transport>(
    node: &Arc<StarNode>,
    replica: &mut Option<T::Port>,
    out: &mut T::Port,
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    config: &EngineConfig,
    t: &mut T,
) -> Result<(), SnetError> {
    let mut stayers = node.head.as_ref().map(|_| pool::PooledVec::take());
    for rec in recs {
        if node.exit.matches(&rec) {
            t.send(out, rec);
            continue;
        }
        let port = replica.get_or_insert_with(|| unfold(node, out, run, t));
        match &mut stayers {
            Some(stayers) => stayers.push(rec),
            None => t.send(port, rec),
        }
    }
    match (&node.head, stayers, replica) {
        (Some(head), Some(mut stayers), Some(port)) => {
            chain_step(head, stayers.drain(..), run, config, t, port)
        }
        _ => Ok(()),
    }
}

/// Unfolds one replica behind a tap exiting on `out`: the rest of the
/// body, if any, feeding the next tap, which shares `out`.
fn unfold<T: Transport>(star: &Arc<StarNode>, out: &T::Port, run: &Run, t: &mut T) -> T::Port {
    Trace::add(&run.trace.star_unfoldings, 1);
    let next_tap = Kind::Star {
        node: Arc::clone(star),
        replica: None,
    };
    let next_tap = spawn(next_tap, T::another(out), run, t);
    match &star.body {
        Some(body) => build(body, next_tap, run, t),
        None => next_tap,
    }
}

/// The buffers a chain step works in: the runner's ping-pong pair and
/// the output batch. Both are empty whenever no step is using them.
struct Scratch {
    runner: ChainRunner,
    outs: pool::PooledVec,
}

thread_local! {
    /// This thread's chain scratch, absent while a step is using it.
    static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// Drives `recs` through a chain. Per-stage policy resolution, retries,
/// panic containment and dead-letter attribution all happen inside
/// [`ChainRunner`]; the tally folds into the trace, which therefore
/// reads the same however the stages were grouped into components.
///
/// The step works in the calling thread's scratch, taken out of its
/// slot for the duration and put back afterwards. A chain step nested
/// inside another on the same thread (a box body that drives a second
/// network) finds the slot empty and works in fresh buffers, so steps
/// never share scratch; and a batch leaves nothing in it — a success is
/// drained to `out`, a failure is dropped by `step_batch`.
fn chain_step<T: Transport>(
    stages: &[ChainStage],
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    config: &EngineConfig,
    t: &mut T,
    out: &mut T::Port,
) -> Result<(), SnetError> {
    let mut scratch = SCRATCH.take().unwrap_or_else(|| Scratch {
        runner: ChainRunner::new(),
        outs: pool::PooledVec::take(),
    });
    let mut tally = ChainTally::default();
    let res = scratch.runner.step_batch(
        stages,
        config.policy,
        config.mismatch,
        &run.seq,
        recs,
        &mut tally,
        &mut scratch.outs,
        &mut |dl| run.divert(dl),
    );
    run.trace.count_chain(&tally);
    if res.is_ok() {
        for rec in scratch.outs.drain(..) {
            t.send(out, rec);
        }
    }
    SCRATCH.set(Some(scratch));
    res
}
