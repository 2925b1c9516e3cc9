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
//! the trace counters, best-match dispatch, the lazy unfolding of star
//! and split replicas, the loop a star whose body is one chain runs in
//! place of its taps, and the chain branches a parallel runs in place
//! of their components. This is the only code outside the
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
//!   [`SyncSpec`]; each parallel node's branch patterns and which of
//!   its branches it runs itself; each star's exit pattern, the head
//!   its taps (or its loop) run and the rest of its body; each split's
//!   body and tag;
//! * **per instance** (in `Kind`): one `Arc` pointer into the tree plus
//!   the instance's own state — output ports, a synchrocell's slots,
//!   the replicas unfolded so far, a loop's deepest round, a
//!   parallel's branch list. A chain has no state of its own;
//! * **per thread** (`SCRATCH`): the buffers a chain step works
//!   in, so a standalone box costs an instance nothing a pointer does
//!   not.
//!
//! [`build`] and the unfoldings a [`Component::step`] makes therefore
//! copy reference counts, never a spec: fused, an unfolding of the
//! star body `(inc | []) .. dec` is 4 heap allocations (three tasks:
//! the parallel, which runs both its chain branches, `dec` and the
//! next tap; and the parallel's branch list), whatever the size of the
//! signatures and templates inside (pinned by `tests/alloc_steady.rs`,
//! timed by `bench_unfold`). A loop unfolds nothing: a round of it
//! allocates nothing (pinned there too).
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
    /// A parallel dispatcher: each record goes to its best-matching
    /// branch. A branch that [`ParNode::inline`] marks runs here,
    /// stage-major over the records a batch dispatched to it, onto
    /// `out`, the merged stream every branch writes; the others are
    /// components of their own behind a port.
    Par {
        node: Arc<ParNode>,
        branches: Vec<Branch<P>>,
    },
    /// One tap of a serial-replication star. The tap inspects every
    /// record *before* the replica (§III: "the chain is tapped before
    /// every replica"): matching records exit to `out`; the rest enter
    /// a lazily instantiated replica of the body whose output feeds the
    /// next tap. A tap with a [`StarNode::head`] runs it on the records
    /// that stay, and `replica` is where its outputs go: the rest of
    /// the body, feeding the next tap.
    Star {
        node: Arc<StarNode>,
        replica: Option<P>,
    },
    /// A star whose [`StarNode::head`] is its whole body: every replica
    /// would run the same stateless chain, so the unfolded pipeline of
    /// taps is one component that loops. Exits leave on `out` after
    /// every round; the rest go round the head again. `rounds` is the
    /// deepest round this instance has run: the replicas the taps would
    /// have unfolded.
    Loop {
        node: Arc<StarNode>,
        rounds: u64,
    },
    Split {
        node: Arc<SplitNode>,
        replicas: HashMap<i64, P>,
    },
}

/// One branch of a parallel instance.
enum Branch<P> {
    /// Built as components of its own; records are sent to its input.
    Port(P),
    /// One chain the dispatcher runs itself. `held` collects what a
    /// batch dispatched to it (a buffer from [`pool`], returned when the
    /// batch has run through the chain); empty between batches.
    Inline {
        stages: Arc<[ChainStage]>,
        held: Option<pool::PooledVec>,
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
        // Every branch writes to its own port onto `output`, or, run
        // inline, to `output` itself, so the merge is arrival-order —
        // the paper's nondeterministic merger.
        Node::Par(par) => Kind::Par {
            branches: par
                .branches
                .iter()
                .zip(&par.inline)
                .map(|(branch, &inline)| match branch {
                    Node::Chain(stages) if inline => Branch::Inline {
                        stages: Arc::clone(stages),
                        held: None,
                    },
                    _ => Branch::Port(build(branch, T::another(&output), run, t)),
                })
                .collect(),
            node: Arc::clone(par),
        },
        Node::Star(star) if star.body.is_none() => Kind::Loop {
            node: Arc::clone(star),
            rounds: 0,
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
    /// through `t`: [`step_batch`](Self::step_batch) over a batch of
    /// one. An error is fatal to the run; a record diverted under
    /// `DeadLetter` is not an error.
    pub fn step<T: Transport<Port = P>>(
        &mut self,
        rec: Record,
        run: &Run,
        config: &EngineConfig,
        t: &mut T,
    ) -> Result<(), SnetError> {
        self.step_batch(std::iter::once(rec), run, config, t)
    }

    /// Applies a claimed hand-off batch. Chains, taps, loops and
    /// parallels take it whole (a chain step is stage-major: one panic
    /// guard and one buffer reset per batch); synchrocells and splits
    /// step record-at-a-time.
    pub(crate) fn step_batch<T: Transport<Port = P>>(
        &mut self,
        recs: impl IntoIterator<Item = Record>,
        run: &Run,
        config: &EngineConfig,
        t: &mut T,
    ) -> Result<(), SnetError> {
        let out = &mut self.out;
        match &mut self.kind {
            Kind::Chain(stages) => chain_step(stages, recs, run, config, |rec| t.send(out, rec)),
            Kind::Sync { spec, st } => {
                for rec in recs {
                    match st.push(spec, rec) {
                        SyncOutcome::Stored => Trace::add(&run.trace.sync_stores, 1),
                        SyncOutcome::Fired(merged) => {
                            Trace::add(&run.trace.sync_fires, 1);
                            t.send(out, merged);
                        }
                        SyncOutcome::Passed(rec) => t.send(out, rec),
                    }
                }
                Ok(())
            }
            Kind::Par { node, branches } => dispatch(node, branches, out, recs, run, config, t),
            Kind::Star { node, replica } => tap(node, replica, out, recs, run, config, t),
            Kind::Loop { node, rounds } => spin(node, rounds, out, recs, run, config, t),
            Kind::Split { node, replicas } => recs.into_iter().try_for_each(|rec| {
                let Some(value) = rec.tag(node.tag) else {
                    let cause = SnetError::MissingTag(node.tag);
                    return fault::reject(config.policy, "split-dispatch", &run.seq, rec, cause)
                        .and_then(|dl| run.divert(*dl));
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
            }),
        }
    }

    /// Observes end-of-stream: counts stranded synchrocell records and
    /// hands every output port to `close` (the ports of the branches not
    /// run inline in declaration order, or replica ports in ascending
    /// tag order, first, the primary output last — a fixed order, so a
    /// transport that logs its events logs the same teardown every
    /// run).
    pub fn end_of_stream(self, run: &Run, mut close: impl FnMut(P)) {
        // Counted before any port closes: the run's last close is what
        // lets its driver read the trace.
        Trace::add(&run.trace.components_finalized, 1);
        match self.kind {
            Kind::Chain(_) | Kind::Loop { .. } => {}
            Kind::Sync { st, .. } => {
                let stranded = st.pending().count() as u64;
                if stranded > 0 {
                    Trace::add(&run.trace.sync_stranded, stranded);
                }
            }
            Kind::Par { branches, .. } => branches.into_iter().for_each(|branch| {
                if let Branch::Port(port) = branch {
                    close(port);
                }
            }),
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
            Kind::Par { branches, .. } => branches.iter_mut().for_each(|branch| {
                if let Branch::Port(port) = branch {
                    f(port);
                }
            }),
            Kind::Star { replica, .. } => replica.iter_mut().for_each(&mut f),
            Kind::Split { replicas, .. } => replicas.values_mut().for_each(&mut f),
            Kind::Chain(_) | Kind::Sync { .. } | Kind::Loop { .. } => {}
        }
        f(&mut self.out);
    }

    /// The port whose backlog holds this component back: the output of
    /// a chain, a loop, a synchrocell or a parallel that runs a branch
    /// inline, or a head-running tap's replica port. Pure dispatchers
    /// (trivial work, many outputs) are never held back.
    pub(crate) fn held_back_by(&self) -> Option<&P> {
        match &self.kind {
            Kind::Chain(_) | Kind::Sync { .. } | Kind::Loop { .. } => Some(&self.out),
            Kind::Par { node, .. } if node.inline.contains(&true) => Some(&self.out),
            Kind::Star { node, replica } if node.head.is_some() => replica.as_ref(),
            Kind::Star { .. } | Kind::Par { .. } | Kind::Split { .. } => None,
        }
    }

    /// A short name for the component instance (the simulator's process
    /// names). A chain is named for what is in it: its one stage, or its
    /// ends and length; a tap that runs a head, a loop, and a parallel
    /// that runs branches inline, for those chains.
    pub fn label(&self) -> String {
        match &self.kind {
            Kind::Chain(stages) => chain_label(stages),
            Kind::Sync { .. } => "sync".into(),
            Kind::Par { branches, .. } => branches
                .iter()
                .filter_map(|branch| match branch {
                    Branch::Inline { stages, .. } => Some(chain_label(stages)),
                    Branch::Port(_) => None,
                })
                .fold("par-dispatch".into(), |label, chain| label + "+" + &chain),
            Kind::Star { node, .. } => match &node.head {
                Some(head) => format!("star-tap+{}", chain_label(head)),
                None => "star-tap".into(),
            },
            Kind::Loop { node, .. } => format!("star-loop+{}", chain_label(head(node))),
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

/// A parallel's step over a batch: each record goes to its best-match
/// branch, in declaration order on a tie; one that matches none is
/// passed on to `out` or rejected, as the mismatch policy says. A
/// record for a branch with a port is sent there at once; the records
/// for a branch run inline are held until the batch is dispatched and
/// then go through its chain in one step (the policy, names and tally
/// its own component would have used), onto `out`.
fn dispatch<T: Transport>(
    node: &ParNode,
    branches: &mut [Branch<T::Port>],
    out: &mut T::Port,
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    config: &EngineConfig,
    t: &mut T,
) -> Result<(), SnetError> {
    for rec in recs {
        let Some(i) = semantics::best_branch(&node.patterns, &rec) else {
            match config.mismatch {
                MismatchPolicy::Forward => {
                    Trace::add(&run.trace.passthroughs, 1);
                    t.send(out, rec);
                }
                MismatchPolicy::Error => {
                    let cause = SnetError::TypeMismatch {
                        expected: "any parallel branch".into(),
                        got: format!("{rec:?}"),
                    };
                    fault::reject(config.policy, "par-dispatch", &run.seq, rec, cause)
                        .and_then(|dl| run.divert(*dl))?;
                }
            }
            continue;
        };
        Trace::add(&run.trace.dispatched, 1);
        match &mut branches[i] {
            Branch::Port(port) => t.send(port, rec),
            Branch::Inline { held, .. } => held.get_or_insert_with(pool::PooledVec::take).push(rec),
        }
    }
    for branch in branches {
        if let Branch::Inline { stages, held } = branch {
            if let Some(mut held) = held.take() {
                chain_step(stages, held.drain(..), run, config, |rec| t.send(out, rec))?;
            }
        }
    }
    Ok(())
}

/// A tap's step over a batch: exits leave on `out`, the first stayer
/// unfolds the replica, and the stayers go to it — through the head,
/// if any, in one chain step (the policy, names and tally of the chain
/// fusion handed the tap). A star whose head is its whole body has no
/// taps: it is a [`Kind::Loop`] (see [`spin`]).
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
            chain_step(head, stayers.drain(..), run, config, |rec| {
                t.send(port, rec)
            })
        }
        _ => Ok(()),
    }
}

/// Unfolds one replica behind a tap exiting on `out`: the rest of the
/// body, feeding the next tap, which shares `out`.
fn unfold<T: Transport>(star: &Arc<StarNode>, out: &T::Port, run: &Run, t: &mut T) -> T::Port {
    let body = star
        .body
        .as_ref()
        .expect("a star without a body past its head is a loop");
    Trace::add(&run.trace.star_unfoldings, 1);
    let next_tap = Kind::Star {
        node: Arc::clone(star),
        replica: None,
    };
    let next_tap = spawn(next_tap, T::another(out), run, t);
    build(body, next_tap, run, t)
}

/// The chain a loop runs: its star's head, which is the whole body.
fn head(star: &StarNode) -> &[ChainStage] {
    star.head.as_deref().expect("a loop's star has a head")
}

/// A loop's step over a batch, one round per tap of the unfolded
/// pipeline: the records that match the exit leave on `out`, and the
/// rest go round the head, stage-major in one chain step, until none
/// are left. A round deeper than any this instance has run counts the
/// unfolding the taps would have made, so the trace reads the same at
/// either grain. The run's abort flag and deadline are polled once per
/// round: a record that never exits does not pin a worker past a
/// cancel or a deadline.
fn spin<T: Transport>(
    node: &StarNode,
    rounds: &mut u64,
    out: &mut T::Port,
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    config: &EngineConfig,
    t: &mut T,
) -> Result<(), SnetError> {
    let mut stayers = pool::PooledVec::take();
    let mut next = pool::PooledVec::take();
    let mut exit_or_stay = |rec: Record, stayers: &mut Vec<Record>| {
        if node.exit.matches(&rec) {
            t.send(out, rec);
        } else {
            stayers.push(rec);
        }
    };
    recs.into_iter()
        .for_each(|rec| exit_or_stay(rec, &mut stayers));
    let mut round = 0;
    while !stayers.is_empty() && !run.should_stop() {
        round += 1;
        if round > *rounds {
            *rounds = round;
            Trace::add(&run.trace.star_unfoldings, 1);
        }
        chain_step(head(node), stayers.drain(..), run, config, |rec| {
            exit_or_stay(rec, &mut next)
        })?;
        std::mem::swap(&mut stayers, &mut next);
    }
    Ok(())
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
/// drained to `emit`, a failure is dropped by `step_batch`.
fn chain_step(
    stages: &[ChainStage],
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    config: &EngineConfig,
    emit: impl FnMut(Record),
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
        &mut |dl| run.divert(*dl),
    );
    run.trace.count_chain(&tally);
    if res.is_ok() {
        scratch.outs.drain(..).for_each(emit);
    }
    SCRATCH.set(Some(scratch));
    res
}
