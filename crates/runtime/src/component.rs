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
//! and split replicas, the loop a star whose body runs inline runs in
//! place of its taps, and the inline branches a parallel runs in place
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
//!   its branches it runs itself; each star's exit pattern and the body
//!   its taps build (or the body its loop runs); each split's body and
//!   tag;
//! * **per instance** (in `Kind`): one `Arc` pointer into the tree plus
//!   the instance's own state — output ports, a synchrocell's slots,
//!   the replicas unfolded so far, a loop's deepest round and its
//!   body's state, a parallel's branch list. The state of a subnet a
//!   component runs inline (`Inline`) is a small tree of the compiled
//!   node's shape holding only its cells' slots and its parallels'
//!   branch lists. A chain has no state of its own;
//! * **per thread** (`SCRATCH`): the buffers a chain step works
//!   in, so a standalone box costs an instance nothing a pointer does
//!   not.
//!
//! [`build`] and the unfoldings a [`Component::step`] makes therefore
//! copy reference counts, never a spec: fused, an unfolding of the
//! star body `((inc ! <k>) | []) .. dec`, whose split keeps the star's
//! taps, is 5 heap allocations (four tasks: the parallel, which runs
//! `[]` itself, the split, `dec` and the next tap; and the parallel's
//! branch list), whatever the size of the signatures and templates
//! inside (pinned by `tests/alloc_steady.rs`, timed by `bench_unfold`'s
//! `tap` shape). A star whose body runs inline, such as
//! `(inc | []) .. dec`, is a loop and unfolds nothing: a round of it
//! allocates nothing, and a round of a body with a cell (Fig 3's
//! merger) allocates only that round's state, 3 allocations for the
//! merger's shape (pinned there too).
//!
//! [`crate::Interp`] deliberately does not use the tree: it is the
//! reference the engine is tested against, so it stays an independent
//! implementation that walks the `NetSpec` itself.

use crate::config::EngineConfig;
use crate::run::Run;
use crate::trace::Trace;
use snet_core::fault;
use snet_core::fusion::{LoopNode, Node, ParNode, SplitNode, StarNode};
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
    /// A chain (a run of boxes and filters: each record crosses every
    /// stage inside one step; stateless, so the instance is the
    /// pointer) or a synchrocell.
    Inline(Inline),
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
    /// next tap.
    Star {
        node: Arc<StarNode>,
        replica: Option<P>,
    },
    /// A star whose body runs inline ([`Node::Loop`]): every replica
    /// would run the same subnet, so the unfolded pipeline of taps is
    /// one component that loops. Exits leave on `out` after every
    /// round; the rest go round the body again. `rounds` is the deepest
    /// round this instance has run: the replicas the taps would have
    /// unfolded. `states` holds the body's state: one, built with the
    /// component, that every round shares, or, for a body with a
    /// synchrocell ([`LoopNode::stateful`]), one per round, each later
    /// one built when its round is first reached, as its replica would
    /// have been.
    Loop {
        node: Arc<LoopNode>,
        rounds: u64,
        states: Vec<Inline>,
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
    /// A subnet the dispatcher runs itself.
    Inline(Held),
}

/// The per-instance state of a subnet a component steps itself
/// ([`snet_core::fusion::runs_inline`]), a tree of the compiled node's
/// shape: a chain or a cell standing alone, a loop's body, or a
/// parallel's inline branch. A batch goes through it stage-major, with
/// no mailbox inside.
enum Inline {
    Chain(Arc<[ChainStage]>),
    Sync {
        spec: Arc<SyncSpec>,
        st: SyncState,
    },
    /// A serial spine, flattened, in pipeline order.
    Serial(Vec<Inline>),
    /// A parallel all of whose branches run inline.
    Par {
        node: Arc<ParNode>,
        branches: Vec<Held>,
    },
}

/// An inline branch of a parallel. `recs` collects what a batch
/// dispatched to it (a buffer from [`pool`], returned when the batch
/// has run through the branch); empty between batches.
struct Held {
    body: Inline,
    recs: Option<pool::PooledVec>,
}

/// Recursively instantiates `node` feeding `output`, back to front, and
/// returns the subnet's input port.
pub fn build<T: Transport>(node: &Node, output: T::Port, run: &Run, t: &mut T) -> T::Port {
    let kind = match node {
        Node::Chain(_) | Node::Sync(_) => Kind::Inline(Inline::new(node)),
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
                .map(|(branch, &inline)| match inline {
                    true => Branch::Inline(Held::new(branch)),
                    false => Branch::Port(build(branch, T::another(&output), run, t)),
                })
                .collect(),
            node: Arc::clone(par),
        },
        Node::Star(star) => Kind::Star {
            node: Arc::clone(star),
            replica: None,
        },
        Node::Loop(lp) => Kind::Loop {
            states: vec![Inline::new(&lp.body)],
            node: Arc::clone(lp),
            rounds: 0,
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
            Kind::Inline(body) => body.step(recs, run, config, |rec| t.send(out, rec)),
            Kind::Par { node, branches } => dispatch(node, branches, out, recs, run, config, t),
            Kind::Star { node, replica } => {
                tap(node, replica, out, recs, run, t);
                Ok(())
            }
            Kind::Loop {
                node,
                rounds,
                states,
            } => spin(node, rounds, states, out, recs, run, config, t),
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

    /// Observes end-of-stream: counts the records stranded in its
    /// synchrocells (its own, or those of the subnets it runs inline)
    /// and hands every output port to `close` (the ports of the
    /// branches not run inline in declaration order, or replica ports
    /// in ascending tag order, first, the primary output last — a fixed
    /// order, so a transport that logs its events logs the same
    /// teardown every run).
    pub fn end_of_stream(self, run: &Run, mut close: impl FnMut(P)) {
        // Counted before any port closes: the run's last close is what
        // lets its driver read the trace.
        Trace::add(&run.trace.components_finalized, 1);
        let mut stranded = 0;
        match self.kind {
            Kind::Inline(body) => stranded = body.stranded(),
            Kind::Loop { states, .. } => stranded = states.iter().map(Inline::stranded).sum(),
            Kind::Par { branches, .. } => branches.into_iter().for_each(|branch| match branch {
                Branch::Port(port) => close(port),
                Branch::Inline(held) => stranded += held.body.stranded(),
            }),
            Kind::Star { replica, .. } => replica.into_iter().for_each(&mut close),
            Kind::Split { replicas, .. } => {
                let mut replicas: Vec<_> = replicas.into_iter().collect();
                replicas.sort_unstable_by_key(|&(tag, _)| tag);
                replicas.into_iter().for_each(|(_, port)| close(port));
            }
        }
        if stranded > 0 {
            Trace::add(&run.trace.sync_stranded, stranded);
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
            Kind::Inline(_) | Kind::Loop { .. } => {}
        }
        f(&mut self.out);
    }

    /// The port whose backlog holds this component back: the output of
    /// a chain, a loop, a synchrocell or a parallel that runs a branch
    /// inline. Pure dispatchers (trivial work, many outputs) are never
    /// held back.
    pub(crate) fn held_back_by(&self) -> Option<&P> {
        match &self.kind {
            Kind::Inline(_) | Kind::Loop { .. } => Some(&self.out),
            Kind::Par { node, .. } if node.inline.contains(&true) => Some(&self.out),
            Kind::Star { .. } | Kind::Par { .. } | Kind::Split { .. } => None,
        }
    }

    /// A short name for the component instance (the simulator's process
    /// names). A chain is named for what is in it: its one stage, or its
    /// ends and length; a loop, and a parallel that runs branches
    /// inline, for the subnets they run.
    pub fn label(&self) -> String {
        match &self.kind {
            Kind::Inline(body) => body.label(),
            Kind::Par { branches, .. } => branches
                .iter()
                .filter_map(|branch| match branch {
                    Branch::Inline(held) => Some(held.body.label()),
                    Branch::Port(_) => None,
                })
                .fold("par-dispatch".into(), |label, body| label + "+" + &body),
            Kind::Star { .. } => "star-tap".into(),
            Kind::Loop { states, .. } => format!("star-loop+{}", states[0].label()),
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

impl Inline {
    /// The state of a fresh instance of `node`, which must run inline.
    fn new(node: &Node) -> Inline {
        match node {
            Node::Chain(stages) => Inline::Chain(Arc::clone(stages)),
            Node::Sync(spec) => Inline::Sync {
                st: spec.new_state(),
                spec: Arc::clone(spec),
            },
            Node::Serial(..) => {
                fn flatten(node: &Node, spine: &mut Vec<Inline>) {
                    match node {
                        Node::Serial(a, b) => {
                            flatten(a, spine);
                            flatten(b, spine);
                        }
                        other => spine.push(Inline::new(other)),
                    }
                }
                let mut spine = Vec::new();
                flatten(node, &mut spine);
                Inline::Serial(spine)
            }
            Node::Par(par) => Inline::Par {
                branches: par.branches.iter().map(Held::new).collect(),
                node: Arc::clone(par),
            },
            Node::Star(_) | Node::Loop(_) | Node::Split(_) | Node::At { .. } => {
                unreachable!("compile runs no replicating or placed node inline")
            }
        }
    }

    /// Runs a batch through the subnet, stage-major, handing its
    /// outputs to `emit`. A chain is stepped with `emit` as it is
    /// given, so a body or a branch that is one chain makes the very
    /// call a chain component makes; the parts of anything else are
    /// stepped through `&mut dyn FnMut`, which keeps the recursion to a
    /// few instances.
    fn step(
        &mut self,
        recs: impl IntoIterator<Item = Record>,
        run: &Run,
        config: &EngineConfig,
        mut emit: impl FnMut(Record),
    ) -> Result<(), SnetError> {
        match self {
            Inline::Chain(stages) => chain_step(stages, recs, run, config, emit),
            Inline::Sync { spec, st } => {
                for rec in recs {
                    sync_step(spec, st, rec, run, &mut emit);
                }
                Ok(())
            }
            Inline::Serial(spine) => serial_step(spine, recs, run, config, &mut emit),
            Inline::Par { node, branches } => {
                for rec in recs {
                    let Some(i) = semantics::best_branch(&node.patterns, &rec) else {
                        mismatch(rec, run, config, &mut emit)?;
                        continue;
                    };
                    Trace::add(&run.trace.dispatched, 1);
                    branches[i].hold(rec);
                }
                let emit: &mut dyn FnMut(Record) = &mut emit;
                branches
                    .iter_mut()
                    .try_for_each(|branch| branch.run(run, config, &mut *emit))
            }
        }
    }

    /// The name of the subnet: its chains and cells, composed as
    /// written (`a..b`, `(a|b)`).
    fn label(&self) -> String {
        match self {
            Inline::Chain(stages) => chain_label(stages),
            Inline::Sync { .. } => "sync".into(),
            Inline::Serial(spine) => {
                let spine: Vec<String> = spine.iter().map(Inline::label).collect();
                spine.join("..")
            }
            Inline::Par { branches, .. } => {
                let branches: Vec<String> = branches.iter().map(|b| b.body.label()).collect();
                format!("({})", branches.join("|"))
            }
        }
    }

    /// The records stranded in the subnet's synchrocells.
    fn stranded(&self) -> u64 {
        match self {
            Inline::Chain(_) => 0,
            Inline::Sync { st, .. } => st.pending().count() as u64,
            Inline::Serial(spine) => spine.iter().map(Inline::stranded).sum(),
            Inline::Par { branches, .. } => branches.iter().map(|b| b.body.stranded()).sum(),
        }
    }
}

/// Runs a batch through a serial spine, stage-major: each element's
/// outputs are collected (in a buffer from [`pool`]) and handed to the
/// next as one batch.
fn serial_step(
    spine: &mut [Inline],
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    config: &EngineConfig,
    emit: &mut dyn FnMut(Record),
) -> Result<(), SnetError> {
    let [first, rest @ ..] = spine else {
        unreachable!("a serial spine has two elements or more")
    };
    if rest.is_empty() {
        return first.step(recs, run, config, emit);
    }
    let mut mid = pool::PooledVec::take();
    first.step(recs, run, config, |rec| mid.push(rec))?;
    serial_step(rest, mid.drain(..), run, config, emit)
}

impl Held {
    fn new(branch: &Node) -> Held {
        Held {
            body: Inline::new(branch),
            recs: None,
        }
    }

    fn hold(&mut self, rec: Record) {
        self.recs
            .get_or_insert_with(pool::PooledVec::take)
            .push(rec);
    }

    /// Runs what the batch dispatched here through the branch, onto
    /// `emit`, and returns the buffer.
    fn run(
        &mut self,
        run: &Run,
        config: &EngineConfig,
        emit: impl FnMut(Record),
    ) -> Result<(), SnetError> {
        match self.recs.take() {
            Some(mut recs) => self.body.step(recs.drain(..), run, config, emit),
            None => Ok(()),
        }
    }
}

/// A synchrocell's step for one record: stored, or fired (the merged
/// record goes to `emit`), or passed on by a cell that has fired.
fn sync_step(
    spec: &SyncSpec,
    st: &mut SyncState,
    rec: Record,
    run: &Run,
    emit: impl FnOnce(Record),
) {
    match st.push(spec, rec) {
        SyncOutcome::Stored => Trace::add(&run.trace.sync_stores, 1),
        SyncOutcome::Fired(merged) => {
            Trace::add(&run.trace.sync_fires, 1);
            emit(merged);
        }
        SyncOutcome::Passed(rec) => emit(rec),
    }
}

/// A parallel's step for a record that matches none of its branches:
/// passed on to `pass` or rejected, as the mismatch policy says.
fn mismatch(
    rec: Record,
    run: &Run,
    config: &EngineConfig,
    pass: impl FnOnce(Record),
) -> Result<(), SnetError> {
    match config.mismatch {
        MismatchPolicy::Forward => {
            Trace::add(&run.trace.passthroughs, 1);
            pass(rec);
            Ok(())
        }
        MismatchPolicy::Error => {
            let cause = SnetError::TypeMismatch {
                expected: "any parallel branch".into(),
                got: format!("{rec:?}"),
            };
            fault::reject(config.policy, "par-dispatch", &run.seq, rec, cause)
                .and_then(|dl| run.divert(*dl))
        }
    }
}

/// A parallel's step over a batch: each record goes to its best-match
/// branch, in declaration order on a tie; one that matches none goes
/// to [`mismatch`]. A record for a branch with a port is sent there at
/// once; the records for a branch run inline are held until the batch
/// is dispatched and then go through it in one step (the policy, names
/// and tally its own components would have used), onto `out`.
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
            mismatch(rec, run, config, |rec| t.send(out, rec))?;
            continue;
        };
        Trace::add(&run.trace.dispatched, 1);
        match &mut branches[i] {
            Branch::Port(port) => t.send(port, rec),
            Branch::Inline(held) => held.hold(rec),
        }
    }
    for branch in branches {
        if let Branch::Inline(held) = branch {
            held.run(run, config, |rec| t.send(out, rec))?;
        }
    }
    Ok(())
}

/// A tap's step over a batch: exits leave on `out`, the first stayer
/// unfolds the replica, and the stayers go to it. A star whose body
/// runs inline has no taps: it is a [`Kind::Loop`] (see [`spin`]).
fn tap<T: Transport>(
    node: &Arc<StarNode>,
    replica: &mut Option<T::Port>,
    out: &mut T::Port,
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    t: &mut T,
) {
    for rec in recs {
        if node.exit.matches(&rec) {
            t.send(out, rec);
        } else {
            let port = replica.get_or_insert_with(|| unfold(node, out, run, t));
            t.send(port, rec);
        }
    }
}

/// Unfolds one replica behind a tap exiting on `out`: the body,
/// feeding the next tap, which shares `out`.
fn unfold<T: Transport>(star: &Arc<StarNode>, out: &T::Port, run: &Run, t: &mut T) -> T::Port {
    Trace::add(&run.trace.star_unfoldings, 1);
    let next_tap = Kind::Star {
        node: Arc::clone(star),
        replica: None,
    };
    let next_tap = spawn(next_tap, T::another(out), run, t);
    build(&star.body, next_tap, run, t)
}

/// A loop's step over a batch, one round per tap of the unfolded
/// pipeline: the records that match the exit leave on `out`, and the
/// rest go round the body, stage-major in one step, until none are
/// left. A round deeper than any this instance has run counts the
/// unfolding the taps would have made, so the trace reads the same at
/// either grain, and for a body with a synchrocell builds the round's
/// state. The run's abort flag and deadline are polled once per round:
/// a record that never exits does not pin a worker past a cancel or a
/// deadline.
#[allow(clippy::too_many_arguments)] // a component step's context, and the loop's state
fn spin<T: Transport>(
    node: &LoopNode,
    rounds: &mut u64,
    states: &mut Vec<Inline>,
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
            if node.stateful && round > 1 {
                states.push(Inline::new(&node.body));
            }
        }
        let state = match node.stateful {
            true => &mut states[round as usize - 1],
            false => &mut states[0],
        };
        state.step(stayers.drain(..), run, config, |rec| {
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
