//! The component layer the engine and the simulator share: what a
//! subnet a component steps itself (a chain, the one stateless leaf: a
//! run of one or more boxes and filters; a synchrocell; a split, which
//! routes), a parallel dispatcher, a star's loop or a star's round does
//! to one record, written once over an abstract [`Transport`].
//!
//! A transport contributes only what a port is, how a record is put on
//! one, and how a component gets something to run on. There are two:
//! the scheduled engine's `TaskCx` (`sched::task`: a scheduler task, a
//! mailbox) and `snet-dist`'s simulated cluster (a discrete-event
//! process on a named node, a queue whose sends cost virtual time).
//! Everything semantic lives here: the failure policy around each step,
//! the trace counters, best-match dispatch, the lazy unfolding of star
//! rounds and split replicas, the loop a star whose body runs inline
//! runs in place of its rounds, and the inline branches a parallel runs
//! in place of their components. This is the only code outside the
//! interpreter that calls [`ChainRunner`] (which owns the failure policy
//! around every box and filter step), [`fault::reject`],
//! [`semantics::best_branch`] or bumps a [`Trace`] counter, so a
//! simulated run of a topology agrees with a real one on every count by
//! construction (`tests/sim_vs_engine.rs` checks it).
//!
//! There are four kinds of component. `Inline` steps a subnet standing
//! alone: a chain, a cell, a split, or the whole body of a split
//! replica when it is a serial spine that runs or routes inline
//! ([`SplitNode::inline`]). `Par` dispatches to its
//! branches, running those that run or route inline itself. `Loop` is a
//! star whose body runs inline. `Round` is one round of any other star:
//! the tail of the round before, the exit test, and the head, which it
//! runs itself when the head routes inline ([`StarNode`]); unfused, a
//! round is the tap of §III.
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
//!   its branches it runs itself; each star's exit pattern and the head
//!   and tail its rounds run or build (or the body its loop runs); each
//!   split's body and tag;
//! * **per instance** (in `Kind`): one `Arc` pointer into the tree plus
//!   the instance's own state — output ports, a synchrocell's slots,
//!   a split's replicas built so far, a loop's deepest round and its
//!   body's state, a round's next round, a parallel's branch list. The
//!   state of a subnet a component runs inline (`Inline`) is a small
//!   tree of the compiled node's shape holding only its cells' slots,
//!   its splits' replica ports and its parallels' branch lists. A chain
//!   has no state of its own;
//! * **per thread** (`SCRATCH`): the buffers a chain step works
//!   in, so a standalone box costs an instance nothing a pointer does
//!   not.
//!
//! [`build`] and the unfoldings a [`Component::step`] makes therefore
//! copy reference counts, never a spec: fused, an unfolding of the
//! star body `((inc ! <k>) | []) .. dec`, whose split makes it a round
//! per replica, is 2 heap allocations (the next round's task and its
//! head's branch list; the split's replica map allocates only when it
//! builds a replica), whatever the size of the signatures and
//! templates inside (pinned by `tests/alloc_steady.rs`, timed by
//! `bench_unfold`'s `tap` shape). A star whose body runs inline, such
//! as `(inc | []) .. dec`, is a loop and unfolds nothing: a round of it
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
use std::collections::BTreeMap;
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
    /// A subnet the component steps itself, standing alone: a chain (a
    /// run of boxes and filters: each record crosses every stage inside
    /// one step; stateless, so the instance is the pointer), a
    /// synchrocell, or a split, which routes each record to the replica
    /// for its tag value; or a split replica whose body is a serial
    /// spine that runs or routes inline ([`SplitNode::inline`]), which
    /// steps the spine stage-major with no hand-off inside.
    Inline(Inline<P>),
    /// A parallel dispatcher: each record goes to its best-matching
    /// branch. A branch that [`ParNode::inline`] marks runs here,
    /// stage-major over the records a batch dispatched to it, onto
    /// `out`, the merged stream every branch writes (a split in it
    /// builds its replicas onto `out`); the others are components of
    /// their own behind a port.
    Par {
        node: Arc<ParNode>,
        branches: Vec<Branch<P>>,
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
        states: Vec<Inline<P>>,
    },
    /// Round `r` of any other star ([`StarNode`]): the tail of round
    /// `r - 1` (none in round 1), then the exit test before the head
    /// (§III: "the chain is tapped before every replica"; matching
    /// records leave on `out`), then, for the rest, the head of round
    /// `r`. A head that routes inline runs here, onto round `r + 1`,
    /// its split replicas built onto round `r + 1` too; any other head
    /// is built in front of round `r + 1`. `next` is where the stayers
    /// go, built with the first of them. Unfused there is no tail and
    /// no head runs here: the round is a tap.
    Round {
        node: Arc<StarNode>,
        tail: Option<Inline<P>>,
        head: Option<Inline<P>>,
        next: Option<P>,
    },
}

/// One branch of a parallel instance.
enum Branch<P> {
    /// Built as components of its own; records are sent to its input.
    Port(P),
    /// A subnet the dispatcher runs itself.
    Inline(Held<P>),
}

/// The per-instance state of a subnet a component steps itself
/// ([`snet_core::fusion::runs_inline`] and
/// [`snet_core::fusion::routes_inline`]), a tree of the compiled node's
/// shape: a chain, a cell or a split standing alone, a split replica's
/// spine, a loop's body, a round's tail or head, or a parallel's inline
/// branch. A batch goes through it stage-major, with no mailbox inside.
enum Inline<P> {
    Chain(Arc<[ChainStage]>),
    Sync {
        spec: Arc<SyncSpec>,
        st: SyncState,
    },
    /// A serial spine, flattened, in pipeline order.
    Serial(Vec<Inline<P>>),
    /// A parallel all of whose branches run or route inline.
    Par {
        node: Arc<ParNode>,
        branches: Vec<Held<P>>,
    },
    /// A split: each record goes to the replica for its tag value,
    /// built on first use onto the subnet's output. It holds no record,
    /// so it needs no component of its own; its replicas are
    /// components.
    Router {
        node: Arc<SplitNode>,
        replicas: BTreeMap<i64, P>,
    },
}

/// An inline branch of a parallel. `recs` collects what a batch
/// dispatched to it (a buffer from [`pool`], returned when the batch
/// has run through the branch); empty between batches.
struct Held<P> {
    body: Inline<P>,
    recs: Option<pool::PooledVec>,
}

/// Recursively instantiates `node` feeding `output`, back to front, and
/// returns the subnet's input port.
pub fn build<T: Transport>(node: &Node, output: T::Port, run: &Run, t: &mut T) -> T::Port {
    let kind = match node {
        Node::Chain(_) | Node::Sync(_) | Node::Split(_) => Kind::Inline(Inline::new(node)),
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
        Node::Star(star) => round(star, true),
        Node::Loop(lp) => Kind::Loop {
            states: vec![Inline::new(&lp.body)],
            node: Arc::clone(lp),
            rounds: 0,
        },
        // Not a component: the body, built where the transport puts it.
        Node::At { body, node } => {
            return t.at(i64::from(*node), |t| build(body, output, run, t));
        }
    };
    spawn(kind, output, run, t)
}

/// A round of `star`: with the state of the round before's tail unless
/// it is the `first`, and the state of its own head when the head runs
/// in it.
fn round<P>(star: &Arc<StarNode>, first: bool) -> Kind<P> {
    Kind::Round {
        tail: star.tail.as_ref().filter(|_| !first).map(Inline::new),
        head: star.routes.then(|| Inline::new(&star.head)),
        node: Arc::clone(star),
        next: None,
    }
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

    /// Applies a claimed hand-off batch. Every kind takes it whole (a
    /// chain step is stage-major: one panic guard and one buffer reset
    /// per batch); synchrocells and splits step record-at-a-time
    /// inside it.
    pub(crate) fn step_batch<T: Transport<Port = P>>(
        &mut self,
        recs: impl IntoIterator<Item = Record>,
        run: &Run,
        config: &EngineConfig,
        t: &mut T,
    ) -> Result<(), SnetError> {
        let out = &mut self.out;
        match &mut self.kind {
            Kind::Inline(body) => body.route(recs, run, config, t, out),
            Kind::Par { node, branches } => dispatch(node, branches, out, recs, run, config, t),
            Kind::Loop {
                node,
                rounds,
                states,
            } => spin(node, rounds, states, out, recs, run, config, t),
            Kind::Round {
                node,
                tail,
                head,
                next,
            } => turn(node, tail, head, next, out, recs, run, config, t),
        }
    }

    /// Observes end-of-stream: counts the records stranded in its
    /// synchrocells (its own, or those of the subnets it runs inline)
    /// and hands every output port to `close` (the ports of the
    /// branches not run inline in declaration order, replica ports in
    /// ascending tag order, and a round's next round, first, the
    /// primary output last — a fixed order, so a transport that logs
    /// its events logs the same teardown every run).
    pub fn end_of_stream(self, run: &Run, mut close: impl FnMut(P)) {
        // Counted before any port closes: the run's last close is what
        // lets its driver read the trace.
        Trace::add(&run.trace.components_finalized, 1);
        let close: &mut dyn FnMut(P) = &mut close;
        let stranded: u64 = match self.kind {
            Kind::Inline(body) => body.retire(close),
            Kind::Loop { states, .. } => states.into_iter().map(|s| s.retire(close)).sum(),
            Kind::Par { branches, .. } => branches
                .into_iter()
                .map(|branch| match branch {
                    Branch::Port(port) => {
                        close(port);
                        0
                    }
                    Branch::Inline(held) => held.body.retire(close),
                })
                .sum(),
            Kind::Round {
                tail, head, next, ..
            } => {
                let stranded = tail.into_iter().chain(head).map(|s| s.retire(close)).sum();
                next.into_iter().for_each(&mut *close);
                stranded
            }
        };
        if stranded > 0 {
            Trace::add(&run.trace.sync_stranded, stranded);
        }
        close(self.out);
    }

    /// Visits every output port (branch, replica and next-round ports
    /// first, the primary output last).
    pub(crate) fn for_each_port(&mut self, mut f: impl FnMut(&mut P)) {
        let f: &mut dyn FnMut(&mut P) = &mut f;
        match &mut self.kind {
            Kind::Inline(body) => body.for_each_port(f),
            Kind::Par { branches, .. } => branches.iter_mut().for_each(|branch| match branch {
                Branch::Port(port) => f(port),
                Branch::Inline(held) => held.body.for_each_port(f),
            }),
            Kind::Loop { .. } => {}
            Kind::Round { head, next, .. } => {
                if let Some(head) = head {
                    head.for_each_port(f);
                }
                next.iter_mut().for_each(&mut *f);
            }
        }
        f(&mut self.out);
    }

    /// The port whose backlog holds this component back: the output of
    /// a chain, a loop, a synchrocell, a split replica's spine or a
    /// parallel that runs a branch inline, and the next round of a round
    /// that runs its tail or its head. Pure dispatchers (trivial work,
    /// many outputs: a split standing alone, a tap) are never held back.
    pub(crate) fn held_back_by(&self) -> Option<&P> {
        match &self.kind {
            Kind::Inline(Inline::Router { .. }) => None,
            Kind::Inline(_) | Kind::Loop { .. } => Some(&self.out),
            Kind::Par { node, .. } if node.inline.contains(&true) => Some(&self.out),
            Kind::Par { .. } => None,
            Kind::Round {
                tail: None,
                head: None,
                ..
            } => None,
            Kind::Round { next, .. } => next.as_ref(),
        }
    }

    /// A short name for the component instance (the simulator's process
    /// names). A chain is named for what is in it: its one stage, or its
    /// ends and length; a loop, a round, and a parallel that runs
    /// branches inline, for the subnets they run. A round that runs
    /// nothing inline is a tap.
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
            Kind::Loop { states, .. } => format!("star-loop+{}", states[0].label()),
            Kind::Round { node, .. } if node.tail.is_none() && !node.routes => "star-tap".into(),
            Kind::Round { tail, head, .. } => {
                let parts: Vec<String> = tail.iter().chain(head).map(Inline::label).collect();
                match parts.is_empty() {
                    true => "star-round".into(),
                    false => format!("star-round+{}", parts.join("..")),
                }
            }
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

impl<P> Inline<P> {
    /// The state of a fresh instance of `node`, which must run or route
    /// inline.
    fn new(node: &Node) -> Inline<P> {
        match node {
            Node::Chain(stages) => Inline::Chain(Arc::clone(stages)),
            Node::Sync(spec) => Inline::Sync {
                st: spec.new_state(),
                spec: Arc::clone(spec),
            },
            Node::Serial(..) => {
                fn flatten<P>(node: &Node, spine: &mut Vec<Inline<P>>) {
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
            Node::Split(split) => Inline::Router {
                node: Arc::clone(split),
                replicas: BTreeMap::new(),
            },
            Node::Star(_) | Node::Loop(_) | Node::At { .. } => {
                unreachable!("compile runs no star and no placed subnet inline")
            }
        }
    }

    /// Runs a batch through a subnet that runs inline, stage-major,
    /// handing its outputs to `emit`. A chain is stepped with `emit` as
    /// it is given, so a body or a branch that is one chain makes the
    /// very call a chain component makes; the parts of anything else
    /// are stepped through `&mut dyn FnMut`, which keeps the recursion
    /// to a few instances.
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
                hold(node, branches, recs, run, config, &mut emit)?;
                let emit: &mut dyn FnMut(Record) = &mut emit;
                branches
                    .iter_mut()
                    .try_for_each(|branch| branch.run(run, config, &mut *emit))
            }
            Inline::Router { .. } => unreachable!("compile runs a split only where it routes"),
        }
    }

    /// Runs a batch through a subnet that runs or routes inline,
    /// stage-major, onto `out`: what reaches a split goes to its
    /// replica for the record's tag value, built on first use onto
    /// `out`; every other output is sent to `out`.
    fn route<T: Transport<Port = P>>(
        &mut self,
        recs: impl IntoIterator<Item = Record>,
        run: &Run,
        config: &EngineConfig,
        t: &mut T,
        out: &mut P,
    ) -> Result<(), SnetError> {
        match self {
            Inline::Router { node, replicas } => recs
                .into_iter()
                .try_for_each(|rec| split_step(node, replicas, rec, out, run, config, t)),
            // Only the last element of a spine routes.
            Inline::Serial(spine) => {
                let (last, init) = spine.split_last_mut().expect("a spine is not empty");
                let mut mid = pool::PooledVec::take();
                serial_step(init, recs, run, config, &mut |rec| mid.push(rec))?;
                last.route(mid.drain(..), run, config, t, out)
            }
            Inline::Par { node, branches } => {
                hold(node, branches, recs, run, config, |rec| t.send(out, rec))?;
                branches
                    .iter_mut()
                    .try_for_each(|branch| branch.route(run, config, t, out))
            }
            Inline::Chain(_) | Inline::Sync { .. } => {
                self.step(recs, run, config, |rec| t.send(out, rec))
            }
        }
    }

    /// The name of the subnet: its chains, cells and splits, composed
    /// as written (`a..b`, `(a|b)`).
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
            Inline::Router { .. } => "split-dispatch".into(),
        }
    }

    /// Visits the ports of the replicas its splits have built.
    fn for_each_port(&mut self, f: &mut dyn FnMut(&mut P)) {
        match self {
            Inline::Chain(_) | Inline::Sync { .. } => {}
            Inline::Serial(spine) => spine.iter_mut().for_each(|part| part.for_each_port(f)),
            Inline::Par { branches, .. } => {
                branches.iter_mut().for_each(|b| b.body.for_each_port(f));
            }
            Inline::Router { replicas, .. } => replicas.values_mut().for_each(f),
        }
    }

    /// Retires the subnet at end-of-stream: hands its replica ports to
    /// `close`, each split's in ascending tag order, and returns the
    /// records stranded in its synchrocells.
    fn retire(self, close: &mut dyn FnMut(P)) -> u64 {
        match self {
            Inline::Chain(_) => 0,
            Inline::Sync { st, .. } => st.pending().count() as u64,
            Inline::Serial(spine) => spine.into_iter().map(|part| part.retire(close)).sum(),
            Inline::Par { branches, .. } => {
                branches.into_iter().map(|b| b.body.retire(close)).sum()
            }
            Inline::Router { replicas, .. } => {
                replicas.into_values().for_each(close);
                0
            }
        }
    }
}

/// Runs a batch through a serial spine, stage-major: each element's
/// outputs are collected (in a buffer from [`pool`]) and handed to the
/// next as one batch.
fn serial_step<P>(
    spine: &mut [Inline<P>],
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

/// An inline parallel's dispatch over a batch: each record is held for
/// its best-match branch, in declaration order on a tie; one that
/// matches none goes to [`mismatch`], passed on to `pass`.
fn hold<P>(
    node: &ParNode,
    branches: &mut [Held<P>],
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    config: &EngineConfig,
    mut pass: impl FnMut(Record),
) -> Result<(), SnetError> {
    for rec in recs {
        let Some(i) = semantics::best_branch(&node.patterns, &rec) else {
            mismatch(rec, run, config, &mut pass)?;
            continue;
        };
        Trace::add(&run.trace.dispatched, 1);
        branches[i].hold(rec);
    }
    Ok(())
}

impl<P> Held<P> {
    fn new(branch: &Node) -> Held<P> {
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

    /// [`Held::run`] for a branch that may route: onto `out`, through
    /// `t`.
    fn route<T: Transport<Port = P>>(
        &mut self,
        run: &Run,
        config: &EngineConfig,
        t: &mut T,
        out: &mut P,
    ) -> Result<(), SnetError> {
        match self.recs.take() {
            Some(mut recs) => self.body.route(recs.drain(..), run, config, t, out),
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

/// A split's step for one record: sent to the replica for its tag
/// value, which is built onto `out` (on the node the value names, for
/// `!@`) when the value is new. A record without the tag is rejected.
fn split_step<T: Transport>(
    node: &SplitNode,
    replicas: &mut BTreeMap<i64, T::Port>,
    rec: Record,
    out: &T::Port,
    run: &Run,
    config: &EngineConfig,
    t: &mut T,
) -> Result<(), SnetError> {
    let Some(value) = rec.tag(node.tag) else {
        let cause = SnetError::MissingTag(node.tag);
        return fault::reject(config.policy, "split-dispatch", &run.seq, rec, cause)
            .and_then(|dl| run.divert(*dl));
    };
    let port = replicas.entry(value).or_insert_with(|| {
        Trace::add(&run.trace.split_replicas, 1);
        // A marked body is one component that steps its whole spine.
        let replica = |t: &mut T| {
            let out = T::another(out);
            match node.inline {
                true => spawn(Kind::Inline(Inline::new(&node.body)), out, run, t),
                false => build(&node.body, out, run, t),
            }
        };
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
            held.route(run, config, t, out)?;
        }
    }
    Ok(())
}

/// A round's step over a batch: the records go through the tail of the
/// round before, if any; those that match the exit leave on `out`, and
/// the first of the rest unfolds the next round. A round that runs its
/// head steps the stayers through it, onto the next round; any other
/// sends each stayer on to the head built in front of the next round,
/// as it comes, as a tap does. A star whose body runs inline has no
/// rounds: it is a [`Kind::Loop`] (see [`spin`]).
#[allow(clippy::too_many_arguments)] // a component step's context, and the round's state
fn turn<T: Transport>(
    node: &Arc<StarNode>,
    tail: &mut Option<Inline<T::Port>>,
    head: &mut Option<Inline<T::Port>>,
    next: &mut Option<T::Port>,
    out: &mut T::Port,
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    config: &EngineConfig,
    t: &mut T,
) -> Result<(), SnetError> {
    let Some(head) = head else {
        return through(tail, recs, run, config, |rec| {
            if node.exit.matches(&rec) {
                t.send(out, rec);
            } else {
                let port = next.get_or_insert_with(|| unfold(node, out, run, t));
                t.send(port, rec);
            }
        });
    };
    let mut stayers = pool::PooledVec::take();
    through(tail, recs, run, config, |rec| {
        if node.exit.matches(&rec) {
            t.send(out, rec);
        } else {
            stayers.push(rec);
        }
    })?;
    if stayers.is_empty() {
        return Ok(());
    }
    let next = next.get_or_insert_with(|| unfold(node, out, run, t));
    head.route(stayers.drain(..), run, config, t, next)
}

/// Runs a batch through a round's tail, if it has one, onto `emit`.
fn through<P>(
    tail: &mut Option<Inline<P>>,
    recs: impl IntoIterator<Item = Record>,
    run: &Run,
    config: &EngineConfig,
    emit: impl FnMut(Record),
) -> Result<(), SnetError> {
    match tail {
        Some(tail) => tail.step(recs, run, config, emit),
        None => {
            recs.into_iter().for_each(emit);
            Ok(())
        }
    }
}

/// Unfolds the round after one exiting on `out`: the next round, which
/// shares `out`, and, when the head does not run in a round, the head
/// built in front of it. Returns the port the round's stayers go to.
fn unfold<T: Transport>(star: &Arc<StarNode>, out: &T::Port, run: &Run, t: &mut T) -> T::Port {
    Trace::add(&run.trace.star_unfoldings, 1);
    let next = spawn(round(star, false), T::another(out), run, t);
    match star.routes {
        true => next,
        false => build(&star.head, next, run, t),
    }
}

/// A loop's step over a batch, one round per replica of the unfolded
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
    states: &mut Vec<Inline<T::Port>>,
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
