//! Compilation: one walk from the topology as written ([`NetSpec`]) to
//! the shared tree the engine and the simulator execute ([`Node`]), and
//! the one way a box or filter is run ([`ChainRunner`]).
//!
//! Boxes and filters are stateless SISO components, and serial
//! composition of stateless components is function composition:
//! nothing in the semantics requires a queue between them. So the
//! compiled tree has one stateless leaf, the [`Node::Chain`] — a run of
//! one or more boxes and filters executed as one component, each record
//! crossing every stage in place — and mailboxes remain exactly at the
//! boundaries where they carry semantics: synchrocells (stateful),
//! parallel dispatch (the merge of a branch that is more than one
//! chain), star taps, and index splits. How many
//! consecutive leaves share a chain is a **grain** choice made at
//! compile time (`fuse`: maximal runs, or one leaf per chain), the
//! compile-time grain-tuning the S-Net-vs-CnC study (arXiv:1305.7167)
//! treats as the compiler's business over one execution model; it
//! changes how many components a run builds and how many hand-offs a
//! record makes, and selects no code path. A star is still a boundary,
//! but fused, a star whose body is one chain is a [`Node::Loop`]: every
//! replica would run the same stateless chain, and the engine runs the
//! star as one component that loops through it, building no replica at
//! all. A parallel is a boundary as well, but fused, a branch that is
//! one chain ([`ParNode::inline`]) is run by the dispatcher itself,
//! onto the merged output every branch writes, and builds no component
//! of its own. A chain exists only in the compiled tree: a [`NetSpec`]
//! is always the network as its author wrote it, and the reference
//! interpreter, the analyzer and the
//! printer never see one. Placement (`@`, `!@`) survives compilation as
//! data — it changes nothing a record observes, only where the
//! `snet-dist` simulator, which instantiates this same tree at the
//! unfused grain, starts a subtree's processes.
//!
//! **Every stage is its own component as far as faults go** — the one
//! point of the coordination layer where failure policy is applied
//! (S+Net, arXiv:1306.2743). [`ChainRunner`] resolves the policy per
//! original [`BoxDef`] ([`BoxDef::effective_policy`]), mints dead
//! letters that name the original component (box name, or `"filter"`),
//! retries only the failing stage (with the record exactly as it
//! arrived *at that stage*), and tallies per stage — so the output, the
//! trace and the fault attribution of a run do not depend on the grain
//! (the `fusion_equivalence` suite), and chaos wrappers
//! (`snet_runtime::faultinject`) keep targeting individual stages
//! because they wrap the `BoxDef` itself.

use crate::boxdef::BoxDef;
use crate::fault::{self, DeadLetter, FailurePolicy, StepVerdict};
use crate::filter::FilterSpec;
use crate::label::Label;
use crate::pattern::Pattern;
use crate::record::Record;
use crate::semantics::{self, MismatchPolicy};
use crate::sync::SyncSpec;
use crate::topology::NetSpec;
use crate::SnetError;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// One stage of a chain: the stateless SISO components.
///
/// Synchrocells are SISO too but stateful (they are their own fusion
/// boundary), and combinators are not primitive — so a chain stage is
/// exactly a box or a filter.
#[derive(Clone, Debug)]
pub enum ChainStage {
    /// A user box, with its per-box policy override intact.
    Box(BoxDef),
    /// A filter.
    Filter(FilterSpec),
}

/// The compiled topology: what the engine keeps per network
/// and instantiate every run from. Immutable and shared — each leaf and
/// each replicating combinator sits behind an `Arc`, so creating a
/// component (at `start`, or when a star or split unfolds mid-run)
/// copies reference counts and nothing whose size depends on the
/// topology, and retiring one frees nothing but its own state.
/// Naming wrappers are gone; placement stays ([`Node::At`],
/// [`SplitNode::placed`]) for whoever instantiates the tree to hand to
/// its transport: the local engines have one node and ignore it, the
/// `snet-dist` simulator starts the subtree's processes where it says.
#[derive(Debug)]
pub enum Node {
    /// A serial run of one or more boxes/filters, executed as one
    /// component — the only stateless leaf. Maximal with `fuse` on,
    /// always of length 1 with it off.
    Chain(Arc<[ChainStage]>),
    /// A synchrocell.
    Sync(Arc<SyncSpec>),
    /// `A .. B`.
    Serial(Box<Node>, Box<Node>),
    /// `A | B | …`.
    Par(Arc<ParNode>),
    /// `A * exit`: a tap per replica, each built on demand.
    Star(Arc<StarNode>),
    /// `A * exit` with `fuse` on, where `A` compiles to one chain: one
    /// component that loops through it.
    Loop(Arc<LoopNode>),
    /// `A ! <tag>`.
    Split(Arc<SplitNode>),
    /// `A @ node`: `body`, placed. Not a component — instantiating it
    /// instantiates the body and nothing else.
    At {
        /// The placed subnet.
        body: Box<Node>,
        /// The node it names (a cluster wraps it to its size).
        node: u32,
    },
}

/// A compiled parallel composition.
#[derive(Debug)]
#[non_exhaustive]
pub struct ParNode {
    /// Branches in declaration order (tie-break order).
    pub branches: Vec<Node>,
    /// What each branch attracts, for best-match dispatch; derived from
    /// the branch topologies once, here, instead of per instantiation.
    pub patterns: Vec<Vec<Pattern>>,
    /// Per branch, with `fuse` on: whether its compiled form is one
    /// [`Node::Chain`], which the dispatcher runs itself, writing its
    /// outputs straight to the merged stream, instead of building the
    /// branch behind a port. Always `false` unfused.
    pub inline: Vec<bool>,
}

/// A compiled serial replication, unfolded a replica at a time.
#[derive(Debug)]
#[non_exhaustive]
pub struct StarNode {
    /// Exit pattern, checked before every replica.
    pub exit: Pattern,
    /// The body, built per replica behind a tap.
    pub body: Node,
}

/// A compiled serial replication whose body is one chain: every
/// replica would run the same stateless stages, so no replica is ever
/// built.
#[derive(Debug)]
#[non_exhaustive]
pub struct LoopNode {
    /// Exit pattern, checked before every round.
    pub exit: Pattern,
    /// The whole body, run once per round.
    pub stages: Arc<[ChainStage]>,
}

/// A compiled parallel replication.
#[derive(Debug)]
#[non_exhaustive]
pub struct SplitNode {
    /// The replicated body.
    pub body: Node,
    /// The index tag.
    pub tag: Label,
    /// `A !@ <tag>`: the tag value also names the node hosting the
    /// replica.
    pub placed: bool,
}

/// Compiles `spec` with fusion on: [`compile`]`(spec, true)`, the
/// engines' default.
pub fn fuse(spec: &NetSpec) -> Node {
    compile(spec, true)
}

/// Compiles a topology into its shared executable tree. Each leaf spec
/// is cloned once, behind its `Arc`; `spec` itself stays with the
/// caller as the network's description.
///
/// The walk is purely structural:
///
/// * serial spines are flattened and descriptive [`NetSpec::Named`]
///   wrappers are looked through (they carry no semantics);
/// * every box and filter becomes a stage of a [`Node::Chain`]. With
///   `fuse` on, consecutive box/filter elements of a spine share one
///   chain (maximal runs); with `fuse` off every chain has length 1 —
///   the topology runs exactly as written, one component per
///   primitive. `fuse` picks that grain (in `leaf`) and nothing else:
///   both settings execute through the same [`ChainRunner`];
/// * every other combinator ([`NetSpec::Sync`], [`NetSpec::Parallel`],
///   [`NetSpec::Star`], [`NetSpec::Split`], [`NetSpec::At`]) is a
///   fusion **boundary**: it ends the run before it, and its
///   body/branches are compiled recursively;
/// * with `fuse` on, a star whose compiled body is one chain becomes a
///   [`Node::Loop`] through that chain; nothing outside the star joins
///   it, and any other body is built per replica ([`Node::Star`]);
/// * with `fuse` on, every parallel branch whose compiled form is one
///   chain is marked ([`ParNode::inline`]): the dispatcher runs it on
///   the records it dispatches there. The branch keeps its chain and
///   its pattern, so dispatch itself does not change.
///
/// Either way the compiled network is observationally equivalent to
/// the original on every engine: same output multiset, same trace
/// counters, same fault attribution (see the `fusion_equivalence`
/// property suite).
pub fn compile(spec: &NetSpec, fuse: bool) -> Node {
    let mut spine = Vec::new();
    let mut run = Vec::new();
    walk(spec, fuse, &mut run, &mut spine);
    flush_run(&mut run, &mut spine);
    spine
        .into_iter()
        .reduce(|a, b| Node::Serial(Box::new(a), Box::new(b)))
        .expect("every topology has at least one element")
}

/// Appends the serial spine of `spec` to `spine`: leaves join the open
/// `run`, a boundary closes it and is compiled on its own.
fn walk(spec: &NetSpec, fuse: bool, run: &mut Vec<ChainStage>, spine: &mut Vec<Node>) {
    let boundary = match spec {
        NetSpec::Serial(a, b) => {
            walk(a, fuse, run, spine);
            return walk(b, fuse, run, spine);
        }
        NetSpec::Named { body, .. } => return walk(body, fuse, run, spine),
        NetSpec::Box(def) => return leaf(ChainStage::Box(def.clone()), fuse, run, spine),
        NetSpec::Filter(f) => return leaf(ChainStage::Filter(f.clone()), fuse, run, spine),
        NetSpec::Sync(cell) => Node::Sync(Arc::new(cell.clone())),
        NetSpec::Parallel { branches, .. } => {
            let patterns = branches.iter().map(|b| b.input_patterns()).collect();
            let branches: Vec<Node> = branches.iter().map(|b| compile(b, fuse)).collect();
            Node::Par(Arc::new(ParNode {
                patterns,
                inline: branches
                    .iter()
                    .map(|b| fuse && matches!(b, Node::Chain(_)))
                    .collect(),
                branches,
            }))
        }
        NetSpec::Star { body, exit, .. } => {
            let exit = exit.clone();
            match compile(body, fuse) {
                Node::Chain(stages) if fuse => Node::Loop(Arc::new(LoopNode { exit, stages })),
                body => Node::Star(Arc::new(StarNode { exit, body })),
            }
        }
        NetSpec::Split { body, tag, placed } => Node::Split(Arc::new(SplitNode {
            body: compile(body, fuse),
            tag: *tag,
            placed: *placed,
        })),
        NetSpec::At { body, node } => Node::At {
            body: Box::new(compile(body, fuse)),
            node: *node,
        },
    };
    flush_run(run, spine);
    spine.push(boundary);
}

/// Adds a leaf to the open run; unfused, the run ends with it. Beside
/// a star's loop and a parallel's inline branches, this is the one
/// place `fuse` is read.
fn leaf(stage: ChainStage, fuse: bool, run: &mut Vec<ChainStage>, spine: &mut Vec<Node>) {
    run.push(stage);
    if !fuse {
        flush_run(run, spine);
    }
}

/// Closes the open run, if any, into a chain.
fn flush_run(run: &mut Vec<ChainStage>, spine: &mut Vec<Node>) {
    if !run.is_empty() {
        spine.push(Node::Chain(run.drain(..).collect()));
    }
}

/// Trace deltas accumulated while a batch traverses a chain; engines
/// fold them into their own counters after each
/// [`ChainRunner::step_batch`], so the trace reads the same whatever
/// grain `fuse` picked.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChainTally {
    /// Records fed through box stages (matched only).
    pub box_records: u64,
    /// Abstract work reported by box stages.
    pub box_ops: u64,
    /// Records fed through filter stages (matched only).
    pub filter_records: u64,
    /// Records passed through a stage untouched (mismatch under the
    /// permissive policy).
    pub passthroughs: u64,
    /// Extra box invocations performed by the retry policy.
    pub retries: u64,
}

/// Reusable scratch state for driving records through a chain.
///
/// The two ping-pong buffers carry a batch between the stages of a
/// chain of two or more (a chain of one reads its input and writes its
/// output directly) and are reused across batches, so the steady-state
/// hot path allocates nothing beyond what the stages themselves
/// produce; both are empty between calls, whether the last batch
/// succeeded or failed. A runner belongs to whoever is stepping, not to
/// a chain — the engines keep one per thread — and [`new`] draws the
/// buffers from [`crate::pool`] and `Drop` returns them.
///
/// [`new`]: ChainRunner::new
#[derive(Debug, Default)]
pub struct ChainRunner {
    cur: Vec<Record>,
    next: Vec<Record>,
}

impl ChainRunner {
    /// Fresh runner; scratch buffers come from the buffer pool.
    pub fn new() -> ChainRunner {
        ChainRunner {
            cur: crate::pool::take_vec(),
            next: crate::pool::take_vec(),
        }
    }

    /// Drives a hand-off batch through `stages`, appending the chain's
    /// final outputs to `out` (nothing, if the batch fails).
    ///
    /// Every stage is its own component as far as faults go: the policy
    /// is resolved per original component (per-box override first,
    /// engine default otherwise), panics are contained and attributed
    /// to the stage that raised them, retries re-run only the failing
    /// stage on the record as it arrived there, and diverted records go
    /// to `divert` carrying the original component name. A fatal
    /// verdict aborts the whole chain and with it the run. Counter
    /// deltas land in `tally`.
    ///
    /// The batch advances *stage-major*: every queued record goes
    /// through stage `k` before stage `k + 1` runs. Each stage is an
    /// order-preserving per-record map-concat, so this is observably
    /// identical to pushing the records through one at a time — while
    /// the per-traversal costs (buffer resets, the shared `FailFast`
    /// panic guard) are paid once per batch instead of once per record.
    ///
    /// `FailFast` stages — the default configuration — take a lean path
    /// that calls the step semantics directly under *one* panic guard
    /// per batch instead of one per stage: under `FailFast` any panic
    /// or error is fatal to the run either way, so a single catch
    /// observing the currently running stage reports exactly what the
    /// per-stage guard would. Lenient stages go through
    /// [`fault::policy_step`], which owns the clone/retry machinery.
    /// Either way a step appends its outputs to the buffer the next
    /// stage reads ([`semantics::box_step_into`]).
    #[allow(clippy::too_many_arguments)] // mirrors the per-engine step context
    pub fn step_batch(
        &mut self,
        stages: &[ChainStage],
        engine_policy: FailurePolicy,
        mismatch: MismatchPolicy,
        seq: &AtomicU64,
        recs: impl IntoIterator<Item = Record>,
        tally: &mut ChainTally,
        out: &mut Vec<Record>,
        divert: &mut dyn FnMut(Box<DeadLetter>) -> Result<(), SnetError>,
    ) -> Result<(), SnetError> {
        let mark = out.len();
        // Which stage is currently executing *outside* a per-stage
        // guard; the outer catch below uses it for fault attribution.
        let mut active: Option<&str> = None;
        let caught = {
            let active = &mut active;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_stages(
                    stages,
                    engine_policy,
                    mismatch,
                    seq,
                    recs.into_iter(),
                    tally,
                    out,
                    divert,
                    active,
                )
            }))
        };
        let res = match caught {
            Ok(res) => res,
            Err(payload) => Err(SnetError::BoxFailure {
                name: active.unwrap_or("chain").to_owned(),
                cause: format!("panicked: {}", crate::panic_cause(payload.as_ref())),
            }),
        };
        if res.is_err() {
            // A failed batch leaves nothing behind, in the scratch or in
            // `out` (a success has moved everything to `out` already).
            self.cur.clear();
            self.next.clear();
            out.truncate(mark);
        }
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn run_stages<'a>(
        &mut self,
        stages: &'a [ChainStage],
        engine_policy: FailurePolicy,
        mismatch: MismatchPolicy,
        seq: &AtomicU64,
        recs: impl Iterator<Item = Record>,
        tally: &mut ChainTally,
        out: &mut Vec<Record>,
        divert: &mut dyn FnMut(Box<DeadLetter>) -> Result<(), SnetError>,
        active: &mut Option<&'a str>,
    ) -> Result<(), SnetError> {
        // The one way a box or filter is run: every record of `input`
        // through `stage`, its outputs appended to `sink`.
        let mut run_stage = |stage: &'a ChainStage,
                             input: &mut dyn Iterator<Item = Record>,
                             sink: &mut Vec<Record>| {
            // Resolved per original component: a box's own override
            // first, the engine default otherwise; filters follow the
            // engine (their errors are deterministic, so `Retry`
            // degenerates to `FailFast` inside `policy_step`).
            let (policy, name) = match stage {
                ChainStage::Box(def) => {
                    (def.effective_policy(engine_policy), def.sig.name.as_str())
                }
                ChainStage::Filter(_) => (engine_policy, "filter"),
            };
            let lean = matches!(policy, FailurePolicy::FailFast);
            // A step writes straight into `sink` — only once it has
            // succeeded, so a failed attempt leaves nothing to undo —
            // and reports `None` for a record it passed through.
            let run = |r: Record, sink: &mut Vec<Record>| match stage {
                ChainStage::Box(def) => semantics::box_step_into(def, r, mismatch, sink),
                ChainStage::Filter(f) => semantics::filter_step_into(f, r, mismatch, sink),
            };
            for r in input {
                let work = if lean {
                    *active = Some(name);
                    let work = run(r, sink)?;
                    *active = None;
                    work
                } else {
                    match fault::policy_step(policy, name, seq, r, |r| run(r, sink)) {
                        StepVerdict::Out { step, attempts } => {
                            tally.retries += u64::from(attempts - 1);
                            step
                        }
                        StepVerdict::Dead(dl) => {
                            divert(dl)?;
                            continue;
                        }
                        StepVerdict::Fatal(e) => return Err(e),
                    }
                };
                match (work, stage) {
                    (None, _) => tally.passthroughs += 1,
                    (Some(work), ChainStage::Box(_)) => {
                        tally.box_records += 1;
                        tally.box_ops += work.ops;
                    }
                    (Some(_), ChainStage::Filter(_)) => tally.filter_records += 1,
                }
            }
            Ok(())
        };
        // The first stage reads the batch itself and the last writes
        // straight to `out`, so a chain of one touches no scratch; the
        // stages between ping-pong through `cur` and `next`.
        let mut batch = Some(recs);
        for (k, stage) in stages.iter().enumerate() {
            let sink = if k + 1 == stages.len() {
                &mut *out
            } else {
                &mut self.next
            };
            match batch.take() {
                Some(mut recs) => run_stage(stage, &mut recs, sink)?,
                None => run_stage(stage, &mut self.cur.drain(..), sink)?,
            }
            std::mem::swap(&mut self.cur, &mut self.next);
        }
        // No stage at all is the identity.
        out.extend(batch.into_iter().flatten());
        Ok(())
    }
}

impl Drop for ChainRunner {
    fn drop(&mut self) {
        crate::pool::give_vec(std::mem::take(&mut self.cur));
        crate::pool::give_vec(std::mem::take(&mut self.next));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxdef::{BoxOutput, BoxSig, Work};
    use crate::rtype::Variant;
    use crate::value::Value;

    fn inc(name: &str) -> NetSpec {
        NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse(name, &["x"], &[&["x"]]),
            |r| {
                let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
                Ok(BoxOutput::one(
                    Record::new().with_field("x", Value::Int(x + 1)),
                    Work::ops(1),
                ))
            },
        ))
    }

    fn pattern(label: &str) -> Pattern {
        Pattern::from_variant(Variant::parse_labels(&[label], &[]))
    }

    fn sync_ab() -> NetSpec {
        NetSpec::Sync(SyncSpec::new(vec![pattern("a"), pattern("b")]))
    }

    /// The names of a run of stages (`[]` for a filter).
    fn names(stages: &[ChainStage]) -> Vec<&str> {
        let names = stages.iter().map(|s| match s {
            ChainStage::Box(def) => def.sig.name.as_str(),
            ChainStage::Filter(_) => "[]",
        });
        names.collect()
    }

    /// The stage names of a chain; `None` for any other node.
    fn chain(node: &Node) -> Option<Vec<&str>> {
        let Node::Chain(stages) = node else {
            return None;
        };
        Some(names(stages))
    }

    /// The compiled form of `spec`, which must be a star.
    fn star(spec: &NetSpec, fuse: bool) -> Arc<StarNode> {
        match compile(spec, fuse) {
            Node::Star(star) => star,
            other => panic!("star survives compilation: {other:?}"),
        }
    }

    /// The elements of a compiled serial spine, in pipeline order.
    fn spine(node: &Node) -> Vec<&Node> {
        match node {
            Node::Serial(a, b) => [spine(a), spine(b)].concat(),
            other => vec![other],
        }
    }

    /// The length of every chain in the tree, in pipeline order.
    fn chain_lengths(node: &Node) -> Vec<usize> {
        match node {
            Node::Chain(stages) => vec![stages.len()],
            Node::Sync(_) => vec![],
            Node::Serial(a, b) => [chain_lengths(a), chain_lengths(b)].concat(),
            Node::Par(par) => par.branches.iter().flat_map(chain_lengths).collect(),
            Node::Star(star) => chain_lengths(&star.body),
            Node::Loop(lp) => vec![lp.stages.len()],
            Node::Split(split) => chain_lengths(&split.body),
            Node::At { body, .. } => chain_lengths(body),
        }
    }

    #[test]
    fn maximal_runs_fuse() {
        let fused = fuse(&NetSpec::pipeline([
            inc("a"),
            inc("b"),
            NetSpec::identity(),
            inc("c"),
        ]));
        assert_eq!(chain(&fused), Some(vec!["a", "b", "[]", "c"]), "{fused:?}");
    }

    #[test]
    fn sync_breaks_the_chain() {
        let fused = fuse(&NetSpec::pipeline([
            inc("a"),
            inc("b"),
            sync_ab(),
            inc("c"),
            inc("d"),
        ]));
        let [head, cell, tail] = spine(&fused)[..] else {
            panic!("expected chain .. sync .. chain: {fused:?}");
        };
        assert_eq!(chain(head), Some(vec!["a", "b"]));
        assert!(matches!(cell, Node::Sync(_)));
        assert_eq!(chain(tail), Some(vec!["c", "d"]));
    }

    #[test]
    fn singletons_are_chains_of_one() {
        let spec = NetSpec::pipeline([inc("a"), sync_ab(), NetSpec::identity()]);
        let fused = fuse(&spec);
        let [a, _, id] = spine(&fused)[..] else {
            panic!("expected three elements: {fused:?}");
        };
        assert_eq!(chain(a), Some(vec!["a"]));
        assert_eq!(chain(id), Some(vec!["[]"]));
    }

    #[test]
    fn boundaries_fuse_their_bodies() {
        let star = NetSpec::star(NetSpec::serial(inc("s1"), inc("s2")), pattern("z"));
        let Node::Loop(lp) = fuse(&star) else {
            panic!("a star whose body is one chain loops")
        };
        assert_eq!(names(&lp.stages), ["s1", "s2"]);

        let split = NetSpec::split(NetSpec::serial(inc("p"), inc("q")), "k");
        let Node::Split(split) = fuse(&split) else {
            panic!("split survives compilation")
        };
        assert_eq!(chain(&split.body), Some(vec!["p", "q"]));

        let par = NetSpec::parallel(vec![NetSpec::serial(inc("l1"), inc("l2")), inc("r")]);
        let Node::Par(par) = fuse(&par) else {
            panic!("parallel survives compilation")
        };
        assert_eq!(chain(&par.branches[0]), Some(vec!["l1", "l2"]));
        assert_eq!(chain(&par.branches[1]), Some(vec!["r"]));
        assert_eq!(par.patterns.len(), 2);

        // A placed subnet is a boundary too: it neither joins the run
        // before it nor the one after, and it keeps its node — at
        // either grain.
        let placed = NetSpec::pipeline([
            inc("a"),
            NetSpec::at(NetSpec::serial(inc("b"), inc("c")), 1),
            inc("d"),
        ]);
        for (grain, inside) in [(true, vec![2]), (false, vec![1, 1])] {
            let compiled = compile(&placed, grain);
            let [a, at, d] = spine(&compiled)[..] else {
                panic!("expected a .. (b .. c)@1 .. d: {compiled:?}");
            };
            assert_eq!(chain(a), Some(vec!["a"]));
            let Node::At { body, node: 1 } = at else {
                panic!("placement survives compilation: {at:?}")
            };
            assert_eq!(chain_lengths(body), inside);
            assert_eq!(chain(d), Some(vec!["d"]));
        }
    }

    #[test]
    fn split_node_mirrors_placed() {
        for (spec, placed) in [
            (NetSpec::split(inc("p"), "k"), false),
            (NetSpec::split_placed(inc("p"), "k"), true),
        ] {
            let Node::Split(split) = fuse(&spec) else {
                panic!("split survives compilation")
            };
            assert_eq!(split.placed, placed);
        }
    }

    #[test]
    fn named_wrappers_are_transparent() {
        let spec = NetSpec::serial(
            NetSpec::named("front", inc("a")),
            NetSpec::named("back", NetSpec::serial(inc("b"), inc("c"))),
        );
        assert_eq!(chain(&fuse(&spec)), Some(vec!["a", "b", "c"]));
    }

    #[test]
    fn unfused_compile_leaves_every_leaf_standalone() {
        let spec = NetSpec::pipeline([
            inc("a"),
            NetSpec::named("mid", NetSpec::serial(inc("b"), NetSpec::identity())),
            NetSpec::star(NetSpec::serial(inc("s1"), inc("s2")), pattern("z")),
            NetSpec::parallel(vec![NetSpec::serial(inc("l1"), inc("l2")), inc("r")]),
        ]);
        // Fused: a..b..[] | s1..s2 | l1..l2, r.
        assert_eq!(chain_lengths(&compile(&spec, true)), [3, 2, 2, 1]);
        // Unfused: the same eight leaves, one chain each.
        let plain = compile(&spec, false);
        assert_eq!(chain_lengths(&plain), [1; 8], "{plain:?}");
        let elems = spine(&plain);
        assert_eq!(elems.len(), 5);
        assert_eq!(chain(elems[1]), Some(vec!["b"]));
        assert_eq!(chain(elems[2]), Some(vec!["[]"]));
        let Node::Star(star) = elems[3] else {
            panic!("star keeps its place: {plain:?}")
        };
        assert_eq!(spine(&star.body).len(), 2, "the body as written");
    }

    #[test]
    fn a_fused_star_loops_only_when_its_body_is_one_chain() {
        let dec = || NetSpec::Filter(FilterSpec::identity());
        // One chain: `dec * exit` loops through it.
        let only = NetSpec::star(dec(), pattern("z"));
        let Node::Loop(lp) = fuse(&only) else {
            panic!("a one-chain body loops")
        };
        assert_eq!(names(&lp.stages), ["[]"]);
        // A chain and more: `(dec .. inc .. sync) * exit` keeps its
        // taps, and the chain leads the body each replica builds.
        let rest = NetSpec::star(
            NetSpec::pipeline([dec(), inc("i"), sync_ab()]),
            pattern("z"),
        );
        let fused = star(&rest, true);
        let [head, cell] = spine(&fused.body)[..] else {
            panic!("expected chain .. sync: {fused:?}")
        };
        assert_eq!(chain(head), Some(vec!["[]", "i"]));
        assert!(matches!(cell, Node::Sync(_)), "{fused:?}");
        // Unfused, both are taps over the body as written.
        assert_eq!(chain(&star(&only, false).body), Some(vec!["[]"]));
        assert_eq!(spine(&star(&rest, false).body).len(), 3);
    }

    #[test]
    fn a_fused_parallel_marks_its_chain_branches() {
        // `(l1 .. l2 | sync | r ! <k> | [] | (r2)@1)`: two chains; a
        // sync, a split and a placed subnet keep their ports.
        let spec = NetSpec::parallel(vec![
            NetSpec::serial(inc("l1"), inc("l2")),
            sync_ab(),
            NetSpec::split(inc("r"), "k"),
            NetSpec::identity(),
            NetSpec::at(inc("r2"), 1),
        ]);
        for (fuse, inline) in [
            (true, [true, false, false, true, false]),
            (false, [false; 5]),
        ] {
            let Node::Par(par) = compile(&spec, fuse) else {
                panic!("parallel survives compilation")
            };
            assert_eq!(par.inline, inline, "fuse {fuse}");
            assert_eq!(par.branches.len(), 5);
            assert_eq!(par.patterns.len(), 5);
        }
    }

    #[test]
    fn par_or_sync_led_bodies_leave_the_tap_plain() {
        let id = NetSpec::identity;
        let dec = || NetSpec::Filter(FilterSpec::identity());
        // The shapes of Fig 3's merger, Fig 4's dynamic solver and
        // `bench_unfold`'s countdown star.
        let merger = NetSpec::serial(
            sync_ab(),
            NetSpec::parallel(vec![NetSpec::serial(inc("merge"), dec()), id()]),
        );
        let solver = NetSpec::serial(
            NetSpec::parallel(vec![
                NetSpec::split_placed(NetSpec::serial(inc("solve"), dec()), "node"),
                id(),
            ]),
            NetSpec::parallel(vec![id(), sync_ab()]),
        );
        let countdown = NetSpec::serial(NetSpec::parallel(vec![inc("inc"), id()]), dec());
        for body in [merger, solver, countdown] {
            let written = compile(&body, true);
            let fused = star(&NetSpec::star(body, pattern("z")), true);
            assert_eq!(chain_lengths(&fused.body), chain_lengths(&written));
            assert_eq!(spine(&fused.body).len(), spine(&written).len());
        }
    }

    /// Compiles `spec`, which must fuse into one chain, and drives one
    /// record through it.
    fn run_chain(
        spec: &NetSpec,
        rec: Record,
        divert: &mut dyn FnMut(Box<DeadLetter>) -> Result<(), SnetError>,
    ) -> (Vec<Record>, ChainTally) {
        let Node::Chain(stages) = fuse(spec) else {
            panic!("expected full fusion")
        };
        let mut tally = ChainTally::default();
        let mut out = Vec::new();
        ChainRunner::new()
            .step_batch(
                &stages,
                FailurePolicy::FailFast,
                MismatchPolicy::Forward,
                &AtomicU64::new(0),
                [rec],
                &mut tally,
                &mut out,
                divert,
            )
            .unwrap();
        (out, tally)
    }

    #[test]
    fn fused_chain_preserves_serial_semantics() {
        let (out, tally) = run_chain(
            &NetSpec::pipeline([inc("a"), inc("b"), inc("c")]),
            Record::new().with_field("x", Value::Int(39)),
            &mut |_| panic!("no diversions expected"),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].field("x").unwrap().as_int(), Some(42));
        assert_eq!(tally.box_records, 3);
        assert_eq!(tally.box_ops, 3);
    }

    #[test]
    fn chain_divert_names_the_failing_stage() {
        let bad = NetSpec::Box(
            BoxDef::from_fn(BoxSig::parse("bad", &["x"], &[&["x"]]), |_| {
                Err(SnetError::Engine("deliberate".into()))
            })
            // The engine policy is FailFast: the per-box override must win.
            .with_policy(FailurePolicy::DeadLetter),
        );
        let mut dead = Vec::new();
        let (out, tally) = run_chain(
            &NetSpec::pipeline([inc("a"), bad, inc("c")]),
            Record::new().with_field("x", Value::Int(0)),
            &mut |dl| {
                dead.push(*dl);
                Ok(())
            },
        );
        assert!(out.is_empty());
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].report.component, "bad");
        // The diverted record is the record as it arrived AT the stage:
        // `a` already incremented it.
        assert_eq!(dead[0].record.field("x").unwrap().as_int(), Some(1));
        assert_eq!(tally.box_records, 1); // only `a` matched-and-ran
    }
}
