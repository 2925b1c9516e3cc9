//! Compilation: one walk from the topology as written ([`NetSpec`]) to
//! the shared tree the concurrent engines execute ([`Node`]), fusing
//! static SISO chains into single components on the way.
//!
//! The benches say inter-component hand-off dominates deep pipelines —
//! depth-16 costs ~7x depth-1 on the scheduled engine even with batched
//! mailboxes. But maximal runs of *stateless* SISO components (boxes
//! and filters composed with `..`) are known statically from the
//! [`NetSpec`], and nothing in the semantics requires a queue between
//! them: serial composition of stateless components is function
//! composition. [`compile`] therefore turns every such run into one
//! [`Node::Chain`] whose execution pushes each record through the whole
//! chain in place — zero mailbox hops — while mailboxes remain exactly
//! at the boundaries where they carry semantics: synchrocells
//! (stateful), parallel dispatch/merge, star taps, and index splits.
//! This is the compile-time grain-tuning the S-Net-vs-CnC study
//! (arXiv:1305.7167) credits for CnC's wins, applied at the
//! coordination layer where S+Net (arXiv:1306.2743) argues such
//! controls belong — which is why a chain exists only in the compiled
//! tree: a [`NetSpec`] is always the network as its author wrote it,
//! and the reference interpreter, the `snet-dist` simulator, the
//! analyzer and the printer never see one.
//!
//! **Fault semantics are preserved per stage.** [`ChainRunner`] resolves
//! the failure policy per original [`BoxDef`]
//! ([`BoxDef::effective_policy`]), mints dead letters that name the
//! original component (box name, or `"filter"`), retries only the
//! failing stage (with the record exactly as it arrived *at that
//! stage*), and charges the same trace counters — so a fused run is
//! indistinguishable from an unfused one in everything but speed, and
//! chaos wrappers (`snet_runtime::faultinject`) keep targeting
//! individual stages because they wrap the `BoxDef` itself.

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

/// One stage of a fused chain: the stateless SISO components.
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

/// The compiled topology: what the concurrent engines keep per network
/// and instantiate every run from. Immutable and shared — each leaf and
/// each replicating combinator sits behind an `Arc`, so creating a
/// component (at `start`, or when a star or split unfolds mid-run)
/// copies reference counts and nothing whose size depends on the
/// topology, and retiring one frees nothing but its own state.
/// Placement (`At`) and naming wrappers are gone: the local engines
/// ignore placement, and `snet-dist` reads it from the [`NetSpec`].
#[derive(Debug)]
pub enum Node {
    /// A box standing alone.
    Box(Arc<BoxDef>),
    /// A filter standing alone.
    Filter(Arc<FilterSpec>),
    /// A maximal serial run of two or more boxes/filters, executed as
    /// one component. Only [`compile`] with `fuse` on makes these.
    Chain(Arc<[ChainStage]>),
    /// A synchrocell.
    Sync(Arc<SyncSpec>),
    /// `A .. B`.
    Serial(Box<Node>, Box<Node>),
    /// `A | B | …`.
    Par(Arc<ParNode>),
    /// `A * exit`.
    Star(Arc<StarNode>),
    /// `A ! <tag>`.
    Split(Arc<SplitNode>),
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
}

/// A compiled serial replication.
#[derive(Debug)]
#[non_exhaustive]
pub struct StarNode {
    /// The replicated body.
    pub body: Node,
    /// Exit pattern, checked before every replica.
    pub exit: Pattern,
}

/// A compiled parallel replication.
#[derive(Debug)]
#[non_exhaustive]
pub struct SplitNode {
    /// The replicated body.
    pub body: Node,
    /// The index tag.
    pub tag: Label,
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
/// * with `fuse` on, consecutive box/filter elements of a spine are
///   grouped into maximal runs: a run of length ≥ 2 becomes one
///   [`Node::Chain`], a singleton stays a [`Node::Box`] or
///   [`Node::Filter`]. With `fuse` off every leaf stands alone and the
///   tree holds no chain — the topology runs exactly as written, one
///   component per primitive;
/// * every other combinator ([`NetSpec::Sync`], [`NetSpec::Parallel`],
///   [`NetSpec::Star`], [`NetSpec::Split`], [`NetSpec::At`]) is a
///   fusion **boundary**: it ends the run before it, and its
///   body/branches are compiled recursively.
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
        NetSpec::Parallel { branches, .. } => Node::Par(Arc::new(ParNode {
            patterns: branches.iter().map(|b| b.input_patterns()).collect(),
            branches: branches.iter().map(|b| compile(b, fuse)).collect(),
        })),
        NetSpec::Star { body, exit, .. } => Node::Star(Arc::new(StarNode {
            body: compile(body, fuse),
            exit: exit.clone(),
        })),
        NetSpec::Split { body, tag, .. } => Node::Split(Arc::new(SplitNode {
            body: compile(body, fuse),
            tag: *tag,
        })),
        NetSpec::At { body, .. } => compile(body, fuse),
    };
    flush_run(run, spine);
    spine.push(boundary);
}

/// Adds a leaf to the open run; unfused, the run ends with it.
fn leaf(stage: ChainStage, fuse: bool, run: &mut Vec<ChainStage>, spine: &mut Vec<Node>) {
    run.push(stage);
    if !fuse {
        flush_run(run, spine);
    }
}

/// Closes the open run: length ≥ 2 becomes a chain, a singleton stays
/// the leaf it was.
fn flush_run(run: &mut Vec<ChainStage>, spine: &mut Vec<Node>) {
    match run.len() {
        0 => {}
        1 => spine.push(match run.pop().expect("len checked") {
            ChainStage::Box(def) => Node::Box(Arc::new(def)),
            ChainStage::Filter(f) => Node::Filter(Arc::new(f)),
        }),
        _ => spine.push(Node::Chain(run.drain(..).collect())),
    }
}

/// Trace deltas accumulated while a record traverses a fused chain;
/// engines fold them into their own counters after each
/// [`ChainRunner::step_batch`] so fused and unfused runs report
/// identical traces.
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

/// Reusable scratch state for driving records through a fused chain.
///
/// The two ping-pong buffers are the chain's only allocation and are
/// reused across records, so the steady-state hot path allocates
/// nothing beyond what the stages themselves produce. [`new`] draws
/// the buffers from [`crate::pool`] and `Drop` returns them, so even
/// runner churn (one per chain task, per threaded-engine stage thread)
/// recycles warmed capacity instead of mallocing.
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
    /// final outputs to `out`.
    ///
    /// Stage-by-stage semantics are *identical* to the unfused engines:
    /// the policy is resolved per original component (per-box override
    /// first, engine default otherwise), panics are contained and
    /// attributed to the stage that raised them, retries re-run only the
    /// failing stage on the record as it arrived there, and diverted
    /// records go to `divert` carrying the original component name. A
    /// fatal verdict aborts the whole chain (the run), exactly as it
    /// aborts the whole run unfused. Counter deltas land in `tally`.
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
    /// per-stage guard would. Lenient stages still go through
    /// [`fault::policy_step`], which owns the clone/retry machinery.
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
        self.cur.clear();
        self.next.clear();
        self.cur.extend(recs);
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
                    tally,
                    out,
                    divert,
                    active,
                )
            }))
        };
        match caught {
            Ok(res) => res,
            Err(payload) => Err(SnetError::BoxFailure {
                name: active.unwrap_or("fused-chain").to_owned(),
                cause: format!("panicked: {}", crate::panic_cause(payload.as_ref())),
            }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_stages<'a>(
        &mut self,
        stages: &'a [ChainStage],
        engine_policy: FailurePolicy,
        mismatch: MismatchPolicy,
        seq: &AtomicU64,
        tally: &mut ChainTally,
        out: &mut Vec<Record>,
        divert: &mut dyn FnMut(Box<DeadLetter>) -> Result<(), SnetError>,
        active: &mut Option<&'a str>,
    ) -> Result<(), SnetError> {
        for stage in stages {
            if self.cur.is_empty() {
                break;
            }
            for r in self.cur.drain(..) {
                match stage {
                    ChainStage::Box(def) => {
                        let policy = def.effective_policy(engine_policy);
                        if matches!(policy, FailurePolicy::FailFast) {
                            *active = Some(&def.sig.name);
                            let step = semantics::box_step(def, r, mismatch)?;
                            *active = None;
                            if step.matched {
                                tally.box_records += 1;
                                tally.box_ops += step.work.ops;
                            } else {
                                tally.passthroughs += 1;
                            }
                            self.next.extend(step.records);
                            continue;
                        }
                        let verdict = fault::policy_step(policy, &def.sig.name, seq, r, |r| {
                            semantics::box_step(def, r, mismatch)
                        });
                        match verdict {
                            StepVerdict::Out { step, attempts } => {
                                tally.retries += u64::from(attempts - 1);
                                if step.matched {
                                    tally.box_records += 1;
                                    tally.box_ops += step.work.ops;
                                } else {
                                    tally.passthroughs += 1;
                                }
                                self.next.extend(step.records);
                            }
                            StepVerdict::Dead(dl) => divert(dl)?,
                            StepVerdict::Fatal(e) => return Err(e),
                        }
                    }
                    ChainStage::Filter(f) => {
                        if matches!(engine_policy, FailurePolicy::FailFast) {
                            *active = Some("filter");
                            let step = semantics::filter_step(f, r, mismatch)?;
                            *active = None;
                            if step.matched {
                                tally.filter_records += 1;
                            } else {
                                tally.passthroughs += 1;
                            }
                            self.next.extend(step.records);
                            continue;
                        }
                        let verdict = fault::policy_step(engine_policy, "filter", seq, r, |r| {
                            semantics::filter_step(f, r, mismatch)
                        });
                        match verdict {
                            StepVerdict::Out { step, .. } => {
                                if step.matched {
                                    tally.filter_records += 1;
                                } else {
                                    tally.passthroughs += 1;
                                }
                                self.next.extend(step.records);
                            }
                            StepVerdict::Dead(dl) => divert(dl)?,
                            StepVerdict::Fatal(e) => return Err(e),
                        }
                    }
                }
            }
            std::mem::swap(&mut self.cur, &mut self.next);
        }
        out.append(&mut self.cur);
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

    /// The stage names of a chain; `None` for any other node.
    fn chain(node: &Node) -> Option<Vec<&str>> {
        let Node::Chain(stages) = node else {
            return None;
        };
        let names = stages.iter().map(|s| match s {
            ChainStage::Box(def) => def.sig.name.as_str(),
            ChainStage::Filter(_) => "[]",
        });
        Some(names.collect())
    }

    /// The elements of a compiled serial spine, in pipeline order.
    fn spine(node: &Node) -> Vec<&Node> {
        match node {
            Node::Serial(a, b) => [spine(a), spine(b)].concat(),
            other => vec![other],
        }
    }

    fn holds_chain(node: &Node) -> bool {
        match node {
            Node::Chain(_) => true,
            Node::Box(_) | Node::Filter(_) | Node::Sync(_) => false,
            Node::Serial(a, b) => holds_chain(a) || holds_chain(b),
            Node::Par(par) => par.branches.iter().any(holds_chain),
            Node::Star(star) => holds_chain(&star.body),
            Node::Split(split) => holds_chain(&split.body),
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
    fn singletons_stay_unfused() {
        let spec = NetSpec::pipeline([inc("a"), sync_ab(), NetSpec::identity()]);
        let fused = fuse(&spec);
        let [a, _, id] = spine(&fused)[..] else {
            panic!("expected three elements: {fused:?}");
        };
        assert!(matches!(a, Node::Box(def) if def.sig.name == "a"));
        assert!(matches!(id, Node::Filter(_)));
    }

    #[test]
    fn boundaries_fuse_their_bodies() {
        let star = NetSpec::star(NetSpec::serial(inc("s1"), inc("s2")), pattern("z"));
        let Node::Star(star) = fuse(&star) else {
            panic!("star survives compilation")
        };
        assert_eq!(chain(&star.body), Some(vec!["s1", "s2"]));

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
        assert!(matches!(&par.branches[1], Node::Box(_)));
        assert_eq!(par.patterns.len(), 2);

        // A placed subnet is a boundary too: it neither joins the run
        // before it nor the one after.
        let placed = NetSpec::pipeline([
            inc("a"),
            NetSpec::at(NetSpec::serial(inc("b"), inc("c")), 1),
            inc("d"),
        ]);
        let fused = fuse(&placed);
        let [a, body, d] = spine(&fused)[..] else {
            panic!("expected box .. chain .. box: {fused:?}");
        };
        assert!(matches!(a, Node::Box(_)) && matches!(d, Node::Box(_)));
        assert_eq!(chain(body), Some(vec!["b", "c"]));
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
        assert!(holds_chain(&compile(&spec, true)));
        let plain = compile(&spec, false);
        assert!(!holds_chain(&plain), "{plain:?}");
        let elems = spine(&plain);
        assert_eq!(elems.len(), 5);
        assert!(matches!(elems[1], Node::Box(def) if def.sig.name == "b"));
        assert!(matches!(elems[2], Node::Filter(_)));
        let Node::Star(star) = elems[3] else {
            panic!("star keeps its place: {plain:?}")
        };
        assert_eq!(spine(&star.body).len(), 2);
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
