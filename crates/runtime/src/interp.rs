//! The deterministic reference interpreter.
//!
//! A single-threaded, depth-first executable semantics for S-Net
//! networks. Where the scheduled engine is free to interleave (parallel
//! merge order, tie-breaks), the interpreter fixes every choice:
//! records are processed one at a time to completion, parallel ties go
//! to the first-declared branch, and the outputs of a component are
//! propagated in emission order.
//!
//! The interpreter is the oracle for the engine's property tests — for
//! any network and input batch, the scheduled engine must produce the
//! same output *multiset* (order may differ because the paper specifies
//! arrival-order, i.e. nondeterministic, merging).

use snet_core::boxdef::{BoxDef, Work};
use snet_core::fault::{self, DeadLetter, FailurePolicy, StepVerdict};
use snet_core::semantics::{self, MismatchPolicy};
use snet_core::{
    FilterSpec, Label, NetSpec, Pattern, Record, SnetError, SyncOutcome, SyncSpec, SyncState,
};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Result of an interpreter run.
#[derive(Debug)]
pub struct InterpResult {
    /// Output records in deterministic order.
    pub outputs: Vec<Record>,
    /// Total abstract work reported by all box invocations.
    pub work: Work,
    /// Records left in unfired synchrocells at end of input.
    pub stranded: usize,
    /// Records diverted under [`FailurePolicy::DeadLetter`], in
    /// deterministic divert order.
    pub dead_letters: Vec<DeadLetter>,
}

/// Per-run fault state threaded through every [`Node::feed`]: the
/// engine-level policy, the dead-letter sequence allocator, and the
/// letters diverted so far (deterministic order — the interpreter is
/// the oracle for the scheduled engine's dead-letter *multiset*).
struct FaultCtx {
    policy: FailurePolicy,
    seq: AtomicU64,
    dead: Vec<DeadLetter>,
}

/// Instantiated, stateful interpreter for one network.
pub struct Interp {
    root: Node,
    mismatch: MismatchPolicy,
    work: Work,
    faults: FaultCtx,
    deadline: Option<Duration>,
    /// Fixed at the first `feed`, mirroring the scheduled engine
    /// (whose clock starts at `start()`).
    deadline_at: Option<Instant>,
}

impl Interp {
    /// Instantiates the interpreter for a topology.
    pub fn new(spec: &NetSpec) -> Interp {
        Interp {
            root: Node::instantiate(spec),
            mismatch: MismatchPolicy::Forward,
            work: Work::ZERO,
            faults: FaultCtx {
                policy: FailurePolicy::FailFast,
                seq: AtomicU64::new(0),
                dead: Vec::new(),
            },
            deadline: None,
            deadline_at: None,
        }
    }

    /// Sets the mismatch policy (default: forward).
    pub fn with_mismatch(mut self, policy: MismatchPolicy) -> Interp {
        self.mismatch = policy;
        self
    }

    /// Sets the engine-level failure policy (default: fail-fast);
    /// boxes with a [`BoxDef::with_policy`] override keep theirs.
    pub fn with_policy(mut self, policy: FailurePolicy) -> Interp {
        self.faults.policy = policy;
        self
    }

    /// Sets a wall-clock deadline, measured from the first `feed`.
    /// Records fed after expiry fail with
    /// [`SnetError::DeadlineExceeded`] — the interpreter's per-record
    /// depth-first step is its only preemption point.
    pub fn with_deadline(mut self, deadline: Duration) -> Interp {
        self.deadline = Some(deadline);
        self
    }

    /// Feeds one record through the network, returning everything it
    /// emits (fully deterministically).
    pub fn feed(&mut self, rec: Record) -> Result<Vec<Record>, SnetError> {
        if let Some(d) = self.deadline {
            let at = *self.deadline_at.get_or_insert_with(|| Instant::now() + d);
            if Instant::now() >= at {
                return Err(SnetError::DeadlineExceeded);
            }
        }
        let mut work = Work::ZERO;
        let out = self
            .root
            .feed(rec, self.mismatch, &mut work, &mut self.faults);
        self.work += work;
        out
    }

    /// Feeds a batch and reports outputs, work, stranded records, and
    /// diverted dead letters.
    pub fn run_batch(mut self, records: Vec<Record>) -> Result<InterpResult, SnetError> {
        let mut outputs = Vec::new();
        for rec in records {
            outputs.extend(self.feed(rec)?);
        }
        Ok(InterpResult {
            outputs,
            work: self.work,
            stranded: self.root.stranded(),
            dead_letters: self.faults.dead,
        })
    }

    /// Total work accumulated so far.
    pub fn work(&self) -> Work {
        self.work
    }

    /// Records currently stuck in unfired synchrocells.
    pub fn stranded(&self) -> usize {
        self.root.stranded()
    }

    /// Dead letters diverted so far.
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.faults.dead
    }
}

/// A component instance with its runtime state.
enum Node {
    Box(BoxDef),
    Filter(FilterSpec),
    Sync {
        spec: SyncSpec,
        state: SyncState,
    },
    Serial(Box<Node>, Box<Node>),
    Parallel {
        branches: Vec<Node>,
        patterns: Vec<Vec<Pattern>>,
    },
    Star {
        template: NetSpec,
        exit: Pattern,
        /// Lazily instantiated replicas; `chain[i]` is the body between
        /// tap `i` and tap `i + 1`.
        chain: Vec<Node>,
    },
    Split {
        template: NetSpec,
        tag: Label,
        /// Tag value → replica (BTreeMap for deterministic iteration).
        replicas: BTreeMap<i64, Node>,
    },
}

impl Node {
    fn instantiate(spec: &NetSpec) -> Node {
        match spec {
            NetSpec::Box(def) => Node::Box(def.clone()),
            NetSpec::Filter(f) => Node::Filter(f.clone()),
            NetSpec::Sync(s) => Node::Sync {
                spec: s.clone(),
                state: s.new_state(),
            },
            NetSpec::Serial(a, b) => Node::Serial(
                Box::new(Node::instantiate(a)),
                Box::new(Node::instantiate(b)),
            ),
            NetSpec::Parallel { branches, .. } => Node::Parallel {
                patterns: branches.iter().map(|b| b.input_patterns()).collect(),
                branches: branches.iter().map(Node::instantiate).collect(),
            },
            NetSpec::Star { body, exit, .. } => Node::Star {
                template: (**body).clone(),
                exit: exit.clone(),
                chain: Vec::new(),
            },
            NetSpec::Split { body, tag, .. } => Node::Split {
                template: (**body).clone(),
                tag: *tag,
                replicas: BTreeMap::new(),
            },
            NetSpec::At { body, .. } | NetSpec::Named { body, .. } => Node::instantiate(body),
        }
    }

    fn feed(
        &mut self,
        rec: Record,
        policy: MismatchPolicy,
        work: &mut Work,
        faults: &mut FaultCtx,
    ) -> Result<Vec<Record>, SnetError> {
        match self {
            Node::Box(def) => {
                // `policy_step` contains panics and applies the failure
                // policy, exactly like the component step — the
                // oracle must agree with it on error paths too.
                let p = def.effective_policy(faults.policy);
                match fault::policy_step(p, &def.sig.name, &faults.seq, rec, |r| {
                    semantics::box_step(def, r, policy)
                }) {
                    StepVerdict::Out { step, .. } => {
                        *work += step.work;
                        Ok(step.records.into_iter().collect())
                    }
                    StepVerdict::Dead(dl) => {
                        faults.dead.push(*dl);
                        Ok(Vec::new())
                    }
                    StepVerdict::Fatal(e) => Err(e),
                }
            }
            Node::Filter(f) => {
                match fault::policy_step(faults.policy, "filter", &faults.seq, rec, |r| {
                    semantics::filter_step(f, r, policy)
                }) {
                    StepVerdict::Out { step, .. } => Ok(step.records.into_iter().collect()),
                    StepVerdict::Dead(dl) => {
                        faults.dead.push(*dl);
                        Ok(Vec::new())
                    }
                    StepVerdict::Fatal(e) => Err(e),
                }
            }
            Node::Sync { spec, state } => Ok(match state.push(spec, rec) {
                SyncOutcome::Stored => Vec::new(),
                SyncOutcome::Passed(r) => vec![r],
                SyncOutcome::Fired(m) => vec![m],
            }),
            Node::Serial(a, b) => {
                let mut outs = Vec::new();
                for mid in a.feed(rec, policy, work, faults)? {
                    outs.extend(b.feed(mid, policy, work, faults)?);
                }
                Ok(outs)
            }
            Node::Parallel { branches, patterns } => match semantics::best_branch(patterns, &rec) {
                Some(i) => branches[i].feed(rec, policy, work, faults),
                None => match policy {
                    MismatchPolicy::Forward => Ok(vec![rec]),
                    MismatchPolicy::Error => {
                        let cause = SnetError::TypeMismatch {
                            expected: "any parallel branch".into(),
                            got: format!("{rec:?}"),
                        };
                        let dl =
                            fault::reject(faults.policy, "par-dispatch", &faults.seq, rec, cause)?;
                        faults.dead.push(*dl);
                        Ok(Vec::new())
                    }
                },
            },
            Node::Star {
                template,
                exit,
                chain,
            } => {
                // Work-list of (tap index, record): a record at tap `i`
                // either exits or traverses replica `i` and re-enters at
                // tap `i + 1`. FIFO order keeps the result deterministic.
                let mut queue = std::collections::VecDeque::new();
                queue.push_back((0usize, rec));
                let mut outs = Vec::new();
                while let Some((i, r)) = queue.pop_front() {
                    if exit.matches(&r) {
                        outs.push(r);
                        continue;
                    }
                    if chain.len() == i {
                        chain.push(Node::instantiate(template));
                    }
                    for produced in chain[i].feed(r, policy, work, faults)? {
                        queue.push_back((i + 1, produced));
                    }
                }
                Ok(outs)
            }
            Node::Split {
                template,
                tag,
                replicas,
            } => {
                let Some(value) = rec.tag(*tag) else {
                    let dl = fault::reject(
                        faults.policy,
                        "split-dispatch",
                        &faults.seq,
                        rec,
                        SnetError::MissingTag(*tag),
                    )?;
                    faults.dead.push(*dl);
                    return Ok(Vec::new());
                };
                let replica = replicas
                    .entry(value)
                    .or_insert_with(|| Node::instantiate(template));
                replica.feed(rec, policy, work, faults)
            }
        }
    }

    fn stranded(&self) -> usize {
        match self {
            Node::Box(_) | Node::Filter(_) => 0,
            Node::Sync { state, .. } => state.pending().count(),
            Node::Serial(a, b) => a.stranded() + b.stranded(),
            Node::Parallel { branches, .. } => branches.iter().map(Node::stranded).sum(),
            Node::Star { chain, .. } => chain.iter().map(Node::stranded).sum(),
            Node::Split { replicas, .. } => replicas.values().map(Node::stranded).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::boxdef::{BoxOutput, BoxSig};
    use snet_core::{TagExpr, Value, Variant};

    fn inc_box() -> NetSpec {
        NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("inc", &["x"], &[&["x"]]),
            |r| {
                let x = r.field("x").and_then(|v| v.as_int()).unwrap();
                Ok(BoxOutput::one(
                    Record::new().with_field("x", Value::Int(x + 1)),
                    Work::ops(3),
                ))
            },
        ))
    }

    #[test]
    fn serial_is_function_composition() {
        let net = NetSpec::serial(inc_box(), inc_box());
        let res = Interp::new(&net)
            .run_batch(vec![Record::new().with_field("x", Value::Int(40))])
            .unwrap();
        assert_eq!(res.outputs[0].field("x").unwrap().as_int(), Some(42));
        assert_eq!(res.work, Work::ops(6));
    }

    #[test]
    fn parallel_tie_breaks_first() {
        // Both branches accept {x}; the interpreter must always pick the
        // first-declared one.
        let left = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("l", &["x"], &[&["l"]]),
            |_| {
                Ok(BoxOutput::one(
                    Record::new().with_field("l", Value::Unit),
                    Work::ZERO,
                ))
            },
        ));
        let right = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("r", &["x"], &[&["r"]]),
            |_| {
                Ok(BoxOutput::one(
                    Record::new().with_field("r", Value::Unit),
                    Work::ZERO,
                ))
            },
        ));
        let net = NetSpec::parallel(vec![left, right]);
        let res = Interp::new(&net)
            .run_batch(vec![Record::new().with_field("x", Value::Int(1))])
            .unwrap();
        assert!(res.outputs[0].has_field("l"));
    }

    #[test]
    fn star_countdown_matches_engine_semantics() {
        let dec = NetSpec::Filter(FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
            vec![snet_core::filter::OutputTemplate::empty().set_tag(
                "n",
                TagExpr::bin(snet_core::BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
            )],
        ));
        let exit = Pattern::guarded(
            Variant::empty(),
            TagExpr::bin(snet_core::BinOp::Eq, TagExpr::tag("n"), TagExpr::Const(0)),
        );
        let net = NetSpec::star(dec, exit);
        let res = Interp::new(&net)
            .run_batch(vec![
                Record::new().with_tag("n", 3),
                Record::new().with_tag("n", 0),
            ])
            .unwrap();
        assert_eq!(res.outputs.len(), 2);
        assert!(res.outputs.iter().all(|r| r.tag("n") == Some(0)));
    }

    #[test]
    fn stranded_accounting() {
        let cell = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let res = Interp::new(&cell)
            .run_batch(vec![Record::new().with_field("a", Value::Int(1))])
            .unwrap();
        assert!(res.outputs.is_empty());
        assert_eq!(res.stranded, 1);
    }

    #[test]
    fn split_replicas_have_independent_state() {
        // A synchrocell under `!<k>`: records with different k must not
        // join each other.
        let cell = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let net = NetSpec::split(cell, "k");
        let res = Interp::new(&net)
            .run_batch(vec![
                Record::new()
                    .with_field("a", Value::Int(1))
                    .with_tag("k", 0),
                Record::new()
                    .with_field("b", Value::Int(2))
                    .with_tag("k", 1),
                Record::new()
                    .with_field("b", Value::Int(3))
                    .with_tag("k", 0),
            ])
            .unwrap();
        // k=0 fires (a joins b); k=1 still waits.
        assert_eq!(res.outputs.len(), 1);
        assert_eq!(res.stranded, 1);
        let m = &res.outputs[0];
        assert!(m.has_field("a") && m.has_field("b"));
        assert_eq!(m.tag("k"), Some(0));
    }
}
