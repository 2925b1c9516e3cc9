//! # snet-analyze — static network type inference and flow diagnostics
//!
//! The one static checker: two passes over a [`NetSpec`] that emit
//! structured diagnostics with stable codes *before* a network runs.
//!
//! * The **structural pass** is a single shape-free tree walk. It visits
//!   every node whether or not any record can reach it and reports what
//!   is wrong for every record population (SNA006–SNA009). On its own it
//!   is [`analyze_open`] — the engines' pre-flight, microseconds per net.
//! * The **flow pass** is an abstract interpretation from a declared
//!   entry type that infers the multivariant record types flowing
//!   through every subnet and reports what those types prove
//!   (SNA001–SNA005). [`analyze`] runs both; `snet-lint` pretty-prints
//!   its reports.
//!
//! ## The abstract domain
//!
//! A concrete record is a set of field/tag labels (§III of the paper:
//! types are label sets, subtyping is inverse set inclusion). The
//! analyzer tracks a bounded set of [`Shape`]s per stream edge. Each
//! shape is a [`Variant`] of labels plus two qualifiers:
//!
//! * `exact` — the labels are the *complete* label set of the record
//!   (a closed shape). Open shapes (`exact = false`) are lower bounds:
//!   the record carries at least these labels, possibly more. Absence
//!   of a label is only provable on exact shapes.
//! * `definite` — a record of this shape *will* occur on the edge for
//!   some input of the entry type, not merely *may*. Definiteness is
//!   lost at every value-dependent branch: guarded patterns, best-match
//!   ties, synchrocell joins, and user boxes (a box may emit any subset
//!   of its declared output variants, including nothing).
//!
//! Transfer functions mirror the small-step semantics in
//! `snet_core::semantics` exactly, including flow inheritance (the
//! unconsumed remainder attaches to every output) and the engines'
//! permissive `MismatchPolicy::Forward` passthrough. `Star` bodies are
//! iterated to a fixpoint; when a shape set exceeds
//! [`AnalyzeConfig::max_shapes`] it is widened to a single open shape
//! (the intersection of the members), which soundly disables
//! absence-based diagnostics downstream instead of guessing.
//!
//! ## Diagnostic codes and the paper's §III typing rules
//!
//! | code   | rule violated | fired when |
//! |--------|---------------|------------|
//! | SNA001 | parallel routing: "any incoming record is directed towards the subnetwork whose input type better matches" — requires *some* branch to match | an exact, definite shape matches no branch's input pattern (labels are insufficient regardless of guard outcomes) |
//! | SNA002 | same rule, dual direction: a branch only receives records its input type attracts | no reachable shape can possibly match a branch's input patterns |
//! | SNA003 | synchrocell typing: the cell fires when one record per pattern has arrived | some pattern can never be matched by any reachable shape while another can — stored records are stranded forever |
//! | SNA004 | parallel replication `A ! <tag>`: "every incoming record must carry the index tag" | an exact shape reaching a split lacks the tag (error when definite, warning when only possible) |
//! | SNA005 | filter typing: output templates copy fields and evaluate tag expressions over the *input* record | a template references a field, or unconditionally evaluates a tag, that an exact definite shape provably lacks |
//! | SNA006 | Distributed S-Net placement `A @ node`: node numbers index the configured machine set | the static node index is ≥ the configured node count |
//! | SNA007 | serial replication `A * exit`: records leave the chain of replicas when they match the exit pattern | the exit pattern is empty and unguarded, so every record leaves before the first replica — the body is unreachable (error) |
//! | SNA008 | parallel routing is by *better* match | two branches have identical input patterns: they tie on every record, declaration order decides and the later branch never receives one (warning) |
//! | SNA009 | synchrocell typing: a cell joins one record per pattern | the cell has fewer than two patterns, so it joins nothing and fires on the first match (warning) |
//!
//! ## Soundness
//!
//! The analyzer never flags a record the engines would route: a shape
//! is reported unroutable (SNA001) or a split input tag-less (SNA004
//! error) only when it is **exact** (no hidden labels can save it) and
//! **definite** (a chain of deterministic, guard-free steps from the
//! entry type produces it). Guards make matches merely *possible*; a
//! possible shape is propagated for reachability (so SNA002/SNA003
//! never under-approximate) but never flagged as a guaranteed failure.
//! The `analyze_soundness` property suite in `snet-runtime` pins this
//! against the reference interpreter on random topologies.

use snet_core::boxdef::BoxDef;
use snet_core::diag::{DiagCode, Diagnostic};
use snet_core::expr::{BinOp, TagExpr};
use snet_core::{FilterSpec, Label, NetSpec, OutItem, Pattern, RType, SyncSpec, Variant};
use std::collections::BTreeMap;

/// Analyzer knobs.
#[derive(Clone, Debug)]
pub struct AnalyzeConfig {
    /// Number of compute nodes placement (`@ node`) may target;
    /// `None` disables SNA006 range checks (the local engines ignore
    /// placement entirely, so their pre-flight leaves it unset).
    pub nodes: Option<u32>,
    /// Widening threshold: a shape set larger than this collapses to a
    /// single open shape. Bounds fixpoint iteration on `Star` bodies.
    pub max_shapes: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            nodes: None,
            max_shapes: 64,
        }
    }
}

/// One abstract record shape: a label set plus closedness/definiteness
/// qualifiers (see the crate docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shape {
    /// The labels; a complete set when `exact`, else a lower bound.
    pub labels: Variant,
    /// Whether `labels` is the record's complete label set.
    pub exact: bool,
    /// Whether a record of this shape is guaranteed to occur (reached
    /// from the entry type through deterministic, guard-free steps).
    pub definite: bool,
}

impl Shape {
    fn closed(labels: Variant) -> Shape {
        Shape {
            labels,
            exact: true,
            definite: true,
        }
    }

    fn open(labels: Variant) -> Shape {
        Shape {
            labels,
            exact: false,
            definite: false,
        }
    }

    fn with_definite(&self, definite: bool) -> Shape {
        Shape {
            labels: self.labels.clone(),
            exact: self.exact,
            definite,
        }
    }

    /// The labels provably present (lower bound holds for both open and
    /// exact shapes).
    fn guarantees(&self, needed: &Variant) -> bool {
        self.labels.is_subtype_of(needed)
    }

    /// Could a record of this shape carry all of `needed`? Exact shapes
    /// answer precisely; open shapes may hide any label.
    fn possibly_has(&self, needed: &Variant) -> bool {
        !self.exact || self.guarantees(needed)
    }
}

/// A pattern match that cannot fail: labels guaranteed and no guard.
fn pat_guaranteed(s: &Shape, p: &Pattern) -> bool {
    p.guard.is_none() && s.guarantees(&p.variant)
}

/// A pattern match that cannot be ruled out by labels alone.
fn pat_possible(s: &Shape, p: &Pattern) -> bool {
    s.possibly_has(&p.variant)
}

/// A bounded set of shapes — the abstract value on one stream edge.
#[derive(Clone, Debug, Default)]
pub struct ShapeSet {
    shapes: Vec<Shape>,
    /// Sticky widening marker: once the cap is hit the set stays a
    /// single open shape, absorbing later adds by label intersection
    /// (regrowing would let stragglers escape the widening).
    widened: bool,
}

impl ShapeSet {
    /// Entry set for a *closed* entry type: every variant is the exact,
    /// complete label set of some input records.
    pub fn closed(entry: &RType) -> ShapeSet {
        ShapeSet {
            shapes: entry
                .variants()
                .iter()
                .map(|v| Shape::closed(v.clone()))
                .collect(),
            widened: false,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// The label sets as a multivariant type (qualifiers dropped).
    pub fn to_rtype(&self) -> RType {
        let mut t = RType::default();
        for s in &self.shapes {
            if !t.variants().contains(&s.labels) {
                t.push(s.labels.clone());
            }
        }
        t
    }

    /// Adds a shape, merging with an identical-labels entry (definite
    /// wins over possible) and widening past `max`.
    fn add(&mut self, s: Shape, max: usize) -> bool {
        if self.widened {
            let cur = &mut self.shapes[0];
            cur.labels = cur.labels.intersection(&s.labels);
            return false;
        }
        for e in &mut self.shapes {
            if e.labels == s.labels && e.exact == s.exact {
                e.definite |= s.definite;
                return false;
            }
        }
        self.shapes.push(s);
        if self.shapes.len() > max {
            self.collapse();
            self.widened = true;
            return true;
        }
        false
    }

    /// Widens to one open shape: the intersection of all members (the
    /// labels every shape guarantees).
    fn collapse(&mut self) {
        let mut iter = self.shapes.iter();
        let first = iter
            .next()
            .expect("collapse of a non-empty set")
            .labels
            .clone();
        let common = iter.fold(first, |acc, s| acc.intersection(&s.labels));
        self.shapes = vec![Shape::open(common)];
    }

    fn extend_from(&mut self, other: ShapeSet, max: usize) -> bool {
        let mut widened = false;
        for s in other.shapes {
            widened |= self.add(s, max);
        }
        widened
    }

    /// A stable fingerprint for fixpoint detection.
    fn fingerprint(&self) -> Vec<(Variant, bool, bool)> {
        let mut v: Vec<_> = self
            .shapes
            .iter()
            .map(|s| (s.labels.clone(), s.exact, s.definite))
            .collect();
        v.sort();
        v
    }
}

/// Inferred input/output types of one subnet.
#[derive(Clone, Debug)]
pub struct SubnetType {
    /// Slash-separated path through the topology (same syntax as
    /// [`Diagnostic::path`]).
    pub path: String,
    /// Type of records arriving at the subnet.
    pub input: RType,
    /// Type of records the subnet emits.
    pub output: RType,
}

/// The result of analyzing a network.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Structured diagnostics, in discovery order, deduplicated.
    pub diagnostics: Vec<Diagnostic>,
    /// Inferred per-subnet types (root, named subnets, combinators and
    /// primitive components), in path order.
    pub types: Vec<SubnetType>,
    /// The network's inferred output type.
    pub output: RType,
    /// Whether any shape set was widened (diagnostics downstream of the
    /// widening point are best-effort only).
    pub saturated: bool,
}

impl Analysis {
    /// Error-severity diagnostics (these fail engine pre-flight).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == snet_core::diag::DiagSeverity::Error)
    }

    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }
}

/// Analyzes `net` against a *closed* entry type: each variant of
/// `entry` is taken to be the complete label set of some class of input
/// records, and no input outside `entry` is considered. This is the
/// full-precision mode used by `snet-lint` and by
/// `Net::with_entry_type`: the structural pass, then the flow pass with
/// its absence proofs (SNA001/003/004/005).
pub fn analyze(net: &NetSpec, entry: &RType, cfg: &AnalyzeConfig) -> Analysis {
    let mut ctx = Ctx::new(cfg);
    ctx.structure(net, "net");
    let input = ctx.bound(ShapeSet::closed(entry));
    let out = ctx.flow(net, input.clone(), "net");
    ctx.finish(&input, out, "net")
}

/// Analyzes `net` with a completely unknown input stream (engine
/// pre-flight mode): the structural pass alone. Sound for *any* input
/// the caller may feed, because no finding depends on a record shape;
/// `types` and `output` stay empty.
pub fn analyze_open(net: &NetSpec, cfg: &AnalyzeConfig) -> Analysis {
    let mut ctx = Ctx::new(cfg);
    ctx.structure(net, "net");
    Analysis {
        diagnostics: ctx.diags,
        ..Analysis::default()
    }
}

/// Iteration cap for `Star` fixpoints; past it the star's output is
/// widened to the fully unknown shape.
const MAX_STAR_ROUNDS: usize = 64;

/// Cap on synchrocell join combinations before widening.
const MAX_SYNC_COMBOS: usize = 64;

struct Ctx<'a> {
    cfg: &'a AnalyzeConfig,
    diags: Vec<Diagnostic>,
    types: BTreeMap<String, (RType, RType)>,
    saturated: bool,
}

impl<'a> Ctx<'a> {
    fn new(cfg: &'a AnalyzeConfig) -> Ctx<'a> {
        Ctx {
            cfg,
            diags: Vec::new(),
            types: BTreeMap::new(),
            saturated: false,
        }
    }

    /// Re-adds every shape under the widening cap (entry sets are built
    /// unbounded).
    fn bound(&mut self, set: ShapeSet) -> ShapeSet {
        let mut out = ShapeSet::default();
        for s in set.shapes {
            self.add(&mut out, s);
        }
        out
    }

    fn finish(mut self, input: &ShapeSet, output: ShapeSet, root: &str) -> Analysis {
        self.record(root, input, &output);
        Analysis {
            diagnostics: self.diags,
            types: self
                .types
                .into_iter()
                .map(|(path, (input, output))| SubnetType {
                    path,
                    input,
                    output,
                })
                .collect(),
            output: output.to_rtype(),
            saturated: self.saturated,
        }
    }

    fn push(&mut self, d: Diagnostic) {
        if !self.diags.contains(&d) {
            self.diags.push(d);
        }
    }

    fn record(&mut self, path: &str, input: &ShapeSet, output: &ShapeSet) {
        let entry = self
            .types
            .entry(path.to_owned())
            .or_insert_with(|| (RType::default(), RType::default()));
        entry.0 = entry.0.join(&input.to_rtype());
        entry.1 = entry.1.join(&output.to_rtype());
    }

    fn add(&mut self, set: &mut ShapeSet, s: Shape) {
        if set.add(s, self.cfg.max_shapes) {
            self.saturated = true;
        }
    }

    /// The structural pass: one walk over every node of `net`, reached
    /// by some shape or not, reporting the defects that hold for every
    /// record population. Paths follow [`Ctx::flow`]'s.
    fn structure(&mut self, net: &NetSpec, path: &str) {
        match net {
            NetSpec::Box(_) | NetSpec::Filter(_) => {}
            NetSpec::Sync(spec) => {
                if spec.patterns.len() < 2 {
                    self.push(Diagnostic::warning(
                        DiagCode::DegenerateSync,
                        format!("{path}/sync"),
                        format!(
                            "synchrocell {spec} has fewer than two patterns: it joins nothing and fires on the first match"
                        ),
                    ));
                }
            }
            NetSpec::Serial(a, b) => {
                self.structure(a, path);
                self.structure(b, path);
            }
            NetSpec::Parallel { branches, .. } => {
                let patterns: Vec<Vec<Pattern>> =
                    branches.iter().map(|b| b.input_patterns()).collect();
                for (j, branch) in branches.iter().enumerate() {
                    self.structure(branch, &format!("{path}/par[{j}]"));
                    let twin =
                        (0..j).find(|&i| !patterns[j].is_empty() && patterns[i] == patterns[j]);
                    if let Some(i) = twin {
                        self.push(Diagnostic::warning(
                            DiagCode::DuplicateBranchPatterns,
                            path.to_owned(),
                            format!(
                                "branches {i} ({}) and {j} ({branch}) have identical input patterns: they tie on every record, so branch {j} never receives one",
                                branches[i]
                            ),
                        ));
                    }
                }
            }
            NetSpec::Star { body, exit, .. } => {
                let path = format!("{path}/star");
                if exit.variant.is_empty() && exit.guard.is_none() {
                    self.push(Diagnostic::error(
                        DiagCode::StarBodyUnreachable,
                        path.clone(),
                        format!(
                            "star over {body} exits on the empty pattern, which matches every record: its body is unreachable"
                        ),
                    ));
                }
                self.structure(body, &path);
            }
            NetSpec::Split { body, tag, .. } => {
                self.structure(body, &format!("{path}/split<{tag}>"));
            }
            NetSpec::At { body, node } => {
                if let Some(n) = self.cfg.nodes.filter(|n| node >= n) {
                    self.push(Diagnostic::error(
                        DiagCode::PlacementOutOfRange,
                        format!("{path}/@{node}"),
                        format!("placement target @{node} is out of range: {n} node(s) configured"),
                    ));
                }
                self.structure(body, path);
            }
            NetSpec::Named { name, body } => self.structure(body, &format!("{path}/{name}")),
        }
    }

    /// The transfer function: shapes out of `net` given shapes into it.
    fn flow(&mut self, net: &NetSpec, input: ShapeSet, path: &str) -> ShapeSet {
        let out = match net {
            NetSpec::Box(def) => {
                let path = format!("{path}/{}", def.sig.name);
                let out = self.box_flow(def, &input);
                self.record(&path, &input, &out);
                out
            }
            NetSpec::Filter(spec) => {
                let path = format!("{path}/filter");
                let out = self.filter_flow(spec, &input, &path);
                self.record(&path, &input, &out);
                out
            }
            NetSpec::Sync(spec) => {
                let path = format!("{path}/sync");
                let out = self.sync_flow(spec, &input, &path);
                self.record(&path, &input, &out);
                out
            }
            NetSpec::Serial(a, b) => {
                let mid = self.flow(a, input, path);
                self.flow(b, mid, path)
            }
            NetSpec::Parallel { branches, .. } => self.parallel_flow(branches, &input, path),
            NetSpec::Star { body, exit, .. } => {
                let path = format!("{path}/star");
                let out = self.star_flow(body, exit, &input, &path);
                self.record(&path, &input, &out);
                out
            }
            NetSpec::Split { body, tag, .. } => {
                let path = format!("{path}/split<{tag}>");
                let out = self.split_flow(body, *tag, &input, &path);
                self.record(&path, &input, &out);
                out
            }
            NetSpec::At { body, .. } => self.flow(body, input, path),
            NetSpec::Named { name, body } => {
                let path = format!("{path}/{name}");
                let out = self.flow(body, input.clone(), &path);
                self.record(&path, &input, &out);
                out
            }
        };
        out
    }

    fn box_flow(&mut self, def: &BoxDef, input: &ShapeSet) -> ShapeSet {
        let iv = def.input_variant().clone();
        let outputs = def.sig.output_type();
        let mut out = ShapeSet::default();
        for s in input.shapes.clone() {
            if s.guarantees(&iv) {
                // Guaranteed match: each declared output variant plus the
                // flow-inherited remainder. A box may emit any subset of
                // its declared variants (or nothing), so outputs are
                // never definite.
                let rest = s.labels.difference(&iv);
                for ov in outputs.variants() {
                    self.add(
                        &mut out,
                        Shape {
                            labels: ov.union(&rest),
                            exact: s.exact,
                            definite: false,
                        },
                    );
                }
            } else if s.exact {
                // Provable mismatch: the permissive engines pass the
                // record through unchanged (MismatchPolicy::Forward).
                self.add(&mut out, s);
            } else {
                // Open shape, match unknown: both outcomes.
                let rest = s.labels.difference(&iv);
                for ov in outputs.variants() {
                    self.add(&mut out, Shape::open(ov.union(&rest)));
                }
                self.add(&mut out, s.with_definite(false));
            }
        }
        out
    }

    fn filter_flow(&mut self, spec: &FilterSpec, input: &ShapeSet, path: &str) -> ShapeSet {
        let p = &spec.pattern;
        let mut out = ShapeSet::default();
        for s in &input.shapes {
            let guaranteed = pat_guaranteed(s, p);
            let possible = pat_possible(s, p);
            if possible {
                if guaranteed && s.exact && s.definite {
                    self.check_templates(spec, s, path);
                }
                let rest = s.labels.difference(&p.variant);
                for t in &spec.outputs {
                    // Filters emit every template deterministically, so
                    // definiteness survives a guaranteed match.
                    self.add(
                        &mut out,
                        Shape {
                            labels: t.variant().union(&rest),
                            exact: s.exact,
                            definite: s.definite && guaranteed,
                        },
                    );
                }
            }
            if !guaranteed {
                self.add(&mut out, s.with_definite(s.definite && !possible));
            }
        }
        out
    }

    /// SNA005: a template references a label the (exact, definite,
    /// guaranteed-matching) input shape provably lacks — `apply` would
    /// raise `MissingField`/`MissingTag` on every such record.
    fn check_templates(&mut self, spec: &FilterSpec, s: &Shape, path: &str) {
        for t in &spec.outputs {
            for item in &t.items {
                match item {
                    OutItem::Field { src, .. } => {
                        if !s.labels.has_field(*src) {
                            self.push(Diagnostic::error(
                                DiagCode::UnboundLabel,
                                path.to_owned(),
                                format!(
                                    "output template copies field {src}, but the input type {} does not carry it",
                                    s.labels
                                ),
                            ));
                        }
                    }
                    OutItem::Tag { expr, .. } => {
                        let mut must = Vec::new();
                        must_tags(expr, &mut must);
                        for tag in must {
                            if !s.labels.has_tag(tag) {
                                self.push(Diagnostic::error(
                                    DiagCode::UnboundLabel,
                                    path.to_owned(),
                                    format!(
                                        "tag expression {expr} reads tag <{tag}>, but the input type {} does not carry it",
                                        s.labels
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    fn sync_flow(&mut self, spec: &SyncSpec, input: &ShapeSet, path: &str) -> ShapeSet {
        let mut out = ShapeSet::default();
        // Per-pattern possible matchers.
        let matchers: Vec<Vec<&Shape>> = spec
            .patterns
            .iter()
            .map(|p| input.shapes.iter().filter(|s| pat_possible(s, p)).collect())
            .collect();

        // SNA003: a pattern no reachable shape can complete, while some
        // other pattern can — whatever the completable patterns store is
        // held forever, and the cell never fires.
        let any_completable = matchers.iter().any(|m| !m.is_empty());
        for (i, m) in matchers.iter().enumerate() {
            if m.is_empty() && any_completable && spec.patterns.len() > 1 {
                self.push(Diagnostic::error(
                    DiagCode::SyncNeverFires,
                    path.to_owned(),
                    format!(
                        "synchrocell pattern {} can never be matched by the inferred upstream type — the cell can never fire and records matching its other patterns are stranded",
                        spec.patterns[i]
                    ),
                ));
            }
        }

        // Passthrough: records matching no pattern pass unchanged, and
        // after the cell fires it is the identity. A shape that may be
        // stored loses definiteness (the record may be consumed).
        for s in &input.shapes {
            let may_store = spec.patterns.iter().any(|p| pat_possible(s, p));
            self.add(&mut out, s.with_definite(s.definite && !may_store));
        }

        // Fired merges: one stored record per pattern, label-set union.
        if matchers.iter().all(|m| !m.is_empty()) {
            let combos: usize = matchers.iter().map(|m| m.len()).product();
            if combos > MAX_SYNC_COMBOS {
                let merged = spec
                    .patterns
                    .iter()
                    .fold(Variant::empty(), |acc, p| acc.union(&p.variant));
                self.add(&mut out, Shape::open(merged));
                self.saturated = true;
            } else {
                let mut picks = vec![0usize; matchers.len()];
                loop {
                    let mut labels = Variant::empty();
                    let mut exact = true;
                    for (i, m) in matchers.iter().enumerate() {
                        let s = m[picks[i]];
                        labels = labels.union(&s.labels);
                        exact &= s.exact;
                    }
                    self.add(
                        &mut out,
                        Shape {
                            labels,
                            exact,
                            definite: false,
                        },
                    );
                    // Odometer increment over the matcher sets.
                    let mut i = 0;
                    loop {
                        if i == picks.len() {
                            break;
                        }
                        picks[i] += 1;
                        if picks[i] < matchers[i].len() {
                            break;
                        }
                        picks[i] = 0;
                        i += 1;
                    }
                    if i == picks.len() {
                        break;
                    }
                }
            }
        }
        out
    }

    fn parallel_flow(&mut self, branches: &[NetSpec], input: &ShapeSet, path: &str) -> ShapeSet {
        let patterns: Vec<Vec<Pattern>> = branches.iter().map(|b| b.input_patterns()).collect();
        let mut routed: Vec<ShapeSet> = (0..branches.len()).map(|_| ShapeSet::default()).collect();
        let mut out = ShapeSet::default();
        for s in &input.shapes {
            let possible: Vec<usize> = patterns
                .iter()
                .enumerate()
                .filter(|(_, ps)| ps.iter().any(|p| pat_possible(s, p)))
                .map(|(i, _)| i)
                .collect();
            let guaranteed_any = patterns
                .iter()
                .any(|ps| ps.iter().any(|p| pat_guaranteed(s, p)));
            if possible.is_empty() {
                // `s.exact` is implied: an open shape possibly matches
                // everything. Guaranteed no-match: the dispatcher passes
                // the record through under MismatchPolicy::Forward and
                // raises SNA001's TypeMismatch under Error.
                if s.definite {
                    self.push(Diagnostic::error(
                        DiagCode::UnroutableAtParallel,
                        path.to_owned(),
                        format!(
                            "records of type {} reach this parallel combinator but no branch accepts them",
                            s.labels
                        ),
                    ));
                }
                self.add(&mut out, s.clone());
                continue;
            }
            // Routing is definite only when a single branch can match
            // and its match cannot fail.
            let single =
                possible.len() == 1 && patterns[possible[0]].iter().any(|p| pat_guaranteed(s, p));
            for &i in &possible {
                let shape = s.with_definite(s.definite && single);
                self.add(&mut routed[i], shape);
            }
            if !guaranteed_any {
                // All candidate matches are guarded: the record may
                // match nothing at runtime and pass through.
                self.add(&mut out, s.with_definite(false));
            }
        }
        for (i, branch) in branches.iter().enumerate() {
            let bpath = format!("{path}/par[{i}]");
            if routed[i].is_empty() {
                self.push(Diagnostic::warning(
                    DiagCode::DeadBranch,
                    bpath,
                    format!(
                        "branch {i} ({branch}) can never receive a record: no reachable type matches its input patterns"
                    ),
                ));
                continue;
            }
            let branch_out = self.flow(branch, routed[i].clone(), &bpath);
            let max = self.cfg.max_shapes;
            if out.extend_from(branch_out, max) {
                self.saturated = true;
            }
        }
        out
    }

    fn star_flow(
        &mut self,
        body: &NetSpec,
        exit: &Pattern,
        input: &ShapeSet,
        path: &str,
    ) -> ShapeSet {
        let mut inside = input.clone();
        let mut out = ShapeSet::default();
        for _round in 0..MAX_STAR_ROUNDS {
            let mut to_body = ShapeSet::default();
            for s in inside.shapes.clone() {
                let g = pat_guaranteed(&s, exit);
                let p = pat_possible(&s, exit);
                if p {
                    self.add(&mut out, s.with_definite(s.definite && g));
                }
                if !g {
                    self.add(&mut to_body, s.with_definite(s.definite && !p));
                }
            }
            if to_body.is_empty() {
                return out;
            }
            let body_out = self.flow(body, to_body, path);
            let before = inside.fingerprint();
            let max = self.cfg.max_shapes;
            if inside.extend_from(body_out, max) {
                self.saturated = true;
            }
            if inside.fingerprint() == before {
                return out;
            }
        }
        // Fixpoint did not settle within the round budget: widen the
        // star's output to the fully unknown shape.
        self.saturated = true;
        self.add(&mut out, Shape::open(Variant::empty()));
        out
    }

    fn split_flow(&mut self, body: &NetSpec, tag: Label, input: &ShapeSet, path: &str) -> ShapeSet {
        let mut tagv = Variant::empty();
        tagv.add_tag(tag);
        let mut to_body = ShapeSet::default();
        for s in &input.shapes {
            if s.guarantees(&tagv) {
                self.add(&mut to_body, s.clone());
            } else if s.exact {
                // Guaranteed missing tag: the dispatcher rejects the
                // record (error or dead letter) — it never reaches the
                // body.
                let d = if s.definite {
                    Diagnostic::error(
                        DiagCode::SplitMissingTag,
                        path.to_owned(),
                        format!(
                            "records of type {} reach this split but are not guaranteed to carry the index tag <{tag}>",
                            s.labels
                        ),
                    )
                } else {
                    Diagnostic::warning(
                        DiagCode::SplitMissingTag,
                        path.to_owned(),
                        format!(
                            "records of type {} may reach this split without the index tag <{tag}>",
                            s.labels
                        ),
                    )
                };
                self.push(d);
            } else {
                // Open shape: records that do reach the body certainly
                // carry the tag — refine the lower bound with it.
                self.add(
                    &mut to_body,
                    Shape {
                        labels: s.labels.union(&tagv),
                        exact: s.exact,
                        definite: false,
                    },
                );
            }
        }
        if to_body.is_empty() {
            return ShapeSet::default();
        }
        self.flow(body, to_body, path)
    }
}

/// Tags an expression evaluates *unconditionally* — missing any of them
/// makes `eval` fail on every record. The right operands of the
/// short-circuiting `&&`/`||` and the arms of `?:` may be skipped, so
/// only the always-evaluated positions count (mirrors
/// `TagExpr::eval`).
fn must_tags(e: &TagExpr, out: &mut Vec<Label>) {
    match e {
        TagExpr::Const(_) => {}
        TagExpr::Tag(l) => {
            if !out.contains(l) {
                out.push(*l);
            }
        }
        TagExpr::Unary(_, a) => must_tags(a, out),
        TagExpr::Bin(op, a, b) => {
            must_tags(a, out);
            if !matches!(op, BinOp::And | BinOp::Or) {
                must_tags(b, out);
            }
        }
        TagExpr::Cond(c, _, _) => must_tags(c, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::boxdef::{BoxOutput, BoxSig, Work};
    use snet_core::{Record, SyncSpec};

    fn dummy_box(name: &str, input: &[&str], outputs: &[&[&str]]) -> NetSpec {
        NetSpec::Box(BoxDef::from_fn(BoxSig::parse(name, input, outputs), |_r| {
            Ok(BoxOutput::one(Record::new(), Work::ZERO))
        }))
    }

    fn entry(fields: &[&str], tags: &[&str]) -> RType {
        RType::single(Variant::parse_labels(fields, tags))
    }

    fn codes(a: &Analysis) -> Vec<DiagCode> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_pipeline_infers_output_type() {
        let net = NetSpec::serial(
            dummy_box("a", &["x"], &[&["y"]]),
            dummy_box("b", &["y"], &[&["z", "<n>"]]),
        );
        let a = analyze(&net, &entry(&["x"], &[]), &AnalyzeConfig::default());
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(
            a.output,
            RType::single(Variant::parse_labels(&["z"], &["n"]))
        );
    }

    #[test]
    fn flow_inheritance_carries_extras() {
        // Entry {x, extra}: box `a` consumes {x}, so {extra} rides along.
        let net = dummy_box("a", &["x"], &[&["y"]]);
        let a = analyze(
            &net,
            &entry(&["x", "extra"], &[]),
            &AnalyzeConfig::default(),
        );
        assert_eq!(
            a.output,
            RType::single(Variant::parse_labels(&["extra", "y"], &[]))
        );
    }

    #[test]
    fn unroutable_parallel_is_flagged() {
        let net = NetSpec::parallel(vec![
            dummy_box("a", &["a"], &[&["y"]]),
            dummy_box("b", &["b"], &[&["y"]]),
        ]);
        let a = analyze(&net, &entry(&["c"], &[]), &AnalyzeConfig::default());
        assert!(codes(&a).contains(&DiagCode::UnroutableAtParallel));
    }

    #[test]
    fn routable_parallel_is_clean() {
        let net = NetSpec::parallel(vec![dummy_box("a", &["a"], &[&["y"]]), NetSpec::identity()]);
        let a = analyze(&net, &entry(&["c"], &[]), &AnalyzeConfig::default());
        assert!(!codes(&a).contains(&DiagCode::UnroutableAtParallel));
    }

    #[test]
    fn dead_branch_is_flagged() {
        let net = NetSpec::parallel(vec![
            dummy_box("a", &["a"], &[&["y"]]),
            dummy_box("b", &["never"], &[&["y"]]),
        ]);
        let a = analyze(&net, &entry(&["a"], &[]), &AnalyzeConfig::default());
        assert!(codes(&a).contains(&DiagCode::DeadBranch));
    }

    #[test]
    fn sync_that_cannot_complete_is_flagged() {
        let net = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["pic"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["chunk"], &[])),
        ]));
        let a = analyze(&net, &entry(&["pic"], &[]), &AnalyzeConfig::default());
        assert_eq!(codes(&a), vec![DiagCode::SyncNeverFires]);
    }

    #[test]
    fn completable_sync_is_clean_and_merges() {
        let net = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["pic"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["chunk"], &[])),
        ]));
        let t = RType::new([
            Variant::parse_labels(&["pic"], &[]),
            Variant::parse_labels(&["chunk"], &[]),
        ]);
        let a = analyze(&net, &t, &AnalyzeConfig::default());
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        // The merged {pic, chunk} shape is part of the output type.
        assert!(a
            .output
            .variants()
            .contains(&Variant::parse_labels(&["chunk", "pic"], &[])));
    }

    #[test]
    fn split_without_tag_is_flagged() {
        let net = NetSpec::split(dummy_box("a", &["x"], &[&["y"]]), "node");
        let a = analyze(&net, &entry(&["x"], &[]), &AnalyzeConfig::default());
        assert_eq!(codes(&a), vec![DiagCode::SplitMissingTag]);
        let a = analyze(
            &net,
            &RType::single(Variant::parse_labels(&["x"], &["node"])),
            &AnalyzeConfig::default(),
        );
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn filter_unbound_label_is_flagged() {
        // [{a} -> {a, b}] where b is never present.
        let spec = FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            vec![snet_core::OutputTemplate::empty()
                .keep_field("a")
                .keep_field("b")],
        );
        let net = NetSpec::Filter(spec);
        let a = analyze(&net, &entry(&["a"], &[]), &AnalyzeConfig::default());
        assert_eq!(codes(&a), vec![DiagCode::UnboundLabel]);
    }

    #[test]
    fn short_circuit_guard_tags_are_not_flagged() {
        // {<m = (0 && <missing>)>} never evaluates <missing>.
        let expr = TagExpr::bin(BinOp::And, TagExpr::Const(0), TagExpr::tag("missing"));
        let spec = FilterSpec::new(
            Pattern::any(),
            vec![snet_core::OutputTemplate::empty().set_tag("m", expr)],
        );
        let a = analyze(
            &NetSpec::Filter(spec),
            &entry(&[], &["n"]),
            &AnalyzeConfig::default(),
        );
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn placement_out_of_range_is_flagged() {
        let net = NetSpec::at(dummy_box("a", &["x"], &[&["y"]]), 5);
        let cfg = AnalyzeConfig {
            nodes: Some(2),
            ..AnalyzeConfig::default()
        };
        let a = analyze(&net, &entry(&["x"], &[]), &cfg);
        assert_eq!(codes(&a), vec![DiagCode::PlacementOutOfRange]);
        // Also fires with a completely unknown input (pre-flight mode).
        let a = analyze_open(&net, &cfg);
        assert_eq!(codes(&a), vec![DiagCode::PlacementOutOfRange]);
        // In range, or no bound configured: clean.
        let a = analyze_open(&net, &AnalyzeConfig::default());
        assert!(a.diagnostics.is_empty());
    }

    #[test]
    fn open_entry_suppresses_shape_diagnostics() {
        // Every shape-dependent hazard from the tests above, analyzed
        // with an unknown entry: nothing may fire (any record could
        // carry the missing labels).
        let net = NetSpec::pipeline([
            NetSpec::parallel(vec![
                dummy_box("a", &["a"], &[&["y"]]),
                dummy_box("b", &["b"], &[&["y"]]),
            ]),
            NetSpec::split(dummy_box("c", &["y"], &[&["z"]]), "node"),
        ]);
        let a = analyze_open(&net, &AnalyzeConfig::default());
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn star_fixpoint_terminates_and_exits() {
        // ({<n>} -> dec) * {<n>, <done>}: the body keeps the shape
        // stable; the exit is possible (guard-free label check).
        let body = NetSpec::Filter(FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
            vec![snet_core::OutputTemplate::empty().keep_tag("n")],
        ));
        let exit = Pattern::guarded(
            Variant::empty(),
            TagExpr::bin(BinOp::Le, TagExpr::tag("n"), TagExpr::Const(0)),
        );
        let net = NetSpec::star(body, exit);
        let a = analyze(&net, &entry(&[], &["n"]), &AnalyzeConfig::default());
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(a
            .output
            .variants()
            .contains(&Variant::parse_labels(&[], &["n"])));
    }

    #[test]
    fn guarded_shapes_are_never_flagged_unroutable() {
        // A guarded filter output feeds a parallel that cannot route it.
        // The {q} shape only occurs if the guard passes — flagging it
        // would be a possible false alarm, so SNA001 must stay silent.
        let guarded = FilterSpec::new(
            Pattern::guarded(
                Variant::empty(),
                TagExpr::bin(BinOp::Lt, TagExpr::tag("n"), TagExpr::Const(0)),
            ),
            vec![snet_core::OutputTemplate::empty().keep_field("q")],
        );
        let net = NetSpec::serial(
            NetSpec::Filter(guarded),
            NetSpec::parallel(vec![dummy_box("a", &["a"], &[&["y"]])]),
        );
        let a = analyze(
            &net,
            &RType::single(Variant::parse_labels(&["a", "q"], &["n"])),
            &AnalyzeConfig::default(),
        );
        assert!(
            !codes(&a).contains(&DiagCode::UnroutableAtParallel),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn subnet_types_are_recorded() {
        let net = NetSpec::named(
            "stage",
            NetSpec::serial(
                dummy_box("a", &["x"], &[&["y"]]),
                dummy_box("b", &["y"], &[&["z"]]),
            ),
        );
        let a = analyze(&net, &entry(&["x"], &[]), &AnalyzeConfig::default());
        let stage = a
            .types
            .iter()
            .find(|t| t.path == "net/stage")
            .expect("named subnet recorded");
        assert_eq!(
            stage.input,
            RType::single(Variant::parse_labels(&["x"], &[]))
        );
        assert_eq!(
            stage.output,
            RType::single(Variant::parse_labels(&["z"], &[]))
        );
        assert!(a.types.iter().any(|t| t.path == "net/stage/a"));
    }

    #[test]
    fn widening_collapses_to_open_and_silences() {
        // 70 distinct entry variants overflow max_shapes=8: the set
        // widens to one open shape and downstream absence diagnostics
        // (here: split-missing-tag) must stay silent.
        let mut t = RType::default();
        for i in 0..70 {
            t.push(Variant::parse_labels(&[&format!("f{i}")], &[]));
        }
        let net = NetSpec::split(dummy_box("a", &["x"], &[&["y"]]), "node");
        let cfg = AnalyzeConfig {
            max_shapes: 8,
            ..AnalyzeConfig::default()
        };
        let a = analyze(&net, &t, &cfg);
        assert!(a.saturated);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn must_tags_respects_short_circuit() {
        let e = TagExpr::bin(
            BinOp::Add,
            TagExpr::tag("a"),
            TagExpr::bin(BinOp::And, TagExpr::tag("b"), TagExpr::tag("skipped")),
        );
        let mut out = Vec::new();
        must_tags(&e, &mut out);
        assert_eq!(out, vec![Label::new("a"), Label::new("b")]);
    }
}
