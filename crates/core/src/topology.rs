//! Network topology: the combinator algebra.
//!
//! S-Net describes streaming networks by algebraic formulae over SISO
//! entities (§III). [`NetSpec`] is that formula as a tree:
//!
//! * `Serial(A, B)` — `A .. B`, pipeline composition;
//! * `Parallel{branches}` — `A | B | …`, best-match routing with a
//!   nondeterministic arrival-order merge;
//! * `Star{body, exit}` — `A * pattern`, serial replication tapped before
//!   every replica;
//! * `Split{body, tag}` — `A ! <tag>`, parallel replication indexed by a
//!   tag value (`placed: true` makes it the Distributed S-Net `A !@ <tag>`
//!   combinator: the tag value selects the compute node);
//! * `At{body, node}` — `A @ num`, static placement.
//!
//! All combinators preserve the SISO property, so every subtree is itself
//! a network. The tree is cheap to clone (boxes hold `Arc`ed functions).

use crate::boxdef::BoxDef;
use crate::filter::FilterSpec;
use crate::label::Label;
use crate::pattern::Pattern;
use crate::sync::SyncSpec;
use std::fmt::{self, Display};

/// A network expression.
#[derive(Clone, Debug)]
pub enum NetSpec {
    /// A user box.
    Box(BoxDef),
    /// A filter `[ … ]` (the identity filter `[]` included).
    Filter(FilterSpec),
    /// A synchrocell `[| … |]`.
    Sync(SyncSpec),
    /// Serial composition `A .. B`.
    Serial(Box<NetSpec>, Box<NetSpec>),
    /// Parallel composition `A | B | …`.
    Parallel {
        /// Branches in declaration order (tie-break order).
        branches: Vec<NetSpec>,
        /// Deterministic variant `||` (tie-breaks and merge order are
        /// fixed); the paper's networks use the nondeterministic form.
        det: bool,
    },
    /// Serial replication `A * pattern`.
    Star {
        /// Replicated body.
        body: Box<NetSpec>,
        /// Exit pattern, checked before every replica.
        exit: Pattern,
        /// Deterministic variant `**`.
        det: bool,
    },
    /// Parallel replication `A ! <tag>` / `A !@ <tag>`.
    Split {
        /// Replicated body.
        body: Box<NetSpec>,
        /// The index tag; every incoming record must carry it.
        tag: Label,
        /// `true` for `!@<tag>`: tag value = compute-node number.
        placed: bool,
    },
    /// Static placement `A @ node` (Distributed S-Net).
    At {
        /// Placed body.
        body: Box<NetSpec>,
        /// Abstract compute node (MPI rank in the prototype).
        node: u32,
    },
    /// A named subnet (`net foo { … } connect …`); purely descriptive.
    Named {
        /// The net name.
        name: String,
        /// The body.
        body: Box<NetSpec>,
    },
}

impl NetSpec {
    /// `A .. B`
    pub fn serial(a: NetSpec, b: NetSpec) -> NetSpec {
        NetSpec::Serial(Box::new(a), Box::new(b))
    }

    /// Folds a sequence into a serial pipeline.
    pub fn pipeline(stages: impl IntoIterator<Item = NetSpec>) -> NetSpec {
        let mut it = stages.into_iter();
        let first = it.next().expect("pipeline needs at least one stage");
        it.fold(first, NetSpec::serial)
    }

    /// `A | B | …` (nondeterministic).
    pub fn parallel(branches: Vec<NetSpec>) -> NetSpec {
        NetSpec::Parallel {
            branches,
            det: false,
        }
    }

    /// `A * pattern` (nondeterministic).
    pub fn star(body: NetSpec, exit: Pattern) -> NetSpec {
        NetSpec::Star {
            body: Box::new(body),
            exit,
            det: false,
        }
    }

    /// `A ! <tag>`.
    pub fn split(body: NetSpec, tag: impl Into<Label>) -> NetSpec {
        NetSpec::Split {
            body: Box::new(body),
            tag: tag.into(),
            placed: false,
        }
    }

    /// `A !@ <tag>` (indexed dynamic placement).
    pub fn split_placed(body: NetSpec, tag: impl Into<Label>) -> NetSpec {
        NetSpec::Split {
            body: Box::new(body),
            tag: tag.into(),
            placed: true,
        }
    }

    /// `A @ node` (static placement).
    pub fn at(body: NetSpec, node: u32) -> NetSpec {
        NetSpec::At {
            body: Box::new(body),
            node,
        }
    }

    /// Wraps with a net name.
    pub fn named(name: &str, body: NetSpec) -> NetSpec {
        NetSpec::Named {
            name: name.to_owned(),
            body: Box::new(body),
        }
    }

    /// The identity network `[]`.
    pub fn identity() -> NetSpec {
        NetSpec::Filter(FilterSpec::identity())
    }

    /// The input patterns this network *attracts* — used by parallel
    /// dispatchers for best-match routing (§III: "any incoming record is
    /// directed towards the subnetwork whose input type better matches").
    pub fn input_patterns(&self) -> Vec<Pattern> {
        match self {
            NetSpec::Box(b) => vec![Pattern::from_variant(b.sig.input_variant())],
            NetSpec::Filter(f) => vec![f.pattern.clone()],
            NetSpec::Sync(s) => s.patterns.clone(),
            NetSpec::Serial(a, _) => a.input_patterns(),
            NetSpec::Parallel { branches, .. } => {
                branches.iter().flat_map(|b| b.input_patterns()).collect()
            }
            NetSpec::Star { body, exit, .. } => {
                let mut ps = body.input_patterns();
                ps.push(exit.clone());
                ps
            }
            NetSpec::Split { body, tag, .. } => {
                // `A!<t>` adds <t> to every input variant of A.
                body.input_patterns()
                    .into_iter()
                    .map(|mut p| {
                        p.variant.add_tag(*tag);
                        p
                    })
                    .collect()
            }
            NetSpec::At { body, .. } | NetSpec::Named { body, .. } => body.input_patterns(),
        }
    }

    /// Number of primitive components (boxes + filters + syncs) in the
    /// static description (replication not unrolled).
    pub fn component_count(&self) -> usize {
        match self {
            NetSpec::Box(_) | NetSpec::Filter(_) | NetSpec::Sync(_) => 1,
            NetSpec::Serial(a, b) => a.component_count() + b.component_count(),
            NetSpec::Parallel { branches, .. } => {
                branches.iter().map(|b| b.component_count()).sum()
            }
            NetSpec::Star { body, .. }
            | NetSpec::Split { body, .. }
            | NetSpec::At { body, .. }
            | NetSpec::Named { body, .. } => body.component_count(),
        }
    }

    /// All box names referenced by the network (for registry resolution
    /// diagnostics).
    pub fn box_names(&self, out: &mut Vec<String>) {
        match self {
            NetSpec::Box(b) => {
                if !out.contains(&b.sig.name) {
                    out.push(b.sig.name.clone());
                }
            }
            NetSpec::Filter(_) | NetSpec::Sync(_) => {}
            NetSpec::Serial(a, b) => {
                a.box_names(out);
                b.box_names(out);
            }
            NetSpec::Parallel { branches, .. } => {
                for b in branches {
                    b.box_names(out);
                }
            }
            NetSpec::Star { body, .. }
            | NetSpec::Split { body, .. }
            | NetSpec::At { body, .. }
            | NetSpec::Named { body, .. } => body.box_names(out),
        }
    }
}

/// The network expression as S-Net source. Formatter flags reach every
/// subnet: `{}` prints a [`NetSpec::Named`] subnet by its name, and
/// `{:#}` prints its body in its place, so that the text is a program
/// needing no declaration beyond its boxes'.
impl fmt::Display for NetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetSpec::Box(b) => f.write_str(&b.sig.name),
            NetSpec::Filter(spec) => write!(f, "{spec}"),
            NetSpec::Sync(spec) => write!(f, "{spec}"),
            NetSpec::Serial(a, b) => {
                write!(f, "(")?;
                a.fmt(f)?;
                write!(f, " .. ")?;
                b.fmt(f)?;
                write!(f, ")")
            }
            NetSpec::Parallel { branches, det } => {
                let sep = if *det { " || " } else { " | " };
                write!(f, "(")?;
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        write!(f, "{sep}")?;
                    }
                    b.fmt(f)?;
                }
                write!(f, ")")
            }
            NetSpec::Star { body, exit, det } => {
                parenthesized(body, f)?;
                write!(f, "{}{exit}", if *det { "**" } else { "*" })
            }
            NetSpec::Split { body, tag, placed } => {
                parenthesized(body, f)?;
                write!(f, "!{}<{tag}>", if *placed { "@" } else { "" })
            }
            NetSpec::At { body, node } => {
                parenthesized(body, f)?;
                write!(f, "@{node}")
            }
            NetSpec::Named { body, .. } if f.alternate() => body.fmt(f),
            NetSpec::Named { name, .. } => f.write_str(name),
        }
    }
}

/// `(net)`, the formatter's flags passed on.
fn parenthesized(net: &NetSpec, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "(")?;
    net.fmt(f)?;
    write!(f, ")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxdef::{BoxOutput, BoxSig, Work};
    use crate::record::Record;
    use crate::rtype::Variant;
    use crate::value::Value;

    fn dummy_box(name: &str, input: &[&str], outputs: &[&[&str]]) -> NetSpec {
        NetSpec::Box(BoxDef::from_fn(BoxSig::parse(name, input, outputs), |_r| {
            Ok(BoxOutput::one(Record::new(), Work::ZERO))
        }))
    }

    #[test]
    fn static_net_display_matches_paper_shape() {
        // splitter .. solver!@<node> .. merger .. genImg  (Fig 2)
        let net = NetSpec::pipeline([
            dummy_box(
                "splitter",
                &["scene", "<nodes>", "<tasks>"],
                &[&["scene", "sect"]],
            ),
            NetSpec::split_placed(
                dummy_box("solver", &["scene", "sect"], &[&["chunk"]]),
                "node",
            ),
            NetSpec::named("merger", NetSpec::identity()),
            dummy_box("genImg", &["pic"], &[&[]]),
        ]);
        let s = net.to_string();
        assert!(s.contains("splitter"));
        assert!(s.contains("(solver)!@<node>"));
        assert!(s.contains("merger"));
    }

    #[test]
    fn alternate_display_prints_named_subnets_inline() {
        let net = NetSpec::serial(
            NetSpec::named("m", NetSpec::identity()),
            NetSpec::identity(),
        );
        assert_eq!(format!("{net}"), "(m .. [])");
        assert_eq!(format!("{net:#}"), "([] .. [])");
    }

    #[test]
    fn input_patterns_of_split_require_tag() {
        let solver = dummy_box("solver", &["scene", "sect"], &[&["chunk"]]);
        let placed = NetSpec::split_placed(solver, "node");
        let ps = placed.input_patterns();
        assert_eq!(ps.len(), 1);
        assert!(ps[0].variant.has_tag(Label::new("node")));
        assert!(ps[0].variant.has_field(Label::new("scene")));
        // A section without <node> does not match; with it, it does.
        let with = Record::new()
            .with_field("scene", Value::Unit)
            .with_field("sect", Value::Unit)
            .with_tag("node", 1);
        let without = Record::new()
            .with_field("scene", Value::Unit)
            .with_field("sect", Value::Unit);
        assert!(ps[0].matches(&with));
        assert!(!ps[0].matches(&without));
    }

    #[test]
    fn star_attracts_exit_and_body() {
        let body = dummy_box("solve", &["sect"], &[&["chunk"]]);
        let star = NetSpec::star(
            body,
            Pattern::from_variant(Variant::parse_labels(&["chunk"], &[])),
        );
        let ps = star.input_patterns();
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn serial_takes_left_patterns() {
        let net = NetSpec::serial(NetSpec::identity(), dummy_box("b", &["x"], &[&["y"]]));
        let ps = net.input_patterns();
        assert_eq!(ps.len(), 1);
        assert!(ps[0].variant.is_empty()); // identity filter pattern
    }

    #[test]
    fn component_count_walks_tree() {
        let net = NetSpec::serial(
            NetSpec::parallel(vec![NetSpec::identity(), NetSpec::identity()]),
            NetSpec::star(
                NetSpec::identity(),
                Pattern::from_variant(Variant::parse_labels(&["p"], &[])),
            ),
        );
        assert_eq!(net.component_count(), 3);
    }

    #[test]
    fn box_names_deduplicated() {
        let a = dummy_box("solve", &["x"], &[&["y"]]);
        let net = NetSpec::parallel(vec![a.clone(), a]);
        let mut names = Vec::new();
        net.box_names(&mut names);
        assert_eq!(names, vec!["solve".to_string()]);
    }
}
