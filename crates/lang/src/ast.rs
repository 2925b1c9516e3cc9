//! Abstract syntax of the S-Net language.
//!
//! The AST reuses `snet_core::TagExpr` for tag expressions so that the
//! compiler does not need a translation step for them. Every node
//! implements `Display`, producing parseable S-Net source again — the
//! property tests assert `parse ∘ print = id`.

use snet_core::TagExpr;
use std::fmt;

/// A complete program: declarations plus a top-level network expression.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Box and net declarations, in source order.
    pub items: Vec<Item>,
    /// The entry network: an explicit top-level `connect …`, or `None`
    /// when the entry is the last net definition.
    pub top: Option<NetExpr>,
}

/// A declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// `box name ((…) -> (…) | (…));`
    Box(BoxDecl),
    /// `net name [sig] { items } connect expr;` or `net name (sig);`
    Net(NetDef),
}

/// One entry of an ordered signature.
#[derive(Clone, Debug, PartialEq)]
pub enum SigItem {
    Field(String),
    Tag(String),
}

impl fmt::Display for SigItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigItem::Field(n) => write!(f, "{n}"),
            SigItem::Tag(n) => write!(f, "<{n}>"),
        }
    }
}

/// A box declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct BoxDecl {
    pub name: String,
    pub input: Vec<SigItem>,
    pub outputs: Vec<Vec<SigItem>>,
}

/// A type mapping in a net signature (`(chunk,<fst>) -> (pic)`).
#[derive(Clone, Debug, PartialEq)]
pub struct NetSigMap {
    pub input: Vec<SigItem>,
    pub outputs: Vec<Vec<SigItem>>,
}

/// A net definition (or pure declaration when `body` is `None`; the
/// implementation is then resolved from the box registry).
#[derive(Clone, Debug, PartialEq)]
pub struct NetDef {
    pub name: String,
    /// Optional declared signature (informational; printed back, never checked).
    pub sig: Vec<NetSigMap>,
    /// Local declarations visible in `body`.
    pub items: Vec<Item>,
    /// The `connect` expression.
    pub body: Option<NetExpr>,
}

/// A pattern: required labels plus guard conjuncts.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PatternAst {
    pub fields: Vec<String>,
    pub tags: Vec<String>,
    pub guards: Vec<TagExpr>,
}

impl fmt::Display for PatternAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            Ok(())
        };
        for n in &self.fields {
            sep(f)?;
            write!(f, "{n}")?;
        }
        for n in &self.tags {
            sep(f)?;
            write!(f, "<{n}>")?;
        }
        for g in &self.guards {
            sep(f)?;
            write!(f, "{g}")?;
        }
        write!(f, "}}")
    }
}

/// One item of a filter output template.
#[derive(Clone, Debug, PartialEq)]
pub enum OutItemAst {
    /// `{b = a}` (or `{a}` when `dst == src`).
    Field { dst: String, src: String },
    /// `{<t = expr>}` (or `{<t>}` for a copy).
    Tag { dst: String, expr: TagExpr },
}

impl fmt::Display for OutItemAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutItemAst::Field { dst, src } if dst == src => write!(f, "{dst}"),
            OutItemAst::Field { dst, src } => write!(f, "{dst} = {src}"),
            OutItemAst::Tag { dst, expr } => {
                if let TagExpr::Tag(l) = expr {
                    if l.as_str() == dst {
                        return write!(f, "<{dst}>");
                    }
                }
                write!(f, "<{dst} = {expr}>")
            }
        }
    }
}

/// A filter.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterAst {
    pub pattern: PatternAst,
    /// One template per produced record; empty vector for the identity
    /// filter `[]`.
    pub outputs: Vec<Vec<OutItemAst>>,
    /// `true` for `[]`.
    pub identity: bool,
}

/// A network expression.
#[derive(Clone, Debug, PartialEq)]
pub enum NetExpr {
    /// Reference to a declared box or net.
    Ref(String),
    Filter(FilterAst),
    Sync(Vec<PatternAst>),
    Serial(Box<NetExpr>, Box<NetExpr>),
    Parallel {
        branches: Vec<NetExpr>,
        det: bool,
    },
    Star {
        body: Box<NetExpr>,
        exit: PatternAst,
        det: bool,
    },
    Split {
        body: Box<NetExpr>,
        tag: String,
        placed: bool,
    },
    At {
        body: Box<NetExpr>,
        node: i64,
    },
}

fn fmt_sig_items(f: &mut fmt::Formatter<'_>, items: &[SigItem]) -> fmt::Result {
    write!(f, "(")?;
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{it}")?;
    }
    write!(f, ")")
}

impl fmt::Display for BoxDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "box {} (", self.name)?;
        fmt_sig_items(f, &self.input)?;
        write!(f, " -> ")?;
        for (i, out) in self.outputs.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            fmt_sig_items(f, out)?;
        }
        write!(f, ");")
    }
}

impl fmt::Display for NetDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net {}", self.name)?;
        if !self.sig.is_empty() {
            write!(f, " (")?;
            for (i, m) in self.sig.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_sig_items(f, &m.input)?;
                write!(f, " -> ")?;
                for (j, out) in m.outputs.iter().enumerate() {
                    if j > 0 {
                        write!(f, " | ")?;
                    }
                    fmt_sig_items(f, out)?;
                }
            }
            write!(f, ")")?;
        }
        match &self.body {
            None => write!(f, ";"),
            Some(body) => {
                write!(f, " {{ ")?;
                for item in &self.items {
                    write!(f, "{item} ")?;
                }
                write!(f, "}} connect {body};")
            }
        }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Item::Box(b) => write!(f, "{b}"),
            Item::Net(n) => write!(f, "{n}"),
        }
    }
}

impl fmt::Display for FilterAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.identity {
            return write!(f, "[]");
        }
        write!(f, "[ {} ->", self.pattern)?;
        for (i, t) in self.outputs.iter().enumerate() {
            if i > 0 {
                write!(f, " ;")?;
            }
            write!(f, " {{")?;
            for (j, item) in t.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{item}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, " ]")
    }
}

impl fmt::Display for NetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetExpr::Ref(n) => write!(f, "{n}"),
            NetExpr::Filter(x) => write!(f, "{x}"),
            NetExpr::Sync(ps) => {
                write!(f, "[| ")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, " |]")
            }
            NetExpr::Serial(a, b) => write!(f, "({a} .. {b})"),
            NetExpr::Parallel { branches, det } => {
                write!(f, "(")?;
                let sep = if *det { " || " } else { " | " };
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        write!(f, "{sep}")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            NetExpr::Star { body, exit, det } => {
                write!(f, "({body}){}{exit}", if *det { "**" } else { "*" })
            }
            NetExpr::Split { body, tag, placed } => {
                write!(f, "({body})!{}<{tag}>", if *placed { "@" } else { "" })
            }
            NetExpr::At { body, node } => write!(f, "({body})@{node}"),
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.items {
            writeln!(f, "{item}")?;
        }
        if let Some(top) = &self.top {
            write!(f, "connect {top}")?;
        }
        Ok(())
    }
}
