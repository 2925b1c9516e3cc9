//! Abstract syntax of the S-Net language.
//!
//! What the [parser](crate::parser) produces and
//! [`compile`](mod@crate::compile) consumes. The AST reuses
//! `snet_core::TagExpr` for tag expressions so that the compiler does
//! not need a translation step for them. It has no printer of its own:
//! source is printed from the compiled `snet_core::NetSpec`
//! ([`crate::printer`]), and the round-trip property
//! (`tests/roundtrip.rs`) runs through that.

use snet_core::TagExpr;

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
    /// Optional declared signature (informational; never checked).
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

/// One item of a filter output template.
#[derive(Clone, Debug, PartialEq)]
pub enum OutItemAst {
    /// `{b = a}` (or `{a}` when `dst == src`).
    Field { dst: String, src: String },
    /// `{<t = expr>}` (or `{<t>}` for a copy).
    Tag { dst: String, expr: TagExpr },
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
