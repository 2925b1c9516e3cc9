//! Integer tag expressions.
//!
//! Tags are "the universal language of all abstract machines" (§I): the
//! only values the coordination layer can compute with. Tag expressions
//! appear in filters (`[{<cnt>} -> {<cnt+=1>}]`), star exit guards
//! (`*{<tasks> == <cnt>}`) and placement (`!@<node>`).
//!
//! Booleans are represented as integers (`0` = false, anything else =
//! true), mirroring the C-ish expression language of the S-Net report.

use crate::error::SnetError;
use crate::label::Label;
use crate::record::Record;
use std::fmt;

/// Binary operators on tag values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Min,
    Max,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Unary operators on tag values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
    /// Absolute value.
    Abs,
}

/// An integer expression over the tags of a record.
#[derive(Clone, Debug, PartialEq)]
pub enum TagExpr {
    /// Integer literal.
    Const(i64),
    /// The value of tag `<l>` in the current record.
    Tag(Label),
    /// Unary operation.
    Unary(UnOp, Box<TagExpr>),
    /// Binary operation.
    Bin(BinOp, Box<TagExpr>, Box<TagExpr>),
    /// `if c then t else e` (c ≠ 0 selects t).
    Cond(Box<TagExpr>, Box<TagExpr>, Box<TagExpr>),
}

impl TagExpr {
    /// Shorthand: reference to a tag by name.
    pub fn tag(name: &str) -> TagExpr {
        TagExpr::Tag(Label::new(name))
    }

    /// Shorthand: binary node.
    pub fn bin(op: BinOp, a: TagExpr, b: TagExpr) -> TagExpr {
        TagExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Evaluates against a record's tags.
    pub fn eval(&self, rec: &Record) -> Result<i64, SnetError> {
        match self {
            TagExpr::Const(c) => Ok(*c),
            TagExpr::Tag(l) => rec.tag(*l).ok_or(SnetError::MissingTag(*l)),
            TagExpr::Unary(op, e) => {
                let v = e.eval(rec)?;
                Ok(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => i64::from(v == 0),
                    UnOp::Abs => v.wrapping_abs(),
                })
            }
            TagExpr::Bin(op, a, b) => {
                // && and || short-circuit like the box languages do.
                match op {
                    BinOp::And => {
                        return Ok(if a.eval(rec)? != 0 {
                            i64::from(b.eval(rec)? != 0)
                        } else {
                            0
                        })
                    }
                    BinOp::Or => {
                        return Ok(if a.eval(rec)? != 0 {
                            1
                        } else {
                            i64::from(b.eval(rec)? != 0)
                        })
                    }
                    _ => {}
                }
                let x = a.eval(rec)?;
                let y = b.eval(rec)?;
                Ok(match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(SnetError::DivisionByZero);
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Mod => {
                        if y == 0 {
                            return Err(SnetError::DivisionByZero);
                        }
                        x.wrapping_rem(y)
                    }
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    BinOp::Eq => i64::from(x == y),
                    BinOp::Ne => i64::from(x != y),
                    BinOp::Lt => i64::from(x < y),
                    BinOp::Le => i64::from(x <= y),
                    BinOp::Gt => i64::from(x > y),
                    BinOp::Ge => i64::from(x >= y),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                })
            }
            TagExpr::Cond(c, t, e) => {
                if c.eval(rec)? != 0 {
                    t.eval(rec)
                } else {
                    e.eval(rec)
                }
            }
        }
    }

    /// Evaluates as a boolean guard (`true` iff result ≠ 0).
    pub fn eval_bool(&self, rec: &Record) -> Result<bool, SnetError> {
        Ok(self.eval(rec)? != 0)
    }

    /// All tag labels referenced by the expression (used by the checker
    /// and by pattern construction from guards).
    pub fn referenced_tags(&self, out: &mut Vec<Label>) {
        match self {
            TagExpr::Const(_) => {}
            TagExpr::Tag(l) => {
                if !out.contains(l) {
                    out.push(*l);
                }
            }
            TagExpr::Unary(_, e) => e.referenced_tags(out),
            TagExpr::Bin(_, a, b) => {
                a.referenced_tags(out);
                b.referenced_tags(out);
            }
            TagExpr::Cond(c, t, e) => {
                c.referenced_tags(out);
                t.referenced_tags(out);
                e.referenced_tags(out);
            }
        }
    }
}

/// S-Net source, re-parsing to itself: binary operations are
/// parenthesized, and a negative constant prints as the negation it
/// re-parses to (the lexer has no negative literals).
impl fmt::Display for TagExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagExpr::Const(c) if *c < 0 => write!(f, "-({})", c.unsigned_abs()),
            TagExpr::Const(c) => write!(f, "{c}"),
            TagExpr::Tag(l) => write!(f, "<{l}>"),
            TagExpr::Unary(op, e) => match op {
                UnOp::Neg => write!(f, "-({e})"),
                UnOp::Not => write!(f, "!({e})"),
                UnOp::Abs => write!(f, "abs({e})"),
            },
            TagExpr::Bin(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Mod => "%",
                    BinOp::Min => return write!(f, "min({a}, {b})"),
                    BinOp::Max => return write!(f, "max({a}, {b})"),
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                };
                write!(f, "({a} {sym} {b})")
            }
            TagExpr::Cond(c, t, e) => write!(f, "({c} ? {t} : {e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn rec() -> Record {
        Record::new().with_tag("cnt", 3).with_tag("tasks", 8)
    }

    #[test]
    fn arithmetic() {
        let e = TagExpr::bin(BinOp::Add, TagExpr::tag("cnt"), TagExpr::Const(1));
        assert_eq!(e.eval(&rec()).unwrap(), 4);
        let e = TagExpr::bin(BinOp::Mul, TagExpr::tag("cnt"), TagExpr::tag("tasks"));
        assert_eq!(e.eval(&rec()).unwrap(), 24);
        let e = TagExpr::bin(BinOp::Mod, TagExpr::tag("tasks"), TagExpr::tag("cnt"));
        assert_eq!(e.eval(&rec()).unwrap(), 2);
    }

    #[test]
    fn comparisons_and_guard() {
        let done = TagExpr::bin(BinOp::Eq, TagExpr::tag("tasks"), TagExpr::tag("cnt"));
        assert!(!done.eval_bool(&rec()).unwrap());
        let r = Record::new().with_tag("cnt", 8).with_tag("tasks", 8);
        assert!(done.eval_bool(&r).unwrap());
    }

    #[test]
    fn missing_tag_errors() {
        let e = TagExpr::tag("nope");
        assert_eq!(
            e.eval(&rec()).unwrap_err(),
            SnetError::MissingTag(Label::new("nope"))
        );
    }

    #[test]
    fn division_by_zero_errors() {
        let e = TagExpr::bin(BinOp::Div, TagExpr::Const(1), TagExpr::Const(0));
        assert_eq!(e.eval(&rec()).unwrap_err(), SnetError::DivisionByZero);
        let e = TagExpr::bin(BinOp::Mod, TagExpr::Const(1), TagExpr::Const(0));
        assert_eq!(e.eval(&rec()).unwrap_err(), SnetError::DivisionByZero);
    }

    #[test]
    fn short_circuit_skips_missing_tags() {
        // (0 && <missing>) must not error.
        let e = TagExpr::bin(BinOp::And, TagExpr::Const(0), TagExpr::tag("missing"));
        assert_eq!(e.eval(&rec()).unwrap(), 0);
        let e = TagExpr::bin(BinOp::Or, TagExpr::Const(1), TagExpr::tag("missing"));
        assert_eq!(e.eval(&rec()).unwrap(), 1);
    }

    #[test]
    fn conditional() {
        let e = TagExpr::Cond(
            Box::new(TagExpr::bin(
                BinOp::Lt,
                TagExpr::tag("cnt"),
                TagExpr::tag("tasks"),
            )),
            Box::new(TagExpr::Const(100)),
            Box::new(TagExpr::Const(200)),
        );
        assert_eq!(e.eval(&rec()).unwrap(), 100);
    }

    #[test]
    fn referenced_tags_dedup() {
        let e = TagExpr::bin(
            BinOp::Add,
            TagExpr::tag("cnt"),
            TagExpr::bin(BinOp::Sub, TagExpr::tag("cnt"), TagExpr::tag("tasks")),
        );
        let mut v = Vec::new();
        e.referenced_tags(&mut v);
        assert_eq!(v, vec![Label::new("cnt"), Label::new("tasks")]);
    }

    #[test]
    fn display_round_readable() {
        let e = TagExpr::bin(BinOp::Eq, TagExpr::tag("tasks"), TagExpr::tag("cnt"));
        assert_eq!(e.to_string(), "(<tasks> == <cnt>)");
    }

    #[test]
    fn negative_and_unary_forms_print_as_source() {
        let a = || Box::new(TagExpr::tag("a"));
        assert_eq!(TagExpr::Const(-3).to_string(), "-(3)");
        assert_eq!(TagExpr::Unary(UnOp::Neg, a()).to_string(), "-(<a>)");
        assert_eq!(TagExpr::Unary(UnOp::Not, a()).to_string(), "!(<a>)");
    }
}
