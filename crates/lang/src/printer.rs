//! Pretty-printer: topology → S-Net source.
//!
//! Emits a complete, re-parseable program for any [`NetSpec`]: box
//! declarations (recovered from the box signatures in the tree)
//! followed by a top-level `connect` expression. Together with
//! [`crate::compile()`] this gives the round-trip property tested in
//! `tests/roundtrip.rs`:
//!
//! ```text
//! to_source ∘ compile ∘ parse ∘ to_source  =  to_source
//! ```
//!
//! Named subnets are inlined (names are descriptive only); box names
//! are declared once each — reusing one name for two different
//! signatures is rejected.

use crate::registry::BoxRegistry;
use snet_core::filter::{FilterSpec, OutItem};
use snet_core::{NetSpec, Pattern, SnetError, TagExpr};
use std::fmt::Write;

/// Renders a complete program: declarations plus `connect`.
pub fn to_source(net: &NetSpec) -> Result<String, SnetError> {
    let mut decls: Vec<(String, String)> = Vec::new();
    collect_boxes(net, &mut decls)?;
    let mut out = String::new();
    for (_, decl) in &decls {
        let _ = writeln!(out, "{decl}");
    }
    let _ = write!(out, "connect {}", expr_source(net));
    Ok(out)
}

/// Renders just the network expression (no declarations).
pub fn expr_source(net: &NetSpec) -> String {
    let mut s = String::new();
    emit(net, &mut s);
    s
}

/// Recovers a [`BoxRegistry`] binding every box implementation found in
/// the tree under its declared name — the companion to [`to_source`]
/// when re-compiling printed programs.
pub fn extract_registry(net: &NetSpec) -> BoxRegistry {
    fn walk(net: &NetSpec, reg: &mut BoxRegistry) {
        match net {
            NetSpec::Box(def) => {
                reg.register_arc(&def.sig.name, std::sync::Arc::clone(&def.func));
            }
            NetSpec::Filter(_) | NetSpec::Sync(_) => {}
            NetSpec::Serial(a, b) => {
                walk(a, reg);
                walk(b, reg);
            }
            NetSpec::Parallel { branches, .. } => branches.iter().for_each(|b| walk(b, reg)),
            NetSpec::Star { body, .. }
            | NetSpec::Split { body, .. }
            | NetSpec::At { body, .. }
            | NetSpec::Named { body, .. } => walk(body, reg),
        }
    }
    let mut reg = BoxRegistry::new();
    walk(net, &mut reg);
    reg
}

fn collect_boxes(net: &NetSpec, decls: &mut Vec<(String, String)>) -> Result<(), SnetError> {
    match net {
        NetSpec::Box(def) => {
            let name = def.sig.name.clone();
            let rendered = render_box_decl(&def.sig);
            if let Some((_, existing)) = decls.iter().find(|(n, _)| *n == name) {
                if *existing != rendered {
                    return Err(SnetError::Check(format!(
                        "box name `{name}` is used with two different signatures; \
                         cannot print an unambiguous program"
                    )));
                }
            } else {
                decls.push((name, rendered));
            }
            Ok(())
        }
        NetSpec::Filter(_) | NetSpec::Sync(_) => Ok(()),
        NetSpec::Serial(a, b) => {
            collect_boxes(a, decls)?;
            collect_boxes(b, decls)
        }
        NetSpec::Parallel { branches, .. } => {
            branches.iter().try_for_each(|b| collect_boxes(b, decls))
        }
        NetSpec::Star { body, .. }
        | NetSpec::Split { body, .. }
        | NetSpec::At { body, .. }
        | NetSpec::Named { body, .. } => collect_boxes(body, decls),
    }
}

fn render_box_decl(sig: &snet_core::BoxSig) -> String {
    fn items(list: &[snet_core::SigItem]) -> String {
        let parts: Vec<String> = list
            .iter()
            .map(|it| match it {
                snet_core::SigItem::Field(l) => l.to_string(),
                snet_core::SigItem::Tag(l) => format!("<{l}>"),
            })
            .collect();
        format!("({})", parts.join(", "))
    }
    let outs: Vec<String> = sig.outputs.iter().map(|o| items(o)).collect();
    format!(
        "box {} ({} -> {});",
        sig.name,
        items(&sig.input),
        outs.join(" | ")
    )
}

fn emit(net: &NetSpec, out: &mut String) {
    match net {
        NetSpec::Box(def) => out.push_str(&def.sig.name),
        NetSpec::Filter(f) => emit_filter(f, out),
        NetSpec::Sync(s) => {
            out.push_str("[| ");
            for (i, p) in s.patterns.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_pattern(p, out);
            }
            out.push_str(" |]");
        }
        NetSpec::Serial(a, b) => {
            out.push('(');
            emit(a, out);
            out.push_str(" .. ");
            emit(b, out);
            out.push(')');
        }
        NetSpec::Parallel { branches, det } => {
            out.push('(');
            let sep = if *det { " || " } else { " | " };
            for (i, b) in branches.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                emit(b, out);
            }
            out.push(')');
        }
        NetSpec::Star { body, exit, det } => {
            out.push('(');
            emit(body, out);
            out.push(')');
            out.push_str(if *det { " ** " } else { " * " });
            emit_pattern(exit, out);
        }
        NetSpec::Split { body, tag, placed } => {
            out.push('(');
            emit(body, out);
            out.push(')');
            out.push_str(if *placed { " !@ " } else { " ! " });
            let _ = write!(out, "<{tag}>");
        }
        NetSpec::At { body, node } => {
            out.push('(');
            emit(body, out);
            out.push(')');
            let _ = write!(out, " @ {node}");
        }
        NetSpec::Named { body, .. } => emit(body, out),
    }
}

fn emit_pattern(p: &Pattern, out: &mut String) {
    out.push('{');
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(", ");
        }
        first = false;
    };
    for f in p.variant.fields() {
        sep(out);
        let _ = write!(out, "{f}");
    }
    for t in p.variant.tags() {
        sep(out);
        let _ = write!(out, "<{t}>");
    }
    if let Some(g) = &p.guard {
        sep(out);
        // A guard that is just `<t>` would re-parse as a tag *label*;
        // parenthesize so it stays an expression element.
        if matches!(g, TagExpr::Tag(_)) {
            out.push('(');
            emit_expr(g, out);
            out.push(')');
        } else {
            emit_expr(g, out);
        }
    }
    out.push('}');
}

fn emit_filter(f: &FilterSpec, out: &mut String) {
    if f.is_identity() {
        out.push_str("[]");
        return;
    }
    out.push_str("[ ");
    emit_pattern(&f.pattern, out);
    out.push_str(" -> ");
    for (i, template) in f.outputs.iter().enumerate() {
        if i > 0 {
            out.push_str(" ; ");
        }
        out.push('{');
        for (j, item) in template.items.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            match item {
                OutItem::Field { dst, src } if dst == src => {
                    let _ = write!(out, "{dst}");
                }
                OutItem::Field { dst, src } => {
                    let _ = write!(out, "{dst} = {src}");
                }
                OutItem::Tag { dst, expr } => {
                    if let TagExpr::Tag(src) = expr {
                        if src == dst {
                            let _ = write!(out, "<{dst}>");
                            continue;
                        }
                    }
                    let _ = write!(out, "<{dst} = ");
                    emit_expr(expr, out);
                    out.push('>');
                }
            }
        }
        out.push('}');
    }
    out.push_str(" ]");
}

fn emit_expr(e: &TagExpr, out: &mut String) {
    use snet_core::{BinOp, UnOp};
    match e {
        TagExpr::Const(c) => {
            // The lexer has no negative literals (`-1` parses as unary
            // negation), so print negatives in the form they re-parse
            // to, keeping printing a fixed point.
            if *c < 0 {
                let _ = write!(out, "-({})", c.unsigned_abs());
            } else {
                let _ = write!(out, "{c}");
            }
        }
        TagExpr::Tag(l) => {
            let _ = write!(out, "<{l}>");
        }
        TagExpr::Unary(op, inner) => {
            match op {
                UnOp::Neg => out.push('-'),
                UnOp::Not => out.push('!'),
                UnOp::Abs => out.push_str("abs"),
            }
            out.push('(');
            emit_expr(inner, out);
            out.push(')');
        }
        TagExpr::Bin(op, a, b) => {
            if matches!(op, BinOp::Min | BinOp::Max) {
                out.push_str(if *op == BinOp::Min { "min" } else { "max" });
                out.push('(');
                emit_expr(a, out);
                out.push_str(", ");
                emit_expr(b, out);
                out.push(')');
                return;
            }
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "&&",
                BinOp::Or => "||",
                BinOp::Min | BinOp::Max => unreachable!("handled above"),
            };
            out.push('(');
            emit_expr(a, out);
            let _ = write!(out, " {sym} ");
            emit_expr(b, out);
            out.push(')');
        }
        TagExpr::Cond(c, t, f) => {
            out.push('(');
            emit_expr(c, out);
            out.push_str(" ? ");
            emit_expr(t, out);
            out.push_str(" : ");
            emit_expr(f, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use snet_core::filter::OutputTemplate;
    use snet_core::{BinOp, Record, SyncSpec, Variant};

    fn a_box(name: &str) -> NetSpec {
        NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse(name, &["x", "<k>"], &[&["y"], &[]]),
            |r: &Record| Ok(BoxOutput::one(r.clone(), Work::ZERO)),
        ))
    }

    #[test]
    fn declarations_and_connect() {
        let net = NetSpec::serial(a_box("f"), a_box("g"));
        let src = to_source(&net).unwrap();
        assert!(src.contains("box f ((x, <k>) -> (y) | ());"), "{src}");
        assert!(src.contains("connect (f .. g)"), "{src}");
    }

    #[test]
    fn conflicting_signatures_are_rejected() {
        let other = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("f", &["z"], &[&["z"]]),
            |r: &Record| Ok(BoxOutput::one(r.clone(), Work::ZERO)),
        ));
        let net = NetSpec::serial(a_box("f"), other);
        assert!(to_source(&net).is_err());
    }

    #[test]
    fn printed_fig4_style_net_reparses() {
        let filter = NetSpec::Filter(snet_core::FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&["chunk"], &["node"])),
            vec![
                OutputTemplate::empty().keep_field("chunk"),
                OutputTemplate::empty().keep_tag("node"),
            ],
        ));
        let guarded = Pattern::guarded(
            Variant::empty(),
            TagExpr::bin(BinOp::Eq, TagExpr::tag("tasks"), TagExpr::tag("cnt")),
        );
        let cell = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["sect"], &[])),
            Pattern::from_variant(Variant::parse_labels(&[], &["node"])),
        ]));
        let net = NetSpec::star(
            NetSpec::serial(
                NetSpec::parallel(vec![
                    NetSpec::split_placed(NetSpec::serial(a_box("solve"), filter), "node"),
                    NetSpec::identity(),
                ]),
                NetSpec::parallel(vec![NetSpec::identity(), cell]),
            ),
            guarded,
        );
        let src = to_source(&net).unwrap();
        let reg = extract_registry(&net);
        let reparsed = compile(&src, &reg).expect("printed program reparses");
        let src2 = to_source(&reparsed).unwrap();
        assert_eq!(src, src2, "printing is a fixed point");
    }

    #[test]
    fn expression_forms_round_trip() {
        use snet_core::UnOp;
        let exprs = [
            TagExpr::Cond(
                Box::new(TagExpr::bin(
                    BinOp::Lt,
                    TagExpr::tag("a"),
                    TagExpr::Const(3),
                )),
                Box::new(TagExpr::Const(1)),
                Box::new(TagExpr::Unary(UnOp::Neg, Box::new(TagExpr::tag("b")))),
            ),
            TagExpr::bin(
                BinOp::Min,
                TagExpr::tag("a"),
                TagExpr::bin(BinOp::Mod, TagExpr::tag("b"), TagExpr::Const(4)),
            ),
        ];
        for e in exprs {
            let filter = NetSpec::Filter(snet_core::FilterSpec::new(
                Pattern::from_variant(Variant::parse_labels(&[], &["a", "b"])),
                vec![OutputTemplate::empty().set_tag("r", e)],
            ));
            let src = to_source(&filter).unwrap();
            let reparsed = compile(&src, &BoxRegistry::new()).expect("reparses");
            assert_eq!(src, to_source(&reparsed).unwrap(), "{src}");
        }
    }
}
