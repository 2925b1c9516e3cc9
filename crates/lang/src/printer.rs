//! Topology → S-Net source: a complete, re-parseable program for any
//! [`NetSpec`].
//!
//! The text itself is `snet-core`'s: each type's `Display` is its
//! concrete syntax (`NetSpec`'s alternate form `{:#}` prints named
//! subnets inline). What this module adds is the program around it —
//! a declaration per box, recovered from the box signatures in the
//! tree, and the `connect` line. Together with [`crate::compile()`]
//! this gives the round-trip property tested in `tests/roundtrip.rs`:
//!
//! ```text
//! to_source ∘ compile ∘ parse ∘ to_source  =  to_source
//! ```
//!
//! Box names are declared once each — reusing one name for two
//! different signatures is rejected.

use crate::registry::BoxRegistry;
use snet_core::{NetSpec, SnetError};
use std::fmt::Write;

/// Renders a complete program: declarations plus `connect`.
pub fn to_source(net: &NetSpec) -> Result<String, SnetError> {
    let mut decls: Vec<(String, String)> = Vec::new();
    collect_boxes(net, &mut decls)?;
    let mut out = String::new();
    for (_, decl) in &decls {
        let _ = writeln!(out, "{decl}");
    }
    let _ = write!(out, "connect {net:#}");
    Ok(out)
}

/// Renders just the network expression (no declarations).
pub fn expr_source(net: &NetSpec) -> String {
    format!("{net:#}")
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
            let rendered = format!("{};", def.sig);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use snet_core::filter::OutputTemplate;
    use snet_core::{BinOp, Pattern, Record, SyncSpec, TagExpr, Variant};

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
