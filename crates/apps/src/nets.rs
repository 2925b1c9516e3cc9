//! The paper's coordination networks: the merger (Fig 3), the static
//! fork-join net (Fig 2), its 2-CPU variant (§V), and the dynamically
//! scheduled solver segment (Fig 4).
//!
//! This module is the "concurrency engineering" half of the paper's
//! methodology: every decision about distribution, synchronization and
//! scheduling lives here, while the boxes of [`crate::boxes`] remain
//! oblivious sequential functions.

use crate::boxes::{self, ImageSlot};
use snet_core::filter::OutputTemplate;
use snet_core::{BinOp, FilterSpec, NetSpec, Pattern, SyncSpec, TagExpr, Variant};
use std::path::PathBuf;

fn pat(fields: &[&str], tags: &[&str]) -> Pattern {
    Pattern::from_variant(Variant::parse_labels(fields, tags))
}

/// The merger network of Fig 3:
///
/// ```text
/// ( ( init .. [ {} -> {<cnt=1>} ] ) | [] )
/// .. ( [| {pic}, {chunk} |]
///      .. ( ( merge .. [ {<cnt>} -> {<cnt+=1>} ] ) | [] )
///    ) * {<tasks> == <cnt>}
/// ```
///
/// The `<fst>`-flagged chunk seeds the accumulator through `init`; all
/// other chunks bypass initialisation, join the accumulator one at a
/// time in the synchrocell of each star unfolding, and the accumulated
/// picture leaves once the counter reaches `<tasks>`.
pub fn merger_net() -> NetSpec {
    let init_path = NetSpec::serial(
        NetSpec::Box(boxes::init_box()),
        NetSpec::Filter(FilterSpec::new(
            Pattern::any(),
            vec![OutputTemplate::empty().set_tag("cnt", TagExpr::Const(1))],
        )),
    );
    let head = NetSpec::parallel(vec![init_path, NetSpec::identity()]);

    let cell = NetSpec::Sync(SyncSpec::new(vec![
        pat(&["pic"], &[]),
        pat(&["chunk"], &[]),
    ]));
    let merge_path = NetSpec::serial(
        NetSpec::Box(boxes::merge_box()),
        NetSpec::Filter(FilterSpec::new(
            pat(&[], &["cnt"]),
            vec![OutputTemplate::empty().set_tag(
                "cnt",
                TagExpr::bin(BinOp::Add, TagExpr::tag("cnt"), TagExpr::Const(1)),
            )],
        )),
    );
    let body = NetSpec::serial(
        cell,
        NetSpec::parallel(vec![merge_path, NetSpec::identity()]),
    );
    let exit = Pattern::guarded(
        Variant::empty(),
        TagExpr::bin(BinOp::Eq, TagExpr::tag("tasks"), TagExpr::tag("cnt")),
    );
    NetSpec::named("merger", NetSpec::serial(head, NetSpec::star(body, exit)))
}

/// The token-release filter of Fig 4, split into two variants.
///
/// The paper writes a single `[ {chunk,<node>} -> {chunk}; {<node>} ]`;
/// under flow inheritance that would copy the `<fst>` flag of the first
/// section onto the released node token, and the token would smuggle
/// `<fst>` into the *next* section it joins — initialising the merger's
/// accumulator twice. We route `<fst>`-carrying results through a
/// variant that pins `<fst>` to the chunk (best-match routing picks it
/// automatically); plain results use the paper's filter unchanged.
fn token_release_filter() -> NetSpec {
    let with_fst = NetSpec::Filter(FilterSpec::new(
        pat(&["chunk"], &["node", "fst"]),
        vec![
            OutputTemplate::empty().keep_field("chunk").keep_tag("fst"),
            OutputTemplate::empty().keep_tag("node"),
        ],
    ));
    let plain = NetSpec::Filter(FilterSpec::new(
        pat(&["chunk"], &["node"]),
        vec![
            OutputTemplate::empty().keep_field("chunk"),
            OutputTemplate::empty().keep_tag("node"),
        ],
    ));
    NetSpec::parallel(vec![with_fst, plain])
}

/// The statically scheduled solver of Fig 2: `solver!@<node>`, one
/// replica per node, sections pre-assigned by the splitter.
pub fn static_solver() -> NetSpec {
    NetSpec::split_placed(NetSpec::Box(boxes::solver_box()), "node")
}

/// The 2-CPU static variant of §V: `(solver!<cpu>)!@<node>` — "by
/// adding one more index split combinator to the solver of Fig 2 …
/// the desired effect was achieved".
pub fn static_solver_2cpu() -> NetSpec {
    NetSpec::split_placed(
        NetSpec::split(NetSpec::Box(boxes::solver_box()), "cpu"),
        "node",
    )
}

/// The dynamically scheduled solver segment of Fig 4:
///
/// ```text
/// ( ( ( solve .. [ {chunk,<node>} -> {chunk}; {<node>} ] )!@<node>
///   | []
///   )
///   .. ( [] | [| {sect}, {<node>} |] )
/// ) * {chunk}
/// ```
///
/// Sections carrying a `<node>` token solve immediately on that node;
/// the release filter splits each result into an image chunk and a
/// freed token; tokenless sections wait in a synchrocell until a token
/// arrives, then loop into the next star unfolding with the token
/// attached. Chunks exit the star.
pub fn dynamic_solver() -> NetSpec {
    let solve_and_release =
        NetSpec::serial(NetSpec::Box(boxes::solver_box()), token_release_filter());
    let placed = NetSpec::split_placed(solve_and_release, "node");
    let first = NetSpec::parallel(vec![placed, NetSpec::identity()]);
    let join = NetSpec::parallel(vec![
        NetSpec::identity(),
        NetSpec::Sync(SyncSpec::new(vec![
            pat(&["sect"], &[]),
            pat(&[], &["node"]),
        ])),
    ]);
    let body = NetSpec::serial(first, join);
    NetSpec::star(body, pat(&["chunk"], &[]))
}

/// Which solver segment a network uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetVariant {
    /// Fig 2: `solver!@<node>`.
    Static,
    /// §V: `(solver!<cpu>)!@<node>`, two solver instances per node.
    Static2Cpu,
    /// Fig 4: token-based dynamic scheduling.
    Dynamic,
}

/// The complete ray-tracing network of Fig 2 with the chosen solver
/// segment: `splitter .. <solver> .. merger .. genImg`.
pub fn raytracing_net(variant: NetVariant, slot: ImageSlot, out: Option<PathBuf>) -> NetSpec {
    let solver = match variant {
        NetVariant::Static => static_solver(),
        NetVariant::Static2Cpu => static_solver_2cpu(),
        NetVariant::Dynamic => dynamic_solver(),
    };
    NetSpec::named(
        match variant {
            NetVariant::Static => "raytracing_stat",
            NetVariant::Static2Cpu => "raytracing_stat_2cpu",
            NetVariant::Dynamic => "raytracing_dyn",
        },
        NetSpec::pipeline([
            NetSpec::Box(boxes::splitter_box()),
            solver,
            merger_net(),
            NetSpec::Box(boxes::gen_img_box(slot, out)),
        ]),
    )
}

/// The Fig 2 network expressed in the S-Net *language* (compiled
/// against the box registry); used by the language-integration tests to
/// show that textual and programmatic construction agree.
pub const RAYTRACING_STAT_SOURCE: &str = r#"
net raytracing_stat
{
    box splitter( (scene, <nodes>, <tasks>, <tokens>, <sched>, <cpus>)
        -> (scene, sect, <node>, <cpu>, <tasks>, <fst>)
         | (scene, sect, <node>, <cpu>, <tasks>)
         | (scene, sect, <tasks>) );
    box solver ( (scene, sect) -> (chunk) );
    net merger ( (chunk, <fst>) -> (pic),
                 (chunk) -> (pic) );
    box genImg ( (pic) -> () );
} connect
    splitter .. solver!@<node> .. merger .. genImg
"#;

/// Builds a registry binding the paper's box names for
/// [`RAYTRACING_STAT_SOURCE`].
pub fn registry(slot: ImageSlot, out: Option<PathBuf>) -> snet_lang::BoxRegistry {
    let mut reg = snet_lang::BoxRegistry::new();
    reg.register_arc("splitter", boxes::splitter_box().func);
    reg.register_arc("solver", boxes::solver_box().func);
    reg.register_arc("init", boxes::init_box().func);
    reg.register_arc("merge", boxes::merge_box().func);
    reg.register_arc("genImg", boxes::gen_img_box(slot, out).func);
    reg.register_net("merger", merger_net());
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::image_slot;

    fn body_string(net: &NetSpec) -> String {
        match net {
            NetSpec::Named { body, .. } => body.to_string(),
            other => other.to_string(),
        }
    }

    #[test]
    fn networks_have_the_expected_shape() {
        let slot = image_slot();
        let stat = raytracing_net(NetVariant::Static, slot.clone(), None);
        let s = body_string(&stat);
        assert!(s.contains("splitter"), "{s}");
        assert!(s.contains("(solver)!@<node>"), "{s}");
        assert!(s.contains("genImg"), "{s}");
        let two = body_string(&raytracing_net(NetVariant::Static2Cpu, slot.clone(), None));
        assert!(two.contains("((solver)!<cpu>)!@<node>"), "{two}");
        let dyn_ = body_string(&raytracing_net(NetVariant::Dynamic, slot, None));
        assert!(dyn_.contains("[| {sect}, {<node>} |]"), "{dyn_}");
        assert!(dyn_.contains("*{chunk}"), "{dyn_}");
    }

    #[test]
    fn paper_networks_pass_the_static_checker() {
        let slot = image_slot();
        for variant in [
            NetVariant::Static,
            NetVariant::Static2Cpu,
            NetVariant::Dynamic,
        ] {
            let net = raytracing_net(variant, slot.clone(), None);
            let analysis = snet_analyze::analyze_open(&net, &Default::default());
            let errors: Vec<_> = analysis.errors().collect();
            assert!(errors.is_empty(), "{variant:?}: {errors:?}");
        }
    }

    #[test]
    fn inferred_types_of_the_static_net() {
        // The compiler "infers a type signature for every network"
        // (§III); the static net consumes the splitter's input shape.
        let slot = image_slot();
        let net = raytracing_net(NetVariant::Static, slot, None);
        let v = &net.input_patterns()[0].variant;
        assert!(v.has_field(snet_core::Label::new("scene")));
        assert!(v.has_tag(snet_core::Label::new("tasks")));
    }

    #[test]
    fn merger_attracts_pics_and_chunks() {
        let m = merger_net();
        let patterns = m.input_patterns();
        // init path ({chunk,<fst>}), identity, and the star's patterns.
        assert!(patterns.iter().any(|p| {
            p.variant.has_field(snet_core::Label::new("chunk"))
                && p.variant.has_tag(snet_core::Label::new("fst"))
        }));
    }

    #[test]
    fn textual_and_programmatic_static_nets_agree_in_shape() {
        let slot = image_slot();
        let compiled =
            snet_lang::compile(RAYTRACING_STAT_SOURCE, &registry(slot.clone(), None)).unwrap();
        let built = raytracing_net(NetVariant::Static, slot, None);
        // Identical combinator structure (box identities differ as they
        // are separate closures).
        assert_eq!(body_string(&compiled), body_string(&built));
    }

    #[test]
    fn token_release_routes_fst_to_the_chunk() {
        use snet_core::semantics::{best_branch, filter_step, MismatchPolicy};
        use snet_core::{Record, Value};
        let NetSpec::Parallel { branches, .. } = token_release_filter() else {
            panic!("expected a parallel filter pair");
        };
        let patterns: Vec<_> = branches.iter().map(|b| b.input_patterns()).collect();
        // A fst-carrying result picks the fst-aware variant.
        let rec = Record::new()
            .with_field("chunk", Value::Int(7))
            .with_tag("node", 3)
            .with_tag("fst", 1)
            .with_tag("tasks", 8);
        let i = best_branch(&patterns, &rec).unwrap();
        assert_eq!(i, 0, "fst result must take the fst-aware filter");
        let NetSpec::Filter(f) = &branches[i] else {
            panic!()
        };
        let out = filter_step(f, rec, MismatchPolicy::Error).unwrap();
        assert_eq!(out.records.len(), 2);
        let chunk_rec = &out.records[0];
        let token_rec = &out.records[1];
        assert!(chunk_rec.has_tag("fst") && !chunk_rec.has_tag("node"));
        assert!(
            token_rec.has_tag("node") && !token_rec.has_tag("fst"),
            "the token must not smuggle <fst>: {token_rec:?}"
        );
        // A plain result picks the paper's filter.
        let rec = Record::new()
            .with_field("chunk", Value::Int(7))
            .with_tag("node", 3)
            .with_tag("tasks", 8);
        assert_eq!(best_branch(&patterns, &rec).unwrap(), 1);
    }
}
