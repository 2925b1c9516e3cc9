//! `snet-lint` — static analysis over the paper's application networks.
//!
//! Runs `snet_analyze::analyze` — the structural pass (SNA006–009, what
//! the engines pre-flight) plus the flow pass (SNA001–005) — over every
//! app topology, each with a curated entry type describing the records
//! the pipeline actually feeds it, and pretty-prints the structured
//! diagnostics. It is the only static checker; none of the seven
//! topologies earns a structural finding.
//!
//! Exit status: non-zero when any error-severity diagnostic fires, or
//! when a network that is expected to be diagnostic-free produces *any*
//! finding. Warnings on the full pipelines are expected and documented
//! per case (`--deny-warnings` escalates them anyway).

use snet_analyze::{analyze, Analysis, AnalyzeConfig};
use snet_apps::boxes::image_slot;
use snet_apps::nets;
use snet_core::{DiagSeverity, NetSpec, RType, Variant};

struct Case {
    name: &'static str,
    net: NetSpec,
    entry: RType,
    /// Whether warning-severity findings are expected for this case.
    /// The full pipelines route through the splitter, whose *declared*
    /// output includes a token-less `(scene, sect, <tasks>)` variant;
    /// that variant reaching `solver!@<node>` is a true possible
    /// mismatch (SNA004 warning), avoided at runtime only because the
    /// static schedules hand every section a token.
    allow_warnings: bool,
}

fn v(fields: &[&str], tags: &[&str]) -> Variant {
    Variant::parse_labels(fields, tags)
}

fn cases() -> Vec<Case> {
    let slot = image_slot();
    // What the solver segment emits into the merger: an image chunk,
    // the task count, and `<fst>` on the first section only.
    let merger_entry = RType::new([v(&["chunk"], &["fst", "tasks"]), v(&["chunk"], &["tasks"])]);
    // What the splitter emits when every section gets a node token
    // (the static schedules).
    let tokened = RType::new([
        v(&["scene", "sect"], &["node", "cpu", "tasks", "fst"]),
        v(&["scene", "sect"], &["node", "cpu", "tasks"]),
    ]);
    // The splitter's full declared output (dynamic scheduling: sections
    // may start without a token).
    let split_out = RType::new([
        v(&["scene", "sect"], &["node", "cpu", "tasks", "fst"]),
        v(&["scene", "sect"], &["node", "cpu", "tasks"]),
        v(&["scene", "sect"], &["tasks"]),
    ]);
    // The whole pipeline's input: one scene record with the run knobs.
    let pipeline_entry = RType::single(v(
        &["scene"],
        &["nodes", "tasks", "tokens", "sched", "cpus"],
    ));
    vec![
        Case {
            name: "merger",
            net: nets::merger_net(),
            entry: merger_entry,
            allow_warnings: false,
        },
        Case {
            name: "static_solver",
            net: nets::static_solver(),
            entry: tokened.clone(),
            allow_warnings: false,
        },
        Case {
            name: "static_solver_2cpu",
            net: nets::static_solver_2cpu(),
            entry: tokened,
            allow_warnings: false,
        },
        Case {
            name: "dynamic_solver",
            net: nets::dynamic_solver(),
            entry: split_out,
            allow_warnings: true,
        },
        Case {
            name: "raytracing_stat",
            net: nets::raytracing_net(nets::NetVariant::Static, slot.clone(), None),
            entry: pipeline_entry.clone(),
            allow_warnings: true,
        },
        Case {
            name: "raytracing_stat_2cpu",
            net: nets::raytracing_net(nets::NetVariant::Static2Cpu, slot.clone(), None),
            entry: pipeline_entry.clone(),
            allow_warnings: true,
        },
        Case {
            name: "raytracing_dyn",
            net: nets::raytracing_net(nets::NetVariant::Dynamic, slot, None),
            entry: pipeline_entry,
            allow_warnings: true,
        },
    ]
}

fn report(name: &str, entry: &RType, a: &Analysis) {
    println!("== {name}");
    println!("   entry type:  {entry}");
    println!("   output type: {}", a.output);
    if a.saturated {
        println!("   note: shape set widened; absence diagnostics are best-effort");
    }
    if a.diagnostics.is_empty() {
        println!("   clean: no diagnostics");
    } else {
        for d in &a.diagnostics {
            println!("   {d}");
        }
    }
}

fn main() {
    let deny_warnings = std::env::args().any(|a| a == "--deny-warnings");
    let cfg = AnalyzeConfig::default();
    let mut failed = false;
    for case in cases() {
        let a = analyze(&case.net, &case.entry, &cfg);
        report(case.name, &case.entry, &a);
        let errors = a.errors().count();
        let warnings = a
            .diagnostics
            .iter()
            .filter(|d| d.severity == DiagSeverity::Warning)
            .count();
        if errors > 0 {
            eprintln!("snet-lint: {}: {} error(s)", case.name, errors);
            failed = true;
        }
        if warnings > 0 && (deny_warnings || !case.allow_warnings) {
            eprintln!(
                "snet-lint: {}: {} unexpected warning(s)",
                case.name, warnings
            );
            failed = true;
        }
        println!();
    }
    std::process::exit(if failed { 1 } else { 0 });
}
