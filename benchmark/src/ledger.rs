//! The per-layer ledger: each row times calls into one public function
//! of one crate, from outside, with the calling workload's record
//! shapes and topology. Rows are nanoseconds (or microseconds) per call,
//! the median over several timed batches.

use crate::report::Values;
use snet_core::boxdef::{BoxDef, BoxSig};
use snet_core::fault::FailurePolicy;
use snet_core::semantics::{best_branch, box_step, filter_step, MismatchPolicy};
use snet_core::{
    BoxOutput, ChainRunner, ChainStage, ChainTally, Label, NetSpec, Pattern, RType, Record,
    SigItem, SyncSpec, Value, Variant, Work,
};
use snet_runtime::{EngineConfig, Interp, Net, SchedNet};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set by a smoke run: one short batch per row, enough to show the row
/// still runs.
static QUICK: AtomicBool = AtomicBool::new(false);

pub fn set_quick() {
    // Relaxed: a flag read by the thread that set it.
    QUICK.store(true, Ordering::Relaxed);
}

fn quick() -> bool {
    QUICK.load(Ordering::Relaxed)
}

/// Timed batches per row, and roughly how long each runs.
fn samples() -> usize {
    if quick() {
        1
    } else {
        7
    }
}

fn sample_target() -> Duration {
    Duration::from_micros(if quick() { 200 } else { 4_000 })
}

/// Stages in the synthetic chain behind `core.fusion.chain_stage_ns`.
const CHAIN_STAGES: usize = 16;

/// Median nanoseconds per call of `f`, over several batches of a few
/// milliseconds each.
pub fn ns_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    let mut probe = 0u32;
    while probe < 16 || (t0.elapsed() < Duration::from_micros(200) && probe < 1 << 20) {
        black_box(f());
        probe += 1;
    }
    let per_call = t0.elapsed().as_secs_f64() / probe as f64;
    let batch = ((sample_target().as_secs_f64() / per_call) as usize).clamp(1, 1 << 22);
    let samples: Vec<f64> = (0..samples())
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    crate::stats::summarize(&samples).median
}

/// Like [`ns_per_call`] for a function that consumes its input: each
/// batch's inputs are cloned from `proto` before the clock starts.
pub fn ns_per_consumed<I: Clone, R>(proto: &I, mut f: impl FnMut(I) -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f(proto.clone()));
    let first = t0.elapsed().as_secs_f64();
    let batch = ((sample_target().as_secs_f64() / first) as usize).clamp(1, 2048);
    let samples: Vec<f64> = (0..samples())
        .map(|_| {
            let inputs: Vec<I> = vec![proto.clone(); batch];
            let t0 = Instant::now();
            for input in inputs {
                black_box(f(input));
            }
            t0.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    crate::stats::summarize(&samples).median
}

/// What a workload hands the ledger: its topology, the type of its
/// input stream, a representative input record and how it builds one.
pub struct Shapes<'a> {
    pub spec: &'a NetSpec,
    pub entry: &'a RType,
    pub record: Record,
    pub build: &'a mut dyn FnMut() -> Record,
    /// Source text, for the workloads that compile one.
    pub source: Option<&'a str>,
    pub registry: Option<&'a snet_lang::BoxRegistry>,
    pub config: EngineConfig,
}

fn first<'a, T>(spec: &'a NetSpec, pick: &impl Fn(&'a NetSpec) -> Option<T>) -> Option<T> {
    if let Some(found) = pick(spec) {
        return Some(found);
    }
    match spec {
        NetSpec::Serial(a, b) => first(a, pick).or_else(|| first(b, pick)),
        NetSpec::Parallel { branches, .. } => branches.iter().find_map(|b| first(b, pick)),
        NetSpec::Star { body, .. }
        | NetSpec::Split { body, .. }
        | NetSpec::At { body, .. }
        | NetSpec::Named { body, .. } => first(body, pick),
        _ => None,
    }
}

/// A record carrying exactly the labels `pattern` asks for.
fn record_for(pattern: &Pattern) -> Record {
    let mut rec = Record::new();
    for l in pattern.variant.fields() {
        rec.set_field(l, Value::Unit);
    }
    for l in pattern.variant.tags() {
        rec.set_tag(l, 1);
    }
    rec
}

fn sig_of(name: &str, rec: &Record, only_first: bool) -> BoxSig {
    let mut items: Vec<SigItem> = rec
        .fields()
        .map(|(l, _)| SigItem::Field(l))
        .chain(rec.tags().map(|(l, _)| SigItem::Tag(l)))
        .collect();
    if only_first {
        items.truncate(1);
    }
    BoxSig {
        name: name.to_owned(),
        input: items.clone(),
        outputs: vec![items],
    }
}

/// An identity box over the labels of `rec` (all of them, or only the
/// first, so the rest must be flow-inherited).
fn echo_box(name: &str, rec: &Record, only_first: bool) -> BoxDef {
    BoxDef::from_fn(sig_of(name, rec, only_first), |r: &Record| {
        Ok(BoxOutput::one(r.clone(), Work::ZERO))
    })
}

/// The `snet-core` rows: record and label operations, the step
/// semantics, the fused-chain driver, dispatch and synchrocells.
pub fn core_rows(shapes: &mut Shapes, out: &mut Values) {
    let rec = shapes.record.clone();
    let some_label = rec
        .fields()
        .map(|(l, _)| l)
        .chain(rec.tags().map(|(l, _)| l))
        .next()
        .expect("a workload record has a label")
        .as_str();
    let partial = sig_of("partial", &rec, true).input_variant();
    let part = rec.project(&partial);

    out.set("core.record.build_ns", ns_per_call(&mut *shapes.build));
    out.set("core.record.clone_ns", ns_per_call(|| rec.clone()));
    out.set(
        "core.record.project_ns",
        ns_per_call(|| rec.project(&partial)),
    );
    out.set(
        "core.record.absorb_ns",
        ns_per_consumed(&part, |mut p| {
            p.absorb(&rec);
            p
        }),
    );
    out.set(
        "core.label.intern_hit_ns",
        ns_per_call(|| Label::new(black_box(some_label))),
    );

    let exact = echo_box("exact", &rec, false);
    out.set(
        "core.semantics.box_step_exact_ns",
        ns_per_consumed(&rec, |r| box_step(&exact, r, MismatchPolicy::Forward)),
    );
    let inherit = echo_box("inherit", &rec, true);
    out.set(
        "core.semantics.box_step_inherit_ns",
        ns_per_consumed(&rec, |r| box_step(&inherit, r, MismatchPolicy::Forward)),
    );

    if let Some(filter) = first(shapes.spec, &|s| match s {
        NetSpec::Filter(f) if !f.is_identity() => Some(f),
        _ => None,
    }) {
        let input = if filter.pattern.matches(&rec) {
            rec.clone()
        } else {
            record_for(&filter.pattern)
        };
        out.set(
            "core.semantics.filter_step_ns",
            ns_per_consumed(&input, |r| filter_step(filter, r, MismatchPolicy::Forward)),
        );
    }

    let stages: Vec<ChainStage> = (0..CHAIN_STAGES)
        .map(|_| ChainStage::Box(exact.clone()))
        .collect();
    let batch: Vec<Record> = vec![rec.clone(); EngineConfig::default().batch];
    let mut runner = ChainRunner::new();
    let seq = AtomicU64::new(0);
    let mut sink = Vec::new();
    let per_batch = ns_per_consumed(&batch, |b| {
        sink.clear();
        runner
            .step_batch(
                &stages,
                FailurePolicy::FailFast,
                MismatchPolicy::Forward,
                &seq,
                b,
                &mut ChainTally::default(),
                &mut sink,
                &mut |_| Ok(()),
            )
            .expect("echo stages cannot fail")
    });
    out.set(
        "core.fusion.chain_stage_ns",
        per_batch / (CHAIN_STAGES * batch.len()) as f64,
    );

    if let Some(patterns) = first(shapes.spec, &|s| match s {
        NetSpec::Parallel { branches, .. } => Some(
            branches
                .iter()
                .map(|b| b.input_patterns())
                .collect::<Vec<_>>(),
        ),
        _ => None,
    }) {
        let input = match best_branch(&patterns, &rec) {
            Some(_) => rec.clone(),
            None => record_for(&patterns[0][0]),
        };
        out.set(
            "core.semantics.best_branch_ns",
            ns_per_call(|| best_branch(&patterns, &input)),
        );
    }

    if let Some(cell) = first(shapes.spec, &|s| match s {
        NetSpec::Sync(c) if c.patterns.len() >= 2 => Some(c),
        _ => None,
    }) {
        out.set("core.sync.store_fire_ns", sync_row(cell));
    }
}

/// One synchrocell instance storing a record per pattern until it
/// fires, per record stored.
fn sync_row(cell: &SyncSpec) -> f64 {
    let inputs: Vec<Record> = cell.patterns.iter().map(record_for).collect();
    ns_per_consumed(&inputs, |records| {
        let mut state = cell.new_state();
        let mut last = None;
        for r in records {
            last = Some(state.push(cell, r));
        }
        last
    }) / inputs.len() as f64
}

/// The set-up rows: what happens once per net, before the first record.
pub fn setup_rows(shapes: &Shapes, out: &mut Values) {
    let us = |ns: f64| ns / 1e3;
    if let (Some(src), Some(reg)) = (shapes.source, shapes.registry) {
        out.set("lang.parse_us", us(ns_per_call(|| snet_lang::parse(src))));
        out.set(
            "lang.compile_us",
            us(ns_per_call(|| snet_lang::compile(src, reg))),
        );
    }
    let cfg = snet_analyze::AnalyzeConfig::default();
    out.set(
        "analyze.open_us",
        us(ns_per_call(|| {
            snet_analyze::analyze_open(shapes.spec, &cfg)
        })),
    );
    out.set(
        "analyze.closed_us",
        us(ns_per_call(|| {
            snet_analyze::analyze(shapes.spec, shapes.entry, &cfg)
        })),
    );
    out.set(
        "core.fusion.fuse_us",
        us(ns_per_call(|| snet_core::fuse(shapes.spec))),
    );
    out.set(
        "runtime.sched.build_us",
        us(ns_per_call(|| {
            SchedNet::with_config(shapes.spec.clone(), shapes.config)
        })),
    );
    // The first start on a net spawns its pool; the empty stream that
    // follows costs a start/finish, which the next row prices alone.
    let spawn: Vec<f64> = (0..samples())
        .map(|_| {
            let net = SchedNet::with_config(shapes.spec.clone(), shapes.config);
            let t0 = Instant::now();
            let started = net.start();
            let spent = t0.elapsed().as_secs_f64() * 1e6;
            started.finish().expect("an empty stream cannot fail");
            spent
        })
        .collect();
    out.set(
        "runtime.sched.spawn_us",
        crate::stats::summarize(&spawn).median,
    );
}

/// An empty batch run on a warm net: the run start/finish latch, task
/// graph build and teardown, and nothing else.
pub fn start_finish_row(net: &SchedNet, out: &mut Values) {
    out.set(
        "runtime.sched.start_finish_us",
        ns_per_call(|| net.run_batch(Vec::new()).expect("an empty run cannot fail")) / 1e3,
    );
}

/// The threaded engine on a depth-4, 256-record batch. It spawns a
/// thread per component, so it runs before any pool exists and outside
/// every measured window; it is a denominator, not a workload.
pub fn threaded_engine_row(out: &mut Values) {
    let rec = Record::new()
        .with_field("x", Value::Int(1))
        .with_tag("ts", 0);
    let tick = echo_box("tick", &rec, false);
    let net = Net::new(NetSpec::pipeline(
        (0..4).map(|_| NetSpec::Box(tick.clone())),
    ));
    let batch = vec![rec; 256];
    let per_batch = ns_per_consumed(&batch, |b| {
        net.run_batch(b).expect("echo boxes cannot fail")
    });
    out.set("runtime.engine.batch256_us", per_batch / 1e3);
}

/// The reference interpreter on `inputs`: nanoseconds per record, and
/// per box or filter step given how many steps the engines traced for
/// the same inputs.
pub fn interp_rows(spec: &NetSpec, inputs: &[Record], steps: u64, out: &mut Values) {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let batch = inputs.to_vec();
            let t0 = Instant::now();
            let result = Interp::new(spec)
                .run_batch(batch)
                .expect("the interpreter runs the workload's own inputs");
            black_box(result.outputs.len());
            t0.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    let total = crate::stats::summarize(&samples).median;
    out.set("runtime.interp.record_ns", total / inputs.len() as f64);
    if steps > 0 {
        out.set("runtime.interp.stage_ns", total / steps as f64);
    }
}

/// `(unfused − fused) ÷ (15 · records)` on a depth-16 chain of echo
/// boxes: what one mailbox hand-off costs a record.
pub fn hop_row(config: EngineConfig, out: &mut Values) {
    let records = if quick() { 2_000 } else { 60_000 };
    let rec = Record::new()
        .with_field("x", Value::Int(1))
        .with_tag("ts", 0);
    let tick = echo_box("tick", &rec, false);
    let spec = NetSpec::pipeline((0..CHAIN_STAGES).map(|_| NetSpec::Box(tick.clone())));
    let time = |fuse: bool| {
        let net = SchedNet::with_config(spec.clone(), EngineConfig { fuse, ..config });
        let samples: Vec<f64> = (0..4)
            .map(|_| {
                let batch = vec![rec.clone(); records];
                let t0 = Instant::now();
                let outs = snet_runtime::run_stream_interleaved(&net, batch)
                    .expect("echo boxes cannot fail");
                black_box(outs.len());
                t0.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        // The first pass warms the pool and the buffer freelists.
        crate::stats::summarize(&samples[1..]).median
    };
    let (unfused, fused) = (time(false), time(true));
    out.set(
        "runtime.sched.hop_ns",
        (unfused - fused) / ((CHAIN_STAGES - 1) * records) as f64,
    );
}

/// A variant holding exactly the labels of `rec`.
pub fn variant_of(rec: &Record) -> Variant {
    sig_of("", rec, false).input_variant()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{compile, ChainStream, RouteStream, StreamWorkload};

    fn rows_for<W: StreamWorkload>() -> Values {
        let spec = compile::<W>();
        let entry = W::entry_type();
        let mut rng = crate::gen::SplitMix64::new(1);
        let record = W::input(&mut rng, 0).0;
        let mut build = || W::input(&mut rng, 0).0;
        let source = W::source();
        let registry = W::registry();
        let mut shapes = Shapes {
            spec: &spec,
            entry: &entry,
            record,
            build: &mut build,
            source: Some(&source),
            registry: Some(&registry),
            config: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        };
        let mut out = Values::default();
        core_rows(&mut shapes, &mut out);
        setup_rows(&shapes, &mut out);
        out
    }

    #[test]
    fn route_stream_fills_every_core_and_setup_row_but_sync() {
        let out = rows_for::<RouteStream>();
        for name in [
            "core.record.build_ns",
            "core.record.absorb_ns",
            "core.semantics.box_step_inherit_ns",
            "core.semantics.filter_step_ns",
            "core.semantics.best_branch_ns",
            "core.fusion.chain_stage_ns",
            "lang.compile_us",
            "analyze.closed_us",
            "runtime.sched.spawn_us",
        ] {
            assert!(out.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
        assert_eq!(out.get("core.sync.store_fire_ns"), None);
    }

    #[test]
    fn chain_stream_has_no_dispatch_or_filter_to_time() {
        let out = rows_for::<ChainStream>();
        assert!(out.get("core.semantics.box_step_exact_ns").is_some());
        assert_eq!(out.get("core.semantics.best_branch_ns"), None);
        assert_eq!(out.get("core.semantics.filter_step_ns"), None);
    }

    #[test]
    fn sync_row_fires_once_per_pattern_set() {
        let cell = SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["sect"], &[])),
            Pattern::from_variant(Variant::parse_labels(&[], &["node"])),
        ]);
        assert!(sync_row(&cell) > 0.0);
        let mut state = cell.new_state();
        assert_eq!(
            state.push(&cell, record_for(&cell.patterns[0])),
            snet_core::SyncOutcome::Stored
        );
        assert!(matches!(
            state.push(&cell, record_for(&cell.patterns[1])),
            snet_core::SyncOutcome::Fired(_)
        ));
    }

    #[test]
    fn hop_and_engine_rows_are_positive() {
        let mut out = Values::default();
        threaded_engine_row(&mut out);
        assert!(out.get("runtime.engine.batch256_us").unwrap() > 0.0);
    }
}
