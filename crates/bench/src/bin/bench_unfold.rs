//! What instantiating a component costs: time and heap allocations per
//! star unfolding and per index-split replica, on the scheduled engine
//! and the interpreter.
//!
//! Every other gated micro-benchmark is a serial chain; this one times
//! the two combinators that create components *while a run is live*.
//! The paper's Fig 4 net schedules by unfolding — every wave of sections
//! instantiates a fresh star replica and split replicas — so this cost
//! is coordination overhead in the paper's own sense.
//!
//! * **star**: `((inc | []) .. [{<n>} -> {<n -= 1>}]) * {<n> == 0}`, one
//!   record `{x, <n>}` per job; `<n> = 32` unfolds 32 replicas of the
//!   body, `<n> = 0` unfolds none. Four components as written; fused,
//!   the body runs inline, so the star is one component that loops
//!   through it and an "unfolding" is a round of the loop, which builds
//!   nothing.
//! * **tap**: the same star with `inc ! <k>` in place of `inc`, and the
//!   same job (the record has no `<k>`, so it takes `[]`). The split
//!   makes the star a component per round: fused, an unfolding is the
//!   next round's task (the countdown of the round before, the exit
//!   test, and the parallel, which runs `[]` and routes the split
//!   itself) and the parallel's branch list. Unfused it is the tap of
//!   §III, and the shape keeps its name.
//! * **split**: `inc ! <k>`, 33 records per job; 33 distinct `<k>`
//!   against one — 32 replicas more.
//!
//! Each row is the difference between the deep and the flat job on the
//! same warm engine, divided by 32, so per-run set-up (entry task,
//! egress; the interpreter's instantiation of the static tree) cancels:
//! medians of `--iters` alternating jobs for time, floors for
//! allocations (a counting global allocator; the floor, because which
//! thread's buffer freelist a retired mailbox lands in varies). The
//! interpreter is the yardstick, not a competitor: it clones the body's
//! `NetSpec` per replica on one thread and hands records over by
//! function call, so `sched ÷ interp` is what the scheduled engine's
//! tasks, mailboxes and wakes add per instance. `bench_gates.toml` gates
//! that ratio, from the same run.
//!
//! ```text
//! cargo run --release -p snet-bench --bin bench_unfold            # BENCH_unfold.json
//! cargo run --release -p snet-bench --bin bench_unfold -- \
//!     --iters 60 --out unfold_ci.json                             # CI smoke
//! ```

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::filter::OutputTemplate;
use snet_core::{BinOp, FilterSpec, NetSpec, Pattern, Record, TagExpr, Value, Variant};
use snet_runtime::{Interp, SchedNet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap acquisition process-wide, engine threads included.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only addition
// is a relaxed counter bump, which allocates nothing and touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards verbatim; caller upholds the GlobalAlloc contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards verbatim; caller upholds the GlobalAlloc contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards verbatim; caller upholds the GlobalAlloc contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` stems from this allocator with `layout`, and
        // the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Replicas the deep job instantiates beyond the flat one.
const DEPTH: i64 = 32;

fn inc_box() -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("inc", &["x"], &[&["x"]]),
        |r| {
            let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            Ok(BoxOutput::one(
                Record::new().with_field("x", Value::Int(x + 1)),
                Work::ops(1),
            ))
        },
    ))
}

/// `((inc | []) .. [{<n>} -> {<n -= 1>}]) * {<n> == 0}`.
fn countdown_star(inc: NetSpec) -> NetSpec {
    let dec = NetSpec::Filter(FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![OutputTemplate::empty().set_tag(
            "n",
            TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
        )],
    ));
    let exit = Pattern::guarded(
        Variant::empty(),
        TagExpr::bin(BinOp::Eq, TagExpr::tag("n"), TagExpr::Const(0)),
    );
    let head = NetSpec::parallel(vec![inc, NetSpec::identity()]);
    NetSpec::star(NetSpec::serial(head, dec), exit)
}

fn star_job(deep: bool) -> Vec<Record> {
    let n = if deep { DEPTH } else { 0 };
    vec![Record::new()
        .with_field("x", Value::Int(0))
        .with_tag("n", n)]
}

fn split_job(deep: bool) -> Vec<Record> {
    (0..=DEPTH)
        .map(|i| {
            Record::new()
                .with_field("x", Value::Int(i))
                .with_tag("k", if deep { i } else { 0 })
        })
        .collect()
}

/// One job's wall time in µs and its allocation count.
fn measure(run: &dyn Fn(Vec<Record>) -> usize, job: Vec<Record>) -> (f64, u64) {
    let expect = job.len();
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let outs = run(job);
    let us = start.elapsed().as_secs_f64() * 1e6;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    assert_eq!(outs, expect, "every record must come back");
    (us, allocs)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Builds a job's input: the deep one (`true`) or the flat one.
type Job = fn(bool) -> Vec<Record>;

struct Row {
    engine: &'static str,
    shape: &'static str,
    deep_job_us: f64,
    flat_job_us: f64,
    us_per_instance: f64,
    allocs_per_instance: f64,
}

/// Alternates deep and flat jobs on one warm engine and reports the
/// per-instance difference.
fn row(
    engine: &'static str,
    shape: &'static str,
    iters: usize,
    job: Job,
    run: &dyn Fn(Vec<Record>) -> usize,
) -> Row {
    for _ in 0..iters.div_ceil(4) {
        measure(run, job(true));
    }
    let (mut deep, mut flat) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        deep.push(measure(run, job(true)));
        flat.push(measure(run, job(false)));
    }
    let us = |v: &[(f64, u64)]| median(v.iter().map(|m| m.0).collect());
    let floor = |v: &[(f64, u64)]| v.iter().map(|m| m.1).min().expect("iters > 0") as f64;
    let (deep_job_us, flat_job_us) = (us(&deep), us(&flat));
    let row = Row {
        engine,
        shape,
        deep_job_us,
        flat_job_us,
        us_per_instance: (deep_job_us - flat_job_us) / DEPTH as f64,
        allocs_per_instance: (floor(&deep) - floor(&flat)) / DEPTH as f64,
    };
    eprintln!(
        "{engine:>8} {shape:<5}: {:7.2} us and {:5.1} allocations per instance \
         (jobs: {:.0} us deep, {:.0} us flat)",
        row.us_per_instance, row.allocs_per_instance, row.deep_job_us, row.flat_job_us
    );
    row
}

fn main() {
    let mut iters = 300usize;
    let mut out_path = "BENCH_unfold.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--iters needs a positive number");
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown flag `{other}` (--iters N, --out PATH)"),
        }
    }

    let shapes: [(&str, NetSpec, Job); 3] = [
        ("star", countdown_star(inc_box()), star_job),
        (
            "tap",
            countdown_star(NetSpec::split(inc_box(), "k")),
            star_job,
        ),
        ("split", NetSpec::split(inc_box(), "k"), split_job),
    ];
    let mut rows = Vec::new();
    for (shape, spec, job) in shapes {
        let sched = SchedNet::new(spec.clone());
        rows.push(row("sched", shape, iters, job, &|recs| {
            sched.run_batch(recs).expect("sched run").len()
        }));
        rows.push(row("interp", shape, iters, job, &|recs| {
            Interp::new(&spec)
                .run_batch(recs)
                .expect("interp run")
                .outputs
                .len()
        }));
    }

    let interp_us = |shape: &str| {
        rows.iter()
            .find(|r| r.engine == "interp" && r.shape == shape)
            .expect("interp row")
            .us_per_instance
    };
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"bench_unfold: time and allocations per star unfolding \
         (body `(inc | []) .. dec`, a loop fused; `tap`: `((inc ! <k>) | []) .. dec`, \
         a component per round fused) and per split replica, deep minus flat job over {DEPTH} instances, \
         run_batch on a warm engine\","
    );
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(
        json,
        "  \"workers\": {},",
        snet_runtime::EngineConfig::default().workers
    );
    let _ = writeln!(
        json,
        "  \"gate\": \"sched us_vs_interp, same run: star <= 2, tap <= 2.5, split <= 8; \
         see bench_gates.toml\","
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"shape\": \"{}\", \"us_per_instance\": {:.3}, \
             \"allocs_per_instance\": {:.2}, \"us_vs_interp\": {:.3}, \
             \"deep_job_us\": {:.1}, \"flat_job_us\": {:.1}}}{}",
            r.engine,
            r.shape,
            r.us_per_instance,
            r.allocs_per_instance,
            r.us_per_instance / interp_us(r.shape),
            r.deep_job_us,
            r.flat_job_us,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench_unfold json");
    println!("wrote {out_path}");
}
