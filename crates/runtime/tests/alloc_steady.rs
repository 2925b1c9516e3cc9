//! Steady-state allocation accounting for the scheduled engine.
//!
//! The buffer pool (`snet_core::pool`) exists so that streaming's hot
//! loop — mailbox drain, fused-chain traversal, producer-side
//! coalescing, the egress take — reuses warmed buffers instead of
//! mallocing per activation. This test proves the claim with a counting
//! global allocator: after a warm-up phase (pools filled, worker pool
//! spawned, every mailbox/channel grown to its plateau), streaming tens
//! of thousands more records through a depth-16 **fused** pipeline must
//! perform ~zero further allocations — the budget is a small constant
//! for the whole window, not per record. The **unfused** path keeps
//! per-hop hand-off machinery and is pinned at a small per-record
//! constant instead.
//!
//! The second test pins what *unfolding* costs: a star replica or a
//! split replica instantiated mid-run from the network's compiled plan
//! is a handful of allocations (its tasks), and none of them scales
//! with the size of the specs it instantiates.
//!
//! The third pins the filter step itself: a filter works on the record
//! it is handed, so the record that leaves has the storage the one that
//! came had, and only an output that needs its own copy of the
//! remainder pays for one.
//!
//! The counter is process-wide, so the tests take turns (`WINDOW`): no
//! sibling test thread can allocate into a measured window.

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::filter::OutputTemplate;
use snet_core::semantics::{filter_step_into, MismatchPolicy};
use snet_core::{BinOp, FilterSpec, NetSpec, Pattern, Record, TagExpr, Value, Variant};
use snet_runtime::TrySendError;
use snet_runtime::{EngineConfig, SchedNet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts every heap acquisition (alloc, zeroed alloc, and realloc)
/// process-wide — worker threads included, which is the point.
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
        // SAFETY: `ptr` was produced by `System` in `alloc`/`realloc`
        // with this layout.
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

/// Held by each test for its whole body.
static WINDOW: Mutex<()> = Mutex::new(());

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

/// Streams `count` single-field records through `net` with the
/// interleaved driver loop, returning how many came back. The loop body
/// itself is allocation-free in steady state: records are built inline
/// (one field fits the record's inline storage) and the handle's
/// try_send/try_recv/drive path reuses pooled/amortized buffers.
fn stream(net: &SchedNet, count: usize) -> usize {
    let handle = net.start();
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut closed = false;
    let mut pending: Option<Record> = None;
    while received < count {
        while sent < count {
            let rec = pending
                .take()
                .unwrap_or_else(|| Record::new().with_field("x", Value::Int(sent as i64)));
            match handle.try_send(rec) {
                Ok(()) => sent += 1,
                Err(TrySendError::Full(r)) => {
                    pending = Some(r);
                    break;
                }
                Err(TrySendError::Closed(e)) => panic!("ingress closed mid-run: {e}"),
            }
        }
        if sent == count && !closed {
            handle.close_input();
            closed = true;
        }
        let mut drained = false;
        while handle.try_recv().is_some() {
            received += 1;
            drained = true;
        }
        if !drained && received < count && !handle.drive() {
            std::thread::yield_now();
        }
    }
    handle.finish().expect("run failed");
    received
}

const WARMUP: usize = 20_000;
const MEASURE: usize = 50_000;

#[test]
fn steady_state_allocations_are_pooled_away() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    // ---- Fused depth-16 chain: the zero-allocs-per-record claim. ----
    let fused = SchedNet::with_config(
        NetSpec::pipeline((0..16).map(|_| inc_box())),
        EngineConfig::default(),
    );
    // Warm-up: spawn workers, fill the buffer pools, and grow every
    // mailbox, channel, and deque to its steady-state capacity.
    assert_eq!(stream(&fused, WARMUP), WARMUP);

    let before = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(stream(&fused, MEASURE), MEASURE);
    let fused_delta = ALLOCS.load(Ordering::Relaxed) - before;
    eprintln!(
        "fused depth-16: {fused_delta} allocs / {MEASURE} records \
         ({:.5} per record)",
        fused_delta as f64 / MEASURE as f64
    );

    // The budget is a *flat* constant for the whole window — one
    // `start()` (task graph + channels), plus a handful of stragglers
    // (a rare deque doubling past the warm-up plateau, a mailbox waiter
    // list regrowing after a wake took it). 50k records through 16
    // stages is 800k box invocations; without the pool this window
    // costs >100k allocations (one inbuf per activation, one port
    // buffer per graph edge per run, two chain buffers per runner, ...).
    // 2000 total = 0.04 per record, i.e. 0 per record in steady state.
    assert!(
        fused_delta < 2_000,
        "fused depth-16 steady state allocated {fused_delta} times over {MEASURE} records \
         ({:.4}/record) — the pooled hot path must be allocation-free",
        fused_delta as f64 / MEASURE as f64
    );

    // ---- Unfused path: pinned small per-record constant. ----
    let unfused = SchedNet::with_config(
        NetSpec::pipeline((0..8).map(|_| inc_box())),
        EngineConfig {
            fuse: false,
            ..EngineConfig::default()
        },
    );
    assert_eq!(stream(&unfused, WARMUP), WARMUP);

    let before = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(stream(&unfused, MEASURE), MEASURE);
    let unfused_delta = ALLOCS.load(Ordering::Relaxed) - before;
    eprintln!(
        "unfused depth-8: {unfused_delta} allocs / {MEASURE} records \
         ({:.5} per record)",
        unfused_delta as f64 / MEASURE as f64
    );

    // Eight mailbox hops per record keep per-hop machinery alive, but
    // pooling pins the unfused path to a flat window constant as well:
    // ~140 allocations measured for the 50k-record window (one start()
    // builds 10 tasks + ports, plus stragglers). The looser budget
    // absorbs scheduling jitter; a regression to per-activation buffer
    // allocation costs tens of thousands and blows well past it.
    assert!(
        unfused_delta < 5_000,
        "unfused depth-8 steady state allocated {unfused_delta} times over {MEASURE} \
         records ({:.3}/record) — expected a pinned small constant",
        unfused_delta as f64 / MEASURE as f64
    );
}

/// `inc` with `width` input items: `x`, `f1`, … — the spec whose size
/// must not show in what an instance costs.
fn wide_inc(width: usize) -> NetSpec {
    let names: Vec<String> = std::iter::once("x".to_owned())
        .chain((1..width).map(|i| format!("f{i}")))
        .collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("inc", &names, &[&["x"]]),
        |r| Ok(BoxOutput::one(r.clone(), Work::ops(1))),
    ))
}

/// `[{<n>} -> {<n -= 1>}]`.
fn countdown() -> FilterSpec {
    FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
        vec![OutputTemplate::empty().set_tag(
            "n",
            TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
        )],
    )
}

/// `((inc | []) .. [{<n>} -> {<n -= 1>}]) * {<n> == 0}`: a record
/// `{<n>}` unfolds `n` replicas of a four-component body.
fn countdown_star(width: usize) -> NetSpec {
    let dec = NetSpec::Filter(countdown());
    let exit = Pattern::guarded(
        Variant::empty(),
        TagExpr::bin(BinOp::Eq, TagExpr::tag("n"), TagExpr::Const(0)),
    );
    let head = NetSpec::parallel(vec![wide_inc(width), NetSpec::identity()]);
    NetSpec::star(NetSpec::serial(head, dec), exit)
}

/// Fewest allocations any of a few `run_batch(job())` calls makes on a
/// warm net. The floor, not the mean: which thread's buffer freelist a
/// retired mailbox lands in varies from run to run, and a miss there is
/// not what is being pinned.
fn floor_allocs(net: &SchedNet, job: impl Fn() -> Vec<Record>, expect_outputs: usize) -> u64 {
    (0..24)
        .map(|_| {
            let input = job();
            let before = ALLOCS.load(Ordering::Relaxed);
            let outs = net.run_batch(input).expect("run failed");
            let delta = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(outs.len(), expect_outputs);
            delta
        })
        .min()
        .expect("at least one run")
}

const DEPTH: i64 = 32;

/// Allocations per star unfolding: a depth-32 job against a depth-0 job
/// on the same warm net. The records carry only `<n>`, so they bypass
/// `inc` through `[]` whatever its width — `inc` is there to be
/// instantiated, not to run.
fn allocs_per_unfolding(width: usize) -> u64 {
    let net = SchedNet::with_config(
        countdown_star(width),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let job = |n: i64| move || vec![Record::new().with_tag("n", n)];
    floor_allocs(&net, job(DEPTH), 1); // warm-up
    let deep = floor_allocs(&net, job(DEPTH), 1);
    let flat = floor_allocs(&net, job(0), 1);
    eprintln!("star, inc width {width}: depth {DEPTH} = {deep} allocs, depth 0 = {flat}");
    deep - flat
}

/// Allocations per split replica of `inc ! <k>`: 33 records with 33
/// index values against 33 records with one.
fn allocs_per_replica(width: usize) -> u64 {
    let net = SchedNet::with_config(
        NetSpec::split(wide_inc(width), "k"),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let job = |distinct: bool| {
        move || {
            (0..=DEPTH)
                .map(|i| Record::new().with_tag("k", if distinct { i } else { 0 }))
                .collect::<Vec<_>>()
        }
    };
    let n = DEPTH as usize + 1;
    floor_allocs(&net, job(true), n); // warm-up
    let many = floor_allocs(&net, job(true), n);
    let one = floor_allocs(&net, job(false), n);
    eprintln!("split, inc width {width}: {n} replicas = {many} allocs, 1 replica = {one}");
    many - one
}

/// The least of a few readings of `measure`, each on a net of its own.
/// The counter is process-wide and the floor inside one reading is
/// taken on one net: when the host is busy a net can settle into
/// handing a retired buffer to the other thread's freelist on every
/// job, and all of its runs then read one allocation high (37 for 36,
/// about one reading in 750 under load). A fresh net draws again, so
/// the two sides of an exact comparison are each the least of three.
fn steadiest(measure: impl Fn() -> u64) -> u64 {
    (0..3).map(|_| measure()).min().expect("three readings")
}

#[test]
fn unfolding_allocates_per_task_not_per_spec() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let depth = DEPTH as u64;

    // Five tasks per unfolding (the next tap, the filter, the parallel
    // dispatcher and its two branches) plus the dispatcher's port list.
    // The engine used to deep-copy every spec in the body, and the body
    // itself once more per tap: 39.
    let narrow = steadiest(|| allocs_per_unfolding(1));
    assert!(
        narrow <= 10 * depth,
        "{narrow} allocations for {depth} unfoldings (> 10 each)"
    );
    assert_eq!(
        narrow,
        steadiest(|| allocs_per_unfolding(16)),
        "a 16-item box signature must cost an unfolding nothing extra"
    );

    let narrow = steadiest(|| allocs_per_replica(1));
    assert!(
        narrow <= 10 * depth,
        "{narrow} allocations for {depth} split replicas (> 10 each)"
    );
    assert_eq!(
        narrow,
        steadiest(|| allocs_per_replica(16)),
        "a 16-item box signature must cost a replica nothing extra"
    );
}

/// Fewest allocations a few matched steps of `filter` on a clone of
/// `rec` make, the clone and the sink's room made beforehand; the step
/// must emit `outputs` records.
fn allocs_per_filter_step(filter: &FilterSpec, rec: &Record, outputs: usize) -> u64 {
    (0..3)
        .map(|_| {
            let input = rec.clone();
            let mut sink = Vec::with_capacity(outputs);
            let before = ALLOCS.load(Ordering::Relaxed);
            let work = filter_step_into(filter, input, MismatchPolicy::Error, &mut sink);
            let delta = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(work.expect("the record matches"), Some(Work::ZERO));
            assert_eq!(sink.len(), outputs);
            delta
        })
        .min()
        .expect("three readings")
}

#[test]
fn a_filter_step_keeps_the_storage_it_was_given() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let dec = countdown();
    // `route_stream`'s record: the third tag has spilled the tag array,
    // and `<n>` is rewritten inside that array.
    let routed = Record::new()
        .with_field("x", Value::Int(1))
        .with_tag("k", 2)
        .with_tag("n", 3)
        .with_tag("ts", 4);
    assert_eq!(allocs_per_filter_step(&dec, &routed, 1), 0);
    // Two labels a namespace at most: inline before and after.
    let small = Record::new()
        .with_field("x", Value::Int(1))
        .with_field("y", Value::Int(2))
        .with_tag("k", 2)
        .with_tag("n", 3);
    assert_eq!(allocs_per_filter_step(&dec, &small, 1), 0);
    // `[]` hands on what it was handed, spilled arrays included.
    let six = routed
        .clone()
        .with_field("y", Value::Int(2))
        .with_field("z", Value::Int(3));
    assert_eq!(allocs_per_filter_step(&FilterSpec::identity(), &six, 1), 0);

    // Fig 4's token release, `[{chunk,<node>} -> {chunk}; {<node>}]`:
    // the second output is the remainder itself, the first pays for its
    // copy of it — nothing while the remainder fits inline, one array
    // per namespace that has outgrown it.
    let release = FilterSpec::new(
        Pattern::from_variant(Variant::parse_labels(&["chunk"], &["node"])),
        vec![
            OutputTemplate::empty().keep_field("chunk"),
            OutputTemplate::empty().keep_tag("node"),
        ],
    );
    let solved = Record::new()
        .with_field("chunk", Value::Int(1))
        .with_tag("node", 2)
        .with_tag("tasks", 8)
        .with_tag("fst", 1);
    assert_eq!(allocs_per_filter_step(&release, &solved, 2), 0);
    let wide = solved
        .with_tag("cnt", 5)
        .with_field("pic", Value::Int(2))
        .with_field("scene", Value::Int(3));
    assert_eq!(allocs_per_filter_step(&release, &wide, 2), 2);
}
