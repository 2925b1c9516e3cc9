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
//! The third pins a star whose body is one chain, which the fused plan
//! runs as one component that loops: a round of the loop allocates
//! nothing (at the unfused grain each round is a tap task of its own).
//! A loop whose body holds a synchrocell (the shape of Fig 3's merger)
//! needs a cell state per round: such a round allocates that state and
//! nothing else, fewer allocations than a tap unfolding makes.
//!
//! The fourth pins the filter step itself: a filter works on the record
//! it is handed, so the record that leaves has the storage the one that
//! came had, and only an output that needs its own copy of the
//! remainder pays for one.
//!
//! The fifth pins a split replica of Fig 4's shape, a box and then a
//! parallel of two filters, which the fused plan builds as one task
//! stepping the whole spine.
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

/// `{<n> == 0}`, the countdown's exit.
fn at_zero() -> Pattern {
    Pattern::guarded(
        Variant::empty(),
        TagExpr::bin(BinOp::Eq, TagExpr::tag("n"), TagExpr::Const(0)),
    )
}

/// `(((inc ! <k>) | []) .. [{<n>} -> {<n -= 1>}]) * {<n> == 0}`: a
/// record `{<n>}` unfolds `n` replicas of a five-component body. The
/// split makes the star a component per round (the countdown of the
/// round before, the exit test and the parallel, whose split routes):
/// a body without one runs as a loop.
fn countdown_star(width: usize) -> NetSpec {
    let dec = NetSpec::Filter(countdown());
    let head = NetSpec::parallel(vec![
        NetSpec::split(wide_inc(width), "k"),
        NetSpec::identity(),
    ]);
    NetSpec::star(NetSpec::serial(head, dec), at_zero())
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

/// The floor of `job` over `NETS` nets built by `net`, each warmed up
/// on `job` first. One net can settle into handing a retired buffer to
/// the other thread's freelist on every job, so that all of its runs
/// read one allocation high; on one core about one net in three does
/// so for a job that unfolds nothing. Each side of a difference is
/// therefore the floor over nets of its own, not one net's reading: the
/// least of differences would pick whichever net read its flat side
/// high.
fn warm_floor(net: impl Fn() -> SchedNet, job: impl Fn() -> Vec<Record>, outputs: usize) -> u64 {
    (0..NETS)
        .map(|_| {
            let net = net();
            floor_allocs(&net, &job, outputs); // warm-up
            floor_allocs(&net, &job, outputs)
        })
        .min()
        .expect("at least one net")
}

const NETS: usize = 8;

/// A one-worker net running `spec`.
fn one_worker(spec: NetSpec) -> SchedNet {
    SchedNet::with_config(
        spec,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    )
}

/// Allocations per star unfolding: a depth-32 job against a depth-0
/// job, each side on warm nets of its own (`warm_floor`). The records
/// carry only `<n>`, so they bypass `inc` through `[]` whatever its
/// width — `inc` is there to be instantiated, not to run.
fn allocs_per_unfolding(width: usize) -> u64 {
    let net = || one_worker(countdown_star(width));
    let job = |n: i64| move || vec![Record::new().with_tag("n", n)];
    let deep = warm_floor(net, job(DEPTH), 1);
    let flat = warm_floor(net, job(0), 1);
    eprintln!("star, inc width {width}: depth {DEPTH} = {deep} allocs, depth 0 = {flat}");
    deep - flat
}

/// Allocations per split replica of `body ! <k>`: 33 records with 33
/// index values against 33 records with one.
fn allocs_per_replica(body: &NetSpec) -> u64 {
    let net = || one_worker(NetSpec::split(body.clone(), "k"));
    let job = |distinct: bool| {
        move || {
            (0..=DEPTH)
                .map(|i| Record::new().with_tag("k", if distinct { i } else { 0 }))
                .collect::<Vec<_>>()
        }
    };
    let n = DEPTH as usize + 1;
    let many = warm_floor(net, job(true), n);
    let one = warm_floor(net, job(false), n);
    eprintln!("split: {n} replicas = {many} allocs, 1 replica = {one}");
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

    // Two allocations per unfolding: the next round's task, which runs
    // the countdown of the round before and the parallel with its
    // split, and the parallel's branch list. The records take `[]`, so
    // the split builds no replica. An unfolding was four tasks and the
    // branch list while each round was a tap, a dispatcher, a split and
    // the countdown; before that, the engine deep-copied every spec in
    // the body, and the body itself once more per tap.
    let narrow = steadiest(|| allocs_per_unfolding(1));
    assert!(
        narrow <= 3 * depth,
        "{narrow} allocations for {depth} unfoldings (> 3 each)"
    );
    assert_eq!(
        narrow,
        steadiest(|| allocs_per_unfolding(16)),
        "a 16-item box signature must cost an unfolding nothing extra"
    );

    let narrow = steadiest(|| allocs_per_replica(&wide_inc(1)));
    assert!(
        narrow <= 10 * depth,
        "{narrow} allocations for {depth} split replicas (> 10 each)"
    );
    assert_eq!(
        narrow,
        steadiest(|| allocs_per_replica(&wide_inc(16))),
        "a 16-item box signature must cost a replica nothing extra"
    );
}

/// Fig 4's replica shape, `inc .. ([{<n>} -> {<n -= 1>}] | [])`: a box,
/// then a parallel of two filters. The records carry only `<k>`, so
/// they bypass `inc` and take `[]`.
fn fig4_replica() -> NetSpec {
    let release = NetSpec::parallel(vec![NetSpec::Filter(countdown()), NetSpec::identity()]);
    NetSpec::serial(wide_inc(1), release)
}

#[test]
fn a_fig4_replica_is_one_task() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let depth = DEPTH as u64;
    // Reads 104 for 32 replicas: 3 a replica (its task, its spine and
    // the parallel's branch list), and the 8 the replica map takes to
    // grow to 33 entries, which `inc ! <k>` pays too.
    let replicas = steadiest(|| allocs_per_replica(&fig4_replica()));
    assert_eq!(
        replicas, 104,
        "{replicas} allocations for {depth} Fig 4 replicas"
    );
}

/// `[{<n>} -> {<n -= 1>}] * {<n> == 0}`: a star whose body is one
/// chain, which the fused plan runs as one component that loops.
fn countdown_loop() -> NetSpec {
    NetSpec::star(NetSpec::Filter(countdown()), at_zero())
}

/// Allocations a depth-32 job makes beyond a depth-0 job on the same
/// warm one-worker net running `spec`: 32 rounds of its loop against
/// none.
fn allocs_per_32_rounds(spec: NetSpec) -> u64 {
    let net = one_worker(spec);
    let job = |n: i64| move || vec![Record::new().with_tag("n", n)];
    floor_allocs(&net, job(DEPTH), 1); // warm-up
    let deep = floor_allocs(&net, job(DEPTH), 1);
    let flat = floor_allocs(&net, job(0), 1);
    eprintln!("loop: depth {DEPTH} = {deep} allocs, depth 0 = {flat}");
    deep.saturating_sub(flat)
}

#[test]
fn a_loop_round_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    // A depth-32 job against a depth-0 job on the same warm net: 32
    // rounds of the loop against none.
    let rounds = || {
        let net = SchedNet::with_config(
            countdown_loop(),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let job = |n: i64| move || vec![Record::new().with_tag("n", n)];
        floor_allocs(&net, job(DEPTH), 1); // warm-up
        let deep = floor_allocs(&net, job(DEPTH), 1);
        let flat = floor_allocs(&net, job(0), 1);
        eprintln!("loop: depth {DEPTH} = {deep} allocs, depth 0 = {flat}");
        deep.saturating_sub(flat)
    };
    assert_eq!(
        steadiest(rounds),
        0,
        "{DEPTH} rounds of a loop must allocate nothing a job without rounds does not"
    );
}

/// `([| {x}, {y} |] .. (inc | []) .. [{<n>} -> {<n -= 1>}]) * {<n> ==
/// 0}`: Fig 3's merger shape, a cell ahead of a parallel, around the
/// countdown. The fused plan runs it as one loop with a cell state per
/// round; a record `{<n>}` matches neither slot, so it passes each
/// round's cell and every round is reached.
fn countdown_cell_loop() -> NetSpec {
    let cell = NetSpec::Sync(snet_core::SyncSpec::new(vec![
        Pattern::from_variant(Variant::parse_labels(&["x"], &[])),
        Pattern::from_variant(Variant::parse_labels(&["y"], &[])),
    ]));
    let head = NetSpec::parallel(vec![wide_inc(1), NetSpec::identity()]);
    let body = NetSpec::pipeline([cell, head, NetSpec::Filter(countdown())]);
    NetSpec::star(body, at_zero())
}

#[test]
fn a_loop_round_with_a_cell_allocates_only_its_state() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    // A round's state is the body's spine, the cell's slots and the
    // parallel's branch list, built for every round but the first (whose
    // state is built with the loop); the list of round states grows by
    // doubling. An unfolding of a body with a split, a round of its
    // own, costs 2 (`unfolding_allocates_per_task_not_per_spec`).
    let depth = DEPTH as u64;
    let rounds = steadiest(|| allocs_per_32_rounds(countdown_cell_loop()));
    assert!(
        rounds <= 3 * (depth - 1) + depth.ilog2() as u64,
        "{rounds} allocations for {depth} rounds (> 3 each, and the state list's growth)"
    );
    assert!(
        rounds >= 3 * (depth - 1),
        "{rounds}: every round past the first builds its state"
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
