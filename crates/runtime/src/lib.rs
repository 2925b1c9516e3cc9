//! # snet-runtime — executing S-Net networks
//!
//! Two engines over the same [`snet_core::NetSpec`] topology and the
//! same shared small-step semantics ([`snet_core::semantics`]), so they
//! cannot drift apart on what a component does to a record:
//!
//! * [`SchedNet`] — the **scheduled engine**: the paper's
//!   "asynchronously executed, stateless stream-processing components"
//!   (§III) as lightweight tasks multiplexed over a **persistent**
//!   work-stealing worker pool ([`EngineConfig::workers`]; default: the
//!   available CPUs, at most 4). Parallel merge is arrival-order
//!   (nondeterministic, as specified) and serial replication unfolds
//!   lazily.
//!   The pool spawns on the first run and lives until the `SchedNet`
//!   drops, so consecutive batches and any number of streaming runs
//!   reuse the same OS threads — no per-call spawn/join. A component
//!   runs when input is in its mailbox, drains up to a budget, and
//!   yields; end-of-stream is sender refcounting, and a run's
//!   completion is wake-driven (the last close onto its egress wakes
//!   the driver — no polling). The egress is a mailbox like any other,
//!   which the handle takes outputs from as they arrive, so a slow
//!   consumer throttles the whole network instead of buffering
//!   unboundedly.
//!
//! * [`Interp`] — the **deterministic reference interpreter**:
//!   single-threaded, FIFO scheduling, first-declared tie-breaks. It is
//!   the executable semantics used as an oracle in property tests (the
//!   scheduled engine must produce the same output *multiset* on
//!   confluent networks, batch or streamed), and deliberately an
//!   independent implementation. Use it for debugging and as ground
//!   truth — never for performance.
//!
//! ## One component step, two transports
//!
//! The scheduled engine is written in layers: construction ([`config`]:
//! pre-flight analysis, entry-typed veto, compilation), the per-run
//! control block (`run`: first error, abort flag, deadline, dead
//! letters, trace), the component step (`component`: failure policy,
//! dispatch, lazy unfolding, counters) and the streaming [`Handle`].
//! Under the component step sits a *transport* — what a port is, and
//! what a component runs on. This crate has one, the scheduler's tasks
//! and mailboxes. The second is outside it: `snet-dist` puts the same
//! plan, run block and component step on `snet-simnet`'s
//! discrete-event cluster, where a port's `send` costs virtual time and
//! a `spawn` lands on the node the placement combinators name. So a
//! network has two operational readings, not one per substrate:
//! [`Interp`], and `component` over whichever transport carries the
//! records; `tests/sim_vs_engine.rs` holds the simulated cluster to
//! [`SchedNet`] count for count, which is what proves the step does not
//! depend on its transport.
//! Each module below owns one protocol; where the protocol is
//! concurrent, the `snet-check` scenario that runs that very code under
//! the model checker is named beside it (`tests/model.rs`):
//!
//! | module | protocol it owns | `snet-check` scenario |
//! |---|---|---|
//! | [`config`] | [`EngineConfig`]; `Plan`: pre-flight and entry-typed veto on the topology as written, then [`snet_core::fusion::compile`] (fusion is part of it), once per network | — (sequential) |
//! | `run` | one run's first-error slot, abort flag, deadline, bounded dead-letter queue: `fail` / `should_stop` / `divert` | — (a mutex and a flag; raced by `fault_tolerance.rs`) |
//! | `component` | what is per instance: what one record does to one component, over an abstract `Transport`; back-to-front `build` of a component graph from the compiled tree | — (sequential per component; pinned to [`Interp`] by `engine_vs_interp.rs`, `fusion_equivalence.rs`) |
//! | [`handle`] | the streaming [`Handle`]'s receive side (the window a take fills, dead letters), cancel and finish | — |
//! | `snet-dist` (its own crate, over the hidden `component`/`run` seam) | simulated-cluster transport: a discrete-event process per component on the node `@`/`!@` names, ports are sender-counted `SimQueue`s, `send` charges glue ops and wire bytes, a step's box work occupies the node before its outputs leave | — (the kernel runs one process at a time; pinned to [`SchedNet`] count for count by `tests/sim_vs_engine.rs`) |
//! | `sched::pool` | the run queues (one shared, one per worker: mutex-guarded `VecDeque`s, steal-half), `notify` / `park` (lock-then-notify, sleeper gate, re-probe of every queue): every wake, none by the clock; a worker meeting the same contended task twice steals, else yields | every scenario (the wake protocol); `two_workers_hand_off_and_steal` (a worker's own queue, the raid); `two_workers_steal_from_a_held_worker` (the contended hand-back). The queues are a lock around a std container, unit- and churn-tested beside them |
//! | `sched::task` | the task transport: mailbox, sender-refcount end-of-stream (in place when the task is idle and drained, else by activation), one activation: drain → step → flush → finalize; backpressure registration (a held-back producer on its downstream mailbox, woken by the drain under its limit); the egress, a mailbox never queued; the waits of threads outside the pool (register, re-check, woken by every flush, drain and last close) | `split_unfolding_races_the_last_close` (in-place end-of-stream), `batch_holds_back_at_the_high_water_mark` (registration vs. the drain), `stream_waits_at_the_ingress_and_the_egress` (the waits from outside vs. the last close) |
//! | `sched` | worker pool lifetime, batch driver, the handle's bounded mailbox ingress and its take of the egress | `stream_waits_at_the_ingress_and_the_egress`, and the batch driver in the other three |
//!
//! ## The compiled plan, and what an instance costs
//!
//! A [`Network`] compiles its topology once
//! ([`snet_core::fusion::compile`]) into an immutable tree whose
//! leaves — chain stage lists (the box definitions and filter specs)
//! and synchrocell specs — and replicating combinators — parallel
//! branch patterns, star and split bodies — sit behind `Arc`s. Every
//! run, and every star or split replica unfolded while a run is live,
//! is instantiated from that tree: a component instance is a pointer
//! into it plus its own state (ports, synchrocell slots; a chain has
//! none — the buffers a chain step works in belong to the stepping
//! thread), so creating or retiring one is reference-count traffic and
//! copies nothing whose size depends on the topology. The paper's Fig 4 net
//! schedules dynamically *by unfolding*, so this is coordination
//! overhead in its own sense: one 16×16 job on that net builds and
//! retires 150 components in 41 unfoldings (234 before a parallel ran
//! its chain branches itself, below), and instantiating from the
//! shared tree roughly doubled the rate of such jobs (`forkjoin_burst`
//! in `benchmark/`; per-instance cost in `BENCH_unfold.json`, gated).
//! [`Interp`] does not use the tree — the oracle stays an independent
//! implementation over the [`NetSpec`] itself.
//!
//! Retiring is as short as the protocol allows. When the last sender
//! onto a scheduled task closes and the task is an idle component with
//! an empty mailbox, the closer finalizes it on the spot and goes on to
//! close *its* outputs the same way (nesting bounded at 32); a task
//! that is mid-activation or still has input is queued and finalizes in
//! an activation as before — that remains the general case, not an
//! option. The egress is never finalized: its last close ends the run. [`Trace`]'s `components_built` and
//! `components_finalized` are equal after every run, on the engine and
//! on the simulated cluster, however it ended: no instance is skipped
//! or retired twice.
//!
//! Besides batches, a network streams: `start()` returns a [`Handle`]
//! with `send` / `try_send` / `send_all` / `recv` / `close_input` /
//! `cancel` / `finish`, and ingress is bounded: `send` blocks (and
//! `try_send` reports `Full`) once [`EngineConfig::channel_capacity`]
//! records are resident at the entry.
//!
//! ## Batched hand-off ([`EngineConfig::batch`])
//!
//! Record hand-off in the scheduled engine is **batch-granular**, not
//! record-granular. Every inter-task edge coalesces an activation's
//! output in a producer-side buffer and pushes it downstream as one
//! run: one mailbox lock acquisition and at most one consumer wake per
//! up-to-`batch` records, instead of one of each per record. Input is
//! drained at the same granularity (a task claims up to `batch`
//! records from its mailbox under one lock), the activation budget
//! counts *records* so long streams still yield to siblings, and every
//! activation flushes all of its output edges before yielding — no
//! record is ever stranded in a coalescing buffer while its producer
//! waits. Per-edge FIFO order is preserved exactly; only the lock/wake
//! cadence changes, so the small-step semantics (and the interpreter
//! oracle) are unaffected. `batch = 1` restores the pre-batching
//! record-at-a-time protocol bit for bit.
//!
//! The default (`batch = 32`) shows where records hand off at every
//! stage: `route_stream` in `benchmark/` (nothing fuses) reads ≈1.45×
//! the `throughput_per_s` of a build whose default is 1, which is also
//! what guards the coalescing path — break it and that workload's 0.25
//! bound trips. Serial runs of boxes do not hand off at all once fused.
//! Because a queue operation is paid per hand-off, not per record, and
//! the pool is at most four workers, the run queues are plain
//! mutex-guarded `VecDeque`s: against a lock-free work-stealing deque
//! in their place, all four `benchmark/` workloads read the same
//! `throughput_per_s` (medians 0.98–1.01× over six alternating pairs,
//! each inside the parent's own quartiles). What did measure was
//! collapsing them into a single shared queue — `forkjoin_burst`
//! 0.75–0.86×, `route_stream` 0.95× — so a worker keeps a queue of its
//! own: it is what keeps a consumer on its producer's core (ROADMAP has
//! the runs). Backpressure is cooperative and woken, not timed:
//! a task whose downstream mailbox is at the high-water mark stops
//! consuming and registers on that mailbox, and the drain that takes
//! the backlog under the mark queues it again. The run's egress is such
//! a mailbox, with the handle's take as its drain: a last stage whose
//! consumer lags waits the same way, and the take that moves the
//! egress's backlog out wakes it.
//!
//! ## Operator fusion ([`EngineConfig::fuse`])
//!
//! Fusion is a step of compilation, not a topology: a [`NetSpec`] is
//! always the network as written — that is what [`Interp`],
//! `snet-analyze` and the printer read, and none of them ever sees a
//! chain — while the tree the engine compiles it into
//! ([`snet_core::fusion::compile`]) has one kind of stateless leaf, the
//! `Node::Chain`: a serial run of one or more boxes and filters executed
//! as one component (one scheduler task), each activation running its
//! records through *all* stages
//! back-to-back with no mailbox hop, lock or wake between them. `fuse`
//! picks the **grain** and nothing else: on (the default), every
//! maximal static SISO run — single input, single output, no
//! intervening merge point — is one chain, so a depth-N pipeline is one
//! component; off, every chain has length 1 and the topology runs one
//! component per primitive, N−1 hand-offs apart. Both grains execute a
//! box through the same [`snet_core::ChainRunner`] step — there is no
//! second code path for a box standing alone. Combinator boundaries
//! that can reorder, replicate, or synchronize records —
//! parallel/split dispatch and merge, star unfolding, synchrocells —
//! never share a chain with what is outside them; mailboxes remain
//! exactly there, so the observable record flow (and the interpreter
//! oracle) is unchanged. A star whose body is one chain is the
//! boundary that owns it: fused, it has no taps at all
//! (`Node::Loop`). Every replica would run the same stateless chain, so
//! the star is one component that loops. After every round the records
//! that match the exit leave on its output and the rest go round the
//! chain again; the deepest round it has run is what the taps would
//! have unfolded, and that is what it counts in `star_unfoldings`. It
//! polls the run's abort flag and deadline once per round and is
//! backpressured on its output, as a chain is. A parallel is the other
//! boundary that owns chains: fused, every branch that is one chain
//! (`ParNode::inline`) is run by the dispatcher itself. Dispatch is
//! unchanged; the records a hand-off batch sends to such a branch are
//! held, then go through its chain in one stage-major step, straight
//! onto the merged output every branch writes. Only the other branches
//! are built behind a port, so the bypass idiom `(A | [])` of the
//! paper's Figs 3 and 4 is one component, not three, and a parallel
//! that runs a branch is backpressured on its output. A 16×16 job on
//! the Fig 4 net builds 150 components instead of 234, and
//! `forkjoin_burst` reads 1.21× the jobs/s (higher in 10 of 10
//! alternating pairs; ROADMAP has the runs).
//!
//! Faults are **per stage** at either grain: each stage runs under its
//! own [`FailurePolicy`], a `DeadLetter`-diverted record carries the
//! *failing stage's* box name in its [`FailureReport`], `Retry`
//! re-attempts only the failing stage (not the whole chain), and under
//! `FailFast` a panic anywhere in a chain is attributed to the exact
//! stage that raised it. The trace counts per stage via the chain
//! tally, so the two grains are indistinguishable to observers except
//! in `components_built` — the equivalence property suite
//! (`fusion_equivalence.rs`) holds fused, unfused, and interpreter
//! runs to the same output multisets, dead-letter multisets, and
//! failure attributions. What the grain buys is fewer components and
//! hops (`components_built`, `runtime.sched.hop_ns` in the benchmark
//! ledger), and on deep pipelines of trivial boxes not a speed-up one
//! can quote: the two grains read about the same once records carry an
//! inherited tag (ROADMAP). The measured exceptions are the grain
//! changes to stars and parallels: `route_stream` in `benchmark/`,
//! whose star's body is one chain, read 1.104× the `throughput_per_s`
//! when that star became one loop, which takes a record from 7
//! record-hops to 5 (higher in 10 of 10 alternating pairs), and
//! `forkjoin_burst` the 1.21× above (ROADMAP has the runs).
//!
//! ## Failure semantics
//!
//! Both engines run each component step under a [`FailurePolicy`] —
//! the engine-wide default is [`EngineConfig::policy`], overridable per
//! box with [`BoxDef::with_policy`](snet_core::boxdef::BoxDef::with_policy):
//!
//! | Policy | Box error or panic | Glue error (filter, dispatch) |
//! |---|---|---|
//! | `FailFast` (default) | the first error poisons the run; `finish` / `run_batch` report it and in-flight records are dropped | same |
//! | `Retry { max_attempts, backoff }` | the box step is re-attempted on `BoxFailure` (panics are caught and count) with exponential backoff; exhaustion is fatal | never retried — glue errors are deterministic, so this degenerates to `FailFast` |
//! | `DeadLetter` | the offending record is diverted, with a [`FailureReport`], to the run's bounded dead-letter stream and the run continues | diverted too |
//!
//! Dead letters surface three ways: batch runs return them in
//! [`RunReport::dead_letters`] (via [`Network::run_batch_report`]);
//! streaming runs poll [`Handle::try_recv_dead_letter`]; and the
//! [`Trace`] counts them (`dead_letters`, `retries`). Under
//! `DeadLetter` the outputs plus the diverted records partition the
//! input-derived record set — nothing is silently dropped. **Ordering
//! caveat:** the stream is ordered by divert time, which on the
//! scheduled engine is a race between components; only
//! per-component subsequences (and [`FailureReport::seq`] within one
//! run) are deterministic. A streaming run's dead-letter queue is
//! bounded; a consumer that never drains it while diversions pile up
//! fails the run with an engine error rather than blocking workers.
//!
//! Runs end early two ways, both cooperative:
//! [`Handle::cancel`] and [`EngineConfig::deadline`]. On either
//! path `finish()` reports [`SnetError::Cancelled`] /
//! [`SnetError::DeadlineExceeded`], outputs already produced stay
//! retrievable (`recv` keeps draining until the egress closes), and the worker pool stays healthy and reusable — a later run on the same `SchedNet` spawns no new
//! workers. Cancellation points are activation boundaries (plus the
//! batch stride inside long drains), so a box body is never
//! interrupted mid-call: a stalled box delays detection but cannot
//! corrupt state.
//!
//! The [`faultinject`] module provides the deterministic, content-keyed
//! chaos harness the robustness property tests drive these paths with.
//!
//! ## Static analysis
//!
//! The engine checks the topology with `snet-analyze` before
//! executing it, at two levels of precision:
//!
//! * **Structural pre-flight** (always on): [`Network::with_config`]
//!   runs the analyzer's shape-free structural pass — one walk over
//!   every node, a few microseconds — which assumes nothing about the
//!   input stream and rejects what is wrong for every record
//!   population: today a star whose exit pattern matches every record
//!   (SNA007; its body could never run). Placement range (SNA006) is
//!   part of the same pass but needs a node count, which the local
//!   engine — it ignores `@` — does not have; whoever targets a
//!   cluster calls `snet_analyze::analyze_open` with
//!   `AnalyzeConfig::nodes` set. A finding is kept in
//!   [`Network::preflight_diagnostics`] and reported as
//!   [`SnetError::Analysis`] from the first run (`run_batch*`, or
//!   `finish()` on a started stream) rather than panicking in the
//!   middle of one. There is no opt-out: the walk is too cheap to need
//!   one.
//! * **Entry-typed analysis** ([`Network::with_entry_type`]): given the
//!   input stream's record type, construction adds the flow pass (an
//!   abstract interpretation from that type) and *refuses to build* a
//!   network with an error-severity finding — unroutable records at a
//!   parallel (SNA001), synchrocells that can never fire (SNA003),
//!   splits not guaranteed their index tag (SNA004), filters reading
//!   labels the input cannot carry (SNA005). Diagnostics carry stable `SNA...` codes and component
//!   paths; the same codes are exposed by
//!   [`SnetError::diag_code`](snet_core::SnetError::diag_code) when the
//!   equivalent defect is hit *dynamically*, so a runtime routing
//!   failure and its static prediction read as one vocabulary.
//!
//! The soundness contract — anything the reference interpreter routes,
//! the analyzer must not flag — is pinned by the property suite in
//! `tests/analyze_soundness.rs` (256+ random topologies per property)
//! and gated in CI's `analyze` lane. The `snet-lint` binary
//! (crates/apps) runs the same analysis over the paper's application
//! networks.
//!
//! ## Concurrency correctness
//!
//! The scheduled engine's hot paths are mutex- or condvar-gated hand-
//! offs between threads, and "it passed the stress tests" is not an
//! argument there. Four layers back up the concurrent internals:
//!
//! 1. **Model checking** (`crates/check`, the `snet-check` crate): a
//!    loom-style deterministic scheduler explores thread interleavings
//!    exhaustively (sequentially consistent schedules, preemption-
//!    bounded DFS, deterministic replay of any failing schedule). What
//!    it checks is the scheduler itself: under `RUSTFLAGS="--cfg
//!    snet_check"` the `sched` modules' atomics, condvars and threads,
//!    and the `parking_lot` mutex they lock through, are the checker's,
//!    and `tests/model.rs` runs small `SchedNet`s through the public API
//!    under every schedule up to its bound (the CI `model-check` lane);
//!    the table above names the scenario behind each module. Each
//!    scenario asserts its outputs and that no timed wait ever fired,
//!    so the park quantum and the poll of a thread outside the pool
//!    are shown to be backstops. The containers are not modelled: the
//!    run queues are a lock around `VecDeque`, the standard library's
//!    to prove. The checker has already earned its keep: it found a
//!    missed-wake window in `sched::pool`'s `notify` — a producer's
//!    push + sleeper-gate check + notify could land entirely between a
//!    parking worker's re-probe and its condvar wait, burning the 1ms
//!    timed backstop — then that the re-probe must cover every run
//!    queue, not only the shared one, and that a worker seeing a
//!    contended hand-back twice spun on it (`park` found the handed-
//!    back task at once) and never stole the work that the activation
//!    holding the task was waiting for. A copy of the code with any of those bugs put back
//!    fails a scenario.
//! 2. **Weak-memory coverage**: the model runs SeqCst-only, so the CI
//!    `tsan` lane races the scheduler's streaming suite under
//!    ThreadSanitizer, and the `miri` lane runs snet-core's
//!    value/record layers and their in-place storage under Miri for UB
//!    beyond data races.
//! 3. **No unsafe here**: this crate and `snet-core` are
//!    `#![forbid(unsafe_code)]`, so nothing an engine runs has any:
//!    `unsafe` lives only in the model checker's mutex façade and two
//!    counting allocators (`tests/alloc_steady.rs`, `bench_unfold`),
//!    where every block carries a `SAFETY:` comment
//!    and `scripts/check_unsafe.py` fails CI on one without, or on any
//!    in a crate outside its allowlist.
//! 4. **Interleaving stress**: `tests/sched_stress.rs` unfolds a
//!    ~1,750-component net on pools of 1, 2, 4 and 8 workers against
//!    the interpreter, so stealing and contended hand-backs actually
//!    happen; the churn test beside the run queues (`sched::pool`)
//!    races one owner against three thieves and counts every element
//!    consumed and dropped exactly once; the fault-injection harness
//!    churns the failure paths.
//!
//! ## Memory & scale
//!
//! Streaming memory is bounded by configuration, not by stream length,
//! and the steady-state hot path allocates **nothing per record**.
//!
//! **Pooling** (`snet_core::pool`): the scheduled engine's steady state
//! cycles a fixed set of buffer shapes — the `Vec<Record>` a task
//! drains its mailbox into each activation, the coalescing buffer of
//! every producer port, each thread's chain scratch (a `ChainRunner`'s
//! two ping-pong buffers and an output batch), and the
//! `VecDeque<Record>` backing every mailbox. All of them are drawn from
//! and returned to per-thread freelists (with a bounded cross-thread
//! spill), so after warm-up an activation reuses warmed capacity
//! instead of touching the allocator. Recycling is best-effort and
//! capacity-capped: oversized buffers are dropped rather than pinned,
//! and a pool miss just allocates — correctness never depends on the
//! pool. What is *not* recycled: record payloads themselves (fields own
//! their values; a record keeps up to two pairs per namespace in
//! itself, and a step's one output record sits in place, so short
//! records never hit the heap), a run's egress deque, which a batch
//! run hands out as its outputs, and the streaming handle's window (a
//! take swaps it with the egress's deque, so the two grow to the
//! egress's high-water mark once and are reused from then on), the
//! run's dead-letter queue (a `VecDeque` that allocates only when a
//! record is diverted, and grows to at most 16 × `cap` letters on a
//! stream), and per-run setup (task graph, trace) — which is why the guarantee is
//! *steady-state* allocation freedom, proven by the counting-allocator
//! test `tests/alloc_steady.rs`: a depth-16 fused chain streams 50k
//! records on ~100 total allocations (0 per record), and the unfused
//! path is a flat constant too.
//!
//! **The RSS ceiling**: with `cap = channel_capacity` and `C`
//! components in the run's graph, records in flight are bounded by
//!
//! ```text
//! in_flight  <=  cap              (ingress mailbox)
//!             +  C * 16 * cap     (per-component mailbox high-water)
//!             +  16 * cap         (egress high-water)
//! ```
//!
//! (plus one hand-off batch of slop per edge, and what the consumer's
//! last take moved into its window, at most one egress's worth), so peak RSS above the
//! binary-plus-pool baseline is `O(in_flight * record_size)` — a
//! function of topology and configuration only. `tests/memory_soak.rs`
//! pins it: a million records through a throttled depth-8 pipeline grow
//! peak RSS by ~2 MiB. Across concurrent sessions on one pool the
//! same ceiling is what `chain_stream`'s and `route_stream`'s
//! `peak_rss_bytes` bound in `benchmark/`.
//!
//! ## Batch, stream, oracle
//!
//! ```
//! use snet_core::{NetSpec, Record, Value, BoxOutput, Work};
//! use snet_core::boxdef::{BoxDef, BoxSig};
//! use snet_runtime::{Interp, SchedNet};
//!
//! let double = NetSpec::Box(BoxDef::from_fn(
//!     BoxSig::parse("double", &["x"], &[&["x"]]),
//!     |r| {
//!         let x = r.field("x").and_then(|v| v.as_int()).unwrap();
//!         Ok(BoxOutput::one(Record::new().with_field("x", Value::Int(2 * x)), Work::ZERO))
//!     },
//! ));
//! let x = |v: i64| Record::new().with_field("x", Value::Int(v));
//! let net = SchedNet::new(double.clone());
//!
//! // A live stream on the persistent worker pool:
//! let h = net.start();
//! h.send(x(21)).unwrap();
//! let out = h.recv().expect("one output");
//! h.finish().unwrap();
//! assert_eq!(out.field("x").unwrap().as_int(), Some(42));
//!
//! // A batch, and the reference interpreter on the same input:
//! let outs = net.run_batch(vec![x(4)]).unwrap();
//! let oracle = Interp::new(&double).run_batch(vec![x(4)]).unwrap();
//! assert_eq!(format!("{outs:?}"), format!("{:?}", oracle.outputs));
//! ```

#![forbid(unsafe_code)]

#[doc(hidden)]
pub mod component;
pub mod config;
pub mod faultinject;
pub mod handle;
pub mod interp;
#[doc(hidden)]
pub mod run;
mod sched;
#[cfg(test)]
mod suite;
pub mod trace;
/// The engine suite again at [`suite::fine_grain`], with the pins on
/// the labels components are named by.
#[cfg(test)]
mod engine {
    mod tests;
}

pub use config::EngineConfig;
pub use faultinject::{chaos, chaos_with_stats, ChaosStats, FaultKind, FaultSpec};
pub use handle::{Handle, TrySendError};
pub use interp::{Interp, InterpResult};
pub use trace::Trace;

pub use snet_core::fault::{DeadLetter, FailurePolicy, FailureReport};

use config::Plan;
use snet_core::{Diagnostic, NetSpec, RType, Record, SnetError};
use std::sync::Arc;

/// Everything a batch run produced: the surviving outputs, the records
/// diverted under [`FailurePolicy::DeadLetter`] (with their
/// [`FailureReport`]s), and the run's event counters.
///
/// Under `DeadLetter`, `outputs` plus the input-derived records behind
/// `dead_letters` partition the record set the fault-free run would
/// have produced — nothing is silently dropped. Under the other
/// policies `dead_letters` is always empty.
#[derive(Debug)]
pub struct RunReport {
    /// Output records in arrival order.
    pub outputs: Vec<Record>,
    /// Records diverted to the dead-letter stream, in divert order.
    pub dead_letters: Vec<DeadLetter>,
    /// The run's event counters.
    pub trace: Arc<Trace>,
}

/// A compiled network ready to execute records on the scheduled engine:
/// component tasks multiplexed over a persistent work-stealing worker
/// pool.
///
/// A `Network` is reusable: every [`Network::start`] (or
/// [`Network::run_batch`]) call instantiates a fresh set of components.
/// Synchrocell and replication state never leaks between runs. What
/// lives *between* runs is the worker pool: it spawns lazily on the
/// first run and lives until the network drops, so consecutive runs
/// reuse the same OS threads.
pub struct Network {
    plan: Plan,
    engine: sched::Scheduled,
}

/// The name callers use for a [`Network`].
pub type SchedNet = Network;
/// A running instance of a [`SchedNet`].
pub type SchedHandle = Handle;
/// `benchmark/src/ledger.rs` still builds a `Net` (its traced-only
/// `runtime.engine.batch256_us` row, which therefore prices the
/// scheduled engine); the `benchmark/` refresh ROADMAP lists deletes
/// this alias.
#[doc(hidden)]
pub type Net = SchedNet;

impl Network {
    /// Wraps a topology with default configuration.
    pub fn new(spec: NetSpec) -> Self {
        Self::with_config(spec, EngineConfig::default())
    }

    /// Wraps a topology with explicit configuration.
    pub fn with_config(spec: NetSpec, config: EngineConfig) -> Self {
        Network {
            engine: sched::Scheduled::new(&config),
            plan: Plan::new(spec, config),
        }
    }

    /// Wraps a topology with a declared (closed) entry type: every
    /// record fed to the net is promised to carry exactly the labels of
    /// one of `entry`'s variants. This unlocks the full shape-aware
    /// analysis — the net is rejected up front ([`SnetError::Analysis`])
    /// on any error-severity finding (unroutable records, splits missing
    /// their index tag, stranded synchrocells, unbound filter labels, on
    /// top of the structural ones every net is pre-flighted for).
    pub fn with_entry_type(
        spec: NetSpec,
        entry: &RType,
        config: EngineConfig,
    ) -> Result<Self, SnetError> {
        Ok(Network {
            plan: Plan::with_entry_type(spec, entry, config)?,
            engine: sched::Scheduled::new(&config),
        })
    }

    /// The underlying topology.
    pub fn spec(&self) -> &NetSpec {
        &self.plan.spec
    }

    /// The error-severity findings of the structural pre-flight this
    /// net was constructed with (empty when it passed); non-empty fails
    /// every run with [`SnetError::Analysis`].
    pub fn preflight_diagnostics(&self) -> &[Diagnostic] {
        &self.plan.preflight
    }

    /// Instantiates the network and returns a handle for streaming
    /// records in and out.
    pub fn start(&self) -> Handle {
        self.engine.start(&self.plan)
    }

    /// Feeds a batch of records, closes the input, and collects the
    /// complete output stream (arrival order).
    pub fn run_batch(&self, records: Vec<Record>) -> Result<Vec<Record>, SnetError> {
        Ok(self.run_batch_report(records)?.outputs)
    }

    /// Like [`Network::run_batch`] but also returns the run's
    /// [`Trace`].
    pub fn run_batch_traced(
        &self,
        records: Vec<Record>,
    ) -> Result<(Vec<Record>, Arc<Trace>), SnetError> {
        let report = self.run_batch_report(records)?;
        Ok((report.outputs, report.trace))
    }

    /// Full-fidelity batch run: outputs, dead letters, and trace in one
    /// [`RunReport`]. This is the entry point for
    /// [`FailurePolicy::DeadLetter`] batch runs, where dropped records
    /// are data, not errors — the plainer `run_batch*` forms discard
    /// the diverted records.
    pub fn run_batch_report(&self, records: Vec<Record>) -> Result<RunReport, SnetError> {
        self.engine.run_batch_report(&self.plan, records)
    }
}

/// Streams a batch of records through a network: a feeder thread pushes
/// them against the handle's bounded ingress ([`Handle::send_all`]) and
/// closes the input, while the calling thread drains the output (and
/// the dead letters, at the same cadence, so the bounded dead-letter
/// stream never overflows; they are discarded), then the run is
/// finished and the collected outputs returned. A send error means the
/// run tore down early; `finish` reports why.
///
/// This is the streaming analogue of [`Network::run_batch`] — same
/// inputs, same output multiset on confluent nets, but bounded
/// residency instead of a materialized entry backlog — and is what the
/// equivalence property tests drive.
pub fn run_stream(net: &Network, records: Vec<Record>) -> Result<Vec<Record>, SnetError> {
    let handle = net.start();
    let mut outs = Vec::new();
    std::thread::scope(|s| {
        let h = &handle;
        s.spawn(move || {
            let _ = h.send_all(records);
            h.close_input();
        });
        loop {
            let out = h.recv();
            while h.try_recv_dead_letter().is_some() {}
            match out {
                Some(rec) => outs.push(rec),
                None => break,
            }
        }
    });
    handle.finish()?;
    Ok(outs)
}

/// Single-threaded streaming driver: pushes records through the bounded
/// ingress and drains outputs on the calling thread (the dead letters
/// too, at the same cadence, discarded as [`run_stream`] does), never
/// parking while input remains. A full ingress triggers an output drain; if
/// nothing is drainable either, the thread runs pool work itself
/// ([`Handle::drive`]) or *yields* to the workers instead of doing a
/// condvar round trip.
///
/// Residency stays bounded exactly like [`run_stream`] (`try_send`
/// refuses to exceed the ingress capacity), but no feeder or consumer
/// thread exists to ping-pong with the workers, and the workers never
/// pay an ingress wakeup — on a loaded or single-core host those
/// per-window context switches are what separates streaming from
/// batch-mode throughput. Prefer this when one thread both produces
/// and consumes the stream; prefer [`run_stream`] (or a hand-rolled
/// producer thread) when production and consumption are naturally
/// concurrent.
pub fn run_stream_interleaved(
    net: &Network,
    records: Vec<Record>,
) -> Result<Vec<Record>, SnetError> {
    let handle = net.start();
    let mut outs = Vec::new();
    'feed: for rec in records {
        let mut pending = rec;
        loop {
            match handle.try_send(pending) {
                Ok(()) => break,
                Err(TrySendError::Full(back)) => {
                    pending = back;
                    let mut drained = false;
                    while let Some(out) = handle.try_recv() {
                        outs.push(out);
                        drained = true;
                    }
                    while handle.try_recv_dead_letter().is_some() {}
                    if !drained && !handle.drive() {
                        // Ingress full, nothing to drain, no task to
                        // help with: the pipeline is mid-flight on the
                        // workers. Hand them the CPU.
                        std::thread::yield_now();
                    }
                }
                // The run failed; stop feeding and let finish() report.
                Err(TrySendError::Closed(_)) => break 'feed,
            }
        }
    }
    handle.close_input();
    // Tail drain, still helping: run leftover engine work in place and
    // only block on `recv` when there is truly nothing else to do.
    loop {
        while handle.try_recv_dead_letter().is_some() {}
        if let Some(rec) = handle.try_recv() {
            outs.push(rec);
        } else if !handle.drive() {
            match handle.recv() {
                Some(rec) => outs.push(rec),
                None => break,
            }
        }
    }
    handle.finish()?;
    Ok(outs)
}
