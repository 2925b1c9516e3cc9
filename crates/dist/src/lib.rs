//! # snet-dist — Distributed S-Net on the simulated cluster
//!
//! Executes an [`snet_core::NetSpec`] on the deterministic
//! discrete-event cluster of `snet-simnet`, honouring the Distributed
//! S-Net placement combinators: `A @ n` pins a subtree to node `n`, and
//! `A !@ <tag>` places each index replica on the node named by its tag
//! value (modulo the cluster size), exactly the prototype's "numbers
//! correspond to MPI task identifiers" (§III).
//!
//! Every component instance runs as a simulated process on its node.
//! Box invocations execute the *real* box function (the ray tracer
//! actually renders) and charge the reported abstract work as virtual
//! CPU time on the hosting node; record hand-offs charge the
//! [`OverheadModel`]'s per-hop glue cost on the sending node's CPU and
//! the record's wire size on the network (NIC serialization + link
//! latency across nodes, memory-copy cost within a node). The result is
//! a virtual-time makespan comparable against the hand-written MPI
//! baseline running on the same simulated hardware — the measurement
//! the paper's §V figures are built from.
//!
//! The engine shares the small-step semantics of `snet_core::semantics`
//! with the threaded engine, the scheduled engine, and the reference
//! interpreter, so a network means the same thing on all four
//! substrates; this crate only adds *where* things run and *what they
//! cost*.

use parking_lot::Mutex;
use snet_core::semantics::{self, MismatchPolicy};
use snet_core::value::AnyData;
use snet_core::{panic_cause, NetSpec, Record, SnetError, SyncOutcome, Value};
use snet_simnet::{Cluster, ClusterSpec, SimCtx, SimError, SimHandle, SimQueue, Simulation};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ------------------------------------------------------------ overhead

/// The S-Net runtime's per-record cost model.
///
/// The paper reports that S-Net's coordination overhead is visible on
/// one node and amortized from two nodes on (§V); this model makes that
/// overhead an explicit, tunable quantity instead of an accident of the
/// host machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverheadModel {
    /// Abstract CPU operations charged on the *sending* node for every
    /// record hop between components (stream hand-off, type match,
    /// dispatch bookkeeping). The unit is the same "op" the application
    /// work counters use, converted to seconds by
    /// [`ClusterSpec::cpu_ops_per_sec`].
    pub hop_ops: u64,
}

impl OverheadModel {
    /// No per-record runtime cost at all: isolates scheduling and
    /// transport effects (used by tests that check pure load-balancing
    /// properties).
    pub fn zero() -> OverheadModel {
        OverheadModel { hop_ops: 0 }
    }
}

impl Default for OverheadModel {
    /// Calibrated so that on the paper-shaped testbed the static S-Net
    /// net pays a real but bounded premium over the hand-written MPI
    /// baseline (§V: visible on 1 node, amortized from 2 on), while the
    /// dynamic net's merger chain does not drown its load-balancing win
    /// at the fig6 default resolution.
    fn default() -> OverheadModel {
        OverheadModel { hop_ops: 4_000 }
    }
}

// --------------------------------------------------------------- stats

#[derive(Default)]
struct Stats {
    records_hopped: AtomicU64,
    glue_ops: AtomicU64,
    box_ops: AtomicU64,
    wire_bytes: AtomicU64,
    sync_stores: AtomicU64,
    sync_fires: AtomicU64,
    sync_stranded: AtomicU64,
    star_unfoldings: AtomicU64,
    split_replicas: AtomicU64,
    dispatched: AtomicU64,
    passthroughs: AtomicU64,
}

impl Stats {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StatsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            records_hopped: get(&self.records_hopped),
            glue_ops: get(&self.glue_ops),
            box_ops: get(&self.box_ops),
            wire_bytes: get(&self.wire_bytes),
            sync_stores: get(&self.sync_stores),
            sync_fires: get(&self.sync_fires),
            sync_stranded: get(&self.sync_stranded),
            star_unfoldings: get(&self.star_unfoldings),
            split_replicas: get(&self.split_replicas),
            dispatched: get(&self.dispatched),
            passthroughs: get(&self.passthroughs),
        }
    }
}

/// Runtime counters of one cluster run (deterministic across repeated
/// runs of the same program).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Records handed between components (every edge traversal).
    pub records_hopped: u64,
    /// Abstract ops charged for runtime glue (hops, dispatch).
    pub glue_ops: u64,
    /// Abstract ops reported by box invocations.
    pub box_ops: u64,
    /// Bytes that crossed the simulated network (inter-node only).
    pub wire_bytes: u64,
    /// Synchrocell stores.
    pub sync_stores: u64,
    /// Synchrocell fires (merges emitted).
    pub sync_fires: u64,
    /// Records stranded in unfired synchrocells at end-of-stream.
    pub sync_stranded: u64,
    /// Star replica instantiations.
    pub star_unfoldings: u64,
    /// Index-split replica instantiations.
    pub split_replicas: u64,
    /// Records routed by dispatchers.
    pub dispatched: u64,
    /// Records forwarded past a non-matching component.
    pub passthroughs: u64,
}

// -------------------------------------------------------------- result

/// Result of one simulated cluster run.
#[derive(Debug)]
pub struct RunResult {
    /// Virtual makespan (time of the last processed event).
    pub makespan: Duration,
    /// Records that left the network, in virtual-arrival order.
    pub outputs: Vec<Record>,
    /// Runtime counters.
    pub stats: StatsSnapshot,
    /// Discrete events processed.
    pub events: u64,
    /// Simulated processes instantiated.
    pub processes: usize,
    /// Per-node CPU busy time in seconds (idle time = load imbalance).
    pub cpu_busy_secs: Vec<f64>,
}

// -------------------------------------------------------------- engine

/// A shared-ownership sender onto a component's input stream.
///
/// Closes the underlying queue when the *last* sender closes — the
/// discrete-event equivalent of dropping the last `Sender` clone in the
/// threaded engine.
struct Tx {
    q: SimQueue<Record>,
    senders: Arc<AtomicUsize>,
    /// Node hosting the consumer (transfer costs are charged from the
    /// sender's node to this one).
    dst_node: usize,
}

impl Tx {
    fn new(q: SimQueue<Record>, dst_node: usize) -> Tx {
        Tx {
            q,
            senders: Arc::new(AtomicUsize::new(1)),
            dst_node,
        }
    }

    fn another(&self) -> Tx {
        self.senders.fetch_add(1, Ordering::AcqRel);
        Tx {
            q: self.q.clone(),
            senders: Arc::clone(&self.senders),
            dst_node: self.dst_node,
        }
    }

    fn close(self) {
        if self.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.q.close();
        }
    }
}

struct Env {
    handle: SimHandle,
    cluster: Cluster,
    overhead: OverheadModel,
    stats: Arc<Stats>,
    error: Arc<Mutex<Option<SnetError>>>,
    nodes: usize,
    /// Shared (`Arc`ed) payloads already resident on each node, keyed
    /// by pointer identity and *holding* the payload: keeping the `Arc`
    /// alive pins its address for the whole run, so a recycled
    /// allocation can never alias a cached key (which would silently
    /// undercharge transfers and break run determinism). A payload
    /// crosses the wire to a node at most once — the transport
    /// equivalent of the MPI baseline broadcasting the scene once per
    /// node instead of once per section. Intra-node hand-off of shared
    /// payloads is a pointer pass (the copy work the application *does*
    /// perform — chunk blits, image assembly — is charged by the boxes
    /// themselves as `Work`).
    resident: Vec<Mutex<HashMap<usize, Arc<dyn AnyData>>>>,
}

impl Env {
    fn queue(&self, name: &str) -> SimQueue<Record> {
        SimQueue::new(&self.handle, name)
    }

    /// Records a failure and aborts the hosting process; the simulation
    /// kernel tears the remaining processes down.
    fn fail(&self, e: SnetError) -> ! {
        let msg = e.to_string();
        {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
        panic!("snet-dist component aborted: {msg}");
    }

    /// The bytes this hop actually moves: per-label framing plus every
    /// payload not already resident on the destination node. Shared
    /// (`Arc`ed) payloads are recorded as resident once delivered — and
    /// on the sender's node too (it evidently holds them), so a payload
    /// returning to its origin is never billed.
    fn billable_bytes(&self, rec: &Record, from: usize, to: usize) -> usize {
        let mut bytes = 0usize;
        for (_, v) in rec.fields() {
            bytes += 8; // label id + discriminant framing
            if let Value::Data(d) = v {
                let key = Arc::as_ptr(d) as *const u8 as usize;
                self.resident[from]
                    .lock()
                    .entry(key)
                    .or_insert_with(|| Arc::clone(d));
                if from == to {
                    // Pointer hand-off within a node.
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) =
                    self.resident[to].lock().entry(key)
                {
                    e.insert(Arc::clone(d));
                    bytes += v.approx_bytes();
                }
                continue;
            }
            bytes += v.approx_bytes();
        }
        bytes + rec.tags().count() * 16
    }

    /// Hands one record from a component on `from` to the consumer of
    /// `tx`: glue CPU cost on the sender, wire/memcpy cost on the path,
    /// delivery after the link latency.
    fn send(&self, ctx: &SimCtx, from: usize, tx: &Tx, rec: Record) {
        self.send_inner(ctx, from, tx, rec, true);
    }

    /// Like [`Env::send`] but without the glue CPU charge — for
    /// components the S-Net runtime splices out of the stream graph
    /// (fired synchrocells, identity filters), which forward records
    /// without touching them. Transport costs still apply.
    fn forward(&self, ctx: &SimCtx, from: usize, tx: &Tx, rec: Record) {
        self.send_inner(ctx, from, tx, rec, false);
    }

    fn send_inner(&self, ctx: &SimCtx, from: usize, tx: &Tx, rec: Record, glue: bool) {
        Stats::add(&self.stats.records_hopped, 1);
        if glue && self.overhead.hop_ops > 0 {
            self.cluster.compute(ctx, from, self.overhead.hop_ops);
            Stats::add(&self.stats.glue_ops, self.overhead.hop_ops);
        }
        let bytes = self.billable_bytes(&rec, from, tx.dst_node);
        if from != tx.dst_node {
            Stats::add(&self.stats.wire_bytes, bytes as u64);
        }
        let delay = self.cluster.transfer(ctx, from, tx.dst_node, bytes);
        tx.q.send_delayed(rec, delay);
    }

    fn place(&self, node: u32) -> usize {
        node as usize % self.nodes
    }

    fn place_tag(&self, value: i64) -> usize {
        value.rem_euclid(self.nodes as i64) as usize
    }
}

/// The node whose CPU consumes a subtree's input stream (where its
/// first component lives). Parents use it to charge transfer costs for
/// the edge feeding the subtree.
fn home_node(spec: &NetSpec, current: usize, nodes: usize) -> usize {
    match spec {
        NetSpec::At { body, node } => home_node(body, *node as usize % nodes, nodes),
        NetSpec::Named { body, .. } => home_node(body, current, nodes),
        NetSpec::Serial(a, _) => home_node(a, current, nodes),
        _ => current,
    }
}

/// Runs `spec` on a simulated cluster, feeding `inputs` from node 0 and
/// reporting the virtual makespan, outputs, and runtime counters.
pub fn run_on_cluster(
    spec: &NetSpec,
    inputs: Vec<Record>,
    cluster_spec: ClusterSpec,
    overhead: OverheadModel,
) -> Result<RunResult, SnetError> {
    assert!(cluster_spec.nodes > 0, "cluster needs at least one node");
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.handle(), cluster_spec);
    let env = Arc::new(Env {
        handle: sim.handle().clone(),
        cluster: cluster.clone(),
        overhead,
        stats: Arc::new(Stats::default()),
        error: Arc::new(Mutex::new(None)),
        nodes: cluster_spec.nodes,
        resident: (0..cluster_spec.nodes)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
    });

    // Output collector on node 0 (the master assembles results).
    let out_q = env.queue("net-output");
    let outputs: Arc<Mutex<Vec<Record>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let out_q = out_q.clone();
        let outputs = Arc::clone(&outputs);
        sim.spawn("collector", move |ctx| {
            while let Some(rec) = out_q.recv(ctx) {
                outputs.lock().push(rec);
            }
        });
    }

    // The network between entry queue and collector.
    let entry_home = home_node(spec, 0, env.nodes);
    let entry_q = env.queue("net-input");
    build(spec, entry_q.clone(), Tx::new(out_q, 0), 0, &env);

    // Feeder: the master injects the input stream.
    {
        let env = Arc::clone(&env);
        let entry_tx = Tx::new(entry_q, entry_home);
        sim.spawn("feeder", move |ctx| {
            for rec in inputs {
                env.send(ctx, 0, &entry_tx, rec);
            }
            entry_tx.close();
        });
    }

    let report = match sim.run() {
        Ok(report) => report,
        Err(sim_err) => {
            // A component failure is recorded before the process aborts;
            // prefer the precise S-Net error over the kernel's report.
            if let Some(e) = env.error.lock().take() {
                return Err(e);
            }
            return Err(match sim_err {
                SimError::Deadlock { at, blocked } => SnetError::Engine(format!(
                    "cluster run deadlocked at {at}: {}",
                    blocked.join("; ")
                )),
                SimError::ProcessPanic { name, message } => {
                    SnetError::Engine(format!("cluster process `{name}` panicked: {message}"))
                }
            });
        }
    };
    if let Some(e) = env.error.lock().take() {
        return Err(e);
    }

    let outputs = std::mem::take(&mut *outputs.lock());
    Ok(RunResult {
        makespan: Duration::from_nanos(report.end_time.as_nanos()),
        outputs,
        stats: env.stats.snapshot(),
        events: report.events,
        processes: report.processes,
        cpu_busy_secs: cluster.cpu_busy().iter().map(|d| d.as_secs_f64()).collect(),
    })
}

/// Recursively instantiates `spec` between `input` and `output` as
/// simulated processes, with the subtree hosted on `node` unless a
/// placement combinator overrides it.
fn build(spec: &NetSpec, input: SimQueue<Record>, output: Tx, node: usize, env: &Arc<Env>) {
    match spec {
        NetSpec::Box(def) => {
            let def = def.clone();
            let env2 = Arc::clone(env);
            let name = format!("box-{}@{node}", def.sig.name);
            env.handle.spawn(&name, move |ctx| {
                while let Some(rec) = input.recv(ctx) {
                    let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        semantics::box_step(&def, rec, MismatchPolicy::Forward)
                    }))
                    .unwrap_or_else(|payload| {
                        Err(SnetError::BoxFailure {
                            name: def.sig.name.clone(),
                            cause: format!("panicked: {}", panic_cause(payload.as_ref())),
                        })
                    });
                    match step {
                        Ok(step) => {
                            if step.matched {
                                Stats::add(&env2.stats.box_ops, step.work.ops);
                                // The box's computation occupies this
                                // node's CPU for its reported work.
                                env2.cluster.compute(ctx, node, step.work.ops);
                            } else {
                                Stats::add(&env2.stats.passthroughs, 1);
                            }
                            for r in step.records {
                                env2.send(ctx, node, &output, r);
                            }
                        }
                        Err(e) => env2.fail(e),
                    }
                }
                output.close();
            });
        }
        NetSpec::Filter(f) => {
            let f = f.clone();
            let env2 = Arc::clone(env);
            // The compiler splices identity filters (`[]`) out of the
            // stream graph; they forward records at zero glue cost.
            let transparent = f.is_identity();
            env.handle.spawn(&format!("filter@{node}"), move |ctx| {
                while let Some(rec) = input.recv(ctx) {
                    if transparent {
                        env2.forward(ctx, node, &output, rec);
                        continue;
                    }
                    match semantics::filter_step(&f, rec, MismatchPolicy::Forward) {
                        Ok(step) => {
                            if !step.matched {
                                Stats::add(&env2.stats.passthroughs, 1);
                            }
                            for r in step.records {
                                env2.send(ctx, node, &output, r);
                            }
                        }
                        Err(e) => env2.fail(e),
                    }
                }
                output.close();
            });
        }
        NetSpec::Sync(spec) => {
            let spec = spec.clone();
            let env2 = Arc::clone(env);
            env.handle.spawn(&format!("sync@{node}"), move |ctx| {
                let mut state = spec.new_state();
                while let Some(rec) = input.recv(ctx) {
                    // A fired synchrocell is removed from the network by
                    // the runtime (it is the identity from then on), so
                    // its pass-throughs carry no glue cost.
                    let fired_before = state.is_fired();
                    let out = match state.push(&spec, rec) {
                        SyncOutcome::Stored => {
                            Stats::add(&env2.stats.sync_stores, 1);
                            continue;
                        }
                        SyncOutcome::Fired(m) => {
                            Stats::add(&env2.stats.sync_fires, 1);
                            m
                        }
                        SyncOutcome::Passed(r) if fired_before => {
                            env2.forward(ctx, node, &output, r);
                            continue;
                        }
                        SyncOutcome::Passed(r) => r,
                    };
                    env2.send(ctx, node, &output, out);
                }
                let stranded = state.pending().count() as u64;
                if stranded > 0 {
                    Stats::add(&env2.stats.sync_stranded, stranded);
                }
                output.close();
            });
        }
        NetSpec::Serial(a, b) => {
            let mid_home = home_node(b, node, env.nodes);
            let mid = env.queue("serial-mid");
            build(a, input, Tx::new(mid.clone(), mid_home), node, env);
            build(b, mid, output, node, env);
        }
        NetSpec::Parallel { branches, .. } => {
            let mut branch_txs = Vec::with_capacity(branches.len());
            let mut patterns = Vec::with_capacity(branches.len());
            for branch in branches {
                let bq = env.queue("par-branch");
                let bhome = home_node(branch, node, env.nodes);
                build(branch, bq.clone(), output.another(), node, env);
                branch_txs.push(Tx::new(bq, bhome));
                patterns.push(branch.input_patterns());
            }
            let env2 = Arc::clone(env);
            env.handle
                .spawn(&format!("par-dispatch@{node}"), move |ctx| {
                    while let Some(rec) = input.recv(ctx) {
                        match semantics::best_branch(&patterns, &rec) {
                            Some(i) => {
                                Stats::add(&env2.stats.dispatched, 1);
                                env2.send(ctx, node, &branch_txs[i], rec);
                            }
                            None => {
                                Stats::add(&env2.stats.passthroughs, 1);
                                env2.send(ctx, node, &output, rec);
                            }
                        }
                    }
                    for tx in branch_txs {
                        tx.close();
                    }
                    output.close();
                });
        }
        NetSpec::Star { body, exit, .. } => {
            build_star_tap(body, exit.clone(), input, output, node, env);
        }
        NetSpec::Split { body, tag, placed } => {
            let body = (**body).clone();
            let tag = *tag;
            let placed = *placed;
            let env2 = Arc::clone(env);
            env.handle
                .spawn(&format!("split-dispatch@{node}"), move |ctx| {
                    // BTreeMap: replica creation and teardown order must be
                    // deterministic for reproducible event logs.
                    let mut replicas: BTreeMap<i64, Tx> = BTreeMap::new();
                    while let Some(rec) = input.recv(ctx) {
                        let Some(value) = rec.tag(tag) else {
                            env2.fail(SnetError::MissingTag(tag));
                        };
                        if let std::collections::btree_map::Entry::Vacant(e) = replicas.entry(value)
                        {
                            Stats::add(&env2.stats.split_replicas, 1);
                            // `!@<tag>`: the tag value names the hosting
                            // node; plain `!` keeps replicas local.
                            let replica_node = if placed { env2.place_tag(value) } else { node };
                            let rhome = home_node(&body, replica_node, env2.nodes);
                            let rq = env2.queue("split-replica");
                            build(&body, rq.clone(), output.another(), replica_node, &env2);
                            e.insert(Tx::new(rq, rhome));
                        }
                        Stats::add(&env2.stats.dispatched, 1);
                        env2.send(ctx, node, &replicas[&value], rec);
                    }
                    for (_, tx) in replicas {
                        tx.close();
                    }
                    output.close();
                });
        }
        NetSpec::At { body, node: n } => {
            let placed = env.place(*n);
            build(body, input, output, placed, env);
        }
        NetSpec::Named { body, .. } => build(body, input, output, node, env),
    }
}

/// One tap of a serial-replication star (§III: "the chain is tapped
/// before every replica"): matching records exit; the rest enter a
/// lazily instantiated replica whose output feeds the next tap.
fn build_star_tap(
    body: &NetSpec,
    exit: snet_core::Pattern,
    input: SimQueue<Record>,
    output: Tx,
    node: usize,
    env: &Arc<Env>,
) {
    let body = body.clone();
    let env2 = Arc::clone(env);
    env.handle.spawn(&format!("star-tap@{node}"), move |ctx| {
        let mut into_body: Option<Tx> = None;
        while let Some(rec) = input.recv(ctx) {
            if exit.matches(&rec) {
                env2.send(ctx, node, &output, rec);
                continue;
            }
            if into_body.is_none() {
                Stats::add(&env2.stats.star_unfoldings, 1);
                let body_home = home_node(&body, node, env2.nodes);
                let body_q = env2.queue("star-body");
                let next_q = env2.queue("star-next");
                build(
                    &body,
                    body_q.clone(),
                    Tx::new(next_q.clone(), node),
                    node,
                    &env2,
                );
                build_star_tap(&body, exit.clone(), next_q, output.another(), node, &env2);
                into_body = Some(Tx::new(body_q, body_home));
            }
            let tx = into_body.as_ref().expect("replica just unfolded");
            env2.send(ctx, node, tx, rec);
        }
        if let Some(tx) = into_body {
            tx.close();
        }
        output.close();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use snet_core::{Pattern, Value, Variant};

    fn spec(nodes: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            cpus_per_node: 2,
            cpu_ops_per_sec: 1e6,
            link_bandwidth: 1e6,
            link_latency: Duration::from_millis(1),
            mem_bandwidth: 100e6,
            quantum: Duration::from_millis(10),
        }
    }

    fn work_box(name: &str, ops: u64) -> NetSpec {
        NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse(name, &["x"], &[&["x"]]),
            move |r| Ok(BoxOutput::one(r.clone(), Work::ops(ops))),
        ))
    }

    fn xrecs(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new().with_field("x", Value::Int(i)))
            .collect()
    }

    #[test]
    fn box_work_becomes_virtual_time() {
        // 4 records × 1e6 ops at 1e6 ops/s on a 2-CPU node → ≥ 2 s.
        let net = work_box("w", 1_000_000);
        let out = run_on_cluster(&net, xrecs(4), spec(1), OverheadModel::zero()).unwrap();
        assert_eq!(out.outputs.len(), 4);
        assert!(out.makespan.as_secs_f64() >= 2.0, "{:?}", out.makespan);
        assert_eq!(out.stats.box_ops, 4_000_000);
        assert_eq!(
            out.stats.wire_bytes, 0,
            "single node: nothing crosses the wire"
        );
    }

    #[test]
    fn placement_charges_the_named_node() {
        // `w @ 1`: all compute lands on node 1.
        let net = NetSpec::at(work_box("w", 500_000), 1);
        let out = run_on_cluster(&net, xrecs(2), spec(2), OverheadModel::zero()).unwrap();
        assert!(out.cpu_busy_secs[1] > 0.9, "{:?}", out.cpu_busy_secs);
        assert!(out.cpu_busy_secs[0] < 0.1, "{:?}", out.cpu_busy_secs);
        // Records crossed to node 1 and back.
        assert!(out.stats.wire_bytes > 0);
    }

    #[test]
    fn placed_split_spreads_load_by_tag() {
        let net = NetSpec::split_placed(work_box("w", 400_000), "node");
        let inputs: Vec<Record> = (0..8)
            .map(|i| {
                Record::new()
                    .with_field("x", Value::Int(i))
                    .with_tag("node", i % 4)
            })
            .collect();
        let out = run_on_cluster(&net, inputs, spec(4), OverheadModel::zero()).unwrap();
        assert_eq!(out.stats.split_replicas, 4);
        for (i, busy) in out.cpu_busy_secs.iter().enumerate() {
            assert!(*busy > 0.5, "node {i} idle: {:?}", out.cpu_busy_secs);
        }
    }

    #[test]
    fn overhead_model_slows_the_run_down() {
        let net = work_box("w", 10_000);
        let cheap = run_on_cluster(&net, xrecs(16), spec(2), OverheadModel::zero()).unwrap();
        let costly =
            run_on_cluster(&net, xrecs(16), spec(2), OverheadModel { hop_ops: 100_000 }).unwrap();
        assert!(costly.makespan > cheap.makespan);
        assert!(costly.stats.glue_ops > 0);
        assert_eq!(cheap.stats.glue_ops, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let net = NetSpec::serial(
            NetSpec::split_placed(work_box("w", 123_456), "node"),
            work_box("post", 7_000),
        );
        let inputs: Vec<Record> = (0..10)
            .map(|i| {
                Record::new()
                    .with_field("x", Value::Int(i))
                    .with_tag("node", i % 3)
            })
            .collect();
        let a = run_on_cluster(&net, inputs.clone(), spec(3), OverheadModel::default()).unwrap();
        let b = run_on_cluster(&net, inputs, spec(3), OverheadModel::default()).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn sync_and_star_statistics_are_counted() {
        // [| {a}, {b} |]: a+b merge, then a second {a} passes through.
        let cell = NetSpec::Sync(snet_core::SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let out = run_on_cluster(
            &cell,
            vec![
                Record::new().with_field("a", Value::Int(1)),
                Record::new().with_field("b", Value::Int(2)),
                Record::new().with_field("a", Value::Int(3)),
            ],
            spec(1),
            OverheadModel::zero(),
        )
        .unwrap();
        assert_eq!(out.stats.sync_fires, 1);
        assert_eq!(out.outputs.len(), 2); // merge + passed-through third
    }

    #[test]
    fn component_failures_surface_with_attribution() {
        let bad = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("fragile", &["x"], &[&["x"]]),
            |r| {
                if r.field("x").and_then(|v| v.as_int()) == Some(2) {
                    Err(SnetError::Engine("injected fault".into()))
                } else {
                    Ok(BoxOutput::one(r.clone(), Work::ops(1)))
                }
            },
        ));
        let err = run_on_cluster(&bad, xrecs(5), spec(2), OverheadModel::zero())
            .expect_err("fault must abort");
        let msg = err.to_string();
        assert!(
            msg.contains("fragile") && msg.contains("injected fault"),
            "{msg}"
        );
    }

    #[test]
    fn missing_split_tag_is_reported() {
        let net = NetSpec::split_placed(work_box("w", 1), "node");
        let err = run_on_cluster(&net, xrecs(1), spec(2), OverheadModel::zero())
            .expect_err("missing tag must abort");
        assert!(matches!(err, SnetError::MissingTag(_)), "{err}");
    }
}
