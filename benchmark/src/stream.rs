//! The two streaming workloads and the single-threaded load generator
//! that drives them.
//!
//! One generator thread multiplexes every session itself (the
//! `run_stream_interleaved` shape: `try_send` / `try_recv` / `drive()` /
//! `yield_now`, never a thread per session), so the process has exactly
//! one thread more than the engine's pool.

use crate::gen::{digest, DueSchedule, SplitMix64};
use crate::spans::Tracer;
use snet_core::{BoxOutput, NetSpec, RType, Record, Value, Variant, Work};
use snet_lang::BoxRegistry;
use snet_runtime::{SchedHandle, SchedNet, Trace, TrySendError};
use std::time::{Duration, Instant};

/// Concurrent streaming sessions on the one pool.
pub const SESSIONS: usize = 4;
/// Records the generator prepares ahead per session before offering
/// them to the ingress; the default ingress bound, so one top-up can
/// fill an empty entry mailbox.
const BURST: usize = 64;
/// Records per aggregated span group in a traced closed loop.
const SPAN_WINDOW: u64 = 4096;
/// Length of the slices a measured window's throughput is taken over.
pub const SLICE: Duration = Duration::from_millis(100);
/// A loop that moves nothing for this long has lost records.
const STUCK_AFTER: Duration = Duration::from_secs(10);

/// What distinguishes one streaming workload from the other: its
/// network as source text, its boxes, its inputs and their closed-form
/// outputs.
pub trait StreamWorkload {
    const NAME: &'static str;
    /// The fixed open-loop arrival rate, records per second.
    const RATE: f64;
    fn source() -> String;
    fn registry() -> BoxRegistry;
    /// The closed entry type of the input stream.
    fn entry_type() -> RType;
    /// One input record stamped `<ts>`, and the digest its single
    /// output must have — computed from the input alone, without the
    /// network.
    fn input(rng: &mut SplitMix64, ts: i64) -> (Record, u64);
}

/// Digest of an output record; both workloads emit `{x, <k>?, <n>?, <ts>}`.
pub fn digest_of(out: &Record) -> u64 {
    let x = out.field("x").and_then(|v| v.as_int()).unwrap_or(i64::MIN);
    digest(x, out.tag("k").unwrap_or(0), out.tag("n").unwrap_or(0))
}

fn int_field(r: &Record, name: &str) -> i64 {
    r.field(name).and_then(|v| v.as_int()).unwrap_or(0)
}

/// Payloads stay well inside `i64` so box arithmetic never overflows.
fn payload(rng: &mut SplitMix64) -> i64 {
    (rng.next_u64() >> 24) as i64
}

/// Depth-16 pipeline of `tick` boxes, fused by default into one chain
/// task per session: `snet-core` does nearly all the work and there is
/// no mailbox hop.
pub struct ChainStream;

pub const CHAIN_DEPTH: usize = 16;

impl StreamWorkload for ChainStream {
    const NAME: &'static str = "chain_stream";
    const RATE: f64 = 150_000.0;

    fn source() -> String {
        format!(
            "net chain_stream {{\n    box tick ((x, <ts>) -> (x, <ts>));\n}} connect\n    {}\n",
            vec!["tick"; CHAIN_DEPTH].join(" .. ")
        )
    }

    fn registry() -> BoxRegistry {
        let mut reg = BoxRegistry::new();
        // Carrying `<ts>` in the signature keeps the record an exact
        // match for the box input, the engines' no-split path (the
        // calling convention of the old `macro_scale` harness).
        reg.register("tick", |r: &Record| {
            Ok(BoxOutput::one(
                Record::new()
                    .with_field("x", Value::Int(int_field(r, "x") + 1))
                    .with_tag("ts", r.tag("ts").unwrap_or(0)),
                Work::ops(1),
            ))
        });
        reg
    }

    fn entry_type() -> RType {
        RType::single(Variant::parse_labels(&["x"], &["ts"]))
    }

    fn input(rng: &mut SplitMix64, ts: i64) -> (Record, u64) {
        let x = payload(rng);
        let rec = Record::new()
            .with_field("x", Value::Int(x))
            .with_tag("ts", ts);
        (rec, digest(x + CHAIN_DEPTH as i64, 0, 0))
    }
}

/// Unfusable routing net of trivial boxes: best-match dispatch, index
/// split, star unfolding, a filter with flow inheritance, and one
/// mailbox hand-off per stage — the scheduler does most of the work.
pub struct RouteStream;

/// Routing tags `<k>` and loop counts `<n>` are drawn from `0..FAN`.
const FAN: u64 = 5;

impl StreamWorkload for RouteStream {
    const NAME: &'static str = "route_stream";
    const RATE: f64 = 200_000.0;

    fn source() -> String {
        "net route_stream {\n    box fromA ((a) -> (x));\n    box fromB ((b) -> (x));\n    \
         box inc ((x) -> (x));\n} connect\n    (fromA | fromB) .. (inc ! <k>)\n    \
         .. ([ {<n>} -> {<n -= 1>} ] .. inc) * {<n> == 0}\n"
            .to_owned()
    }

    fn registry() -> BoxRegistry {
        fn x(v: i64) -> Result<BoxOutput, snet_core::SnetError> {
            Ok(BoxOutput::one(
                Record::new().with_field("x", Value::Int(v)),
                Work::ops(1),
            ))
        }
        let mut reg = BoxRegistry::new();
        reg.register("fromA", |r: &Record| x(2 * int_field(r, "a") + 1));
        reg.register("fromB", |r: &Record| x(3 * int_field(r, "b")));
        reg.register("inc", |r: &Record| x(int_field(r, "x") + 1));
        reg
    }

    fn entry_type() -> RType {
        RType::new([
            Variant::parse_labels(&["a"], &["k", "n", "ts"]),
            Variant::parse_labels(&["b"], &["k", "n", "ts"]),
        ])
    }

    fn input(rng: &mut SplitMix64, ts: i64) -> (Record, u64) {
        let v = payload(rng);
        let bits = rng.next_u64();
        let k = ((bits >> 8) % FAN) as i64;
        let n = ((bits >> 32) % FAN) as i64;
        let (name, from) = if bits & 1 == 0 {
            ("a", 2 * v + 1)
        } else {
            ("b", 3 * v)
        };
        let rec = Record::new()
            .with_field(name, Value::Int(v))
            .with_tag("k", k)
            .with_tag("n", n)
            .with_tag("ts", ts);
        // One `inc` behind the split, then one per loop round; the loop
        // leaves <n> at 0 and <k> rides along by flow inheritance.
        (rec, digest(from + 1 + n, k, 0))
    }
}

/// Compiles the workload's source text against its boxes.
pub fn compile<W: StreamWorkload>() -> NetSpec {
    snet_lang::compile(&W::source(), &W::registry())
        .unwrap_or_else(|e| panic!("{} does not compile: {e}", W::NAME))
}

/// Exact event counts of one or more runs, from `handle.trace()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    pub box_records: u64,
    pub filter_records: u64,
    pub dispatched: u64,
    pub sync_fires: u64,
    pub sync_stranded: u64,
    pub star_unfoldings: u64,
    pub split_replicas: u64,
    pub passthroughs: u64,
}

impl TraceCounts {
    pub fn add(&mut self, t: &Trace) {
        self.box_records += t.get(&t.box_records);
        self.filter_records += t.get(&t.filter_records);
        self.dispatched += t.get(&t.dispatched);
        self.sync_fires += t.get(&t.sync_fires);
        self.sync_stranded += t.get(&t.sync_stranded);
        self.star_unfoldings += t.get(&t.star_unfoldings);
        self.split_replicas += t.get(&t.split_replicas);
        self.passthroughs += t.get(&t.passthroughs);
    }
}

/// When a closed loop stops admitting new records.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    Records(u64),
    Time(Duration),
}

/// Where the generator thread's time and calls went in a traced closed
/// loop. Times are nanoseconds; the five phases partition the loop.
#[derive(Clone, Debug, Default)]
pub struct LoopLedger {
    pub gen_ns: u64,
    pub ingress_ns: u64,
    pub egress_ns: u64,
    pub drive_ns: u64,
    pub idle_ns: u64,
    pub try_send_calls: u64,
    pub try_send_full: u64,
    pub try_recv_calls: u64,
    pub try_recv_empty: u64,
    pub drive_calls: u64,
    pub drive_hits: u64,
    pub backlog_samples: Vec<u64>,
}

impl LoopLedger {
    fn phases(&self) -> [(&'static str, u64); 5] {
        [
            ("gen", self.gen_ns),
            ("ingress", self.ingress_ns),
            ("egress", self.egress_ns),
            ("drive", self.drive_ns),
            ("idle", self.idle_ns),
        ]
    }

    pub fn total_ns(&self) -> u64 {
        self.phases().iter().map(|p| p.1).sum()
    }
}

/// Counts and checksums of one window, closed or open.
#[derive(Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub received: u64,
    /// Wrapping sum of the digests the admitted inputs must produce.
    pub expected: u64,
    /// Wrapping sum of the digests of the outputs that came back.
    pub observed: u64,
    /// `finish()` errors and stalls, one line each.
    pub errors: Vec<String>,
}

impl Tally {
    /// Lost or duplicated records, plus one when the counts agree but
    /// the checksum does not, plus failed runs.
    pub fn failed(&self) -> u64 {
        let miscounted = self.sent.abs_diff(self.received);
        let wrong = u64::from(miscounted == 0 && self.expected != self.observed);
        miscounted + wrong + self.errors.len() as u64
    }
}

/// What one closed-loop window did.
#[derive(Debug, Default)]
pub struct Closed {
    pub tally: Tally,
    /// Records returned per second in each [`SLICE`] of the admitting
    /// phase (the drain tail is left out).
    pub slices: Vec<f64>,
    pub trace: TraceCounts,
}

/// Inputs and outputs of a closed loop kept for the interpreter check.
#[derive(Default)]
pub struct Kept {
    pub inputs: Vec<Record>,
    pub outputs: Vec<Record>,
}

struct Session {
    handle: SchedHandle,
    /// Generated but not yet admitted, with each record's output digest.
    pending: Vec<(Record, u64)>,
}

fn open_sessions(net: &SchedNet) -> Vec<Session> {
    (0..SESSIONS)
        .map(|_| Session {
            handle: net.start(),
            pending: Vec::with_capacity(BURST),
        })
        .collect()
}

fn close_sessions(sessions: Vec<Session>, trace: &mut TraceCounts, errors: &mut Vec<String>) {
    for s in sessions {
        let counters = s.handle.trace_arc();
        if let Err(e) = s.handle.finish() {
            errors.push(format!("finish: {e}"));
        }
        trace.add(&counters);
    }
}

/// Adds the time since `last` to `acc` and restarts the lap. Compiled
/// out of the untraced loop.
#[inline(always)]
fn lap<const TRACED: bool>(last: &mut Instant, acc: &mut u64) {
    if TRACED {
        let now = Instant::now();
        *acc += now.duration_since(*last).as_nanos() as u64;
        *last = now;
    }
}

/// Closed loop over [`SESSIONS`] sessions: every session's ingress is
/// kept as full as its bound allows, so the engine sets the pace;
/// throughput is records admitted and returned per wall second.
///
/// With `TRACED` the loop also fills `ledger` and emits one aggregated
/// span group per [`SPAN_WINDOW`] records: a `window` span whose
/// children `gen`/`ingress`/`egress`/`drive`/`idle` carry the exact
/// time the generator thread spent in each phase during the window,
/// laid end to end (durations are measured, positions are not).
pub fn closed_loop<W: StreamWorkload, const TRACED: bool>(
    net: &SchedNet,
    rng: &mut SplitMix64,
    limit: Limit,
    mut keep: Option<&mut Kept>,
    tracer: &mut Tracer,
    ledger: &mut LoopLedger,
) -> Closed {
    let mut sessions = open_sessions(net);
    let mut out = Closed::default();
    let mut generated = 0u64;
    let mut generating = true;
    let start = Instant::now();
    let mut last_move = start;
    let mut clock = start;
    let mut slice_mark = (start, 0u64);
    let mut span_mark = (tracer.now_ns(), LoopLedger::default().phases());
    let mut spans_emitted = 0u64;
    loop {
        let mut moved = false;
        if generating {
            for s in &mut sessions {
                while s.pending.len() < BURST {
                    if matches!(limit, Limit::Records(n) if generated >= n) {
                        break;
                    }
                    let (rec, dig) = W::input(rng, generated as i64);
                    if let Some(k) = keep.as_deref_mut() {
                        k.inputs.push(rec.clone());
                    }
                    s.pending.push((rec, dig));
                    generated += 1;
                }
            }
            lap::<TRACED>(&mut clock, &mut ledger.gen_ns);
        }
        for s in &mut sessions {
            while let Some((rec, dig)) = s.pending.pop() {
                if TRACED {
                    ledger.try_send_calls += 1;
                }
                match s.handle.try_send(rec) {
                    Ok(()) => {
                        out.tally.sent += 1;
                        out.tally.expected = out.tally.expected.wrapping_add(dig);
                        moved = true;
                    }
                    Err(TrySendError::Full(rec)) => {
                        if TRACED {
                            ledger.try_send_full += 1;
                        }
                        s.pending.push((rec, dig));
                        break;
                    }
                    Err(TrySendError::Closed(e)) => {
                        out.tally
                            .errors
                            .push(format!("ingress closed mid-run: {e}"));
                        generating = false;
                        break;
                    }
                }
            }
        }
        lap::<TRACED>(&mut clock, &mut ledger.ingress_ns);
        for s in &sessions {
            loop {
                if TRACED {
                    ledger.try_recv_calls += 1;
                }
                let Some(rec) = s.handle.try_recv() else {
                    if TRACED {
                        ledger.try_recv_empty += 1;
                    }
                    break;
                };
                out.tally.observed = out.tally.observed.wrapping_add(digest_of(&rec));
                out.tally.received += 1;
                moved = true;
                if let Some(k) = keep.as_deref_mut() {
                    k.outputs.push(rec);
                }
            }
        }
        lap::<TRACED>(&mut clock, &mut ledger.egress_ns);

        let now = Instant::now();
        if moved {
            last_move = now;
        }
        if generating {
            let slice = now.duration_since(slice_mark.0);
            if slice >= SLICE {
                let returned = out.tally.received - slice_mark.1;
                out.slices.push(returned as f64 / slice.as_secs_f64());
                slice_mark = (now, out.tally.received);
            }
            let done = match limit {
                Limit::Records(n) => {
                    generated >= n && sessions.iter().all(|s| s.pending.is_empty())
                }
                Limit::Time(d) => now.duration_since(start) >= d,
            };
            if done {
                if out.slices.is_empty() {
                    // A window shorter than a slice is one slice.
                    let returned = out.tally.received as f64;
                    out.slices
                        .push(returned / now.duration_since(start).as_secs_f64());
                }
                generating = false;
                for s in &mut sessions {
                    // Generated but never admitted: not part of the run.
                    s.pending.clear();
                    s.handle.close_input();
                }
            }
        }
        if !generating && out.tally.received >= out.tally.sent {
            break;
        }
        if now.duration_since(last_move) > STUCK_AFTER {
            out.tally
                .errors
                .push(format!("no record moved for {STUCK_AFTER:?}"));
            break;
        }
        if TRACED && out.tally.received / SPAN_WINDOW > spans_emitted {
            spans_emitted = out.tally.received / SPAN_WINDOW;
            // One backlog sample per span window: it takes every
            // session's mailbox lock.
            ledger.backlog_samples.push(
                sessions
                    .iter()
                    .map(|s| s.handle.input_backlog() as u64)
                    .sum(),
            );
            let phases = ledger.phases();
            let spent: Vec<(&'static str, u64)> = phases
                .iter()
                .zip(&span_mark.1)
                .map(|(now, then)| (now.0, now.1 - then.1))
                .collect();
            let end = tracer.record_group("window", span_mark.0, &spent);
            span_mark = (end, phases);
        }
        if !moved {
            if TRACED {
                ledger.drive_calls += 1;
            }
            if sessions[0].handle.drive() {
                if TRACED {
                    ledger.drive_hits += 1;
                }
                last_move = Instant::now();
                lap::<TRACED>(&mut clock, &mut ledger.drive_ns);
            } else {
                std::thread::yield_now();
                lap::<TRACED>(&mut clock, &mut ledger.idle_ns);
            }
        }
    }
    close_sessions(sessions, &mut out.trace, &mut out.tally.errors);
    out
}

/// Latency samples of one open-loop window, in nanoseconds (saturating
/// at about 4.3 s). The buffers are reused across windows so they add a
/// constant to the process's peak memory.
#[derive(Debug, Default)]
pub struct Samples {
    /// Due instant to egress, per record, in egress order.
    pub latencies: Vec<u32>,
    /// Due instant to admission, per record: how late the generator ran.
    pub lags: Vec<u32>,
}

impl Samples {
    /// Room for `n` records without growing.
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            latencies: Vec::with_capacity(n),
            lags: Vec::with_capacity(n),
        }
    }

    /// Room for one window of `window` at `rate`.
    pub fn for_window(rate: f64, window: Duration) -> Samples {
        Samples::with_capacity((rate * window.as_secs_f64()) as usize + 2)
    }
}

/// The `p`-th percentile of `samples` in microseconds, under the
/// ten-samples-beyond rule of [`crate::stats::percentile`].
pub fn percentile_us(samples: &[u32], p: f64) -> Option<f64> {
    let mut all: Vec<u64> = samples.iter().map(|&v| v as u64).collect();
    crate::stats::percentile(&mut all, p).map(|ns| ns as f64 / 1e3)
}

/// What one open-loop window did.
#[derive(Debug, Default)]
pub struct Open {
    pub tally: Tally,
    /// Records due but not yet returned, halfway through and at the end
    /// of the window.
    pub backlog_mid: u64,
    pub backlog_end: u64,
    pub window: Duration,
}

impl Open {
    /// How fast the backlog grew over the second half of the window, in
    /// records per second (negative when it shrank).
    pub fn backlog_growth(&self) -> f64 {
        (self.backlog_end as f64 - self.backlog_mid as f64) / (self.window.as_secs_f64() / 2.0)
    }
}

/// Open loop: record `i` is due `i / rate` seconds into the window and
/// goes to session `i % SESSIONS`, whatever the engine is doing. Each
/// record is timed from the instant it was *due* (its `<ts>` tag) to
/// its egress; `samples.lags` receives how late the generator actually
/// sent it. The generator never helps the pool here (`drive()` would
/// make it late), it only yields. After the window the stragglers are
/// drained and counted.
pub fn open_loop<W: StreamWorkload>(
    net: &SchedNet,
    rng: &mut SplitMix64,
    rate: f64,
    window: Duration,
    samples: &mut Samples,
) -> Open {
    samples.latencies.clear();
    samples.lags.clear();
    let sessions = open_sessions(net);
    let schedule = DueSchedule::new(rate);
    let window_ns = window.as_nanos() as u64;
    let total = schedule.due_by(window_ns);
    let mut out = Open {
        window,
        ..Open::default()
    };
    let mut pending: Option<(Record, u64)> = None;
    let mut mid_taken = false;
    let mut end_taken = false;
    let epoch = Instant::now();
    let ns = |i: Instant| i.duration_since(epoch).as_nanos() as u64;
    let clip = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
    let mut last_move = epoch;
    loop {
        let mut moved = false;
        let now = ns(Instant::now());
        let due = if now < window_ns {
            schedule.due_by(now)
        } else {
            total
        };
        if !mid_taken && now >= window_ns / 2 {
            out.backlog_mid = due - out.tally.received;
            mid_taken = true;
        }
        if !end_taken && now >= window_ns {
            out.backlog_end = due - out.tally.received;
            end_taken = true;
        }
        while out.tally.sent < due {
            let due_ns = schedule.due_ns(out.tally.sent);
            let (rec, dig) = pending
                .take()
                .unwrap_or_else(|| W::input(rng, due_ns as i64));
            let session = &sessions[out.tally.sent as usize % SESSIONS];
            match session.handle.try_send(rec) {
                Ok(()) => {
                    let sent_at = ns(Instant::now());
                    samples.lags.push(clip(sent_at.saturating_sub(due_ns)));
                    out.tally.sent += 1;
                    out.tally.expected = out.tally.expected.wrapping_add(dig);
                    moved = true;
                }
                Err(TrySendError::Full(rec)) => {
                    pending = Some((rec, dig));
                    break;
                }
                Err(TrySendError::Closed(e)) => {
                    out.tally
                        .errors
                        .push(format!("ingress closed mid-run: {e}"));
                    break;
                }
            }
        }
        for s in &sessions {
            while let Some(rec) = s.handle.try_recv() {
                let at = ns(Instant::now());
                let ts = rec.tag("ts").unwrap_or(0) as u64;
                samples.latencies.push(clip(at.saturating_sub(ts)));
                out.tally.observed = out.tally.observed.wrapping_add(digest_of(&rec));
                out.tally.received += 1;
                moved = true;
            }
        }
        if end_taken && out.tally.sent == total && out.tally.received >= out.tally.sent {
            break;
        }
        if !out.tally.errors.is_empty() {
            break;
        }
        if moved {
            last_move = Instant::now();
        } else {
            if last_move.elapsed() > STUCK_AFTER {
                out.tally
                    .errors
                    .push(format!("no record moved for {STUCK_AFTER:?}"));
                break;
            }
            std::thread::yield_now();
        }
    }
    let mut trace = TraceCounts::default();
    close_sessions(sessions, &mut trace, &mut out.tally.errors);
    out
}

/// Multiset equality of engine and reference-interpreter outputs on the
/// same inputs; `Err` says how they differ.
pub fn check_against_interp(spec: &NetSpec, kept: Kept) -> Result<(), String> {
    let reference = snet_runtime::Interp::new(spec)
        .run_batch(kept.inputs)
        .map_err(|e| format!("interpreter failed: {e}"))?;
    let key = |recs: &[Record]| {
        let mut keys: Vec<String> = recs.iter().map(|r| format!("{r:?}")).collect();
        keys.sort_unstable();
        keys
    };
    let (want, got) = (key(&reference.outputs), key(&kept.outputs));
    if want == got {
        Ok(())
    } else {
        let first = want.iter().zip(&got).position(|(a, b)| a != b);
        Err(format!(
            "engine and interpreter disagree: {} vs {} outputs, first difference at sorted index {first:?}",
            got.len(),
            want.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_runtime::EngineConfig;

    fn small_net<W: StreamWorkload>() -> (NetSpec, SchedNet) {
        let spec = compile::<W>();
        let config = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        };
        (spec.clone(), SchedNet::with_config(spec, config))
    }

    fn closed_form_matches_the_network<W: StreamWorkload>() {
        let (spec, net) = small_net::<W>();
        let mut kept = Kept::default();
        let run = closed_loop::<W, false>(
            &net,
            &mut SplitMix64::new(7),
            Limit::Records(3_000),
            Some(&mut kept),
            &mut Tracer::new(false),
            &mut LoopLedger::default(),
        );
        let t = &run.tally;
        assert_eq!((t.sent, t.received), (3_000, 3_000));
        assert_eq!(t.expected, t.observed, "closed-form checksum");
        assert_eq!(t.failed(), 0, "{:?}", t.errors);
        assert_eq!(kept.inputs.len(), 3_000);
        check_against_interp(&spec, kept).unwrap();
    }

    #[test]
    fn chain_stream_closed_form() {
        closed_form_matches_the_network::<ChainStream>();
    }

    #[test]
    fn route_stream_closed_form() {
        closed_form_matches_the_network::<RouteStream>();
    }

    #[test]
    fn entry_types_pass_the_closed_analysis() {
        fn clean<W: StreamWorkload>() {
            let analysis = snet_analyze::analyze(
                &compile::<W>(),
                &W::entry_type(),
                &snet_analyze::AnalyzeConfig::default(),
            );
            assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);
        }
        clean::<ChainStream>();
        clean::<RouteStream>();
    }

    #[test]
    fn a_wrong_expectation_is_a_failure() {
        let mut run = Tally {
            sent: 10,
            received: 10,
            expected: 1,
            observed: 1,
            errors: Vec::new(),
        };
        assert_eq!(run.failed(), 0);
        run.expected ^= 1;
        assert_eq!(run.failed(), 1);
        run.received = 8;
        assert_eq!(run.failed(), 2);
    }

    #[test]
    fn open_loop_times_from_the_due_instant() {
        let (_, net) = small_net::<RouteStream>();
        let mut samples = Samples::with_capacity(8_002);
        let run = open_loop::<RouteStream>(
            &net,
            &mut SplitMix64::new(3),
            20_000.0,
            Duration::from_millis(400),
            &mut samples,
        );
        assert_eq!(run.tally.failed(), 0, "{:?}", run.tally.errors);
        assert_eq!(run.tally.sent, 8_001);
        assert_eq!(
            (samples.latencies.len(), samples.lags.len()),
            (8_001, 8_001)
        );
        // Latency runs from the due time, so it is never less than the
        // generator's own lateness for the slowest-sent record.
        assert!(samples.latencies.iter().max() >= samples.lags.iter().max());
        // 8 001 samples: p99 has eighty beyond it, p99.9 only eight.
        assert!(percentile_us(&samples.latencies, 99.0).is_some());
        assert!(percentile_us(&samples.latencies, 99.9).is_none());
    }

    #[test]
    fn traced_loop_partitions_its_time_into_spans() {
        let (_, net) = small_net::<ChainStream>();
        let mut tracer = Tracer::new(true);
        let mut ledger = LoopLedger::default();
        let run = tracer.scope("closed_loop", |t| {
            closed_loop::<ChainStream, true>(
                &net,
                &mut SplitMix64::new(1),
                Limit::Records(20_000),
                None,
                t,
                &mut ledger,
            )
        });
        assert_eq!(run.tally.failed(), 0);
        assert!(ledger.try_send_calls >= 20_000);
        assert!(ledger.total_ns() > 0);
        let selfs = tracer.self_times();
        assert_eq!(selfs["window"], 0, "children tile each window");
        assert!(selfs.contains_key("ingress") && selfs.contains_key("idle"));
    }
}
