//! One run of one workload: the untraced run that produces the
//! end-to-end metrics, and the traced run that produces the per-layer
//! ledger. Both are the same binary; `--trace` picks one.

use crate::gen::SplitMix64;
use crate::host::{HostSpeed, UNDISTURBED};
use crate::json::Json;
use crate::ledger::{self, Shapes};
use crate::procfs;
use crate::render::{Job, RenderNet, RenderShape};
use crate::report::{Outcome, Values};
use crate::spans::Tracer;
use crate::stats::{self, summarize};
use crate::stream::{
    self, closed_loop, open_loop, percentile_us, ChainStream, Closed, Kept, Limit, LoopLedger,
    RouteStream, Samples, StreamWorkload, Tally, TraceCounts,
};
use snet_core::{NetSpec, RType, Record};
use snet_raytracer::{Counters, Image};
use snet_runtime::{EngineConfig, Interp, SchedNet};
use std::time::{Duration, Instant};

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Shrinks every window, scene and count so the whole suite runs
    /// in seconds; the numbers are not comparable with anything.
    pub smoke: bool,
    /// Corrupts the expected checksum or reference picture, to show
    /// that a wrong output fails the run.
    pub corrupt: bool,
    /// `T = min(nproc, 4)`: the threads a workload may keep runnable.
    pub threads: usize,
}

impl RunOpts {
    /// One generator thread plus `T - 1` workers for the streaming
    /// workloads; `T` workers where the caller blocks in `run_batch`.
    /// Every other field stays at its default so a changed default
    /// shows in the numbers.
    pub fn engine_config(&self, caller_blocks: bool) -> EngineConfig {
        let workers = if caller_blocks {
            self.threads
        } else {
            (self.threads - 1).max(1)
        };
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }

    fn trials(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Measurement windows per trial; the host's speed is sampled
    /// before each.
    fn windows(&self) -> u32 {
        if self.smoke {
            1
        } else {
            6
        }
    }
}

/// Runs the named workload; `None` for a name that is not one.
pub fn run(workload: &str, opts: &RunOpts, tracer: &mut Tracer) -> Option<(Outcome, EngineConfig)> {
    let mut out = Outcome::default();
    let mut host = HostSpeed::new(opts.threads);
    let config = match workload {
        "chain_stream" => stream_run::<ChainStream>(opts, tracer, &mut host, &mut out),
        "route_stream" => stream_run::<RouteStream>(opts, tracer, &mut host, &mut out),
        "raytrace" => render_run(&RAYTRACE, opts, tracer, &mut host, &mut out),
        "forkjoin_burst" => render_run(&FORKJOIN, opts, tracer, &mut host, &mut out),
        _ => return None,
    };
    let attempted = out.attempted.max(1);
    out.values
        .set("e2e.failed_share", out.failed as f64 / attempted as f64);
    out.values.set("bench.spans", tracer.len() as f64);
    let rss = procfs::self_status().vm_hwm_bytes;
    if rss == 0 {
        out.fail("VmHWM could not be read from /proc/self/status".into());
    }
    out.values.set("peak_rss_bytes", rss as f64);
    Some((out, config))
}

/// Throughput from slice rates: the [`UNDISTURBED`] slice, relative to
/// the host's speed over the same run (see [`HostSpeed`]). The raw
/// reading, the median and the best slice are reported beside it.
fn throughput(slices: &[f64], host: &HostSpeed, out: &mut Outcome) {
    if slices.is_empty() {
        out.fail("no full measurement slice".into());
        return;
    }
    let speed = host.speed();
    let raw = stats::rank(slices, UNDISTURBED);
    out.values.set("throughput_per_s", raw / speed);
    let relative: Vec<f64> = slices.iter().map(|s| s / speed).collect();
    out.samples.insert("throughput_per_s", summarize(&relative));
    out.values.set("host.speed", speed);
    out.values.set("e2e.throughput_raw_per_s", raw);
    out.values
        .set("e2e.throughput_median_per_s", summarize(slices).median);
    out.values
        .set("e2e.throughput_best_per_s", stats::rank(slices, 100.0));
    out.values.set("e2e.slices", slices.len() as f64);
    let list = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    out.info.push(("slice_rates_raw_per_s", list(slices)));
    out.info.push(("host_rounds_per_s", list(host.rates())));
}

/// Set-up time, the median over trials, in seconds at nominal host
/// speed.
fn setup_metric(setups: &[f64], host: &HostSpeed, out: &mut Outcome) {
    let relative: Vec<f64> = setups.iter().map(|s| s * host.speed()).collect();
    let s = summarize(&relative);
    out.values.set("setup_s", s.median);
    out.samples.insert("setup_s", s);
    out.info
        .push(("setup_raw_s", Json::Num(summarize(setups).median)));
}

/// CPU time, context switches and thread count of the process, summed
/// over the engine's measured windows of a traced run (the ledger's
/// micro-rows and the baselines are left out).
#[derive(Default)]
struct ProcWatch {
    cpu: (f64, f64),
    ctx: (u64, u64),
    ops: u64,
    threads_peak: u64,
}

impl ProcWatch {
    /// Runs one measured window that completes `ops` operations,
    /// charging it the CPU time of the process and the context switches
    /// of every live thread.
    fn window<R>(&mut self, f: impl FnOnce() -> (R, u64)) -> R {
        let (cpu0, ctx0) = (procfs::self_cpu(), procfs::task_ctxt_switches());
        let (r, ops) = f();
        let (cpu1, ctx1) = (procfs::self_cpu(), procfs::task_ctxt_switches());
        self.cpu.0 += cpu1.0 - cpu0.0;
        self.cpu.1 += cpu1.1 - cpu0.1;
        self.ctx.0 += ctx1.0.saturating_sub(ctx0.0);
        self.ctx.1 += ctx1.1.saturating_sub(ctx0.1);
        self.ops += ops;
        self.threads_peak = self.threads_peak.max(procfs::self_status().threads);
        r
    }

    fn finish(&self, out: &mut Values) {
        let (user, sys) = self.cpu;
        out.set("proc.cpu_user_s", user);
        out.set("proc.cpu_sys_s", sys);
        if user + sys > 0.0 {
            out.set("proc.sys_share", sys / (user + sys));
        }
        let kops = (self.ops as f64 / 1e3).max(1e-9);
        out.set("proc.ctx_voluntary_per_kop", self.ctx.0 as f64 / kops);
        out.set("proc.ctx_involuntary_per_kop", self.ctx.1 as f64 / kops);
        out.set("proc.threads_peak", self.threads_peak as f64);
    }
}

fn pool_rows(before: snet_core::PoolStats, out: &mut Values) {
    let now = snet_core::pool::stats();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    out.set("core.pool.misses", misses as f64);
    if hits + misses > 0 {
        out.set("core.pool.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
}

fn trace_rows(t: &TraceCounts, out: &mut Values) {
    out.set("runtime.trace.box_records", t.box_records as f64);
    out.set("runtime.trace.filter_records", t.filter_records as f64);
    out.set("runtime.trace.dispatched", t.dispatched as f64);
    out.set("runtime.trace.sync_fires", t.sync_fires as f64);
    out.set("runtime.trace.sync_stranded", t.sync_stranded as f64);
    out.set("runtime.trace.star_unfoldings", t.star_unfoldings as f64);
    out.set("runtime.trace.split_replicas", t.split_replicas as f64);
    out.set("runtime.trace.passthroughs", t.passthroughs as f64);
}

// ---------------------------------------------------------------- streams

/// Records of the warm-up pass that ends a stream's set-up; also the
/// fixed-size pass whose trace counts the ledger reports.
const WARMUP_RECORDS: u64 = 100_000;
/// Records checked against the reference interpreter.
const INTERP_RECORDS: u64 = 2_000;

/// Counts one window's records and failures; `corrupt` spoils the
/// expected checksum first.
fn check_tally(tally: &mut Tally, corrupt: bool, out: &mut Outcome) {
    if corrupt {
        tally.expected ^= 1;
    }
    let failed = tally.failed();
    out.check(tally.sent.max(1), failed, std::mem::take(&mut tally.errors));
}

/// A stream trial's set-up, timed up to the first measured operation:
/// source compile, closed-entry analysis, `SchedNet` construction, and
/// a warm-up pass that spawns the pool and fills every buffer.
fn stream_setup<W: StreamWorkload>(
    opts: &RunOpts,
    config: EngineConfig,
    rng: &mut SplitMix64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (NetSpec, SchedNet, Closed, f64) {
    let warmup = if opts.smoke { 5_000 } else { WARMUP_RECORDS };
    let t0 = Instant::now();
    let (spec, net, mut warm) = tracer.scope("setup", |t| {
        let spec = t.scope("lang.compile", |_| stream::compile::<W>());
        let analysis = t.scope("analyze", |_| {
            snet_analyze::analyze(
                &spec,
                &W::entry_type(),
                &snet_analyze::AnalyzeConfig::default(),
            )
        });
        if analysis.has_errors() {
            out.fail(format!(
                "analysis refused the net: {:?}",
                analysis.diagnostics
            ));
        }
        let net = t.scope("runtime.sched.build", |_| {
            SchedNet::with_config(spec.clone(), config)
        });
        let warm = t.scope("warmup", |t| {
            closed_loop::<W, false>(
                &net,
                rng,
                Limit::Records(warmup),
                None,
                t,
                &mut LoopLedger::default(),
            )
        });
        (spec, net, warm)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    check_tally(&mut warm.tally, false, out);
    (spec, net, warm, setup_s)
}

/// Streams [`INTERP_RECORDS`] records through the engine and the
/// reference interpreter and demands the same multiset of outputs.
fn interp_check<W: StreamWorkload>(
    spec: &NetSpec,
    net: &SchedNet,
    rng: &mut SplitMix64,
    out: &mut Outcome,
) -> (Vec<Record>, TraceCounts) {
    let mut kept = Kept::default();
    let mut run = closed_loop::<W, false>(
        net,
        rng,
        Limit::Records(INTERP_RECORDS),
        Some(&mut kept),
        &mut Tracer::new(false),
        &mut LoopLedger::default(),
    );
    check_tally(&mut run.tally, false, out);
    let inputs = kept.inputs.clone();
    match stream::check_against_interp(spec, kept) {
        Ok(()) => out.check(INTERP_RECORDS, 0, []),
        Err(e) => out.check(INTERP_RECORDS, 1, [e]),
    }
    (inputs, run.trace)
}

fn stream_run<W: StreamWorkload>(
    opts: &RunOpts,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    out: &mut Outcome,
) -> EngineConfig {
    let config = opts.engine_config(false);
    out.info.push(("open_loop_rate_rps", Json::Num(W::RATE)));
    out.info
        .push(("sessions", Json::Num(stream::SESSIONS as f64)));
    if opts.traced {
        stream_traced::<W>(opts, config, tracer, host, out);
    } else {
        stream_untraced::<W>(opts, config, tracer, host, out);
    }
    config
}

/// Five trials, each a fresh `SchedNet`: set-up, then closed-loop
/// windows cut into 100 ms slices, with a host-speed sample before
/// each window.
fn stream_untraced<W: StreamWorkload>(
    opts: &RunOpts,
    config: EngineConfig,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    out: &mut Outcome,
) {
    let mut rng = SplitMix64::new(opts.seed);
    let window = Duration::from_secs_f64(opts.seconds * 0.9 / opts.trials() as f64);
    let (mut setups, mut slices) = (Vec::new(), Vec::new());
    for trial in 0..opts.trials() {
        tracer.set_trial(trial as u32);
        host.sample();
        let (spec, net, _, setup_s) = stream_setup::<W>(opts, config, &mut rng, tracer, out);
        setups.push(setup_s);
        if trial == 0 {
            interp_check::<W>(&spec, &net, &mut rng, out);
        }
        for w in 0..opts.windows() {
            host.sample();
            let mut run = closed_loop::<W, false>(
                &net,
                &mut rng,
                Limit::Time(window / opts.windows()),
                None,
                tracer,
                &mut LoopLedger::default(),
            );
            check_tally(&mut run.tally, opts.corrupt && trial == 0 && w == 0, out);
            slices.extend(run.slices);
        }
    }
    setup_metric(&setups, host, out);
    throughput(&slices, host, out);
}

/// The open-loop rates of the load–latency curve, as multiples of the
/// workload's fixed rate; the third rung is the fixed rate itself.
const RUNGS: [(f64, [&str; 3]); 4] = [
    (
        0.25,
        [
            "loadcurve.r1.p50_us",
            "loadcurve.r1.p99_us",
            "loadcurve.r1.p999_us",
        ],
    ),
    (
        0.5,
        [
            "loadcurve.r2.p50_us",
            "loadcurve.r2.p99_us",
            "loadcurve.r2.p999_us",
        ],
    ),
    (
        1.0,
        [
            "loadcurve.r3.p50_us",
            "loadcurve.r3.p99_us",
            "loadcurve.r3.p999_us",
        ],
    ),
    (
        1.5,
        [
            "loadcurve.r4.p50_us",
            "loadcurve.r4.p99_us",
            "loadcurve.r4.p999_us",
        ],
    ),
];
/// A rung is sustained when its p99 stays under this and its backlog
/// grows by less than a hundredth of the offered rate.
const LATENCY_LIMIT_US: f64 = 5_000.0;

fn stream_traced<W: StreamWorkload>(
    opts: &RunOpts,
    config: EngineConfig,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    out: &mut Outcome,
) {
    let mut rng = SplitMix64::new(opts.seed);
    let mut watch = ProcWatch::default();
    let budget = |share: f64| Duration::from_secs_f64(opts.seconds * share);

    // Rows that need no net of this run. The threaded engine spawns a
    // thread per component, so it goes first, before any pool exists.
    ledger::threaded_engine_row(&mut out.values);
    let spec = stream::compile::<W>();
    let entry = W::entry_type();
    let (source, registry) = (W::source(), W::registry());
    let mut build_rng = rng.fork();
    let mut shapes = Shapes {
        spec: &spec,
        entry: &entry,
        record: W::input(&mut build_rng, 0).0,
        build: &mut || W::input(&mut build_rng, 0).0,
        source: Some(&source),
        registry: Some(&registry),
        config,
    };
    ledger::core_rows(&mut shapes, &mut out.values);
    ledger::setup_rows(&shapes, &mut out.values);
    ledger::hop_row(config, &mut out.values);

    // The traced set-up; its warm-up is the fixed-size pass whose event
    // counts repeat exactly for a seed.
    host.sample();
    let (spec, net, warm, setup_s) = stream_setup::<W>(opts, config, &mut rng, tracer, out);
    trace_rows(&warm.trace, &mut out.values);
    let (inputs, checked) = interp_check::<W>(&spec, &net, &mut rng, out);
    let steps = checked.box_records + checked.filter_records;
    ledger::interp_rows(&spec, &inputs, steps, &mut out.values);
    ledger::start_finish_row(&net, &mut out.values);

    // Closed loop, untraced and traced windows alternating so that the
    // host's drift falls on both alike.
    let pool_before = snet_core::pool::stats();
    let mut ledger_sum = LoopLedger::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let window = budget(0.03);
    for round in 0..8 {
        host.sample();
        let mut run = watch.window(|| {
            let run = closed_loop::<W, false>(
                &net,
                &mut rng,
                Limit::Time(window),
                None,
                &mut Tracer::new(false),
                &mut LoopLedger::default(),
            );
            let ops = run.tally.received;
            (run, ops)
        });
        check_tally(&mut run.tally, opts.corrupt && round == 0, out);
        plain.extend(run.slices);
        let mut run = watch.window(|| {
            let run = tracer.scope("closed_loop", |t| {
                closed_loop::<W, true>(
                    &net,
                    &mut rng,
                    Limit::Time(window),
                    None,
                    t,
                    &mut ledger_sum,
                )
            });
            let ops = run.tally.received;
            (run, ops)
        });
        check_tally(&mut run.tally, false, out);
        traced.extend(run.slices);
    }
    setup_metric(&[setup_s], host, out);
    throughput(&plain, host, out);
    if !plain.is_empty() && !traced.is_empty() {
        // Best slice against best slice: the reading least moved by the
        // host, for a difference of a few per cent.
        let (p, t) = (stats::rank(&plain, 100.0), stats::rank(&traced, 100.0));
        out.values.set("bench.trace_overhead_share", (p - t) / p);
    }
    pool_rows(pool_before, &mut out.values);
    loop_rows(&mut ledger_sum, &mut out.values);

    // Open loop at four fixed rates.
    let window = budget(0.07);
    let mut samples = Samples::for_window(W::RATE * 1.5, window);
    let mut sustained = 0.0;
    for (multiple, names) in RUNGS {
        let rate = W::RATE * multiple;
        // Not under `watch`: between arrivals the generator spins on
        // `yield_now`, and its system time would pass for the engine's.
        let mut run = tracer.scope("open_loop", |_| {
            open_loop::<W>(&net, &mut rng, rate, window, &mut samples)
        });
        check_tally(&mut run.tally, false, out);
        let at = |p: f64| percentile_us(&samples.latencies, p);
        for (name, p) in names.into_iter().zip([50.0, 99.0, 99.9]) {
            if let Some(v) = at(p) {
                out.values.set(name, v);
            }
        }
        let steady = run.backlog_growth() <= rate / 100.0;
        if steady && at(99.0).is_some_and(|p99| p99 <= LATENCY_LIMIT_US) {
            sustained = rate;
        }
        if multiple == 1.0 {
            if let Some(p50) = at(50.0) {
                out.values.set("e2e.latency_p50_us", p50);
            }
            let mut ns: Vec<u64> = samples.latencies.iter().map(|&v| v as u64).collect();
            let (rung, tail) = stats::tail(&mut ns);
            out.values.set("e2e.latency_tail_us", tail as f64 / 1e3);
            out.info.push(("latency_tail_percentile", Json::Num(rung)));
            if let Some(lag) = percentile_us(&samples.lags, 99.0) {
                out.values.set("loadcurve.gen_lag_p99_us", lag);
            }
        }
        if multiple == 1.5 {
            out.values
                .set("loadcurve.backlog_growth_rps", run.backlog_growth());
        }
    }
    out.values.set("loadcurve.max_rate_rps", sustained);
    watch.finish(&mut out.values);
}

/// The generator thread's view of the scheduled engine, from the
/// traced closed loops.
fn loop_rows(l: &mut LoopLedger, out: &mut Values) {
    let total = l.total_ns() as f64;
    if total == 0.0 {
        return;
    }
    let share = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    out.set(
        "runtime.sched.try_send_ns",
        l.ingress_ns as f64 / l.try_send_calls.max(1) as f64,
    );
    out.set(
        "runtime.sched.send_full_share",
        share(l.try_send_full, l.try_send_calls),
    );
    out.set(
        "runtime.sched.try_recv_ns",
        l.egress_ns as f64 / l.try_recv_calls.max(1) as f64,
    );
    out.set(
        "runtime.sched.recv_empty_share",
        share(l.try_recv_empty, l.try_recv_calls),
    );
    out.set("runtime.sched.drive_share", l.drive_ns as f64 / total);
    out.set(
        "runtime.sched.drive_hit_share",
        share(l.drive_hits, l.drive_calls),
    );
    out.set("runtime.sched.idle_share", l.idle_ns as f64 / total);
    if let Some(p50) = stats::percentile(&mut l.backlog_samples, 50.0) {
        out.set("runtime.sched.input_backlog_p50", p50 as f64);
    }
}

// ------------------------------------------------------- raytrace, forkjoin

/// What distinguishes the two workloads on the Fig 4 net.
struct RenderKind {
    shape: RenderShape,
    smoke_shape: RenderShape,
    /// Jobs run before the first measured one, as part of set-up.
    warm_jobs: usize,
    /// What throughput counts per job: the picture's pixels for the big
    /// render, the job itself for the burst.
    pixels_are_ops: bool,
}

const RAYTRACE: RenderKind = RenderKind {
    shape: RenderShape {
        side: 512,
        spheres: 180,
        tasks: 32,
        tokens: 16,
    },
    smoke_shape: RenderShape {
        side: 96,
        spheres: 40,
        tasks: 16,
        tokens: 8,
    },
    warm_jobs: 1,
    pixels_are_ops: true,
};

const FORKJOIN: RenderKind = RenderKind {
    shape: RenderShape {
        side: 16,
        spheres: 8,
        tasks: 16,
        tokens: 8,
    },
    smoke_shape: RenderShape {
        side: 16,
        spheres: 8,
        tasks: 16,
        tokens: 8,
    },
    warm_jobs: 200,
    pixels_are_ops: false,
};

/// A workload's scene with the sequential render every other render
/// must equal byte for byte.
struct Subject<'a> {
    kind: &'a RenderKind,
    job: Job,
    reference: Image,
    counters: Counters,
    /// How long the sequential render took.
    reference_s: f64,
    ops_per_job: f64,
}

impl Subject<'_> {
    /// Counts one checked picture, from whichever renderer `who` is.
    fn check(&self, picture: Result<Image, String>, who: &str, out: &mut Outcome) {
        match picture {
            Ok(p) if p == self.reference => out.check(1, 0, []),
            Ok(_) => out.fail(format!(
                "{who}: picture differs from the sequential reference"
            )),
            Err(e) => out.fail(format!("{who}: {e}")),
        }
    }

    /// One job on the engine, checked; returns its time in seconds.
    fn engine_job(
        &self,
        rn: &RenderNet,
        input: &Record,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> f64 {
        let t0 = Instant::now();
        let picture = tracer.scope("job", |t| {
            let outputs = t.scope("run_batch", |_| rn.net.run_batch(vec![input.clone()]));
            let picture = t.scope("take_image", |_| rn.take_image());
            match outputs {
                Err(e) => Err(format!("run failed: {e}")),
                Ok(o) if !o.is_empty() => Err(format!("{} stray output records", o.len())),
                Ok(_) => picture,
            }
        });
        let spent = t0.elapsed().as_secs_f64();
        self.check(picture, "engine", out);
        spent
    }

    /// A trial's set-up, timed up to the first measured job: the Fig 4
    /// net on a fresh `SchedNet` (fusion and pre-flight analysis
    /// inside), the input record, and the warm jobs that spawn the
    /// pool.
    fn setup(
        &self,
        config: EngineConfig,
        opts: &RunOpts,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> (RenderNet, Record, f64) {
        let t0 = Instant::now();
        let (rn, input) = tracer.scope("setup", |t| {
            let rn = t.scope("runtime.sched.build", |_| RenderNet::build(config));
            if !rn.net.preflight_diagnostics().is_empty() {
                out.fail(format!(
                    "analysis refused the net: {:?}",
                    rn.net.preflight_diagnostics()
                ));
            }
            let input = self.job.input(opts.threads);
            t.scope("warmup", |t| {
                let warm = if opts.smoke { 1 } else { self.kind.warm_jobs };
                for _ in 0..warm {
                    self.engine_job(&rn, &input, t, out);
                }
            });
            (rn, input)
        });
        (rn, input, t0.elapsed().as_secs_f64())
    }

    /// Back-to-back jobs for `window` (at least one), cut into slices
    /// of at least 100 ms — a big render is a slice of its own, a
    /// window shorter than a slice is one slice. Returns the slice
    /// rates in operations per second and every job's time in seconds.
    fn window(
        &self,
        rn: &RenderNet,
        input: &Record,
        window: Duration,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> (Vec<f64>, Vec<f64>) {
        let (mut slices, mut times) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut slice = (start, 0usize);
        while times.is_empty() || start.elapsed() < window {
            times.push(self.engine_job(rn, input, tracer, out));
            let now = Instant::now();
            let spent = now.duration_since(slice.0);
            if spent >= stream::SLICE {
                let jobs = times.len() - slice.1;
                slices.push(jobs as f64 * self.ops_per_job / spent.as_secs_f64());
                slice = (now, times.len());
            }
        }
        if slices.is_empty() {
            slices.push(times.len() as f64 * self.ops_per_job / start.elapsed().as_secs_f64());
        }
        (slices, times)
    }
}

fn render_run(
    kind: &RenderKind,
    opts: &RunOpts,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    out: &mut Outcome,
) -> EngineConfig {
    let config = opts.engine_config(true);
    let shape = if opts.smoke {
        kind.smoke_shape
    } else {
        kind.shape
    };
    let job = Job::new(shape, opts.seed);
    let t0 = Instant::now();
    let (mut reference, counters) = job.reference();
    let reference_s = t0.elapsed().as_secs_f64();
    if opts.corrupt {
        reference.pixels[0][0] ^= 1;
    }
    let subject = Subject {
        kind,
        job,
        reference,
        counters,
        reference_s,
        ops_per_job: if kind.pixels_are_ops {
            (shape.side * shape.side) as f64
        } else {
            1.0
        },
    };
    out.info.push(("image_side", Json::Num(shape.side as f64)));
    out.info.push((
        "throughput_counts",
        Json::str(if kind.pixels_are_ops {
            "pixels"
        } else {
            "jobs"
        }),
    ));
    if opts.traced {
        render_traced(&subject, config, opts, tracer, host, out);
        return config;
    }
    let window = Duration::from_secs_f64(opts.seconds * 0.9 / opts.trials() as f64);
    let (mut setups, mut slices) = (Vec::new(), Vec::new());
    for trial in 0..opts.trials() {
        tracer.set_trial(trial as u32);
        host.sample();
        let (rn, input, setup_s) = subject.setup(config, opts, tracer, out);
        setups.push(setup_s);
        // A big render overshoots its window, so each window gets an
        // equal share of what is left of the trial.
        let trial_end = Instant::now() + window.saturating_sub(Duration::from_secs_f64(setup_s));
        for w in 0..opts.windows() {
            host.sample();
            let left = trial_end.saturating_duration_since(Instant::now());
            let share = left / (opts.windows() - w);
            slices.extend(subject.window(&rn, &input, share, tracer, out).0);
        }
    }
    setup_metric(&setups, host, out);
    throughput(&slices, host, out);
    config
}

fn render_traced(
    subject: &Subject,
    config: EngineConfig,
    opts: &RunOpts,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    out: &mut Outcome,
) {
    let mut watch = ProcWatch::default();
    let (job, threads) = (&subject.job, opts.threads);
    let input = job.input(threads);
    let (spec, slot) = crate::render::fig4_net();
    let entry = RType::single(ledger::variant_of(&input));

    // The ray tracer alone.
    let c = &subject.counters;
    let rays = c.primary_rays + c.secondary_rays + c.shadow_rays;
    out.values
        .set("raytracer.render_full_s", subject.reference_s);
    out.values.set("raytracer.rays", rays as f64);
    out.values.set(
        "raytracer.ns_per_ray",
        subject.reference_s * 1e9 / rays as f64,
    );
    out.values.set(
        "raytracer.bvh_build_us",
        ledger::ns_per_call(|| job.scene.build_bvh()) / 1e3,
    );

    // The application boxes, called directly in pipeline order; the
    // picture they assemble is checked like any other.
    let solver_sum = box_rows(&input, subject, out);

    // Coordination-layer rows on the records the splitter emits.
    ledger::threaded_engine_row(&mut out.values);
    let section = snet_apps::splitter_box()
        .func
        .call(&input)
        .expect("the splitter accepts the input record")
        .records
        .into_iter()
        .next()
        .expect("the splitter emits a section");
    let mut shapes = Shapes {
        spec: &spec,
        entry: &entry,
        record: section.clone(),
        build: &mut || section.clone().with_tag("node", 1),
        source: None,
        registry: None,
        config,
    };
    ledger::core_rows(&mut shapes, &mut out.values);
    ledger::setup_rows(&shapes, &mut out.values);
    ledger::hop_row(config, &mut out.values);

    // The reference interpreter on the same job.
    let interp: Vec<f64> = (0..if subject.kind.pixels_are_ops { 1 } else { 20 })
        .map(|_| {
            let t0 = Instant::now();
            let result = Interp::new(&spec).run_batch(vec![input.clone()]);
            let spent = t0.elapsed().as_secs_f64() * 1e6;
            let picture = match result {
                Ok(_) => slot.lock().take().ok_or("no picture".to_owned()),
                Err(e) => Err(format!("run failed: {e}")),
            };
            subject.check(picture, "interpreter", out);
            spent
        })
        .collect();
    out.values
        .set("runtime.interp.job_us", summarize(&interp).median);

    // The engine: traced set-up, exact event counts of one job, then
    // jobs with and without spans and the plain-threads baseline, in
    // turn, so the host's drift falls on all three alike.
    host.sample();
    let (rn, input, setup_s) = subject.setup(config, opts, tracer, out);
    match rn.net.run_batch_traced(vec![input.clone()]) {
        Ok((_, trace)) => {
            let mut counts = TraceCounts::default();
            counts.add(&trace);
            trace_rows(&counts, &mut out.values);
            let _ = rn.take_image();
        }
        Err(e) => out.fail(format!("traced job failed: {e}")),
    }
    ledger::start_finish_row(&rn.net, &mut out.values);

    let pool_before = snet_core::pool::stats();
    let window = Duration::from_secs_f64(opts.seconds * 0.05);
    let mut off = Tracer::new(false);
    let (mut slices, mut times, mut traced_times, mut plain_times) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut imbalance = Vec::new();
    for _ in 0..if opts.smoke { 1 } else { 5 } {
        host.sample();
        let (s, t) = watch.window(|| {
            let r = subject.window(&rn, &input, window, &mut off, out);
            let ops = r.1.len() as u64 * job.shape.tasks as u64;
            (r, ops)
        });
        slices.extend(s);
        let jobs = t.len();
        times.extend(t);
        traced_times.extend(subject.window(&rn, &input, window, tracer, out).1);
        // As many plain jobs as the engine just ran.
        for _ in 0..jobs {
            let t0 = Instant::now();
            let (picture, sections) =
                tracer.scope("plain_threads", |_| job.render_plain_threads(threads));
            plain_times.push(t0.elapsed().as_secs_f64());
            subject.check(Ok(picture), "plain threads", out);
            let mean = sections.iter().sum::<f64>() / sections.len() as f64;
            imbalance.push(sections.iter().cloned().fold(0.0, f64::max) / mean);
        }
    }
    setup_metric(&[setup_s], host, out);
    throughput(&slices, host, out);
    pool_rows(pool_before, &mut out.values);

    let (engine, plain) = (summarize(&times).median, summarize(&plain_times).median);
    out.values.set("raytracer.plain_threads_s", plain);
    out.values
        .set("raytracer.section_imbalance", summarize(&imbalance).median);
    out.values.set("e2e.overhead_ratio", engine / plain);
    out.values.set(
        "apps.coord_residual_s",
        engine - solver_sum / threads as f64,
    );
    // Lower decile against lower decile: the reading least moved by
    // the host, for a difference of a few per cent.
    let (quick, quick_traced) = (stats::rank(&times, 10.0), stats::rank(&traced_times, 10.0));
    out.values
        .set("bench.trace_overhead_share", (quick_traced - quick) / quick);
    let mut ns: Vec<u64> = times.iter().map(|t| (t * 1e9) as u64).collect();
    if let Some(p50) = stats::percentile(&mut ns, 50.0) {
        out.values.set("e2e.latency_p50_us", p50 as f64 / 1e3);
    }
    let (rung, tail) = stats::tail(&mut ns);
    out.values.set("e2e.latency_tail_us", tail as f64 / 1e3);
    out.info.push(("latency_tail_percentile", Json::Num(rung)));
    watch.finish(&mut out.values);
}

/// Calls `splitter`, `solver`, `init`/`merge` and `genImg` directly, as
/// the net would, and checks the picture they assemble. Returns the sum
/// of the solver calls in seconds.
fn box_rows(input: &Record, subject: &Subject, out: &mut Outcome) -> f64 {
    let call = |def: &snet_core::boxdef::BoxDef, rec: &Record| {
        let t0 = Instant::now();
        let result = def
            .func
            .call(rec)
            .unwrap_or_else(|e| panic!("box {} failed: {e}", def.sig.name));
        (result.records, t0.elapsed().as_secs_f64())
    };
    let (sections, splitter_s) = call(&snet_apps::splitter_box(), input);
    out.values.set("apps.splitter_us", splitter_s * 1e6);
    let solver = snet_apps::solver_box();
    let mut solver_sum = 0.0;
    let mut chunks = Vec::new();
    for s in &sections {
        let (mut chunk, spent) = call(&solver, s);
        solver_sum += spent;
        chunks.push(chunk.remove(0));
    }
    out.values.set("apps.solver_sum_s", solver_sum);
    let mut chunks = chunks.into_iter();
    let first = chunks
        .next()
        .expect("the splitter emits a section")
        .with_tag("fst", 1);
    let (mut pic, _) = call(&snet_apps::init_box(), &first);
    let merge = snet_apps::merge_box();
    let mut merges = Vec::new();
    for chunk in chunks {
        let mut both = chunk;
        both.absorb(&pic[0]);
        let (next, spent) = call(&merge, &both);
        merges.push(spent * 1e6);
        pic = next;
    }
    if !merges.is_empty() {
        out.values.set("apps.merge_us", summarize(&merges).median);
    }
    let slot = snet_apps::image_slot();
    let (_, genimg_s) = call(&snet_apps::gen_img_box(slot.clone(), None), &pic[0]);
    out.values.set("apps.genimg_us", genimg_s * 1e6);
    let picture = slot.lock().take().ok_or("no picture".to_owned());
    subject.check(picture, "boxes called directly", out);
    solver_sum
}
