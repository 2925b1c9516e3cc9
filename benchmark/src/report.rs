//! The metric catalogue and everything that is printed or written.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the one list of metric names,
//! units, directions and bounds; the root `BENCHMARK.json` repeats it
//! for the driver and a unit test holds the two together.

use crate::json::Json;
use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it is a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The workloads, with why each was chosen (later issues refer to
/// these names).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "chain_stream",
        "depth-16 fused chain of trivial boxes over 4 streaming sessions: snet-core per-step cost dominates, no mailbox hop",
    ),
    (
        "route_stream",
        "unfusable net (parallel dispatch, index split, star, filter) over 4 sessions: scheduler and mailbox hand-off dominate",
    ),
    (
        "raytrace",
        "the paper's Fig 4 dynamic ray-tracing net, 512x512, 180 spheres, run_batch: box work dominates, coordination should not show",
    ),
    (
        "forkjoin_burst",
        "the same Fig 4 net as back-to-back 16x16 jobs on one persistent pool: per-run start, unfold, sync and teardown dominate",
    ),
];

/// What a user of the system sees, bounded. Every workload reports
/// every one of these.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("throughput_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_bytes", "bytes", Better::Lower, 0.2),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single layers and diagnostics, unbounded. A row that does not apply
/// to a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 85] = [
    // The host's speed during the run, and end-to-end readings that do
    // not hold a bound on a shared host.
    hi("host.speed", "ratio"),
    hi("e2e.throughput_raw_per_s", "1/s"),
    hi("e2e.throughput_median_per_s", "1/s"),
    hi("e2e.throughput_best_per_s", "1/s"),
    lo("e2e.latency_p50_us", "us"),
    lo("e2e.latency_tail_us", "us"),
    lo("e2e.overhead_ratio", "ratio"),
    lo("e2e.failed_share", "share"),
    lo("e2e.slices", "count"),
    // snet-core, per call.
    lo("core.record.build_ns", "ns"),
    lo("core.record.clone_ns", "ns"),
    lo("core.record.project_ns", "ns"),
    lo("core.record.absorb_ns", "ns"),
    lo("core.label.intern_hit_ns", "ns"),
    lo("core.semantics.box_step_exact_ns", "ns"),
    lo("core.semantics.box_step_inherit_ns", "ns"),
    lo("core.semantics.filter_step_ns", "ns"),
    lo("core.semantics.best_branch_ns", "ns"),
    lo("core.sync.store_fire_ns", "ns"),
    lo("core.fusion.chain_stage_ns", "ns"),
    hi("core.pool.hit_ratio", "ratio"),
    lo("core.pool.misses", "count"),
    // Once per net.
    lo("lang.parse_us", "us"),
    lo("lang.compile_us", "us"),
    lo("analyze.open_us", "us"),
    lo("analyze.closed_us", "us"),
    lo("core.fusion.fuse_us", "us"),
    lo("runtime.sched.build_us", "us"),
    lo("runtime.sched.spawn_us", "us"),
    // The scheduled engine, seen from the generator thread.
    lo("runtime.sched.hop_ns", "ns"),
    lo("runtime.sched.start_finish_us", "us"),
    lo("runtime.sched.try_send_ns", "ns"),
    lo("runtime.sched.send_full_share", "share"),
    lo("runtime.sched.try_recv_ns", "ns"),
    lo("runtime.sched.recv_empty_share", "share"),
    lo("runtime.sched.drive_share", "share"),
    hi("runtime.sched.drive_hit_share", "share"),
    lo("runtime.sched.idle_share", "share"),
    lo("runtime.sched.input_backlog_p50", "count"),
    // Baselines.
    lo("runtime.interp.stage_ns", "ns"),
    lo("runtime.interp.record_ns", "ns"),
    lo("runtime.interp.job_us", "us"),
    lo("runtime.engine.batch256_us", "us"),
    // Exact counts of a fixed-size pass; they repeat for a seed.
    lo("runtime.trace.box_records", "count"),
    lo("runtime.trace.filter_records", "count"),
    lo("runtime.trace.dispatched", "count"),
    lo("runtime.trace.sync_fires", "count"),
    lo("runtime.trace.sync_stranded", "count"),
    lo("runtime.trace.star_unfoldings", "count"),
    lo("runtime.trace.split_replicas", "count"),
    lo("runtime.trace.passthroughs", "count"),
    // The ray tracer and the application boxes, called directly.
    lo("raytracer.render_full_s", "s"),
    lo("raytracer.bvh_build_us", "us"),
    lo("raytracer.rays", "count"),
    lo("raytracer.ns_per_ray", "ns"),
    lo("raytracer.plain_threads_s", "s"),
    lo("raytracer.section_imbalance", "ratio"),
    lo("apps.splitter_us", "us"),
    lo("apps.solver_sum_s", "s"),
    lo("apps.merge_us", "us"),
    lo("apps.genimg_us", "us"),
    lo("apps.coord_residual_s", "s"),
    // Open-loop latency at four fixed rates.
    lo("loadcurve.r1.p50_us", "us"),
    lo("loadcurve.r1.p99_us", "us"),
    lo("loadcurve.r1.p999_us", "us"),
    lo("loadcurve.r2.p50_us", "us"),
    lo("loadcurve.r2.p99_us", "us"),
    lo("loadcurve.r2.p999_us", "us"),
    lo("loadcurve.r3.p50_us", "us"),
    lo("loadcurve.r3.p99_us", "us"),
    lo("loadcurve.r3.p999_us", "us"),
    lo("loadcurve.r4.p50_us", "us"),
    lo("loadcurve.r4.p99_us", "us"),
    lo("loadcurve.r4.p999_us", "us"),
    hi("loadcurve.max_rate_rps", "1/s"),
    lo("loadcurve.backlog_growth_rps", "1/s"),
    lo("loadcurve.gen_lag_p99_us", "us"),
    // The process, seen by the kernel.
    lo("proc.cpu_user_s", "s"),
    lo("proc.cpu_sys_s", "s"),
    lo("proc.sys_share", "share"),
    lo("proc.ctx_voluntary_per_kop", "count"),
    lo("proc.ctx_involuntary_per_kop", "count"),
    lo("proc.threads_peak", "count"),
    // The tracing itself.
    lo("bench.trace_overhead_share", "share"),
    lo("bench.spans", "count"),
];

/// The run length `BENCHMARK.json` fixes for the driver, in seconds.
pub const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json` as the catalogue above dictates it; the committed
/// file is this text (`snet-benchmark catalogue`).
pub fn benchmark_json() -> Json {
    let metric = |d: &MetricDef| {
        let mut m = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if let Some(b) = d.bound {
            m.push(("bound", Json::Num(b)));
        }
        Json::obj(m)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// Metric values by catalogue name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked: records, renders or jobs.
    pub attempted: u64,
    /// Lost, duplicated or wrong records, refused or failed runs,
    /// pictures that differ from the reference.
    pub failed: u64,
    pub values: Values,
    /// The samples behind a value (slices or trials), for its quartiles.
    pub samples: BTreeMap<&'static str, Summary>,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Free-form facts for the result file (rates, sizes, rungs).
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn check(&mut self, attempted: u64, failed: u64, errors: impl IntoIterator<Item = String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors);
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.check(1, 1, [why]);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// The metrics a run in this mode reports.
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The last line of standard output the driver reads: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, every catalogue
/// metric present. Panics on an end-to-end metric the workload did not
/// produce; a per-layer row that does not apply reads 0.
pub fn contract_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = catalogue(traced).iter().map(|def| {
        let value = match outcome.values.get(def.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => panic!("end-to-end metric {} was not measured", def.name),
        };
        (
            def.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .compact()
}

/// Every metric by name with its unit, one per line, for people: the
/// mode's own metrics first, then whatever else the run measured.
pub fn table(workload: &str, outcome: &Outcome, traced: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let (own, other) = (catalogue(traced), catalogue(!traced));
    for def in own.iter().chain(other) {
        let Some(v) = outcome.values.get(def.name) else {
            continue;
        };
        let _ = write!(
            out,
            "{workload:>14}  {:<36} {v:>16.4} {}",
            def.name, def.unit
        );
        if let Some(s) = outcome.samples.get(def.name) {
            let _ = write!(
                out,
                "   (median {:.4}, quartiles {:.4} .. {:.4}, n={})",
                s.median, s.q1, s.q3, s.n
            );
        }
        out.push('\n');
    }
    out
}

/// Where and how a run was made; written into every result file.
pub struct Header {
    pub workload: String,
    pub traced: bool,
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub threads: usize,
    pub engine_config: String,
    pub load_start: f64,
    pub load_end: f64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

impl Header {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&*self.workload)),
            ("traced", Json::Bool(self.traced)),
            // A smoke run shrinks every window and scene; its numbers
            // say the harness works, nothing else.
            ("comparable", Json::Bool(!self.smoke)),
            (
                "git_commit",
                Json::str(command_line("git", &["rev-parse", "HEAD"])),
            ),
            ("rustc", Json::str(command_line("rustc", &["-V"]))),
            ("nproc", Json::Num(self.nproc as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("loadavg1_start", Json::Num(self.load_start)),
            ("loadavg1_end", Json::Num(self.load_end)),
            ("engine_config", Json::str(&*self.engine_config)),
        ])
    }
}

/// The result file of one run: header, checks, and every metric with
/// its unit, direction, bound and the quartiles of its samples.
pub fn result_file(header: &Header, outcome: &Outcome) -> Json {
    let metrics = catalogue(header.traced).iter().filter_map(|def| {
        let value = outcome.values.get(def.name)?;
        let mut m = vec![
            ("value", Json::Num(value)),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better.as_str())),
        ];
        if let Some(b) = def.bound {
            m.push(("bound", Json::Num(b)));
        }
        if let Some(s) = outcome.samples.get(def.name) {
            m.push(("median", Json::Num(s.median)));
            m.push(("q1", Json::Num(s.q1)));
            m.push(("q3", Json::Num(s.q3)));
            m.push(("n", Json::Num(s.n as f64)));
        }
        Some((def.name, Json::obj(m)))
    });
    Json::obj([
        ("header", header.to_json()),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "errors",
            Json::Arr(outcome.errors.iter().map(|e| Json::str(&**e)).collect()),
        ),
        ("info", Json::obj(outcome.info.iter().cloned())),
        ("metrics", Json::obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Names and units as the builder's contract limits them.
    fn well_formed(defs: &[MetricDef]) {
        for d in defs {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        well_formed(&END_TO_END);
        well_formed(&PER_LAYER);
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            json::parse(&text).unwrap(),
            benchmark_json(),
            "regenerate with `benchmark/run.sh catalogue > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut o = Outcome::default();
        o.check(10, 0, []);
        for d in &END_TO_END {
            o.values.set(d.name, 1.5);
        }
        let line = contract_line(&o, false);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("unit").unwrap().as_str(), Some("1/s"));

        // Traced: rows that do not apply read 0, a failure flips `correct`.
        o.fail("lost a record".into());
        let doc = json::parse(&contract_line(&o, true)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            doc.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        contract_line(&Outcome::default(), false);
    }
}
