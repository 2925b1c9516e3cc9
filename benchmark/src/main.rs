//! The benchmark of this repository: four workloads on the scheduled
//! engine, end-to-end metrics from an untraced run, and a per-layer
//! ledger from a separate traced run — all measured from outside,
//! through the public functions of the `snet-*` crates. See README.md
//! in this directory.
//!
//! ```text
//! snet-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! snet-benchmark suite [--seed N] [--seconds S] [--runs N] [--traced] [--smoke] [--out DIR]
//! snet-benchmark compare DIR_A DIR_B
//! snet-benchmark catalogue            # prints BENCHMARK.json
//! ```

mod compare;
mod gen;
mod host;
mod json;
mod ledger;
mod procfs;
mod render;
mod report;
mod run;
mod spans;
mod stats;
mod stream;

use report::{Header, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What the run-length of the builder's contract is set to in
/// `BENCHMARK.json`; the suite uses it unless told otherwise.
const DEFAULT_SECONDS: f64 = report::RUN_SECONDS as f64;
const DEFAULT_SEED: u64 = 2010;
/// The whole smoke suite must end within ten seconds.
const SMOKE_SECONDS: f64 = 0.6;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced_too: bool,
    smoke: bool,
    corrupt: bool,
    runs: usize,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        traced_too: false,
        smoke: false,
        corrupt: false,
        runs: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--runs" => {
                a.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--runs takes 1 to 100")?
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--traced" => a.traced_too = true,
            "--smoke" => a.smoke = true,
            "--corrupt-expected" => a.corrupt = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

fn threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, nproc.min(4))
}

/// Runs one workload in this process and prints its metrics; the last
/// line of standard output is the builder's contract line.
fn run_one(workload: &str, a: &Args) -> Result<bool, String> {
    let (nproc, t) = threads();
    let opts = run::RunOpts {
        seed: a.seed,
        seconds: a.seconds.unwrap_or(if a.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        traced: a.trace,
        smoke: a.smoke,
        corrupt: a.corrupt,
        threads: t,
    };
    let load_start = procfs::loadavg1();
    if load_start > nproc as f64 {
        eprintln!("warning: load average {load_start} exceeds {nproc} cores; expect noise");
    }
    if a.smoke {
        ledger::set_quick();
    }
    let mut tracer = spans::Tracer::new(a.trace);
    let (outcome, config) = run::run(workload, &opts, &mut tracer).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {workload}; one of {}", names.join(", "))
    })?;
    let header = Header {
        workload: workload.to_owned(),
        traced: a.trace,
        smoke: a.smoke,
        seed: a.seed,
        seconds: opts.seconds,
        nproc,
        threads: t,
        engine_config: format!("{config:?}"),
        load_start,
        load_end: procfs::loadavg1(),
    };
    let write = |dir: &Path, name: String, doc: String| {
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(&name), doc))
            .map_err(|e| format!("{}: {e}", dir.join(&name).display()))
    };
    if let Some(dir) = &a.out {
        let name = if a.trace {
            format!("{workload}.traced.json")
        } else {
            format!("{workload}.json")
        };
        write(dir, name, report::result_file(&header, &outcome).pretty())?;
    }
    if a.trace {
        let dir = a
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from("benchmark/out"));
        write(
            &dir,
            format!("trace-{workload}.json"),
            tracer.to_json(workload).compact(),
        )?;
    }
    for e in &outcome.errors {
        eprintln!("{workload}: FAILED: {e}");
    }
    if a.smoke {
        println!("{workload}: smoke run, not comparable with any other run");
    }
    print!("{}", report::table(workload, &outcome, a.trace));
    println!("{}", report::contract_line(&outcome, a.trace));
    Ok(outcome.correct())
}

/// One child process per workload and mode, so that peak memory and
/// thread counts are per workload.
fn suite(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let base = a.out.clone().unwrap_or_else(|| {
        PathBuf::from(if a.smoke {
            "benchmark/out/smoke"
        } else {
            "benchmark/out/latest"
        })
    });
    let mut all_correct = true;
    for run in 0..a.runs {
        let dir = if a.runs == 1 {
            base.clone()
        } else {
            base.join(format!("run-{:02}", run + 1))
        };
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                if trace && !(a.traced_too || a.smoke) {
                    continue;
                }
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["--workload", workload])
                    .args(["--seed", &(a.seed + run as u64).to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&dir);
                if let Some(s) = a.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if a.smoke {
                    cmd.arg("--smoke");
                }
                let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
                all_correct &= status.success();
            }
        }
        println!("result files in {}", dir.display());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    if std::env::var_os("SNET_WORKERS").is_some() {
        eprintln!("SNET_WORKERS is set; the benchmark fixes the pool size itself. Unset it.");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let pos: Vec<&str> = args.positional.iter().map(|s| &**s).collect();
    let result = match (pos.as_slice(), &args.workload) {
        ([], Some(w)) => run_one(w, &args),
        (["suite"], None) => suite(&args),
        (["compare", a, b], None) => compare::compare(Path::new(a), Path::new(b)),
        (["catalogue"], None) => {
            print!("{}", report::benchmark_json().pretty());
            Ok(true)
        }
        _ => Err(
            "usage: --workload W --seed N --seconds S --trace 0|1 [--out DIR] \
                  | suite [--seed N] [--seconds S] [--runs N] [--traced] [--smoke] [--out DIR] \
                  | compare DIR_A DIR_B | catalogue"
                .to_owned(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
