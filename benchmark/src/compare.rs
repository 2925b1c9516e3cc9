//! `compare <dirA> <dirB>`: one row per workload and end-to-end metric,
//! with a verdict against the metric's bound. `dirA` is the base.
//!
//! A directory holds the result files of one run of the suite
//! (`<workload>.json`) or of several (`<run>/<workload>.json`). Medians
//! and quartiles are taken over the runs; one run has no spread, so
//! only several can come out `unresolved`.

use crate::json::{self, Json};
use crate::report::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::summarize;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between runs is wider than the bound, so a change of
    /// the size of the bound could hide in it.
    Unresolved,
}

/// One side of a row: the value of every run found, and the failed
/// operations of all of them.
#[derive(Debug, Default)]
struct Side {
    values: Vec<f64>,
    failed: u64,
}

fn result_files(dir: &Path, workload: &str) -> Vec<std::path::PathBuf> {
    let name = format!("{workload}.json");
    let mut found = Vec::new();
    if dir.join(&name).is_file() {
        found.push(dir.join(&name));
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        let mut subdirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        subdirs.sort();
        found.extend(
            subdirs
                .into_iter()
                .map(|d| d.join(&name))
                .filter(|f| f.is_file()),
        );
    }
    found
}

/// Every result file of `workload` under `dir`, parsed.
fn load(dir: &Path, workload: &str) -> Result<Vec<Json>, String> {
    result_files(dir, workload)
        .iter()
        .map(|file| {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
        })
        .collect()
}

/// What `runs` say about `metric`.
fn side(runs: &[Json], metric: &str) -> Side {
    let mut side = Side::default();
    for doc in runs {
        side.failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let Some(m) = doc.get("metrics").and_then(|m| m.get(metric)) else {
            continue;
        };
        if let Some(v) = m.get("value").and_then(Json::as_f64) {
            side.values.push(v);
        }
    }
    side
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict on one metric from the runs of both sides: regressed
/// when the median worsened by more than the bound, unresolved when
/// either side's spread exceeds the bound — unless every run of `b`
/// reads better than every run of `a` — and ok otherwise.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (sa, sb) = (summarize(a), summarize(b));
    if worsening(def, sa.median, sb.median) > bound {
        return Verdict::Regressed;
    }
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(def, x, y) < 0.0));
    if sa.spread().max(sb.spread()) > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Prints the table; `Ok(true)` when nothing regressed and no side
/// failed more operations than the base.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let mut clean = true;
    let mut rows = 0;
    println!(
        "{:<15} {:<17} {:>14} {:>23} {:>14} {:>23} {:>9}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A"
    );
    for (workload, _) in WORKLOADS {
        let (runs_a, runs_b) = (load(dir_a, workload)?, load(dir_b, workload)?);
        for def in &END_TO_END {
            let (a, b) = (side(&runs_a, def.name), side(&runs_b, def.name));
            if a.values.is_empty() || b.values.is_empty() {
                continue;
            }
            let (sa, sb) = (summarize(&a.values), summarize(&b.values));
            rows += 1;
            let v = verdict(def, &a.values, &b.values);
            clean &= v != Verdict::Regressed;
            println!(
                "{workload:<15} {:<17} {:>14.5e} [{:>10.4e},{:>10.4e}] {:>14.5e} [{:>10.4e},{:>10.4e}] {:>9.4}  {}",
                def.name,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                sb.median / sa.median,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            if b.failed > a.failed {
                println!(
                    "{workload:<15} failed operations rose from {} to {}",
                    a.failed, b.failed
                );
                clean = false;
            }
        }
    }
    if rows == 0 {
        return Err(format!(
            "no result files under {} and {}",
            dir_a.display(),
            dir_b.display()
        ));
    }
    println!("ratios are B/A with A as the base; bounds are shares of A's median");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TPUT: MetricDef = END_TO_END[0];
    const RSS: MetricDef = END_TO_END[1];

    #[test]
    fn direction_decides_what_worse_means() {
        assert_eq!(TPUT.better, Better::Higher);
        assert_eq!(RSS.better, Better::Lower);
        let down = 100.0 * (1.0 - TPUT.bound.unwrap() - 0.01);
        assert_eq!(verdict(&TPUT, &[100.0], &[down]), Verdict::Regressed);
        assert_eq!(verdict(&TPUT, &[100.0], &[140.0]), Verdict::Ok);
        let up = 100.0 * (1.0 + RSS.bound.unwrap() + 0.01);
        assert_eq!(verdict(&RSS, &[100.0], &[up]), Verdict::Regressed);
        assert_eq!(verdict(&RSS, &[100.0], &[60.0]), Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        // Quartiles 80 and 120 around 100: a spread of 0.4.
        let wide = [80.0, 100.0, 120.0];
        assert_eq!(verdict(&TPUT, &wide, &[101.0]), Verdict::Unresolved);
        assert_eq!(verdict(&TPUT, &[101.0], &wide), Verdict::Unresolved);
        assert_eq!(verdict(&TPUT, &wide, &[130.0, 140.0, 150.0]), Verdict::Ok);
        assert_eq!(
            verdict(&TPUT, &wide, &[110.0, 140.0, 150.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn reads_one_run_or_several_and_flags_a_regression() {
        let root = std::env::temp_dir().join(format!("snet-bench-compare-{}", std::process::id()));
        let write = |dir: &Path, tput: f64, failed: u64| {
            std::fs::create_dir_all(dir).unwrap();
            let metric = |v: f64| Json::obj([("value", Json::Num(v))]);
            let doc = Json::obj([
                ("failed", Json::Num(failed as f64)),
                (
                    "metrics",
                    Json::obj([
                        ("throughput_per_s", metric(tput)),
                        ("peak_rss_bytes", metric(1e7)),
                        ("setup_s", metric(0.2)),
                    ]),
                ),
            ]);
            std::fs::write(dir.join("chain_stream.json"), doc.pretty()).unwrap();
        };
        let (a, b, c) = (root.join("a"), root.join("b"), root.join("c"));
        write(&a, 100.0, 0);
        write(&b.join("run-1"), 99.0, 0);
        write(&b.join("run-2"), 101.0, 0);
        write(&c, 50.0, 0);
        let runs = load(&b, "chain_stream").unwrap();
        assert_eq!(side(&runs, "throughput_per_s").values.len(), 2);
        assert_eq!(compare(&a, &b), Ok(true));
        assert_eq!(compare(&a, &c), Ok(false));
        write(&c, 100.0, 3);
        assert_eq!(compare(&a, &c), Ok(false), "more failures than the base");
        assert!(compare(&root.join("none"), &a).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
