//! `perfbench steady`: runs workloads N times each with seeds
//! `seed0..seed0+N`, alternating the workload order from run to run, and
//! prints each end-to-end metric's median, quartiles and spread (the
//! interquartile distance as a share of the median) next to its bound
//! from `BENCHMARK.json`.
//!
//! ```text
//! perfbench steady --workload xmark-planned,serve-corpus --runs 10 --seconds 10 [--seed0 1]
//! ```

use crate::json::{self, Json};
use crate::Workload;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method).
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let (ld, n) = (sorted.len() as i64, 4i64);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        out[(i - 1) as usize] = (sorted[(j - 1) as usize] * (n - delta) as f64
            + sorted[j as usize] * delta as f64)
            / n as f64;
    }
    out
}

fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

pub fn main(args: &[String]) -> ExitCode {
    let flag = |name: &str| crate::flag(args, name);
    let workloads: Option<Vec<Workload>> = flag("--workload")
        .unwrap_or("")
        .split(',')
        .map(Workload::parse)
        .collect();
    let (Some(workloads), Some(runs), Some(seconds)) = (
        workloads,
        flag("--runs").and_then(|s| s.parse::<u64>().ok()),
        flag("--seconds"),
    ) else {
        eprintln!("usage: perfbench steady --workload <name>[,<name>...] --runs <n> --seconds <s> [--seed0 <n>]");
        return ExitCode::from(2);
    };
    if runs < 2 {
        eprintln!("perfbench steady: --runs must be at least 2");
        return ExitCode::from(2);
    }
    let seed0: u64 = flag("--seed0").and_then(|s| s.parse().ok()).unwrap_or(1);
    let exe = std::env::current_exe().expect("own executable");
    // workload -> metric -> values; workload -> (attempted, failed) per run
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut shares: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    let mut all_correct = true;
    for r in 0..runs {
        let mut order = workloads.clone();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = seed0 + r;
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seconds", seconds, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let Some(Ok(result)) = stdout.lines().last().map(|l| json::parse(l.as_bytes())) else {
                eprintln!(
                    "perfbench steady: {} seed {seed} printed no result",
                    w.name()
                );
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                return ExitCode::from(1);
            };
            let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
            let correct = matches!(result.get("correct"), Some(Json::Bool(true)));
            all_correct &= correct;
            shares
                .entry(w.name())
                .or_default()
                .push((num("attempted") as u64, num("failed") as u64));
            if let Some(Json::Obj(metrics)) = result.get("metrics") {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    values
                        .entry(w.name())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
            let line: Vec<String> = match result.get("metrics") {
                Some(Json::Obj(metrics)) => metrics
                    .iter()
                    .map(|(k, m)| {
                        let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                        format!("{k}={v:.4}")
                    })
                    .collect(),
                _ => Vec::new(),
            };
            eprintln!(
                "perfbench steady: run {r} {} seed {seed} correct {correct} {}",
                w.name(),
                line.join(" ")
            );
        }
    }
    let bounds = bounds();
    println!(
        "{:<16} {:<26} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut steady = true;
    for (w, metrics) in &values {
        for (name, vals) in metrics {
            let mut s = vals.clone();
            s.sort_by(|a, b| a.total_cmp(b));
            let [q1, med, q3] = quartiles(&s);
            let spread = (q3 - q1) / med;
            let bound = bounds.get(name).copied();
            let flag = match bound {
                Some(b) if name != "setup_s" && spread > b / 3.0 => {
                    steady = false;
                    "  WIDE"
                }
                _ => "",
            };
            println!(
                "{w:<16} {name:<26} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4} {:>7}{flag}",
                bound.map_or("-".to_string(), |b| format!("{b}"))
            );
        }
        let runs = &shares[w];
        let share = |(a, f): &(u64, u64)| *f as f64 / *a as f64;
        let same = runs.iter().all(|r| share(r) == share(&runs[0]));
        steady &= same;
        println!(
            "{w:<16} failed share {:.6} in every run: {same}",
            share(&runs[0])
        );
    }
    println!("all runs correct: {all_correct}; every spread within a third of its bound: {steady}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
