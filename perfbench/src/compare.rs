//! `perfbench compare <base> <change> [--spec BENCHMARK.json]`: compares
//! two result sets, such as a parent and a change, or two sets of runs of
//! one commit. A result set is a file (or a directory of files) holding
//! the standard output of `--trace 0` runs, one after another.
//!
//! For each workload and end-to-end metric it prints each side's median
//! and quartiles, the ratio change/base, and a verdict against the
//! metric's bound from the spec:
//!
//! * `unresolved` — the base's quartile spread is wider than the bound,
//!   unless every change run is better than every base run;
//! * `regressed` — the change's median is worse by more than the bound;
//! * `improved` — better by more than the base's spread, winning at
//!   least nine in ten seed-paired runs;
//! * `within bound` — otherwise.

use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One `--trace 0` run: workload, seed and its metric values.
struct Run {
    workload: String,
    seed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Reads every run in a file, or in every file of a directory.
fn load(path: &Path) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            files.push(entry.map_err(|e| e.to_string())?.path());
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let mut header: Option<Value> = None;
        for line in text.lines() {
            if let Some(h) = line.strip_prefix("perfbench-run ") {
                header = Some(
                    serde_json::parse_value(h).map_err(|e| format!("{}: {e}", file.display()))?,
                );
            } else if line.starts_with("{\"correct\"") {
                let Some(h) = header.take() else { continue };
                if h.get("trace") != Some(&Value::Num(0.0)) {
                    continue;
                }
                let result = serde_json::parse_value(line)
                    .map_err(|e| format!("{}: {e}", file.display()))?;
                let mut metrics = BTreeMap::new();
                if let Some(Value::Obj(fields)) = result.get("metrics") {
                    for (name, m) in fields {
                        if let Some(Value::Num(v)) = m.get("value") {
                            metrics.insert(name.clone(), *v);
                        }
                    }
                }
                let workload = match h.get("workload") {
                    Some(Value::Str(w)) => w.clone(),
                    _ => return Err(format!("{}: run header without workload", file.display())),
                };
                let seed = match h.get("seed") {
                    Some(Value::Num(s)) => *s as u64,
                    _ => 0,
                };
                let correct = result.get("correct") == Some(&Value::Bool(true));
                runs.push(Run { workload, seed, correct, metrics });
            }
        }
    }
    Ok(runs)
}

/// `(name, lower_is_better, bound)` of every end-to-end metric.
fn spec(path: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Arr(metrics)) = v.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("better"), m.get("bound")) {
            (Some(Value::Str(n)), Some(Value::Str(b)), Some(Value::Num(bound))) => {
                Ok((n.clone(), b == "lower", *bound))
            }
            _ => Err(format!("{}: malformed end_to_end entry", path.display())),
        })
        .collect()
}

/// Median, quartiles and relative spread of a side's values.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let med = median(&mut values.to_vec());
    let (q1, q3) = quartiles(values).unwrap_or((med, med));
    let spread = if med != 0.0 { (q3 - q1) / med.abs() } else { 0.0 };
    (med, q1, q3, spread)
}

fn verdict(base: &[(u64, f64)], change: &[(u64, f64)], lower: bool, bound: f64) -> &'static str {
    let b: Vec<f64> = base.iter().map(|x| x.1).collect();
    let c: Vec<f64> = change.iter().map(|x| x.1).collect();
    let (mb, _, _, spread) = summary(&b);
    let (mc, ..) = summary(&c);
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let worse_by = if lower { (mc - mb) / mb } else { (mb - mc) / mb };
    let every_run_better = c.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    // Pair runs by seed; a seed present on one side only is left out.
    let pairs: Vec<(f64, f64)> = base
        .iter()
        .filter_map(|&(seed, x)| change.iter().find(|p| p.0 == seed).map(|p| (x, p.1)))
        .collect();
    let wins = pairs.iter().filter(|&&(x, y)| better(y, x)).count();
    if every_run_better && !c.is_empty() {
        "better in every run"
    } else if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else if -worse_by > spread && !pairs.is_empty() && wins * 10 >= pairs.len() * 9 {
        "improved"
    } else {
        "within bound"
    }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec_path = it.next().ok_or("--spec needs a path")?.clone();
        } else {
            paths.push(a.clone());
        }
    }
    let [base_path, change_path] = paths.as_slice() else {
        return Err("compare needs exactly two result sets".into());
    };
    let metrics = spec(Path::new(&spec_path))?;
    let base = load(Path::new(base_path))?;
    let change = load(Path::new(change_path))?;
    for (side, runs) in [("base", &base), ("change", &change)] {
        let bad = runs.iter().filter(|r| !r.correct).count();
        println!("{side}: {} runs, {bad} with failed checks", runs.len());
    }
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<13} {:<17} {:>38} {:>38} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "base median [q1, q3] (n)",
        "change median [q1, q3] (n)",
        "chg/base",
        "bound"
    );
    for w in workloads {
        for (name, lower, bound) in &metrics {
            let side = |runs: &[Run]| -> Vec<(u64, f64)> {
                runs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metrics.get(name).map(|&v| (r.seed, v)))
                    .collect()
            };
            let (b, c) = (side(&base), side(&change));
            if b.is_empty() || c.is_empty() {
                println!("{w:<13} {name:<17} missing on one side");
                continue;
            }
            let fmt = |v: &[(u64, f64)]| {
                let (m, q1, q3, _) = summary(&v.iter().map(|x| x.1).collect::<Vec<_>>());
                format!("{m:.4} [{q1:.4}, {q3:.4}] ({})", v.len())
            };
            let (mb, ..) = summary(&b.iter().map(|x| x.1).collect::<Vec<_>>());
            let (mc, ..) = summary(&c.iter().map(|x| x.1).collect::<Vec<_>>());
            println!(
                "{w:<13} {name:<17} {:>38} {:>38} {:>9.4} {bound:>6}  {}",
                fmt(&b),
                fmt(&c),
                mc / mb,
                verdict(&b, &c, *lower, *bound)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect()
    }

    #[test]
    fn verdicts() {
        let base = runs(&[100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]);
        let same = runs(&[100.3, 100.8, 99.4, 100.1, 99.7, 100.2, 100.0, 99.6, 100.4, 99.9]);
        assert_eq!(verdict(&base, &same, true, 0.1), "within bound");
        let slower: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v * 1.2)).collect();
        assert_eq!(verdict(&base, &slower, true, 0.1), "regressed");
        let faster: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v * 0.99)).collect();
        assert_eq!(verdict(&base, &faster, true, 0.1), "improved");
        let noisy = runs(&[50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]);
        assert_eq!(verdict(&noisy, &same, true, 0.1), "unresolved");
        let much_faster: Vec<(u64, f64)> = noisy.iter().map(|&(s, _)| (s, 10.0)).collect();
        assert_eq!(verdict(&noisy, &much_faster, true, 0.1), "better in every run");
    }
}
