//! `--repeat N`: what the driver does before it accepts the benchmark. Two
//! sets of N runs per workload, each run a fresh process with another
//! seed; per metric and workload the median, the quartiles and their
//! distance as a share of the median against the bound of BENCHMARK.json;
//! then the second set's median against the first's.

use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::WORKLOADS;

const SETS: usize = 2;

struct Bound {
    name: String,
    better_lower: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                better_lower: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// One child run; returns its metrics by name.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let fail = |why: &str| format!("{workload} seed {seed}: {why}: {last}");
    if !out.status.success() {
        return Err(fail("run failed"));
    }
    let line = Json::parse(last).map_err(|e| fail(&e))?;
    if line.get("correct") != Some(&Json::Bool(true)) {
        return Err(fail("incorrect results"));
    }
    match line.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.get("value")
                    .and_then(Json::as_f64)
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| fail("metric without a value"))
            })
            .collect(),
        _ => Err(fail("no metrics")),
    }
}

pub fn run(n: usize, seed: u64, seconds: f64, out: Option<&str>) -> Result<ExitCode, String> {
    if n < 2 {
        return Err("--repeat needs at least 2 runs per set".into());
    }
    let bounds = bounds()?;
    println!(
        "# blend benchmark --repeat {n}  sets={SETS}  seeds={seed}..{}  seconds={seconds}",
        seed + n as u64 - 1
    );
    let mut breaches = 0;
    let mut all = Vec::new();
    for workload in WORKLOADS {
        // medians[set][metric]
        let mut medians: Vec<Vec<f64>> = Vec::new();
        for set in 1..=SETS {
            let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
            for i in 0..n as u64 {
                let run = child(workload, seed + i, seconds)?;
                for (slot, b) in values.iter_mut().zip(&bounds) {
                    let v = run
                        .iter()
                        .find(|(k, _)| *k == b.name)
                        .ok_or(format!("{workload}: no metric {}", b.name))?;
                    slot.push(v.1);
                }
            }
            println!("\n{workload}  set {set}");
            println!(
                "  {:<22} {:>12} {:>12} {:>12} {:>8} {:>6}",
                "metric", "median", "q1", "q3", "iqr/med", "bound"
            );
            let mut set_medians = Vec::new();
            for (v, b) in values.iter().zip(&bounds) {
                let [q1, _, q3] = quartiles(v).expect("n >= 2");
                let med = median(v);
                let spread = (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
                // The driver exempts setup_s from the spread rule.
                let breach = spread > b.bound && b.name != "setup_s";
                breaches += breach as usize;
                println!(
                    "  {:<22} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>6.2}{}",
                    b.name,
                    med,
                    q1,
                    q3,
                    spread,
                    b.bound,
                    if breach { "  BREACH" } else { "" }
                );
                set_medians.push(med);
                all.push(Json::obj([
                    ("workload", Json::str(workload)),
                    ("set", Json::from(set)),
                    ("metric", Json::str(&b.name)),
                    (
                        "values",
                        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                    ("median", Json::Num(med)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(spread)),
                    ("bound", Json::Num(b.bound)),
                ]));
            }
            medians.push(set_medians);
        }
        println!("\n{workload}  set {SETS} against set 1");
        for (i, b) in bounds.iter().enumerate() {
            let (first, last) = (medians[0][i], medians[SETS - 1][i]);
            let worse = if b.better_lower {
                (last - first) / first
            } else {
                (first - last) / first
            };
            let breach = worse > b.bound;
            breaches += breach as usize;
            println!(
                "  {:<22} {:>12.4} -> {:>12.4}  worse by {:>7.4} (bound {:.2}){}",
                b.name,
                first,
                last,
                worse,
                b.bound,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    println!("\nbreaches: {breaches}");
    if let Some(path) = out {
        let report = Json::obj([
            ("runs_per_set", Json::from(n)),
            ("sets", Json::from(SETS)),
            ("first_seed", Json::from(seed)),
            ("seconds", Json::Num(seconds)),
            ("breaches", Json::from(breaches)),
            ("series", Json::Arr(all)),
            ("claim", Json::Null),
        ]);
        std::fs::write(path, report.render() + "\n").map_err(|e| format!("--out {path}: {e}"))?;
    }
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
