//! The repository's benchmark: discovery plans end to end on four
//! workloads, with a per-layer traced run. See README.md beside Cargo.toml.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out path]
//! benchmark --check [--seed n]
//! benchmark --repeat <N> [--seed n] [--seconds s] [--out path]
//! ```

mod direct;
mod inputs;
mod json;
mod layers;
mod oracle;
mod repeat;
mod run;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;

use direct::Direct;
use inputs::Inputs;
use json::Json;
use run::{Outcome, Workload};
use served::{Kind, Served};

pub const WORKLOADS: [&str; 4] = [
    "seekers_direct",
    "tasks_direct",
    "served_zipf",
    "served_rebuild",
];

/// Lake scale and op counts of one run. Beside each count, what ISSUE 11
/// asked for; README.md "Scaling" has the reasons.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Lake scale (1.0 ≈ 1.1 M `AllTables` rows).
    pub scale: f64,
    /// `seekers_direct` runs 6 × this many plans per pass (80).
    pub seekers_per_class: usize,
    /// `tasks_direct` runs 5 × this many plans per pass (40).
    pub tasks_per_kind: usize,
    /// `served_zipf` has 6 × this many templates (1024 in all).
    pub zipf_templates_per_class: usize,
    /// Per pass, both clients together (6000).
    pub zipf_requests: usize,
    /// `served_rebuild` has 6 × this many templates (128 in all).
    pub rebuild_templates_per_class: usize,
    /// Requests after the last swap of a pass (500).
    pub rebuild_requests: usize,
    /// One SC/KW/MC operation in this many is checked against the
    /// brute-force oracle.
    pub ground_truth_every: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        scale: 1.0,
        seekers_per_class: 40,
        tasks_per_kind: 40,
        zipf_templates_per_class: 40,
        zipf_requests: 800,
        rebuild_templates_per_class: 5,
        rebuild_requests: 500,
        ground_truth_every: 20,
    };

    /// `--check`: a lake of about 36 k rows and a handful of operations.
    pub const CHECK: Sizes = Sizes {
        scale: 0.015,
        seekers_per_class: 5,
        tasks_per_kind: 3,
        zipf_templates_per_class: 5,
        zipf_requests: 200,
        rebuild_templates_per_class: 2,
        rebuild_requests: 40,
        ground_truth_every: 1,
    };

    /// Correlation-benchmark queries and union-benchmark clusters planted
    /// in the lake: one per C seeker and per task instance.
    fn planted(&self) -> usize {
        self.seekers_per_class
            .max(self.tasks_per_kind)
            .max(self.zipf_templates_per_class)
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    check: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
        check: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = parse(&value("--seed")?, "--seed")?,
            "--seconds" => args.seconds = parse(&value("--seconds")?, "--seconds")?,
            "--out" => args.out = Some(value("--out")?),
            "--repeat" => args.repeat = Some(parse(&value("--repeat")?, "--repeat")?),
            "--check" => args.check = true,
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read `{text}`"))
}

fn with_workload<R>(
    name: &str,
    inputs: &mut Inputs,
    seed: u64,
    sizes: &Sizes,
    f: impl FnOnce(&dyn ErasedWorkload) -> R,
) -> Result<R, String> {
    Ok(match name {
        "seekers_direct" => f(&Direct::seekers(
            inputs,
            seed,
            inputs.seeker_ops(sizes.seekers_per_class),
            sizes.ground_truth_every,
        )),
        "tasks_direct" => f(&Direct::tasks(
            inputs,
            seed,
            inputs.task_ops(sizes.tasks_per_kind),
        )),
        "served_zipf" => f(&Served::new(
            inputs,
            seed,
            Kind::Zipf,
            sizes.zipf_templates_per_class,
            sizes.zipf_requests,
        )),
        "served_rebuild" => f(&Served::new(
            inputs,
            seed,
            Kind::Rebuild,
            sizes.rebuild_templates_per_class,
            sizes.rebuild_requests,
        )),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// The generic entry points of [`run`] behind one object-safe face, so the
/// workload can be chosen by name at run time.
trait ErasedWorkload {
    fn end_to_end(&self, seconds: f64, cells: usize) -> Outcome;
    fn traced(&self) -> Outcome;
    fn check(&self) -> run::Checked;
}

impl<W: Workload> ErasedWorkload for W {
    fn end_to_end(&self, seconds: f64, cells: usize) -> Outcome {
        run::end_to_end(self, seconds, cells)
    }

    fn traced(&self) -> Outcome {
        run::traced(self)
    }

    fn check(&self) -> run::Checked {
        run::check(self)
    }
}

/// `BLEND_*` variables change what the program does (`BLEND_FAULTS`,
/// `BLEND_MEMORY_BUDGET`, `BLEND_RESULT_CACHE_BYTES`, `BLEND_OBS`,
/// `BLEND_THREADS`, ...): warn, and record them with the results.
fn blend_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BLEND_"))
        .collect();
    vars.sort();
    for (k, v) in &vars {
        eprintln!("warning: {k}={v} is set in the environment and skews the results");
    }
    vars
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn metadata(args: &Args, sizes: &Sizes, inputs: &Inputs, env: &[(String, String)]) -> Json {
    let lake = inputs.lake.stats();
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("seed", Json::from(args.seed)),
        ("dataset_seed", Json::from(inputs.seed)),
        ("scale", Json::Num(sizes.scale)),
        ("seconds", Json::Num(args.seconds)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        (
            "pool_threads",
            Json::from(blend_parallel::ParallelCtx::shared_from_env().threads()),
        ),
        (
            "simd_dispatch",
            Json::str(if blend_simd::enabled() {
                "vector"
            } else {
                "scalar"
            }),
        ),
        ("avx2_detected", Json::Bool(avx2)),
        ("storage_engine", Json::str("column")),
        (
            "lake",
            Json::obj([
                ("tables", Json::from(lake.tables)),
                ("columns", Json::from(lake.columns)),
                ("rows", Json::from(lake.rows)),
                ("cells", Json::from(lake.cells)),
            ]),
        ),
        (
            "blend_env",
            Json::obj(env.iter().map(|(k, v)| (k.clone(), Json::str(v)))),
        ),
    ])
}

fn metrics_json(outcome: &Outcome) -> Json {
    Json::obj(outcome.metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// The last line of standard output: exactly the keys the driver reads.
fn contract_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(outcome)),
    ])
    .render()
}

fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let env = blend_env();
    let sizes = Sizes::FULL;
    let mut inputs = Inputs::generate(inputs::DATASET_SEED, sizes.scale, sizes.planted());
    let cells = inputs.lake.stats().cells;
    let outcome = with_workload(name, &mut inputs, args.seed, &sizes, |w| {
        if args.trace {
            w.traced()
        } else {
            w.end_to_end(args.seconds, cells)
        }
    })?;
    let mode = if args.trace { "traced" } else { "end_to_end" };
    println!(
        "# blend benchmark  workload={name}  mode={mode}  seed={}",
        args.seed
    );
    for (metric, value, unit) in &outcome.metrics {
        println!("{metric:<34} {value:>16.4} {unit}");
    }
    let mut report = vec![
        ("benchmark".to_string(), Json::str("blend")),
        ("workload".to_string(), Json::str(name)),
        ("mode".to_string(), Json::str(mode)),
        ("meta".to_string(), metadata(args, &sizes, &inputs, &env)),
        ("correct".to_string(), Json::Bool(outcome.failed == 0)),
        ("attempted".to_string(), Json::from(outcome.attempted)),
        ("failed".to_string(), Json::from(outcome.failed)),
        ("metrics".to_string(), metrics_json(&outcome)),
        ("details".to_string(), outcome.details.clone()),
        // This benchmark fixes names; it claims no gain.
        ("claim".to_string(), Json::Null),
    ];
    println!("{}", Json::Obj(report.clone()).render());
    if let Some(path) = &args.out {
        if args.trace {
            let at = report.len() - 1;
            report.insert(at, ("spans".to_string(), trace::spans_json(&outcome.spans)));
        }
        std::fs::write(path, Json::Obj(report).render() + "\n")
            .map_err(|e| format!("--out {path}: {e}"))?;
    }
    println!("{}", contract_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// `--check`: every workload once on a small lake, results only.
fn check_all(args: &Args) -> Result<ExitCode, String> {
    blend_env();
    let sizes = Sizes::CHECK;
    let mut inputs = Inputs::generate(inputs::DATASET_SEED, sizes.scale, sizes.planted());
    let lake = inputs.lake.stats();
    println!(
        "# blend benchmark --check  seed={}  lake: {} tables, {} cells",
        args.seed, lake.tables, lake.cells
    );
    let mut failed = 0;
    for name in WORKLOADS {
        let c = with_workload(name, &mut inputs, args.seed, &sizes, |w| w.check())?;
        println!(
            "{name:<16} checked {:>5}  failed {:>3}",
            c.attempted, c.failed
        );
        failed += c.failed;
    }
    println!(
        "{}",
        if failed == 0 {
            "check: ok"
        } else {
            "check: FAILED"
        }
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.check {
            check_all(&args)
        } else if let Some(n) = args.repeat {
            repeat::run(n, args.seed, args.seconds, args.out.as_deref())
        } else {
            let name = args
                .workload
                .clone()
                .ok_or("--workload <name> is required (or --check, or --repeat N)")?;
            run_one(&args, &name)
        }
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json is the contract; the code must emit exactly what it
    /// lists, in its order.
    #[test]
    fn benchmark_json_lists_what_the_code_emits() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string())
                        .collect()
                })
                .collect()
        };
        let ours = |table: &[(&str, &str, &str)]| -> Vec<Vec<String>> {
            table
                .iter()
                .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()])
                .collect()
        };
        let fields = ["name", "unit", "better"];
        assert_eq!(listed("end_to_end", &fields), ours(run::END_TO_END));
        assert_eq!(listed("per_layer", &fields), ours(layers::PER_LAYER));
        let names: Vec<Vec<String>> = WORKLOADS.iter().map(|w| vec![w.to_string()]).collect();
        assert_eq!(listed("workloads", &["name"]), names);
    }

    #[test]
    fn every_pass_holds_200_operations() {
        let s = Sizes::FULL;
        assert!(s.seekers_per_class * inputs::SeekerClass::ALL.len() >= 200);
        assert!(s.tasks_per_kind * inputs::Task::ALL.len() >= 200);
        assert!(s.zipf_requests / served::ZIPF_CLIENTS >= 200);
        assert!(s.rebuild_requests >= 200);
    }
}
