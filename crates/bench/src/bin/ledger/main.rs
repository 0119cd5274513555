//! `ledger`: the end-to-end benchmark of the DA → TCP query server →
//! verifying client path, and the per-layer ledger from a traced run.
//!
//! ```text
//! ledger --workload <w> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>] [--smoke]
//! ledger all --seed <n> [--seconds <s>] [--out <set.json>]
//! ledger compare <a.json> <b.json>
//! ```
//!
//! The first form is the `BENCHMARK.json` contract: the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` — every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. (`run` and `trace` are accepted as leading words
//! for `--trace 0` and `--trace 1`.) The exit code is non-zero when an
//! honest answer was rejected, a tamper probe was accepted, an operation
//! failed, or a replayed layer disagreed with the network path. See
//! `README.md` beside this file.

mod json;
mod report;
mod runner;
mod stats;
mod sut;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use report::{Outcome, Plan};
use workload::{Spec, WORKLOADS};

const USAGE: &str = "usage:
  ledger --workload <point_bas|range_live_bas|bulk_mock|churn_mock> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>] [--smoke]
  ledger all --seed <n> [--seconds <s>] [--out <set.json>]
  ledger compare <a.json> <b.json>";

/// Flags of the run forms, in any order.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    spans_out: Option<String>,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans-out" => f.spans_out = Some(value.clone()),
            "--out" => f.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

/// The measure phase `BENCHMARK.json` fixes (`run_seconds`), used when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 24.0;

fn run_one(f: &Flags) -> Result<Outcome, String> {
    let name = f.workload.as_deref().ok_or("--workload is required")?;
    let spec = Spec::by_name(name).ok_or(format!("unknown workload `{name}`"))?;
    let plan = Plan {
        seconds: f
            .seconds
            .unwrap_or(if f.smoke { 0.1 } else { DEFAULT_SECONDS }),
        smoke: f.smoke,
    };
    Ok(if f.trace {
        report::traced(spec, f.seed, plan, f.spans_out.as_deref())
    } else {
        report::end_to_end(spec, f.seed, plan)
    })
}

/// `BENCHMARK.json`, found upwards of where this binary was built from (it
/// builds both as its own package and as a binary of `authdb-bench`), then
/// upwards of the working directory.
fn benchmark_json() -> Result<Json, String> {
    let built_from = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let path = built_from
        .ancestors()
        .chain(cwd.ancestors())
        .map(|dir| dir.join("BENCHMARK.json"))
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One end-to-end run is at the mercy of the host for its half minute; a
/// set holds this many per workload and `compare` takes their medians.
const RUNS_PER_SET: usize = 3;

/// One contract-form run in a process of its own (peak RSS is per process).
fn child_run(f: &Flags, seconds: f64, workload: &str, trace: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--workload", workload, "--trace", trace])
        .args(["--seed", &f.seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if f.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last)
        .map_err(|e| format!("{workload} --trace {trace}: no result line ({e})"))?;
    if !out.status.success() {
        return Err(format!("{workload} --trace {trace} failed: {last}"));
    }
    Ok(result)
}

/// Run every workload both ways and collect one set: a header and, per
/// workload, every end-to-end run made and the traced run.
fn all(f: &Flags) -> Result<Json, String> {
    let seconds = f.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut workloads = Vec::new();
    for spec in WORKLOADS {
        let runs = (0..RUNS_PER_SET)
            .map(|_| child_run(f, seconds, spec.name, "0"))
            .collect::<Result<Vec<_>, _>>()?;
        let both = vec![
            ("end_to_end", Json::Arr(runs)),
            ("per_layer", child_run(f, seconds, spec.name, "1")?),
        ];
        workloads.push((spec.name, Json::obj(both)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    Ok(Json::obj(vec![
        (
            "header",
            Json::obj(vec![
                ("nproc", Json::Num(nproc as f64)),
                ("rustc", Json::Str(command_line("rustc", &["--version"]))),
                (
                    "commit",
                    Json::Str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("seed", Json::Num(f.seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("smoke", Json::Bool(f.smoke)),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]))
}

/// Multi-line encoding of a set: one workload result per line, so a diff of
/// two sets reads row by row.
fn encode_set(set: &Json) -> String {
    let mut out = String::from("{\n");
    out += &format!(
        "\"header\": {},\n\"workloads\": {{\n",
        set.get("header").map_or("null".into(), Json::encode)
    );
    let workloads = set.get("workloads").map_or(&[][..], Json::fields);
    for (i, (name, both)) in workloads.iter().enumerate() {
        out += &format!("\"{name}\": {{\n");
        for (j, (key, result)) in both.fields().iter().enumerate() {
            let comma = if j + 1 < both.fields().len() { "," } else { "" };
            out += &format!("  \"{key}\": {}{comma}\n", result.encode());
        }
        out += if i + 1 < workloads.len() {
            "},\n"
        } else {
            "}\n"
        };
    }
    out + "}\n}\n"
}

/// One row of `compare`: how far `b` is worse than `a`, as a share of `a`.
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// Apply `BENCHMARK.json`'s bounds to two sets: `a` is the base, `b` the
/// candidate. Prints one row per (workload, end-to-end metric) with both
/// medians over the sets' runs and the ratio b/a; returns whether every pair
/// is within bound and every run of both sets is clean.
fn compare(bench: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let workloads = bench
        .get("workloads")
        .ok_or("BENCHMARK.json: no workloads")?;
    for w in workloads.as_arr() {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload name")?;
        let side = |set: &Json| -> Result<Vec<Json>, String> {
            set.get("workloads")
                .and_then(|ws| ws.get(name))
                .and_then(|both| both.get("end_to_end"))
                .map(|runs| runs.as_arr().to_vec())
                .filter(|runs| !runs.is_empty())
                .ok_or(format!("a set lacks the end-to-end runs of {name}"))
        };
        let (ra, rb) = (side(a)?, side(b)?);
        for r in ra.iter().chain(&rb) {
            let clean = r.get("correct") == Some(&Json::Bool(true))
                && r.get("failed").and_then(Json::as_f64) == Some(0.0);
            if !clean {
                println!("{name:<16} a run is incorrect or has failed operations");
                ok = false;
            }
        }
        let metrics = bench
            .get("end_to_end")
            .ok_or("BENCHMARK.json: no end_to_end")?;
        for m in metrics.as_arr() {
            let metric = m.get("name").and_then(Json::as_str).ok_or("metric name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("better")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("bound")?;
            let median = |runs: &[Json]| -> Result<f64, String> {
                let values = runs
                    .iter()
                    .map(|r| {
                        r.get("metrics")
                            .and_then(|ms| ms.get(metric))
                            .and_then(|v| v.get("value"))
                            .and_then(Json::as_f64)
                            .ok_or(format!("{name}: a run has no value for {metric}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(stats::median(&values))
            };
            let (va, vb) = (median(&ra)?, median(&rb)?);
            let regressed = worsening(better, va, vb) > bound;
            ok &= !regressed;
            println!(
                "{name:<16} {metric:<18} {va:>14.4} {vb:>14.4} {:>9.4} {:>6.0}%  {}",
                vb / va,
                bound * 100.0,
                if regressed { "REGRESSION" } else { "ok" }
            );
        }
    }
    Ok(ok)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare takes two set files".into());
            };
            compare(&benchmark_json()?, &load(a)?, &load(b)?)
        }
        Some("all") => {
            let f = parse_flags(&args[1..])?;
            let set = encode_set(&all(&f)?);
            match &f.out {
                Some(path) => std::fs::write(path, set).map_err(|e| format!("{path}: {e}"))?,
                None => print!("{set}"),
            }
            Ok(true)
        }
        Some(word) => {
            // `run` / `trace` as a leading word stand for `--trace 0` / `1`.
            let named = matches!(word, "run" | "trace");
            let mut f = parse_flags(&args[usize::from(named)..])?;
            f.trace |= word == "trace";
            let outcome = run_one(&f)?;
            println!("{}", outcome.to_json().encode());
            Ok(outcome.correct)
        }
        None => Err("no arguments".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let f = Flags {
            workload: Some(workload.into()),
            seed: 11,
            trace,
            smoke: true,
            ..Flags::default()
        };
        run_one(&f).expect("smoke run")
    }

    #[test]
    fn mock_workloads_run_end_to_end_under_smoke() {
        for workload in ["bulk_mock", "churn_mock"] {
            for trace in [false, true] {
                let o = smoke(workload, trace);
                assert!(o.correct, "{workload} trace={trace}");
                assert_eq!(o.failed, 0);
                assert!(o.attempted > 0);
                assert!(o.metrics.iter().all(|m| m.1.is_finite()), "{workload}");
                assert_eq!(o.to_json().get("smoke"), Some(&Json::Bool(true)));
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_runs_emit() {
        let bench = benchmark_json().expect("BENCHMARK.json parses");
        let plain = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let listed = |key: &str, field: &str| -> Vec<String> {
            let items = bench.get(key).expect(key).as_arr();
            items
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Json::as_str)
                        .expect(field)
                        .to_string()
                })
                .collect()
        };

        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed("workloads", "name"), names);

        // Every workload emits the same metric list; one smoke run of each
        // kind stands for all.
        let emitted = |o: &Outcome| -> Vec<(String, String)> {
            o.metrics
                .iter()
                .map(|m| (m.0.to_string(), m.2.to_string()))
                .collect()
        };
        let pairs = |key: &str| -> Vec<(String, String)> {
            listed(key, "name")
                .into_iter()
                .zip(listed(key, "unit"))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), emitted(&smoke("churn_mock", false)));
        assert_eq!(pairs("per_layer"), emitted(&smoke("churn_mock", true)));
        for name in listed("end_to_end", "name")
            .iter()
            .chain(&listed("per_layer", "name"))
            .chain(&listed("workloads", "name"))
        {
            assert!(plain(name), "{name}");
        }

        // Bounds: the documented ones, none above the contract's cap, and
        // set-up time carries the largest.
        let bounds: Vec<(String, f64)> = bench
            .get("end_to_end")
            .expect("end_to_end")
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name").into(),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let largest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
            if name == "setup_s" {
                assert_eq!(*bound, largest);
            }
        }
        assert_eq!(
            bench.get("paths").expect("paths").as_arr(),
            [Json::str("crates/bench/src/bin/ledger")]
        );
    }

    #[test]
    fn compare_applies_direction_and_bound() {
        // Throughput: 100 → 88 is 12 % worse; latency: 4.0 → 4.5 is 12.5 % worse.
        assert!((worsening("higher", 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!((worsening("lower", 4.0, 4.5) - 0.125).abs() < 1e-12);
        assert!(worsening("higher", 100.0, 120.0) < 0.0);

        let bench = Json::parse(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .expect("bench");
        let set = |values: &[f64]| {
            let runs: Vec<String> = values
                .iter()
                .map(|v| {
                    format!(
                        r#"{{"correct": true, "failed": 0,
                            "metrics": {{"ops_per_s": {{"value": {v}, "unit": "1/s"}}}}}}"#
                    )
                })
                .collect();
            let text = format!(
                r#"{{"workloads": {{"w": {{"end_to_end": [{}]}}}}}}"#,
                runs.join(",")
            );
            Json::parse(&text).expect("set")
        };
        assert_eq!(compare(&bench, &set(&[100.0]), &set(&[95.0])), Ok(true));
        assert_eq!(compare(&bench, &set(&[100.0]), &set(&[85.0])), Ok(false));
        // Medians over a set's runs: one run caught in a host hiccup does
        // not make a regression, two do.
        let base = set(&[100.0, 101.0, 99.0]);
        assert_eq!(compare(&bench, &base, &set(&[60.0, 98.0, 97.0])), Ok(true));
        assert_eq!(compare(&bench, &base, &set(&[60.0, 61.0, 97.0])), Ok(false));
        assert!(compare(&bench, &base, &Json::obj(vec![])).is_err());
        // encode_set's layout re-parses to the same value.
        let s = Json::obj(vec![
            ("header", Json::obj(vec![("seed", Json::Num(1.0))])),
            (
                "workloads",
                set(&[3.0]).get("workloads").expect("w").clone(),
            ),
        ]);
        assert_eq!(Json::parse(&encode_set(&s)).expect("set re-parses"), s);
    }
}
