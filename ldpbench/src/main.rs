//! `ldpbench` — the repository's benchmark: a report's life end to end
//! and layer by layer, on four workloads. See `README.md` beside
//! `Cargo.toml` for the glossary and the interaction table.
//!
//! ```text
//! ldpbench [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--out <file>]
//! ldpbench compare <a.json> <b.json>
//! ```
//!
//! Each workload run prints `workload metric value unit` lines on
//! standard error and, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod json;
mod ladder;
mod metrics;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use metrics::{Metrics, Named};
use run::{Job, Ops, Res};
use sut::{Haar, Hh, Mech};
use trace::Recorder;
use workloads::{Mechanism, Spec, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => args.out = Some(value("a path")?.into()),
            // Both `--trace` and `--trace 0|1` are accepted.
            "--trace" => match argv.next() {
                Some(v) if v == "0" || v == "1" => args.trace = v == "1",
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// One workload's result.
struct Outcome {
    metrics: Metrics,
    ops: Ops,
}

impl Outcome {
    /// The contract's result object, holding exactly the metrics in
    /// `names`: the end-to-end ones of an untraced run or the per-layer
    /// ones of a traced run.
    fn to_json(&self, names: &[Named]) -> Res<Json> {
        Ok(Json::obj([
            ("correct", Json::Bool(self.ops.failed == 0)),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            ("metrics", self.metrics.to_json(names)?),
        ]))
    }
}

/// The metrics a run in this mode must report.
fn contract_names(traced: bool) -> Vec<Named> {
    if traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    }
}

/// Where this process may write: under the build directory the caller
/// named, else `target/` of the working directory.
fn scratch_base() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("ldpbench")
}

fn run_workload(spec: &Spec, args: &Args, base: &Path) -> Res<Outcome> {
    match spec.mechanism {
        Mechanism::HaarHrr => run_with(spec, &Haar::new(spec.domain)?, args, base),
        m => run_with(spec, &Hh::new(m, spec.domain)?, args, base),
    }
}

fn run_with<M: Mech>(spec: &Spec, mech: &M, args: &Args, base: &Path) -> Res<Outcome> {
    let traced = args.trace;
    let scratch = base.join(format!("{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let job = Job {
        spec,
        mech,
        seed: args.seed,
        scratch: &scratch,
    };
    let result = (|| {
        let origin = Instant::now();
        let (mut e2e, inputs) = run::end_to_end(&job, args.seconds, traced.then_some(origin))?;
        let mut metrics = std::mem::take(&mut e2e.metrics);
        let mut ops = std::mem::take(&mut e2e.ops);
        if traced {
            let mut rec = Recorder::new(origin, true, 1 << 41);
            let ran = ladder::run(&job, &inputs, &e2e, &mut rec, &mut metrics, &mut ops);
            ops.attempt(ran, "ladders");
            e2e.spans.extend(rec.spans);
            metrics.set("trace.harness_self_pct", harness_self_pct(&e2e.spans));
            let path = base.join(format!("trace-{}.jsonl", spec.name));
            trace::write_jsonl(&path, &e2e.spans).map_err(|e| e.to_string())?;
        }
        if let Some(seal) = e2e.seal_p50_us {
            eprintln!("{} seal_p50_us {seal} us", spec.name);
        }
        Ok(Outcome { metrics, ops })
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Share of the traced ingest passes the load generator spent outside
/// its calls into the client: the span self time of the pass spans.
fn harness_self_pct(spans: &[trace::Span]) -> f64 {
    let selfs = trace::self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for pass in spans.iter().filter(|s| s.name == "ingest_pass") {
        own += selfs[&pass.id];
        total += pass.duration_ns();
    }
    100.0 * own as f64 / total.max(1) as f64
}

fn host_stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([("nproc", Json::Num(nproc as f64)), ("cpu", Json::Str(cpu))])
}

/// The checked-out commit, read from `.git` without running git; a
/// source export has none.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn bench(args: &Args) -> Res<bool> {
    let specs: Vec<&Spec> = match &args.workload {
        Some(name) => vec![workloads::find(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; known: {}", known.join(", "))
        })?],
        None => WORKLOADS.iter().collect(),
    };
    let base = scratch_base();
    std::fs::create_dir_all(&base).map_err(|e| e.to_string())?;
    let names = contract_names(args.trace);
    let mut all_ok = true;
    let mut results = Vec::new();
    for spec in specs {
        eprintln!("# {}: {}", spec.name, spec.why);
        let outcome = run_workload(spec, args, &base)?;
        for (name, unit) in &names {
            if let Some(value) = outcome.metrics.get(name) {
                eprintln!("{} {name} {value} {unit}", spec.name);
            }
        }
        eprintln!(
            "{} ops_attempted {} count",
            spec.name, outcome.ops.attempted
        );
        eprintln!("{} ops_failed {} count", spec.name, outcome.ops.failed);
        for note in &outcome.ops.notes {
            eprintln!("{} FAILED {note}", spec.name);
        }
        all_ok &= outcome.ops.failed == 0;
        let json = outcome.to_json(&names)?;
        println!("{json}");
        results.push((spec.name, json));
    }
    if let Some(path) = &args.out {
        let file = Json::obj([
            ("benchmark", Json::Str("ldpbench".into())),
            // This benchmark is the yardstick; it claims no gain.
            ("claim", Json::Null),
            ("host", host_stamp()),
            ("commit", Json::Str(commit())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("workloads", Json::obj(results)),
        ]);
        std::fs::write(path, format!("{file}\n")).map_err(|e| e.to_string())?;
    }
    Ok(all_ok)
}

fn compare_files(a: &str, b: &str) -> Res<bool> {
    let read = |path: &str| -> Res<Json> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bounds = compare::bounds(&read("BENCHMARK.json")?)?;
    let (lines, ok) = compare::compare(&read(a)?, &read(b)?, &bounds)?;
    for line in lines {
        println!("{line}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        match &argv[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("usage: ldpbench compare <a.json> <b.json>".into()),
        }
    } else {
        parse_args(argv.into_iter()).and_then(|args| bench(&args))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ldpbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |words: &[&str]| parse_args(words.iter().map(|w| w.to_string())).unwrap();
        let a = parse(&[
            "--workload",
            "w",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]);
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("w"), 7, 3.0, false)
        );
        assert!(parse(&["--trace", "1"]).trace);
        let b = parse(&["--trace", "--seed", "9"]);
        assert!(b.trace && b.seed == 9);
        assert!(parse(&["--trace"]).trace);
        assert!(parse_args(["--seconds", "0"].iter().map(|w| w.to_string())).is_err());
        assert!(parse_args(["--bogus"].iter().map(|w| w.to_string())).is_err());
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary emits, with their units, and runs as long as `--seconds`
    /// defaults to.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<(String, String)> {
            let items = contract.get(key).unwrap().as_arr().unwrap();
            items
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (text("name"), text(field))
                })
                .collect()
        };
        let owned = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|&(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed("workloads", "why"), owned(&workloads));
        assert_eq!(listed("end_to_end", "unit"), owned(&metrics::END_TO_END));
        let layer: Vec<(String, String)> = metrics::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer", "unit"), layer);
        for bound in compare::bounds(&contract).unwrap() {
            assert!(bound.bound > 0.0 && bound.bound <= 0.25, "{bound:?}");
        }
        let paths = contract.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths, [Json::Str("ldpbench".into())]);
    }

    /// Every workload at 1/1000 scale, traced and untraced: every named
    /// metric is emitted and no operation fails.
    #[test]
    fn every_workload_emits_every_metric_at_small_scale() {
        let base = scratch_base().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        for spec in &WORKLOADS {
            let small = spec.scaled_down(1000);
            for traced in [false, true] {
                let args = Args {
                    workload: None,
                    seed: 42,
                    seconds: 0.01,
                    trace: traced,
                    out: None,
                };
                let outcome = run_workload(&small, &args, &base)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", spec.name));
                assert_eq!(
                    outcome.ops.failed, 0,
                    "{}: {:?}",
                    spec.name, outcome.ops.notes
                );
                assert!(outcome.ops.attempted > 0);
                let names = contract_names(traced);
                let json = outcome.to_json(&names).unwrap();
                assert_eq!(json.get("metrics").unwrap().entries().len(), names.len());
                if traced {
                    // The ladders read the end-to-end figures they relate to.
                    for name in ["net.query_fresh_ns", "ladder.ingest_sum_over_e2e"] {
                        assert!(outcome.metrics.get(name).unwrap() > 0.0, "{name}");
                    }
                }
                assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }
}
