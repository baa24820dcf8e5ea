//! End-to-end benchmark of the EM workflow, the streaming executor and the
//! serve tier. `BENCHMARK.json` at the repository root is the contract;
//! `README.md` beside this crate says what every metric means.
//!
//! ```text
//! em-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! em-benchmark all [--seed N] [--seconds S] [--out FILE]
//! em-benchmark agree <FILE_A> <FILE_B>
//! ```
//!
//! A workload run prints a table of every metric by name with its unit and,
//! as its last line, the JSON object the driver reads: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. `all`
//! runs every workload both ways, each in its own child process, so peak
//! memory is per workload. `agree` compares two `all` outputs against the
//! bounds in `BENCHMARK.json`.

mod gen;
mod json;
mod openloop;
mod report;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::{BenchSpec, Header, Report};
use std::collections::BTreeSet;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

/// Default seed: the one the repository's reproduction runs use.
const DEFAULT_SEED: u64 = 20190326;

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--out" => a.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if a.command.is_none() && a.workload.is_none() => a.command = Some(word.into()),
            word => a.positional.push(word.into()),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let spec = BenchSpec::load()?;
        match args.command.as_deref() {
            None => run_workload(&args, &spec),
            Some("all") => run_all(&args, &spec),
            Some("agree") => agree(&args, &spec),
            Some(other) => Err(format!(
                "unknown command {other:?}; see benchmark/README.md"
            )),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("em-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. `Ok(false)` when an output check failed.
fn run_workload(args: &Args, spec: &BenchSpec) -> Result<bool, String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("--workload <name> is required")?;
    if !spec.workloads.iter().any(|w| w == name) {
        return Err(format!(
            "workload {name:?} is not in BENCHMARK.json: {:?}",
            spec.workloads
        ));
    }
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds,
        trace: args.trace,
    };
    let mut report = Report::new(Header::capture(name, args.seed, seconds, args.trace));
    let mut tracer = Tracer::new(args.trace);
    workloads::run(name, &ctx, &mut report, &mut tracer).map_err(|e| format!("{name}: {e}"))?;

    report.print_table();
    if args.trace {
        let path = report::out_dir().join(format!("trace-{name}.json"));
        tracer
            .write_json(&path)
            .map_err(|e| format!("write {path:?}: {e}"))?;
        println!("# {} spans -> {}", tracer.spans().len(), path.display());
        println!(
            "# {:<40} {:>8} {:>14} {:>14}",
            "span", "count", "total s", "self s"
        );
        for (span, t) in tracer.totals() {
            println!(
                "# {span:<40} {:>8} {:>14.6} {:>14.6}",
                t.count, t.total_s, t.self_s
            );
        }
    }
    let side = report
        .write_side_file()
        .map_err(|e| format!("write result file: {e}"))?;
    println!("# details -> {}", side.display());
    let wanted = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!("{}", report.result_line(wanted, args.trace)?);
    Ok(report.correct())
}

/// The result line of a child process's standard output: its last line.
fn last_line(stdout: &str) -> Option<&str> {
    stdout.lines().rev().find(|l| !l.trim().is_empty())
}

/// Every workload, untraced then traced, each in a child process.
fn run_all(args: &Args, spec: &BenchSpec) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let mut lines = Vec::new();
    let mut ok = true;
    let mut measured: BTreeSet<String> = BTreeSet::new();
    for workload in &spec.workloads {
        for trace in [0u8, 1] {
            let child = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            let line = last_line(&stdout).unwrap_or("");
            let parsed = Json::parse(line).ok();
            let correct = parsed
                .as_ref()
                .and_then(|j| j.get("correct"))
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if !child.status.success() || !correct {
                eprintln!(
                    "em-benchmark: {workload} --trace {trace} failed ({})",
                    child.status
                );
                ok = false;
                continue;
            }
            lines.push(format!(
                "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"seed\": {}, \"result\": {line}}}",
                args.seed
            ));
            if trace == 1 {
                // Which per-layer metrics this workload measured (the rest of
                // its result line are layers it never enters, printed as 0).
                let side = report::out_dir().join(format!("result-{workload}-trace1.json"));
                let text = std::fs::read_to_string(&side).map_err(|e| format!("{side:?}: {e}"))?;
                let j = Json::parse(&text)?;
                if let Some(reg) = j.get("registered") {
                    measured.extend(reg.entries().iter().map(|(k, _)| k.clone()));
                }
            }
        }
    }
    // Every registered per-layer metric must be measured by some workload,
    // and nothing may be measured under a name BENCHMARK.json does not have.
    let registered: BTreeSet<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
    for name in registered.difference(&measured) {
        eprintln!("em-benchmark: per-layer metric {name:?} is measured by no workload");
        ok = false;
    }
    for name in measured.difference(&registered) {
        eprintln!("em-benchmark: metric {name:?} is measured but not in BENCHMARK.json");
        ok = false;
    }
    if let Some(path) = &args.out {
        let mut f = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        for l in &lines {
            writeln!(f, "{l}").map_err(|e| format!("write {path}: {e}"))?;
        }
        println!("# {} result lines -> {path}", lines.len());
    }
    Ok(ok)
}

/// `(workload, metric) -> value` of the untraced result lines of one `all` run.
fn end_to_end_values(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let j = Json::parse(line)?;
        if j.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("line without workload")?;
        let result = j.get("result").ok_or("line without result")?;
        if result.get("failed").and_then(Json::as_f64) != Some(0.0) {
            return Err(format!("{path}: {workload} has failed operations"));
        }
        for (name, m) in result.get("metrics").map(Json::entries).unwrap_or_default() {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            out.push((workload.to_string(), name.clone(), v));
        }
    }
    Ok(out)
}

/// Two `all` runs of one commit must agree on every end-to-end metric within
/// that metric's bound.
fn agree(args: &Args, spec: &BenchSpec) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("agree takes two files written by `all --out`".into());
    };
    let (first, second) = (end_to_end_values(a)?, end_to_end_values(b)?);
    if first.len() != second.len() || first.is_empty() {
        return Err(format!(
            "{a} has {} values, {b} has {}",
            first.len(),
            second.len()
        ));
    }
    println!("| workload | metric | first | second | worse by | bound | |");
    println!("|---|---|---:|---:|---:|---:|---|");
    let mut ok = true;
    for ((w, name, x), (w2, name2, y)) in first.iter().zip(&second) {
        if (w, name) != (w2, name2) {
            return Err(format!(
                "{a} and {b} list different metrics: {w}/{name} vs {w2}/{name2}"
            ));
        }
        let m = spec
            .end_to_end
            .iter()
            .find(|m| &m.name == name)
            .ok_or_else(|| format!("{name} is not an end-to-end metric of BENCHMARK.json"))?;
        let bound = m.bound.unwrap_or(0.0);
        // How much worse the second run is than the first, as a share of the
        // first; negative when it is better.
        let worse = if m.higher_is_better {
            (x - y) / x
        } else {
            (y - x) / x
        };
        let verdict = if worse.abs() <= bound {
            "ok"
        } else {
            "DISAGREE"
        };
        ok &= worse.abs() <= bound;
        println!(
            "| {w} | {name} | {x:.4} | {y:.4} | {:+.1} % | {:.0} % | {verdict} |",
            100.0 * worse,
            100.0 * bound
        );
    }
    Ok(ok)
}
