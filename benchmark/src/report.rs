//! What one run reports: the metrics registered in `BENCHMARK.json`, the
//! longer list of per-layer detail rows, the output checks, and the header
//! that says where and how the numbers were taken.

use crate::json::{escape, Json};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Directory this crate was built from; the benchmark reads and writes
/// nowhere outside the checkout that contains it.
pub const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Traces, per-run result files and scratch directories.
pub fn out_dir() -> PathBuf {
    Path::new(BENCH_DIR).join("out")
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness needs. The file is the only
/// place the registered metric names live; the harness prints exactly these.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    pub fn load() -> Result<BenchSpec, String> {
        let path = Path::new(BENCH_DIR).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
        BenchSpec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let j = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            j.get(key)
                .ok_or_else(|| format!("BENCHMARK.json has no {key:?}"))?
                .items()
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{key} entry without {k:?}"))
                    };
                    Ok(MetricSpec {
                        name: s("name")?,
                        unit: s("unit")?,
                        higher_is_better: s("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            workloads: j
                .get("workloads")
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            run_seconds: j.get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0) as u64,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// Where and how a run was taken.
#[derive(Debug, Clone)]
pub struct Header {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub commit: String,
    pub nproc: usize,
    pub em_threads_env: String,
    pub threads: usize,
    pub rustc: String,
    pub loadavg_1m: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // git must not look for a repository above the checkout.
    let above_checkout = Path::new(BENCH_DIR).parent().and_then(Path::parent);
    let out = Command::new(program)
        .args(args)
        .current_dir(BENCH_DIR)
        .env(
            "GIT_CEILING_DIRECTORIES",
            above_checkout.unwrap_or(Path::new("/")),
        )
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Header {
    pub fn capture(workload: &str, seed: u64, seconds: f64, trace: bool) -> Header {
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(f64::NAN);
        Header {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            // The driver's checkout is not a git repository; say so.
            commit: command_line("git", &["describe", "--always", "--dirty", "--abbrev=12"])
                .unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            em_threads_env: std::env::var("EM_THREADS").unwrap_or_else(|_| "unset".into()),
            threads: em_parallel::threads(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            loadavg_1m,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"commit\": \"{}\", \"nproc\": {}, \"EM_THREADS\": \"{}\", \"threads\": {}, \
             \"rustc\": \"{}\", \"loadavg_1m\": {}}}",
            escape(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            escape(&self.commit),
            self.nproc,
            escape(&self.em_threads_env),
            self.threads,
            escape(&self.rustc),
            num(self.loadavg_1m)
        )
    }
}

/// One printed row: a metric by name, with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Detail {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
    /// For a layer time: its share of the interval it is part of, which is
    /// what `BENCHMARK.json` registers under `<name minus unit>_pct`.
    pub share_pct: Option<f64>,
}

/// Everything a workload run produced.
#[derive(Debug)]
pub struct Report {
    pub header: Header,
    registered: BTreeMap<String, (f64, String)>,
    pub details: Vec<Detail>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Free-text lines printed under the table (checksums, shapes).
    pub notes: Vec<String>,
}

/// JSON has no NaN; a missing measurement prints as null in the side files.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Report {
    pub fn new(header: Header) -> Report {
        Report {
            header,
            registered: BTreeMap::new(),
            details: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A registered metric that is also a printed row: a [`Summary`] of
    /// several samples, or one measured `f64`.
    pub fn metric(&mut self, name: &str, unit: &str, summary: impl Into<Summary>) {
        let summary = summary.into();
        self.registered
            .insert(name.to_string(), (summary.value, unit.to_string()));
        self.details.push(Detail {
            name: name.to_string(),
            unit: unit.to_string(),
            summary,
            share_pct: None,
        });
    }

    /// A layer's time, `value` in `unit` (`s`, `ms` or `us`), and `whole` in
    /// the same unit: the interval the layer is a part of. Printed as
    /// `<base>_<unit>`, registered as its share `<base>_pct`: a share is 0
    /// on a workload that never enters the layer, an absolute time there
    /// would be a constant.
    pub fn layer_time(&mut self, base: &str, unit: &str, value: f64, whole: f64) {
        let share = if whole > 0.0 {
            100.0 * value / whole
        } else {
            0.0
        };
        self.registered
            .insert(format!("{base}_pct"), (share, "%".to_string()));
        self.details.push(Detail {
            name: format!("{base}_{unit}"),
            unit: unit.to_string(),
            summary: value.into(),
            share_pct: Some(share),
        });
    }

    /// A printed row that `BENCHMARK.json` does not register.
    pub fn detail(&mut self, name: &str, unit: &str, summary: impl Into<Summary>) {
        self.details.push(Detail {
            name: name.to_string(),
            unit: unit.to_string(),
            summary: summary.into(),
            share_pct: None,
        });
    }

    /// Counts `n` operations that completed and were checked.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` operations that failed, were shed, or were refused.
    pub fn ops_failed(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.failed += n;
            self.failures.push(format!("{n} x {what}"));
        }
    }

    /// One output check; a mismatch is a failed operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable table, every row a metric by name with its unit.
    pub fn print_table(&self) {
        let h = &self.header;
        println!(
            "# workload {} seed {} seconds {} trace {} | commit {} nproc {} EM_THREADS {} \
             (threads {}) | {} | loadavg {:.2}",
            h.workload,
            h.seed,
            h.seconds,
            u8::from(h.trace),
            h.commit,
            h.nproc,
            h.em_threads_env,
            h.threads,
            h.rustc,
            h.loadavg_1m
        );
        println!(
            "# {:<44} {:>16} {:<6} {:>5} {:>14} {:>14} {:>14} {:>8}",
            "metric", "value", "unit", "n", "q1", "median", "q3", "share"
        );
        for d in &self.details {
            let s = &d.summary;
            let [q1, median, q3] = [s.q1, s.median, s.q3].map(|v| {
                if s.n > 1 {
                    format!("{v:.6}")
                } else {
                    "-".into()
                }
            });
            let share = d.share_pct.map_or("-".to_string(), |p| format!("{p:.1}%"));
            println!(
                "  {:<44} {:>16.6} {:<6} {:>5} {:>14} {:>14} {:>14} {:>8}",
                d.name, s.value, d.unit, s.n, q1, median, q3, share
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<44} {:>16.6} {:<6} {:>5} (failed {} of {} attempted)",
            "failed_share", share, "ratio", self.attempted, self.failed, self.attempted
        );
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.failures {
            println!("! FAILED: {f}");
        }
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the metrics being `wanted` in that order. A wanted
    /// per-layer metric this workload never produced is a layer it never
    /// enters: 0. A wanted end-to-end metric must have been produced.
    pub fn result_line(
        &self,
        wanted: &[MetricSpec],
        allow_missing: bool,
    ) -> Result<String, String> {
        let mut parts = Vec::with_capacity(wanted.len());
        for m in wanted {
            let (value, unit) = match self.registered.get(&m.name) {
                Some((v, u)) => (*v, u.as_str()),
                None if allow_missing => (0.0, m.unit.as_str()),
                None => return Err(format!("metric {:?} was not measured", m.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {:?} is not a finite number", m.name));
            }
            if unit != m.unit {
                return Err(format!(
                    "metric {:?} measured in {unit:?}, BENCHMARK.json says {:?}",
                    m.name, m.unit
                ));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                escape(&m.name),
                escape(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }

    /// Header, registered values and every detail row, for `agree` and for
    /// whoever reads the run later.
    pub fn write_side_file(&self) -> std::io::Result<PathBuf> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "result-{}-trace{}.json",
            self.header.workload,
            u8::from(self.header.trace)
        ));
        let details: Vec<String> = self
            .details
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"n\": {}, \
                     \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"share_pct\": {}}}",
                    escape(&d.name),
                    escape(&d.unit),
                    num(d.summary.value),
                    d.summary.n,
                    num(d.summary.q1),
                    num(d.summary.median),
                    num(d.summary.q3),
                    num(d.summary.max),
                    d.share_pct.map_or("null".to_string(), num)
                )
            })
            .collect();
        let registered: Vec<String> = self
            .registered
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(k),
                    num(*v),
                    escape(u)
                )
            })
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        let text = format!(
            "{{\n  \"header\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \
             \"registered\": {{\n{}\n  }},\n  \"details\": [\n{}\n  ]\n}}\n",
            self.header.to_json(),
            self.attempted,
            self.failed,
            failures.join(", "),
            registered.join(",\n"),
            details.join(",\n")
        );
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            workload: "w".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            commit: "unknown".into(),
            nproc: 2,
            em_threads_env: "unset".into(),
            threads: 2,
            rustc: "rustc".into(),
            loadavg_1m: 0.5,
        }
    }

    fn spec(name: &str, unit: &str) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: unit.into(),
            higher_is_better: false,
            bound: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_in_spec_order() {
        let mut r = Report::new(header());
        r.metric("b_ms", "ms", 2.5);
        r.metric("a_s", "s", 0.125);
        r.ops(10);
        r.check("ok", true);
        let line = r
            .result_line(&[spec("b_ms", "ms"), spec("a_s", "s")], false)
            .expect("line");
        let j = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = j.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = j
            .get("metrics")
            .expect("metrics")
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["b_ms", "a_s"]);
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(11.0));
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn a_failed_check_counts_and_flips_correct() {
        let mut r = Report::new(header());
        r.ops(4);
        r.ops_failed(1, "shed");
        r.check("mismatch", false);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (5, 2));
    }

    #[test]
    fn missing_metrics_are_an_error_end_to_end_and_zero_per_layer() {
        let mut r = Report::new(header());
        r.layer_time("x.y.z", "s", 1.0, 4.0);
        assert!(r.result_line(&[spec("p50_ms", "ms")], false).is_err());
        let line = r
            .result_line(
                &[spec("x.y.z_pct", "%"), spec("other.layer_pct", "%")],
                true,
            )
            .expect("line");
        let j = Json::parse(&line).expect("valid JSON");
        let m = j.get("metrics").expect("metrics");
        assert_eq!(
            m.get("x.y.z_pct")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(25.0)
        );
        assert_eq!(
            m.get("other.layer_pct")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        // A unit that disagrees with BENCHMARK.json is refused.
        assert!(r.result_line(&[spec("x.y.z_pct", "s")], true).is_err());
    }

    #[test]
    fn spec_parses_the_contract_shape() {
        let s = BenchSpec::parse(
            r#"{"command": ["x"], "paths": ["benchmark"], "run_seconds": 15,
                "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "n", "unit": "count", "better": "higher"}]}"#,
        )
        .expect("spec");
        assert_eq!(s.workloads, ["a", "b"]);
        assert_eq!(s.run_seconds, 15);
        assert_eq!(s.end_to_end[0].bound, Some(0.25));
        assert!(s.per_layer[0].higher_is_better && s.per_layer[0].bound.is_none());
    }
}
