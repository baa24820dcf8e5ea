//! The four workloads and what they share: a timed-rep loop that fills the
//! measuring budget, and a set-up loop that sets up several times. Every
//! gated timing is the quiet quartile of its repeats (see `stats`).

pub mod casestudy;
pub mod serve_mixed;
pub mod serve_read;
pub mod stream;

use crate::gen::Res;
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use std::time::Instant;

/// What `--workload <name>` runs.
pub fn run(name: &str, ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Res<()> {
    match name {
        "stream_x16" => stream::run(ctx, report, tracer),
        "casestudy_x1" => casestudy::run(ctx, report, tracer),
        "serve_read_x4" => serve_read::run(ctx, report, tracer),
        "serve_mixed_x4" => serve_mixed::run(ctx, report, tracer),
        other => {
            Err(format!("BENCHMARK.json lists workload {other:?}, the harness has none").into())
        }
    }
}

/// Arguments every workload takes.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Seconds of timed work in the untraced pass.
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their quiet quartile.
pub const SETUPS: usize = 5;

/// Fewest timed reps a median is taken over.
pub const MIN_REPS: usize = 3;

/// Sets up `n` times, keeps the last product, and summarises the times.
pub fn setup_repeated<T>(n: usize, mut setup: impl FnMut() -> Res<T>) -> Res<(T, Summary)> {
    let mut times = Vec::with_capacity(n);
    let mut product = None;
    for _ in 0..n {
        // Drop the previous product first so set-ups never overlap in memory.
        drop(product.take());
        let t0 = Instant::now();
        let p = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        product = Some(p);
    }
    let product = product.ok_or("no set-up ran")?;
    Ok((product, Summary::quiet_low(&times)))
}

/// Runs `op(rep)` until `seconds` of reps have run and at least
/// [`MIN_REPS`] are in; a rep that would overshoot the budget by more than
/// half its length is not started. Returns each rep's product and seconds.
pub fn timed_reps<T>(seconds: f64, mut op: impl FnMut(usize) -> Res<T>) -> Res<Vec<(T, f64)>> {
    let mut out: Vec<(T, f64)> = Vec::new();
    let mut spent = 0.0;
    loop {
        let t0 = Instant::now();
        let product = op(out.len())?;
        let secs = t0.elapsed().as_secs_f64();
        spent += secs;
        out.push((product, secs));
        let mean = spent / out.len() as f64;
        if out.len() >= MIN_REPS && spent + mean / 2.0 >= seconds {
            return Ok(out);
        }
    }
}

/// The end-to-end metrics of a batch workload whose reps are whole jobs of
/// `work` units each; `calls[r]` are the seconds of the calls rep `r` is
/// made of, in order.
///
/// The reps are the same deterministic job, so what separates them is the
/// host: each call's cost on a quiet host is its first quartile over the
/// reps, and the job's is their sum. Two dozen reps leave no percentile with
/// ten samples beyond it and a job has no tail of its own, so `tail_ms` is
/// the longest single call of the quiet job. The reps as they ran, bursts
/// included, are printed as `rep_wall_ms`.
pub fn report_batch_job(report: &mut Report, calls: &[Vec<f64>], work: f64, setup: Summary) {
    let quiet_calls = stats::quiet_columns(calls);
    let quiet_s: f64 = quiet_calls.iter().sum();
    let longest_s = quiet_calls.iter().copied().fold(0.0, f64::max);
    let rep_ms: Vec<f64> = calls.iter().map(|c| c.iter().sum::<f64>() * 1e3).collect();
    let reps = Summary::of(&rep_ms);
    report.ops(calls.len() as u64);
    report.metric("throughput_per_s", "1/s", work / quiet_s);
    report.metric("p50_ms", "ms", quiet_s * 1e3);
    report.metric("tail_ms", "ms", longest_s * 1e3);
    report.detail("rep_wall_ms", "ms", reps);
    report.detail("slowest_rep_ms", "ms", reps.max);
    report_process_metrics(report, setup);
}

/// Registers the two metrics every workload reports the same way.
pub fn report_process_metrics(report: &mut Report, setup: Summary) {
    report.metric("setup_s", "s", setup);
    report.metric("peak_rss_mib", "MiB", crate::report::peak_rss_mib());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_reps_runs_at_least_three_and_respects_the_budget() {
        // Instant reps: the budget is never reached, so cap by count.
        let mut n = 0;
        let reps = timed_reps(0.0, |i| {
            n += 1;
            Ok(i)
        })
        .expect("reps");
        assert_eq!(reps.len(), MIN_REPS);
        assert_eq!(n, MIN_REPS);
        // 5 ms reps against a 32 ms budget: stops at 6 or 7, not 3.
        let reps = timed_reps(0.032, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok(())
        })
        .expect("reps");
        assert!((5..=7).contains(&reps.len()), "{} reps", reps.len());
    }

    #[test]
    fn setup_repeated_keeps_the_last_product_and_every_time() {
        let mut k = 0u64;
        let (last, s) = setup_repeated(SETUPS, || {
            k += 1;
            std::thread::sleep(std::time::Duration::from_millis(k));
            Ok(k)
        })
        .expect("setup");
        assert_eq!(last, SETUPS as u64);
        assert_eq!(s.n, SETUPS);
        assert!(s.value >= 0.001 && s.value <= s.median && s.median < s.max);
    }
}
