//! `serve_read_x4`: per-record latency of the serve hot loop.
//!
//! Closed loop, one client: `MatchService::match_on_arrival_with` over one
//! reused `ProbeScratch`, against the x4 corpus (7 660 rows). Arrivals are
//! every projected UMETRICS row followed by the extra records (7 328
//! requests a pass). `em-blocking::incremental` probes, `em-features::serve`
//! and `em-serve::hot` do the work. No threads, no WAL, no scheduler: a
//! scheduler or WAL change must not move this workload.

use super::{report_process_metrics, setup_repeated, timed_reps, Ctx, SETUPS};
use crate::gen::{self, Res};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use em_blocking::FNV_OFFSET;
use em_serve::{MatchService, ProbeScratch, RequestTimings, WorkflowSnapshot};
use em_table::Table;
use std::time::Instant;

/// Scale of the corpus and of the scenario the workflow is trained on.
pub const FACTOR: f64 = 4.0;

struct Setup {
    service: MatchService,
    arrivals: Table,
}

/// Trains the frozen workflow and generates the seed's corpus and arrivals.
pub fn snapshot_and_arrivals(seed: u64) -> Res<(WorkflowSnapshot, Table)> {
    let artifacts = gen::train_serve_workflow(FACTOR)?;
    let tables = gen::tables(FACTOR, seed, false)?;
    let mut snapshot = WorkflowSnapshot::from_artifacts(&artifacts);
    let arrivals = gen::arrivals(&tables)?;
    snapshot.corpus = tables.usda;
    Ok((snapshot, arrivals))
}

fn setup(seed: u64) -> Res<Setup> {
    let (snapshot, arrivals) = snapshot_and_arrivals(seed)?;
    let service = MatchService::from_snapshot(snapshot)?;
    Ok(Setup { service, arrivals })
}

/// Requests in a block; a block's wall time is what throughput is made of.
/// At 25 ms it is short against the host's bursts (a second or more), so a
/// block is either inside one or not.
const BLOCK: usize = 128;

/// What one pass over the arrivals measured.
struct Pass {
    latencies_ms: Vec<f64>,
    /// Wall time of each run of [`BLOCK`] requests, the loop around them
    /// included.
    block_ms: Vec<f64>,
    fnv: u64,
    matches: usize,
    candidates: usize,
    /// Sum of each stage's `RequestTimings`, in ms.
    stages: RequestTimings,
}

/// Adds one request's stage timings into a running sum.
pub fn add_timings(sum: &mut RequestTimings, t: &RequestTimings) {
    sum.blocking_ms += t.blocking_ms;
    sum.rules_ms += t.rules_ms;
    sum.features_ms += t.features_ms;
    sum.predict_ms += t.predict_ms;
    sum.total_ms += t.total_ms;
}

/// The serve hot loop's per-layer rows, from stage timings summed over
/// `requests` served requests: the four `time.*_s` totals, the kernel share,
/// and each stage's mean per request with its share of the request's total.
pub fn report_hot_stages(report: &mut Report, sum: &RequestTimings, requests: usize) {
    let n = requests as f64;
    report.metric(
        "trace.kernel_pct",
        "%",
        100.0 * (sum.blocking_ms + sum.features_ms + sum.predict_ms) / sum.total_ms,
    );
    for (function, span, ms) in [
        ("time.blocking_s", STAGE_SPANS[0], sum.blocking_ms),
        ("time.rules_s", STAGE_SPANS[1], sum.rules_ms),
        ("time.features_s", STAGE_SPANS[2], sum.features_ms),
        ("time.ml_s", STAGE_SPANS[3], sum.predict_ms),
    ] {
        report.metric(function, "s", ms / 1e3);
        report.layer_time(span, "ms", ms / n, sum.total_ms / n);
    }
}

const STAGE_SPANS: [&str; 4] = [
    "serve.hot.blocking",
    "serve.hot.rules",
    "serve.hot.features",
    "serve.hot.predict",
];

/// One pass: every arrival once, in order, one request at a time. With the
/// tracer on, each request is a span and its four stage timings (a public
/// return value of the request) are laid under it end to end.
fn pass(s: &Setup, scratch: &mut ProbeScratch, tr: &mut Tracer) -> Res<Pass> {
    let n = s.arrivals.n_rows();
    let mut p = Pass {
        latencies_ms: Vec::with_capacity(n),
        block_ms: Vec::with_capacity(n / BLOCK + 1),
        fnv: FNV_OFFSET,
        matches: 0,
        candidates: 0,
        stages: RequestTimings::default(),
    };
    let mut block_start = Instant::now();
    for i in 0..n {
        tr.set_run(i as u64);
        let id = tr.begin("serve.hot.request");
        let start_ns = if tr.enabled() { tr.now_ns() } else { 0 };
        let t0 = Instant::now();
        let o = s.service.match_on_arrival_with(&s.arrivals, i, scratch)?;
        p.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t = o.timings;
        if tr.enabled() {
            let mut at = start_ns;
            for (name, ms) in
                STAGE_SPANS
                    .iter()
                    .zip([t.blocking_ms, t.rules_ms, t.features_ms, t.predict_ms])
            {
                let end = at + (ms * 1e6) as u64;
                tr.record(name, at, end);
                at = end;
            }
        }
        tr.end(id);
        add_timings(&mut p.stages, &t);
        p.fnv = gen::fnv_ids(p.fnv, &o.ids);
        p.matches += o.ids.len();
        p.candidates += o.n_candidates;
        if (i + 1) % BLOCK == 0 || i + 1 == n {
            let now = Instant::now();
            p.block_ms.push((now - block_start).as_secs_f64() * 1e3);
            block_start = now;
        }
    }
    Ok(p)
}

pub fn run(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) -> Res<()> {
    let (s, setup_s) = setup_repeated(SETUPS, || setup(ctx.seed))?;
    let n = s.arrivals.n_rows();
    let mut scratch = ProbeScratch::new();
    let mut off = Tracer::new(false);

    // Cold first request, then the rest of one untimed pass: indexes, probe
    // cells and scratch buffers are warm for everything timed below.
    let t0 = Instant::now();
    s.service
        .match_on_arrival_with(&s.arrivals, 0, &mut scratch)?;
    let cold_first_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm = pass(&s, &mut scratch, &mut off)?;

    if ctx.trace {
        return traced(report, tr, &s, scratch, warm.fnv, cold_first_ms, setup_s);
    }

    let reps = timed_reps(ctx.seconds, |_| pass(&s, &mut scratch, &mut off))?;
    report.check(
        "FNV of served MatchIds identical across passes",
        reps.iter()
            .all(|(p, _)| p.fnv == warm.fnv && p.matches == warm.matches),
    );
    report.ops((reps.len() * n) as u64);
    report.detail("serve.hot.passes", "count", reps.len() as f64);

    // Every pass serves the same requests in the same order, so a request's
    // (and a block's) cost on a quiet host is its first quartile over the
    // passes; the percentiles are taken over the requests after that. A
    // burst of the host then costs the passes it hits, not the result.
    let mut per_s = Vec::new();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let (mut latencies, mut blocks) = (Vec::new(), Vec::new());
    for (p, secs) in reps {
        let mut lat = p.latencies_ms.clone();
        stats::sort(&mut lat);
        per_s.push(n as f64 / secs);
        p50.push(stats::percentile(&lat, 50.0));
        p99.push(stats::percentile(&lat, 99.0));
        latencies.push(p.latencies_ms);
        blocks.push(p.block_ms);
    }
    let mut quiet = stats::quiet_columns(&latencies);
    stats::sort(&mut quiet);
    let quiet_pass_s = stats::quiet_columns(&blocks).iter().sum::<f64>() / 1e3;
    report.metric("throughput_per_s", "1/s", n as f64 / quiet_pass_s);
    report.metric("p50_ms", "ms", stats::percentile(&quiet, 50.0));
    // 7 328 requests leave 73 beyond p99.
    report.metric("tail_ms", "ms", stats::percentile(&quiet, 99.0));
    report.detail("serve.hot.pass_per_s", "1/s", Summary::of(&per_s));
    report.detail("serve.hot.pass_p50_ms", "ms", Summary::of(&p50));
    report.detail("serve.hot.pass_p99_ms", "ms", Summary::of(&p99));
    report_process_metrics(report, setup_s);
    report.detail("serve.hot.requests_per_pass", "count", n as f64);
    report.detail("serve.hot.matches_per_pass", "count", warm.matches as f64);
    report.detail("serve.hot.cold_first_ms", "ms", cold_first_ms);
    report.note(format!("served MatchIds FNV {:#018x}", warm.fnv));
    Ok(())
}

fn traced(
    report: &mut Report,
    tr: &mut Tracer,
    s: &Setup,
    mut scratch: ProbeScratch,
    expect_fnv: u64,
    cold_first_ms: f64,
    setup_s: Summary,
) -> Res<()> {
    let n = s.arrivals.n_rows();
    let mut off = Tracer::new(false);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let p = pass(s, &mut scratch, &mut off)?;
        plain_s.push(t0.elapsed().as_secs_f64());
        report.check(
            "FNV of served MatchIds identical (untraced pass)",
            p.fnv == expect_fnv,
        );
        let id = tr.begin("serve.hot.pass");
        let t0 = Instant::now();
        let p = pass(s, &mut scratch, tr)?;
        traced_s.push(t0.elapsed().as_secs_f64());
        tr.end(id);
        report.check(
            "FNV of served MatchIds identical (traced pass)",
            p.fnv == expect_fnv,
        );
        last = Some(p);
    }
    report.ops((6 * n) as u64);
    let p = last.ok_or("no traced pass ran")?;
    let wall = Summary::of(&traced_s);
    let plain = Summary::of(&plain_s);
    let t = p.stages;
    let staged_ms = t.blocking_ms + t.rules_ms + t.features_ms + t.predict_ms;

    report.metric("trace.wall_s", "s", wall.median);
    report.metric(
        "trace.overhead_pct",
        "%",
        100.0 * (wall.median - plain.median) / plain.median,
    );
    // Share of the latency the harness measured around each call that the
    // request's own stage timings cover.
    let measured_ms: f64 = p.latencies_ms.iter().sum();
    report.metric("trace.accounted_pct", "%", 100.0 * staged_ms / measured_ms);
    report.metric("trace.spans", "count", tr.spans().len() as f64);
    report_hot_stages(report, &t, n);
    report.detail("serve.hot.total_ms", "ms", t.total_ms / n as f64);
    report.metric(
        "serve.hot.candidates_per_req",
        "count",
        p.candidates as f64 / n as f64,
    );
    let mut lat = p.latencies_ms;
    stats::sort(&mut lat);
    let p50 = stats::percentile(&lat, 50.0);
    report.detail("serve.hot.p50_ms", "ms", p50);
    if let Some((pct, v)) = stats::highest_supported_percentile(&lat) {
        // Highest percentile with ten samples beyond it: p99 at this size.
        report.detail(&format!("serve.hot.p{pct}_ms"), "ms", v);
        report.metric("serve.hot.tail_over_p50", "ratio", v / p50);
    }
    report.detail("serve.hot.p999_ms", "ms", stats::percentile(&lat, 99.9));
    report.detail("serve.hot.cold_first_ms", "ms", cold_first_ms);
    report.metric("serve.hot.cold_over_p50", "ratio", cold_first_ms / p50);
    report.metric(
        "features.batch.mask_live",
        "count",
        s.service.feature_mask().n_live() as f64,
    );
    report.metric("parallel.threads", "count", 1.0);
    report.detail("serve.hot.wall_untraced_s", "s", plain);
    report.detail("setup_s", "s", setup_s);
    Ok(())
}
