//! `serve_mixed_x4`: the sharded tier under an open loop of reads and writes.
//!
//! A 2-shard `ShardedMatchService` over the first 80 % of the x4 corpus,
//! checkpointed so every shard logs to its WAL. The harness drives it on the
//! real clock: seeded exponential gaps at 2 000 op/s, 95 % reads admitted
//! through `MicroBatcher::submit_at` (default `BatchPolicy`, shed watermark
//! 64 rows a shard) and executed with `match_rows_timed`, 5 % writes that
//! `push_corpus_row` the next held-back row. The same serve layers as
//! `serve_read_x4`, used differently: writes beside reads, batching,
//! scatter/gather, WAL, recovery. A gain for reads that taxes
//! `push_corpus_row` or the WAL, or a batching change that trades latency
//! for throughput, shows here and nowhere else.

use super::serve_read::{add_timings, report_hot_stages, snapshot_and_arrivals};
use super::{report_process_metrics, setup_repeated, Ctx, MIN_REPS, SETUPS};
use crate::gen::Res;
use crate::openloop::{
    drive, schedule, BatchRecord, Mix, OpKind, Outcome, ReadRecord, RealClock, Tier,
};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use em_serve::{
    BatchPolicy, MatchOutcome, MatchService, OverloadPolicy, ProbeScratch, RequestTimings,
    ShardedMatchService, WalWriter, WorkflowSnapshot,
};
use em_table::{Table, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SHARDS: usize = 2;
/// Share of the corpus held back to be written during the run.
const HELD_BACK: f64 = 0.2;
const WRITE_SHARE: f64 = 0.05;
/// Offered rate of the timed reps, operations per second.
const NOMINAL_RATE: f64 = 2000.0;
/// Operations per open-loop rep: 0.6 s at the nominal rate. A rep is short
/// against the host's bursts (a second or more on a shared box), so most
/// reps are wholly inside one or wholly outside and the quiet quartile of
/// the reps has none; 1 200 operations still leave 12 beyond p99 (11 over
/// the reads alone).
const REP_OPS: usize = 1200;
/// Most open-loop reps in a run: with the capacity reps between them they
/// write about 1 440 of the 1 532 held-back rows. A rep that would outrun
/// the rows is not started.
const MAX_NOMINAL_REPS: usize = 16;
/// Operations in a closed-loop capacity rep. Two follow every open-loop rep,
/// so every kind of rep is spread over the whole run and none sits inside
/// one burst of the host: one with the shard legs run one after another on
/// one thread (the gated capacity), one with the legs side by side. A leg
/// is pinned to its thread, so side by side the tier is as slow as the
/// vCPU the host is starving at that moment: that capacity moved by 38 %
/// between two runs of the same code and is a detail row.
const CAPACITY_OPS: usize = 300;
/// Rates of the traced pass's ladder, one second each.
const LADDER: [f64; 4] = [1000.0, 2000.0, 3000.0, 4000.0];
/// A ladder rung passes with read p99 at or under this.
const LATENCY_LIMIT_MS: f64 = 10.0;
/// Probes the recovered tier must answer like a never-crashed one.
const GOLDEN_PROBES: usize = 500;

fn overload() -> OverloadPolicy {
    OverloadPolicy {
        shed_watermark: 64,
        ..OverloadPolicy::unbounded()
    }
}

struct Setup {
    /// The workflow over the first 80 % of the corpus.
    base: WorkflowSnapshot,
    /// The last 20 %, in corpus order.
    held: Vec<Vec<Value>>,
    arrivals: Table,
    tier: ShardedMatchService,
    dir: PathBuf,
}

fn scratch_dir(tag: &str) -> PathBuf {
    crate::report::out_dir().join(format!("tmp-mixed-{tag}-{}", std::process::id()))
}

fn setup(seed: u64) -> Res<Setup> {
    let (full, arrivals) = snapshot_and_arrivals(seed)?;
    let keep = ((full.corpus.n_rows() as f64) * (1.0 - HELD_BACK)) as usize;
    let mut corpus = Table::new(full.corpus.name(), full.corpus.schema().clone());
    for row in &full.corpus.rows()[..keep] {
        corpus.push_row(row.clone())?;
    }
    let held = full.corpus.rows()[keep..].to_vec();
    let base = WorkflowSnapshot { corpus, ..full };
    let mut tier = ShardedMatchService::from_snapshot(base.clone(), SHARDS)?;
    let dir = scratch_dir("tier");
    let _ = std::fs::remove_dir_all(&dir);
    tier.checkpoint(&dir)?;
    Ok(Setup {
        base,
        held,
        arrivals,
        tier,
        dir,
    })
}

/// The sharded tier behind the driver's [`Tier`] trait.
struct RealTier<'a> {
    tier: &'a mut ShardedMatchService,
    arrivals: &'a Table,
    held: &'a [Vec<Value>],
    /// Held-back rows written so far, over the whole run.
    written: usize,
    served: usize,
    /// Stage timings summed over every served outcome, in ms.
    stages: RequestTimings,
}

impl<'a> RealTier<'a> {
    fn over(s: &'a mut Setup) -> RealTier<'a> {
        RealTier {
            tier: &mut s.tier,
            arrivals: &s.arrivals,
            held: &s.held,
            written: 0,
            served: 0,
            stages: RequestTimings::default(),
        }
    }
}

impl Tier for RealTier<'_> {
    fn read_batch(&mut self, rows: &[usize]) -> Res<Vec<f64>> {
        let (batch, shard_ms) = self.tier.match_rows_timed(self.arrivals, rows)?;
        for o in &batch.outcomes {
            add_timings(&mut self.stages, &o.timings);
        }
        self.served += batch.outcomes.len();
        Ok(shard_ms)
    }

    fn write(&mut self) -> Res<()> {
        let row = self
            .held
            .get(self.written)
            .ok_or("ran out of held-back corpus rows")?;
        self.tier.push_corpus_row(row.clone())?;
        self.written += 1;
        Ok(())
    }
}

/// The fields of an outcome that are part of the served answer.
fn answer(o: &MatchOutcome) -> (&em_core::MatchIds, [usize; 5]) {
    (
        &o.ids,
        [
            o.n_blocked,
            o.n_sure,
            o.n_candidates,
            o.n_predicted,
            o.n_flipped,
        ],
    )
}

/// Every arrival once through the tier in batches of eight and once through
/// a single instance over the same corpus: the answers must be equal. Also
/// the warm-up of the tier.
fn check_against_single_instance(s: &Setup, report: &mut Report) -> Res<()> {
    let single = MatchService::from_snapshot(s.base.clone())?;
    let mut scratch = ProbeScratch::new();
    let rows: Vec<usize> = (0..s.arrivals.n_rows()).collect();
    let mut mismatches = 0u64;
    for chunk in rows.chunks(8) {
        let (batch, _) = s.tier.match_rows_timed(&s.arrivals, chunk)?;
        for (&i, sharded) in chunk.iter().zip(&batch.outcomes) {
            let alone = single.match_on_arrival_with(&s.arrivals, i, &mut scratch)?;
            if answer(sharded) != answer(&alone) {
                mismatches += 1;
            }
        }
    }
    report.ops(rows.len() as u64);
    report.ops_failed(
        mismatches,
        "arrival answered differently by the 2-shard tier and a single instance",
    );
    Ok(())
}

/// After the last rep: drop the tier as a crash would, recover it from its
/// directory, and compare it with a tier built in one go from the full
/// corpus (base rows plus everything written) on the golden probes.
fn check_recovery(s: Setup, written: usize, report: &mut Report) -> Res<f64> {
    let Setup {
        base,
        held,
        arrivals,
        tier,
        dir,
    } = s;
    drop(tier);
    let t0 = Instant::now();
    let (recovered, reports) = ShardedMatchService::recover(&dir, SHARDS)?;
    let recover_s = t0.elapsed().as_secs_f64();
    let replayed: usize = reports.iter().map(|r| r.replayed).sum();
    report.check("WAL replayed exactly the rows written", replayed == written);

    let mut corpus = base.corpus.clone();
    for row in &held[..written] {
        corpus.push_row(row.clone())?;
    }
    let never_crashed =
        ShardedMatchService::from_snapshot(WorkflowSnapshot { corpus, ..base }, SHARDS)?;
    let probes: Vec<usize> = (0..GOLDEN_PROBES.min(arrivals.n_rows())).collect();
    let (a, _) = recovered.match_rows_timed(&arrivals, &probes)?;
    let (b, _) = never_crashed.match_rows_timed(&arrivals, &probes)?;
    let mismatches = a
        .outcomes
        .iter()
        .zip(&b.outcomes)
        .filter(|(x, y)| answer(x) != answer(y))
        .count();
    report.ops(probes.len() as u64);
    report.ops_failed(
        mismatches as u64,
        "golden probe answered differently after recovery",
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(recover_s)
}

/// Percentiles of one open-loop rep.
struct RepStats {
    all_p50: f64,
    all_p99: f64,
    read_p50: f64,
    read_p99: f64,
    write_p50: f64,
    write_p99: f64,
    lag_p99: f64,
    /// Slowest write, slowest batch service and slowest gather of the rep:
    /// where a stall came from, when there was one.
    write_max: f64,
    service_max: f64,
    gather_max: f64,
}

fn rep_stats(o: &Outcome) -> RepStats {
    let mut reads: Vec<f64> = o.reads.iter().map(|r| r.latency_ms).collect();
    let mut writes = o.write_latency_ms.clone();
    let mut all: Vec<f64> = reads.iter().chain(&writes).copied().collect();
    let mut lag = o.lag_ms.clone();
    for v in [&mut reads, &mut writes, &mut all, &mut lag] {
        stats::sort(v);
    }
    RepStats {
        all_p50: stats::percentile(&all, 50.0),
        all_p99: stats::percentile(&all, 99.0),
        read_p50: stats::percentile(&reads, 50.0),
        read_p99: stats::percentile(&reads, 99.0),
        write_p50: stats::percentile(&writes, 50.0),
        write_p99: stats::percentile(&writes, 99.0),
        lag_p99: stats::percentile(&lag, 99.0),
        write_max: writes.last().copied().unwrap_or(0.0),
        service_max: o.batches.iter().map(|b| b.shard_max_ms).fold(0.0, f64::max),
        gather_max: o
            .batches
            .iter()
            .map(|b| b.waits(0.0)[3])
            .fold(0.0, f64::max),
    }
}

/// One rep: `n_ops` at `rate` (infinite = closed loop), reads starting at
/// arrival row `rep * n_ops`. `None`, and nothing run, when it has more
/// writes than there are held-back rows left.
fn one_rep(
    real: &mut RealTier<'_>,
    seed: u64,
    rep: usize,
    n_ops: usize,
    rate: f64,
) -> Res<Option<(Outcome, RealClock)>> {
    let mix = Mix {
        seed: seed.wrapping_add(1 + rep as u64),
        n_ops,
        write_share: WRITE_SHARE,
        arrival_rows: real.arrivals.n_rows(),
        first_row: rep * n_ops,
    };
    let ops = schedule(&mix, rate);
    let writes = ops.iter().filter(|op| op.kind == OpKind::Write).count();
    if real.written + writes > real.held.len() {
        return Ok(None);
    }
    let closed_loop = !rate.is_finite();
    let clock = RealClock::start();
    let out = drive(
        &clock,
        real,
        &ops,
        BatchPolicy::default(),
        if closed_loop {
            OverloadPolicy::unbounded()
        } else {
            overload()
        },
        SHARDS,
        if closed_loop { 1 } else { usize::MAX },
    )?;
    Ok(Some((out, clock)))
}

pub fn run(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) -> Res<()> {
    let (mut s, setup_s) = setup_repeated(SETUPS, || setup(ctx.seed))?;
    check_against_single_instance(&s, report)?;

    if ctx.trace {
        return traced(ctx, report, tr, s, setup_s);
    }

    // An open-loop rep at the nominal rate, then the two closed-loop capacity
    // reps, and so on.
    let rep_s = REP_OPS as f64 / NOMINAL_RATE;
    let nominal_reps = ((ctx.seconds * 0.6 / rep_s) as usize).clamp(MIN_REPS, MAX_NOMINAL_REPS);
    let mut real = RealTier::over(&mut s);
    let (mut per_rep, mut capacity, mut capacity_nt) = (Vec::new(), Vec::new(), Vec::new());
    let (mut shed, mut retried, mut backlog_end, mut ops_done) = (0u64, 0u64, Vec::new(), 0u64);
    for rep in 0..nominal_reps {
        let Some((out, _)) = one_rep(&mut real, ctx.seed, 3 * rep, REP_OPS, NOMINAL_RATE)? else {
            break;
        };
        shed += out.shed;
        retried += out.retried;
        ops_done += (out.reads.len() + out.write_latency_ms.len()) as u64;
        backlog_end.push(out.backlog_end as f64);
        per_rep.push(rep_stats(&out));
        em_parallel::set_threads(1);
        let one_thread = one_rep(
            &mut real,
            ctx.seed,
            3 * rep + 1,
            CAPACITY_OPS,
            f64::INFINITY,
        );
        em_parallel::set_threads(0);
        let Some((out, _)) = one_thread? else {
            break;
        };
        capacity.push(CAPACITY_OPS as f64 / (out.wall_ms / 1e3));
        let Some((out, _)) = one_rep(
            &mut real,
            ctx.seed,
            3 * rep + 2,
            CAPACITY_OPS,
            f64::INFINITY,
        )?
        else {
            break;
        };
        capacity_nt.push(CAPACITY_OPS as f64 / (out.wall_ms / 1e3));
        ops_done += 2 * CAPACITY_OPS as u64;
    }
    report.check(
        "held-back rows lasted for three reps of each kind",
        capacity_nt.len() >= MIN_REPS,
    );
    let written = real.written;
    report.ops(ops_done);
    report.ops_failed(shed, "operation shed at the admission watermark");

    let col =
        |f: fn(&RepStats) -> f64| Summary::quiet_low(&per_rep.iter().map(f).collect::<Vec<f64>>());
    report.metric("throughput_per_s", "1/s", Summary::quiet_high(&capacity));
    report.detail(
        "serve.loadgen.capacity_nt_per_s",
        "1/s",
        Summary::quiet_high(&capacity_nt),
    );
    // Due time to completion over all operations of a rep, reads and writes;
    // each value is one rep's percentile and the metric their quiet quartile.
    report.metric("p50_ms", "ms", col(|r| r.all_p50));
    report.metric("tail_ms", "ms", col(|r| r.all_p99));
    report.detail("serve.mixed.read_p50_ms", "ms", col(|r| r.read_p50));
    report.detail("serve.mixed.read_p99_ms", "ms", col(|r| r.read_p99));
    report.detail("serve.mixed.write_p50_ms", "ms", col(|r| r.write_p50));
    report.detail("serve.mixed.write_p99_ms", "ms", col(|r| r.write_p99));
    report.detail("serve.loadgen.lag_p99_ms", "ms", col(|r| r.lag_p99));
    report.detail("serve.mixed.write_max_ms", "ms", col(|r| r.write_max));
    report.detail("serve.shard.service_max_ms", "ms", col(|r| r.service_max));
    report.detail("serve.shard.gather_max_ms", "ms", col(|r| r.gather_max));
    report.detail(
        "serve.loadgen.backlog_end",
        "count",
        Summary::of(&backlog_end),
    );
    report.detail("serve.sched.retried", "count", retried as f64);
    report.detail("serve.loadgen.offered_per_s", "1/s", NOMINAL_RATE);
    report.detail("serve.wal.rows_written", "count", written as f64);

    let recover_s = check_recovery(s, written, report)?;
    report.detail("serve.shard.recover_s", "s", recover_s);
    report_process_metrics(report, setup_s);
    Ok(())
}

const OUT_OF_ROWS: &str = "the traced reps ran out of held-back corpus rows";

/// The four waits a read's latency is made of, in order.
const WAIT_SPANS: [&str; 4] = [
    "serve.sched.batch_wait",
    "serve.sched.queue_wait",
    "serve.shard.service",
    "serve.shard.gather",
];

fn waits_of(out: &Outcome, read: &ReadRecord) -> [f64; 4] {
    out.batches[read.batch].waits(read.due_ms)
}

/// Reconstructs one rep's batches as spans: a batch span from its first due
/// read to its completion, with the four waits under it end to end.
fn record_batch_spans(tr: &mut Tracer, clock: &RealClock, out: &Outcome, rep: u64) {
    if !tr.enabled() {
        return;
    }
    let origin = tr.ns_of(clock.origin());
    let ns = |ms: f64| origin + (ms.max(0.0) * 1e6) as u64;
    let mut first_due = vec![f64::INFINITY; out.batches.len()];
    for r in &out.reads {
        first_due[r.batch] = first_due[r.batch].min(r.due_ms);
    }
    for (k, b) in out.batches.iter().enumerate() {
        tr.set_run(rep * 1_000_000 + k as u64);
        let at = b.wait_instants(first_due[k]);
        let batch = tr.record("serve.sched.batch", ns(at[0]), ns(at[4]));
        for (name, w) in WAIT_SPANS.iter().zip(at.windows(2)) {
            tr.record_in(batch, name, ns(w[0]), ns(w[1]));
        }
    }
}

/// Mean over every read of its four waits, and the mean read latency.
fn mean_waits(outs: &[Outcome]) -> ([f64; 4], f64) {
    let (mut sum, mut latency, mut n) = ([0.0f64; 4], 0.0, 0.0);
    for out in outs {
        for r in &out.reads {
            for (s, w) in sum.iter_mut().zip(waits_of(out, r)) {
                *s += w;
            }
            latency += r.latency_ms;
            n += 1.0;
        }
    }
    (sum.map(|s| s / n), latency / n)
}

/// Median microseconds of `f` over `rows`, with the total bytes it reports.
fn per_row_us(rows: &[Vec<Value>], mut f: impl FnMut(&Vec<Value>) -> Res<()>) -> Res<f64> {
    let mut us = Vec::with_capacity(rows.len());
    for row in rows {
        let t0 = Instant::now();
        f(row)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    stats::sort(&mut us);
    Ok(stats::median(&us))
}

/// The write and durability path, layer by layer, by direct call on fresh
/// instances over the base corpus (the tier under load is not touched).
fn write_path(report: &mut Report, tr: &mut Tracer, s: &Setup) -> Res<()> {
    let rows = &s.held[..s.held.len().min(300)];
    let dir = scratch_dir("write-path");
    let _ = std::fs::remove_dir_all(&dir);
    let id = tr.begin("serve.write_path");

    let (service, from_snapshot_s) = tr.time("serve.service.from_snapshot", || {
        MatchService::from_snapshot(s.base.clone())
    });
    let mut service = service?;
    service.attach_wal(&dir.join("service.wal"))?;
    let push_id = tr.begin("serve.service.push_row");
    let push_us = per_row_us(rows, |row| {
        Ok(service.push_corpus_row(row.clone()).map(|_| ())?)
    })?;
    tr.end(push_id);

    let wal_path = dir.join("direct.wal");
    let mut wal = WalWriter::create(&wal_path)?;
    let wal_id = tr.begin("serve.wal.append");
    let append_us = per_row_us(rows, |row| Ok(wal.append(row).map(|_| ())?))?;
    tr.end(wal_id);
    drop(wal);
    let wal_bytes = std::fs::metadata(&wal_path)?.len() as f64;

    let title = s.base.corpus.schema().require("AwardTitle")?;
    let mut index = em_blocking::IncrementalIndex::new();
    for (j, row) in s.base.corpus.rows().iter().enumerate() {
        index.insert(j, row[title].as_str());
    }
    let mut next = s.base.corpus.n_rows();
    let insert_id = tr.begin("blocking.incremental.insert");
    let insert_us = per_row_us(rows, |row| {
        index.insert(next, row[title].as_str());
        next += 1;
        Ok(())
    })?;
    tr.end(insert_id);

    let mut extractor = em_features::ServeExtractor::new(&s.base.features, &s.base.corpus)?;
    let extract_id = tr.begin("features.serve.push_right_row");
    let push_right_us = per_row_us(rows, |row| {
        extractor.push_right_row(row);
        Ok(())
    })?;
    tr.end(extract_id);

    let (text, encode_s) = tr.time("serve.snapshot.encode", || s.base.encode());
    let (decoded, decode_s) = tr.time("serve.snapshot.decode", || WorkflowSnapshot::decode(&text));
    report.check(
        "snapshot decode(encode) keeps the corpus",
        decoded?.corpus.n_rows() == s.base.corpus.n_rows(),
    );
    tr.end(id);
    let _ = std::fs::remove_dir_all(&dir);

    report.detail("serve.service.push_row_us", "us", push_us);
    report.layer_time("serve.wal.append", "us", append_us, push_us);
    report.layer_time("blocking.incremental.insert", "us", insert_us, push_us);
    report.layer_time(
        "features.serve.push_right_row",
        "us",
        push_right_us,
        push_us,
    );
    report.metric(
        "serve.wal.bytes_per_row",
        "B",
        wal_bytes / rows.len() as f64,
    );
    report.detail("serve.snapshot.encode_s", "s", encode_s);
    report.detail("serve.snapshot.decode_s", "s", decode_s);
    report.metric("serve.snapshot.bytes", "B", text.len() as f64);
    report.detail("serve.service.from_snapshot_s", "s", from_snapshot_s);
    Ok(())
}

/// What every request pays for the fork/join: p50 of the 2-shard tier's
/// `match_on_arrival` less a single instance's, over the same arrivals.
fn scatter_overhead(report: &mut Report, s: &Setup) -> Res<()> {
    let single = MatchService::from_snapshot(s.base.clone())?;
    let n = s.arrivals.n_rows().min(2000);
    let (mut alone, mut sharded) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut scratch = ProbeScratch::new();
    for i in 0..n {
        let t0 = Instant::now();
        single.match_on_arrival_with(&s.arrivals, i, &mut scratch)?;
        alone.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        s.tier.match_on_arrival(&s.arrivals, i)?;
        sharded.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    stats::sort(&mut alone);
    stats::sort(&mut sharded);
    let (a, b) = (stats::median(&alone), stats::median(&sharded));
    report.detail("serve.shard.single_p50_ms", "ms", a);
    report.layer_time("serve.shard.scatter_overhead", "ms", b - a, b);
    Ok(())
}

/// Median seconds of five recoveries, each from its own copy of the tier's
/// directory (recovery repairs the WAL in place).
fn recoveries(report: &mut Report, tr: &mut Tracer, dir: &Path, written: usize) -> Res<()> {
    let mut secs = Vec::new();
    for k in 0..5 {
        let copy = scratch_dir(&format!("recover-{k}"));
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy)?;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
        let (recovered, s) = tr.time("serve.shard.recover", || {
            ShardedMatchService::recover(&copy, SHARDS)
        });
        let (_, reports) = recovered?;
        let replayed: usize = reports.iter().map(|r| r.replayed).sum();
        report.check(
            "copied WAL replayed exactly the rows written",
            replayed == written,
        );
        secs.push(s);
        let _ = std::fs::remove_dir_all(&copy);
    }
    report.detail("serve.shard.recover_s", "s", Summary::of(&secs));
    report.metric("serve.wal.replayed_rows", "count", written as f64);
    Ok(())
}

fn traced(
    ctx: &Ctx,
    report: &mut Report,
    tr: &mut Tracer,
    mut s: Setup,
    setup_s: Summary,
) -> Res<()> {
    scatter_overhead(report, &s)?;
    write_path(report, tr, &s)?;

    let mut real = RealTier::over(&mut s);

    // Spans are reconstructed from the driver's records after each rep, so
    // tracing adds nothing inside the rep; the alternation still measures
    // what recording costs between reps.
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let mut outs = Vec::new();
    let (mut shed, mut retried) = (0u64, 0u64);
    for rep in 0..3 {
        let (out, _) =
            one_rep(&mut real, ctx.seed, 2 * rep, REP_OPS, NOMINAL_RATE)?.ok_or(OUT_OF_ROWS)?;
        shed += out.shed;
        retried += out.retried;
        plain.push(rep_stats(&out).read_p50);
        let (out, clock) =
            one_rep(&mut real, ctx.seed, 2 * rep + 1, REP_OPS, NOMINAL_RATE)?.ok_or(OUT_OF_ROWS)?;
        shed += out.shed;
        retried += out.retried;
        record_batch_spans(tr, &clock, &out, rep as u64);
        with_spans.push(rep_stats(&out).read_p50);
        outs.push(out);
    }
    report.ops(6 * REP_OPS as u64);
    report.ops_failed(shed, "operation shed at the admission watermark");
    let (plain, with_spans) = (Summary::of(&plain), Summary::of(&with_spans));

    // The ladder: the highest rate whose reads stay under the latency limit
    // with nothing shed and no growing backlog.
    let mut max_rate_ok = 0.0f64;
    for (k, &rate) in LADDER.iter().enumerate() {
        let (out, _) =
            one_rep(&mut real, ctx.seed, 10 + k, rate as usize, rate)?.ok_or(OUT_OF_ROWS)?;
        let st = rep_stats(&out);
        let ok = st.read_p99 <= LATENCY_LIMIT_MS
            && out.shed + out.retried == 0
            && out.backlog_end <= out.backlog_mid + 2 * BatchPolicy::default().max_batch;
        if ok {
            max_rate_ok = rate;
        }
        report.detail(
            &format!("serve.loadgen.rate_{rate}.read_p99_ms"),
            "ms",
            st.read_p99,
        );
        report.note(format!(
            "ladder {rate}/s: read p99 {:.3} ms, refused {}, backlog mid {} end {} -> {}",
            st.read_p99,
            out.shed + out.retried,
            out.backlog_mid,
            out.backlog_end,
            if ok { "ok" } else { "over" }
        ));
    }
    let written = real.written;

    // Decomposition of the traced reps' read latency.
    let (mean, mean_latency) = mean_waits(&outs);
    report.metric(
        "trace.wall_s",
        "s",
        outs.iter().map(|o| o.wall_ms).sum::<f64>() / 1e3 / outs.len() as f64,
    );
    report.metric(
        "trace.overhead_pct",
        "%",
        100.0 * (with_spans.median - plain.median) / plain.median,
    );
    report.metric(
        "trace.accounted_pct",
        "%",
        100.0 * mean.iter().sum::<f64>() / mean_latency,
    );
    report.metric("trace.spans", "count", tr.spans().len() as f64);
    report_hot_stages(report, &real.stages, real.served);

    report.detail("serve.mixed.read_mean_ms", "ms", mean_latency);
    for (name, wait) in WAIT_SPANS.iter().zip(mean) {
        report.layer_time(name, "ms", wait, mean_latency);
    }
    // The same four waits for the one read at the p99 rank of the last rep.
    if let Some(last) = outs.last() {
        let mut by_latency: Vec<&ReadRecord> = last.reads.iter().collect();
        by_latency.sort_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
        let rank =
            ((by_latency.len() as f64 * 0.99).ceil() as usize).clamp(1, by_latency.len()) - 1;
        let read = by_latency[rank];
        report.detail("serve.mixed.read_p99_ms", "ms", read.latency_ms);
        for (name, wait) in WAIT_SPANS.iter().zip(waits_of(last, read)) {
            report.detail(&format!("{name}_at_p99_ms"), "ms", wait);
        }
        report.detail("serve.loadgen.lag_at_p99_ms", "ms", read.lag_ms);
    }
    let batches: Vec<&BatchRecord> = outs.iter().flat_map(|o| &o.batches).collect();
    let n_batches = batches.len().max(1) as f64;
    let skew = batches
        .iter()
        .map(|b| b.shard_max_ms / b.shard_mean_ms.max(1e-9))
        .sum::<f64>()
        / n_batches;
    let size_closed: u64 = outs.iter().map(|o| o.size_closed).sum();
    let deadline_closed: u64 = outs.iter().map(|o| o.deadline_closed).sum();
    report.metric("serve.shard.skew", "ratio", skew);
    report.metric(
        "serve.sched.mean_batch_rows",
        "count",
        batches.iter().map(|b| b.rows as f64).sum::<f64>() / n_batches,
    );
    report.metric(
        "serve.sched.size_closed_pct",
        "%",
        100.0 * size_closed as f64 / (size_closed + deadline_closed).max(1) as f64,
    );
    report.metric("serve.sched.shed", "count", shed as f64);
    report.detail("serve.sched.retried", "count", retried as f64);
    let mut lag: Vec<f64> = outs.iter().flat_map(|o| o.lag_ms.iter().copied()).collect();
    stats::sort(&mut lag);
    report.detail(
        "serve.loadgen.lag_p99_ms",
        "ms",
        stats::percentile(&lag, 99.0),
    );
    report.metric(
        "serve.loadgen.backlog_end",
        "count",
        outs.iter().map(|o| o.backlog_end as f64).sum::<f64>() / outs.len() as f64,
    );
    report.metric("serve.loadgen.max_rate_ok_per_s", "1/s", max_rate_ok);
    report.metric(
        "features.batch.mask_live",
        "count",
        s.tier.shard(0).map_or(0, |m| m.feature_mask().n_live()) as f64,
    );
    report.metric("parallel.threads", "count", em_parallel::threads() as f64);

    recoveries(report, tr, &s.dir, written)?;
    check_recovery(s, written, report)?;
    report.detail("setup_s", "s", setup_s);
    Ok(())
}
