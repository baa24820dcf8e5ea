//! `stream_x16`: batch throughput of the fused streaming executor.
//!
//! The frozen workflow streams over the x16 corpus (21 376 x 30 640 rows,
//! about 340 k candidate pairs). `em-blocking::join`, `em-features::batch`,
//! `em-ml` block scoring, `em-rules` and `em-parallel` do all the work;
//! `em-serve`, model fitting and the blocking debugger do none, so a change
//! to those must leave this workload flat.

use super::{report_batch_job, setup_repeated, timed_reps, Ctx, SETUPS};
use crate::gen::{self, Res, Tables};
use crate::report::Report;
use crate::stats::Summary;
use crate::trace::Tracer;
use em_blocking::{CandidateSet, JoinIndex, Pair};
use em_core::pipeline::ServingArtifacts;
use em_core::{EmWorkflow, StreamMatcher, StreamOutcome};
use em_table::Table;
use em_text::{TokenCache, TokenCorpus};
use std::time::Instant;

/// Corpus scale of the timed stream.
const FACTOR: f64 = 16.0;
/// Scale at which the stream is checked against the materialized workflow.
const CROSSCHECK_FACTOR: f64 = 4.0;
/// The column both join schemes block on.
const BLOCK_COL: &str = "AwardTitle";

struct Setup {
    artifacts: ServingArtifacts,
    tables: Tables,
}

/// One `StreamMatcher::new` + `run`; returns the outcome with the seconds
/// each took. Span names carry the thread count's tag so the one-thread
/// reference and the N-thread reps stay apart in the trace.
fn stream_once(
    u: &Table,
    d: &Table,
    art: &ServingArtifacts,
    tr: &mut Tracer,
    names: (&'static str, &'static str),
) -> Res<(StreamOutcome, f64, f64)> {
    let id = tr.begin(names.0);
    let t0 = Instant::now();
    let sm = StreamMatcher::new(u, d, &art.matcher, &art.rule_descs, &art.plan)?;
    let new_s = t0.elapsed().as_secs_f64();
    tr.end(id);
    let (out, run_s) = tr.time(names.1, || sm.run());
    Ok((out, new_s, run_s))
}

/// The materialized workflow over the same frozen artifacts.
fn workflow(art: &ServingArtifacts) -> EmWorkflow<'_> {
    EmWorkflow {
        rules: art.rule_descs.build(),
        plan: art.plan,
        matcher: &art.matcher,
        apply_negative: true,
    }
}

const SPANS_NT: (&str, &str) = ("core.stream.new", "core.stream.run");
const SPANS_1T: (&str, &str) = ("core.stream.new_1t", "core.stream.run_1t");

/// Untimed warm-up that doubles as an output check: at x4 the stream's
/// outcome must be the same at one thread and at the default thread count,
/// and its counts must equal the materialized `EmWorkflow::run`'s.
fn crosscheck_small(seed: u64, art: &ServingArtifacts, report: &mut Report) -> Res<()> {
    let t = gen::tables(CROSSCHECK_FACTOR, seed, true)?;
    let mut off = Tracer::new(false);
    em_parallel::set_threads(1);
    let one_thread = stream_once(&t.umetrics, &t.usda, art, &mut off, SPANS_NT);
    em_parallel::set_threads(0);
    let (one_thread, _, _) = one_thread?;
    let (out, _, _) = stream_once(&t.umetrics, &t.usda, art, &mut off, SPANS_NT)?;
    report.check(
        "StreamOutcome identical at 1 and N threads at x4",
        out == one_thread,
    );
    let wf = workflow(art);
    let r = wf.run(&t.umetrics, &t.usda)?;
    report.check(
        "stream counts == EmWorkflow::run counts at x4",
        out.candidates == r.candidates.len()
            && out.predicted == r.predicted.len()
            && out.flipped == r.flipped.len()
            && out.matched == r.matches.len(),
    );
    Ok(())
}

pub fn run(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) -> Res<()> {
    let (setup, setup_s) = setup_repeated(SETUPS, || {
        Ok(Setup {
            artifacts: gen::train_stream_workflow()?,
            tables: gen::tables(FACTOR, ctx.seed, true)?,
        })
    })?;
    let (u, d, art) = (&setup.tables.umetrics, &setup.tables.usda, &setup.artifacts);

    crosscheck_small(ctx.seed, art, report)?;

    if ctx.trace {
        return traced(report, tr, &setup, setup_s);
    }

    let reps = timed_reps(ctx.seconds, |_| stream_once(u, d, art, tr, SPANS_NT))?;
    let reference = &reps[0].0 .0;
    report.check(
        "StreamOutcome identical across reps",
        reps.iter().all(|((out, _, _), _)| out == reference),
    );
    // Two calls a rep: `new`, and `run` with the matcher's drop.
    let calls: Vec<Vec<f64>> = reps
        .iter()
        .map(|((_, new_s, _), rep_s)| vec![*new_s, rep_s - new_s])
        .collect();
    report_batch_job(report, &calls, reference.candidates as f64, setup_s);
    report.detail(
        "core.stream.candidates",
        "count",
        reference.candidates as f64,
    );
    report.detail("core.stream.matched", "count", reference.matched as f64);
    Ok(())
}

/// Stage times of the materialized chain, in call order.
struct Chain {
    tokenize_s: f64,
    build_s: f64,
    probe_s: f64,
    sure_s: f64,
    run_blocking_s: f64,
    set_ops_s: f64,
    prepare_s: f64,
    extract_s: f64,
    impute_s: f64,
    score_s: f64,
    negative_s: f64,
    /// The whole chain, spans and the glue between them.
    wall_s: f64,
    candidates: usize,
    predicted: usize,
    flipped: usize,
    matched: usize,
    mask_live: usize,
}

impl Chain {
    /// The stages a materialized run executes one after another; tokenize,
    /// build and probe are inside `run_blocking` and not added again.
    fn sum_s(&self) -> f64 {
        self.sure_s
            + self.run_blocking_s
            + self.set_ops_s
            + self.prepare_s
            + self.extract_s
            + self.impute_s
            + self.score_s
            + self.negative_s
    }
}

/// Calls the public stage functions one after another on materialized
/// tables: what `EmWorkflow::run` does, with a span around each stage.
fn batch_chain(u: &Table, d: &Table, art: &ServingArtifacts, tr: &mut Tracer) -> Res<Chain> {
    let chain_id = tr.begin("core.workflow.chain");
    let chain_t0 = Instant::now();

    // Children of `run_blocking`, called directly so each has its own span.
    let cache = TokenCache::for_blocking();
    let ((left, right), tokenize_s) = tr.time("text.intern.tokenize", || {
        (
            TokenCorpus::from_column(&cache, u.iter().map(|r| r.str(BLOCK_COL))),
            TokenCorpus::from_column(&cache, d.iter().map(|r| r.str(BLOCK_COL))),
        )
    });
    let (index, build_s) = tr.time("blocking.join.build", || JoinIndex::build(right));
    let spec = art.plan.union_spec();
    let (probed, probe_s) = tr.time("blocking.join.probe", || {
        em_blocking::join_pairs(&left, &index, &spec)
    });
    let probed_pairs: usize = probed.iter().map(Vec::len).sum();
    drop((probed, index, left));

    let rules = art.rule_descs.build();
    let (sure, sure_s) = tr.time("rules.sure_matches", || rules.sure_matches(u, d));
    let sure = sure?;
    let (blocked, run_blocking_s) = tr.time("core.blocking_plan.run_blocking", || {
        em_core::run_blocking(u, d, &art.plan)
    });
    let blocked = blocked?.consolidated;
    let (pairs, set_ops_s) = tr.time("core.workflow.set_ops", || blocked.minus(&sure).to_vec());
    drop(blocked);

    let features = &art.matcher.features;
    let nf = features.len();
    let mask = em_core::derive_feature_mask(features, &art.matcher.model, &art.rule_descs);
    let (extractor, prepare_s) = tr.time("features.batch.prepare", || {
        em_features::BatchExtractor::for_pairs(features, u, d, &mask, &pairs)
    });
    let extractor = extractor?;
    let (mut matrix, extract_s) = tr.time("features.batch.extract", || {
        extractor.extract_matrix(u, d, &pairs)
    });
    let ((), impute_s) = tr.time("ml.dataset.impute", || {
        for row in matrix.chunks_exact_mut(nf) {
            art.matcher.imputer.transform_row(row);
        }
    });
    let scorer = art.matcher.model.block_scorer();
    let mut scores = vec![0.0f64; pairs.len()];
    let ((), score_s) = tr.time("ml.fitted.score", || {
        scorer.score_block(&matrix, nf, &mut scores)
    });
    drop(matrix);

    let mut predicted = CandidateSet::new("predicted");
    for (pair, p) in pairs.iter().zip(&scores) {
        if *p >= 0.5 {
            predicted.add(Pair::new(pair.left, pair.right), "model");
        }
    }
    let (negative, negative_s) =
        tr.time("rules.negative", || rules.apply_negative(u, d, &predicted));
    let (kept, flipped) = negative?;
    let matched = sure.union(&kept).len();
    let wall_s = chain_t0.elapsed().as_secs_f64();
    tr.end(chain_id);

    // The direct probe must admit what `run_blocking` blocks, less C1.
    if probed_pairs > pairs.len() + sure.len() + u.n_rows() {
        return Err("join probe admitted more pairs than run_blocking kept".into());
    }
    Ok(Chain {
        tokenize_s,
        build_s,
        probe_s,
        sure_s,
        run_blocking_s,
        set_ops_s,
        prepare_s,
        extract_s,
        impute_s,
        score_s,
        negative_s,
        wall_s,
        candidates: pairs.len(),
        predicted: predicted.len(),
        flipped: flipped.len(),
        matched,
        mask_live: mask.n_live(),
    })
}

fn traced(report: &mut Report, tr: &mut Tracer, setup: &Setup, setup_s: Summary) -> Res<()> {
    let (u, d, art) = (&setup.tables.umetrics, &setup.tables.usda, &setup.artifacts);

    // One-thread reference rep: the outcome every later rep must reproduce,
    // and the baseline of the parallel speed-up.
    em_parallel::set_threads(1);
    let one_thread = stream_once(u, d, art, tr, SPANS_1T);
    em_parallel::set_threads(0);
    let (reference, ref_new_s, ref_run_s) = one_thread?;
    let (reference, one_thread_s) = (&reference, ref_new_s + ref_run_s);

    // The fused driver, alternating an untraced and a traced rep so the two
    // see the same machine state.
    let mut off = Tracer::new(false);
    let (mut plain_s, mut traced_s, mut new_s) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..3u64 {
        let (out, a, b) = stream_once(u, d, art, &mut off, SPANS_NT)?;
        report.check("StreamOutcome identical (untraced rep)", out == *reference);
        plain_s.push(a + b);
        tr.set_run(rep);
        let id = tr.begin("core.stream");
        let (out, a, b) = stream_once(u, d, art, tr, SPANS_NT)?;
        tr.end(id);
        report.check("StreamOutcome identical (traced rep)", out == *reference);
        traced_s.push(a + b);
        new_s.push(a);
    }
    report.ops(7);
    let wall = Summary::of(&traced_s);
    let plain = Summary::of(&plain_s);
    let new_med = Summary::of(&new_s).median;

    // The materialized chain, stage by stage, and the whole workflow call.
    tr.set_run(100);
    let chain = batch_chain(u, d, art, tr)?;
    let wf = workflow(art);
    let (r, workflow_s) = tr.time("core.workflow.run", || wf.run(u, d));
    let r = r?;
    report.check(
        "stage chain counts == StreamOutcome == EmWorkflow::run at x16",
        [
            chain.candidates,
            chain.predicted,
            chain.flipped,
            chain.matched,
        ] == [
            reference.candidates,
            reference.predicted,
            reference.flipped,
            reference.matched,
        ] && [
            r.candidates.len(),
            r.predicted.len(),
            r.flipped.len(),
            r.matches.len(),
        ] == [
            chain.candidates,
            chain.predicted,
            chain.flipped,
            chain.matched,
        ],
    );

    let sum = chain.sum_s();
    report.metric("trace.wall_s", "s", wall.median);
    report.metric(
        "trace.overhead_pct",
        "%",
        100.0 * (wall.median - plain.median) / plain.median,
    );
    // Share of the chain's wall time that lies inside some stage span; the
    // rest is glue (candidate-set construction, drops) no span covers.
    let spanned = sum + chain.tokenize_s + chain.build_s + chain.probe_s;
    report.metric("trace.accounted_pct", "%", 100.0 * spanned / chain.wall_s);
    report.metric("trace.spans", "count", tr.spans().len() as f64);
    report.metric(
        "trace.kernel_pct",
        "%",
        100.0 * (chain.probe_s + chain.extract_s + chain.score_s) / sum,
    );
    report.metric("time.blocking_s", "s", chain.run_blocking_s);
    report.metric("time.features_s", "s", chain.prepare_s + chain.extract_s);
    report.metric("time.ml_s", "s", chain.impute_s + chain.score_s);
    report.metric("time.rules_s", "s", chain.sure_s + chain.negative_s);

    report.layer_time("text.intern.tokenize", "s", chain.tokenize_s, sum);
    report.layer_time("blocking.join.build", "s", chain.build_s, sum);
    report.layer_time("blocking.join.probe", "s", chain.probe_s, sum);
    report.layer_time(
        "core.blocking_plan.run_blocking",
        "s",
        chain.run_blocking_s,
        sum,
    );
    report.layer_time("rules.sure_matches", "s", chain.sure_s, sum);
    report.layer_time("features.batch.prepare", "s", chain.prepare_s, sum);
    report.layer_time("features.batch.extract", "s", chain.extract_s, sum);
    report.layer_time("ml.dataset.impute", "s", chain.impute_s, sum);
    report.layer_time("ml.fitted.score", "s", chain.score_s, sum);
    report.layer_time("rules.negative", "s", chain.negative_s, sum);
    report.detail("core.workflow.set_ops_s", "s", chain.set_ops_s);
    report.detail("core.workflow.chain_sum_s", "s", sum);
    report.detail("core.workflow.run_s", "s", workflow_s);
    // `EmWorkflow::run` extracts all 46 features through `extract_vectors`
    // and predicts row by row; the chain extracts the live ones and scores
    // by block, as the fused stream does. The ratios say how far apart the
    // three executors are on the same tables.
    report.detail("core.workflow.run_over_chain", "ratio", workflow_s / sum);
    report.detail("core.stream.wall_over_chain", "ratio", plain.median / sum);
    let per_s = |secs: f64| chain.candidates as f64 / secs;
    report.detail("blocking.join.probe_per_s", "1/s", per_s(chain.probe_s));
    report.detail(
        "features.batch.extract_per_s",
        "1/s",
        per_s(chain.extract_s),
    );
    report.detail("ml.fitted.score_per_s", "1/s", per_s(chain.score_s));
    report.metric("blocking.join.candidates", "count", chain.candidates as f64);
    report.metric("features.batch.mask_live", "count", chain.mask_live as f64);
    report.metric("rules.flipped", "count", chain.flipped as f64);
    report.metric(
        "core.workflow.match_yield_pct",
        "%",
        100.0 * chain.matched as f64 / chain.candidates as f64,
    );

    report.layer_time("core.stream.new", "s", new_med, wall.median);
    report.detail("core.stream.run_s", "s", wall.median - new_med);
    report.detail("core.stream.wall_untraced_s", "s", plain);
    report.note(format!(
        "core.stream.checksum {:#018x} over {} candidates, {} matched",
        reference.checksum, reference.candidates, reference.matched
    ));
    let threads = em_parallel::threads();
    report.metric("parallel.threads", "count", threads as f64);
    report.metric(
        "core.stream.pairs_per_s_1t",
        "1/s",
        reference.candidates as f64 / one_thread_s,
    );
    if threads > 1 {
        // One core gives no parallel speed-up to report.
        report.metric("parallel.speedup_nt", "ratio", one_thread_s / plain.median);
    }
    report.detail("setup_s", "s", setup_s);
    Ok(())
}
