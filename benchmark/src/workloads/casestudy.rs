//! `casestudy_x1`: the paper's Sections 4-12 replayed end to end.
//!
//! `CaseStudy::run` at the paper's configuration and row counts: K-sweep,
//! blocking debugger, oracle labelling, cross-validated selection over six
//! learners, full unmasked extraction, fit, estimation, rules. It stresses
//! `em-blocking::debugger`, `em-ml::{cv,forest}`, `em-features::extract`
//! and `em-core::pipeline`; the set-similarity join is a rounding error
//! here, so a join or kernel speed-up must show no change on it.

use super::{report_batch_job, setup_repeated, timed_reps, Ctx, SETUPS};
use crate::gen::{self, Res, Tables};
use crate::report::Report;
use crate::stats::Summary;
use crate::trace::Tracer;
use em_blocking::{debug_blocking, BlockingDebugger, Pair};
use em_core::blocking_plan::overlap_threshold_sweep;
use em_core::checkpoint::Checkpoint;
use em_core::labeling::run_labeling_resilient;
use em_core::matcher::{build_training_data, select_matcher};
use em_core::pipeline::{standard_rules, CaseStudy, CaseStudyConfig, CaseStudyReport, STAGES};
use em_core::{MatcherStage, RetryPolicy};
use em_datagen::Oracle;
use em_rules::{EqualityRule, RuleSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Scenario scale: the paper's own row counts.
const FACTOR: f64 = 1.0;

/// Set-ups timed before every rep. One takes 26 ms, so a handful in a row
/// sit inside one burst of the host or outside it; taken between the reps
/// they are spread over the whole run.
const SETUPS_PER_REP: usize = 3;

/// Stage span names, parallel to [`STAGES`].
const STAGE_SPANS: [&str; 8] = [
    "core.pipeline.setup",
    "core.pipeline.blocking",
    "core.pipeline.labeling",
    "core.pipeline.label_debug",
    "core.pipeline.selection",
    "core.pipeline.matching",
    "core.pipeline.estimate",
    "core.pipeline.truth",
];

fn config(seed: u64) -> CaseStudyConfig {
    let mut cfg = CaseStudyConfig::paper();
    cfg.scenario = gen::scenario_config(FACTOR, seed, false);
    cfg
}

/// F1 of the final (learning + rules) match list against generator truth.
fn final_f1(r: &CaseStudyReport) -> f64 {
    r.truth_scores
        .iter()
        .find(|(name, _)| name == "learning+rules")
        .map_or(f64::NAN, |(_, t)| t.f1)
}

pub fn run(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) -> Res<()> {
    // `CaseStudy::run` generates its own scenario, so set-up is only what
    // the harness needs beside it: the tables whose rows are counted and on
    // which the traced pass calls the stage functions directly.
    let (tables, setup_s) = setup_repeated(SETUPS, || gen::tables(FACTOR, ctx.seed, false))?;
    let cfg = config(ctx.seed);
    let rows = (tables.umetrics.n_rows() + tables.extra.n_rows() + tables.usda.n_rows()) as f64;

    if ctx.trace {
        return traced(report, tr, &cfg, &tables, setup_s);
    }

    let (mut setup_secs, mut calls) = (Vec::new(), Vec::new());
    let reps = timed_reps(ctx.seconds, |_| {
        for _ in 0..SETUPS_PER_REP {
            let t0 = Instant::now();
            gen::tables(FACTOR, ctx.seed, false)?;
            setup_secs.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        let r = CaseStudy::new(cfg.clone()).run()?;
        calls.push(vec![t0.elapsed().as_secs_f64()]);
        Ok(r)
    })?;
    let first = &reps[0].0;
    report.check(
        "CaseStudyReport identical across reps",
        reps.iter().all(|(r, _)| r == first),
    );
    report_batch_job(report, &calls, rows, Summary::quiet_low(&setup_secs));
    report.detail("core.pipeline.f1", "ratio", final_f1(first));
    report.detail(
        "core.pipeline.final_matches",
        "count",
        first.final_total as f64,
    );
    report.detail("core.pipeline.input_rows", "count", rows);
    Ok(())
}

/// Runs `run_checkpointed` while a second thread notes when each
/// `<stage>.ckpt` appears: a stage ends when its checkpoint does. Returns the
/// report, the wall seconds, and the instants the eight stages ended.
fn run_watched(
    cfg: &CaseStudyConfig,
    dir: &Path,
) -> Res<(CaseStudyReport, Instant, Instant, Vec<Instant>)> {
    let done = AtomicBool::new(false);
    let (result, ends) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut ends: Vec<Instant> = Vec::with_capacity(STAGES.len());
            for stage in STAGES {
                let path = Checkpoint::path_for(dir, stage);
                while !path.exists() {
                    if done.load(Ordering::SeqCst) {
                        return ends;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                ends.push(Instant::now());
            }
            ends
        });
        let start = Instant::now();
        let result = CaseStudy::new(cfg.clone()).run_checkpointed(dir);
        let end = Instant::now();
        done.store(true, Ordering::SeqCst);
        let ends = watcher.join().unwrap_or_default();
        (result.map(|r| (r, start, end)), ends)
    });
    let (r, start, end) = result?;
    if ends.len() != STAGES.len() {
        return Err(format!("saw {} of {} stage checkpoints", ends.len(), STAGES.len()).into());
    }
    Ok((r, start, end, ends))
}

fn traced(
    report: &mut Report,
    tr: &mut Tracer,
    cfg: &CaseStudyConfig,
    tables: &Tables,
    setup_s: Summary,
) -> Res<()> {
    let (u, s) = (&tables.umetrics, &tables.usda);

    // Plain run first: its wall time is what checkpointing and tracing are
    // measured against.
    let t0 = Instant::now();
    let plain = CaseStudy::new(cfg.clone()).run()?;
    let plain_s = t0.elapsed().as_secs_f64();

    let dir = crate::report::out_dir().join(format!("tmp-casestudy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let watched = run_watched(cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (checkpointed, start, end, ends) = watched?;
    report.check(
        "checkpointed CaseStudyReport == plain CaseStudyReport",
        checkpointed == plain,
    );
    report.ops(2);

    let wall_s = (end - start).as_secs_f64();
    let run_id = tr.record(
        "core.pipeline.run_checkpointed",
        tr.ns_of(start),
        tr.ns_of(end),
    );
    let mut stage_s = [0.0f64; 8];
    let mut from = start;
    for (k, at) in ends.iter().enumerate() {
        // The first stage's span includes scenario generation and projection,
        // which `run` regenerates as context before the `setup` stage.
        tr.record_in(run_id, STAGE_SPANS[k], tr.ns_of(from), tr.ns_of(*at));
        stage_s[k] = at.saturating_duration_since(from).as_secs_f64();
        from = *at;
    }
    let staged: f64 = stage_s.iter().sum();

    // Children, by direct call on the same tables.
    tr.set_run(1);
    let children_id = tr.begin("core.pipeline.children");
    let (blocking, run_blocking_s) = tr.time("core.blocking_plan.run_blocking", || {
        em_core::run_blocking(u, s, &cfg.plan)
    });
    let cands = blocking?.consolidated;
    let (sweep, sweep_s) = tr.time("core.blocking_plan.threshold_sweep", || {
        overlap_threshold_sweep(u, s, &[1, 2, 3, 4, 5, 6, 7])
    });
    report.check("threshold sweep == report.sweep", sweep? == plain.sweep);
    let debugger = BlockingDebugger::new("AwardTitle", "AwardTitle").with_top_k(cfg.debugger_top_k);
    let (audit, debugger_s) = tr.time("blocking.debugger.debug_blocking", || {
        debug_blocking(&debugger, u, s, &cands)
    });
    report.check(
        "debugger audit size == report",
        audit?.len() == plain.debugger_inspected,
    );

    let oracle = Oracle::new(&tables.scenario.truth, cfg.oracle);
    let (labeled, labeling_s) = tr.time("core.labeling.run_labeling", || {
        run_labeling_resilient(
            u,
            s,
            &cands,
            &oracle,
            &cfg.label_rounds,
            cfg.seed,
            &RetryPolicy::none(),
        )
    });
    let (labeled, _, _) = labeled?;
    let stage2 = MatcherStage::new(cfg.seed).with_case_insensitive();
    let features = em_features::auto_features(u, s, &stage2.feature_opts);
    let pairs: Vec<Pair> = cands.to_vec();
    let (x, extract_s) = tr.time("features.extract.extract_vectors", || {
        em_features::extract_vectors(&features, u, s, &pairs)
    });
    let x = x?;
    let m1 = RuleSet {
        positive: vec![EqualityRule::suffix_equals(
            "M1",
            "AwardNumber",
            "AwardNumber",
        )],
        negative: vec![],
    };
    let (data, _imputer) = build_training_data(u, s, &features, &labeled, &m1)?;
    let (ranking, select_s) = tr.time("ml.cv.select_matcher", || select_matcher(&data, &stage2));
    let ranking = ranking?;
    report.check(
        "direct-call selection winner == report",
        ranking.first().map(|r| r.learner.as_str())
            == plain.selection_round2.first().map(|m| m.name.as_str()),
    );
    let forest = em_ml::forest::RandomForestLearner {
        seed: cfg.seed,
        ..Default::default()
    };
    let (fitted, fit_s) = tr.time("ml.forest.fit", || forest.fit_forest(&data));
    let fitted = fitted?;
    use em_ml::Model;
    let (n_predicted, predict_s) = tr.time("ml.forest.predict", || {
        x.iter()
            .filter(|row| fitted.predict_proba(row) >= 0.5)
            .count()
    });
    let rules = standard_rules();
    let (sure, sure_s) = tr.time("rules.sure_matches", || rules.sure_matches(u, s));
    let sure = sure?;
    let (negative, negative_s) = tr.time("rules.negative", || rules.apply_negative(u, s, &cands));
    let (_, flipped) = negative?;
    // The estimator itself: the paper's 400 evaluation labels, drawn here
    // from generator truth over the first candidates.
    let sample: Vec<em_estimate::SampleItem> = pairs
        .iter()
        .take(cfg.eval_rounds.iter().sum())
        .map(|p| {
            let is_match = tables.scenario.truth.is_match(
                &u.get(p.left, "AwardNumber")
                    .map(|v| v.render())
                    .unwrap_or_default(),
                &s.get(p.right, "AccessionNumber")
                    .map(|v| v.render())
                    .unwrap_or_default(),
            );
            em_estimate::SampleItem {
                predicted: sure.contains(p),
                label: if is_match {
                    em_estimate::Label::Yes
                } else {
                    em_estimate::Label::No
                },
            }
        })
        .collect();
    let (estimate, estimate_s) = tr.time("estimate.estimate_accuracy", || {
        em_estimate::estimate_accuracy(&sample, em_estimate::Z95)
    });
    tr.end(children_id);

    report.metric("trace.wall_s", "s", wall_s);
    report.metric(
        "trace.overhead_pct",
        "%",
        100.0 * (wall_s - plain_s) / plain_s,
    );
    report.metric("trace.accounted_pct", "%", 100.0 * staged / wall_s);
    report.metric("trace.spans", "count", tr.spans().len() as f64);
    // The three kernels `stream_x16` spends its time in are inside these
    // three calls here, so this is an upper bound on their share.
    report.metric(
        "trace.kernel_pct",
        "%",
        100.0 * (run_blocking_s + extract_s + predict_s) / plain_s,
    );
    report.metric(
        "time.blocking_s",
        "s",
        run_blocking_s + sweep_s + debugger_s,
    );
    report.metric("time.features_s", "s", extract_s);
    report.metric("time.ml_s", "s", select_s + fit_s + predict_s);
    report.metric("time.rules_s", "s", sure_s + negative_s);

    for (k, span) in STAGE_SPANS.iter().enumerate() {
        report.layer_time(span, "s", stage_s[k], wall_s);
    }
    report.layer_time("core.checkpoint.overhead", "s", wall_s - plain_s, plain_s);
    report.layer_time(
        "core.blocking_plan.run_blocking",
        "s",
        run_blocking_s,
        plain_s,
    );
    report.layer_time("core.blocking_plan.threshold_sweep", "s", sweep_s, plain_s);
    report.layer_time("blocking.debugger.debug_blocking", "s", debugger_s, plain_s);
    report.layer_time("core.labeling.run_labeling", "s", labeling_s, plain_s);
    report.layer_time("features.extract.extract_vectors", "s", extract_s, plain_s);
    report.layer_time("ml.cv.select_matcher", "s", select_s, plain_s);
    report.layer_time("ml.forest.fit", "s", fit_s, plain_s);
    report.layer_time("estimate.estimate_accuracy", "s", estimate_s, plain_s);
    report.layer_time("rules.sure_matches", "s", sure_s, plain_s);
    report.layer_time("rules.negative", "s", negative_s, plain_s);
    report.detail("ml.forest.predict_s", "s", predict_s);
    report.detail("core.pipeline.wall_plain_s", "s", plain_s);
    report.metric("core.pipeline.f1", "ratio", final_f1(&plain));
    report.metric(
        "core.pipeline.final_matches",
        "count",
        plain.final_total as f64,
    );
    report.metric("blocking.join.candidates", "count", cands.len() as f64);
    report.metric("rules.flipped", "count", flipped.len() as f64);
    report.metric("parallel.threads", "count", em_parallel::threads() as f64);
    report.detail("setup_s", "s", setup_s);
    report.note(format!(
        "direct calls: {} candidates, {} labeled, forest predicts {n_predicted}, estimator used {} of {} labels",
        cands.len(),
        labeled.len(),
        estimate.n_used,
        sample.len()
    ));
    Ok(())
}
