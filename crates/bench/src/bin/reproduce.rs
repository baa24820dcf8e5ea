//! Regenerates every table and figure of *Executing Entity Matching End to
//! End: A Case Study* (EDBT 2019) on the synthetic scenario.
//!
//! ```text
//! cargo run --release -p em-bench --bin reproduce -- [--scale paper|small]
//!     [--seed N] [--faults] [--threads N] [--bench] [--active] [--weak]
//!     [--section <id>]...
//! ```
//!
//! Sections: `fig1 fig2 fig3 fig4 fig5 fig7 blocking blockdebug labeling
//! selection matching rule2 patch estimate final resilience ablation`
//! (default: all). `--faults` runs the case study under an active fault
//! plan (flaky oracle + corrupted USDA CSV) so the resilience section shows
//! a non-trivial ledger; the headline numbers should not move. Output is
//! plain text with the paper's numbers quoted next to ours; tee it into
//! EXPERIMENTS.md evidence files.
//!
//! `--threads N` pins the parallel executor's worker count (default:
//! `EM_THREADS` or the hardware); results never depend on it. `--bench`
//! times the parallel pipeline stages at 1 thread and at N threads,
//! verifies the outputs are bit-identical, writes `BENCH_pipeline.json`,
//! and skips the report sections. Every run ends with its total wall time
//! and thread count.

use em_bench::fixtures_cfg;
use em_blocking::{debug_blocking_counted, Blocker, BlockingDebugger, OverlapBlocker, Pair};
use em_core::blocking_plan::{run_blocking, BlockingPlan};
use em_core::labeling::run_labeling;
use em_core::matcher::{build_training_data, select_matcher, train_matcher, MatcherStage};
use em_core::pipeline::{CaseStudy, CaseStudyConfig, CaseStudyReport};
use em_core::resilience::FaultPlan;
use em_datagen::{Oracle, OracleConfig, ScenarioConfig};
use em_features::{auto_features, extract_vectors, FeatureOptions};
use em_ml::dataset::{impute_mean, Dataset};
use em_ml::model::Learner;
use em_ml::tree::DecisionTreeLearner;
use em_rules::award::award_suffix;
use em_rules::{EqualityRule, RuleSet};
use em_table::{csv, DataType, Table};

struct Args {
    paper_scale: bool,
    scale_factor: Option<f64>,
    seed: Option<u64>,
    faults: bool,
    threads: Option<usize>,
    bench: bool,
    serve: bool,
    serve_chaos: bool,
    serve_load: bool,
    scaling: Vec<f64>,
    scaling_match: Vec<f64>,
    active: bool,
    weak: bool,
    explicit_sections: bool,
    sections: Vec<String>,
}

impl Args {
    /// The scenario config the flags select, before any seed override:
    /// `--scale-factor f` wins over `--scale paper|small`.
    fn base_cfg(&self) -> ScenarioConfig {
        match self.scale_factor {
            Some(f) => ScenarioConfig::scaled(f),
            None if self.paper_scale => ScenarioConfig::paper(),
            None => ScenarioConfig::small(),
        }
    }

    /// Label used in console output and the bench JSON.
    fn scale_label(&self) -> String {
        match self.scale_factor {
            Some(f) => format!("x{f}"),
            None if self.paper_scale => "paper".to_string(),
            None => "small".to_string(),
        }
    }
}

const ALL_SECTIONS: &[&str] = &[
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig7", "blocking", "blockdebug", "labeling",
    "selection", "matching", "rule2", "patch", "estimate", "final", "resilience", "ablation",
];

fn parse_args() -> Args {
    let mut args = Args {
        paper_scale: false,
        scale_factor: None,
        seed: None,
        faults: false,
        threads: None,
        bench: false,
        serve: false,
        serve_chaos: false,
        serve_load: false,
        scaling: Vec::new(),
        scaling_match: Vec::new(),
        active: false,
        weak: false,
        explicit_sections: false,
        sections: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                args.paper_scale = v == "paper";
            }
            "--scale-factor" => {
                args.scale_factor =
                    it.next().and_then(|v| v.parse().ok()).filter(|&f: &f64| f > 0.0);
            }
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok());
            }
            "--faults" => {
                args.faults = true;
            }
            "--threads" => {
                args.threads = it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0);
            }
            "--bench" => {
                args.bench = true;
            }
            "--serve" => {
                args.serve = true;
            }
            "--serve-chaos" => {
                args.serve_chaos = true;
            }
            "--serve-load" => {
                args.serve_load = true;
            }
            "--scaling" => {
                args.scaling = it
                    .next()
                    .unwrap_or_default()
                    .split(',')
                    .filter_map(|v| v.trim().parse().ok())
                    .filter(|&f: &f64| f > 0.0)
                    .collect();
            }
            "--scaling-match" => {
                args.scaling_match = it
                    .next()
                    .unwrap_or_default()
                    .split(',')
                    .filter_map(|v| v.trim().parse().ok())
                    .filter(|&f: &f64| f > 0.0)
                    .collect();
            }
            "--active" => {
                args.active = true;
            }
            "--weak" => {
                args.weak = true;
            }
            "--section" => {
                if let Some(v) = it.next() {
                    args.explicit_sections = true;
                    args.sections.push(v);
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce [--scale paper|small] [--scale-factor F] [--seed N] [--faults] [--threads N] [--bench] [--serve] [--serve-chaos] [--section <id>]...\n\
                     sections: {} (default: all)\n\
                     --scale-factor F: generate the scenario at F times paper scale (overrides --scale)\n\
                     --faults: inject a flaky oracle and CSV corruption; the run must absorb them\n\
                     --threads N: pin the parallel executor's worker count (results never change)\n\
                     --bench: time pipeline stages at 1 vs N threads, write BENCH_pipeline.json\n\
                     --serve: also time online serving (serve_batch/serve_single); implies --bench\n\
                     --serve-chaos: drive the serve tier through a seeded fault schedule (crashes,\n\
                                    torn WAL tails, corrupt snapshots, bursts) and prove recovery is\n\
                                    bit-identical; standalone, or a serve_chaos JSON block with --bench\n\
                     --serve-load: open-loop load benchmark over the sharded serve tier: seeded\n\
                                    Poisson-style arrivals through the micro-batching scheduler at\n\
                                    shard counts 1/2/4, rate sweep auto-calibrated from the 1-shard\n\
                                    capacity; prints latency tables (p50/p99/p999, virtual time) and\n\
                                    saturation throughput; standalone, or a serve_load JSON block\n\
                                    with --bench\n\
                     --scaling F1,F2,...: run the corpus-scale blocking stages at each factor\n\
                                    (streaming set-similarity join; records candidates/sec, wall\n\
                                    time, and peak RSS). With --bench this adds a `scaling` block\n\
                                    to BENCH_pipeline.json; standalone it writes BENCH_scaling.json.\n\
                                    A bare --scale-factor F (no --bench, no --section) is shorthand\n\
                                    for --scaling F\n\
                     --active: run the label-efficiency experiment (query-by-committee active\n\
                                    learning vs random sampling on a loose quarter-scale pool);\n\
                                    prints both curves and the labels-to-target comparison.\n\
                                    With --bench this adds a label_efficiency block to\n\
                                    BENCH_pipeline.json\n\
                     --weak: train a matcher from labeling functions alone (weak supervision,\n\
                                    zero oracle labels) and score it; combines with --active\n\
                                    and rides along --bench the same way\n\
                     --scaling-match F1,F2,...: run the fused end-to-end streaming match at each\n\
                                    factor (blocking -> features -> forest -> rules, no\n\
                                    materialized candidate set); trains the frozen workflow once\n\
                                    at x1, then records matched pairs, pairs/s, a thread-invariant\n\
                                    checksum, and peak RSS per factor. With --bench this adds a\n\
                                    scaling_match block to BENCH_pipeline.json; standalone it\n\
                                    writes BENCH_scaling.json",
                    ALL_SECTIONS.join(" ")
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if args.sections.is_empty() || args.sections.iter().any(|s| s == "all") {
        args.sections = ALL_SECTIONS.iter().map(|s| s.to_string()).collect();
    }
    args
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let started = std::time::Instant::now();
    let args = parse_args();
    if let Some(n) = args.threads {
        em_parallel::set_threads(n);
    }
    if args.serve_chaos && !args.bench && !args.serve {
        serve_chaos_section(&args)?;
        print_wall_time(started);
        return Ok(());
    }
    if args.serve_load && !args.bench && !args.serve {
        serve_load_section(&args)?;
        print_wall_time(started);
        return Ok(());
    }
    if (args.active || args.weak) && !args.bench && !args.serve {
        label_efficiency_section(&args)?;
        print_wall_time(started);
        return Ok(());
    }
    if args.bench || args.serve {
        bench_pipeline(&args)?;
        print_wall_time(started);
        return Ok(());
    }
    // Scaling-only modes: an explicit `--scaling` list, or a bare
    // `--scale-factor F` with no sections requested — running the full
    // report at x64/x256 is not meaningful (the paper's numbers are
    // x1-scale), so a bare factor means "measure the corpus-scale blocking
    // stage there".
    if !args.scaling.is_empty()
        || !args.scaling_match.is_empty()
        || (args.scale_factor.is_some() && !args.explicit_sections)
    {
        let seed = args.base_cfg().seed;
        let seed = args.seed.unwrap_or(seed);
        // The match sweep runs first so its peak-RSS readings (`VmHWM`
        // high-water) are not masked by the blocking sweep's footprint.
        let match_block = if args.scaling_match.is_empty() {
            String::new()
        } else {
            scaling_match_stages(&args.scaling_match, seed)?
        };
        let mut block = String::new();
        // A bare `--scale-factor F` keeps its blocking-scaling shorthand
        // meaning unless an explicit `--scaling-match` list was given.
        if !args.scaling.is_empty() || args.scaling_match.is_empty() {
            let factors = if args.scaling.is_empty() {
                vec![args.scale_factor.unwrap_or(1.0)]
            } else {
                args.scaling.clone()
            };
            block.push_str(&scaling_stages(&factors, seed)?);
        }
        block.push_str(&match_block);
        let json = format!("{{\n{block}  \"seed\": {seed}\n}}\n");
        std::fs::write("BENCH_scaling.json", &json)?;
        println!("  wrote BENCH_scaling.json");
        print_wall_time(started);
        return Ok(());
    }
    let wants = |s: &str| args.sections.iter().any(|x| x == s);

    let mut scenario_cfg = args.base_cfg();
    if let Some(seed) = args.seed {
        scenario_cfg = scenario_cfg.with_seed(seed);
    }

    println!(
        "# Reproduction run — scale: {}, scenario seed: {}",
        args.scale_label(),
        scenario_cfg.seed
    );

    if wants("fig1") {
        fig1()?;
    }

    // Scenario-backed figures.
    let fx = fixtures_cfg(args.base_cfg());
    if wants("fig2") {
        fig2(&fx.scenario);
    }
    if wants("fig3") {
        println!("\n## Figure 3 — example rows from the UMETRICS tables");
        print!("{}", fx.scenario.award_agg.head(3));
        print!("{}", fx.scenario.employees.head(3));
    }
    if wants("fig4") {
        println!("\n## Figure 4 — example rows from the USDA table (meaningful columns)");
        let cols = [
            "AccessionNumber",
            "ProjectTitle",
            "SponsoringAgency",
            "FundingMechanism",
            "AwardNumber",
            "RecipientOrganization",
            "ProjectDirector",
            "ProjectNumber",
            "ProjectStartDate",
            "ProjectEndDate",
        ];
        print!("{}", fx.scenario.usda.project(&cols)?.head(3));
    }
    if wants("fig5") {
        fig5_fig6(&fx.umetrics, &fx.usda, &fx.scenario.truth);
    }
    if wants("fig7") {
        println!("\n## Figure 7 — sample rows of the projected tables");
        print!("{}", fx.umetrics.head(3));
        print!("{}", fx.usda.head(3));
    }

    // Report-backed sections: run the case study once.
    let report_sections = [
        "fig2", "blocking", "blockdebug", "labeling", "selection", "matching", "rule2",
        "patch", "estimate", "final", "resilience",
    ];
    if report_sections.iter().any(|s| wants(s)) {
        let mut cfg = if args.paper_scale {
            CaseStudyConfig::paper()
        } else {
            CaseStudyConfig::small()
        };
        cfg.scenario = scenario_cfg.clone();
        if args.faults {
            cfg.faults = FaultPlan {
                seed: 0xFA57,
                p_oracle_unavailable: 0.15,
                p_oracle_timeout: 0.05,
                max_fault_attempts: 4,
                p_corrupt_row: 0.03,
                max_quarantine_fraction: 0.2,
                ..FaultPlan::none()
            };
            eprintln!("running the end-to-end case study under the fault plan…");
        } else {
            eprintln!("running the end-to-end case study…");
        }
        let report = CaseStudy::new(cfg.clone()).run()?;
        print_report(&report, &args);
        if wants("blockdebug") {
            print_audit_work(&cfg)?;
        }
    }

    if wants("ablation") {
        ablations(&fx.umetrics, &fx.usda, &fx.scenario)?;
    }
    print_wall_time(started);
    Ok(())
}

/// Re-runs the Section 7 debugger audit on its own to show what it cost:
/// wall time, and how many of the surviving pairs the top-k bound scored
/// without a Jaro-Winkler call. Stderr, like every timing: the counts move
/// with the thread count (one pruning threshold per chunk of rows), the
/// audit's ranked list — the report line above — does not.
fn print_audit_work(cfg: &CaseStudyConfig) -> Result<(), Box<dyn std::error::Error>> {
    let (u, s, _) = CaseStudy::new(cfg.clone()).prepare_tables()?;
    let candidates = run_blocking(&u, &s, &cfg.plan)?.consolidated;
    let debugger = BlockingDebugger::new("AwardTitle", "AwardTitle").with_top_k(cfg.debugger_top_k);
    let t0 = std::time::Instant::now();
    let (_, work) = debug_blocking_counted(&debugger, &u, &s, &candidates)?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "  debugger audit: {:.1} ms at {} thread(s); {} surviving pairs, {} Jaro-Winkler \
         verifications ({:.1}% avoided by the top-{} bound)",
        wall_ms,
        em_parallel::threads(),
        work.survivors,
        work.jw_verified,
        100.0 * (1.0 - work.jw_verified as f64 / work.survivors.max(1) as f64),
        cfg.debugger_top_k,
    );
    Ok(())
}

/// Stderr, not stdout: stdout is the deterministic report (the checked-in
/// `reproduce_paper_output.txt` must byte-match a fresh run), timing is not.
fn print_wall_time(started: std::time::Instant) {
    eprintln!(
        "\nTotal wall time: {:.2}s using {} thread(s)",
        started.elapsed().as_secs_f64(),
        em_parallel::threads()
    );
}

/// Timed repetitions per stage measurement (after one untimed warmup).
const BENCH_REPS: usize = 3;

/// Times `f`: one untimed warmup run (page-cache, allocator, and
/// thread-pool spin-up), then the minimum wall time over [`BENCH_REPS`]
/// timed runs — the usual estimator that is robust to scheduler noise on
/// short stages. Returns the last run's result.
fn timed<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..BENCH_REPS {
        let t0 = std::time::Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (out, best)
}

/// One benchmark stage: wall time at 1 thread and at the requested count.
struct StageTiming {
    name: &'static str,
    items: usize,
    ms_1t: f64,
    ms_nt: f64,
}

impl StageTiming {
    fn speedup(&self) -> f64 {
        self.ms_1t / self.ms_nt.max(1e-9)
    }
    fn throughput(&self) -> f64 {
        self.items as f64 / (self.ms_nt.max(1e-9) / 1e3)
    }
}

/// `--bench`: run the parallel pipeline stages (blocking, feature
/// extraction, forest fit, batch prediction) at 1 thread and at the
/// requested thread count, assert the outputs are bit-identical, and write
/// `BENCH_pipeline.json`. With `--serve`, also time the online
/// [`MatchService`] over the scenario's extra UMETRICS records: one
/// deterministic micro-batch (`serve_batch`) and a one-record-at-a-time
/// replay (`serve_single`), both under the same warmup + min-of-3
/// estimator and the same 1-vs-N-thread bit-identity check.
fn bench_pipeline(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let requested = em_parallel::threads().max(1);
    println!("\n## Pipeline benchmark — 1 thread vs {requested} thread(s)");
    let mut cfg = args.base_cfg();
    if let Some(seed) = args.seed {
        cfg = cfg.with_seed(seed);
    }
    let bench_seed = cfg.seed;
    let fx = fixtures_cfg(cfg.clone());
    let (u, s) = (&fx.umetrics, &fx.usda);
    let mut stages: Vec<StageTiming> = Vec::new();

    // Stage 1: the Section 7 blocking plan (C1 ∪ C2 ∪ C3).
    let plan = BlockingPlan::default();
    em_parallel::set_threads(1);
    let (r1, blk_1t) = timed(|| run_blocking(u, s, &plan));
    let r1 = r1?;
    em_parallel::set_threads(requested);
    let (rn, blk_nt) = timed(|| run_blocking(u, s, &plan));
    let rn = rn?;
    assert_eq!(
        r1.consolidated.to_vec(),
        rn.consolidated.to_vec(),
        "blocking must be thread-count invariant"
    );
    let pairs: Vec<Pair> = rn.consolidated.to_vec();
    stages.push(StageTiming { name: "blocking", items: pairs.len(), ms_1t: blk_1t, ms_nt: blk_nt });

    // Stage 2 (timed below, after the forest fit): feature extraction is
    // the production *masked* batched path — the model+rules feature mask
    // over [`em_features::BatchExtractor`], the exact kernel the fused
    // streaming executor (`em_core::stream`) and the serve tier run. The
    // mask needs a fitted model, so the timing block sits after
    // `forest_fit` and is inserted at its historical position in the
    // stage table. This full (unmasked) extraction runs once, untimed, to
    // feed the forest fit and the live-slot cross-check.
    let features = auto_features(
        u,
        s,
        &FeatureOptions::excluding(&["RecordId", "AccessionNumber"]).with_case_insensitive(),
    );
    let x_full = extract_vectors(&features, u, s, &pairs)?;

    // Stage 2b: the raw similarity-kernel engine — five character kernels
    // per candidate title pair on pre-decoded chars, with no pair memo, so
    // this tracks pure kernel throughput.
    let ut = decoded_titles(u);
    let st = decoded_titles(s);
    let run_kernels = |ps: &[Pair]| {
        em_parallel::Executor::current().map_slice(ps, 256, |p| {
            em_text::with_scratch(|scr| {
                let (a, b) = (&ut[p.left], &st[p.right]);
                [
                    em_text::seq::levenshtein_sim_chars(scr, a, b),
                    em_text::seq::jaro_chars(scr, a, b),
                    em_text::seq::jaro_winkler_chars(scr, a, b),
                    em_text::seq::needleman_wunsch_sim_chars(scr, a, b),
                    em_text::seq::smith_waterman_sim_chars(scr, a, b),
                ]
            })
        })
    };
    em_parallel::set_threads(1);
    let (k1, krn_1t) = timed(|| run_kernels(&pairs));
    em_parallel::set_threads(requested);
    let (kn, krn_nt) = timed(|| run_kernels(&pairs));
    assert!(
        k1.iter().flatten().map(|v| v.to_bits()).eq(kn.iter().flatten().map(|v| v.to_bits())),
        "kernel engine must be thread-count invariant"
    );
    stages.push(StageTiming {
        name: "feature_kernels",
        items: pairs.len() * 5,
        ms_1t: krn_1t,
        ms_nt: krn_nt,
    });

    // Stage 3: random-forest fit on truth-labeled candidates.
    let y: Vec<bool> = pairs
        .iter()
        .map(|p| {
            fx.scenario.truth.is_match(
                &u.get(p.left, "AwardNumber").map(|v| v.render()).unwrap_or_default(),
                &s.get(p.right, "AccessionNumber").map(|v| v.render()).unwrap_or_default(),
            )
        })
        .collect();
    let mut data = Dataset::new(features.names(), x_full.clone(), y)?;
    let _imputer = impute_mean(&mut data);
    let forest = em_ml::forest::RandomForestLearner::default();
    em_parallel::set_threads(1);
    let (m1, fit_1t) = timed(|| forest.fit_forest(&data));
    let m1 = m1?;
    em_parallel::set_threads(requested);
    let (mn, fit_nt) = timed(|| forest.fit_forest(&data));
    let mn = mn?;
    stages.push(StageTiming {
        name: "forest_fit",
        items: forest.n_trees,
        ms_1t: fit_1t,
        ms_nt: fit_nt,
    });

    // Stage 4: batch probability prediction over the extracted matrix.
    use em_ml::model::Model;
    em_parallel::set_threads(1);
    let (p1, prd_1t) = timed(|| {
        em_parallel::Executor::current().map_slice(&data.x, 64, |row| m1.predict_proba(row))
    });
    em_parallel::set_threads(requested);
    let (pn, prd_nt) = timed(|| {
        em_parallel::Executor::current().map_slice(&data.x, 64, |row| mn.predict_proba(row))
    });
    assert!(
        p1.iter().map(|v| v.to_bits()).eq(pn.iter().map(|v| v.to_bits())),
        "batch prediction must be thread-count invariant"
    );
    stages.push(StageTiming {
        name: "batch_predict",
        items: data.x.len(),
        ms_1t: prd_1t,
        ms_nt: prd_nt,
    });

    // The serving artifacts train here (not with the serve stages below)
    // because the masked extraction stage wants the *deployed* matcher:
    // the CV-selected model the workflow, the serve tier, and the
    // streaming executor all score with.
    let mut serving_artifacts = None;
    if args.serve || args.serve_chaos || args.serve_load {
        eprintln!("training the serving artifacts for --serve/--serve-chaos/--serve-load…");
        let mut cs_cfg =
            if args.paper_scale { CaseStudyConfig::paper() } else { CaseStudyConfig::small() };
        cs_cfg.scenario = cfg;
        serving_artifacts = Some(CaseStudy::new(cs_cfg).train_serving_artifacts()?);
    }

    // Stage 2 (deferred): masked batched feature extraction — the
    // model+rules mask over the SoA `BatchExtractor`, timed at 1 and N
    // threads with the usual bit-identity check, plus a live-slot
    // cross-check against the full per-pair extraction above. The mask
    // comes from the CV-selected pipeline matcher (what matching actually
    // reads — 18/46 at the committed x4); the 25-tree bench forest above
    // exists to time `forest_fit` and would artificially widen the mask
    // (41/46), so it is only the fallback when no artifacts are trained.
    let rule_descs = em_core::pipeline::standard_rule_descs();
    let bench_fitted;
    let mask_model = match serving_artifacts.as_ref() {
        Some(artifacts) => &artifacts.matcher.model,
        None => {
            bench_fitted = em_ml::FittedModel::Forest(mn.clone());
            &bench_fitted
        }
    };
    let mask = em_core::derive_feature_mask(&features, mask_model, &rule_descs);
    println!(
        "  feature_extraction mask: {}/{} features live (model splits)",
        mask.n_live(),
        mask.len()
    );
    let extractor = em_features::BatchExtractor::for_pairs(&features, u, s, &mask, &pairs)?;
    em_parallel::set_threads(1);
    let (mx1, ext_1t) = timed(|| extractor.extract_matrix(u, s, &pairs));
    em_parallel::set_threads(requested);
    let (mxn, ext_nt) = timed(|| extractor.extract_matrix(u, s, &pairs));
    assert!(
        mx1.iter().map(|v| v.to_bits()).eq(mxn.iter().map(|v| v.to_bits())),
        "masked feature extraction must be thread-count invariant"
    );
    let nf = features.len();
    for (r, full_row) in x_full.iter().enumerate() {
        for k in mask.live_indices() {
            assert_eq!(
                mx1[r * nf + k].to_bits(),
                full_row[k].to_bits(),
                "masked extraction diverged from the full path at pair {r}, feature {k}"
            );
        }
    }
    stages.insert(
        1,
        StageTiming { name: "feature_extraction", items: pairs.len(), ms_1t: ext_1t, ms_nt: ext_nt },
    );

    // Stages 5–6 (`--serve`): the online service over the scenario's extra
    // UMETRICS arrivals — a deterministic micro-batch and a
    // one-record-at-a-time replay. Both must be thread-count invariant and
    // agree with each other (the em-serve integration tests additionally
    // pin them to the batch pipeline's patch stage).
    let mut serve_json = String::new();
    if let (true, Some(artifacts)) = (args.serve, serving_artifacts.as_ref()) {
        use em_serve::{MatchService, ProbeScratch, ServeError};
        let service = MatchService::from_artifacts(artifacts)?;
        let extra = &artifacts.extra_umetrics;
        let mask = service.feature_mask();
        let (mask_live, mask_total) = (mask.n_live(), mask.len());

        // Cold latency: the very first request against a fresh service and
        // a fresh scratch — index probes, the extractor's prepared row, and
        // scratch buffers all start empty. Everything after this is warm.
        let mut scratch = ProbeScratch::new();
        let t_cold = std::time::Instant::now();
        let cold_outcome = service.match_on_arrival_with(extra, 0, &mut scratch)?;
        let cold_ms = t_cold.elapsed().as_secs_f64() * 1e3;
        drop(cold_outcome);

        em_parallel::set_threads(1);
        let (b1, sb_1t) = timed(|| service.match_batch(extra));
        let b1 = b1?;
        em_parallel::set_threads(requested);
        let (bn, sb_nt) = timed(|| service.match_batch(extra));
        let bn = bn?;
        assert_eq!(b1.ids, bn.ids, "micro-batch serving must be thread-count invariant");
        stages.push(StageTiming {
            name: "serve_batch",
            items: extra.n_rows(),
            ms_1t: sb_1t,
            ms_nt: sb_nt,
        });

        // One-at-a-time replay over ONE reused scratch — the steady-state
        // request loop a deployed service runs, not a fresh allocation per
        // record.
        let run_single = |scratch: &mut ProbeScratch| {
            let mut ids = em_core::MatchIds::default();
            for i in 0..extra.n_rows() {
                ids = ids.union(&service.match_on_arrival_with(extra, i, scratch)?.ids);
            }
            Ok::<_, ServeError>(ids)
        };
        em_parallel::set_threads(1);
        let (s1, ss_1t) = timed(|| run_single(&mut scratch));
        let s1 = s1?;
        em_parallel::set_threads(requested);
        let (sn, ss_nt) = timed(|| run_single(&mut scratch));
        let sn = sn?;
        assert_eq!(s1, sn, "one-at-a-time serving must be thread-count invariant");
        assert_eq!(s1, bn.ids, "one-at-a-time serving must equal the micro-batch");
        stages.push(StageTiming {
            name: "serve_single",
            items: extra.n_rows(),
            ms_1t: ss_1t,
            ms_nt: ss_nt,
        });

        // Steady-state hot loop: every cache, memo, and buffer is warm and
        // the feature mask is on — pure per-record probe → block →
        // featurize → score → rules latency. Candidate counts come from
        // one untimed accounting pass.
        let mut cand_total = 0usize;
        let mut cand_max = 0usize;
        for i in 0..extra.n_rows() {
            let o = service.match_on_arrival_with(extra, i, &mut scratch)?;
            cand_total += o.n_candidates;
            cand_max = cand_max.max(o.n_candidates);
        }
        em_parallel::set_threads(1);
        let (h1, sh_1t) = timed(|| run_single(&mut scratch));
        let h1 = h1?;
        em_parallel::set_threads(requested);
        let (hn, sh_nt) = timed(|| run_single(&mut scratch));
        let hn = hn?;
        assert_eq!(h1, hn, "hot-loop serving must be thread-count invariant");
        assert_eq!(h1, s1, "hot-loop serving must equal the one-at-a-time replay");
        stages.push(StageTiming {
            name: "serve_single_hot",
            items: extra.n_rows(),
            ms_1t: sh_1t,
            ms_nt: sh_nt,
        });

        let warm_per_record_ms = sh_nt / extra.n_rows().max(1) as f64;
        println!(
            "  serve: mask {mask_live}/{mask_total} live, cold first request {cold_ms:.2} ms, \
             warm {warm_per_record_ms:.3} ms/record, candidates total {cand_total} (max {cand_max})"
        );
        serve_json = format!(
            "  \"serve\": {{\"mask_live\": {mask_live}, \"mask_total\": {mask_total}, \
             \"cold_first_request_ms\": {cold_ms:.3}, \"warm_per_record_ms\": {warm_per_record_ms:.4}, \
             \"candidates_total\": {cand_total}, \"candidates_max\": {cand_max}}},\n"
        );
    }

    // Seeded chaos schedule over the serve tier: crashes, torn WAL tails,
    // corrupt snapshot swaps, latency spikes, and arrival bursts — the run
    // fails unless every request terminates and every served outcome is
    // bit-identical to the fault-free shadow run.
    let mut serve_chaos_json = String::new();
    if let Some(artifacts) = serving_artifacts.as_ref().filter(|_| args.serve_chaos) {
        let report = run_serve_chaos(artifacts, bench_seed)?;
        print_chaos_report(&report);
        serve_chaos_json = chaos_json(&report);
    }

    // Open-loop load sweep over the sharded tier: seeded arrivals through
    // the micro-batching scheduler at shard counts 1/2/4, latency
    // percentiles on the virtual clock, saturation throughput per shape.
    let mut serve_load_json = String::new();
    if let Some(artifacts) = serving_artifacts.as_ref().filter(|_| args.serve_load) {
        serve_load_json = run_serve_load(artifacts, bench_seed, requested)?;
    }

    // `--scaling`: the corpus-scale blocking stages ride along in the same
    // artifact so one bench run captures both the x1-scale stage table and
    // the x64/x256 scalability record.
    // `--scaling-match` rides along the same way, so one artifact carries
    // the x1 stage table and the full-pipeline x64/x256 record. It runs
    // *before* the blocking-only scaling: peak RSS comes from the `VmHWM`
    // high-water mark, and the blocking sweep's largest factor would
    // otherwise mask the streaming executor's (much lower) footprint.
    let mut scaling_match_json = String::new();
    if !args.scaling_match.is_empty() {
        scaling_match_json = scaling_match_stages(&args.scaling_match, bench_seed)?;
    }

    let mut scaling_json = String::new();
    if !args.scaling.is_empty() {
        scaling_json = scaling_stages(&args.scaling, bench_seed)?;
    }

    // `--active` / `--weak` ride along too: the label-efficiency experiment
    // runs on its own pinned pool (see `run_label_experiment`), prints the
    // curves, and lands as a `label_efficiency` block in the artifact.
    let mut label_block_json = String::new();
    if args.active || args.weak {
        let exp = run_label_experiment(args)?;
        print_label_report(&exp);
        label_block_json = label_json(&exp);
    }

    // Console summary + JSON artifact.
    println!(
        "  {:<20} {:>8} {:>12} {:>12} {:>9} {:>14}",
        "stage", "items", "1-thread ms", "N-thread ms", "speedup", "items/s"
    );
    for st in &stages {
        println!(
            "  {:<20} {:>8} {:>12.1} {:>12.1} {:>8.2}x {:>14.0}",
            st.name,
            st.items,
            st.ms_1t,
            st.ms_nt,
            st.speedup(),
            st.throughput()
        );
    }
    let total_1t: f64 = stages.iter().map(|s| s.ms_1t).sum();
    let total_nt: f64 = stages.iter().map(|s| s.ms_nt).sum();
    let combined = total_1t / total_nt.max(1e-9);
    println!("  combined: {total_1t:.1} ms → {total_nt:.1} ms ({combined:.2}x)");

    let stage_json: Vec<String> = stages
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"items\": {}, \"wall_ms_1t\": {:.3}, \"wall_ms_nt\": {:.3}, \"speedup\": {:.3}, \"throughput_per_s\": {:.1}}}",
                s.name,
                s.items,
                s.ms_1t,
                s.ms_nt,
                s.speedup(),
                s.throughput()
            )
        })
        .collect();
    // Host parallelism context: what the machine offers vs. what the run
    // used (`--threads` / `EM_THREADS`), so committed numbers are
    // interpretable on other hardware.
    let available = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \"threads\": {},\n  \"available_parallelism\": {},\n  \"em_threads\": {},\n  \"candidate_pairs\": {},\n{}{}{}{}{}{}  \"stages\": [\n{}\n  ],\n  \"total_wall_ms_1t\": {:.3},\n  \"total_wall_ms_nt\": {:.3},\n  \"combined_speedup\": {:.3}\n}}\n",
        args.scale_label(),
        bench_seed,
        requested,
        available,
        requested,
        pairs.len(),
        serve_json,
        serve_chaos_json,
        serve_load_json,
        scaling_json,
        scaling_match_json,
        label_block_json,
        stage_json.join(",\n"),
        total_1t,
        total_nt,
        combined
    );
    std::fs::write("BENCH_pipeline.json", &json)?;
    println!("  wrote BENCH_pipeline.json");
    Ok(())
}

/// Peak resident-set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); 0.0 where procfs is unavailable. A high-water
/// mark, so per-stage readings are meaningful when stages run in
/// ascending-cost order.
fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 =
                rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// One corpus-scale blocking measurement.
struct ScaleStage {
    factor: f64,
    left_rows: usize,
    right_rows: usize,
    gen_ms: f64,
    wall_ms: f64,
    join_pairs: u64,
    consolidated: u64,
    checksum: u64,
    peak_rss_mib: f64,
}

impl ScaleStage {
    fn cand_per_s(&self) -> f64 {
        self.join_pairs as f64 / (self.wall_ms.max(1e-9) / 1e3)
    }
}

/// `--scaling F1,F2,...`: the corpus-scale blocking stages. Each factor
/// generates the scenario at that scale (auxiliary tables capped at paper
/// size — they never feed the blocking columns, verified by the x4
/// cross-check below), runs C1 as a hash join, and **streams** the
/// `C2 ∪ C3` title join through [`em_blocking::join_stats`]: candidate
/// counts, an order-invariant checksum of the exact pair stream, and a
/// C1-membership flag per pair, so `|C1 ∪ C2 ∪ C3|` falls out of
/// inclusion–exclusion without ever materializing a corpus-scale candidate
/// set. Factors run in ascending order so the `VmHWM` high-water mark read
/// after each stage approximates that stage's peak.
fn scaling_stages(factors: &[f64], seed: u64) -> Result<String, Box<dyn std::error::Error>> {
    use em_core::blocking_plan::c1_scheme;
    use em_text::intern::{TokenCache, TokenCorpus};

    let mut factors: Vec<f64> = factors.to_vec();
    factors.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    println!("\n## Corpus-scale blocking — streaming set-similarity join");
    println!(
        "  {:>7} {:>9} {:>9} {:>9} {:>12} {:>12} {:>13} {:>9}",
        "factor", "left", "right", "wall ms", "join pairs", "|C1∪C2∪C3|", "cand/s", "RSS MiB"
    );
    let plan = BlockingPlan::default();
    let spec = plan.union_spec();
    let mut stages = Vec::new();
    for &factor in &factors {
        // Cap the auxiliary tables (employees, vendors, sub-awards, object
        // codes) at paper size: each table draws from its own RNG stream,
        // so the blocking inputs are unchanged, and generation stays
        // proportional to the tables blocking actually reads.
        let mut cfg = ScenarioConfig::scaled(factor).with_seed(seed);
        let paper = ScenarioConfig::paper();
        cfg.n_employees = paper.n_employees;
        cfg.n_vendors = paper.n_vendors;
        cfg.n_subawards = paper.n_subawards;
        cfg.n_object_codes = paper.n_object_codes;

        let t0 = std::time::Instant::now();
        let scenario = em_datagen::Scenario::generate(cfg)?;
        let u = em_core::preprocess::project_umetrics(&scenario.award_agg, &scenario.employees)?;
        let d = em_core::preprocess::project_usda(&scenario.usda, true)?;
        let gen_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = std::time::Instant::now();
        let c1 = c1_scheme(&u, &d)?;
        let c1_pairs: std::collections::HashSet<(usize, usize)> =
            c1.iter().map(|p| (p.left, p.right)).collect();
        let cache = TokenCache::for_blocking();
        let left = TokenCorpus::from_column(
            &cache,
            (0..u.n_rows()).map(|i| u.get(i, "AwardTitle").and_then(|v| v.as_str())),
        );
        let right = TokenCorpus::from_column(
            &cache,
            (0..d.n_rows()).map(|i| d.get(i, "AwardTitle").and_then(|v| v.as_str())),
        );
        let index = em_blocking::JoinIndex::build(right);
        let stats =
            em_blocking::join_stats(&left, &index, &spec, |i, j| c1_pairs.contains(&(i, j)));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        // |C1 ∪ (C2 ∪ C3)| by inclusion–exclusion over the streamed flags.
        let consolidated = c1.len() as u64 + stats.pairs - stats.flagged;
        let stage = ScaleStage {
            factor,
            left_rows: u.n_rows(),
            right_rows: d.n_rows(),
            gen_ms,
            wall_ms,
            join_pairs: stats.pairs,
            consolidated,
            checksum: stats.checksum,
            peak_rss_mib: peak_rss_mib(),
        };
        println!(
            "  {:>7} {:>9} {:>9} {:>9.1} {:>12} {:>12} {:>13.0} {:>9.0}",
            format!("x{factor}"),
            stage.left_rows,
            stage.right_rows,
            stage.wall_ms,
            stage.join_pairs,
            stage.consolidated,
            stage.cand_per_s(),
            stage.peak_rss_mib
        );

        // Small factors double as a correctness gate: the streamed count
        // must equal the materialized plan's consolidated set.
        if factor <= 8.0 {
            let out = run_blocking(&u, &d, &plan)?;
            assert_eq!(
                consolidated,
                out.consolidated.len() as u64,
                "streamed consolidated count diverged from run_blocking at x{factor}"
            );
        }
        stages.push(stage);
    }

    let stage_json: Vec<String> = stages
        .iter()
        .map(|s| {
            format!(
                "    {{\"factor\": {}, \"left_rows\": {}, \"right_rows\": {}, \
                 \"gen_ms\": {:.3}, \"wall_ms\": {:.3}, \"join_pairs\": {}, \
                 \"consolidated\": {}, \"checksum\": \"{:#018x}\", \
                 \"cand_per_s\": {:.1}, \"peak_rss_mib\": {:.1}}}",
                s.factor,
                s.left_rows,
                s.right_rows,
                s.gen_ms,
                s.wall_ms,
                s.join_pairs,
                s.consolidated,
                s.checksum,
                s.cand_per_s(),
                s.peak_rss_mib
            )
        })
        .collect();
    Ok(format!("  \"scaling\": [\n{}\n  ],\n", stage_json.join(",\n")))
}

/// One corpus-scale end-to-end match measurement.
struct ScaleMatchStage {
    factor: f64,
    left_rows: usize,
    right_rows: usize,
    gen_ms: f64,
    wall_ms: f64,
    candidates: usize,
    predicted: usize,
    flipped: usize,
    matched: usize,
    checksum: u64,
    peak_rss_mib: f64,
}

impl ScaleMatchStage {
    /// Candidate pairs driven through extract+impute+score per second —
    /// the full-pipeline analogue of the blocking table's `cand/s`.
    fn pairs_per_s(&self) -> f64 {
        self.candidates as f64 / (self.wall_ms.max(1e-9) / 1e3)
    }
}

/// `--scaling-match F1,F2,...`: the fused end-to-end streaming match.
/// The frozen workflow (features, imputer, CV-selected model, rules,
/// plan) trains **once** at x1 — scaling varies the corpus the executor
/// streams over, not the artifact under test. Each factor generates the
/// scenario with auxiliary tables capped at paper size (identical
/// blocking inputs, as in [`scaling_stages`]), then drives every left row
/// through [`em_core::stream::StreamMatcher`]: join-probe candidates →
/// masked batch features → mean imputation → blocked forest scoring →
/// negative rules, keeping only streamed accounting in memory. Factors
/// run ascending so the `VmHWM` high-water read after each stage
/// approximates that stage's peak; at small factors the stream is
/// cross-checked against the materialized [`em_core::EmWorkflow`].
fn scaling_match_stages(factors: &[f64], seed: u64) -> Result<String, Box<dyn std::error::Error>> {
    use em_core::stream::StreamMatcher;
    use em_core::EmWorkflow;

    let mut factors: Vec<f64> = factors.to_vec();
    factors.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    println!("\n## Corpus-scale end-to-end matching — fused streaming executor");

    // Train the frozen workflow once at x1 (the case study's own scale;
    // auxiliary tables uncapped so the artifact is exactly the one the
    // paper-scale pipeline produces).
    eprintln!("training the frozen x1 workflow for --scaling-match…");
    let t0 = std::time::Instant::now();
    let mut cs_cfg = CaseStudyConfig::small();
    cs_cfg.scenario = ScenarioConfig::scaled(1.0).with_seed(seed);
    let artifacts = CaseStudy::new(cs_cfg).train_serving_artifacts()?;
    eprintln!(
        "trained in {:.1}s: {} ({} features)",
        t0.elapsed().as_secs_f64(),
        artifacts.matcher.learner_name,
        artifacts.matcher.features.len()
    );

    println!(
        "  {:>7} {:>9} {:>9} {:>10} {:>12} {:>9} {:>13} {:>9}",
        "factor", "left", "right", "wall ms", "candidates", "matched", "pairs/s", "RSS MiB"
    );
    let mut stages = Vec::new();
    let mut mask_live = 0usize;
    let mut mask_total = 0usize;
    for &factor in &factors {
        // Same auxiliary-table cap as the blocking scaling: employees,
        // vendors, sub-awards, and object codes never feed the matcher's
        // columns, so generation stays proportional to what matching reads.
        let mut cfg = ScenarioConfig::scaled(factor).with_seed(seed);
        let paper = ScenarioConfig::paper();
        cfg.n_employees = paper.n_employees;
        cfg.n_vendors = paper.n_vendors;
        cfg.n_subawards = paper.n_subawards;
        cfg.n_object_codes = paper.n_object_codes;

        let t0 = std::time::Instant::now();
        let scenario = em_datagen::Scenario::generate(cfg)?;
        let u = em_core::preprocess::project_umetrics(&scenario.award_agg, &scenario.employees)?;
        let d = em_core::preprocess::project_usda(&scenario.usda, true)?;
        let gen_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = std::time::Instant::now();
        let sm = StreamMatcher::new(
            &u,
            &d,
            &artifacts.matcher,
            &artifacts.rule_descs,
            &artifacts.plan,
        )?;
        let out = sm.run();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        mask_live = sm.mask().n_live();
        mask_total = sm.mask().len();

        let stage = ScaleMatchStage {
            factor,
            left_rows: out.left_rows,
            right_rows: out.right_rows,
            gen_ms,
            wall_ms,
            candidates: out.candidates,
            predicted: out.predicted,
            flipped: out.flipped,
            matched: out.matched,
            checksum: out.checksum,
            peak_rss_mib: peak_rss_mib(),
        };
        println!(
            "  {:>7} {:>9} {:>9} {:>10.1} {:>12} {:>9} {:>13.0} {:>9.0}",
            format!("x{factor}"),
            stage.left_rows,
            stage.right_rows,
            stage.wall_ms,
            stage.candidates,
            stage.matched,
            stage.pairs_per_s(),
            stage.peak_rss_mib
        );

        // Small factors double as a correctness gate: the stream must
        // reproduce the materialized workflow's accounting exactly.
        if factor <= 4.0 {
            let wf = EmWorkflow {
                rules: artifacts.rule_descs.build(),
                plan: artifacts.plan,
                matcher: &artifacts.matcher,
                apply_negative: true,
            };
            let r = wf.run(&u, &d)?;
            assert_eq!(
                out.candidates,
                r.candidates.len(),
                "streamed candidate count diverged from the workflow at x{factor}"
            );
            assert_eq!(
                out.matched,
                r.matches.len(),
                "streamed match count diverged from the workflow at x{factor}"
            );
        }
        stages.push(stage);
    }
    println!("  mask: {mask_live}/{mask_total} features live");

    let stage_json: Vec<String> = stages
        .iter()
        .map(|s| {
            format!(
                "    {{\"factor\": {}, \"left_rows\": {}, \"right_rows\": {}, \
                 \"gen_ms\": {:.3}, \"wall_ms\": {:.3}, \"candidates\": {}, \
                 \"predicted\": {}, \"flipped\": {}, \"matched\": {}, \
                 \"pairs_per_s\": {:.1}, \"checksum\": \"{:#018x}\", \
                 \"mask_live\": {}, \"mask_total\": {}, \"peak_rss_mib\": {:.1}}}",
                s.factor,
                s.left_rows,
                s.right_rows,
                s.gen_ms,
                s.wall_ms,
                s.candidates,
                s.predicted,
                s.flipped,
                s.matched,
                s.pairs_per_s(),
                s.checksum,
                mask_live,
                mask_total,
                s.peak_rss_mib
            )
        })
        .collect();
    Ok(format!("  \"scaling_match\": [\n{}\n  ],\n", stage_json.join(",\n")))
}

/// Standalone `--serve-chaos`: train the serving artifacts and drive the
/// seeded fault schedule, failing the process unless the run is clean.
/// Everything one label-efficiency run produced: the experiment pool plus
/// whichever arms (`--active` curves, `--weak` outcome) were requested.
struct LabelExperiment {
    seed: u64,
    candidates_total: usize,
    positives: usize,
    random: Option<em_label::ActiveOutcome>,
    committee: Option<em_label::ActiveOutcome>,
    weak: Option<em_label::WeakOutcome>,
}

/// The experiment pool is pinned independently of `--scale`: a
/// quarter-scale scenario blocked with a deliberately loose plan
/// (overlap-1 at K=2, coefficient 0.5), giving ~2k candidates of which
/// ~10% match. On the workflow's consolidated candidate set random
/// sampling is nearly as good as querying by committee; label efficiency
/// only matters on pools where most candidates are easy negatives.
const LABEL_POOL_SCALE: f64 = 0.25;

fn run_label_experiment(args: &Args) -> Result<LabelExperiment, Box<dyn std::error::Error>> {
    use em_core::labeling::{accession_of, award_of};
    use em_core::preprocess::{project_umetrics, project_usda};
    use em_datagen::{FlakyConfig, FlakyOracle, Scenario};
    use em_label::{ActiveConfig, Strategy, WeakConfig};

    let seed = args.seed.unwrap_or_else(|| args.base_cfg().seed);
    let scenario = Scenario::generate(ScenarioConfig::scaled(LABEL_POOL_SCALE).with_seed(seed))?;
    let u = project_umetrics(&scenario.award_agg, &scenario.employees)?;
    let s = project_usda(&scenario.usda, false)?;
    let plan = BlockingPlan { overlap_k: 2, oc_threshold: 0.5 };
    let candidates = run_blocking(&u, &s, &plan)?.consolidated;
    let positives = candidates
        .iter()
        .filter(|p| scenario.truth.is_match(&award_of(&u, p.left), &accession_of(&s, p.right)))
        .count();

    let mut exp = LabelExperiment {
        seed,
        candidates_total: candidates.len(),
        positives,
        random: None,
        committee: None,
        weak: None,
    };
    if args.active {
        for strategy in [Strategy::Random, Strategy::Committee] {
            let oracle = FlakyOracle::new(
                Oracle::new(&scenario.truth, OracleConfig::default()),
                FlakyConfig { p_unavailable: 0.2, p_timeout: 0.1, ..Default::default() },
            );
            let out = em_label::run_active(
                &u,
                &s,
                &candidates,
                &oracle,
                &scenario.truth,
                &ActiveConfig::new(strategy, seed),
                None,
            )?;
            match strategy {
                Strategy::Random => exp.random = Some(out),
                Strategy::Committee => exp.committee = Some(out),
            }
        }
    }
    if args.weak {
        exp.weak = Some(em_label::run_weak(
            &u,
            &s,
            &candidates,
            &scenario.truth,
            &WeakConfig::standard(seed),
        )?);
    }
    Ok(exp)
}

fn print_label_curve(tag: &str, out: &em_label::ActiveOutcome) {
    println!(
        "  {:<10} {:>5} {:>7} {:>8} {:>7} {:>8} {:>7} {:>19} {:>19}",
        "arm", "round", "labels", "queries", "retries", "degraded", "F1", "precision (95%)", "recall (95%)"
    );
    for r in &out.rounds {
        println!(
            "  {:<10} {:>5} {:>7} {:>8} {:>7} {:>8} {:>7.4} {:>9.4}–{:<9.4} {:>9.4}–{:<9.4}",
            tag,
            r.round,
            r.distinct,
            r.queries,
            r.retries,
            r.degraded,
            r.f1,
            r.precision.lo,
            r.precision.hi,
            r.recall.lo,
            r.recall.hi
        );
    }
}

fn print_label_report(exp: &LabelExperiment) {
    println!("\n## Label-efficient training — seed {}", exp.seed);
    println!(
        "  pool: {} candidates, {} true matches ({:.1}%) — x{} scenario, loose blocking (K=2, oc=0.5)",
        exp.candidates_total,
        exp.positives,
        100.0 * exp.positives as f64 / exp.candidates_total.max(1) as f64,
        LABEL_POOL_SCALE
    );
    if let (Some(random), Some(committee)) = (&exp.random, &exp.committee) {
        println!("\n  Active learning: query-by-committee vs random sampling");
        print_label_curve("random", random);
        print_label_curve("committee", committee);
        let target = random.final_f1();
        let random_spent = random.budget.distinct_pairs();
        let bound = (em_label::AL_TARGET_FRACTION * random_spent as f64).floor() as usize;
        match committee.labels_to_reach(target) {
            Some(al_spent) if al_spent <= bound => println!(
                "  acceptance: PASS — committee reached the random arm's final F1 ({target:.4}) \
                 with {al_spent} of {random_spent} labels (bound {bound})"
            ),
            Some(al_spent) => println!(
                "  acceptance: FAILED — committee needed {al_spent} labels for F1 {target:.4} \
                 (bound {bound} of {random_spent})"
            ),
            None => println!(
                "  acceptance: FAILED — committee never reached the random arm's final F1 \
                 ({target:.4})"
            ),
        }
    }
    if let Some(w) = &exp.weak {
        println!("\n  Weak supervision: {} labeling functions, EM label model", w.n_lfs);
        println!(
            "  coverage {:.3}, conflicts {}, kept {} training rows, EM iterations {}",
            w.coverage, w.conflicts, w.kept, w.em_iterations
        );
        println!("  learned LF accuracies:");
        for (name, acc) in &w.lf_accuracies {
            println!("    {name:<22} {acc:.4}");
        }
        println!(
            "  F1: majority vote {:.4}, label model {:.4}, trained committee {:.4} \
             (precision {:.4}–{:.4}, recall {:.4}–{:.4})",
            w.f1_majority,
            w.f1_label_model,
            w.f1,
            w.precision.lo,
            w.precision.hi,
            w.recall.lo,
            w.recall.hi
        );
        println!("  weak supervision trained with {} oracle labels", w.oracle_labels);
    }
}

fn label_curve_json(out: &em_label::ActiveOutcome) -> String {
    let rows: Vec<String> = out
        .rounds
        .iter()
        .map(|r| {
            format!(
                "      {{\"round\": {}, \"labels\": {}, \"queries\": {}, \"retries\": {}, \
                 \"degraded\": {}, \"f1\": {:.6}, \"precision_lo\": {:.6}, \"precision_hi\": {:.6}, \
                 \"recall_lo\": {:.6}, \"recall_hi\": {:.6}}}",
                r.round,
                r.distinct,
                r.queries,
                r.retries,
                r.degraded,
                r.f1,
                r.precision.lo,
                r.precision.hi,
                r.recall.lo,
                r.recall.hi
            )
        })
        .collect();
    format!("[\n{}\n    ]", rows.join(",\n"))
}

/// The `label_efficiency` block of `BENCH_pipeline.json` (trailing comma,
/// inserted before `"stages"` like the other optional blocks).
fn label_json(exp: &LabelExperiment) -> String {
    let mut fields = vec![
        format!("\"seed\": {}", exp.seed),
        format!("\"pool_scale\": {LABEL_POOL_SCALE}"),
        format!("\"candidates\": {}", exp.candidates_total),
        format!("\"positives\": {}", exp.positives),
    ];
    if let (Some(random), Some(committee)) = (&exp.random, &exp.committee) {
        let target = random.final_f1();
        fields.push(format!("\"target_f1\": {target:.6}"));
        fields.push(format!("\"random_labels_total\": {}", random.budget.distinct_pairs()));
        fields.push(format!(
            "\"al_labels_to_target\": {}",
            committee
                .labels_to_reach(target)
                .map(|n| n.to_string())
                .unwrap_or_else(|| "null".to_string())
        ));
        fields.push(format!("\"al_target_fraction\": {}", em_label::AL_TARGET_FRACTION));
        fields.push(format!("\"random\": {}", label_curve_json(random)));
        fields.push(format!("\"active\": {}", label_curve_json(committee)));
    }
    if let Some(w) = &exp.weak {
        fields.push(format!(
            "\"weak\": {{\"n_lfs\": {}, \"coverage\": {:.6}, \"conflicts\": {}, \"kept\": {}, \
             \"oracle_labels\": {}, \"em_iterations\": {}, \"f1_majority\": {:.6}, \
             \"f1_label_model\": {:.6}, \"f1\": {:.6}, \"precision_lo\": {:.6}, \
             \"precision_hi\": {:.6}, \"recall_lo\": {:.6}, \"recall_hi\": {:.6}}}",
            w.n_lfs,
            w.coverage,
            w.conflicts,
            w.kept,
            w.oracle_labels,
            w.em_iterations,
            w.f1_majority,
            w.f1_label_model,
            w.f1,
            w.precision.lo,
            w.precision.hi,
            w.recall.lo,
            w.recall.hi
        ));
    }
    format!("  \"label_efficiency\": {{{}}},\n", fields.join(", "))
}

fn label_efficiency_section(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let exp = run_label_experiment(args)?;
    print_label_report(&exp);
    Ok(())
}

fn serve_chaos_section(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = args.base_cfg();
    if let Some(seed) = args.seed {
        cfg = cfg.with_seed(seed);
    }
    let seed = cfg.seed;
    let mut cs_cfg =
        if args.paper_scale { CaseStudyConfig::paper() } else { CaseStudyConfig::small() };
    cs_cfg.scenario = cfg;
    eprintln!("training the serving artifacts for --serve-chaos…");
    let artifacts = CaseStudy::new(cs_cfg).train_serving_artifacts()?;
    let report = run_serve_chaos(&artifacts, seed)?;
    print_chaos_report(&report);
    Ok(())
}

/// Runs the seeded chaos schedule against a freshly frozen snapshot of
/// the trained workflow, with the scenario's extra UMETRICS records as
/// the open-loop arrival stream. Returns an error — a nonzero exit — if
/// any request failed to terminate or any outcome diverged from the
/// fault-free run.
fn run_serve_chaos(
    artifacts: &em_core::pipeline::ServingArtifacts,
    seed: u64,
) -> Result<em_serve::ChaosReport, Box<dyn std::error::Error>> {
    use em_serve::{run_chaos, ChaosConfig, WorkflowSnapshot};
    let dir = std::env::temp_dir().join(format!("em-serve-chaos-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snapshot = WorkflowSnapshot::from_artifacts(artifacts);
    let result =
        run_chaos(snapshot, &artifacts.extra_umetrics, &ChaosConfig::new(seed, dir.clone()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = result?;
    if !report.terminal_outcomes {
        return Err("serve chaos: a request finished without a terminal outcome".into());
    }
    if !report.bit_identical {
        return Err("serve chaos: served outcomes diverged from the fault-free run".into());
    }
    if !report.shard_identical {
        return Err("serve chaos: sharded replay diverged from the fault-free run".into());
    }
    Ok(report)
}

fn print_chaos_report(r: &em_serve::ChaosReport) {
    println!("\n## Serve chaos — seeded fault schedule (seed {})", r.seed);
    println!(
        "  requests: {} arrivals, {} completed ({} degraded), {} terminally shed, \
         {} retries, {} queue-full rejections",
        r.arrivals, r.completed, r.degraded, r.shed, r.retried, r.queue_full
    );
    println!(
        "  durability: {} crashes, {} recoveries, {} WAL records replayed, {} torn tails repaired",
        r.crashes, r.recoveries, r.wal_records_replayed, r.torn_tails_repaired
    );
    println!(
        "  swaps: {} published (final epoch {}), {} rolled back, {} artifacts quarantined",
        r.swaps, r.final_epoch, r.swap_rollbacks, r.snapshots_quarantined
    );
    println!(
        "  latency: recovery total {:.2} ms (max {:.2} ms), slowest swap {:.2} ms",
        r.recovery_ms_total, r.recovery_ms_max, r.swap_latency_ms_max
    );
    println!(
        "  sharded audit: {} arrivals replayed across {} shards, bit-identical",
        r.shard_probes, r.shards
    );
    println!(
        "  every request reached a terminal outcome; \
         served outcomes bit-identical to the fault-free run"
    );
}

/// The `serve_chaos` block of `BENCH_pipeline.json` (trailing comma
/// included, matching the other optional blocks).
fn chaos_json(r: &em_serve::ChaosReport) -> String {
    format!(
        "  \"serve_chaos\": {{\"seed\": {}, \"arrivals\": {}, \"completed\": {}, \"shed\": {}, \
         \"retried\": {}, \"queue_full\": {}, \"degraded\": {}, \"crashes\": {}, \
         \"recoveries\": {}, \"wal_records_replayed\": {}, \"torn_tails_repaired\": {}, \
         \"swaps\": {}, \"swap_rollbacks\": {}, \"snapshots_quarantined\": {}, \
         \"recovery_ms_total\": {:.3}, \"recovery_ms_max\": {:.3}, \"swap_latency_ms_max\": {:.3}, \
         \"bit_identical\": {}, \"terminal_outcomes\": {}, \"final_epoch\": {}, \
         \"shards\": {}, \"shard_probes\": {}, \"shard_identical\": {}}},\n",
        r.seed,
        r.arrivals,
        r.completed,
        r.shed,
        r.retried,
        r.queue_full,
        r.degraded,
        r.crashes,
        r.recoveries,
        r.wal_records_replayed,
        r.torn_tails_repaired,
        r.swaps,
        r.swap_rollbacks,
        r.snapshots_quarantined,
        r.recovery_ms_total,
        r.recovery_ms_max,
        r.swap_latency_ms_max,
        r.bit_identical,
        r.terminal_outcomes,
        r.final_epoch,
        r.shards,
        r.shard_probes,
        r.shard_identical
    )
}

/// Standalone `--serve-load`: train the serving artifacts and run the
/// open-loop sweep, console output only.
fn serve_load_section(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = args.base_cfg();
    if let Some(seed) = args.seed {
        cfg = cfg.with_seed(seed);
    }
    let seed = cfg.seed;
    let mut cs_cfg =
        if args.paper_scale { CaseStudyConfig::paper() } else { CaseStudyConfig::small() };
    cs_cfg.scenario = cfg;
    eprintln!("training the serving artifacts for --serve-load…");
    let artifacts = CaseStudy::new(cs_cfg).train_serving_artifacts()?;
    let requested = em_parallel::threads().max(1);
    let _ = run_serve_load(&artifacts, seed, requested)?;
    Ok(())
}

/// The open-loop load benchmark over the sharded serve tier: calibrates
/// the 1-shard capacity from a warm pass over the arrival trace, then
/// sweeps offered rates 0.5/1/2/4/8 × C1 through the micro-batching
/// scheduler at shard counts 1, 2, and 4. Prints the latency-vs-load
/// tables and returns the `serve_load` JSON block (trailing comma
/// included, matching the other optional blocks).
///
/// Shard service legs are measured wall-clock on a **single** executor
/// thread — the virtual-time queueing model composes them as one core
/// per shard (see `em_serve::loadgen`), so saturation scaling reflects
/// the sharding itself, not the host's core count. The requested thread
/// count is restored before returning.
fn run_serve_load(
    artifacts: &em_core::pipeline::ServingArtifacts,
    seed: u64,
    requested: usize,
) -> Result<String, Box<dyn std::error::Error>> {
    use em_serve::{
        run_sweep, BatchPolicy, OverloadPolicy, ShardedMatchService, SweepConfig,
        WorkflowSnapshot,
    };

    em_parallel::set_threads(1);
    let out = (|| -> Result<String, Box<dyn std::error::Error>> {
        let arrivals = &artifacts.extra_umetrics;
        let snapshot = WorkflowSnapshot::from_artifacts(artifacts);
        let batch = BatchPolicy::default();
        // Finite watermark so the top offered rate visibly sheds; high
        // enough that saturation is reached long before shedding distorts
        // the achieved-throughput measurement.
        let overload = OverloadPolicy { shed_watermark: 64, ..OverloadPolicy::unbounded() };
        let n_requests = 1200usize;

        // Capacity calibration: one warm-up pass (indexes, extractor
        // probe cells, scratch), then a timed pass — the 1-shard service
        // rate every offered rate in the sweep is a multiple of.
        let single = ShardedMatchService::from_snapshot(snapshot.clone(), 1)?;
        let rows: Vec<usize> = (0..arrivals.n_rows()).collect();
        let _ = single.match_rows_timed(arrivals, &rows)?;
        let (_, warm_ms) = single.match_rows_timed(arrivals, &rows)?;
        let per_row_ms = warm_ms[0].max(1e-6) / arrivals.n_rows().max(1) as f64;
        let c1 = 1e3 / per_row_ms;
        let multipliers = [0.5, 1.0, 2.0, 4.0, 8.0];
        let rates: Vec<f64> = multipliers.iter().map(|m| m * c1).collect();

        println!("\n## Serve load — open-loop sharded sweep (seed {seed}, {n_requests} requests per rate)");
        println!("  calibration: {per_row_ms:.4} ms/row warm on 1 shard → C1 = {c1:.0} rows/s");
        println!(
            "  offered rates 0.5/1/2/4/8 × C1; batch close at {} rows or {:.1} ms; \
             shed watermark {} rows/shard",
            batch.max_batch, batch.close_deadline_ms, overload.shed_watermark
        );

        let mut sweeps = Vec::new();
        for shards in [1usize, 2, 4] {
            let tier = ShardedMatchService::from_snapshot(snapshot.clone(), shards)?;
            let sweep = run_sweep(
                &tier,
                arrivals,
                &SweepConfig { seed, n_requests, rates: rates.clone(), batch, overload },
            )?;
            println!("  {} shard(s) — saturation {:.0} req/s", shards, sweep.saturation_per_s);
            println!(
                "    {:>10} {:>11} {:>9} {:>6} {:>9} {:>9} {:>9} {:>13}",
                "offered/s", "achieved/s", "completed", "shed", "p50 ms", "p99 ms", "p999 ms",
                "closes sz/dl"
            );
            for r in &sweep.runs {
                println!(
                    "    {:>10.0} {:>11.0} {:>9} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>8}/{}",
                    r.offered_per_s,
                    r.achieved_per_s,
                    r.completed,
                    r.shed,
                    r.p50_ms,
                    r.p99_ms,
                    r.p999_ms,
                    r.size_closed,
                    r.deadline_closed
                );
            }
            sweeps.push((shards, sweep));
        }

        let sat = |n: usize| {
            sweeps
                .iter()
                .find(|(s, _)| *s == n)
                .map(|(_, sw)| sw.saturation_per_s)
                .unwrap_or(0.0)
        };
        let speedup = sat(4) / sat(1).max(1e-9);
        println!(
            "  saturation: 1 shard {:.0}/s, 2 shards {:.0}/s, 4 shards {:.0}/s \
             (4-shard vs 1-shard: {speedup:.2}x)",
            sat(1),
            sat(2),
            sat(4)
        );

        let available = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        let sweep_json: Vec<String> = sweeps
            .iter()
            .map(|(shards, sw)| {
                let runs: Vec<String> = sw
                    .runs
                    .iter()
                    .map(|r| {
                        format!(
                            "      {{\"offered_per_s\": {:.1}, \"achieved_per_s\": {:.1}, \
                             \"arrivals\": {}, \"completed\": {}, \"shed\": {}, \
                             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
                             \"max_ms\": {:.3}, \"batches\": {}, \"mean_batch_rows\": {:.2}, \
                             \"size_closed\": {}, \"deadline_closed\": {}, \"flush_closed\": {}}}",
                            r.offered_per_s,
                            r.achieved_per_s,
                            r.arrivals,
                            r.completed,
                            r.shed,
                            r.p50_ms,
                            r.p99_ms,
                            r.p999_ms,
                            r.max_ms,
                            r.batches,
                            r.mean_batch_rows,
                            r.size_closed,
                            r.deadline_closed,
                            r.flush_closed
                        )
                    })
                    .collect();
                // Occupancy at the top offered rate: the fully-loaded shape.
                let occupancy = sw
                    .runs
                    .last()
                    .map(|r| {
                        r.occupancy
                            .iter()
                            .map(|o| format!("{o:.3}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    })
                    .unwrap_or_default();
                let size_closed: u64 = sw.runs.iter().map(|r| r.size_closed).sum();
                let deadline_closed: u64 = sw.runs.iter().map(|r| r.deadline_closed).sum();
                format!(
                    "    {{\"shards\": {shards}, \"saturation_per_s\": {:.1}, \
                     \"size_closed\": {size_closed}, \"deadline_closed\": {deadline_closed}, \
                     \"occupancy_at_top_rate\": [{occupancy}],\n     \"runs\": [\n{}\n     ]}}",
                    sw.saturation_per_s,
                    runs.join(",\n")
                )
            })
            .collect();
        Ok(format!(
            "  \"serve_load\": {{\"seed\": {seed}, \"requests_per_rate\": {n_requests}, \
             \"available_parallelism\": {available}, \"batch_max\": {}, \
             \"batch_deadline_ms\": {:.1}, \"shed_watermark\": {}, \
             \"calibrated_1shard_per_s\": {c1:.1}, \"speedup_4x_vs_1x\": {speedup:.3},\n\
             \"sweeps\": [\n{}\n  ]}},\n",
            batch.max_batch,
            batch.close_deadline_ms,
            overload.shed_watermark,
            sweep_json.join(",\n")
        ))
    })();
    em_parallel::set_threads(requested);
    out
}

/// Pre-decodes each row's lowercased `AwardTitle` for the kernel stage —
/// the same once-per-row normalization the extraction cache performs.
#[allow(clippy::disallowed_methods)] // cache-build site: lowercase once per row
fn decoded_titles(t: &Table) -> Vec<std::sync::Arc<[char]>> {
    t.iter()
        .map(|r| {
            let s = r.get("AwardTitle").map(|v| v.render()).unwrap_or_default().to_lowercase();
            s.chars().collect()
        })
        .collect()
}

/// Figure 1: the paper's toy two-table example, end to end.
fn fig1() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Figure 1 — matching two toy tables");
    let a = csv::read_str(
        "A",
        "Name,City,State\nDave Smith,Madison,WI\nJoe Wilson,San Jose,CA\nDan Smith,Middleton,WI\n",
    )?;
    let b = csv::read_str(
        "B",
        "Name,City,State\nDavid D. Smith,Madison,WI\nDaniel W. Smith,Middleton,WI\n",
    )?;
    let candidates = OverlapBlocker::new("Name", "Name", 1).block(&a, &b)?;
    let features = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
    let labeled = [
        (Pair::new(0, 0), true),
        (Pair::new(2, 1), true),
        (Pair::new(0, 1), false),
        (Pair::new(2, 0), false),
    ];
    let x = extract_vectors(
        &features,
        &a,
        &b,
        &labeled.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
    )?;
    let mut data = Dataset::new(features.names(), x, labeled.iter().map(|(_, y)| *y).collect())?;
    let imputer = impute_mean(&mut data);
    let model = DecisionTreeLearner::default().fit(&data)?;
    let mut out = Vec::new();
    for p in candidates.iter() {
        let mut row = extract_vectors(&features, &a, &b, &[p])?.remove(0);
        imputer.transform_row(&mut row);
        if model.predict(&row) {
            out.push(format!("(a{}, b{})", p.left + 1, p.right + 1));
        }
    }
    println!("  matches: {}   (paper: (a1, b1), (a3, b2))", out.join(", "));
    Ok(())
}

/// Figure 2: summary of the raw tables.
fn fig2(scenario: &em_datagen::Scenario) {
    println!("\n## Figure 2 — summary of the raw tables");
    println!("  {:<32} {:>9} {:>6}   paper rows", "table", "rows", "cols");
    let paper_rows = [
        ("UMETRICSAwardAggMatching", 1336usize),
        ("UMETRICSEmployeesMatching", 1_454_070),
        ("UMETRICSObjectCodesMatching", 4574),
        ("UMETRICSOrgUnitsMatching", 264),
        ("UMETRICSSubAwardMatching", 21_470),
        ("UMETRICSVendorMatching", 377_746),
        ("USDAAwardMatching", 1915),
    ];
    for t in scenario.raw_tables() {
        let paper = paper_rows
            .iter()
            .find(|(n, _)| *n == t.name())
            .map(|(_, r)| r.to_string())
            .unwrap_or_default();
        println!("  {:<32} {:>9} {:>6}   {}", t.name(), t.n_rows(), t.n_cols(), paper);
    }
    println!("  (employees/vendors/sub-awards are scaled ~100x; see DESIGN.md)");
}

/// Figures 5 & 6: one example matching pair by award number, one by title.
fn fig5_fig6(u: &Table, s: &Table, truth: &em_datagen::GroundTruth) {
    println!("\n## Figures 5/6 — example matching pairs");
    let mut by_number = None;
    let mut by_title = None;
    'outer: for (i, ur) in u.iter().enumerate() {
        let award = ur.get("AwardNumber").map(|v| v.render()).unwrap_or_default();
        for (j, sr) in s.iter().enumerate() {
            let acc = sr.get("AccessionNumber").map(|v| v.render()).unwrap_or_default();
            if !truth.is_match(&award, &acc) {
                continue;
            }
            let usda_award = sr.str("AwardNumber").unwrap_or("");
            let suffix = award_suffix(&award).unwrap_or("");
            if by_number.is_none() && !usda_award.is_empty() && usda_award == suffix {
                by_number = Some((i, j));
            } else if by_title.is_none() && usda_award.is_empty() {
                by_title = Some((i, j));
            }
            if by_number.is_some() && by_title.is_some() {
                break 'outer;
            }
        }
    }
    let show = |label: &str, pair: Option<(usize, usize)>| {
        let Some((i, j)) = pair else {
            println!("  {label}: no example found at this scale/seed");
            return;
        };
        println!("  {label}:");
        println!(
            "    UMETRICS: {} | {}",
            u.get(i, "AwardNumber").unwrap().render(),
            u.get(i, "AwardTitle").unwrap().render()
        );
        println!(
            "    USDA:     acc={} award={} | {}",
            s.get(j, "AccessionNumber").unwrap().render(),
            s.get(j, "AwardNumber").unwrap().render(),
            s.get(j, "AwardTitle").unwrap().render()
        );
    };
    show("Figure 5 (match via award number, rule M1)", by_number);
    show("Figure 6 (match via title, award number missing)", by_title);
}

fn print_report(r: &CaseStudyReport, args: &Args) {
    let wants = |s: &str| args.sections.iter().any(|x| x == s);
    if wants("blocking") {
        println!("\n## Section 7 — blocking (paper: C2=2937 C3=1375 C2∩C3=1140 C2−C3=1797 C3−C2=235 C=3177)");
        println!("  |C1|={} |C2|={} |C3|={}", r.c1, r.c2, r.c3);
        println!(
            "  |C2∩C3|={} |C2−C3|={} |C3−C2|={} |C|={}",
            r.c2_and_c3, r.c2_only, r.c3_only, r.consolidated
        );
        println!("  sweep (paper: K=1→200K, K=7→hundreds): {:?}", r.sweep);
        println!("  blocking recall vs truth: {:.1}%", 100.0 * r.blocking_recall);
    }
    if wants("blockdebug") {
        println!("\n## Section 7 — blocking-debugger audit (paper: top pairs were not matches)");
        println!(
            "  {} of top {} excluded pairs were true matches",
            r.debugger_true_matches, r.debugger_inspected
        );
    }
    if wants("labeling") {
        println!("\n## Section 8 — labeling (paper: rounds of 100; final 68/200/32; 22 cross-check mismatches, 4 corrected)");
        for (i, round) in r.label_rounds.iter().enumerate() {
            println!(
                "  round {}: {} → {}Y/{}N/{}U  mismatches={} corrected={}",
                i + 1,
                round.sampled,
                round.yes,
                round.no,
                round.unsure,
                round.crosscheck_mismatches,
                round.corrections
            );
        }
        let (y, n, u) = r.label_counts;
        println!("  final: {y}Y/{n}N/{u}U   LOO label-debug leads: {}", r.label_debug_hits);
    }
    if wants("selection") {
        println!("\n## Section 9 — matcher selection (paper: RF wins round 1; DT wins round 2 at P=97% R=95% F1=94.7%)");
        for (title, rows) in [
            ("round 1 (case-sensitive)", &r.selection_round1),
            ("round 2 (+case-insensitive)", &r.selection_round2),
        ] {
            println!("  {title}:");
            for m in rows {
                println!(
                    "    {:<20} P={:>5.1}% R={:>5.1}% F1={:>5.1}%",
                    m.name,
                    100.0 * m.precision,
                    100.0 * m.recall,
                    100.0 * m.f1
                );
            }
        }
        println!("  split-half mismatches mined after round 1: {}", r.mismatches_round1);
    }
    if wants("matching") {
        println!("\n## Figure 8 — initial workflow (paper: 210 sure + 807 predicted = 1017)");
        println!(
            "  sure={} predicted={} total={}",
            r.initial_sure, r.initial_predicted, r.initial_total
        );
    }
    if wants("rule2") {
        println!("\n## Section 10 — revised match definition (paper: 473 in A×B, 411 in C, 397 predicted)");
        println!(
            "  rule pairs: {} in A×B, {} in C, {} predicted",
            r.rule2_in_cartesian, r.rule2_in_candidates, r.rule2_predicted
        );
    }
    if wants("patch") {
        let p = &r.patched;
        println!("\n## Figure 9 — patched workflow (paper: 683+55 sure, 2556/1220 candidates, 399+0 predicted, 1137 total)");
        println!(
            "  sure: {}+{}  candidates: {}/{}  predicted: {}+{}  total: {}",
            p.sure_original,
            p.sure_extra,
            p.candidates_original,
            p.candidates_extra,
            p.predicted_original,
            p.predicted_extra,
            p.total
        );
        let m = &r.multiplicity;
        println!(
            "  multiplicity: 1:1={} 1:N={} M:1={} M:N={} ({:.1}% not one-to-one; paper: \"does not affect many matches\")",
            m.one_to_one,
            m.one_to_many,
            m.many_to_one,
            m.many_to_many,
            100.0 * m.non_one_to_one_rate()
        );
        println!(
            "  cluster-level view: {} clusters, {} of them 1:1",
            r.clusters.0, r.clusters.1
        );
    }
    if wants("estimate") {
        println!("\n## Section 11 — Corleone estimation");
        println!("  paper: ours P(79.6,86.0) R(96.8,99.4) @200; P(75.2,80.3) R(98.1,99.6) @400");
        println!("         IRIS P(100,100) R(52.7,62.1) @200; P(100,100) R(65.1,71.8) @400");
        for e in &r.estimates {
            println!(
                "  {:<10} @{:>3}: P∈{} R∈{}",
                e.matcher, e.n_labels, e.estimate.precision, e.estimate.recall
            );
        }
    }
    if wants("final") {
        println!("\n## Section 12 — negative rules (paper: P(96.7,98.8) R(94.2,97.05); 845 final matches)");
        for e in &r.final_estimates {
            println!(
                "  {:<16} @{:>3}: P∈{} R∈{}",
                e.matcher, e.n_labels, e.estimate.precision, e.estimate.recall
            );
        }
        println!("  flipped={}  final matches={}", r.flipped, r.final_total);
        println!("\n## Ground truth (not observable in the paper)");
        for (name, s) in &r.truth_scores {
            println!(
                "  {:<16} P={:>5.1}% R={:>5.1}% F1={:>5.1}% (tp={} fp={} fn={})",
                name,
                100.0 * s.precision,
                100.0 * s.recall,
                100.0 * s.f1,
                s.tp,
                s.fp,
                s.fn_
            );
        }
    }
    if wants("resilience") {
        let res = &r.resilience;
        println!("\n## Resilience — faults absorbed by this run (not part of the paper)");
        if res.is_clean() {
            println!("  clean run: no faults injected or absorbed (try --faults)");
        } else {
            println!(
                "  oracle: {} transient faults, {} retries, {} ms virtual backoff",
                res.oracle_faults, res.oracle_retries, res.total_backoff_ms
            );
            println!(
                "  labels degraded to Unsure after exhausted retries: {}",
                res.degraded_labels
            );
            for (award, acc) in &res.degraded_pairs {
                println!("    degraded pair: award={award} accession={acc}");
            }
            println!("  CSV rows quarantined during ingest: {}", res.quarantined_rows);
            if !res.resumed_stages.is_empty() {
                println!("  stages restored from checkpoint: {}", res.resumed_stages.join(", "));
            }
        }
    }
}

/// Ablations A-1 (blocking-scheme union members) and A-2 (casing strategy).
fn ablations(
    u: &Table,
    s: &Table,
    scenario: &em_datagen::Scenario,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Ablation A-1 — drop one blocking scheme from the union");
    let out = run_blocking(u, s, &BlockingPlan::default())?;
    let truth_recall = |set: &em_blocking::CandidateSet| -> f64 {
        let total = scenario.truth.n_matches_initial();
        if total == 0 {
            return 1.0;
        }
        let kept = set
            .iter()
            .filter(|p| {
                scenario.truth.is_match(
                    &u.get(p.left, "AwardNumber").unwrap().render(),
                    &s.get(p.right, "AccessionNumber").unwrap().render(),
                )
            })
            .count();
        kept as f64 / total as f64
    };
    let variants = [
        ("C1∪C2∪C3 (full plan)", out.consolidated.clone()),
        ("C1∪C2 (no overlap coefficient)", out.c1.union(&out.c2)),
        ("C1∪C3 (no overlap blocker)", out.c1.union(&out.c3)),
        ("C2∪C3 (no rule scheme)", out.c2.union(&out.c3)),
        ("C1 only", out.c1.clone()),
    ];
    println!("  {:<34} {:>10} {:>14}", "variant", "pairs", "truth recall");
    for (name, set) in &variants {
        println!("  {:<34} {:>10} {:>13.1}%", name, set.len(), 100.0 * truth_recall(set));
    }

    println!("\n## Ablation A-2 — casing strategies (paper footnote 8: global lowercasing loses information)");
    let candidates = out.consolidated.clone();
    let oracle = Oracle::new(&scenario.truth, OracleConfig::default());
    let (labeled, _) = run_labeling(u, s, &candidates, &oracle, &[100, 100], 11)?;
    let m1 = RuleSet {
        positive: vec![EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber")],
        negative: vec![],
    };
    // Variant tables with titles globally lowercased at pre-processing time.
    #[allow(clippy::disallowed_methods)] // ablation deliberately lowercases whole columns
    let lower = |t: &Table| -> Result<Table, em_table::TableError> {
        let lowered = t.add_column("LoweredTitle", DataType::Str, |r| {
            r.str("AwardTitle").map(|s| s.to_lowercase()).into()
        })?;
        lowered.drop_column("AwardTitle")?.rename_column("LoweredTitle", "AwardTitle")
    };
    let (ul, sl) = (lower(u)?, lower(s)?);
    println!("  {:<40} {:>10} {:>8}", "strategy", "features", "best F1");
    for (name, (ta, tb), stage) in [
        ("case-sensitive features", (u, s), MatcherStage::new(11)),
        (
            "case-insensitive feature variants",
            (u, s),
            MatcherStage::new(11).with_case_insensitive(),
        ),
        ("global lowercasing at pre-processing", (&ul, &sl), MatcherStage::new(11)),
    ] {
        let features = auto_features(ta, tb, &stage.feature_opts);
        let (data, _) = build_training_data(ta, tb, &features, &labeled, &m1)?;
        let ranking = select_matcher(&data, &stage)?;
        println!(
            "  {:<40} {:>10} {:>7.1}%  (winner: {})",
            name,
            features.len(),
            100.0 * ranking[0].f1(),
            ranking[0].learner
        );
    }

    // A-4: could raising the decision threshold have replaced the negative
    // rules? Sweep thresholds on the trained matcher and compare against
    // the rule repair at the default threshold.
    println!("\n## Ablation A-4 — decision-threshold sweep vs negative rules");
    let spec = em_core::spec::WorkflowSpec::umetrics_usda();
    let rules = spec.rules();
    let stage = spec.matcher_stage(11);
    let features = auto_features(u, s, &stage.feature_opts);
    let (data, imputer) = build_training_data(u, s, &features, &labeled, &rules)?;
    let ranking = select_matcher(&data, &stage)?;
    let matcher = train_matcher(features, imputer, &data, &ranking[0].learner, &stage)?;

    let sure = rules.sure_matches(u, s)?;
    let cand = out.consolidated.minus(&sure);
    let probs = matcher.probabilities(u, s, &cand)?;
    let score = |matches: &em_blocking::CandidateSet| -> (f64, f64) {
        let mut tp = 0usize;
        for p in matches.iter() {
            let award = u.get(p.left, "AwardNumber").unwrap().render();
            let acc = s.get(p.right, "AccessionNumber").unwrap().render();
            if scenario.truth.is_match(&award, &acc) {
                tp += 1;
            }
        }
        let precision = if matches.is_empty() { 1.0 } else { tp as f64 / matches.len() as f64 };
        let recall = tp as f64 / scenario.truth.n_matches_initial().max(1) as f64;
        (precision, recall)
    };
    println!("  {:<26} {:>10} {:>8} {:>8}", "strategy", "matches", "P", "R");
    for t in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95] {
        let mut m = sure.clone();
        for (pair, p) in &probs {
            if *p >= t {
                m.add(*pair, "model");
            }
        }
        let (prec, rec) = score(&m);
        println!(
            "  {:<26} {:>10} {:>7.1}% {:>7.1}%",
            format!("threshold {t}"),
            m.len(),
            100.0 * prec,
            100.0 * rec
        );
    }
    // Negative rules at the default threshold.
    let mut predicted = em_blocking::CandidateSet::new("pred");
    for (pair, p) in &probs {
        if *p >= 0.5 {
            predicted.add(*pair, "model");
        }
    }
    let (kept, _flipped) = rules.apply_negative(u, s, &predicted)?;
    let final_m = sure.union(&kept);
    let (prec, rec) = score(&final_m);
    println!(
        "  {:<26} {:>10} {:>7.1}% {:>7.1}%",
        "negative rules @0.5",
        final_m.len(),
        100.0 * prec,
        100.0 * rec
    );
    Ok(())
}
