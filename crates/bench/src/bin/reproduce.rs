//! Regenerates every table and figure of *Executing Entity Matching End to
//! End: A Case Study* (EDBT 2019) on the synthetic scenario, and prints the
//! experiment reports EXPERIMENTS.md quotes that no other command produces.
//!
//! ```text
//! cargo run --release -p em-bench --bin reproduce -- [--scale paper|small]
//!     [--scale-factor F] [--seed N] [--faults] [--threads N] [--section <id>]...
//!     [--serve-chaos] [--active] [--weak] [--scaling F,...] [--scaling-match F,...]
//! ```
//!
//! Sections: `fig1 fig2 fig3 fig4 fig5 fig7 blocking blockdebug labeling
//! selection matching rule2 patch estimate final resilience ablation`
//! (default: all). `--faults` runs the case study under an active fault
//! plan (flaky oracle + corrupted USDA CSV) so the resilience section shows
//! a non-trivial ledger; the headline numbers should not move. Output is
//! plain text with the paper's numbers quoted next to ours; stdout of the
//! paper replay is deterministic (`reproduce_paper_output.txt` is the
//! default-seed `--scale paper` run, byte for byte) and every timing goes
//! to stderr.
//!
//! `--threads N` pins the parallel executor's worker count (default:
//! `EM_THREADS` or the hardware); results never depend on it.
//!
//! Each of `--serve-chaos`, `--active`, `--weak`, `--scaling` and
//! `--scaling-match` prints its experiment report *instead of* the paper
//! replay. Performance is measured and gated by `benchmark/`
//! (`BENCHMARK.json`), not here; the two sweeps' wall-time and RSS columns
//! are the x64/x256 record until those rows are benchmark workloads. Every
//! run ends with its total wall time and thread count on stderr.

#![deny(unsafe_code)]

use em_bench::{fixtures_cfg, scaled_fixtures, Fixtures};
use em_blocking::{debug_blocking_counted, Blocker, BlockingDebugger, OverlapBlocker, Pair};
use em_core::blocking_plan::{run_blocking, BlockingPlan};
use em_core::labeling::run_labeling;
use em_core::matcher::{build_training_data, select_matcher, train_matcher, MatcherStage};
use em_core::pipeline::{CaseStudy, CaseStudyConfig, CaseStudyReport};
use em_core::resilience::FaultPlan;
use em_datagen::{Oracle, OracleConfig, ScenarioConfig};
use em_features::{auto_features, extract_vectors, FeatureOptions};
use em_ml::dataset::{impute_mean, Dataset};
use em_ml::model::{Learner, Model};
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
    serve_chaos: bool,
    scaling: Vec<f64>,
    scaling_match: Vec<f64>,
    active: bool,
    weak: bool,
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

    /// [`Args::base_cfg`] under the `--seed` override.
    fn scenario_cfg(&self) -> ScenarioConfig {
        let cfg = self.base_cfg();
        match self.seed {
            Some(seed) => cfg.with_seed(seed),
            None => cfg,
        }
    }

    /// The case-study config around [`Args::scenario_cfg`].
    fn case_study_cfg(&self) -> CaseStudyConfig {
        let mut cfg =
            if self.paper_scale { CaseStudyConfig::paper() } else { CaseStudyConfig::small() };
        cfg.scenario = self.scenario_cfg();
        cfg
    }

    /// Label used in console output.
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

/// A `F1,F2,...` list of positive scale factors, ascending: a sweep's
/// `RSS MiB` column reads the process-wide `VmHWM` high-water mark, so a
/// row is at least not masked by a larger factor run before it.
fn parse_factors(list: Option<String>) -> Vec<f64> {
    let mut factors: Vec<f64> = list
        .unwrap_or_default()
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .filter(|&f: &f64| f > 0.0)
        .collect();
    factors.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    factors
}

fn parse_args() -> Args {
    let mut args = Args {
        paper_scale: false,
        scale_factor: None,
        seed: None,
        faults: false,
        threads: None,
        serve_chaos: false,
        scaling: Vec::new(),
        scaling_match: Vec::new(),
        active: false,
        weak: false,
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
            "--serve-chaos" => {
                args.serve_chaos = true;
            }
            "--scaling" => {
                args.scaling = parse_factors(it.next());
            }
            "--scaling-match" => {
                args.scaling_match = parse_factors(it.next());
            }
            "--active" => {
                args.active = true;
            }
            "--weak" => {
                args.weak = true;
            }
            "--section" => {
                if let Some(v) = it.next() {
                    args.sections.push(v);
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce [--scale paper|small] [--scale-factor F] [--seed N] [--faults] [--threads N] [--section <id>]...\n\
                     [--serve-chaos] [--active] [--weak] [--scaling F,...] [--scaling-match F,...]\n\
                     sections: {} (default: all)\n\
                     --scale-factor F: generate the scenario at F times paper scale (overrides --scale)\n\
                     --faults: inject a flaky oracle and CSV corruption; the run must absorb them\n\
                     --threads N: pin the parallel executor's worker count (results never change)\n\
                     Each flag below prints its experiment report instead of the paper replay:\n\
                     --serve-chaos: drive the serve tier through a seeded fault schedule (crashes,\n\
                                    torn WAL tails, corrupt snapshots, bursts); exits nonzero unless\n\
                                    recovery is bit-identical to the fault-free run\n\
                     --active: the label-efficiency experiment (query-by-committee active learning\n\
                                    vs random sampling on a loose quarter-scale pool): both curves\n\
                                    and the labels-to-target comparison\n\
                     --weak: train a matcher from labeling functions alone (weak supervision,\n\
                                    zero oracle labels) and score it; combines with --active\n\
                     --scaling F1,F2,...: the corpus-scale blocking stage at each factor (streaming\n\
                                    set-similarity join): one row of candidate counts, checksum,\n\
                                    candidates/s, wall time and peak RSS per factor\n\
                     --scaling-match F1,F2,...: the fused end-to-end streaming match at each factor\n\
                                    (blocking -> features -> model -> rules, no materialized\n\
                                    candidate set) under the workflow trained once at x1: one row\n\
                                    of counts, thread-invariant checksum, pairs/s, wall time and\n\
                                    peak RSS per factor\n\
                     RSS is the process-wide high-water mark: run one factor per process for a\n\
                     row's own. Timings gated per PR come from benchmark/ (BENCHMARK.json).",
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
    let seed = args.scenario_cfg().seed;
    let experiments = args.serve_chaos
        || args.active
        || args.weak
        || !args.scaling.is_empty()
        || !args.scaling_match.is_empty();
    if args.serve_chaos {
        serve_chaos_section(&args)?;
    }
    if args.active || args.weak {
        label_efficiency_section(&args, seed)?;
    }
    // One process has one `VmHWM`: the sweep that runs second reads at least
    // the first one's peak.
    if !args.scaling_match.is_empty() {
        scaling_match_sweep(&args.scaling_match, seed)?;
    }
    if !args.scaling.is_empty() {
        scaling_sweep(&args.scaling, seed)?;
    }
    if !experiments {
        paper_replay(&args)?;
    }
    print_wall_time(started);
    Ok(())
}

/// The paper replay: every requested section, in the paper's order.
fn paper_replay(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let wants = |s: &str| args.sections.iter().any(|x| x == s);
    let mut cfg = args.case_study_cfg();

    println!(
        "# Reproduction run — scale: {}, scenario seed: {}",
        args.scale_label(),
        cfg.scenario.seed
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
        print_report(&report, args);
        if wants("blockdebug") {
            print_audit_work(&cfg)?;
        }
    }

    if wants("ablation") {
        ablations(&fx.umetrics, &fx.usda, &fx.scenario)?;
    }
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

/// Peak resident-set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); 0.0 where procfs is unavailable. A high-water
/// mark: a sweep row's reading is its own only when the process ran that
/// one factor.
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

/// `--scaling F1,F2,...`: the corpus-scale blocking stage, one table row a
/// factor. Runs C1 as a hash join and **streams** the `C2 ∪ C3` title join
/// through [`em_blocking::join_stats`]: candidate counts, an
/// order-invariant checksum of the exact pair stream, and a C1-membership
/// flag per pair, so `|C1 ∪ C2 ∪ C3|` falls out of inclusion–exclusion
/// without ever materializing a corpus-scale candidate set.
/// `crates/bench/tests/join_scale.rs` pins the x4 count (25 676) and holds
/// the streamed accounting equal to the materialized plan.
fn scaling_sweep(factors: &[f64], seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    use em_core::blocking_plan::c1_scheme;
    use em_text::intern::{TokenCache, TokenCorpus};

    println!("\n## Corpus-scale blocking — streaming set-similarity join (seed {seed})");
    println!(
        "  {:>7} {:>9} {:>9} {:>9} {:>12} {:>12} {:>13} {:>9} {:>18}",
        "factor", "left", "right", "wall ms", "join pairs", "|C1∪C2∪C3|", "cand/s", "RSS MiB",
        "checksum"
    );
    let spec = BlockingPlan::default().union_spec();
    for &factor in factors {
        // Only the projected tables outlive the statement: the raw scenario is
        // dropped before the row is timed.
        let Fixtures { umetrics: u, usda: d, .. } = scaled_fixtures(factor, seed);
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
        let wall_s = t0.elapsed().as_secs_f64().max(1e-12);
        println!(
            "  {:>7} {:>9} {:>9} {:>9.1} {:>12} {:>12} {:>13.0} {:>9.0} {:#018x}",
            format!("x{factor}"),
            u.n_rows(),
            d.n_rows(),
            wall_s * 1e3,
            stats.pairs,
            // |C1 ∪ (C2 ∪ C3)| by inclusion–exclusion over the streamed flags.
            c1.len() as u64 + stats.pairs - stats.flagged,
            stats.pairs as f64 / wall_s,
            peak_rss_mib(),
            stats.checksum
        );
    }
    Ok(())
}

/// `--scaling-match F1,F2,...`: the fused end-to-end streaming match, one
/// table row a factor. The frozen workflow (features, imputer, CV-selected
/// model, rules, plan) trains **once** at x1 — scaling varies the corpus
/// the executor streams over, not the artifact under test — then every
/// left row goes through [`em_core::stream::StreamMatcher`]: join-probe
/// candidates → masked batch features → mean imputation → blocked forest
/// scoring → negative rules, keeping only streamed accounting in memory.
/// `crates/bench/tests/scaling_match_pinned.rs` pins the x4 row and holds
/// [`em_core::EmWorkflow::run`] — the same stream, collecting — equal to the
/// materialized chain of stage functions.
fn scaling_match_sweep(factors: &[f64], seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    use em_core::stream::StreamMatcher;

    println!("\n## Corpus-scale end-to-end matching — fused streaming executor (seed {seed})");

    // The case study's own scale, auxiliary tables uncapped: exactly the
    // artifact the paper-scale pipeline produces.
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
        "  {:>7} {:>9} {:>9} {:>10} {:>12} {:>10} {:>8} {:>9} {:>13} {:>9} {:>6} {:>18}",
        "factor", "left", "right", "wall ms", "candidates", "predicted", "flipped", "matched",
        "pairs/s", "RSS MiB", "mask", "checksum"
    );
    for &factor in factors {
        // Only the projected tables outlive the statement: the raw scenario is
        // dropped before the row is timed.
        let Fixtures { umetrics: u, usda: d, .. } = scaled_fixtures(factor, seed);
        let t0 = std::time::Instant::now();
        let sm = StreamMatcher::new(
            &u,
            &d,
            &artifacts.matcher,
            &artifacts.rule_descs,
            &artifacts.plan,
        )?;
        let out = sm.run();
        let wall_s = t0.elapsed().as_secs_f64().max(1e-12);
        println!(
            "  {:>7} {:>9} {:>9} {:>10.1} {:>12} {:>10} {:>8} {:>9} {:>13.0} {:>9.0} {:>6} {:#018x}",
            format!("x{factor}"),
            out.left_rows,
            out.right_rows,
            wall_s * 1e3,
            out.candidates,
            out.predicted,
            out.flipped,
            out.matched,
            out.candidates as f64 / wall_s,
            peak_rss_mib(),
            format!("{}/{}", sm.mask().n_live(), sm.mask().len()),
            out.checksum
        );
    }
    Ok(())
}

/// The experiment pool is pinned independently of `--scale`: a
/// quarter-scale scenario blocked with a deliberately loose plan
/// (overlap-1 at K=2, coefficient 0.5), giving ~2k candidates of which
/// ~10% match. On the workflow's consolidated candidate set random
/// sampling is nearly as good as querying by committee; label efficiency
/// only matters on pools where most candidates are easy negatives.
const LABEL_POOL_SCALE: f64 = 0.25;

/// `--active` / `--weak`: the label-efficiency experiment on the pinned
/// pool — both active-learning curves with the labels-to-target
/// comparison, and the zero-oracle-label weak-supervision run.
/// `crates/label/tests/label_efficiency.rs` asserts what this prints.
fn label_efficiency_section(args: &Args, seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    use em_core::labeling::{accession_of, award_of};
    use em_core::preprocess::{project_umetrics, project_usda};
    use em_datagen::{FlakyConfig, FlakyOracle, Scenario};
    use em_label::{ActiveConfig, Strategy, WeakConfig};

    let scenario = Scenario::generate(ScenarioConfig::scaled(LABEL_POOL_SCALE).with_seed(seed))?;
    let u = project_umetrics(&scenario.award_agg, &scenario.employees)?;
    let s = project_usda(&scenario.usda, false)?;
    let plan = BlockingPlan { overlap_k: 2, oc_threshold: 0.5 };
    let candidates = run_blocking(&u, &s, &plan)?.consolidated;
    let positives = candidates
        .iter()
        .filter(|p| scenario.truth.is_match(&award_of(&u, p.left), &accession_of(&s, p.right)))
        .count();

    println!("\n## Label-efficient training — seed {seed}");
    println!(
        "  pool: {} candidates, {} true matches ({:.1}%) — x{} scenario, loose blocking (K=2, oc=0.5)",
        candidates.len(),
        positives,
        100.0 * positives as f64 / candidates.len().max(1) as f64,
        LABEL_POOL_SCALE
    );
    if args.active {
        let arm = |strategy: Strategy| {
            let oracle = FlakyOracle::new(
                Oracle::new(&scenario.truth, OracleConfig::default()),
                FlakyConfig { p_unavailable: 0.2, p_timeout: 0.1, ..Default::default() },
            );
            em_label::run_active(
                &u,
                &s,
                &candidates,
                &oracle,
                &scenario.truth,
                &ActiveConfig::new(strategy, seed),
                None,
            )
        };
        let random = arm(Strategy::Random)?;
        let committee = arm(Strategy::Committee)?;
        println!("\n  Active learning: query-by-committee vs random sampling");
        print_label_curve("random", &random);
        print_label_curve("committee", &committee);
        let target = random.final_f1();
        let random_spent = random.rounds.last().map_or(0, |r| r.distinct);
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
    if args.weak {
        let w =
            em_label::run_weak(&u, &s, &candidates, &scenario.truth, &WeakConfig::standard(seed))?;
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
    Ok(())
}

fn print_label_curve(tag: &str, out: &em_label::ActiveOutcome) {
    // Per-round training and selection latency: stderr, like every timing.
    for l in &out.latency {
        eprintln!(
            "  {tag:<10} round {:>2}: committee fit {:>7.3} ms, selection {:>7.3} ms",
            l.round,
            l.fit_s * 1e3,
            l.select_s * 1e3
        );
    }
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

/// `--serve-chaos`: trains the serving artifacts, freezes them into a
/// snapshot, and drives the seeded chaos schedule against it with the
/// scenario's extra UMETRICS records as the open-loop arrival stream.
/// Returns an error — a nonzero exit — if any request failed to terminate
/// or any outcome diverged from the fault-free run (the same conditions
/// `em_serve::chaos`'s tests assert at seeds 1, 2, 7 and 20190326).
fn serve_chaos_section(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use em_serve::{run_chaos, ChaosConfig, WorkflowSnapshot};
    let cs_cfg = args.case_study_cfg();
    let seed = cs_cfg.scenario.seed;
    eprintln!("training the serving artifacts for --serve-chaos…");
    let artifacts = CaseStudy::new(cs_cfg).train_serving_artifacts()?;
    let dir = std::env::temp_dir().join(format!("em-serve-chaos-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snapshot = WorkflowSnapshot::from_artifacts(&artifacts);
    let result =
        run_chaos(snapshot, &artifacts.extra_umetrics, &ChaosConfig::new(seed, dir.clone()));
    let _ = std::fs::remove_dir_all(&dir);
    let r = result?;
    if !r.terminal_outcomes {
        return Err("serve chaos: a request finished without a terminal outcome".into());
    }
    if !r.bit_identical {
        return Err("serve chaos: served outcomes diverged from the fault-free run".into());
    }
    if !r.shard_identical {
        return Err("serve chaos: sharded replay diverged from the fault-free run".into());
    }

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
    Ok(())
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
    let model = DecisionTreeLearner::default().fit_model(&data)?;
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

    // One run with the negative rules applied carries both sides: every
    // candidate's probability for the sweep, and the repaired matches.
    let run =
        em_core::EmWorkflow { rules, plan: BlockingPlan::default(), matcher: &matcher, apply_negative: true }
            .run(u, s)?;
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
        let mut m = run.sure.clone();
        for (pair, p) in &run.scored {
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
    let (prec, rec) = score(&run.matches);
    println!(
        "  {:<26} {:>10} {:>7.1}% {:>7.1}%",
        "negative rules @0.5",
        run.matches.len(),
        100.0 * prec,
        100.0 * rec
    );
    Ok(())
}
