//! Quick breakdown of where feature-extraction time goes. Development aid
//! for the similarity-kernel engine; not part of the reproduction output.
//!
//! - no arguments: the five sequence kernels the title features run
//!   (Levenshtein, Jaro, Jaro-Winkler, Needleman-Wunsch and Smith-Waterman
//!   similarity), ns/pair over the paper-scale `AwardTitle` candidates of an
//!   overlap blocker at K = 3 — the `naive` reference, the engine's `&str`
//!   entry point, the engine on pre-decoded chars, and all five on chars
//!   together (what extraction runs). Every value is asserted bit-equal to
//!   the reference's;
//! - `--stream <factor>`: the fused stream's extraction at corpus scale —
//!   the frozen x1 workflow (as `reproduce --scaling-match` trains it) over
//!   the `<factor>`-scaled tables, one thread: `StreamMatcher::new` broken
//!   into its set-up legs, the join probe on its own (rows enumerated vs
//!   admitted, the index's dense/sparse split, slice widths), what the
//!   scorer pulled (features computed per pair: mean, histogram, each
//!   model-live feature's share), then per model-live feature ns/pair over
//!   the stream's own candidate order, with sequence-kernel calls vs
//!   reused values;
//! - `--serve <factor>`: a served request's time by stage — the
//!   `serve_read` benchmark's set-up (workflow trained at `<factor>`, the
//!   `<factor>`-scaled corpus, every arrival once, one thread): the title
//!   index probe on its own for a bulk-built and a row-by-row pushed index
//!   (µs a probe, rows enumerated vs admitted, segments probed, tail rows
//!   scanned, the layout), then the four `RequestTimings` stage means of a
//!   service built each way and what its requests pulled (features computed
//!   a request and on the median candidate, each live feature's pulls, the
//!   Monge-Elkan word matrices' pulls, columns and kernel cells).
//! - `--train`: the case study's training loops at paper scale
//!   ([`em_bench::paper_training_sets`], one thread) — leave-one-out label
//!   debugging with the random forest, then five-fold selection per
//!   learner — by leg: view build, bootstrap draws, feature shuffles, split
//!   search, partition, held-out predict; with trees, nodes a tree, distinct
//!   rows a searched node, histogram vs sorted-key sweeps and thresholds
//!   scored. Each loop runs once with the per-leg timers off (its wall time)
//!   and once with them on; the held-out predictions are folded into a
//!   checksum that must not move across a perf PR.
//!
//! Everything goes to stderr; timers sit outside every checksum.

#![deny(unsafe_code)]

use em_bench::{fixtures_cfg, scaled_fixtures};
use em_blocking::{
    Blocker, IncrementalIndex, JoinIndex, JoinLayout, JoinScratch, JoinSpec, OverlapBlocker, Pair,
};
use em_core::blocking_plan::c1_scheme;
use em_core::pipeline::{CaseStudy, CaseStudyConfig};
use em_core::preprocess::project_umetrics;
use em_core::stream::StreamMatcher;
use em_datagen::ScenarioConfig;
use em_features::{BatchExtractor, FeatureMask};
use em_serve::{MatchService, ProbeScratch, WorkflowSnapshot};
use em_table::Table;
use em_text::{naive, seq, KernelScratch, TokenCache, TokenCorpus};
use std::time::Instant;

/// The committed bench seed (`reproduce --seed 20190326`).
const SEED: u64 = 20190326;

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// FNV-style fold of one value's bits, so a run's values can be compared
/// with another build's without printing them.
fn fold(h: u64, v: f64) -> u64 {
    h.wrapping_mul(31).wrapping_add(v.to_bits())
}

/// Each row's `AwardTitle`, lowercased once, as a string and as chars.
#[allow(clippy::disallowed_methods)] // cache-build site: lowercase once per row
fn decoded_titles(t: &Table) -> (Vec<String>, Vec<Vec<char>>) {
    let strings: Vec<String> = t
        .iter()
        .map(|r| r.str("AwardTitle").unwrap_or_default().to_lowercase())
        .collect();
    let chars = strings.iter().map(|s| s.chars().collect()).collect();
    (strings, chars)
}

/// Best of five passes of `f` over `pairs`, in ns/pair; every pass must
/// give `expected`, value for value.
fn ns_per_pair(
    what: &str,
    pairs: &[Pair],
    expected: &[u64],
    mut f: impl FnMut(Pair) -> u64,
) -> f64 {
    let mut best = f64::INFINITY;
    let mut got = Vec::with_capacity(pairs.len());
    for _ in 0..5 {
        got.clear();
        let t0 = Instant::now();
        got.extend(pairs.iter().map(|&p| f(p)));
        best = best.min(t0.elapsed().as_secs_f64());
        if let Some(k) = (0..pairs.len()).find(|&k| got[k] != expected[k]) {
            panic!("{what}: pair {:?} differs from naive", pairs[k]);
        }
    }
    best * 1e9 / pairs.len().max(1) as f64
}

fn kernels() -> Result<(), Box<dyn std::error::Error>> {
    type StrKernel = fn(&str, &str) -> f64;
    type CharKernel = fn(&mut KernelScratch, &[char], &[char]) -> f64;
    let kernels: [(&str, StrKernel, StrKernel, CharKernel); 5] = [
        (
            "levenshtein_sim",
            naive::levenshtein_sim,
            seq::levenshtein_sim,
            seq::levenshtein_sim_chars,
        ),
        ("jaro", naive::jaro, seq::jaro, seq::jaro_chars),
        (
            "jaro_winkler",
            naive::jaro_winkler,
            seq::jaro_winkler,
            seq::jaro_winkler_chars,
        ),
        (
            "needleman_wunsch_sim",
            naive::needleman_wunsch_sim,
            seq::needleman_wunsch_sim,
            seq::needleman_wunsch_sim_chars,
        ),
        (
            "smith_waterman_sim",
            naive::smith_waterman_sim,
            seq::smith_waterman_sim,
            seq::smith_waterman_sim_chars,
        ),
    ];
    let fx = fixtures_cfg(ScenarioConfig::paper());
    let (u, s) = (&fx.umetrics, &fx.usda);
    let pairs = OverlapBlocker::new("AwardTitle", "AwardTitle", 3)
        .block(u, s)?
        .to_vec();
    let ((us, uc), (ss, sc)) = (decoded_titles(u), decoded_titles(s));
    eprintln!(
        "{} AwardTitle pairs (overlap K=3, paper scale), lowercased; ns/pair, best of 5 passes, \
         every value bit-equal to naive",
        pairs.len()
    );
    eprintln!(
        "  {:<22} {:>9} {:>9} {:>9} {:>12}",
        "kernel", "naive", "&str", "chars", "naive/chars"
    );
    let mut scratch = KernelScratch::new();
    // Per pair, the fold of all five naive values: what the chars row must give.
    let mut folded = vec![0u64; pairs.len()];
    let (mut naive_sum, mut str_sum) = (0.0, 0.0);
    for (name, naive_fn, str_fn, chars_fn) in kernels {
        let naive_bits = |p: Pair| naive_fn(&us[p.left], &ss[p.right]).to_bits();
        let expected: Vec<u64> = pairs.iter().map(|&p| naive_bits(p)).collect();
        for (h, &e) in folded.iter_mut().zip(&expected) {
            *h = fold(*h, f64::from_bits(e));
        }
        let naive_ns = ns_per_pair(name, &pairs, &expected, naive_bits);
        let str_ns = ns_per_pair(name, &pairs, &expected, |p| {
            str_fn(&us[p.left], &ss[p.right]).to_bits()
        });
        let chars_ns = ns_per_pair(name, &pairs, &expected, |p| {
            chars_fn(&mut scratch, &uc[p.left], &sc[p.right]).to_bits()
        });
        (naive_sum, str_sum) = (naive_sum + naive_ns, str_sum + str_ns);
        eprintln!(
            "  {name:<22} {naive_ns:>9.0} {str_ns:>9.0} {chars_ns:>9.0} {:>11.1}x",
            naive_ns / chars_ns
        );
    }
    let all_ns = ns_per_pair("all five", &pairs, &folded, |p| {
        let (a, b) = (&uc[p.left], &sc[p.right]);
        kernels
            .iter()
            .fold(0, |h, (.., chars_fn)| fold(h, chars_fn(&mut scratch, a, b)))
    });
    eprintln!(
        "  {:<22} {naive_sum:>9.0} {str_sum:>9.0} {all_ns:>9.0} {:>11.1}x",
        "all five, one pass",
        naive_sum / all_ns
    );
    Ok(())
}

fn stream(factor: f64) -> Result<(), Box<dyn std::error::Error>> {
    let mut cs = CaseStudyConfig::small();
    cs.scenario = ScenarioConfig::scaled(1.0).with_seed(SEED);
    let art = CaseStudy::new(cs).train_serving_artifacts()?;
    // Auxiliary tables capped at paper size, as in `--scaling-match`.
    let fx = scaled_fixtures(factor, SEED);
    let (u, d) = (&fx.umetrics, &fx.usda);
    let feats = &art.matcher.features;

    for _ in 0..3 {
        let t0 = Instant::now();
        let sm = StreamMatcher::new(u, d, &art.matcher, &art.rule_descs, &art.plan)?;
        let new_ms = ms(t0);
        let t0 = Instant::now();
        let out = sm.run();
        eprintln!(
            "stream x{factor}: new {new_ms:.1} ms, run {:.1} ms, {} candidates, checksum {:#018x}",
            ms(t0),
            out.candidates,
            out.checksum
        );
    }
    let sm = StreamMatcher::new(u, d, &art.matcher, &art.rule_descs, &art.plan)?;
    let mask = sm.mask().clone();
    let pairs: Vec<Pair> = sm.run_collecting().1.scored.iter().map(|(p, _)| *p).collect();
    let pulled = sm.run_profiled().1;
    drop(sm);
    eprintln!(
        "{} pairs in stream order, mask {}/{} (what the model can read)",
        pairs.len(),
        mask.n_live(),
        mask.len()
    );
    let total: u64 = pulled.pulls.iter().sum();
    let n_pairs = pulled.pairs().max(1) as f64;
    let by_pulled: Vec<String> = pulled
        .by_pulled
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(k, n)| format!("{k}:{n}"))
        .collect();
    eprintln!(
        "features computed per pair: mean {:.2} over {} pairs; pairs by features computed {}; \
         {} set-plan intersection passes",
        total as f64 / n_pairs,
        pulled.pairs(),
        by_pulled.join(" "),
        pulled.set_passes
    );
    for k in mask.live_indices() {
        eprintln!(
            "  {:<30} computed for {:>9} pairs ({:5.1} %)",
            feats.features[k].name,
            pulled.pulls[k],
            100.0 * pulled.pulls[k] as f64 / n_pairs
        );
    }

    eprintln!("\nStreamMatcher::new, leg by leg (each leg alone, one thread):");
    let rules = art.rule_descs.build();
    let t0 = Instant::now();
    let sure = rules.sure_matches(u, d)?;
    eprintln!("  sure matches          {:8.1} ms ({} pairs)", ms(t0), sure.len());
    let t0 = Instant::now();
    let c1 = c1_scheme(u, d)?;
    eprintln!("  C1 scheme             {:8.1} ms ({} pairs)", ms(t0), c1.len());
    let t0 = Instant::now();
    let bound = rules.bind_negative(d)?;
    let mut left_keys = Vec::new();
    for row in u.iter() {
        bound.bind_left(row, &mut left_keys);
    }
    eprintln!("  negative rules bound  {:8.1} ms ({} left keys)", ms(t0), left_keys.len());
    std::hint::black_box(&bound);
    let t0 = Instant::now();
    let cache = TokenCache::for_blocking();
    let left = TokenCorpus::from_column(&cache, u.iter().map(|r| r.str("AwardTitle")));
    let right = TokenCorpus::from_column(&cache, d.iter().map(|r| r.str("AwardTitle")));
    let index = JoinIndex::build(right);
    eprintln!("  corpora + JoinIndex   {:8.1} ms", ms(t0));
    probe(&left, &index, &art.plan.union_spec());
    let plan = BatchExtractor::plan(feats, u, d, &mask, Some(("AwardTitle", "AwardTitle")))?;
    let mut legs = Vec::new();
    for i in 0..plan.n_legs() {
        let t0 = Instant::now();
        legs.push(plan.build_leg(i));
        let what = match i {
            0 => "sequence caches".to_string(),
            1 => "typed columns".to_string(),
            _ => format!("set plan {}", i - 2),
        };
        eprintln!("  extractor leg {i}: {what:<18} {:8.1} ms", ms(t0));
    }
    let t0 = Instant::now();
    let ex = plan.assemble(legs, None)?;
    eprintln!("  extractor assembly    {:8.1} ms", ms(t0));

    let mut out = vec![0.0; feats.len()];
    for _ in 0..2 {
        let mut scratch = ex.scratch();
        let t0 = Instant::now();
        for p in &pairs {
            ex.extract_into(*p, &mut scratch, &mut out);
            std::hint::black_box(&out);
        }
        let s = t0.elapsed().as_secs_f64();
        let (calls, reused) = scratch.seq_counts();
        eprintln!(
            "\nall {} live features: {:.1} ms, {:.0} ns/pair; sequence kernels: {calls} calls, \
             {reused} values reused ({:.1} %)",
            mask.n_live(),
            s * 1e3,
            s * 1e9 / pairs.len() as f64,
            100.0 * reused as f64 / (calls + reused).max(1) as f64
        );
    }
    drop(ex);

    eprintln!("\nper live feature (alone in its extractor; best of 2 passes):");
    eprintln!(
        "  {:<30} {:>9} {:>8} {:>9} {:>9} {:>9}  values",
        "feature", "ms", "ns/pair", "calls", "reused", "build ms"
    );
    for k in mask.live_indices() {
        let only = FeatureMask::from_live_indices(feats.len(), [k]);
        let t0 = Instant::now();
        let ex = BatchExtractor::new(feats, u, d, &only, None)?;
        let build_ms = ms(t0);
        let (mut best, mut counts) = (f64::INFINITY, (0, 0));
        for _ in 0..2 {
            let mut scratch = ex.scratch();
            let t0 = Instant::now();
            for p in &pairs {
                ex.extract_into(*p, &mut scratch, &mut out);
                std::hint::black_box(&out);
            }
            best = best.min(t0.elapsed().as_secs_f64());
            counts = scratch.seq_counts();
        }
        // Untimed pass for the value fold.
        let mut scratch = ex.scratch();
        let mut h = 0u64;
        for p in &pairs {
            ex.extract_into(*p, &mut scratch, &mut out);
            h = fold(h, out[k]);
        }
        eprintln!(
            "  {:<30} {:>9.1} {:>8.0} {:>9} {:>9} {:>9.1}  {h:#018x}",
            feats.features[k].name,
            best * 1e3,
            best * 1e9 / pairs.len() as f64,
            counts.0,
            counts.1,
            build_ms
        );
    }
    Ok(())
}

/// A bit-sliced layout's size and dense/sparse split, for the probe lines.
fn split(l: &JoinLayout) -> String {
    format!(
        "{} right rows in {} size runs; dense tokens {} carrying {} postings, sparse tokens {} \
         carrying {}",
        l.positions, l.size_runs, l.dense_tokens, l.dense_postings, l.sparse_tokens,
        l.sparse_postings
    )
}

/// The stream's blocking stage alone: every left row probed under the
/// plan's spec, one thread, on the footing of the feature lines.
fn probe(left: &TokenCorpus, index: &JoinIndex, spec: &JoinSpec) {
    eprintln!("\njoin probe alone ({} left rows x {}):", left.len(), split(&index.layout()));
    let mut hits = Vec::new();
    for _ in 0..3 {
        let mut scratch = JoinScratch::for_index(index);
        let mut admitted = 0usize;
        let t0 = Instant::now();
        for (_, query) in left.iter() {
            index.probe_into(query, spec, &mut scratch, &mut hits);
            admitted += hits.len();
        }
        let s = t0.elapsed().as_secs_f64();
        let counters = scratch.counters();
        let widths: Vec<String> = counters
            .slice_widths
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(w, n)| format!("{w}:{n}"))
            .collect();
        eprintln!(
            "  {:8.1} ms, {:.2} us/left row; {} rows enumerated, {admitted} admitted; \
             probes by slice width {}",
            s * 1e3,
            s * 1e6 / left.len().max(1) as f64,
            counters.enumerated,
            widths.join(" ")
        );
    }
}

/// The title-index probe alone: every arrival's title under the plan's
/// spec, on the footing of [`probe`].
fn probe_titles(what: &str, index: &IncrementalIndex, arrivals: &Table, spec: &JoinSpec) {
    let layout = index.layout();
    eprintln!("\ntitle index, {what}: {} rows, {} in the tail", index.len(), layout.tail_rows);
    for (rows, l) in &layout.segments {
        eprintln!("  segment of {rows} rows: {}", split(l));
    }
    let n = arrivals.n_rows().max(1) as f64;
    let mut hits = Vec::new();
    for _ in 0..3 {
        let mut scratch = JoinScratch::new();
        let mut admitted = 0usize;
        let t0 = Instant::now();
        for row in arrivals.iter() {
            index.probe_into(row.str("AwardTitle"), spec, &mut scratch, &mut hits);
            admitted += hits.len();
        }
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let c = scratch.counters();
        eprintln!(
            "  {:.2} us a probe; per probe {:.1} rows enumerated, {:.2} admitted, {:.2} segments \
             probed, {:.1} tail rows scanned",
            us / n,
            c.enumerated as f64 / n,
            admitted as f64 / n,
            c.slice_widths.iter().sum::<u64>() as f64 / n,
            c.tail_scanned as f64 / n
        );
    }
}

fn serve(factor: f64) -> Result<(), Box<dyn std::error::Error>> {
    let mut cs = CaseStudyConfig::paper();
    cs.scenario = ScenarioConfig::scaled(factor).with_seed(SEED);
    let art = CaseStudy::new(cs).train_serving_artifacts()?;
    let fx = fixtures_cfg(ScenarioConfig::scaled(factor).with_seed(SEED));
    // Every projected UMETRICS row, then the extra records.
    let mut arrivals = fx.umetrics.clone();
    let no_employees = Table::new("emp", fx.scenario.employees.schema().clone());
    for row in project_umetrics(&fx.scenario.extra_award_agg, &no_employees)?.rows() {
        arrivals.push_row(row.clone())?;
    }
    let titles = || fx.usda.iter().map(|r| r.str("AwardTitle"));
    let spec = art.plan.union_spec();
    probe_titles("bulk-built", &IncrementalIndex::from_texts(titles()), &arrivals, &spec);
    let mut pushed = IncrementalIndex::new();
    for (j, title) in titles().enumerate() {
        pushed.insert(j, title);
    }
    probe_titles("pushed row by row", &pushed, &arrivals, &spec);

    let mut snapshot = WorkflowSnapshot::from_artifacts(&art);
    snapshot.corpus = Table::new(fx.usda.name(), fx.usda.schema().clone());
    let mut grown = MatchService::from_snapshot(snapshot.clone())?;
    for row in fx.usda.rows() {
        grown.push_corpus_row(row.clone())?;
    }
    snapshot.corpus = fx.usda.clone();
    let built = MatchService::from_snapshot(snapshot)?;
    let n = arrivals.n_rows().max(1) as f64;
    for (what, service) in [("built from the snapshot", &built), ("corpus pushed row by row", &grown)] {
        eprintln!("\nservice, {what}: {} requests a pass, mean us a request", arrivals.n_rows());
        let mut scratch = ProbeScratch::new();
        for _ in 0..3 {
            // Blocking, rules, features, predict, total; then candidates.
            let mut sum = [0.0; 6];
            for i in 0..arrivals.n_rows() {
                let o = service.match_on_arrival_with(&arrivals, i, &mut scratch)?;
                let t = o.timings;
                let ms = [t.blocking_ms, t.rules_ms, t.features_ms, t.predict_ms, t.total_ms];
                for (acc, ms) in sum.iter_mut().zip(ms) {
                    *acc += ms * 1e3 / n;
                }
                sum[5] += o.n_candidates as f64 / n;
            }
            let [blocking, rules, features, predict, total, candidates] = sum;
            eprintln!(
                "  blocking {blocking:.2}, rules {rules:.2}, features {features:.2}, predict \
                 {predict:.2}, total {total:.2}; {candidates:.2} candidates a request"
            );
        }
        // What the three passes pulled, a request.
        let pulled = scratch.pull_counts();
        let requests = 3.0 * n;
        let per_request = |count: u64| count as f64 / requests;
        let median = pulled.by_pulled.iter().scan(0, |seen, &pairs| {
            *seen += pairs;
            Some(*seen)
        });
        eprintln!(
            "  a request: {:.2} features computed over {:.2} candidates ({} on the median \
             candidate); Monge-Elkan/Jaro-Winkler: {:.1} word-matrix pulls, {:.1} columns built, \
             {:.1} Jaro-Winkler kernel cells",
            per_request(pulled.pulls.iter().sum()),
            per_request(pulled.pairs()),
            median.take_while(|&seen| 2 * seen < pulled.pairs()).count(),
            per_request(pulled.me_pulls),
            per_request(pulled.me_columns),
            per_request(pulled.me_cells)
        );
        for (f, &pulls) in art.matcher.features.features.iter().zip(&pulled.pulls) {
            if pulls > 0 {
                eprintln!("    {:<30} {:>7.2} pulls a request", f.name, per_request(pulls));
            }
        }
    }
    Ok(())
}

/// One line of tree-fit legs and counts off a scratch's profile.
fn print_train_profile(p: &em_ml::view::TrainProfile) {
    let ms = |ns: u64| ns as f64 / 1e6;
    eprintln!(
        "    legs: draws {:.1} ms, feature shuffles {:.1} ms, split search {:.1} ms, partition {:.1} ms",
        ms(p.draw_ns),
        ms(p.shuffle_ns),
        ms(p.search_ns),
        ms(p.partition_ns)
    );
    eprintln!(
        "    {} trees, {:.1} nodes a tree, {} searched nodes of {:.1} distinct rows, \
         {} histogram + {} sorted-key sweeps, {} thresholds scored",
        p.trees,
        p.nodes as f64 / p.trees.max(1) as f64,
        p.searched,
        p.searched_rows as f64 / p.searched.max(1) as f64,
        p.hist_sweeps,
        p.key_sweeps,
        p.candidates
    );
}

fn train() -> Result<(), Box<dyn std::error::Error>> {
    use em_ml::cv::{leave_one_out_predictions, select_matcher, stratified_kfold_indices};
    use em_ml::forest::RandomForestLearner;
    use em_ml::{Learner, Model, TrainView};

    let (plain, folded) = em_bench::paper_training_sets(SEED);
    eprintln!(
        "training sets at seed {SEED}: {} rows x {} features (label debugging), x {} (selection)",
        plain.len(),
        plain.n_features(),
        folded.n_features()
    );

    // ---- Label debugging: one forest per held-out row. ----
    let forest = RandomForestLearner { seed: SEED, ..Default::default() };
    let t0 = Instant::now();
    let reference = leave_one_out_predictions(&forest, &plain)?;
    eprintln!("\nleave_one_out_predictions (forest, {} fits): {:.1} ms", plain.len(), ms(t0));
    let t0 = Instant::now();
    let view = TrainView::new(&plain)?;
    eprintln!("  view build: {:.3} ms", ms(t0));
    for timed in [false, true] {
        let mut scratch = view.scratch();
        scratch.set_timed(timed);
        let (mut fit_ms, mut predict_ms, mut leads) = (0.0, 0.0, 0usize);
        let mut train = Vec::with_capacity(plain.len());
        for (i, &expected) in reference.iter().enumerate() {
            train.clear();
            train.extend((0..plain.len()).filter(|&j| j != i));
            let t0 = Instant::now();
            let model = forest.fit_forest_rows(&view, &train, &mut scratch)?;
            fit_ms += ms(t0);
            let t0 = Instant::now();
            let predicted = model.predict(&plain.x[i]);
            predict_ms += ms(t0);
            assert_eq!(predicted, expected, "held-out row {i}");
            leads += usize::from(predicted != plain.y[i]);
        }
        eprintln!(
            "  timers {}: fits {fit_ms:.1} ms, held-out predict {predict_ms:.2} ms, {leads} leads",
            if timed { "on" } else { "off" }
        );
        if timed {
            print_train_profile(&scratch.profile());
        }
    }

    // ---- Selection: five folds per learner. ----
    let learners = em_ml::standard_learners(SEED);
    let refs: Vec<&dyn Learner> = learners.iter().map(|l| l.as_ref()).collect();
    let t0 = Instant::now();
    let ranking = select_matcher(&refs, &folded, 5, SEED)?;
    eprintln!("\nselect_matcher (6 learners x 5 folds): {:.1} ms", ms(t0));
    let folds = stratified_kfold_indices(&folded.y, 5, SEED)?;
    let t0 = Instant::now();
    let view = TrainView::new(&folded)?;
    eprintln!("  view build: {:.3} ms", ms(t0));
    for learner in &learners {
        let mut scratch = view.scratch();
        scratch.set_timed(true);
        let (mut fit_ms, mut predict_ms, mut wrong) = (0.0, 0.0, 0usize);
        for (k, held_out) in folds.iter().enumerate() {
            let train: Vec<usize> = folds
                .iter()
                .enumerate()
                .filter(|&(f, _)| f != k)
                .flat_map(|(_, rows)| rows.iter().copied())
                .collect();
            let t0 = Instant::now();
            let model = learner.fit_rows(&view, &train, &mut scratch)?;
            fit_ms += ms(t0);
            let t0 = Instant::now();
            wrong += held_out.iter().filter(|&&i| model.predict(&folded.x[i]) != folded.y[i]).count();
            predict_ms += ms(t0);
        }
        let row = ranking.iter().find(|r| r.learner == learner.name()).ok_or("unranked learner")?;
        let errors: usize = row.folds.iter().map(|c| c.fp + c.fn_).sum();
        assert_eq!(wrong, errors, "{}: by-hand folds vs select_matcher", learner.name());
        eprintln!(
            "  {:<20} fits {fit_ms:>7.2} ms, held-out predict {predict_ms:.2} ms, F1 {:.4}",
            learner.name(),
            row.f1()
        );
        if scratch.profile().trees > 0 {
            print_train_profile(&scratch.profile());
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    em_parallel::set_threads(1);
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => kernels(),
        [flag] if flag == "--train" => train(),
        [flag, factor] if flag == "--stream" => stream(factor.parse()?),
        [flag, factor] if flag == "--serve" => serve(factor.parse()?),
        _ => Err("usage: profile_extract [--stream <factor> | --serve <factor> | --train]".into()),
    }
}
