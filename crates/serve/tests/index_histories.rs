//! The title index's history is invisible to requests. One corpus served
//! three ways — pushed row by row (sealed segments of every size class plus
//! a tail), bulk-built (one segment), and checkpointed half way, crashed
//! and recovered (a bulk-built half plus replayed pushes) — gives equal
//! [`MatchOutcome`]s on every arrival; and serving arrivals, whatever words
//! their titles bring, leaves the index as it was.

use em_core::pipeline::{CaseStudy, CaseStudyConfig};
use em_core::preprocess::{project_umetrics, project_usda};
use em_core::MatchIds;
use em_datagen::{Scenario, ScenarioConfig};
use em_serve::{MatchOutcome, MatchService, WorkflowSnapshot};
use em_table::{Table, Value};

/// The workflow frozen on the small scenario over an empty corpus, the
/// paper-scale corpus rows, and the paper-scale arrivals.
fn fixture() -> (WorkflowSnapshot, Vec<Vec<Value>>, Table) {
    let artifacts = CaseStudy::new(CaseStudyConfig::small())
        .train_serving_artifacts()
        .expect("training the serving artifacts");
    let paper = Scenario::generate(ScenarioConfig::paper().with_seed(5)).expect("scenario");
    let arrivals = project_umetrics(&paper.award_agg, &paper.employees).expect("left table");
    let corpus = project_usda(&paper.usda, true).expect("right table");
    let mut snapshot = WorkflowSnapshot::from_artifacts(&artifacts);
    snapshot.corpus = Table::new(corpus.name(), corpus.schema().clone());
    (snapshot, corpus.rows().to_vec(), arrivals)
}

/// `snapshot` over the first `bulk` rows, the rest pushed one by one.
fn service(snapshot: &WorkflowSnapshot, rows: &[Vec<Value>], bulk: usize) -> MatchService {
    let mut snapshot = snapshot.clone();
    for row in &rows[..bulk] {
        snapshot.corpus.push_row(row.clone()).expect("same schema");
    }
    let mut service = MatchService::from_snapshot(snapshot).expect("service");
    for row in &rows[bulk..] {
        service.push_corpus_row(row.clone()).expect("push");
    }
    service
}

/// Segment sizes and tail length of a service's title index.
fn shape(service: &MatchService) -> (Vec<usize>, usize) {
    let layout = service.title_index_layout();
    (layout.segments.iter().map(|s| s.0).collect(), layout.tail_rows)
}

/// Everything of an outcome but its timings.
fn verdict(o: &MatchOutcome) -> (&MatchIds, [usize; 5]) {
    (&o.ids, [o.n_blocked, o.n_sure, o.n_candidates, o.n_predicted, o.n_flipped])
}

#[test]
fn pushed_bulk_built_and_recovered_services_serve_alike() {
    let (snapshot, rows, arrivals) = fixture();
    let n = rows.len();
    let pushed = service(&snapshot, &rows, 0);
    let built = service(&snapshot, &rows, n);

    let dir = std::env::temp_dir().join(format!("em-index-histories-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (snap_path, wal_path) = (dir.join("half.emsnap"), dir.join("half.wal"));
    let mut crashing = service(&snapshot, &rows[..n / 2], n / 2);
    crashing.checkpoint(&snap_path, &wal_path).expect("checkpoint");
    for row in &rows[n / 2..] {
        crashing.push_corpus_row(row.clone()).expect("logged push");
    }
    // The crash: the process state is gone, snapshot and WAL remain.
    drop(crashing);
    let (recovered, report) = MatchService::recover(&snap_path, &wal_path).expect("recovery");
    assert_eq!(report.replayed, n - n / 2);
    let _ = std::fs::remove_dir_all(&dir);

    // The three indexes really are laid out differently.
    let (segments, tail) = shape(&pushed);
    assert!(segments.len() >= 3 && tail > 0, "pushed: {segments:?} + {tail}");
    assert_eq!(shape(&built), (vec![n], 0));
    assert_ne!(shape(&recovered), shape(&pushed));
    assert_ne!(shape(&recovered), shape(&built));

    let mut candidates = 0;
    for i in 0..arrivals.n_rows() {
        let want = built.match_on_arrival(&arrivals, i).expect("built");
        for (what, other) in [("pushed", &pushed), ("recovered", &recovered)] {
            let got = other.match_on_arrival(&arrivals, i).expect(what);
            assert_eq!(verdict(&got), verdict(&want), "{what}, arrival {i}");
        }
        candidates += want.n_candidates;
    }
    assert!(candidates > 1000, "the fixture must block real work ({candidates} candidates)");
}

#[test]
fn requests_leave_the_title_index_untouched() {
    let (snapshot, rows, arrivals) = fixture();
    // Half bulk-built, half pushed: segments and a tail to leave alone.
    let service = service(&snapshot, &rows, rows.len() / 2);
    // Every arrival's title made distinct, with two words no corpus row
    // has: a read path that memoized titles or interned words would grow
    // with each of them.
    let title = arrivals.schema().index_of("AwardTitle").expect("title column");
    let mut distinct = Table::new("arrivals", arrivals.schema().clone());
    for (i, row) in arrivals.rows().iter().enumerate() {
        let mut row = row.clone();
        let text = row[title].as_str().unwrap_or("");
        row[title] = Value::Str(format!("{text} unseen{i} UNSEEN{i} novel{i}"));
        distinct.push_row(row).expect("same schema");
    }
    let before = (service.stats().cache_tokens, service.title_index_layout());
    let mut blocked = 0;
    for i in 0..distinct.n_rows() {
        blocked += service.match_on_arrival(&distinct, i).expect("request").n_blocked;
    }
    assert!(distinct.n_rows() > 1000 && blocked > 1000, "{blocked} rows blocked");
    assert_eq!((service.stats().cache_tokens, service.title_index_layout()), before);
}
