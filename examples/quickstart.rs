//! Quickstart: match the two toy tables of the paper's Figure 1 with the
//! public API — block, generate features, train a matcher on a handful of
//! labeled pairs, and predict.
//!
//! Run with: `cargo run --example quickstart`

use umetrics_em::blocking::{Blocker, OverlapBlocker, Pair};
use umetrics_em::features::{auto_features, extract_vectors, FeatureOptions};
use umetrics_em::ml::dataset::{impute_mean, Dataset};
use umetrics_em::ml::model::{Learner, Model};
use umetrics_em::ml::tree::DecisionTreeLearner;
use umetrics_em::table::csv;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 1's tables A and B.
    let a = csv::read_str(
        "A",
        "Name,City,State\n\
         Dave Smith,Madison,WI\n\
         Joe Wilson,San Jose,CA\n\
         Dan Smith,Middleton,WI\n",
    )?;
    let b = csv::read_str(
        "B",
        "Name,City,State\n\
         David D. Smith,Madison,WI\n\
         Daniel W. Smith,Middleton,WI\n",
    )?;
    println!("{a}");
    println!("{b}");

    // Block: keep pairs sharing at least one name/city token.
    let blocker = OverlapBlocker::new("Name", "Name", 1);
    let candidates = blocker.block(&a, &b)?;
    println!("candidate pairs after blocking: {}", candidates.len());

    // Features over the shared schema.
    let features = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
    println!("auto-generated features: {}", features.len());

    // A tiny labeled sample (in the real pipeline this comes from experts).
    let labeled = [
        (Pair::new(0, 0), true),  // Dave Smith  ↔ David D. Smith
        (Pair::new(2, 1), true),  // Dan Smith   ↔ Daniel W. Smith
        (Pair::new(0, 1), false), // Dave Smith  ↔ Daniel W. Smith
        (Pair::new(2, 0), false), // Dan Smith   ↔ David D. Smith
    ];
    let pairs: Vec<Pair> = labeled.iter().map(|(p, _)| *p).collect();
    let x = extract_vectors(&features, &a, &b, &pairs)?;
    let mut data = Dataset::new(
        features.names(),
        x,
        labeled.iter().map(|(_, y)| *y).collect(),
    )?;
    let imputer = impute_mean(&mut data);

    // Train and predict every candidate pair.
    let model = DecisionTreeLearner::default().fit_model(&data)?;
    println!("\npredicted matches:");
    for pair in candidates.iter() {
        let mut row = extract_vectors(&features, &a, &b, &[pair])?.remove(0);
        imputer.transform_row(&mut row);
        if model.predict(&row) {
            let left = a.get(pair.left, "Name").unwrap();
            let right = b.get(pair.right, "Name").unwrap();
            println!("  (a{}, b{})  {left}  ↔  {right}", pair.left + 1, pair.right + 1);
        }
    }
    Ok(())
}
