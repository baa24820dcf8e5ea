//! The concrete fitted-model enum behind every learner, with a line-based
//! text serialization for workflow snapshots.
//!
//! [`Learner::fit_model`](crate::model::Learner::fit_model) returns this
//! enum so online-serving code can persist a trained matcher and reload it
//! with **bit-identical** predictions. Floats are written with `{:?}`,
//! which prints enough digits to round-trip every `f64` bit pattern through
//! `str::parse::<f64>()`; integers and tags are plain tokens. The format is
//! line-oriented and self-delimiting (trees encode pre-order with fixed
//! arity), so a forest of `N` trees decodes from one shared line iterator.

use crate::bayes::{ClassStats, NaiveBayesModel};
use crate::error::MlError;
use crate::linear::{LinearModel, Standardizer};
use crate::model::{ConstantModel, Model};
use crate::tree::{DecisionTreeModel, FlatTree};
use crate::forest::{FlatForest, RandomForestModel};

/// A fitted model in its concrete (serializable) form.
///
/// Every variant implements [`Model`] by delegation, so a `FittedModel` can
/// be used anywhere a `Box<dyn Model>` could — plus it can be encoded to
/// text and decoded back without loss.
#[derive(Debug, Clone)]
pub enum FittedModel {
    /// Constant-probability model (degenerate single-class training sets).
    Constant(ConstantModel),
    /// A CART decision tree.
    Tree(DecisionTreeModel),
    /// A random forest of CART trees.
    Forest(RandomForestModel),
    /// A linear scorer (logistic regression / linear regression / SVM).
    Linear(LinearModel),
    /// Gaussian naive Bayes.
    Bayes(NaiveBayesModel),
}

impl Model for FittedModel {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        match self {
            FittedModel::Constant(m) => m.predict_proba(row),
            FittedModel::Tree(m) => m.predict_proba(row),
            FittedModel::Forest(m) => m.predict_proba(row),
            FittedModel::Linear(m) => m.predict_proba(row),
            FittedModel::Bayes(m) => m.predict_proba(row),
        }
    }
}

/// A fitted model prepared for scoring rows it does not hold: tree-shaped
/// models (a constant model is a one-leaf tree) are flattened into array
/// form and *pull* the features their walk tests, everything else reads a
/// whole row through `predict_proba`. Scores are bit-identical to the
/// source model on every input — the flat walk performs the same
/// comparisons in the same order, and the forest mean uses the same left
/// fold and single division.
#[derive(Debug, Clone)]
pub enum BlockScorer {
    /// A flattened decision tree (no mean fold — a bare walk per row).
    Tree(FlatTree),
    /// A flattened forest, walked tree by tree.
    Forest(FlatForest),
    /// Dense models (linear / Bayes): per-row delegation.
    Dense(FittedModel),
}

impl BlockScorer {
    /// Scores one row whose feature `k` is `feature(k)`. A tree-shaped
    /// model asks for the split feature of every node it traverses and for
    /// nothing else — a value no traversed node tests cannot reach the
    /// score; a dense model asks for each of `0..dense_row.len()` once, in
    /// order, and scores `dense_row` (which tree-shaped models leave alone).
    #[inline]
    pub fn score_with(&self, dense_row: &mut [f64], mut feature: impl FnMut(usize) -> f64) -> f64 {
        match self {
            BlockScorer::Tree(t) => t.score_with(feature),
            BlockScorer::Forest(f) => f.score_with(feature),
            BlockScorer::Dense(m) => {
                for (k, slot) in dense_row.iter_mut().enumerate() {
                    *slot = feature(k);
                }
                m.predict_proba(dense_row)
            }
        }
    }

    /// Scores a single row (bit-identical to `predict_proba` on the
    /// source model).
    pub fn score_row(&self, row: &[f64]) -> f64 {
        match self {
            BlockScorer::Tree(t) => t.score(row),
            BlockScorer::Forest(f) => f.score_row(row),
            BlockScorer::Dense(m) => m.predict_proba(row),
        }
    }

    /// Scores every row of a row-major `block` (row `r` is
    /// `block[r * stride..][..stride]`) into `out`; `out.len()` must equal
    /// the row count.
    pub fn score_block(&self, block: &[f64], stride: usize, out: &mut [f64]) {
        debug_assert!(stride > 0 && block.len() == out.len() * stride);
        for (slot, row) in out.iter_mut().zip(block.chunks_exact(stride)) {
            *slot = self.score_row(row);
        }
    }
}

impl FittedModel {
    /// Prepares this model for [`BlockScorer::score_with`].
    pub fn block_scorer(&self) -> BlockScorer {
        match self {
            FittedModel::Constant(m) => BlockScorer::Tree(FlatTree::leaf(m.proba)),
            FittedModel::Tree(t) => BlockScorer::Tree(t.flatten()),
            FittedModel::Forest(f) => BlockScorer::Forest(f.flatten()),
            dense => BlockScorer::Dense(dense.clone()),
        }
    }
}

fn bad(detail: impl std::fmt::Display) -> MlError {
    MlError::BadParameter(format!("corrupt model encoding: {detail}"))
}

/// Space-separated `{:?}` floats appended after a `key` token.
fn push_f64s(out: &mut String, key: &str, values: &[f64]) {
    out.push_str(key);
    for v in values {
        out.push_str(&format!(" {v:?}"));
    }
    out.push('\n');
}

/// Parses the rest of a line (after the expected `key` token) as floats.
fn parse_f64s(line: Option<&str>, key: &str) -> Result<Vec<f64>, MlError> {
    let line = line.ok_or_else(|| bad(format!("missing `{key}` line")))?;
    let mut toks = line.split_whitespace();
    if toks.next() != Some(key) {
        return Err(bad(format!("expected `{key}` line, got {line:?}")));
    }
    toks.map(|t| t.parse::<f64>().map_err(|_| bad(format!("unparsable float in `{key}`"))))
        .collect()
}

/// Like [`parse_f64s`] but requires exactly one float.
fn parse_f64(line: Option<&str>, key: &str) -> Result<f64, MlError> {
    let v = parse_f64s(line, key)?;
    match v.as_slice() {
        [x] => Ok(*x),
        _ => Err(bad(format!("`{key}` must carry exactly one value"))),
    }
}

fn decode_class_stats<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    prefix: &str,
) -> Result<ClassStats, MlError> {
    let log_prior = parse_f64(lines.next(), &format!("{prefix}.log_prior"))?;
    let means = parse_f64s(lines.next(), &format!("{prefix}.means"))?;
    let vars = parse_f64s(lines.next(), &format!("{prefix}.vars"))?;
    if means.len() != vars.len() {
        return Err(bad(format!("`{prefix}` means/vars length mismatch")));
    }
    Ok(ClassStats { log_prior, means, vars })
}

fn encode_class_stats(out: &mut String, prefix: &str, s: &ClassStats) {
    push_f64s(out, &format!("{prefix}.log_prior"), &[s.log_prior]);
    push_f64s(out, &format!("{prefix}.means"), &s.means);
    push_f64s(out, &format!("{prefix}.vars"), &s.vars);
}

impl FittedModel {
    /// Stable tag naming the variant (`constant`, `tree`, `forest`,
    /// `linear`, `bayes`) — the first line of [`FittedModel::encode`].
    pub fn kind(&self) -> &'static str {
        match self {
            FittedModel::Constant(_) => "constant",
            FittedModel::Tree(_) => "tree",
            FittedModel::Forest(_) => "forest",
            FittedModel::Linear(_) => "linear",
            FittedModel::Bayes(_) => "bayes",
        }
    }

    /// The set of feature indices `predict_proba` can ever read, or `None`
    /// when the model is *dense* (reads every feature).
    ///
    /// Tree-shaped models visit only their split features, so serving can
    /// skip extracting the rest. Linear and Bayes models are reported dense
    /// even when a weight is zero: skipping a term is not bit-safe (a
    /// masked `NaN`/`inf` input would otherwise change `0.0 × x` sums, and
    /// the standardizer can produce non-finite values when a std is zero).
    pub fn referenced_features(&self) -> Option<std::collections::BTreeSet<usize>> {
        use std::collections::BTreeSet;
        match self {
            FittedModel::Constant(_) => Some(BTreeSet::new()),
            FittedModel::Tree(t) => {
                let mut set = BTreeSet::new();
                t.collect_split_features(&mut set);
                Some(set)
            }
            FittedModel::Forest(f) => {
                let mut set = BTreeSet::new();
                for t in f.trees() {
                    t.collect_split_features(&mut set);
                }
                Some(set)
            }
            FittedModel::Linear(_) | FittedModel::Bayes(_) => None,
        }
    }

    /// Serializes the model to the line-based text format. The result
    /// decodes back (via [`FittedModel::decode`]) to a model whose
    /// `predict_proba` is bit-identical on every input.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(self.kind());
        out.push('\n');
        match self {
            FittedModel::Constant(m) => {
                push_f64s(&mut out, "p", &[m.proba]);
            }
            FittedModel::Tree(t) => t.encode_lines(&mut out),
            FittedModel::Forest(f) => {
                out.push_str(&format!("trees {}\n", f.trees().len()));
                for t in f.trees() {
                    t.encode_lines(&mut out);
                }
            }
            FittedModel::Linear(m) => {
                push_f64s(&mut out, "means", &m.standardizer.means);
                push_f64s(&mut out, "stds", &m.standardizer.stds);
                push_f64s(&mut out, "weights", &m.weights);
                push_f64s(&mut out, "bias", &[m.bias]);
                out.push_str(if m.sigmoid_link { "link sigmoid\n" } else { "link clamp\n" });
            }
            FittedModel::Bayes(m) => {
                encode_class_stats(&mut out, "pos", &m.pos);
                encode_class_stats(&mut out, "neg", &m.neg);
            }
        }
        out
    }

    /// Parses a model previously produced by [`FittedModel::encode`].
    /// Malformed input yields [`MlError::BadParameter`] — never a panic —
    /// so snapshot loaders can quarantine corrupt artifacts.
    pub fn decode(text: &str) -> Result<FittedModel, MlError> {
        let mut lines = text.lines();
        let kind = lines.next().ok_or_else(|| bad("empty model text"))?.trim();
        let model = match kind {
            "constant" => {
                FittedModel::Constant(ConstantModel { proba: parse_f64(lines.next(), "p")? })
            }
            "tree" => FittedModel::Tree(DecisionTreeModel::decode_from(&mut lines)?),
            "forest" => {
                let header = lines.next().ok_or_else(|| bad("missing `trees` line"))?;
                let mut toks = header.split_whitespace();
                if toks.next() != Some("trees") {
                    return Err(bad(format!("expected `trees` line, got {header:?}")));
                }
                let n: usize = toks
                    .next()
                    .ok_or_else(|| bad("missing tree count"))?
                    .parse()
                    .map_err(|_| bad("unparsable tree count"))?;
                let trees = (0..n)
                    .map(|_| DecisionTreeModel::decode_from(&mut lines))
                    .collect::<Result<Vec<_>, _>>()?;
                FittedModel::Forest(RandomForestModel::from_trees(trees))
            }
            "linear" => {
                let means = parse_f64s(lines.next(), "means")?;
                let stds = parse_f64s(lines.next(), "stds")?;
                if means.len() != stds.len() {
                    return Err(bad("means/stds length mismatch"));
                }
                let weights = parse_f64s(lines.next(), "weights")?;
                let bias = parse_f64(lines.next(), "bias")?;
                let link_line = lines.next().ok_or_else(|| bad("missing `link` line"))?;
                let sigmoid_link = match link_line.trim() {
                    "link sigmoid" => true,
                    "link clamp" => false,
                    other => return Err(bad(format!("unknown link {other:?}"))),
                };
                FittedModel::Linear(LinearModel {
                    standardizer: Standardizer { means, stds },
                    weights,
                    bias,
                    sigmoid_link,
                })
            }
            "bayes" => {
                let pos = decode_class_stats(&mut lines, "pos")?;
                let neg = decode_class_stats(&mut lines, "neg")?;
                FittedModel::Bayes(NaiveBayesModel { pos, neg })
            }
            other => return Err(bad(format!("unknown model kind {other:?}"))),
        };
        if lines.next().is_some() {
            return Err(bad("trailing lines after model"));
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::model::Learner;
    use crate::standard_learners;

    fn training_data() -> Dataset {
        // Deterministic, two-class, mildly noisy lattice over 3 features.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let t = i as f64 / 60.0;
            let wiggle = ((i * 7) % 13) as f64 / 13.0 - 0.5;
            x.push(vec![t, 1.0 - t, 0.3 * wiggle + t * 0.1]);
            y.push(t + 0.1 * wiggle > 0.5);
        }
        Dataset::new(vec!["a".into(), "b".into(), "c".into()], x, y).unwrap()
    }

    fn probe_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..=20 {
            let v = i as f64 / 20.0;
            rows.push(vec![v, 1.0 - v, v * 0.5 - 0.1]);
        }
        rows.push(vec![1e6, -1e6, 0.0]);
        rows.push(vec![-3.5, 42.0, 0.123456789012345]);
        rows
    }

    #[test]
    fn every_standard_learner_roundtrips_bit_identically() {
        let data = training_data();
        for learner in standard_learners(20190326) {
            let model = learner.fit_model(&data).unwrap();
            let text = model.encode();
            let back = FittedModel::decode(&text)
                .unwrap_or_else(|e| panic!("{}: {e:?}", learner.name()));
            assert_eq!(model.kind(), back.kind(), "{}", learner.name());
            for row in probe_rows() {
                assert_eq!(
                    model.predict_proba(&row).to_bits(),
                    back.predict_proba(&row).to_bits(),
                    "{} diverged on {row:?}",
                    learner.name()
                );
            }
            // Encoding is canonical: re-encoding the decoded model is a
            // fixed point.
            assert_eq!(text, back.encode(), "{}", learner.name());
        }
    }

    #[test]
    fn dense_models_pull_every_feature_and_constant_ones_none() {
        let data = training_data();
        let mut models: Vec<FittedModel> =
            standard_learners(7).iter().map(|l| l.fit_model(&data).unwrap()).collect();
        models.push(FittedModel::Constant(ConstantModel { proba: 0.1 + 0.2 }));
        for model in &models {
            let scorer = model.block_scorer();
            for row in probe_rows() {
                let mut asked = Vec::new();
                let mut dense_row = [f64::NAN; 3];
                let p = scorer.score_with(&mut dense_row, |k| {
                    asked.push(k);
                    row[k]
                });
                assert_eq!(p.to_bits(), model.predict_proba(&row).to_bits(), "{}", model.kind());
                match model.referenced_features() {
                    None => assert_eq!(asked, [0, 1, 2], "{} is dense", model.kind()),
                    Some(can_read) => {
                        assert!(asked.iter().all(|k| can_read.contains(k)), "{}", model.kind())
                    }
                }
            }
        }
    }

    #[test]
    fn constant_roundtrips_exact_bits() {
        // A proba with a non-terminating binary expansion must survive.
        let m = FittedModel::Constant(ConstantModel { proba: 0.1 + 0.2 });
        let back = FittedModel::decode(&m.encode()).unwrap();
        assert_eq!(m.predict_proba(&[]).to_bits(), back.predict_proba(&[]).to_bits());
    }

    #[test]
    fn single_class_data_encodes_as_constant() {
        let d = Dataset::new(vec!["f".into()], vec![vec![0.0], vec![1.0]], vec![true, true])
            .unwrap();
        let m = crate::linear::LogisticRegressionLearner::default().fit_model(&d).unwrap();
        assert_eq!(m.kind(), "constant");
        let back = FittedModel::decode(&m.encode()).unwrap();
        assert_eq!(back.predict_proba(&[0.5]).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn decode_rejects_garbage_with_typed_errors() {
        for text in [
            "",
            "spaceship\n",
            "constant\n",
            "constant\np\n",
            "constant\np 0.5 0.5\n",
            "tree\n",
            "tree\nX 1 2 3\n",
            "forest\n",
            "forest\ntrees two\n",
            "forest\ntrees 2\nL 0.5\n",
            "linear\nmeans 0.0\nstds 1.0 1.0\nweights 0.0\nbias 0.0\nlink sigmoid\n",
            "linear\nmeans 0.0\nstds 1.0\nweights 0.0\nbias 0.0\nlink tanh\n",
            "bayes\npos.log_prior 0.0\npos.means 1.0\npos.vars 1.0 2.0\n",
            "constant\np 0.5\nextra\n",
        ] {
            let r = FittedModel::decode(text);
            assert!(
                matches!(r, Err(MlError::BadParameter(_))),
                "accepted {text:?}: {:?}",
                r.map(|m| m.kind())
            );
        }
    }

    #[test]
    fn truncated_forest_is_rejected() {
        let data = training_data();
        let fitted = crate::forest::RandomForestLearner { n_trees: 3, ..Default::default() }
            .fit_model(&data)
            .unwrap();
        let text = fitted.encode();
        let cut = text.len() / 2;
        // Cut on a line boundary to exercise "ran out of node lines" rather
        // than a float parse failure.
        let boundary = text[..cut].rfind('\n').map(|i| i + 1).unwrap_or(0);
        assert!(FittedModel::decode(&text[..boundary]).is_err());
    }
}
