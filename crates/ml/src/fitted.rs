//! The concrete fitted-model enum behind every learner, its one scoring
//! entry point for rows it does not hold, and a line-based text
//! serialization for workflow snapshots.
//!
//! [`FittedModel::score_with`] is what the fused stream and the serve hot
//! loop score with: a tree or a forest walks the same pre-order arrays
//! [`Model::predict_proba`] walks, pulling only the features on its path;
//! a linear or Bayes model reads a whole row.
//!
//! [`Learner::fit_model`](crate::model::Learner::fit_model) returns this
//! enum so online-serving code can persist a trained matcher and reload it
//! with **bit-identical** predictions. Floats are written with `{:?}`,
//! which prints enough digits to round-trip every `f64` bit pattern through
//! `str::parse::<f64>()`; integers and tags are plain tokens. The format is
//! line-oriented and self-delimiting (trees encode pre-order with fixed
//! arity), so a forest of `N` trees decodes from one shared line iterator.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::bayes::{ClassStats, NaiveBayesModel};
use crate::error::MlError;
use crate::linear::{LinearModel, Standardizer};
use crate::model::{ConstantModel, Model};
use crate::forest::RandomForestModel;
use crate::tree::DecisionTreeModel;

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

impl FittedModel {
    /// Scores one row whose feature `k` is `feature(k)`, bit-identical to
    /// [`Model::predict_proba`] over the same values. A constant model
    /// returns its probability and asks for nothing; a tree or a forest
    /// asks for the split feature of every node it traverses and for
    /// nothing else — a value no traversed node tests cannot reach the
    /// score; a linear or Bayes model asks for each of
    /// `0..dense_row.len()` once, in order, and scores `dense_row` (which
    /// the others leave alone).
    #[inline]
    pub fn score_with(&self, dense_row: &mut [f64], mut feature: impl FnMut(usize) -> f64) -> f64 {
        match self {
            FittedModel::Constant(m) => m.proba,
            FittedModel::Tree(t) => t.score_with(feature),
            FittedModel::Forest(f) => f.score_with(feature),
            FittedModel::Linear(_) | FittedModel::Bayes(_) => {
                for (k, slot) in dense_row.iter_mut().enumerate() {
                    *slot = feature(k);
                }
                self.predict_proba(dense_row)
            }
        }
    }

    /// Scores every row of a row-major `block` (row `r` is
    /// `block[r * stride..][..stride]`) into `out`; `out.len()` must equal
    /// the row count. With [`FittedModel::block_scorer`], the call surface
    /// of the `benchmark/` harness's stream workload; nothing under
    /// `crates/` scores a block.
    pub fn score_block(&self, block: &[f64], stride: usize, out: &mut [f64]) {
        debug_assert!(stride > 0 && block.len() == out.len() * stride);
        for (slot, row) in out.iter_mut().zip(block.chunks_exact(stride)) {
            *slot = self.predict_proba(row);
        }
    }

    /// The model itself: a fitted model is its own scorer. Kept as the
    /// `benchmark/` harness's call surface (`block_scorer().score_block(..)`).
    pub fn block_scorer(&self) -> &FittedModel {
        self
    }

    /// Normalized Gini feature importances over `n_features` columns for a
    /// tree or a forest, `None` for every other model.
    pub fn feature_importance(&self, n_features: usize) -> Option<Vec<f64>> {
        match self {
            FittedModel::Tree(t) => Some(t.feature_importance(n_features)),
            FittedModel::Forest(f) => Some(f.feature_importance(n_features)),
            _ => None,
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

/// Parses the rest of a line (after the expected `key` token) as values.
fn parse_list<T: std::str::FromStr>(line: Option<&str>, key: &str) -> Result<Vec<T>, MlError> {
    let line = line.ok_or_else(|| bad(format!("missing `{key}` line")))?;
    let mut toks = line.split_whitespace();
    if toks.next() != Some(key) {
        return Err(bad(format!("expected `{key}` line, got {line:?}")));
    }
    toks.map(|t| t.parse::<T>().map_err(|_| bad(format!("unparsable value in `{key}`"))))
        .collect()
}

/// Like [`parse_list`] but requires exactly one value.
fn parse_one<T: std::str::FromStr>(line: Option<&str>, key: &str) -> Result<T, MlError> {
    <[T; 1]>::try_from(parse_list(line, key)?)
        .map(|[x]| x)
        .map_err(|_| bad(format!("`{key}` must carry exactly one value")))
}

fn decode_class_stats<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    prefix: &str,
) -> Result<ClassStats, MlError> {
    let log_prior = parse_one(lines.next(), &format!("{prefix}.log_prior"))?;
    let means = parse_list(lines.next(), &format!("{prefix}.means"))?;
    let vars = parse_list(lines.next(), &format!("{prefix}.vars"))?;
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
        let trees = match self {
            FittedModel::Constant(_) => &[],
            FittedModel::Tree(t) => std::slice::from_ref(t),
            FittedModel::Forest(f) => f.trees(),
            FittedModel::Linear(_) | FittedModel::Bayes(_) => return None,
        };
        Some(trees.iter().flat_map(DecisionTreeModel::split_features).collect())
    }

    /// Checks that the model reads rows of exactly `n_features` columns:
    /// every split feature below it, linear and Bayes parameter vectors of
    /// that length. A decoded model is checked against the feature plan it
    /// is served with, so a mismatch is an error at load instead of an
    /// out-of-range read at the first request.
    pub fn check_width(&self, n_features: usize) -> Result<(), MlError> {
        let fits = match self {
            FittedModel::Linear(m) => [&m.weights, &m.standardizer.means, &m.standardizer.stds]
                .iter()
                .all(|v| v.len() == n_features),
            FittedModel::Bayes(m) => [&m.pos, &m.neg]
                .iter()
                .all(|s| s.means.len() == n_features && s.vars.len() == n_features),
            tree_shaped => tree_shaped
                .referenced_features()
                .is_none_or(|live| live.iter().all(|&k| k < n_features)),
        };
        if fits {
            Ok(())
        } else {
            Err(MlError::ShapeMismatch(format!(
                "the {} model does not read rows of {n_features} features",
                self.kind()
            )))
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
                FittedModel::Constant(ConstantModel { proba: parse_one(lines.next(), "p")? })
            }
            "tree" => FittedModel::Tree(DecisionTreeModel::decode_from(&mut lines)?),
            "forest" => {
                let n: usize = parse_one(lines.next(), "trees")?;
                let trees = (0..n)
                    .map(|_| DecisionTreeModel::decode_from(&mut lines))
                    .collect::<Result<Vec<_>, _>>()?;
                FittedModel::Forest(RandomForestModel::from_trees(trees))
            }
            "linear" => {
                let means = parse_list(lines.next(), "means")?;
                let stds = parse_list(lines.next(), "stds")?;
                if means.len() != stds.len() {
                    return Err(bad("means/stds length mismatch"));
                }
                let weights = parse_list(lines.next(), "weights")?;
                let bias = parse_one(lines.next(), "bias")?;
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
            for row in probe_rows() {
                let mut asked = Vec::new();
                let mut dense_row = [f64::NAN; 3];
                let p = model.score_with(&mut dense_row, |k| {
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
    fn feature_importance_is_for_trees_and_forests_only() {
        let data = training_data();
        for learner in standard_learners(7) {
            let model = learner.fit_model(&data).unwrap();
            let imp = model.feature_importance(3);
            match &model {
                FittedModel::Tree(t) => assert_eq!(imp, Some(t.feature_importance(3))),
                FittedModel::Forest(f) => assert_eq!(imp, Some(f.feature_importance(3))),
                _ => assert_eq!(imp, None, "{}", model.kind()),
            }
        }
    }

    #[test]
    fn check_width_rejects_a_model_for_another_feature_plan() {
        let data = training_data();
        for learner in standard_learners(7) {
            let model = learner.fit_model(&data).unwrap();
            assert_eq!(model.check_width(3), Ok(()), "{}", learner.name());
            // One column too few: below a dense model's width, or at a
            // tree's highest split feature.
            let narrow = model.referenced_features().map_or(Some(2), |live| live.last().copied());
            if let Some(narrow) = narrow {
                assert!(model.check_width(narrow).is_err(), "{}", learner.name());
            }
        }
        // A split past the plan is refused; reading fewer features is not.
        let tree = FittedModel::decode("tree\nS 5 0.5 0.0\nL 0.0\nL 1.0\n").unwrap();
        assert!(matches!(tree.check_width(1), Err(MlError::ShapeMismatch(_))));
        assert_eq!(tree.check_width(6), Ok(()));
        assert_eq!(FittedModel::Constant(ConstantModel { proba: 0.5 }).check_width(0), Ok(()));
    }

    /// `decode` of hostile bytes is a typed error, or a model whose
    /// encoding is a load-then-encode fixed point and whose `predict_proba`
    /// equals its `score_with` bit for bit — never a panic. Returns whether
    /// it was accepted.
    fn assert_decodes_or_errs(text: &str, what: &str) -> bool {
        let outcome = std::panic::catch_unwind(|| {
            let model = FittedModel::decode(text).ok()?;
            let once = model.encode();
            let again = FittedModel::decode(&once).map(|m| m.encode());
            let mut rows = probe_rows();
            rows.extend([vec![], vec![0.5], vec![f64::NAN, 0.5, f64::INFINITY, -1.0]]);
            let split = rows.iter().find(|row| {
                let read = |k: usize| row.get(k).copied().unwrap_or(0.0);
                let mut dense_row = row.to_vec();
                model.predict_proba(row).to_bits() != model.score_with(&mut dense_row, read).to_bits()
            });
            Some((again, once, split.cloned()))
        });
        match outcome {
            Err(_) => panic!("decode panicked on {what}"),
            Ok(Some((again, once, split))) => {
                assert_eq!(again, Ok(once), "{what}: accepted, but encode is not a fixed point");
                assert_eq!(split, None, "{what}: predict_proba and score_with disagree");
                true
            }
            Ok(None) => false,
        }
    }

    #[test]
    fn hostile_bytes_are_typed_errors_or_fixed_points() {
        let data = training_data();
        let forest = crate::forest::RandomForestLearner { n_trees: 5, ..Default::default() };
        let tree = crate::tree::DecisionTreeLearner::default();
        for good in [forest.fit_model(&data).unwrap().encode(), tree.fit_model(&data).unwrap().encode()]
        {
            assert!(good.is_ascii());
            for cut in 0..good.len() {
                assert_decodes_or_errs(&good[..cut], &format!("truncation at {cut}"));
            }
            // Seeded single-byte ASCII mutations (splitmix64), newline
            // included.
            let mut state = 20190326u64;
            let mut next = || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as usize
            };
            let alphabet: Vec<u8> = (b' '..=b'~').chain([b'\t', b'\n']).collect();
            let mut accepted = 0;
            for _ in 0..4_000 {
                let at = next() % good.len();
                let byte = alphabet[next() % alphabet.len()];
                let mut bytes = good.clone().into_bytes();
                bytes[at] = byte;
                let text = String::from_utf8(bytes).unwrap();
                if assert_decodes_or_errs(&text, &format!("byte {at} set to {:?}", byte as char)) {
                    accepted += 1;
                }
            }
            // Both outcomes occur: a mutated digit still decodes, a mutated
            // tag or separator does not.
            assert!((1..4_000).contains(&accepted), "{accepted} of 4000 mutations accepted");
        }
        // A split feature on the leaf sentinel, or past it, is refused.
        for feature in ["4294967295", "4294967296", "18446744073709551616"] {
            let text = format!("tree\nS {feature} 0.25 1.0\nL 0.0\nL 1.0\n");
            assert!(!assert_decodes_or_errs(&text, &text), "accepted {text:?}");
        }
        assert!(assert_decodes_or_errs("tree\nS 4294967294 0.25 1.0\nL 0.0\nL 1.0\n", "top feature"));
    }

    #[test]
    fn a_million_split_chain_decodes_and_scores_without_recursion() {
        const DEPTH: usize = 1_000_000;
        // Right-leaning: split `i` sends rows above `i` right, to split
        // `i + 1`; left-leaning: split `i` sends rows at or below
        // `DEPTH - i` left, to split `i + 1`.
        let mut right = String::from("tree\n");
        for i in 0..DEPTH {
            right.push_str(&format!("S 0 {i}.0 0.0\nL 0.0\n"));
        }
        right.push_str("L 1.0\n");
        let mut left = String::from("tree\n");
        for i in 0..DEPTH {
            left.push_str(&format!("S 0 {}.0 0.0\n", DEPTH - i));
        }
        left.push_str("L 1.0\n");
        left.push_str(&"L 0.0\n".repeat(DEPTH));
        for (text, deepest, shallowest) in [(right, 1e9, 0.0), (left, 0.0, 1e9)] {
            let model = FittedModel::decode(&text).unwrap();
            assert_eq!(model.predict_proba(&[deepest]), 1.0);
            assert_eq!(model.score_with(&mut [], |_| deepest), 1.0);
            assert_eq!(model.predict_proba(&[shallowest]), 0.0);
            assert_eq!(model.encode(), text);
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
