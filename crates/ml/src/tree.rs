//! CART decision trees with Gini impurity — the matcher that ultimately won
//! the case study's bake-off (Section 9: "Now the decision tree performed
//! the best with 97% precision, 95% recall").
//!
//! The builder also supports per-split random feature subsetting so
//! [`crate::forest`] can reuse it for random forests.

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::{validate_training, Learner, Model};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters for a CART decision tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionTreeLearner {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must retain.
    pub min_samples_leaf: usize,
}

impl Default for DecisionTreeLearner {
    fn default() -> Self {
        DecisionTreeLearner { max_depth: 12, min_samples_split: 2, min_samples_leaf: 1 }
    }
}

/// A fitted tree.
#[derive(Debug, Clone)]
pub struct DecisionTreeModel {
    root: Node,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        proba: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// `n_samples × Gini gain` of this split, for feature importance.
        weighted_gain: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Model for DecisionTreeModel {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { proba } => return *proba,
                Node::Split { feature, threshold, left, right, .. } => {
                    node = if row.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// A decision tree flattened into pre-order parallel arrays for
/// cache-friendly block scoring. Node `n` is a leaf when `feature[n] ==
/// LEAF`; then `value[n]` is the leaf probability. Otherwise `value[n]` is
/// the split threshold, the left child is `n + 1` (pre-order), and the
/// right child is `right[n]`.
///
/// [`FlatTree::score_with`] is the one walk: it asks its feature source for
/// the split feature of each node on the root-to-leaf path — once per node,
/// never for a feature off the path — and performs exactly the comparisons
/// of [`DecisionTreeModel::predict_proba`] (`<= threshold` goes left; a
/// `NaN` comparison is false, taking the right branch in both), so scores
/// are bit-identical. [`FlatTree::score`] is that walk over a slice, a
/// missing column reading `0.0` as in the boxed tree.
#[derive(Debug, Clone, Default)]
pub struct FlatTree {
    feature: Vec<u32>,
    value: Vec<f64>,
    right: Vec<u32>,
}

/// Sentinel in `FlatTree::feature` marking a leaf node.
const LEAF: u32 = u32::MAX;

impl FlatTree {
    /// A tree that is one leaf: what a constant model flattens to.
    pub(crate) fn leaf(proba: f64) -> FlatTree {
        FlatTree { feature: vec![LEAF], value: vec![proba], right: vec![0] }
    }

    /// Scores one row whose feature `k` is `feature(k)`.
    #[inline]
    pub fn score_with(&self, mut feature: impl FnMut(usize) -> f64) -> f64 {
        let mut n = 0usize;
        loop {
            let f = self.feature[n];
            if f == LEAF {
                return self.value[n];
            }
            n = if feature(f as usize) <= self.value[n] {
                n + 1
            } else {
                self.right[n] as usize
            };
        }
    }

    /// Scores one row; bit-identical to the boxed tree's `predict_proba`.
    #[inline]
    pub fn score(&self, row: &[f64]) -> f64 {
        self.score_with(|k| row.get(k).copied().unwrap_or(0.0))
    }

    /// Number of nodes (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    fn push(&mut self, node: &Node) {
        match node {
            Node::Leaf { proba } => {
                self.feature.push(LEAF);
                self.value.push(*proba);
                self.right.push(0);
            }
            Node::Split { feature, threshold, left, right, .. } => {
                debug_assert!(*feature < LEAF as usize, "feature index collides with sentinel");
                let slot = self.feature.len();
                self.feature.push(*feature as u32);
                self.value.push(*threshold);
                self.right.push(0);
                self.push(left);
                self.right[slot] = self.feature.len() as u32;
                self.push(right);
            }
        }
    }
}

impl DecisionTreeModel {
    /// Flattens the boxed node tree into a [`FlatTree`] for block scoring.
    pub fn flatten(&self) -> FlatTree {
        let mut flat = FlatTree::default();
        flat.push(&self.root);
        flat
    }
}

impl DecisionTreeModel {
    /// Number of decision (split) nodes — used by tests and the tree
    /// debugger to reason about model complexity.
    pub fn n_splits(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Adds the feature indices read by any split of this tree to `acc` —
    /// the exhaustive set of features `predict_proba` can ever inspect.
    pub fn collect_split_features(&self, acc: &mut std::collections::BTreeSet<usize>) {
        fn walk(n: &Node, acc: &mut std::collections::BTreeSet<usize>) {
            if let Node::Split { feature, left, right, .. } = n {
                acc.insert(*feature);
                walk(left, acc);
                walk(right, acc);
            }
        }
        walk(&self.root, acc);
    }

    /// Gini feature importances, normalized to sum to 1 (all zeros for a
    /// pure-leaf tree). Importance of a feature is the total
    /// `n_samples × impurity decrease` over the splits that use it — the
    /// view PyMatcher's matcher debugger offers to explain which features a
    /// selected matcher actually relies on.
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        fn walk(n: &Node, acc: &mut [f64]) {
            if let Node::Split { feature, weighted_gain, left, right, .. } = n {
                if let Some(slot) = acc.get_mut(*feature) {
                    *slot += weighted_gain.max(0.0);
                }
                walk(left, acc);
                walk(right, acc);
            }
        }
        let mut acc = vec![0.0; n_features];
        walk(&self.root, &mut acc);
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for v in &mut acc {
                *v /= total;
            }
        }
        acc
    }

    /// Renders the tree as indented `if/else` pseudocode over the supplied
    /// feature names (the PyMatcher decision-tree debugger shows the same
    /// view).
    pub fn describe(&self, feature_names: &[String]) -> String {
        fn go(n: &Node, names: &[String], depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match n {
                Node::Leaf { proba } => {
                    out.push_str(&format!("{pad}predict match_proba={proba:.3}\n"));
                }
                Node::Split { feature, threshold, left, right, .. } => {
                    let name = names
                        .get(*feature)
                        .map(String::as_str)
                        .unwrap_or("?");
                    out.push_str(&format!("{pad}if {name} <= {threshold:.4}:\n"));
                    go(left, names, depth + 1, out);
                    out.push_str(&format!("{pad}else:\n"));
                    go(right, names, depth + 1, out);
                }
            }
        }
        let mut s = String::new();
        go(&self.root, feature_names, 0, &mut s);
        s
    }
}

fn gini(pos: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

/// Finds the Gini-gain-maximizing threshold split over `features`,
/// considering only rows in `idx`. Ties break toward the lower feature
/// index, then lower threshold, for determinism.
fn best_split(
    x: &[Vec<f64>],
    y: &[bool],
    idx: &[usize],
    features: &[usize],
    min_leaf: usize,
) -> Option<BestSplit> {
    let total = idx.len();
    let total_pos = idx.iter().filter(|&&i| y[i]).count();
    let parent = gini(total_pos, total);
    let mut best: Option<BestSplit> = None;

    let mut pairs: Vec<(f64, bool)> = Vec::with_capacity(total);
    for &f in features {
        pairs.clear();
        pairs.extend(idx.iter().map(|&i| (x[i][f], y[i])));
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        let mut left_n = 0usize;
        let mut left_pos = 0usize;
        for k in 0..total - 1 {
            left_n += 1;
            if pairs[k].1 {
                left_pos += 1;
            }
            if pairs[k].0 == pairs[k + 1].0 {
                continue; // can't split between equal values
            }
            let right_n = total - left_n;
            if left_n < min_leaf || right_n < min_leaf {
                continue;
            }
            let right_pos = total_pos - left_pos;
            let weighted = (left_n as f64 * gini(left_pos, left_n)
                + right_n as f64 * gini(right_pos, right_n))
                / total as f64;
            let gain = parent - weighted;
            let threshold = (pairs[k].0 + pairs[k + 1].0) / 2.0;
            // Zero-gain splits are admissible on impure nodes (XOR-style
            // interactions only pay off one level deeper); recursion still
            // terminates because children are strictly smaller.
            let better = match &best {
                None => gain >= -1e-12,
                Some(b) => gain > b.gain + 1e-12,
            };
            if better {
                best = Some(BestSplit { feature: f, threshold, gain });
            }
        }
    }
    best
}

/// Recursive CART builder. `mtry` with an RNG enables random-forest-style
/// feature subsetting at every split.
fn build_tree(
    x: &[Vec<f64>],
    y: &[bool],
    idx: &[usize],
    depth: usize,
    params: &DecisionTreeLearner,
    mtry: Option<usize>,
    rng: &mut Option<&mut StdRng>,
) -> Node {
    let n_features = x.first().map_or(0, Vec::len);
    let pos = idx.iter().filter(|&&i| y[i]).count();
    let proba = if idx.is_empty() { 0.0 } else { pos as f64 / idx.len() as f64 };

    let pure = pos == 0 || pos == idx.len();
    if pure || depth >= params.max_depth || idx.len() < params.min_samples_split {
        return Node::Leaf { proba };
    }

    let mut all_features: Vec<usize> = (0..n_features).collect();
    let features: Vec<usize> = match (mtry, rng.as_deref_mut()) {
        (Some(m), Some(r)) if m < n_features => {
            all_features.shuffle(r);
            let mut chosen = all_features[..m].to_vec();
            chosen.sort_unstable(); // determinism of tie-breaking
            chosen
        }
        _ => all_features,
    };

    let Some(split) = best_split(x, y, idx, &features, params.min_samples_leaf) else {
        return Node::Leaf { proba };
    };

    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        idx.iter().partition(|&&i| x[i][split.feature] <= split.threshold);
    let left = build_tree(x, y, &left_idx, depth + 1, params, mtry, rng);
    let right = build_tree(x, y, &right_idx, depth + 1, params, mtry, rng);
    Node::Split {
        feature: split.feature,
        threshold: split.threshold,
        weighted_gain: idx.len() as f64 * split.gain,
        left: Box::new(left),
        right: Box::new(right),
    }
}

impl Learner for DecisionTreeLearner {
    fn name(&self) -> String {
        "Decision Tree".to_string()
    }

    fn fit_model(&self, data: &Dataset) -> Result<crate::fitted::FittedModel, MlError> {
        Ok(crate::fitted::FittedModel::Tree(self.fit_tree(data)?))
    }
}

impl DecisionTreeLearner {
    /// Like [`Learner::fit`] but returns the concrete model, for callers
    /// that need [`DecisionTreeModel::describe`] / [`DecisionTreeModel::n_splits`].
    pub fn fit_tree(&self, data: &Dataset) -> Result<DecisionTreeModel, MlError> {
        validate_training(data)?;
        let idx: Vec<usize> = (0..data.len()).collect();
        let root = build_tree(&data.x, &data.y, &idx, 0, self, None, &mut None);
        Ok(DecisionTreeModel { root })
    }

    /// Forest hook: fit on a bootstrap index set with feature subsetting.
    pub(crate) fn fit_on_indices(
        &self,
        x: &[Vec<f64>],
        y: &[bool],
        idx: &[usize],
        mtry: usize,
        rng: &mut StdRng,
    ) -> DecisionTreeModel {
        let root = build_tree(x, y, idx, 0, self, Some(mtry), &mut Some(rng));
        DecisionTreeModel { root }
    }
}

/// Convenience for forest code: a seeded RNG (kept here so seeding policy
/// lives in one place).
pub(crate) fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// ---- Serialization (pre-order node lines) -------------------------------
//
// The node format lives here because `Node` is private to this module.
// Pre-order with fixed arity is self-delimiting, so a forest can decode N
// trees from one shared line iterator. Floats use `{:?}`, which round-trips
// every f64 bit pattern through `parse::<f64>()`.

impl DecisionTreeModel {
    /// Appends the tree's pre-order node lines to `out` (one node per
    /// line: `L <proba>` / `S <feature> <threshold> <weighted_gain>`).
    pub(crate) fn encode_lines(&self, out: &mut String) {
        fn go(n: &Node, out: &mut String) {
            match n {
                Node::Leaf { proba } => {
                    out.push_str(&format!("L {proba:?}\n"));
                }
                Node::Split { feature, threshold, weighted_gain, left, right } => {
                    out.push_str(&format!("S {feature} {threshold:?} {weighted_gain:?}\n"));
                    go(left, out);
                    go(right, out);
                }
            }
        }
        go(&self.root, out);
    }

    /// Decodes one pre-order tree from `lines`, consuming exactly the lines
    /// of this tree (so callers can decode several trees from one iterator).
    pub(crate) fn decode_from<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<DecisionTreeModel, MlError> {
        fn bad(detail: &str) -> MlError {
            MlError::BadParameter(format!("corrupt tree encoding: {detail}"))
        }
        fn num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, MlError> {
            tok.ok_or_else(|| bad(&format!("missing {what}")))?
                .parse::<T>()
                .map_err(|_| bad(&format!("unparsable {what}")))
        }
        fn node<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<Node, MlError> {
            let line = lines.next().ok_or_else(|| bad("unexpected end of node lines"))?;
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("L") => Ok(Node::Leaf { proba: num(toks.next(), "leaf proba")? }),
                Some("S") => {
                    let feature = num(toks.next(), "split feature")?;
                    let threshold = num(toks.next(), "split threshold")?;
                    let weighted_gain = num(toks.next(), "split gain")?;
                    let left = Box::new(node(lines)?);
                    let right = Box::new(node(lines)?);
                    Ok(Node::Split { feature, threshold, weighted_gain, left, right })
                }
                other => Err(bad(&format!("unknown node tag {other:?}"))),
            }
        }
        Ok(DecisionTreeModel { root: node(lines)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(xy: &[(&[f64], bool)]) -> Dataset {
        let n = xy[0].0.len();
        Dataset::new(
            (0..n).map(|i| format!("f{i}")).collect(),
            xy.iter().map(|(r, _)| r.to_vec()).collect(),
            xy.iter().map(|(_, l)| *l).collect(),
        )
        .unwrap()
    }

    #[test]
    fn learns_a_threshold() {
        let d = data(&[
            (&[0.1], false),
            (&[0.2], false),
            (&[0.3], false),
            (&[0.8], true),
            (&[0.9], true),
        ]);
        let m = DecisionTreeLearner::default().fit(&d).unwrap();
        assert!(!m.predict(&[0.0]));
        assert!(m.predict(&[1.0]));
        assert!(!m.predict(&[0.25]));
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let d = data(&[
            (&[0.0, 0.0], false),
            (&[0.0, 1.0], true),
            (&[1.0, 0.0], true),
            (&[1.0, 1.0], false),
        ]);
        let m = DecisionTreeLearner::default().fit_tree(&d).unwrap();
        assert!(m.predict(&[0.0, 1.0]));
        assert!(m.predict(&[1.0, 0.0]));
        assert!(!m.predict(&[0.0, 0.0]));
        assert!(!m.predict(&[1.0, 1.0]));
        assert!(m.n_splits() >= 2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let d = data(&[(&[1.0], true), (&[2.0], true)]);
        let m = DecisionTreeLearner::default().fit_tree(&d).unwrap();
        assert_eq!(m.n_splits(), 0);
        assert_eq!(m.predict_proba(&[0.0]), 1.0);
    }

    #[test]
    fn max_depth_zero_is_a_stump_prior() {
        let d = data(&[(&[0.0], false), (&[1.0], true), (&[2.0], true)]);
        let learner = DecisionTreeLearner { max_depth: 0, ..Default::default() };
        let m = learner.fit_tree(&d).unwrap();
        assert_eq!(m.n_splits(), 0);
        assert!((m.predict_proba(&[5.0]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_respected() {
        // With min_leaf = 3 the only admissible splits of 4 points fail,
        // so we must get a leaf.
        let d = data(&[(&[0.0], false), (&[1.0], false), (&[2.0], true), (&[3.0], true)]);
        let learner = DecisionTreeLearner { min_samples_leaf: 3, ..Default::default() };
        let m = learner.fit_tree(&d).unwrap();
        assert_eq!(m.n_splits(), 0);
    }

    #[test]
    fn constant_feature_yields_leaf() {
        let d = data(&[(&[5.0], false), (&[5.0], true), (&[5.0], true)]);
        let m = DecisionTreeLearner::default().fit_tree(&d).unwrap();
        assert_eq!(m.n_splits(), 0);
    }

    #[test]
    fn deterministic_across_fits() {
        let d = data(&[
            (&[0.1, 3.0], false),
            (&[0.4, 2.0], false),
            (&[0.6, 8.0], true),
            (&[0.9, 1.0], true),
            (&[0.5, 9.0], true),
        ]);
        let l = DecisionTreeLearner::default();
        let a = l.fit_tree(&d).unwrap().describe(&d.feature_names);
        let b = l.fit_tree(&d).unwrap().describe(&d.feature_names);
        assert_eq!(a, b);
    }

    #[test]
    fn importance_credits_the_informative_feature() {
        // f1 is pure signal, f0 is constant noise.
        let d = data(&[
            (&[5.0, 0.1], false),
            (&[5.0, 0.2], false),
            (&[5.0, 0.8], true),
            (&[5.0, 0.9], true),
        ]);
        let m = DecisionTreeLearner::default().fit_tree(&d).unwrap();
        let imp = m.feature_importance(2);
        assert!(imp[1] > 0.99, "{imp:?}");
        assert!(imp[0] < 0.01);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn importance_zero_for_pure_leaf_tree() {
        let d = data(&[(&[1.0], true), (&[2.0], true)]);
        let m = DecisionTreeLearner::default().fit_tree(&d).unwrap();
        assert_eq!(m.feature_importance(1), vec![0.0]);
    }

    #[test]
    fn describe_names_features() {
        let d = data(&[(&[0.0], false), (&[1.0], true)]);
        let m = DecisionTreeLearner::default().fit_tree(&d).unwrap();
        let s = m.describe(&d.feature_names);
        assert!(s.contains("if f0 <= 0.5"), "{s}");
    }

    #[test]
    fn rejects_nan() {
        let d = Dataset::new(vec!["f".into()], vec![vec![f64::NAN]], vec![true]).unwrap();
        assert!(DecisionTreeLearner::default().fit(&d).is_err());
    }
}
