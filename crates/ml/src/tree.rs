//! CART decision trees with Gini impurity — the matcher that ultimately won
//! the case study's bake-off (Section 9: "Now the decision tree performed
//! the best with 97% precision, 95% recall").
//!
//! The builder also supports per-split random feature subsetting so
//! [`crate::forest`] can reuse it for random forests.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::{Learner, Model};
use crate::view::{lap, Meter, TrainScratch, TrainView};
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
    /// The midpoint of the two adjacent distinct values the split falls
    /// between, and the lower of the two.
    threshold: f64,
    lo: f64,
    gain: f64,
}

/// How many rows a node trains on, bootstrap repeats counted, and how many
/// of them are matches.
#[derive(Clone, Copy)]
pub(crate) struct Counts {
    total: usize,
    pos: usize,
}

/// A node sweeps a candidate feature by rank histogram unless the column
/// has more than this many distinct values per row of the node; then
/// sorting the node's own rank keys is cheaper than walking ranks it does
/// not hold. Measured on one thread: a depth-30 tree over 20 000 rows of 10
/// continuous columns takes 257 ms by histogram alone and 50 ms with any
/// crossover from 4 to 16; at the paper's 255 rows no node is small enough
/// for the choice to show.
const HIST_RANKS_PER_ROW: usize = 16;

/// The presorted CART builder: one tree over the rows loaded into a
/// [`TrainScratch`].
///
/// A node is a slice of distinct rows, each weighted by its multiplicity
/// (`weights[row]`). Per candidate feature the search fills a `(weight,
/// match weight)` histogram over the column's dense ranks in one pass and
/// sweeps the occupied ranks ascending (or, for a node much smaller than
/// the column's rank range, sorts one packed key per row and sweeps runs of
/// equal rank). Either way it sees what a sort of the node's `(value,
/// label)` pairs would show: the same boundaries between adjacent distinct
/// values in the same order, the same counts to their left — so the same
/// `gini` and gain floats, the same `1e-12` tie rule, the same winner. The
/// children are then cut by the real `value <= threshold` comparison.
struct Builder<'v, 's> {
    params: &'s DecisionTreeLearner,
    view: &'v TrainView<'v>,
    weights: &'s [[u32; 2]],
    hist: &'s mut [[u32; 2]],
    keys: &'s mut Vec<u64>,
    features: &'s mut Vec<usize>,
    /// Forest-style feature subsetting: `(mtry, rng)`.
    sampler: Option<(usize, &'s mut StdRng)>,
    meter: &'s mut Meter,
}

impl Builder<'_, '_> {
    fn node(&mut self, rows: &mut [u32], counts: Counts, depth: usize) -> Node {
        self.meter.profile.nodes += 1;
        let Counts { total, pos } = counts;
        let proba = pos as f64 / total as f64;
        let pure = pos == 0 || pos == total;
        if pure || depth >= self.params.max_depth || total < self.params.min_samples_split {
            return Node::Leaf { proba };
        }

        let d = self.view.n_features();
        self.features.clear();
        self.features.extend(0..d);
        if let Some((mtry, rng)) = &mut self.sampler {
            if *mtry < d {
                let t = self.meter.clock();
                self.features.shuffle(&mut **rng);
                self.features.truncate(*mtry);
                self.features.sort_unstable(); // determinism of tie-breaking
                self.meter.profile.shuffle_ns += lap(t);
            }
        }

        let t = self.meter.clock();
        self.meter.profile.searched += 1;
        self.meter.profile.searched_rows += rows.len() as u64;
        let split = self.best_split(rows, counts);
        self.meter.profile.search_ns += lap(t);
        let Some(split) = split else {
            return Node::Leaf { proba };
        };

        let t = self.meter.clock();
        let mut threshold = split.threshold;
        let (mut cut, mut left) = self.partition(rows, split.feature, threshold);
        if cut == 0 || cut == rows.len() {
            // The midpoint of two adjacent floats rounds onto the upper one,
            // and of two huge ones overflows: a cut that separates nothing
            // would repeat itself down to `max_depth`. The lower value
            // always separates.
            threshold = split.lo;
            (cut, left) = self.partition(rows, split.feature, threshold);
        }
        self.meter.profile.partition_ns += lap(t);
        let right = Counts { total: total - left.total, pos: pos - left.pos };
        let (left_rows, right_rows) = rows.split_at_mut(cut);
        let left = self.node(left_rows, left, depth + 1);
        let right = self.node(right_rows, right, depth + 1);
        Node::Split {
            feature: split.feature,
            threshold,
            weighted_gain: total as f64 * split.gain,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Moves the rows whose `feature` is `<= threshold` to the front of
    /// `rows`; returns how many there are and what they weigh.
    fn partition(&self, rows: &mut [u32], feature: usize, threshold: f64) -> (usize, Counts) {
        let col = self.view.col(feature);
        let mut left = Counts { total: 0, pos: 0 };
        let mut cut = 0usize;
        for j in 0..rows.len() {
            let r = rows[j] as usize;
            if col[r] <= threshold {
                rows.swap(cut, j);
                cut += 1;
                left.total += self.weights[r][0] as usize;
                left.pos += self.weights[r][1] as usize;
            }
        }
        (cut, left)
    }

    /// Finds the Gini-gain-maximizing threshold split over the drawn
    /// features. Ties break toward the lower feature index, then lower
    /// threshold, for determinism.
    fn best_split(&mut self, rows: &[u32], counts: Counts) -> Option<BestSplit> {
        let view = self.view;
        let parent = gini(counts.pos, counts.total);
        let mut best: Option<BestSplit> = None;
        for k in 0..self.features.len() {
            let f = self.features[k];
            let values = view.distinct(f);
            if values.len() < 2 {
                continue; // a constant column has no boundary
            }
            let ranks = view.ranks(f);
            let mut sweep = Sweep {
                f,
                values,
                counts,
                parent,
                min_leaf: self.params.min_samples_leaf,
                left: Counts { total: 0, pos: 0 },
                last: None,
                evaluated: 0,
            };
            if values.len() > HIST_RANKS_PER_ROW * rows.len() {
                self.meter.profile.key_sweeps += 1;
                self.keys.clear();
                self.keys.extend(rows.iter().map(|&r| {
                    let [w, p] = self.weights[r as usize];
                    u64::from(ranks[r as usize]) << 32 | u64::from(w) << 1 | u64::from(p != 0)
                }));
                self.keys.sort_unstable();
                for &key in self.keys.iter() {
                    let w = (key as u32 >> 1) as usize;
                    sweep.absorb((key >> 32) as u32, w, if key & 1 == 1 { w } else { 0 }, &mut best);
                }
            } else {
                self.meter.profile.hist_sweeps += 1;
                let (mut lo, mut hi) = (u32::MAX, 0u32);
                for &r in rows {
                    let rank = ranks[r as usize];
                    let [w, p] = self.weights[r as usize];
                    let slot = &mut self.hist[rank as usize];
                    slot[0] += w;
                    slot[1] += p;
                    lo = lo.min(rank);
                    hi = hi.max(rank);
                }
                for rank in lo..=hi {
                    let [w, p] = std::mem::take(&mut self.hist[rank as usize]);
                    if w != 0 {
                        sweep.absorb(rank, w as usize, p as usize, &mut best);
                    }
                }
            }
            self.meter.profile.candidates += sweep.evaluated;
        }
        best
    }
}

/// One candidate feature's ascending sweep: rows arrive grouped by rank,
/// ranks ascending, and every step up from one occupied rank to the next is
/// a boundary scored with everything absorbed so far on its left.
struct Sweep<'v> {
    f: usize,
    values: &'v [f64],
    counts: Counts,
    parent: f64,
    min_leaf: usize,
    left: Counts,
    last: Option<u32>,
    evaluated: u64,
}

impl Sweep<'_> {
    #[inline]
    fn absorb(&mut self, rank: u32, weight: usize, pos: usize, best: &mut Option<BestSplit>) {
        if let Some(last) = self.last.filter(|&last| last != rank) {
            self.boundary(last, rank, best);
        }
        self.left.total += weight;
        self.left.pos += pos;
        self.last = Some(rank);
    }

    fn boundary(&mut self, below: u32, above: u32, best: &mut Option<BestSplit>) {
        let Counts { total, pos } = self.counts;
        let (left_n, left_pos) = (self.left.total, self.left.pos);
        let right_n = total - left_n;
        if left_n < self.min_leaf || right_n < self.min_leaf {
            return;
        }
        self.evaluated += 1;
        let right_pos = pos - left_pos;
        let weighted = (left_n as f64 * gini(left_pos, left_n)
            + right_n as f64 * gini(right_pos, right_n))
            / total as f64;
        let gain = self.parent - weighted;
        // Zero-gain splits are admissible on impure nodes (XOR-style
        // interactions only pay off one level deeper); recursion still
        // terminates because children are strictly smaller.
        let better = match best {
            None => gain >= -1e-12,
            Some(b) => gain > b.gain + 1e-12,
        };
        if better {
            let (lo, hi) = (self.values[below as usize], self.values[above as usize]);
            *best = Some(BestSplit { feature: self.f, threshold: (lo + hi) / 2.0, lo, gain });
        }
    }
}

impl Learner for DecisionTreeLearner {
    fn name(&self) -> String {
        "Decision Tree".to_string()
    }

    fn fit_rows(
        &self,
        view: &TrainView<'_>,
        rows: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<crate::fitted::FittedModel, MlError> {
        Ok(crate::fitted::FittedModel::Tree(self.fit_tree_rows(view, rows, scratch)?))
    }
}

impl DecisionTreeLearner {
    /// Like [`Learner::fit`] but returns the concrete model, for callers
    /// that need [`DecisionTreeModel::describe`] / [`DecisionTreeModel::n_splits`].
    pub fn fit_tree(&self, data: &Dataset) -> Result<DecisionTreeModel, MlError> {
        let view = TrainView::new(data)?;
        self.fit_tree_rows(&view, &view.all_rows(), &mut view.scratch())
    }

    /// [`Learner::fit_rows`] returning the concrete model: one tree on the
    /// listed rows, every feature a candidate at every node.
    pub fn fit_tree_rows(
        &self,
        view: &TrainView<'_>,
        rows: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<DecisionTreeModel, MlError> {
        view.check_rows(rows)?;
        let counts = load_sample(view, rows.iter().copied(), scratch);
        Ok(self.grow(view, counts, None, scratch))
    }

    /// Grows one tree on the sample [`load_sample`] left in `scratch`, with
    /// forest-style feature subsetting when `sampler` is `(mtry, rng)`, and
    /// leaves the scratch clean for the next sample.
    pub(crate) fn grow(
        &self,
        view: &TrainView<'_>,
        counts: Counts,
        sampler: Option<(usize, &mut StdRng)>,
        scratch: &mut TrainScratch,
    ) -> DecisionTreeModel {
        let TrainScratch { weights, rows, hist, keys, features, meter } = scratch;
        meter.profile.trees += 1;
        let mut builder = Builder {
            params: self,
            view,
            weights,
            hist,
            keys,
            features,
            sampler,
            meter,
        };
        let root = builder.node(rows, counts, 0);
        for &r in rows.iter() {
            weights[r as usize] = [0, 0];
        }
        rows.clear();
        DecisionTreeModel { root }
    }
}

/// Loads a training sample into `scratch`: `sample` yields rows of `view`,
/// a repeat meaning weight (a bootstrap draws the same row twice; a row
/// list may name it twice), in any order — the builder reads counts, never
/// positions. The caller has checked the rows ([`TrainView::check_rows`])
/// and `sample` yields at least one.
pub(crate) fn load_sample(
    view: &TrainView<'_>,
    sample: impl Iterator<Item = usize>,
    scratch: &mut TrainScratch,
) -> Counts {
    let t = scratch.meter.clock();
    let labels = &view.data().y;
    let mut counts = Counts { total: 0, pos: 0 };
    for r in sample {
        let slot = &mut scratch.weights[r];
        if slot[0] == 0 {
            scratch.rows.push(r as u32);
        }
        let is_match = u32::from(labels[r]);
        slot[0] += 1;
        slot[1] += is_match;
        counts.total += 1;
        counts.pos += is_match as usize;
    }
    scratch.meter.profile.draw_ns += lap(t);
    counts
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
    fn adjacent_floats_are_cut_once_at_the_lower_value() {
        // The midpoint of 1 + ε and 1 + 2ε rounds (ties to even) onto
        // 1 + 2ε: taken as the threshold it sends both rows left, and the
        // same split repeats down to `max_depth` over an empty right leaf.
        let lo = 1.0 + f64::EPSILON;
        let hi = 1.0 + 2.0 * f64::EPSILON;
        assert_eq!((lo + hi) / 2.0, hi);
        let d = data(&[(&[lo], false), (&[hi], true)]);
        let m = DecisionTreeLearner::default().fit_tree(&d).unwrap();
        assert_eq!(m.n_splits(), 1);
        assert_eq!(m.predict_proba(&[lo]), 0.0);
        assert_eq!(m.predict_proba(&[hi]), 1.0);
        // Same for a midpoint that overflows.
        let d = data(&[(&[f64::MAX / 2.0 * 1.5], false), (&[f64::MAX], true)]);
        let m = DecisionTreeLearner::default().fit_tree(&d).unwrap();
        assert_eq!(m.n_splits(), 1);
        assert_eq!(m.predict_proba(&[f64::MAX]), 1.0);
    }

    #[test]
    fn repeated_rows_weigh_like_copies() {
        let d = data(&[(&[0.0], false), (&[1.0], true), (&[2.0], false), (&[3.0], true)]);
        let view = TrainView::new(&d).unwrap();
        let mut scratch = view.scratch();
        let learner = DecisionTreeLearner { max_depth: 1, ..Default::default() };
        // Row 1 three times outweighs row 2: the stump isolates row 0.
        let m = learner.fit_tree_rows(&view, &[2, 1, 0, 1, 1], &mut scratch).unwrap();
        assert_eq!(m.predict_proba(&[0.0]), 0.0);
        assert_eq!(m.predict_proba(&[1.5]), 0.75);
        // The scratch comes back clean: the same fit again is the same tree.
        let again = learner.fit_tree_rows(&view, &[2, 1, 0, 1, 1], &mut scratch).unwrap();
        assert_eq!(m.describe(&d.feature_names), again.describe(&d.feature_names));
    }

    #[test]
    fn rejects_nan() {
        let d = Dataset::new(vec!["f".into()], vec![vec![f64::NAN]], vec![true]).unwrap();
        assert!(DecisionTreeLearner::default().fit(&d).is_err());
    }
}
