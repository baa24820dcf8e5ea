//! CART decision trees with Gini impurity — the matcher that ultimately won
//! the case study's bake-off (Section 9: "Now the decision tree performed
//! the best with 97% precision, 95% recall").
//!
//! The builder also supports per-split random feature subsetting so
//! [`crate::forest`] can reuse it for random forests. A fitted tree has one
//! form, [`DecisionTreeModel`]'s pre-order arrays: the builder writes them
//! node by node, and training, the text codec, the fused stream and the
//! serve loop all read those same arrays.

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

/// A fitted tree, as the pre-order arrays every scorer walks. Node `n` is
/// a leaf when `feature[n] == LEAF`; then `value[n]` is its probability.
/// Otherwise `value[n]` is the split threshold, the left child is `n + 1`
/// and the right child is `right[n]`; `gain[n]` is the split's `n_samples
/// × Gini gain`, for feature importance (`0.0` at a leaf).
///
/// [`DecisionTreeModel::score_with`] is the one walk: it asks its feature
/// source for the split feature of each node on the root-to-leaf path —
/// once per node, never for a feature off the path — and `<= threshold`
/// goes left, so a `NaN` takes the right branch.
/// [`Model::predict_proba`] is that walk over a slice, a missing column
/// reading `0.0`.
#[derive(Debug, Clone)]
pub struct DecisionTreeModel {
    feature: Vec<u32>,
    value: Vec<f64>,
    right: Vec<u32>,
    gain: Vec<f64>,
}

/// Sentinel in `DecisionTreeModel::feature` marking a leaf node.
const LEAF: u32 = u32::MAX;

impl Model for DecisionTreeModel {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        self.score_with(|k| row.get(k).copied().unwrap_or(0.0))
    }
}

impl DecisionTreeModel {
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

    /// An empty tree with room for `nodes` nodes, for the builder or the
    /// decoder to fill (an empty tree does not score).
    pub(crate) fn with_capacity(nodes: usize) -> DecisionTreeModel {
        DecisionTreeModel {
            feature: Vec::with_capacity(nodes),
            value: Vec::with_capacity(nodes),
            right: Vec::with_capacity(nodes),
            gain: Vec::with_capacity(nodes),
        }
    }

    /// Appends a leaf.
    fn push_leaf(&mut self, proba: f64) {
        self.push(LEAF, proba, 0.0);
    }

    /// Appends a node and returns its slot; a split's `right` is patched
    /// once its left subtree is in place.
    fn push(&mut self, feature: u32, value: f64, gain: f64) -> usize {
        let slot = self.feature.len();
        self.feature.push(feature);
        self.value.push(value);
        self.right.push(0);
        self.gain.push(gain);
        slot
    }

    /// Empties the arrays, keeping their capacity.
    fn clear(&mut self) {
        self.feature.clear();
        self.value.clear();
        self.right.clear();
        self.gain.clear();
    }

    /// Points split `slot` at the node appended next.
    fn patch_right(&mut self, slot: usize) {
        self.right[slot] = self.feature.len() as u32;
    }

    /// The split nodes' `(feature, gain)`, in pre-order.
    fn splits(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.feature
            .iter()
            .zip(&self.gain)
            .filter(|(&f, _)| f != LEAF)
            .map(|(&f, &g)| (f as usize, g))
    }

    /// Number of decision (split) nodes — used by tests and the tree
    /// debugger to reason about model complexity.
    pub fn n_splits(&self) -> usize {
        self.splits().count()
    }

    /// The feature index of every split, in pre-order — the features
    /// `predict_proba` can ever inspect.
    pub fn split_features(&self) -> impl Iterator<Item = usize> + '_ {
        self.splits().map(|(f, _)| f)
    }

    /// Gini feature importances, normalized to sum to 1 (all zeros for a
    /// pure-leaf tree). Importance of a feature is the total
    /// `n_samples × impurity decrease` over the splits that use it — the
    /// view PyMatcher's matcher debugger offers to explain which features a
    /// selected matcher actually relies on.
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        let mut acc = vec![0.0; n_features];
        for (f, gain) in self.splits() {
            if let Some(slot) = acc.get_mut(f) {
                *slot += gain.max(0.0);
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for v in &mut acc {
                *v /= total;
            }
        }
        acc
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
    /// The tree being grown, node by node in pre-order.
    tree: &'s mut DecisionTreeModel,
}

impl Builder<'_, '_> {
    fn node(&mut self, rows: &mut [u32], counts: Counts, depth: usize) {
        self.meter.profile.nodes += 1;
        let Counts { total, pos } = counts;
        let proba = pos as f64 / total as f64;
        let pure = pos == 0 || pos == total;
        if pure || depth >= self.params.max_depth || total < self.params.min_samples_split {
            return self.tree.push_leaf(proba);
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
            return self.tree.push_leaf(proba);
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
        debug_assert!(split.feature < LEAF as usize, "feature index collides with sentinel");
        let slot = self.tree.push(split.feature as u32, threshold, total as f64 * split.gain);
        self.node(left_rows, left, depth + 1);
        self.tree.patch_right(slot);
        self.node(right_rows, right, depth + 1);
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
    /// Like [`Learner::fit_model`] but returns the concrete model, for
    /// callers that need [`DecisionTreeModel::n_splits`].
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
        let TrainScratch { weights, rows, hist, keys, features, meter, tree } = scratch;
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
            tree,
        };
        builder.node(rows, counts, 0);
        for &r in rows.iter() {
            weights[r as usize] = [0, 0];
        }
        rows.clear();
        // One exact-size copy per array; the scratch's arrays stay for the
        // next tree.
        let fitted = tree.clone();
        tree.clear();
        fitted
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
// One node a line, in storage order, which is pre-order. Pre-order with
// fixed arity is self-delimiting, so a forest can decode N trees from one
// shared line iterator. Floats use `{:?}`, which round-trips every f64 bit
// pattern through `parse::<f64>()`.

impl DecisionTreeModel {
    /// Appends the tree's pre-order node lines to `out` (one node per
    /// line: `L <proba>` / `S <feature> <threshold> <weighted_gain>`).
    pub(crate) fn encode_lines(&self, out: &mut String) {
        for n in 0..self.feature.len() {
            let (f, v) = (self.feature[n], self.value[n]);
            if f == LEAF {
                out.push_str(&format!("L {v:?}\n"));
            } else {
                out.push_str(&format!("S {f} {v:?} {:?}\n", self.gain[n]));
            }
        }
    }

    /// Decodes one pre-order tree from `lines`, consuming exactly the lines
    /// of this tree (so callers can decode several trees from one iterator).
    /// Iterative: `open` holds the splits whose left subtree is still being
    /// read, so a tree of any depth decodes without recursion.
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
        let mut tree = DecisionTreeModel::with_capacity(0);
        let mut open = Vec::new();
        loop {
            let line = lines.next().ok_or_else(|| bad("unexpected end of node lines"))?;
            if tree.feature.len() >= LEAF as usize {
                return Err(bad("more nodes than a u32 child index addresses"));
            }
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("L") => {
                    tree.push_leaf(num(toks.next(), "leaf proba")?);
                    // A leaf closes the innermost open split's left subtree;
                    // with none open, the tree is complete.
                    match open.pop() {
                        Some(slot) => tree.patch_right(slot),
                        None => break,
                    }
                }
                Some("S") => {
                    let feature: u64 = num(toks.next(), "split feature")?;
                    let feature = u32::try_from(feature)
                        .ok()
                        .filter(|&f| f != LEAF)
                        .ok_or_else(|| bad(&format!("split feature {feature} is not below {LEAF}")))?;
                    let threshold = num(toks.next(), "split threshold")?;
                    let gain = num(toks.next(), "split gain")?;
                    open.push(tree.push(feature, threshold, gain));
                }
                other => return Err(bad(&format!("unknown node tag {other:?}"))),
            }
        }
        Ok(tree)
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

    /// The tree's node lines, for comparing two fits.
    fn lines(m: &DecisionTreeModel) -> String {
        let mut out = String::new();
        m.encode_lines(&mut out);
        out
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
        let m = DecisionTreeLearner::default().fit_model(&d).unwrap();
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
        assert_eq!(lines(&l.fit_tree(&d).unwrap()), lines(&l.fit_tree(&d).unwrap()));
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
        assert_eq!(lines(&m), lines(&again));
    }

    #[test]
    fn rejects_nan() {
        let d = Dataset::new(vec!["f".into()], vec![vec![f64::NAN]], vec![true]).unwrap();
        assert!(DecisionTreeLearner::default().fit_model(&d).is_err());
    }
}
