//! The training engine's one representation of a [`Dataset`]: built once,
//! shared read-only by every fit on it.
//!
//! A [`TrainView`] holds the matrix column-major and, per feature, each
//! row's **dense rank** among the column's distinct values (ties by `==`,
//! so `-0.0` and `0.0` share a rank) plus those distinct values ascending.
//! Nothing that fits on a view copies rows: a training set is a **row
//! list** over the view — a CV fold's other folds, every row but the one
//! held out, a split half — in which a row may repeat and any row may be
//! missing. The tree builder turns a list (or a bootstrap resample of one)
//! into a per-row multiplicity plus the distinct rows present, and searches
//! splits over rank histograms ([`crate::tree`]); the four dense learners
//! gather the listed rows by reference, in list order, which is the order
//! their sums ran in when the list was a copied matrix.
//!
//! Everything a fit writes lives in a [`TrainScratch`], sized by the view
//! and reused from fit to fit: a worker of a leave-one-out pass, a CV grid
//! or a forest owns one and allocates nothing per tree beyond the nodes it
//! returns.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::tree::DecisionTreeModel;

/// Minimum total work — items × training rows each item re-scans — worth
/// paying thread start-up for.
const SPAWN_CELLS: usize = 10_000;

/// The fewest independent fits over `rows` training rows worth forking for
/// ([`em_parallel::Executor::with_min_items`]): below it a loop of fits
/// runs inline.
pub(crate) fn spawn_floor(rows: usize) -> usize {
    SPAWN_CELLS.div_ceil(rows.max(1))
}

/// A dataset laid out for training. See the module docs.
#[derive(Debug)]
pub struct TrainView<'a> {
    data: &'a Dataset,
    /// Column-major values: feature `f` of row `i` is `cols[f * n + i]`.
    cols: Vec<f64>,
    /// `ranks[f * n + i]`: how many distinct values of column `f` are below
    /// row `i`'s.
    ranks: Vec<u32>,
    /// Every column's distinct values ascending, back to back; column `f`
    /// is `distinct[offsets[f]..offsets[f + 1]]`, indexed by rank.
    distinct: Vec<f64>,
    offsets: Vec<usize>,
    /// `(row, column)` of the first non-finite value of each row that has
    /// one, ascending by row. A fit is refused only if its list names one.
    non_finite: Vec<(usize, usize)>,
}

impl<'a> TrainView<'a> {
    /// Lays `data` out for training: one sort per column.
    pub fn new(data: &'a Dataset) -> Result<TrainView<'a>, MlError> {
        let (n, d) = (data.len(), data.n_features());
        if u32::try_from(n).is_err() {
            return Err(MlError::BadParameter(format!("{n} rows exceed the training engine's u32 row index")));
        }
        let mut non_finite = Vec::new();
        for (i, row) in data.x.iter().enumerate() {
            if row.len() != d {
                return Err(MlError::ShapeMismatch(format!(
                    "row {i} has {} features, expected {d}",
                    row.len()
                )));
            }
            if let Some(c) = row.iter().position(|v| !v.is_finite()) {
                non_finite.push((i, c));
            }
        }
        let mut cols = vec![0.0; n * d];
        let mut ranks = vec![0u32; n * d];
        let mut distinct = Vec::new();
        let mut offsets = Vec::with_capacity(d + 1);
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for f in 0..d {
            let col = &mut cols[f * n..(f + 1) * n];
            for (slot, row) in col.iter_mut().zip(&data.x) {
                *slot = row[f];
            }
            order.clear();
            order.extend(0..n as u32);
            // `total_cmp` puts `-0.0` next to `0.0` and NaNs at the ends; the
            // `!=` below then gives the zeros one rank (and each NaN its own,
            // which no fit reads: a list naming such a row is refused).
            order.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            offsets.push(distinct.len());
            let mut rank = 0u32;
            for (k, &i) in order.iter().enumerate() {
                let v = col[i as usize];
                if k == 0 {
                    distinct.push(v);
                } else if col[order[k - 1] as usize] != v {
                    distinct.push(v);
                    rank += 1;
                }
                ranks[f * n + i as usize] = rank;
            }
        }
        offsets.push(distinct.len());
        Ok(TrainView { data, cols, ranks, distinct, offsets, non_finite })
    }

    /// The dataset this view was built from.
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.data.n_features()
    }

    /// The row list naming every row once, in order: what a fit on the whole
    /// dataset trains on.
    pub fn all_rows(&self) -> Vec<usize> {
        (0..self.len()).collect()
    }

    /// A scratch sized for fits on this view.
    pub fn scratch(&self) -> TrainScratch {
        let widest = self.offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        TrainScratch {
            weights: vec![[0, 0]; self.len()],
            rows: Vec::with_capacity(self.len()),
            hist: vec![[0, 0]; widest],
            keys: Vec::with_capacity(self.len()),
            features: Vec::with_capacity(self.n_features()),
            meter: Meter::default(),
            // Every leaf holds a distinct row, so no tree outgrows this.
            tree: DecisionTreeModel::with_capacity(2 * self.len()),
        }
    }

    /// Column `f`, indexed by row.
    pub(crate) fn col(&self, f: usize) -> &[f64] {
        &self.cols[f * self.len()..(f + 1) * self.len()]
    }

    /// Column `f`'s dense ranks, indexed by row.
    pub(crate) fn ranks(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.len()..(f + 1) * self.len()]
    }

    /// Column `f`'s distinct values ascending, indexed by rank.
    pub(crate) fn distinct(&self, f: usize) -> &[f64] {
        &self.distinct[self.offsets[f]..self.offsets[f + 1]]
    }

    /// The guard every fit starts with: the list is non-empty, names rows
    /// of this view, and none of them holds a non-finite value — reported
    /// as the dataset's own `(row, column)`, first in list order.
    pub(crate) fn check_rows(&self, rows: &[usize]) -> Result<(), MlError> {
        if rows.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        // Multiplicities are `u32` and a sorted-sweep key packs one beside a
        // label bit in 32 bits.
        if rows.len() > (u32::MAX >> 1) as usize {
            return Err(MlError::BadParameter(format!("row list of {} entries is too long", rows.len())));
        }
        if let Some(&r) = rows.iter().find(|&&r| r >= self.len()) {
            return Err(MlError::BadParameter(format!(
                "row {r} is outside the {}-row training view",
                self.len()
            )));
        }
        if !self.non_finite.is_empty() {
            for r in rows {
                if let Ok(k) = self.non_finite.binary_search_by_key(r, |&(row, _)| row) {
                    let (row, col) = self.non_finite[k];
                    return Err(MlError::NonFiniteFeature { row, col });
                }
            }
        }
        Ok(())
    }

    /// [`TrainView::check_rows`], then the listed rows and labels gathered
    /// by reference in list order — what the dense learners fit on.
    pub(crate) fn gather(&self, rows: &[usize]) -> Result<(Vec<&'a [f64]>, Vec<bool>), MlError> {
        self.check_rows(rows)?;
        let data = self.data;
        Ok((
            rows.iter().map(|&r| data.x[r].as_slice()).collect(),
            rows.iter().map(|&r| data.y[r]).collect(),
        ))
    }
}

/// The share of `true` among gathered labels — `0.0` or `1.0` marks a
/// single-class training set, which the dense learners answer with a
/// constant model.
pub(crate) fn positive_rate(y: &[bool]) -> f64 {
    y.iter().filter(|&&b| b).count() as f64 / y.len() as f64
}

/// Everything a fit on a [`TrainView`] writes, reused across fits.
///
/// Between fits `weights` and `hist` are all zero and the rest is empty;
/// every buffer is sized by [`TrainView::scratch`] and never grows.
#[derive(Debug)]
pub struct TrainScratch {
    /// Per dataset row: how many times the tree being built trains on it,
    /// and that count again if the row is a match (else `0`).
    pub(crate) weights: Vec<[u32; 2]>,
    /// The distinct rows of the tree being built, partitioned in place as
    /// the builder descends.
    pub(crate) rows: Vec<u32>,
    /// `(weight, match weight)` per rank of the feature being searched.
    pub(crate) hist: Vec<[u32; 2]>,
    /// Small nodes: one `rank · weight · label` key per row, sorted.
    pub(crate) keys: Vec<u64>,
    /// The per-node feature draw.
    pub(crate) features: Vec<usize>,
    pub(crate) meter: Meter,
    /// The nodes of the tree being built, copied out at exact size when it
    /// is done.
    pub(crate) tree: DecisionTreeModel,
}

impl TrainScratch {
    /// What the fits on this scratch have done so far.
    #[doc(hidden)]
    pub fn profile(&self) -> TrainProfile {
        self.meter.profile
    }

    /// Turns the per-leg timers of [`TrainProfile`] on or off (off by
    /// default: a handful of clock reads a node). Counts are always kept.
    #[doc(hidden)]
    pub fn set_timed(&mut self, timed: bool) {
        self.meter.timed = timed;
    }
}

/// A scratch's [`TrainProfile`] and whether its legs are being timed.
#[derive(Debug, Default)]
pub(crate) struct Meter {
    pub(crate) profile: TrainProfile,
    timed: bool,
}

impl Meter {
    /// Starts a leg's timer, if timers are on.
    pub(crate) fn clock(&self) -> Option<std::time::Instant> {
        self.timed.then(std::time::Instant::now)
    }
}

/// Nanoseconds since `clock` started, `0` with timers off.
pub(crate) fn lap(clock: Option<std::time::Instant>) -> u64 {
    clock.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Counts (always) and per-leg nanoseconds (with
/// [`TrainScratch::set_timed`]) of the tree fits run on one scratch — what
/// `profile_extract --train` prints. Never part of a model or a checksum.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainProfile {
    /// Trees built.
    pub trees: u64,
    /// Nodes built, leaves included.
    pub nodes: u64,
    /// Nodes that searched for a split.
    pub searched: u64,
    /// Distinct rows summed over those nodes.
    pub searched_rows: u64,
    /// Candidate features swept by rank histogram / by sorted keys.
    pub hist_sweeps: u64,
    /// See `hist_sweeps`.
    pub key_sweeps: u64,
    /// Thresholds whose Gini gain was computed.
    pub candidates: u64,
    /// Resampling a row list into multiplicities.
    pub draw_ns: u64,
    /// Per-node feature shuffles.
    pub shuffle_ns: u64,
    /// Split search.
    pub search_ns: u64,
    /// Partitioning a node's rows.
    pub partition_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_of(x: Vec<Vec<f64>>) -> Dataset {
        let d = x.first().map_or(1, Vec::len);
        let y = (0..x.len()).map(|i| i % 2 == 0).collect();
        Dataset::new((0..d).map(|i| format!("f{i}")).collect(), x, y).unwrap()
    }

    #[test]
    fn ranks_are_dense_and_ties_share_one() {
        let data = view_of(vec![vec![3.0], vec![-0.0], vec![1.5], vec![0.0], vec![3.0]]);
        let view = TrainView::new(&data).unwrap();
        assert_eq!(view.ranks(0), &[2, 0, 1, 0, 2]);
        assert_eq!(view.distinct(0), &[0.0, 1.5, 3.0]);
        assert_eq!(view.col(0), &[3.0, -0.0, 1.5, 0.0, 3.0]);
    }

    #[test]
    fn validate_rejects_empty_and_nan() {
        let data = view_of(vec![vec![1.0, 2.0], vec![0.0, f64::NAN], vec![f64::INFINITY, f64::NAN]]);
        let view = TrainView::new(&data).unwrap();
        assert_eq!(view.check_rows(&[]), Err(MlError::EmptyTrainingSet));
        assert_eq!(view.check_rows(&[0, 0]), Ok(()));
        // The dataset's own position, first in list order.
        assert_eq!(view.check_rows(&[0, 2, 1]), Err(MlError::NonFiniteFeature { row: 2, col: 0 }));
        assert_eq!(view.check_rows(&[1, 2]), Err(MlError::NonFiniteFeature { row: 1, col: 1 }));
        assert!(matches!(view.check_rows(&[3]), Err(MlError::BadParameter(_))));
    }

    #[test]
    fn validate_returns_positive_rate() {
        let data = view_of(vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let view = TrainView::new(&data).unwrap();
        let (x, y) = view.gather(&[3, 0, 1, 1]).unwrap();
        assert_eq!(x, vec![&[3.0][..], &[0.0], &[1.0], &[1.0]]);
        assert_eq!(y, vec![false, true, false, false]);
        assert_eq!(positive_rate(&y), 0.25);
    }

    #[test]
    fn ragged_rows_are_a_shape_error() {
        let mut data = view_of(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        data.x[1].pop();
        assert!(matches!(TrainView::new(&data), Err(MlError::ShapeMismatch(_))));
    }
}
