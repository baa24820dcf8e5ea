//! The one scoring kernel: flat corpus-side caches, a prepared left row,
//! and every candidate of that row seen through a lazy [`PairView`].
//!
//! [`FeatureCaches`] holds the flat interned caches of [`crate::extract`]
//! (set-feature token arenas, the global sequence-feature string table,
//! typed scalar columns), restricted to a [`FeatureMask`]'s live subset:
//! dead features get no cache plan, their columns are never tokenized, and
//! they read as `NaN` — exactly what downstream mean imputation replaces
//! with the column mean, so a tree-shaped model that never reads those
//! columns scores bit-identically to full extraction.
//!
//! **Two probe sides, one kernel.** The *prepared left row* in a
//! [`BatchScratch`] is either a left-table row ([`BatchExtractor`]: the
//! fused stream, [`BatchExtractor::extract_matrix`], [`extract_vectors`]
//! (crate::extract_vectors)) or one arriving record prepared read-only
//! against a growable corpus ([`ServeExtractor`](crate::ServeExtractor)).
//! Preparing stamps the row's token ids into an epoch-stamped array over
//! each set plan's id space and notes its sids and typed scalars; a
//! candidate of that row is then a [`PairView`], which computes feature `k`
//! the first time it is [pulled](PairView::pull) and keeps it in a per-pair
//! slot (epoch-stamped like the token stamps: beginning a pair is one
//! counter bump, never a wipe). A scorer that walks a tree pulls the
//! features on its path and nothing else; [`PairView::fill`] — behind
//! `extract_into`, `extract_matrix` and `extract_vectors` — pulls every
//! live feature. Either way a value comes from the same three routes:
//!
//! - set measures: per set plan, one branch-free pass
//!   `inter += (stamp[id] == epoch)` over the right row's ids, run at most
//!   once per pair however many of the plan's measures are pulled, and fed
//!   to [`SetOp::score_counts`] — the expression the sorted-merge measures
//!   reduce to, on the same three integers;
//! - sequence measures: one kernel call per distinct
//!   `(left sid, right sid)`: sids are global, so a case-folded feature
//!   whose cells lowercase to themselves reuses its case-sensitive twin's
//!   value, as does a later pair with the same two strings (recurring
//!   titles). The values live in a fixed direct-mapped table
//!   ([`REUSE_SLOTS`] slots per measure, overwritten on collision — no
//!   growth, no clearing); exact match is the sid comparison itself.
//!   Monge-Elkan/Jaro-Winkler, the one measure whose kernel is a word ×
//!   word product, keeps a dense word matrix per sequence plan for the
//!   prepared left row's string — a column of inner Jaro-Winkler values
//!   per distinct right word the row has met, the word's pattern masks
//!   built once — so a pull is a lookup per right word and an
//!   `f64::max` fold (`WordMatrix` in [`crate::extract`] has the argument
//!   for why that is the per-pair computation to the bit);
//! - numeric/date/boolean features: one load from a typed column.
//!
//! Any pair order and any pull order is correct — a shuffled pair order
//! merely re-stamps more often. Every value is a pure function of the two
//! cells and bit-equal to [`Feature::compute`](crate::Feature::compute); a
//! reused value is the value the kernel returned for the same two strings.
//!
//! **Scratch rebinding.** One [`BatchScratch`] serves any number of
//! caches, one after another (a serving thread's scratch meets every shard
//! and every epoch). It remembers the caches it last prepared a row for;
//! meeting others, it drops the prepared row, resizes its per-plan state
//! and starts a new *generation*. Reuse-table slots carry the generation
//! they were written in and are dead in any other, so ids that collide
//! across caches never meet — and nothing is wiped. An arriving row starts
//! a generation of its own for the same reason: the request-local ids of
//! what the corpus has never produced restart with every request. What is
//! keyed on the prepared left row itself — the word matrices' columns —
//! carries the *left-row epoch*, which every newly prepared row bumps,
//! arriving or not (a rebind drops the prepared row, so one follows it):
//! one counter kills every column.
//!
//! **Set-up legs.** The caches are independent by construction — every set
//! plan owns a private interner, the sequence plans share one sid space
//! and form a single leg, typed columns a third kind — so
//! [`ExtractorPlan`] exposes them as separately buildable legs. Ids, and
//! with them every output bit, do not depend on which thread built what.
//! The extractor can also *borrow* the blocking join's [`TokenCorpus`]
//! pair for lowercase word-level set features (one tokenization pass per
//! column per run, shared across stages) — see [`SharedWordColumns`].

use crate::extract::{
    borrow_set_plan, build_seq_caches, build_set_plan, seq_op, set_op, typed_op, Scalar,
    SeqCaches, SeqKey, SeqOp, SeqSpace, SetKey, SetOp, SetPlan, Tiers, TypedOp, WordMatrices,
    NULL_SID, PARALLEL_THRESHOLD,
};
use crate::generate::FeatureSet;
use crate::mask::FeatureMask;
use em_blocking::Pair;
use em_parallel::Executor;
use em_table::{Schema, Table, TableError};
use em_text::{seq, KernelScratch, TokenCorpus};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed pair-chunk width of [`BatchExtractor::extract_matrix`]. Chunks
/// are the parallel index space, so the split is independent of the thread
/// count; per-pair values are pure, so output is bit-identical regardless.
pub const BATCH_CHUNK: usize = 1024;

/// Slots per sequence measure in a scratch's reuse table: 96 KiB a
/// measure, a little over half a MiB for the full feature menu.
const REUSE_SLOTS: usize = 1 << 12;

/// Source of [`FeatureCaches`] identities (a scratch remembers the last
/// one it met). Relaxed: the counter publishes nothing but itself.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// `BatchScratch::left` when no left-table row is prepared.
const NO_ROW: usize = usize::MAX;

/// One set plan's left-row state: which ids the prepared left row holds.
#[derive(Debug, Default)]
pub(crate) struct Stamps {
    /// `stamp[id] == epoch` ⇔ the prepared left row contains token `id`.
    stamp: Vec<u32>,
    epoch: u32,
    /// `|left tokens|`; `None` when the prepared left cell is null.
    pub(crate) left_len: Option<usize>,
    /// `inter` is `|left ∩ right|` of the pair begun at epoch `pair`.
    pair: u32,
    inter: usize,
}

impl Stamps {
    /// Starts a new left row over `id_space` ids, none of them stamped.
    pub(crate) fn begin(&mut self, id_space: usize) {
        if self.stamp.len() < id_space {
            // The first row, or the corpus has produced new tokens since.
            self.stamp.resize(id_space, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: a stamp from 2³² rows ago would read as current.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Stamps `id`; true when the row did not hold it yet.
    #[inline]
    pub(crate) fn mark(&mut self, id: u32) -> bool {
        let stamp = &mut self.stamp[id as usize];
        let new = *stamp != self.epoch;
        *stamp = self.epoch;
        new
    }
}

/// One reuse-table entry: the value a sequence measure returned for two
/// sids, live only in the generation it was written in (0: never).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    generation: u32,
    sids: (u32, u32),
    bits: u64,
}

/// One per-pair value slot: `value` is the feature of the pair begun at
/// epoch `pair` (0: never).
#[derive(Debug, Clone, Copy, Default)]
struct PairSlot {
    pair: u32,
    value: f64,
}

/// Where a scratch's per-pair work went: which features its pairs pulled.
/// Profiling only — outside every checksum.
#[doc(hidden)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PullCounts {
    /// Per feature slot: pairs that computed it.
    pub pulls: Vec<u64>,
    /// `by_pulled[n]`: pairs that computed `n` features.
    pub by_pulled: Vec<u64>,
    /// Set-plan intersection passes run.
    pub set_passes: u64,
    /// Monge-Elkan/Jaro-Winkler values computed (not reused): word-matrix
    /// pulls.
    pub me_pulls: u64,
    /// Word-matrix columns built: distinct right words a left string met.
    pub me_columns: u64,
    /// Jaro-Winkler kernel calls that filled them — two a cell, one in
    /// each direction.
    pub me_cells: u64,
}

impl PullCounts {
    /// Pairs seen.
    pub fn pairs(&self) -> u64 {
        self.by_pulled.iter().sum()
    }
}

/// Working buffers of [`ServeExtractor::prepare`](crate::ServeExtractor::prepare).
#[derive(Debug, Default)]
pub(crate) struct ArrivalBuffers {
    /// Per left attribute: its column in the arrival table's schema.
    pub(crate) left_cols: Vec<usize>,
    /// Tokens of the cell being prepared that have no corpus id: grams as
    /// they are, words as byte ranges of `text`.
    pub(crate) grams: Vec<[char; 3]>,
    pub(crate) words: Vec<(usize, usize)>,
    pub(crate) text: String,
}

/// Per-worker extraction state: the prepared left row, the current pair's
/// value slots, the fixed-size sequence-value reuse table, the Monge-Elkan
/// word matrices and the kernels' working memory. Create one per worker
/// and reuse it across any number of pairs, requests and extractors (see
/// the module docs for the rebinding rule).
#[derive(Debug)]
pub struct BatchScratch {
    /// The caches the prepared row, and the current generation, belong to.
    owner: u64,
    /// The left-table row prepared ([`NO_ROW`]: none, or an arriving row).
    left: usize,
    pub(crate) stamps: Vec<Stamps>,
    pub(crate) left_sids: Vec<u32>,
    pub(crate) left_scalars: Vec<Scalar>,
    /// What the prepared arriving row holds that the corpus never produced.
    pub(crate) local: SeqSpace,
    pub(crate) arrival: ArrivalBuffers,
    /// Counts prepared left rows; what is keyed on the left row's strings
    /// (the word matrices' columns) carries the epoch it was built in.
    row_epoch: u32,
    /// Per sequence plan: the Monge-Elkan/Jaro-Winkler word matrix of the
    /// prepared left row's string.
    words: WordMatrices,
    /// The right row of the current pair, and what has been computed of it:
    /// `slots[k]` holds feature `k` iff `slots[k].pair == pair_epoch`.
    right: usize,
    slots: Vec<PairSlot>,
    pair_epoch: u32,
    /// Features the current pair has computed so far.
    pulled: usize,
    counts: PullCounts,
    reuse: Vec<Slot>,
    reuse_mask: usize,
    generation: u32,
    kernel: KernelScratch,
    kernel_calls: u64,
    reused: u64,
}

impl Default for BatchScratch {
    fn default() -> BatchScratch {
        BatchScratch::with_reuse_slots(REUSE_SLOTS)
    }
}

impl BatchScratch {
    /// An empty scratch; it sizes itself to the first caches it meets.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// [`new`](BatchScratch::new) with an explicit reuse-table width per
    /// measure (a power of two) — tests pin that it cannot change a value.
    pub(crate) fn with_reuse_slots(reuse_slots: usize) -> BatchScratch {
        debug_assert!(reuse_slots.is_power_of_two());
        BatchScratch {
            owner: u64::MAX,
            left: NO_ROW,
            stamps: Vec::new(),
            left_sids: Vec::new(),
            left_scalars: Vec::new(),
            local: SeqSpace::default(),
            arrival: ArrivalBuffers::default(),
            row_epoch: 0,
            words: WordMatrices::default(),
            right: 0,
            slots: Vec::new(),
            pair_epoch: 0,
            pulled: 0,
            counts: PullCounts::default(),
            reuse: Vec::new(),
            reuse_mask: reuse_slots - 1,
            generation: 0,
            kernel: KernelScratch::new(),
            kernel_calls: 0,
            reused: 0,
        }
    }

    /// Kills every reuse-table slot: the ids they are keyed on are about
    /// to change meaning.
    fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: a slot from 2³² generations ago would read as live.
            self.reuse.fill(Slot::default());
            self.generation = 1;
        }
    }

    /// Kills every word-matrix column: another left row is being prepared.
    fn next_row(&mut self) {
        self.row_epoch = self.row_epoch.wrapping_add(1);
        if self.row_epoch == 0 {
            // Wrapped: a column from 2³² rows ago would read as this row's.
            self.words.forget_columns();
            self.row_epoch = 1;
        }
    }

    /// Starts an arriving row: no table row is prepared, nothing is local
    /// yet, and nothing keyed on the last arrival's local ids is live.
    pub(crate) fn begin_arrival(&mut self) {
        self.left = NO_ROW;
        self.local.clear();
        self.next_generation();
        self.next_row();
    }

    /// `(kernel calls, reused values)` of the sequence measures so far —
    /// where the per-pair work went, for profiling.
    #[doc(hidden)]
    pub fn seq_counts(&self) -> (u64, u64) {
        (self.kernel_calls, self.reused)
    }

    /// Which features this scratch's pairs pulled so far.
    #[doc(hidden)]
    pub fn pull_counts(&self) -> &PullCounts {
        &self.counts
    }

    /// Ages every stamp epoch, the left-row epoch, the pair epoch and the
    /// generation to their last value, so the next left-row switch, pair
    /// and generation wrap — test hook for the wrap paths, which otherwise
    /// need 2³² of each.
    #[doc(hidden)]
    pub fn force_epoch_wrap(&mut self) {
        for st in &mut self.stamps {
            st.epoch = u32::MAX;
        }
        self.row_epoch = u32::MAX;
        self.pair_epoch = u32::MAX;
        self.generation = u32::MAX;
        self.left = NO_ROW;
    }
}

/// Which cache a feature's value comes from.
#[derive(Clone, Copy)]
enum Route {
    /// Masked out: no cache, reads `NaN`.
    Dead,
    Set { plan: usize, op: SetOp },
    /// `partition`: the part of the reuse table the measure's values live
    /// in (unused by exact match, which never touches the table).
    Seq { column: usize, op: SeqOp, partition: usize },
    Typed { column: usize, op: TypedOp },
}

/// Which feature reads which cache.
#[derive(Default)]
struct Routes {
    /// Per feature slot, live or dead.
    by_feature: Vec<Route>,
    /// The live slots, ascending.
    live: Vec<usize>,
    /// Reuse-table partitions the sequence measures address.
    n_partitions: usize,
}

/// The cache plans a feature set needs under a mask, one key per distinct
/// plan. A key's left column is whatever `left_col` resolved the feature's
/// left attribute to: a left-table column for a batch extractor, a slot of
/// the arriving record's attribute list for a growable corpus.
#[derive(Default)]
pub(crate) struct PlanKeys {
    pub(crate) set_keys: Vec<SetKey>,
    /// The set plan that copies the shared corpora instead of tokenizing.
    borrowing: Option<usize>,
    pub(crate) seq_keys: Vec<SeqKey>,
    pub(crate) typed_keys: Vec<(usize, usize, TypedOp)>,
    /// Whether a live measure reads word ids.
    pub(crate) with_words: bool,
}

impl PlanKeys {
    /// The plans `features` needs under `mask`, and the routes from its
    /// live features to them.
    fn resolve(
        features: &FeatureSet,
        mask: &FeatureMask,
        mut left_col: impl FnMut(&str) -> Result<usize, TableError>,
        right: &Schema,
        shared_attrs: Option<(&str, &str)>,
    ) -> Result<(PlanKeys, Routes), TableError> {
        let mut keys = PlanKeys::default();
        let mut routes = Routes::default();
        // The measures whose values the reuse table holds, one partition
        // each. Jaro-Winkler is Jaro plus a prefix boost: both read one
        // partition of Jaro values.
        let mut cached: Vec<SeqOp> = Vec::new();
        for (k, f) in features.features.iter().enumerate() {
            // Resolve every feature's columns, live or not: a feature set
            // that does not fit the tables is an error either way.
            let lcol = left_col(&f.left_attr)?;
            let rcol = right.require(&f.right_attr)?;
            let route = if !mask.is_live(k) {
                Route::Dead
            } else if let Some((qgram, op)) = set_op(f.kind) {
                let key = (lcol, rcol, qgram, f.lowercase);
                let known = keys.set_keys.len();
                let plan = position_or_push(&mut keys.set_keys, |have| *have == key, key);
                if plan == known
                    && !qgram
                    && f.lowercase
                    && shared_attrs == Some((f.left_attr.as_str(), f.right_attr.as_str()))
                {
                    keys.borrowing = Some(plan);
                }
                Route::Set { plan, op }
            } else if let Some(op) = seq_op(f.kind) {
                let key = (lcol, rcol, f.lowercase);
                let column = position_or_push(&mut keys.seq_keys, |have| *have == key, key);
                let table_op = if op == SeqOp::JaroWinkler { SeqOp::Jaro } else { op };
                let partition = match op {
                    SeqOp::Exact => 0,
                    _ => position_or_push(&mut cached, |&c| c == table_op, table_op),
                };
                keys.with_words |= op.needs_words();
                Route::Seq { column, op, partition }
            } else if let Some(op) = typed_op(f.kind) {
                let column = position_or_push(
                    &mut keys.typed_keys,
                    |&(l, r, o)| l == lcol && r == rcol && o.shares_column_with(op),
                    (lcol, rcol, op),
                );
                Route::Typed { column, op }
            } else {
                Route::Dead
            };
            if !matches!(route, Route::Dead) {
                routes.live.push(k);
            }
            routes.by_feature.push(route);
        }
        routes.n_partitions = cached.len();
        Ok((keys, routes))
    }
}

/// Index of the first element matching `same`, pushing `new` if none does.
pub(crate) fn position_or_push<T>(items: &mut Vec<T>, same: impl Fn(&T) -> bool, new: T) -> usize {
    items.iter().position(same).unwrap_or_else(|| {
        items.push(new);
        items.len() - 1
    })
}

/// The corpus-side caches of the live features and the one routine that
/// computes a feature of a candidate against a prepared left row. Built
/// once by a
/// [`BatchExtractor`]; built empty and grown by a
/// [`ServeExtractor`](crate::ServeExtractor).
pub(crate) struct FeatureCaches {
    id: u64,
    routes: Routes,
    pub(crate) set_plans: Vec<SetPlan>,
    pub(crate) seq: SeqCaches,
    pub(crate) typed_cols: Vec<(Vec<Scalar>, Vec<Scalar>)>,
}

impl FeatureCaches {
    /// Caches for the live features of `features` under `mask` over no
    /// rows yet, and the keys of their plans: plan `p` of a kind reads the
    /// columns `keys` names at `p`.
    pub(crate) fn empty(
        features: &FeatureSet,
        mask: &FeatureMask,
        left_col: impl FnMut(&str) -> Result<usize, TableError>,
        right: &Schema,
    ) -> Result<(FeatureCaches, PlanKeys), TableError> {
        let (keys, routes) = PlanKeys::resolve(features, mask, left_col, right, None)?;
        let caches = FeatureCaches {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            routes,
            set_plans: keys.set_keys.iter().map(|_| SetPlan::default()).collect(),
            seq: SeqCaches::empty(keys.seq_keys.len(), keys.with_words),
            typed_cols: keys.typed_keys.iter().map(|_| Default::default()).collect(),
        };
        Ok((caches, keys))
    }

    /// Number of feature slots (live and dead).
    pub(crate) fn n_features(&self) -> usize {
        self.routes.by_feature.len()
    }

    /// Points `scratch` at these caches (a no-op when it already is).
    #[inline]
    pub(crate) fn bind(&self, scratch: &mut BatchScratch) {
        if scratch.owner != self.id {
            self.rebind(scratch);
        }
    }

    #[cold]
    fn rebind(&self, scratch: &mut BatchScratch) {
        scratch.owner = self.id;
        scratch.left = NO_ROW;
        scratch.next_generation();
        // Per-plan state only ever grows: a plan beyond these caches' own
        // is never read, a stamp array is sized when its row begins.
        if scratch.stamps.len() < self.set_plans.len() {
            scratch.stamps.resize_with(self.set_plans.len(), Stamps::default);
        }
        scratch.left_sids.resize(self.seq.columns.len(), NULL_SID);
        scratch.words.grow(self.seq.columns.len());
        scratch.left_scalars.resize(self.typed_cols.len(), Scalar::Null);
        // A slot another caches' pair filled is older than any pair begun
        // from here on.
        let n = self.n_features();
        if scratch.slots.len() < n {
            scratch.slots.resize(n, PairSlot::default());
            scratch.counts.pulls.resize(n, 0);
            scratch.counts.by_pulled.resize(n + 1, 0);
        }
        let slots = self.routes.n_partitions * (scratch.reuse_mask + 1);
        if scratch.reuse.len() < slots {
            scratch.reuse.resize(slots, Slot::default());
        }
    }

    /// Makes left-table row `i` the scratch's prepared left row.
    fn prepare_left(&self, i: usize, scratch: &mut BatchScratch) {
        scratch.next_row();
        for (plan, st) in self.set_plans.iter().zip(&mut scratch.stamps) {
            let span = plan.left[i];
            st.left_len = span.len();
            if st.left_len.is_none() {
                continue;
            }
            st.begin(plan.id_space);
            for &id in plan.ids(span) {
                st.mark(id);
            }
        }
        for (sid, col) in scratch.left_sids.iter_mut().zip(&self.seq.columns) {
            *sid = col.left[i];
        }
        for (scalar, (left, _)) in scratch.left_scalars.iter_mut().zip(&self.typed_cols) {
            *scalar = left[i];
        }
        scratch.left = i;
    }

    /// The value of a non-exact sequence measure on two non-null strings:
    /// from the reuse table when this scratch already computed it for the
    /// same two sids in this generation, else from the kernel.
    fn seq_value(
        &self,
        (column, op, partition): (usize, SeqOp, usize),
        sids: (u32, u32),
        scratch: &mut BatchScratch,
    ) -> f64 {
        let BatchScratch {
            reuse, reuse_mask, generation, local, row_epoch, words, counts, kernel, kernel_calls,
            reused, ..
        } = scratch;
        let tiers = Tiers { corpus: &self.seq.space, local };
        let winkler = op == SeqOp::JaroWinkler;
        let key = u64::from(sids.0) << 32 | u64::from(sids.1);
        let hash = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        let slot = &mut reuse[partition * (*reuse_mask + 1) + (hash & *reuse_mask)];
        let v = if slot.generation == *generation && slot.sids == sids {
            *reused += 1;
            f64::from_bits(slot.bits)
        } else {
            let kernel_op = if winkler { SeqOp::Jaro } else { op };
            let v = kernel_op.score(tiers, sids, (words, column, *row_epoch), counts, kernel);
            *kernel_calls += 1;
            *slot = Slot { generation: *generation, sids, bits: v.to_bits() };
            v
        };
        if winkler {
            seq::jaro_winkler_boost(v, tiers.chars(sids.0), tiers.chars(sids.1))
        } else {
            v
        }
    }

    /// Right row `j` against the scratch's prepared left row, nothing of
    /// it computed yet.
    #[inline]
    pub(crate) fn view<'s>(&'s self, j: usize, scratch: &'s mut BatchScratch) -> PairView<'s> {
        debug_assert_eq!(scratch.owner, self.id, "no left row prepared against these caches");
        scratch.right = j;
        scratch.pulled = 0;
        scratch.pair_epoch = scratch.pair_epoch.wrapping_add(1);
        if scratch.pair_epoch == 0 {
            // Wrapped: a slot from 2³² pairs ago would read as this pair's.
            scratch.slots.fill(PairSlot::default());
            for st in &mut scratch.stamps {
                st.pair = 0;
            }
            scratch.pair_epoch = 1;
        }
        PairView { caches: self, scratch }
    }

    /// Computes feature `k` of the scratch's current pair into its slot.
    fn compute(&self, k: usize, scratch: &mut BatchScratch) -> f64 {
        let j = scratch.right;
        let value = match self.routes.by_feature[k] {
            Route::Dead => f64::NAN,
            Route::Set { plan, op } => {
                let (plan, st) = (&self.set_plans[plan], &mut scratch.stamps[plan]);
                let right = plan.right[j];
                match (st.left_len, right.len()) {
                    (Some(la), Some(lb)) => {
                        if st.pair != scratch.pair_epoch {
                            let mut inter = 0usize;
                            for &id in plan.ids(right) {
                                // An id the corpus produced after the row
                                // was prepared is beyond the stamps, and
                                // not in the row.
                                inter += usize::from(st.stamp.get(id as usize) == Some(&st.epoch));
                            }
                            (st.pair, st.inter) = (scratch.pair_epoch, inter);
                            scratch.counts.set_passes += 1;
                        }
                        op.score_counts(st.inter, la, lb)
                    }
                    _ => f64::NAN,
                }
            }
            Route::Seq { column, op, partition } => {
                let sids = (scratch.left_sids[column], self.seq.columns[column].right[j]);
                if sids.0 == NULL_SID || sids.1 == NULL_SID {
                    f64::NAN
                } else if op == SeqOp::Exact {
                    // Cells are interned: equal sids ⇔ equal strings.
                    f64::from(sids.0 == sids.1)
                } else {
                    self.seq_value((column, op, partition), sids, scratch)
                }
            }
            Route::Typed { column, op } => {
                op.score(scratch.left_scalars[column], self.typed_cols[column].1[j])
            }
        };
        scratch.slots[k] = PairSlot { pair: scratch.pair_epoch, value };
        scratch.counts.pulls[k] += 1;
        scratch.pulled += 1;
        value
    }
}

/// One candidate pair seen through the kernel: the scratch's prepared left
/// row against one right row, each feature computed the first time it is
/// pulled. Allocation-free once the scratch has met its strings: a
/// warmed scratch's buffers are sized by the longest string and the widest
/// word matrix it has seen, and kept.
pub struct PairView<'s> {
    caches: &'s FeatureCaches,
    scratch: &'s mut BatchScratch,
}

impl PairView<'_> {
    /// Feature `k` of the pair, as [`Feature::compute`]
    /// (crate::Feature::compute) returns it: computed on first touch, kept
    /// for the pair's later pulls. A dead feature — and a slot the feature
    /// set does not have — reads `NaN`.
    #[inline]
    pub fn pull(&mut self, k: usize) -> f64 {
        if k >= self.caches.n_features() {
            return f64::NAN;
        }
        let slot = self.scratch.slots[k];
        if slot.pair == self.scratch.pair_epoch {
            slot.value
        } else {
            self.caches.compute(k, self.scratch)
        }
    }

    /// Pulls every live feature into `out` (one slot per feature of the
    /// plan); dead features get `NaN`.
    #[inline]
    pub fn fill(mut self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.caches.n_features());
        out.fill(f64::NAN);
        for &k in &self.caches.routes.live {
            out[k] = self.pull(k);
        }
    }
}

impl Drop for PairView<'_> {
    /// The pair is over: its pull count is final.
    fn drop(&mut self) {
        if let Some(pairs) = self.scratch.counts.by_pulled.get_mut(self.scratch.pulled) {
            *pairs += 1;
        }
    }
}

/// A reusable batched extractor over two tables: caches built once, pairs
/// extracted many times (optionally restricted to a live-feature mask).
pub struct BatchExtractor {
    caches: FeatureCaches,
    /// Which rows the caches cover.
    used_left: Vec<bool>,
    used_right: Vec<bool>,
}

/// A resolved cache-build plan for one extractor: which plans the live
/// features need, split into independently buildable legs. Build every leg
/// `0..n_legs()` — in any order, on any thread — and hand them to
/// [`assemble`](ExtractorPlan::assemble) in leg order.
/// [`BatchExtractor::new`] does exactly that; the streaming matcher forks
/// the legs alongside its own set-up work.
pub struct ExtractorPlan<'t> {
    a: &'t Table,
    b: &'t Table,
    used_left: Vec<bool>,
    used_right: Vec<bool>,
    keys: PlanKeys,
    routes: Routes,
}

/// One built leg of an [`ExtractorPlan`].
pub struct CacheLeg(Leg);

enum Leg {
    Seq(SeqCaches),
    Typed(Vec<(Vec<Scalar>, Vec<Scalar>)>),
    /// `None`: left to [`ExtractorPlan::assemble`], which holds the corpora.
    Set(Option<SetPlan>),
}

/// Legs ahead of the per-set-plan legs: sequence caches, typed columns.
const FIXED_LEGS: usize = 2;

fn leg_mismatch() -> TableError {
    TableError::KeyViolation {
        column: "cache legs".to_string(),
        detail: "legs must be build_leg(0..n_legs()) in order".to_string(),
    }
}

impl<'t> ExtractorPlan<'t> {
    fn new(
        features: &FeatureSet,
        a: &'t Table,
        b: &'t Table,
        mask: &FeatureMask,
        (used_left, used_right): (Vec<bool>, Vec<bool>),
        shared_attrs: Option<(&str, &str)>,
    ) -> Result<ExtractorPlan<'t>, TableError> {
        let left_col = |attr: &str| a.schema().require(attr);
        let (keys, routes) =
            PlanKeys::resolve(features, mask, left_col, b.schema(), shared_attrs)?;
        Ok(ExtractorPlan { a, b, used_left, used_right, keys, routes })
    }

    /// How many legs [`build_leg`](ExtractorPlan::build_leg) accepts.
    pub fn n_legs(&self) -> usize {
        FIXED_LEGS + self.keys.set_keys.len()
    }

    /// Builds leg `i` (a pure function of the tables and `i`). Leg 0, the
    /// sequence caches, is usually the heaviest.
    ///
    /// # Panics
    /// If `i >= n_legs()`.
    pub fn build_leg(&self, i: usize) -> CacheLeg {
        let tables = (self.a, self.b);
        let used = (self.used_left.as_slice(), self.used_right.as_slice());
        let keys = &self.keys;
        CacheLeg(match i {
            0 => Leg::Seq(build_seq_caches(&keys.seq_keys, keys.with_words, tables, used)),
            1 => Leg::Typed(
                keys.typed_keys
                    .iter()
                    .map(|&(lcol, rcol, op)| {
                        (op.column(self.a, lcol, used.0), op.column(self.b, rcol, used.1))
                    })
                    .collect(),
            ),
            _ if keys.borrowing == Some(i - FIXED_LEGS) => Leg::Set(None),
            _ => Leg::Set(Some(build_set_plan(keys.set_keys[i - FIXED_LEGS], tables, used))),
        })
    }

    /// Assembles the extractor from its built legs. `shared` supplies the
    /// corpora for the plan [`BatchExtractor::plan`] was told it may
    /// borrow; without them (or when a referenced cell is not a string)
    /// that plan is tokenized here instead.
    pub fn assemble(
        self,
        legs: Vec<CacheLeg>,
        shared: Option<SharedWordColumns<'_>>,
    ) -> Result<BatchExtractor, TableError> {
        if let Some(sh) = &shared {
            if sh.left.len() != self.a.n_rows() || sh.right.len() != self.b.n_rows() {
                return Err(TableError::KeyViolation {
                    column: "shared word corpus".to_string(),
                    detail: format!(
                        "corpus rows ({}, {}) do not match table rows ({}, {})",
                        sh.left.len(),
                        sh.right.len(),
                        self.a.n_rows(),
                        self.b.n_rows()
                    ),
                });
            }
        }
        if legs.len() != self.n_legs() {
            return Err(leg_mismatch());
        }
        let tables = (self.a, self.b);
        let used = (self.used_left.as_slice(), self.used_right.as_slice());
        let mut legs = legs.into_iter();
        let (Some(CacheLeg(Leg::Seq(seq))), Some(CacheLeg(Leg::Typed(typed_cols)))) =
            (legs.next(), legs.next())
        else {
            return Err(leg_mismatch());
        };
        let mut set_plans = Vec::with_capacity(self.keys.set_keys.len());
        for (leg, &key) in legs.zip(&self.keys.set_keys) {
            let CacheLeg(Leg::Set(built)) = leg else {
                return Err(leg_mismatch());
            };
            set_plans.push(match built {
                Some(plan) => plan,
                None => shared
                    .as_ref()
                    .and_then(|sh| borrow_set_plan((key.0, key.1), tables, (sh.left, sh.right), used))
                    .unwrap_or_else(|| build_set_plan(key, tables, used)),
            });
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        Ok(BatchExtractor {
            caches: FeatureCaches { id, routes: self.routes, set_plans, seq, typed_cols },
            used_left: self.used_left,
            used_right: self.used_right,
        })
    }

    /// Builds the legs over `em_parallel` (inline when the referenced rows
    /// are too few to pay for threads) and assembles them.
    fn build(self, shared: Option<SharedWordColumns<'_>>) -> Result<BatchExtractor, TableError> {
        let rows = self.used_left.iter().chain(&self.used_right).filter(|&&u| u).count();
        let executor = if rows * self.n_legs() >= PARALLEL_THRESHOLD {
            Executor::current()
        } else {
            Executor::new(1)
        };
        let legs = executor.map_tasks(self.n_legs(), |i| self.build_leg(i));
        self.assemble(legs, shared)
    }
}

impl BatchExtractor {
    /// An extractor over **all** rows of both tables — the streaming match
    /// path, where every left row is driven through the join and any right
    /// row can surface as a candidate. `shared`, when given, lets
    /// lowercase word-level set features borrow the blocking join's
    /// already-tokenized corpora (falls back to owned tokenization per
    /// plan if a referenced cell is not a string).
    pub fn new(
        features: &FeatureSet,
        a: &Table,
        b: &Table,
        mask: &FeatureMask,
        shared: Option<SharedWordColumns<'_>>,
    ) -> Result<BatchExtractor, TableError> {
        let attrs = shared.as_ref().map(|sh| (sh.left_attr, sh.right_attr));
        BatchExtractor::plan(features, a, b, mask, attrs)?.build(shared)
    }

    /// The cache-build plan of [`BatchExtractor::new`], for callers that
    /// run the legs themselves. `shared_attrs` names the attribute pair
    /// whose corpora [`assemble`](ExtractorPlan::assemble) will be given.
    pub fn plan<'t>(
        features: &FeatureSet,
        a: &'t Table,
        b: &'t Table,
        mask: &FeatureMask,
        shared_attrs: Option<(&str, &str)>,
    ) -> Result<ExtractorPlan<'t>, TableError> {
        let used = (vec![true; a.n_rows()], vec![true; b.n_rows()]);
        ExtractorPlan::new(features, a, b, mask, used, shared_attrs)
    }

    /// An extractor whose caches cover only the rows `pairs` reference —
    /// the materialized-candidate-set path ([`extract_vectors`]
    /// (crate::extract::extract_vectors) and the bench's masked stage).
    /// Validates every pair's range up front.
    pub fn for_pairs(
        features: &FeatureSet,
        a: &Table,
        b: &Table,
        mask: &FeatureMask,
        pairs: &[Pair],
    ) -> Result<BatchExtractor, TableError> {
        // Caches are built only for rows some candidate pair actually
        // references — after blocking, that is often a small slice of
        // either table.
        let mut used = (vec![false; a.n_rows()], vec![false; b.n_rows()]);
        for p in pairs {
            match (used.0.get_mut(p.left), used.1.get_mut(p.right)) {
                (Some(l), Some(r)) => (*l, *r) = (true, true),
                _ => {
                    return Err(TableError::KeyViolation {
                        column: "pair".to_string(),
                        detail: format!("pair ({}, {}) out of range", p.left, p.right),
                    })
                }
            }
        }
        ExtractorPlan::new(features, a, b, mask, used, None)?.build(None)
    }

    /// Number of feature slots (live and dead).
    pub fn n_features(&self) -> usize {
        self.caches.n_features()
    }

    /// A scratch sized for this extractor (any [`BatchScratch`] will do;
    /// this one has already met it).
    pub fn scratch(&self) -> BatchScratch {
        let mut scratch = BatchScratch::new();
        self.caches.bind(&mut scratch);
        scratch
    }

    /// Pair `p` as a lazy view over `scratch`: nothing is computed until a
    /// feature is pulled. Fastest when consecutive pairs share their left
    /// row (it is prepared once); correct in any order.
    ///
    /// A row [`for_pairs`](BatchExtractor::for_pairs) was not given is not
    /// covered by the caches: debug builds assert coverage; release builds
    /// read such a row as all-null, so its string and typed features come
    /// out `NaN`.
    ///
    /// # Panics
    /// If `p` indexes past a table.
    #[inline]
    pub fn pair<'s>(&'s self, p: Pair, scratch: &'s mut BatchScratch) -> PairView<'s> {
        debug_assert!(
            self.used_left[p.left] && self.used_right[p.right],
            "pair ({}, {}) is outside the rows this extractor was built for",
            p.left,
            p.right
        );
        self.caches.bind(scratch);
        if scratch.left != p.left {
            self.caches.prepare_left(p.left, scratch);
        }
        self.caches.view(p.right, scratch)
    }

    /// Extracts one pair into `out` (length must equal
    /// [`n_features`](BatchExtractor::n_features)): live features get
    /// their value, dead features `NaN` — [`pair`](BatchExtractor::pair)
    /// with every live feature pulled.
    ///
    /// # Panics
    /// If `p` indexes past a table or `out` is shorter than the feature
    /// set.
    #[inline]
    pub fn extract_into(&self, p: Pair, scratch: &mut BatchScratch, out: &mut [f64]) {
        self.pair(p, scratch).fill(out);
    }

    /// Extracts every pair into one row-major matrix
    /// (`pairs.len() × n_features`), fanned out over fixed
    /// [`BATCH_CHUNK`]-pair chunks with a per-worker scratch. Bit-identical
    /// at any thread count. `a` and `b` must be the tables the extractor
    /// was built over (their row counts are checked).
    pub fn extract_matrix(&self, a: &Table, b: &Table, pairs: &[Pair]) -> Vec<f64> {
        assert_eq!(
            (a.n_rows(), b.n_rows()),
            (self.used_left.len(), self.used_right.len()),
            "extract_matrix called with other tables than the extractor was built over"
        );
        let nf = self.n_features();
        if nf == 0 || pairs.is_empty() {
            return Vec::new();
        }
        let chunks = pairs.len().div_ceil(BATCH_CHUNK);
        // Grain in chunks so one worker holds at least PARALLEL_THRESHOLD
        // (pair × feature) computations.
        let grain = (PARALLEL_THRESHOLD / (nf * BATCH_CHUNK)).max(1);
        let blocks = Executor::current().map_indexed_with(
            chunks,
            grain,
            || self.scratch(),
            |scratch, c| {
                let lo = c * BATCH_CHUNK;
                let hi = (lo + BATCH_CHUNK).min(pairs.len());
                let mut block = vec![0.0; (hi - lo) * nf];
                for (row, p) in block.chunks_exact_mut(nf).zip(&pairs[lo..hi]) {
                    self.extract_into(*p, scratch, row);
                }
                block
            },
        );
        blocks.concat()
    }
}

/// An already-tokenized column pair to share with set-feature extraction:
/// the blocking join's left/right [`TokenCorpus`] over `(left_attr,
/// right_attr)`. Corpora must cover every row of their table.
#[derive(Clone, Copy)]
pub struct SharedWordColumns<'c> {
    /// Left-table attribute the corpora tokenize.
    pub left_attr: &'c str,
    /// Right-table attribute the corpora tokenize.
    pub right_attr: &'c str,
    /// Tokenized left column (one row per table row).
    pub left: &'c TokenCorpus,
    /// Tokenized right column (one row per table row).
    pub right: &'c TokenCorpus,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_vectors;
    use crate::generate::{auto_features, FeatureOptions};
    use em_table::csv::read_str;
    use em_text::TokenCache;

    fn tables() -> (Table, Table) {
        let a = read_str(
            "A",
            "Title,Amount\nCorn Fungicide Guidelines,10\nSwamp Dodder Ecology,\nCorn  Fungicide?Guidelines,3\n,7\n",
        )
        .unwrap();
        let b = read_str(
            "B",
            "Title,Amount\ncorn fungicide guidelines,10\nTotally Different,5\n,\nDodder-ecology (swamp),1\n",
        )
        .unwrap();
        (a, b)
    }

    fn all_pairs(a: &Table, b: &Table) -> Vec<Pair> {
        (0..a.n_rows())
            .flat_map(|i| (0..b.n_rows()).map(move |j| Pair::new(i, j)))
            .collect()
    }

    /// `auto_features` plus every string measure on `Title` in both cases —
    /// the short test titles would otherwise never see Monge-Elkan.
    fn every_measure(a: &Table, b: &Table) -> FeatureSet {
        use crate::feature::{Feature, FeatureKind::*};
        let mut fs = auto_features(a, b, &FeatureOptions::default().with_case_insensitive());
        for kind in [
            ExactStr, LevSim, Jaro, JaroWinkler, NeedlemanWunsch, SmithWaterman, JaccardQgram3,
            JaccardWord, CosineWord, OverlapCoeffWord, DiceQgram3, MongeElkanJw, MongeElkanSoundex,
        ] {
            for lowercase in [false, true] {
                let f = Feature::new("Title", "Title", kind, lowercase);
                if !fs.features.contains(&f) {
                    fs.push(f);
                }
            }
        }
        fs
    }

    fn same(u: f64, v: f64) -> bool {
        u.to_bits() == v.to_bits() || (u.is_nan() && v.is_nan())
    }

    #[test]
    fn full_mask_matches_extract_vectors_bitwise() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
        let pairs = all_pairs(&a, &b);
        let reference = extract_vectors(&fs, &a, &b, &pairs).unwrap();
        let ex =
            BatchExtractor::new(&fs, &a, &b, &FeatureMask::full(fs.len()), None).unwrap();
        let mut scratch = ex.scratch();
        let mut out = vec![0.0; fs.len()];
        for (r, p) in pairs.iter().enumerate() {
            ex.extract_into(*p, &mut scratch, &mut out);
            for k in 0..fs.len() {
                assert!(
                    same(out[k], reference[r][k]),
                    "{} on {:?}: {} vs {}",
                    fs.features[k].name,
                    p,
                    out[k],
                    reference[r][k]
                );
            }
        }
        // The matrix form agrees too, at 1 and 4 threads.
        let m1 = ex.extract_matrix(&a, &b, &pairs);
        em_parallel::set_threads(4);
        let m4 = ex.extract_matrix(&a, &b, &pairs);
        em_parallel::set_threads(0);
        assert_eq!(m1.len(), pairs.len() * fs.len());
        for (u, v) in m1.iter().zip(&m4) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn masked_slots_are_nan_and_live_slots_exact() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
        let pairs = all_pairs(&a, &b);
        let reference = extract_vectors(&fs, &a, &b, &pairs).unwrap();
        // Keep every third feature live.
        let live: Vec<usize> = (0..fs.len()).step_by(3).collect();
        let mask = FeatureMask::from_live_indices(fs.len(), live.iter().copied());
        let ex = BatchExtractor::for_pairs(&fs, &a, &b, &mask, &pairs).unwrap();
        let mut scratch = ex.scratch();
        let mut out = vec![0.0; fs.len()];
        for (r, p) in pairs.iter().enumerate() {
            ex.extract_into(*p, &mut scratch, &mut out);
            for k in 0..fs.len() {
                if mask.is_live(k) {
                    assert!(same(out[k], reference[r][k]));
                } else {
                    assert!(out[k].is_nan(), "dead slot must be NaN");
                }
            }
        }
    }

    #[test]
    fn tiny_reuse_table_changes_nothing() {
        let (a, b) = tables();
        let fs = every_measure(&a, &b);
        let pairs = all_pairs(&a, &b);
        let ex =
            BatchExtractor::for_pairs(&fs, &a, &b, &FeatureMask::full(fs.len()), &pairs).unwrap();
        let mut big = ex.scratch();
        // One slot a measure: every new string pair evicts the last one.
        let mut tiny = BatchScratch::with_reuse_slots(1);
        let mut o1 = vec![0.0; fs.len()];
        let mut o2 = vec![0.0; fs.len()];
        for _ in 0..3 {
            for p in &pairs {
                ex.extract_into(*p, &mut big, &mut o1);
                ex.extract_into(*p, &mut tiny, &mut o2);
                for (k, f) in fs.features.iter().enumerate() {
                    let direct = f.compute(
                        a.get(p.left, &f.left_attr).unwrap(),
                        b.get(p.right, &f.right_attr).unwrap(),
                    );
                    assert!(
                        same(o1[k], direct) && same(o2[k], direct),
                        "reuse must be value-neutral ({} on {p:?})",
                        f.name
                    );
                }
            }
        }
        // Passes two and three find everything in the full-width table and
        // next to nothing in the one-slot table; neither table grows.
        let ((big_calls, big_reused), (tiny_calls, _)) = (big.seq_counts(), tiny.seq_counts());
        assert!(big_reused > 2 * big_calls, "{big_reused} reused vs {big_calls} calls");
        assert!(tiny_calls > 2 * big_calls, "one slot must keep evicting");
        assert_eq!(tiny.reuse.len(), ex.caches.routes.n_partitions);
        assert_eq!(big.reuse.len(), ex.caches.routes.n_partitions * REUSE_SLOTS);
        // The word matrix is the reuse table's business only through the
        // pulls that reach it: the one-slot run pulls Monge-Elkan in every
        // pass, and each pass builds the columns the full-width run built
        // in its first — a column a (left row, right word), never more.
        let (big, tiny) = (big.pull_counts(), tiny.pull_counts());
        assert!(tiny.me_pulls > 2 * big.me_pulls, "{} vs {}", tiny.me_pulls, big.me_pulls);
        assert!(big.me_cells > 0);
        assert_eq!((tiny.me_columns, tiny.me_cells), (3 * big.me_columns, 3 * big.me_cells));
    }

    /// Titles that exercise every shape a word-matrix column can take: a
    /// word repeated inside a title, one-word, wordless, empty and NULL
    /// cells, a word of 70 chars (two mask words), non-ASCII words whose
    /// lowercase is another string (`İ`, `Σ`) or the same one (`玉米`),
    /// titles that are their own lowercase (the `_lc` twin shares the sid),
    /// and words only one side holds.
    fn word_tables() -> (Table, Table) {
        let long = "Pneumonoultramicroscopicsilicovolcanoconiosisandthensomemorelettersxyz";
        assert_eq!(long.chars().count(), 70);
        let a = format!(
            "Title\ncorn corn fungicide corn\nCORN FUNGICIDE GUIDELINES\ncorn\n--\n\"\"\n\n\
             {long} corn\nİpm Σίτος 玉米 café\nσίτος ίpm 玉米\nzebra quixotic zebra\n"
        );
        let b = format!(
            "Title\nCorn Fungicide Guidelines\ncorn fungicide corn guidelines corn\nfungicide\n\
             ??\n\n{long}\n{} corn\nΣΊΤΟΣ İPM 玉米\n玉米 σίτος\nguidelines guidelines\n",
            long.to_uppercase()
        );
        (read_str("A", &a).unwrap(), read_str("B", &b).unwrap())
    }

    fn me_jw_features() -> FeatureSet {
        use crate::feature::{Feature, FeatureKind::*};
        let mut fs = FeatureSet::default();
        for kind in [MongeElkanJw, JaroWinkler, MongeElkanSoundex] {
            fs.push(Feature::new("Title", "Title", kind, false));
            fs.push(Feature::new("Title", "Title", kind, true));
        }
        fs
    }

    #[test]
    fn word_matrix_columns_equal_feature_compute() {
        let (a, b) = word_tables();
        let fs = me_jw_features();
        let mask = FeatureMask::full(fs.len());
        let check = |p: Pair, out: &[f64], what: &str| {
            for (k, f) in fs.features.iter().enumerate() {
                let direct = f.compute(
                    a.get(p.left, &f.left_attr).unwrap(),
                    b.get(p.right, &f.right_attr).unwrap(),
                );
                assert!(same(out[k], direct), "{what}: {} on {p:?}: {} vs {direct}", f.name, out[k]);
            }
        };
        let grouped = all_pairs(&a, &b);
        // Column-major: every pair switches the left row, and a left row
        // comes back after the others' columns have been built and killed.
        let mut alternating = grouped.clone();
        alternating.sort_by_key(|p| (p.right, p.left));
        let ex = BatchExtractor::new(&fs, &a, &b, &mask, None).unwrap();
        // One reuse slot: nearly every pull reaches the matrix.
        let mut scratch = BatchScratch::with_reuse_slots(1);
        let mut out = vec![0.0; fs.len()];
        for (n, p) in grouped.iter().chain(&alternating).chain(&grouped).enumerate() {
            if n % 37 == 36 {
                scratch.force_epoch_wrap();
            }
            ex.extract_into(*p, &mut scratch, &mut out);
            check(*p, &out, "table row");
        }
        assert!(scratch.row_epoch < 64, "left-row epoch restarted after the wraps");
        // Grouped order builds a column once per (left string, right
        // word); a left string of n words costs 2n kernel calls a column.
        let mut fresh = BatchScratch::with_reuse_slots(1);
        for p in &grouped {
            ex.extract_into(*p, &mut fresh, &mut out);
        }
        let counts = fresh.pull_counts().clone();
        assert!(counts.me_pulls > 0 && counts.me_columns > 0);
        assert!(counts.me_cells >= 2 * counts.me_columns, "a left word a column at least");
        for p in &grouped {
            ex.extract_into(*p, &mut fresh, &mut out);
        }
        // The second pass re-prepares every left row: columns are rebuilt,
        // one for one.
        assert_eq!(fresh.pull_counts().me_columns, 2 * counts.me_columns);

        // The same pairs with `a`'s rows arriving: the corpus has never
        // produced `zebra`, `quixotic`, `café` or the case-sensitive
        // capitals, so their rows are request-local words.
        let serve = crate::ServeExtractor::new(&fs, &b).unwrap();
        for (n, p) in alternating.iter().enumerate() {
            if n % 41 == 40 {
                scratch.force_epoch_wrap();
            }
            serve.prepare(&a, p.left, &mut scratch).unwrap();
            serve.candidate(p.right, &mut scratch).fill(&mut out);
            check(*p, &out, "arrival");
        }
    }

    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        let (a, b) = tables();
        let fs = every_measure(&a, &b);
        // Reversed, so the last left row (and the last wrap) has a title.
        let pairs: Vec<Pair> = all_pairs(&a, &b).into_iter().rev().collect();
        let ex = BatchExtractor::new(&fs, &a, &b, &FeatureMask::full(fs.len()), None).unwrap();
        let mut fresh = ex.scratch();
        let mut aged = ex.scratch();
        let (mut o1, mut o2) = (vec![0.0; fs.len()], vec![0.0; fs.len()]);
        for (n, p) in pairs.iter().enumerate() {
            if n % 2 == 0 {
                // Every left row gets stamped with epoch 1 — the epoch the
                // rows before it left behind.
                aged.force_epoch_wrap();
            }
            ex.extract_into(*p, &mut fresh, &mut o1);
            ex.extract_into(*p, &mut aged, &mut o2);
            for k in 0..fs.len() {
                assert!(same(o1[k], o2[k]), "{} on {:?}", fs.features[k].name, p);
            }
        }
        assert!(aged.stamps.iter().all(|st| st.epoch < 8), "epochs restarted after the wrap");
    }

    #[test]
    fn pair_epoch_wrap_forgets_the_first_pairs_intersection() {
        // The first pair of a scratch runs its intersection pass at pair
        // epoch 1; after a wrap the next pair is epoch 1 again and must
        // not take that count for its own.
        let (a, b) = tables();
        let fs = every_measure(&a, &b);
        let ex = BatchExtractor::new(&fs, &a, &b, &FeatureMask::full(fs.len()), None).unwrap();
        let k = fs.names().iter().position(|n| n == "Title_jac_q3_lc").unwrap();
        let mut scratch = ex.scratch();
        assert_eq!(ex.pair(Pair::new(0, 0), &mut scratch).pull(k), 1.0);
        scratch.force_epoch_wrap();
        let direct = fs.features[k].compute(a.get(0, "Title").unwrap(), b.get(1, "Title").unwrap());
        assert!(direct < 1.0);
        assert!(same(ex.pair(Pair::new(0, 1), &mut scratch).pull(k), direct));
        assert_eq!(scratch.pull_counts().set_passes, 2);
    }

    #[test]
    fn one_scratch_serves_two_extractors_in_turn() {
        // Same features, other tables: every id space collides.
        let (a, b) = tables();
        let fs = every_measure(&a, &b);
        let mask = FeatureMask::full(fs.len());
        let ex1 = BatchExtractor::new(&fs, &a, &b, &mask, None).unwrap();
        let ex2 = BatchExtractor::new(&fs, &b, &a, &mask, None).unwrap();
        let mut scratch = ex1.scratch();
        let mut out = vec![0.0; fs.len()];
        for _ in 0..2 {
            for p in all_pairs(&a, &b) {
                for (ex, (l, r), p) in [(&ex1, (&a, &b), p), (&ex2, (&b, &a), Pair::new(p.right, p.left))] {
                    ex.extract_into(p, &mut scratch, &mut out);
                    for (k, f) in fs.features.iter().enumerate() {
                        let direct = f.compute(
                            l.get(p.left, &f.left_attr).unwrap(),
                            r.get(p.right, &f.right_attr).unwrap(),
                        );
                        assert!(same(out[k], direct), "{} on {p:?}", f.name);
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the rows")]
    fn uncovered_row_is_caught_in_debug_builds() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default());
        let mask = FeatureMask::full(fs.len());
        let ex = BatchExtractor::for_pairs(&fs, &a, &b, &mask, &[Pair::new(0, 0)]).unwrap();
        ex.extract_into(Pair::new(1, 1), &mut ex.scratch(), &mut vec![0.0; fs.len()]);
    }

    #[test]
    fn shared_word_corpora_match_owned_tokenization() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
        let pairs = all_pairs(&a, &b);
        let cache = TokenCache::for_blocking();
        let left = TokenCorpus::from_column(
            &cache,
            (0..a.n_rows()).map(|i| a.get(i, "Title").and_then(|v| v.as_str())),
        );
        let right = TokenCorpus::from_column(
            &cache,
            (0..b.n_rows()).map(|i| b.get(i, "Title").and_then(|v| v.as_str())),
        );
        let shared = SharedWordColumns {
            left_attr: "Title",
            right_attr: "Title",
            left: &left,
            right: &right,
        };
        let mask = FeatureMask::full(fs.len());
        let owned = BatchExtractor::new(&fs, &a, &b, &mask, None).unwrap();
        let borrowed = BatchExtractor::new(&fs, &a, &b, &mask, Some(shared)).unwrap();
        // A plan told to expect corpora it is then not given tokenizes.
        let promised = BatchExtractor::plan(&fs, &a, &b, &mask, Some(("Title", "Title"))).unwrap();
        let legs = (0..promised.n_legs()).map(|i| promised.build_leg(i)).collect();
        let fell_back = promised.assemble(legs, None).unwrap();
        let mo = owned.extract_matrix(&a, &b, &pairs);
        let mb = borrowed.extract_matrix(&a, &b, &pairs);
        let mf = fell_back.extract_matrix(&a, &b, &pairs);
        for (k, ((u, v), w)) in mo.iter().zip(&mb).zip(&mf).enumerate() {
            assert!(same(*u, *v) && same(*u, *w), "slot {k}: owned {u}, shared {v}, fallback {w}");
        }
    }

    #[test]
    fn shared_corpora_shape_mismatch_is_an_error() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
        let cache = TokenCache::for_blocking();
        let too_short = TokenCorpus::from_column(&cache, [Some("corn")]);
        let shared = SharedWordColumns {
            left_attr: "Title",
            right_attr: "Title",
            left: &too_short,
            right: &too_short,
        };
        assert!(BatchExtractor::new(&fs, &a, &b, &FeatureMask::full(fs.len()), Some(shared))
            .is_err());
    }

    #[test]
    fn legs_out_of_order_are_an_error() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default());
        let plan = BatchExtractor::plan(&fs, &a, &b, &FeatureMask::full(fs.len()), None).unwrap();
        let mut legs: Vec<CacheLeg> = (0..plan.n_legs()).map(|i| plan.build_leg(i)).collect();
        legs.swap(0, 1);
        assert!(plan.assemble(legs, None).is_err());
    }
}
