//! Model-aware feature masks: which features of a plan an extractor can
//! compute. Dead features get no cache plan and read as `NaN` — what mean
//! imputation replaces with an unread column mean.

/// Which features of a plan are *live* — the ones the fitted model can
/// read (rules work on row keys, never on a feature vector). Dead features
/// get no cache and read as `NaN`.
#[derive(Debug, Clone)]
pub struct FeatureMask {
    live: Vec<bool>,
    n_live: usize,
}

impl FeatureMask {
    /// A mask over `n_features` slots with exactly the given indices live.
    /// Out-of-range indices are ignored.
    pub fn from_live_indices(
        n_features: usize,
        indices: impl IntoIterator<Item = usize>,
    ) -> FeatureMask {
        let mut live = vec![false; n_features];
        for i in indices {
            if let Some(slot) = live.get_mut(i) {
                *slot = true;
            }
        }
        let n_live = live.iter().filter(|&&b| b).count();
        FeatureMask { live, n_live }
    }

    /// The mask that keeps every feature — batch semantics.
    pub fn full(n_features: usize) -> FeatureMask {
        FeatureMask { live: vec![true; n_features], n_live: n_features }
    }

    /// True when feature `k` must be computed.
    pub fn is_live(&self, k: usize) -> bool {
        self.live.get(k).copied().unwrap_or(false)
    }

    /// Number of live features.
    pub fn n_live(&self) -> usize {
        self.n_live
    }

    /// Total number of feature slots.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when the mask has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// True when at least one feature is dead — masking actually prunes.
    pub fn is_strict_subset(&self) -> bool {
        self.n_live < self.live.len()
    }

    /// Iterates the live feature indices in ascending order.
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_accessors_are_consistent() {
        let mask = FeatureMask::from_live_indices(5, [0, 3, 3, 9]);
        assert_eq!(mask.len(), 5);
        assert_eq!(mask.n_live(), 2);
        assert!(mask.is_live(0) && mask.is_live(3));
        assert!(!mask.is_live(1) && !mask.is_live(9));
        assert!(mask.is_strict_subset());
        assert_eq!(mask.live_indices().collect::<Vec<_>>(), vec![0, 3]);
        let full = FeatureMask::full(4);
        assert!(!full.is_strict_subset());
        assert_eq!(full.n_live(), 4);
        assert!(!full.is_empty());
    }
}
