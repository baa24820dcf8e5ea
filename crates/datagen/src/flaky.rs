//! A fault-injecting wrapper around the labeling oracle.
//!
//! The paper's labeling rota was a shared cloud tool that only one person
//! could use at a time, plus spreadsheets and email — in production terms,
//! an *unreliable external dependency*. [`FlakyOracle`] models that: it
//! wraps an [`Oracle`] and makes individual labeling calls fail with
//! transient faults (unavailability, timeouts) at configured rates, fully
//! deterministically in the fault seed and the pair identity, so that
//! retry/backoff logic upstream can be tested without real flakiness.
//!
//! [`LabelSource`] is the abstraction every labeling loop labels through:
//! the plain [`Oracle`] implements it infallibly; [`FlakyOracle`] implements
//! it with injected faults. Retrying, degrading and the ledger of what was
//! absorbed live in one place upstream, `em_core::labeling::label_round`.

use crate::oracle::{pair_draw, Oracle, PairView};
use em_estimate::Label;
use std::fmt;

/// A transient fault raised by a labeling backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleFault {
    /// The labeling service was unreachable for this attempt.
    Unavailable {
        /// Zero-based attempt index that failed.
        attempt: u32,
    },
    /// The labeling call timed out for this attempt.
    Timeout {
        /// Zero-based attempt index that failed.
        attempt: u32,
    },
}

impl fmt::Display for OracleFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleFault::Unavailable { attempt } => {
                write!(f, "oracle unavailable (attempt {attempt})")
            }
            OracleFault::Timeout { attempt } => write!(f, "oracle timeout (attempt {attempt})"),
        }
    }
}

impl std::error::Error for OracleFault {}

/// A labeling backend: produces `(first_pass, settled)` labels for a pair,
/// or a transient [`OracleFault`] the caller may retry.
///
/// `attempt` is the zero-based retry attempt; deterministic backends fault
/// (or not) as a pure function of the pair identity and the attempt, so
/// identical runs observe identical fault sequences.
pub trait LabelSource {
    /// Tries to label one pair. `first_round` selects the mistake-prone
    /// initial behaviour for the first element of the returned tuple.
    fn try_label(
        &self,
        view: &PairView<'_>,
        first_round: bool,
        attempt: u32,
    ) -> Result<(Label, Label), OracleFault>;
}

impl LabelSource for Oracle<'_> {
    fn try_label(
        &self,
        view: &PairView<'_>,
        first_round: bool,
        _attempt: u32,
    ) -> Result<(Label, Label), OracleFault> {
        let settled = self.label(view);
        let first = if first_round { self.label_initial(view) } else { settled };
        Ok((first, settled))
    }
}

/// Fault rates of a [`FlakyOracle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlakyConfig {
    /// Seed for the per-(pair, attempt) fault draws, independent of the
    /// oracle's labeling seed.
    pub seed: u64,
    /// P(the service is unavailable) per attempt.
    pub p_unavailable: f64,
    /// P(the call times out) per attempt (drawn after availability).
    pub p_timeout: f64,
    /// Attempts at or beyond this index never fault — bounds the worst
    /// case so a retrying caller always terminates.
    pub max_fault_attempts: u32,
}

impl Default for FlakyConfig {
    fn default() -> Self {
        FlakyConfig { seed: 0xFA01, p_unavailable: 0.1, p_timeout: 0.05, max_fault_attempts: 8 }
    }
}

/// Fault-draw channels, offset well past the [`Oracle`]'s own channels.
const CH_UNAVAILABLE: u32 = 101;
const CH_TIMEOUT: u32 = 102;

/// An [`Oracle`] behind an unreliable transport.
#[derive(Debug, Clone)]
pub struct FlakyOracle<'a> {
    inner: Oracle<'a>,
    cfg: FlakyConfig,
}

impl<'a> FlakyOracle<'a> {
    /// Wraps an oracle with the given fault rates.
    pub fn new(inner: Oracle<'a>, cfg: FlakyConfig) -> FlakyOracle<'a> {
        FlakyOracle { inner, cfg }
    }

    /// The wrapped oracle (faultless access, e.g. for ground-truth checks).
    pub fn inner(&self) -> &Oracle<'a> {
        &self.inner
    }

    /// Whether the given attempt on the given pair faults, and how.
    /// Deterministic: the same `(pair, attempt)` always answers the same.
    pub fn fault_for(&self, view: &PairView<'_>, attempt: u32) -> Option<OracleFault> {
        if attempt >= self.cfg.max_fault_attempts {
            return None;
        }
        // Mix the attempt into the accession side so each retry gets an
        // independent draw while staying a pure function of its inputs.
        let key = format!("{}#{attempt}", view.accession);
        if pair_draw(self.cfg.seed, view.award_number, &key, CH_UNAVAILABLE)
            < self.cfg.p_unavailable
        {
            return Some(OracleFault::Unavailable { attempt });
        }
        if pair_draw(self.cfg.seed, view.award_number, &key, CH_TIMEOUT) < self.cfg.p_timeout {
            return Some(OracleFault::Timeout { attempt });
        }
        None
    }
}

impl LabelSource for FlakyOracle<'_> {
    fn try_label(
        &self,
        view: &PairView<'_>,
        first_round: bool,
        attempt: u32,
    ) -> Result<(Label, Label), OracleFault> {
        if let Some(fault) = self.fault_for(view, attempt) {
            return Err(fault);
        }
        self.inner.try_label(view, first_round, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::GroundTruth;
    use crate::OracleConfig;

    fn view<'a>(award: &'a str, acc: &'a str) -> PairView<'a> {
        PairView {
            award_number: award,
            accession: acc,
            left_title: "Corn Fungicide Guidelines",
            right_title: "Corn Fungicide Guidelines",
            right_award_number: None,
            right_project_number: None,
        }
    }

    #[test]
    fn plain_oracle_never_faults() {
        let t = GroundTruth::default();
        let o = Oracle::new(&t, OracleConfig::default());
        for attempt in 0..20 {
            assert!(o.try_label(&view("10.200 W1", "100"), false, attempt).is_ok());
        }
    }

    #[test]
    fn faults_are_deterministic_and_attempt_dependent() {
        let t = GroundTruth::default();
        let o = Oracle::new(&t, OracleConfig::default());
        let cfg = FlakyConfig { p_unavailable: 0.5, p_timeout: 0.2, ..Default::default() };
        let flaky = FlakyOracle::new(o, cfg);
        let mut faulted = 0;
        for i in 0..50 {
            let award = format!("10.200 W{i}");
            let v = view(&award, "100");
            let a = flaky.fault_for(&v, 0);
            let b = flaky.fault_for(&v, 0);
            assert_eq!(a, b, "fault draw must be deterministic");
            if a.is_some() {
                faulted += 1;
            }
        }
        assert!(faulted > 10, "with p=0.5+0.2 most pairs should fault, got {faulted}");
        assert!(faulted < 50, "some pairs must succeed first try");
    }

    #[test]
    fn fault_cap_guarantees_progress() {
        let t = GroundTruth::default();
        let o = Oracle::new(&t, OracleConfig::default());
        let cfg = FlakyConfig {
            p_unavailable: 1.0,
            p_timeout: 1.0,
            max_fault_attempts: 3,
            ..Default::default()
        };
        let flaky = FlakyOracle::new(o, cfg);
        let v = view("10.200 W1", "100");
        for attempt in 0..3 {
            assert!(flaky.try_label(&v, false, attempt).is_err());
        }
        assert!(flaky.try_label(&v, false, 3).is_ok(), "attempts past the cap must succeed");
    }

    #[test]
    fn successful_attempts_match_the_inner_oracle() {
        let mut t = GroundTruth::default();
        t.add_match("10.200 2008-11111-22222", "200001");
        let o = Oracle::new(&t, OracleConfig::default());
        let flaky = FlakyOracle::new(o.clone(), FlakyConfig::default());
        let v = view("10.200 2008-11111-22222", "200001");
        // Find a non-faulting attempt (the cap guarantees one exists).
        let attempt = (0..).find(|&a| flaky.fault_for(&v, a).is_none()).unwrap();
        assert_eq!(
            flaky.try_label(&v, false, attempt).unwrap(),
            o.try_label(&v, false, attempt).unwrap()
        );
    }
}
