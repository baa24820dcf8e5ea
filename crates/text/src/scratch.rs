//! Thread-local scratch arena for the allocation-free sequence kernels.
//!
//! Every [`crate::seq`] kernel needs working memory — DP rows, the
//! pattern-mask table of the two bit-parallel kernels, Jaro match-flag
//! words, decoded `char` buffers. Allocating those per call dominates the
//! cost of comparing short strings (a feature-extraction run makes millions
//! of kernel calls on ~40-char titles). A [`KernelScratch`] owns one
//! reusable copy of every buffer; kernels `clear()`/`resize()` what they
//! use, so after the first call at a given string length the hot path
//! touches the allocator not at all.
//!
//! [`PatternMasks`] is the one table both bit-parallel kernels read: Myers
//! Levenshtein ([`crate::myers`]) and Jaro ([`crate::seq::jaro_chars`])
//! each start by asking "at which positions of this string does char `c`
//! occur" as a bitset. The scratch holds one, rebuilt by every call that
//! uses it; a caller that compares many strings against one — or one
//! against each of a fixed few — builds its own once
//! ([`crate::seq::jaro_chars_masked`]).
//!
//! Lifetime rules:
//!
//! - A scratch is **not** a cache: no kernel result may depend on what a
//!   previous call left behind. Every kernel fully re-initializes the
//!   buffers it reads.
//! - Buffers only grow; dropping the scratch frees everything. One scratch
//!   sized by the longest string seen is the steady state.
//! - `KernelScratch` is `Send` but not `Sync`: share one per thread, never
//!   across threads. `with_scratch` hands out the calling thread's
//!   instance; re-entrant use (a kernel invoked from inside another
//!   kernel's closure, e.g. a Monge-Elkan inner measure) falls back to a
//!   fresh arena instead of panicking.

use std::cell::RefCell;
use std::collections::HashMap;

/// Bits per mask word.
pub(crate) const WORD: usize = 64;

/// A pattern-mask table: for each char `c`, a bit per position of a string
/// holding `c`. ASCII chars index a dense table; anything else goes through
/// a small slot map. A char the string does not hold reads as no bits.
///
/// A table holds one string ([`build`](PatternMasks::build)) or several
/// ([`build_each`](PatternMasks::build_each)), each in a *lane* of its own:
/// `⌈longest/64⌉` words a lane, a char's lanes side by side, so looking one
/// char up in every string of the table touches one run of memory.
#[derive(Debug, Default)]
pub struct PatternMasks {
    /// Words per lane: `⌈longest string/64⌉`.
    lane_words: usize,
    /// Words per char: lanes × `lane_words`.
    words: usize,
    /// `ascii[c * words + w]`.
    ascii: Vec<u64>,
    /// Slot assignment and masks (`other_bits[slot * words + w]`) of the
    /// strings' non-ASCII chars.
    other: HashMap<char, usize>,
    other_bits: Vec<u64>,
}

impl PatternMasks {
    /// An empty table; building sizes it.
    pub fn new() -> PatternMasks {
        PatternMasks::default()
    }

    /// Rebuilds the table from `pat` alone (lane 0); nothing of what it
    /// held is left.
    pub fn build(&mut self, pat: &[char]) {
        self.build_each(std::iter::once(pat));
    }

    /// Rebuilds the table from `pats`, the `k`-th in lane `k`; nothing of
    /// what it held is left.
    pub fn build_each<'a>(&mut self, pats: impl Iterator<Item = &'a [char]> + Clone) {
        let lanes = pats.clone().count();
        self.lane_words = pats.clone().map(|pat| pat.len().div_ceil(WORD)).max().unwrap_or(0);
        let words = lanes * self.lane_words;
        self.words = words;
        self.ascii.clear();
        self.ascii.resize(128 * words, 0);
        self.other.clear();
        self.other_bits.clear();
        for (lane, pat) in pats.enumerate() {
            for (i, &c) in pat.iter().enumerate() {
                let (w, bit) = (lane * self.lane_words + i / WORD, 1u64 << (i % WORD));
                let u = c as usize;
                if u < 128 {
                    self.ascii[u * words + w] |= bit;
                } else {
                    let next = self.other.len();
                    let slot = *self.other.entry(c).or_insert(next);
                    if slot == next {
                        self.other_bits.resize((next + 1) * words, 0);
                    }
                    self.other_bits[slot * words + w] |= bit;
                }
            }
        }
    }

    /// The first word of `lane`, checked to hold a string of `len` chars.
    ///
    /// # Panics
    /// If the table has no such lane or its lanes are too narrow.
    pub(crate) fn lane(&self, lane: usize, len: usize) -> usize {
        assert!(
            (lane + 1) * self.lane_words <= self.words && len <= self.lane_words * WORD,
            "pattern masks hold no lane {lane} of {len} chars"
        );
        lane * self.lane_words
    }

    /// Word `w` of `c`'s masks: bit `i` is set iff char `64·(w − first) + i`
    /// of the string whose lane starts at word `first` is `c`.
    #[inline]
    pub(crate) fn get(&self, c: char, w: usize) -> u64 {
        let u = c as usize;
        if u < 128 {
            self.ascii[u * self.words + w]
        } else {
            self.other.get(&c).map_or(0, |&slot| self.other_bits[slot * self.words + w])
        }
    }
}

/// Reusable working memory for the sequence kernels. See the module docs
/// for lifetime rules; construct one per thread (the `&str` entry points of
/// [`crate::seq`] share the calling thread's own).
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Decoded-char buffers backing the `&str` entry points.
    chars_a: Vec<char>,
    chars_b: Vec<char>,
    /// Float DP rows of Needleman-Wunsch and Smith-Waterman: previous and
    /// current.
    pub(crate) frow0: Vec<f64>,
    pub(crate) frow1: Vec<f64>,
    /// Pattern masks of the string the running kernel built them from
    /// (Myers: the trimmed shorter side; Jaro: the right-hand string).
    pub(crate) masks: PatternMasks,
    /// Jaro match-flag words of strings over 64 chars: one bit per left
    /// char, one per right char.
    pub(crate) flags_a: Vec<u64>,
    pub(crate) flags_b: Vec<u64>,
    /// Multi-block Myers vertical delta vectors.
    pub(crate) vp: Vec<u64>,
    pub(crate) vn: Vec<u64>,
}

impl KernelScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> KernelScratch {
        KernelScratch::default()
    }

    /// Moves the two decode buffers out, filled with the chars of `a`/`b`.
    /// Taking them (rather than borrowing) lets the caller keep using the
    /// rest of the scratch mutably; pair with [`KernelScratch::return_decoded`].
    pub(crate) fn take_decoded(&mut self, a: &str, b: &str) -> (Vec<char>, Vec<char>) {
        let mut ca = std::mem::take(&mut self.chars_a);
        let mut cb = std::mem::take(&mut self.chars_b);
        ca.clear();
        ca.extend(a.chars());
        cb.clear();
        cb.extend(b.chars());
        (ca, cb)
    }

    /// Returns buffers taken by [`KernelScratch::take_decoded`] so their
    /// capacity is reused by the next call.
    pub(crate) fn return_decoded(&mut self, ca: Vec<char>, cb: Vec<char>) {
        self.chars_a = ca;
        self.chars_b = cb;
    }
}

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
}

/// Runs `f` with the calling thread's [`KernelScratch`].
///
/// Re-entrant calls (e.g. a composite measure whose inner function is a
/// kernel wrapper) get a fresh, short-lived arena rather than a panic.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut KernelScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_round_trip_reuses_capacity() {
        let mut s = KernelScratch::new();
        let (ca, cb) = s.take_decoded("abc", "de");
        assert_eq!(ca, vec!['a', 'b', 'c']);
        assert_eq!(cb, vec!['d', 'e']);
        s.return_decoded(ca, cb);
        let (ca2, _cb2) = s.take_decoded("x", "yz");
        assert_eq!(ca2, vec!['x']);
        assert!(ca2.capacity() >= 3, "capacity must be retained");
    }

    #[test]
    fn with_scratch_is_reentrant() {
        let out = with_scratch(|outer| {
            let (ca, cb) = outer.take_decoded("aa", "ab");
            let inner = with_scratch(|s| crate::seq::levenshtein_chars(s, &ca, &cb));
            outer.return_decoded(ca, cb);
            inner
        });
        assert_eq!(out, 1);
    }
}
