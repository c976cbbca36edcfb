//! Exact state fingerprints and deterministic bit mixers.
//!
//! The simulator's hyperperiod compression compares the *complete*
//! engine state at hyperperiod boundaries: every part appends its
//! (boundary-normalised) state to a [`Fingerprint`], and two boundaries
//! are equivalent **iff their word streams are equal**. Equality is
//! exact — no hashing is involved in the comparison, so a fast-forward
//! can never be triggered by a hash collision.
//!
//! [`mix64`] and [`SplitMix64`] provide the *stateless* pseudo-random
//! streams the fuzzed execution order draws from: every same-instant
//! batch derives its permutation purely from `(order seed, position in
//! the hyperperiod, phase, batch size)`, never from a sequential RNG,
//! so equal boundary states evolve identically and compression stays
//! sound under fuzzing.

use crate::time::Time;

/// SplitMix64 finalizer: a cheap, well-dispersed `u64 -> u64` mix.
///
/// Used to fold several seed components into one without a sequential
/// RNG state (see the module docs).
#[must_use]
pub const fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a slice of words into a single seed via iterated [`mix64`].
#[must_use]
pub fn mix_words(words: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3; // pi, for lack of an opinion
    for &w in words {
        acc = mix64(acc ^ w);
    }
    acc
}

/// Folds a byte string via [`mix_words`]: its length, then its bytes
/// eight to a little-endian word, the last word zero-padded.
#[must_use]
pub fn mix_bytes(bytes: &[u8]) -> u64 {
    let mut words: Vec<u64> = Vec::with_capacity(bytes.len() / 8 + 2);
    words.push(bytes.len() as u64);
    words.extend(bytes.chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    }));
    mix_words(&words)
}

/// The SplitMix64 generator: a tiny deterministic `u64` stream for
/// seeded shuffles. Unlike the `rand` shim this is `const`-friendly,
/// dependency-free and cheap enough to re-seed per event batch.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded from `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// An unbiased-enough draw in `0..n` (`n > 0`) for shuffle indices.
    pub fn next_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Modulo bias is ~n/2^64 — irrelevant for permutation fuzzing.
        usize::try_from(self.next_u64() % (n as u64)).unwrap_or(0)
    }
}

/// An exact engine-state fingerprint: an append-only `u64` word stream.
///
/// Producers must append the same state in the same order for two
/// fingerprints to be comparable; all times must be normalised relative
/// to the boundary they are taken at, and all hyperperiod indices
/// relative to the boundary's index, so that identical steady-state
/// cycles produce identical streams at different absolute times.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    words: Vec<u64>,
}

impl Fingerprint {
    /// An empty fingerprint.
    #[must_use]
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Appends one raw word.
    pub fn push(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Appends a signed value (bit-cast; exact round trip).
    pub fn push_i64(&mut self, value: i64) {
        self.words.push(value as u64);
    }

    /// Appends a (boundary-relative) time.
    pub fn push_time(&mut self, value: Time) {
        self.push_i64(value.as_ns());
    }

    /// Appends a length/index.
    pub fn push_usize(&mut self, value: usize) {
        self.words.push(value as u64);
    }

    /// The accumulated words.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Consumes the fingerprint into its word stream (map key form).
    #[must_use]
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_disperses_and_is_deterministic() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // different word orders give different folds
        assert_ne!(mix_words(&[1, 2]), mix_words(&[2, 1]));
        assert_eq!(mix_words(&[]), mix_words(&[]));
        // a byte string is its length, then little-endian words
        assert_eq!(
            mix_bytes(b"abcdefghi"),
            mix_words(&[9, u64::from_le_bytes(*b"abcdefgh"), u64::from(b'i')])
        );
    }

    #[test]
    fn splitmix_streams_are_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
        for n in 1..10 {
            assert!(a.next_below(n) < n);
        }
    }

    #[test]
    fn fingerprints_compare_exactly() {
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        a.push_time(Time::from_us(5.0));
        a.push_i64(-3);
        b.push_time(Time::from_us(5.0));
        b.push_i64(-3);
        assert_eq!(a, b);
        b.push(0);
        assert_ne!(a, b);
        assert_eq!(a.words().len(), 2);
        // exact i64 round trip through the bit cast
        assert_eq!(a.words()[1] as i64, -3);
    }
}
