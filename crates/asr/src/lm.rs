//! A bigram language model with Zipf unigram frequencies.
//!
//! Word `w0` is the most frequent word, `w1` the next, and so on (rank =
//! id), with Zipf-distributed unigram mass. Each word additionally has a
//! small set of *likely successors* carrying a fixed share of the
//! transition mass — the synthetic analogue of collocations — and the
//! remaining mass backs off to the unigram distribution.
//!
//! The decoder exploits exactly the structure real decoders do: at a word
//! boundary it expands the likely successors plus the top unigram words,
//! and how many of those it considers is one of the pruning knobs that
//! create the accuracy-latency trade-off.

use crate::lexicon::WordId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tt_stats::sampling::Zipf;

/// Share of transition mass given to the likely-successor set.
const SUCCESSOR_MASS: f64 = 0.7;

/// A bigram language model over a vocabulary of `n` words.
///
/// ```
/// use tt_asr::lm::LanguageModel;
/// use tt_asr::WordId;
///
/// let lm = LanguageModel::synthesize(1000, 16, 42);
/// let lp = lm.log_prob(Some(WordId(0)), WordId(1));
/// assert!(lp < 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LanguageModel {
    unigram: Zipf,
    /// Per-word likely successors with their conditional probabilities
    /// (sums to `SUCCESSOR_MASS` per word).
    successors: Vec<Vec<(WordId, f64)>>,
    /// `ln(unigram)` per word: the sentence-start log-probability.
    ln_unigram: Vec<f64>,
    /// `ln((1 - SUCCESSOR_MASS) · unigram)` per word: the log-probability
    /// of any transition outside the previous word's successor set, which
    /// is nearly every one the decoder's fast match asks for.
    ln_backoff: Vec<f64>,
}

impl LanguageModel {
    /// Build a model over `vocab` words, each with `branching` likely
    /// successors, from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `vocab == 0` or `branching == 0`.
    pub fn synthesize(vocab: usize, branching: usize, seed: u64) -> Self {
        assert!(vocab > 0, "vocabulary must be non-empty");
        assert!(branching > 0, "branching must be positive");
        let unigram = Zipf::new(vocab, 1.3).expect("validated parameters");
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xC0FF_EE00));
        let branching = branching.min(vocab);
        let successors = (0..vocab)
            .map(|_| {
                let mut set = Vec::with_capacity(branching);
                let mut weight_total = 0.0;
                for k in 0..branching {
                    // Successors are drawn from the unigram distribution so
                    // frequent words are frequent continuations too.
                    let next = WordId(unigram.sample(&mut rng) as u32);
                    let weight = 1.0 / (k + 1) as f64;
                    weight_total += weight;
                    set.push((next, weight));
                }
                for (_, w) in &mut set {
                    *w = *w / weight_total * SUCCESSOR_MASS;
                }
                set
            })
            .collect();
        let ln_unigram = (0..vocab).map(|w| unigram.pmf(w).ln()).collect();
        let ln_backoff = (0..vocab)
            .map(|w| ((1.0 - SUCCESSOR_MASS) * unigram.pmf(w)).ln())
            .collect();
        LanguageModel {
            unigram,
            successors,
            ln_unigram,
            ln_backoff,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.unigram.len()
    }

    /// Unigram probability of a word.
    pub fn unigram_prob(&self, word: WordId) -> f64 {
        self.unigram.pmf(word.index())
    }

    /// Log probability of `next` given the previous word (`None` at
    /// sentence start, which uses the unigram distribution).
    pub fn log_prob(&self, prev: Option<WordId>, next: WordId) -> f64 {
        match prev {
            None => self.ln_unigram[next.index()],
            Some(prev) => {
                let direct: f64 = self.successors[prev.index()]
                    .iter()
                    .filter(|(w, _)| *w == next)
                    .map(|(_, p)| *p)
                    .sum();
                if direct > 0.0 {
                    let backoff = (1.0 - SUCCESSOR_MASS) * self.unigram_prob(next);
                    (direct + backoff).ln()
                } else {
                    self.backoff_log_prob(next)
                }
            }
        }
    }

    /// Log probability of `next` after any word that does not list it
    /// as a likely successor: what [`LanguageModel::log_prob`] returns,
    /// bit for bit, for every such predecessor.
    pub(crate) fn backoff_log_prob(&self, next: WordId) -> f64 {
        self.ln_backoff[next.index()]
    }

    /// The likely successors `prev` lists, in drawing order. A word may
    /// appear more than once (its probabilities add).
    pub fn likely_successors(&self, prev: WordId) -> impl Iterator<Item = WordId> + '_ {
        self.successors[prev.index()].iter().map(|&(w, _)| w)
    }

    /// The words the decoder should consider after `prev`: the likely
    /// successors followed by the highest-frequency unigram words, with
    /// duplicates removed, truncated to `limit`.
    pub fn candidate_successors(&self, prev: Option<WordId>, limit: usize) -> Vec<WordId> {
        let mut out = Vec::with_capacity(limit);
        self.append_candidate_successors(prev, limit, &mut out);
        out
    }

    /// [`LanguageModel::candidate_successors`] appended to a buffer the
    /// caller reuses; uniqueness and `limit` apply to the appended words
    /// only.
    pub fn append_candidate_successors(
        &self,
        prev: Option<WordId>,
        limit: usize,
        out: &mut Vec<WordId>,
    ) {
        let start = out.len();
        let likely = prev.map_or(&[][..], |prev| &self.successors[prev.index()][..]);
        // Word ids are unigram rank order, so the top unigram words are
        // simply 0, 1, 2, ...
        let ranked = (0..self.vocab()).map(|rank| WordId(rank as u32));
        for w in likely.iter().map(|(w, _)| *w).chain(ranked) {
            if out.len() - start == limit {
                break;
            }
            if !out[start..].contains(&w) {
                out.push(w);
            }
        }
    }

    /// Sample a sentence of `len` words.
    pub fn sample_sentence<R: Rng>(&self, rng: &mut R, len: usize) -> Vec<WordId> {
        let mut sentence = Vec::with_capacity(len);
        let mut prev: Option<WordId> = None;
        for _ in 0..len {
            let next = if let Some(p) = prev {
                if rng.gen::<f64>() < SUCCESSOR_MASS {
                    // Draw from the successor set, weighted.
                    let set = &self.successors[p.index()];
                    let total: f64 = set.iter().map(|(_, w)| w).sum();
                    let mut u = rng.gen::<f64>() * total;
                    let mut chosen = set[set.len() - 1].0;
                    for (w, mass) in set {
                        if u < *mass {
                            chosen = *w;
                            break;
                        }
                        u -= mass;
                    }
                    chosen
                } else {
                    WordId(self.unigram.sample(rng) as u32)
                }
            } else {
                WordId(self.unigram.sample(rng) as u32)
            };
            sentence.push(next);
            prev = Some(next);
        }
        sentence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn lm() -> LanguageModel {
        LanguageModel::synthesize(500, 12, 7)
    }

    #[test]
    fn log_probs_are_negative_and_finite() {
        let lm = lm();
        for next in [0u32, 1, 100, 499] {
            let lp = lm.log_prob(Some(WordId(3)), WordId(next));
            assert!(lp.is_finite());
            assert!(lp < 0.0);
        }
    }

    #[test]
    fn successor_words_are_more_likely_than_backoff() {
        let lm = lm();
        let succ = lm.candidate_successors(Some(WordId(0)), 1)[0];
        // Compare against a rare word that is (almost surely) not a successor.
        let rare = WordId(499);
        assert!(lm.log_prob(Some(WordId(0)), succ) > lm.log_prob(Some(WordId(0)), rare));
    }

    #[test]
    fn sentence_start_uses_unigram() {
        let lm = lm();
        let lp = lm.log_prob(None, WordId(0));
        assert!((lp - lm.unigram_prob(WordId(0)).ln()).abs() < 1e-12);
    }

    #[test]
    fn candidate_successors_respects_limit_and_uniqueness() {
        let lm = lm();
        for limit in [1usize, 5, 50, 200] {
            let cands = lm.candidate_successors(Some(WordId(2)), limit);
            assert_eq!(cands.len(), limit.min(lm.vocab()));
            let mut dedup = cands.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), cands.len(), "duplicates at limit {limit}");
        }
    }

    #[test]
    fn transition_mass_roughly_normalizes() {
        // Sum over the whole vocab of P(next | prev) should be ~1.
        let lm = lm();
        let total: f64 = (0..lm.vocab())
            .map(|i| lm.log_prob(Some(WordId(1)), WordId(i as u32)).exp())
            .sum();
        assert!((total - 1.0).abs() < 0.05, "total transition mass {total}");
    }

    #[test]
    fn sample_sentence_has_requested_length() {
        let lm = lm();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(lm.sample_sentence(&mut rng, 7).len(), 7);
        assert!(lm.sample_sentence(&mut rng, 0).is_empty());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let lm = lm();
        let mut a = rand::rngs::StdRng::seed_from_u64(5);
        let mut b = rand::rngs::StdRng::seed_from_u64(5);
        assert_eq!(
            lm.sample_sentence(&mut a, 10),
            lm.sample_sentence(&mut b, 10)
        );
    }
}
