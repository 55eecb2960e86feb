//! Word-exit candidates and the acoustic fast match behind them.
//!
//! A token leaving its word's last phone expands into a short list of
//! successor words. Half the budget goes to the language model's likely
//! successors (plus top unigram words); the other half to *acoustic
//! fast-match* candidates — the classic rapid-match idea: words whose
//! first phone is one of the frame's two best-scoring phones, ranked by
//! a short emission lookahead over their opening phones plus their
//! language-model prior. The fast match is what lets the decoder recover
//! words the language model would never propose; how many candidates
//! survive is the "network scope" pruning dimension of the paper's
//! engine.
//!
//! Ranking a bucket is the expensive part, and almost none of it depends
//! on the word that exits: a bucket word's prior is
//! [`LanguageModel::backoff_log_prob`] for every predecessor that does
//! not list it as a likely successor. So [`FastMatch`] ranks each
//! frame's two buckets once per utterance under that prior and keeps
//! the best `depth` keys of each; an exit rescores only the few likely
//! successors of its predecessor that sit in the bucket and merges them
//! in. Every version of a ladder decode reads the same table. The result
//! and the `work` charged are exactly those of scoring the whole bucket
//! for every exit:
//!
//! * a non-successor's cached fit *is* its exact fit, summed in the same
//!   order (`(((prior + e0) + e1) + e2) + e3`);
//! * a successor's exact prior is never below its backoff prior
//!   (asserted), so rescoring only moves it up: a non-successor outside
//!   the cached best `keep` is beaten by all of them, and `depth` — the
//!   utterance's largest `keep` — is enough;
//! * keys are [`rank_key`]`(fit, bucket position)` on both sides, so the
//!   merge, with rescored words struck out of the cached ranking, yields
//!   the whole bucket's best `keep` in sort order;
//! * `work` is charged the bucket's length for every bucket visited.

use super::beam::{rank_key, rank_position};
use crate::acoustic::Frame;
use crate::lexicon::{Lexicon, WordId};
use crate::lm::LanguageModel;
use crate::phone::Phone;

/// Frames the fast match looks ahead from the exit frame.
const LOOKAHEAD: usize = 4;

/// The word-exit candidate generator a [`Decoder`](super::Decoder)
/// owns, public so its results can be checked against a plain scan.
///
/// Call [`FastMatch::begin_utterance`] before the first exit of an
/// utterance; every [`FastMatch::exit_candidates`] call until the next
/// one must pass that utterance's frames. A warm generator allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct FastMatch<'a> {
    lexicon: &'a Lexicon,
    lm: &'a LanguageModel,
    /// Keys held per bucket ranking.
    depth: usize,
    /// Per frame: the generation that ranked it and its two best phones.
    frames: Vec<RankedFrame>,
    /// Per frame and bucket, `depth` slots: the bucket's best keys under
    /// the backoff prior (the sentence-start prior at frame 0), best
    /// first.
    keys: Vec<u128>,
    /// The current utterance; bumping it forgets every ranking.
    generation: u32,
    /// The last query's candidates.
    words: Vec<WordId>,
    /// Per word, the query that last put it in `words`.
    marks: Vec<u32>,
    query: u32,
    /// The exiting word's rescored successors in one bucket, best first.
    patches: Vec<u128>,
    /// One bucket's full ranking while a frame is ranked.
    scratch: Vec<u128>,
}

#[derive(Debug, Clone, Copy)]
struct RankedFrame {
    generation: u32,
    phones: [Phone; 2],
}

impl<'a> FastMatch<'a> {
    /// A generator over the given lexicon and language model.
    pub fn new(lexicon: &'a Lexicon, lm: &'a LanguageModel) -> Self {
        FastMatch {
            lexicon,
            lm,
            depth: 0,
            frames: Vec::new(),
            keys: Vec::new(),
            generation: 0,
            words: Vec::new(),
            marks: vec![0; lexicon.len()],
            query: 0,
            patches: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Forget every ranking and size the table for an utterance of
    /// `frames` frames whose exits ask for at most `max_budget` words.
    pub fn begin_utterance(&mut self, frames: usize, max_budget: usize) {
        self.depth = budget_split(max_budget, self.lm.vocab()).1;
        if self.frames.len() < frames {
            let stale = RankedFrame {
                generation: 0,
                phones: [Phone::new(0); 2],
            };
            self.frames.resize(frames, stale);
        }
        let slots = frames * 2 * self.depth;
        if self.keys.len() < slots {
            self.keys.resize(slots, 0);
        }
        next_generation(&mut self.generation, || {
            self.frames.iter_mut().for_each(|f| f.generation = 0);
        });
    }

    /// The words a token leaving `prev` at frame `t` expands into, at
    /// most `budget` of them: the language model's candidates, then each
    /// of the frame's two best phone buckets' best `keep` words not
    /// already listed, in rank order. Adds to `work` the length of every
    /// bucket it visits.
    ///
    /// # Panics
    ///
    /// Panics unless `prev` is `None` exactly at frame 0 (a sentence
    /// starts there and nowhere else), or if `budget` keeps more per
    /// bucket than the utterance's `max_budget`.
    pub fn exit_candidates(
        &mut self,
        frames: &[Frame],
        t: usize,
        prev: Option<WordId>,
        budget: usize,
        work: &mut u64,
    ) -> &[WordId] {
        assert_eq!(prev.is_none(), t == 0, "a sentence starts at frame 0");
        let (lm_budget, keep) = budget_split(budget, self.lm.vocab());
        assert!(
            keep <= self.depth,
            "budget {budget} is above the utterance's"
        );
        next_generation(&mut self.query, || self.marks.fill(0));
        self.words.clear();
        self.lm
            .append_candidate_successors(prev, lm_budget, &mut self.words);
        debug_assert_eq!(self.words.len(), lm_budget);
        for w in &self.words {
            self.marks[w.index()] = self.query;
        }

        let phones = self.rank_frame(frames, t);
        'buckets: for (j, phone) in phones.into_iter().enumerate() {
            let bucket = self.lexicon.words_with_first_phone(phone);
            *work += bucket.len() as u64;
            self.patch(frames, t, prev, phone, bucket);
            let at = (2 * t + j) * self.depth;
            let ranked = &self.keys[at..at + self.depth.min(bucket.len())];
            // Merge the cached ranking, rescored words struck out, with
            // the patches; both are best first.
            let patched = |key: u128| {
                self.patches
                    .iter()
                    .any(|&p| rank_position(p) == rank_position(key))
            };
            let (mut r, mut p) = (0, 0);
            for _ in 0..keep.min(bucket.len()) {
                while r < ranked.len() && patched(ranked[r]) {
                    r += 1;
                }
                let key = if p < self.patches.len()
                    && (r == ranked.len() || self.patches[p] < ranked[r])
                {
                    p += 1;
                    self.patches[p - 1]
                } else {
                    r += 1;
                    ranked[r - 1]
                };
                if self.words.len() >= budget {
                    break 'buckets;
                }
                let w = bucket[rank_position(key)];
                if self.marks[w.index()] != self.query {
                    self.marks[w.index()] = self.query;
                    self.words.push(w);
                }
            }
        }
        self.words.truncate(budget);
        &self.words
    }

    /// The candidates the last [`FastMatch::exit_candidates`] returned.
    pub(super) fn words(&self) -> &[WordId] {
        &self.words
    }

    /// Frame `t`'s two best phones, ranking their buckets first if this
    /// utterance has not.
    fn rank_frame(&mut self, frames: &[Frame], t: usize) -> [Phone; 2] {
        let entry = self.frames[t];
        if entry.generation == self.generation {
            return entry.phones;
        }
        let phones = top_two_phones(&frames[t]);
        for (j, phone) in phones.into_iter().enumerate() {
            let bucket = self.lexicon.words_with_first_phone(phone);
            self.scratch.clear();
            for (position, &w) in bucket.iter().enumerate() {
                let prior = if t == 0 {
                    self.lm.log_prob(None, w)
                } else {
                    self.lm.backoff_log_prob(w)
                };
                let pron = self.lexicon.word(w).pronunciation();
                let fit = lookahead_fit(prior, pron, frames, t);
                self.scratch.push(rank_key(fit, position));
            }
            let held = self.depth.min(bucket.len());
            if held < bucket.len() {
                self.scratch.select_nth_unstable(held);
            }
            self.scratch[..held].sort_unstable();
            let at = (2 * t + j) * self.depth;
            self.keys[at..at + held].copy_from_slice(&self.scratch[..held]);
        }
        self.frames[t] = RankedFrame {
            generation: self.generation,
            phones,
        };
        phones
    }

    /// Key, under its exact prior, every likely successor of `prev` in
    /// `phone`'s bucket, once each, into `patches`, best first.
    fn patch(
        &mut self,
        frames: &[Frame],
        t: usize,
        prev: Option<WordId>,
        phone: Phone,
        bucket: &[WordId],
    ) {
        self.patches.clear();
        let Some(prev) = prev else {
            return;
        };
        for s in self.lm.likely_successors(prev) {
            let pron = self.lexicon.word(s).pronunciation();
            if pron[0] != phone {
                continue;
            }
            let position = bucket
                .binary_search(&s)
                .expect("a word sits in its first phone's bucket");
            if self.patches.iter().any(|&k| rank_position(k) == position) {
                continue;
            }
            let prior = self.lm.log_prob(Some(prev), s);
            assert!(
                prior >= self.lm.backoff_log_prob(s),
                "listing {s} after {prev} made it less likely"
            );
            let fit = lookahead_fit(prior, pron, frames, t);
            self.patches.push(rank_key(fit, position));
        }
        self.patches.sort_unstable();
    }
}

/// How a word exit's `budget` divides: the language model's candidates,
/// and how many each fast-match bucket keeps.
fn budget_split(budget: usize, vocab: usize) -> (usize, usize) {
    let lm = (budget / 2 + 1).min(vocab);
    (lm, budget.saturating_sub(lm) / 2 + 1)
}

/// A word's fit at frame `t`: `prior` plus the emissions of its opening
/// phones over the next [`LOOKAHEAD`] frames (fewer at the end), frame
/// `t + k` aligned to phone `k / 2` (~2 frames per phone), added in
/// frame order.
fn lookahead_fit(prior: f64, pron: &[Phone], frames: &[Frame], t: usize) -> f64 {
    let mut fit = prior;
    for (k, frame) in frames[t..].iter().take(LOOKAHEAD).enumerate() {
        let phone = pron[(k / 2).min(pron.len() - 1)];
        fit += f64::from(frame[phone.index()]);
    }
    fit
}

/// Step a generation counter. Once it wraps, stamps from 2³² steps ago
/// would read as current: `retire` clears them and the count restarts
/// at 1.
pub(super) fn next_generation(counter: &mut u32, retire: impl FnOnce()) {
    *counter = counter.wrapping_add(1);
    if *counter == 0 {
        retire();
        *counter = 1;
    }
}

/// The two best-scoring phones of a frame, best first; equal scores in
/// phone order.
fn top_two_phones(frame: &Frame) -> [Phone; 2] {
    let mut top = [0usize; 2];
    let mut scores = [f32::NEG_INFINITY; 2];
    for (p, &score) in frame.iter().enumerate() {
        assert!(!score.is_nan(), "finite emission");
        if score > scores[0] {
            top = [p, top[0]];
            scores = [score, scores[0]];
        } else if score > scores[1] {
            top[1] = p;
            scores[1] = score;
        }
    }
    top.map(|p| Phone::new(p as u8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_two_phones_match_a_stable_descending_sort() {
        let mut frame = [-4.0f32; crate::phone::NUM_PHONES];
        for (case, (a, b)) in [(3, 9), (9, 3), (0, 39), (17, 17)].into_iter().enumerate() {
            frame[a] = 1.0 + case as f32;
            frame[b] = 1.0 + case as f32; // a tie: the lower phone leads
            let mut ranked: Vec<usize> = (0..frame.len()).collect();
            ranked.sort_by(|&x, &y| frame[y].partial_cmp(&frame[x]).unwrap());
            let expected = [ranked[0], ranked[1]].map(|p| Phone::new(p as u8));
            assert_eq!(top_two_phones(&frame), expected);
        }
    }
}
