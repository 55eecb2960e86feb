//! Token-passing Viterbi beam search.

use super::fast_match::{next_generation, FastMatch};
use crate::acoustic::Frame;
use crate::decoder::BeamConfig;
use crate::lexicon::{Lexicon, WordId};
use crate::lm::LanguageModel;

/// Log-probability of remaining in the current phone for another frame.
const LOG_STAY: f64 = -0.5108256237659907; // ln 0.6
/// Log-probability of advancing to the next phone.
const LOG_ADVANCE: f64 = -0.916290731874155; // ln 0.4

/// Sentinel for the root of the backtrace arena.
const ROOT: u32 = u32::MAX;

/// The outcome of decoding one utterance.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DecodeResult {
    /// Best-path word hypothesis.
    pub words: Vec<WordId>,
    /// Log score of the best path.
    pub score: f64,
    /// Log score of the best surviving competitor on a different
    /// history, if the beam retained one. The gap to `score` drives the
    /// confidence metric. May *exceed* `score`: the best answer must
    /// have completed its final word, while a competitor may be
    /// mid-word with a higher effective score — maximal ambiguity,
    /// which the confidence model maps to a low confidence.
    pub runner_up: Option<f64>,
    /// Token expansions performed (the decoder's work counter, which the
    /// engine converts to latency).
    pub work: u64,
    /// Number of emission frames consumed.
    pub frames: usize,
}

#[derive(Debug, Clone, Copy)]
struct Token {
    word: WordId,
    phone_idx: u16,
    score: f64,
    /// Per-phone share of the word's language-model cost. The full LM
    /// cost of entering a word would land on its entry frame and throw
    /// rare words out of any realistic beam; production decoders push
    /// the weight across the word (WFST weight-pushing), which this
    /// field implements: one share is charged at entry and one at every
    /// phone advance within the word.
    lm_per_phone: f64,
    /// LM cost not yet charged (used to compare tokens fairly when
    /// merging: a token that has paid less so far is not better).
    pending_lm: f64,
    hist: u32,
}

impl Token {
    /// Score adjusted for LM cost not yet charged; the fair basis for
    /// Viterbi merging and pruning.
    fn effective_score(&self) -> f64 {
        self.score + self.pending_lm
    }
}

/// Where a word's tokens sit in the frame under construction: `row` is
/// the start of its row in [`Decoder::rows`]. Live only while `stamp` is
/// the current frame's.
#[derive(Debug, Clone, Copy, Default)]
struct WordSlot {
    stamp: u32,
    row: u32,
}

/// A state of a live word that holds no token yet.
const VACANT: u32 = u32::MAX;

/// A beam-search decoder borrowing a lexicon and language model.
///
/// The decoder owns every buffer the search needs and reuses them across
/// frames, configurations and utterances: once they have grown to an
/// utterance's size, a decode allocates only the hypothesis it returns.
/// Keep one decoder per thread, and decode an utterance's whole ladder
/// in one [`Decoder::decode_ladder`] call: its configurations share the
/// fast match's per-frame ranking.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    lexicon: &'a Lexicon,
    lm: &'a LanguageModel,
    /// Active tokens, unique per `(word, phone_idx)`. Their *order* is
    /// part of the result: merging keeps the first of equal scores and
    /// pruning breaks score ties by position.
    tokens: Vec<Token>,
    /// The frame under construction; swapped with `tokens` when complete.
    next: Vec<Token>,
    /// Backtrace arena: (previous entry, word entered).
    arena: Vec<(u32, WordId)>,
    /// `(word, phone_idx) → index into next`, in two steps so that its
    /// size follows the beam, not the lexicon: a slot per word, and for
    /// each word live in this frame a row of `stride` positions (the
    /// lexicon's longest pronunciation), [`VACANT`] where no token sits.
    words: Vec<WordSlot>,
    rows: Vec<u32>,
    stride: usize,
    /// The current frame's generation; bumping it empties `words`
    /// without touching it.
    stamp: u32,
    /// Per word, the frame it last exited at, kept by a debug assertion
    /// only: a word has one last-phone token, so it exits at most once
    /// per frame.
    exited: Vec<u32>,
    /// Each word exit's candidate successors.
    fast_match: FastMatch<'a>,
    /// Ranking buffer of histogram pruning: one [`rank_key`] per token.
    ranked: Vec<u128>,
}

impl<'a> Decoder<'a> {
    /// Create a decoder over the given lexicon and language model.
    pub fn new(lexicon: &'a Lexicon, lm: &'a LanguageModel) -> Self {
        let stride = lexicon
            .iter()
            .map(|(_, word)| word.pronunciation().len())
            .max()
            .unwrap_or(0);
        Decoder {
            lexicon,
            lm,
            tokens: Vec::new(),
            next: Vec::new(),
            arena: Vec::new(),
            words: vec![WordSlot::default(); lexicon.len()],
            rows: Vec::new(),
            stride,
            stamp: 0,
            exited: vec![0; lexicon.len()],
            fast_match: FastMatch::new(lexicon, lm),
            ranked: Vec::new(),
        }
    }

    /// Decode emission frames under a pruning configuration.
    pub fn decode(&mut self, frames: &[Frame], config: &BeamConfig) -> DecodeResult {
        let mut result = None;
        self.decode_ladder(frames, std::slice::from_ref(config), |r| result = Some(r));
        result.expect("one result per configuration")
    }

    /// Decode emission frames under each of `configs` in turn, handing
    /// `each` the results in `configs` order. They are the results
    /// [`Decoder::decode`] returns; the configurations share the fast
    /// match's ranking of each frame, so the ladder costs less than its
    /// decodes one by one.
    pub fn decode_ladder(
        &mut self,
        frames: &[Frame],
        configs: &[BeamConfig],
        mut each: impl FnMut(DecodeResult),
    ) {
        if frames.is_empty() {
            for _ in configs {
                each(DecodeResult {
                    words: Vec::new(),
                    score: 0.0,
                    runner_up: None,
                    work: 0,
                    frames: 0,
                });
            }
            return;
        }
        self.search_ladder(frames, configs, |search| {
            each(search.finalize_best(frames.len()));
        });
    }

    /// Decode and return the `n` best distinct word sequences the beam
    /// retained, best first, ranking every surviving token by effective
    /// score. [`Decoder::decode`]'s hypothesis is among them when `n`
    /// covers the whole beam, but need not be the first:
    /// `decode` prefers tokens that completed their word, while a
    /// mid-word competitor may outscore them here. Entries beyond what
    /// the beam kept alive are simply absent (narrow beams may retain a
    /// single hypothesis).
    pub fn decode_nbest(
        &mut self,
        frames: &[Frame],
        config: &BeamConfig,
        n: usize,
    ) -> Vec<Hypothesis> {
        if frames.is_empty() || n == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.search_ladder(frames, std::slice::from_ref(config), |search| {
            out = search.n_best(n);
        });
        out
    }

    /// Search `frames` under each of `configs` in turn, handing `finish`
    /// each final beam; the fast match ranks each frame once for all.
    fn search_ladder(
        &mut self,
        frames: &[Frame],
        configs: &[BeamConfig],
        mut finish: impl FnMut(SearchState<'_>),
    ) {
        let max_budget = configs.iter().map(|c| c.word_exit_candidates).max();
        self.fast_match
            .begin_utterance(frames.len(), max_budget.unwrap_or(0));
        for config in configs {
            finish(self.run_search(frames, config));
        }
    }

    /// The main token-passing loop, shared by 1-best and n-best decode.
    fn run_search(&mut self, frames: &[Frame], config: &BeamConfig) -> SearchState<'_> {
        let lexicon = self.lexicon;
        let mut work: u64 = 0;
        self.arena.clear();

        // Frame 0: enter the candidate first words.
        self.begin_frame();
        let exits = self
            .fast_match
            .exit_candidates(frames, 0, None, config.word_exit_candidates, &mut work)
            .len();
        for k in 0..exits {
            let w = self.fast_match.words()[k];
            let pron = lexicon.word(w).pronunciation();
            let total_lm =
                config.lm_scale * self.lm.log_prob(None, w) + config.word_insertion_penalty;
            let per = total_lm / pron.len() as f64;
            let score = per + f64::from(frames[0][pron[0].index()]);
            let hist = push(&mut self.arena, ROOT, w);
            work += 1;
            self.upsert(Token {
                word: w,
                phone_idx: 0,
                score,
                lm_per_phone: per,
                pending_lm: total_lm - per,
                hist,
            });
        }
        self.end_frame(config);

        for fi in 1..frames.len() {
            let frame = &frames[fi];
            let best_prev = self
                .tokens
                .iter()
                .map(Token::effective_score)
                .fold(f64::NEG_INFINITY, f64::max);
            self.begin_frame();

            for ti in 0..self.tokens.len() {
                let t = self.tokens[ti];
                let pron = lexicon.word(t.word).pronunciation();
                let idx = t.phone_idx as usize;

                // Stay in the current phone.
                work += 1;
                self.upsert(Token {
                    score: t.score + LOG_STAY + f64::from(frame[pron[idx].index()]),
                    ..t
                });

                // Advance to the next phone of the word, paying the next
                // share of the pushed LM cost.
                if idx + 1 < pron.len() {
                    work += 1;
                    self.upsert(Token {
                        phone_idx: t.phone_idx + 1,
                        score: t.score
                            + t.lm_per_phone
                            + LOG_ADVANCE
                            + f64::from(frame[pron[idx + 1].index()]),
                        pending_lm: t.pending_lm - t.lm_per_phone,
                        ..t
                    });
                } else if t.effective_score() >= best_prev - config.word_end_beam {
                    // Exit the word into candidate successors.
                    debug_assert!(
                        std::mem::replace(&mut self.exited[t.word.index()], self.stamp)
                            != self.stamp,
                        "{} exits twice at frame {fi}",
                        t.word
                    );
                    let exits = self
                        .fast_match
                        .exit_candidates(
                            frames,
                            fi,
                            Some(t.word),
                            config.word_exit_candidates,
                            &mut work,
                        )
                        .len();
                    for k in 0..exits {
                        let w = self.fast_match.words()[k];
                        let next_pron = lexicon.word(w).pronunciation();
                        let total_lm = config.lm_scale * self.lm.log_prob(Some(t.word), w)
                            + config.word_insertion_penalty;
                        let per = total_lm / next_pron.len() as f64;
                        let score =
                            t.score + LOG_ADVANCE + per + f64::from(frame[next_pron[0].index()]);
                        let pending_lm = total_lm - per;
                        work += 1;
                        // Defer arena push until we know the token survives
                        // the upsert (avoids unbounded arena growth).
                        match self.find(w, 0) {
                            Some(i) if self.next[i].effective_score() >= score + pending_lm => {}
                            _ => {
                                let hist = push(&mut self.arena, t.hist, w);
                                self.upsert(Token {
                                    word: w,
                                    phone_idx: 0,
                                    score,
                                    lm_per_phone: per,
                                    pending_lm,
                                    hist,
                                });
                            }
                        }
                    }
                }
            }

            self.end_frame(config);
            if self.tokens.is_empty() {
                break;
            }
        }

        SearchState {
            tokens: &self.tokens,
            arena: &self.arena,
            work,
            lexicon,
        }
    }

    /// Start building a frame: `next` and the state table read as empty.
    fn begin_frame(&mut self) {
        self.next.clear();
        self.rows.clear();
        next_generation(&mut self.stamp, || {
            self.words.fill(WordSlot::default());
            self.exited.fill(0);
        });
    }

    /// The frame under construction becomes the active beam, after the
    /// local beam and global histogram pruning.
    fn end_frame(&mut self, config: &BeamConfig) {
        let best = self
            .next
            .iter()
            .map(Token::effective_score)
            .fold(f64::NEG_INFINITY, f64::max);
        self.next
            .retain(|t| t.effective_score() >= best - config.beam);
        if self.next.len() <= config.max_active {
            std::mem::swap(&mut self.tokens, &mut self.next);
            return;
        }
        // Best score first, equal scores in beam order: one integer key
        // per token that sorts ascending in exactly that order.
        self.ranked.clear();
        self.ranked.extend(
            self.next
                .iter()
                .enumerate()
                .map(|(i, t)| rank_key(t.effective_score(), i)),
        );
        self.ranked.sort_unstable();
        self.tokens.clear();
        self.tokens.extend(
            self.ranked[..config.max_active]
                .iter()
                .map(|&key| self.next[rank_position(key)]),
        );
    }

    /// Position in `next` of the token occupying a state, if any.
    fn find(&self, word: WordId, phone_idx: u16) -> Option<usize> {
        let slot = self.words[word.index()];
        if slot.stamp != self.stamp {
            return None;
        }
        let index = self.rows[slot.row as usize + phone_idx as usize];
        (index != VACANT).then_some(index as usize)
    }

    /// Insert a token into `next`, keeping only the best-scoring token
    /// per state (exact Viterbi merge: with a bigram LM the future
    /// depends only on the current word).
    fn upsert(&mut self, token: Token) {
        let slot = &mut self.words[token.word.index()];
        if slot.stamp != self.stamp {
            *slot = WordSlot {
                stamp: self.stamp,
                row: self.rows.len() as u32,
            };
            self.rows.resize(self.rows.len() + self.stride, VACANT);
        }
        let index = &mut self.rows[slot.row as usize + token.phone_idx as usize];
        if *index == VACANT {
            *index = self.next.len() as u32;
            self.next.push(token);
        } else {
            let held = &mut self.next[*index as usize];
            if held.effective_score() < token.effective_score() {
                *held = token;
            }
        }
    }
}

/// A key that sorts ascending where `score` sorts descending and, among
/// equal scores, `position` ascending: the score's bits mapped to an
/// unsigned integer in reverse numeric order, above the position.
pub(super) fn rank_key(score: f64, position: usize) -> u128 {
    assert!(!score.is_nan(), "scores are finite");
    // `+ 0.0` folds -0.0 into +0.0, which compare equal as scores.
    let bits = (score + 0.0).to_bits();
    let descending = if bits >> 63 == 0 {
        !bits ^ (1 << 63)
    } else {
        bits
    };
    u128::from(descending) << 32 | position as u128
}

/// The position a [`rank_key`] was built from.
pub(super) fn rank_position(key: u128) -> usize {
    key as u32 as usize
}

/// A ranked alternative hypothesis from [`Decoder::decode_nbest`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Hypothesis {
    /// Word sequence.
    pub words: Vec<WordId>,
    /// Effective log score.
    pub score: f64,
}

/// The surviving beam at the final frame, borrowed from the decoder.
struct SearchState<'d> {
    tokens: &'d [Token],
    arena: &'d [(u32, WordId)],
    work: u64,
    lexicon: &'d Lexicon,
}

impl SearchState<'_> {
    /// Finalize: prefer tokens that completed their word's last phone.
    fn finalize_best(&self, frames: usize) -> DecodeResult {
        let completed = |t: &&Token| {
            t.phone_idx as usize == self.lexicon.word(t.word).pronunciation().len() - 1
        };
        let Some(best) = first_best(self.tokens.iter().filter(completed))
            .or_else(|| first_best(self.tokens.iter()))
        else {
            return DecodeResult {
                words: Vec::new(),
                score: f64::NEG_INFINITY,
                runner_up: None,
                work: self.work,
                frames,
            };
        };
        // The runner-up is the best surviving token on a *different*
        // history — finalized or not (mid-word competitors still witness
        // ambiguity, which is what the confidence metric needs).
        let runner_up = self
            .tokens
            .iter()
            .filter(|t| t.hist != best.hist)
            .map(Token::effective_score)
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            });

        DecodeResult {
            words: backtrace(self.arena, best.hist),
            score: best.effective_score(),
            runner_up,
            work: self.work,
            frames,
        }
    }

    /// The `n` best distinct word sequences, best first (see
    /// [`Decoder::decode_nbest`]).
    fn n_best(&self, n: usize) -> Vec<Hypothesis> {
        let mut ranked: Vec<&Token> = self.tokens.iter().collect();
        ranked.sort_by(|a, b| {
            b.effective_score()
                .partial_cmp(&a.effective_score())
                .expect("scores are finite")
        });
        let mut out: Vec<Hypothesis> = Vec::with_capacity(n);
        for t in ranked {
            let words = backtrace(self.arena, t.hist);
            if out.iter().any(|h| h.words == words) {
                continue;
            }
            out.push(Hypothesis {
                words,
                score: t.effective_score(),
            });
            if out.len() == n {
                break;
            }
        }
        out
    }
}

/// The highest-scoring token, the first of equals.
fn first_best<'t>(tokens: impl Iterator<Item = &'t Token>) -> Option<&'t Token> {
    tokens.reduce(|best, t| {
        if t.effective_score() > best.effective_score() {
            t
        } else {
            best
        }
    })
}

fn push(arena: &mut Vec<(u32, WordId)>, prev: u32, word: WordId) -> u32 {
    arena.push((prev, word));
    (arena.len() - 1) as u32
}

/// The word sequence ending at `hist`, in one exactly-sized allocation.
fn backtrace(arena: &[(u32, WordId)], hist: u32) -> Vec<WordId> {
    let mut len = 0;
    let mut at = hist;
    while at != ROOT {
        len += 1;
        at = arena[at as usize].0;
    }
    let mut words = vec![WordId(0); len];
    let mut at = hist;
    for slot in words.iter_mut().rev() {
        let (prev, word) = arena[at as usize];
        *slot = word;
        at = prev;
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acoustic::AcousticModel;
    use crate::lexicon::Lexicon;
    use tt_stats::Alignment;

    struct Fixture {
        lexicon: Lexicon,
        lm: LanguageModel,
        acoustic: AcousticModel,
    }

    fn fixture() -> Fixture {
        Fixture {
            lexicon: Lexicon::synthesize(300, 11),
            lm: LanguageModel::synthesize(300, 12, 11),
            acoustic: AcousticModel::default(),
        }
    }

    fn wide() -> BeamConfig {
        BeamConfig::new("wide", 16.0, 400, 40)
    }

    fn narrow() -> BeamConfig {
        BeamConfig::new("narrow", 3.0, 12, 3)
    }

    #[test]
    fn empty_frames_decode_to_nothing() {
        let f = fixture();
        let mut dec = Decoder::new(&f.lexicon, &f.lm);
        let out = dec.decode(&[], &wide());
        assert!(out.words.is_empty());
        assert_eq!(out.work, 0);
    }

    #[test]
    fn clean_audio_decodes_exactly_under_a_wide_beam() {
        let f = fixture();
        let mut dec = Decoder::new(&f.lexicon, &f.lm);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let reference = f.lm.sample_sentence(&mut rng, 5);
        let frames = f.acoustic.render(&f.lexicon, &reference, 0.05, 7);
        let out = dec.decode(&frames, &wide());
        assert_eq!(out.words, reference, "clean audio should decode exactly");
    }

    #[test]
    fn wide_beam_does_more_work_than_narrow() {
        let f = fixture();
        let mut dec = Decoder::new(&f.lexicon, &f.lm);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let reference = f.lm.sample_sentence(&mut rng, 6);
        let frames = f.acoustic.render(&f.lexicon, &reference, 1.5, 21);
        let narrow_out = dec.decode(&frames, &narrow());
        let wide_out = dec.decode(&frames, &wide());
        assert!(
            wide_out.work > narrow_out.work * 2,
            "wide {} vs narrow {}",
            wide_out.work,
            narrow_out.work
        );
    }

    #[test]
    fn wide_beam_is_no_worse_on_average() {
        // Aggregate over several utterances: the wide beam's total word
        // errors must not exceed the narrow beam's.
        let f = fixture();
        let mut dec = Decoder::new(&f.lexicon, &f.lm);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
        let mut narrow_errors = 0usize;
        let mut wide_errors = 0usize;
        for i in 0..12 {
            let reference = f.lm.sample_sentence(&mut rng, 6);
            let frames = f.acoustic.render(&f.lexicon, &reference, 1.8, 100 + i);
            narrow_errors +=
                Alignment::align(&dec.decode(&frames, &narrow()).words, &reference).errors();
            wide_errors +=
                Alignment::align(&dec.decode(&frames, &wide()).words, &reference).errors();
        }
        assert!(
            wide_errors <= narrow_errors,
            "wide {wide_errors} vs narrow {narrow_errors}"
        );
        // And with this noise level the narrow beam must actually err
        // somewhere, or the fixture is too easy to discriminate.
        assert!(narrow_errors > 0, "fixture too easy");
    }

    #[test]
    fn decoding_is_deterministic() {
        let f = fixture();
        let mut dec = Decoder::new(&f.lexicon, &f.lm);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let reference = f.lm.sample_sentence(&mut rng, 5);
        let frames = f.acoustic.render(&f.lexicon, &reference, 1.0, 33);
        let a = dec.decode(&frames, &wide());
        let b = dec.decode(&frames, &wide());
        assert_eq!(a, b);
    }

    #[test]
    fn nbest_is_ranked_distinct_and_headed_by_the_one_best() {
        let f = fixture();
        let mut dec = Decoder::new(&f.lexicon, &f.lm);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(41);
        let reference = f.lm.sample_sentence(&mut rng, 5);
        let frames = f.acoustic.render(&f.lexicon, &reference, 1.8, 77);
        let nbest = dec.decode_nbest(&frames, &wide(), 5);
        assert!(!nbest.is_empty());
        assert!(nbest.len() <= 5);
        // Ranked by score, all sequences distinct.
        for w in nbest.windows(2) {
            assert!(w[0].score >= w[1].score);
            assert_ne!(w[0].words, w[1].words);
        }
        // 1-best agrees with decode()'s hypothesis... except when a
        // higher-scoring mid-word competitor survived; in that case the
        // 1-best hypothesis must still appear in the list.
        let one_best = dec.decode(&frames, &wide());
        assert!(
            nbest.iter().any(|h| h.words == one_best.words),
            "decode()'s hypothesis missing from the n-best list"
        );
    }

    #[test]
    fn nbest_over_the_whole_beam_is_ranked_distinct_and_holds_the_one_best() {
        let f = fixture();
        let mut dec = Decoder::new(&f.lexicon, &f.lm);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(47);
        let versions = BeamConfig::paper_versions();
        for i in 0..10 {
            let reference = f.lm.sample_sentence(&mut rng, 5);
            let frames = f.acoustic.render(&f.lexicon, &reference, 2.0, 300 + i);
            for config in [&versions[0], &versions[6]] {
                let nbest = dec.decode_nbest(&frames, config, config.max_active);
                assert!(!nbest.is_empty());
                for (k, h) in nbest.iter().enumerate() {
                    assert!(nbest[..k].iter().all(|earlier| earlier.score >= h.score));
                    assert!(nbest[..k].iter().all(|earlier| earlier.words != h.words));
                }
                // Not necessarily first: `decode` prefers tokens that
                // completed their word, `decode_nbest` ranks them all.
                let one_best = dec.decode(&frames, config);
                assert!(
                    nbest.iter().any(|h| h.words == one_best.words),
                    "utterance {i} under {}: decode()'s hypothesis missing",
                    config.name
                );
            }
        }
    }

    #[test]
    fn rank_keys_sort_best_score_first_then_by_position() {
        let scores = [
            -3.5,
            2.0,
            -0.0,
            0.0,
            -3.5,
            f64::NEG_INFINITY,
            1e-300,
            -1e-300,
            2.0,
            -7e9,
        ];
        let mut keys: Vec<u128> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| rank_key(s, i))
            .collect();
        keys.sort_unstable();
        let mut expected: Vec<usize> = (0..scores.len()).collect();
        expected.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        let order: Vec<usize> = keys.iter().map(|&k| rank_position(k)).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn nbest_degenerate_inputs() {
        let f = fixture();
        let mut dec = Decoder::new(&f.lexicon, &f.lm);
        assert!(dec.decode_nbest(&[], &wide(), 3).is_empty());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(43);
        let reference = f.lm.sample_sentence(&mut rng, 3);
        let frames = f.acoustic.render(&f.lexicon, &reference, 1.0, 9);
        assert!(dec.decode_nbest(&frames, &wide(), 0).is_empty());
        assert_eq!(dec.decode_nbest(&frames, &wide(), 1).len(), 1);
    }

    #[test]
    fn runner_up_is_finite_and_usually_close_to_best() {
        let f = fixture();
        let mut dec = Decoder::new(&f.lexicon, &f.lm);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(29);
        for i in 0..5 {
            let reference = f.lm.sample_sentence(&mut rng, 4);
            let frames = f.acoustic.render(&f.lexicon, &reference, 2.0, 200 + i);
            let out = dec.decode(&frames, &wide());
            let r = out.runner_up.expect("wide beams always retain competitors");
            assert!(r.is_finite());
            // The competitor may slightly exceed the finalized best (a
            // mid-word token), but never by more than a word's worth of
            // score.
            assert!(
                (out.score - r).abs() < 100.0,
                "margin blew up: {}",
                out.score - r
            );
        }
    }
}
