//! The table-backed fast match against a full-bucket scan.
//!
//! `FastMatch` ranks each frame's two phone buckets once per utterance
//! under the backoff prior and patches in the exiting word's likely
//! successors. Every decode, and so every figure of the ASR profile,
//! rests on that giving exactly what scoring the whole bucket under the
//! exact prior gives. This holds it to that scan, kept here as the
//! reference, query for query: the candidate list and the `work` charged.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tt_asr::acoustic::Frame;
use tt_asr::decoder::FastMatch;
use tt_asr::lexicon::{Lexicon, WordId};
use tt_asr::lm::LanguageModel;
use tt_asr::phone::{Phone, NUM_PHONES};

/// The fast match as a plain scan: the language model's half, then the
/// frame's two best phones (a stable sort: ties in phone order), each
/// bucket scored word by word under `log_prob(prev, w)` plus up to four
/// lookahead emissions and stable-sorted (ties in bucket order).
fn full_scan(
    lexicon: &Lexicon,
    lm: &LanguageModel,
    frames: &[Frame],
    t: usize,
    prev: Option<WordId>,
    budget: usize,
) -> (Vec<WordId>, u64) {
    let mut out = Vec::new();
    let mut work = 0;
    lm.append_candidate_successors(prev, budget / 2 + 1, &mut out);
    let per_phone = budget.saturating_sub(out.len()) / 2 + 1;
    let mut phones: Vec<usize> = (0..NUM_PHONES).collect();
    phones.sort_by(|&a, &b| frames[t][b].partial_cmp(&frames[t][a]).unwrap());
    'phones: for &p in &phones[..2] {
        let bucket = lexicon.words_with_first_phone(Phone::new(p as u8));
        work += bucket.len() as u64;
        let mut ranked: Vec<(f64, WordId)> = bucket
            .iter()
            .map(|&w| {
                let pron = lexicon.word(w).pronunciation();
                let mut fit = lm.log_prob(prev, w);
                for (k, frame) in frames[t..].iter().take(4).enumerate() {
                    fit += f64::from(frame[pron[(k / 2).min(pron.len() - 1)].index()]);
                }
                (fit, w)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        for &(_, w) in ranked.iter().take(per_phone) {
            if out.len() >= budget {
                break 'phones;
            }
            if !out.contains(&w) {
                out.push(w);
            }
        }
    }
    out.truncate(budget);
    (out, work)
}

/// Random emissions in `[-9, 0)`; rounded, they tie often (equal fits,
/// equal phone scores).
fn random_frames(rng: &mut StdRng, len: usize, rounded: bool) -> Vec<Frame> {
    (0..len)
        .map(|_| {
            let mut frame = [0.0f32; NUM_PHONES];
            for e in &mut frame {
                let x = rng.gen_range(-9.0f32..0.0);
                *e = if rounded { x.round() } else { x };
            }
            frame
        })
        .collect()
}

fn first_phone(lexicon: &Lexicon, w: WordId) -> Phone {
    lexicon.word(w).pronunciation()[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_backed_fast_match_equals_the_full_bucket_scan(
        // Tiny vocabularies leave phone buckets empty and the language
        // model's half short of its budget.
        vocab in prop_oneof![2usize..30, 30usize..3000],
        branching in 1usize..24,
        seed in 0u64..10_000,
        len in 4usize..48,
        rounded in 0u8..2,
    ) {
        let lexicon = Lexicon::synthesize(vocab, seed);
        let lm = LanguageModel::synthesize(vocab, branching, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let word = |rng: &mut StdRng| WordId(rng.gen_range(0..vocab as u32));
        let largest_bucket = Phone::all()
            .map(|p| lexicon.words_with_first_phone(p).len())
            .max()
            .unwrap();
        let duplicated = (0..vocab as u32).map(WordId).find(|&w| {
            let successors: Vec<WordId> = lm.likely_successors(w).collect();
            (1..successors.len()).any(|i| successors[..i].contains(&successors[i]))
        });

        // One generator across two utterances, and the second must not
        // read the first's rankings. The first caps budgets at most at
        // the paper ladder's 44, so the table holds a bucket's best few;
        // the second at a budget that keeps more per bucket than any
        // bucket holds.
        let mut fast = FastMatch::new(&lexicon, &lm);
        for utterance in 0..2 {
            let max_budget = if utterance == 0 {
                rng.gen_range(1..=44)
            } else {
                4 * largest_bucket + 8
            };
            let mut frames = random_frames(&mut rng, len + utterance, rounded == 1);
            let n = frames.len();
            let mut queries = vec![(0, None, 1), (0, None, max_budget)];

            // A predecessor with successors in both of a frame's buckets:
            // raise their first phones above every random emission.
            let prev = word(&mut rng);
            let mut phones: Vec<Phone> =
                lm.likely_successors(prev).map(|s| first_phone(&lexicon, s)).collect();
            phones.sort_unstable();
            phones.dedup();
            if phones.len() >= 2 {
                let t = rng.gen_range(1..n);
                frames[t][phones[0].index()] = 2.0;
                frames[t][phones[phones.len() - 1].index()] = 1.0;
                for budget in [1, max_budget / 2 + 1, max_budget] {
                    queries.push((t, Some(prev), budget));
                }
            }
            if let Some(prev) = duplicated {
                for budget in [1, max_budget / 2 + 1, max_budget] {
                    queries.push((rng.gen_range(1..n), Some(prev), budget));
                }
            }
            // The lookahead runs off the end of the utterance.
            for t in n - 3..n {
                queries.push((t, Some(word(&mut rng)), rng.gen_range(1..=max_budget)));
            }
            for _ in 0..32 {
                queries.push((rng.gen_range(1..n), Some(word(&mut rng)), rng.gen_range(1..=max_budget)));
            }
            // The ladder: one exit, every budget, after the frame is ranked.
            let (t, prev) = (rng.gen_range(1..n), word(&mut rng));
            for budget in 1..=max_budget.min(60) {
                queries.push((t, Some(prev), budget));
            }

            fast.begin_utterance(n, max_budget);
            for (t, prev, budget) in queries {
                let mut work = 0;
                let got = fast.exit_candidates(&frames, t, prev, budget, &mut work).to_vec();
                let (want, want_work) = full_scan(&lexicon, &lm, &frames, t, prev, budget);
                prop_assert_eq!(
                    &got, &want,
                    "utterance {utterance}, frame {t} of {n}, prev {prev:?}, budget {budget}"
                );
                prop_assert_eq!(work, want_work, "work at frame {t}, budget {budget}");
            }
        }
    }
}
