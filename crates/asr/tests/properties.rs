//! Property-based tests for the ASR substrate.

use proptest::prelude::*;
use rand::SeedableRng;
use tt_asr::acoustic::AcousticModel;
use tt_asr::decoder::{BeamConfig, Decoder};
use tt_asr::lexicon::{Lexicon, WordId};
use tt_asr::lm::LanguageModel;
use tt_asr::wer::{wer, word_errors, WerAccumulator};

fn fixture(vocab: usize, seed: u64) -> (Lexicon, LanguageModel) {
    (
        Lexicon::synthesize(vocab, seed),
        LanguageModel::synthesize(vocab, 8, seed),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lm_log_probs_are_finite_and_negative(
        vocab in 10usize..200,
        seed in 0u64..50,
        prev in 0u32..10,
        next in 0u32..10,
    ) {
        let (_, lm) = fixture(vocab, seed);
        let lp = lm.log_prob(Some(WordId(prev % vocab as u32)), WordId(next % vocab as u32));
        prop_assert!(lp.is_finite());
        prop_assert!(lp < 0.0);
    }

    #[test]
    fn candidate_successors_unique_and_bounded(
        vocab in 10usize..150,
        seed in 0u64..50,
        prev in 0u32..10,
        limit in 1usize..60,
    ) {
        let (_, lm) = fixture(vocab, seed);
        let cands = lm.candidate_successors(Some(WordId(prev % vocab as u32)), limit);
        prop_assert!(cands.len() <= limit);
        prop_assert!(cands.iter().all(|w| (w.0 as usize) < vocab));
        let mut dedup = cands.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), cands.len());
    }

    #[test]
    fn rendering_frame_count_tracks_pronunciations(
        vocab in 20usize..100,
        seed in 0u64..30,
        len in 1usize..6,
        noise in 0.1f64..3.0,
    ) {
        let (lexicon, lm) = fixture(vocab, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let words = lm.sample_sentence(&mut rng, len);
        let frames = AcousticModel::default().render(&lexicon, &words, noise, seed);
        let phones: usize = words.iter().map(|&w| lexicon.word(w).pronunciation().len()).sum();
        prop_assert!(frames.len() >= 2 * phones);
        prop_assert!(frames.len() <= 4 * phones);
        prop_assert!(frames.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn decode_output_invariants(
        vocab in 30usize..120,
        seed in 0u64..20,
        noise in 0.2f64..2.5,
    ) {
        let (lexicon, lm) = fixture(vocab, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF00D);
        let words = lm.sample_sentence(&mut rng, 4);
        let frames = AcousticModel::default().render(&lexicon, &words, noise, seed);
        let cfg = BeamConfig::new("prop", 12.0, 64, 16);
        let mut decoder = Decoder::new(&lexicon, &lm);
        let out = decoder.decode(&frames, &cfg);
        // The decoder's buffers carry nothing over between decodes.
        prop_assert_eq!(&decoder.decode(&frames, &cfg), &out);
        prop_assert!(!out.words.is_empty());
        prop_assert!(out.score.is_finite());
        prop_assert!(out.work > 0);
        prop_assert_eq!(out.frames, frames.len());
        if let Some(r) = out.runner_up {
            prop_assert!(r.is_finite());
        }
        prop_assert!(out.words.iter().all(|w| (w.0 as usize) < vocab));
    }

    #[test]
    fn wer_is_a_normalized_edit_count(
        hyp in prop::collection::vec(0u32..20, 0..12),
        reference in prop::collection::vec(0u32..20, 1..12),
    ) {
        let h: Vec<WordId> = hyp.iter().map(|&w| WordId(w)).collect();
        let r: Vec<WordId> = reference.iter().map(|&w| WordId(w)).collect();
        let errors = word_errors(&h, &r);
        prop_assert!((wer(&h, &r) - errors as f64 / r.len() as f64).abs() < 1e-12);
        prop_assert!(errors >= h.len().abs_diff(r.len()));
    }

    #[test]
    fn wer_accumulator_matches_manual_pool(
        pairs in prop::collection::vec(
            (prop::collection::vec(0u32..9, 0..6), prop::collection::vec(0u32..9, 1..6)),
            1..8,
        ),
    ) {
        let mut acc = WerAccumulator::new();
        let mut errors = 0usize;
        let mut words = 0usize;
        for (h, r) in &pairs {
            let h: Vec<WordId> = h.iter().map(|&w| WordId(w)).collect();
            let r: Vec<WordId> = r.iter().map(|&w| WordId(w)).collect();
            acc.add(&h, &r);
            errors += word_errors(&h, &r);
            words += r.len();
        }
        prop_assert_eq!(acc.errors(), errors);
        prop_assert_eq!(acc.reference_words(), words);
        prop_assert!((acc.rate() - errors as f64 / words as f64).abs() < 1e-12);
    }
}
