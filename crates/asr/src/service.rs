//! The assembled ASR engine: corpus + models + decoder + metrics.
//!
//! # Latency model
//!
//! Decode latency is derived deterministically from the decoder's work
//! counter:
//!
//! ```text
//! latency_us = frames · FRAME_OVERHEAD_US  +  work · US_PER_EXPANSION
//! ```
//!
//! The first term models the version-independent front end (feature
//! extraction and neural acoustic scoring, which production engines run
//! once per frame regardless of beam width); the second term models the
//! search itself. The constants are calibrated so the seven-version
//! ladder spans the ≈2.6× response-time spread the paper reports for its
//! production engine while keeping absolute latencies in the
//! hundreds-of-milliseconds-per-utterance range of a real-time ASR
//! service.

use crate::acoustic::AcousticModel;
use crate::corpus::{Corpus, CorpusConfig, Utterance};
use crate::decoder::{BeamConfig, DecodeResult, Decoder};
use crate::lexicon::{Lexicon, WordId};
use crate::lm::LanguageModel;
use crate::wer;

/// Version-independent per-frame front-end cost (µs).
const FRAME_OVERHEAD_US: u64 = 2_500;
/// Search cost per token expansion (µs).
const US_PER_EXPANSION: f64 = 12.0;

/// Maps decoder evidence to a `[0, 1]` result-confidence score.
///
/// Confidence combines two signals: the per-frame score margin between
/// the best and runner-up hypotheses (a large margin means no serious
/// competitor survived the beam) and the per-frame score of the best
/// path itself (noisy audio scores poorly even when it wins). Both are
/// squashed through a logistic; the weights were calibrated on held-out
/// synthetic corpora so that confidence discriminates correct from
/// incorrect transcripts — the property the paper's early-termination
/// ensembles rely on.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConfidenceModel {
    /// Weight on the per-frame best/runner-up margin.
    pub w_margin: f64,
    /// Weight on the per-frame best-path score.
    pub w_score: f64,
    /// Logistic bias.
    pub bias: f64,
    /// Margin assumed when the beam retained no competitor.
    pub default_margin: f64,
}

impl Default for ConfidenceModel {
    fn default() -> Self {
        ConfidenceModel {
            w_margin: 10.0,
            w_score: 5.0,
            bias: 7.4,
            default_margin: 0.3,
        }
    }
}

impl ConfidenceModel {
    /// Score a decode result.
    pub fn confidence(&self, result: &DecodeResult) -> f64 {
        if result.frames == 0 {
            return 0.0;
        }
        let frames = result.frames as f64;
        let margin = result
            .runner_up
            .map(|r| (result.score - r) / frames)
            .unwrap_or(self.default_margin);
        let avg_score = result.score / frames;
        let x = self.w_margin * margin + self.w_score * avg_score + self.bias;
        1.0 / (1.0 + (-x).exp())
    }
}

/// Everything the engine reports for one decoded utterance.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DecodeOutcome {
    /// Hypothesis transcript.
    pub hypothesis: Vec<WordId>,
    /// Word errors against the reference.
    pub errors: usize,
    /// Reference word count.
    pub reference_words: usize,
    /// Utterance WER (`errors / reference_words`).
    pub wer: f64,
    /// Result confidence in `[0, 1]`.
    pub confidence: f64,
    /// Deterministic decode latency in microseconds.
    pub latency_us: u64,
    /// Decoder work counter (token expansions).
    pub work: u64,
}

/// A complete ASR engine over a synthetic corpus.
///
/// ```
/// use tt_asr::{AsrEngine, BeamConfig, CorpusConfig};
///
/// let engine = AsrEngine::synthesize(CorpusConfig::small());
/// let versions = BeamConfig::paper_versions();
/// let out = engine.decode(&engine.corpus().utterances()[0], &versions[0]);
/// assert!(out.latency_us > 0);
/// ```
#[derive(Debug, Clone)]
pub struct AsrEngine {
    lexicon: Lexicon,
    lm: LanguageModel,
    acoustic: AcousticModel,
    corpus: Corpus,
    confidence: ConfidenceModel,
}

impl AsrEngine {
    /// Build the lexicon, language model, acoustic model and corpus from
    /// a single configuration.
    pub fn synthesize(config: CorpusConfig) -> Self {
        let lexicon = Lexicon::synthesize(config.vocab, config.seed);
        let lm = LanguageModel::synthesize(config.vocab, config.branching, config.seed);
        let corpus = Corpus::synthesize(config, &lm);
        AsrEngine {
            lexicon,
            lm,
            acoustic: AcousticModel::default(),
            corpus,
            confidence: ConfidenceModel::default(),
        }
    }

    /// The evaluation corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The lexicon.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// The language model.
    pub fn language_model(&self) -> &LanguageModel {
        &self.lm
    }

    /// Replace the confidence model (builder-style), e.g. after
    /// recalibration.
    pub fn with_confidence_model(mut self, model: ConfidenceModel) -> Self {
        self.confidence = model;
        self
    }

    /// A decoder over this engine's lexicon and language model. It owns
    /// its search buffers: keep one per thread and hand it to
    /// [`AsrEngine::decode_ladder`] for every utterance.
    pub fn decoder(&self) -> Decoder<'_> {
        Decoder::new(&self.lexicon, &self.lm)
    }

    /// Render an utterance's audio once and decode it under each of
    /// `configs` with `decoder` (one of [`AsrEngine::decoder`]'s);
    /// outcomes in `configs` order.
    pub fn decode_ladder(
        &self,
        decoder: &mut Decoder<'_>,
        utterance: &Utterance,
        configs: &[BeamConfig],
    ) -> Vec<DecodeOutcome> {
        let frames = self.acoustic.render(
            &self.lexicon,
            &utterance.words,
            utterance.noise_sigma,
            utterance.render_seed,
        );
        let mut outcomes = Vec::with_capacity(configs.len());
        decoder.decode_ladder(&frames, configs, |result| {
            let errors = wer::word_errors(&result.words, &utterance.words);
            let latency_us = result.frames as u64 * FRAME_OVERHEAD_US
                + (result.work as f64 * US_PER_EXPANSION) as u64;
            outcomes.push(DecodeOutcome {
                errors,
                reference_words: utterance.words.len(),
                wer: errors as f64 / utterance.words.len().max(1) as f64,
                confidence: self.confidence.confidence(&result),
                latency_us,
                work: result.work,
                hypothesis: result.words,
            });
        });
        outcomes
    }

    /// Render an utterance's audio and decode it under `config`.
    pub fn decode(&self, utterance: &Utterance, config: &BeamConfig) -> DecodeOutcome {
        self.decode_ladder(&mut self.decoder(), utterance, std::slice::from_ref(config))
            .pop()
            .expect("one outcome per configuration")
    }

    /// Decode the whole corpus under `config`, returning outcomes in
    /// corpus order.
    pub fn decode_corpus(&self, config: &BeamConfig) -> Vec<DecodeOutcome> {
        let mut decoder = self.decoder();
        let ladder = std::slice::from_ref(config);
        self.corpus
            .utterances()
            .iter()
            .flat_map(|u| self.decode_ladder(&mut decoder, u, ladder))
            .collect()
    }

    /// Corpus WER under `config` (pooled across utterances).
    pub fn corpus_wer(&self, config: &BeamConfig) -> f64 {
        let mut acc = wer::WerAccumulator::new();
        for out in self.decode_corpus(config) {
            acc.add_counts(out.errors, out.reference_words);
        }
        acc.rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> AsrEngine {
        AsrEngine::synthesize(CorpusConfig::small())
    }

    #[test]
    fn decode_outcome_is_consistent() {
        let e = engine();
        let cfg = &BeamConfig::paper_versions()[3];
        let out = e.decode(&e.corpus().utterances()[0], cfg);
        assert_eq!(out.reference_words, e.corpus().utterances()[0].words.len());
        assert!((out.wer - out.errors as f64 / out.reference_words as f64).abs() < 1e-12);
        assert!(out.latency_us > 0);
        assert!((0.0..=1.0).contains(&out.confidence));
    }

    #[test]
    fn decoding_is_deterministic() {
        let e = engine();
        let cfg = &BeamConfig::paper_versions()[0];
        let u = &e.corpus().utterances()[3];
        assert_eq!(e.decode(u, cfg), e.decode(u, cfg));
    }

    #[test]
    fn version_ladder_trades_latency_for_accuracy() {
        let e = engine();
        let versions = BeamConfig::paper_versions();
        let first = &versions[0];
        let last = &versions[6];

        let outs_first: Vec<DecodeOutcome> = e.decode_corpus(first);
        let outs_last: Vec<DecodeOutcome> = e.decode_corpus(last);

        let mean_latency = |outs: &[DecodeOutcome]| {
            outs.iter().map(|o| o.latency_us as f64).sum::<f64>() / outs.len() as f64
        };
        assert!(
            mean_latency(&outs_last) > mean_latency(&outs_first) * 1.5,
            "ladder should spread latency: {} vs {}",
            mean_latency(&outs_first),
            mean_latency(&outs_last)
        );

        let errors = |outs: &[DecodeOutcome]| outs.iter().map(|o| o.errors).sum::<usize>();
        assert!(
            errors(&outs_last) <= errors(&outs_first),
            "widest beam should not err more: {} vs {}",
            errors(&outs_first),
            errors(&outs_last)
        );
    }

    #[test]
    #[ignore = "calibration aid: prints per-version statistics"]
    fn calibration_report() {
        let e = AsrEngine::synthesize(CorpusConfig::evaluation().with_utterances(400));
        for cfg in BeamConfig::paper_versions() {
            let outs = e.decode_corpus(&cfg);
            let n = outs.len() as f64;
            let mean_lat = outs.iter().map(|o| o.latency_us as f64).sum::<f64>() / n / 1000.0;
            let mean_work = outs.iter().map(|o| o.work as f64).sum::<f64>() / n;
            let mut acc = wer::WerAccumulator::new();
            for o in &outs {
                acc.add_counts(o.errors, o.reference_words);
            }
            let exact = outs.iter().filter(|o| o.errors == 0).count();
            let conf_ok: Vec<f64> = outs
                .iter()
                .filter(|o| o.errors == 0)
                .map(|o| o.confidence)
                .collect();
            let conf_bad: Vec<f64> = outs
                .iter()
                .filter(|o| o.errors > 0)
                .map(|o| o.confidence)
                .collect();
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            let band_wer = |lo: f64, hi: f64| {
                let mut acc = wer::WerAccumulator::new();
                for (o, u) in outs.iter().zip(e.corpus().utterances()) {
                    if u.noise_sigma >= lo && u.noise_sigma < hi {
                        acc.add_counts(o.errors, o.reference_words);
                    }
                }
                acc.rate()
            };
            println!(
                "{}: wer={:.4} lat={:.1}ms work={:.0} exact={:.2} conf_ok={:.3} conf_bad={:.3} easy={:.3} med={:.3} hard={:.3}",
                cfg.name,
                acc.rate(),
                mean_lat,
                mean_work,
                exact as f64 / n,
                mean(&conf_ok),
                mean(&conf_bad),
                band_wer(0.0, 1.0),
                band_wer(1.0, 2.5),
                band_wer(2.5, 99.0),
            );
        }
    }

    #[test]
    #[ignore = "calibration aid: raw confidence signal distributions"]
    fn calibration_confidence_signals() {
        let e = AsrEngine::synthesize(CorpusConfig::evaluation().with_utterances(400));
        for cfg in [
            &BeamConfig::paper_versions()[0],
            &BeamConfig::paper_versions()[6],
        ] {
            let mut ok = (0.0f64, 0.0f64, 0usize);
            let mut bad = (0.0f64, 0.0f64, 0usize);
            let mut no_runner = 0usize;
            for u in e.corpus().utterances() {
                let frames = e
                    .acoustic
                    .render(&e.lexicon, &u.words, u.noise_sigma, u.render_seed);
                let r = e.decoder().decode(&frames, cfg);
                let margin = r.runner_up.map(|x| (r.score - x) / r.frames as f64);
                if margin.is_none() {
                    no_runner += 1;
                    continue;
                }
                let avg = r.score / r.frames as f64;
                let errs = wer::word_errors(&r.words, &u.words);
                let slot = if errs == 0 { &mut ok } else { &mut bad };
                slot.0 += margin.unwrap();
                slot.1 += avg;
                slot.2 += 1;
            }
            println!(
                "{}: ok(margin={:.3} avg={:.3} n={}) bad(margin={:.3} avg={:.3} n={}) no_runner={}",
                cfg.name,
                ok.0 / ok.2 as f64,
                ok.1 / ok.2 as f64,
                ok.2,
                bad.0 / bad.2 as f64,
                bad.1 / bad.2 as f64,
                bad.2,
                no_runner
            );
        }
    }

    #[test]
    #[ignore = "calibration aid: oracle decode on the easy band"]
    fn calibration_oracle() {
        let e = AsrEngine::synthesize(CorpusConfig::evaluation().with_utterances(150));
        for cfg in [
            BeamConfig::new("oracle", 40.0, 4000, 400),
            BeamConfig::new("cands-only", 14.5, 280, 400),
            BeamConfig::new("beam-only", 40.0, 4000, 44),
            BeamConfig::new("beam-mid", 14.5, 4000, 400),
            BeamConfig::new("active-mid", 40.0, 280, 400),
        ] {
            let mut acc = wer::WerAccumulator::new();
            let mut work = 0u64;
            for u in e
                .corpus()
                .utterances()
                .iter()
                .filter(|u| u.noise_sigma < 1.0)
            {
                let out = e.decode(u, &cfg);
                acc.add_counts(out.errors, out.reference_words);
                work += out.work;
            }
            println!(
                "{}: easy-band wer={:.4} work={}",
                cfg.name,
                acc.rate(),
                work
            );
        }
    }

    #[test]
    fn corpus_wer_is_in_plausible_range() {
        let e = engine();
        let wer = e.corpus_wer(&BeamConfig::paper_versions()[6]);
        assert!(wer < 0.8, "WER {wer} suspiciously high");
    }

    #[test]
    fn confidence_discriminates_correct_from_incorrect() {
        // Mean confidence of exact transcripts should exceed that of
        // erroneous ones under the cheapest version.
        let e = engine();
        let cfg = &BeamConfig::paper_versions()[0];
        let outs = e.decode_corpus(cfg);
        let (mut c_ok, mut n_ok, mut c_bad, mut n_bad) = (0.0, 0, 0.0, 0);
        for o in &outs {
            if o.errors == 0 {
                c_ok += o.confidence;
                n_ok += 1;
            } else {
                c_bad += o.confidence;
                n_bad += 1;
            }
        }
        assert!(
            n_ok > 0 && n_bad > 0,
            "need both outcomes: {n_ok} ok, {n_bad} bad"
        );
        assert!(
            c_ok / n_ok as f64 > c_bad / n_bad as f64,
            "confidence fails to discriminate: ok={} bad={}",
            c_ok / n_ok as f64,
            c_bad / n_bad as f64
        );
    }
}
