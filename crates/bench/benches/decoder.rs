//! Micro-benchmark: beam-search decode latency per service version
//! (the real compute behind the ASR side of Fig. 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tt_asr::acoustic::AcousticModel;
use tt_asr::decoder::{BeamConfig, Decoder};
use tt_asr::lexicon::Lexicon;
use tt_asr::lm::LanguageModel;

fn bench_decoder(c: &mut Criterion) {
    let lexicon = Lexicon::synthesize(2_000, 7);
    let lm = LanguageModel::synthesize(2_000, 16, 7);
    let acoustic = AcousticModel::default();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let words = lm.sample_sentence(&mut rng, 8);
    let frames = acoustic.render(&lexicon, &words, 1.2, 11);
    let mut decoder = Decoder::new(&lexicon, &lm);

    let mut group = c.benchmark_group("decode_one_utterance");
    group.sample_size(20);
    for config in BeamConfig::paper_versions() {
        group.bench_with_input(
            BenchmarkId::from_parameter(config.name.clone()),
            &config,
            |b, cfg| b.iter(|| decoder.decode(&frames, cfg)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decoder);
criterion_main!(benches);
