//! The ASR profile matrix, pinned.
//!
//! Every ASR figure in EXPERIMENTS.md, every routing rule generated
//! from the ASR workload and the benchmark's `rulegen_offline` gates
//! start from `AsrWorkload::build`'s matrix. The constants below were
//! recorded at commit `3671b5b`, from the sequential profiling pass and
//! the hash-map decoder that the scratch-owning one replaced; a decoder
//! change that moves one bit of one observation fails here in seconds
//! instead of surfacing as a shifted figure after the full suite.
//! Re-record them only for a change that is *meant* to move the paper's
//! ASR numbers, and say so. That the matrix is the same on any number
//! of workers is held by `asr_workload::tests` inside the crate, where
//! the worker count can be set.

use tt_asr::decoder::BeamConfig;
use tt_asr::CorpusConfig;
use tt_core::ProfileMatrix;
use tt_workloads::AsrWorkload;

/// Fingerprint of `CorpusConfig::evaluation().with_utterances(400)`
/// under the paper ladder.
const EVALUATION_400: u64 = 0xfc4a_2a1a_b4a6_8500;
/// Decoder work (token expansions) per version over those 400
/// utterances: the input of the latency model.
const EVALUATION_400_WORK: [u64; 7] = [
    5_487_676, 6_820_696, 8_594_999, 10_847_621, 15_203_712, 22_023_886, 31_754_872,
];

/// Fingerprint of `CorpusConfig::small()` under the paper ladder.
const SMALL: u64 = 0x2a5d_3c6d_6e32_8742;
const SMALL_WORK: [u64; 7] = [
    184_932, 251_912, 342_630, 453_204, 658_921, 917_091, 1_237_011,
];

/// FNV-1a over every observation's bits, request-major.
fn fingerprint(matrix: &ProfileMatrix) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bits: u64| {
        for byte in bits.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for request in 0..matrix.requests() {
        for version in 0..matrix.versions() {
            let o = matrix.get(request, version);
            fold(o.quality_err.to_bits());
            fold(o.latency_us);
            fold(o.cost.to_bits());
            fold(o.confidence.to_bits());
        }
    }
    hash
}

fn assert_pinned(config: CorpusConfig, expected: u64, expected_work: [u64; 7]) {
    let workload = AsrWorkload::build(config);
    assert_eq!(
        fingerprint(workload.matrix()),
        expected,
        "the ASR profile matrix moved"
    );
    let work: Vec<u64> = BeamConfig::paper_versions()
        .iter()
        .map(|version| {
            let outcomes = workload.engine().decode_corpus(version);
            outcomes.iter().map(|o| o.work).sum()
        })
        .collect();
    assert_eq!(work, expected_work, "the decoder's work counter moved");
}

#[test]
fn evaluation_corpus_matches_the_recorded_profile() {
    assert_pinned(
        CorpusConfig::evaluation().with_utterances(400),
        EVALUATION_400,
        EVALUATION_400_WORK,
    );
}

#[test]
fn small_corpus_matches_the_recorded_profile() {
    assert_pinned(CorpusConfig::small(), SMALL, SMALL_WORK);
}
