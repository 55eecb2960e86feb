//! Heap-allocation accounting for the beam decoder.
//!
//! Profiling the ASR ladder decodes every utterance under every service
//! version: 400 utterances x 7 versions is a quarter of a million
//! frames, and an allocation per frame would be paid that often by every
//! benchmark run, experiment binary and test session. The decoder owns
//! its buffers instead. These tests install a counting global allocator
//! and assert that a warm decoder allocates exactly one block per decode
//! — the hypothesis it returns — however many frames the utterance has,
//! alone or in a ladder call, whose versions share the fast match's
//! per-frame ranking table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tt_asr::acoustic::{AcousticModel, Frame};
use tt_asr::{AsrEngine, BeamConfig, CorpusConfig, Utterance};

/// Counts allocations made by the current thread. The counter is a
/// `const`-initialized non-`Drop` thread-local, so reading it from
/// inside the allocator cannot itself allocate or recurse.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by the current thread while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

fn render(engine: &AsrEngine, utterance: &Utterance) -> Vec<Frame> {
    AcousticModel::default().render(
        engine.lexicon(),
        &utterance.words,
        utterance.noise_sigma,
        utterance.render_seed,
    )
}

#[test]
fn a_warm_decoder_allocates_only_the_hypothesis_it_returns() {
    let engine = AsrEngine::synthesize(CorpusConfig::small());
    let versions = BeamConfig::paper_versions();
    let mut decoder = engine.decoder();
    let corpus: Vec<Vec<Frame>> = engine
        .corpus()
        .utterances()
        .iter()
        .map(|u| render(&engine, u))
        .collect();

    // The buffers grow to the largest beam, bucket and backtrace they
    // meet; one pass over the corpus takes them there.
    for frames in &corpus {
        for version in &versions {
            decoder.decode(frames, version);
        }
    }

    for (utterance, frames) in corpus.iter().enumerate() {
        assert!(frames.len() > 10, "a decode spans many frames");
        for version in &versions {
            let (allocations, result) = allocations_during(|| decoder.decode(frames, version));
            assert!(!result.words.is_empty());
            assert_eq!(
                allocations,
                1,
                "utterance {utterance} under {}: {} frames",
                version.name,
                frames.len()
            );
        }
    }
}

#[test]
fn a_warm_ladder_call_allocates_one_hypothesis_per_version() {
    let engine = AsrEngine::synthesize(CorpusConfig::small());
    let versions = BeamConfig::paper_versions();
    let mut decoder = engine.decoder();
    let corpus: Vec<Vec<Frame>> = engine
        .corpus()
        .utterances()
        .iter()
        .map(|u| render(&engine, u))
        .collect();
    for frames in &corpus {
        decoder.decode_ladder(frames, &versions, drop);
    }

    for (utterance, frames) in corpus.iter().enumerate() {
        let (allocations, decoded) = allocations_during(|| {
            let mut decoded = 0;
            decoder.decode_ladder(frames, &versions, |result| {
                assert!(!result.words.is_empty());
                decoded += 1;
            });
            decoded
        });
        assert_eq!(decoded, versions.len());
        assert_eq!(
            allocations,
            versions.len() as u64,
            "utterance {utterance}: {} frames",
            frames.len()
        );
    }
}

#[test]
fn one_warm_up_utterance_ends_per_frame_allocation() {
    // Straight after a single utterance the buffers may still grow, but
    // by doubling: a handful of blocks, not one per frame.
    let engine = AsrEngine::synthesize(CorpusConfig::small());
    let versions = BeamConfig::paper_versions();
    let mut decoder = engine.decoder();
    let utterances = engine.corpus().utterances();
    let warm_up = render(&engine, &utterances[0]);
    for version in &versions {
        decoder.decode(&warm_up, version);
    }

    let frames = render(&engine, &utterances[1]);
    let returned = versions.len() as u64;
    let (allocations, _) = allocations_during(|| {
        for version in &versions {
            decoder.decode(&frames, version);
        }
    });
    assert!(
        allocations < returned + 8,
        "{allocations} allocations over {} frames x {returned} versions",
        frames.len()
    );

    // The same for a ladder call, on a decoder that has seen only one
    // ladder: its ranking table grows with the utterance, by doubling.
    let mut decoder = engine.decoder();
    decoder.decode_ladder(&warm_up, &versions, drop);
    let (allocations, _) = allocations_during(|| decoder.decode_ladder(&frames, &versions, drop));
    assert!(
        allocations < returned + 8,
        "{allocations} allocations in a ladder call over {} frames",
        frames.len()
    );
}
