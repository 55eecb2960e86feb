//! The beam-search decoder.
//!
//! A token-passing Viterbi search over the utterance's emission frames.
//! Each token occupies a state `(word, phone index)`; per frame a token
//! may *stay* in its phone, *advance* to the next phone, or — when at the
//! final phone of its word — *exit* into a candidate next word scored by
//! the language model. The search is pruned three ways, matching the
//! orthogonal heuristic concerns the paper describes:
//!
//! * **local** — a log-probability beam relative to the frame's best
//!   token ([`BeamConfig::beam`]);
//! * **global** — histogram pruning to the top
//!   [`BeamConfig::max_active`] tokens;
//! * **network** — the number of successor words expanded at word exits
//!   ([`BeamConfig::word_exit_candidates`]), plus a tighter word-end
//!   beam ([`BeamConfig::word_end_beam`]).
//!
//! The decoder counts every token expansion; the engine converts that
//! work into a deterministic latency.

mod beam;
mod config;
mod fast_match;

pub use beam::{DecodeResult, Decoder, Hypothesis};
pub use config::BeamConfig;
pub use fast_match::FastMatch;
