//! Incremental match network (Rete-style).
//!
//! Replaces the per-assert full-join matcher with an alpha/beta network
//! that propagates working-memory deltas through per-rule token chains:
//!
//! - [`compile`] extracts constant discriminators and shared-variable
//!   join keys from each condition element;
//! - [`network`] splits the network in two: the immutable
//!   `CompiledNetwork` (productions and template dispatch tables, held
//!   by the shared [`crate::RuleBase`]) and the per-engine
//!   `ReteNetwork` (token tree, beta memories and the assert/retract
//!   propagation), emitting agenda edits that reproduce the naive
//!   matcher's activation order byte-for-byte;
//! - [`stats`] counts the work performed, surfaced as [`MatchStats`]
//!   through `Engine::match_stats` and aggregated fleet-wide.
//!
//! The old matcher stays available behind the `naive-match` feature as a
//! differential oracle (`tests/match_diff.rs`).

pub(crate) mod compile;
pub mod network;
mod stats;

pub(crate) use network::{CompiledNetwork, ReteNetwork, UpdateOutcome};
pub use stats::MatchStats;
