//! # hth-fleet — concurrent monitoring fleets over the event protocol
//!
//! The paper's architecture (§6.1.2, Figure 1) decouples Harrier (the
//! monitor) from Secpert (the analyst) with an event protocol. This
//! crate makes that protocol a real, concurrent, persistable stream:
//!
//! * [`wire`] — a compact versioned binary codec for
//!   [`harrier::SecpertEvent`] (varints, per-stream string interning,
//!   magic + version header),
//! * [`journal`] — append-only event journals over any `Write`/`Read`,
//!   with per-frame CRC32 (v2), segment rotation, and a recovery scan
//!   that salvages every decodable frame from a corrupted file
//!   ([`journal::replay`], [`journal::recover`]),
//! * [`batch`] — the reusable [`EventBatch`] buffer both the analyst
//!   pool and the replay path move events in, so queue, span and sink
//!   crossings are paid per batch instead of per event,
//! * [`pool`] — a sharded, *supervised* analyst pool: worker threads
//!   with private [`hth_core::Secpert`] engines, sessions hashed to
//!   shards, bounded queues with explicit [`pool::Backpressure`], panics
//!   quarantined and engines respawned under a retry budget,
//! * [`fleet`] — an orchestrator running many workload sessions across
//!   threads, fanning events into the pool and aggregating a
//!   [`fleet::FleetReport`],
//! * [`faults`] — deterministic seeded fault injection
//!   ([`faults::FaultPlan`], `hth fleet --chaos-seed N`) so the whole
//!   failure model above is reproducible and testable.

#![warn(missing_docs)]

pub mod batch;
pub mod digest_wire;
pub mod faults;
pub mod fleet;
pub mod journal;
pub mod pool;
pub mod wire;

pub use batch::EventBatch;
pub use digest_wire::{
    read_digest_stream, write_digest_stream, DigestDecoder, DigestEncoder, DIGEST_VERSION,
};
pub use faults::{ConnectionFault, FaultPlan, JournalFault};
pub use fleet::{run_scenarios, warning_multiset, FleetConfig, FleetReport, WarningKey};
pub use journal::{
    recover, recover_segments, replay, replay_batched, replay_repair, replay_repair_batched,
    replay_segments, replay_segments_batched, segment_path, segment_paths, JournalReader,
    JournalWriter, RecoveryOutcome, RecoveryReport, ReplayError, SegmentedJournalWriter,
    JOURNAL_V1, JOURNAL_V2, JOURNAL_V3,
};
pub use pool::{AnalystPool, Backpressure, PoolConfig, PoolReport, SessionId, ShardStats};
pub use wire::{EventDecoder, EventEncoder, WireError, MAX_FRAME_LEN};
