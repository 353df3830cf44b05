//! Engine state snapshots: serialize a quiescent engine's mutable state
//! and rebuild it inside a freshly-loaded policy.
//!
//! A snapshot is taken *between* events, when the agenda is empty —
//! [`crate::Engine::run`] always drains to quiescence, so every
//! complete, unblocked match has fired and is recorded in the
//! refraction set. That makes the agenda itself redundant: restoring
//! the facts through the normal assert path re-derives every complete
//! match, and refraction suppresses exactly the ones that already
//! fired, leaving the agenda empty again. What must be carried is:
//!
//! * the live facts, with their exact ids (ids are recency, and
//!   conflict resolution depends on them),
//! * the fact-id counter (so post-restore ids continue the sequence),
//! * the refraction set, pruned to keys whose facts are all live — a
//!   key naming a dead id can never be re-activated because ids are
//!   never reused,
//! * the activation sequence and fired-total counters (activation
//!   recency and [`crate::explain::FiringRecord::seq`] continuity),
//! * the [`MatchStats`] counters, restored wholesale because the
//!   network rebuild perturbs them.
//!
//! Rule bases, templates, globals and native functions are *not*
//! serialized: a snapshot is only meaningful against the same policy,
//! and the restoring host is expected to load it first.
//!
//! The byte format is a single unframed payload built from the
//! [`frame`](crate::frame) codec's varints and string interning.

use std::sync::Arc;

use crate::error::EngineError;
use crate::fact::FactId;
use crate::frame::{put_varint, Cursor, FrameError, Interner, StringTable};
use crate::rete::MatchStats;
use crate::value::Value;

/// Why a snapshot could not be decoded or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// The byte stream is truncated, corrupt, or not a snapshot.
    Corrupt(String),
    /// The engine rejected the snapshot (policy mismatch, or restore
    /// re-assertion failed).
    Engine(EngineError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapshotError::Engine(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<FrameError> for SnapshotError {
    fn from(e: FrameError) -> SnapshotError {
        SnapshotError::Corrupt(e.to_string())
    }
}

impl From<EngineError> for SnapshotError {
    fn from(e: EngineError) -> SnapshotError {
        SnapshotError::Engine(e)
    }
}

/// One live fact as carried by a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct FactRecord {
    /// The fact's working-memory id ([`FactId::raw`]).
    pub id: u64,
    /// Template name (must exist in the restoring engine).
    pub template: Arc<str>,
    /// Slot values in template declaration order.
    pub slots: Vec<Value>,
}

/// A quiescent engine's serializable state. See the module docs for
/// what is (and deliberately is not) carried.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineSnapshot {
    /// Live facts in ascending id order.
    pub facts: Vec<FactRecord>,
    /// The working-memory id counter (last id handed out).
    pub next_fact_id: u64,
    /// Refraction keys whose facts are all live: rule name plus the
    /// fact tuple (`None` for `not`/`test` positions).
    pub refraction: Vec<(Arc<str>, Vec<Option<u64>>)>,
    /// Activation sequence counter (recency for conflict resolution).
    pub activation_seq: u64,
    /// Rules fired over the engine's lifetime.
    pub fired_total: u64,
    /// Match-network counters, restored wholesale after the rebuild.
    pub match_stats: MatchStats,
}

const VALUE_SYM: u8 = 0;
const VALUE_STR: u8 = 1;
const VALUE_INT: u8 = 2;
const VALUE_FLOAT: u8 = 3;
const VALUE_MULTI: u8 = 4;
const VALUE_FACT: u8 = 5;

impl EngineSnapshot {
    /// Serializes the snapshot. The payload carries no framing; callers
    /// that persist it should wrap it in a CRC
    /// [`Framing`](crate::frame::Framing) so torn writes are detectable.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut strings = Interner::default();
        put_varint(&mut out, self.next_fact_id);
        put_varint(&mut out, self.activation_seq);
        put_varint(&mut out, self.fired_total);
        for counter in stats_fields(&self.match_stats) {
            put_varint(&mut out, counter);
        }
        put_varint(&mut out, self.facts.len() as u64);
        for fact in &self.facts {
            put_varint(&mut out, fact.id);
            strings.put(&mut out, &fact.template);
            put_varint(&mut out, fact.slots.len() as u64);
            for value in &fact.slots {
                put_value(&mut out, &mut strings, value);
            }
        }
        put_varint(&mut out, self.refraction.len() as u64);
        for (rule, tuple) in &self.refraction {
            strings.put(&mut out, rule);
            put_varint(&mut out, tuple.len() as u64);
            for slot in tuple {
                // 0 = None, id + 1 = Some(id).
                put_varint(&mut out, slot.map_or(0, |id| id + 1));
            }
        }
        out
    }

    /// Decodes a payload produced by [`EngineSnapshot::encode`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation, trailing bytes, or
    /// malformed content.
    pub fn decode(bytes: &[u8]) -> std::result::Result<EngineSnapshot, SnapshotError> {
        let mut r = Cursor::new(bytes);
        let mut strings = StringTable::default();
        let next_fact_id = r.varint()?;
        let activation_seq = r.varint()?;
        let fired_total = r.varint()?;
        let mut counters = [0u64; STATS_FIELDS];
        for counter in &mut counters {
            *counter = r.varint()?;
        }
        let match_stats = stats_from_fields(&counters);
        let n_facts = r.varint()? as usize;
        let mut facts = Vec::with_capacity(n_facts.min(1 << 16));
        let mut prev_id = 0u64;
        for _ in 0..n_facts {
            let id = r.varint()?;
            if id <= prev_id {
                return Err(SnapshotError::Corrupt(format!(
                    "fact ids not ascending ({prev_id} then {id})"
                )));
            }
            prev_id = id;
            let template = strings.get(&mut r)?.clone();
            let n_slots = r.varint()? as usize;
            let mut slots = Vec::with_capacity(n_slots.min(1 << 12));
            for _ in 0..n_slots {
                slots.push(get_value(&mut r, &mut strings)?);
            }
            facts.push(FactRecord { id, template, slots });
        }
        let n_refraction = r.varint()? as usize;
        let mut refraction = Vec::with_capacity(n_refraction.min(1 << 16));
        for _ in 0..n_refraction {
            let rule = strings.get(&mut r)?.clone();
            let tuple_len = r.varint()? as usize;
            let mut tuple = Vec::with_capacity(tuple_len.min(1 << 8));
            for _ in 0..tuple_len {
                let raw = r.varint()?;
                tuple.push(raw.checked_sub(1));
            }
            refraction.push((rule, tuple));
        }
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after snapshot",
                r.remaining()
            )));
        }
        Ok(EngineSnapshot {
            facts,
            next_fact_id,
            refraction,
            activation_seq,
            fired_total,
            match_stats,
        })
    }
}

const STATS_FIELDS: usize = 12;

fn stats_fields(s: &MatchStats) -> [u64; STATS_FIELDS] {
    [
        s.alpha_tests,
        s.alpha_hits,
        s.join_attempts,
        s.join_matches,
        s.neg_checks,
        s.tokens_created,
        s.tokens_removed,
        s.tokens_live,
        s.index_lookups,
        s.index_hits,
        s.activations,
        s.resequences,
    ]
}

fn stats_from_fields(f: &[u64; STATS_FIELDS]) -> MatchStats {
    MatchStats {
        alpha_tests: f[0],
        alpha_hits: f[1],
        join_attempts: f[2],
        join_matches: f[3],
        neg_checks: f[4],
        tokens_created: f[5],
        tokens_removed: f[6],
        tokens_live: f[7],
        index_lookups: f[8],
        index_hits: f[9],
        activations: f[10],
        resequences: f[11],
    }
}

fn put_value(out: &mut Vec<u8>, strings: &mut Interner, value: &Value) {
    match value {
        Value::Sym(s) => {
            out.push(VALUE_SYM);
            strings.put(out, s);
        }
        Value::Str(s) => {
            out.push(VALUE_STR);
            strings.put(out, s);
        }
        Value::Int(i) => {
            out.push(VALUE_INT);
            put_varint(out, zigzag(*i));
        }
        Value::Float(f) => {
            out.push(VALUE_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Multi(items) => {
            out.push(VALUE_MULTI);
            put_varint(out, items.len() as u64);
            for item in items.iter() {
                put_value(out, strings, item);
            }
        }
        Value::Fact(id) => {
            out.push(VALUE_FACT);
            put_varint(out, id.raw());
        }
    }
}

fn get_value(
    r: &mut Cursor<'_>,
    strings: &mut StringTable,
) -> std::result::Result<Value, SnapshotError> {
    match r.byte()? {
        VALUE_SYM => Ok(Value::Sym(strings.get(r)?.clone())),
        VALUE_STR => Ok(Value::Str(strings.get(r)?.clone())),
        VALUE_INT => Ok(Value::Int(unzigzag(r.varint()?))),
        VALUE_FLOAT => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(r.array()?)))),
        VALUE_MULTI => {
            let len = r.varint()? as usize;
            let mut items = Vec::with_capacity(len.min(1 << 12));
            for _ in 0..len {
                items.push(get_value(r, strings)?);
            }
            Ok(Value::Multi(items.into()))
        }
        VALUE_FACT => Ok(Value::Fact(FactId::from_raw(r.varint()?))),
        tag => Err(SnapshotError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineSnapshot {
        EngineSnapshot {
            facts: vec![
                FactRecord { id: 1, template: "initial-fact".into(), slots: vec![] },
                FactRecord {
                    id: 7,
                    template: "event".into(),
                    slots: vec![
                        Value::sym("SYS_open"),
                        Value::str("/etc/passwd"),
                        Value::Int(-3),
                        Value::Float(2.5),
                        Value::multi([Value::sym("FILE"), Value::Int(9)]),
                        Value::Fact(FactId::from_raw(1)),
                    ],
                },
            ],
            next_fact_id: 42,
            refraction: vec![
                ("rule-a".into(), vec![Some(1), None, Some(7)]),
                ("rule-b".into(), vec![Some(7)]),
            ],
            activation_seq: 99,
            fired_total: 12,
            match_stats: MatchStats { alpha_tests: 5, tokens_live: 3, ..MatchStats::default() },
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample();
        let bytes = snap.encode();
        let back = EngineSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                EngineSnapshot::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded cleanly"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(EngineSnapshot::decode(&bytes), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn non_ascending_fact_ids_are_rejected() {
        let mut snap = sample();
        snap.facts.reverse();
        assert!(EngineSnapshot::decode(&snap.encode()).is_err());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
