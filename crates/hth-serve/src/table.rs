//! The session table: lifecycle, memory budget, snapshot/restore.
//!
//! Every monitored program the daemon tracks is one *session*: a
//! [`Secpert`] engine, an in-memory event journal, and a warning
//! multiset. Sessions are created on first use and live in one of two
//! states:
//!
//! * **resident** — the engine is in memory and counted against the
//!   global hot-byte budget via [`Secpert::approx_bytes`],
//! * **evicted** — the engine was serialised by [`Secpert::snapshot`]
//!   at a quiescent point and dropped; only the snapshot bytes and the
//!   journal remain (cold state, not budgeted).
//!
//! After every request the table enforces the invariant *accounted
//! resident bytes ≤ budget* by evicting least-recently-used sessions;
//! an idle sweep additionally evicts sessions untouched for longer than
//! the configured timeout. A submit to an evicted session revives it:
//! restore from the snapshot, then replay the journal tail past the
//! snapshot's event cursor (warnings from replay are discarded — they
//! were already recorded when the events were first accepted). If the
//! snapshot is torn or unreadable the revive falls back to a fresh
//! engine and a full journal replay, which produces the same final
//! state because the engine is deterministic.
//!
//! Determinism is the contract the whole design leans on: the engine
//! snapshot suite proves evict-at-*k* + resume is byte-identical to an
//! uninterrupted run, so the table may evict *any* session at *any*
//! request boundary without changing a single warning.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use harrier::SecpertEvent;
use hth_core::{
    CorrelateConfig, CorrelationReport, Correlator, DigestBuilder, PolicyConfig, PolicyCounters,
    Secpert, SessionDigest, Severity,
};
use hth_fleet::journal::{recover, JournalWriter};
use hth_fleet::{read_digest_stream, write_digest_stream, FaultPlan};
use hth_trace::{
    BundleRing, DiagLevel, FlightRecorder, Histogram, MetricsSnapshot, Trigger,
    DEFAULT_FLIGHT_CAPACITY,
};

use crate::protocol::ServeStats;
use crate::status::{SessionRow, StatusReport};
use crate::ServeError;

/// Growable in-memory journal sink shared between the writer (which
/// owns it by value) and the table (which reads it back on revive).
#[derive(Clone, Debug, Default)]
pub(crate) struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Tuning for a [`SessionTable`].
#[derive(Clone, Debug)]
pub struct TableConfig {
    /// Policy every session engine is built from.
    pub policy: PolicyConfig,
    /// Global cap on resident engine bytes (as accounted by
    /// [`Secpert::approx_bytes`]); LRU eviction enforces it after every
    /// request. Zero forces full churn: every session is evicted as
    /// soon as its request completes.
    pub budget_bytes: usize,
    /// Evict sessions untouched for this long (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Fault plan consulted for torn snapshot writes.
    pub faults: Arc<FaultPlan>,
    /// Run the fleet correlator over the live digests when stats are
    /// taken (and in the drain summary). `None` keeps digest collection
    /// on but skips correlation.
    pub correlate: Option<CorrelateConfig>,
    /// Flight-recorder ring capacity (recent events retained for
    /// diagnostic bundles). Zero disables the recorder; that exists for
    /// overhead baselines, production tables keep it on.
    pub flight_capacity: usize,
}

impl Default for TableConfig {
    fn default() -> TableConfig {
        TableConfig {
            policy: PolicyConfig::default(),
            budget_bytes: 64 << 20,
            idle_timeout: None,
            faults: Arc::new(FaultPlan::new()),
            correlate: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

struct SessionSlot {
    /// The engine, when resident.
    expert: Option<Secpert>,
    /// Eviction-time snapshot (present iff evicted and the write
    /// succeeded; may be torn by the fault plan).
    snapshot: Option<Vec<u8>>,
    /// Append-only event journal for this session.
    journal: JournalWriter<SharedBuf>,
    /// The journal's backing buffer, read back on revive.
    journal_buf: SharedBuf,
    /// Accounted bytes while resident (zero when evicted).
    hot_bytes: usize,
    /// Warnings this session has raised, keyed like the fleet multiset.
    warnings: BTreeMap<(Severity, String), usize>,
    /// The session's live correlation digest. Deliberately *outside*
    /// the engine: it survives eviction untouched, so the digest stream
    /// is identical whatever the memory budget did to the session.
    digest: DigestBuilder,
    /// Logical LRU clock of the last touch.
    last_touch: u64,
    /// Wall-clock of the last touch, for the idle sweep.
    last_instant: Instant,
}

struct TableState {
    slots: BTreeMap<u64, SessionSlot>,
    /// Warnings of closed sessions, folded in at close time.
    retired: BTreeMap<(Severity, String), usize>,
    /// Digests of closed sessions, folded in at close time (merged if
    /// the session id is later reused).
    retired_digests: BTreeMap<u64, SessionDigest>,
    clock: u64,
    events_total: u64,
    warnings_total: u64,
    evictions: u64,
    restores: u64,
    fallback_replays: u64,
    resident_high_water: u64,
}

/// The daemon's session registry; every method is safe to call from
/// many worker threads at once.
pub struct SessionTable {
    inner: Mutex<TableState>,
    config: TableConfig,
    /// Always-on flight recorder (`None` only at `flight_capacity: 0`).
    flight: Option<FlightRecorder>,
    /// Retained diagnostic bundles, `/bundles/<n>`-indexable.
    bundles: Arc<BundleRing>,
    /// Server-side ack latency in microseconds (decode to ack written).
    ack_latency: Mutex<Histogram>,
}

impl SessionTable {
    /// An empty table.
    pub fn new(config: TableConfig) -> SessionTable {
        SessionTable {
            flight: (config.flight_capacity > 0)
                .then(|| FlightRecorder::new(config.flight_capacity)),
            bundles: Arc::new(BundleRing::default()),
            ack_latency: Mutex::new(Histogram::default()),
            inner: Mutex::new(TableState {
                slots: BTreeMap::new(),
                retired: BTreeMap::new(),
                retired_digests: BTreeMap::new(),
                clock: 0,
                events_total: 0,
                warnings_total: 0,
                evictions: 0,
                restores: 0,
                fallback_replays: 0,
                resident_high_water: 0,
            }),
            config,
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates the session if it does not exist, and touches it.
    pub fn open(&self, sid: u64) -> Result<(), ServeError> {
        let mut st = self.lock();
        self.ensure_slot(&mut st, sid)?;
        self.touch(&mut st, sid);
        self.enforce(&mut st)?;
        Ok(())
    }

    /// Feeds one event to the session (creating or reviving it as
    /// needed) and returns how many warnings the event raised.
    pub fn submit(&self, sid: u64, event: &SecpertEvent) -> Result<u64, ServeError> {
        let mut st = self.lock();
        self.ensure_slot(&mut st, sid)?;
        self.revive_if_needed(&mut st, sid)?;
        let slot = st.slots.get_mut(&sid).expect("slot ensured");
        let expert = slot.expert.as_mut().expect("slot revived");
        let warnings = expert.process_event(event).map_err(ServeError::Engine)?;
        slot.journal.append(event).map_err(ServeError::Wire)?;
        slot.hot_bytes = expert.approx_bytes();
        slot.digest.observe(event);
        let raised = warnings.len() as u64;
        for w in &warnings {
            *slot.warnings.entry((w.severity, w.rule.clone())).or_default() += 1;
            slot.digest.observe_warning(w);
        }
        st.events_total += 1;
        st.warnings_total += raised;
        if let Some(flight) = &self.flight {
            flight.record(sid, event.time(), "event", event.syscall(), event.resource_name());
            for w in warnings.iter().filter(|w| w.severity == Severity::High) {
                let provenance: Vec<String> = w
                    .provenance
                    .as_ref()
                    .map(|p| p.render_tree(w))
                    .unwrap_or_default()
                    .lines()
                    .map(str::to_string)
                    .collect();
                let stats = self.snapshot_locked(&st);
                self.bundles.push(flight.capture(
                    "serve.table",
                    Trigger::Warning {
                        rule: w.rule.clone(),
                        severity: w.severity.label().to_string(),
                    },
                    stats,
                    provenance,
                ));
            }
        }
        self.touch(&mut st, sid);
        self.enforce(&mut st)?;
        Ok(raised)
    }

    /// Retires the session: folds its warnings into the retired set and
    /// frees all its state. Returns the session's total warning count.
    pub fn close(&self, sid: u64) -> Result<u64, ServeError> {
        let mut st = self.lock();
        let slot = st
            .slots
            .remove(&sid)
            .ok_or_else(|| ServeError::Protocol(format!("close of unknown session {sid}")))?;
        let total: usize = slot.warnings.values().sum();
        for (key, n) in slot.warnings {
            *st.retired.entry(key).or_default() += n;
        }
        let digest = slot.digest.finish();
        match st.retired_digests.entry(sid) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(digest);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&digest),
        }
        Ok(total as u64)
    }

    /// Binds a program label to the session (creating it if needed);
    /// the label rides the digest stream into the correlator, whose
    /// `shared-c2` rule keys on label diversity.
    pub fn set_label(&self, sid: u64, label: &str) -> Result<(), ServeError> {
        let mut st = self.lock();
        self.ensure_slot(&mut st, sid)?;
        st.slots.get_mut(&sid).expect("slot ensured").digest.set_label(label);
        self.touch(&mut st, sid);
        self.enforce(&mut st)?;
        Ok(())
    }

    /// Point-in-time digests of every session the table has seen:
    /// closed sessions as retired, open ones as live snapshots (merged
    /// when a closed id was reopened), in session order.
    pub fn digests(&self) -> Vec<SessionDigest> {
        let st = self.lock();
        let mut digests = st.retired_digests.clone();
        for (sid, slot) in &st.slots {
            let snapshot = slot.digest.snapshot();
            match digests.entry(*sid) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(snapshot);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&snapshot),
            }
        }
        digests.into_values().collect()
    }

    /// The live digests as one wire stream ([`write_digest_stream`]) —
    /// what `hth explain` consumes for fleet-level causality.
    pub fn digest_stream(&self) -> Vec<u8> {
        write_digest_stream(&self.digests())
    }

    /// Runs the fleet correlator over the live digest stream. The
    /// digests go through the wire codec on purpose: the serve path
    /// proves the same bytes `hth fleet` ships between processes.
    ///
    /// # Errors
    ///
    /// Engine failures building or running the correlator policy, wire
    /// errors if the digest stream is malformed (it cannot be — it was
    /// just written — but the decode is checked anyway).
    pub fn correlate(&self, config: &CorrelateConfig) -> Result<CorrelationReport, ServeError> {
        let mut correlator = Correlator::new(config.clone());
        for digest in read_digest_stream(&self.digest_stream()).map_err(ServeError::Wire)? {
            correlator.ingest(digest);
        }
        correlator.correlate().map_err(ServeError::Engine)
    }

    /// Evicts resident sessions idle longer than the configured
    /// timeout; returns how many were evicted.
    pub fn sweep_idle(&self) -> Result<usize, ServeError> {
        let Some(timeout) = self.config.idle_timeout else { return Ok(0) };
        let mut st = self.lock();
        let now = Instant::now();
        let stale: Vec<u64> = st
            .slots
            .iter()
            .filter(|(_, s)| s.expert.is_some() && now.duration_since(s.last_instant) >= timeout)
            .map(|(sid, _)| *sid)
            .collect();
        let count = stale.len();
        for sid in stale {
            self.evict(&mut st, sid)?;
        }
        Ok(count)
    }

    /// Point-in-time counters. When the table was configured with a
    /// correlator, this runs a correlation pass over the live digests
    /// (the count is a *result*, not a cached counter — the fleet
    /// picture changes as sessions progress).
    pub fn stats(&self) -> ServeStats {
        let mut stats = {
            let st = self.lock();
            let resident = st.slots.values().filter(|s| s.expert.is_some()).count() as u64;
            ServeStats {
                sessions_resident: resident,
                sessions_open: st.slots.len() as u64,
                events_total: st.events_total,
                warnings_total: st.warnings_total,
                evictions: st.evictions,
                restores: st.restores,
                fallback_replays: st.fallback_replays,
                resident_bytes: st.slots.values().map(|s| s.hot_bytes as u64).sum(),
                correlator_warnings: 0,
            }
        };
        if let Some(config) = &self.config.correlate {
            if let Ok(report) = self.correlate(config) {
                stats.correlator_warnings = report.warnings.len() as u64;
            }
        }
        stats
    }

    /// Highest number of simultaneously resident sessions observed.
    pub fn resident_high_water(&self) -> u64 {
        self.lock().resident_high_water
    }

    /// The aggregate warning multiset: every open session plus every
    /// closed one, keyed exactly like [`hth_fleet::warning_multiset`].
    pub fn warning_counts(&self) -> BTreeMap<(Severity, String), usize> {
        let st = self.lock();
        let mut counts = st.retired.clone();
        for slot in st.slots.values() {
            for (key, n) in &slot.warnings {
                *counts.entry(key.clone()).or_default() += n;
            }
        }
        counts
    }

    /// Whether the session's engine is currently in memory (`None` for
    /// an unknown session).
    pub fn is_resident(&self, sid: u64) -> Option<bool> {
        self.lock().slots.get(&sid).map(|s| s.expert.is_some())
    }

    /// The stored eviction snapshot of an evicted session, if any (a
    /// torn write may have been planted by the fault plan; a resident
    /// session has none).
    pub fn evicted_snapshot(&self, sid: u64) -> Option<Vec<u8>> {
        self.lock().slots.get(&sid).and_then(|s| s.snapshot.clone())
    }

    /// Folds the table's gauges, counters, and resident engines' match
    /// statistics into a metrics snapshot (the `/metrics` endpoint and
    /// the drain summary both read this), plus the process-wide policy
    /// compile and instantiation counters.
    pub fn record_metrics(&self, metrics: &mut MetricsSnapshot) {
        PolicyCounters::read().record_metrics(metrics);
        let stats = self.stats();
        metrics.set_gauge("hth_serve_sessions_resident", stats.sessions_resident as i64);
        metrics.set_gauge("hth_serve_sessions_open", stats.sessions_open as i64);
        metrics.set_gauge("hth_serve_resident_bytes", stats.resident_bytes as i64);
        metrics.set_gauge("hth_serve_budget_bytes", self.config.budget_bytes as i64);
        metrics.add_counter("hth_serve_events_total", stats.events_total);
        metrics.add_counter("hth_serve_warnings_total", stats.warnings_total);
        metrics.add_counter("hth_serve_evictions_total", stats.evictions);
        metrics.add_counter("hth_serve_restores_total", stats.restores);
        metrics.add_counter("hth_serve_fallback_replays_total", stats.fallback_replays);
        metrics.add_counter("hth_serve_correlator_warnings", stats.correlator_warnings);
        metrics
            .max_gauge("hth_serve_sessions_resident_high_water", self.resident_high_water() as i64);
        metrics.merge_histogram(
            "hth_serve_ack_latency",
            &self.ack_latency.lock().unwrap_or_else(PoisonError::into_inner),
        );
        let st = self.lock();
        for slot in st.slots.values() {
            if let Some(expert) = &slot.expert {
                expert.record_metrics(metrics);
            }
        }
    }

    /// Records one server-side ack latency observation: the time from a
    /// decoded request to its ack written, in microseconds (exported as
    /// the `hth_serve_ack_latency` histogram).
    pub fn observe_ack_micros(&self, micros: u64) {
        self.ack_latency.lock().unwrap_or_else(PoisonError::into_inner).observe(micros);
    }

    /// The table's flight recorder (`None` at `flight_capacity: 0`).
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// The retained diagnostic bundles (`/bundles/<n>` indexes these).
    pub fn bundle_ring(&self) -> &Arc<BundleRing> {
        &self.bundles
    }

    /// Captures a protocol-drop bundle and logs the drop: a connection
    /// is about to be poisoned by a framing or decode error, which would
    /// otherwise be silent on the server side.
    pub fn capture_protocol_drop(&self, error: &str) {
        hth_trace::global_diag().log(
            DiagLevel::Warn,
            "serve.conn",
            &format!("dropping connection: {error}"),
        );
        let Some(flight) = &self.flight else { return };
        let stats = {
            let st = self.lock();
            self.snapshot_locked(&st)
        };
        self.bundles.push(flight.capture(
            "serve.conn",
            Trigger::ProtocolDrop { error: error.to_string() },
            stats,
            Vec::new(),
        ));
    }

    /// Builds the `/statusz` view: counters, per-session rows, ack
    /// latency quantiles, and the retained bundle index.
    pub fn status_report(&self, uptime_secs: u64) -> StatusReport {
        let stats = self.stats();
        let ack = self.ack_latency.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let sessions: Vec<SessionRow> = {
            let st = self.lock();
            st.slots
                .iter()
                .map(|(sid, slot)| {
                    let digest = slot.digest.digest();
                    SessionRow {
                        sid: *sid,
                        label: digest.label.clone(),
                        resident: slot.expert.is_some(),
                        bytes: slot.hot_bytes as u64,
                        events: digest.events,
                        warnings: slot.warnings.values().sum::<usize>() as u64,
                    }
                })
                .collect()
        };
        StatusReport {
            uptime_secs,
            stats,
            budget_bytes: self.config.budget_bytes as u64,
            sessions,
            ack_p50_us: ack.quantile(0.50),
            ack_p99_us: ack.quantile(0.99),
            ack_count: ack.count(),
            bundles_total: self.bundles.total(),
            bundles: self.bundles.list().iter().map(|b| b.summary()).collect(),
        }
    }

    /// A metrics snapshot built from an already-held table lock (bundle
    /// captures run inside request handling; calling
    /// [`SessionTable::record_metrics`] there would self-deadlock on the
    /// table mutex).
    fn snapshot_locked(&self, st: &TableState) -> MetricsSnapshot {
        let mut stats = MetricsSnapshot::new();
        stats.add_counter("hth_serve_events_total", st.events_total);
        stats.add_counter("hth_serve_warnings_total", st.warnings_total);
        stats.add_counter("hth_serve_evictions_total", st.evictions);
        stats.add_counter("hth_serve_restores_total", st.restores);
        stats.add_counter("hth_serve_fallback_replays_total", st.fallback_replays);
        stats.set_gauge(
            "hth_serve_sessions_resident",
            st.slots.values().filter(|s| s.expert.is_some()).count() as i64,
        );
        stats.set_gauge("hth_serve_sessions_open", st.slots.len() as i64);
        stats.merge_histogram(
            "hth_serve_ack_latency",
            &self.ack_latency.lock().unwrap_or_else(PoisonError::into_inner),
        );
        for slot in st.slots.values() {
            if let Some(expert) = &slot.expert {
                expert.record_metrics(&mut stats);
            }
        }
        stats
    }

    fn ensure_slot(&self, st: &mut TableState, sid: u64) -> Result<(), ServeError> {
        if st.slots.contains_key(&sid) {
            return Ok(());
        }
        let expert = Secpert::new(&self.config.policy).map_err(ServeError::Engine)?;
        let journal_buf = SharedBuf::default();
        let journal = JournalWriter::new(journal_buf.clone()).map_err(ServeError::Wire)?;
        let hot_bytes = expert.approx_bytes();
        st.slots.insert(
            sid,
            SessionSlot {
                expert: Some(expert),
                snapshot: None,
                journal,
                journal_buf,
                hot_bytes,
                warnings: BTreeMap::new(),
                digest: DigestBuilder::new(sid, ""),
                last_touch: 0,
                last_instant: Instant::now(),
            },
        );
        let resident = st.slots.values().filter(|s| s.expert.is_some()).count() as u64;
        st.resident_high_water = st.resident_high_water.max(resident);
        Ok(())
    }

    fn touch(&self, st: &mut TableState, sid: u64) {
        st.clock += 1;
        let clock = st.clock;
        if let Some(slot) = st.slots.get_mut(&sid) {
            slot.last_touch = clock;
            slot.last_instant = Instant::now();
        }
    }

    /// Enforces `resident bytes <= budget` by evicting LRU sessions.
    fn enforce(&self, st: &mut TableState) -> Result<(), ServeError> {
        loop {
            let resident: u64 = st.slots.values().map(|s| s.hot_bytes as u64).sum();
            if resident <= self.config.budget_bytes as u64 {
                return Ok(());
            }
            let Some(lru) = st
                .slots
                .iter()
                .filter(|(_, s)| s.expert.is_some())
                .min_by_key(|(_, s)| s.last_touch)
                .map(|(sid, _)| *sid)
            else {
                return Ok(());
            };
            self.evict(st, lru)?;
        }
    }

    /// Snapshots and drops one resident engine. A snapshot failure (or
    /// a planted torn write) leaves damaged-or-missing snapshot bytes;
    /// the revive path falls back to a full journal replay.
    fn evict(&self, st: &mut TableState, sid: u64) -> Result<(), ServeError> {
        st.evictions += 1;
        let nth = st.evictions;
        let tear = self.config.faults.snapshot_tear(nth);
        let slot = st.slots.get_mut(&sid).expect("evicting a known session");
        let expert = slot.expert.take().expect("evicting a resident session");
        slot.snapshot = match expert.snapshot() {
            Ok(mut bytes) => {
                if let Some(keep) = tear {
                    bytes.truncate(keep.min(bytes.len()));
                }
                Some(bytes)
            }
            Err(_) => None,
        };
        slot.hot_bytes = 0;
        Ok(())
    }

    fn revive_if_needed(&self, st: &mut TableState, sid: u64) -> Result<(), ServeError> {
        let slot = st.slots.get_mut(&sid).expect("slot ensured");
        if slot.expert.is_some() {
            return Ok(());
        }
        let journal_bytes = slot.journal_buf.contents();
        let (events, _report) = recover(&journal_bytes);
        // Restore from the snapshot and replay only the tail past its
        // cursor; on any failure, fall back to a full replay from a
        // fresh engine. Replay warnings are discarded in both paths:
        // they were recorded when the events were first accepted.
        let mut restored = false;
        let mut expert = match slot
            .snapshot
            .as_deref()
            .and_then(|snap| Secpert::restore(&self.config.policy, snap).ok())
        {
            Some(expert) => {
                restored = true;
                expert
            }
            None => Secpert::new(&self.config.policy).map_err(ServeError::Engine)?,
        };
        let cursor = expert.events_processed() as usize;
        for event in events.iter().skip(cursor) {
            expert.process_event(event).map_err(ServeError::Engine)?;
        }
        slot.hot_bytes = expert.approx_bytes();
        slot.expert = Some(expert);
        slot.snapshot = None;
        if restored {
            st.restores += 1;
        } else {
            st.fallback_replays += 1;
            hth_trace::global_diag().log(
                DiagLevel::Warn,
                "serve.table",
                &format!(
                    "session {sid}: torn or missing snapshot, full replay of {} events",
                    events.len()
                ),
            );
            if let Some(flight) = &self.flight {
                let stats = self.snapshot_locked(st);
                self.bundles.push(flight.capture(
                    "serve.table",
                    Trigger::RestoreFallback { session: sid },
                    stats,
                    Vec::new(),
                ));
            }
        }
        let resident = st.slots.values().filter(|s| s.expert.is_some()).count() as u64;
        st.resident_high_water = st.resident_high_water.max(resident);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harrier::{Origin, ResourceType, SourceInfo};

    fn event(i: u64) -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 9,
            syscall: "SYS_open",
            resource: SourceInfo::new(ResourceType::File, format!("/var/data/{i}")),
            origin: Origin::unknown(),
            time: i,
            frequency: 1,
            address: 0x4000,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        }
    }

    #[test]
    fn zero_budget_churns_every_request_without_changing_results() {
        let churn = SessionTable::new(TableConfig { budget_bytes: 0, ..TableConfig::default() });
        let calm = SessionTable::new(TableConfig::default());
        for i in 0..12 {
            let a = churn.submit(1, &event(i)).expect("churn submit");
            let b = calm.submit(1, &event(i)).expect("calm submit");
            assert_eq!(a, b, "event {i}");
            assert_eq!(churn.is_resident(1), Some(false), "budget 0 evicts after every request");
        }
        assert_eq!(churn.warning_counts(), calm.warning_counts());
        let stats = churn.stats();
        assert_eq!(stats.events_total, 12);
        assert!(stats.evictions >= 12);
        assert!(stats.restores + stats.fallback_replays >= 11, "revived on every later submit");
        assert_eq!(stats.resident_bytes, 0);
    }

    #[test]
    fn close_folds_warnings_into_the_retired_multiset() {
        let table = SessionTable::new(TableConfig::default());
        table.submit(5, &event(0)).expect("submit");
        let before = table.warning_counts();
        table.close(5).expect("close");
        assert_eq!(table.warning_counts(), before, "closing loses no warnings");
        assert!(table.close(5).is_err(), "double close is an error");
        assert_eq!(table.stats().sessions_open, 0);
    }

    #[test]
    fn torn_snapshot_falls_back_to_full_replay() {
        let faults = Arc::new(FaultPlan::new().torn_snapshot(1, 7));
        let table =
            SessionTable::new(TableConfig { budget_bytes: 0, faults, ..TableConfig::default() });
        let reference = SessionTable::new(TableConfig::default());
        for i in 0..6 {
            let a = table.submit(2, &event(i)).expect("torn-path submit");
            let b = reference.submit(2, &event(i)).expect("reference submit");
            assert_eq!(a, b, "event {i}");
        }
        let stats = table.stats();
        assert!(stats.fallback_replays >= 1, "torn first snapshot forces a full replay");
        assert_eq!(table.warning_counts(), reference.warning_counts());
    }
}
