//! Secpert: the security expert (paper §6) — the policy loaded into the
//! CLIPS-like engine, the native filter functions, and the event
//! protocol between Harrier and the rules.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use harrier::{Origin, SecpertEvent, SourceInfo};
use secpert_engine::frame::{self, Cursor, Framing, HEADER_LEN};
use secpert_engine::snapshot::{EngineSnapshot, SnapshotError};
use secpert_engine::{
    AlphaPrefilter, Engine, EngineError, Fact, FactBuilder, MatchStats, Matcher, RuleBase, Value,
};

use crate::memo::Memo;
use crate::policy::{PolicyConfig, POLICY_CLIPS};
use crate::provenance::{FactSupport, Provenance};
use crate::warning::{Severity, Warning};

/// Leading magic of a serialized [`Secpert::snapshot`].
const SNAPSHOT_MAGIC: &[u8; 4] = b"HTHS";
/// Snapshot format version; bumped on any layout change so an old
/// server never misreads a new snapshot (and vice versa).
const SNAPSHOT_VERSION: u8 = 1;
/// A snapshot is one CRC frame; its size is bounded by the input slice,
/// not by a cap.
const SNAPSHOT_FRAMING: Framing = Framing::new(true, u64::MAX);

/// The security expert system: policy + engine + warning collection.
///
/// Warnings are stored behind `Arc` so readers can snapshot the sink
/// under the lock with cheap pointer clones and deep-copy outside it —
/// the `warn` native (called mid-inference) never contends with a
/// reader doing per-warning string clones.
pub struct Secpert {
    engine: Engine,
    warnings: Arc<Mutex<Vec<Arc<Warning>>>>,
    events_processed: u64,
    gate: Arc<EventGate>,
    values: ValueCache,
}

/// The Secpert policy compiled for one [`PolicyConfig`]: the parsed
/// and compiled rule base (templates, rules, match-network productions,
/// globals and the config-derived `filter_*` natives) plus the event
/// gate built from it. Immutable; every expert over the config is an
/// instance of one shared `Arc<CompiledPolicy>` ([`CompiledPolicy::get`]).
pub struct CompiledPolicy {
    rules: Arc<RuleBase>,
    gate: Arc<EventGate>,
}

/// Compiled policies by configuration (see [`crate::memo`]).
static POLICIES: Memo<PolicyConfig, CompiledPolicy> = Memo::new();
/// Process-wide count of policy compiles (`hth_policy_compiles_total`).
static COMPILES: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of experts instantiated from a compiled policy
/// (`hth_policy_instantiations_total`).
static INSTANTIATIONS: AtomicU64 = AtomicU64::new(0);

impl CompiledPolicy {
    /// The compiled policy for `config`, compiled on first use and
    /// shared from a small process-wide memo keyed by the whole config
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Parse and semantic errors from the policy text (the embedded
    /// policy is covered by tests; `extra_rules` may not be). Failures
    /// are not memoized.
    pub fn get(config: &PolicyConfig) -> Result<Arc<CompiledPolicy>, EngineError> {
        POLICIES.get_or_try_insert(config, || CompiledPolicy::compile(config))
    }

    /// Compiles `config` from source, bypassing the memo: the standard
    /// policy, then `extra_rules` in order, then the config's
    /// thresholds.
    ///
    /// # Errors
    ///
    /// Parse and semantic errors from the policy text.
    pub fn compile(config: &PolicyConfig) -> Result<CompiledPolicy, EngineError> {
        let _span = hth_trace::span("secpert.compile");
        COMPILES.fetch_add(1, Ordering::Relaxed);
        let mut rules = RuleBase::new();
        register_filters(&mut rules, config);
        rules.load_str(POLICY_CLIPS)?;
        for extra in &config.extra_rules {
            rules.load_str(extra)?;
        }
        rules.set_global("RARE_FREQUENCY", config.rare_frequency);
        rules.set_global("LONG_TIME", config.long_time);
        rules.set_global("PROC_COUNT_HIGH", config.proc_count_high);
        rules.set_global("PROC_RATE_HIGH", config.proc_rate_high);
        rules.set_global("MEM_HIGH", config.mem_high);
        rules.set_global("MEM_VERY_HIGH", config.mem_very_high);
        let gate = Arc::new(EventGate::build(&rules));
        Ok(CompiledPolicy { rules: Arc::new(rules), gate })
    }

    /// A fresh expert over this policy: empty working memory (after
    /// `reset`), its own warning sink bound to the `warn` native, and
    /// the shared rule base and event gate.
    ///
    /// # Errors
    ///
    /// Engine errors from joining the rules or asserting the deffacts.
    pub fn instantiate(&self) -> Result<Secpert, EngineError> {
        INSTANTIATIONS.fetch_add(1, Ordering::Relaxed);
        let mut engine = Engine::instantiate(Arc::clone(&self.rules), Matcher::default())?;
        let warnings: Arc<Mutex<Vec<Arc<Warning>>>> = Arc::new(Mutex::new(Vec::new()));
        bind_warn(&mut engine, warnings.clone());
        // Provenance: every firing snapshots which other rules' live
        // matches shared its supporting facts (see attach_provenance).
        engine.set_support_capture(true);
        engine.reset()?;
        Ok(Secpert {
            engine,
            warnings,
            events_processed: 0,
            gate: Arc::clone(&self.gate),
            values: ValueCache::default(),
        })
    }

    /// The compiled rule base experts over this policy share.
    pub fn rule_base(&self) -> &Arc<RuleBase> {
        &self.rules
    }
}

/// Process-wide policy counters: how often a policy was compiled and
/// how many experts were instantiated from compiled policies. With the
/// memo warm, compiles stay flat while instantiations track every
/// session, serve open, revive and pool respawn.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyCounters {
    /// Policy compiles (memo misses and [`CompiledPolicy::compile`]).
    pub compiles: u64,
    /// Experts instantiated from a compiled policy.
    pub instantiations: u64,
}

impl PolicyCounters {
    /// The counters' current values.
    pub fn read() -> PolicyCounters {
        PolicyCounters {
            compiles: COMPILES.load(Ordering::Relaxed),
            instantiations: INSTANTIATIONS.load(Ordering::Relaxed),
        }
    }

    /// Folds the counters into `metrics` as
    /// `hth_policy_compiles_total` / `hth_policy_instantiations_total`.
    /// They are process totals: record them once per snapshot, not once
    /// per expert.
    pub fn record_metrics(&self, metrics: &mut hth_trace::MetricsSnapshot) {
        metrics.add_counter("hth_policy_compiles_total", self.compiles);
        metrics.add_counter("hth_policy_instantiations_total", self.instantiations);
    }

    /// The one-line `/statusz` form.
    pub fn render(&self) -> String {
        format!("policy    {} compiles, {} instantiations\n", self.compiles, self.instantiations)
    }
}

/// What an event field means when the alpha pre-filter asks about a
/// slot by index. Built once per template from the slot names, so the
/// gate evaluates rule constants straight off the [`SecpertEvent`]
/// without constructing the fact.
#[derive(Clone, Copy, Debug)]
enum SlotSem {
    Pid,
    Syscall,
    ResourceName,
    ResourceType,
    TargetName,
    TargetType,
    ExecutableContent,
    Time,
    Frequency,
    Address,
    ProcCount,
    ProcRate,
    MemTotal,
    ServerAddress,
    /// Multislots and unrecognized slots: the gate cannot decide, so it
    /// conservatively reports "could be equal" (never skips on these).
    Opaque,
}

/// Per-template half of the event gate.
#[derive(Debug)]
struct TemplateGate {
    /// Some CE accepts every fact of this template (the standard
    /// policy's cleanup catch-alls) — admit without looking at slots.
    always: bool,
    /// No rule mentions the template — skip without looking at slots.
    never: bool,
    /// Slot index → event-field meaning.
    sems: Vec<SlotSem>,
    /// Value `server_address` takes when the event carries no server
    /// context (the template default the fact would have been built
    /// with).
    server_default: Value,
}

/// The event-level alpha pre-filter: [`AlphaPrefilter`] plus the
/// slot-index → event-field mapping for the two event templates.
/// Snapshot of the rule base at `revision`; rebuilt when
/// [`Engine::rules_revision`] moves (e.g. [`Secpert::load_policy`]).
#[derive(Debug)]
struct EventGate {
    revision: u64,
    filter: AlphaPrefilter,
    access: TemplateGate,
    transfer: TemplateGate,
}

impl EventGate {
    fn build(rules: &RuleBase) -> EventGate {
        let filter = rules.alpha_prefilter();
        let gate_for = |name: &str| -> TemplateGate {
            let (sems, server_default) = match rules.template(name) {
                Some(t) => {
                    let sems = t
                        .slots()
                        .iter()
                        .map(|s| match s.name() {
                            "pid" => SlotSem::Pid,
                            "system_call_name" => SlotSem::Syscall,
                            "resource_name" => SlotSem::ResourceName,
                            "resource_type" => SlotSem::ResourceType,
                            "target_name" => SlotSem::TargetName,
                            "target_type" => SlotSem::TargetType,
                            "executable_content" => SlotSem::ExecutableContent,
                            "time" => SlotSem::Time,
                            "frequency" => SlotSem::Frequency,
                            "address" => SlotSem::Address,
                            "proc_count" => SlotSem::ProcCount,
                            "proc_rate" => SlotSem::ProcRate,
                            "mem_total" => SlotSem::MemTotal,
                            "server_address" => SlotSem::ServerAddress,
                            _ => SlotSem::Opaque,
                        })
                        .collect();
                    let server_default = t
                        .slots()
                        .iter()
                        .find(|s| s.name() == "server_address")
                        .map(|s| s.default().cloned().unwrap_or_else(|| s.implicit_default()))
                        .unwrap_or_else(|| Value::sym("nil"));
                    (sems, server_default)
                }
                None => (Vec::new(), Value::sym("nil")),
            };
            TemplateGate {
                always: filter.always_passes(name),
                never: filter.never_matches(name),
                sems,
                server_default,
            }
        };
        let access = gate_for("system_call_access");
        let transfer = gate_for("data_transfer");
        EventGate { revision: rules.rules_revision(), filter, access, transfer }
    }

    /// Could this event's fact begin a match anywhere in the rule base?
    /// Exactly [`AlphaPrefilter::can_match`] evaluated off the event.
    fn admits(&self, event: &SecpertEvent) -> bool {
        let (gate, template) = match event {
            SecpertEvent::ResourceAccess { .. } => (&self.access, "system_call_access"),
            SecpertEvent::DataTransfer { .. } => (&self.transfer, "data_transfer"),
        };
        if gate.always {
            return true;
        }
        if gate.never {
            return false;
        }
        self.filter.can_match(template, |slot, lit| {
            let sem = gate.sems.get(slot).copied().unwrap_or(SlotSem::Opaque);
            slot_admits(sem, &gate.server_default, event, lit)
        })
    }
}

/// Would the fact built from `event` carry `lit` in the slot meaning
/// `sem`? Mirrors `event_to_fact` exactly; anything it cannot decide
/// answers `true` (conservative: never skips what might match).
fn slot_admits(sem: SlotSem, server_default: &Value, event: &SecpertEvent, lit: &Value) -> bool {
    use SecpertEvent::{DataTransfer, ResourceAccess};

    fn int_eq(lit: &Value, n: i64) -> bool {
        matches!(lit, Value::Int(i) if *i == n)
    }
    fn str_eq(lit: &Value, s: &str) -> bool {
        matches!(lit, Value::Str(v) if &**v == s)
    }
    /// `lit == Value::str(format!("{addr:x}"))` without rendering.
    fn hex_eq(lit: &Value, addr: u32) -> bool {
        let Value::Str(s) = lit else { return false };
        let mut buf = [0u8; 8];
        let mut i = buf.len();
        let mut v = addr;
        loop {
            i -= 1;
            buf[i] = char::from_digit(v % 16, 16).unwrap_or('0') as u8;
            v /= 16;
            if v == 0 {
                break;
            }
        }
        s.as_bytes() == &buf[i..]
    }

    let (pid, syscall, time, frequency, address, server) = match event {
        ResourceAccess { pid, syscall, time, frequency, address, server, .. }
        | DataTransfer { pid, syscall, time, frequency, address, server, .. } => {
            (*pid, *syscall, *time, *frequency, *address, server)
        }
    };
    match sem {
        SlotSem::Pid => int_eq(lit, i64::from(pid)),
        SlotSem::Syscall => lit.is_sym(syscall),
        SlotSem::Time => int_eq(lit, time as i64),
        SlotSem::Frequency => int_eq(lit, frequency as i64),
        SlotSem::Address => hex_eq(lit, address),
        SlotSem::ServerAddress => match server {
            Some(s) => str_eq(lit, &s.address),
            None => lit == server_default,
        },
        SlotSem::ResourceName => match event {
            ResourceAccess { resource, .. } => str_eq(lit, &resource.name),
            DataTransfer { .. } => true,
        },
        SlotSem::ResourceType => match event {
            ResourceAccess { resource, .. } => lit.is_sym(resource.kind.symbol()),
            DataTransfer { .. } => true,
        },
        SlotSem::ProcCount => match event {
            ResourceAccess { proc_count, .. } => int_eq(lit, proc_count.unwrap_or(0) as i64),
            DataTransfer { .. } => true,
        },
        SlotSem::ProcRate => match event {
            ResourceAccess { proc_rate, .. } => int_eq(lit, proc_rate.unwrap_or(0) as i64),
            DataTransfer { .. } => true,
        },
        SlotSem::MemTotal => match event {
            ResourceAccess { mem_total, .. } => int_eq(lit, mem_total.unwrap_or(0) as i64),
            DataTransfer { .. } => true,
        },
        SlotSem::TargetName => match event {
            DataTransfer { target, .. } => str_eq(lit, &target.name),
            ResourceAccess { .. } => true,
        },
        SlotSem::TargetType => match event {
            DataTransfer { target, .. } => lit.is_sym(target.kind.symbol()),
            ResourceAccess { .. } => true,
        },
        SlotSem::ExecutableContent => match event {
            DataTransfer { executable_content, .. } => {
                lit.is_sym(if *executable_content { "TRUE" } else { "FALSE" })
            }
            ResourceAccess { .. } => true,
        },
        SlotSem::Opaque => true,
    }
}

/// Interned `Value`s reused across events. Event streams repeat the
/// same paths, endpoints, type symbols and code addresses over and
/// over; the cache hands back one shared `Arc<str>` per distinct
/// string instead of allocating per event.
#[derive(Debug, Default)]
struct ValueCache {
    strs: HashMap<Box<str>, Value>,
    syms: HashMap<Box<str>, Value>,
    addrs: HashMap<u32, Value>,
}

/// Growth cap: a pathological stream of all-distinct strings resets
/// the cache rather than growing it without bound.
const VALUE_CACHE_CAP: usize = 1 << 16;

impl ValueCache {
    fn str_of(&mut self, s: &str) -> Value {
        if self.strs.len() >= VALUE_CACHE_CAP {
            self.strs.clear();
        }
        match self.strs.get(s) {
            Some(v) => v.clone(),
            None => {
                let v = Value::str(s);
                self.strs.insert(s.into(), v.clone());
                v
            }
        }
    }

    fn sym_of(&mut self, s: &str) -> Value {
        if self.syms.len() >= VALUE_CACHE_CAP {
            self.syms.clear();
        }
        match self.syms.get(s) {
            Some(v) => v.clone(),
            None => {
                let v = Value::sym(s);
                self.syms.insert(s.into(), v.clone());
                v
            }
        }
    }

    /// The `Value::str` of `format!("{addr:x}")`, rendered once per
    /// distinct address.
    fn addr_of(&mut self, addr: u32) -> Value {
        if self.addrs.len() >= VALUE_CACHE_CAP {
            self.addrs.clear();
        }
        match self.addrs.get(&addr) {
            Some(v) => v.clone(),
            None => {
                let v = Value::str(format!("{addr:x}"));
                self.addrs.insert(addr, v.clone());
                v
            }
        }
    }
}

impl Secpert {
    /// Builds a Secpert with the standard policy and the given
    /// configuration: an instance of the config's [`CompiledPolicy`],
    /// compiled on the first call and shared afterwards.
    ///
    /// # Errors
    ///
    /// Returns engine errors if the embedded policy fails to load (a
    /// bug, covered by tests) — propagated rather than unwrapped so
    /// custom policies loaded on top behave the same way.
    pub fn new(config: &PolicyConfig) -> Result<Secpert, EngineError> {
        CompiledPolicy::get(config)?.instantiate()
    }

    /// Loads additional CLIPS policy text (custom rules on top of the
    /// standard policy). Copy-on-write: this expert gets a private copy
    /// of the shared rule base first, so other experts over the same
    /// [`CompiledPolicy`] — and the compiled policy itself — are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Propagates parse and semantic errors from the engine.
    pub fn load_policy(&mut self, clips: &str) -> Result<(), EngineError> {
        self.engine.load_str(clips)
    }

    /// Engine access (inspection, custom natives, extra globals).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Feeds one Harrier event through the rules; returns the warnings
    /// this event produced.
    ///
    /// # Errors
    ///
    /// Propagates engine evaluation errors (policy bugs).
    pub fn process_event(&mut self, event: &SecpertEvent) -> Result<Vec<Warning>, EngineError> {
        let _span = hth_trace::span("secpert.process_event");
        let before = self.warnings.lock().expect("warning sink poisoned").len();
        self.process_one(event)?;
        Ok(self.drain_since(before))
    }

    /// Feeds a batch of events through the rules; returns the warnings
    /// the batch produced, in event order. One event at a time through
    /// exactly the per-event path — `process_batch(&[e])` and
    /// `process_event(&e)` are byte-identical — but the warning-sink
    /// lock and the trace span are crossed once per batch instead of
    /// once per event.
    ///
    /// # Errors
    ///
    /// Propagates engine evaluation errors (policy bugs). Events before
    /// the failing one have been fully processed; their warnings remain
    /// readable through [`Secpert::warnings`].
    pub fn process_batch(&mut self, events: &[SecpertEvent]) -> Result<Vec<Warning>, EngineError> {
        let _span = hth_trace::span("secpert.process_batch");
        let before = self.warnings.lock().expect("warning sink poisoned").len();
        for event in events {
            self.process_one(event)?;
        }
        Ok(self.drain_since(before))
    }

    /// The shared per-event path: alpha-gate, fact, assert, run,
    /// provenance. Both `process_event` and `process_batch` funnel
    /// through here, so batching cannot change observable behavior.
    fn process_one(&mut self, event: &SecpertEvent) -> Result<(), EngineError> {
        self.events_processed += 1;
        if self.gate.revision != self.engine.rules_revision() {
            self.gate = Arc::new(EventGate::build(self.engine.rule_base()));
        }
        // Events whose fact fails every rule's constant discriminators
        // skip fact construction and assertion entirely: such a fact
        // can neither fire nor block anything (see AlphaPrefilter).
        // Under the standard policy the cleanup catch-alls admit every
        // event; skips happen only with custom rule sets.
        if !self.gate.admits(event) {
            return Ok(());
        }
        let warnings_before = self.warnings.lock().expect("warning sink poisoned").len();
        let firings_before = self.engine.firings().len();
        let fact = self.event_to_fact(event)?;
        self.engine.assert_fact(fact)?;
        self.engine.run(None)?;
        self.attach_provenance(event, warnings_before, firings_before);
        Ok(())
    }

    /// Builds (but does not assert) the engine fact for an event —
    /// exactly the fact [`Secpert::process_event`] would assert,
    /// sharing this expert's interning tables. A diagnostic and
    /// benchmarking hook: it lets the fact-construction stage be timed
    /// and inspected in isolation from matching.
    ///
    /// # Errors
    ///
    /// Propagates engine template errors (policy bugs).
    pub fn build_fact(&mut self, event: &SecpertEvent) -> Result<Fact, EngineError> {
        self.event_to_fact(event)
    }

    /// Deep-clones the warnings issued since sink length `before`.
    /// Snapshots the tail under the lock (Arc bumps only) and clones
    /// outside it.
    fn drain_since(&self, before: usize) -> Vec<Warning> {
        let tail: Vec<Arc<Warning>> = {
            let sink = self.warnings.lock().expect("warning sink poisoned");
            sink[before..].to_vec()
        };
        tail.iter().map(|w| (**w).clone()).collect()
    }

    /// Pairs each warning the current event produced with the firing
    /// that issued it and swaps a provenance-enriched copy into the
    /// sink. Matching is by rule name over the event's firing tail, in
    /// order — policy rules call `warn` exactly once per firing.
    fn attach_provenance(
        &self,
        event: &SecpertEvent,
        warnings_before: usize,
        firings_before: usize,
    ) {
        let firings = &self.engine.firings()[firings_before..];
        if firings.is_empty() {
            return;
        }
        let mut sink = self.warnings.lock().expect("warning sink poisoned");
        if sink.len() <= warnings_before {
            // The common case — no warning this event — skips the
            // taint-source rendering entirely.
            return;
        }
        let taint_sources = taint_sources_of(event);
        let mut cursor = 0usize;
        for slot in sink[warnings_before..].iter_mut() {
            let Some(offset) = firings[cursor..].iter().position(|f| *f.rule == *slot.rule) else {
                continue;
            };
            let at = cursor + offset;
            cursor = at + 1;
            let firing = &firings[at];
            // Fire-time support from the match network when available
            // (Rete matcher); otherwise just the matched-fact snapshots.
            let support: Vec<FactSupport> = match self.engine.support_for(firing.seq) {
                Some(records) => records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| FactSupport {
                        id: r.fact,
                        fact: firing.facts.get(i).map(|f| f.to_string()).unwrap_or_default(),
                        co_rules: r.co_rules.iter().map(|n| n.to_string()).collect(),
                    })
                    .collect(),
                None => firing
                    .fact_ids
                    .iter()
                    .flatten()
                    .enumerate()
                    .map(|(i, id)| FactSupport {
                        id: id.raw(),
                        fact: firing.facts.get(i).map(|f| f.to_string()).unwrap_or_default(),
                        co_rules: Vec::new(),
                    })
                    .collect(),
            };
            let provenance = Provenance {
                event_index: self.events_processed,
                syscall: event.syscall().to_string(),
                firing_seq: firing.seq as u64,
                rule_chain: firings[..=at].iter().map(|f| f.rule.to_string()).collect(),
                support,
                taint_sources: taint_sources.clone(),
            };
            let mut enriched = (**slot).clone();
            enriched.provenance = Some(Box::new(provenance));
            *slot = Arc::new(enriched);
        }
    }

    /// All warnings issued so far.
    pub fn warnings(&self) -> Vec<Warning> {
        let snapshot: Vec<Arc<Warning>> =
            self.warnings.lock().expect("warning sink poisoned").clone();
        snapshot.iter().map(|w| (**w).clone()).collect()
    }

    /// Number of warnings in the sink so far. With
    /// [`Secpert::warnings_since`], lets a supervisor recover the
    /// warnings of the completed prefix of a batch that panicked or
    /// errored partway through.
    pub fn warnings_count(&self) -> usize {
        self.warnings.lock().expect("warning sink poisoned").len()
    }

    /// The warnings issued since the sink held `start` entries.
    pub fn warnings_since(&self, start: usize) -> Vec<Warning> {
        self.drain_since(start)
    }

    /// Match-network counters for this expert's engine (all-zero when
    /// the engine was built with the naive matcher).
    pub fn match_stats(&self) -> MatchStats {
        self.engine.match_stats()
    }

    /// Folds this expert's counters into `metrics`: the match-network
    /// stats plus `hth_secpert_events` / `hth_secpert_warnings`.
    pub fn record_metrics(&self, metrics: &mut hth_trace::MetricsSnapshot) {
        self.engine.match_stats().record_metrics(metrics);
        metrics.add_counter("hth_secpert_events", self.events_processed);
        let warnings = self.warnings.lock().expect("warning sink poisoned").len();
        metrics.add_counter("hth_secpert_warnings", warnings as u64);
    }

    /// Takes the engine's printout transcript (paper-style warning text).
    pub fn take_transcript(&mut self) -> String {
        self.engine.take_output()
    }

    // ----- snapshot / restore -------------------------------------------

    /// Serializes this expert's resumable state: the event cursor plus
    /// the engine's facts, refraction set, and counters (see
    /// [`EngineSnapshot`]). The layout is `"HTHS"` + a version byte +
    /// one CRC frame of the shared [`frame`] codec, so torn writes are
    /// detected on load exactly like a torn journal tail. Warnings are
    /// *not* carried — they live in the host's sink, and a resumed
    /// expert starts with an empty one.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError::Engine`] when the engine is not
    /// quiescent (mid-event; only snapshot between events).
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let engine_snap = self.engine.snapshot()?;
        let mut out = Vec::new();
        frame::write_header(&mut out, SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        SNAPSHOT_FRAMING.write(&mut out, |payload| {
            frame::put_varint(payload, self.events_processed);
            payload.extend_from_slice(&engine_snap.encode());
        });
        Ok(out)
    }

    /// Rebuilds an expert from [`Secpert::snapshot`] bytes, against the
    /// same policy configuration the snapshot was taken under. Events
    /// processed after this pick up exactly where the snapshotted expert
    /// left off (fact ids, firing seqs, provenance event indices).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for torn or corrupt bytes (callers
    /// fall back to a full journal replay); [`SnapshotError::Engine`]
    /// when the snapshot disagrees with the policy.
    pub fn restore(config: &PolicyConfig, bytes: &[u8]) -> Result<Secpert, SnapshotError> {
        frame::read_header(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION..=SNAPSHOT_VERSION)?;
        let mut r = Cursor::new(&bytes[HEADER_LEN..]);
        let payload = SNAPSHOT_FRAMING.read(&mut r)?;
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after snapshot frame",
                r.remaining()
            )));
        }
        let mut pr = Cursor::new(payload);
        let events_processed = pr.varint()?;
        let engine_snap = EngineSnapshot::decode(pr.take(pr.remaining())?)?;
        let mut expert = Secpert::new(config)?;
        expert.engine.restore(&engine_snap)?;
        expert.events_processed = events_processed;
        Ok(expert)
    }

    /// Approximate resident bytes attributable to this expert's event
    /// history: engine state (working memory, match network, firing
    /// records) plus the warning sink and interning caches. The input to
    /// fleet memory budgeting; an estimate, not an allocator census.
    pub fn approx_bytes(&self) -> usize {
        let warnings: usize = {
            let sink = self.warnings.lock().expect("warning sink poisoned");
            sink.iter()
                .map(|w| {
                    96 + w.rule.len()
                        + w.message.len()
                        + w.provenance.as_ref().map_or(0, |p| {
                            128 + p.rule_chain.iter().map(String::len).sum::<usize>()
                                + p.taint_sources.iter().map(String::len).sum::<usize>()
                                + p.support.iter().map(|s| 48 + s.fact.len()).sum::<usize>()
                        })
                })
                .sum()
        };
        let cache =
            (self.values.strs.len() + self.values.syms.len()) * 64 + self.values.addrs.len() * 32;
        self.engine.approx_bytes() + warnings + cache
    }

    fn event_to_fact(&mut self, event: &SecpertEvent) -> Result<Fact, EngineError> {
        fn names(cache: &mut ValueCache, sources: &[SourceInfo]) -> Value {
            Value::multi(sources.iter().map(|s| cache.str_of(&s.name)))
        }
        fn types(cache: &mut ValueCache, sources: &[SourceInfo]) -> Value {
            Value::multi(sources.iter().map(|s| cache.sym_of(s.kind.symbol())))
        }
        fn origin_names(cache: &mut ValueCache, origin: &Origin) -> Value {
            names(cache, &origin.sources)
        }
        fn origin_types(cache: &mut ValueCache, origin: &Origin) -> Value {
            types(cache, &origin.sources)
        }

        let Secpert { engine, values, .. } = self;
        match event {
            SecpertEvent::ResourceAccess {
                pid,
                syscall,
                resource,
                origin,
                time,
                frequency,
                address,
                proc_count,
                proc_rate,
                mem_total,
                server,
            } => {
                let mut b: FactBuilder = engine
                    .fact("system_call_access")?
                    .slot("pid", i64::from(*pid))
                    .slot("system_call_name", values.sym_of(syscall))
                    .slot("resource_name", values.str_of(&resource.name))
                    .slot("resource_type", values.sym_of(resource.kind.symbol()))
                    .slot("resource_origin_name", origin_names(values, origin))
                    .slot("resource_origin_type", origin_types(values, origin))
                    .slot("time", *time as i64)
                    .slot("frequency", *frequency as i64)
                    .slot("address", values.addr_of(*address))
                    .slot("proc_count", proc_count.unwrap_or(0) as i64)
                    .slot("proc_rate", proc_rate.unwrap_or(0) as i64)
                    .slot("mem_total", mem_total.unwrap_or(0) as i64);
                if let Some(server) = server {
                    b = b
                        .slot("server_address", values.str_of(&server.address))
                        .slot("server_origin_name", origin_names(values, &server.origin))
                        .slot("server_origin_type", origin_types(values, &server.origin));
                }
                b.build()
            }
            SecpertEvent::DataTransfer {
                pid,
                syscall,
                data_sources,
                data_origin,
                target,
                target_origin,
                time,
                frequency,
                address,
                executable_content,
                server,
                // Byte counts feed the fleet correlator's digests, not
                // the per-session policy's facts.
                bytes: _,
            } => {
                let mut b = engine
                    .fact("data_transfer")?
                    .slot("pid", i64::from(*pid))
                    .slot("system_call_name", values.sym_of(syscall))
                    .slot("source_name", names(values, data_sources))
                    .slot("source_type", types(values, data_sources))
                    .slot("data_origin_name", origin_names(values, data_origin))
                    .slot("data_origin_type", origin_types(values, data_origin))
                    .slot("target_name", values.str_of(&target.name))
                    .slot("target_type", values.sym_of(target.kind.symbol()))
                    .slot("target_origin_name", origin_names(values, target_origin))
                    .slot("target_origin_type", origin_types(values, target_origin))
                    .slot("time", *time as i64)
                    .slot("frequency", *frequency as i64)
                    .slot("address", values.addr_of(*address))
                    .slot(
                        "executable_content",
                        values.sym_of(if *executable_content { "TRUE" } else { "FALSE" }),
                    );
                if let Some(server) = server {
                    b = b
                        .slot("server_address", values.str_of(&server.address))
                        .slot("server_origin_name", origin_names(values, &server.origin))
                        .slot("server_origin_type", origin_types(values, &server.origin));
                }
                b.build()
            }
        }
    }
}

/// The event's taint-source set, rendered `KIND(name)`: the resource
/// origin for accesses; the data origin plus the target origin
/// (deduplicated, in that order) for transfers.
fn taint_sources_of(event: &SecpertEvent) -> Vec<String> {
    fn render(source: &SourceInfo) -> String {
        format!("{}({})", source.kind.symbol(), source.name)
    }
    match event {
        SecpertEvent::ResourceAccess { origin, .. } => origin.sources.iter().map(render).collect(),
        SecpertEvent::DataTransfer { data_origin, target_origin, .. } => {
            let mut out: Vec<String> = data_origin.sources.iter().map(render).collect();
            for source in &target_origin.sources {
                let rendered = render(source);
                if !out.contains(&rendered) {
                    out.push(rendered);
                }
            }
            out
        }
    }
}

/// Registers the `filter_*` natives used by the policy: each takes two
/// parallel multifields (types, names) and returns the names of the
/// entries with the wanted type, minus trusted ones.
fn register_filters(rules: &mut RuleBase, config: &PolicyConfig) {
    fn filter(
        args: &[Value],
        wanted: &'static str,
        trusted: Arc<Vec<String>>,
    ) -> Result<Value, EngineError> {
        let [types, names] = args else {
            return Err(EngineError::Type {
                expected: "two multifields (types, names)",
                found: format!("{} arguments", args.len()),
            });
        };
        let types = types.as_multi()?;
        let names = names.as_multi()?;
        let mut out = Vec::new();
        for (t, n) in types.iter().zip(names.iter()) {
            if t.is_sym(wanted) {
                let name = n.as_text().unwrap_or_default();
                if !trusted.iter().any(|trust| name.contains(trust.as_str())) {
                    out.push(n.clone());
                }
            }
        }
        // The common verdict is "nothing suspicious" — reuse the cached
        // empty multifield instead of allocating one per call.
        Ok(if out.is_empty() { Value::empty_multi() } else { Value::multi(out) })
    }

    let trusted_bin = Arc::new(config.trusted_binaries.clone());
    let trusted_sock = Arc::new(config.trusted_sockets.clone());
    let none: Arc<Vec<String>> = Arc::new(Vec::new());

    let t = trusted_bin;
    rules.register_fn("filter_binary", move |args| filter(args, "BINARY", t.clone()));
    let t = trusted_sock.clone();
    rules.register_fn("filter_socket", move |args| filter(args, "SOCKET", t.clone()));
    let t = trusted_sock;
    rules.register_fn("filter_sockets_in", move |args| filter(args, "SOCKET", t.clone()));
    let t = none.clone();
    rules.register_fn("filter_file", move |args| filter(args, "FILE", t.clone()));
    let t = none.clone();
    rules.register_fn("filter_user", move |args| filter(args, "USER_INPUT", t.clone()));
    let t = none;
    rules.register_fn("filter_hardware", move |args| filter(args, "HARDWARE", t.clone()));

    register_severity_text(rules);
}

/// Registers the `severity-text` native (level → `Warning [LOW]` …).
/// Shared with the fleet correlator, which has no `filter_*` natives.
pub(crate) fn register_severity_text(rules: &mut RuleBase) {
    rules.register_fn("severity-text", |args| {
        let level = args
            .first()
            .ok_or(EngineError::Type { expected: "severity level", found: "nothing".into() })?
            .as_int()?;
        let text = match level {
            1 => "Warning [LOW]",
            2 => "Warning [MEDIUM]",
            3 => "Warning [HIGH]",
            _ => "Warning [?]",
        };
        Ok(Value::str(text))
    });
}

/// Binds the `warn` native, `(warn level rule pid time message)`, to
/// one engine: it pushes into that engine's own sink, so it is never
/// part of a shared rule base.
pub(crate) fn bind_warn(engine: &mut Engine, sink: Arc<Mutex<Vec<Arc<Warning>>>>) {
    engine.bind_fn("warn", move |args| {
        let [level, rule, pid, time, message] = args else {
            return Err(EngineError::Type {
                expected: "(warn level rule pid time message)",
                found: format!("{} arguments", args.len()),
            });
        };
        let severity = Severity::from_level(level.as_int()?)
            .ok_or(EngineError::Type { expected: "severity 1..=3", found: level.to_string() })?;
        let warning = Warning {
            severity,
            rule: rule.as_text().unwrap_or("?").to_string(),
            pid: pid.as_int()? as u32,
            time: time.as_int()? as u64,
            message: message.to_display_string(),
            provenance: None,
        };
        sink.lock().expect("warning sink poisoned").push(Arc::new(warning));
        hth_trace::instant("secpert.warning");
        Ok(Value::truth())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use harrier::{ResourceType, ServerInfo};

    fn access_event(
        syscall: &'static str,
        name: &str,
        origin: Vec<(ResourceType, &str)>,
    ) -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 1,
            syscall,
            resource: SourceInfo::new(ResourceType::File, name),
            origin: Origin {
                sources: origin.into_iter().map(|(k, n)| SourceInfo::new(k, n)).collect(),
            },
            time: 10,
            frequency: 5,
            address: 0x8048403,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        }
    }

    #[test]
    fn policy_loads() {
        let secpert = Secpert::new(&PolicyConfig::default());
        assert!(secpert.is_ok(), "{:?}", secpert.err());
    }

    #[test]
    fn hardcoded_execve_is_low() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&access_event(
                "SYS_execve",
                "/bin/ls",
                vec![(ResourceType::Binary, "/bin/dropper")],
            ))
            .unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].severity, Severity::Low);
        assert!(w[0].message.contains("SYS_execve"));
        assert!(w[0].message.contains("/bin/ls"));
        let transcript = s.take_transcript();
        assert!(transcript.contains("Warning [LOW]"), "{transcript}");
    }

    #[test]
    fn user_execve_is_silent() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&access_event(
                "SYS_execve",
                "/bin/ls",
                vec![(ResourceType::UserInput, "USER_INPUT")],
            ))
            .unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn socket_execve_is_high() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&access_event(
                "SYS_execve",
                "/tmp/payload",
                vec![(ResourceType::Socket, "evil:99 (AF_INET)")],
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::High);
    }

    #[test]
    fn rare_late_hardcoded_execve_is_medium() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let event = SecpertEvent::ResourceAccess {
            pid: 1,
            syscall: "SYS_execve",
            resource: SourceInfo::new(ResourceType::File, "/bin/sh"),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/app")] },
            time: 500,    // > LONG_TIME
            frequency: 1, // < RARE_FREQUENCY
            address: 0,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        };
        let w = s.process_event(&event).unwrap();
        assert_eq!(w[0].severity, Severity::Medium);
        assert!(w[0].message.contains("rarely executed"));
    }

    #[test]
    fn trusted_libc_execve_is_filtered() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        // The ElmExploit false negative: /bin/sh string lives in libc.so.
        let w = s
            .process_event(&access_event(
                "SYS_execve",
                "/bin/sh",
                vec![(ResourceType::Binary, "/lib/tls/libc.so.6")],
            ))
            .unwrap();
        assert!(w.is_empty(), "trusted libc must be filtered: {w:?}");
    }

    #[test]
    fn clone_count_and_rate_rules() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let mk = |count, rate| SecpertEvent::ResourceAccess {
            pid: 1,
            syscall: "SYS_clone",
            resource: SourceInfo::new(ResourceType::Unknown, "process"),
            origin: Origin::unknown(),
            time: 5,
            frequency: 3,
            address: 0,
            proc_count: Some(count),
            proc_rate: Some(rate),
            mem_total: None,
            server: None,
        };
        assert!(s.process_event(&mk(2, 2)).unwrap().is_empty());
        let w = s.process_event(&mk(10, 2)).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].severity, Severity::Low);
        let w = s.process_event(&mk(30, 25)).unwrap();
        assert_eq!(w.len(), 2, "both count (Low) and rate (Medium) fire");
        assert!(w.iter().any(|w| w.severity == Severity::Medium));
    }

    fn transfer(
        sources: Vec<(ResourceType, &str)>,
        data_origin: Vec<(ResourceType, &str)>,
        target: (ResourceType, &str),
        target_origin: Vec<(ResourceType, &str)>,
        server: Option<ServerInfo>,
    ) -> SecpertEvent {
        let mk = |v: Vec<(ResourceType, &str)>| Origin {
            sources: v.into_iter().map(|(k, n)| SourceInfo::new(k, n)).collect(),
        };
        SecpertEvent::DataTransfer {
            pid: 1,
            syscall: "SYS_write",
            data_sources: sources.into_iter().map(|(k, n)| SourceInfo::new(k, n)).collect(),
            data_origin: mk(data_origin),
            target: SourceInfo::new(target.0, target.1),
            target_origin: mk(target_origin),
            time: 10,
            frequency: 5,
            address: 0,
            executable_content: false,
            server,
            bytes: 0,
        }
    }

    #[test]
    fn file_to_socket_matrix() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        // user file + user socket: silent.
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![(ResourceType::UserInput, "USER_INPUT")],
                (ResourceType::Socket, "h:1 (AF_INET)"),
                vec![(ResourceType::UserInput, "USER_INPUT")],
                None,
            ))
            .unwrap();
        assert!(w.is_empty());
        // user file + hardcoded socket: Low.
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![(ResourceType::UserInput, "USER_INPUT")],
                (ResourceType::Socket, "h:2 (AF_INET)"),
                vec![(ResourceType::Binary, "/bin/x")],
                None,
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::Low);
        // hardcoded file + hardcoded socket: High.
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![(ResourceType::Binary, "/bin/x")],
                (ResourceType::Socket, "h:3 (AF_INET)"),
                vec![(ResourceType::Binary, "/bin/x")],
                None,
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::High);
    }

    #[test]
    fn binary_to_hardcoded_file_is_high() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::Binary, "/bin/grabem")],
                vec![],
                (ResourceType::File, ".exrc%"),
                vec![(ResourceType::Binary, "/bin/grabem")],
                None,
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::High);
        assert!(w[0].message.contains(".exrc%"));
    }

    #[test]
    fn hardware_to_hardcoded_file_is_high() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::Hardware, "HARDWARE")],
                vec![],
                (ResourceType::File, "hw.dat"),
                vec![(ResourceType::Binary, "/bin/x")],
                None,
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::High);
        // user filename: silent.
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::Hardware, "HARDWARE")],
                vec![],
                (ResourceType::File, "user.dat"),
                vec![(ResourceType::UserInput, "USER_INPUT")],
                None,
            ))
            .unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn backdoor_server_rule_fires_with_server_context() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let server = ServerInfo {
            address: "LocalHost:11116 (AF_INET)".into(),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "pmad")] },
        };
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "outpipe32425")],
                vec![(ResourceType::Binary, "pmad")],
                (ResourceType::Socket, "gateway:36982 (AF_INET)"),
                vec![(ResourceType::Socket, "gateway:36982 (AF_INET)")],
                Some(server),
            ))
            .unwrap();
        assert!(w
            .iter()
            .any(|w| w.rule == "check_backdoor_server" && w.severity == Severity::High));
        assert!(w.iter().any(|w| w.message.contains("server with the address")));
    }

    #[test]
    fn console_writes_are_silent() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "/etc/motd")],
                vec![(ResourceType::UserInput, "USER_INPUT")],
                (ResourceType::Console, "STDOUT"),
                vec![],
                None,
            ))
            .unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn batch_is_equivalent_to_per_event() {
        let server = ServerInfo {
            address: "LocalHost:11116 (AF_INET)".into(),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "pmad")] },
        };
        let events = vec![
            access_event("SYS_execve", "/bin/ls", vec![(ResourceType::Binary, "/bin/dropper")]),
            access_event("SYS_execve", "/bin/ls", vec![(ResourceType::UserInput, "USER_INPUT")]),
            transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![(ResourceType::Binary, "/bin/x")],
                (ResourceType::Socket, "h:3 (AF_INET)"),
                vec![(ResourceType::Binary, "/bin/x")],
                Some(server),
            ),
            access_event("SYS_open", "/tmp/f", vec![(ResourceType::Binary, "/bin/x")]),
        ];
        let mut per_event = Secpert::new(&PolicyConfig::default()).unwrap();
        let mut batched = Secpert::new(&PolicyConfig::default()).unwrap();
        let mut expected = Vec::new();
        for event in &events {
            expected.extend(per_event.process_event(event).unwrap());
        }
        let got = batched.process_batch(&events).unwrap();
        assert_eq!(expected, got);
        assert_eq!(per_event.match_stats(), batched.match_stats());
        assert_eq!(per_event.events_processed(), batched.events_processed());
        assert_eq!(per_event.take_transcript(), batched.take_transcript());
        assert_eq!(per_event.warnings(), batched.warnings());
    }

    /// The event-level gate must answer exactly what the fact-level
    /// filter would: `admits(event) == passes_fact(event_to_fact(event))`
    /// for a rule base constraining every event-representable slot.
    #[test]
    fn gate_mirrors_fact_construction() {
        let mut fact_builder = Secpert::new(&PolicyConfig::default()).unwrap();
        let mut engine = Engine::new();
        engine
            .load_str(
                r#"
                (deftemplate system_call_access
                  (slot pid) (slot system_call_name) (slot resource_name)
                  (slot resource_type)
                  (multislot resource_origin_name) (multislot resource_origin_type)
                  (slot time (default 0)) (slot frequency (default 1))
                  (slot address (default "0"))
                  (slot proc_count (default 0)) (slot proc_rate (default 0))
                  (slot mem_total (default 0))
                  (slot server_address (default nil))
                  (multislot server_origin_name) (multislot server_origin_type))
                (deftemplate data_transfer
                  (slot pid) (slot system_call_name)
                  (multislot source_name) (multislot source_type)
                  (multislot data_origin_name) (multislot data_origin_type)
                  (slot target_name) (slot target_type)
                  (multislot target_origin_name) (multislot target_origin_type)
                  (slot time (default 0)) (slot frequency (default 1))
                  (slot address (default "0"))
                  (slot executable_content (default FALSE))
                  (slot server_address (default nil))
                  (multislot server_origin_name) (multislot server_origin_type))
                (defrule r_syscall
                  (system_call_access (system_call_name SYS_execve) (resource_type FILE))
                  => (printout t crlf))
                (defrule r_scalars
                  (system_call_access (pid 1) (frequency 5) (time 10))
                  => (printout t crlf))
                (defrule r_name
                  (system_call_access (resource_name "/bin/ls") (address "8048403"))
                  => (printout t crlf))
                (defrule r_transfer
                  (data_transfer (target_type SOCKET) (executable_content TRUE))
                  => (printout t crlf))
                (defrule r_server
                  (data_transfer (server_address nil) (target_name "h:3 (AF_INET)"))
                  => (printout t crlf))
                "#,
            )
            .unwrap();
        let gate = EventGate::build(engine.rule_base());
        assert!(!gate.access.always && !gate.transfer.always, "no catch-alls here");

        let server = ServerInfo {
            address: "LocalHost:11116 (AF_INET)".into(),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "pmad")] },
        };
        let mut events = vec![
            access_event("SYS_execve", "/bin/ls", vec![(ResourceType::Binary, "/bin/x")]),
            access_event("SYS_open", "/bin/ls", vec![(ResourceType::Binary, "/bin/x")]),
            access_event("SYS_execve", "/other", vec![(ResourceType::Socket, "s:1")]),
            transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![(ResourceType::Binary, "/bin/x")],
                (ResourceType::Socket, "h:3 (AF_INET)"),
                vec![(ResourceType::Binary, "/bin/x")],
                None,
            ),
            transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![],
                (ResourceType::File, "h:3 (AF_INET)"),
                vec![],
                Some(server),
            ),
            transfer(vec![], vec![], (ResourceType::Console, "STDOUT"), vec![], None),
        ];
        // Scalar variants: pid/time/frequency/address hits and misses.
        if let SecpertEvent::ResourceAccess { time, .. } = &mut events[1] {
            *time = 99;
        }
        let mut admitted = 0;
        for event in &events {
            let fact = fact_builder.event_to_fact(event).unwrap();
            assert_eq!(
                gate.admits(event),
                gate.filter.passes_fact(&fact),
                "gate and fact-level filter disagree on {event:?}"
            );
            admitted += usize::from(gate.admits(event));
        }
        assert!(admitted > 0 && admitted < events.len(), "mix of passes and skips");
    }

    #[test]
    fn skipped_events_still_count_and_produce_nothing() {
        // A policy whose catch-alls are the only rules still admits
        // everything; to exercise the skip path, drive the gate with a
        // constrained engine via a custom Secpert rule base is not
        // possible (the standard policy always loads). Instead, pin the
        // admit decision itself: standard policy admits every event.
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        assert!(s.gate.access.always, "cleanup catch-alls make access always-pass");
        assert!(s.gate.transfer.always, "cleanup catch-alls make transfer always-pass");
        let event = access_event("SYS_open", "/tmp/x", vec![(ResourceType::Binary, "/bin/x")]);
        s.process_event(&event).unwrap();
        assert_eq!(s.events_processed(), 1);
    }

    #[test]
    fn working_memory_stays_clean() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        for i in 0..20 {
            let _ = s
                .process_event(&access_event(
                    "SYS_open",
                    &format!("/tmp/f{i}"),
                    vec![(ResourceType::Binary, "/bin/x")],
                ))
                .unwrap();
        }
        // Only initial-fact should remain after cleanup rules.
        assert_eq!(s.engine_mut().fact_count(), 1);
    }
}
