//! The fleet correlator: a dedicated Secpert over session digests.
//!
//! Per-session analysis is structurally blind to coordination: the same
//! hardcoded C2 endpoint in many users' programs, one dropper artifact
//! recurring fleet-wide, exfiltration sliced thin enough to duck every
//! per-session threshold. The [`Correlator`] ingests [`SessionDigest`]s
//! (however they arrive — pool shards, a serve session table, journal
//! replay), groups them into aggregate facts, and runs the
//! `secpert-engine` correlator policy
//! ([`DIGEST_TEMPLATES`](secpert_engine::DIGEST_TEMPLATES) +
//! [`CORRELATE_RULES`](secpert_engine::CORRELATE_RULES)) over the
//! result.
//!
//! **Determinism.** [`Correlator::correlate`] is a pure function of the
//! ingested digest *multiset*: digests live in a session-keyed B-tree,
//! every set inside a digest is itself ordered, aggregates are grouped
//! in key order, and each call instantiates a fresh engine (from the
//! correlator policy, compiled once per [`CorrelateConfig`]). Shard count,
//! batch size, arrival order and transport (live, serve, journal) can
//! therefore not change a byte of the output — the invariant
//! `tests/correlate_equivalence.rs` pins.
//!
//! Fleet warnings carry [`Provenance`] whose support spans sessions:
//! the aggregate fact plus every per-session leaf fact behind it, so
//! `hth explain` renders a causal tree rooted in the sessions that
//! contributed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use secpert_engine::{
    Engine, EngineError, FactId, Matcher, RuleBase, Value, CORRELATE_RULES, DIGEST_TEMPLATES,
};

use crate::digest::SessionDigest;
use crate::memo::Memo;
use crate::provenance::{FactSupport, Provenance};
use crate::secpert::{bind_warn, register_severity_text};
use crate::warning::{Severity, Warning};

/// Thresholds for the correlator rule family (the CLIPS globals in
/// [`CORRELATE_RULES`], overridden after load). The whole config keys
/// the compiled correlator policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorrelateConfig {
    /// Distinct program labels beaconing one endpoint at/above this
    /// fire `shared_c2` (High).
    pub min_c2_labels: i64,
    /// Sessions dropping one executable artifact at/above this fire
    /// `recurring_dropper` (High).
    pub min_drop_sessions: i64,
    /// Sessions exfiltrating to one target at/above this are a
    /// candidate for `distributed_exfil` (Medium).
    pub min_exfil_sessions: i64,
    /// Fleet-wide byte total at/above this fires `distributed_exfil`…
    pub exfil_fleet_bytes: i64,
    /// …provided every per-session volume stays *under* this ceiling
    /// (at or above it, the per-session policy already sees the flow —
    /// the fleet rule exists for the low-and-slow shape).
    pub exfil_session_bytes: i64,
    /// Additional CLIPS policy text loaded on top of the correlator
    /// rules, in order.
    pub extra_rules: Vec<String>,
}

impl Default for CorrelateConfig {
    fn default() -> CorrelateConfig {
        CorrelateConfig {
            min_c2_labels: 3,
            min_drop_sessions: 3,
            min_exfil_sessions: 3,
            exfil_fleet_bytes: 2048,
            exfil_session_bytes: 1024,
            extra_rules: Vec::new(),
        }
    }
}

/// What one correlation pass concluded.
#[derive(Clone, Debug, PartialEq)]
pub struct CorrelationReport {
    /// Fleet-level warnings, each with cross-session provenance.
    pub warnings: Vec<Warning>,
    /// Sessions whose digests were correlated.
    pub sessions: u64,
    /// The engine's printout transcript (paper-style warning lines).
    pub transcript: String,
}

impl CorrelationReport {
    /// Warning multiset as `(severity, rule)` → count — the shape the
    /// equivalence suite compares.
    pub fn warning_counts(&self) -> BTreeMap<(Severity, String), u64> {
        let mut counts = BTreeMap::new();
        for w in &self.warnings {
            *counts.entry((w.severity, w.rule.clone())).or_insert(0) += 1;
        }
        counts
    }

    /// Every warning's causal tree, concatenated — the fleet-level
    /// `hth explain` rendering the golden corpus pins.
    pub fn render_trees(&self) -> String {
        let mut out = String::new();
        for (i, w) in self.warnings.iter().enumerate() {
            out.push_str(&format!("── fleet warning {i} ──\n"));
            match &w.provenance {
                Some(p) => out.push_str(&p.render_tree(w)),
                None => out.push_str(&format!("{w}\n")),
            }
        }
        out
    }

    /// One-line-per-warning human summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet correlation: {} sessions, {} warnings\n",
            self.sessions,
            self.warnings.len()
        );
        for w in &self.warnings {
            out.push_str(&format!("  [{}] {}: {}\n", w.severity, w.rule, w.message));
        }
        out
    }
}

/// Per-key aggregate under construction: which sessions (with labels)
/// contributed, and the leaf fact ids asserted for them.
#[derive(Default)]
struct Agg {
    contributors: BTreeMap<u64, String>,
    leaves: Vec<FactId>,
    total: u64,
    peak: u64,
}

impl Agg {
    fn add(&mut self, session: u64, label: &str, leaf: Option<FactId>) {
        self.contributors.insert(session, label.to_string());
        self.leaves.extend(leaf);
    }

    fn label_values(&self) -> Value {
        let labels: BTreeSet<&str> = self.contributors.values().map(String::as_str).collect();
        Value::multi(labels.into_iter().map(Value::str))
    }

    fn session_values(&self) -> Value {
        Value::multi(self.contributors.keys().map(|s| Value::Int(*s as i64)))
    }
}

/// Compiled correlator policies by configuration (see [`crate::memo`]).
static CORRELATOR_POLICIES: Memo<CorrelateConfig, RuleBase> = Memo::new();

/// Compiles the correlator policy for `config`: digest templates,
/// correlation rules, `extra_rules` in order, then the thresholds.
fn compile(config: &CorrelateConfig) -> Result<RuleBase, EngineError> {
    let mut rules = RuleBase::new();
    register_severity_text(&mut rules);
    rules.load_str(DIGEST_TEMPLATES)?;
    rules.load_str(CORRELATE_RULES)?;
    for extra in &config.extra_rules {
        rules.load_str(extra)?;
    }
    rules.set_global("MIN_C2_LABELS", config.min_c2_labels);
    rules.set_global("MIN_DROP_SESSIONS", config.min_drop_sessions);
    rules.set_global("MIN_EXFIL_SESSIONS", config.min_exfil_sessions);
    rules.set_global("EXFIL_FLEET_BYTES", config.exfil_fleet_bytes);
    rules.set_global("EXFIL_SESSION_BYTES", config.exfil_session_bytes);
    Ok(rules)
}

/// The fleet-wide correlator: ingest digests, then judge the whole
/// fleet at once.
#[derive(Debug, Default)]
pub struct Correlator {
    config: CorrelateConfig,
    digests: BTreeMap<u64, SessionDigest>,
}

impl Correlator {
    /// A correlator with the given thresholds.
    pub fn new(config: CorrelateConfig) -> Correlator {
        Correlator { config, digests: BTreeMap::new() }
    }

    /// Folds one digest in. Digests of the same session merge
    /// ([`SessionDigest::merge`]), so partial digests — per-shard, per
    /// batch, or salvaged after a quarantine — reconcile to the same
    /// state as one whole-session digest.
    pub fn ingest(&mut self, digest: SessionDigest) {
        match self.digests.get_mut(&digest.session) {
            Some(existing) => existing.merge(&digest),
            None => {
                self.digests.insert(digest.session, digest);
            }
        }
    }

    /// Sessions ingested so far.
    pub fn sessions(&self) -> u64 {
        self.digests.len() as u64
    }

    /// The ingested digests, in session order.
    pub fn digests(&self) -> impl Iterator<Item = &SessionDigest> {
        self.digests.values()
    }

    /// Runs the correlator policy over everything ingested. Pure in the
    /// digest multiset: each call instantiates a fresh engine, so calling
    /// twice yields identical reports.
    ///
    /// # Errors
    ///
    /// Engine errors from the embedded policy (a bug, covered by
    /// tests) or from `extra_rules`.
    pub fn correlate(&self) -> Result<CorrelationReport, EngineError> {
        let _span = hth_trace::span("correlator.correlate");
        let rules =
            CORRELATOR_POLICIES.get_or_try_insert(&self.config, || compile(&self.config))?;
        let mut engine = Engine::instantiate(rules, Matcher::default())?;
        let warnings: Arc<Mutex<Vec<Arc<Warning>>>> = Arc::new(Mutex::new(Vec::new()));
        bind_warn(&mut engine, warnings.clone());
        engine.set_support_capture(true);
        engine.reset()?;

        // Leaf facts (session order, set order within a session) and
        // the aggregates they roll up into (key order). Both orders are
        // total, so fact ids — and with them firing order, warning
        // order and rendered provenance — are a function of digest
        // content alone.
        let mut beacons: BTreeMap<String, Agg> = BTreeMap::new();
        let mut artifacts: BTreeMap<(String, bool), Agg> = BTreeMap::new();
        let mut exfil: BTreeMap<String, Agg> = BTreeMap::new();
        for digest in self.digests.values() {
            let sid = digest.session as i64;
            let label = if digest.label.is_empty() {
                format!("session-{}", digest.session)
            } else {
                digest.label.clone()
            };
            let fact = engine
                .fact("session_digest")?
                .slot("session", Value::Int(sid))
                .slot("label", Value::str(label.as_str()))
                .slot("events", Value::Int(digest.events as i64))
                .build()?;
            engine.assert_fact(fact)?;
            for endpoint in &digest.beacons {
                let fact = engine
                    .fact("digest_beacon")?
                    .slot("session", Value::Int(sid))
                    .slot("label", Value::str(label.as_str()))
                    .slot("endpoint", Value::str(endpoint.as_str()))
                    .build()?;
                let id = engine.assert_fact(fact)?;
                beacons.entry(endpoint.clone()).or_default().add(digest.session, &label, id);
            }
            for drop in &digest.drops {
                let fact = engine
                    .fact("digest_drop")?
                    .slot("session", Value::Int(sid))
                    .slot("label", Value::str(label.as_str()))
                    .slot("path", Value::str(drop.path.as_str()))
                    .slot("executable", Value::sym(if drop.executable { "TRUE" } else { "FALSE" }))
                    .slot(
                        "content",
                        Value::multi(drop.content.iter().map(|c| Value::sym(c.as_str()))),
                    )
                    .build()?;
                let id = engine.assert_fact(fact)?;
                artifacts.entry((drop.path.clone(), drop.executable)).or_default().add(
                    digest.session,
                    &label,
                    id,
                );
            }
            for (target, bytes) in &digest.exfil {
                let fact = engine
                    .fact("digest_exfil")?
                    .slot("session", Value::Int(sid))
                    .slot("label", Value::str(label.as_str()))
                    .slot("target", Value::str(target.as_str()))
                    .slot("bytes", Value::Int(*bytes as i64))
                    .build()?;
                let id = engine.assert_fact(fact)?;
                let agg = exfil.entry(target.clone()).or_default();
                agg.add(digest.session, &label, id);
                agg.total += bytes;
                agg.peak = agg.peak.max(*bytes);
            }
        }

        // Aggregate facts, with a map from each aggregate's fact id
        // back to its per-session leaves for provenance.
        let mut roots: HashMap<u64, &Agg> = HashMap::new();
        for (endpoint, agg) in &beacons {
            let fact = engine
                .fact("shared_endpoint")?
                .slot("endpoint", Value::str(endpoint.as_str()))
                .slot("labels", agg.label_values())
                .slot("sessions", agg.session_values())
                .build()?;
            if let Some(id) = engine.assert_fact(fact)? {
                roots.insert(id.raw(), agg);
            }
        }
        for ((path, executable), agg) in &artifacts {
            let fact = engine
                .fact("recurring_artifact")?
                .slot("path", Value::str(path.as_str()))
                .slot("executable", Value::sym(if *executable { "TRUE" } else { "FALSE" }))
                .slot("labels", agg.label_values())
                .slot("sessions", agg.session_values())
                .build()?;
            if let Some(id) = engine.assert_fact(fact)? {
                roots.insert(id.raw(), agg);
            }
        }
        for (target, agg) in &exfil {
            let fact = engine
                .fact("fleet_exfil")?
                .slot("target", Value::str(target.as_str()))
                .slot("sessions", agg.session_values())
                .slot("total_bytes", Value::Int(agg.total as i64))
                .slot("max_session_bytes", Value::Int(agg.peak as i64))
                .build()?;
            if let Some(id) = engine.assert_fact(fact)? {
                roots.insert(id.raw(), agg);
            }
        }

        engine.run(None)?;
        self.attach_provenance(&engine, &warnings, &roots);

        let warnings: Vec<Warning> = {
            let sink = warnings.lock().expect("warning sink poisoned");
            sink.iter().map(|w| (**w).clone()).collect()
        };
        Ok(CorrelationReport {
            warnings,
            sessions: self.digests.len() as u64,
            transcript: engine.take_output(),
        })
    }

    /// Mirrors `Secpert::attach_provenance` for the fleet engine:
    /// pairs each warning with its firing by rule name, then extends
    /// the support with the per-session leaf facts behind the matched
    /// aggregate, so the causal tree spans the contributing sessions.
    fn attach_provenance(
        &self,
        engine: &Engine,
        warnings: &Arc<Mutex<Vec<Arc<Warning>>>>,
        roots: &HashMap<u64, &Agg>,
    ) {
        let firings = engine.firings();
        if firings.is_empty() {
            return;
        }
        let mut sink = warnings.lock().expect("warning sink poisoned");
        let mut cursor = 0usize;
        for slot in sink.iter_mut() {
            let Some(offset) = firings[cursor..].iter().position(|f| *f.rule == *slot.rule) else {
                continue;
            };
            let at = cursor + offset;
            cursor = at + 1;
            let firing = &firings[at];
            let mut support: Vec<FactSupport> = match engine.support_for(firing.seq) {
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
            // The leaves: one per contributing session, rendered from
            // working memory (leaf facts are never retracted).
            let agg = firing.fact_ids.iter().flatten().find_map(|id| roots.get(&id.raw()));
            let mut taint_sources = Vec::new();
            if let Some(agg) = agg {
                for leaf in &agg.leaves {
                    if let Some(fact) = engine.get_fact(*leaf) {
                        support.push(FactSupport {
                            id: leaf.raw(),
                            fact: fact.to_string(),
                            co_rules: Vec::new(),
                        });
                    }
                }
                taint_sources = agg
                    .contributors
                    .iter()
                    .map(|(session, label)| format!("session-{session}({label})"))
                    .collect();
            }
            let provenance = Provenance {
                event_index: self.digests.len() as u64,
                syscall: "digest-stream".to_string(),
                firing_seq: firing.seq as u64,
                rule_chain: firings[..=at].iter().map(|f| f.rule.to_string()).collect(),
                support,
                taint_sources,
            };
            let mut enriched = (**slot).clone();
            enriched.provenance = Some(Box::new(provenance));
            *slot = Arc::new(enriched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{DigestBuilder, DropIdentity};

    fn bot(session: u64, label: &str) -> SessionDigest {
        let mut d = SessionDigest::new(session, label);
        d.events = 4;
        d.beacons.insert("c2.example:6667".into());
        d
    }

    fn dropper(session: u64, label: &str) -> SessionDigest {
        let mut d = SessionDigest::new(session, label);
        d.events = 3;
        d.drops.insert(DropIdentity {
            path: "/tmp/stage2".into(),
            executable: true,
            content: vec!["SOCKET".into()],
        });
        d
    }

    fn leaker(session: u64, label: &str, bytes: u64) -> SessionDigest {
        let mut d = SessionDigest::new(session, label);
        d.events = 2;
        d.exfil.insert("sink.example:81".into(), bytes);
        d
    }

    fn coordinated() -> Vec<SessionDigest> {
        vec![
            bot(0, "bot-a"),
            bot(1, "bot-b"),
            bot(2, "bot-c"),
            dropper(3, "dropper-a"),
            dropper(4, "dropper-b"),
            dropper(5, "dropper-c"),
            leaker(6, "leak-a", 700),
            leaker(7, "leak-b", 700),
            leaker(8, "leak-c", 700),
        ]
    }

    #[test]
    fn coordinated_fleet_fires_all_three_rules() {
        let mut correlator = Correlator::new(CorrelateConfig::default());
        for d in coordinated() {
            correlator.ingest(d);
        }
        let report = correlator.correlate().unwrap();
        let rules: BTreeSet<&str> = report.warnings.iter().map(|w| w.rule.as_str()).collect();
        assert_eq!(
            rules,
            ["distributed_exfil", "recurring_dropper", "shared_c2"].into_iter().collect()
        );
        assert_eq!(report.sessions, 9);
        let c2 = report.warnings.iter().find(|w| w.rule == "shared_c2").unwrap();
        assert_eq!(c2.severity, Severity::High);
        let prov = c2.provenance.as_ref().expect("fleet provenance");
        assert_eq!(prov.syscall, "digest-stream");
        // The causal tree spans the three beaconing sessions.
        let leaf_sessions =
            prov.support.iter().filter(|s| s.fact.contains("digest_beacon")).count();
        assert_eq!(leaf_sessions, 3, "{:#?}", prov.support);
        assert_eq!(
            prov.taint_sources,
            vec!["session-0(bot-a)", "session-1(bot-b)", "session-2(bot-c)"]
        );
        let exfil = report.warnings.iter().find(|w| w.rule == "distributed_exfil").unwrap();
        assert_eq!(exfil.severity, Severity::Medium);
        assert!(exfil.message.contains("2100 bytes"), "{}", exfil.message);
    }

    #[test]
    fn correlate_is_pure_and_ingest_is_order_insensitive() {
        let mut forward = Correlator::new(CorrelateConfig::default());
        for d in coordinated() {
            forward.ingest(d);
        }
        let mut reverse = Correlator::new(CorrelateConfig::default());
        for d in coordinated().into_iter().rev() {
            reverse.ingest(d);
        }
        let a = forward.correlate().unwrap();
        let b = forward.correlate().unwrap();
        let c = reverse.correlate().unwrap();
        assert_eq!(a, b, "correlate() must be pure");
        assert_eq!(a, c, "ingest order must not matter");
        assert_eq!(a.render_trees(), c.render_trees());
    }

    #[test]
    fn partial_digests_reconcile_to_the_whole() {
        // One session observed in two halves (as a quarantined shard's
        // salvage would deliver it) correlates identically to the
        // session observed whole.
        let whole = {
            let mut b = DigestBuilder::new(0, "bot-a");
            b.set_label("bot-a");
            let mut d = b.finish();
            d.events = 4;
            d.beacons.insert("c2.example:6667".into());
            d
        };
        let mut split = Correlator::new(CorrelateConfig::default());
        let mut half = SessionDigest::new(0, "bot-a");
        half.events = 2;
        half.beacons.insert("c2.example:6667".into());
        let mut other = SessionDigest::new(0, "");
        other.events = 2;
        other.beacons.insert("c2.example:6667".into());
        split.ingest(half);
        split.ingest(other);
        for d in coordinated().into_iter().skip(1) {
            split.ingest(d);
        }
        let mut merged = Correlator::new(CorrelateConfig::default());
        merged.ingest(whole);
        for d in coordinated().into_iter().skip(1) {
            merged.ingest(d);
        }
        assert_eq!(split.correlate().unwrap(), merged.correlate().unwrap());
    }

    #[test]
    fn uncoordinated_fleet_stays_quiet() {
        let mut correlator = Correlator::new(CorrelateConfig::default());
        // Same program label across sessions: a normal fleet of mail
        // clients polling one server — not shared_c2.
        for session in 0..6 {
            correlator.ingest(bot(session, "mailer"));
        }
        // Two droppers: below the session floor.
        correlator.ingest(dropper(6, "d-a"));
        correlator.ingest(dropper(7, "d-b"));
        // Exfil where one session exceeds the per-session ceiling: the
        // per-session policy's jurisdiction, not the fleet rule's.
        correlator.ingest(leaker(8, "l-a", 1500));
        correlator.ingest(leaker(9, "l-b", 600));
        correlator.ingest(leaker(10, "l-c", 600));
        let report = correlator.correlate().unwrap();
        assert!(report.warnings.is_empty(), "{}", report.render());
    }
}
