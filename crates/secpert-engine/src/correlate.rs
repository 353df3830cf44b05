//! The fleet correlator's CLIPS policy: digest templates + rules.
//!
//! A fleet-level Secpert does not see syscall events; it sees *session
//! digests* — compact summaries each monitored session exports (see
//! `hth-core`'s `SessionDigest`). This module is the CLIPS side of that
//! contract: leaf templates mirroring the digest fields, aggregate
//! templates the host asserts after grouping digests fleet-wide, and
//! the three correlation rules the per-session policy is structurally
//! blind to:
//!
//! * **`shared_c2`** — the same hardcoded endpoint beaconed by at least
//!   `?*MIN_C2_LABELS*` *distinct programs* (High). Distinct programs,
//!   not distinct sessions: a fleet of identical mail clients polling
//!   one server is normal, `ls`/`make`/`xeyes` all dialing the same
//!   address is a trojaned toolchain.
//! * **`recurring_dropper`** — the same executable artifact, fed from
//!   the network, dropped at the same path in at least
//!   `?*MIN_DROP_SESSIONS*` sessions (High).
//! * **`distributed_exfil`** — local data flowing to one target from at
//!   least `?*MIN_EXFIL_SESSIONS*` sessions, totalling
//!   `?*EXFIL_FLEET_BYTES*` or more while every per-session volume
//!   stays under `?*EXFIL_SESSION_BYTES*` (Medium — the low-and-slow
//!   shape that defeats any per-session threshold).
//!
//! The host (hth-core's `Correlator`) registers the same `warn` /
//! `severity-text` natives the per-session policy uses, so fleet
//! warnings carry the same severities and render through the same
//! provenance machinery.

/// Leaf templates: one fact per digest field worth correlating. The
/// host asserts these verbatim from each [`SessionDigest`]'s sets, and
/// records their fact ids so fleet-level provenance can point back at
/// the contributing sessions.
///
/// [`SessionDigest`]: ../hth_core/struct.SessionDigest.html
pub const DIGEST_TEMPLATES: &str = r#"
; ---------------------------------------------------------------------------
; Leaf facts: one per digest observation, asserted by the host.
; ---------------------------------------------------------------------------

(deftemplate session_digest
  (slot session)
  (slot label)
  (slot events (default 0)))

(deftemplate digest_beacon
  (slot session)
  (slot label)
  (slot endpoint))

(deftemplate digest_drop
  (slot session)
  (slot label)
  (slot path)
  (slot executable (default FALSE))
  (multislot content))

(deftemplate digest_exfil
  (slot session)
  (slot label)
  (slot target)
  (slot bytes (default 0)))

; ---------------------------------------------------------------------------
; Aggregates: grouped fleet-wide by the host (deterministic B-tree
; order), then judged by the rules below.
; ---------------------------------------------------------------------------

(deftemplate shared_endpoint
  (slot endpoint)
  (multislot labels)
  (multislot sessions))

(deftemplate recurring_artifact
  (slot path)
  (slot executable (default FALSE))
  (multislot labels)
  (multislot sessions))

(deftemplate fleet_exfil
  (slot target)
  (multislot sessions)
  (slot total_bytes (default 0))
  (slot max_session_bytes (default 0)))
"#;

/// The correlator rule family. Thresholds are globals so the host's
/// `CorrelateConfig` can override them after load, exactly like the
/// per-session policy's thresholds.
pub const CORRELATE_RULES: &str = r#"
; ---------------------------------------------------------------------------
; Thresholds (overridden from CorrelateConfig after load).
; ---------------------------------------------------------------------------

(defglobal ?*MIN_C2_LABELS* = 3)
(defglobal ?*MIN_DROP_SESSIONS* = 3)
(defglobal ?*MIN_EXFIL_SESSIONS* = 3)
(defglobal ?*EXFIL_FLEET_BYTES* = 2048)
(defglobal ?*EXFIL_SESSION_BYTES* = 1024)

; ---------------------------------------------------------------------------
; Rule family: what only the fleet can see.
; ---------------------------------------------------------------------------

(defrule shared_c2 "one hardcoded endpoint beaconed by many distinct programs"
  ?a <- (shared_endpoint (endpoint ?ep) (labels $?labels) (sessions $?sessions))
  (test (>= (length$ $?labels) ?*MIN_C2_LABELS*))
  =>
  (bind ?msg (str-cat "Fleet: endpoint " ?ep " is hardcoded into "
                      (length$ $?labels) " distinct programs (" $?labels
                      ") across sessions (" $?sessions ")"))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 shared_c2 0 (length$ $?sessions) ?msg))

(defrule recurring_dropper "one executable artifact dropped across many sessions"
  ?a <- (recurring_artifact (path ?path) (executable TRUE)
                            (labels $?labels) (sessions $?sessions))
  (test (>= (length$ $?sessions) ?*MIN_DROP_SESSIONS*))
  =>
  (bind ?msg (str-cat "Fleet: executable artifact " ?path
                      " dropped from the network in " (length$ $?sessions)
                      " sessions (" $?sessions ")"))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 recurring_dropper 0 (length$ $?sessions) ?msg))

(defrule distributed_exfil "low-and-slow exfiltration summed across the fleet"
  ?a <- (fleet_exfil (target ?target) (sessions $?sessions)
                     (total_bytes ?total) (max_session_bytes ?peak))
  (test (>= (length$ $?sessions) ?*MIN_EXFIL_SESSIONS*))
  (test (>= ?total ?*EXFIL_FLEET_BYTES*))
  (test (< ?peak ?*EXFIL_SESSION_BYTES*))
  =>
  (bind ?msg (str-cat "Fleet: " ?total " bytes of local data reached " ?target
                      " from " (length$ $?sessions) " sessions (" $?sessions
                      "), each session staying under " ?*EXFIL_SESSION_BYTES*
                      " bytes"))
  (printout t (severity-text 2) " " ?msg crlf)
  (warn 2 distributed_exfil 0 (length$ $?sessions) ?msg))
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Matcher};
    use crate::rulebase::RuleBase;
    use crate::value::Value;
    use std::sync::{Arc, Mutex, OnceLock};

    type WarningSink = Arc<Mutex<Vec<(i64, String)>>>;

    /// The correlator policy, compiled once for every test here, with a
    /// test double of the host's `severity-text` native.
    fn correlator_rules() -> Arc<RuleBase> {
        static RULES: OnceLock<Arc<RuleBase>> = OnceLock::new();
        RULES
            .get_or_init(|| {
                let mut rules = RuleBase::new();
                rules.register_fn("severity-text", |args| {
                    Ok(Value::str(format!("Warning [{}]", args[0].as_int()?)))
                });
                rules.load_str(DIGEST_TEMPLATES).expect("templates parse");
                rules.load_str(CORRELATE_RULES).expect("rules parse");
                Arc::new(rules)
            })
            .clone()
    }

    /// An engine instantiated from the compiled correlator policy, with
    /// a test double of the host's `warn` native bound to it alone.
    fn correlator() -> (Engine, WarningSink) {
        let mut engine =
            Engine::instantiate(correlator_rules(), Matcher::default()).expect("instantiate");
        let warnings: WarningSink = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&warnings);
        engine.bind_fn("warn", move |args| {
            let level = args[0].as_int()?;
            let rule = args[1].to_display_string();
            sink.lock().unwrap().push((level, rule));
            Ok(Value::truth())
        });
        engine.reset().expect("reset");
        (engine, warnings)
    }

    #[test]
    fn policy_parses_and_rules_fire_on_aggregates() {
        let (mut engine, warnings) = correlator();
        engine
            .assert_str(
                "(shared_endpoint (endpoint \"c2:6667\")
                   (labels bot-a bot-b bot-c) (sessions 1 2 3))",
            )
            .unwrap();
        engine
            .assert_str(
                "(recurring_artifact (path \"/tmp/payload\") (executable TRUE)
                   (labels d d d) (sessions 4 5 6))",
            )
            .unwrap();
        engine
            .assert_str(
                "(fleet_exfil (target \"sink:81\") (sessions 7 8 9)
                   (total_bytes 2400) (max_session_bytes 800))",
            )
            .unwrap();
        engine.run(None).unwrap();
        let mut fired = warnings.lock().unwrap().clone();
        fired.sort();
        assert_eq!(
            fired,
            vec![
                (2, "distributed_exfil".to_string()),
                (3, "recurring_dropper".to_string()),
                (3, "shared_c2".to_string()),
            ]
        );
    }

    #[test]
    fn thresholds_gate_the_rules() {
        let (mut engine, warnings) = correlator();
        // Two labels < MIN_C2_LABELS: quiet.
        engine
            .assert_str(
                "(shared_endpoint (endpoint \"c2:6667\")
                   (labels bot-a bot-b) (sessions 1 2 3 4))",
            )
            .unwrap();
        // Non-executable recurring artifact: quiet.
        engine
            .assert_str(
                "(recurring_artifact (path \"/tmp/l\") (executable FALSE)
                   (labels a b c) (sessions 1 2 3))",
            )
            .unwrap();
        // One session over the per-session ceiling: not low-and-slow.
        engine
            .assert_str(
                "(fleet_exfil (target \"sink:81\") (sessions 7 8 9)
                   (total_bytes 4000) (max_session_bytes 2000))",
            )
            .unwrap();
        engine.run(None).unwrap();
        assert!(warnings.lock().unwrap().is_empty(), "{:?}", warnings.lock().unwrap());
    }

    #[test]
    fn raised_threshold_silences_shared_c2() {
        let (mut engine, warnings) = correlator();
        engine.set_global("MIN_C2_LABELS", Value::Int(5));
        engine
            .assert_str(
                "(shared_endpoint (endpoint \"c2:6667\")
                   (labels bot-a bot-b bot-c) (sessions 1 2 3))",
            )
            .unwrap();
        engine.run(None).unwrap();
        assert!(warnings.lock().unwrap().is_empty());
        // The override copied the engine's rule base; the shared one
        // keeps the default threshold.
        assert_eq!(correlator_rules().get_global("MIN_C2_LABELS"), Some(&Value::Int(3)));
    }
}
