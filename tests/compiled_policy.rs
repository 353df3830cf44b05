//! Sharing-correctness suite for the compiled policy: every expert over
//! one [`PolicyConfig`] is an instance of one shared [`CompiledPolicy`],
//! and sharing must be invisible.
//!
//! * experts instantiated from one compiled policy never see each
//!   other's facts, tokens, agenda or warnings (a property test over
//!   interleaved event streams, against fully isolated experts);
//! * an instantiated expert and an engine loaded from the policy text
//!   agree byte for byte — engine snapshots, firings, warnings and
//!   transcripts — over the §8 golden corpus;
//! * `load_policy` on one instance copies its rule base first, so its
//!   siblings and the memo never see the new rules;
//! * configs that differ only in `extra_rules` or a trust list compile
//!   to different policies.

use std::sync::{Arc, Mutex, OnceLock};

use hth::harrier::SecpertEvent;
use hth::hth_core::{CompiledPolicy, POLICY_CLIPS};
use hth::secpert_engine::{Engine, EngineError, MatchStats, Value};
use hth::{PolicyConfig, Secpert, Session, SessionConfig, Severity};
use proptest::prelude::*;

/// Records one scenario's event stream through the session tap,
/// without inline analysis.
fn record(scenario: &hth::hth_workloads::Scenario) -> Vec<SecpertEvent> {
    let events = Arc::new(Mutex::new(Vec::new()));
    let config =
        SessionConfig { analyze_inline: false, record_events: false, ..Default::default() };
    let mut session = Session::new(config).expect("session builds");
    let start = (scenario.setup)(&mut session);
    let sink = Arc::clone(&events);
    session.set_event_tap(Box::new(move |event| {
        sink.lock().expect("event sink").push(event.clone());
    }));
    let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
    let env: Vec<(&str, &str)> = start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    session.start(start.path, &argv, &env).expect("spawns");
    session.run().expect("runs");
    drop(session);
    Arc::try_unwrap(events)
        .unwrap_or_else(|_| unreachable!("tap dropped with the session"))
        .into_inner()
        .expect("event sink")
}

/// The recorded §8 streams (Table 8 exploits plus the `ttt` macro
/// pair) — the corpus `tests/golden/warnings.txt` pins.
fn corpus() -> &'static Vec<(String, Vec<SecpertEvent>)> {
    static CORPUS: OnceLock<Vec<(String, Vec<SecpertEvent>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut scenarios = hth::hth_workloads::exploits::scenarios();
        scenarios.extend(
            hth::hth_workloads::macro_bench::scenarios()
                .into_iter()
                .filter(|s| s.id == "ttt" || s.id == "ttt_trojaned"),
        );
        scenarios.iter().map(|s| (s.id.to_string(), record(s))).collect()
    })
}

/// Everything observable about one expert after a stream: its warnings
/// (with provenance), transcript, engine snapshot bytes, resident-byte
/// estimate and events processed.
type Observed = (Vec<String>, String, Vec<u8>, usize, u64);

fn observe(expert: &mut Secpert) -> Observed {
    let warnings = expert
        .warnings()
        .iter()
        .map(|w| match w.provenance.as_deref() {
            Some(p) => format!("{w}\n{}", p.render_tree(w)),
            None => w.to_string(),
        })
        .collect();
    let snapshot = expert.engine_mut().snapshot().expect("quiescent").encode();
    let bytes = expert.approx_bytes();
    (warnings, expert.take_transcript(), snapshot, bytes, expert.events_processed())
}

/// What one expert that shares nothing — its own compile — returns per
/// event over `stream`, and where it ends.
type Reference = (Vec<Vec<hth::Warning>>, MatchStats, Observed);

fn isolated(stream: &[SecpertEvent]) -> Reference {
    let compiled = CompiledPolicy::compile(&PolicyConfig::default()).expect("compiles");
    let mut expert = compiled.instantiate().expect("instantiates");
    let per_event = stream.iter().map(|e| expert.process_event(e).expect("event")).collect();
    (per_event, expert.match_stats(), observe(&mut expert))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two experts over one shared compiled policy, fed two corpus
    /// streams interleaved at random, return per event and end exactly
    /// as two experts that share nothing (each from its own compile,
    /// run one after the other) do.
    #[test]
    fn sibling_instances_share_no_state(
        left in 0usize..64,
        right in 0usize..64,
        interleave in any::<u64>(),
    ) {
        let corpus = corpus();
        let a_stream = &corpus[left % corpus.len()].1;
        let b_stream = &corpus[right % corpus.len()].1;
        let (a_want, a_stats, a_end) = isolated(a_stream);
        let (b_want, b_stats, b_end) = isolated(b_stream);

        let shared = CompiledPolicy::get(&PolicyConfig::default()).expect("policy compiles");
        let mut a = shared.instantiate().expect("instantiates");
        let mut b = shared.instantiate().expect("instantiates");
        let (mut a_seen, mut b_seen) = (Vec::new(), Vec::new());
        let (mut i, mut j, mut coin) = (0, 0, interleave | 1);
        while i < a_stream.len() || j < b_stream.len() {
            // xorshift64: which expert gets the next event.
            coin ^= coin << 13;
            coin ^= coin >> 7;
            coin ^= coin << 17;
            if j == b_stream.len() || (i < a_stream.len() && coin & 1 == 0) {
                let got = a.process_event(&a_stream[i]).expect("a");
                prop_assert_eq!(&got, &a_want[i], "a, event {}", i);
                a_seen.extend(got);
                i += 1;
            } else {
                let got = b.process_event(&b_stream[j]).expect("b");
                prop_assert_eq!(&got, &b_want[j], "b, event {}", j);
                b_seen.extend(got);
                j += 1;
            }
            prop_assert_eq!(a.engine_mut().agenda_len(), 0);
            prop_assert_eq!(b.engine_mut().agenda_len(), 0);
        }
        // Each sink holds exactly the warnings its own expert returned.
        prop_assert_eq!(a.warnings(), a_seen);
        prop_assert_eq!(b.warnings(), b_seen);
        prop_assert_eq!(a.match_stats(), a_stats);
        prop_assert_eq!(b.match_stats(), b_stats);
        prop_assert_eq!(observe(&mut a), a_end);
        prop_assert_eq!(observe(&mut b), b_end);
    }
}

/// Warnings the test's own `warn` native collected.
type Sink = Arc<Mutex<Vec<(Severity, String, u32, u64, String)>>>;

/// The policy's `filter_*` semantics, written out independently of
/// hth-core: the entries of the wanted type whose names contain no
/// trusted substring.
fn filter(args: &[Value], wanted: &str, trusted: &[String]) -> Result<Value, EngineError> {
    let types = args[0].as_multi()?;
    let names = args[1].as_multi()?;
    let kept: Vec<Value> = types
        .iter()
        .zip(names.iter())
        .filter(|(t, n)| {
            let name = n.as_text().unwrap_or_default();
            t.is_sym(wanted) && !trusted.iter().any(|trust| name.contains(trust.as_str()))
        })
        .map(|(_, n)| n.clone())
        .collect();
    Ok(Value::multi(kept))
}

/// An engine built the old way: natives registered, then the policy
/// text loaded straight into it rule by rule, then the thresholds.
fn from_source(config: &PolicyConfig) -> (Engine, Sink) {
    let mut engine = Engine::new();
    let sink: Sink = Arc::default();
    let bins = config.trusted_binaries.clone();
    engine.register_fn("filter_binary", move |args| filter(args, "BINARY", &bins));
    for (name, wanted) in [("filter_socket", "SOCKET"), ("filter_sockets_in", "SOCKET")] {
        let socks = config.trusted_sockets.clone();
        engine.register_fn(name, move |args| filter(args, wanted, &socks));
    }
    for (name, wanted) in
        [("filter_file", "FILE"), ("filter_user", "USER_INPUT"), ("filter_hardware", "HARDWARE")]
    {
        engine.register_fn(name, move |args| filter(args, wanted, &[]));
    }
    engine.register_fn("severity-text", |args| {
        let label = Severity::from_level(args[0].as_int()?).map_or("?", Severity::label);
        Ok(Value::str(format!("Warning [{label}]")))
    });
    let warned = Arc::clone(&sink);
    engine.register_fn("warn", move |args| {
        warned.lock().expect("sink").push((
            Severity::from_level(args[0].as_int()?).expect("severity 1..=3"),
            args[1].as_text().unwrap_or("?").to_string(),
            args[2].as_int()? as u32,
            args[3].as_int()? as u64,
            args[4].to_display_string(),
        ));
        Ok(Value::truth())
    });
    engine.set_support_capture(true);
    engine.load_str(POLICY_CLIPS).expect("policy text loads");
    engine.set_global("RARE_FREQUENCY", config.rare_frequency);
    engine.set_global("LONG_TIME", config.long_time);
    engine.set_global("PROC_COUNT_HIGH", config.proc_count_high);
    engine.set_global("PROC_RATE_HIGH", config.proc_rate_high);
    engine.set_global("MEM_HIGH", config.mem_high);
    engine.set_global("MEM_VERY_HIGH", config.mem_very_high);
    engine.reset().expect("reset");
    (engine, sink)
}

#[test]
fn instantiated_expert_matches_the_policy_text_on_the_golden_corpus() {
    let config = PolicyConfig::default();
    for (id, stream) in corpus() {
        let mut expert = Secpert::new(&config).expect("policy compiles");
        let (mut source, sink) = from_source(&config);
        for event in stream {
            // The expert's own fact, rebuilt slot by slot against the
            // source engine's templates.
            let fact = expert.build_fact(event).expect("fact builds");
            let mut rebuilt = source.fact(fact.template().name()).expect("template");
            for (slot, value) in fact.template().slots().iter().zip(fact.slots()) {
                rebuilt = rebuilt.slot(slot.name(), value.clone());
            }
            expert.process_event(event).expect("expert");
            source.assert_fact(rebuilt.build().expect("slots")).expect("assert");
            source.run(None).expect("run");
        }
        let expert_engine = expert.engine_mut();
        assert_eq!(
            expert_engine.snapshot().expect("quiescent").encode(),
            source.snapshot().expect("quiescent").encode(),
            "{id}: engine snapshot bytes"
        );
        assert_eq!(expert_engine.match_stats(), source.match_stats(), "{id}: match stats");
        let render = |e: &Engine| -> Vec<String> {
            e.firings()
                .iter()
                .map(|f| {
                    let facts: Vec<String> = f.facts.iter().map(|x| x.to_string()).collect();
                    format!("{} {} {:?} {:?} {:?}", f.seq, f.rule, f.fact_ids, facts, f.output)
                })
                .collect()
        };
        assert_eq!(render(expert_engine), render(&source), "{id}: firings");
        let warnings: Vec<_> = expert
            .warnings()
            .into_iter()
            .map(|w| (w.severity, w.rule, w.pid, w.time, w.message))
            .collect();
        assert_eq!(warnings, *sink.lock().expect("sink"), "{id}: warnings");
        assert_eq!(expert.take_transcript(), source.take_output(), "{id}: transcript");
    }
}

/// A rule only the instance that loads it should ever fire.
const EXTRA_RULE: &str = r#"
(defrule flag_tmp_open "extra rule loaded into one instance"
  (system_call_access (system_call_name SYS_open) (resource_name "/tmp/flag") (pid ?pid))
  =>
  (warn 1 flag_tmp_open ?pid 0 "opened /tmp/flag"))
"#;

fn open_tmp_flag() -> SecpertEvent {
    use hth::harrier::{Origin, ResourceType, SourceInfo};
    SecpertEvent::ResourceAccess {
        pid: 7,
        syscall: "SYS_open",
        resource: SourceInfo::new(ResourceType::File, "/tmp/flag"),
        origin: Origin::unknown(),
        time: 1,
        frequency: 1,
        address: 0,
        proc_count: None,
        proc_rate: None,
        mem_total: None,
        server: None,
    }
}

#[test]
fn load_policy_on_one_instance_leaves_siblings_and_the_memo_unchanged() {
    let config = PolicyConfig::default();
    let compiled = CompiledPolicy::get(&config).expect("policy compiles");
    let rules_before = compiled.rule_base().rule_count();
    let mut loaded = compiled.instantiate().expect("instantiates");
    let mut sibling = compiled.instantiate().expect("instantiates");
    loaded.load_policy(EXTRA_RULE).expect("extra rule loads");

    assert!(!Arc::ptr_eq(loaded.engine_mut().rule_base(), compiled.rule_base()));
    assert!(Arc::ptr_eq(sibling.engine_mut().rule_base(), compiled.rule_base()));
    assert_eq!(compiled.rule_base().rule_count(), rules_before);
    assert!(Arc::ptr_eq(&CompiledPolicy::get(&config).expect("memoized"), &compiled));

    let event = open_tmp_flag();
    let fired = |w: &[hth::Warning]| w.iter().any(|w| w.rule == "flag_tmp_open");
    assert!(fired(&loaded.process_event(&event).expect("loaded")));
    assert!(!fired(&sibling.process_event(&event).expect("sibling")));
    let mut fresh = Secpert::new(&config).expect("memo instance");
    assert!(!fired(&fresh.process_event(&event).expect("fresh")));
}

#[test]
fn configs_differing_in_extra_rules_or_trust_lists_compile_separately() {
    let base = PolicyConfig::default();
    let extra = PolicyConfig { extra_rules: vec![EXTRA_RULE.to_string()], ..base.clone() };
    let bins = PolicyConfig {
        trusted_binaries: vec!["libc.so".into(), "ld-linux.so".into(), "/bin/app".into()],
        ..base.clone()
    };
    let socks = PolicyConfig { trusted_sockets: vec!["evil:99".into()], ..base.clone() };
    let compiled: Vec<Arc<CompiledPolicy>> = [&base, &extra, &bins, &socks]
        .into_iter()
        .map(|c| CompiledPolicy::get(c).expect("compiles"))
        .collect();
    for (i, x) in compiled.iter().enumerate() {
        for y in &compiled[i + 1..] {
            assert!(!Arc::ptr_eq(x, y), "distinct configs must not share a compiled policy");
        }
    }
    assert!(Arc::ptr_eq(&CompiledPolicy::get(&base.clone()).expect("memoized"), &compiled[0]));

    // Each compiled policy carries its own config's behaviour.
    let event = open_tmp_flag();
    let rules_fired = |config: &PolicyConfig| -> Vec<String> {
        let mut expert = Secpert::new(config).expect("instantiates");
        expert.process_event(&event).expect("event").into_iter().map(|w| w.rule).collect()
    };
    assert!(rules_fired(&extra).contains(&"flag_tmp_open".to_string()));
    assert!(!rules_fired(&base).contains(&"flag_tmp_open".to_string()));
}
