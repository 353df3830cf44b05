//! `corpus`: the `hth fleet --correlate` path over every scenario.
//!
//! Each pass runs all of `hth_workloads::all_scenarios()` plus the
//! coordinated campaign, in seed-shuffled order, on one monitoring
//! thread. Events are tapped into a fresh one-shard `AnalystPool` in
//! batches; the pass ends with `AnalystPool::finish` and
//! `Correlator::correlate`. This is `hth_fleet::run_scenarios` with one
//! runner, driven from here so every layer call can carry a span.
//!
//! Why: short programs, so per-session set-up (policy compile, image
//! assembly, stack mapping) and the fork-heavy scenarios dominate, while
//! interpretation and taint do little work.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use harrier::SecpertEvent;
use hth_core::{CorrelateConfig, Correlator, Session, SessionConfig, Severity};
use hth_fleet::{warning_multiset, AnalystPool, PoolConfig, WarningKey};
use hth_workloads::Scenario;

use crate::report::{Outcome, Values};
use crate::rng::Rng;
use crate::stats::Samples;
use crate::trace::{self, Span};
use crate::Workload;

/// Events a session tap buffers before handing them to the pool (the
/// fleet's default batch size).
const BATCH: usize = 64;

/// The fleet rules the coordinated campaign must fire every pass.
pub const FLEET_RULES: [&str; 3] = ["shared_c2", "recurring_dropper", "distributed_exfil"];

/// What every pass must reproduce.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    /// The warning multiset of the scenarios run one by one.
    pub warnings: BTreeMap<WarningKey, usize>,
    /// Fleet rules the correlator must fire.
    pub fleet_rules: Vec<String>,
}

/// A pass's observable results, as the checks see them.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Sessions run.
    pub sessions: u64,
    /// Pool warning multiset.
    pub warnings: BTreeMap<WarningKey, usize>,
    /// Correlator warning counts.
    pub fleet_warnings: BTreeMap<(Severity, String), u64>,
    /// Events submitted but never analysed.
    pub lost: u64,
    /// Events the session taps handed to the pool.
    pub tapped: u64,
    /// Events the pool analysed.
    pub analysed: u64,
    /// Session, analyst and correlator errors.
    pub errors: Vec<String>,
}

/// Checks one pass against the reference; returns what failed.
pub fn check_pass(pass: &PassResult, reference: &Reference) -> Vec<String> {
    let mut failures = Vec::new();
    if pass.warnings != reference.warnings {
        failures.push(format!(
            "corpus: pass warnings {:?} differ from the reference {:?}",
            pass.warnings, reference.warnings
        ));
    }
    for rule in &reference.fleet_rules {
        if !pass.fleet_warnings.keys().any(|(_, fired)| fired == rule) {
            failures.push(format!("corpus: correlator did not fire {rule}"));
        }
    }
    if pass.lost > 0 || pass.tapped != pass.analysed {
        failures.push(format!(
            "corpus: {} events tapped, {} analysed, {} lost",
            pass.tapped, pass.analysed, pass.lost
        ));
    }
    failures.extend(pass.errors.iter().map(|e| format!("corpus: {e}")));
    failures
}

/// The seeded corpus: every scenario in seed-shuffled order.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut all = hth_workloads::all_scenarios();
    all.extend(hth_workloads::coordinated::scenarios());
    Rng::new(seed, 1).shuffle(&mut all);
    all
}

/// Builds the reference by running each scenario on its own with inline
/// analysis (`Scenario::run`); every result must match its expectation.
pub fn reference(scenarios: &[Scenario]) -> Result<Reference, String> {
    let mut warnings = Vec::new();
    for scenario in scenarios {
        let result = scenario.run().map_err(|e| format!("{}: {e}", scenario.id))?;
        if !result.correct() {
            return Err(format!("{}: reference run does not match its expectation", scenario.id));
        }
        warnings.extend(result.warnings);
    }
    let campaign = scenarios.iter().any(|s| s.id == "bot_alpha");
    Ok(Reference {
        warnings: warning_multiset(&warnings),
        fleet_rules: if campaign {
            FLEET_RULES.iter().map(|r| r.to_string()).collect()
        } else {
            Vec::new()
        },
    })
}

/// Per-session figures a pass records.
struct SessionFigures {
    id: &'static str,
    ms: f64,
    forks: usize,
}

/// Counters a session's tap keeps beside its batch buffer.
#[derive(Default)]
struct Tap {
    buf: Vec<SecpertEvent>,
    events: u64,
    forks: u64,
}

/// Per-pass layer counters.
#[derive(Default)]
struct PassCounters {
    instructions: u64,
    forks: u64,
    memo_hits: u64,
    memo_misses: u64,
    high_water: usize,
    activations: u64,
}

/// Runs one pass over `scenarios`.
fn pass(
    scenarios: &[Scenario],
    pass_no: u64,
) -> Result<(PassResult, Vec<SessionFigures>, PassCounters), String> {
    let _pass = trace::span("corpus.pass", pass_no);
    let policy = SessionConfig::default().policy;
    let pool = {
        let _s = trace::span("pool.new", pass_no);
        Arc::new(
            AnalystPool::new(&PoolConfig { shards: 1, ..PoolConfig::default() }, &policy)
                .map_err(|e| format!("analyst pool: {e}"))?,
        )
    };
    let mut result = PassResult::default();
    let mut figures = Vec::with_capacity(scenarios.len());
    let mut counters = PassCounters::default();
    for (i, scenario) in scenarios.iter().enumerate() {
        let sid = i as u64;
        pool.set_label(sid, scenario.id);
        let started = Instant::now();
        let _session_span = trace::span("session", sid);
        let config = SessionConfig {
            analyze_inline: false,
            record_events: false,
            ..SessionConfig::default()
        };
        let mut session = {
            let _s = trace::span("session.new", sid);
            Session::new(config).map_err(|e| format!("{}: {e}", scenario.id))?
        };
        let start = {
            let _s = trace::span("session.setup", sid);
            (scenario.setup)(&mut session)
        };
        let tap = Arc::new(Mutex::new(Tap { buf: Vec::with_capacity(BATCH), ..Tap::default() }));
        let tap_state = Arc::clone(&tap);
        let tap_pool = Arc::clone(&pool);
        session.set_event_tap(Box::new(move |event| {
            let mut tap = tap_state.lock().unwrap_or_else(PoisonError::into_inner);
            tap.events += 1;
            if matches!(event.syscall(), "SYS_fork" | "SYS_clone") {
                tap.forks += 1;
            }
            tap.buf.push(event.clone());
            if tap.buf.len() >= BATCH {
                let _s = trace::span("pool.submit_batch", sid);
                tap_pool.submit_batch(sid, &mut tap.buf);
            }
        }));
        let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
        let env: Vec<(&str, &str)> =
            start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let outcome = {
            let _s = trace::span("session.start", sid);
            session.start(start.path, &argv, &env)
        }
        .and_then(|_| {
            let _s = trace::span("session.run", sid);
            session.run()
        });
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                result.errors.push(format!("{}: {e}", scenario.id));
                continue;
            }
        };
        let taint = session.taint_stats();
        let forks = session.kernel.fork_ticks.len();
        drop(session);
        let mut tap = tap.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let _s = trace::span("pool.submit_batch", sid);
            pool.submit_batch(sid, &mut tap.buf);
        }
        figures.push(SessionFigures {
            id: scenario.id,
            ms: started.elapsed().as_secs_f64() * 1e3,
            forks,
        });
        result.sessions += 1;
        result.tapped += tap.events;
        counters.instructions += report.instructions;
        counters.forks += tap.forks;
        counters.memo_hits += taint.memo_hits;
        counters.memo_misses += taint.memo_misses;
    }
    let pool = Arc::try_unwrap(pool).map_err(|_| "a session tap outlived its session")?;
    let report = {
        let _s = trace::span("pool.finish", pass_no);
        pool.finish()
    };
    let correlation = {
        let _s = trace::span("correlate", pass_no);
        let mut correlator = Correlator::new(CorrelateConfig::default());
        for digest in &report.digests {
            correlator.ingest(digest.clone());
        }
        correlator.correlate()
    };
    match correlation {
        Ok(correlation) => result.fleet_warnings = correlation.warning_counts(),
        Err(e) => result.errors.push(format!("correlator: {e}")),
    }
    result.warnings = warning_multiset(&report.warnings);
    result.lost = report.lost();
    result.analysed = report.events;
    result.errors.extend(report.errors);
    counters.high_water = report.shards.iter().map(|s| s.high_water).max().unwrap_or(0);
    counters.activations = report.match_stats.activations;
    Ok((result, figures, counters))
}

/// The corpus workload's inputs.
pub struct Corpus {
    scenarios: Vec<Scenario>,
    reference: Reference,
}

impl Workload for Corpus {
    /// Generates the seeded corpus, builds its reference and runs one
    /// warm-up pass.
    fn setup(seed: u64, _seconds: f64) -> Result<Corpus, String> {
        let scenarios = scenarios(seed);
        let reference = reference(&scenarios)?;
        let (warm, _, _) = pass(&scenarios, 0)?;
        let failures = check_pass(&warm, &reference);
        if !failures.is_empty() {
            return Err(format!("warm-up pass failed: {}", failures.join("; ")));
        }
        Ok(Corpus { scenarios, reference })
    }

    /// Runs passes until `seconds` have elapsed (at least one).
    /// Throughput is sessions over the time spent in whole passes.
    fn measure(&mut self, seconds: f64, traced: bool) -> Result<Outcome, String> {
        let mut outcome = Outcome::default();
        let mut session_ms = Samples::default();
        let (mut sessions, mut busy_s) = (0u64, 0.0);
        let mut per_pass: BTreeMap<&'static str, Samples> = BTreeMap::new();
        let mut forkers: BTreeMap<&'static str, usize> = BTreeMap::new();
        let started = Instant::now();
        let mut pass_no = 0;
        while pass_no == 0 || started.elapsed().as_secs_f64() < seconds {
            pass_no += 1;
            let t = Instant::now();
            let (result, figures, counters) = pass(&self.scenarios, pass_no)?;
            busy_s += t.elapsed().as_secs_f64();
            sessions += result.sessions;
            outcome.record(self.scenarios.len() as u64, check_pass(&result, &self.reference));
            for f in &figures {
                session_ms.push(f.ms);
                if f.forks > 0 {
                    forkers.insert(f.id, f.forks);
                }
            }
            let memo = counters.memo_hits + counters.memo_misses;
            for (name, value) in [
                ("vm.instructions", counters.instructions as f64),
                ("kernel.forks", counters.forks as f64),
                ("harrier.events", result.tapped as f64),
                ("harrier.memo_lookups", memo as f64),
                ("harrier.memo_hit_ratio", counters.memo_hits as f64 / memo.max(1) as f64),
                ("pool.queue_high_water", counters.high_water as f64),
                ("match.activations", counters.activations as f64),
            ] {
                per_pass.entry(name).or_default().push(value);
            }
        }
        if traced {
            fork_probe(&self.scenarios, &forkers)?;
        }
        let values = &mut outcome.values;
        values.insert("throughput_per_s", sessions as f64 / busy_s);
        values.insert("latency_ms_p50", session_ms.median());
        values.insert("latency.ms_p99", session_ms.quantile(0.99));
        values.insert("latency.samples", session_ms.len() as f64);
        for (name, samples) in per_pass {
            values.insert(name, samples.median());
        }
        println!(
            "corpus: {pass_no} passes of {} sessions, {:.1} sessions/s; \
             session ms p50 {:.4} p99 {:.4} (n={})",
            self.scenarios.len(),
            sessions as f64 / busy_s,
            session_ms.median(),
            session_ms.quantile(0.99),
            session_ms.len()
        );
        Ok(outcome)
    }

    fn layers(spans: &[Span], counters: &Values) -> Values {
        let mut values = trace::session_layers(spans, "corpus.pass", counters);
        let passes = trace::durations_us(spans, "corpus.pass").len().max(1) as f64;
        values.extend([
            ("kernel.fork_us_p50", trace::durations_us(spans, "kernel.fork").median()),
            ("pool.submit_wait_us", trace::durations_us(spans, "pool.submit_batch").sum() / passes),
            ("pool.drain_ms", trace::durations_us(spans, "pool.finish").median() / 1e3),
            ("correlate.ms", trace::durations_us(spans, "correlate").median() / 1e3),
        ]);
        values
    }
}

/// Calls `Kernel::fork` on a process spawned from each forking
/// scenario's binary, as many times as that scenario's session forked,
/// under `kernel.fork` spans. Each child is dropped at once.
fn fork_probe(
    scenarios: &[Scenario],
    forkers: &BTreeMap<&'static str, usize>,
) -> Result<(), String> {
    for scenario in scenarios {
        let Some(&forks) = forkers.get(scenario.id) else { continue };
        let mut session = Session::new(SessionConfig::default()).map_err(|e| e.to_string())?;
        let start = (scenario.setup)(&mut session);
        let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
        let env: Vec<(&str, &str)> =
            start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let parent = session
            .kernel
            .spawn(start.path, &argv, &env)
            .map_err(|e| format!("{}: {e}", scenario.id))?;
        for _ in 0..forks {
            let child = {
                let _s = trace::span("kernel.fork", u64::from(parent.pid));
                session.kernel.fork(&parent)
            };
            drop(child);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign() -> Vec<Scenario> {
        hth_workloads::coordinated::scenarios()
    }

    #[test]
    fn a_pass_matches_its_reference_and_a_wrong_reference_fails() {
        let scenarios = campaign();
        let reference = reference(&scenarios).expect("reference");
        assert_eq!(reference.fleet_rules.len(), 3);
        let (result, figures, _) = pass(&scenarios, 1).expect("pass");
        assert_eq!(figures.len(), scenarios.len());
        assert_eq!(check_pass(&result, &reference), Vec::<String>::new());

        let mut wrong = reference.clone();
        *wrong.warnings.entry((Severity::High, "check_execve".into())).or_default() += 1;
        assert!(!check_pass(&result, &wrong).is_empty(), "a changed multiset is caught");
        let mut wrong = reference.clone();
        wrong.fleet_rules.push("no_such_rule".into());
        assert!(!check_pass(&result, &wrong).is_empty(), "a missing fleet rule is caught");
        let lossy = PassResult { lost: 1, ..PassResult::default() };
        assert!(!check_pass(&lossy, &Reference::default()).is_empty(), "lost events are caught");
    }

    #[test]
    fn the_seed_names_the_order() {
        let ids = |seed| scenarios(seed).iter().map(|s| s.id).collect::<Vec<_>>();
        assert_eq!(ids(1), ids(1));
        assert_ne!(ids(1), ids(2));
        assert_eq!(ids(1).len(), 79);
    }
}
