//! Criterion benches for the secpert-engine substrate: fact assertion,
//! match-and-fire throughput, the policy's per-event latency — plus the
//! working-memory scaling curve comparing the naive full-join matcher
//! against the incremental Rete network (events × resident facts), and
//! the per-expert policy costs: a cold compile, `Secpert::new` over the
//! warm compiled-policy memo, and restoring an empty snapshot.
//!
//! Run with `cargo bench -p hth-bench --bench engine`; the scaling
//! curve and the policy rows go to `BENCH_engine.json` at the repo
//! root. `--test` runs every benchmark body once plus a tiny scaling
//! smoke (naive and Rete must agree exactly) and writes nothing.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BatchSize, Criterion};
use harrier::{Origin, ResourceType, SecpertEvent, SourceInfo};
use hth_bench::json::Json;
use hth_core::{CompiledPolicy, PolicyConfig, Secpert};
use secpert_engine::{Engine, Matcher, Value};

fn engine_with_rule() -> Engine {
    let mut engine = Engine::new();
    engine
        .load_str(
            r#"
            (deftemplate ev (slot kind) (slot n))
            (defrule hit
              ?e <- (ev (kind open) (n ?n&:(> ?n 10)))
              =>
              (retract ?e))
            "#,
        )
        .expect("loads");
    engine
}

fn bench_assert_retract(c: &mut Criterion) {
    c.bench_function("engine/assert+match+fire+retract", |b| {
        let mut engine = engine_with_rule();
        let mut n = 0i64;
        b.iter(|| {
            n += 1;
            let fact = engine
                .fact("ev")
                .unwrap()
                .slot("kind", Value::sym("open"))
                .slot("n", 100 + n)
                .build()
                .unwrap();
            engine.assert_fact(fact).unwrap();
            engine.run(None).unwrap()
        });
    });
}

fn bench_non_matching_assert(c: &mut Criterion) {
    c.bench_function("engine/assert-non-matching", |b| {
        let mut engine = engine_with_rule();
        let mut n = 0i64;
        b.iter(|| {
            n += 1;
            let fact = engine
                .fact("ev")
                .unwrap()
                .slot("kind", Value::sym("close"))
                .slot("n", n)
                .build()
                .unwrap();
            let id = engine.assert_fact(fact).unwrap().unwrap();
            engine.retract_fact(id).unwrap();
        });
    });
}

fn bench_policy_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("secpert-policy");
    group.bench_function("execve-event (warns)", |b| {
        b.iter_batched(
            || Secpert::new(&PolicyConfig::default()).expect("loads"),
            |mut secpert| {
                let event = SecpertEvent::ResourceAccess {
                    pid: 1,
                    syscall: "SYS_execve",
                    resource: SourceInfo::new(ResourceType::File, "/bin/ls"),
                    origin: Origin {
                        sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/app")],
                    },
                    time: 5,
                    frequency: 3,
                    address: 0x8048000,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: None,
                    server: None,
                };
                secpert.process_event(&event).unwrap().len()
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("write-event (silent)", |b| {
        let mut secpert = Secpert::new(&PolicyConfig::default()).expect("loads");
        b.iter(|| {
            let event = SecpertEvent::DataTransfer {
                pid: 1,
                syscall: "SYS_write",
                data_sources: vec![SourceInfo::new(ResourceType::File, "/etc/motd")],
                data_origin: Origin {
                    sources: vec![SourceInfo::new(ResourceType::UserInput, "USER_INPUT")],
                },
                target: SourceInfo::new(ResourceType::Console, "STDOUT"),
                target_origin: Origin::unknown(),
                time: 5,
                frequency: 3,
                address: 0,
                executable_content: false,
                server: None,
                bytes: 16,
            };
            secpert.process_event(&event).unwrap().len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_assert_retract,
    bench_non_matching_assert,
    bench_policy_event,
    bench_rule_scaling
);

fn main() {
    benches();
    wm_scaling();
}

/// Incremental-matching ablation: per-event latency should be largely
/// independent of the number of *unrelated* rules loaded, because
/// asserts only seed-join into rules whose templates match.
fn bench_rule_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("rule-scaling");
    for extra_rules in [0usize, 32, 128] {
        let mut engine = engine_with_rule();
        for i in 0..extra_rules {
            engine
                .load_str(&format!(
                    "(deftemplate other{i} (slot x)) \
                     (defrule r{i} (other{i} (x ?v&:(> ?v 0))) => (printout t ?v))"
                ))
                .expect("inert rule loads");
        }
        group.bench_function(format!("assert+fire with {extra_rules} unrelated rules"), |b| {
            let mut n = 0i64;
            b.iter(|| {
                n += 1;
                let fact = engine
                    .fact("ev")
                    .unwrap()
                    .slot("kind", secpert_engine::Value::sym("open"))
                    .slot("n", 100 + n)
                    .build()
                    .unwrap();
                engine.assert_fact(fact).unwrap();
                engine.run(None).unwrap()
            });
        });
    }
    group.finish();
}

/// The workload for the naive-vs-Rete scaling curve: a variable join
/// against a large resident template plus a `not` CE over the event
/// template. The naive matcher recomputes both per event — O(resident
/// facts) — while Rete probes the slot-value index and touches only the
/// tokens the event intersects.
const SCALING_RULES: &str = r#"
    (deftemplate session (slot id) (slot state))
    (deftemplate event (slot sid) (slot kind))
    (defrule join-open
      ?e <- (event (sid ?s) (kind open))
      (session (id ?s) (state live))
      =>
      (retract ?e))
    (defrule watch-zero
      (session (id 0) (state live))
      (not (event (sid 0) (kind close)))
      =>
      (printout t watched))
"#;

/// Builds an engine on `matcher` with `resident` live `session` facts.
fn scaling_engine(matcher: Matcher, resident: usize) -> Engine {
    let mut engine = Engine::with_matcher(matcher);
    engine.load_str(SCALING_RULES).expect("scaling rules load");
    for i in 0..resident {
        let fact = engine
            .fact("session")
            .unwrap()
            .slot("id", i as i64)
            .slot("state", Value::sym("live"))
            .build()
            .unwrap();
        engine.assert_fact(fact).unwrap();
    }
    engine.run(None).expect("initial activations drain");
    engine
}

/// Pushes `events` open-events through the engine; each assert joins
/// against the resident sessions, fires `join-open`, and is retracted
/// by the RHS. Returns (elapsed, rules fired) for equivalence checks.
fn scaling_run(engine: &mut Engine, events: usize, resident: usize) -> (Duration, usize) {
    let before = engine.fired_total();
    let start = Instant::now();
    for i in 0..events {
        let fact = engine
            .fact("event")
            .unwrap()
            .slot("sid", (i % resident) as i64)
            .slot("kind", Value::sym("open"))
            .build()
            .unwrap();
        engine.assert_fact(fact).unwrap();
        engine.run(None).unwrap();
    }
    (start.elapsed(), engine.fired_total() - before)
}

/// One point on the curve: both matchers over the same workload.
fn scaling_point(resident: usize, events: usize) -> Json {
    let mut naive = scaling_engine(Matcher::Naive, resident);
    let mut rete = scaling_engine(Matcher::Rete, resident);
    let (naive_time, naive_fired) = scaling_run(&mut naive, events, resident);
    let (rete_time, rete_fired) = scaling_run(&mut rete, events, resident);
    assert_eq!(naive_fired, rete_fired, "matchers diverged at {resident} resident facts");
    assert_eq!(naive_fired, events, "every event should fire join-open once");
    let naive_us = naive_time.as_secs_f64() * 1e6 / events as f64;
    let rete_us = rete_time.as_secs_f64() * 1e6 / events as f64;
    let speedup = naive_us / rete_us.max(1e-9);
    println!(
        "engine/wm-scaling: {resident:>6} resident facts, {events:>5} events: \
         naive {naive_us:>9.2} us/event, rete {rete_us:>7.2} us/event, speedup {speedup:>7.1}x"
    );
    Json::Obj(vec![
        ("resident_facts".into(), Json::Num(resident as f64)),
        ("events".into(), Json::Num(events as f64)),
        ("naive_us_per_event".into(), Json::Num(naive_us)),
        ("rete_us_per_event".into(), Json::Num(rete_us)),
        ("speedup".into(), Json::Num(speedup)),
    ])
}

/// Working-memory scaling curve: per-event latency for the naive
/// full-join matcher vs the incremental Rete network as resident facts
/// grow. Writes `BENCH_engine.json` at the repo root (skipped under
/// `--test`, which instead runs a tiny smoke configuration).
fn wm_scaling() {
    let test_mode = std::env::args().skip(1).any(|a| a == "--test");
    if test_mode {
        // Smoke: the equivalence asserts inside scaling_point are the test.
        scaling_point(50, 25);
        println!("test engine_wm_scaling ... ok");
        policy_rows(true);
        println!("test engine_policy_rows ... ok");
        return;
    }
    let policy = policy_rows(false);
    let mut rows = Vec::new();
    let mut speedup_at_10k = 0.0;
    for (resident, events) in [(100usize, 4000usize), (1_000, 2000), (10_000, 400)] {
        let row = scaling_point(resident, events);
        if resident >= 10_000 {
            if let Some(Json::Num(s)) = row.get("speedup") {
                speedup_at_10k = *s;
            }
        }
        rows.push(row);
    }
    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("engine_wm_scaling".into())),
        ("workload".into(), Json::Str("join + not, event assert/fire/retract cycle".into())),
        ("rows".into(), Json::Arr(rows)),
        ("speedup_at_10k".into(), Json::Num(speedup_at_10k)),
        ("cpus".into(), Json::Num(cpus() as f64)),
        ("policy".into(), policy),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, json.to_string_pretty() + "\n").expect("write BENCH_engine.json");
    println!("engine/wm-scaling: wrote {path}");
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Best-of-5 mean cost of `op` in microseconds, each round `iters`
/// warm calls.
fn best_of_5_us(iters: u32, mut op: impl FnMut()) -> f64 {
    op();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-expert policy costs under the default config: `policy_compile`
/// (parse + compile, bypassing the memo, for reference),
/// `secpert_new` (a fresh expert from the memoized compiled policy) and
/// `restore_empty` (`Secpert::restore` of a just-built expert's
/// snapshot — what a serve revive of an idle session pays). The full
/// run gates `restore_empty` at 20 µs.
fn policy_rows(smoke: bool) -> Json {
    let config = PolicyConfig::default();
    let iters = if smoke { 2 } else { 2000 };
    let compile_us = best_of_5_us(if smoke { 1 } else { 20 }, || {
        std::hint::black_box(CompiledPolicy::compile(&config).expect("policy compiles"));
    });
    let new_us = best_of_5_us(iters, || {
        std::hint::black_box(Secpert::new(&config).expect("policy loads"));
    });
    let snapshot = Secpert::new(&config).expect("policy loads").snapshot().expect("snapshot");
    let restore_us = best_of_5_us(iters, || {
        std::hint::black_box(Secpert::restore(&config, &snapshot).expect("restores"));
    });
    println!(
        "engine/policy: compile {compile_us:.1} us, secpert_new {new_us:.2} us, \
         restore_empty {restore_us:.2} us ({} snapshot bytes, {} cpus)",
        snapshot.len(),
        cpus()
    );
    if !smoke {
        assert!(restore_us <= 20.0, "restoring an empty snapshot took {restore_us:.1} us > 20 us");
    }
    let row = |stage: &str, us: f64| {
        Json::Obj(vec![("stage".into(), Json::Str(stage.into())), ("us".into(), Json::Num(us))])
    };
    Json::Arr(vec![
        row("policy_compile", compile_us),
        row("secpert_new", new_us),
        row("restore_empty", restore_us),
    ])
}
