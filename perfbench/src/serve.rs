//! `serve`: the `hth-serve` daemon on loopback, in process, driven by
//! an open-loop generator.
//!
//! One generator thread sends `hth_serve::synthetic_events` over one
//! `Client` connection on a fixed schedule, spreading requests over 64
//! sessions in Zipf(1) shares. The table's memory budget holds only the
//! hot sessions, so a few percent of submits revive an evicted engine
//! (snapshot restore plus journal tail). Each ack is timed from the
//! request's due time, so a revive stall also counts against the
//! requests queued behind it. The same request sequence is then sent
//! closed loop, round after round, each to a fresh daemon, for the
//! capacity figure, and replayed in process through
//! `SessionTable::submit` as the correctness reference.
//!
//! Why: no VM is involved, so this measures the ack path, the wire
//! codec, the journal and Rete, and the table layer two ways: resident
//! acks set the median, revives set p99.

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use harrier::SecpertEvent;
use hth_core::Secpert;
use hth_serve::{
    Client, ServeConfig, ServeError, ServeStats, ServeSummary, Server, ServerHandle, SessionTable,
    TableConfig,
};

use crate::report::{Outcome, Values};
use crate::rng::Rng;
use crate::stats::Samples;
use crate::trace::{self, Span};
use crate::Workload;

/// Sessions the generator spreads requests over.
pub const SESSIONS: usize = 64;
/// Open-loop request rate, per second.
pub const RATE: f64 = 1000.0;
/// Share of the measured time the open loop runs; closed-loop rounds
/// replay the same requests in the rest.
const OPEN_SHARE: f64 = 0.5;
/// Sessions the memory budget holds; the rest are evicted between
/// their requests and revived on the next.
const HOT_SESSIONS: usize = 12;
/// Snapshot and restore probe repetitions (traced run).
const PROBES: usize = 64;

/// The seeded request sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Session ids, opened in this order.
    pub sessions: Vec<u64>,
    /// `(session, event)` per request, in send order.
    pub requests: Vec<(u64, SecpertEvent)>,
}

/// Draws `count` requests for `seed`. Session ranks follow Zipf(1)
/// exactly: rank `k` gets its share `count / ((k + 1) H₆₄)` of the
/// requests (rounded), spread evenly through the sequence from a random
/// phase. The seed picks which session holds which rank, the phases, and
/// so the events and their order; every seed loads the table alike.
pub fn plan(seed: u64, count: usize) -> Plan {
    let mut rng = Rng::new(seed, 3);
    let base = (rng.next_u64() % 1_000_000) * SESSIONS as u64;
    let mut sessions: Vec<u64> = (0..SESSIONS as u64).map(|k| base + k).collect();
    rng.shuffle(&mut sessions);
    let harmonic: f64 = (1..=SESSIONS).map(|k| 1.0 / k as f64).sum();
    let mut slots: Vec<(f64, u64)> = Vec::with_capacity(count + SESSIONS);
    for (rank, &sid) in sessions.iter().enumerate() {
        let share = (count as f64 / ((rank + 1) as f64 * harmonic)).round().max(1.0);
        let gap = count as f64 / share;
        let phase = (rng.next_u64() % 1_000_000) as f64 / 1e6 * gap;
        slots.extend((0..share as usize).map(|j| (phase + j as f64 * gap, sid)));
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0));
    slots.truncate(count);
    let mut per_session: BTreeMap<u64, usize> = BTreeMap::new();
    for (_, sid) in &slots {
        *per_session.entry(*sid).or_default() += 1;
    }
    let mut streams: BTreeMap<u64, std::vec::IntoIter<SecpertEvent>> = per_session
        .into_iter()
        .map(|(sid, n)| (sid, hth_serve::synthetic_events(sid, n).into_iter()))
        .collect();
    let requests = slots
        .into_iter()
        .map(|(_, sid)| {
            let event = streams.get_mut(&sid).and_then(Iterator::next).expect("stream sized");
            (sid, event)
        })
        .collect();
    Plan { sessions, requests }
}

/// A budget that holds the [`HOT_SESSIONS`] busiest sessions of `plan`
/// at the size they reach by the end of the run: the accounted bytes of
/// an engine grown by each one's request count, summed.
fn hot_budget(plan: &Plan) -> Result<usize, String> {
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for (sid, _) in &plan.requests {
        *counts.entry(*sid).or_default() += 1;
    }
    let mut counts: Vec<usize> = counts.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts.truncate(HOT_SESSIONS);
    let mut probe = Secpert::new(&TableConfig::default().policy).map_err(|e| e.to_string())?;
    let mut bytes_at = vec![probe.approx_bytes()];
    for event in hth_serve::synthetic_events(0, counts.first().copied().unwrap_or(0)) {
        probe.process_event(&event).map_err(|e| e.to_string())?;
        bytes_at.push(probe.approx_bytes());
    }
    Ok(counts.iter().map(|&n| bytes_at[n]).sum())
}

/// A daemon on loopback with one connected client.
struct Daemon {
    client: Option<Client>,
    handle: ServerHandle,
    join: Option<JoinHandle<Result<ServeSummary, ServeError>>>,
}

impl Daemon {
    /// Binds a daemon, connects and opens every session.
    fn start(budget_bytes: usize, sessions: &[u64]) -> Result<Daemon, String> {
        let table = TableConfig { budget_bytes, ..TableConfig::default() };
        // One connection occupies one worker; idle workers would only add
        // threads (and allocator arenas) that move the peak RSS run to run.
        let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, table })
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let mut daemon = Daemon { client: None, handle, join: Some(join) };
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for &sid in sessions {
            client.open(sid).map_err(|e| format!("open {sid}: {e}"))?;
        }
        daemon.client = Some(client);
        Ok(daemon)
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("client connected until stop")
    }

    /// Reads the daemon's counters, disconnects and drains it.
    fn stop(&mut self) -> Result<ServeStats, String> {
        let stats = self.client().stats().map_err(|e| format!("stats: {e}"));
        self.client = None;
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            join.join()
                .map_err(|_| "server thread panicked".to_string())?
                .map_err(|e| format!("server: {e}"))?;
        }
        stats
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.client = None;
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// What one phase against a daemon showed, as the checks see it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Phase {
    /// Requests sent.
    pub requests: u64,
    /// Requests acked with an error (or not acked).
    pub errors: u64,
    /// Warnings summed over the acks.
    pub warnings: u64,
    /// Events the daemon's table counted.
    pub events_total: u64,
    /// Snapshot restores the daemon's table counted.
    pub restores: u64,
}

/// Checks a phase against the in-process replay; returns what failed.
pub fn check_phase(label: &str, phase: &Phase, replay: &Phase) -> Vec<String> {
    let mut failures = Vec::new();
    if phase.errors > 0 {
        failures.push(format!("serve {label}: {} requests failed", phase.errors));
    }
    if phase.warnings != replay.warnings {
        failures.push(format!(
            "serve {label}: {} warnings acked, the table replay raised {}",
            phase.warnings, replay.warnings
        ));
    }
    if phase.events_total != replay.events_total || phase.restores != replay.restores {
        failures.push(format!(
            "serve {label}: daemon counted {} events and {} restores, the replay {} and {}",
            phase.events_total, phase.restores, replay.events_total, replay.restores
        ));
    }
    failures
}

/// Waits until `due`: sleeps until shortly before it, then spins, so
/// the generator sends on time however late the sleep wakes it, and the
/// daemon, sharing the CPU, can finish its work while the client sleeps.
fn wait_until(due: Instant) {
    let early = Duration::from_micros(150);
    if let Some(left) = due.checked_duration_since(Instant::now()) {
        if left > early {
            std::thread::sleep(left - early);
        }
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the first CPU it may run on. Client and daemon then share one CPU and
/// a round trip costs two context switches; across CPUs it costs two
/// wake-ups, whose latency on a small virtual machine varies run to run.
/// Returns the CPU, or `None` when the affinity calls fail (the run then
/// goes on unpinned).
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes
    // for the duration of the call; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes for the
    // duration of the call; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// The serve workload's state: the plan, the budget, both daemons.
pub struct Serve {
    plan: Plan,
    budget_bytes: usize,
    open_loop: Daemon,
    closed_loop: Daemon,
}

impl Workload for Serve {
    /// Draws the requests for a run of `seconds`, sizes the budget, binds
    /// both daemons and opens every session on each.
    fn setup(seed: u64, seconds: f64) -> Result<Serve, String> {
        if pin_to_one_cpu().is_none() {
            println!("serve: could not pin to one CPU; running unpinned");
        }
        let count = ((RATE * seconds * OPEN_SHARE) as usize).max(1);
        let plan = plan(seed, count);
        let budget_bytes = hot_budget(&plan)?;
        let open_loop = Daemon::start(budget_bytes, &plan.sessions)?;
        let closed_loop = Daemon::start(budget_bytes, &plan.sessions)?;
        Ok(Serve { plan, budget_bytes, open_loop, closed_loop })
    }

    /// Runs the open loop, then closed-loop rounds until `seconds` have
    /// passed, then the in-process replay the checks compare against.
    /// Every round starts from a clean table: the sessions are closed
    /// (which frees their state) and opened again between rounds.
    fn measure(&mut self, seconds: f64, traced: bool) -> Result<Outcome, String> {
        let started = Instant::now();
        let requests = self.plan.requests.len() as u64;
        let mut ack_ms = Samples::default();
        let mut lag_ms = Samples::default();
        let mut phases = Vec::new();

        let mut open = Phase { requests, ..Phase::default() };
        let client = self.open_loop.client();
        let interval = Duration::from_secs_f64(1.0 / RATE);
        let t0 = Instant::now() + Duration::from_millis(1);
        for (i, (sid, event)) in self.plan.requests.iter().enumerate() {
            let due = t0 + interval * i as u32;
            wait_until(due);
            let sent = Instant::now();
            let ack = {
                let _s = trace::span("client.submit", i as u64);
                client.submit(*sid, event)
            };
            let acked = Instant::now();
            ack_ms.push((acked - due).as_secs_f64() * 1e3);
            lag_ms.push((sent - due).as_secs_f64() * 1e3);
            match ack {
                Ok(warnings) => open.warnings += warnings,
                Err(_) => open.errors += 1,
            }
        }
        let stats = self.open_loop.stop()?;
        open.events_total = stats.events_total;
        open.restores = stats.restores;
        phases.push(("open loop", open));

        let (mut rates, mut busy_s) = (Samples::default(), 0.0);
        let client = self.closed_loop.client();
        let mut before = ServeStats::default();
        loop {
            let mut closed = Phase { requests, ..Phase::default() };
            let round = Instant::now();
            for (sid, event) in &self.plan.requests {
                match client.submit(*sid, event) {
                    Ok(warnings) => closed.warnings += warnings,
                    Err(_) => closed.errors += 1,
                }
            }
            busy_s += round.elapsed().as_secs_f64();
            rates.push(requests as f64 / round.elapsed().as_secs_f64());
            for &sid in &self.plan.sessions {
                client.close(sid).map_err(|e| format!("close {sid}: {e}"))?;
            }
            let after = client.stats().map_err(|e| format!("stats: {e}"))?;
            closed.events_total = after.events_total - before.events_total;
            closed.restores = after.restores - before.restores;
            before = after;
            phases.push(("closed loop", closed));
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
            for &sid in &self.plan.sessions {
                client.open(sid).map_err(|e| format!("reopen {sid}: {e}"))?;
            }
        }
        self.closed_loop.stop()?;
        let throughput = (requests * rates.len() as u64) as f64 / busy_s;

        let (replay, resident_us, revive_us) = self.replay()?;
        let mut outcome = Outcome::default();
        for (label, phase) in &phases {
            outcome.record(phase.requests, check_phase(label, phase, &replay));
        }
        if traced {
            self.probe_snapshots()?;
        }

        let values = &mut outcome.values;
        values.insert("throughput_per_s", throughput);
        values.insert("latency_ms_p50", ack_ms.median());
        values.insert("latency.ms_p99", ack_ms.quantile(0.99));
        values.insert("latency.samples", ack_ms.len() as f64);
        values.insert("loadgen.lag_ms_max", lag_ms.max());
        values.insert("table.restores", stats.restores as f64);
        values.insert("table.evictions", stats.evictions as f64);
        values.insert("table.fallback_replays", stats.fallback_replays as f64);
        values.insert("table.submits", requests as f64);
        values.insert("table.revive_ratio", stats.restores as f64 / requests as f64);
        values.insert("table.submit_resident_us_p50", resident_us.median());
        values.insert("table.submit_revive_us_p50", revive_us.median());
        println!(
            "serve: open loop {requests} requests at {RATE}/s, ack ms from due p50 {:.4} \
             p95 {:.4} p99 {:.4} (n={}), generator lag max {:.3} ms; closed loop {throughput:.0} \
             events/s over {} rounds (round min {:.0} max {:.0}); budget {} bytes, {} restores \
             ({:.2}% of submits), {} evictions",
            ack_ms.median(),
            ack_ms.quantile(0.95),
            ack_ms.quantile(0.99),
            ack_ms.len(),
            lag_ms.max(),
            rates.len(),
            rates.quantile(0.0),
            rates.max(),
            self.budget_bytes,
            stats.restores,
            100.0 * stats.restores as f64 / requests as f64,
            stats.evictions,
        );
        Ok(outcome)
    }

    fn layers(spans: &[Span], _counters: &Values) -> Values {
        Values::from([
            ("client.submit_us_p50", trace::durations_us(spans, "client.submit").median()),
            ("secpert.snapshot_us", trace::durations_us(spans, "secpert.snapshot").median()),
            ("secpert.restore_us", trace::durations_us(spans, "secpert.restore").median()),
        ])
    }
}

impl Serve {
    /// Replays the requests in process through `SessionTable::submit`,
    /// timing each call and classing it by residency before the call.
    fn replay(&self) -> Result<(Phase, Samples, Samples), String> {
        let table = SessionTable::new(TableConfig {
            budget_bytes: self.budget_bytes,
            ..TableConfig::default()
        });
        for &sid in &self.plan.sessions {
            table.open(sid).map_err(|e| format!("replay open {sid}: {e}"))?;
        }
        let mut phase = Phase { requests: self.plan.requests.len() as u64, ..Phase::default() };
        let (mut resident, mut revive) = (Samples::default(), Samples::default());
        for (i, (sid, event)) in self.plan.requests.iter().enumerate() {
            let was_resident = table.is_resident(*sid) == Some(true);
            let started = Instant::now();
            let raised = {
                let _s = trace::span(
                    if was_resident { "table.submit.resident" } else { "table.submit.revive" },
                    i as u64,
                );
                table.submit(*sid, event)
            };
            let us = started.elapsed().as_secs_f64() * 1e6;
            if was_resident { &mut resident } else { &mut revive }.push(us);
            match raised {
                Ok(warnings) => phase.warnings += warnings,
                Err(_) => phase.errors += 1,
            }
        }
        let stats = table.stats();
        phase.events_total = stats.events_total;
        phase.restores = stats.restores;
        Ok((phase, resident, revive))
    }

    /// Snapshots and restores an engine grown with this run's hottest
    /// session's stream, under `secpert.snapshot` / `secpert.restore`.
    fn probe_snapshots(&self) -> Result<(), String> {
        let policy = TableConfig::default().policy;
        let mut engine = Secpert::new(&policy).map_err(|e| e.to_string())?;
        let hot = self.plan.sessions[0];
        for (_, event) in self.plan.requests.iter().filter(|(sid, _)| *sid == hot) {
            engine.process_event(event).map_err(|e| e.to_string())?;
        }
        for i in 0..PROBES as u64 {
            let bytes = {
                let _s = trace::span("secpert.snapshot", i);
                engine.snapshot().map_err(|e| e.to_string())?
            };
            let _s = trace::span("secpert.restore", i);
            Secpert::restore(&policy, &bytes).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_passes_its_checks_and_a_wrong_reference_fails() {
        let mut serve = Serve::setup(11, 0.05).expect("setup");
        let outcome = serve.measure(0.05, false).expect("measure");
        assert_eq!(outcome.failures, Vec::<String>::new());
        assert_eq!(outcome.failed, 0);
        let requests = serve.plan.requests.len() as u64;
        assert!(outcome.attempted >= 2 * requests && outcome.attempted.is_multiple_of(requests));

        let (replay, _, _) = serve.replay().expect("replay");
        let wrong = Phase { warnings: replay.warnings + 1, ..replay };
        assert!(!check_phase("t", &replay, &wrong).is_empty(), "a warning count is caught");
        let failing = Phase { errors: 1, ..Phase::default() };
        assert!(!check_phase("t", &failing, &Phase::default()).is_empty(), "errors are caught");
    }

    #[test]
    fn the_seed_names_the_requests() {
        assert_eq!(plan(4, 200), plan(4, 200));
        assert_ne!(plan(4, 200), plan(5, 200));
        assert_eq!(plan(4, 200).requests.len(), 200);
    }
}
