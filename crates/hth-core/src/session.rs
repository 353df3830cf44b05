//! The monitoring session: wires the kernel, Harrier and Secpert into
//! the pipeline of Figure 1 — program → monitoring & tracking → events →
//! analysis & policy → warnings.

use emukernel::{errno, Kernel, ProcState, Process, SpawnError, SyscallEffect};
use harrier::{Harrier, HarrierConfig, SecpertEvent};
use hth_vm::{Reg, StepEvent};
use secpert_engine::EngineError;

use crate::policy::PolicyConfig;
use crate::secpert::Secpert;
use crate::warning::{Severity, Warning};

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Monitor configuration (dataflow / BB tracking toggles).
    pub harrier: HarrierConfig,
    /// Policy thresholds and trust lists.
    pub policy: PolicyConfig,
    /// Total instruction budget across all processes (safety stop for
    /// fork bombs and spinning servers).
    pub max_instructions: u64,
    /// Instructions per scheduling quantum.
    pub quantum: u64,
    /// Hard cap on live processes; further forks fail with `EAGAIN`.
    pub max_processes: usize,
    /// Keep every Harrier event for inspection (tables/benches).
    pub record_events: bool,
    /// Feed events through this session's own Secpert as they happen
    /// (the classic single-threaded pipeline). Fleet deployments turn
    /// this off and ship events to a shared analyst pool through an
    /// event tap instead (see [`Session::set_event_tap`]); such a
    /// session builds no Secpert of its own unless asked for one
    /// ([`Session::secpert_mut`]).
    pub analyze_inline: bool,
    /// Hybrid static/dynamic monitoring (paper §10 item 2): before a
    /// program runs, the Appendix B Secure Binary audit scans its image;
    /// if no hardcoded resource names are found, expensive data-flow
    /// tracking is switched off for the run — the origin information it
    /// would compute cannot implicate a hardcoded resource anyway.
    pub hybrid_static_analysis: bool,
    /// Flight-recorder ring capacity: the session keeps this many
    /// recent events, always on, and snapshots them into a
    /// [`hth_trace::DiagnosticBundle`] when an inline High warning
    /// fires (see [`Session::diagnostic_bundles`]). `0` disables it.
    pub flight_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            harrier: HarrierConfig::default(),
            policy: PolicyConfig::default(),
            max_instructions: 2_000_000,
            quantum: 200,
            max_processes: 128,
            record_events: true,
            analyze_inline: true,
            hybrid_static_analysis: false,
            flight_capacity: hth_trace::DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// Errors from session construction and start-up.
#[derive(Debug)]
pub enum SessionError {
    /// The policy failed to load (engine error).
    Policy(EngineError),
    /// The program could not be spawned.
    Spawn(SpawnError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Policy(e) => write!(f, "policy error: {e}"),
            SessionError::Spawn(e) => write!(f, "spawn error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> SessionError {
        SessionError::Policy(e)
    }
}

impl From<SpawnError> for SessionError {
    fn from(e: SpawnError) -> SessionError {
        SessionError::Spawn(e)
    }
}

/// Outcome of a [`Session::run`].
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Instructions retired across all processes.
    pub instructions: u64,
    /// `(pid, status)` of exited processes.
    pub exited: Vec<(u32, i32)>,
    /// `(pid, fault)` of crashed processes.
    pub faults: Vec<(u32, String)>,
    /// True when the instruction budget stopped the run.
    pub truncated: bool,
}

/// Aggregated outcome of a session, for quick reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Warnings at Low severity.
    pub low: usize,
    /// Warnings at Medium severity.
    pub medium: usize,
    /// Warnings at High severity.
    pub high: usize,
    /// Distinct rules that fired, with counts, most frequent first.
    pub rules: Vec<(String, usize)>,
    /// Events Harrier emitted.
    pub events: usize,
    /// Instructions retired.
    pub instructions: u64,
}

impl std::fmt::Display for SessionSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} warnings (high: {}, medium: {}, low: {}) from {} events over {} instructions",
            self.low + self.medium + self.high,
            self.high,
            self.medium,
            self.low,
            self.events,
            self.instructions,
        )?;
        for (rule, count) in &self.rules {
            writeln!(f, "  {count:4}x {rule}")?;
        }
        Ok(())
    }
}

/// Observer for the live event stream: called once per Harrier event, in
/// order, before inline analysis. This is the Harrier→Secpert protocol
/// boundary made pluggable — journal recorders and fleet analyst pools
/// both attach here.
pub type EventTap = Box<dyn FnMut(&SecpertEvent) + Send>;

/// An HTH monitoring session over one program (and its children).
pub struct Session {
    /// The emulated OS (configure files, hosts and peers through this).
    pub kernel: Kernel,
    harrier: Harrier,
    /// `None` until needed when events are not analyzed inline.
    secpert: Option<Secpert>,
    procs: Vec<Process>,
    warnings: Vec<Warning>,
    events: Vec<SecpertEvent>,
    taps: Vec<EventTap>,
    config: SessionConfig,
    instructions: u64,
    flight: Option<hth_trace::FlightRecorder>,
    bundles: hth_trace::BundleRing,
}

impl Session {
    /// Builds a session with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Policy`] when the policy fails to load.
    /// A session that does not analyze inline neither compiles nor
    /// instantiates the policy, so its policy errors surface where its
    /// events are analyzed.
    pub fn new(config: SessionConfig) -> Result<Session, SessionError> {
        let secpert =
            if config.analyze_inline { Some(Secpert::new(&config.policy)?) } else { None };
        Ok(Session {
            kernel: Kernel::new(),
            harrier: Harrier::new(config.harrier.clone()),
            secpert,
            procs: Vec::new(),
            warnings: Vec::new(),
            events: Vec::new(),
            taps: Vec::new(),
            flight: (config.flight_capacity > 0)
                .then(|| hth_trace::FlightRecorder::new(config.flight_capacity)),
            bundles: hth_trace::BundleRing::default(),
            config,
            instructions: 0,
        })
    }

    /// Spawns and attaches the program to monitor.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Spawn`] when the binary is unknown or
    /// fails to assemble.
    pub fn start(
        &mut self,
        path: &str,
        argv: &[&str],
        env: &[(&str, &str)],
    ) -> Result<u32, SessionError> {
        let proc = self.kernel.spawn(path, argv, env)?;
        let pid = proc.pid;
        if self.config.hybrid_static_analysis && self.harrier.config().track_dataflow {
            // Static pre-pass (paper §10 item 2): a binary with no
            // hardcoded resource names cannot trip the origin-based
            // rules, so the dynamic data-flow tracker can be skipped.
            let audit = harrier::audit::audit(&proc.core.images()[0]);
            if audit.is_secure() {
                let config = harrier::HarrierConfig {
                    track_dataflow: false,
                    ..self.harrier.config().clone()
                };
                self.harrier = Harrier::new(config);
            }
        }
        self.harrier.attach(&proc);
        self.procs.push(proc);
        Ok(pid)
    }

    /// Runs all processes round-robin until they exit, crash, or the
    /// instruction budget is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates policy evaluation errors (rule bugs), never workload
    /// faults — those are recorded in the report.
    pub fn run(&mut self) -> Result<RunReport, SessionError> {
        let _span = hth_trace::span("session.run");
        let mut report = RunReport::default();
        loop {
            if self.instructions >= self.config.max_instructions {
                report.truncated = true;
                break;
            }
            let mut progressed = false;
            let mut i = 0;
            while i < self.procs.len() {
                if self.procs[i].runnable() {
                    progressed = true;
                    self.run_quantum(i, &mut report)?;
                }
                i += 1;
            }
            if !progressed {
                break;
            }
            // Drop exited processes (children stay until observed here).
            self.procs.retain(|p| {
                if let ProcState::Exited(code) = p.state {
                    report.exited.push((p.pid, code));
                    false
                } else {
                    true
                }
            });
        }
        report.instructions = self.instructions;
        Ok(report)
    }

    fn run_quantum(&mut self, idx: usize, report: &mut RunReport) -> Result<(), SessionError> {
        for _ in 0..self.config.quantum {
            if self.instructions >= self.config.max_instructions {
                return Ok(());
            }
            if !self.procs[idx].runnable() {
                return Ok(());
            }
            let pid = self.procs[idx].pid;
            let step = {
                let proc = &mut self.procs[idx];
                let mut hooks = self.harrier.hooks(pid);
                proc.core.step(&mut hooks)
            };
            self.instructions += 1;
            self.kernel.note_instructions(1);
            match step {
                Ok(StepEvent::Continue) => {}
                Ok(StepEvent::Halted) => {
                    self.procs[idx].state = ProcState::Exited(0);
                    self.harrier.detach(pid);
                    return Ok(());
                }
                Ok(StepEvent::Interrupt(0x80)) => self.handle_syscall(idx)?,
                Ok(StepEvent::Interrupt(_)) => {
                    self.procs[idx].state = ProcState::Exited(-1);
                    return Ok(());
                }
                Err(e) => {
                    report.faults.push((pid, e.to_string()));
                    self.procs[idx].state = ProcState::Exited(-1);
                    self.harrier.detach(pid);
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn handle_syscall(&mut self, idx: usize) -> Result<(), SessionError> {
        let record = self.kernel.syscall(&mut self.procs[idx]);
        let mut exec_to: Option<String> = None;
        match &record.effect {
            SyscallEffect::ForkRequested => {
                if self.procs.len() < self.config.max_processes {
                    let child = self.kernel.fork(&self.procs[idx]);
                    let (ppid, cpid) = (self.procs[idx].pid, child.pid);
                    self.procs[idx].core.cpu.set(Reg::Eax, cpid);
                    self.harrier.fork_attach(ppid, cpid);
                    self.procs.push(child);
                } else {
                    self.procs[idx].core.cpu.set(Reg::Eax, -errno::EAGAIN as u32);
                }
            }
            SyscallEffect::ExecRequested { path, found: true, .. } => {
                exec_to = Some(path.clone());
            }
            _ => {}
        }
        // Events are generated before an exec replaces the image, so
        // origins are read from the *current* shadow state.
        let events = self.harrier.on_syscall(&self.procs[idx], &record, &self.kernel);
        let mut fired_high: Vec<Warning> = Vec::new();
        for event in &events {
            for tap in &mut self.taps {
                tap(event);
            }
            if let Some(flight) = &self.flight {
                flight.record(
                    u64::from(event.pid()),
                    event.time(),
                    "event",
                    event.syscall(),
                    event.resource_name(),
                );
            }
            if self.config.analyze_inline {
                let warnings = self.secpert_mut().process_event(event)?;
                fired_high
                    .extend(warnings.iter().filter(|w| w.severity == Severity::High).cloned());
                self.warnings.extend(warnings);
            }
        }
        if self.config.record_events {
            self.events.extend(events);
        }
        for warning in &fired_high {
            self.capture_warning_bundle(warning);
        }
        if let Some(path) = exec_to {
            let argv_owned = [path.clone()];
            let argv: Vec<&str> = argv_owned.iter().map(String::as_str).collect();
            if self.kernel.exec_into(&mut self.procs[idx], &path, &argv).is_ok() {
                self.harrier.on_exec(&self.procs[idx]);
            }
        }
        if let SyscallEffect::SignalRequested { target, sig } = record.effect {
            self.deliver_signal(idx, target, sig);
        }
        Ok(())
    }

    /// Delivers a `kill`-requested signal (after the event was emitted):
    /// a registered handler absorbs it, otherwise the target dies with
    /// `128 + sig`, mirroring the shell's exit-status convention.
    fn deliver_signal(&mut self, sender_idx: usize, target: u32, sig: u32) {
        let Some(victim) = self.procs.iter_mut().find(|p| p.pid == target && p.runnable()) else {
            self.procs[sender_idx].core.cpu.set(Reg::Eax, (-errno::ESRCH) as u32);
            return;
        };
        if victim.sig_handlers.contains_key(&sig) {
            victim.delivered_signals.push(sig);
        } else {
            let pid = victim.pid;
            victim.state = ProcState::Exited(128 + sig as i32);
            self.harrier.detach(pid);
        }
    }

    /// Snapshots the flight recorder into a warning-triggered
    /// diagnostic bundle carrying the session's metrics and the
    /// warning's rendered provenance tree.
    fn capture_warning_bundle(&mut self, warning: &Warning) {
        let Some(flight) = &self.flight else {
            return;
        };
        let provenance: Vec<String> = warning
            .provenance
            .as_ref()
            .map(|p| p.render_tree(warning))
            .unwrap_or_default()
            .lines()
            .map(str::to_string)
            .collect();
        let bundle = flight.capture(
            "session",
            hth_trace::Trigger::Warning {
                rule: warning.rule.clone(),
                severity: warning.severity.label().to_string(),
            },
            self.metrics(),
            provenance,
        );
        self.bundles.push(bundle);
    }

    /// The session's always-on flight recorder (`None` when
    /// [`SessionConfig::flight_capacity`] is 0).
    pub fn flight_recorder(&self) -> Option<&hth_trace::FlightRecorder> {
        self.flight.as_ref()
    }

    /// Diagnostic bundles captured so far (inline High warnings),
    /// oldest first.
    pub fn diagnostic_bundles(&self) -> Vec<std::sync::Arc<hth_trace::DiagnosticBundle>> {
        self.bundles.list()
    }

    /// Attaches an event tap: it sees every Harrier event as it is
    /// generated, before (and regardless of) inline analysis. Multiple
    /// taps run in attachment order.
    pub fn set_event_tap(&mut self, tap: EventTap) {
        self.taps.push(tap);
    }

    /// All warnings issued so far, in order.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Highest severity seen (None = clean run).
    pub fn max_severity(&self) -> Option<Severity> {
        self.warnings.iter().map(|w| w.severity).max()
    }

    /// All Harrier events (when `record_events` is on).
    pub fn events(&self) -> &[SecpertEvent] {
        &self.events
    }

    /// The expert system (custom rules, inspection), instantiated on
    /// first use for a session that does not analyze inline.
    ///
    /// # Panics
    ///
    /// When a session that does not analyze inline has a policy that
    /// fails to compile (inline sessions report that from
    /// [`Session::new`]).
    pub fn secpert_mut(&mut self) -> &mut Secpert {
        let policy = &self.config.policy;
        self.secpert.get_or_insert_with(|| {
            Secpert::new(policy).expect("session policy compiles (checked where it is analyzed)")
        })
    }

    /// The monitor (taint inspection).
    pub fn harrier(&self) -> &Harrier {
        &self.harrier
    }

    /// Tag interning and union-memoization counters from the monitor's
    /// hash-consed tag store (perf diagnostics).
    pub fn taint_stats(&self) -> harrier::TaintStats {
        self.harrier.taint_stats()
    }

    /// Paper-style warning transcript accumulated by the policy rules.
    pub fn take_transcript(&mut self) -> String {
        self.secpert.as_mut().map(Secpert::take_transcript).unwrap_or_default()
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// One unified metrics snapshot for this session: taint-store
    /// (`hth_taint_*`), match-network (`hth_match_*`) and expert
    /// (`hth_secpert_*`, both only when the session has an expert), and
    /// pipeline (`hth_session_*`) counters.
    pub fn metrics(&self) -> hth_trace::MetricsSnapshot {
        let mut metrics = hth_trace::MetricsSnapshot::default();
        self.taint_stats().record_metrics(&mut metrics);
        if let Some(secpert) = &self.secpert {
            secpert.record_metrics(&mut metrics);
        }
        metrics.add_counter("hth_session_events", self.harrier.events_emitted());
        metrics.add_counter("hth_session_instructions", self.instructions);
        metrics.add_counter("hth_session_warnings", self.warnings.len() as u64);
        metrics
    }

    /// Aggregates warnings, rules and counters into a printable summary.
    pub fn summary(&self) -> SessionSummary {
        let mut summary = SessionSummary {
            events: self.events.len(),
            instructions: self.instructions,
            ..SessionSummary::default()
        };
        let mut rules: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for warning in &self.warnings {
            match warning.severity {
                Severity::Low => summary.low += 1,
                Severity::Medium => summary.medium += 1,
                Severity::High => summary.high += 1,
            }
            *rules.entry(warning.rule.as_str()).or_default() += 1;
        }
        summary.rules = rules.into_iter().map(|(r, c)| (r.to_string(), c)).collect();
        summary.rules.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        summary
    }
}
