//! # hth-cli — command-line front end for the HTH framework
//!
//! ```text
//! hth run <prog.s> [--arg V]… [--stdin TEXT]… [--file PATH=TEXT]…
//!                  [--host NAME=a.b.c.d]… [--peer IP:PORT[=REPLY]]…
//!                  [--client PORT[=SEND]]… [--lib NAME=FILE.s]…
//!                  [--trust NAME]… [--no-dataflow] [--no-bb] [--hybrid]
//!                  [--events] [--summary]
//! hth audit <prog.s>      # Appendix B Secure Binary audit
//! hth listing <prog.s>    # assemble and print the listing
//! hth fleet [--sessions N] [--shards N] [--workers N] [--queue N]
//!           [--batch-size N] [--drop-oldest] [--chaos-seed N]
//!           [--correlate] [--gen2] [--digests OUT.hthd]
//!           [--trust NAME]… [--trace OUT.json] [--metrics]
//! hth replay <events.hthj> [--repair] [--batch-size N] [--trust NAME]…
//! hth explain <events.hthj|digests.hthd> <warning-idx> [--trust NAME]…
//! hth serve [--addr H:P] [--workers N] [--budget-mb N] [--idle-ms N]
//!           [--trust NAME]… [--metrics]
//! hth load [--addr H:P] [--sessions N] [--events N] [--shutdown]
//! hth top [--addr H:P] [--once] [--interval-ms N]
//! ```
//!
//! The argument parser and command execution live here so they are unit
//! testable; `main.rs` is a thin shell.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use emukernel::{Endpoint, FileNode, Peer, RemoteClient};
use harrier::audit;
use hth_core::secpert_engine::frame;
use hth_core::{PolicyConfig, Secpert, Session, SessionConfig};
use hth_fleet::{Backpressure, FaultPlan, FleetConfig, JournalReader, JournalWriter};

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Monitor a program.
    Run(Box<RunOptions>),
    /// Static Secure Binary audit.
    Audit {
        /// Path to the assembly source.
        source: String,
    },
    /// Print the assembled listing.
    Listing {
        /// Path to the assembly source.
        source: String,
    },
    /// Run a workload fleet through the sharded analyst pool.
    Fleet(FleetOptions),
    /// Replay a recorded event journal through a fresh Secpert.
    Replay {
        /// Path to the journal recorded with `hth run --journal`.
        journal: String,
        /// Extra trusted binaries for the replay policy.
        trust: Vec<String>,
        /// Salvage every decodable frame from a damaged journal instead
        /// of failing on the first corrupt byte.
        repair: bool,
        /// Events fed to the engine per batch; 1 replays strictly
        /// event-at-a-time (identical results either way).
        batch_size: usize,
    },
    /// Run the long-lived fleet daemon: sessions over TCP, LRU + idle
    /// eviction under a memory budget, snapshot/restore, live
    /// `/metrics`.
    Serve(ServeOptions),
    /// Drive synthetic sessions against a running daemon and report
    /// throughput and ack latency.
    Load(LoadOptions),
    /// Poll a running daemon's `/statusz` endpoint and render a live
    /// fleet view (`--once` prints one frame and exits, for scripts).
    Top(TopOptions),
    /// Explain one warning from a journal replay: print its causal
    /// tree (triggering event, rule chain, supporting facts, taint
    /// sources). Given a digest stream (`hth fleet --digests`) instead,
    /// explains a *fleet* warning: the tree spans the contributing
    /// sessions.
    Explain {
        /// Path to a journal (`hth run --journal`) or a digest stream
        /// (`hth fleet --digests`); told apart by the header version.
        journal: String,
        /// 0-based index of the warning in replay order.
        index: usize,
        /// Extra trusted binaries for the replay policy.
        trust: Vec<String>,
    },
    /// Print usage.
    Help,
}

/// Options for `hth fleet`.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetOptions {
    /// Workload sessions to run (the Table 8 catalog, cycled).
    pub sessions: usize,
    /// Analyst pool shards.
    pub shards: usize,
    /// Session-runner threads.
    pub workers: usize,
    /// Per-shard queue capacity.
    pub queue: usize,
    /// Events an analyst drains from its queue per lock crossing; 1
    /// disables batching (identical results either way).
    pub batch_size: usize,
    /// Shed load (`DropOldest`) instead of blocking producers.
    pub drop_oldest: bool,
    /// Seed for deterministic fault injection (chaos testing); `None`
    /// runs the fleet fault-free.
    pub chaos_seed: Option<u64>,
    /// Run the coordinated-campaign catalog and correlate the fleet's
    /// session digests after the run.
    pub correlate: bool,
    /// Run the second-generation syscall-surface catalog (mmap dropper,
    /// pipe laundering, /proc beacon, signal killer, select server)
    /// instead of the Table 8 exploits.
    pub gen2: bool,
    /// Write the fleet's session digest stream here.
    pub digests: Option<String>,
    /// Extra trusted binaries.
    pub trust: Vec<String>,
    /// Write a Chrome `trace_event` JSON timeline of the run here.
    pub trace: Option<String>,
    /// Print the unified Prometheus-style metrics snapshot.
    pub metrics: bool,
    /// Write the shards' diagnostic bundles (quarantines, watchdog
    /// overruns) here as a JSON array.
    pub bundles: Option<String>,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            sessions: 8,
            shards: 4,
            workers: 4,
            queue: 1024,
            batch_size: hth_fleet::PoolConfig::default().batch_size,
            drop_oldest: false,
            chaos_seed: None,
            correlate: false,
            gen2: false,
            digests: None,
            trust: Vec::new(),
            trace: None,
            metrics: false,
            bundles: None,
        }
    }
}

/// Options for `hth serve`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOptions {
    /// Listen address (`HOST:PORT`; port 0 picks a free one).
    pub addr: String,
    /// Connection worker threads.
    pub workers: usize,
    /// Resident engine memory budget, in MiB.
    pub budget_mb: usize,
    /// Evict sessions idle for this many milliseconds (`None` = never).
    pub idle_ms: Option<u64>,
    /// Extra trusted binaries.
    pub trust: Vec<String>,
    /// Print the final metrics snapshot on drain.
    pub metrics: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7177".to_string(),
            workers: 4,
            budget_mb: 64,
            idle_ms: None,
            trust: Vec::new(),
            metrics: false,
        }
    }
}

/// Options for `hth load`.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadOptions {
    /// Daemon address.
    pub addr: String,
    /// Synthetic sessions to drive.
    pub sessions: u64,
    /// Events per session.
    pub events: u64,
    /// Ask the daemon to drain and stop after the run.
    pub shutdown: bool,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            addr: "127.0.0.1:7177".to_string(),
            sessions: 8,
            events: 100,
            shutdown: false,
        }
    }
}

/// Options for `hth top`.
#[derive(Clone, Debug, PartialEq)]
pub struct TopOptions {
    /// Daemon address.
    pub addr: String,
    /// Print one frame and exit (script / golden mode).
    pub once: bool,
    /// Refresh interval in milliseconds.
    pub interval_ms: u64,
}

impl Default for TopOptions {
    fn default() -> TopOptions {
        TopOptions { addr: "127.0.0.1:7177".to_string(), once: false, interval_ms: 1000 }
    }
}

/// Options for `hth run`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOptions {
    /// Path to the assembly source of the program to monitor.
    pub source: String,
    /// Extra argv entries (argv\[0\] is the program path).
    pub args: Vec<String>,
    /// Environment entries.
    pub env: Vec<(String, String)>,
    /// Console input chunks.
    pub stdin: Vec<String>,
    /// VFS files to install, `path=content`.
    pub files: Vec<(String, String)>,
    /// DNS entries, `name=a.b.c.d`.
    pub hosts: Vec<(String, u32)>,
    /// Scripted peers `(endpoint, optional reply)`.
    pub peers: Vec<(Endpoint, Option<String>)>,
    /// Scripted inbound clients `(port, optional send)`.
    pub clients: Vec<(u16, Option<String>)>,
    /// Shared objects to register, `name=path`.
    pub libs: Vec<(String, String)>,
    /// Extra trusted binaries.
    pub trust: Vec<String>,
    /// Disable dataflow tracking.
    pub no_dataflow: bool,
    /// Disable BB frequency tracking.
    pub no_bb: bool,
    /// Enable the hybrid static pre-pass.
    pub hybrid: bool,
    /// Print Harrier events.
    pub show_events: bool,
    /// Print the session summary.
    pub show_summary: bool,
    /// Record the event stream to a journal file.
    pub journal: Option<String>,
    /// Write a Chrome `trace_event` JSON timeline of the run here.
    pub trace: Option<String>,
    /// Print the unified Prometheus-style metrics snapshot.
    pub metrics: bool,
}

/// Usage text.
pub const USAGE: &str = "\
hth — Hunting Trojan Horses

USAGE:
  hth run <prog.s> [options]   monitor a program, print warnings
  hth audit <prog.s>           Secure Binary audit (Appendix B)
  hth listing <prog.s>         assemble and print the listing
  hth fleet [options]          run a workload fleet through the analyst pool
  hth replay <events.hthj> [--repair] [--batch-size N] [--trust NAME]…
                               replay a recorded journal offline; --repair
                               salvages every decodable frame from a
                               damaged journal and reports what was lost;
                               --batch-size N feeds the engine N events
                               per batch (same warnings at any size)
  hth explain <events.hthj|digests.hthd> <warning-idx>
                               replay a journal and print the causal tree
                               behind one warning (0-based replay order):
                               triggering event, rule-firing chain,
                               supporting facts, taint sources; given a
                               digest stream (hth fleet --digests) the
                               tree is fleet-level and spans the
                               sessions behind the correlated warning
  hth serve [options]          run the fleet daemon: sessions over TCP,
                               LRU + idle eviction under a memory
                               budget, snapshot/restore on eviction,
                               live Prometheus /metrics on the same port
  hth load [options]           drive synthetic sessions against a
                               running daemon; report events/sec and
                               ack latency
  hth top [options]            poll a running daemon's /statusz and
                               render a live fleet view: sessions,
                               ack latency, diagnostic bundles
  hth help                     this text

RUN OPTIONS:
  --arg V            append an argv entry (repeatable)
  --env K=V          set an environment variable
  --stdin TEXT       queue one chunk of console input
  --file PATH=TEXT   install a file in the VFS
  --host NAME=IP     add a DNS entry (dotted quad)
  --peer IP:PORT[=REPLY]   script a remote server
  --client PORT[=SEND]     script an inbound client
  --lib NAME=FILE.s  register a shared object from a source file
  --trust NAME       add a trusted binary (substring match)
  --no-dataflow      disable taint tracking (fast, loses origins)
  --no-bb            disable basic-block frequency
  --hybrid           static pre-pass: skip dataflow for Secure Binaries
  --events           print every Harrier event
  --summary          print the session summary
  --journal PATH     record the event stream to a journal file
  --trace OUT.json   write a Chrome trace_event timeline of the run
                     (load it in chrome://tracing or Perfetto)
  --metrics          print the unified metrics snapshot (taint store,
                     match network, expert, pipeline) in Prometheus
                     text format

FLEET OPTIONS:
  --sessions N       workload sessions to run (default 8)
  --shards N         analyst pool shards (default 4)
  --workers N        session-runner threads (default 4)
  --queue N          per-shard queue capacity (default 1024)
  --batch-size N     events an analyst drains per queue lock crossing
                     (default 64); 1 disables batching — warnings and
                     stats are identical at every size
  --drop-oldest      shed load instead of blocking when a queue fills
  --chaos-seed N     inject deterministic faults (shard panics, queue
                     stalls) derived from seed N; losses are counted,
                     never silent
  --correlate        run the coordinated-campaign catalog (bots sharing
                     one C2, droppers planting one artifact, leakers
                     slicing exfil under per-session thresholds) and
                     correlate the fleet's session digests after the
                     run — fleet warnings print with the report
  --gen2             run the second-generation syscall-surface catalog
                     (mmap dropper, pipe laundering, /proc beacon,
                     signal killer, select echo server) instead of the
                     Table 8 exploits
  --digests OUT.hthd write the fleet's session digest stream; feed it
                     to `hth explain` for fleet-level causal trees
  --trust NAME       add a trusted binary (substring match)
  --trace OUT.json   write a Chrome trace_event timeline of the fleet
                     run (all worker and analyst threads)
  --metrics          print the unified metrics snapshot covering the
                     whole fleet in Prometheus text format
  --bundles OUT.json write the shards' diagnostic bundles (flight
                     recorder snapshots captured on quarantines and
                     watchdog overruns) as a JSON array

SERVE OPTIONS:
  --addr HOST:PORT   listen address (default 127.0.0.1:7177; port 0
                     picks a free port, printed on stderr)
  --workers N        connection worker threads (default 4)
  --budget-mb N      resident engine memory budget in MiB (default 64);
                     least-recently-used sessions are snapshotted and
                     evicted to stay under it, and revived from the
                     snapshot on their next event — warnings are
                     byte-identical either way
  --idle-ms N        evict sessions idle for N milliseconds
  --trust NAME       add a trusted binary (substring match)
  --metrics          print the final metrics snapshot on drain

LOAD OPTIONS:
  --addr HOST:PORT   daemon address (default 127.0.0.1:7177)
  --sessions N       synthetic sessions to drive (default 8)
  --events N         events per session (default 100)
  --shutdown         ask the daemon to drain and stop after the run

TOP OPTIONS:
  --addr HOST:PORT   daemon address (default 127.0.0.1:7177)
  --once             fetch and print one frame, then exit (for
                     scripts and goldens)
  --interval-ms N    refresh interval in live mode (default 1000)
";

fn parse_ip(text: &str) -> Result<u32, String> {
    let parts: Vec<&str> = text.split('.').collect();
    if parts.len() != 4 {
        return Err(format!("bad IP `{text}` (want a.b.c.d)"));
    }
    let mut ip = 0u32;
    for part in parts {
        let octet: u8 = part.parse().map_err(|_| format!("bad IP octet `{part}`"))?;
        ip = (ip << 8) | u32::from(octet);
    }
    Ok(ip)
}

fn parse_kv(text: &str, what: &str) -> Result<(String, String), String> {
    text.split_once('=')
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .ok_or_else(|| format!("bad {what} `{text}` (want K=V)"))
}

fn parse_endpoint(text: &str) -> Result<Endpoint, String> {
    let (ip, port) =
        text.split_once(':').ok_or_else(|| format!("bad endpoint `{text}` (want IP:PORT)"))?;
    Ok(Endpoint {
        ip: parse_ip(ip)?,
        port: port.parse().map_err(|_| format!("bad port `{port}`"))?,
    })
}

/// Parses a command line (without the leading program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values
/// or malformed option payloads.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    if command == "fleet" {
        return parse_fleet(it);
    }
    if command == "serve" {
        return parse_serve(it);
    }
    if command == "load" {
        return parse_load(it);
    }
    if command == "top" {
        return parse_top(it);
    }
    let operand =
        if matches!(command, "replay" | "explain") { "journal file" } else { "source file" };
    let source = it.next().ok_or_else(|| format!("`{command}` needs a {operand}"))?.clone();
    match command {
        "audit" => return Ok(Command::Audit { source }),
        "listing" => return Ok(Command::Listing { source }),
        "replay" => {
            let mut trust = Vec::new();
            let mut repair = false;
            let mut batch_size = hth_fleet::PoolConfig::default().batch_size;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--trust" => trust.push(
                        it.next().cloned().ok_or_else(|| "--trust needs a value".to_string())?,
                    ),
                    "--repair" => repair = true,
                    "--batch-size" => {
                        let text = it
                            .next()
                            .cloned()
                            .ok_or_else(|| "--batch-size needs a value".to_string())?;
                        batch_size = parse_count(&text, "--batch-size")?;
                    }
                    other => return Err(format!("unknown flag `{other}`")),
                }
            }
            return Ok(Command::Replay { journal: source, trust, repair, batch_size });
        }
        "explain" => {
            let text = it.next().ok_or_else(|| "`explain` needs a warning index".to_string())?;
            let index = text
                .parse::<usize>()
                .map_err(|_| format!("bad warning index `{text}` (want a 0-based count)"))?;
            let mut trust = Vec::new();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--trust" => trust.push(
                        it.next().cloned().ok_or_else(|| "--trust needs a value".to_string())?,
                    ),
                    other => return Err(format!("unknown flag `{other}`")),
                }
            }
            return Ok(Command::Explain { journal: source, index, trust });
        }
        "run" => {}
        other => return Err(format!("unknown command `{other}` (try `hth help`)")),
    }
    let mut opts = RunOptions { source, ..RunOptions::default() };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--arg" => opts.args.push(value("--arg")?),
            "--env" => opts.env.push(parse_kv(&value("--env")?, "--env")?),
            "--stdin" => opts.stdin.push(value("--stdin")?),
            "--file" => opts.files.push(parse_kv(&value("--file")?, "--file")?),
            "--host" => {
                let (name, ip) = parse_kv(&value("--host")?, "--host")?;
                opts.hosts.push((name, parse_ip(&ip)?));
            }
            "--peer" => {
                let text = value("--peer")?;
                let (ep, reply) = match text.split_once('=') {
                    Some((ep, reply)) => (ep.to_string(), Some(reply.to_string())),
                    None => (text, None),
                };
                opts.peers.push((parse_endpoint(&ep)?, reply));
            }
            "--client" => {
                let text = value("--client")?;
                let (port, send) = match text.split_once('=') {
                    Some((port, send)) => (port.to_string(), Some(send.to_string())),
                    None => (text, None),
                };
                opts.clients.push((port.parse().map_err(|_| format!("bad port `{port}`"))?, send));
            }
            "--lib" => opts.libs.push(parse_kv(&value("--lib")?, "--lib")?),
            "--trust" => opts.trust.push(value("--trust")?),
            "--no-dataflow" => opts.no_dataflow = true,
            "--no-bb" => opts.no_bb = true,
            "--hybrid" => opts.hybrid = true,
            "--events" => opts.show_events = true,
            "--summary" => opts.show_summary = true,
            "--journal" => opts.journal = Some(value("--journal")?),
            "--trace" => opts.trace = Some(value("--trace")?),
            "--metrics" => opts.metrics = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Command::Run(Box::new(opts)))
}

fn parse_count(text: &str, what: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("bad {what} `{text}` (want a positive count)")),
    }
}

fn parse_fleet(mut it: std::slice::Iter<'_, String>) -> Result<Command, String> {
    let mut opts = FleetOptions::default();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--sessions" => opts.sessions = parse_count(&value("--sessions")?, "--sessions")?,
            "--shards" => opts.shards = parse_count(&value("--shards")?, "--shards")?,
            "--workers" => opts.workers = parse_count(&value("--workers")?, "--workers")?,
            "--queue" => opts.queue = parse_count(&value("--queue")?, "--queue")?,
            "--batch-size" => {
                opts.batch_size = parse_count(&value("--batch-size")?, "--batch-size")?;
            }
            "--drop-oldest" => opts.drop_oldest = true,
            "--chaos-seed" => {
                let text = value("--chaos-seed")?;
                opts.chaos_seed = Some(
                    text.parse::<u64>()
                        .map_err(|_| format!("bad --chaos-seed `{text}` (want a u64)"))?,
                );
            }
            "--correlate" => opts.correlate = true,
            "--gen2" => opts.gen2 = true,
            "--digests" => opts.digests = Some(value("--digests")?),
            "--trust" => opts.trust.push(value("--trust")?),
            "--trace" => opts.trace = Some(value("--trace")?),
            "--metrics" => opts.metrics = true,
            "--bundles" => opts.bundles = Some(value("--bundles")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Command::Fleet(opts))
}

fn parse_serve(mut it: std::slice::Iter<'_, String>) -> Result<Command, String> {
    let mut opts = ServeOptions::default();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--workers" => opts.workers = parse_count(&value("--workers")?, "--workers")?,
            "--budget-mb" => {
                let text = value("--budget-mb")?;
                opts.budget_mb = text
                    .parse::<usize>()
                    .map_err(|_| format!("bad --budget-mb `{text}` (want MiB)"))?;
            }
            "--idle-ms" => {
                let text = value("--idle-ms")?;
                opts.idle_ms = Some(
                    text.parse::<u64>()
                        .map_err(|_| format!("bad --idle-ms `{text}` (want milliseconds)"))?,
                );
            }
            "--trust" => opts.trust.push(value("--trust")?),
            "--metrics" => opts.metrics = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Command::Serve(opts))
}

fn parse_load(mut it: std::slice::Iter<'_, String>) -> Result<Command, String> {
    let mut opts = LoadOptions::default();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--sessions" => {
                opts.sessions = parse_count(&value("--sessions")?, "--sessions")? as u64;
            }
            "--events" => opts.events = parse_count(&value("--events")?, "--events")? as u64,
            "--shutdown" => opts.shutdown = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Command::Load(opts))
}

fn parse_top(mut it: std::slice::Iter<'_, String>) -> Result<Command, String> {
    let mut opts = TopOptions::default();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--once" => opts.once = true,
            "--interval-ms" => {
                opts.interval_ms = parse_count(&value("--interval-ms")?, "--interval-ms")? as u64;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Command::Top(opts))
}

/// Executes a parsed command; returns the text to print.
///
/// # Errors
///
/// Returns a message for unreadable files, assembly errors and session
/// failures.
pub fn execute(command: Command) -> Result<String, String> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Audit { source } => {
            let text = std::fs::read_to_string(&source)
                .map_err(|e| format!("cannot read `{source}`: {e}"))?;
            let image = hth_vm::asm::assemble(&source, &text, emukernel::APP_BASE)
                .map_err(|e| e.to_string())?;
            let report = audit::audit(&image);
            let mut out = String::new();
            if report.is_secure() {
                let _ = writeln!(out, "{source}: SECURE (no hardcoded resource names)");
            } else {
                let _ = writeln!(out, "{source}: NOT secure");
                for finding in &report.findings {
                    let _ = writeln!(
                        out,
                        "  {:#010x}  {:<24}  {}",
                        finding.addr, finding.text, finding.reason
                    );
                }
            }
            Ok(out)
        }
        Command::Listing { source } => {
            let text = std::fs::read_to_string(&source)
                .map_err(|e| format!("cannot read `{source}`: {e}"))?;
            let image = hth_vm::asm::assemble(&source, &text, emukernel::APP_BASE)
                .map_err(|e| e.to_string())?;
            Ok(hth_vm::disasm::listing(image.text_base(), image.text()))
        }
        Command::Run(opts) => run(*opts),
        Command::Fleet(opts) => fleet(opts),
        Command::Serve(opts) => serve(opts),
        Command::Load(opts) => load(opts),
        Command::Top(opts) => top(opts),
        Command::Replay { journal, trust, repair, batch_size } => {
            replay_journal(&journal, trust, repair, batch_size)
        }
        Command::Explain { journal, index, trust } => explain(&journal, index, trust),
    }
}

/// Renders the match-network counter line. Both `hth replay` and
/// `hth fleet` print this — one formatter so the two outputs never
/// drift apart again.
fn render_match_stats(stats: &hth_core::secpert_engine::MatchStats, indent: &str) -> String {
    format!(
        "{indent}match: {} activations, {} joins ({} matched), {} tokens created ({} live), index hit rate {:.0}%",
        stats.activations,
        stats.join_attempts,
        stats.join_matches,
        stats.tokens_created,
        stats.tokens_live,
        stats.index_hit_rate() * 100.0,
    )
}

/// Stops tracing, drains every thread's ring buffer and writes the
/// Chrome `trace_event` JSON to `path`. Returns a one-line summary.
fn write_trace(path: &str) -> Result<String, String> {
    hth_trace::set_enabled(false);
    let log = hth_trace::drain();
    std::fs::write(path, log.to_chrome_json())
        .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    let mut line = format!("trace: {} events written to {path}", log.events.len());
    if log.dropped > 0 {
        let _ = write!(line, " ({} lost to ring overwrites)", log.dropped);
    }
    Ok(line)
}

/// Publishes a snapshot as *the* process-wide metrics state and renders
/// it from there. Every reader — `--metrics` on any command, the serve
/// daemon's `/metrics` endpoint, the drain summary — goes through the
/// same [`hth_trace::global_metrics`] registry, so a scrape taken
/// mid-run and a flag printed at exit can never disagree about what the
/// process measured. Snapshots are re-derived totals, so they replace
/// (never merge into) the registry.
fn publish_metrics(snapshot: hth_trace::MetricsSnapshot) -> String {
    let registry = hth_trace::global_metrics();
    registry.replace(snapshot);
    registry.snapshot().render_prometheus()
}

/// Runs the fleet daemon until a client asks it to drain, then renders
/// the summary: final counters, the aggregate warning multiset (the
/// same shape batch-mode `hth fleet` prints), and optionally the final
/// metrics snapshot.
fn serve(opts: ServeOptions) -> Result<String, String> {
    let mut table = hth_serve::TableConfig {
        budget_bytes: opts.budget_mb.saturating_mul(1 << 20),
        idle_timeout: opts.idle_ms.map(std::time::Duration::from_millis),
        ..hth_serve::TableConfig::default()
    };
    table.policy.trusted_binaries.extend(opts.trust.iter().cloned());
    let config = hth_serve::ServeConfig { addr: opts.addr, workers: opts.workers, table };
    let server = hth_serve::Server::bind(config).map_err(|e| e.to_string())?;
    // Announce readiness on stderr immediately; stdout carries the
    // drain summary once the daemon stops.
    eprintln!("hth serve: listening on {}", server.local_addr());
    let handle = server.table();
    let summary = server.run().map_err(|e| e.to_string())?;
    let mut out = String::new();
    let s = &summary.stats;
    let _ = writeln!(
        out,
        "serve: {} events over {} sessions ({} still open), {} warnings",
        s.events_total,
        s.sessions_open.max(summary.resident_high_water),
        s.sessions_open,
        s.warnings_total,
    );
    let _ = writeln!(
        out,
        "  lifecycle: {} evictions, {} snapshot restores, {} fallback replays, high water {} resident",
        s.evictions, s.restores, s.fallback_replays, summary.resident_high_water,
    );
    let _ = writeln!(
        out,
        "  served: {} connections, {} metric scrapes",
        summary.connections, summary.http_requests
    );
    for ((severity, rule), count) in summary.warning_counts.iter().rev() {
        let _ = writeln!(out, "  {count}x [{}] {rule}", severity.label());
    }
    if opts.metrics {
        let mut snapshot = hth_trace::MetricsSnapshot::default();
        handle.record_metrics(&mut snapshot);
        let _ = writeln!(out, "--- metrics ---");
        let _ = write!(out, "{}", publish_metrics(snapshot));
    }
    Ok(out)
}

/// One plain HTTP GET against the daemon's introspection surface (the
/// workspace is dependency-free, so this speaks just enough HTTP/1.1
/// itself). Returns the response body of a 200, an error otherwise.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(|e| format!("`{addr}`: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("`{addr}`: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from `{addr}`"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains("200") {
        return Err(format!("`{addr}{path}`: {status}"));
    }
    Ok(body.to_string())
}

/// Polls `/statusz` and renders the live fleet view. `--once` fetches a
/// single frame and returns it; live mode redraws in place until the
/// daemon goes away.
fn top(opts: TopOptions) -> Result<String, String> {
    if opts.once {
        return http_get(&opts.addr, "/statusz");
    }
    loop {
        let frame = http_get(&opts.addr, "/statusz")?;
        // Clear + home: a redrawn dashboard, not a scrollback flood.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms.max(50)));
    }
}

/// Drives synthetic sessions against a running daemon over loopback and
/// reports throughput and ack latency.
fn load(opts: LoadOptions) -> Result<String, String> {
    let report = hth_serve::run_load(opts.addr.as_str(), opts.sessions, opts.events)
        .map_err(|e| format!("load against `{}` failed: {e}", opts.addr))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "load: {} events over {} sessions in {:.2?} ({:.0} events/sec)",
        report.events,
        report.sessions,
        report.elapsed,
        report.events_per_sec(),
    );
    let _ = writeln!(
        out,
        "  ack latency: p50 <= {}us, p99 <= {}us over {} acks",
        report.ack_latency_us.quantile(0.5),
        report.ack_latency_us.quantile(0.99),
        report.ack_latency_us.count(),
    );
    let s = &report.server;
    let _ = writeln!(
        out,
        "  server: {} events total, {} resident of {} open, {} evictions, {} restores",
        s.events_total, s.sessions_resident, s.sessions_open, s.evictions, s.restores,
    );
    if opts.shutdown {
        let mut client =
            hth_serve::Client::connect(opts.addr.as_str()).map_err(|e| e.to_string())?;
        client.shutdown().map_err(|e| e.to_string())?;
        let _ = writeln!(out, "  daemon drained");
    }
    Ok(out)
}

/// Runs `opts.sessions` workload sessions through the sharded analyst
/// pool and renders the report. The catalog is the Table 8 exploit set,
/// cycled — or, with `--correlate`, the coordinated campaign whose
/// sessions are individually (near-)silent and only damn each other in
/// aggregate — or, with `--gen2`, the second-generation syscall-surface
/// workloads (mmap, pipes, select, signals, /proc).
fn fleet(opts: FleetOptions) -> Result<String, String> {
    let catalog = if opts.correlate {
        hth_workloads::coordinated::scenarios
    } else if opts.gen2 {
        hth_workloads::gen2::scenarios
    } else {
        hth_workloads::exploits::scenarios
    };
    let mut scenarios = Vec::with_capacity(opts.sessions);
    while scenarios.len() < opts.sessions {
        for scenario in catalog() {
            if scenarios.len() == opts.sessions {
                break;
            }
            scenarios.push(scenario);
        }
    }
    let mut config = FleetConfig::default();
    config.pool.shards = opts.shards;
    config.pool.queue_capacity = opts.queue;
    config.pool.batch_size = opts.batch_size;
    config.pool.backpressure =
        if opts.drop_oldest { Backpressure::DropOldest } else { Backpressure::Block };
    config.workers = opts.workers;
    if let Some(seed) = opts.chaos_seed {
        config.pool.faults = Some(Arc::new(FaultPlan::from_seed(seed)));
    }
    if opts.correlate {
        config.correlate = Some(hth_core::CorrelateConfig::default());
    }
    config.session.policy.trusted_binaries.extend(opts.trust.iter().cloned());
    if opts.trace.is_some() {
        hth_trace::set_enabled(true);
    }
    let report = hth_fleet::run_scenarios(scenarios, &config).map_err(|e| e.to_string())?;
    let mut out = report.render();
    if let Some(path) = &opts.digests {
        let stream = hth_fleet::write_digest_stream(&report.digests);
        std::fs::write(path, &stream)
            .map_err(|e| format!("cannot write digest stream `{path}`: {e}"))?;
        let _ = writeln!(
            out,
            "digests: {} sessions ({} bytes) written to {path}",
            report.digests.len(),
            stream.len(),
        );
    }
    if !report.match_stats.is_empty() {
        let _ = writeln!(out, "{}", render_match_stats(&report.match_stats, "  "));
    }
    if let Some(seed) = opts.chaos_seed {
        let _ = writeln!(
            out,
            "chaos: seed {seed}, {} lost of {} submitted, {} respawns (all accounted)",
            report.lost(),
            report.submitted,
            report.respawns,
        );
    }
    if let Some(path) = &opts.bundles {
        let json: Vec<String> = report.bundles.iter().map(|b| b.to_json()).collect();
        std::fs::write(path, format!("[{}]\n", json.join(",")))
            .map_err(|e| format!("cannot write bundles `{path}`: {e}"))?;
        let _ = writeln!(out, "bundles: {} written to {path}", report.bundles.len());
    }
    if opts.metrics {
        let _ = writeln!(out, "--- metrics ---");
        let _ = write!(out, "{}", publish_metrics(report.metrics()));
    }
    if let Some(path) = &opts.trace {
        let _ = writeln!(out, "{}", write_trace(path)?);
    }
    Ok(out)
}

/// Replays a journal through a fresh Secpert and prints the causal
/// tree behind warning number `index` (0-based, replay order). A
/// digest stream — told apart by its header version byte — is instead
/// fed to the fleet correlator, and the tree printed is fleet-level:
/// its supports are the per-session digest facts behind the correlated
/// warning, so it spans the contributing sessions.
fn explain(journal: &str, index: usize, trust: Vec<String>) -> Result<String, String> {
    let bytes =
        std::fs::read(journal).map_err(|e| format!("cannot read journal `{journal}`: {e}"))?;
    let digest_versions = hth_fleet::DIGEST_VERSION..=hth_fleet::DIGEST_VERSION;
    if frame::read_header(&bytes, &hth_fleet::wire::MAGIC, digest_versions).is_ok() {
        let digests =
            hth_fleet::read_digest_stream(&bytes).map_err(|e| format!("`{journal}`: {e}"))?;
        let mut correlator = hth_core::Correlator::new(hth_core::CorrelateConfig::default());
        for digest in digests {
            correlator.ingest(digest);
        }
        let report = correlator.correlate().map_err(|e| format!("`{journal}`: {e}"))?;
        let warning = report.warnings.get(index).ok_or_else(|| {
            format!(
                "`{journal}` correlated {} sessions into {} fleet warnings; index {index} is out of range (0-based)",
                report.sessions,
                report.warnings.len()
            )
        })?;
        return match &warning.provenance {
            Some(provenance) => Ok(provenance.render_tree(warning)),
            None => Err(format!("fleet warning {index} has no recorded provenance")),
        };
    }
    let mut policy = PolicyConfig::default();
    policy.trusted_binaries.extend(trust);
    let mut secpert = Secpert::new(&policy).map_err(|e| e.to_string())?;
    let reader =
        JournalReader::new(std::io::Cursor::new(bytes)).map_err(|e| format!("`{journal}`: {e}"))?;
    let warnings =
        hth_fleet::replay(reader, &mut secpert).map_err(|e| format!("`{journal}`: {e}"))?;
    let warning = warnings.get(index).ok_or_else(|| {
        format!(
            "`{journal}` replay produced {} warnings; index {index} is out of range (0-based)",
            warnings.len()
        )
    })?;
    match &warning.provenance {
        Some(provenance) => Ok(provenance.render_tree(warning)),
        None => Err(format!("warning {index} has no recorded provenance")),
    }
}

/// Replays a recorded journal through a fresh Secpert, printing every
/// warning the offline analysis reproduces. With `repair`, a damaged
/// journal is salvaged frame by frame instead of aborting: every
/// decodable prefix is replayed and the recovery report says exactly
/// what was dropped.
fn replay_journal(
    journal: &str,
    trust: Vec<String>,
    repair: bool,
    batch_size: usize,
) -> Result<String, String> {
    let mut policy = PolicyConfig::default();
    policy.trusted_binaries.extend(trust);
    let mut secpert = Secpert::new(&policy).map_err(|e| e.to_string())?;
    let (warnings, recovery) = if repair {
        let bytes =
            std::fs::read(journal).map_err(|e| format!("cannot read journal `{journal}`: {e}"))?;
        let (warnings, report) = hth_fleet::replay_repair_batched(&bytes, &mut secpert, batch_size)
            .map_err(|e| format!("`{journal}`: {e}"))?;
        (warnings, Some(report))
    } else {
        let file = std::fs::File::open(journal)
            .map_err(|e| format!("cannot read journal `{journal}`: {e}"))?;
        let reader = JournalReader::new(std::io::BufReader::new(file))
            .map_err(|e| format!("`{journal}`: {e}"))?;
        let warnings = hth_fleet::replay_batched(reader, &mut secpert, batch_size)
            .map_err(|e| format!("`{journal}`: {e}"))?;
        (warnings, None)
    };
    let mut out = String::new();
    if let Some(report) = &recovery {
        let _ = writeln!(out, "recovery: {}", report.render());
    }
    if warnings.is_empty() {
        let _ = writeln!(out, "clean: no warnings");
    } else {
        for warning in &warnings {
            let _ = writeln!(
                out,
                "t={} pid={} {} [{}] {}",
                warning.time,
                warning.pid,
                warning.rule,
                warning.severity.label(),
                warning.message
            );
        }
    }
    let _ = writeln!(out, "replay: {} warnings", warnings.len());
    let stats = secpert.match_stats();
    if !stats.is_empty() {
        let _ = writeln!(out, "{}", render_match_stats(&stats, ""));
    }
    Ok(out)
}

/// Builds the session from options, runs it, renders the report.
fn run(opts: RunOptions) -> Result<String, String> {
    let program = std::fs::read_to_string(&opts.source)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.source))?;
    let mut config = SessionConfig::default();
    config.harrier.track_dataflow = !opts.no_dataflow;
    config.harrier.track_bb_freq = !opts.no_bb;
    config.hybrid_static_analysis = opts.hybrid;
    config.policy.trusted_binaries.extend(opts.trust.iter().cloned());
    let mut session = Session::new(config).map_err(|e| e.to_string())?;

    // (writer, first append error) — the tap can't propagate errors, so
    // the first failure is parked here and reported after the run.
    type JournalSink =
        Arc<Mutex<(JournalWriter<std::io::BufWriter<std::fs::File>>, Option<String>)>>;
    let journal: Option<JournalSink> = match &opts.journal {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create journal `{path}`: {e}"))?;
            let writer = JournalWriter::new(std::io::BufWriter::new(file))
                .map_err(|e| format!("cannot start journal `{path}`: {e}"))?;
            let sink: JournalSink = Arc::new(Mutex::new((writer, None)));
            let tap = Arc::clone(&sink);
            session.set_event_tap(Box::new(move |event| {
                let mut guard = tap.lock().expect("journal sink poisoned");
                if guard.1.is_none() {
                    if let Err(e) = guard.0.append(event) {
                        guard.1 = Some(e.to_string());
                    }
                }
            }));
            Some(sink)
        }
        None => None,
    };

    for chunk in &opts.stdin {
        session.kernel.push_stdin(chunk.as_bytes().to_vec());
    }
    for (path, content) in &opts.files {
        session.kernel.vfs.install(path.clone(), FileNode::regular(content.as_bytes().to_vec()));
    }
    for (name, ip) in &opts.hosts {
        session.kernel.net.add_host(name, *ip);
    }
    for (endpoint, reply) in &opts.peers {
        let peer = match reply {
            Some(text) => Peer { on_connect: vec![text.as_bytes().to_vec()], ..Peer::default() },
            None => Peer::default(),
        };
        session.kernel.net.add_peer(*endpoint, peer);
    }
    for (port, send) in &opts.clients {
        let sends = send.iter().map(|s| s.as_bytes().to_vec()).collect();
        session.kernel.net.queue_client(
            *port,
            RemoteClient {
                from: Endpoint { ip: 0xc0a8_0101, port: 40000 },
                sends,
                received: Vec::new(),
            },
        );
    }
    let mut lib_names = Vec::new();
    for (name, path) in &opts.libs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read library `{path}`: {e}"))?;
        session.kernel.register_lib(name, &text);
        lib_names.push(name.clone());
    }
    let libs: Vec<&str> = lib_names.iter().map(String::as_str).collect();
    session.kernel.register_binary(&opts.source, &program, &libs);

    let mut argv: Vec<&str> = vec![&opts.source];
    argv.extend(opts.args.iter().map(String::as_str));
    let env: Vec<(&str, &str)> = opts.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    session.start(&opts.source, &argv, &env).map_err(|e| e.to_string())?;
    if opts.trace.is_some() {
        hth_trace::set_enabled(true);
    }
    let report = session.run().map_err(|e| e.to_string())?;

    let mut out = String::new();
    if opts.show_events {
        let _ = writeln!(out, "--- events ---");
        for event in session.events() {
            let _ = writeln!(out, "{event:?}");
        }
    }
    let transcript = session.take_transcript();
    if transcript.is_empty() {
        let _ = writeln!(out, "clean: no warnings");
    } else {
        let _ = write!(out, "{transcript}");
    }
    if opts.show_summary {
        let _ = writeln!(out, "--- summary ---");
        let _ = write!(out, "{}", session.summary());
    }
    if opts.metrics {
        let _ = writeln!(out, "--- metrics ---");
        let _ = write!(out, "{}", publish_metrics(session.metrics()));
    }
    if report.truncated {
        let _ = writeln!(out, "(run truncated at the instruction budget)");
    }
    for (pid, fault) in &report.faults {
        let _ = writeln!(out, "(pid {pid} crashed: {fault})");
    }
    if let Some(sink) = journal {
        drop(session); // releases the tap's Arc so the sink has one owner
        let (writer, error) = Arc::try_unwrap(sink)
            .unwrap_or_else(|_| unreachable!("tap dropped with the session"))
            .into_inner()
            .map_err(|_| "journal sink poisoned".to_string())?;
        let path = opts.journal.as_deref().unwrap_or_default();
        if let Some(e) = error {
            return Err(format!("journal `{path}` write failed: {e}"));
        }
        let events = writer.events();
        writer.finish().map_err(|e| format!("journal `{path}` flush failed: {e}"))?;
        let _ = writeln!(out, "journal: {events} events recorded to {path}");
    }
    if let Some(path) = &opts.trace {
        let _ = writeln!(out, "{}", write_trace(path)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_help_and_errors() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&strs(&["help"])).unwrap(), Command::Help);
        assert!(parse(&strs(&["bogus", "x.s"])).is_err());
        assert!(parse(&strs(&["run"])).is_err());
        assert!(parse(&strs(&["run", "x.s", "--nope"])).is_err());
        assert!(parse(&strs(&["run", "x.s", "--arg"])).is_err());
    }

    #[test]
    fn parse_run_options() {
        let cmd = parse(&strs(&[
            "run",
            "prog.s",
            "--arg",
            "a1",
            "--env",
            "K=V",
            "--stdin",
            "hello",
            "--file",
            "/etc/x=data",
            "--host",
            "c2=10.0.0.1",
            "--peer",
            "10.0.0.1:80=resp",
            "--client",
            "99=cmd",
            "--trust",
            "libfoo.so",
            "--no-dataflow",
            "--hybrid",
            "--summary",
        ]))
        .unwrap();
        let Command::Run(opts) = cmd else { panic!() };
        assert_eq!(opts.args, vec!["a1"]);
        assert_eq!(opts.env, vec![("K".to_string(), "V".to_string())]);
        assert_eq!(opts.hosts, vec![("c2".to_string(), 0x0a00_0001)]);
        assert_eq!(opts.peers[0].0, Endpoint { ip: 0x0a00_0001, port: 80 });
        assert_eq!(opts.peers[0].1.as_deref(), Some("resp"));
        assert_eq!(opts.clients, vec![(99, Some("cmd".to_string()))]);
        assert!(opts.no_dataflow && opts.hybrid && opts.show_summary);
        assert!(!opts.no_bb);
    }

    #[test]
    fn parse_fleet_options() {
        assert_eq!(parse(&strs(&["fleet"])).unwrap(), Command::Fleet(FleetOptions::default()));
        let cmd = parse(&strs(&[
            "fleet",
            "--sessions",
            "12",
            "--shards",
            "2",
            "--workers",
            "3",
            "--queue",
            "64",
            "--batch-size",
            "16",
            "--drop-oldest",
            "--trust",
            "libfoo.so",
        ]))
        .unwrap();
        let Command::Fleet(opts) = cmd else { panic!() };
        assert_eq!(opts.sessions, 12);
        assert_eq!(opts.shards, 2);
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.queue, 64);
        assert_eq!(opts.batch_size, 16);
        assert!(opts.drop_oldest);
        assert_eq!(opts.trust, vec!["libfoo.so"]);
        assert_eq!(FleetOptions::default().batch_size, 64);
        assert!(parse(&strs(&["fleet", "--shards", "0"])).is_err());
        assert!(parse(&strs(&["fleet", "--sessions"])).is_err());
        assert!(parse(&strs(&["fleet", "--batch-size", "0"])).is_err());
        assert!(parse(&strs(&["fleet", "--batch-size"])).is_err());
        assert!(parse(&strs(&["fleet", "--nope"])).is_err());
    }

    #[test]
    fn parse_fleet_correlate_options() {
        let cmd = parse(&strs(&["fleet", "--correlate", "--digests", "fleet.hthd"])).unwrap();
        let Command::Fleet(opts) = cmd else { panic!() };
        assert!(opts.correlate);
        assert_eq!(opts.digests.as_deref(), Some("fleet.hthd"));
        assert!(!FleetOptions::default().correlate);
        assert_eq!(FleetOptions::default().digests, None);
        assert!(parse(&strs(&["fleet", "--digests"])).is_err());
    }

    #[test]
    fn parse_fleet_gen2_option() {
        let cmd = parse(&strs(&["fleet", "--gen2", "--sessions", "5"])).unwrap();
        let Command::Fleet(opts) = cmd else { panic!() };
        assert!(opts.gen2);
        assert_eq!(opts.sessions, 5);
        assert!(!FleetOptions::default().gen2);
    }

    #[test]
    fn parse_replay_options() {
        assert_eq!(
            parse(&strs(&["replay", "events.hthj", "--trust", "make"])).unwrap(),
            Command::Replay {
                journal: "events.hthj".to_string(),
                trust: vec!["make".to_string()],
                repair: false,
                batch_size: 64,
            }
        );
        assert_eq!(
            parse(&strs(&["replay", "events.hthj", "--repair", "--batch-size", "7"])).unwrap(),
            Command::Replay {
                journal: "events.hthj".to_string(),
                trust: vec![],
                repair: true,
                batch_size: 7,
            }
        );
        assert!(parse(&strs(&["replay"])).is_err());
        assert!(parse(&strs(&["replay", "events.hthj", "--batch-size", "0"])).is_err());
        assert!(parse(&strs(&["replay", "events.hthj", "--batch-size"])).is_err());
        assert!(parse(&strs(&["replay", "events.hthj", "--nope"])).is_err());
    }

    #[test]
    fn parse_explain_options() {
        assert_eq!(
            parse(&strs(&["explain", "events.hthj", "2", "--trust", "make"])).unwrap(),
            Command::Explain {
                journal: "events.hthj".to_string(),
                index: 2,
                trust: vec!["make".to_string()],
            }
        );
        assert!(parse(&strs(&["explain"])).is_err());
        assert!(parse(&strs(&["explain", "events.hthj"])).is_err());
        assert!(parse(&strs(&["explain", "events.hthj", "x"])).is_err());
        assert!(parse(&strs(&["explain", "events.hthj", "0", "--nope"])).is_err());
    }

    #[test]
    fn parse_trace_and_metrics_flags() {
        let cmd = parse(&strs(&["fleet", "--trace", "t.json", "--metrics"])).unwrap();
        let Command::Fleet(opts) = cmd else { panic!() };
        assert_eq!(opts.trace.as_deref(), Some("t.json"));
        assert!(opts.metrics);
        let cmd = parse(&strs(&["run", "x.s", "--trace", "t.json", "--metrics"])).unwrap();
        let Command::Run(opts) = cmd else { panic!() };
        assert_eq!(opts.trace.as_deref(), Some("t.json"));
        assert!(opts.metrics);
        assert!(parse(&strs(&["fleet", "--trace"])).is_err());
        assert!(parse(&strs(&["run", "x.s", "--trace"])).is_err());
    }

    #[test]
    fn parse_serve_and_load_options() {
        assert_eq!(parse(&strs(&["serve"])).unwrap(), Command::Serve(ServeOptions::default()));
        let cmd = parse(&strs(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--budget-mb",
            "8",
            "--idle-ms",
            "500",
            "--trust",
            "libfoo.so",
            "--metrics",
        ]))
        .unwrap();
        let Command::Serve(opts) = cmd else { panic!() };
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.budget_mb, 8);
        assert_eq!(opts.idle_ms, Some(500));
        assert_eq!(opts.trust, vec!["libfoo.so"]);
        assert!(opts.metrics);
        assert!(parse(&strs(&["serve", "--workers", "0"])).is_err());
        assert!(parse(&strs(&["serve", "--budget-mb"])).is_err());
        assert!(parse(&strs(&["serve", "--nope"])).is_err());

        assert_eq!(parse(&strs(&["load"])).unwrap(), Command::Load(LoadOptions::default()));
        let cmd = parse(&strs(&[
            "load",
            "--addr",
            "127.0.0.1:9",
            "--sessions",
            "3",
            "--events",
            "7",
            "--shutdown",
        ]))
        .unwrap();
        let Command::Load(opts) = cmd else { panic!() };
        assert_eq!(opts.addr, "127.0.0.1:9");
        assert_eq!(opts.sessions, 3);
        assert_eq!(opts.events, 7);
        assert!(opts.shutdown);
        assert!(parse(&strs(&["load", "--sessions", "0"])).is_err());
        assert!(parse(&strs(&["load", "--nope"])).is_err());
    }

    #[test]
    fn serve_and_load_end_to_end() {
        // Bind the daemon on a free port directly (the CLI path would
        // hide the chosen port inside the blocking execute call), then
        // drive it with the real `hth load` executor.
        let server = hth_serve::Server::bind(hth_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..hth_serve::ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let join = std::thread::spawn(move || server.run().unwrap());

        let out =
            execute(Command::Load(LoadOptions { addr, sessions: 3, events: 10, shutdown: true }))
                .unwrap();
        assert!(out.contains("load: 30 events over 3 sessions"), "{out}");
        assert!(out.contains("ack latency: p50 <= "), "{out}");
        assert!(out.contains("server: 30 events total"), "{out}");
        assert!(out.contains("daemon drained"), "{out}");

        let summary = join.join().unwrap();
        assert_eq!(summary.stats.events_total, 30);
    }

    #[test]
    fn parse_chaos_seed() {
        let cmd = parse(&strs(&["fleet", "--chaos-seed", "7"])).unwrap();
        let Command::Fleet(opts) = cmd else { panic!() };
        assert_eq!(opts.chaos_seed, Some(7));
        assert!(parse(&strs(&["fleet", "--chaos-seed"])).is_err());
        assert!(parse(&strs(&["fleet", "--chaos-seed", "x"])).is_err());
        assert!(parse(&strs(&["fleet", "--chaos-seed", "-1"])).is_err());
    }

    #[test]
    fn parse_ip_validation() {
        assert_eq!(parse_ip("1.2.3.4").unwrap(), 0x0102_0304);
        assert!(parse_ip("1.2.3").is_err());
        assert!(parse_ip("1.2.3.999").is_err());
    }

    #[test]
    fn run_reports_warnings_end_to_end() {
        let dir = std::env::temp_dir().join("hth-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("dropper.s");
        std::fs::write(
            &src,
            "_start:\n mov eax, 11\n mov ebx, prog\n int 0x80\n hlt\n.data\nprog: .asciz \"/bin/ls\"\n",
        )
        .unwrap();
        let out = execute(Command::Run(Box::new(RunOptions {
            source: src.to_string_lossy().into_owned(),
            show_summary: true,
            ..RunOptions::default()
        })))
        .unwrap();
        assert!(out.contains("Warning [LOW]"), "{out}");
        assert!(out.contains("--- summary ---"), "{out}");
    }

    #[test]
    fn audit_and_listing_end_to_end() {
        let dir = std::env::temp_dir().join("hth-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("trojan.s");
        std::fs::write(&src, "_start:\n hlt\n.data\np: .asciz \"/bin/sh\"\n").unwrap();
        let path = src.to_string_lossy().into_owned();
        let audit_out = execute(Command::Audit { source: path.clone() }).unwrap();
        assert!(audit_out.contains("NOT secure"), "{audit_out}");
        assert!(audit_out.contains("/bin/sh"));
        let listing_out = execute(Command::Listing { source: path }).unwrap();
        assert!(listing_out.contains("hlt"), "{listing_out}");
    }

    #[test]
    fn journal_then_replay_end_to_end() {
        let dir = std::env::temp_dir().join("hth-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("journaled.s");
        std::fs::write(
            &src,
            "_start:\n mov eax, 11\n mov ebx, prog\n int 0x80\n hlt\n.data\nprog: .asciz \"/bin/ls\"\n",
        )
        .unwrap();
        let journal = dir.join("journaled.hthj");
        let run_out = execute(Command::Run(Box::new(RunOptions {
            source: src.to_string_lossy().into_owned(),
            journal: Some(journal.to_string_lossy().into_owned()),
            ..RunOptions::default()
        })))
        .unwrap();
        assert!(run_out.contains("Warning [LOW]"), "{run_out}");
        assert!(run_out.contains("events recorded"), "{run_out}");

        let replay_out = execute(Command::Replay {
            journal: journal.to_string_lossy().into_owned(),
            trust: Vec::new(),
            repair: false,
            batch_size: 64,
        })
        .unwrap();
        assert!(replay_out.contains("[LOW]"), "{replay_out}");
        assert!(replay_out.contains("replay: 1 warnings"), "{replay_out}");

        // --repair on an intact journal is a no-op salvage: same
        // warnings, clean recovery report.
        let repair_out = execute(Command::Replay {
            journal: journal.to_string_lossy().into_owned(),
            trust: Vec::new(),
            repair: true,
            batch_size: 1,
        })
        .unwrap();
        assert!(repair_out.contains("replay: 1 warnings"), "{repair_out}");
        assert!(repair_out.contains("clean EOF"), "{repair_out}");
    }

    #[test]
    fn repair_salvages_a_truncated_journal() {
        let dir = std::env::temp_dir().join("hth-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("torn.s");
        std::fs::write(
            &src,
            "_start:\n mov eax, 11\n mov ebx, prog\n int 0x80\n hlt\n.data\nprog: .asciz \"/bin/ls\"\n",
        )
        .unwrap();
        let journal = dir.join("torn.hthj");
        execute(Command::Run(Box::new(RunOptions {
            source: src.to_string_lossy().into_owned(),
            journal: Some(journal.to_string_lossy().into_owned()),
            ..RunOptions::default()
        })))
        .unwrap();
        // Tear the tail: chop the last 3 bytes off the recorded file.
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - 3]).unwrap();

        let path = journal.to_string_lossy().into_owned();
        let strict = execute(Command::Replay {
            journal: path.clone(),
            trust: vec![],
            repair: false,
            batch_size: 64,
        });
        assert!(strict.is_err(), "strict replay must fail on a torn journal");
        let repaired =
            execute(Command::Replay { journal: path, trust: vec![], repair: true, batch_size: 64 })
                .unwrap();
        assert!(repaired.contains("torn tail"), "{repaired}");
        assert!(repaired.contains("replay:"), "{repaired}");
    }

    #[test]
    fn small_fleet_end_to_end() {
        let out = execute(Command::Fleet(FleetOptions {
            sessions: 4,
            shards: 2,
            workers: 2,
            ..FleetOptions::default()
        }))
        .unwrap();
        assert!(out.contains("fleet: 4 sessions"), "{out}");
        assert!(out.contains("[HIGH]"), "{out}");
        assert!(out.contains("  match: "), "{out}");
    }

    /// `--gen2` swaps in the second-generation catalog: the report must
    /// count the laundered execve and the /proc introspection, and the
    /// trusted select server (session 5 of 5) must add nothing — in
    /// particular no backdoor-server warning.
    #[test]
    fn gen2_fleet_end_to_end() {
        let out = execute(Command::Fleet(FleetOptions {
            sessions: 5,
            shards: 2,
            workers: 2,
            gen2: true,
            ..FleetOptions::default()
        }))
        .unwrap();
        assert!(out.contains("fleet: 5 sessions"), "{out}");
        assert!(out.contains("[HIGH] check_execve"), "{out}");
        assert!(out.contains("check_proc_introspection"), "{out}");
        assert!(out.contains("check_process_kill"), "{out}");
        assert!(!out.contains("check_backdoor_server"), "{out}");
    }

    /// Batched and per-event analyst loops must report the same fleet:
    /// same rendered warning lines (the report sorts them), same
    /// per-severity counts.
    #[test]
    fn fleet_batch_sizes_agree_end_to_end() {
        let run = |batch_size: usize| {
            execute(Command::Fleet(FleetOptions {
                sessions: 4,
                shards: 2,
                workers: 2,
                batch_size,
                ..FleetOptions::default()
            }))
            .unwrap()
        };
        let batched = run(64);
        let serial = run(1);
        let warning_lines = |out: &str| {
            out.lines()
                .filter(|l| l.contains("[HIGH]") || l.contains("[MEDIUM]") || l.contains("[LOW]"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(warning_lines(&batched), warning_lines(&serial), "{batched}\n---\n{serial}");
    }

    #[test]
    fn journal_then_explain_end_to_end() {
        let dir = std::env::temp_dir().join("hth-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("explained.s");
        std::fs::write(
            &src,
            "_start:\n mov eax, 11\n mov ebx, prog\n int 0x80\n hlt\n.data\nprog: .asciz \"/bin/ls\"\n",
        )
        .unwrap();
        let journal = dir.join("explained.hthj");
        execute(Command::Run(Box::new(RunOptions {
            source: src.to_string_lossy().into_owned(),
            journal: Some(journal.to_string_lossy().into_owned()),
            ..RunOptions::default()
        })))
        .unwrap();

        let path = journal.to_string_lossy().into_owned();
        let tree =
            execute(Command::Explain { journal: path.clone(), index: 0, trust: vec![] }).unwrap();
        assert!(tree.contains("└─ firing #"), "{tree}");
        assert!(tree.contains("rule chain:"), "{tree}");
        assert!(tree.contains("/bin/ls"), "{tree}");
        let err = execute(Command::Explain { journal: path, index: 99, trust: vec![] });
        assert!(err.is_err());
        assert!(err.unwrap_err().contains("out of range"));
    }

    /// `hth fleet --correlate --digests` runs the coordinated campaign,
    /// prints the fleet warnings, and writes a digest stream that
    /// `hth explain` turns into a cross-session causal tree.
    #[test]
    fn fleet_correlate_then_explain_end_to_end() {
        let dir = std::env::temp_dir().join("hth-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let digests = dir.join("fleet.hthd");
        let out = execute(Command::Fleet(FleetOptions {
            sessions: 12,
            shards: 2,
            workers: 2,
            correlate: true,
            digests: Some(digests.to_string_lossy().into_owned()),
            ..FleetOptions::default()
        }))
        .unwrap();
        assert!(out.contains("fleet correlation: 12 sessions"), "{out}");
        assert!(out.contains("shared_c2"), "{out}");
        assert!(out.contains("recurring_dropper"), "{out}");
        assert!(out.contains("distributed_exfil"), "{out}");
        assert!(out.contains("digests: 12 sessions"), "{out}");

        let path = digests.to_string_lossy().into_owned();
        let tree =
            execute(Command::Explain { journal: path.clone(), index: 0, trust: vec![] }).unwrap();
        assert!(tree.contains("rule chain:"), "{tree}");
        assert!(tree.contains("digest-stream"), "{tree}");
        // The fleet tree names the sessions that conspired.
        assert!(tree.contains("session-"), "{tree}");
        let err = execute(Command::Explain { journal: path, index: 99, trust: vec![] });
        assert!(err.unwrap_err().contains("out of range"));
    }

    #[test]
    fn fleet_trace_and_metrics_end_to_end() {
        let dir = std::env::temp_dir().join("hth-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("fleet-trace.json");
        let out = execute(Command::Fleet(FleetOptions {
            sessions: 2,
            shards: 2,
            workers: 2,
            trace: Some(trace.to_string_lossy().into_owned()),
            metrics: true,
            ..FleetOptions::default()
        }))
        .unwrap();
        assert!(out.contains("--- metrics ---"), "{out}");
        assert!(out.contains("hth_pool_events"), "{out}");
        assert!(out.contains("hth_taint_interned_sets"), "{out}");
        assert!(out.contains("trace: "), "{out}");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with("{\"displayTimeUnit\""), "{json}");
        assert!(json.contains("\"name\":\"pool.analyst\""), "{}", &json[..200.min(json.len())]);
    }

    #[test]
    fn clean_program_reports_clean() {
        let dir = std::env::temp_dir().join("hth-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("clean.s");
        std::fs::write(&src, "_start:\n mov eax, 1\n mov ebx, 0\n int 0x80\n").unwrap();
        let out = execute(Command::Run(Box::new(RunOptions {
            source: src.to_string_lossy().into_owned(),
            ..RunOptions::default()
        })))
        .unwrap();
        assert!(out.contains("clean: no warnings"), "{out}");
    }
}
