//! `dataflow`: the `hth run` path with inline analysis, on generated
//! programs that move real data.
//!
//! Each session runs a generated program: it connects to a hardcoded
//! peer, receives a 16-byte key, then reads a hardcoded input file in
//! 4 KiB chunks, XORs every byte with the key and sends each chunk to
//! the peer. Output bytes carry both the file's and the socket's taint,
//! so tag unions go through the `TagStore` memo.
//!
//! Why: this is where `hth-vm` interpretation, `harrier` shadow/taint
//! and the read/send syscalls do the work. No session forks, and policy
//! compile and spawn are amortised over ~10⁵ instructions per session.

use std::collections::BTreeMap;
use std::time::Instant;

use emukernel::{Endpoint, FileNode, Peer};
use hth_core::{Session, SessionConfig, Severity, Warning};

use crate::report::{Outcome, Values};
use crate::rng::Rng;
use crate::stats::Samples;
use crate::trace::{self, Span};
use crate::Workload;

/// Sessions in one pass; their input sizes are stratified so every pass
/// (and every seed) covers the same size range.
pub const SESSIONS: usize = 16;
/// Smallest input, in bytes; session `k` of a pass reads about
/// `MIN_INPUT + k * INPUT_STEP` bytes.
const MIN_INPUT: usize = 2 << 10;
const INPUT_STEP: usize = 3 << 10;
const KEY_LEN: usize = 16;
const INBUF: u32 = 0x0900_0000;
const OUTBUF: u32 = 0x0900_1000;
const KEYBUF: u32 = 0x0900_2000;

/// One generated session: program, inputs and the bytes the peer must
/// receive.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Registered binary path.
    pub path: String,
    /// Assembly source.
    pub source: String,
    /// Hardcoded input file.
    pub input_path: String,
    /// Input file contents.
    pub input: Vec<u8>,
    /// Key the peer sends on connect.
    pub key: Vec<u8>,
    /// The hardcoded peer.
    pub peer: Endpoint,
    /// What the peer must receive: `input[i] ^ key[i % 16]`.
    pub expected: Vec<u8>,
}

/// Generates one pass's sessions for `seed`.
pub fn jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, 2);
    let mut slots: Vec<usize> = (0..SESSIONS).collect();
    rng.shuffle(&mut slots);
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let len = MIN_INPUT + slot * INPUT_STEP + rng.below(INPUT_STEP);
            let input = rng.bytes(len);
            let key = rng.bytes(KEY_LEN);
            let expected = input.iter().enumerate().map(|(i, b)| b ^ key[i % KEY_LEN]).collect();
            let peer = Endpoint { ip: 0x0a00_0100 + i as u32, port: 9000 + rng.below(1000) as u16 };
            let input_path = format!("/var/spool/in{}_{:04x}.dat", i, rng.below(1 << 16));
            Job {
                path: format!("/opt/xfer/xfer{i}"),
                source: program(&input_path, peer),
                input_path,
                input,
                key,
                peer,
                expected,
            }
        })
        .collect()
}

/// The transfer program: connect, receive the key, then read, transform
/// and send 4 KiB chunks until end of file.
fn program(input_path: &str, peer: Endpoint) -> String {
    format!(
        "_start:
    mov eax, 102
    mov ebx, 1
    mov ecx, sock_args
    int 0x80
    mov [fd_sock], eax
    mov [conn_args], eax
    mov [recv_args], eax
    mov [send_args], eax
    mov eax, 102
    mov ebx, 3
    mov ecx, conn_args
    int 0x80
    mov eax, 102
    mov ebx, 10
    mov ecx, recv_args
    int 0x80
    mov eax, 5
    mov ebx, in_path
    mov ecx, 0
    int 0x80
    mov [fd_in], eax
next_chunk:
    mov eax, 3
    mov ebx, [fd_in]
    mov ecx, {INBUF:#x}
    mov edx, 4096
    int 0x80
    cmp eax, 0
    jle done
    mov [send_args+8], eax
    mov esi, eax
    mov ecx, 0
transform:
    mov ebx, ecx
    and ebx, {mask}
    movb eax, [ebx+{KEYBUF:#x}]
    movb edx, [ecx+{INBUF:#x}]
    xor eax, edx
    movb [ecx+{OUTBUF:#x}], eax
    inc ecx
    cmp ecx, esi
    jl transform
    mov eax, 102
    mov ebx, 9
    mov ecx, send_args
    int 0x80
    jmp next_chunk
done:
    mov eax, 1
    mov ebx, 0
    int 0x80
.data
sock_args: .long 2, 1, 0
addr: .word 2
port: .word {port}
ip: .long {ip:#x}
conn_args: .long 0, addr, 8
recv_args: .long 0, {KEYBUF:#x}, {KEY_LEN}, 0
send_args: .long 0, {OUTBUF:#x}, 0, 0
fd_sock: .long 0
fd_in: .long 0
in_path: .asciz \"{input_path}\"
",
        mask = KEY_LEN - 1,
        port = peer.port,
        ip = peer.ip,
    )
}

/// What one session showed, as the checks see it.
#[derive(Debug, Default)]
pub struct Observed {
    /// Everything the peer received, concatenated.
    pub received: Vec<u8>,
    /// Warnings the session raised.
    pub warnings: Vec<Warning>,
    /// The instruction budget stopped the run.
    pub truncated: bool,
    /// Faults of crashed processes.
    pub faults: Vec<String>,
}

/// Checks one session against its job; returns what failed.
pub fn check_session(observed: &Observed, expected: &[u8]) -> Vec<String> {
    let mut failures = Vec::new();
    if observed.received != expected {
        failures.push(format!(
            "dataflow: peer received {} bytes, expected {} transformed bytes",
            observed.received.len(),
            expected.len()
        ));
    }
    if !observed
        .warnings
        .iter()
        .any(|w| w.severity == Severity::High && w.rule == "flow_file_to_socket")
    {
        failures.push("dataflow: no High flow_file_to_socket warning".into());
    }
    if observed.truncated {
        failures.push("dataflow: a run hit the instruction budget".into());
    }
    if !observed.faults.is_empty() {
        failures.push(format!("dataflow: faults {:?}", observed.faults));
    }
    failures
}

/// Per-session figures.
struct Figures {
    ms: f64,
    instructions: u64,
    events: u64,
    memo_hits: u64,
    memo_misses: u64,
    activations: u64,
}

/// Runs one job as a monitored session with inline analysis.
fn run_job(job: &Job, sid: u64) -> Result<(Observed, Figures), String> {
    let started = Instant::now();
    let _session_span = trace::span("session", sid);
    let mut session = {
        let _s = trace::span("session.new", sid);
        Session::new(SessionConfig::default()).map_err(|e| e.to_string())?
    };
    {
        let _s = trace::span("session.setup", sid);
        session.kernel.register_binary(&job.path, &job.source, &[]);
        session.kernel.vfs.install(job.input_path.clone(), FileNode::regular(job.input.clone()));
        session
            .kernel
            .net
            .add_peer(job.peer, Peer { on_connect: vec![job.key.clone()], ..Peer::default() });
    }
    {
        let _s = trace::span("session.start", sid);
        session.start(&job.path, &[job.path.as_str()], &[]).map_err(|e| e.to_string())?;
    }
    let report = {
        let _s = trace::span("session.run", sid);
        session.run().map_err(|e| e.to_string())?
    };
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let taint = session.taint_stats();
    let figures = Figures {
        ms,
        instructions: report.instructions,
        events: session.events().len() as u64,
        memo_hits: taint.memo_hits,
        memo_misses: taint.memo_misses,
        activations: session.secpert_mut().match_stats().activations,
    };
    let observed = Observed {
        received: session.kernel.net.peer_received(job.peer).concat(),
        warnings: session.warnings().to_vec(),
        truncated: report.truncated,
        faults: report.faults.iter().map(|(pid, f)| format!("pid {pid}: {f}")).collect(),
    };
    Ok((observed, figures))
}

/// The dataflow workload's inputs.
pub struct Dataflow {
    jobs: Vec<Job>,
}

impl Workload for Dataflow {
    /// Generates the seeded programs and inputs and runs one warm-up
    /// pass.
    fn setup(seed: u64, _seconds: f64) -> Result<Dataflow, String> {
        let jobs = jobs(seed);
        for (i, job) in jobs.iter().enumerate() {
            let (observed, _) = run_job(job, i as u64)?;
            let failures = check_session(&observed, &job.expected);
            if !failures.is_empty() {
                return Err(format!("warm-up session {i} failed: {}", failures.join("; ")));
            }
        }
        Ok(Dataflow { jobs })
    }

    /// Runs passes over the jobs until `seconds` have elapsed (at least
    /// one). Throughput is sessions over the time spent in passes.
    fn measure(&mut self, seconds: f64, _traced: bool) -> Result<Outcome, String> {
        let mut outcome = Outcome::default();
        let mut session_ms = Samples::default();
        let (mut sessions, mut busy_s) = (0u64, 0.0);
        let mut per_pass: BTreeMap<&'static str, Samples> = BTreeMap::new();
        let started = Instant::now();
        let mut passes = 0u64;
        while passes == 0 || started.elapsed().as_secs_f64() < seconds {
            let _pass = trace::span("dataflow.pass", passes);
            let t = Instant::now();
            let mut totals = [0u64; 5];
            for (i, job) in self.jobs.iter().enumerate() {
                let sid = passes * SESSIONS as u64 + i as u64;
                let failures = match run_job(job, sid) {
                    Ok((observed, figures)) => {
                        session_ms.push(figures.ms);
                        for (total, value) in totals.iter_mut().zip([
                            figures.instructions,
                            figures.events,
                            figures.memo_hits,
                            figures.memo_misses,
                            figures.activations,
                        ]) {
                            *total += value;
                        }
                        check_session(&observed, &job.expected)
                    }
                    Err(e) => vec![format!("dataflow: {e}")],
                };
                outcome.record(1, failures);
            }
            busy_s += t.elapsed().as_secs_f64();
            sessions += self.jobs.len() as u64;
            passes += 1;
            let [instructions, events, hits, misses, activations] = totals;
            for (name, value) in [
                ("vm.instructions", instructions as f64),
                ("harrier.events", events as f64),
                ("harrier.memo_lookups", (hits + misses) as f64),
                ("harrier.memo_hit_ratio", hits as f64 / (hits + misses).max(1) as f64),
                ("match.activations", activations as f64),
            ] {
                per_pass.entry(name).or_default().push(value);
            }
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
            "dataflow: {passes} passes of {} sessions, {:.1} sessions/s; \
             session ms p50 {:.4} p99 {:.4} (n={})",
            self.jobs.len(),
            sessions as f64 / busy_s,
            session_ms.median(),
            session_ms.quantile(0.99),
            session_ms.len()
        );
        Ok(outcome)
    }

    fn layers(spans: &[Span], counters: &Values) -> Values {
        trace::session_layers(spans, "dataflow.pass", counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_delivers_the_transformed_bytes_and_a_wrong_reference_fails() {
        let job = jobs(3).into_iter().min_by_key(|j| j.input.len()).expect("jobs");
        let (observed, figures) = run_job(&job, 0).expect("session runs");
        assert_eq!(check_session(&observed, &job.expected), Vec::<String>::new());
        assert!(figures.memo_hits > 0, "file and socket taint unions reach the memo");

        let mut wrong = job.expected.clone();
        let middle = wrong.len() / 2;
        wrong[middle] ^= 1;
        assert!(!check_session(&observed, &wrong).is_empty(), "a changed byte is caught");
        let silent = Observed { received: observed.received.clone(), ..Observed::default() };
        assert!(!check_session(&silent, &job.expected).is_empty(), "a missing warning is caught");
        let cut = Observed { truncated: true, ..observed };
        assert!(!check_session(&cut, &job.expected).is_empty(), "truncation is caught");
    }

    #[test]
    fn the_seed_names_the_inputs() {
        assert_eq!(jobs(5), jobs(5));
        assert_ne!(jobs(5), jobs(6));
        let sizes: Vec<usize> = jobs(5).iter().map(|j| j.input.len()).collect();
        assert!(sizes.iter().all(|&n| (MIN_INPUT..MIN_INPUT + SESSIONS * INPUT_STEP).contains(&n)));
    }
}
