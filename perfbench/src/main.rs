//! The repository benchmark.
//!
//! ```text
//! perfbench --workload corpus|dataflow|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the seeded inputs (several times, timing each set-up), runs
//! the workload for `S` seconds, checks every output against its
//! reference and prints one JSON result as the last line of stdout.
//! With `--trace 0` the result carries the end-to-end metrics. With
//! `--trace 1` half the time runs untraced and half traced, with spans
//! around every layer call; the result carries the per-layer metrics,
//! and the spans are written to `.bench_out/`. See `README.md` beside
//! this crate for what each workload and metric means.

mod corpus;
mod dataflow;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{Outcome, Values, END_TO_END, PER_LAYER};
use stats::Samples;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = ["corpus", "dataflow", "serve"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(parsed)
}

/// One workload behind a uniform set-up / measure / per-layer interface.
pub(crate) trait Workload: Sized {
    /// Builds the inputs (and any daemons) for a measurement of
    /// `seconds`.
    fn setup(seed: u64, seconds: f64) -> Result<Self, String>;
    /// Runs for `seconds`, checks every output, and returns the
    /// end-to-end figures plus per-pass counters.
    fn measure(&mut self, seconds: f64, traced: bool) -> Result<Outcome, String>;
    /// Per-layer figures from the traced half's spans.
    fn layers(spans: &[trace::Span], counters: &Values) -> Values;
}

/// Sets up `setups` times, keeping the last state; returns it with the
/// median set-up time in seconds.
fn timed_setup<W: Workload>(seed: u64, seconds: f64, setups: usize) -> Result<(W, f64), String> {
    let mut times = Samples::default();
    let mut state = None;
    for _ in 0..setups.max(1) {
        drop(state.take());
        let started = Instant::now();
        state = Some(W::setup(seed, seconds)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), times.median()))
}

/// Peak resident set of this process, in MiB (`getrusage`'s
/// `ru_maxrss`, which Linux reports in KiB).
fn peak_rss_mb() -> f64 {
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 words), then
    // 14 `long` fields, the first of which is `ru_maxrss`.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a live, writable buffer of 144 bytes, the size
    // of `struct rusage` on 64-bit Linux; who = 0 is RUSAGE_SELF.
    if unsafe { getrusage(0, usage.as_mut_ptr()) } != 0 {
        return 0.0;
    }
    usage[4] as f64 / 1024.0
}

fn print_values(label: &str, values: &Values, catalogue: &[(&str, &str)]) {
    for (name, unit) in catalogue {
        println!("{label} {name} = {} {unit}", values.get(name).copied().unwrap_or(0.0));
    }
}

/// Runs one workload with `setups` timed set-ups; the outcome's values
/// hold the end-to-end metrics (untraced) or the per-layer metrics
/// (traced).
fn run<W: Workload>(args: &Args, setups: usize) -> Result<Outcome, String> {
    if !args.trace {
        let (mut state, setup_s) = timed_setup::<W>(args.seed, args.seconds, setups)?;
        let mut outcome = state.measure(args.seconds, false)?;
        drop(state);
        outcome.values.insert("setup_s", setup_s);
        outcome.values.insert("peak_rss_mb", peak_rss_mb());
        return Ok(outcome);
    }
    let half = args.seconds / 2.0;
    let (mut state, setup_s) = timed_setup::<W>(args.seed, half, setups)?;
    let mut plain = state.measure(half, false)?;
    drop(state);
    plain.values.insert("setup_s", setup_s);
    print_values("untraced", &plain.values, END_TO_END);

    let mut state = W::setup(args.seed, half)?;
    trace::enable();
    let measured = state.measure(half, true);
    let spans = trace::disable();
    drop(state);
    let mut traced = measured?;
    print_values("traced", &traced.values, &END_TO_END[2..]);
    println!("traced latency.ms_p99 = {} ms", traced.values["latency.ms_p99"]);

    let overhead = plain.values["throughput_per_s"] / traced.values["throughput_per_s"] - 1.0;
    let layers = W::layers(&spans, &traced.values);
    traced.values.extend(layers);
    for name in ["latency.ms_p99", "latency.samples"] {
        traced.values.insert(name, plain.values[name]);
    }
    traced.values.insert("trace.overhead_pct", overhead * 100.0);
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.note(plain.failures);
    for (name, (self_ms, count)) in trace::self_time_by_name(&spans) {
        println!("span {name}: {count} spans, self time {self_ms:.3} ms");
    }
    let path =
        PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    trace::write_tsv(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(traced)
}

fn run_named(args: &Args, setups: usize) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "corpus" => run::<corpus::Corpus>(args, setups),
        "dataflow" => run::<dataflow::Dataflow>(args, setups),
        _ => run::<serve::Serve>(args, setups),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload corpus|dataflow|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} cpus {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let outcome = run_named(&args, SETUPS);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        print_values("metric", &outcome.values, END_TO_END);
    }
    println!("{}", report::result_line(&outcome, catalogue));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args, Args { workload: "serve".into(), seed: 7, seconds: 10.0, trace: true });
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve", "--seed"])).is_err());
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let field = |text: &str, key: &str| -> Option<(String, usize)> {
            let start = text.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let len = text[start..].find('"')?;
            Some((text[start..start + len].to_string(), start + len))
        };
        let mut pairs = Vec::new();
        let mut rest = section;
        while let Some((name, after)) = field(rest, "name") {
            let (unit, end) = field(&rest[after..], "unit").expect("every metric has a unit");
            pairs.push((name, unit));
            rest = &rest[after + end..];
        }
        pairs
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e = &json[json.find("\"end_to_end\"").expect("end_to_end")..];
        let (e2e, layers) = e2e.split_at(e2e.find("\"per_layer\"").expect("per_layer"));
        assert_eq!(listed(e2e), owned(END_TO_END));
        assert_eq!(listed(layers), owned(PER_LAYER));
        for workload in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")), "{workload} listed");
        }
    }

    #[test]
    fn every_workload_prints_every_metric_with_its_unit() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args { workload: workload.into(), seed: 9, seconds: 0.2, trace };
                let outcome = run_named(&args, 1).expect("tiny run");
                assert_eq!(outcome.failures, Vec::<String>::new(), "{workload}");
                let line =
                    report::result_line(&outcome, if trace { PER_LAYER } else { END_TO_END });
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
                for (name, unit) in if trace { PER_LAYER } else { END_TO_END } {
                    let value = outcome.values.get(name).copied().unwrap_or(0.0);
                    let printed =
                        format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
                    assert!(line.contains(&printed), "{workload}: {printed} missing from {line}");
                    if !trace {
                        assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
                    }
                }
            }
        }
    }
}
