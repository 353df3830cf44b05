//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` names the same metrics; the benchmark's tests check
//! that the two lists agree and that every workload prints every metric.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, reported by every workload with
/// tracing off. What the unit of work is on each workload is set out in
/// `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
];

/// Per-layer metrics: `(name, unit)`, reported by every workload's
/// traced run. A layer the workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session.new_us_p50", "us"),
    ("session.start_us_p50", "us"),
    ("session.run_ms_p99", "ms"),
    ("session.run_ns_per_instr", "ns"),
    ("secpert.restore_us", "us"),
    ("secpert.snapshot_us", "us"),
    ("kernel.fork_us_p50", "us"),
    ("vm.instructions", "count"),
    ("kernel.forks", "count"),
    ("harrier.events", "count"),
    ("harrier.memo_hit_ratio", "ratio"),
    ("harrier.memo_lookups", "count"),
    ("pool.submit_wait_us", "us"),
    ("pool.drain_ms", "ms"),
    ("pool.queue_high_water", "count"),
    ("match.activations", "count"),
    ("correlate.ms", "ms"),
    ("client.submit_us_p50", "us"),
    ("loadgen.lag_ms_max", "ms"),
    ("table.submit_resident_us_p50", "us"),
    ("table.submit_revive_us_p50", "us"),
    ("table.restores", "count"),
    ("table.evictions", "count"),
    ("table.fallback_replays", "count"),
    ("table.revive_ratio", "ratio"),
    ("table.submits", "count"),
    ("latency.ms_p99", "ms"),
    ("latency.samples", "count"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values a workload produced.
pub type Values = BTreeMap<&'static str, f64>;

/// One run's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sessions or requests).
    pub attempted: u64,
    /// Attempted operations whose correctness check failed.
    pub failed: u64,
    /// Why operations failed, one line per distinct check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: Values,
}

impl Outcome {
    /// Counts `operations` attempted. When `failures` is not empty, all
    /// of them failed.
    pub fn record(&mut self, operations: u64, failures: Vec<String>) {
        self.attempted += operations;
        if !failures.is_empty() {
            self.failed += operations;
        }
        self.note(failures);
    }

    /// Keeps each distinct failure description once.
    pub fn note(&mut self, failures: Vec<String>) {
        for failure in failures {
            if !self.failures.contains(&failure) {
                self.failures.push(failure);
            }
        }
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric of `catalogue` with its unit. A metric the outcome lacks reads
/// 0; a non-finite value is a bug in the benchmark.
pub fn result_line(outcome: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = outcome.values.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.failures.is_empty() && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
