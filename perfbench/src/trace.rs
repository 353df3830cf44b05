//! The traced run's span recorder. Spans are opened by the benchmark
//! around its calls into each layer's public entry points (the program
//! itself carries no tracing), kept in memory, and written out when the
//! run ends.
//!
//! Every traced call happens on the benchmark's own thread (session
//! event taps run inside `Session::run`), so the recorder is a
//! thread-local and a span's parent is whatever span is open around it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::report::Values;
use crate::stats::Samples;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span covers (`session.run`, `pool.finish`, …).
    pub name: &'static str,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// The session, pass or request the span belongs to.
    pub session: u64,
    /// Nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was enabled.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding earlier spans.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() =
            Some(Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() });
    });
}

/// Stops recording and hands back every span recorded since
/// [`enable`], in start order.
pub fn disable() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// An open span; it closes when dropped.
#[must_use = "a span closes when the guard is dropped"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` for `session`. Free when tracing is off.
pub fn span(name: &'static str, session: u64) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return Guard(None) };
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        let index = rec.spans.len();
        rec.spans.push(Span {
            name,
            parent: rec.open.last().copied(),
            session,
            start_ns,
            end_ns: 0,
        });
        rec.open.push(index);
        Guard(Some(index))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.retain(|&open| open != index);
            }
        });
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Durations, in microseconds, of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Samples {
    let mut samples = Samples::default();
    for span in spans.iter().filter(|s| s.name == name) {
        samples.push(span.duration_ns() as f64 / 1e3);
    }
    samples
}

/// The monitored-session figures shared by the corpus and dataflow
/// runs: spans of `Session::new`, `Session::start` and `Session::run`,
/// with run time per instruction over the `pass`-named spans' passes
/// (`counters` holds the per-pass instruction count).
pub fn session_layers(spans: &[Span], pass: &str, counters: &Values) -> Values {
    let passes = durations_us(spans, pass).len().max(1) as f64;
    let instructions = counters.get("vm.instructions").copied().unwrap_or(0.0) * passes;
    let run = durations_us(spans, "session.run");
    Values::from([
        ("session.new_us_p50", durations_us(spans, "session.new").median()),
        ("session.start_us_p50", durations_us(spans, "session.start").median()),
        ("session.run_ms_p99", run.quantile(0.99) / 1e3),
        ("session.run_ns_per_instr", run.sum() * 1e3 / instructions.max(1.0)),
    ])
}

/// Total self time per span name, in milliseconds, with span counts.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut totals: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += self_ns as f64 / 1e6;
        entry.1 += 1;
    }
    totals
}

/// Writes the spans as tab-separated rows: index, parent, session,
/// name, start, end and self time (nanoseconds).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tparent\tsession\tname\tstart_ns\tend_ns\tself_ns")?;
    for (i, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
            span.session, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            Span { name: "outer", parent: None, session: 0, start_ns: 0, end_ns: 100 },
            Span { name: "a", parent: Some(0), session: 0, start_ns: 10, end_ns: 30 },
            Span { name: "b", parent: Some(0), session: 0, start_ns: 50, end_ns: 90 },
            Span { name: "c", parent: Some(2), session: 0, start_ns: 60, end_ns: 70 },
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn spans_nest_and_are_free_when_disabled() {
        drop(span("ignored", 0));
        enable();
        {
            let _outer = span("outer", 1);
            let _inner = span("inner", 1);
        }
        let spans = disable();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(disable().is_empty());
    }
}
