//! Span recorder for the traced run. Spans are taken in the benchmark's own
//! code, around its calls into each layer; they stay in memory until the run
//! ends and are then written to `benchmark/out/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// At most this many spans are written out in full; the per-name totals
/// always cover every span recorded.
const MAX_SPANS_WRITTEN: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Repetition the span belongs to: spans of one repetition share it.
    rep: u32,
    /// Index of the enclosing span plus one; 0 for a root.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
}

/// Records nothing and reads no clock unless built with [`Tracer::on`], so
/// the end-to-end run pays for no tracing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep as u32;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that encloses everything recorded until [`Self::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent: self.open.last().map_or(0, |&i| i + 1),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() as u32 - 1);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("end without begin") as usize;
        self.spans[index].end_ns = self.ns(Instant::now());
    }

    /// The clock reading a leaf span starts at; `None` when tracing is off.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Closes a leaf span opened by [`Self::start`].
    #[inline]
    pub fn leaf(&mut self, name: &'static str, start: Option<Instant>) {
        if let Some(start) = start {
            let end_ns = self.ns(Instant::now());
            self.spans.push(Span {
                name,
                rep: self.rep,
                parent: self.open.last().map_or(0, |&i| i + 1),
                start_ns: self.ns(start),
                end_ns,
            });
        }
    }

    /// Records a span whose ends were read by the caller.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                rep: self.rep,
                parent: self.open.last().map_or(0, |&i| i + 1),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Count, total and self time of every span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent > 0 {
                covered[span.parent as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = totals.entry(span.name).or_default();
            let duration = span.end_ns - span.start_ns;
            total.count += 1;
            total.total_ns += duration;
            total.self_ns += duration.saturating_sub(covered);
        }
        totals
    }

    /// Total duration of the spans named `name` directly enclosed by a span
    /// named `within`.
    pub fn total_ns_within(&self, name: &str, within: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| {
                span.name == name
                    && span.parent > 0
                    && self.spans[span.parent as usize - 1].name == within
            })
            .map(|span| span.end_ns - span.start_ns)
            .sum()
    }

    /// The trace file: per-name totals, then the spans themselves as
    /// `[name, rep, parent, start_ns, end_ns]` rows (`parent` is the row
    /// number of the enclosing span, -1 for a root).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{},\"totals\":{{",
            self.spans.len(),
            self.spans.len().min(MAX_SPANS_WRITTEN)
        );
        for (i, (name, total)) in self.totals().iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                total.count, total.total_ns, total.self_ns
            );
        }
        out.push_str(
            "},\"columns\":[\"name\",\"rep\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":[\n",
        );
        for (i, span) in self.spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let comma = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{comma}[\"{}\",{},{},{},{}]",
                span.name,
                span.rep,
                i64::from(span.parent) - 1,
                span.start_ns,
                span.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
