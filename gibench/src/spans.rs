//! In-memory span recorder for the traced run.
//!
//! The program under test carries no tracing of its own: the benchmark
//! wraps calls into each module's public functions from outside. A span is
//! `(name, start, end, parent, run id)`; spans stay in memory while the
//! run measures and are written out once at the end.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `octree.intersect`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    /// Which traced run recorded the span.
    pub run: u32,
}

/// Per-name totals derived from the recorded spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed inclusive duration, ns.
    pub total_ns: u64,
    /// Summed self time (inclusive minus direct children), ns.
    pub self_ns: u64,
}

/// Records spans against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Tracer {
    /// An empty recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tags the spans recorded from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            run: self.run,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        let end = self.now_ns();
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx as usize].end_ns = end;
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Times `f` as one span and also returns its duration, for callers
    /// that reduce repeated calls to a median.
    #[inline]
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let t = Instant::now();
        let out = self.span(name, f);
        (out, t.elapsed())
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name call counts, inclusive and self time, over spans of `run`
    /// (all runs when `None`).
    pub fn totals(&self, run: Option<u32>) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if run.is_some_and(|r| r != s.run) {
                continue;
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `run id parent name start_ns end_ns` (parent `-` at top level).
    pub fn write_tsv(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "run\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Mean recorded duration of an empty span — the clock cost every span
/// adds to its own reading, subtracted from layer self times.
pub fn empty_span_ns() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::with_capacity(N);
    for _ in 0..N {
        t.begin("empty");
        t.end();
    }
    let tot = t.totals(None);
    tot["empty"].total_ns as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::with_capacity(8);
        t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let tot = t.totals(None);
        let (outer, inner) = (tot["outer"], tot["inner"]);
        assert_eq!(outer.calls, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn runs_are_separable_and_written() {
        let mut t = Tracer::with_capacity(8);
        t.span("a", || ());
        t.set_run(1);
        t.span("a", || ());
        assert_eq!(t.totals(Some(1))["a"].calls, 1);
        assert_eq!(t.totals(None)["a"].calls, 2);
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
