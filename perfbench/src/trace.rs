//! In-memory spans around every public call the benchmark makes into the
//! workspace crates.
//!
//! A span records its name (`<layer>.<call>`), start, end, parent span and
//! run id (the pass it belongs to). Spans are kept in memory while the
//! benchmark runs and written out as JSON lines when it ends. With
//! recording off, [`Tracer::time`] still measures the call (the untraced
//! metrics need the duration) but stores nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.PairedSystem::run`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass (0 = set-up) the span belongs to.
    pub run: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

/// Span recorder shared by the workload runners and the counting store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recording: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), recording: AtomicBool::new(false), inner: Mutex::default() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a span recorder panicked while holding the span list")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_recording(&self, on: bool) {
        // A statistic switch on the benchmark's own thread: publishes no data.
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Whether calls are being recorded.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Sets the run id stamped on the spans that follow.
    pub fn set_run(&self, run: u64) {
        self.lock().run = run;
    }

    /// Runs `f` and returns its result with its duration; when recording,
    /// also records a span named `name`, which encloses any span `f`
    /// records on this thread.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
        if !self.recording() {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed());
        }
        let t0 = Instant::now();
        let idx = {
            let mut g = self.lock();
            let idx = g.spans.len();
            let span = Span {
                name: name.to_string(),
                start_ns: self.ns(t0),
                end_ns: 0,
                parent: g.open.last().copied(),
                run: g.run,
            };
            g.spans.push(span);
            g.open.push(idx);
            idx
        };
        // Closes the span even when `f` panics, so a failed operation
        // leaves no open span behind to misparent the spans after it.
        struct Close<'a>(&'a Tracer, usize);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                let end = self.0.ns(Instant::now());
                if let Ok(mut g) = self.0.inner.lock() {
                    g.spans[self.1].end_ns = end;
                    g.open.pop();
                }
            }
        }
        let close = Close(self, idx);
        let r = f();
        drop(close);
        (r, t0.elapsed())
    }

    /// Records an already-timed leaf call under the innermost open span.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if !self.recording() {
            return;
        }
        let mut g = self.lock();
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: g.open.last().copied(),
            run: g.run,
        };
        g.spans.push(span);
    }

    /// Total milliseconds and count of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> (f64, usize) {
        let g = self.lock();
        g.spans.iter().filter(|s| s.name == name).fold((0.0, 0), |(t, n), s| (t + s.ms(), n + 1))
    }

    /// Per span name: count, total milliseconds and self milliseconds (total
    /// minus the time its child spans cover), sorted by name.
    pub fn summary(&self) -> Vec<(String, usize, f64, f64)> {
        let g = self.lock();
        let mut child_ms = vec![0.0; g.spans.len()];
        for s in &g.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, (usize, f64, f64)> = Default::default();
        for (s, child) in g.spans.iter().zip(&child_ms) {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - child;
        }
        by_name.into_iter().map(|(n, (c, t, own))| (n.to_string(), c, t, own)).collect()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let g = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in g.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_stop_when_recording_is_off() {
        let t = Tracer::new();
        let ((), _) = t.time("off", || ());
        assert!(t.is_empty());
        t.set_recording(true);
        t.set_run(3);
        let (v, _) = t.time("outer", || {
            let now = Instant::now();
            t.record("leaf", now, now);
            7
        });
        assert_eq!(v, 7);
        let summary = t.summary();
        assert_eq!(summary.len(), 2);
        assert_eq!((summary[1].0.as_str(), summary[1].1), ("outer", 1));
        assert!(summary[1].3 <= summary[1].2);
        let g = t.lock();
        assert_eq!(g.spans.len(), 2);
        assert_eq!(g.spans[0].name, "outer");
        assert_eq!(g.spans[0].parent, None);
        assert_eq!(g.spans[1].parent, Some(0));
        assert!(g.spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
    }
}
