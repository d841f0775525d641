//! In-memory span recording for the traced run.
//!
//! A span is `(id, parent, request, thread, name, tag, start, end)`,
//! recorded by the benchmark around its calls into a layer's public
//! functions; the program itself carries no instrumentation. Threads
//! record into a private [`LocalTrace`] buffer that is handed to the
//! shared [`Tracer`] when it is dropped, so the hot path takes no lock.
//! Spans are written out once, after the measurement.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request (product operation) the span belongs to.
    pub request: u64,
    /// Recording thread, numbered in order of first use.
    pub thread: u32,
    /// Layer call, e.g. `engine.hybrid_success`.
    pub name: &'static str,
    /// Optional qualifier, e.g. the circuit name.
    pub tag: Option<&'static str>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id its children use as their parent.
    pub id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    tag: Option<&'static str>,
    start_ns: u64,
}

/// The shared span sink.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            next_thread: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Converts an instant to nanoseconds since the epoch (0 before it).
    #[must_use]
    pub fn ns_of(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A recording buffer for the calling thread.
    #[must_use]
    pub fn local(&self) -> LocalTrace<'_> {
        LocalTrace {
            tracer: self,
            thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
            buf: Vec::new(),
        }
    }

    /// Allocates a span id without opening a span (for spans assembled
    /// from timestamps taken elsewhere).
    #[must_use]
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Every span handed in so far, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while handing in its spans.
    #[must_use]
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// A per-thread span buffer; hands its spans to the tracer on drop.
#[derive(Debug)]
pub struct LocalTrace<'a> {
    tracer: &'a Tracer,
    thread: u32,
    buf: Vec<Span>,
}

impl LocalTrace<'_> {
    /// Opens a span starting now.
    pub fn open(
        &mut self,
        name: &'static str,
        tag: Option<&'static str>,
        parent: Option<u64>,
        request: u64,
    ) -> Open {
        Open {
            id: self.tracer.alloc_id(),
            parent,
            request,
            name,
            tag,
            start_ns: self.tracer.now_ns(),
        }
    }

    /// Closes a span now; returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            thread: self.thread,
            name: open.name,
            tag: open.tag,
            start_ns: open.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        self.buf.push(span);
        span.dur_ns() as f64 * 1e-9
    }

    /// Records a finished span from explicit timestamps.
    pub fn record(&mut self, span: Span) {
        self.buf.push(Span {
            thread: self.thread,
            ..span
        });
    }
}

impl Drop for LocalTrace<'_> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned sink only loses these spans.
        if let Ok(mut sink) = self.tracer.spans.lock() {
            sink.append(&mut self.buf);
        }
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
#[must_use]
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children running in parallel on several
/// threads are counted once, so a parent never goes negative.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Per-name totals: `(calls, total seconds, self seconds)`.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    let selfs = self_times(spans);
    let mut by: Vec<(&'static str, u64, f64, f64)> = Vec::new();
    for s in spans {
        let own = selfs.get(&s.id).copied().unwrap_or(0) as f64 * 1e-9;
        let dur = s.dur_ns() as f64 * 1e-9;
        match by.iter_mut().find(|(n, ..)| *n == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += dur;
                row.3 += own;
            }
            None => by.push((s.name, 1, dur, own)),
        }
    }
    by
}

/// Sum of durations (seconds) and count of spans named `name`.
#[must_use]
pub fn sum_named(spans: &[Span], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.dur_ns() as f64 * 1e-9, n + 1))
}

/// For every span, the tag of its nearest ancestor named `ancestor`
/// (itself included), if any.
#[must_use]
pub fn ancestor_tags(spans: &[Span], ancestor: &str) -> HashMap<u64, &'static str> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut memo: HashMap<u64, Option<&'static str>> = HashMap::new();
    let mut out = HashMap::new();
    for s in spans {
        let mut chain = Vec::new();
        let mut cursor = Some(s.id);
        let found = loop {
            let Some(id) = cursor else { break None };
            if let Some(hit) = memo.get(&id) {
                break *hit;
            }
            let Some(span) = by_id.get(&id) else {
                break None;
            };
            chain.push(id);
            if span.name == ancestor {
                break span.tag;
            }
            cursor = span.parent;
        };
        for id in chain {
            memo.insert(id, found);
        }
        if let Some(tag) = found {
            out.insert(s.id, tag);
        }
    }
    out
}

/// Writes spans as CSV (`id,parent,request,thread,name,tag,start_ns,end_ns`).
///
/// # Errors
///
/// Reports an unwritable path.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,request,thread,name,tag,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            s.id,
            s.parent.map_or(String::new(), |p| p.to_string()),
            s.request,
            s.thread,
            s.name,
            s.tag.unwrap_or(""),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
