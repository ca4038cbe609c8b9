//! Per-query structured tracing.
//!
//! A trace is built on the thread that evaluates the query: the owner
//! calls [`begin`], records phase spans ([`child`]) as they complete,
//! and [`finish`]es into a [`TraceRecord`] — a span tree of
//! queue-wait → preflight → plan → eval plus per-probe-site aggregates
//! fanned out from `dco_core::guard`'s probes via [`probe_hit`].
//!
//! Zero cost when disabled: with no trace active on the thread,
//! [`probe_hit`] is a single thread-local `Cell` read, and [`begin`]
//! refuses to nest. The evaluation runs on the thread that owns the
//! trace, so every probe it fires lands in that trace's aggregates.

use crate::PROBE_SITES;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-probe-site aggregates of one query: hit count plus the tuple and
/// atom budget charges, per site.
#[derive(Debug, Default)]
struct ProbeAggs {
    counts: [u64; PROBE_SITES.len()],
    tuples: [u64; PROBE_SITES.len()],
    atoms: [u64; PROBE_SITES.len()],
}

impl ProbeAggs {
    fn record(&mut self, site: usize, tuples: u64, atoms: u64) {
        if site >= PROBE_SITES.len() {
            return;
        }
        self.counts[site] += 1;
        self.tuples[site] += tuples;
        self.atoms[site] += atoms;
    }
}

/// One completed span: a named phase with its offset from the start of
/// the trace and its duration, in nanoseconds.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name (`queue_wait`, `preflight`, `plan`, `eval`, …).
    pub name: &'static str,
    /// Offset of the span start from the trace start.
    pub start_ns: u64,
    /// Span duration.
    pub dur_ns: u64,
}

/// Per-site probe line of a finished trace.
#[derive(Debug, Clone)]
pub struct ProbeLine {
    /// Site name (one of [`PROBE_SITES`]).
    pub site: &'static str,
    /// Probe hits at this site.
    pub count: u64,
    /// Tuple (disjunct) budget charged at this site.
    pub tuples: u64,
    /// Atom budget charged at this site.
    pub atoms: u64,
}

/// A finished query trace: the span tree plus probe aggregates.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// What was traced (the query text, possibly truncated).
    pub label: String,
    /// Total traced time including queue wait, in nanoseconds.
    pub total_ns: u64,
    /// Phase spans, in completion order. `queue_wait`, when present, is
    /// always first.
    pub spans: Vec<Span>,
    /// Probe-site aggregates attributed to the `eval` phase (only sites
    /// that fired).
    pub probes: Vec<ProbeLine>,
}

impl TraceRecord {
    /// Render the span tree as indented text, one line per span, probe
    /// aggregates nested under `eval`:
    ///
    /// ```text
    /// trace 12.345ms: r(x) & s(x)
    ///   queue_wait 0.102ms
    ///   preflight 0.031ms
    ///   plan 0.008ms
    ///   eval 12.204ms
    ///     probe dnf_insert n=42 tuples=40 atoms=160
    /// ```
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        let _ = writeln!(out, "trace {:.3}ms: {}", ms(self.total_ns), self.label);
        for s in &self.spans {
            let _ = writeln!(out, "  {} {:.3}ms", s.name, ms(s.dur_ns));
            if s.name == "eval" {
                for p in &self.probes {
                    let _ = writeln!(
                        out,
                        "    probe {} n={} tuples={} atoms={}",
                        p.site, p.count, p.tuples, p.atoms
                    );
                }
            }
        }
        out
    }
}

/// A bounded in-memory ring of recent [`TraceRecord`]s.
#[derive(Debug)]
pub struct TraceRing {
    ring: Mutex<VecDeque<TraceRecord>>,
    cap: usize,
}

impl TraceRing {
    /// A ring holding at most `cap` records (oldest evicted first).
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            ring: Mutex::new(VecDeque::with_capacity(cap.min(64))),
            cap: cap.max(1),
        }
    }

    /// Append a record, evicting the oldest past capacity.
    pub fn push(&self, rec: TraceRecord) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Copy of the ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

struct Builder {
    label: String,
    started: Instant,
    queue_wait_ns: u64,
    spans: Vec<Span>,
    probes: ProbeAggs,
}

thread_local! {
    /// Fast-path flag mirroring `CURRENT.is_some()`: an untraced probe
    /// fan-out costs one `Cell` read.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<Builder>> = const { RefCell::new(None) };
    /// Queue wait handed over by the serving layer, consumed by the next
    /// [`begin`] on this thread.
    static PENDING_QUEUE_WAIT: Cell<u64> = const { Cell::new(0) };
}

/// Record the time a request spent queued before evaluation; consumed
/// (and reset) by the next [`begin`] on this thread, which turns it into
/// the leading `queue_wait` span.
pub fn note_queue_wait(d: Duration) {
    PENDING_QUEUE_WAIT.with(|c| c.set(d.as_nanos().min(u64::MAX as u128) as u64));
}

/// Start a trace on this thread. Returns `false` — and records nothing —
/// when a trace is already active (the outermost caller owns the trace). The owner must pair this with
/// [`finish`].
pub fn begin(label: &str) -> bool {
    let queue_wait_ns = PENDING_QUEUE_WAIT.with(|c| c.replace(0));
    if CURRENT.with(|c| c.borrow().is_some()) {
        return false;
    }
    ACTIVE.with(|a| a.set(true));
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(Builder {
            label: label.chars().take(256).collect(),
            started: Instant::now(),
            queue_wait_ns,
            spans: Vec::with_capacity(4),
            probes: ProbeAggs::default(),
        })
    });
    true
}

/// Record a just-completed phase of duration `dur` ending now. No-op
/// without an active trace.
pub fn child(name: &'static str, dur: Duration) {
    if !ACTIVE.with(Cell::get) {
        return;
    }
    CURRENT.with(|c| {
        if let Some(b) = c.borrow_mut().as_mut() {
            let end = b.started.elapsed().as_nanos() as u64;
            let dur_ns = dur.as_nanos().min(u64::MAX as u128) as u64;
            b.spans.push(Span {
                name,
                start_ns: b.queue_wait_ns + end.saturating_sub(dur_ns),
                dur_ns,
            });
        }
    });
}

/// Fan-out target of `dco_core::guard`'s probes: charge `site` (an index
/// into [`PROBE_SITES`]) on this thread's active trace. One `Cell` read
/// when no trace is active.
#[inline]
pub fn probe_hit(site: usize, tuples: u64, atoms: u64) {
    if !ACTIVE.with(Cell::get) {
        return;
    }
    CURRENT.with(|c| {
        if let Some(b) = c.borrow_mut().as_mut() {
            b.probes.record(site, tuples, atoms);
        }
    });
}

/// Finish the trace begun on this thread, returning its record. The
/// record's `total_ns` includes the queue wait handed over via
/// [`note_queue_wait`].
pub fn finish() -> Option<TraceRecord> {
    let b = CURRENT.with(|c| c.borrow_mut().take())?;
    ACTIVE.with(|a| a.set(false));
    let mut spans = Vec::with_capacity(b.spans.len() + 1);
    if b.queue_wait_ns > 0 {
        spans.push(Span {
            name: "queue_wait",
            start_ns: 0,
            dur_ns: b.queue_wait_ns,
        });
    }
    spans.extend(b.spans);
    let probes = PROBE_SITES
        .iter()
        .enumerate()
        .filter_map(|(i, site)| {
            let count = b.probes.counts[i];
            (count > 0).then(|| ProbeLine {
                site,
                count,
                tuples: b.probes.tuples[i],
                atoms: b.probes.atoms[i],
            })
        })
        .collect();
    Some(TraceRecord {
        label: b.label,
        total_ns: b.queue_wait_ns + b.started.elapsed().as_nanos() as u64,
        spans,
        probes,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn a_trace_collects_spans_and_probe_aggregates() {
        note_queue_wait(Duration::from_micros(50));
        assert!(begin("r(x)"));
        assert!(!begin("nested"), "traces never nest");
        child("preflight", Duration::from_micros(10));
        probe_hit(0, 4, 16);
        probe_hit(0, 0, 0);
        child("eval", Duration::from_micros(20));
        let rec = finish().unwrap();
        assert!(finish().is_none(), "finish consumes the trace");
        assert_eq!(rec.spans[0].name, "queue_wait");
        assert_eq!(rec.spans[0].dur_ns, 50_000);
        assert_eq!(
            rec.spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["queue_wait", "preflight", "eval"]
        );
        assert_eq!(rec.probes.len(), 1);
        assert_eq!(rec.probes[0].site, "dnf_insert");
        assert_eq!(rec.probes[0].count, 2);
        assert_eq!(rec.probes[0].tuples, 4);
        assert_eq!(rec.probes[0].atoms, 16);
        assert!(rec.total_ns >= 50_000, "total includes queue wait");
        let text = rec.render();
        assert!(text.contains("queue_wait"));
        assert!(text.contains("probe dnf_insert n=2 tuples=4 atoms=16"));
    }

    #[test]
    fn probe_hit_without_a_trace_is_a_noop() {
        probe_hit(0, 1_000_000, 1_000_000);
        assert!(begin("after"));
        let rec = finish().unwrap();
        assert!(rec.probes.is_empty(), "an untraced hit leaks into no trace");
    }

    #[test]
    fn ring_is_bounded() {
        let ring = TraceRing::new(2);
        for i in 0..5 {
            ring.push(TraceRecord {
                label: format!("q{i}"),
                total_ns: i,
                spans: Vec::new(),
                probes: Vec::new(),
            });
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].label, "q3");
        assert_eq!(got[1].label, "q4");
    }
}
