//! # obs — per-rank tracing, metrics, and Perfetto export
//!
//! The paper explains its scaling results by decomposing runs into per-rank
//! map/collate/reduce stage times; this crate is the instrumentation layer
//! that lets every bench and fault test produce that decomposition as a
//! machine-checkable artifact.
//!
//! Three pieces:
//!
//! * a **per-rank event ring** ([`RankObs`]): span begin/end, instant
//!   events, and counter samples, timestamped with the mpisim *sim clock*
//!   (virtual seconds). Each rank thread writes only to its own ring, so
//!   the per-ring mutex is uncontended — recording is a few nanoseconds,
//!   not a synchronization point;
//! * a **metrics registry**: monotonic named counters per rank (bytes
//!   shuffled, KV pairs, spool spills, heartbeats, speculative dispatches,
//!   elections, RPC retries, …), aggregated across ranks by [`Trace`];
//! * **exporters**: a Chrome/Perfetto `trace.json` writer
//!   ([`Trace::chrome_json`] — open it at <https://ui.perfetto.dev>) and a
//!   plain-text per-stage summary table ([`Trace::stage_summary`]) shaped
//!   like the paper's stage breakdowns.
//!
//! ## Sim-clock semantics and determinism
//!
//! Timestamps come from the mpisim virtual clock: they advance only through
//! explicit `charge()` calls and message-arrival `sync_to()`. Workloads
//! that charge fixed virtual costs therefore produce **bit-identical
//! traces** run over run (timestamps included). Workloads that charge
//! *measured* wall time (the BLAST driver charges real search time so the
//! perf model sees honest numbers) keep a deterministic event *structure*
//! under a fixed seed but not deterministic timestamps; [`Trace::digest`]
//! is the canonical projection that strips the measured part and is what
//! the golden-trace tests compare.
//!
//! Timestamps are clamped monotonically non-decreasing per rank at record
//! time, so a span closed from a `Drop` guard during unwind can never move
//! backwards past an already-recorded event.
//!
//! ## Zero-cost when off
//!
//! Every hook in mpisim/mrmpi is guarded by an `Option<RankObs>`; with no
//! collector attached the layer is a branch on a `None`. The process-wide
//! [`touched_count`] exists so a test can assert exactly that: run a
//! workload with obs off and the counter's delta is zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Process-wide count of recording operations (events + counter bumps),
/// across every [`RankObs`] in the process. Only ever incremented by actual
/// recording — the "obs off is a no-op" tests assert its delta is zero.
static TOUCHED: AtomicU64 = AtomicU64::new(0);

/// Total recording operations performed process-wide so far.
pub fn touched_count() -> u64 {
    TOUCHED.load(Ordering::Relaxed)
}

/// One entry in a rank's event ring. `t` is sim-clock seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened (`name` is a static stage label like `"mr.map"`).
    Begin { t: f64, name: &'static str },
    /// The matching span closed. Spans nest per rank (stack discipline).
    End { t: f64, name: &'static str },
    /// A counter sampled: `total` is the counter's cumulative value on this
    /// rank at time `t` (Perfetto renders these as a counter track).
    Count { t: f64, name: &'static str, total: u64 },
    /// A point event with a human-readable payload (fault injected,
    /// election, participation-set decision, …).
    Instant { t: f64, name: &'static str, detail: String },
}

impl Event {
    /// Sim-clock timestamp of the entry.
    pub fn t(&self) -> f64 {
        match *self {
            Event::Begin { t, .. }
            | Event::End { t, .. }
            | Event::Count { t, .. }
            | Event::Instant { t, .. } => t,
        }
    }

    /// Stage / counter / marker label.
    pub fn name(&self) -> &'static str {
        match *self {
            Event::Begin { name, .. }
            | Event::End { name, .. }
            | Event::Count { name, .. }
            | Event::Instant { name, .. } => name,
        }
    }
}

#[derive(Debug, Default)]
struct RankBuf {
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
    last_t: f64,
}

#[derive(Debug)]
struct RankInner {
    rank: usize,
    buf: Mutex<RankBuf>,
    /// f64 bits of the rank's latest-known sim time, mirrored out of the
    /// comm's clock so storage layers (spool, KV) and `Drop` guards can
    /// timestamp without holding a `Comm`.
    now_bits: AtomicU64,
}

/// The per-rank recording handle. Cheap to clone (an `Arc`); a rank thread
/// holds one and writes spans, instants, and counters to it.
#[derive(Debug, Clone)]
pub struct RankObs {
    inner: Arc<RankInner>,
}

impl RankObs {
    /// A fresh, empty ring for `rank` with the sim clock at zero.
    pub fn new(rank: usize) -> Self {
        RankObs {
            inner: Arc::new(RankInner {
                rank,
                buf: Mutex::new(RankBuf::default()),
                now_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// The rank this ring belongs to.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Mirror the rank's sim clock forward to `t` (never rewinds).
    pub fn set_now(&self, t: f64) {
        let _ = self.inner.now_bits.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |bits| (t > f64::from_bits(bits)).then_some(t.to_bits()),
        );
    }

    /// The rank's latest mirrored sim time.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.inner.now_bits.load(Ordering::Relaxed))
    }

    fn push(&self, ev: Event) {
        TOUCHED.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.inner.buf.lock().unwrap();
        // Clamp: per-rank timestamps never decrease, even when a guard
        // closes a span with a slightly stale clock mirror.
        let t = ev.t().max(buf.last_t);
        buf.last_t = t;
        buf.events.push(match ev {
            Event::Begin { name, .. } => Event::Begin { t, name },
            Event::End { name, .. } => Event::End { t, name },
            Event::Count { name, total, .. } => Event::Count { t, name, total },
            Event::Instant { name, detail, .. } => Event::Instant { t, name, detail },
        });
    }

    /// Open a span at time `t`.
    pub fn begin(&self, t: f64, name: &'static str) {
        self.push(Event::Begin { t, name });
    }

    /// Close the innermost open span named `name` at time `t`.
    pub fn end(&self, t: f64, name: &'static str) {
        self.push(Event::End { t, name });
    }

    /// Record a point event.
    pub fn instant(&self, t: f64, name: &'static str, detail: impl Into<String>) {
        self.push(Event::Instant { t, name, detail: detail.into() });
    }

    /// Bump counter `name` by `delta` (registry only — no event recorded,
    /// so hot paths can count per message without growing the ring).
    pub fn add(&self, name: &'static str, delta: u64) {
        TOUCHED.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.inner.buf.lock().unwrap();
        *buf.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` on this rank.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.buf.lock().unwrap().counters.get(name).copied().unwrap_or(0)
    }

    /// Emit a `Count` event carrying the counter's current cumulative
    /// value, so exporters get a sample point at a phase boundary.
    pub fn sample(&self, t: f64, name: &'static str) {
        let total = self.counter(name);
        self.push(Event::Count { t, name, total });
    }

    /// Open a span now (per the clock mirror) and return a guard that
    /// closes it on drop — including drops during a `RankDeath` unwind, so
    /// traces from killed ranks stay well-formed.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.begin(self.now(), name);
        SpanGuard { obs: Some(self.clone()), name }
    }

    /// Snapshot this rank's ring and registry.
    pub fn snapshot(&self) -> RankTrace {
        let buf = self.inner.buf.lock().unwrap();
        RankTrace {
            rank: self.inner.rank,
            events: buf.events.clone(),
            counters: buf.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }
}

/// Closes its span on drop. Obtain via [`RankObs::span`] or [`maybe_span`].
#[derive(Debug)]
pub struct SpanGuard {
    obs: Option<RankObs>,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(o) = self.obs.take() {
            o.end(o.now(), self.name);
        }
    }
}

/// Span guard over an optional handle — the ubiquitous instrumentation
/// shape: `let _g = obs::maybe_span(comm.obs(), "mr.map");`.
pub fn maybe_span(obs: Option<&RankObs>, name: &'static str) -> Option<SpanGuard> {
    obs.map(|o| o.span(name))
}

/// Aggregates the per-rank rings of one run. Attach to a world before
/// running; snapshot into a [`Trace`] afterwards. Handing the same rank out
/// twice returns the same ring.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    ranks: Arc<Mutex<Vec<Option<RankObs>>>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ring for `rank`, created on first request.
    pub fn rank(&self, rank: usize) -> RankObs {
        let mut ranks = self.ranks.lock().unwrap();
        if ranks.len() <= rank {
            ranks.resize(rank + 1, None);
        }
        ranks[rank].get_or_insert_with(|| RankObs::new(rank)).clone()
    }

    /// Snapshot every rank's ring into an immutable [`Trace`].
    pub fn trace(&self) -> Trace {
        let ranks = self.ranks.lock().unwrap();
        Trace {
            ranks: ranks.iter().flatten().map(RankObs::snapshot).collect(),
        }
    }
}

/// One rank's snapshotted events and counter registry.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// Rank id (the Perfetto `tid`).
    pub rank: usize,
    /// Events in record order; timestamps non-decreasing.
    pub events: Vec<Event>,
    /// Final counter values, by name.
    pub counters: BTreeMap<String, u64>,
}

/// Per-stage aggregate across ranks (one row of the summary table).
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// Number of span instances across all ranks.
    pub count: usize,
    /// Sum of span durations across all ranks (sim seconds).
    pub total_s: f64,
    /// The single largest per-rank sum (the stage's critical rank).
    pub max_rank_s: f64,
}

/// An immutable snapshot of a whole run, with exporters and validators.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// One entry per rank that recorded anything.
    pub ranks: Vec<RankTrace>,
}

impl Trace {
    /// Sum of counter `name` across every rank.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.ranks.iter().map(|r| r.counters.get(name).copied().unwrap_or(0)).sum()
    }

    /// How many events (of any kind) named `name` exist across ranks.
    pub fn event_count(&self, name: &str) -> usize {
        self.ranks
            .iter()
            .map(|r| r.events.iter().filter(|e| e.name() == name).count())
            .sum()
    }

    /// Well-formedness: per rank, timestamps are non-decreasing, every span
    /// begin has a matching end, and spans nest properly (an `End` always
    /// closes the innermost open span).
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.ranks {
            let mut stack: Vec<&'static str> = Vec::new();
            let mut last_t = f64::NEG_INFINITY;
            for (i, ev) in r.events.iter().enumerate() {
                if ev.t() < last_t {
                    return Err(format!(
                        "rank {}: event {i} ({}) goes back in time: {} < {}",
                        r.rank,
                        ev.name(),
                        ev.t(),
                        last_t
                    ));
                }
                last_t = ev.t();
                match ev {
                    Event::Begin { name, .. } => stack.push(name),
                    Event::End { name, .. } => match stack.pop() {
                        Some(top) if top == *name => {}
                        Some(top) => {
                            return Err(format!(
                                "rank {}: span end '{name}' crosses open span '{top}'",
                                r.rank
                            ))
                        }
                        None => {
                            return Err(format!(
                                "rank {}: span end '{name}' without a begin",
                                r.rank
                            ))
                        }
                    },
                    Event::Count { .. } | Event::Instant { .. } => {}
                }
            }
            if let Some(open) = stack.last() {
                return Err(format!("rank {}: span '{open}' never ended", r.rank));
            }
        }
        Ok(())
    }

    /// Canonical deterministic projection: for every event name, its kind
    /// and the count of occurrences summed across ranks, sorted. Strips
    /// timestamps, per-rank attribution, and counter values — exactly the
    /// parts that a measured-wall-charge workload (BLAST) cannot keep
    /// stable run-over-run — while preserving the event *structure* that a
    /// fixed seed must reproduce.
    pub fn digest(&self) -> String {
        let mut counts: BTreeMap<(&'static str, &'static str), usize> = BTreeMap::new();
        for r in &self.ranks {
            for ev in &r.events {
                let kind = match ev {
                    Event::Begin { .. } => "span",
                    Event::End { .. } => continue, // paired with Begin
                    Event::Count { .. } => "count",
                    Event::Instant { .. } => "instant",
                };
                *counts.entry((ev.name(), kind)).or_insert(0) += 1;
            }
        }
        let mut out = String::new();
        for ((name, kind), n) in counts {
            let _ = writeln!(out, "{kind} {name} x{n}");
        }
        out
    }

    /// Per-stage aggregates keyed by span name. Self time is not
    /// subtracted: a nested span's duration counts toward both itself and
    /// its parent, matching how the paper reports stage times.
    pub fn stage_totals(&self) -> BTreeMap<String, StageStat> {
        let mut stats: BTreeMap<String, StageStat> = BTreeMap::new();
        for r in &self.ranks {
            let mut per_rank: BTreeMap<&'static str, f64> = BTreeMap::new();
            let mut stack: Vec<(&'static str, f64)> = Vec::new();
            for ev in &r.events {
                match *ev {
                    Event::Begin { t, name } => stack.push((name, t)),
                    Event::End { t, name } => {
                        if let Some(pos) = stack.iter().rposition(|(n, _)| *n == name) {
                            let (_, t0) = stack.remove(pos);
                            let s = stats.entry(name.to_string()).or_insert(StageStat {
                                count: 0,
                                total_s: 0.0,
                                max_rank_s: 0.0,
                            });
                            s.count += 1;
                            s.total_s += t - t0;
                            *per_rank.entry(name).or_insert(0.0) += t - t0;
                        }
                    }
                    _ => {}
                }
            }
            for (name, secs) in per_rank {
                let s = stats.get_mut(name).expect("stage seen");
                s.max_rank_s = s.max_rank_s.max(secs);
            }
        }
        stats
    }

    /// The plain-text per-stage summary table (stage rows, then the counter
    /// registry), shaped like the paper's stage breakdowns.
    pub fn stage_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>12} {:>12}",
            "stage", "spans", "total_s", "max_rank_s"
        );
        for (name, s) in self.stage_totals() {
            let _ = writeln!(
                out,
                "{:<24} {:>7} {:>12.6} {:>12.6}",
                name, s.count, s.total_s, s.max_rank_s
            );
        }
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for r in &self.ranks {
            for (k, v) in &r.counters {
                *totals.entry(k).or_insert(0) += v;
            }
        }
        if !totals.is_empty() {
            let _ = writeln!(out, "\n{:<24} {:>12}", "counter", "total");
            for (name, v) in totals {
                let _ = writeln!(out, "{:<24} {:>12}", name, v);
            }
        }
        out
    }

    /// Chrome trace-event JSON (the "JSON Array Format" with metadata),
    /// loadable at <https://ui.perfetto.dev> or `chrome://tracing`. One
    /// event object per line; `ts` is sim-clock **microseconds**, `tid` is
    /// the rank.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for r in &self.ranks {
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"name\":\"rank {}\"}}}}",
                    r.rank, r.rank
                ),
                &mut out,
            );
            for ev in &r.events {
                let ts = ev.t() * 1e6;
                let line = match ev {
                    Event::Begin { name, .. } => format!(
                        "{{\"name\":\"{}\",\"ph\":\"B\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{}}}",
                        json_escape(name),
                        r.rank
                    ),
                    Event::End { name, .. } => format!(
                        "{{\"name\":\"{}\",\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{}}}",
                        json_escape(name),
                        r.rank
                    ),
                    Event::Count { name, total, .. } => format!(
                        "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{},\
                         \"args\":{{\"value\":{total}}}}}",
                        json_escape(name),
                        r.rank
                    ),
                    Event::Instant { name, detail, .. } => format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{},\
                         \"s\":\"t\",\"args\":{{\"detail\":\"{}\"}}}}",
                        json_escape(name),
                        r.rank,
                        json_escape(detail)
                    ),
                };
                push(line, &mut out);
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// What [`lint_chrome_json`] verified about a `trace.json` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Total event objects seen.
    pub events: usize,
    /// Distinct `tid`s (ranks) seen.
    pub tids: usize,
    /// `B`/`E` duration events seen (balanced per tid, or lint fails).
    pub spans: usize,
}

/// Structural schema check of a written `trace.json`: the top-level object
/// wraps a `traceEvents` array; every event line carries `name`, `ph`,
/// `pid`, `tid` (and `ts` for non-metadata phases); `ph` is one of
/// `B E C i M`; and `B`/`E` balance per tid. Works line-by-line against the
/// one-event-per-line format [`Trace::chrome_json`] emits — a deliberate
/// match for the writer, not a general JSON parser.
pub fn lint_chrome_json(text: &str) -> Result<LintReport, String> {
    if !text.trim_start().starts_with('{') {
        return Err("trace.json must start with a top-level object".into());
    }
    if !text.contains("\"traceEvents\"") {
        return Err("missing traceEvents array".into());
    }
    let mut events = 0usize;
    let mut spans = 0usize;
    let mut depth: BTreeMap<String, i64> = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"ph\"") {
            continue; // header / footer / metadata-free lines
        }
        let field = |key: &str| -> Option<String> {
            let tag = format!("\"{key}\":");
            let at = line.find(&tag)? + tag.len();
            let rest = &line[at..];
            if let Some(stripped) = rest.strip_prefix('"') {
                Some(stripped[..stripped.find('"')?].to_string())
            } else {
                let end = rest
                    .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                    .unwrap_or(rest.len());
                (end > 0).then(|| rest[..end].to_string())
            }
        };
        let ph = field("ph").ok_or(format!("line {}: no ph", lineno + 1))?;
        for key in ["name", "pid", "tid"] {
            if field(key).is_none() {
                return Err(format!("line {}: ph={ph} event missing {key}", lineno + 1));
            }
        }
        if ph != "M" && field("ts").is_none() {
            return Err(format!("line {}: ph={ph} event missing ts", lineno + 1));
        }
        let tid = field("tid").unwrap();
        match ph.as_str() {
            "B" => {
                spans += 1;
                *depth.entry(tid).or_insert(0) += 1;
            }
            "E" => {
                let d = depth.entry(tid.clone()).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(format!("line {}: ph=E without a B on tid {tid}", lineno + 1));
                }
            }
            "C" | "i" | "M" => {}
            other => return Err(format!("line {}: unknown ph '{other}'", lineno + 1)),
        }
        events += 1;
    }
    if let Some((tid, d)) = depth.iter().find(|(_, d)| **d != 0) {
        return Err(format!("tid {tid}: {d} span(s) never closed"));
    }
    if events == 0 {
        return Err("no events in traceEvents".into());
    }
    Ok(LintReport { events, tids: depth.len(), spans })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_validate() {
        let o = RankObs::new(3);
        o.begin(1.0, "outer");
        o.begin(2.0, "inner");
        o.end(3.0, "inner");
        o.instant(3.5, "marker", "hello");
        o.end(4.0, "outer");
        let tr = Trace { ranks: vec![o.snapshot()] };
        tr.validate().expect("well-formed");
        let stats = tr.stage_totals();
        assert_eq!(stats["outer"].count, 1);
        assert!((stats["outer"].total_s - 3.0).abs() < 1e-12);
        assert!((stats["inner"].total_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_spans_fail_validation() {
        let o = RankObs::new(0);
        o.begin(1.0, "a");
        o.begin(2.0, "b");
        o.end(3.0, "a");
        o.end(4.0, "b");
        let tr = Trace { ranks: vec![o.snapshot()] };
        assert!(tr.validate().unwrap_err().contains("crosses"));
    }

    #[test]
    fn unmatched_begin_fails_validation() {
        let o = RankObs::new(0);
        o.begin(1.0, "a");
        let tr = Trace { ranks: vec![o.snapshot()] };
        assert!(tr.validate().unwrap_err().contains("never ended"));
    }

    #[test]
    fn timestamps_clamp_monotonically() {
        let o = RankObs::new(0);
        o.begin(5.0, "a");
        o.end(1.0, "a"); // stale guard clock: clamped to 5.0
        let tr = Trace { ranks: vec![o.snapshot()] };
        tr.validate().expect("clamped trace is monotone");
        assert_eq!(tr.ranks[0].events[1].t(), 5.0);
    }

    #[test]
    fn guard_closes_span_on_drop_and_during_panic() {
        let o = RankObs::new(0);
        o.set_now(2.0);
        {
            let _g = o.span("guarded");
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = o.span("dies");
            panic!("boom");
        }));
        assert!(caught.is_err());
        let tr = Trace { ranks: vec![o.snapshot()] };
        tr.validate().expect("guards close spans even under unwind");
        assert_eq!(tr.event_count("dies"), 2);
    }

    #[test]
    fn counters_aggregate_across_ranks() {
        let c = Collector::new();
        c.rank(0).add("net.sends", 3);
        c.rank(2).add("net.sends", 4);
        let tr = c.trace();
        assert_eq!(tr.counter_total("net.sends"), 7);
        assert_eq!(tr.counter_total("absent"), 0);
    }

    #[test]
    fn collector_hands_out_one_ring_per_rank() {
        let c = Collector::new();
        c.rank(1).add("x", 1);
        c.rank(1).add("x", 1); // a second request gets the same ring
        assert_eq!(c.trace().counter_total("x"), 2);
    }

    #[test]
    fn digest_is_timestamp_free_and_stable() {
        let mk = |dt: f64| {
            let o = RankObs::new(0);
            o.begin(dt, "phase");
            o.end(dt * 2.0, "phase");
            o.instant(dt * 3.0, "mark", "x");
            Trace { ranks: vec![o.snapshot()] }
        };
        assert_eq!(mk(1.0).digest(), mk(7.5).digest());
        assert!(mk(1.0).digest().contains("span phase x1"));
        assert!(mk(1.0).digest().contains("instant mark x1"));
    }

    #[test]
    fn chrome_json_passes_its_own_lint() {
        let c = Collector::new();
        let o = c.rank(0);
        o.begin(0.001, "mr.map");
        o.sample(0.0015, "mr.kv_pairs");
        o.instant(0.002, "sched.elect", "rank 0 -> 1 \"why\"");
        o.end(0.003, "mr.map");
        let o1 = c.rank(1);
        o1.begin(0.0, "mr.map");
        o1.end(0.004, "mr.map");
        let json = c.trace().chrome_json();
        let rep = lint_chrome_json(&json).expect("lint");
        assert_eq!(rep.spans, 2);
        assert_eq!(rep.tids, 2);
        assert!(rep.events >= 6);
    }

    #[test]
    fn lint_rejects_unbalanced_spans() {
        let o = RankObs::new(0);
        o.begin(1.0, "a");
        let json = (Trace { ranks: vec![o.snapshot()] }).chrome_json();
        assert!(lint_chrome_json(&json).is_err());
    }

    #[test]
    fn touch_counter_moves_only_when_recording() {
        let before = touched_count();
        let o = RankObs::new(0);
        o.set_now(1.0); // clock mirroring is not a recording op
        assert_eq!(touched_count(), before);
        o.add("c", 1);
        o.begin(1.0, "s");
        o.end(2.0, "s");
        assert_eq!(touched_count(), before + 3);
    }
}
