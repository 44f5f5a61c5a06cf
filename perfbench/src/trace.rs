//! Benchmark-side tracing: spans recorded around each call into a layer,
//! kept in memory, and written out at the end of a traced run as a
//! Chrome/Perfetto trace plus a per-layer self-time table.
//!
//! A disarmed [`Tracer`] records nothing; every method is one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use gr_observe::profiler::WALL_ITERATION;
use gr_observe::WallProfile;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (a job, a query or a drain).
    pub req: u64,
    /// Display lane (0 = the benchmark's own thread).
    pub lane: u32,
}

pub struct Tracer {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(armed: bool) -> Tracer {
        Tracer {
            armed,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, req: u64) -> SpanId {
        if !self.armed {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
            lane: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// [`Tracer::begin`] when `cond` holds, else a no-op handle.
    pub fn begin_when(&mut self, cond: bool, name: &str, req: u64) -> SpanId {
        if cond {
            self.begin(name, req)
        } else {
            SpanId(None)
        }
    }

    /// Close `id` (and anything still open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Record an already-measured interval under `span.parent`, or under
    /// the innermost open span when it has none.
    pub fn record(&mut self, mut span: Span) {
        if !self.armed {
            return;
        }
        if span.parent.is_none() {
            span.parent = self.open.last().copied();
        }
        self.spans.push(span);
    }

    /// Attach a query's wall-profiler samples as child spans of `query`:
    /// iteration windows directly under it, GAS phase samples under the
    /// iteration window that contains them. `armed_at` is when the
    /// profiler's clock started.
    pub fn attach_profile(&mut self, query: SpanId, profile: &WallProfile, armed_at: Instant) {
        let Some(qidx) = query.0 else { return };
        let offset = self.ns_at(armed_at);
        let req = self.spans[qidx].req;
        let mut windows: Vec<(u64, u64, usize)> = Vec::new();
        for s in profile
            .samples
            .iter()
            .filter(|s| s.key.phase == WALL_ITERATION)
        {
            let (start, end) = (offset + s.start_ns, offset + s.start_ns + s.dur_ns);
            self.spans.push(Span {
                name: "host.iteration".to_string(),
                start_ns: start,
                end_ns: end,
                parent: Some(qidx),
                req,
                lane: 1,
            });
            windows.push((start, end, self.spans.len() - 1));
        }
        windows.sort_unstable();
        for s in profile
            .samples
            .iter()
            .filter(|s| s.key.phase != WALL_ITERATION)
        {
            let start = offset + s.start_ns;
            let at = windows.partition_point(|w| w.0 <= start);
            let parent = match at.checked_sub(1).map(|i| windows[i]) {
                Some((_, end, idx)) if start < end => idx,
                _ => qidx,
            };
            self.spans.push(Span {
                name: format!("host.{}", s.key.phase),
                start_ns: start,
                end_ns: start + s.dur_ns,
                parent: Some(parent),
                req,
                lane: 2 + s.thread.min(QUERY_LANE_BASE - 3),
            });
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (complete `"X"` events, microseconds).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let lanes: std::collections::BTreeSet<u32> = self.spans.iter().map(|s| s.lane).collect();
        let mut first = true;
        for lane in lanes {
            let label = match lane {
                0 => "benchmark".to_string(),
                1 => "host iterations".to_string(),
                l if l >= QUERY_LANE_BASE => format!("queries {}", l - QUERY_LANE_BASE),
                l => format!("host worker {}", l - 2),
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{lane},\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"perfbench\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Per span name: count, total and self time (duration minus the part
    /// covered by child spans), largest self time first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut by_name: BTreeMap<&str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(
                s.start_ns,
                s.end_ns,
                children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns)),
            );
            let total = s.end_ns.saturating_sub(s.start_ns);
            let row = by_name.entry(&s.name).or_insert_with(|| SelfTime {
                name: s.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += total;
            row.self_ns += total - covered.min(total);
        }
        let mut rows: Vec<SelfTime> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        rows
    }
}

/// Lanes at or above this hold per-query latency spans (serving).
pub const QUERY_LANE_BASE: u32 = 1 << 30;

#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The self-time table as aligned text.
pub fn self_time_table(rows: &[SelfTime]) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.3} {:>12.3}",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let iv = [(5, 15), (10, 20), (30, 40), (95, 120)];
        assert_eq!(covered_ns(0, 100, iv.into_iter()), 15 + 10 + 5);
        assert_eq!(covered_ns(0, 100, std::iter::empty()), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        let span = |name: &str, a, b, parent| Span {
            name: name.to_string(),
            start_ns: a,
            end_ns: b,
            parent,
            req: 0,
            lane: 0,
        };
        t.record(span("job", 0, 100, None));
        // Two overlapping children (parallel workers) cover 10..60.
        t.record(span("kernel", 10, 50, Some(0)));
        t.record(span("kernel", 20, 60, Some(0)));
        let rows = t.self_times();
        let job = rows.iter().find(|r| r.name == "job").unwrap();
        assert_eq!((job.total_ns, job.self_ns), (100, 50));
        let k = rows.iter().find(|r| r.name == "kernel").unwrap();
        assert_eq!((k.count, k.total_ns, k.self_ns), (2, 80, 80));
    }

    #[test]
    fn disarmed_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 1);
        t.end(id);
        assert!(t.spans().is_empty());
        assert!(t.chrome_json().contains("traceEvents"));
    }

    #[test]
    fn nested_begin_end_links_parents() {
        let mut t = Tracer::new(true);
        let a = t.begin("outer", 7);
        let b = t.begin("inner", 7);
        t.end(b);
        t.end(a);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
