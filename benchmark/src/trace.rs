//! The traced run's span record. Spans are opened and closed by the
//! benchmark's own code around each call it makes into a layer of the
//! program, kept in memory, and written out when the workload ends. With
//! no `Tracer` the same code paths run without recording anything, which
//! is how the end-to-end metrics are measured.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval. `parent` is an index into the span list;
/// spans of one client request share `request_id` (0 = none).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

/// Handle of an open span.
pub type SpanId = usize;

/// In-memory span recorder. All instants are nanoseconds since `epoch`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request_id: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span whose instants were stamped elsewhere (the client
    /// thread stamps request stages while it runs; they are folded in once
    /// the service run is over).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request_id: u64,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it that its child spans cover (overlapping children
    /// are merged first, so concurrent requests are not counted twice).
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
            }
        }
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            let own = (s.end_ns - s.start_ns - covered) as f64 / 1e9;
            match totals.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
        totals
    }

    /// The `trace.json` document: every span, in recording order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("gcl-benchmark/trace/v1".into())),
            ("unit", Json::Str("ns since the trace began".into())),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::Str(s.name.into())),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("request_id", Json::Num(s.request_id as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Opens a span when tracing is on.
pub fn begin(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    tracer.as_mut().map(|t| t.begin(name, parent))
}

/// Closes a span opened by [`begin`].
pub fn end(tracer: &mut Option<&mut Tracer>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.end(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut t = Tracer::new();
        let at = |ms: u64| t.epoch + Duration::from_millis(ms);
        let (a0, a100, a10, a40, a30, a60, a70, a80) = (
            at(0),
            at(100),
            at(10),
            at(40),
            at(30),
            at(60),
            at(70),
            at(80),
        );
        let root = t.record("workload", a0, a100, None, 0);
        // Two overlapping children cover 10..60, a third covers 70..80.
        t.record("call", a10, a40, Some(root), 1);
        t.record("call", a30, a60, Some(root), 2);
        t.record("call", a70, a80, Some(root), 3);
        let times = t.self_times();
        let get = |n: &str| times.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!((get("workload") - 0.040).abs() < 1e-9, "{times:?}");
        assert!((get("call") - 0.070).abs() < 1e-9, "{times:?}");
        let doc = t.to_json();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[2].get("request_id").unwrap().as_f64(), Some(2.0));
    }
}
