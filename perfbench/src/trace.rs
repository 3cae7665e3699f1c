//! The benchmark's own spans around the calls it makes into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, a parent, and the
//! id of the request it belongs to, plus the engine's [`Metrics`] counter
//! delta over its interval where the call reports one. Spans are kept in
//! memory and written out when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.
//!
//! A disabled tracer records nothing: the untraced run, which gives every
//! end-to-end number, pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use two_knn::core::obs::counter_fields;
use two_knn::Metrics;

use crate::json::Obj;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `store.ingest`.
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// The closed-loop request this span belongs to.
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// The engine's work-counter delta over the span, when known.
    pub counters: Option<Metrics>,
}

impl Span {
    /// The layer a span is attributed to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall time in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans that start afterwards.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of request `request`; spans `f`
    /// opens through the tracer it receives become this span's children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            request,
            start,
            end: start,
            counters: None,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[index].end = end;
        out
    }

    /// Attaches a counter delta to the innermost open span (a no-op when
    /// disabled or outside any span).
    pub fn counters(&mut self, delta: Metrics) {
        if let Some(&i) = self.open.last() {
            let slot = self.spans[i].counters.get_or_insert_with(Metrics::default);
            *slot += delta;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The part of `[start, end)` not covered by the union of `children`.
/// Children may overlap each other or stick out of the parent; only the
/// covered part inside the parent is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (end - start).saturating_sub(covered)
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| self_time(span.start, span.end, kids))
        .collect()
}

/// Per-layer totals over a trace: self time, span count, and the summed
/// counter deltas, plus the check that inside every request the self times
/// of the non-root spans sum to no more than the root span.
#[derive(Debug, Default)]
pub struct LayerSummary {
    /// Layer → (self nanoseconds, spans, counter delta), sorted by layer.
    pub layers: BTreeMap<&'static str, (u64, u64, Metrics)>,
    /// Requests whose layer self times exceeded their root span.
    pub over_root: u64,
    /// Requests with a root span.
    pub requests: u64,
}

impl LayerSummary {
    /// Summarises `spans`.
    pub fn of(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut out = LayerSummary::default();
        // request → (root duration, sum of non-root self times)
        let mut per_request: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (span, &own) in spans.iter().zip(&selfs) {
            let entry = out.layers.entry(span.layer()).or_default();
            entry.0 += own;
            entry.1 += 1;
            if let Some(c) = span.counters {
                entry.2 += c;
            }
            let req = per_request.entry(span.request).or_default();
            if span.parent.is_none() {
                req.0 += span.duration();
            } else {
                req.1 += own;
            }
        }
        for (root, inner) in per_request.values() {
            if *root > 0 {
                out.requests += 1;
                if inner > root {
                    out.over_root += 1;
                }
            }
        }
        out
    }

    /// One JSON line per layer.
    pub fn to_json_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (layer, (nanos, count, counters)) in &self.layers {
            let mut fields = Obj::new();
            for (name, value) in counter_fields(counters) {
                if value > 0 {
                    fields = fields.int(name, value);
                }
            }
            out.push_str(
                &Obj::new()
                    .str("type", "layer_self_time")
                    .str("workload", workload)
                    .str("layer", layer)
                    .num("self_ms", *nanos as f64 / 1e6)
                    .int("spans", *count)
                    .raw("counters", &fields.render())
                    .render(),
            );
            out.push('\n');
        }
        out
    }
}

/// Every span as one JSON line (what the run writes out at the end).
pub fn spans_to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, span) in spans.iter().enumerate() {
        let mut o = Obj::new()
            .int("id", i as u64)
            .str("name", span.name)
            .int("request", span.request)
            .int("start_ns", span.start)
            .int("end_ns", span.end);
        o = match span.parent {
            Some(p) => o.int("parent", p as u64),
            None => o.raw("parent", "null"),
        };
        if let Some(c) = span.counters {
            let mut fields = Obj::new();
            for (name, value) in counter_fields(&c) {
                if value > 0 {
                    fields = fields.int(name, value);
                }
            }
            o = o.raw("counters", &fields.render());
        }
        out.push_str(&o.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, request: u64, s: u64, e: u64) -> Span {
        Span {
            name,
            parent,
            request,
            start: s,
            end: e,
            counters: None,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 70)]), 70);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // [10,40) ∪ [30,60) ∪ [55,58) = [10,60): 50 covered.
        assert_eq!(self_time(0, 100, &[(30, 60), (10, 40), (55, 58)]), 50);
        // A child nested inside another child adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(0, 5), (25, 40)]), 10);
        assert_eq!(self_time(10, 20, &[(0, 40)]), 0);
    }

    #[test]
    fn nested_spans_attribute_time_to_the_innermost_layer() {
        let spans = vec![
            span("request", None, 0, 0, 100),
            span("exec.batch", Some(0), 0, 10, 90),
            span("plan.compile", Some(1), 0, 20, 30),
            span("plan.compile", Some(1), 0, 25, 40), // overlaps its sibling
            span("request", None, 1, 100, 150),
            span("store.ingest", Some(4), 1, 100, 150),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 10, 15, 0, 50]);
        let summary = LayerSummary::of(&spans);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.over_root, 0);
        assert_eq!(summary.layers["exec"].0, 60);
        assert_eq!(summary.layers["plan"].0, 25);
        assert_eq!(summary.layers["plan"].1, 2);
        assert_eq!(summary.layers["request"].0, 20);
    }

    #[test]
    fn overlapping_siblings_can_exceed_the_root_and_are_flagged() {
        // Two sibling spans that overlap each other (work on two threads)
        // have self times summing past the root: the check must catch it.
        let spans = vec![
            span("request", None, 7, 0, 100),
            span("exec.a", Some(0), 7, 0, 80),
            span("exec.b", Some(0), 7, 10, 90),
        ];
        let summary = LayerSummary::of(&spans);
        assert_eq!(summary.over_root, 1);
    }

    #[test]
    fn tracer_records_parents_requests_and_counters() {
        let mut t = Tracer::new(true);
        t.span("request", 3, |t| {
            t.span("store.ingest", 3, |t| {
                t.counters(Metrics {
                    ingest_ops: 4,
                    ..Metrics::default()
                })
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 3);
        assert_eq!(spans[1].counters.unwrap().ingest_ops, 4);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Tracer::new(false);
        off.span("request", 0, |t| t.counters(Metrics::default()));
        assert!(off.spans().is_empty());
    }
}
