//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into the
//! engine's public functions; spans inside the crates are a later change.
//! With the tracer off every call is a branch on one bool, which is how the
//! untraced run that produces the end-to-end metrics stays unperturbed.

use crate::json::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request the span worked for; spans of one request share it.
    pub request: Option<usize>,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotals {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    /// Total minus the part of each span its direct children cover.
    pub self_ns: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::default()
    }

    pub fn on() -> Self {
        Tracer {
            enabled: true,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Opens a span whose end is not known yet; returns its index for use as
    /// a parent and for [`close`](Tracer::close).  `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<usize>,
        request: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>, end_ns: u64) {
        if let Some(index) = span {
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Records a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<usize>,
    ) {
        let span = self.open(name, start_ns, parent, request);
        self.close(span, end_ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Totals per span name, in order of first appearance.
    pub fn totals(&self) -> Vec<SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: Vec<SpanTotals> = Vec::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = match totals.iter_mut().find(|t| t.name == span.name) {
                Some(entry) => entry,
                None => {
                    totals.push(SpanTotals {
                        name: span.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    totals.last_mut().expect("just pushed")
                }
            };
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::UInt(v as u64));
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::UInt(s.start_ns)),
                        ("end_ns", Json::UInt(s.end_ns)),
                        ("parent", opt(s.parent)),
                        ("request", opt(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let root = tracer.open("run", 0, None, None);
        assert_eq!(root, None);
        tracer.span("tick", 1, 2, root, None);
        tracer.close(root, 3);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let mut tracer = Tracer::on();
        let root = tracer.open("run", 0, None, None);
        tracer.span("tick", 10, 40, root, None);
        tracer.span("tick", 50, 70, root, Some(3));
        tracer.close(root, 100);
        let totals = tracer.totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(
            totals[0],
            SpanTotals {
                name: "run",
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(totals[1].count, 2);
        assert_eq!(totals[1].total_ns, 50);
        assert_eq!(totals[1].self_ns, 50);
        assert_eq!(tracer.durations_ms("tick"), vec![30.0 / 1e6, 20.0 / 1e6]);
        let json = tracer.to_json();
        assert_eq!(json.as_arr().map(<[Json]>::len), Some(3));
        assert_eq!(crate::json::parse(&json.compact()).unwrap(), json);
    }
}
