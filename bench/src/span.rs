//! Spans recorded by the harness around each call into a layer: name,
//! start, end, the span that caused it and the op it belongs to. They
//! stay in memory until the run ends and are then written as a
//! Chrome-trace file (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `frontend.parse`.
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The op (one source text → checked output) this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration, ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; costs one branch per call otherwise.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder; a disabled one runs the closures and records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// True if spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The closed spans, in start order.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total self time per span name, ns.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name.clone()).or_insert(0) += own;
    }
    by_name
}

/// Renders span groups (one per cell, shown as one process each) as
/// Chrome-trace JSON.
#[must_use]
pub fn chrome_trace(groups: &[(String, Vec<Span>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (pid, (cell, spans)) in groups.iter().enumerate() {
        let mut event = |body: String| {
            out.push_str(if first { "" } else { ",\n" });
            first = false;
            out.push_str(&body);
        };
        event(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            crate::json::quote(cell)
        ));
        for (i, s) in spans.iter().enumerate() {
            let mut args = format!("\"id\":{i},\"op\":{}", s.op);
            if let Some(p) = s.parent {
                let _ = write!(args, ",\"parent\":{p}");
            }
            event(format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{{args}}}}}",
                crate::json::quote(&s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_ns: start, end_ns: end, parent, op: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100) > compile [10,60) > parse [20,30), opt [30,55); op > run [60,95).
        let spans = vec![
            span("op", 0, 100, None),
            span("compile", 10, 60, Some(0)),
            span("parse", 20, 30, Some(1)),
            span("opt", 30, 55, Some(1)),
            span("run", 60, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 15, 10, 25, 35]);
        // Self times partition the root span.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["compile"], 15);
    }

    #[test]
    fn same_name_spans_add_up() {
        let spans = vec![span("lex", 0, 4, None), span("lex", 10, 17, None)];
        assert_eq!(self_time_by_name(&spans)["lex"], 11);
    }

    #[test]
    fn recorder_nests_and_stamps_ops() {
        let mut rec = Recorder::new(true);
        rec.set_op(7);
        let v = rec.span("outer", |r| r.span("inner", |_| 42));
        assert_eq!(v, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent, spans[0].op), ("outer", None, 7));
        assert_eq!((spans[1].name.as_str(), spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_json() {
        let text = chrome_trace(&[("semi".to_string(), vec![span("op", 0, 1500, None)])]);
        let v = crate::json::parse(&text).expect("valid json");
        let events = v.get("traceEvents").and_then(crate::json::Value::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(crate::json::Value::as_f64), Some(1.5));
    }
}
