//! What one cell measured, and the line format a cell's child process
//! hands it to the parent in.

use crate::span::Span;
use crate::stats::Sample;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples, failures and spans of one cell. A child process runs one
/// op and reports one value per series it touches (pause series hold
/// one value per collection); the parent pools the children's reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Samples by series name: timings in the unit the name says,
    /// counters as one value per op.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Ops run and checked.
    pub attempted: u64,
    /// One message per failed op, each a reproduction line.
    pub failures: Vec<String>,
    /// Spans of the traced ops.
    pub spans: Vec<Span>,
}

impl Report {
    /// Appends a value to a series.
    pub fn sample(&mut self, series: &str, value: f64) {
        self.series.entry(series.to_string()).or_default().push(value);
    }

    /// Records a failed op.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }

    /// A series as a sorted sample (empty if absent).
    #[must_use]
    pub fn sampled(&self, series: &str) -> Sample {
        Sample::new(self.series.get(series).cloned().unwrap_or_default())
    }

    /// Median of a series, `0` if absent. For a per-op counter this is
    /// its value on the typical op (the exact value when it repeats).
    #[must_use]
    pub fn median(&self, series: &str) -> f64 {
        self.sampled(series).median()
    }

    /// Folds another report of the same cell into this one.
    pub fn merge(&mut self, other: Report) {
        for (k, v) in other.series {
            self.series.entry(k).or_default().extend(v);
        }
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Serialises the report, one tab-separated record per line.
    #[must_use]
    pub fn to_lines(&self) -> String {
        let mut out = format!("a\t{}\n", self.attempted);
        for (name, values) in &self.series {
            for v in values {
                let _ = writeln!(out, "s\t{name}\t{v}");
            }
        }
        for f in &self.failures {
            let _ = writeln!(out, "f\t{}", escape(f));
        }
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ =
                writeln!(out, "p\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.op);
        }
        out
    }

    /// Parses what [`Report::to_lines`] wrote.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn from_lines(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let bad = || format!("malformed report line: {line:?}");
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["a", n] => r.attempted = n.parse().map_err(|_| bad())?,
                ["s", name, v] => r.sample(name, v.parse().map_err(|_| bad())?),
                ["f", msg] => r.fail(unescape(msg)),
                ["p", name, start, end, parent, op] => r.spans.push(Span {
                    name: (*name).to_string(),
                    start_ns: start.parse().map_err(|_| bad())?,
                    end_ns: end.parse().map_err(|_| bad())?,
                    parent: match *parent {
                        "-" => None,
                        p => Some(p.parse().map_err(|_| bad())?),
                    },
                    op: op.parse().map_err(|_| bad())?,
                }),
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

/// Makes `s` one tab-free line.
#[must_use]
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('\t', "\\t")
}

/// Inverse of [`escape`].
#[must_use]
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('n') => '\n',
            Some('t') => '\t',
            Some(other) => other,
            None => '\\',
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.sample("op_s", 0.125);
        r.sample("op_s", 1.0 / 3.0);
        r.sample("steps", 308_000_000.0);
        r.fail("cell semi op 2: wrong output \"a\tb\\\nc\"");
        r.spans.push(Span { name: "op".into(), start_ns: 5, end_ns: 50, parent: None, op: 1 });
        r.spans.push(Span {
            name: "vm.load".into(),
            start_ns: 6,
            end_ns: 9,
            parent: Some(0),
            op: 1,
        });
        assert_eq!(Report::from_lines(&r.to_lines()).unwrap(), r);
        assert!(Report::from_lines("x\t1\n").is_err());
    }

    #[test]
    fn merge_pools_series_and_rebases_span_parents() {
        let mut a = Report { attempted: 1, ..Report::default() };
        a.sample("collections", 10.0);
        a.sample("op_s", 0.5);
        a.spans.push(Span { name: "op".into(), start_ns: 0, end_ns: 9, parent: None, op: 1 });
        let mut b = a.clone();
        b.sample("op_s", 0.7);
        b.spans.push(Span { name: "run".into(), start_ns: 1, end_ns: 8, parent: Some(0), op: 1 });
        a.merge(b);
        assert_eq!((a.attempted, a.median("collections")), (2, 10.0));
        assert_eq!(a.series["op_s"], [0.5, 0.5, 0.7]);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.median("absent"), 0.0);
    }

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "two\nlines\n", "tab\tand \\ slash", "\\n literal"] {
            assert_eq!(unescape(&escape(s)), s);
            assert!(!escape(s).contains('\n') && !escape(s).contains('\t'));
        }
    }
}
