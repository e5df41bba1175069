//! In-memory spans recorded by the harness around calls into the workspace's
//! public functions. A traced run keeps them all and writes `trace.json`
//! when it ends; an untraced run records nothing.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round the span belongs to: the identifier its spans share.
    pub round: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans that are open, outermost first.
    open: Vec<usize>,
    round: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// seconds it took. The harness is single-threaded around these calls,
    /// so the innermost open span is the parent.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let index = if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                round: self.round,
            });
            self.open.push(self.spans.len() - 1);
            Some(self.spans.len() - 1)
        } else {
            None
        };
        let value = f(self);
        let end = Instant::now();
        if let Some(i) = index {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
            self.open.pop();
        }
        (value, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `trace.json`: one object per span with its self time.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".into(),
            };
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"round\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.round
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out.push('\n');
        out
    }
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover. Children of one parent never overlap (one thread records
/// them), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_never_underflows() {
        // A child that (through clock granularity) outlasts its parent.
        let spans = [span(0, 10, None), span(0, 12, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::new(true);
        t.set_round(7);
        t.span("outer", |t| {
            t.span("a", |_| ());
            t.span("b", |t| {
                t.span("c", |_| ());
            });
        });
        t.span("next", |_| ());
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), None]);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.round == 7 && s.end_ns >= s.start_ns));
        let selfs = self_times(t.spans());
        assert!(selfs[0] <= t.spans()[0].duration_ns());
        assert!(t.to_json().contains("\"name\": \"c\""));
    }

    #[test]
    fn a_disabled_tracer_still_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("x", |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_json(), "[\n]\n");
    }
}
