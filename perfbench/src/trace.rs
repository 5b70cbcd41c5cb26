//! In-memory spans for the traced run, and the self-time rule.
//!
//! A span records one call into a layer: its name, start and end, the span
//! that caused it, and the request it belongs to. Spans stay in memory
//! while the run measures and are written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut open: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match open {
                    Some((oa, ob)) if a <= ob => open = Some((oa, ob.max(b))),
                    _ => {
                        if let Some((oa, ob)) = open {
                            covered += ob - oa;
                        }
                        open = Some((a, b));
                    }
                }
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self times in nanoseconds, grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        by.entry(s.name).or_default().push(t);
    }
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            // Two overlapping children cover 40..70 together: 30, not 40.
            span("search", 40, 60, Some(0)),
            span("search", 50, 70, Some(0)),
            // A grandchild is charged to its own parent only.
            span("index", 42, 48, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 14, 20, 6]);
        let by = self_times_by_name(&spans);
        assert_eq!(by["search"], vec![14, 20]);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("a", 10, 20, None), span("b", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_nests() {
        let mut t = Tracer::new();
        let root = t.begin("request", None, 7);
        let child = t.begin("parse", Some(root), 7);
        t.end(child);
        t.end(root);
        let s = t.spans();
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert_eq!(s[1].parent, Some(0));
        let times = self_times(s);
        assert_eq!(times[0] + times[1], s[0].end - s[0].start);
    }
}
