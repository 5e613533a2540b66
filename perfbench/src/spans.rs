//! Flat span records taken around the calls into each layer, kept in
//! memory and written out when the traced run ends.

use std::time::Instant;

use skewjoin::common::json::Json;

/// One timed interval. Spans of one benchmark operation share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `true` when the interval was laid out from a duration the program
    /// reported (phase times, queue/exec times, codec replicas) rather
    /// than read from the clock around a call.
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a clock-read span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<u64>,
        name: &str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.push(parent, name, request, start_ns, end_ns, false)
    }

    /// Lays `parts` (name, duration) end to end from `start_ns` as derived
    /// children of `parent`, clipped to `end_ns`.
    pub fn record_sequence(
        &mut self,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        parts: &[(&str, u64)],
    ) {
        let mut at = start_ns;
        for &(name, ns) in parts {
            let stop = at.saturating_add(ns).min(end_ns);
            self.push(Some(parent), name, request, at, stop, true);
            at = stop;
        }
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        name: &str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            request,
            start_ns,
            end_ns: end_ns.max(start_ns),
            derived,
        });
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: every record with its self time.
    pub fn to_json(&self, header: Vec<(&str, Json)>) -> Json {
        let records = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::from_u64(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::from_u64)),
                    ("name", Json::str(&s.name)),
                    ("request", Json::from_u64(s.request)),
                    ("start_ns", Json::from_u64(s.start_ns)),
                    ("end_ns", Json::from_u64(s.end_ns)),
                    ("self_ns", Json::from_u64(self_time_ns(&self.spans, s))),
                    ("derived", Json::Bool(s.derived)),
                ])
            })
            .collect();
        let mut fields = header;
        fields.push(("spans", Json::Arr(records)));
        Json::obj(fields)
    }
}

/// A span's duration minus the part of its interval that its children
/// cover (overlapping children counted once, clipped to the parent).
pub fn self_time_ns(spans: &[Span], span: &Span) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in children {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.record(None, "op", 1, 100, 200);
        t.record(Some(root), "a", 1, 110, 140);
        // Overlaps `a` by 10 ns: counted once.
        t.record(Some(root), "b", 1, 130, 160);
        // Sticks out past the parent: clipped at 200.
        t.record(Some(root), "c", 1, 190, 250);
        let grandchild_parent = t.record(Some(root), "d", 1, 170, 180);
        // A grandchild does not reduce the root's self time twice.
        t.record(Some(grandchild_parent), "e", 1, 172, 178);
        let spans = t.spans();
        assert_eq!(self_time_ns(spans, &spans[0]), 100 - 50 - 10 - 10);
        assert_eq!(self_time_ns(spans, &spans[4]), 4);
        assert_eq!(self_time_ns(spans, &spans[1]), 30);
    }

    #[test]
    fn sequences_are_laid_end_to_end_and_clipped() {
        let mut t = Tracer::new();
        let root = t.record(None, "svc.op", 7, 1_000, 1_100);
        t.record_sequence(root, 7, 1_000, 1_100, &[("x", 30), ("y", 50), ("z", 40)]);
        let s = t.spans();
        assert_eq!((s[1].start_ns, s[1].end_ns), (1_000, 1_030));
        assert_eq!((s[2].start_ns, s[2].end_ns), (1_030, 1_080));
        assert_eq!((s[3].start_ns, s[3].end_ns), (1_080, 1_100));
        assert!(s[1..].iter().all(|c| c.derived && c.request == 7));
        assert_eq!(self_time_ns(s, &s[0]), 0);
    }

    #[test]
    fn span_file_carries_every_field() {
        let mut t = Tracer::new();
        let root = t.record(None, "op", 3, 10, 50);
        t.record(Some(root), "leaf", 3, 20, 30);
        let text = t
            .to_json(vec![("workload", Json::str("small"))])
            .to_string();
        let back = Json::parse(&text).expect("span file parses");
        let spans = back.get("spans").and_then(Json::as_array).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("self_ns").and_then(Json::as_u64), Some(30));
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(root));
        assert_eq!(back.get("workload").and_then(Json::as_str), Some("small"));
    }
}
