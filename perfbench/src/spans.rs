//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (the engine itself carries no tracing yet). A span's layer is its name
//! up to the first `.`; a layer's self time is the time its spans cover
//! minus what their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the workload point the span belongs to, if any.
    pub point: Option<usize>,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, point: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            point,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and returns its duration in seconds. Spans opened
    /// inside it and still open (a call that panicked) close with it.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert!(self.open.contains(&id), "span {id} is not open");
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"point\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.point),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to its own interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
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
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            point: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("core.run", 0, 100, None),
            // Overlapping children count once: [10, 40) covers 30.
            span("ftl.a", 10, 30, Some(0)),
            span("ftl.b", 20, 40, Some(0)),
            // Clipped to the parent: [90, 100) covers 10.
            span("sim.c", 90, 120, Some(0)),
            // A grandchild is charged to its parent, not the root.
            span("hil.d", 12, 18, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 14, 20, 30, 6]);
        let layers = layer_self_s(&spans);
        assert!((layers["core"] - 60e-9).abs() < 1e-15);
        assert!((layers["ftl"] - 34e-9).abs() < 1e-15);
        assert!((layers["hil"] - 6e-9).abs() < 1e-15);
    }

    #[test]
    fn properly_nested_self_times_partition_the_root() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("core.run", 10, 40, Some(0)),
            span("ftl.replay", 50, 70, Some(0)),
            span("ftl.inner", 55, 60, Some(2)),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns, vec![50, 30, 15, 5]);
        assert_eq!(self_ns.iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut r = Recorder::new();
        let outer = r.enter("bench.pass", None);
        let inner = r.enter("core.run", Some(3));
        assert!(r.exit(inner) >= 0.0);
        r.exit(outer);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].point, Some(3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = r.to_json();
        assert!(json.contains("\"name\": \"core.run\""));
        assert!(json.contains("\"parent\": 0, \"point\": 3"));
    }
}
