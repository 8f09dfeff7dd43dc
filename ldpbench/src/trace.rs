//! The harness's own span recorder: spans are taken around calls into
//! the system from outside, kept in memory, and written out when the run
//! ends. Nothing here reads the product's registry or trace ring.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Module of the system the call enters (`net`, `storage`, `core`…).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Reports, frames or calls the interval covered.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span buffer. Ids are drawn from disjoint ranges
/// (`first_id`), so buffers from several threads merge without
/// renumbering. A disabled recorder records nothing, which is how the
/// untraced run pays nothing but one branch.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, enabled: bool, first_id: u64) -> Self {
        Self {
            origin,
            enabled,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Records a finished interval and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.reserve();
        self.push(id, parent, (layer, name), (start, end), items);
        id
    }

    /// Reserves an id for a span whose children are recorded first.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records the root span reserved as `id`.
    pub fn record_reserved(
        &mut self,
        id: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        if self.enabled {
            self.push(id, 0, (layer, name), (start, end), items);
        }
    }

    fn push(
        &mut self,
        id: u64,
        parent: u64,
        (layer, name): (&'static str, &'static str),
        (start, end): (Instant, Instant),
        items: u64,
    ) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            items,
        });
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover (children of concurrent threads may overlap
/// each other, so their union is taken, clipped to the parent).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(cursor);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for s in spans {
        line.clear();
        Json::obj([
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("layer", Json::Str(s.layer.into())),
            ("name", Json::Str(s.name.into())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("items", Json::Num(s.items as f64)),
        ])
        .write(&mut line);
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "net",
            name: "x",
            start_ns,
            end_ns,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            // Overlaps span 2 (another thread) and sticks out of the parent.
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
            span(5, 3, 25, 45),
        ];
        let selfs = self_times(&spans);
        // Covered: [10,50) ∪ [90,100) = 50.
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&5], 20);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Instant::now();
        let mut off = Recorder::new(t, false, 1);
        assert_eq!(off.record(0, "net", "send_batch", t, t, 256), 0);
        assert!(off.spans.is_empty());
        let mut on = Recorder::new(t, true, 1);
        let parent = on.reserve();
        let child = on.record(parent, "net", "send_batch", t, t, 256);
        on.record_reserved(parent, "bench", "ingest_pass", t, t, 256);
        assert_eq!((parent, child), (1, 2));
        assert_eq!(on.spans.len(), 2);
    }
}
