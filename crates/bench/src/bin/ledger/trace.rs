//! Spans recorded from outside the system: the runner brackets every call
//! into a layer's public function, keeps the spans in memory, and writes
//! them once at the end. A layer's self time is its span minus the part of
//! that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` indexes the span that was open when this one
/// started; `op` is the cycle (or pipelined window) the call belongs to, so
/// the spans of one operation share an identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Disabled (the untraced measure phase), `enter` and
/// `exit` do nothing and read no clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

/// Handle of an open span (`None` while tracing is off).
pub type Open = Option<u32>;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause or resume recording (the untimed tamper probes pause it).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle between spans");
        self.enabled = enabled;
    }

    /// Tag every span opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open else { return };
        let end_ns = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Discard the innermost open span (a call that turned out to do
    /// nothing, such as a summary publication that was not yet due).
    pub fn cancel(&mut self, open: Open) {
        let Some(id) = open else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        assert_eq!(self.spans.len(), id as usize + 1, "cancel a leaf span");
        self.spans.pop();
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span closed");
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it (children that overlap each other are counted
/// once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
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
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Durations of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Total duration of the spans named `name`, per operation.
pub fn sum_by_op(spans: &[Span], name: &str) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.op).or_insert(0) += s.dur();
    }
    out
}

/// Write the span list, one JSON object per line:
/// `{"id":3,"name":"net.roundtrip","start_ns":..,"end_ns":..,"parent":2,"op":17}`.
pub fn write_spans(spans: &[Span], path: &str) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // query 0..100 → roundtrip 10..40 → (grandchild 15..25), verify 50..90.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children 10..50 and 30..70 overlap on 30..50; 60..65 sits inside
        // the second; 90..120 pokes out of the parent and is clipped.
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(60, 65, Some(0)),
            span(90, 120, Some(0)),
        ];
        // Covered: 10..70 (60) + 90..100 (10) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_records_parents_and_ops_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        let c = t.enter("c");
        t.cancel(c);
        t.exit(a);
        let spans = t.into_spans();
        let spans = spans.as_slice();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("a", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("b", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(sum_by_op(spans, "b").len(), 1);

        let mut off = Tracer::new(false);
        let a = off.enter("a");
        off.exit(a);
        assert!(off.into_spans().is_empty());
    }
}
