//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded from this crate only — around `generate`,
//! `Engine::new`, `install`, `run`, teardown and each layer micro-driver —
//! kept in a `Vec` and written out once, when the run ends. Nothing inside
//! the engine is instrumented; that is a later change.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    /// Measurement round the span belongs to.
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Units of work done inside (transactions, operations, records).
    pub count: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
pub struct Open(Option<usize>);

/// Span recorder. Disabled, every call is a branch and nothing else.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    round: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            round: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Record (or stop recording) from now on, attributing to `round`.
    pub fn set(&mut self, enabled: bool, round: u32) {
        self.enabled = enabled;
        self.round = round;
    }

    /// Are spans being recorded right now?
    pub fn recording(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; the innermost open span becomes its parent.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            round: self.round,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            count: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span, recording how many units of work it covered.
    pub fn exit(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].count = count;
    }

    /// Total duration (ns) and work count of all spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, c), s| {
                (d + (s.end_ns - s.start_ns), c + s.count)
            })
    }

    /// Per-name table: calls, total time, self time (total minus the part
    /// child spans cover) and work count.
    pub fn table(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&str, u64, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                    r.4 += s.count;
                }
                None => rows.push((s.name, 1, dur, own, s.count)),
            }
        }
        let mut out = format!(
            "{:<28} {:>6} {:>12} {:>12} {:>12}\n",
            "span", "calls", "total_ms", "self_ms", "count"
        );
        for (name, calls, dur, own, count) in rows {
            let _ = writeln!(
                out,
                "{name:<28} {calls:>6} {:>12.3} {:>12.3} {count:>12}",
                dur as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }

    /// All spans as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{workload}\", \"round\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"count\": {}}}{sep}",
                s.name, s.round, s.start_ns, s.end_ns, s.count
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let o = t.enter("a");
        t.exit(o, 5);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut t = Tracer::new();
        t.set(true, 3);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner, 7);
        t.exit(outer, 1);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].round, 3);
        assert_eq!(t.total("inner").1, 7);
        assert!(t.total("outer").0 >= t.total("inner").0);
        let json = t.to_json("w");
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
        assert!(t.table().contains("outer"));
    }
}
