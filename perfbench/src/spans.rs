//! Spans recorded from the benchmark's own code around each call it makes
//! into the simulator: kept in memory, written out once at the end.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct SpanRec {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_ns: u128,
    end_ns: u128,
}

/// An in-memory span log. Disabled logs time nothing and record nothing.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    done: Vec<SpanRec>,
    open: Vec<SpanRec>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans { origin: Instant::now(), enabled, done: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.done.len() + self.open.len();
        let parent = self.open.last().map(|s| s.id);
        let start_ns = self.origin.elapsed().as_nanos();
        self.open.push(SpanRec { id, parent, name: name.into(), start_ns, end_ns: start_ns });
        let out = f(self);
        let mut rec = self.open.pop().expect("span stack is balanced");
        rec.end_ns = self.origin.elapsed().as_nanos();
        self.done.push(rec);
        out
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Self time of every span name: duration minus the part its children
    /// cover, summed per name, in first-seen order.
    pub fn self_times(&self) -> Vec<(String, u128)> {
        let mut child_ns = vec![0u128; self.done.len() + self.open.len()];
        for s in &self.done {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(String, u128)> = Vec::new();
        let mut ordered: Vec<&SpanRec> = self.done.iter().collect();
        ordered.sort_by_key(|s| s.id);
        for s in ordered {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(slot) => slot.1 += own,
                None => out.push((s.name.clone(), own)),
            }
        }
        out
    }

    /// The log as a JSON array, in span-id order.
    pub fn to_json(&self) -> String {
        let mut ordered: Vec<&SpanRec> = self.done.iter().collect();
        ordered.sort_by_key(|s| s.id);
        let mut out = String::from("[\n");
        for (i, s) in ordered.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < ordered.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut spans = Spans::new(true);
        spans.span("outer", |s| {
            s.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        assert_eq!(spans.len(), 2);
        let json = spans.to_json();
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"), "{json}");
        let selfs = spans.self_times();
        let inner = selfs.iter().find(|(n, _)| n == "inner").unwrap().1;
        let outer = selfs.iter().find(|(n, _)| n == "outer").unwrap().1;
        assert!(inner >= 2_000_000 && outer < inner, "{selfs:?}");
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span("x", |_| 7), 7);
        assert_eq!(spans.len(), 0);
    }
}
