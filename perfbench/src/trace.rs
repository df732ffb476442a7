//! In-memory spans around the public calls the benchmark makes, written
//! out at exit as Chrome trace-event JSON (opens in Perfetto or
//! `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name, e.g. `cfg.intervals`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// Duration in nanoseconds.
    pub dur: u64,
    /// Index of the workload file the span worked on.
    pub file: usize,
    /// Which traced pass the span belongs to.
    pub pass: usize,
}

/// Records nested spans on one thread. Spans are opened with
/// [`Tracer::open`] and closed with [`Tracer::close`] in LIFO order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Traced pass that new spans belong to.
    pub pass: usize,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` on `file`, nested in the innermost open
    /// span.
    pub fn open(&mut self, name: &'static str, file: usize) {
        let start = self.now();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.stack.iter().rev().nth(1).copied(),
            start,
            dur: 0,
            file,
            pass: self.pass,
        });
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn close(&mut self) -> u64 {
        let end = self.now();
        let i = self.stack.pop().expect("close without a matching open");
        let span = &mut self.spans[i];
        span.dur = end - span.start;
        span.dur
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(&mut self, name: &'static str, file: usize, f: impl FnOnce() -> R) -> R {
        self.open(name, file);
        let r = f();
        self.close();
        r
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the durations of its
    /// direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur);
            }
        }
        own
    }

    /// Per-name totals `(count, total ns, self ns)`, sorted by name.
    pub fn table(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let own = self.self_times();
        let mut table: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, &o) in self.spans.iter().zip(&own) {
            let e = table.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur;
            e.2 += o;
        }
        table
    }

    /// The first `max_events` spans as Chrome trace-event JSON: complete
    /// (`"ph":"X"`) events in microseconds, one thread, with the file
    /// index and pass as arguments.
    pub fn chrome_json(&self, file_names: &[String], max_events: usize) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (k, s) in self.spans.iter().take(max_events).enumerate() {
            if k > 0 {
                out.push_str(",\n");
            }
            let file = file_names.get(s.file).map_or("", String::as_str);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"file\":\"{}\",\"pass\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start as f64 / 1e3,
                s.dur as f64 / 1e3,
                file.replace('\\', "\\\\").replace('"', "\\\""),
                s.pass
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.open("file", 0);
        t.span("a", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.open("b", 0);
        t.span("c", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        t.close();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own = t.self_times();
        assert_eq!(own[0], spans[0].dur - spans[1].dur - spans[2].dur);
        assert_eq!(own[2], spans[2].dur - spans[3].dur);
        let table = t.table();
        assert_eq!(table["a"].0, 1);
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn chrome_json_is_a_trace_event_document() {
        let mut t = Tracer::new();
        t.span("ir.parse", 0, || ());
        t.span("cfg.lower", 0, || ());
        let json = t.chrome_json(&["a\"b.minif".to_string()], 1);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"ir.parse\",\"cat\":\"ir\",\"ph\":\"X\""));
        assert!(json.contains("a\\\"b.minif"));
        assert!(!json.contains("cfg.lower"), "capped at one event");
        assert!(json.trim_end().ends_with("]}"));
    }
}
