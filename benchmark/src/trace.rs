//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the harness, around its calls into each crate's
//! public functions; nothing inside the crates under test is instrumented.
//! A span's name is the per-layer metric it feeds, without the unit suffix
//! (`blocking.join.build` feeds `blocking.join.build_s`). Spans stay in
//! memory until the workload ends and are then written as one JSON file.
//! With the tracer off every call is a no-op, so the same workload code runs
//! in the untraced pass and the difference between the two is the overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Request, batch or rep the span belongs to.
    pub run: u64,
}

/// Handle of an open span; `None` when the tracer is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Per-name totals over all recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_s: f64,
    /// Total minus the part covered by direct child spans.
    pub self_s: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// An instant taken elsewhere (another thread), on this tracer's axis.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Sets the identifier stamped on spans begun from now on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        // Spans close innermost first; a span closed out of order also
        // closes the ones opened inside it.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// seconds, which are measured whether or not the tracer is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// Records a span whose interval was measured elsewhere (a stage timing
    /// returned by the program, a checkpoint file appearing), as a child of
    /// the span that is open now.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> SpanId {
        let parent = SpanId(self.open.last().copied());
        self.record_in(parent, name, start_ns, end_ns)
    }

    /// [`record`](Tracer::record) under an explicit parent, for spans that
    /// are reconstructed after the fact.
    pub fn record_in(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: parent.0,
            run: self.run,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, self time = duration minus direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += dur as f64 / 1e9;
            e.self_s += dur.saturating_sub(child_ns[i]) as f64 / 1e9;
        }
        out
    }

    /// Writes every span as `{"spans": [...]}`, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let id = t.begin("a");
        t.end(id);
        let ((), secs) = t.time("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.record("c", 0, 10);
        assert!(t.spans().is_empty());
        assert!(secs >= 0.002);
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let now = t.now_ns();
        // Children covering 30 + 20 + 10 ns, and grandchildren that must not
        // be subtracted from the outer span a second time.
        t.record("child", now, now + 30);
        let inner = t.begin("inner");
        let at = t.now_ns();
        t.record("grandchild", at, at + 5);
        t.end(inner);
        t.end(outer);
        let late = t.record_in(outer, "late", 70, 80);
        t.record_in(late, "later", 70, 75);
        // Make the arithmetic exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[2].start_ns = 40;
        t.spans[2].end_ns = 60;
        let totals = t.totals();
        assert_eq!(totals["outer"].count, 1);
        assert!((totals["outer"].total_s - 100e-9).abs() < 1e-15);
        assert!((totals["outer"].self_s - 40e-9).abs() < 1e-15);
        assert!((totals["late"].self_s - 5e-9).abs() < 1e-15);
        assert!((totals["inner"].self_s - 15e-9).abs() < 1e-15);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2));
        assert!((totals["child"].total_s - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_carry_the_run_id_and_serialize() {
        let mut t = Tracer::new(true);
        t.set_run(7);
        let ((), _) = t.time("x", || ());
        assert_eq!(t.spans()[0].run, 7);
        let dir = std::env::temp_dir().join(format!("em-benchmark-trace-{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write_json(&path).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        assert!(text.starts_with("{\"spans\": [") && text.contains("\"name\": \"x\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
