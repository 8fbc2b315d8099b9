//! Round timing, medians, and the span recorder of the traced run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles `(q1, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` — the rule `BENCHMARK.json`'s
/// bounds are judged by.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Exclusive method: position k·(n+1)/4, 1-based, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    if n < 2 {
        (v[0], v[0])
    } else {
        (at(1), at(3))
    }
}

/// One recorded span: a phase, a round inside it, or a chunk of calls
/// into one layer inside a round.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span; 0 for a phase.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

/// In-memory span recorder of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns, ops: 0 });
        self.open.push(id);
    }

    /// Close the innermost open span, crediting it `ops` operations.
    pub fn close(&mut self, ops: u64) {
        let id = self.open.pop().expect("close without open");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.ops = ops;
    }

    /// Record an already-timed leaf span (a chunk) under the innermost
    /// open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, ops: u64) {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let rel = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { id, parent, name, start_ns: rel(start), end_ns: rel(end), ops });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"ops\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}

/// Run `rounds + 1` rounds of `body` (the first is the untimed warm-up)
/// inside a phase span and return each timed round's figure. `body` gets
/// the round index (0 = warm-up) and returns `(figure, ops)`; it times
/// itself, so set-up and verification inside it stay out of the figure.
pub fn rounds<T>(
    tracer: &mut Tracer,
    phase: &'static str,
    rounds: usize,
    mut body: impl FnMut(&mut Tracer, usize) -> (T, u64),
) -> Vec<T> {
    tracer.open(phase);
    let mut figures = Vec::with_capacity(rounds);
    let mut total_ops = 0;
    for r in 0..=rounds {
        tracer.open(if r == 0 { "warmup" } else { "round" });
        let (figure, ops) = body(tracer, r);
        tracer.close(ops);
        total_ops += ops;
        if r > 0 {
            figures.push(figure);
        }
    }
    tracer.close(total_ops);
    figures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new();
        let figures = rounds(&mut t, "phase", 2, |t, r| {
            let now = Instant::now();
            t.leaf("chunk", now, now, 7);
            (r as f64, 7)
        });
        assert_eq!(figures, vec![1.0, 2.0]);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names[0], ("phase", 0));
        assert_eq!(names[1], ("warmup", 1));
        assert_eq!(names[2], ("chunk", 2));
        assert_eq!(t.spans()[0].ops, 21);
    }
}
