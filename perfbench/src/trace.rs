//! In-memory span recorder for the traced run.
//!
//! A span is named `<layer>.<fn>` and wraps one call the benchmark makes
//! into a crate's public API. It records start, end, its parent span and
//! the id of the round it belongs to. Inside the two hottest loops (a
//! file's block allocations, one timer-wheel round of heartbeats) a span
//! wraps the batch of calls instead and records how many it covers, so
//! per-call means stay exact while a round keeps thousands of spans, not
//! a hundred thousand. Spans stay in memory until the run ends;
//! [`Tracer::write_tsv`] then writes them out. When tracing is off,
//! [`Tracer::span`] costs one branch and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub round: u32,
    pub parent: Option<u32>,
    /// Calls the span covers: 1, or a batch's size.
    pub calls: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    round: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { on: false, origin: Instant::now(), round: 0, spans: Vec::new(), stack: Vec::new() }
    }

    /// Start recording `round`'s spans, or stop recording (`on = false`).
    /// Clears the parent stack, so a round that unwound mid-span cannot
    /// leave a dangling parent behind.
    pub fn begin_round(&mut self, round: u32, on: bool) {
        self.round = round;
        self.on = on;
        self.stack.clear();
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`. Spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_n(name, 1, f)
    }

    /// Run `f`, which makes `calls` calls of one function, inside one span.
    pub fn span_n<T>(
        &mut self,
        name: &'static str,
        calls: u32,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            round: self.round,
            parent: self.stack.last().copied(),
            calls,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as tab-separated
    /// `id round parent name calls start_ns end_ns self_ns` rows (`parent`
    /// is `-` for a root span).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tround\tparent\tname\tcalls\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                s.round, s.name, s.calls, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p as usize].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start_ns.max(s.start_ns), spans[k].end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time and call counts of one span name.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Calls covered, counting a batch span as its batch size.
    pub calls: u64,
    pub self_ns: u64,
    /// Self time summed per round id.
    pub per_round_ns: BTreeMap<u32, u64>,
    /// Self time of each span, in record order.
    pub per_span_ns: Vec<u64>,
}

/// Group spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let e = out.entry(s.name).or_default();
        e.calls += u64::from(s.calls);
        e.self_ns += self_ns;
        *e.per_round_ns.entry(s.round).or_default() += self_ns;
        e.per_span_ns.push(self_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, round: 0, parent, calls: 1, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and one runs past the parent's end.
        let spans = [
            span("p", None, 0, 100),
            span("c1", Some(0), 10, 60),
            span("c2", Some(0), 40, 80),
            span("c3", Some(0), 90, 130),
        ];
        // Covered: [10,80) + [90,100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_spans_and_tags_rounds() {
        let mut t = Tracer::new();
        t.begin_round(7, true);
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
        });
        t.begin_round(8, false);
        t.span("untraced", |_| ());
        t.begin_round(9, true);
        t.span_n("batch", 100, |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].round), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent, s[1].round), ("inner", Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let stats = by_name(s);
        assert_eq!(stats["outer"].calls, 1);
        assert_eq!(stats["outer"].self_ns + stats["inner"].self_ns, s[0].dur_ns());
        assert_eq!((stats["batch"].calls, s[2].round), (100, 9));
    }
}
