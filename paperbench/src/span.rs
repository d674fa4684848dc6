//! In-memory spans for the traced pass: one trace per simulated point,
//! one span per call into a layer, kept until the benchmark ends and
//! then written out as JSON.

use std::time::Instant;

/// One timed call. Times are nanoseconds since the benchmark's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one point (the trace identifier is the point's key).
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Open a span under `parent`; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Total duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// A span's self time: its duration minus the part of it that its
    /// child spans cover (overlapping children are counted once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        me.dur_ns() - covered
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values as Rust prints them (all digits kept),
/// anything else as 0 so the output always parses.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Render traces as a JSON array of `{"trace", "pass", "spans"}` objects;
/// each span carries its name, parent index, start, end and self time.
pub fn traces_json(traces: &[(String, usize, Trace)]) -> String {
    let mut out = String::from("[");
    for (i, (key, pass, t)) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"trace\":{},\"pass\":{pass},\"spans\":[",
            json_str(key)
        ));
        for (j, s) in t.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{j},\"name\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                t.self_ns(j)
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_time_minus_child_spans() {
        let mut t = Trace::new(Instant::now());
        t.spans = vec![
            span("point", None, 0, 100),
            span("machine.new", Some(0), 10, 20),
            span("kernels.build", Some(0), 20, 35),
            span("machine.run", Some(0), 40, 95),
            // A grandchild counts against its parent only.
            span("inner", Some(3), 50, 60),
        ];
        assert_eq!(t.self_ns(0), 100 - 10 - 15 - 55);
        assert_eq!(t.self_ns(3), 55 - 10);
        assert_eq!(t.self_ns(4), 10);
        // Overlapping children are not subtracted twice, and a child
        // reaching outside its parent is clipped to it.
        t.spans = vec![
            span("p", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 90, 120),
        ];
        assert_eq!(t.self_ns(0), 100 - 60 - 10);
    }

    #[test]
    fn recorded_spans_nest_and_sum() {
        let mut t = Trace::new(Instant::now());
        let root = t.open("point", None);
        let x = t.time("machine.new", Some(root), || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        assert_eq!(x, 499_500);
        t.close(root);
        let (p, c) = (&t.spans[0], &t.spans[1]);
        assert!(p.start_ns <= c.start_ns && c.end_ns <= p.end_ns);
        assert_eq!(t.self_ns(0) + t.total_ns("machine.new"), p.dur_ns());
    }

    #[test]
    fn trace_json_is_well_formed() {
        let mut t = Trace::new(Instant::now());
        t.spans = vec![
            span("point", None, 5, 9),
            span("machine.run", Some(0), 6, 8),
        ];
        let js = traces_json(&[("t1-GM/\"q\"-1cl".to_string(), 0, t)]);
        let v = cedar_bench::json::parse(&js).expect("trace output parses");
        let arr = v.as_arr().expect("an array of traces");
        assert_eq!(arr.len(), 1);
        let spans = arr[0].get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("self_ns").and_then(|n| n.as_f64()), Some(2.0));
        assert_eq!(spans[1].get("parent").and_then(|n| n.as_f64()), Some(0.0));
        assert_eq!(
            arr[0].get("trace").and_then(|s| s.as_str()),
            Some("t1-GM/\"q\"-1cl")
        );
        assert_eq!(json_num(f64::NAN), "0");
    }
}
