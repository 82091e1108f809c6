//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a library crate in a span
//! tagged with that crate's layer. Spans nest (the benchmark's own phases
//! are parents of the library calls they make), are kept in memory while
//! the run measures, and are written out once at exit. A layer's *self
//! time* is its spans' length minus the part covered by their children,
//! so time inside a nested library call is charged to the callee's layer
//! only.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The crates the benchmark calls into, plus its own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Sys,
    Set,
    Domain,
    Core,
    Comm,
    Apps,
    Serve,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Bench,
        Layer::Sys,
        Layer::Set,
        Layer::Domain,
        Layer::Core,
        Layer::Comm,
        Layer::Apps,
        Layer::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Sys => "sys",
            Layer::Set => "set",
            Layer::Domain => "domain",
            Layer::Core => "core",
            Layer::Comm => "comm",
            Layer::Apps => "apps",
            Layer::Serve => "serve",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` charged to `layer`.
    pub fn span<R>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                layer,
                start_us: self.origin.elapsed().as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The spans as one JSON document (name, layer, start, end, parent,
    /// run id per span).
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"run_id\":{},\"spans\":[", self.run_id);
        for (i, sp) in self.spans.borrow().iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{:.3},\
                 \"end_us\":{:.3},\"parent\":{parent},\"run\":{}}}",
                if i == 0 { "" } else { "," },
                sp.name,
                sp.layer.name(),
                sp.start_us,
                sp.end_us,
                self.run_id,
            );
        }
        s.push_str("]}");
        s
    }
}

/// Self time per layer, in the order of [`Layer::ALL`]: each span's length
/// minus the union of its children's intervals clipped to it.
pub fn self_times_us(spans: &[Span]) -> [f64; 8] {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, sp) in spans.iter().enumerate() {
        if let Some(p) = sp.parent {
            children[p].push(i);
        }
    }
    let mut out = [0.0; 8];
    for (i, sp) in spans.iter().enumerate() {
        let mut iv: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_us.max(sp.start_us),
                    spans[c].end_us.min(sp.end_us),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are finite"));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let slot = Layer::ALL
            .iter()
            .position(|&l| l == sp.layer)
            .expect("every layer is listed");
        out[slot] += (sp.end_us - sp.start_us - covered).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer,
            start_us: start,
            end_us: end,
            parent,
        }
    }

    fn of(times: [f64; 8], layer: Layer) -> f64 {
        times[Layer::ALL.iter().position(|&l| l == layer).unwrap()]
    }

    #[test]
    fn self_time_subtracts_children() {
        // bench [0,100] ⊃ core [10,40], domain [50,60]; core ⊃ sys [20,25].
        let spans = vec![
            span(Layer::Bench, 0.0, 100.0, None),
            span(Layer::Core, 10.0, 40.0, Some(0)),
            span(Layer::Sys, 20.0, 25.0, Some(1)),
            span(Layer::Domain, 50.0, 60.0, Some(0)),
        ];
        let t = self_times_us(&spans);
        assert_eq!(of(t, Layer::Bench), 60.0);
        assert_eq!(of(t, Layer::Core), 25.0);
        assert_eq!(of(t, Layer::Sys), 5.0);
        assert_eq!(of(t, Layer::Domain), 10.0);
        // Self times partition the root span.
        assert_eq!(t.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(Layer::Core, 0.0, 10.0, None),
            span(Layer::Comm, 2.0, 6.0, Some(0)),
            span(Layer::Comm, 4.0, 8.0, Some(0)),
            span(Layer::Sys, 9.0, 12.0, Some(0)),
        ];
        let t = self_times_us(&spans);
        // Children cover [2,8] ∪ [9,10] = 7 of the parent's 10.
        assert_eq!(of(t, Layer::Core), 3.0);
    }

    #[test]
    fn tracer_records_nesting_and_parents() {
        let tr = Tracer::new(true, 7);
        let v = tr.span(Layer::Bench, "outer", || {
            tr.span(Layer::Core, "inner", || 41) + 1
        });
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us);
        assert!(spans[1].end_us <= spans[0].end_us);
        assert!(tr.to_json().contains("\"run\":7"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false, 1);
        assert_eq!(tr.span(Layer::Core, "x", || 3), 3);
        assert!(tr.spans().is_empty());
    }
}
