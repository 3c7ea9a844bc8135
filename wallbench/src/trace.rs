//! Spans of the traced run: recorded in memory from the benchmark's own
//! code, around each call into a layer's public API, and written out as
//! Chrome trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. Spans of one frame (or one job) share `id`; `parent` is
/// the span that was open when this one began.
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub id: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A single-threaded span recorder. Disabled, it calls straight through and
/// reads no clock: that is the untraced pass `trace_overhead_pct` compares
/// the traced one with.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span that other spans will nest in; close it with [`end`].
    ///
    /// [`end`]: Tracer::end
    pub fn begin(&mut self, layer: &'static str, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            layer,
            name,
            id,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("end() without begin()");
        self.spans[i].end_us = self.now_us();
    }

    /// Time one call.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.begin(layer, name, id);
        let r = f();
        self.end();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus what its child spans cover, ms.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent] -= s.ms();
            }
        }
        own
    }

    /// Total ms of the spans called `layer`/`name`, per id.
    pub fn ms_by_id(&self, layer: &str, name: &str) -> BTreeMap<u64, f64> {
        let mut by_id = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
        {
            *by_id.entry(s.id).or_insert(0.0) += s.ms();
        }
        by_id
    }

    /// Write every span as a complete (`"ph": "X"`) Chrome trace event, the
    /// layer as its category. Loads in `chrome://tracing` and Perfetto.
    pub fn write_chrome(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        let own = self.self_ms();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"id\": {}, \
                 \"self_ms\": {:.6}}}}}{comma}",
                s.name,
                s.layer,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                own[i]
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new(true);
        t.begin("codec", "frame", 7);
        t.span("codec", "me", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("codec", "sme", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[1].ms() >= 2.0 && s[2].ms() >= 1.0);
        let own = t.self_ms()[0];
        assert!(own >= 0.0 && own < s[0].ms() - 2.9);
        assert_eq!(t.ms_by_id("codec", "me").get(&7), Some(&s[1].ms()));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("codec", "frame", 0);
        assert_eq!(t.span("codec", "me", 0, || 41 + 1), 42);
        t.end();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let mut t = Tracer::new(true);
        t.begin("core", "encode_frame", 1);
        t.span("codec", "me", 1, || ());
        t.end();
        let mut text = Vec::new();
        t.write_chrome(&mut text).unwrap();
        let v = serde_json::value_from_str(std::str::from_utf8(&text).unwrap()).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("codec"));
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|p| p.as_u64()), Some(0));
    }
}
