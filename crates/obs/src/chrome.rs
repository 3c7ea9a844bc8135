//! Chrome trace-event (Perfetto-compatible) JSON builder behind the one
//! exporter, [`TraceLog::to_perfetto`](crate::trace::TraceLog::to_perfetto).
//!
//! Emits the JSON object format of the Trace Event spec: a top-level
//! `{"traceEvents": [...], "displayTimeUnit": "ms"}` object containing
//! `"M"` (metadata) events naming tracks, `"X"` (complete) events for
//! spans and `"s"`/`"f"` flow events for causal edges, with `ts`/`dur` in
//! microseconds. The output loads directly in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
//!
//! All values flow through the ordered [`serde::Value`] tree, so output is
//! byte-stable for identical inputs — the golden-test contract.

use serde::Value;

/// Builder for a Chrome trace-event JSON document.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChromeTraceBuilder {
    events: Vec<Value>,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl ChromeTraceBuilder {
    /// Empty trace.
    pub fn new() -> Self {
        ChromeTraceBuilder { events: Vec::new() }
    }

    /// Emit a `process_name` metadata event for `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(obj(vec![
            ("name", Value::Str("process_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::UInt(pid)),
            ("tid", Value::UInt(0)),
            ("args", obj(vec![("name", Value::Str(name.to_string()))])),
        ]));
    }

    /// Emit a `thread_name` metadata event so the lane shows as `name` in
    /// the timeline UI.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(obj(vec![
            ("name", Value::Str("thread_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::UInt(pid)),
            ("tid", Value::UInt(tid)),
            ("args", obj(vec![("name", Value::Str(name.to_string()))])),
        ]));
    }

    /// Emit an `"X"` complete event: a task on lane (`pid`, `tid`) starting
    /// at `ts_us` microseconds and lasting `dur_us` microseconds.
    pub fn complete(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts_us: f64, dur_us: f64) {
        self.events.push(obj(vec![
            ("name", Value::Str(name.to_string())),
            ("cat", Value::Str(cat.to_string())),
            ("ph", Value::Str("X".to_string())),
            ("pid", Value::UInt(pid)),
            ("tid", Value::UInt(tid)),
            ("ts", Value::Float(ts_us)),
            ("dur", Value::Float(dur_us)),
        ]));
    }

    /// Emit an `"s"` flow-start event: the tail of a causal arrow leaving
    /// lane (`pid`, `tid`) at `ts_us`. `id` pairs it with its flow end.
    pub fn flow_start(&mut self, pid: u64, tid: u64, name: &str, cat: &str, id: u64, ts_us: f64) {
        self.events.push(obj(vec![
            ("name", Value::Str(name.to_string())),
            ("cat", Value::Str(cat.to_string())),
            ("ph", Value::Str("s".to_string())),
            ("id", Value::UInt(id)),
            ("pid", Value::UInt(pid)),
            ("tid", Value::UInt(tid)),
            ("ts", Value::Float(ts_us)),
        ]));
    }

    /// Emit an `"f"` flow-end event: the head of the causal arrow `id`,
    /// landing on lane (`pid`, `tid`) at `ts_us`. Carries the Perfetto
    /// binding point `"bp":"e"` — without it the renderer binds the arrow
    /// to the *next* slice on the lane and draws an orphan dot instead.
    pub fn flow_end(&mut self, pid: u64, tid: u64, name: &str, cat: &str, id: u64, ts_us: f64) {
        self.events.push(obj(vec![
            ("name", Value::Str(name.to_string())),
            ("cat", Value::Str(cat.to_string())),
            ("ph", Value::Str("f".to_string())),
            ("bp", Value::Str("e".to_string())),
            ("id", Value::UInt(id)),
            ("pid", Value::UInt(pid)),
            ("tid", Value::UInt(tid)),
            ("ts", Value::Float(ts_us)),
        ]));
    }

    /// Consume the builder into the compact JSON trace document.
    pub fn into_json(self) -> String {
        let doc = obj(vec![
            ("traceEvents", Value::Array(self.events)),
            ("displayTimeUnit", Value::Str("ms".to_string())),
        ]);
        serde_json::to_string(&doc).expect("value is a tree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChromeTraceBuilder {
        let mut b = ChromeTraceBuilder::new();
        b.process_name(0, "feves");
        b.thread_name(0, 1, "dev0");
        b.thread_name(0, 2, "dev1 h2d");
        b.complete(0, 1, "ME f3", "compute", 0.0, 1500.5);
        b.complete(0, 2, "h2d f3", "h2d", 100.0, 400.0);
        b
    }

    #[test]
    fn flow_events_pair_up_and_end_binds_to_enclosing_slice() {
        let mut b = ChromeTraceBuilder::new();
        b.flow_start(1, 1, "queue_admit", "causal", 42, 10.0);
        b.flow_end(1, 2, "queue_admit", "causal", 42, 25.0);
        let doc = serde_json::value_from_str(&b.into_json()).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events[0].get("ph").and_then(|v| v.as_str()), Some("s"));
        assert_eq!(events[0].get("id").and_then(|v| v.as_u64()), Some(42));
        assert!(events[0].get("bp").is_none(), "bp is a flow-end field");
        assert_eq!(events[1].get("ph").and_then(|v| v.as_str()), Some("f"));
        assert_eq!(events[1].get("bp").and_then(|v| v.as_str()), Some("e"));
        assert_eq!(events[1].get("id").and_then(|v| v.as_u64()), Some(42));
    }

    #[test]
    fn builds_well_formed_trace_document() {
        let doc = serde_json::value_from_str(&sample().into_json()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 5);
        assert_eq!(
            doc.get("displayTimeUnit").and_then(|v| v.as_str()),
            Some("ms")
        );
        // Metadata first two, then the complete events.
        assert_eq!(events[0].get("ph").and_then(|v| v.as_str()), Some("M"));
        assert_eq!(events[3].get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(events[3].get("dur").and_then(|v| v.as_f64()), Some(1500.5));
    }

    #[test]
    fn json_is_byte_stable_and_parseable() {
        let a = sample().into_json();
        let b = sample().into_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        let parsed = serde_json::value_from_str(&a).expect("valid JSON");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let json = ChromeTraceBuilder::new().into_json();
        assert!(serde_json::value_from_str(&json).is_ok());
    }
}
