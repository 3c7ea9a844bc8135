//! The schedule flight recorder: per-frame decision + measurement records.
//!
//! Every inter frame, the framework makes a *decision* (the m/l/s
//! distribution, the R\* mapping, the LP's predicted τ1/τ2/τtot and
//! per-device busy times) and then *measures* what actually happened (sync
//! points on the virtual clock, per-lane busy times, transfer volumes,
//! recovery cost). The [`FlightRecord`] keeps the pair together so the
//! audit layer can compute prediction residuals after the fact — the
//! model-vs-reality gap behind the paper's Fig 6/7 plots.
//!
//! Records go into a bounded ring ([`FlightRecorder`]) and persist as JSONL
//! — one [`FlightRecord`] object per line, parseable back losslessly (the
//! serializer emits shortest-round-trip floats, and every serialized field
//! is finite by construction: absent predictions are `null`, not NaN).

use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// The three synchronization points of one frame, milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TauTriple {
    /// τ1 — ME+INT (and their transfers) complete.
    pub tau1_ms: f64,
    /// τ2 — SME complete.
    pub tau2_ms: f64,
    /// τtot — frame complete.
    pub tau_tot_ms: f64,
}

/// One device's slice of a frame's decision + measurement record.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceRecord {
    /// Device index in platform enumeration order.
    pub device: usize,
    /// ME rows assigned (`m_i`).
    pub me_rows: usize,
    /// INT rows assigned (`l_i`).
    pub interp_rows: usize,
    /// SME rows assigned (`s_i`).
    pub sme_rows: usize,
    /// LP-predicted compute-busy ms (rows × characterized rates; `None` on
    /// probe/heuristic frames that carry no prediction).
    pub predicted_busy_ms: Option<f64>,
    /// Measured compute-busy ms (compute + interpolation-engine lanes).
    pub compute_busy_ms: f64,
    /// Measured copy-engine busy ms (H2D + D2H lanes) — the copy-engine
    /// occupancy of this device for the frame.
    pub transfer_busy_ms: f64,
    /// Of `compute_busy_ms` + `transfer_busy_ms`, the span this device ran
    /// *inside the previous frame's window* — its phase-1 prefix pulled
    /// forward into the prior frame's τ-sync stall by the inter-frame
    /// pipeline. 0 under `--pipeline off`. The audit layer subtracts it so
    /// a device spanning two frames is not counted busy twice in the same
    /// window.
    pub overlap_carried_ms: f64,
    /// Signed prediction residual,
    /// `(measured − predicted) / predicted · 100`; `None` without a
    /// prediction or with a ~zero predicted time.
    pub residual_pct: Option<f64>,
    /// Device was blacklisted/unavailable this frame — excluded from
    /// residual statistics (a fault-domain problem, not model drift).
    pub blacklisted: bool,
}

/// One frame's complete decision + measurement record.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Inter-frame index (0-based, in encode order).
    pub frame: usize,
    /// Device running the R\* group.
    pub rstar_device: usize,
    /// LP-predicted sync points (`None` on probe/heuristic frames).
    pub predicted_tau: Option<TauTriple>,
    /// Measured sync points on the virtual clock.
    pub measured_tau: TauTriple,
    /// Frames in flight when this frame was submitted (1 at a boundary or
    /// under `--pipeline off`, 2 in pipelined steady state).
    pub inflight_depth: usize,
    /// Per-device decision + measurement, platform enumeration order.
    pub devices: Vec<DeviceRecord>,
    /// Bytes moved over PCIe this frame (DAM plan).
    pub bytes_transferred: u64,
    /// Bytes *not* moved thanks to Δ/σ data reuse.
    pub bytes_reused: u64,
    /// Virtual time lost to fault detection + re-dispatch this frame.
    pub recovery_ms: f64,
    /// Devices the drift detector fired on after this frame.
    pub drift_devices: Vec<usize>,
    /// This frame triggered re-characterization (drift → rates reset →
    /// next frame is an equidistant probe).
    pub recharacterized: bool,
}

impl FlightRecord {
    /// Load-imbalance index of this frame: max/mean measured compute-busy
    /// time over devices that did work (the Fig 6 quantity; 1.0 = perfectly
    /// balanced). `None` when no device was busy.
    pub fn imbalance_index(&self) -> Option<f64> {
        crate::audit::imbalance_index(
            &self
                .devices
                .iter()
                .map(|d| d.compute_busy_ms)
                .collect::<Vec<_>>(),
        )
    }
}

/// Bounded ring of [`FlightRecord`]s with JSONL persistence. Old records
/// fall off the front once `capacity` is reached; [`FlightRecorder::dropped`]
/// counts them so exports are never silently partial.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    records: VecDeque<FlightRecord>,
    dropped: u64,
    /// Frames at which an encode session resumed from a checkpoint, in the
    /// order the resumes happened. Persisted as `{"resume_marker":N}` lines
    /// interleaved into the JSONL stream.
    markers: Vec<usize>,
}

impl FlightRecorder {
    /// Ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            records: VecDeque::new(),
            dropped: 0,
            markers: Vec::new(),
        }
    }

    /// Note that the session resumed from a checkpoint at inter frame
    /// `frame`. The marker survives into the JSONL export so post-hoc
    /// audits can tell a resumed run's seams from organic gaps.
    pub fn mark_resume(&mut self, frame: usize) {
        self.markers.push(frame);
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&mut self, rec: FlightRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        self.records.iter()
    }

    /// Records currently held, as a vec (oldest first).
    pub fn to_vec(&self) -> Vec<FlightRecord> {
        self.records.iter().cloned().collect()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serialize the ring as JSONL, one record per line, oldest first.
    /// Resume markers interleave as `{"resume_marker":N}` lines ahead of the
    /// first record at-or-after their frame (trailing markers come last).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut pending = self.markers.iter().copied().peekable();
        for r in &self.records {
            while pending.peek().is_some_and(|&m| m <= r.frame) {
                let m = pending.next().expect("peeked");
                out.push_str(&format!("{{\"resume_marker\":{m}}}\n"));
            }
            out.push_str(&serde_json::to_string(r).expect("finite fields"));
            out.push('\n');
        }
        for m in pending {
            out.push_str(&format!("{{\"resume_marker\":{m}}}\n"));
        }
        out
    }
}

/// If `v` is a `{"resume_marker":N}` object, return `N`.
fn marker_of(v: &Value) -> Option<usize> {
    match v.get("resume_marker")? {
        Value::Int(i) if *i >= 0 => Some(*i as usize),
        Value::UInt(u) => Some(*u as usize),
        _ => None,
    }
}

/// Parse a flight JSONL file back into records. Blank lines and
/// `{"resume_marker":N}` lines are skipped; any malformed line is an error
/// naming its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<FlightRecord>, String> {
    parse_jsonl_with_markers(text).map(|(records, _)| records)
}

/// Parse a flight JSONL file into records plus the resume markers embedded
/// in the stream (frame indices, stream order).
pub fn parse_jsonl_with_markers(text: &str) -> Result<(Vec<FlightRecord>, Vec<usize>), String> {
    let mut out = Vec::new();
    let mut markers = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            serde_json::value_from_str(line).map_err(|e| format!("flight line {}: {e}", i + 1))?;
        if let Some(m) = marker_of(&v) {
            markers.push(m);
            continue;
        }
        out.push(FlightRecord::from_value(&v).map_err(|e| format!("flight line {}: {e}", i + 1))?);
    }
    Ok((out, markers))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record(frame: usize) -> FlightRecord {
        FlightRecord {
            frame,
            rstar_device: 0,
            predicted_tau: Some(TauTriple {
                tau1_ms: 10.5,
                tau2_ms: 14.25,
                tau_tot_ms: 21.125,
            }),
            measured_tau: TauTriple {
                tau1_ms: 11.0,
                tau2_ms: 15.0,
                tau_tot_ms: 22.0,
            },
            inflight_depth: 1,
            devices: vec![
                DeviceRecord {
                    device: 0,
                    me_rows: 40,
                    interp_rows: 38,
                    sme_rows: 41,
                    predicted_busy_ms: Some(18.0),
                    compute_busy_ms: 19.5,
                    transfer_busy_ms: 3.25,
                    overlap_carried_ms: 0.0,
                    residual_pct: Some((19.5 - 18.0) / 18.0 * 100.0),
                    blacklisted: false,
                },
                DeviceRecord {
                    device: 1,
                    me_rows: 28,
                    interp_rows: 30,
                    sme_rows: 27,
                    predicted_busy_ms: None,
                    compute_busy_ms: 12.0,
                    transfer_busy_ms: 0.0,
                    overlap_carried_ms: 0.0,
                    residual_pct: None,
                    blacklisted: true,
                },
            ],
            bytes_transferred: 1_048_576,
            bytes_reused: 262_144,
            recovery_ms: 0.0,
            drift_devices: vec![1],
            recharacterized: true,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut fr = FlightRecorder::new(3);
        for f in 0..5 {
            fr.push(sample_record(f));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let frames: Vec<usize> = fr.records().map(|r| r.frame).collect();
        assert_eq!(frames, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut fr = FlightRecorder::new(8);
        fr.push(sample_record(0));
        fr.push(sample_record(1));
        let text = fr.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, fr.to_vec());
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let good = serde_json::to_string(&sample_record(0)).unwrap();
        let err = parse_jsonl(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // A structurally wrong record also names its line.
        let err = parse_jsonl("{\"frame\":0}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn resume_markers_interleave_and_round_trip() {
        let mut fr = FlightRecorder::new(8);
        fr.push(sample_record(0));
        fr.push(sample_record(1));
        fr.mark_resume(1); // resumed before frame 1 was re-encoded
        fr.push(sample_record(2));
        fr.mark_resume(5); // trailing marker: resume after last record
        let text = fr.to_jsonl();
        assert_eq!(text.lines().count(), 5, "3 records + 2 markers:\n{text}");
        // The frame-1 marker sits before the frame-1 record line.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "{\"resume_marker\":1}");
        assert_eq!(lines[4], "{\"resume_marker\":5}");
        // Plain parse skips markers; the marker-aware parse returns both.
        let records = parse_jsonl(&text).unwrap();
        assert_eq!(records.len(), 3);
        let (records, markers) = parse_jsonl_with_markers(&text).unwrap();
        assert_eq!(records, fr.to_vec());
        assert_eq!(markers, vec![1, 5]);
    }

    #[test]
    fn imbalance_index_is_max_over_mean() {
        let mut r = sample_record(0);
        r.devices[0].compute_busy_ms = 30.0;
        r.devices[1].compute_busy_ms = 10.0;
        // mean 20, max 30 → 1.5.
        assert!((r.imbalance_index().unwrap() - 1.5).abs() < 1e-12);
        r.devices[0].compute_busy_ms = 0.0;
        r.devices[1].compute_busy_ms = 0.0;
        assert_eq!(r.imbalance_index(), None);
    }
}
