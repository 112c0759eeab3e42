//! In-memory spans and the observer that turns the program's telemetry
//! events into them.
//!
//! A span has a name, a start, an end, a parent and a run id; a layer's
//! self time is its duration minus the part of it that its children cover.
//! Spans stay in memory and are written out once, when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

use fedpkd_core::telemetry::{Phase, RoundObserver, TelemetryEvent};

use crate::json;

/// All phases the program times, in round order.
pub const PHASES: [Phase; 6] = [
    Phase::ClientTraining,
    Phase::Aggregation,
    Phase::Filter,
    Phase::ServerDistill,
    Phase::ClientDistill,
    Phase::Evaluation,
];

/// One timed interval, in seconds since the trace's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Every span of one benchmark run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(run: u64) -> Self {
        Self {
            epoch: Instant::now(),
            run,
            spans: Vec::new(),
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records a finished span and returns its id.
    pub fn push(&mut self, name: &str, parent: Option<usize>, start: f64, end: f64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start,
            end,
        });
        id
    }

    /// Opens a span at the current time; close it with [`Trace::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(name, parent, now, f64::NAN)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now();
        self.spans[id].end = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Duration of span `id` minus the union of its children's intervals,
    /// clipped to the span (children may overlap, e.g. parallel clients).
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut kids: Vec<(f64, f64)> = self
            .children(id)
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .filter(|(s, e)| e > s)
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = f64::NEG_INFINITY;
        for (s, e) in kids {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        span.duration() - covered
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .fold(0.0, |a, b| a + b)
    }

    /// The spans as a JSON array, one object per span with its self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"run\": {}, \"name\": {}, \"start\": {}, \"end\": {}, \"self\": {}}}",
                s.id,
                self.run,
                json::quote(&s.name),
                json::number(s.start),
                json::number(s.end),
                json::number(self.self_time(s.id)),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Counts taken from the event stream at the layer boundaries that emit
/// them.
#[derive(Debug, Default, Clone)]
pub struct EventCounts {
    /// Clients that finished local training (one upload attempt each).
    pub uploads: usize,
    pub dropped: usize,
    /// Distinct `(round, client)` uploads with a rejected payload.
    pub rejected: usize,
    pub uplink_bytes: usize,
    pub downlink_bytes: usize,
    pub filter_kept: usize,
    pub filter_scored: usize,
    pub proto_outliers: usize,
    pub proto_contributions: usize,
    last_rejected: Option<(usize, usize)>,
}

impl EventCounts {
    pub fn count(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::ClientTrained { .. } => self.uploads += 1,
            TelemetryEvent::ClientDropped { .. } => self.dropped += 1,
            // A client whose logits and prototypes both fail is one failed
            // upload, not two; rejections of one upload arrive back to back.
            TelemetryEvent::PayloadRejected { round, client, .. }
                if self.last_rejected != Some((*round, *client)) =>
            {
                self.rejected += 1;
                self.last_rejected = Some((*round, *client));
            }
            TelemetryEvent::LedgerDelta {
                uplink_bytes,
                downlink_bytes,
                ..
            } => {
                self.uplink_bytes += uplink_bytes;
                self.downlink_bytes += downlink_bytes;
            }
            TelemetryEvent::FilterOutcome { kept, dropped, .. } => {
                self.filter_kept += kept;
                self.filter_scored += kept + dropped;
            }
            TelemetryEvent::AggregationTrim {
                prototype_outliers,
                prototype_contributions,
                ..
            } => {
                self.proto_outliers += prototype_outliers;
                self.proto_contributions += prototype_contributions;
            }
            _ => {}
        }
    }

    /// Uploads attempted: trained clients plus clients dropped before
    /// uploading.
    pub fn attempted(&self) -> usize {
        self.uploads + self.dropped
    }

    pub fn failed(&self) -> usize {
        self.rejected + self.dropped
    }
}

/// The traced run's observer: timestamps every event as a zero-length
/// `event.<kind>` span, turns `RoundStart`→`RoundEnd` into round spans and
/// each `PhaseTiming` into a phase span that ends on arrival and starts
/// `seconds` earlier, keeps the event stream for the telemetry probe, and
/// forwards every event to an optional sink (the workload's own
/// `JsonlSink`).
pub struct SpanObserver<'a> {
    pub trace: &'a mut Trace,
    pub parent: Option<usize>,
    pub forward: Option<&'a mut dyn RoundObserver>,
    pub counts: EventCounts,
    pub events: Vec<TelemetryEvent>,
    open_round: Option<usize>,
}

impl<'a> SpanObserver<'a> {
    pub fn new(
        trace: &'a mut Trace,
        parent: Option<usize>,
        forward: Option<&'a mut dyn RoundObserver>,
    ) -> Self {
        Self {
            trace,
            parent,
            forward,
            counts: EventCounts::default(),
            events: Vec::new(),
            open_round: None,
        }
    }
}

impl RoundObserver for SpanObserver<'_> {
    fn record(&mut self, event: &TelemetryEvent) {
        let now = self.trace.now();
        match event {
            TelemetryEvent::RoundStart { .. } => {
                self.open_round = Some(self.trace.push("round", self.parent, now, f64::NAN));
            }
            TelemetryEvent::PhaseTiming { phase, seconds, .. } => {
                let name = format!("phase.{}", phase.name());
                self.trace
                    .push(&name, self.open_round.or(self.parent), now - seconds, now);
            }
            TelemetryEvent::RoundEnd { .. } => {
                if let Some(id) = self.open_round.take() {
                    self.trace.close(id);
                }
            }
            _ => {}
        }
        let at = self.open_round.or(self.parent);
        self.trace
            .push(&format!("event.{}", event.kind()), at, now, now);
        self.counts.count(event);
        self.events.push(event.clone());
        if let Some(sink) = self.forward.as_mut() {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(1);
        let root = t.push("root", None, 0.0, 10.0);
        // Overlapping children (parallel work) count once: [1,5].
        t.push("a", Some(root), 1.0, 3.0);
        t.push("b", Some(root), 2.0, 5.0);
        // A child past the parent's end is clipped to [8,10].
        t.push("c", Some(root), 8.0, 12.0);
        // A grandchild does not count against the root.
        let a2 = t.push("d", Some(root), 6.0, 7.0);
        t.push("e", Some(a2), 6.0, 6.5);
        assert!((t.self_time(root) - 3.0).abs() < 1e-12);
        assert!((t.self_time(a2) - 0.5).abs() < 1e-12);
        assert_eq!(t.self_time(1), 2.0);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        let mut t = Trace::new(1);
        let id = t.push("leaf", None, 2.0, 2.25);
        assert_eq!(t.self_time(id), 0.25);
    }

    #[test]
    fn phase_spans_end_on_arrival() {
        let mut t = Trace::new(7);
        let run = t.push("run", None, 0.0, 100.0);
        let mut obs = SpanObserver::new(&mut t, Some(run), None);
        obs.record(&TelemetryEvent::RoundStart {
            algorithm: "FedPKD".into(),
            round: 0,
            clients: 2,
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.record(&TelemetryEvent::PhaseTiming {
            round: 0,
            phase: Phase::Filter,
            seconds: 0.001,
        });
        obs.record(&TelemetryEvent::RoundEnd {
            round: 0,
            seconds: 0.0,
            server_accuracy: None,
            mean_client_accuracy: 0.0,
            cumulative_bytes: 0,
            participation_rate: 1.0,
        });
        let spans = t.spans();
        let round = &spans[1];
        let phase = &spans[3];
        assert_eq!(spans[2].name, "event.round_start");
        assert_eq!(spans[2].parent, Some(round.id));
        assert_eq!((round.name.as_str(), round.parent), ("round", Some(run)));
        assert_eq!(phase.name, "phase.filter");
        assert_eq!(phase.parent, Some(round.id));
        assert!((phase.duration() - 0.001).abs() < 1e-9);
        assert!(round.end >= phase.end && phase.end >= round.start);
        assert!((t.self_time(round.id) - (round.duration() - 0.001)).abs() < 1e-9);
    }

    #[test]
    fn a_doubly_rejected_upload_counts_once() {
        use fedpkd_core::admission::{PayloadKind, RejectReason};
        let mut c = EventCounts::default();
        for payload in [PayloadKind::Logits, PayloadKind::Prototypes] {
            c.count(&TelemetryEvent::PayloadRejected {
                round: 3,
                client: 1,
                payload,
                reason: RejectReason::NonFinite,
            });
        }
        assert_eq!(c.rejected, 1);
    }
}
