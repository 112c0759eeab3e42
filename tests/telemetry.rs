//! Integration tests for the round-telemetry layer: observers must never
//! change results, and the serialized trace must carry the paper-level
//! quantities (phase timings, Algorithm 1 filter outcomes, Eq. 13 loss
//! components) a reader expects.

use fedpkd::prelude::*;

const SEED: u64 = 4242;
const ROUNDS: usize = 2;

fn scenario() -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(3)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(360)
        .public_size(120)
        .global_test_size(150)
        .seed(7)
        .build()
        .expect("valid scenario")
}

fn fast_config() -> FedPkdConfig {
    FedPkdConfig {
        client_private_epochs: 2,
        client_public_epochs: 1,
        server_epochs: 3,
        learning_rate: 0.003,
        ..FedPkdConfig::default()
    }
}

fn fedpkd() -> FedPkd {
    fedpkd_with(fast_config())
}

fn fedpkd_with(config: FedPkdConfig) -> FedPkd {
    let client_spec = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T11,
    };
    let server_spec = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T20,
    };
    FedPkd::new(scenario(), vec![client_spec; 3], server_spec, config, SEED)
        .expect("valid federation")
}

/// The core telemetry contract: observers are purely observational. A run's
/// `RunResult` (history and ledger) must be bit-identical whether telemetry
/// is disabled, streamed to JSONL, or collected in memory.
fn assert_observers_do_not_change_results(name: &str, config: FedPkdConfig) {
    let silent = Driver::rounds(ROUNDS).run_silent(&mut fedpkd_with(config.clone()));

    let mut sink = JsonlSink::new(Vec::new());
    let streamed = Driver::rounds(ROUNDS).run(&mut fedpkd_with(config.clone()), &mut sink);
    assert!(sink.error().is_none());
    assert_eq!(
        silent, streamed,
        "{name}: JsonlSink must not perturb the run"
    );

    let mut log = EventLog::new();
    let logged = Driver::rounds(ROUNDS).run(&mut fedpkd_with(config), &mut log);
    assert_eq!(silent, logged, "{name}: EventLog must not perturb the run");
    assert!(!log.events().is_empty());
}

/// The contract holds on every aggregation and filter path an observer
/// could once select: the paper-faithful round, the trimmed estimator,
/// and the margin-gated filter over a generated transfer set.
#[test]
fn observers_do_not_change_results() {
    assert_observers_do_not_change_results("paper-faithful", fast_config());
    assert_observers_do_not_change_results(
        "trimmed",
        FedPkdConfig {
            robust: RobustAggregation::Trimmed { trim_fraction: 0.2 },
            ..fast_config()
        },
    );
    assert_observers_do_not_change_results(
        "margins + generated",
        FedPkdConfig {
            adaptive_margins: true,
            distill_source: DistillSource::Generated,
            ..fast_config()
        },
    );
}

/// Golden-shape test for the JSONL trace of a two-round FedPKD run: every
/// line is one JSON object, and the stream carries the events and fields
/// the paper's diagnostics need. Field *presence* is asserted, never float
/// values — the trace shape is the contract, the numbers are not.
#[test]
fn fedpkd_jsonl_trace_has_expected_shape() {
    let mut sink = JsonlSink::new(Vec::new());
    Driver::rounds(ROUNDS).run(&mut fedpkd(), &mut sink);
    let bytes = sink.into_inner().expect("in-memory writer cannot fail");
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }

    let count = |pred: &dyn Fn(&str) -> bool| lines.iter().filter(|l| pred(l)).count();
    let has_event = |l: &str, kind: &str| l.contains(&format!("\"event\":\"{kind}\""));

    // Round framing: one start and one end per round, carrying identity.
    assert_eq!(count(&|l| has_event(l, "round_start")), ROUNDS);
    assert_eq!(count(&|l| has_event(l, "round_end")), ROUNDS);
    assert!(lines[0].contains("\"algorithm\":\"FedPKD\""));
    assert!(lines[0].contains("\"clients\":3"));
    for round in 0..ROUNDS {
        let frame = format!("\"round\":{round}");
        assert!(
            count(&|l| has_event(l, "round_start") && l.contains(&frame)) == 1,
            "round {round} must start exactly once"
        );
    }

    // Phase timings: every FedPKD phase appears each round.
    for phase in [
        "client_training",
        "aggregation",
        "filter",
        "server_distill",
        "client_distill",
        "evaluation",
    ] {
        let tag = format!("\"phase\":\"{phase}\"");
        assert_eq!(
            count(&|l| has_event(l, "phase_timing") && l.contains(&tag)),
            ROUNDS,
            "phase {phase} must be timed every round"
        );
        let timed = lines
            .iter()
            .find(|l| has_event(l, "phase_timing") && l.contains(&tag))
            .unwrap();
        assert!(timed.contains("\"seconds\":"), "{timed}");
    }

    // Algorithm 1 filter outcomes: kept/dropped counts and the Eq. 10
    // distance summary, once per round.
    assert_eq!(count(&|l| has_event(l, "filter_outcome")), ROUNDS);
    let filter = lines
        .iter()
        .find(|l| has_event(l, "filter_outcome"))
        .unwrap();
    for field in [
        "\"kept\":",
        "\"dropped\":",
        "\"kept_per_class\":[",
        "\"total_per_class\":[",
        "\"distance_quantiles\":[",
    ] {
        assert!(
            filter.contains(field),
            "filter_outcome missing {field}: {filter}"
        );
    }

    // Eq. 13 server loss components, once per round.
    assert_eq!(count(&|l| has_event(l, "server_distill")), ROUNDS);
    let distill = lines
        .iter()
        .find(|l| has_event(l, "server_distill"))
        .unwrap();
    for field in [
        "\"kd_loss\":",
        "\"proto_loss\":",
        "\"combined_loss\":",
        "\"batches\":",
    ] {
        assert!(
            distill.contains(field),
            "server_distill missing {field}: {distill}"
        );
    }

    // Aggregation confidence (Eqs. 6–7), prototype drift, per-client
    // training, and ledger accounting are all present.
    assert_eq!(count(&|l| has_event(l, "logit_aggregation")), ROUNDS);
    assert!(lines
        .iter()
        .any(|l| has_event(l, "logit_aggregation") && l.contains("\"variance_weighting\":true")));
    assert_eq!(count(&|l| has_event(l, "prototype_drift")), ROUNDS);
    assert_eq!(count(&|l| has_event(l, "client_trained")), 3 * ROUNDS);
    assert_eq!(count(&|l| has_event(l, "client_distilled")), 3 * ROUNDS);
    assert_eq!(count(&|l| has_event(l, "ledger_delta")), ROUNDS);
    let end = lines.last().unwrap();
    assert!(has_event(end, "round_end"));
    for field in [
        "\"server_accuracy\":",
        "\"mean_client_accuracy\":",
        "\"cumulative_bytes\":",
    ] {
        assert!(end.contains(field), "round_end missing {field}: {end}");
    }
}

/// Golden-shape test for the transport events emitted by the serving layer
/// (`fedpkd-serve`). Every field is an integer or a fixed string, so the
/// serialized lines are exact — this pins the JSONL contract an operator's
/// log tooling parses.
#[test]
fn transport_events_jsonl_golden_shape() {
    let events = [
        TelemetryEvent::ConnAccepted {
            round: 3,
            conn: 11,
            transport: "uds".to_string(),
        },
        TelemetryEvent::ConnClosed {
            round: 3,
            conn: 11,
            frames: 5,
            bytes: 2048,
        },
        TelemetryEvent::FrameRejected {
            round: 3,
            conn: 11,
            cause: FrameRejectCause::ChecksumMismatch,
        },
        TelemetryEvent::RetryScheduled {
            round: 3,
            client: 7,
            attempt: 2,
            delay_ms: 400,
        },
        TelemetryEvent::ServerOverloaded {
            round: 3,
            inflight: 16,
            limit: 16,
        },
    ];
    let golden = [
        r#"{"event":"conn_accepted","round":3,"conn":11,"transport":"uds"}"#,
        r#"{"event":"conn_closed","round":3,"conn":11,"frames":5,"bytes":2048}"#,
        r#"{"event":"frame_rejected","round":3,"conn":11,"cause":"checksum_mismatch"}"#,
        r#"{"event":"retry_scheduled","round":3,"client":7,"attempt":2,"delay_ms":400}"#,
        r#"{"event":"server_overloaded","round":3,"inflight":16,"limit":16}"#,
    ];

    let mut sink = JsonlSink::new(Vec::new());
    for event in &events {
        sink.record(event);
    }
    let bytes = sink.into_inner().expect("in-memory writer cannot fail");
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines, golden);

    for (event, line) in events.iter().zip(&golden) {
        assert!(line.contains(&format!("\"event\":\"{}\"", event.kind())));
        assert_eq!(event.round(), 3);
    }
}

/// The event stream is framed per round: `round_start` opens, `round_end`
/// closes, and everything in between belongs to that round.
#[test]
fn event_stream_is_round_framed() {
    let mut log = EventLog::new();
    Driver::rounds(ROUNDS).run(&mut fedpkd(), &mut log);

    let mut open: Option<usize> = None;
    let mut rounds_seen = 0;
    for event in log.events() {
        match event {
            TelemetryEvent::RoundStart { round, .. } => {
                assert_eq!(open, None, "round {round} started inside another round");
                assert_eq!(*round, rounds_seen, "rounds must start in order");
                open = Some(*round);
            }
            TelemetryEvent::RoundEnd { round, .. } => {
                assert_eq!(open, Some(*round), "round {round} ended without starting");
                open = None;
                rounds_seen += 1;
            }
            other => {
                assert_eq!(
                    Some(other.round()),
                    open,
                    "event {} outside its round frame",
                    other.kind()
                );
            }
        }
    }
    assert_eq!(open, None, "last round must be closed");
    assert_eq!(rounds_seen, ROUNDS);
}
