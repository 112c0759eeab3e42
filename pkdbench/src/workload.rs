//! The three FedPKD training workloads: scenario, configuration, one timed
//! repetition, and the output checks.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fedpkd::{DistillSource, FedPkd, FedPkdConfig};
use fedpkd_core::robust::RobustAggregation;
use fedpkd_core::runtime::RunResult;
use fedpkd_core::telemetry::{JsonlSink, RoundObserver, TelemetryEvent};
use fedpkd_data::{FederatedScenario, Partition, ScenarioBuilder, SyntheticConfig};
use fedpkd_netsim::CommLedger;
use fedpkd_serve::history::{ledger_fingerprint, metrics_line};
use fedpkd_tensor::models::{DepthTier, ModelSpec};
use fedpkd_tensor::plan::PlanMode;
use fedpkd_tensor::KernelMode;

use crate::span::EventCounts;

/// Every workload the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig7Hetero,
    Cohort16Robust,
    DatafreeMargins,
    ServeUds,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Self::Fig7Hetero,
        Self::Cohort16Robust,
        Self::DatafreeMargins,
        Self::ServeUds,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::Fig7Hetero => "fig7-hetero",
            Self::Cohort16Robust => "cohort16-robust",
            Self::DatafreeMargins => "datafree-margins",
            Self::ServeUds => "serve-uds",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs with its own `JsonlSink`, as operators run
    /// the cohort workload. The sink enables the program's observer-gated
    /// diagnostics (buffered logits, aggregation statistics, the
    /// statistics-collecting filter), so they are part of its measured work.
    pub fn has_sink(self) -> bool {
        self == Self::Cohort16Robust
    }

    /// The training shape, or `None` for the serving workload.
    pub fn train(self) -> Option<TrainShape> {
        // Scale::quick() of the experiment harness: the paper's Fig. 7 run.
        let fig7 = TrainShape {
            clients: 5,
            samples: 1_500,
            public: 600,
            test: 600,
            rounds: 10,
            config: FedPkdConfig {
                client_private_epochs: 4,
                client_public_epochs: 3,
                server_epochs: 20,
                learning_rate: 0.002,
                temperature: 1.0,
                ..FedPkdConfig::default()
            },
        };
        match self {
            Self::Fig7Hetero => Some(fig7),
            Self::Cohort16Robust => Some(TrainShape {
                clients: 16,
                samples: 3_200,
                public: 2_400,
                ..TrainShape {
                    config: FedPkdConfig {
                        client_private_epochs: 1,
                        client_public_epochs: 1,
                        server_epochs: 1,
                        learning_rate: 0.003,
                        robust: RobustAggregation::Trimmed { trim_fraction: 0.2 },
                        ..FedPkdConfig::default()
                    },
                    ..fig7
                }
            }),
            Self::DatafreeMargins => Some(TrainShape {
                config: FedPkdConfig {
                    distill_source: DistillSource::Generated,
                    adaptive_margins: true,
                    ..fig7.config.clone()
                },
                ..fig7
            }),
            Self::ServeUds => None,
        }
    }
}

/// Input dimension and class count of the C10 synthetic task.
pub const INPUT_DIM: usize = 32;
pub const CLASSES: usize = 10;

/// The size of one training workload.
#[derive(Debug, Clone)]
pub struct TrainShape {
    pub clients: usize,
    pub samples: usize,
    pub public: usize,
    pub test: usize,
    pub rounds: usize,
    pub config: FedPkdConfig,
}

impl TrainShape {
    /// The C10 synthetic scenario at Dirichlet α = 0.1 for `seed` — the
    /// experiment harness's `Task::C10` generator preset.
    pub fn scenario(&self, seed: u64) -> FederatedScenario {
        ScenarioBuilder::new(SyntheticConfig {
            sample_noise: 1.5,
            label_noise: 0.05,
            ..SyntheticConfig::cifar10_like()
        })
        .clients(self.clients)
        .samples(self.samples)
        .public_size(self.public)
        .global_test_size(self.test)
        .partition(Partition::Dirichlet { alpha: 0.1 })
        .seed(seed)
        .build()
        .expect("benchmark scenario is valid")
    }

    /// Client models cycle through the ResMlp11/20/29 tiers.
    pub fn client_specs(&self) -> Vec<ModelSpec> {
        let tiers = [DepthTier::T11, DepthTier::T20, DepthTier::T29];
        (0..self.clients)
            .map(|i| spec(tiers[i % tiers.len()]))
            .collect()
    }

    /// Scenario generation plus algorithm and model construction.
    pub fn build(&self, seed: u64) -> FedPkd {
        FedPkd::new(
            self.scenario(seed),
            self.client_specs(),
            spec(DepthTier::T56),
            self.config.clone(),
            seed,
        )
        .expect("benchmark wiring is valid")
    }
}

pub fn spec(tier: DepthTier) -> ModelSpec {
    ModelSpec::ResMlp {
        input_dim: INPUT_DIM,
        num_classes: CLASSES,
        tier,
    }
}

/// One timed repetition of a training workload.
pub struct Rep {
    pub algo: FedPkd,
    pub result: RunResult,
    pub run_s: f64,
}

/// Builds the workload and drives all its rounds through `obs`.
pub fn run_rep(shape: &TrainShape, seed: u64, obs: &mut dyn RoundObserver) -> Rep {
    let mut algo = shape.build(seed);
    let started = Instant::now();
    let result = DriverBuilder::new()
        .rounds(shape.rounds)
        .build()
        .run(&mut algo, obs);
    let run_s = started.elapsed().as_secs_f64();
    Rep {
        algo,
        result,
        run_s,
    }
}

/// The JSONL sink the cohort workload runs with, as operators run it,
/// writing `<out_dir>/<name>.jsonl`.
pub fn jsonl_sink(out_dir: &Path, name: &str) -> JsonlSink<BufWriter<File>> {
    let file =
        File::create(out_dir.join(format!("{name}.jsonl"))).expect("create the telemetry file");
    JsonlSink::new(BufWriter::new(file))
}

/// One untraced repetition and what its observer saw.
pub struct Untraced {
    pub rep: Rep,
    pub counts: EventCounts,
    /// Wall seconds of each round.
    pub round_s: Vec<f64>,
    /// Wall seconds of the set-ups timed between rounds, if asked for.
    pub setup_s: Vec<f64>,
    pub sink_error: Option<String>,
}

/// Runs one repetition the way the workload runs untraced: with its own
/// sink (the cohort workload's `JsonlSink`) or none, behind [`Counting`].
/// With `time_setups`, one set-up of the workload is timed after every
/// round.
pub fn untraced_rep(
    w: Workload,
    shape: &TrainShape,
    seed: u64,
    out_dir: &Path,
    time_setups: bool,
) -> Untraced {
    let mut sink = w.has_sink().then(|| jsonl_sink(out_dir, w.name()));
    let mut obs = Counting::new(sink.as_mut().map(|s| s as &mut dyn RoundObserver));
    obs.setup = time_setups.then_some((shape, seed));
    let rep = run_rep(shape, seed, &mut obs);
    let (counts, round_s, setup_s) = (obs.counts, obs.round_s, obs.setup_s);
    let sink_error = sink
        .and_then(|s| s.into_inner().err())
        .map(|e| format!("telemetry sink failed: {e}"));
    Untraced {
        rep,
        counts,
        round_s,
        setup_s,
        sink_error,
    }
}

/// Counts events (see [`EventCounts`]), times each round from its
/// `RoundStart` to its `RoundEnd`, and forwards events to an optional sink.
/// Without a sink it reports itself disabled, exactly like `NullObserver`:
/// the program gates every diagnostic computation on `enabled()`, so this
/// leaves the measured work unchanged.
///
/// With `setup` set it also times one set-up of that workload and seed
/// after each `RoundEnd`, outside the round's timing. Set-up takes
/// milliseconds and a shared host's speed can swing within a second, so
/// samples spread over the whole run give a steadier median than a block
/// taken at one moment.
pub struct Counting<'a> {
    pub counts: EventCounts,
    /// Wall seconds of each round, in round order.
    pub round_s: Vec<f64>,
    pub forward: Option<&'a mut dyn RoundObserver>,
    pub setup: Option<(&'a TrainShape, u64)>,
    /// Wall seconds of each set-up timed after a round.
    pub setup_s: Vec<f64>,
    round_started: Option<Instant>,
}

impl<'a> Counting<'a> {
    pub fn new(forward: Option<&'a mut dyn RoundObserver>) -> Self {
        Self {
            counts: EventCounts::default(),
            round_s: Vec::new(),
            forward,
            setup: None,
            setup_s: Vec::new(),
            round_started: None,
        }
    }
}

impl RoundObserver for Counting<'_> {
    fn record(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::RoundStart { .. } => self.round_started = Some(Instant::now()),
            TelemetryEvent::RoundEnd { .. } => {
                if let Some(started) = self.round_started.take() {
                    self.round_s.push(started.elapsed().as_secs_f64());
                }
                if let Some((shape, seed)) = self.setup {
                    let t = Instant::now();
                    drop(std::hint::black_box(shape.build(seed)));
                    self.setup_s.push(t.elapsed().as_secs_f64());
                }
            }
            _ => {}
        }
        self.counts.count(event);
        if let Some(sink) = self.forward.as_mut() {
            sink.record(event);
        }
    }

    fn enabled(&self) -> bool {
        self.forward.as_ref().is_some_and(|sink| sink.enabled())
    }
}

/// What the output checks compare: every round's history line (full
/// float precision) and the ledger's transfer fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub lines: Vec<String>,
    pub ledger: u64,
}

/// The fingerprint of the first `rounds` rounds of `result`.
pub fn fingerprint(result: &RunResult, rounds: usize) -> Fingerprint {
    let prefix = CommLedger::from_transfers(result.ledger.transfers().filter(|t| t.round < rounds));
    Fingerprint {
        lines: result
            .history
            .iter()
            .take(rounds)
            .map(metrics_line)
            .collect(),
        ledger: ledger_fingerprint(&prefix),
    }
}

impl Fingerprint {
    /// FNV-1a 64 over the history lines, each ended by a newline: the
    /// form in which a history is recorded in [`RECORDED`].
    pub fn history_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in &self.lines {
            for &b in line.as_bytes().iter().chain(b"\n") {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The reference line for this fingerprint: `<workload> <seed>
    /// <history digest> <ledger fingerprint>`, both in hex.
    pub fn record_line(&self, w: Workload, seed: u64) -> String {
        format!(
            "{} {seed} {:016x} {:016x}",
            w.name(),
            self.history_digest(),
            self.ledger
        )
    }
}

/// The recorded references: for each training workload and each recorded
/// seed, the digest of its full history and its ledger fingerprint, made
/// with `pkdbench record` (see the file's header).
pub const RECORDED: &str = include_str!("../references.txt");

/// The recorded `(history digest, ledger fingerprint)` of `w` at `seed`.
pub fn recorded(w: Workload, seed: u64) -> Option<(u64, u64)> {
    recorded_in(RECORDED, w, seed)
}

fn recorded_in(table: &str, w: Workload, seed: u64) -> Option<(u64, u64)> {
    table
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).ok();
            match f[..] {
                [name, s, history, ledger]
                    if name == w.name() && s.parse::<u64>().ok() == Some(seed) =>
                {
                    Some((hex(history)?, hex(ledger)?))
                }
                _ => None,
            }
        })
}

/// Compares a full run's fingerprint with the reference recorded for its
/// seed. A seed with no recording is reported on standard error and left
/// to the live checks (repetitions and the reference execution).
pub fn check_recorded(w: Workload, seed: u64, fp: &Fingerprint) -> Option<String> {
    match recorded(w, seed) {
        Some(r) if r == (fp.history_digest(), fp.ledger) => None,
        Some(_) => Some(format!(
            "history or ledger differs from the reference recorded for seed {seed} \
             (got {})",
            fp.record_line(w, seed)
        )),
        None => {
            eprintln!(
                "pkdbench: no reference recorded for {} seed {seed}; \
                 only the live checks apply",
                w.name()
            );
            None
        }
    }
}

/// Rounds the reference execution replays. One round covers every layer a
/// round runs (training, aggregation, filter, distillation, evaluation)
/// at a fraction of a full replay's cost under the scalar kernels.
pub const REFERENCE_ROUNDS: usize = 1;

/// The reference for `seed`: the same workload under the reference
/// execution — scalar kernels, sequential plan, one worker — for its first
/// [`REFERENCE_ROUNDS`] rounds. The program promises bit-identical results
/// across kernel tier × plan × worker count, so any difference is a defect
/// in the fast path being measured.
pub fn reference(shape: &TrainShape, seed: u64) -> Fingerprint {
    let _kernels = KernelMode::Scalar.scoped();
    let _plan = PlanMode::Sequential.scoped();
    let rounds = REFERENCE_ROUNDS.min(shape.rounds);
    let mut algo = shape.build(seed);
    let result = DriverBuilder::new()
        .rounds(rounds)
        .workers(1)
        .build()
        .run(&mut algo, &mut fedpkd_core::telemetry::NullObserver);
    fingerprint(&result, rounds)
}

/// Problems with one repetition's output, apart from the reference
/// comparison: a complete history with in-range accuracies and a server
/// model better than chance. (Chance is the bar because the cohort
/// workload's one-epoch stages under trimmed aggregation train weakly on
/// some seeds: best accuracy 0.19 to 0.39 over seeds 1 to 10.)
pub fn sanity(shape: &TrainShape, result: &RunResult) -> Vec<String> {
    let mut problems = Vec::new();
    if result.history.len() != shape.rounds {
        problems.push(format!(
            "history has {} rounds, expected {}",
            result.history.len(),
            shape.rounds
        ));
    }
    for m in &result.history {
        let accs = m.server_accuracy.iter().chain(&m.client_accuracies);
        if accs.clone().any(|a| !(0.0..=1.0).contains(a)) {
            problems.push(format!("round {}: accuracy out of [0, 1]", m.round));
        }
        if m.client_accuracies.len() != shape.clients {
            problems.push(format!("round {}: missing client accuracies", m.round));
        }
    }
    let chance = 1.0 / CLASSES as f64;
    match result.best_server_accuracy() {
        Some(best) if best > chance => {}
        other => problems.push(format!(
            "best server accuracy {other:?} is not above chance"
        )),
    }
    if result.ledger.total_bytes() == 0 {
        problems.push("empty ledger".into());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig7"), None);
    }

    #[test]
    fn recorded_references_parse_and_cover_every_training_workload() {
        let table = "# comment\n\nfig7-hetero 3 00000000000000ff 0000000000000010\n";
        assert_eq!(
            recorded_in(table, Workload::Fig7Hetero, 3),
            Some((0xff, 0x10))
        );
        assert_eq!(recorded_in(table, Workload::Fig7Hetero, 4), None);
        assert_eq!(recorded_in(table, Workload::DatafreeMargins, 3), None);
        for w in Workload::ALL.into_iter().filter(|w| w.train().is_some()) {
            for seed in 1..=10 {
                assert!(recorded(w, seed).is_some(), "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn history_digest_is_fnv1a_over_newline_ended_lines() {
        let fp = |lines: &[&str]| Fingerprint {
            lines: lines.iter().map(|l| l.to_string()).collect(),
            ledger: 7,
        };
        // FNV-1a 64 of "a\n" and of the empty input.
        assert_eq!(fp(&["a"]).history_digest(), 0x089b_dc07_b544_e7b2);
        assert_eq!(fp(&[]).history_digest(), 0xcbf2_9ce4_8422_2325);
        assert_ne!(
            fp(&["ab"]).history_digest(),
            fp(&["a", "b"]).history_digest()
        );
        assert_eq!(
            fp(&["a"]).record_line(Workload::Cohort16Robust, 2),
            "cohort16-robust 2 089bdc07b544e7b2 0000000000000007"
        );
    }

    #[test]
    fn training_shapes_are_valid() {
        for w in Workload::ALL {
            if let Some(shape) = w.train() {
                shape.config.validate().expect("valid config");
                assert_eq!(shape.client_specs().len(), shape.clients);
            }
        }
        let cohort = Workload::Cohort16Robust.train().unwrap();
        assert_eq!((cohort.clients, cohort.public), (16, 2_400));
        assert_eq!(cohort.config.server_epochs, 1);
        let free = Workload::DatafreeMargins.train().unwrap();
        assert_eq!(free.config.distill_source, DistillSource::Generated);
        assert!(free.config.adaptive_margins);
        assert_eq!(free.rounds, Workload::Fig7Hetero.train().unwrap().rounds);
    }
}
