//! The FedPKD federation — Algorithm 2 of the paper.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::admission::{PayloadKind, QuarantineTracker, RejectReason};
use crate::clients::validate_specs;
use crate::cow::{for_each_pooled_client_streaming, pooled_client_accuracies, ClientPool};
use crate::eval;
use crate::fedpkd::config::{CoreError, DistillSource, FedPkdConfig};
use crate::fedpkd::distill::train_server;
use crate::fedpkd::filter::{filter_public_opts, FilterOptions};
use crate::fedpkd::generator::{self, Generator};
use crate::fedpkd::logits::{
    aggregate_logits_trimmed_from_probs, aggregation_stats_from_probs, effective_trim,
    pseudo_labels,
};
use crate::fedpkd::margins::{self, MarginBank};
use crate::fedpkd::prototypes::{
    aggregate_prototypes, aggregate_prototypes_robust, compute_input_moments, compute_prototypes,
    global_to_wire_entries, to_wire_entries, Prototype,
};
use crate::runtime::{DriverState, Federation};
use crate::snapshot::{self, SnapshotError, StateSink, StateSource};
use crate::streaming::LogitAccumulator;
use crate::telemetry::{emit_phase_timing, Phase, RoundObserver, TelemetryEvent};
use crate::train::{train_distill, train_supervised, train_supervised_with_prototypes};
use fedpkd_data::{Dataset, FederatedScenario};
use fedpkd_netsim::{Attack, CommLedger, Direction, Message, QuantizedLogits, RoundContext, Wire};
use fedpkd_rng::Rng;
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::models::ModelSpec;
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::optim::Adam;
use fedpkd_tensor::parallel::max_workers;
use fedpkd_tensor::Tensor;

/// The complete FedPKD algorithm over a federated scenario.
///
/// Owns the client models (possibly heterogeneous architectures), the larger
/// server model, and the cross-round state (global prototypes). Every
/// communication round executes the four phases of Algorithm 2 and records
/// byte-accurate traffic in the provided ledger.
///
/// # Partial participation
///
/// Under fault injection the round's [`Cohort`](fedpkd_netsim::Cohort)
/// restricts every phase to
/// the surviving clients: only they train, upload knowledge, enter the
/// Eq. 6–8 aggregations, and receive the downlink. For the size-weighted
/// prototype aggregation (Eq. 8) the server additionally reuses a dropped
/// client's most recent uploaded prototypes, as long as the absence is
/// within [`FedPkdConfig::prototype_staleness`] rounds — prototypes are
/// slow-moving class statistics, so brief reuse is sound (cf. FedProto's
/// robustness to missing clients), whereas logits are never reused. A
/// zero-survivor round is a no-op: nothing travels and no model changes.
///
/// See the crate-level example for usage.
///
/// # Config/state split
///
/// The struct is explicitly two halves: `scenario` + `config` are static
/// configuration (rebuilt from code and seeds), while the private
/// `FedPkdState` half is every mutable word the algorithm owns.
/// [`Federation::snapshot`] and
/// [`Federation::restore`] serialize exactly the state half, which is what
/// makes checkpoint/resume bit-identical.
pub struct FedPkd {
    scenario: FederatedScenario,
    config: FedPkdConfig,
    state: FedPkdState,
}

/// One in-flight bounded-staleness upload: `(client, origin round, payload)`.
type LateUpload = (usize, usize, Vec<Option<Prototype>>);

/// RNG stream id for the data-free generator (client streams are `1 + i`
/// and the server is `0`, so a high constant cannot collide).
const GENERATOR_STREAM: u64 = 0x6765_6e31;

/// The data-free distillation state: the conditional generator, its
/// optimizer, and the dedicated latent stream. Lives only when
/// [`FedPkdConfig::distill_source`] is [`DistillSource::Generated`].
struct GeneratorState {
    generator: Generator,
    optimizer: Adam,
    rng: Rng,
}

/// The owned, snapshotable half of [`FedPkd`]: everything that changes
/// from round to round.
struct FedPkdState {
    /// The client fleet in copy-on-write form: untouched clients cost
    /// nothing, trained clients park as flat deltas, and full models are
    /// only live while a client occupies a worker.
    clients: ClientPool,
    server_model: ClassifierModel,
    server_optimizer: Adam,
    server_rng: Rng,
    global_prototypes: Vec<Option<Tensor>>,
    /// Per client: the round of its last prototype upload and the payload,
    /// kept for stale reuse when the client misses rounds. Only *admitted*
    /// uploads enter the cache, so a rejected client's last good prototypes
    /// keep serving within the staleness window.
    cached_prototypes: Vec<Option<(usize, Vec<Option<Prototype>>)>>,
    /// Bounded-staleness in-flight uploads, keyed by arrival round:
    /// `(client, origin round, prototypes)` in origin order. A straggler
    /// on the round context's late roster trains on time, but its
    /// prototype upload only reaches the server (and the ledger) when the
    /// simulated transfer completes; its logits are stale by then and are
    /// discarded. Empty in synchronous mode.
    pending_late: BTreeMap<usize, Vec<LateUpload>>,
    /// Trainable prototype/margin bank plus its optimizer
    /// ([`FedPkdConfig::adaptive_margins`]); when present,
    /// `global_prototypes` holds the bank's smoothed exports rather than
    /// the raw Eq. 8 means.
    margins: Option<(MarginBank, Adam)>,
    /// Data-free distillation state ([`DistillSource::Generated`]).
    generator: Option<GeneratorState>,
    quarantine: QuarantineTracker,
    driver: DriverState,
}

impl FedPkd {
    /// Assembles the federation: one model per client built from
    /// `client_specs`, a server model from `server_spec`, all seeded
    /// deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the config is invalid, the spec count does
    /// not match the client count, or any spec's class count differs from
    /// the scenario's.
    pub fn new(
        scenario: FederatedScenario,
        client_specs: Vec<ModelSpec>,
        server_spec: ModelSpec,
        config: FedPkdConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        validate_specs(&scenario, &client_specs, Some(&server_spec), false)?;
        let clients = ClientPool::new(&client_specs, config.learning_rate, seed);
        let mut server_rng = Rng::stream(seed, 0);
        let server_model = server_spec.build(&mut server_rng);
        let num_classes = scenario.num_classes;
        let num_clients = scenario.num_clients();
        let quarantine = QuarantineTracker::new(num_clients, config.admission.quarantine_after);
        let margins = config.adaptive_margins.then(|| {
            (
                MarginBank::new(num_classes, server_model.feature_dim(), config.margin_init),
                Adam::new(config.margin_lr),
            )
        });
        let generator = (config.distill_source == DistillSource::Generated).then(|| {
            let mut rng = Rng::stream(seed, GENERATOR_STREAM);
            let generator = Generator::new(
                config.generator_latent_dim,
                num_classes,
                scenario.public.sample_dim(),
                &mut rng,
            );
            GeneratorState {
                generator,
                optimizer: Adam::new(config.generator_lr),
                rng,
            }
        });
        Ok(Self {
            scenario,
            state: FedPkdState {
                clients,
                server_model,
                server_optimizer: Adam::new(config.learning_rate),
                server_rng,
                global_prototypes: vec![None; num_classes],
                cached_prototypes: vec![None; num_clients],
                pending_late: BTreeMap::new(),
                margins,
                generator,
                quarantine,
                driver: DriverState::new(),
            },
            config,
        })
    }

    /// The current global prototypes (one per class, `None` until a client
    /// holding that class has reported).
    pub fn global_prototypes(&self) -> &[Option<Tensor>] {
        &self.state.global_prototypes
    }

    /// Immutable access to the scenario.
    pub fn scenario(&self) -> &FederatedScenario {
        &self.scenario
    }

    /// The cross-round quarantine state (see
    /// [`AdmissionPolicy`](crate::admission::AdmissionPolicy)).
    pub fn quarantine(&self) -> &QuarantineTracker {
        &self.state.quarantine
    }

    /// L2 drift between two generations of global prototypes, for
    /// telemetry: mean and max over classes present in both.
    fn prototype_drift(old: &[Option<Tensor>], new: &[Option<Tensor>]) -> (f64, f64) {
        let mut mean = 0.0f64;
        let mut max = 0.0f64;
        let mut count = 0usize;
        for (o, n) in old.iter().zip(new) {
            if let (Some(o), Some(n)) = (o.as_ref(), n.as_ref()) {
                let d = f64::from(
                    o.as_slice()
                        .iter()
                        .zip(n.as_slice())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f32>(),
                )
                .sqrt();
                mean += d;
                max = max.max(d);
                count += 1;
            }
        }
        if count > 0 {
            mean /= count as f64;
        }
        (mean, max)
    }
}

/// Applies a Byzantine client's [`Attack`] to its round upload in place:
/// the logits tensor (whose width may change under a wrong-shape attack)
/// and every present prototype vector. Draws come from the context's
/// dedicated `(seed, round, client)` stream, so corruption replays
/// bit-identically.
fn corrupt_upload(
    attack: Attack,
    rng: &mut Rng,
    logits: &mut Tensor,
    prototypes: &mut [Option<Prototype>],
) {
    let (rows, cols) = (logits.rows(), logits.cols());
    let mut values = logits.as_slice().to_vec();
    let new_cols = attack.corrupt_logits(rng, &mut values, rows, cols);
    *logits = Tensor::from_vec(values, &[rows, new_cols]).expect("corruption preserves row count");
    for proto in prototypes.iter_mut().flatten() {
        let mut vector = proto.vector.as_slice().to_vec();
        attack.corrupt_prototype(rng, &mut vector);
        let dim = vector.len();
        proto.vector = Tensor::from_vec(vector, &[dim]).expect("vector stays one-dimensional");
    }
}

/// The data-free transfer set of one round ([`DistillSource::Generated`]):
/// the synthesized samples plus the latent draw that produced them, which
/// the generator refine replays.
struct SynthBatch {
    dataset: Dataset,
    latents: Tensor,
    labels: Vec<usize>,
}

/// The read-only inputs every stage of one round shares.
struct RoundEnv<'a> {
    round: usize,
    ctx: &'a RoundContext,
    config: &'a FedPkdConfig,
    scenario: &'a FederatedScenario,
    /// The public set, or this round's generated batch in data-free mode.
    transfer: &'a Dataset,
    workers: usize,
}

/// What the ordered uplink commit hands the server.
struct Uploads {
    /// The streaming Eq. 6–7 fold of every admitted upload's softmax
    /// probabilities (left empty under trimming).
    acc: LogitAccumulator,
    /// The admitted uploads' probabilities, kept only for the trimmed
    /// estimator (cross-client by definition) or the aggregation
    /// diagnostics; empty otherwise, so the server holds no O(cohort)
    /// payload buffer.
    probs: Vec<Tensor>,
    /// Admitted, well-formed data-free input moments, in commit order.
    moments: Vec<Vec<Option<Prototype>>>,
    admitted: usize,
    /// Only reachable with admission disabled: a shape-divergent upload
    /// was let through, so the round degrades to a no-op.
    fold_failed: bool,
}

/// The server's Eq. 6–9 consensus over the admitted uploads.
struct Consensus {
    /// The Eq. 6 teacher distribution (rows on the simplex).
    aggregated: Tensor,
    /// Eq. 9 pseudo-labels: the teacher's per-row argmax.
    pseudo: Vec<usize>,
    /// Data-free mode: the size-weighted global per-class input means the
    /// generator matches.
    input_moments: Vec<Option<Tensor>>,
}

/// The stages of Algorithm 2, in the order [`FedPkd`]'s `run_round` calls
/// them. Each owns one step of the paper's round and exchanges explicit
/// values with its neighbours; phase windows and early exits live in
/// `run_round`.
impl FedPkdState {
    /// Stage 1, the transfer set. Public mode returns `None` (the public
    /// set is pre-shared, nothing travels). Data-free mode synthesizes a
    /// batch the size of the public set from the dedicated latent stream —
    /// so uplink logit traffic, and with it comm-budget comparisons, stays
    /// identical — and broadcasts it to the roster, charged as downlink:
    /// the participants need it before they can score it.
    fn draw_transfer(
        &mut self,
        scenario: &FederatedScenario,
        round: usize,
        roster: &[usize],
        ledger: &mut CommLedger,
    ) -> Option<SynthBatch> {
        let gs = self.generator.as_mut()?;
        let (latents, labels) = gs.generator.draw_batch(scenario.public.len(), &mut gs.rng);
        let features = gs.generator.synthesize(&latents, &labels);
        let dataset = Dataset::new(features, labels.clone(), scenario.num_classes)
            .expect("generator conditions on in-range labels");
        let batch_msg = Message::SyntheticBatch {
            sample_dim: dataset.sample_dim() as u32,
            labels: labels.iter().map(|&y| y as u32).collect(),
            values: dataset.features().as_slice().to_vec(),
        };
        for &client in roster {
            ledger.record(round, client, Direction::Downlink, &batch_msg);
        }
        Some(SynthBatch {
            dataset,
            latents,
            labels,
        })
    }

    /// Stage 2, client private training (Eq. 4, plus the Eq. 16 prototype
    /// pull after round 0) and the dual knowledge uplink (Eq. 5) on the
    /// bounded work-stealing pool. Survivors and late-roster stragglers
    /// train concurrently; every upload is *committed* in ascending client
    /// order — telemetry, Byzantine corruption, ledger accounting,
    /// admission, and the streaming Eq. 6–7 fold all happen per client at
    /// the commit point.
    fn train_and_commit(
        &mut self,
        env: &RoundEnv<'_>,
        roster: &[usize],
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    ) -> Uploads {
        let RoundEnv {
            round,
            ctx,
            config,
            scenario,
            transfer,
            workers,
        } = *env;
        let cohort = ctx.cohort();
        let public_len = scenario.public.len();
        let num_classes = scenario.num_classes;
        let num_classes_u32 = num_classes as u32;
        let sample_dim = transfer.sample_dim();
        let policy = config.admission;
        let trim = config.robust.trim_fraction();
        let keep_probs = trim.is_some() || obs.enabled();
        let all_ids: Vec<u32> = (0..public_len as u32).collect();
        let mut uploads = Uploads {
            acc: LogitAccumulator::new(config.variance_weighting),
            probs: Vec::new(),
            moments: Vec::new(),
            admitted: 0,
            fold_failed: false,
        };
        let proto_dim = self.server_model.feature_dim();
        // Destructure for disjoint borrows: the fleet mutates on the
        // worker pool while the commit pipeline updates server-side state.
        let Self {
            clients,
            global_prototypes,
            cached_prototypes,
            pending_late,
            quarantine,
            ..
        } = self;
        let global_prototypes = &*global_prototypes;
        for_each_pooled_client_streaming(
            clients,
            &scenario.clients,
            roster,
            workers,
            |_, state, data| {
                let stats = if round == 0 || !config.use_prototypes {
                    train_supervised(
                        &mut state.model,
                        &data.train,
                        config.client_private_epochs,
                        config.batch_size,
                        &mut state.optimizer,
                        &mut state.rng,
                    )
                } else {
                    train_supervised_with_prototypes(
                        &mut state.model,
                        &data.train,
                        global_prototypes,
                        config.epsilon,
                        config.client_private_epochs,
                        config.batch_size,
                        &mut state.optimizer,
                        &mut state.rng,
                    )
                };
                let logits = eval::logits_on(&mut state.model, transfer);
                let prototypes = compute_prototypes(&mut state.model, &data.train);
                // Data-free mode: the input-space class means that ground
                // the server's generator in the real data distribution
                // ride along with the dual uplink.
                let moments = (config.distill_source == DistillSource::Generated)
                    .then(|| compute_input_moments(&data.train));
                (logits, prototypes, moments, stats)
            },
            |client, (mut logits, mut prototypes, moments, stats)| {
                obs.record(&TelemetryEvent::ClientTrained {
                    round,
                    client,
                    samples: scenario.clients[client].train.len(),
                    mean_loss: stats.mean_loss,
                });
                // Byzantine clients corrupt their uploads here — before
                // the ledger charge, because the corrupted bytes are what
                // actually cross the wire, and before admission, which is
                // the server's view of them.
                if let Some(attack) = ctx.attack(client) {
                    let mut rng = ctx.attack_rng(round, client);
                    corrupt_upload(attack, &mut rng, &mut logits, &mut prototypes);
                }
                if !cohort.is_active(client) {
                    // A late-roster straggler: its transfer is still in
                    // flight. The logits will be a round stale on arrival
                    // and are discarded; the slow-moving prototypes queue
                    // for the arrival round, when their bytes are charged
                    // and admission inspects them.
                    let lag = ctx
                        .late_arrivals()
                        .iter()
                        .find(|&&(c, _)| c == client)
                        .map(|&(_, lag)| lag)
                        .expect("late roster put this client on the roster");
                    pending_late
                        .entry(round + lag)
                        .or_default()
                        .push((client, round, prototypes));
                    return;
                }
                // The lossy 8-bit channel cannot represent garbage payloads
                // (non-finite or misshapen); those travel raw instead — an
                // adversary does not get to crash the codec.
                let quantizable = config.quantize_knowledge
                    && logits.cols() == num_classes
                    && logits.all_finite();
                if quantizable {
                    // Charge the quantized size and replace the logits with
                    // what actually survives the wire. The guard checked
                    // finiteness, so this cannot fail.
                    let quantized =
                        QuantizedLogits::from_values(&all_ids, num_classes_u32, logits.as_slice())
                            .expect("finiteness checked by the quantizable guard");
                    ledger.record_bytes(round, client, Direction::Uplink, quantized.encoded_len());
                    logits = Tensor::from_vec(quantized.dequantize(), logits.shape())
                        .expect("dequantization preserves the shape");
                } else {
                    ledger.record(
                        round,
                        client,
                        Direction::Uplink,
                        &Message::Logits {
                            sample_ids: all_ids.clone(),
                            num_classes: num_classes_u32,
                            values: logits.as_slice().to_vec(),
                        },
                    );
                }
                if config.use_prototypes {
                    ledger.record(
                        round,
                        client,
                        Direction::Uplink,
                        &Message::Prototypes {
                            entries: to_wire_entries(&prototypes),
                        },
                    );
                }
                if let Some(m) = &moments {
                    ledger.record(
                        round,
                        client,
                        Direction::Uplink,
                        &Message::DataMoments {
                            entries: to_wire_entries(m),
                        },
                    );
                }
                // Admission control: the upload was charged — the bytes
                // crossed the wire — but only validated payloads may touch
                // server state.
                let mut reject = |payload, reason| {
                    obs.record(&TelemetryEvent::PayloadRejected {
                        round,
                        client,
                        payload,
                        reason,
                    });
                };
                if quarantine.is_quarantined(client) {
                    reject(PayloadKind::Logits, RejectReason::Quarantined);
                    if config.use_prototypes {
                        reject(PayloadKind::Prototypes, RejectReason::Quarantined);
                    }
                    return;
                }
                let mut rejected = false;
                if let Err(reason) = policy.check_logits(&logits, public_len, num_classes) {
                    reject(PayloadKind::Logits, reason);
                    rejected = true;
                }
                if config.use_prototypes {
                    if let Err(reason) =
                        policy.check_prototypes(&prototypes, num_classes, proto_dim)
                    {
                        reject(PayloadKind::Prototypes, reason);
                        rejected = true;
                    }
                }
                if rejected {
                    if quarantine.record_rejection(client) {
                        obs.record(&TelemetryEvent::ClientQuarantined {
                            round,
                            client,
                            consecutive: quarantine.streak(client),
                        });
                    }
                    return;
                }
                quarantine.record_accepted(client);
                if config.use_prototypes {
                    cached_prototypes[client] = Some((round, prototypes));
                }
                // Moments only feed the generator: a malformed vector is
                // simply not folded — the logit/prototype checks above are
                // what gate the client's standing.
                if let Some(m) = moments {
                    let well_formed = m.len() == num_classes
                        && m.iter()
                            .flatten()
                            .all(|p| p.vector.shape() == [sample_dim] && p.vector.all_finite());
                    if well_formed {
                        uploads.moments.push(m);
                    }
                }
                // The admitted upload is softmaxed once and folded (Eqs.
                // 6–7); the logits are freed here.
                let probs = softmax(&logits, 1.0);
                if trim.is_none() && uploads.acc.fold_probs(&probs).is_err() {
                    uploads.fold_failed = true;
                }
                if keep_probs {
                    uploads.probs.push(probs);
                }
                uploads.admitted += 1;
            },
        );
        uploads
    }

    /// Stage 3, late arrivals land, then server-side aggregation over the
    /// admitted uploads: the Eq. 6–7 teacher (or its trimmed variant), the
    /// Eq. 9 pseudo-labels, the Eq. 8 global prototypes (refined through
    /// the margin bank when adaptive margins are on), and the data-free
    /// input moments. `None` when no trustworthy knowledge arrived — the
    /// round then degrades to a no-op: models and prototypes stay as they
    /// were, late arrivals only refreshed the cache.
    fn aggregate(
        &mut self,
        env: &RoundEnv<'_>,
        arrivals: Vec<LateUpload>,
        uploads: Uploads,
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    ) -> Option<Consensus> {
        let RoundEnv {
            round,
            config,
            scenario,
            ..
        } = *env;
        let num_classes = scenario.num_classes;
        let proto_dim = self.server_model.feature_dim();
        for (client, origin, protos) in arrivals {
            // The delayed transfer completes now: charge its bytes, then
            // let admission gate the aged prototypes into the stale-reuse
            // cache. Quarantine streaks track only the synchronous path.
            ledger.record(
                round,
                client,
                Direction::Uplink,
                &Message::Prototypes {
                    entries: to_wire_entries(&protos),
                },
            );
            let verdict = if self.quarantine.is_quarantined(client) {
                Err(RejectReason::Quarantined)
            } else {
                config
                    .admission
                    .check_prototypes(&protos, num_classes, proto_dim)
            };
            if let Err(reason) = verdict {
                obs.record(&TelemetryEvent::PayloadRejected {
                    round,
                    client,
                    payload: PayloadKind::Prototypes,
                    reason,
                });
                continue;
            }
            // Stamped with the origin round so `prototype_staleness` ages
            // the payload from when it was computed; a fresher upload from
            // the same client wins.
            if self.cached_prototypes[client]
                .as_ref()
                .is_none_or(|&(cached, _)| cached <= origin)
            {
                self.cached_prototypes[client] = Some((origin, protos));
            }
        }
        // Every on-time upload rejected (or everyone late), or — with
        // admission disabled — shape-divergent payloads let through.
        if uploads.admitted == 0 || uploads.fold_failed {
            return None;
        }
        let trim = config.robust.trim_fraction();
        let aggregated = match trim {
            Some(t) => aggregate_logits_trimmed_from_probs(&uploads.probs, t).ok()?,
            None => uploads.acc.finish().ok()?,
        };
        let pseudo = pseudo_labels(&aggregated);
        if obs.enabled() {
            let stats = aggregation_stats_from_probs(&uploads.probs, config.variance_weighting);
            obs.record(&TelemetryEvent::LogitAggregation {
                round,
                clients: uploads.probs.len(),
                variance_weighting: config.variance_weighting,
                mean_client_weight: stats.mean_client_weight,
                disagreement: stats.disagreement,
            });
        }
        let mut proto_outliers = 0usize;
        let mut proto_contributions = 0usize;
        if config.use_prototypes {
            // Eq. 8 over the admitted survivors' fresh prototypes plus any
            // absent client's cached upload that is recent enough
            // (`prototype_staleness` bounds the age of reuse).
            let client_protos: Vec<Vec<Option<Prototype>>> = self
                .cached_prototypes
                .iter()
                .flatten()
                .filter(|&&(uploaded, _)| round - uploaded <= config.prototype_staleness)
                .map(|(_, p)| p.clone())
                .collect();
            proto_contributions = client_protos
                .iter()
                .map(|p| p.iter().flatten().count())
                .sum();
            let result = match trim {
                None => aggregate_prototypes(&client_protos).map(|g| (g, 0)),
                Some(t) => aggregate_prototypes_robust(&client_protos, t),
            };
            if let Ok((new_prototypes, outliers)) = result {
                proto_outliers = outliers;
                // Adaptive margins: the Eq. 8 means become refine targets
                // for the trainable bank, and the bank's smoothed exports
                // are what the rest of the round — the filter, the server
                // distillation, the downlink, and next round's Eq. 16
                // pull — sees as the global prototypes.
                let effective = if let Some((bank, opt)) = self.margins.as_mut() {
                    let stats = margins::refine(bank, opt, &new_prototypes, config.margin_epochs);
                    obs.record(&TelemetryEvent::MarginRefined {
                        round,
                        covered: stats.covered,
                        proto_loss: stats.proto_loss,
                        margin_loss: stats.margin_loss,
                        margins: bank.margins().iter().map(|&m| f64::from(m)).collect(),
                    });
                    bank.globals()
                } else {
                    new_prototypes
                };
                if obs.enabled() {
                    let (mean_l2, max_l2) =
                        FedPkd::prototype_drift(&self.global_prototypes, &effective);
                    obs.record(&TelemetryEvent::PrototypeDrift {
                        round,
                        classes_present: effective.iter().filter(|p| p.is_some()).count(),
                        mean_l2,
                        max_l2,
                    });
                }
                self.global_prototypes = effective;
            }
            // On Err — no cache entries at all, or (with admission
            // disabled) divergent widths — the previous prototype
            // generation keeps serving instead of being wiped.
        }
        if obs.enabled() {
            if let Some(t) = trim {
                obs.record(&TelemetryEvent::AggregationTrim {
                    round,
                    logit_trim: effective_trim(uploads.probs.len(), t),
                    prototype_outliers: proto_outliers,
                    prototype_contributions: proto_contributions,
                });
            }
        }
        // Data-free mode: size-weight the admitted input-moment uploads
        // into the global per-class input means. They were collected in
        // commit order (ascending client id), so the aggregate is
        // deterministic across worker counts.
        let input_moments = if uploads.moments.is_empty() {
            vec![None; num_classes]
        } else {
            aggregate_prototypes(&uploads.moments).unwrap_or_else(|_| vec![None; num_classes])
        };
        Some(Consensus {
            aggregated,
            pseudo,
            input_moments,
        })
    }

    /// Stage 4, the Algorithm 1 filter (Eqs. 9–10): keep the `θ` fraction
    /// of each pseudo-class closest to its global prototype in the server's
    /// feature space, gated further by the adaptive margins when they are
    /// on. Returns the kept transfer-set indices in ascending order.
    fn filter(
        &mut self,
        env: &RoundEnv<'_>,
        consensus: &Consensus,
        obs: &mut dyn RoundObserver,
    ) -> Vec<usize> {
        let config = env.config;
        if !(config.use_filter && config.use_prototypes) {
            return (0..env.scenario.public.len()).collect();
        }
        let server_features = eval::features_on(&mut self.server_model, env.transfer);
        // Radii are only armed for classes whose distance scale has been
        // observed (INFINITY otherwise), so margins never gate round 0.
        let margin_radii: Option<Vec<f32>> =
            self.margins.as_ref().map(|(bank, _)| bank.filter_margins());
        let (selected, stats) = filter_public_opts(
            &server_features,
            &consensus.pseudo,
            &self.global_prototypes,
            config.theta,
            FilterOptions {
                margins: margin_radii.as_deref(),
                // Generated samples of a class no client has seen carry no
                // teachable signal (Eq. 10 has no target): drop them
                // outright instead of keeping an index-order θ fraction.
                drop_uncovered: config.distill_source == DistillSource::Generated,
            },
        );
        // Feed the observed within-class distance scale back into the
        // bank: it is both the margin target and the arming signal for
        // next round's radii.
        if let Some((bank, _)) = self.margins.as_mut() {
            bank.observe_distances(&stats.mean_distance_per_class);
        }
        obs.record(&TelemetryEvent::FilterOutcome {
            round: env.round,
            kept: stats.kept(),
            dropped: stats.dropped(),
            kept_per_class: stats.kept_per_class,
            total_per_class: stats.total_per_class,
            distance_quantiles: stats.distance_quantiles,
            dropped_uncovered: stats.dropped_uncovered,
            dropped_by_margin: stats.dropped_by_margin,
        });
        selected
    }

    /// Stage 5, data-free mode only: refine the generator against the
    /// round's aggregated ensemble before the server distills — the FedGen
    /// alternation. The critic (server model) comes out bit-identical
    /// (params never stepped, buffers restored, gradients zeroed), so the
    /// distillation that follows starts from a clean slate.
    fn refine_generator(
        &mut self,
        env: &RoundEnv<'_>,
        synth: &SynthBatch,
        consensus: &Consensus,
        obs: &mut dyn RoundObserver,
    ) {
        let Some(gs) = self.generator.as_mut() else {
            return;
        };
        let stats = generator::refine(
            &mut gs.generator,
            &mut gs.optimizer,
            &mut self.server_model,
            &synth.latents,
            &synth.labels,
            Some(&consensus.aggregated),
            &self.global_prototypes,
            &consensus.input_moments,
            env.config.temperature,
            env.config.generator_epochs,
        );
        obs.record(&TelemetryEvent::GeneratorRefined {
            round: env.round,
            ensemble_loss: stats.ensemble_loss,
            ce_loss: stats.ce_loss,
            proto_loss: stats.proto_loss,
            moment_loss: stats.moment_loss,
        });
    }

    /// Stage 6, server distillation (Eqs. 11–13) on the filtered subset:
    /// the aggregated teacher's rows are the KD targets, and the Eq. 12
    /// prototype term pulls the server's features towards the global
    /// prototypes. Returns the subset's features for the client stage.
    fn distill_server(
        &mut self,
        env: &RoundEnv<'_>,
        selected: &[usize],
        consensus: &Consensus,
        obs: &mut dyn RoundObserver,
    ) -> Tensor {
        let config = env.config;
        let subset_features = env
            .transfer
            .features()
            .select_rows(selected)
            .expect("filter indices are in range");
        // `aggregated` is already a probability mixture (Eq. 6 over the
        // simplex); the filtered rows are the server's teacher targets.
        let teacher_probs = consensus
            .aggregated
            .select_rows(selected)
            .expect("filter indices are in range");
        let subset_pseudo: Vec<usize> = selected.iter().map(|&i| consensus.pseudo[i]).collect();
        let delta = if config.use_prototypes {
            config.delta
        } else {
            1.0 // the prototype loss term is removed (ablation w/o Pro)
        };
        let stats = train_server(
            &mut self.server_model,
            &subset_features,
            &teacher_probs,
            &subset_pseudo,
            &self.global_prototypes,
            delta,
            config.temperature,
            config.server_epochs,
            config.batch_size,
            &mut self.server_optimizer,
            &mut self.server_rng,
        );
        obs.record(&TelemetryEvent::ServerDistill {
            round: env.round,
            kd_loss: stats.kd_loss,
            proto_loss: stats.proto_loss,
            combined_loss: stats.combined_loss,
            batches: stats.batches,
        });
        subset_features
    }

    /// Stage 7, the server knowledge downlink (Eq. 14) and client public
    /// training (Eq. 15). Only the subset's logits travel (θ% of the
    /// transfer set), which is FedPKD's downlink saving; the distillation
    /// rides the same work-stealing pool as stage 2, with losses committed
    /// (and logged) in client order.
    fn downlink_and_distill_clients(
        &mut self,
        env: &RoundEnv<'_>,
        selected: &[usize],
        subset_features: &Tensor,
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    ) {
        let RoundEnv {
            round,
            ctx,
            config,
            scenario,
            transfer,
            workers,
        } = *env;
        let num_classes_u32 = scenario.num_classes as u32;
        let survivors = ctx.cohort().survivors();
        let subset_dataset = transfer.subset(selected);
        let mut server_logits = eval::logits_on(&mut self.server_model, &subset_dataset);
        let selected_ids: Vec<u32> = selected.iter().map(|&i| i as u32).collect();
        // A diverged server (e.g. under an unfiltered Byzantine attack) can
        // emit non-finite logits; those cannot ride the lossy 8-bit channel,
        // so they fall back to the raw f32 message instead of panicking.
        let downlink_quantized = if config.quantize_knowledge {
            match QuantizedLogits::from_values(
                &selected_ids,
                num_classes_u32,
                server_logits.as_slice(),
            ) {
                Ok(quantized) => {
                    server_logits = Tensor::from_vec(quantized.dequantize(), server_logits.shape())
                        .expect("dequantization preserves the shape");
                    Some(quantized.encoded_len())
                }
                Err(_) => None,
            }
        } else {
            None
        };
        let server_probs = softmax(&server_logits, config.temperature);
        let proto_entries = global_to_wire_entries(&self.global_prototypes);
        for &client in &survivors {
            match downlink_quantized {
                Some(bytes) => ledger.record_bytes(round, client, Direction::Downlink, bytes),
                None => ledger.record(
                    round,
                    client,
                    Direction::Downlink,
                    &Message::Logits {
                        sample_ids: selected_ids.clone(),
                        num_classes: num_classes_u32,
                        values: server_logits.as_slice().to_vec(),
                    },
                ),
            }
            if config.use_prototypes {
                ledger.record(
                    round,
                    client,
                    Direction::Downlink,
                    &Message::Prototypes {
                        entries: proto_entries.clone(),
                    },
                );
            }
            ledger.record(
                round,
                client,
                Direction::Downlink,
                &Message::SampleSelection {
                    ids: selected_ids.clone(),
                },
            );
        }
        for_each_pooled_client_streaming(
            &mut self.clients,
            &scenario.clients,
            &survivors,
            workers,
            |_, state, _| {
                train_distill(
                    &mut state.model,
                    subset_features,
                    &server_probs,
                    config.gamma,
                    config.temperature,
                    config.client_public_epochs,
                    config.batch_size,
                    &mut state.optimizer,
                    &mut state.rng,
                )
            },
            |client, stats| {
                obs.record(&TelemetryEvent::ClientDistilled {
                    round,
                    client,
                    mean_loss: stats.mean_loss,
                });
            },
        );
    }
}

/// Encodes one client's per-class prototype upload for a snapshot.
fn write_prototypes(w: &mut dyn StateSink, protos: &[Option<Prototype>]) {
    w.put_usize(protos.len());
    for proto in protos {
        match proto {
            Some(p) => {
                w.put_bool(true);
                w.put_usize(p.count);
                snapshot::write_tensor(w, &p.vector);
            }
            None => w.put_bool(false),
        }
    }
}

/// Decodes what [`write_prototypes`] encoded.
fn read_prototypes(r: &mut dyn StateSource) -> Result<Vec<Option<Prototype>>, SnapshotError> {
    let len = r.take_usize()?;
    let mut protos = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        protos.push(if r.take_bool()? {
            let count = r.take_usize()?;
            let vector = snapshot::read_tensor(r)?;
            Some(Prototype { count, vector })
        } else {
            None
        });
    }
    Ok(protos)
}

impl Federation for FedPkd {
    fn name(&self) -> &'static str {
        "FedPKD"
    }

    fn num_clients(&self) -> usize {
        self.state.clients.len()
    }

    fn run_round(
        &mut self,
        round: usize,
        ctx: &RoundContext,
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    ) {
        let Self {
            scenario,
            config,
            state,
        } = self;
        // Late uploads queued in earlier rounds whose simulated transfer
        // completes now — they arrive whether or not anyone trains today.
        let arrivals = state.pending_late.remove(&round).unwrap_or_default();
        // Stragglers the driver promoted onto the late roster train this
        // round; only their prototypes survive the delay, so without
        // prototypes the late path carries nothing and is skipped.
        let late: &[(usize, usize)] = if config.use_prototypes {
            ctx.late_arrivals()
        } else {
            &[]
        };
        if ctx.cohort().num_active() == 0 && late.is_empty() && arrivals.is_empty() {
            // Zero survivors and nothing in flight: a no-op round (the
            // latent stream does not advance either).
            return;
        }
        let mut roster = ctx.cohort().survivors();
        roster.extend(late.iter().map(|&(client, _)| client));
        roster.sort_unstable();

        let started = Instant::now();
        let synth = state.draw_transfer(scenario, round, &roster, ledger);
        let env = RoundEnv {
            round,
            ctx,
            config,
            scenario,
            transfer: synth.as_ref().map_or(&scenario.public, |s| &s.dataset),
            workers: ctx.worker_budget().unwrap_or_else(max_workers),
        };
        let uploads = state.train_and_commit(&env, &roster, ledger, obs);
        emit_phase_timing(obs, round, Phase::ClientTraining, started);

        let started = Instant::now();
        let consensus = state.aggregate(&env, arrivals, uploads, ledger, obs);
        emit_phase_timing(obs, round, Phase::Aggregation, started);
        let Some(consensus) = consensus else {
            return;
        };

        let started = Instant::now();
        let selected = state.filter(&env, &consensus, obs);
        emit_phase_timing(obs, round, Phase::Filter, started);

        let started = Instant::now();
        if let Some(synth) = &synth {
            state.refine_generator(&env, synth, &consensus, obs);
        }
        if selected.is_empty() {
            // A data-free round where no generated class had a covered
            // prototype: nothing to distill on or downlink, but the
            // generator refined, so later rounds produce usable batches.
            return;
        }
        let subset_features = state.distill_server(&env, &selected, &consensus, obs);
        emit_phase_timing(obs, round, Phase::ServerDistill, started);

        let started = Instant::now();
        state.downlink_and_distill_clients(&env, &selected, &subset_features, ledger, obs);
        emit_phase_timing(obs, round, Phase::ClientDistill, started);
    }

    fn server_accuracy(&mut self) -> Option<f64> {
        Some(eval::accuracy(
            &mut self.state.server_model,
            &self.scenario.global_test,
        ))
    }

    fn client_accuracies(&mut self) -> Vec<f64> {
        pooled_client_accuracies(&self.state.clients, &self.scenario)
    }

    fn driver(&self) -> &DriverState {
        &self.state.driver
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.state.driver
    }

    fn write_state(&self, w: &mut dyn StateSink) {
        snapshot::write_pool(w, &self.state.clients);
        snapshot::write_model(w, &self.state.server_model);
        snapshot::write_adam(w, &self.state.server_optimizer);
        snapshot::write_rng(w, &self.state.server_rng);
        snapshot::write_opt_tensors(w, &self.state.global_prototypes);
        // The stale-prototype cache: per client an optional
        // (upload round, per-class optional prototype) entry.
        w.put_usize(self.state.cached_prototypes.len());
        for entry in &self.state.cached_prototypes {
            match entry {
                Some((round, protos)) => {
                    w.put_bool(true);
                    w.put_usize(*round);
                    write_prototypes(w, protos);
                }
                None => w.put_bool(false),
            }
        }
        // In-flight late uploads (bounded-staleness mode): per arrival
        // round, the (client, origin round, prototypes) triples still on
        // the wire. Empty in sync mode, so sync snapshots cost 8 bytes.
        w.put_usize(self.state.pending_late.len());
        for (arrival, uploads) in &self.state.pending_late {
            w.put_usize(*arrival);
            w.put_usize(uploads.len());
            for (client, origin, protos) in uploads {
                w.put_usize(*client);
                w.put_usize(*origin);
                write_prototypes(w, protos);
            }
        }
        // Scenario-diversity extensions: presence-tagged so a restore into
        // a differently-configured instance fails typed instead of
        // misaligning the byte stream.
        w.put_bool(self.state.margins.is_some());
        if let Some((bank, opt)) = &self.state.margins {
            snapshot::write_model(w, bank);
            snapshot::write_adam(w, opt);
        }
        w.put_bool(self.state.generator.is_some());
        if let Some(gs) = &self.state.generator {
            snapshot::write_model(w, &gs.generator);
            snapshot::write_adam(w, &gs.optimizer);
            snapshot::write_rng(w, &gs.rng);
        }
        snapshot::write_quarantine(w, &self.state.quarantine);
        snapshot::write_driver(w, &self.state.driver);
    }

    fn read_state(&mut self, r: &mut dyn StateSource) -> Result<(), SnapshotError> {
        snapshot::read_pool(r, &mut self.state.clients)?;
        snapshot::read_model(r, &mut self.state.server_model)?;
        snapshot::read_adam(
            r,
            &mut self.state.server_optimizer,
            &self.state.server_model,
        )?;
        self.state.server_rng = snapshot::read_rng(r)?;
        let global_prototypes = snapshot::read_opt_tensors(r)?;
        if global_prototypes.len() != self.state.global_prototypes.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {} classes of global prototypes, instance has {}",
                global_prototypes.len(),
                self.state.global_prototypes.len()
            )));
        }
        let cache_len = r.take_usize()?;
        if cache_len != self.state.cached_prototypes.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot caches prototypes for {cache_len} clients, instance has {}",
                self.state.cached_prototypes.len()
            )));
        }
        let mut cached_prototypes = Vec::with_capacity(cache_len);
        for _ in 0..cache_len {
            cached_prototypes.push(if r.take_bool()? {
                let round = r.take_usize()?;
                Some((round, read_prototypes(r)?))
            } else {
                None
            });
        }
        let num_buckets = r.take_usize()?;
        let mut pending_late = BTreeMap::new();
        for _ in 0..num_buckets {
            let arrival = r.take_usize()?;
            let num_uploads = r.take_usize()?;
            let mut uploads = Vec::with_capacity(num_uploads.min(1 << 20));
            for _ in 0..num_uploads {
                let client = r.take_usize()?;
                if client >= cache_len {
                    return Err(SnapshotError::Malformed(format!(
                        "snapshot queues a late upload from client {client}, \
                         instance has {cache_len} clients"
                    )));
                }
                let origin = r.take_usize()?;
                uploads.push((client, origin, read_prototypes(r)?));
            }
            pending_late.insert(arrival, uploads);
        }
        let has_margins = r.take_bool()?;
        if has_margins != self.state.margins.is_some() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot {} adaptive-margin state but the instance is configured {} it",
                if has_margins { "carries" } else { "has no" },
                if self.state.margins.is_some() {
                    "with"
                } else {
                    "without"
                },
            )));
        }
        if let Some((bank, opt)) = self.state.margins.as_mut() {
            snapshot::read_model(r, bank)?;
            snapshot::read_adam(r, opt, bank)?;
        }
        let has_generator = r.take_bool()?;
        if has_generator != self.state.generator.is_some() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot {} generator state but the instance's distill source is {}",
                if has_generator { "carries" } else { "has no" },
                if self.state.generator.is_some() {
                    "Generated"
                } else {
                    "Public"
                },
            )));
        }
        if let Some(gs) = self.state.generator.as_mut() {
            snapshot::read_model(r, &mut gs.generator)?;
            snapshot::read_adam(r, &mut gs.optimizer, &gs.generator)?;
            gs.rng = snapshot::read_rng(r)?;
        }
        snapshot::read_quarantine(r, &mut self.state.quarantine)?;
        let driver = snapshot::read_driver(r)?;
        self.state.global_prototypes = global_prototypes;
        self.state.cached_prototypes = cached_prototypes;
        self.state.pending_late = pending_late;
        self.state.driver = driver;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::NullObserver;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_netsim::Cohort;
    use fedpkd_tensor::models::DepthTier;

    fn tiny_scenario(seed: u64) -> FederatedScenario {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(3)
            .samples(360)
            .public_size(120)
            .global_test_size(150)
            .partition(Partition::Dirichlet { alpha: 0.5 })
            .seed(seed)
            .build()
            .unwrap()
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

    fn spec(tier: DepthTier) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier,
        }
    }

    #[test]
    fn constructor_validates_wiring() {
        let scenario = tiny_scenario(1);
        // Wrong spec count.
        let err = FedPkd::new(
            scenario.clone(),
            vec![spec(DepthTier::T11); 2],
            spec(DepthTier::T56),
            fast_config(),
            0,
        );
        assert!(matches!(err, Err(CoreError::ClientSpecMismatch { .. })));
        // Wrong class count.
        let bad_spec = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 5,
            tier: DepthTier::T11,
        };
        let err = FedPkd::new(
            scenario,
            vec![bad_spec; 3],
            spec(DepthTier::T56),
            fast_config(),
            0,
        );
        assert!(matches!(err, Err(CoreError::ClassCountMismatch { .. })));
    }

    #[test]
    fn two_rounds_produce_metrics_and_traffic() {
        let mut algo = FedPkd::new(
            tiny_scenario(2),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            7,
        )
        .unwrap();
        let result = crate::driver::Driver::rounds(2).run_silent(&mut algo);
        assert_eq!(result.history.len(), 2);
        assert!(result.last().server_accuracy.is_some());
        assert_eq!(result.last().client_accuracies.len(), 3);
        assert!(!result.ledger.is_empty());
        // Uplink and downlink both happen.
        assert!(
            result
                .ledger
                .direction_bytes(fedpkd_netsim::Direction::Uplink)
                > 0
        );
        assert!(
            result
                .ledger
                .direction_bytes(fedpkd_netsim::Direction::Downlink)
                > 0
        );
    }

    #[test]
    fn learns_above_chance_quickly() {
        let mut algo = FedPkd::new(
            tiny_scenario(3),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            11,
        )
        .unwrap();
        let result = crate::driver::Driver::rounds(3).run_silent(&mut algo);
        let server = result.best_server_accuracy().unwrap();
        let client = result.best_client_accuracy();
        assert!(server > 0.25, "server accuracy {server} vs chance 0.1");
        assert!(client > 0.3, "client accuracy {client} vs chance 0.1");
    }

    #[test]
    fn heterogeneous_client_models_work() {
        let mut algo = FedPkd::new(
            tiny_scenario(4),
            vec![
                spec(DepthTier::T11),
                spec(DepthTier::T20),
                spec(DepthTier::T29),
            ],
            spec(DepthTier::T56),
            fast_config(),
            13,
        )
        .unwrap();
        let result = crate::driver::Driver::rounds(2).run_silent(&mut algo);
        assert!(result.last().server_accuracy.unwrap() > 0.15);
    }

    #[test]
    fn prototypes_populate_after_first_round() {
        let mut algo = FedPkd::new(
            tiny_scenario(5),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            17,
        )
        .unwrap();
        assert!(algo.global_prototypes().iter().all(Option::is_none));
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(Cohort::full(3)),
            &mut ledger,
            &mut NullObserver,
        );
        let present = algo
            .global_prototypes()
            .iter()
            .filter(|p| p.is_some())
            .count();
        assert!(present >= 8, "{present}/10 prototypes after round 0");
    }

    #[test]
    fn filter_reduces_downlink_traffic() {
        // With the filter on, downlink logits cover θ% of the public set; a
        // filtered run must ship fewer downlink bytes than an unfiltered one.
        let run = |use_filter: bool| {
            let cfg = FedPkdConfig {
                use_filter,
                theta: 0.5,
                ..fast_config()
            };
            let mut algo = FedPkd::new(
                tiny_scenario(6),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                cfg,
                19,
            )
            .unwrap();
            crate::driver::Driver::rounds(1)
                .run_silent(&mut algo)
                .ledger
                .direction_bytes(fedpkd_netsim::Direction::Downlink)
        };
        let filtered = run(true);
        let unfiltered = run(false);
        assert!(
            filtered < unfiltered,
            "filtered {filtered} !< unfiltered {unfiltered}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut algo = FedPkd::new(
                tiny_scenario(7),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                fast_config(),
                23,
            )
            .unwrap();
            let result = crate::driver::Driver::rounds(1).run_silent(&mut algo);
            (
                result.last().server_accuracy,
                result.last().client_accuracies.clone(),
                result.ledger.total_bytes(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quantized_knowledge_cuts_traffic_and_still_learns() {
        let run = |quantize: bool| {
            let cfg = FedPkdConfig {
                quantize_knowledge: quantize,
                ..fast_config()
            };
            let mut algo = FedPkd::new(
                tiny_scenario(12),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                cfg,
                31,
            )
            .unwrap();
            crate::driver::Driver::rounds(2).run_silent(&mut algo)
        };
        let full = run(false);
        let quantized = run(true);
        // Logit values shrink 4×; sample-id lists, prototypes, and
        // selection messages are untouched, so the total drops by less.
        assert!(
            (quantized.ledger.total_bytes() as f64) < 0.75 * full.ledger.total_bytes() as f64,
            "8-bit knowledge should cut traffic: {} vs {}",
            quantized.ledger.total_bytes(),
            full.ledger.total_bytes()
        );
        // The lossy channel must not destroy learning.
        let q_acc = quantized.best_server_accuracy().unwrap();
        assert!(q_acc > 0.15, "quantized accuracy {q_acc}");
    }

    #[test]
    fn adaptive_margins_learn_and_still_reach_accuracy() {
        let cfg = FedPkdConfig {
            adaptive_margins: true,
            ..fast_config()
        };
        let mut algo = FedPkd::new(
            tiny_scenario(14),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            cfg,
            43,
        )
        .unwrap();
        let mut log = crate::telemetry::EventLog::new();
        let result = crate::driver::Driver::rounds(3).run(&mut algo, &mut log);
        assert!(result.best_server_accuracy().unwrap() > 0.2);
        // Margin events fire every round with per-class radii that have
        // moved off their initialization.
        let refined: Vec<_> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::MarginRefined {
                    covered, margins, ..
                } => Some((*covered, margins.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(refined.len(), 3);
        let (covered, last_margins) = refined.last().unwrap();
        assert!(*covered >= 8, "{covered}/10 classes covered");
        assert_eq!(last_margins.len(), 10);
        let init = f64::from(FedPkdConfig::default().margin_init);
        assert!(
            last_margins.iter().any(|&m| (m - init).abs() > 1e-3),
            "margins must move off init: {last_margins:?}"
        );
    }

    #[test]
    fn data_free_mode_charges_broadcast_and_learns() {
        let cfg = FedPkdConfig {
            distill_source: DistillSource::Generated,
            ..fast_config()
        };
        let mut algo = FedPkd::new(
            tiny_scenario(15),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            cfg,
            47,
        )
        .unwrap();
        let mut log = crate::telemetry::EventLog::new();
        let result = crate::driver::Driver::rounds(3).run(&mut algo, &mut log);
        // The synthetic-batch broadcast makes generated-mode downlink
        // strictly heavier than the public-mode baseline's.
        let mut baseline = FedPkd::new(
            tiny_scenario(15),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            47,
        )
        .unwrap();
        let public = crate::driver::Driver::rounds(3).run_silent(&mut baseline);
        assert!(
            result
                .ledger
                .direction_bytes(fedpkd_netsim::Direction::Downlink)
                > public
                    .ledger
                    .direction_bytes(fedpkd_netsim::Direction::Downlink)
        );
        // The generator refines every round.
        let refines = log
            .events()
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::GeneratorRefined { .. }))
            .count();
        assert_eq!(refines, 3);
        // Private training still happens on real data, so clients learn
        // even though the distillation rides synthetic samples.
        assert!(result.best_client_accuracy() > 0.25);
    }

    #[test]
    fn data_free_mode_is_deterministic_under_seed() {
        let run = || {
            let cfg = FedPkdConfig {
                distill_source: DistillSource::Generated,
                adaptive_margins: true,
                ..fast_config()
            };
            let mut algo = FedPkd::new(
                tiny_scenario(16),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                cfg,
                53,
            )
            .unwrap();
            let result = crate::driver::Driver::rounds(2).run_silent(&mut algo);
            (
                result.last().server_accuracy,
                result.last().client_accuracies.clone(),
                result.ledger.total_bytes(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn uncovered_generated_classes_are_dropped_and_reported() {
        // Force zero coverage: prototypes on, but prototype uploads are
        // rejected by a zero-tolerance admission policy... simpler: run a
        // generated-mode round where only a narrow Dirichlet slice of
        // classes has data, and check the filter telemetry accounts for
        // every sample of the uncovered classes.
        let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(2)
            .samples(120)
            .public_size(100)
            .global_test_size(60)
            // Shards with 1 class per client: at most 2 of 10 classes are
            // ever covered, so most generated classes have no prototype.
            .partition(Partition::Shards {
                shard_size: 6,
                shards_per_client: 2,
                classes_per_client: 1,
            })
            .seed(21)
            .build()
            .unwrap();
        let cfg = FedPkdConfig {
            distill_source: DistillSource::Generated,
            ..fast_config()
        };
        let mut algo = FedPkd::new(
            scenario,
            vec![spec(DepthTier::T11); 2],
            spec(DepthTier::T20),
            cfg,
            59,
        )
        .unwrap();
        let mut log = crate::telemetry::EventLog::new();
        crate::driver::Driver::rounds(1).run(&mut algo, &mut log);
        let covered = algo
            .global_prototypes()
            .iter()
            .filter(|p| p.is_some())
            .count();
        assert!(covered <= 2, "shards cap coverage at 2, got {covered}");
        let outcome = log
            .events()
            .iter()
            .find_map(|e| match e {
                TelemetryEvent::FilterOutcome {
                    dropped_uncovered,
                    kept_per_class,
                    total_per_class,
                    ..
                } => Some((
                    *dropped_uncovered,
                    kept_per_class.clone(),
                    total_per_class.clone(),
                )),
                _ => None,
            })
            .expect("filter telemetry present");
        let (dropped_uncovered, kept_per_class, total_per_class) = outcome;
        // Every sample whose pseudo-class lacks a prototype was dropped
        // and reported, and no uncovered class contributes kept samples.
        let uncovered_total: usize = (0..10)
            .filter(|&c| algo.global_prototypes()[c].is_none())
            .map(|c| total_per_class[c])
            .sum();
        assert_eq!(dropped_uncovered, uncovered_total);
        assert!(uncovered_total > 0, "some pseudo-labels must be uncovered");
        for (c, &kept) in kept_per_class.iter().enumerate() {
            if algo.global_prototypes()[c].is_none() {
                assert_eq!(kept, 0, "uncovered class {c} kept samples");
            }
        }
    }

    #[test]
    fn dropped_client_contributes_cached_prototypes_within_staleness() {
        let build = || {
            FedPkd::new(
                tiny_scenario(9),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                FedPkdConfig {
                    prototype_staleness: 2,
                    ..fast_config()
                },
                37,
            )
            .unwrap()
        };
        let mut algo = build();
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(Cohort::full(3)),
            &mut ledger,
            &mut NullObserver,
        );
        // Client 2 misses round 1; its round-0 prototypes (age 1 ≤ 2) must
        // still be cached for aggregation.
        let cohort = Cohort::from_causes(vec![None, None, Some(fedpkd_netsim::DropCause::Crash)]);
        algo.run_round(
            1,
            &RoundContext::benign(cohort),
            &mut ledger,
            &mut NullObserver,
        );
        assert!(algo.state.cached_prototypes[2]
            .as_ref()
            .is_some_and(|&(uploaded, _)| uploaded == 0));
        // No round-1 uplink bytes for the dropped client.
        assert_eq!(ledger.round_client_uplinks(1, 3)[2], 0);
        assert!(ledger.round_client_uplinks(1, 3)[0] > 0);
    }

    #[test]
    fn zero_survivor_round_is_a_noop() {
        let mut algo = FedPkd::new(
            tiny_scenario(10),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            41,
        )
        .unwrap();
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(Cohort::full(3)),
            &mut ledger,
            &mut NullObserver,
        );
        let bytes_after_r0 = ledger.total_bytes();
        let protos_before: Vec<bool> = algo
            .global_prototypes()
            .iter()
            .map(Option::is_some)
            .collect();
        let empty = Cohort::from_causes(vec![Some(fedpkd_netsim::DropCause::Dropout); 3]);
        algo.run_round(
            1,
            &RoundContext::benign(empty),
            &mut ledger,
            &mut NullObserver,
        );
        assert_eq!(ledger.total_bytes(), bytes_after_r0, "no traffic charged");
        let protos_after: Vec<bool> = algo
            .global_prototypes()
            .iter()
            .map(Option::is_some)
            .collect();
        assert_eq!(protos_before, protos_after);
    }

    #[test]
    fn ablation_switches_change_traffic_shape() {
        let cfg = FedPkdConfig {
            use_prototypes: false,
            ..fast_config()
        };
        let mut algo = FedPkd::new(
            tiny_scenario(8),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            cfg,
            29,
        )
        .unwrap();
        let no_proto = crate::driver::Driver::rounds(1).run_silent(&mut algo);
        let mut algo_full = FedPkd::new(
            tiny_scenario(8),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            29,
        )
        .unwrap();
        let full = crate::driver::Driver::rounds(1).run_silent(&mut algo_full);
        // Without prototypes no prototype messages are sent.
        assert!(no_proto.ledger.total_bytes() < full.ledger.total_bytes());
    }
}
