//! The layer probe: calls each layer's public functions at a workload's
//! own shapes, from outside the program, with a span around every call.
//!
//! Span names are the per-layer metric stems (`core.train.private`,
//! `tensor.gemm.fwd`, …), so a metric is the total (or per-call mean) of
//! the spans of that name. Micro-calls too short to time one by one run in
//! a loop of a fixed count inside one span.

use std::collections::BTreeMap;
use std::hint::black_box;

use fedpkd_core::admission::AdmissionPolicy;
use fedpkd_core::clients::build_clients;
use fedpkd_core::eval;
use fedpkd_core::fedpkd::distill::train_server;
use fedpkd_core::fedpkd::filter::{
    filter_public, filter_public_opts, filter_public_with_stats, FilterOptions,
};
use fedpkd_core::fedpkd::generator::{self, Generator};
use fedpkd_core::fedpkd::logits::{
    aggregate_logits_from_probs, aggregate_logits_trimmed_from_probs, client_probs, pseudo_labels,
};
use fedpkd_core::fedpkd::margins::{self, MarginBank};
use fedpkd_core::fedpkd::prototypes::{
    aggregate_prototypes, aggregate_prototypes_robust, compute_input_moments, compute_prototypes,
    to_wire_entries, Prototype,
};
use fedpkd_core::fedpkd::DistillSource;
use fedpkd_core::runtime::Federation;
use fedpkd_core::telemetry::{JsonlSink, RoundObserver, TelemetryEvent};
use fedpkd_core::train::{train_distill, train_supervised_with_prototypes};
use fedpkd_data::Dataset;
use fedpkd_netsim::{Message, Wire};
use fedpkd_rng::Rng;
use fedpkd_serve::frame::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};
use fedpkd_serve::protocol::{Codec, Request};
use fedpkd_tensor::loss::{distill_kl_ce, DistillKl, Mse};
use fedpkd_tensor::models::{DepthTier, SHARED_FEATURE_DIM};
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::optim::{Adam, Optimizer};
use fedpkd_tensor::Tensor;

use crate::span::Trace;
use crate::workload::{spec, TrainShape, CLASSES, INPUT_DIM};

/// Probe RNG stream, distinct from every stream the program uses.
const PROBE_STREAM: u64 = 0x7072_6f62;
/// Calls per micro-probe loop.
const MICRO_CALLS: usize = 2_000;
/// Calls per model forward/backward/step probe, per tier.
const MODEL_CALLS: usize = 20;
/// FLOPs each GEMM probe runs per shape and direction.
const GEMM_FLOPS_PER_SHAPE: f64 = 2.0e7;
/// Side of the square GEMM that sets the machine's peak.
const PEAK_SIDE: usize = 512;
const PEAK_CALLS: usize = 4;
/// Encodes/decodes or frame writes/reads per codec probe.
const CODEC_CALLS: usize = 50;

/// `(in, out)` of every Linear layer of a ResMlp tier, head included, in
/// forward order: the stem, two per residual block, the projection to the
/// shared feature space, and the classifier head.
pub fn linear_shapes(tier: DepthTier) -> Vec<(usize, usize)> {
    let w = tier.width();
    let mut shapes = vec![(INPUT_DIM, w)];
    shapes.extend(std::iter::repeat_n((w, w), 2 * tier.blocks()));
    shapes.push((w, SHARED_FEATURE_DIM));
    shapes.push((SHARED_FEATURE_DIM, CLASSES));
    shapes
}

/// FLOPs of one Linear GEMM (forward, input-gradient or weight-gradient
/// are all `2·B·in·out`).
pub fn gemm_flops(batch: usize, (i, o): (usize, usize)) -> f64 {
    2.0 * batch as f64 * i as f64 * o as f64
}

/// Forward FLOPs of a tier's Linear layers for a batch.
#[cfg(test)]
fn forward_flops(tier: DepthTier, batch: usize) -> f64 {
    linear_shapes(tier)
        .into_iter()
        .map(|s| gemm_flops(batch, s))
        .sum()
}

fn tier_of(spec: &fedpkd_tensor::models::ModelSpec) -> DepthTier {
    match spec {
        fedpkd_tensor::models::ModelSpec::ResMlp { tier, .. } => *tier,
        other => panic!("benchmark models are ResMlp, got {other:?}"),
    }
}

/// Every model of a workload's federation by tier: the server once plus
/// each client.
fn workload_tiers(shape: &TrainShape) -> Vec<DepthTier> {
    let mut tiers = vec![DepthTier::T56];
    tiers.extend(shape.client_specs().iter().map(tier_of));
    tiers
}

fn distinct(tiers: &[DepthTier]) -> Vec<DepthTier> {
    let mut out: Vec<DepthTier> = Vec::new();
    for t in tiers {
        if !out.contains(t) {
            out.push(*t);
        }
    }
    out
}

/// Per-layer metric values by name; a metric never set reads 0.
#[derive(Debug, Default)]
pub struct Layer {
    pub values: BTreeMap<String, f64>,
}

impl Layer {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Times `calls` iterations of `f` as one span and returns seconds per call.
fn per_call(
    trace: &mut Trace,
    name: &str,
    parent: usize,
    calls: usize,
    mut f: impl FnMut(),
) -> f64 {
    let id = trace.open(name, Some(parent));
    for _ in 0..calls {
        f();
    }
    trace.close(id);
    trace.spans()[id].duration() / calls as f64
}

/// The best GFLOP/s of the three GEMM calls at a large square shape: the
/// machine's measured peak that the per-shape rows are a fraction of.
pub fn peak_gflops(trace: &mut Trace, parent: usize) -> f64 {
    let mut rng = Rng::stream(2, PROBE_STREAM);
    let n = PEAK_SIDE;
    let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
    let bm = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
    let bias = Tensor::rand_uniform(&[n], -1.0, 1.0, &mut rng);
    let f = gemm_flops(n, (n, n));
    let mut best = 0.0f64;
    for _ in 0..PEAK_CALLS {
        let calls: [&dyn Fn() -> Tensor; 3] = [
            &|| a.matmul_bias(&bm, &bias, false).expect("square"),
            &|| a.matmul_transposed(&bm).expect("square"),
            &|| a.tr_matmul(&bm).expect("square"),
        ];
        for call in calls {
            let s = per_call(trace, "tensor.gemm.peak", parent, 1, || {
                black_box(call());
            });
            best = best.max(f / s / 1e9);
        }
    }
    best
}

/// GEMM throughput at the workload's Linear shapes (each weighted by how
/// many layers of the federation have it) and at the peak square shape.
pub fn gemm(
    trace: &mut Trace,
    parent: usize,
    tiers: &[DepthTier],
    batch: usize,
    peak: f64,
    out: &mut Layer,
) {
    let mut rng = Rng::stream(0, PROBE_STREAM);
    let mut weights: Vec<((usize, usize), f64)> = Vec::new();
    for &t in tiers {
        for s in linear_shapes(t) {
            match weights.iter_mut().find(|(shape, _)| *shape == s) {
                Some((_, w)) => *w += 1.0,
                None => weights.push((s, 1.0)),
            }
        }
    }
    let (mut flops, mut secs) = ([0.0f64; 3], [0.0f64; 3]);
    for &((i, o), weight) in &weights {
        let x = Tensor::rand_uniform(&[batch, i], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[i, o], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng);
        let g = Tensor::rand_uniform(&[batch, o], -1.0, 1.0, &mut rng);
        let f = gemm_flops(batch, (i, o));
        let calls = ((GEMM_FLOPS_PER_SHAPE / f).ceil() as usize).max(1);
        let s = [
            per_call(trace, "tensor.gemm.fwd", parent, calls, || {
                black_box(x.matmul_bias(&w, &b, false).expect("fwd shapes"));
            }),
            per_call(trace, "tensor.gemm.dx", parent, calls, || {
                black_box(g.matmul_transposed(&w).expect("dx shapes"));
            }),
            per_call(trace, "tensor.gemm.dw", parent, calls, || {
                black_box(x.tr_matmul(&g).expect("dw shapes"));
            }),
        ];
        for d in 0..3 {
            flops[d] += weight * f;
            secs[d] += weight * s[d];
        }
    }
    let names = [
        ("tensor.gemm.fwd_gflops", "tensor.gemm.fwd_peak_frac"),
        ("tensor.gemm.dx_gflops", "tensor.gemm.dx_peak_frac"),
        ("tensor.gemm.dw_gflops", "tensor.gemm.dw_peak_frac"),
    ];
    for (d, (gflops_name, frac_name)) in names.into_iter().enumerate() {
        let gflops = flops[d] / secs[d] / 1e9;
        out.set(gflops_name, gflops);
        out.set(frac_name, gflops / peak);
    }
}

/// Model forward/backward, the fused and plain losses, and the Adam step,
/// each per call and summed over the workload's distinct tiers.
fn model_and_loss(
    trace: &mut Trace,
    parent: usize,
    tiers: &[DepthTier],
    shape: &TrainShape,
    inputs: &Tensor,
    out: &mut Layer,
) {
    let batch = shape.config.batch_size;
    let mut rng = Rng::stream(1, PROBE_STREAM);
    let x = inputs
        .select_rows(&(0..batch).collect::<Vec<_>>())
        .expect("the transfer set holds a batch");
    let (mut fwd, mut bwd, mut step) = (0.0, 0.0, 0.0);
    for &tier in tiers {
        let mut model = spec(tier).build(&mut rng);
        let mut adam = Adam::new(shape.config.learning_rate);
        let lg = Tensor::rand_uniform(&[batch, CLASSES], -0.1, 0.1, &mut rng);
        let fg = Tensor::rand_uniform(&[batch, SHARED_FEATURE_DIM], -0.1, 0.1, &mut rng);
        // One untimed pass allocates the optimizer moments.
        model.forward_full(&x, true);
        model.backward_dual(&lg, Some(&fg));
        adam.step(&mut model);
        fwd += per_call(trace, "tensor.model.fwd", parent, MODEL_CALLS, || {
            black_box(model.forward_full(&x, true));
        });
        bwd += per_call(trace, "tensor.model.bwd", parent, MODEL_CALLS, || {
            model.forward_full(&x, true);
            black_box(model.backward_dual(&lg, Some(&fg)));
        });
        step += per_call(trace, "tensor.adam.step", parent, MODEL_CALLS, || {
            adam.step(&mut model);
        });
    }
    // The backward probe re-runs the forward it needs; charge only the
    // backward.
    out.set("tensor.model.fwd_s", fwd);
    out.set("tensor.model.bwd_s", (bwd - fwd).max(0.0));
    out.set("tensor.adam.step_s", step);

    let logits = Tensor::rand_uniform(&[batch, CLASSES], -3.0, 3.0, &mut rng);
    let teacher = softmax(
        &Tensor::rand_uniform(&[batch, CLASSES], -3.0, 3.0, &mut rng),
        1.0,
    );
    let labels: Vec<usize> = (0..batch).map(|i| i % CLASSES).collect();
    let kl = DistillKl::new(shape.config.temperature);
    let s = per_call(trace, "tensor.loss.kl_ce", parent, MICRO_CALLS, || {
        black_box(distill_kl_ce(&kl, &logits, &teacher, &labels));
    });
    out.set("tensor.loss.kl_ce_s", s);
    let pred = Tensor::rand_uniform(&[batch, SHARED_FEATURE_DIM], -1.0, 1.0, &mut rng);
    let target = Tensor::rand_uniform(&[batch, SHARED_FEATURE_DIM], -1.0, 1.0, &mut rng);
    let mse = Mse::new();
    let s = per_call(trace, "tensor.loss.mse", parent, MICRO_CALLS, || {
        black_box(mse.loss_and_grad(&pred, &target));
    });
    out.set("tensor.loss.mse_s", s);
}

/// Times `f` as one span and returns its value and seconds.
fn timed<T>(trace: &mut Trace, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let id = trace.open(name, Some(parent));
    let value = f();
    trace.close(id);
    (value, trace.spans()[id].duration())
}

/// Probe seconds that map onto each of the program's phases for one
/// round's worth of work, keyed by phase name; `"outside"` holds work the
/// program runs outside every phase window.
#[derive(Debug, Default)]
pub struct PhaseProbe {
    pub by_phase: BTreeMap<&'static str, f64>,
    /// Σ per-client seconds of the client-training work.
    pub client_seconds: f64,
}

impl PhaseProbe {
    fn add(&mut self, phase: &'static str, seconds: f64) {
        *self.by_phase.entry(phase).or_insert(0.0) += seconds;
    }
}

/// Runs one round's worth of every FedPKD layer call at the workload's
/// shapes and seed, on freshly built models, in the program's order.
/// `observed` says whether the untraced run's observer is enabled; it
/// selects the filter path that run takes.
pub fn training(
    trace: &mut Trace,
    parent: usize,
    shape: &TrainShape,
    seed: u64,
    observed: bool,
    out: &mut Layer,
) -> PhaseProbe {
    let cfg = &shape.config;
    let scenario = shape.scenario(seed);
    let public_len = scenario.public.len();
    let generated = cfg.distill_source == DistillSource::Generated;
    let mut rng = Rng::stream(seed, PROBE_STREAM);
    let tiers = workload_tiers(shape);

    let tensor = trace.open("probe.tensor", Some(parent));
    let peak = peak_gflops(trace, tensor);
    out.set("tensor.gemm.peak_gflops", peak);
    gemm(trace, tensor, &tiers, cfg.batch_size, peak, out);
    model_and_loss(
        trace,
        tensor,
        &distinct(&tiers),
        shape,
        scenario.public.features(),
        out,
    );
    trace.close(tensor);

    let core = trace.open("probe.core", Some(parent));
    let mut phase = PhaseProbe::default();

    // The data-free transfer set: the generator's batch replaces the public
    // set, as in the program's round.
    let mut gen = Generator::new(cfg.generator_latent_dim, CLASSES, INPUT_DIM, &mut rng);
    let mut gen_opt = Adam::new(cfg.generator_lr);
    let ((latents, labels, synth), synth_s) = timed(trace, "core.generator.synth", core, || {
        let (latents, labels) = gen.draw_batch(public_len, &mut rng);
        let features = gen.synthesize(&latents, &labels);
        (latents, labels, features)
    });
    out.set("core.generator.synth_s", synth_s);
    let transfer = if generated {
        Dataset::new(synth, labels.clone(), CLASSES).expect("in-range generator labels")
    } else {
        scenario.public.clone()
    };

    // Client training and the dual uplink (Eqs. 5 and 16).
    let mut clients = build_clients(&shape.client_specs(), cfg.learning_rate, seed);
    let initial: Vec<Vec<Option<Prototype>>> = clients
        .iter_mut()
        .zip(&scenario.clients)
        .map(|(c, d)| compute_prototypes(&mut c.model, &d.train))
        .collect();
    let pull = aggregate_prototypes(&initial).expect("clients hold classes");
    let policy = AdmissionPolicy::default();
    let (mut logits, mut protos, mut moments) = (Vec::new(), Vec::new(), Vec::new());
    let (mut train_s, mut proto_s, mut check_s) = (0.0, 0.0, 0.0);
    for (c, data) in clients.iter_mut().zip(&scenario.clients) {
        let (_, s_train) = timed(trace, "core.train.private", core, || {
            train_supervised_with_prototypes(
                &mut c.model,
                &data.train,
                &pull,
                cfg.epsilon,
                cfg.client_private_epochs,
                cfg.batch_size,
                &mut c.optimizer,
                &mut c.rng,
            )
        });
        let (l, s_logits) = timed(trace, "core.eval.logits", core, || {
            eval::logits_on(&mut c.model, &transfer)
        });
        let (p, s_proto) = timed(trace, "core.proto.compute", core, || {
            compute_prototypes(&mut c.model, &data.train)
        });
        let (m, s_moments) = timed(trace, "core.proto.moments", core, || {
            compute_input_moments(&data.train)
        });
        let (_, s_check) = timed(trace, "core.admission.check", core, || {
            let logits_ok = policy.check_logits(&l, public_len, CLASSES);
            let protos_ok = policy.check_prototypes(&p, CLASSES, SHARED_FEATURE_DIM);
            black_box((logits_ok, protos_ok))
        });
        train_s += s_train;
        proto_s += s_proto;
        check_s += s_check;
        let moments_s = if generated { s_moments } else { 0.0 };
        phase.client_seconds += s_train + s_logits + s_proto + moments_s + s_check;
        logits.push(l);
        protos.push(p);
        moments.push(m);
    }
    out.set("core.train.private_s", train_s);
    out.set("core.proto.compute_s", proto_s);
    out.set("core.admission.check_s", check_s);
    phase.add("client_training", phase.client_seconds);

    // Aggregation (Eqs. 6–8, trimmed under robust aggregation), then the
    // adaptive-margin bank.
    let trim = cfg.robust.trim_fraction();
    let (aggregated, s_logits) = timed(trace, "core.logits.aggregate", core, || {
        let probs = client_probs(&logits);
        match trim {
            Some(t) => aggregate_logits_trimmed_from_probs(&probs, t),
            None => aggregate_logits_from_probs(&probs, cfg.variance_weighting),
        }
        .expect("aligned uploads")
    });
    let (means, s_protos) = timed(trace, "core.proto.aggregate", core, || {
        match trim {
            Some(t) => aggregate_prototypes_robust(&protos, t).map(|(g, _)| g),
            None => aggregate_prototypes(&protos),
        }
        .expect("clients hold classes")
    });
    out.set("core.logits.aggregate_s", s_logits);
    out.set("core.proto.aggregate_s", s_protos);
    let mut bank = MarginBank::new(CLASSES, SHARED_FEATURE_DIM, cfg.margin_init);
    let mut bank_opt = Adam::new(cfg.margin_lr);
    let (_, s_margins) = timed(trace, "core.margins.refine", core, || {
        margins::refine(&mut bank, &mut bank_opt, &means, cfg.margin_epochs)
    });
    out.set("core.margins.refine_s", s_margins);
    let globals = if cfg.adaptive_margins {
        bank.globals()
    } else {
        means
    };
    let margin_s = if cfg.adaptive_margins { s_margins } else { 0.0 };
    phase.add("aggregation", s_logits + s_protos + margin_s);

    // Filter (Eqs. 9–10, Algorithm 1).
    let mut server_rng = Rng::stream(seed, 0);
    let mut server = spec(DepthTier::T56).build(&mut server_rng);
    let pseudo = pseudo_labels(&aggregated);
    let (features, s_features) = timed(trace, "core.eval.features", core, || {
        eval::features_on(&mut server, &transfer)
    });
    let radii = cfg.adaptive_margins.then(|| bank.filter_margins());
    // The program's three filter paths: options (margins or a generated
    // transfer set), statistics (an enabled observer), plain.
    let (selected, s_filter) = timed(trace, "core.filter", core, || {
        if radii.is_some() || generated {
            let options = FilterOptions {
                margins: radii.as_deref(),
                drop_uncovered: generated,
            };
            filter_public_opts(&features, &pseudo, &globals, cfg.theta, options).0
        } else if observed {
            filter_public_with_stats(&features, &pseudo, &globals, cfg.theta).0
        } else {
            filter_public(&features, &pseudo, &globals, cfg.theta)
        }
    });
    out.set("core.filter.rows_per_s", public_len as f64 / s_filter);
    phase.add("filter", s_features + s_filter);

    // Generator refinement against the ensemble; the program runs it
    // outside every phase window.
    let class_moments = aggregate_prototypes(&moments).expect("clients hold classes");
    let (_, s_refine) = timed(trace, "core.generator.refine", core, || {
        generator::refine(
            &mut gen,
            &mut gen_opt,
            &mut server,
            &latents,
            &labels,
            Some(&aggregated),
            &globals,
            &class_moments,
            cfg.temperature,
            cfg.generator_epochs,
        )
    });
    out.set("core.generator.refine_s", s_refine);
    if generated {
        phase.add("outside", synth_s + s_refine);
    }

    // Server distillation (Eqs. 11–13) on the kept subset.
    let selected = if selected.is_empty() {
        (0..public_len).collect()
    } else {
        selected
    };
    let subset = transfer
        .features()
        .select_rows(&selected)
        .expect("filter indices are in range");
    let teacher = aggregated
        .select_rows(&selected)
        .expect("filter indices are in range");
    let subset_pseudo: Vec<usize> = selected.iter().map(|&i| pseudo[i]).collect();
    let mut server_opt = Adam::new(cfg.learning_rate);
    let (_, s_server) = timed(trace, "core.distill.server", core, || {
        train_server(
            &mut server,
            &subset,
            &teacher,
            &subset_pseudo,
            &globals,
            cfg.delta,
            cfg.temperature,
            cfg.server_epochs,
            cfg.batch_size,
            &mut server_opt,
            &mut server_rng,
        )
    });
    out.set("core.distill.server_s", s_server);
    out.set(
        "core.distill.samples_per_s",
        (selected.len() * cfg.server_epochs) as f64 / s_server,
    );
    phase.add("server_distill", s_server);

    // Downlink logits and client distillation (Eqs. 14–15).
    let subset_ds = transfer.subset(&selected);
    let (server_probs, s_down) = timed(trace, "core.eval.logits", core, || {
        softmax(&eval::logits_on(&mut server, &subset_ds), cfg.temperature)
    });
    let mut distill_s = 0.0;
    for c in clients.iter_mut() {
        let (_, s) = timed(trace, "core.train.distill", core, || {
            train_distill(
                &mut c.model,
                &subset,
                &server_probs,
                cfg.gamma,
                cfg.temperature,
                cfg.client_public_epochs,
                cfg.batch_size,
                &mut c.optimizer,
                &mut c.rng,
            )
        });
        distill_s += s;
    }
    out.set("core.train.distill_s", distill_s);
    phase.add("client_distill", s_down + distill_s);

    // Evaluation: the server on the global test set, each client locally.
    let (_, s_eval) = timed(trace, "core.eval", core, || {
        let mut acc = eval::accuracy(&mut server, &scenario.global_test);
        for (c, d) in clients.iter_mut().zip(&scenario.clients) {
            acc += eval::accuracy(&mut c.model, &d.test);
        }
        black_box(acc)
    });
    out.set("core.eval.s", s_eval);
    phase.add("evaluation", s_eval);

    // One client's dual upload through the wire and frame codecs.
    let first_logits = logits.first().expect("at least one client");
    let messages = [
        Message::Logits {
            sample_ids: (0..public_len as u32).collect(),
            num_classes: CLASSES as u32,
            values: first_logits.as_slice().to_vec(),
        },
        Message::Prototypes {
            entries: to_wire_entries(&protos[0]),
        },
    ];
    codecs(trace, core, &messages, out);
    trace.close(core);
    phase
}

/// Wire encode/decode throughput over `messages`, and frame write/read
/// time for an upload request carrying the first of them.
pub fn codecs(trace: &mut Trace, parent: usize, messages: &[Message], out: &mut Layer) {
    let encoded: Vec<Vec<u8>> = messages.iter().map(Wire::to_bytes).collect();
    let mb = fedpkd_netsim::bytes_to_mb(encoded.iter().map(Vec::len).sum());
    let s = per_call(trace, "netsim.wire.encode", parent, CODEC_CALLS, || {
        for m in messages {
            black_box(m.to_bytes());
        }
    });
    out.set("netsim.wire.encode_mb_per_s", mb / s);
    let s = per_call(trace, "netsim.wire.decode", parent, CODEC_CALLS, || {
        for bytes in &encoded {
            black_box(Message::decode(&mut bytes.as_slice()).expect("own encoding decodes"));
        }
    });
    out.set("netsim.wire.decode_mb_per_s", mb / s);

    let upload = Request::Upload {
        round: 0,
        client: 0,
        codec: Codec::Raw,
        payload: encoded[0].clone(),
    };
    let body = upload.to_bytes();
    let mut framed = Vec::new();
    write_frame(&mut framed, upload.kind(), &body).expect("memory write");
    let s = per_call(trace, "serve.frame.write", parent, CODEC_CALLS, || {
        let mut buf = Vec::with_capacity(framed.len());
        write_frame(&mut buf, upload.kind(), &body).expect("memory write");
        black_box(buf);
    });
    out.set("serve.frame.write_s", s);
    let s = per_call(trace, "serve.frame.read", parent, CODEC_CALLS, || {
        black_box(read_frame(&mut framed.as_slice(), DEFAULT_MAX_PAYLOAD).expect("own frame"));
    });
    out.set("serve.frame.read_s", s);
}

/// Replays an event stream through a `JsonlSink` over memory.
pub fn telemetry(trace: &mut Trace, parent: usize, events: &[TelemetryEvent], out: &mut Layer) {
    const PASSES: usize = 10;
    let mut bytes = 0;
    let s = per_call(trace, "core.telemetry.jsonl", parent, PASSES, || {
        let mut sink = JsonlSink::new(Vec::new());
        for e in events {
            sink.record(e);
        }
        bytes = sink.into_inner().expect("memory sink cannot fail").len();
    });
    out.set("core.telemetry.jsonl_s", s);
    out.set("telemetry.jsonl_mb", fedpkd_netsim::bytes_to_mb(bytes));
}

/// Streams `algo`'s state out and back into `fresh`, timing both; returns
/// a problem when the restored state does not re-encode to the same bytes.
pub fn snapshot<F: Federation>(
    trace: &mut Trace,
    parent: usize,
    algo: &F,
    mut fresh: F,
    out: &mut Layer,
) -> Option<String> {
    let mut bytes = Vec::new();
    let (written, s) = timed(trace, "core.snapshot.write", parent, || {
        algo.snapshot_to(&mut bytes)
    });
    out.set("core.snapshot.write_s", s);
    out.set("core.snapshot.mb", fedpkd_netsim::bytes_to_mb(bytes.len()));
    let (restored, s) = timed(trace, "core.snapshot.restore", parent, || {
        fresh.restore_from(&mut bytes.as_slice())
    });
    out.set("core.snapshot.restore_s", s);
    if let Err(e) = written.and(restored) {
        return Some(format!("snapshot round trip failed: {e}"));
    }
    let mut again = Vec::new();
    match fresh.snapshot_to(&mut again) {
        Ok(()) if again == bytes => None,
        _ => Some("restored state does not re-encode to the same snapshot".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_tensor::nn::Layer as _;

    #[test]
    fn linear_flops_match_hand_counts() {
        // Per-sample multiply-adds, by hand, input 32, 10 classes, feature
        // width 64:
        // T11 (w 48, 2 blocks): 32·48 + 4·48² + 48·64 + 64·10 = 14 464
        // T20 (w 64, 3 blocks): 32·64 + 6·64² + 64·64 + 640  = 31 360
        // T29 (w 80, 5 blocks): 32·80 + 10·80² + 80·64 + 640 = 72 320
        // T56 (w 128, 9 blocks): 32·128 + 18·128² + 128·64 + 640 = 307 840
        let hand = [
            (DepthTier::T11, 14_464.0),
            (DepthTier::T20, 31_360.0),
            (DepthTier::T29, 72_320.0),
            (DepthTier::T56, 307_840.0),
        ];
        for (tier, macs) in hand {
            assert_eq!(forward_flops(tier, 1), 2.0 * macs, "{tier}");
            assert_eq!(forward_flops(tier, 32), 64.0 * macs, "{tier}");
        }
    }

    #[test]
    fn linear_shapes_match_the_built_models() {
        // Parameters = Σ (in·out + out) over Linear layers plus BatchNorm's
        // scale and shift (2·width) in every block and after the last.
        for tier in [
            DepthTier::T11,
            DepthTier::T20,
            DepthTier::T29,
            DepthTier::T56,
        ] {
            let model = spec(tier).build(&mut Rng::seed_from_u64(1));
            let linear: usize = linear_shapes(tier).iter().map(|(i, o)| i * o + o).sum();
            let norm = 2 * tier.width() * (tier.blocks() + 1);
            assert_eq!(model.param_count(), linear + norm, "{tier}");
        }
    }
}
