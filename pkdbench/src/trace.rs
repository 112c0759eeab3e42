//! The traced run: attributes a workload's time to layers using only the
//! benchmark's own code.
//!
//! It runs the workload once untraced and once under [`SpanObserver`],
//! which timestamps the program's existing `RoundObserver` events, then
//! runs the layer probe at the workload's shapes. Every per-layer metric
//! comes from these spans and counts; a metric of a layer the workload does
//! not exercise reads 0 (see the README's table).

use std::path::Path;

use fedpkd_core::fleet::FleetSim;
use fedpkd_core::remote::RemoteFederation;
use fedpkd_core::telemetry::{NullObserver, RoundObserver};
use fedpkd_netsim::bytes_to_mb;

use crate::metrics::{Decl, Metrics};
use crate::probe::{self, Layer};
use crate::serve::{self, Kind};
use crate::span::{EventCounts, SpanObserver, Trace, PHASES};
use crate::stats;
use crate::sys::{self, Env};
use crate::workload::{self, Workload};
use crate::Outcome;

/// Untraced and traced sessions of the serving workload per traced run.
const SERVE_SESSIONS: usize = 3;

pub fn run(w: Workload, seed: u64, out_dir: &Path, env: &Env, declared: &[Decl]) -> Outcome {
    let mut trace = Trace::new(seed);
    let mut layer = Layer::default();
    let (mut problems, attempted, failed) = match w {
        Workload::ServeUds => serving(seed, out_dir, env, &mut trace, &mut layer),
        w => training(w, seed, out_dir, env, &mut trace, &mut layer),
    };
    // Every value measured must be declared; a declared metric the
    // workload does not exercise reads 0.
    for name in layer.values.keys() {
        if !declared.iter().any(|d| d.name == *name) {
            problems.push(format!(
                "measured {name}, which BENCHMARK.json does not declare"
            ));
        }
    }
    let path = out_dir.join(format!("{}-seed{seed}-trace.json", w.name()));
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"env\": {}, \"spans\": {}}}\n",
        w.name(),
        env.to_json(),
        trace.to_json()
    );
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("pkdbench: cannot write {}: {e}", path.display());
    }
    let mut metrics = Metrics::default();
    for d in declared {
        metrics.set(&d.name, &d.unit, layer.get(&d.name));
    }
    Outcome::new(metrics, attempted, failed, problems)
}

/// Phase totals, round self time, and the counts every workload's event
/// stream carries.
fn stream_metrics(trace: &Trace, counts: &EventCounts, per: f64, layer: &mut Layer) {
    for p in PHASES {
        let total = trace.total(&format!("phase.{}", p.name()));
        layer.set(&format!("phase.{}_s", p.name()), total / per);
    }
    let unattributed: f64 = trace
        .spans()
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| trace.self_time(s.id))
        .sum();
    layer.set("round.unattributed_s", unattributed / per);
    layer.set("ledger.uplink_mb", bytes_to_mb(counts.uplink_bytes) / per);
    layer.set(
        "ledger.downlink_mb",
        bytes_to_mb(counts.downlink_bytes) / per,
    );
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    layer.set(
        "filter.keep_frac",
        ratio(counts.filter_kept, counts.filter_scored),
    );
    layer.set(
        "admission.reject_frac",
        ratio(counts.rejected, counts.uploads),
    );
    layer.set(
        "robust.proto_outlier_frac",
        ratio(counts.proto_outliers, counts.proto_contributions),
    );
}

fn training(
    w: Workload,
    seed: u64,
    out_dir: &Path,
    env: &Env,
    trace: &mut Trace,
    layer: &mut Layer,
) -> (Vec<String>, usize, usize) {
    let shape = w.train().expect("a training workload");
    let mut problems = Vec::new();

    let cpu_before = sys::cpu_seconds();
    let u = workload::untraced_rep(w, &shape, seed, out_dir, false);
    let cpu = sys::cpu_seconds() - cpu_before;
    let (untraced, untraced_counts) = (u.rep, u.counts);
    problems.extend(u.sink_error);
    layer.set(
        "parallel.core_util",
        cpu / (untraced.run_s * env.nproc as f64),
    );

    let run_span = trace.open("run", None);
    let mut sink = w
        .has_sink()
        .then(|| workload::jsonl_sink(out_dir, &format!("{}-traced", w.name())));
    let mut obs = SpanObserver::new(
        trace,
        Some(run_span),
        sink.as_mut().map(|s| s as &mut dyn RoundObserver),
    );
    let traced = workload::run_rep(&shape, seed, &mut obs);
    let counts = obs.counts.clone();
    let events = std::mem::take(&mut obs.events);
    drop(obs);
    trace.close(run_span);
    if let Some(Err(e)) = sink.map(fedpkd_core::telemetry::JsonlSink::into_inner) {
        problems.push(format!("telemetry sink failed: {e}"));
    }
    if workload::fingerprint(&traced.result, shape.rounds)
        != workload::fingerprint(&untraced.result, shape.rounds)
    {
        problems.push("the traced run's outputs differ from the untraced run's".into());
    }
    problems.extend(workload::sanity(&shape, &traced.result));
    problems.extend(workload::check_recorded(
        w,
        seed,
        &workload::fingerprint(&untraced.result, shape.rounds),
    ));
    layer.set("trace.overhead_frac", traced.run_s / untraced.run_s - 1.0);
    layer.set(
        "core.eval.server_acc",
        traced.result.best_server_accuracy().unwrap_or(0.0),
    );
    layer.set(
        "core.eval.client_acc",
        traced.result.last().mean_client_accuracy(),
    );
    stream_metrics(trace, &counts, 1.0, layer);

    let probe_span = trace.open("probe", None);
    let phase_probe = probe::training(trace, probe_span, &shape, seed, w.has_sink(), layer);
    probe::telemetry(trace, probe_span, &events, layer);
    if let Some(p) = probe::snapshot(trace, probe_span, &traced.algo, shape.build(seed), layer) {
        problems.push(p);
    }
    trace.close(probe_span);

    // Coverage compares one round's probe seconds with the mean traced
    // seconds per round of the same phase.
    let rounds = shape.rounds as f64;
    for p in PHASES {
        let per_round = trace.total(&format!("phase.{}", p.name())) / rounds;
        let probed = phase_probe.by_phase.get(p.name()).copied().unwrap_or(0.0);
        layer.set(&format!("trace.coverage.{}", p.name()), probed / per_round);
    }
    let client_phase = trace.total("phase.client_training") / rounds;
    layer.set(
        "core.clients.parallel_speedup",
        phase_probe.client_seconds / client_phase,
    );
    if let Some(outside) = phase_probe.by_phase.get("outside") {
        eprintln!(
            "pkdbench: generator work outside every phase window: {:.3} s per round probed, {:.3} s per round unattributed",
            outside,
            layer.get("round.unattributed_s") / rounds
        );
    }
    let attempted = untraced_counts.attempted() + counts.attempted();
    let failed = untraced_counts.failed() + counts.failed();
    (problems, attempted, failed)
}

fn serving(
    seed: u64,
    out_dir: &Path,
    env: &Env,
    trace: &mut Trace,
    layer: &mut Layer,
) -> (Vec<String>, usize, usize) {
    let expected = serve::reference(seed);
    let mut problems = Vec::new();
    let (mut attempted, mut failed, mut refused, mut exchanges) = (0, 0, 0, 0);

    let mut untraced = Vec::new();
    let cpu_before = sys::cpu_seconds();
    let wall = std::time::Instant::now();
    for _ in 0..SERVE_SESSIONS {
        untraced.push(serve::session(out_dir, seed, &expected, &mut NullObserver));
    }
    let cpu = sys::cpu_seconds() - cpu_before;
    layer.set(
        "parallel.core_util",
        cpu / (wall.elapsed().as_secs_f64() * env.nproc as f64),
    );

    let mut traced = Vec::new();
    let mut events = Vec::new();
    let mut obs = SpanObserver::new(trace, None, None);
    for _ in 0..SERVE_SESSIONS {
        let session_span = obs.trace.open("serve.session", None);
        obs.parent = Some(session_span);
        let epoch = obs.trace.now();
        let s = serve::session(out_dir, seed, &expected, &mut obs);
        for e in &s.exchanges {
            let name = match e.kind {
                Kind::Hello => "serve.exchange.hello",
                Kind::Upload => "serve.exchange.upload",
            };
            let start = epoch + e.start;
            obs.trace
                .push(name, Some(session_span), start, start + e.seconds);
        }
        obs.trace.close(session_span);
        traced.push(s);
        // The telemetry probe replays one session's stream, matching the
        // per-session stream metrics.
        let session_events = std::mem::take(&mut obs.events);
        if events.is_empty() {
            events = session_events;
        }
    }
    let counts = obs.counts.clone();
    drop(obs);
    for s in untraced.iter().chain(&traced) {
        attempted += s.attempted();
        failed += s.failed();
        refused += s.refused;
        exchanges += s.exchanges.len();
        problems.extend(s.problems.iter().cloned());
    }

    layer.set(
        "core.eval.server_acc",
        traced.last().map_or(0.0, |s| s.best_server_acc),
    );
    let run_s =
        |v: &[serve::Session]| stats::median(&v.iter().map(|s| s.run_s).collect::<Vec<_>>());
    layer.set(
        "trace.overhead_frac",
        run_s(&traced) / run_s(&untraced) - 1.0,
    );
    stream_metrics(trace, &counts, SERVE_SESSIONS as f64, layer);
    let ms = |kind: Option<Kind>| -> Vec<f64> {
        untraced
            .iter()
            .flat_map(|s| &s.exchanges)
            .filter(|e| kind.is_none_or(|k| e.kind == k))
            .map(|e| e.seconds * 1e3)
            .collect()
    };
    layer.set(
        "serve.exchange.hello_ms",
        stats::median(&ms(Some(Kind::Hello))),
    );
    layer.set(
        "serve.exchange.upload_ms",
        stats::median(&ms(Some(Kind::Upload))),
    );
    let all = ms(None);
    layer.set("serve.exchange.p50_ms", stats::median(&all));
    if let Some(tail) = stats::tail(&all) {
        layer.set("serve.exchange.tail_ms", tail.value);
        layer.set("serve.exchange.tail_pct", tail.percentile);
        layer.set("serve.exchange.samples", tail.samples as f64);
    }
    layer.set(
        "serve.refused_frac",
        if exchanges == 0 {
            0.0
        } else {
            refused as f64 / exchanges as f64
        },
    );

    let probe_span = trace.open("probe", None);
    let tensor = trace.open("probe.tensor", Some(probe_span));
    let peak = probe::peak_gflops(trace, tensor);
    layer.set("tensor.gemm.peak_gflops", peak);
    trace.close(tensor);
    let core = trace.open("probe.core", Some(probe_span));
    let replica = FleetSim::new(serve::CONNS, serve::CLASSES, serve::DIMS, seed);
    probe::codecs(trace, core, &[replica.client_payload(0, 0)], layer);
    probe::telemetry(trace, core, &events, layer);
    let last = traced.last().expect("at least one session");
    let fresh = FleetSim::new(serve::CONNS, serve::CLASSES, serve::DIMS, seed);
    if let Some(p) = probe::snapshot(trace, core, &last.fleet, fresh, layer) {
        problems.push(p);
    }
    trace.close(core);
    trace.close(probe_span);
    (problems, attempted, failed)
}
