//! Gates that need the quick (Fig. 7) scale: the fast kernel tier's speed
//! floors and the paper-level accuracy claims. They take about 90 s on 2 vCPUs
//! and the speed floors need a quiet machine, so every test is `#[ignore]`;
//! run them by hand in release:
//!
//! ```sh
//! cargo test --release -p fedpkd-bench --test paper_gates -- --ignored
//! ```
//!
//! Every test holds [`common::serial`]: kernel tiers are process-global
//! and timings must not overlap.

mod common;

use common::{bits, robust_scale, serial, RobustKernels, SEED};
use fedpkd_bench::{run_method, run_method_observed, Method, Scale, Setting, Task};
use fedpkd_core::fedpkd::{DistillSource, FedPkdConfig};
use fedpkd_core::runtime::RunResult;
use fedpkd_core::telemetry::{EventLog, Phase, TelemetryEvent};
use fedpkd_tensor::KernelMode;
use std::time::Instant;

/// Repetitions per kernel tier; a speed figure is the minimum across them.
const REPS: usize = 2;

/// The Fig. 7 FedPKD run under `mode`, with its client-training seconds.
fn client_training(mode: KernelMode, scale: &Scale) -> (RunResult, f64) {
    let _tier = mode.scoped();
    let mut log = EventLog::new();
    let result = run_method_observed(
        Method::FedPkd,
        scale,
        Task::C10,
        Setting::DirHigh,
        true,
        SEED,
        &mut log,
    );
    let seconds = log
        .events()
        .iter()
        .filter_map(|event| match event {
            TelemetryEvent::PhaseTiming {
                phase: Phase::ClientTraining,
                seconds,
                ..
            } => Some(*seconds),
            _ => None,
        })
        .sum();
    (result, seconds)
}

/// [`client_training`] `REPS` times: the first result and the fastest time.
fn best_client_training(mode: KernelMode, scale: &Scale) -> (RunResult, f64) {
    let (first, mut best) = client_training(mode, scale);
    for rep in 1..REPS {
        let (result, seconds) = client_training(mode, scale);
        assert!(
            result == first,
            "{mode:?} repetition {rep} diverged from the first"
        );
        best = best.min(seconds);
    }
    (first, best)
}

#[test]
#[ignore = "minutes of CPU; run by hand on a quiet machine"]
fn fast_tier_trains_clients_at_least_2x_faster() {
    let _serial = serial();
    let scale = Scale::quick();
    let (scalar, scalar_s) = best_client_training(KernelMode::Scalar, &scale);
    let (fast, fast_s) = best_client_training(KernelMode::Fast, &scale);
    assert!(scalar == fast, "kernel tiers diverged on the Fig. 7 run");
    let speedup = scalar_s / fast_s;
    eprintln!("client training: scalar {scalar_s:.3}s, fast {fast_s:.3}s ({speedup:.2}x)");
    assert!(
        speedup >= 2.0,
        "client-training speedup {speedup:.2} below the 2.0x floor"
    );
}

#[test]
#[ignore = "minutes of CPU; run by hand on a quiet machine"]
fn fast_tier_robust_kernels_are_at_least_1_3x_faster() {
    const ITERS: usize = 10;
    let _serial = serial();
    let inputs = RobustKernels::new(2_400);
    let time = |mode: KernelMode| {
        let _tier = mode.scoped();
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..REPS {
            let started = Instant::now();
            for _ in 0..ITERS {
                out = Some(inputs.run());
            }
            best = best.min(started.elapsed().as_secs_f64());
        }
        (best, bits(&out.expect("at least one iteration")))
    };
    let (scalar_s, scalar_bits) = time(KernelMode::Scalar);
    let (fast_s, fast_bits) = time(KernelMode::Fast);
    assert!(
        scalar_bits == fast_bits,
        "robust kernels differ between tiers"
    );
    let speedup = scalar_s / fast_s;
    eprintln!("robust kernels: scalar {scalar_s:.4}s, fast {fast_s:.4}s ({speedup:.2}x)");
    assert!(
        speedup >= 1.3,
        "robust-kernel speedup {speedup:.2} below the 1.3x floor"
    );
}

#[test]
#[ignore = "minutes of CPU; run by hand on a quiet machine"]
fn trimmed_16_client_run_is_bit_identical_across_tiers() {
    let _serial = serial();
    let scale = robust_scale(false);
    let run = |mode: KernelMode| {
        let _tier = mode.scoped();
        run_method(
            Method::FedPkd,
            &scale,
            Task::C10,
            Setting::DirHigh,
            true,
            SEED,
        )
    };
    assert!(
        run(KernelMode::Scalar) == run(KernelMode::Fast),
        "kernel tiers diverged on the trimmed 16-client run"
    );
}

/// The quick scale with trainable prototypes and adaptive margins on.
fn margins_scale() -> Scale {
    let scale = Scale::quick();
    Scale {
        pkd: FedPkdConfig {
            adaptive_margins: true,
            ..scale.pkd.clone()
        },
        ..scale
    }
}

/// Best server accuracy among the rounds whose cumulative bytes fit under
/// `budget`: a heavier-per-round method gets fewer rounds, not a free pass.
fn acc_within(result: &RunResult, budget: usize) -> f64 {
    result
        .history
        .iter()
        .filter(|m| m.cumulative_bytes <= budget)
        .filter_map(|m| m.server_accuracy)
        .fold(0.0, f64::max)
}

/// Paper Fig. 3's argument: at an equal communication budget (the smaller
/// of the two runs' totals), FedPKD beats FedDF on strongly non-IID data.
#[test]
#[ignore = "minutes of CPU; run by hand on a quiet machine"]
fn fedpkd_beats_feddf_at_equal_budget_for_low_alpha() {
    let _serial = serial();
    let pkd_scale = margins_scale();
    for alpha in fedpkd_data::ALPHA_SWEEP.into_iter().filter(|&a| a <= 0.1) {
        let setting = Setting::Dir { alpha };
        let pkd = run_method(Method::FedPkd, &pkd_scale, Task::C10, setting, true, SEED);
        let df = run_method(
            Method::FedDf,
            &Scale::quick(),
            Task::C10,
            setting,
            false,
            SEED,
        );
        let budget = pkd.ledger.total_bytes().min(df.ledger.total_bytes());
        let (pkd_acc, df_acc) = (acc_within(&pkd, budget), acc_within(&df, budget));
        eprintln!("α={alpha}: FedPKD {pkd_acc:.4} vs FedDF {df_acc:.4} within {budget} bytes");
        assert!(
            pkd_acc >= df_acc,
            "α={alpha}: FedPKD below FedDF at equal budget"
        );
    }
}

/// Distilling from the server-side generator instead of the public pool
/// costs at most 3 accuracy points at α = 0.1.
#[test]
#[ignore = "minutes of CPU; run by hand on a quiet machine"]
fn data_free_mode_stays_within_3_points_of_public() {
    let _serial = serial();
    let public_scale = margins_scale();
    let generated_scale = Scale {
        pkd: FedPkdConfig {
            distill_source: DistillSource::Generated,
            ..public_scale.pkd.clone()
        },
        ..public_scale.clone()
    };
    let best = |scale: &Scale| {
        run_method(
            Method::FedPkd,
            scale,
            Task::C10,
            Setting::Dir { alpha: 0.1 },
            true,
            SEED,
        )
        .best_server_accuracy()
        .unwrap_or(0.0)
    };
    let (public, generated) = (best(&public_scale), best(&generated_scale));
    let gap = public - generated;
    eprintln!("data-free: public {public:.4} vs generated {generated:.4} (gap {gap:+.4})");
    assert!(
        gap <= 0.03,
        "data-free mode trails the public mode by {gap:.4} (> 0.03)"
    );
}
