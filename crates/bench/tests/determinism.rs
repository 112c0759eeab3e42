//! The bit-identity gate matrix: at smoke scale, every configuration must
//! reproduce the scalar-kernel, sequential-plan reference `RunResult` bit
//! for bit across kernel tier × execution-plan schedule × worker budget.
//!
//! `KernelMode` and `PlanMode` are process-global and the last guard to
//! drop wins, so the matrix lives in its own test binary, every test holds
//! [`common::serial`], and every gate run asserts that the switches still
//! read what it asked for: a guard race fails loudly instead of quietly
//! comparing one tier with itself.

mod common;

use common::{bits, robust_scale, serial, RobustKernels, SEED};
use fedpkd_bench::{run_method_with_driver, Method, Scale, Setting, Task};
use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fedpkd::{DistillSource, FedPkdConfig};
use fedpkd_core::runtime::RunResult;
use fedpkd_core::telemetry::NullObserver;
use fedpkd_tensor::plan::{plan_mode, PlanMode};
use fedpkd_tensor::{kernel_mode, KernelMode};

/// The smoke profile: 3 heterogeneous clients, 2 rounds, light epochs.
fn smoke_scale() -> Scale {
    Scale {
        clients: 3,
        samples: 360,
        public: 120,
        test: 150,
        rounds: 2,
        pkd: FedPkdConfig {
            client_private_epochs: 2,
            client_public_epochs: 1,
            server_epochs: 3,
            learning_rate: 0.003,
            ..FedPkdConfig::default()
        },
        ..Scale::quick()
    }
}

/// Each variant is compared with the scalar/sequential reference.
const VARIANTS: [(&str, KernelMode, PlanMode, Option<usize>); 4] = [
    ("fast/grouped", KernelMode::Fast, PlanMode::Grouped, None),
    (
        "fast/grouped/w1",
        KernelMode::Fast,
        PlanMode::Grouped,
        Some(1),
    ),
    (
        "fast/sequential",
        KernelMode::Fast,
        PlanMode::Sequential,
        None,
    ),
    (
        "scalar/grouped",
        KernelMode::Scalar,
        PlanMode::Grouped,
        None,
    ),
];

fn gate_run(
    method: Method,
    scale: &Scale,
    mode: KernelMode,
    plan: PlanMode,
    workers: Option<usize>,
) -> RunResult {
    let _mode = mode.scoped();
    let _plan = plan.scoped();
    let mut builder = DriverBuilder::new().rounds(scale.rounds);
    if let Some(workers) = workers {
        builder = builder.workers(workers);
    }
    let result = run_method_with_driver(
        method,
        scale,
        Task::C10,
        Setting::DirHigh,
        true,
        SEED,
        &mut builder.build(),
        &mut NullObserver,
    );
    assert_eq!(
        (kernel_mode(), plan_mode()),
        (mode, plan),
        "{}: the process-global modes changed under the run",
        method.name()
    );
    result
}

/// The variants whose run differs from the scalar/sequential reference.
fn diverging(method: Method, scale: &Scale) -> Vec<&'static str> {
    let reference = gate_run(
        method,
        scale,
        KernelMode::Scalar,
        PlanMode::Sequential,
        None,
    );
    VARIANTS
        .iter()
        .filter(|&&(_, mode, plan, workers)| {
            gate_run(method, scale, mode, plan, workers) != reference
        })
        .map(|&(name, ..)| name)
        .collect()
}

fn assert_fedpkd_replays(scale: &Scale) {
    let _serial = serial();
    let diverged = diverging(Method::FedPkd, scale);
    assert!(
        diverged.is_empty(),
        "diverging configs: {}",
        diverged.join(", ")
    );
}

#[test]
fn every_method_replays_bit_identically_across_the_matrix() {
    let _serial = serial();
    let scale = smoke_scale();
    let failures: Vec<String> = Method::ALL
        .into_iter()
        .filter_map(|method| {
            let diverged = diverging(method, &scale);
            (!diverged.is_empty()).then(|| format!("{}: {}", method.name(), diverged.join(", ")))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "diverging configs — {}",
        failures.join("; ")
    );
}

#[test]
fn adaptive_margins_replay_bit_identically_across_the_matrix() {
    let scale = smoke_scale();
    assert_fedpkd_replays(&Scale {
        pkd: FedPkdConfig {
            adaptive_margins: true,
            ..scale.pkd.clone()
        },
        ..scale
    });
}

#[test]
fn generated_transfer_set_replays_bit_identically_across_the_matrix() {
    let scale = smoke_scale();
    assert_fedpkd_replays(&Scale {
        pkd: FedPkdConfig {
            adaptive_margins: true,
            distill_source: DistillSource::Generated,
            ..scale.pkd.clone()
        },
        ..scale
    });
}

#[test]
fn trimmed_16_client_cohort_replays_bit_identically_across_the_matrix() {
    assert_fedpkd_replays(&robust_scale(true));
}

#[test]
fn robust_kernels_are_bit_identical_across_tiers() {
    let _serial = serial();
    let inputs = RobustKernels::new(600);
    let run = |mode: KernelMode| {
        let _tier = mode.scoped();
        let out = bits(&inputs.run());
        assert_eq!(kernel_mode(), mode, "the kernel tier changed under the run");
        out
    };
    assert!(
        run(KernelMode::Scalar) == run(KernelMode::Fast),
        "trimmed ensembling or coordinate median differs between kernel tiers"
    );
}
