//! Cross-kernel determinism: a full federated run must produce the exact
//! same history under the scalar reference kernels and the tiled/parallel
//! fast kernels.
//!
//! This test lives in its own integration binary so nothing else runs
//! concurrently while the scoped kernel-mode override is held.

use fedpkd::prelude::*;
use fedpkd::tensor::KernelMode;

fn scenario(seed: u64) -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(3)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(360)
        .public_size(120)
        .global_test_size(150)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

fn run_fedpkd(seed: u64) -> RunResult {
    let client = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T11,
    };
    let server = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T20,
    };
    let config = FedPkdConfig {
        client_private_epochs: 2,
        client_public_epochs: 1,
        server_epochs: 2,
        learning_rate: 0.003,
        ..FedPkdConfig::default()
    };
    let mut algo = FedPkd::new(scenario(11), vec![client; 3], server, config, seed).unwrap();
    Driver::rounds(2).run_silent(&mut algo)
}

/// The fast kernel tier (register tiling, fused epilogues, packed transposed
/// products) must reproduce the scalar tier's
/// `RunResult` — history and communication ledger — exactly, on the same
/// seed. Accuracies are compared as full f64 values, so even a one-ulp
/// drift in any forward or backward pass fails this test.
#[test]
fn scalar_and_fast_kernels_produce_identical_runs() {
    let scalar_run = {
        let _scalar = KernelMode::scoped(KernelMode::Scalar);
        run_fedpkd(77)
    };
    let fast_run = {
        let _fast = KernelMode::scoped(KernelMode::Fast);
        run_fedpkd(77)
    };
    assert_eq!(
        scalar_run.history, fast_run.history,
        "kernel tiers diverged: per-round metrics differ"
    );
    assert_eq!(
        scalar_run.ledger, fast_run.ledger,
        "kernel tiers diverged: communication ledgers differ"
    );
}
