//! Fixtures shared by the gate binaries (`determinism.rs`, `paper_gates.rs`).

use fedpkd_bench::Scale;
use fedpkd_core::fedpkd::logits::aggregate_logits_trimmed_from_probs;
use fedpkd_core::fedpkd::FedPkdConfig;
use fedpkd_core::robust::{coordinate_median, RobustAggregation};
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::Tensor;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The seed every gate runs at.
pub const SEED: u64 = 707;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the tests of one binary. `KernelMode` and `PlanMode` are
/// process-global switches where the last guard to drop wins, and timings
/// must not overlap, so every test holds this for its whole body.
pub fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The robust-aggregation profile: a 16-client cohort (16 values per
/// coordinate for the trimmed mean's lane-batched fast tier) with a deep
/// public pool, so aggregation is a visible share of the run, and
/// deliberately light epochs.
pub fn robust_scale(smoke: bool) -> Scale {
    Scale {
        clients: 16,
        samples: if smoke { 960 } else { 3_200 },
        public: if smoke { 600 } else { 2_400 },
        test: 150,
        rounds: 2,
        pkd: FedPkdConfig {
            client_private_epochs: 1,
            client_public_epochs: 1,
            server_epochs: 1,
            learning_rate: 0.003,
            robust: RobustAggregation::Trimmed { trim_fraction: 0.2 },
            ..FedPkdConfig::default()
        },
        ..Scale::quick()
    }
}

/// Inputs of the robust-kernel leg: 16 clients' softmaxed `rows × 10`
/// logits and 16 prototype-sized (512-wide) vectors.
pub struct RobustKernels {
    probs: Vec<Tensor>,
    protos: Vec<Vec<f32>>,
}

impl RobustKernels {
    /// Draws the inputs from [`SEED`]. The softmax happens here, outside
    /// any timed region: it is the same arithmetic in both kernel tiers.
    pub fn new(rows: usize) -> Self {
        let mut rng = fedpkd_rng::Rng::seed_from_u64(SEED);
        let probs = (0..16)
            .map(|_| softmax(&Tensor::rand_uniform(&[rows, 10], -6.0, 6.0, &mut rng), 1.0))
            .collect();
        let protos = (0..16)
            .map(|_| {
                Tensor::rand_uniform(&[512], -1.0, 1.0, &mut rng)
                    .as_slice()
                    .to_vec()
            })
            .collect();
        Self { probs, protos }
    }

    /// One trimmed ensemble (trim 0.2) and one coordinate median under the
    /// current kernel tier.
    pub fn run(&self) -> (Tensor, Vec<f32>) {
        let rows: Vec<&[f32]> = self.protos.iter().map(Vec::as_slice).collect();
        (
            aggregate_logits_trimmed_from_probs(&self.probs, 0.2).expect("aligned probs"),
            coordinate_median(&rows).expect("aligned prototype rows"),
        )
    }
}

/// The raw bits of a [`RobustKernels::run`] output, for exact comparison.
pub fn bits((agg, med): &(Tensor, Vec<f32>)) -> Vec<u32> {
    agg.as_slice()
        .iter()
        .chain(med)
        .map(|v| v.to_bits())
        .collect()
}
