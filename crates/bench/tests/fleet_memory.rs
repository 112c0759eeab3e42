//! Fleet-scale replay and memory gates on the synthetic `FleetSim` (a
//! prototype-shaped stand-in for FedPKD's upload path, not FedPKD itself).
//!
//! A 1 000-client fleet with seeded 64-client cohorts runs 5 rounds in
//! synchronous mode and in bounded-staleness mode (staleness 2, with a
//! deadline the invited clients miss); each must replay bit-identically on
//! one worker. The peak RSS of those runs must stay within 20% of the
//! committed 10 000-client pre-copy-on-write peak (`BENCH_pr6.json`), and a
//! model-backed fleet in the copy-on-write pool must be at least 4× cheaper
//! than dense per-client state.
//!
//! This binary holds a single test so `VmHWM` is the peak of these runs and
//! of nothing else.

use fedpkd_core::clients::build_clients;
use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fleet::FleetSim;
use fedpkd_core::runtime::RunResult;
use fedpkd_core::{ClientPool, ParkedClient};
use fedpkd_netsim::{CohortPolicy, FaultPlan, LinkModel};
use fedpkd_tensor::models::{DepthTier, ModelSpec};

const SEED: u64 = 707;
const FLEET: usize = 1_000;
const COHORT: usize = 64;
const ROUNDS: usize = 5;

fn fleet_run(staleness: usize, workers: Option<usize>) -> (RunResult, FleetSim) {
    let mut sim = FleetSim::new(FLEET, 10, 64, SEED);
    let mut builder = DriverBuilder::new()
        .rounds(ROUNDS)
        .cohort(CohortPolicy::Sample {
            size: COHORT,
            seed: SEED ^ 0x5EED,
        });
    if staleness > 0 {
        // A ~1.3 KB prototype upload takes ~1.3 s at 1 kB/s, so invited
        // clients miss the 1 s deadline by less than the staleness bound:
        // the late-landing path stays active every round.
        let plan = FaultPlan::new(SEED).with_deadline(LinkModel::new(1_000.0, 0.0), 1.0);
        builder = builder.faults(plan).staleness(staleness);
    }
    if let Some(workers) = workers {
        builder = builder.workers(workers);
    }
    let result = builder.build().run_silent(&mut sim);
    (result, sim)
}

/// This process's peak resident set size in bytes (`VmHWM`).
fn peak_rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the memory gate reads VmHWM from /proc/self/status");
    let kib: usize = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has no readable VmHWM line");
    kib * 1024
}

/// `peak_rss_bytes` of the committed pre-copy-on-write fleet report.
fn baseline_rss_bytes() -> usize {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr6.json");
    let report = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    report
        .split_once("\"peak_rss_bytes\":")
        .and_then(|(_, rest)| {
            let rest = rest.trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or_else(|| panic!("{path} has no readable peak_rss_bytes"))
}

/// Exact resident bytes of a heterogeneous model-backed fleet (T11/T20/T29
/// round-robin) as `(owned, pooled)`: every client owning dense params and
/// Adam moments, versus a [`ClientPool`] of three shared templates plus one
/// parked delta per active-cohort client. Counted from the structures, not
/// sampled from RSS, so the figures are deterministic.
fn cow_residency() -> (usize, usize) {
    const LR: f32 = 0.003;
    let tiers = [DepthTier::T11, DepthTier::T20, DepthTier::T29];
    let spec = |i: usize| ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: tiers[i % tiers.len()],
    };
    let per_tier: Vec<usize> = (0..tiers.len())
        .map(|i| {
            let client = build_clients(&[spec(i)], LR, SEED)
                .pop()
                .expect("one client");
            ParkedClient::park(client).resident_bytes()
        })
        .collect();
    let owned = (0..FLEET).map(|i| per_tier[i % tiers.len()]).sum();

    let specs: Vec<ModelSpec> = (0..FLEET).map(spec).collect();
    let mut pool = ClientPool::new(&specs, LR, SEED);
    for i in 0..COHORT {
        let client = pool.materialize(i);
        pool.park(i, client);
    }
    (owned, pool.resident_bytes())
}

#[test]
fn fleet_replays_bit_identically_within_its_memory_budget() {
    for staleness in [0, 2] {
        let (result, sim) = fleet_run(staleness, None);
        let (replay, replay_sim) = fleet_run(staleness, Some(1));
        assert!(
            result == replay && sim == replay_sim,
            "staleness {staleness}: the one-worker replay diverged"
        );
    }

    // Read the peak before the residency probe allocates, so it prices the
    // fleet runs alone.
    let rss = peak_rss_bytes();
    let baseline = baseline_rss_bytes();
    let (owned, pooled) = cow_residency();
    eprintln!("peak RSS {rss} of {baseline} bytes; fleet {pooled} pooled vs {owned} owned bytes");
    assert!(rss > 0 && baseline > 0, "VmHWM {rss}, baseline {baseline}");
    assert!(
        rss <= baseline * 6 / 5,
        "peak RSS {rss} bytes exceeds the pre-copy-on-write baseline {baseline} (+20%)"
    );
    assert!(
        pooled <= owned / 4,
        "pooled fleet residency {pooled} bytes is not 4x below dense {owned}"
    );
}
