//! Shared client plumbing: construction, spec validation, parallel
//! dispatch, and evaluation.
//!
//! FedPKD and every baseline build their client fleets the same way — one
//! model per spec, each on its own deterministic RNG stream — so the logic
//! lives here once. The RNG stream convention is load-bearing for
//! reproducibility: client `i` draws from `Rng::stream(seed, 1 + i)` and the
//! server (when present) from `Rng::stream(seed, 0)`.

use crate::eval;
use crate::fedpkd::CoreError;
use fedpkd_data::{ClientData, FederatedScenario};
use fedpkd_netsim::Cohort;
use fedpkd_rng::Rng;
use fedpkd_tensor::models::{ClassifierModel, ModelSpec};
use fedpkd_tensor::nn::Layer;
use fedpkd_tensor::optim::Adam;

/// One simulated client: model, optimizer, private RNG stream.
pub struct ClientState {
    /// The client's local model.
    pub model: ClassifierModel,
    /// The client's optimizer state.
    pub optimizer: Adam,
    /// The client's private RNG stream (batch shuffling, dropout).
    pub rng: Rng,
}

/// Builds one client per spec, each on its own deterministic RNG stream
/// (`Rng::stream(seed, 1 + i)`; stream 0 is reserved for the server).
pub fn build_clients(specs: &[ModelSpec], learning_rate: f32, seed: u64) -> Vec<ClientState> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut rng = Rng::stream(seed, 1 + i as u64);
            ClientState {
                model: spec.build(&mut rng),
                optimizer: Adam::new(learning_rate),
                rng,
            }
        })
        .collect()
}

/// Validates spec wiring against a scenario; `homogeneous` additionally
/// requires all client specs (and the server spec, when given) to be
/// identical — FedAvg, FedProx, and FedDF cannot mix architectures.
///
/// # Errors
///
/// Returns [`CoreError::ClientSpecMismatch`] when the spec count does not
/// match the scenario, [`CoreError::ClassCountMismatch`] when any spec's
/// class count disagrees with the scenario, and
/// [`CoreError::InvalidConfig`] when `homogeneous` is requested but the
/// architectures differ.
pub fn validate_specs(
    scenario: &FederatedScenario,
    client_specs: &[ModelSpec],
    server_spec: Option<&ModelSpec>,
    homogeneous: bool,
) -> Result<(), CoreError> {
    if client_specs.len() != scenario.num_clients() {
        return Err(CoreError::ClientSpecMismatch {
            clients: scenario.num_clients(),
            specs: client_specs.len(),
        });
    }
    for spec in client_specs.iter().chain(server_spec) {
        if spec.num_classes() != scenario.num_classes {
            return Err(CoreError::ClassCountMismatch {
                scenario: scenario.num_classes,
                spec: spec.num_classes(),
            });
        }
    }
    if homogeneous {
        let first = &client_specs[0];
        if client_specs.iter().any(|s| s != first) || server_spec.is_some_and(|s| s != first) {
            return Err(CoreError::InvalidConfig(
                "this algorithm requires identical model architectures".into(),
            ));
        }
    }
    Ok(())
}

// The dispatch idioms live in `fedpkd_tensor::parallel`, the workspace's
// one home for threads (tensor kernels run on the calling thread, so a
// client is the finest grain that fans out); re-export them so existing
// users of this module keep working. Clients never share mutable
// state — each mutates only its own model, optimizer, and RNG stream — so
// dispatching them this way is bit-identical to a sequential loop.
pub use fedpkd_tensor::parallel::{
    dispatch_chunked, dispatch_stealing, dispatch_stealing_scheduled, StealStats,
};

/// Runs `f` for every `(client, client_data)` pair in parallel — capped at
/// the machine's available parallelism so large fleets don't oversubscribe
/// — and collects the results in client order.
pub fn for_each_client<T: Send>(
    clients: &mut [ClientState],
    data: &[ClientData],
    f: impl Fn(&mut ClientState, &ClientData) -> T + Sync,
) -> Vec<T> {
    let items: Vec<_> = clients.iter_mut().zip(data).collect();
    dispatch_chunked(items, |(client, data)| f(client, data))
}

/// Runs `f` for every *surviving* `(client, client_data)` pair — per the
/// round's [`Cohort`] — in parallel (capped at the machine's available
/// parallelism), returning `(client_index, result)` pairs in ascending
/// client order. Dropped clients are not touched: their models, optimizers,
/// and RNG streams stay exactly as the previous round left them, so fault
/// injection cannot perturb their state.
pub fn for_each_active_client<T: Send>(
    clients: &mut [ClientState],
    data: &[ClientData],
    cohort: &Cohort,
    f: impl Fn(usize, &mut ClientState, &ClientData) -> T + Sync,
) -> Vec<(usize, T)> {
    let items: Vec<_> = clients
        .iter_mut()
        .zip(data)
        .enumerate()
        .filter(|&(i, _)| cohort.is_active(i))
        .map(|(i, (client, data))| (i, client, data))
        .collect();
    dispatch_chunked(items, |(i, client, data)| (i, f(i, client, data)))
}

/// Streams `task` over the rostered `(client, client_data)` pairs on a
/// bounded work-stealing pool of `workers` threads, delivering each result
/// to `commit` **in ascending client order** as soon as its turn is
/// reached — the caller folds uploads into streaming accumulators instead
/// of buffering the whole cohort.
///
/// `roster` names the client indices to run (out-of-range entries are
/// ignored); unrostered clients are not touched. The ordered commit point
/// is the determinism mechanism: workers may finish in any interleaving,
/// but server-side folds always observe client `i` before client `j > i`,
/// so results are bit-identical to a sequential loop regardless of
/// `workers`.
pub fn for_each_active_client_streaming<T: Send>(
    clients: &mut [ClientState],
    data: &[ClientData],
    roster: &[usize],
    workers: usize,
    task: impl Fn(usize, &mut ClientState, &ClientData) -> T + Sync,
    mut commit: impl FnMut(usize, T),
) -> StealStats {
    let mut member = vec![false; clients.len()];
    for &client in roster {
        if let Some(slot) = member.get_mut(client) {
            *slot = true;
        }
    }
    let items: Vec<_> = clients
        .iter_mut()
        .zip(data)
        .enumerate()
        .filter(|&(i, _)| member[i])
        .map(|(i, (client, data))| (i, client, data))
        .collect();
    // Execution plan: group same-architecture clients onto the same worker
    // queue so a worker drains a run of identically-shaped models back to
    // back — its layer GEMMs reuse one tile geometry and its pooled scratch
    // arenas rotate through one size class. Only the queue *seeding* order
    // changes; the ordered commit point above still applies, so the plan is
    // bit-identical to the sequential schedule (DESIGN.md §5j).
    let keys: Vec<u64> = items
        .iter()
        .map(|(_, client, _)| client.model.param_count() as u64)
        .collect();
    let schedule = fedpkd_tensor::plan::schedule(&keys);
    dispatch_stealing_scheduled(
        items,
        &schedule,
        workers,
        |_, (i, client, data)| (i, task(i, client, data)),
        |_, (i, out)| commit(i, out),
    )
}

/// Per-client local-test accuracies.
pub fn client_accuracies(clients: &mut [ClientState], scenario: &FederatedScenario) -> Vec<f64> {
    clients
        .iter_mut()
        .zip(&scenario.clients)
        .map(|(c, d)| eval::accuracy(&mut c.model, &d.test))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_tensor::models::DepthTier;
    use fedpkd_tensor::serialize::param_vector;

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

    fn spec(tier: DepthTier) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier,
        }
    }

    #[test]
    fn build_clients_gives_distinct_models() {
        let clients = build_clients(&[spec(DepthTier::T11), spec(DepthTier::T11)], 0.001, 5);
        assert_eq!(clients.len(), 2);
        assert_ne!(
            param_vector(&clients[0].model),
            param_vector(&clients[1].model),
            "clients must have independent initializations"
        );
    }

    #[test]
    fn build_clients_matches_server_stream_convention() {
        // Stream 0 is the server's; client 0 must not collide with it.
        let mut server_rng = Rng::stream(42, 0);
        let server_model = spec(DepthTier::T11).build(&mut server_rng);
        let clients = build_clients(&[spec(DepthTier::T11)], 0.001, 42);
        assert_ne!(param_vector(&server_model), param_vector(&clients[0].model));
    }

    #[test]
    fn validate_specs_checks_homogeneity() {
        let scenario = tiny_scenario(1);
        let hetero = vec![
            spec(DepthTier::T11),
            spec(DepthTier::T20),
            spec(DepthTier::T29),
        ];
        assert!(validate_specs(&scenario, &hetero, None, false).is_ok());
        assert!(validate_specs(&scenario, &hetero, None, true).is_err());
        let homo = vec![spec(DepthTier::T20); 3];
        assert!(validate_specs(&scenario, &homo, Some(&spec(DepthTier::T20)), true).is_ok());
        assert!(validate_specs(&scenario, &homo, Some(&spec(DepthTier::T56)), true).is_err());
    }

    #[test]
    fn validate_specs_checks_counts() {
        let scenario = tiny_scenario(2);
        assert!(validate_specs(&scenario, &vec![spec(DepthTier::T11); 2], None, false).is_err());
        let bad_classes = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 7,
            tier: DepthTier::T11,
        };
        assert!(validate_specs(&scenario, &vec![bad_classes; 3], None, false).is_err());
    }

    #[test]
    fn dispatch_chunked_preserves_order_past_the_thread_cap() {
        // 100 items is far more than any container's core count, so this
        // exercises multi-item chunks; the output must still be the
        // sequential map.
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * 2).collect();
        assert_eq!(dispatch_chunked(items, |i| i * 2), expected);
        assert!(dispatch_chunked(Vec::new(), |i: usize| i).is_empty());
    }

    #[test]
    fn for_each_client_preserves_order() {
        let scenario = tiny_scenario(3);
        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 7);
        let sizes = for_each_client(&mut clients, &scenario.clients, |_, data| data.train.len());
        let expected: Vec<usize> = scenario.clients.iter().map(|c| c.train.len()).collect();
        assert_eq!(sizes, expected);
    }

    #[test]
    fn for_each_active_client_skips_dropped_clients() {
        use fedpkd_netsim::DropCause;

        let scenario = tiny_scenario(5);
        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 7);
        let cohort = Cohort::from_causes(vec![None, Some(DropCause::Dropout), None]);
        let out = for_each_active_client(&mut clients, &scenario.clients, &cohort, |i, _, data| {
            (i, data.train.len())
        });
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, vec![0, 2]);
        for &(i, (fi, len)) in &out {
            assert_eq!(i, fi);
            assert_eq!(len, scenario.clients[i].train.len());
        }
    }

    #[test]
    fn streaming_dispatch_commits_in_client_order_for_any_worker_count() {
        let scenario = tiny_scenario(8);
        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 4);
        let buffered = for_each_active_client(
            &mut clients,
            &scenario.clients,
            &Cohort::full(3),
            |i, _, data| (i, data.train.len()),
        );
        for workers in [1, 2, 8] {
            let mut streamed = Vec::new();
            for_each_active_client_streaming(
                &mut clients,
                &scenario.clients,
                &[0, 1, 2],
                workers,
                |i, _, data| (i, data.train.len()),
                |i, out| streamed.push((i, out)),
            );
            assert_eq!(streamed, buffered);
        }
        // A partial roster (late clients, samples) runs exactly its members.
        let mut roster_hits = Vec::new();
        for_each_active_client_streaming(
            &mut clients,
            &scenario.clients,
            &[2, 0],
            2,
            |i, _, _| i,
            |i, out| {
                assert_eq!(i, out);
                roster_hits.push(i);
            },
        );
        assert_eq!(roster_hits, vec![0, 2]);
    }

    #[test]
    fn for_each_active_client_full_cohort_matches_for_each_client() {
        let scenario = tiny_scenario(6);
        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 9);
        let all = for_each_client(&mut clients, &scenario.clients, |_, data| data.train.len());
        let active = for_each_active_client(
            &mut clients,
            &scenario.clients,
            &Cohort::full(3),
            |_, _, data| data.train.len(),
        );
        let active_values: Vec<usize> = active.into_iter().map(|(_, v)| v).collect();
        assert_eq!(all, active_values);
    }
}
