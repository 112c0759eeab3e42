//! Execution-plan layer: grouped scheduling for batched multi-client work.
//!
//! The work-stealing pool in [`crate::parallel`] seeds each worker's deque
//! with a contiguous chunk of items in input order. For a heterogeneous
//! client fleet that order interleaves model architectures arbitrarily, so
//! a worker draining its queue alternates between weight templates and
//! scratch-buffer sizes on every task — each client's forward/backward
//! re-faults a different template into cache and regrows the thread-local
//! repack arenas.
//!
//! This module plans the *seeding order* instead: [`schedule`] permutes the
//! queue so same-group items (clients sharing a `ModelSpec` template) land
//! contiguously on the same worker. Consecutive tasks then run batched
//! per-layer GEMMs against the *same* resident template with same-sized
//! pooled scratch arenas — the fleet-scale form of batching heterogeneous
//! client work.
//!
//! # Why batching commutes with commit order
//!
//! Determinism does not depend on the schedule. Every task is a pure
//! function of `(index, item)` (clients never share mutable state), and
//! [`crate::parallel::dispatch_stealing_scheduled`] commits results through
//! a reorder buffer in strictly ascending *original* index whatever order
//! workers executed them in. Permuting the seeding order therefore changes
//! only *when* each result becomes available, never its value or the order
//! server-side folds observe it — so any schedule, any worker count, and
//! any steal interleaving replay bit-identically. The gate matrix in
//! `crates/bench/tests/determinism.rs` checks exactly this: grouped vs
//! sequential schedules must produce identical run results for all
//! algorithms.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which seeding schedule the execution-plan dispatchers build.
///
/// Both modes produce bit-identical results (see the module docs); the
/// switch exists so benchmarks and the bit-identity gate can compare the
/// schedules on identical workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Seed worker queues in input order (the pre-plan behavior).
    Sequential,
    /// Group same-key items contiguously per worker (the default).
    Grouped,
}

/// Sentinel: the mode has not been resolved from the environment yet.
const MODE_UNSET: u8 = u8::MAX;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

fn mode_to_raw(mode: PlanMode) -> u8 {
    match mode {
        PlanMode::Sequential => 0,
        PlanMode::Grouped => 1,
    }
}

fn raw_to_mode(raw: u8) -> PlanMode {
    if raw == 0 {
        PlanMode::Sequential
    } else {
        PlanMode::Grouped
    }
}

/// The process-wide default plan, read once from `FEDPKD_PLAN`
/// (`sequential` selects input-order seeding; anything else — including
/// the variable being unset — selects grouped seeding).
fn env_default() -> u8 {
    match std::env::var("FEDPKD_PLAN") {
        Ok(v) if v.eq_ignore_ascii_case("sequential") => 0,
        _ => 1,
    }
}

impl PlanMode {
    /// Selects this plan mode for the lifetime of the returned guard and
    /// restores the previous mode when the guard drops (including on
    /// panic-unwind). The switch is process-wide, mirroring
    /// [`crate::KernelMode::scoped`] — overlapping guards on different
    /// threads share it, which is safe (modes are bit-identical) but makes
    /// concurrent timing comparisons meaningless.
    #[must_use = "the plan mode reverts as soon as the guard drops"]
    pub fn scoped(self) -> PlanModeGuard {
        let prev = plan_mode();
        MODE.store(mode_to_raw(self), Ordering::Relaxed);
        PlanModeGuard { prev }
    }
}

/// RAII guard from [`PlanMode::scoped`]: restores the previously selected
/// plan mode on drop.
#[derive(Debug)]
pub struct PlanModeGuard {
    prev: PlanMode,
}

impl Drop for PlanModeGuard {
    fn drop(&mut self) {
        MODE.store(mode_to_raw(self.prev), Ordering::Relaxed);
    }
}

/// The currently selected plan mode. On first call this resolves the
/// default from the `FEDPKD_PLAN` environment variable (`sequential` →
/// [`PlanMode::Sequential`], anything else → [`PlanMode::Grouped`]);
/// afterwards it reflects the innermost live [`PlanMode::scoped`] guard.
pub fn plan_mode() -> PlanMode {
    let raw = MODE.load(Ordering::Relaxed);
    if raw != MODE_UNSET {
        return raw_to_mode(raw);
    }
    let resolved = env_default();
    match MODE.compare_exchange(MODE_UNSET, resolved, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => raw_to_mode(resolved),
        Err(current) => raw_to_mode(current),
    }
}

/// Builds the grouped seeding schedule for items with the given group
/// keys: a permutation of `0..keys.len()` listing the items of each group
/// contiguously, groups ordered by first appearance and items within a
/// group in ascending index order. Fully deterministic — no hashing, no
/// dependence on key *values* beyond equality.
pub fn grouped_schedule(keys: &[u64]) -> Vec<usize> {
    let mut group_order: Vec<u64> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        match group_order.iter().position(|&k| k == key) {
            Some(g) => members[g].push(i),
            None => {
                group_order.push(key);
                members.push(vec![i]);
            }
        }
    }
    members.into_iter().flatten().collect()
}

/// The seeding schedule for the current [`plan_mode`]: grouped by `keys`
/// under [`PlanMode::Grouped`], the identity permutation under
/// [`PlanMode::Sequential`].
pub fn schedule(keys: &[u64]) -> Vec<usize> {
    match plan_mode() {
        PlanMode::Sequential => (0..keys.len()).collect(),
        PlanMode::Grouped => grouped_schedule(keys),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_schedule_is_a_permutation_that_groups_keys() {
        let keys = [3u64, 1, 3, 2, 1, 3, 2];
        let sched = grouped_schedule(&keys);
        // Groups in first-appearance order, members in index order.
        assert_eq!(sched, vec![0, 2, 5, 1, 4, 3, 6]);
        let mut sorted = sched.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..keys.len()).collect::<Vec<_>>());
    }

    #[test]
    fn grouped_schedule_handles_degenerate_inputs() {
        assert!(grouped_schedule(&[]).is_empty());
        assert_eq!(grouped_schedule(&[7]), vec![0]);
        // All-same and all-distinct keys are both the identity.
        assert_eq!(grouped_schedule(&[5, 5, 5]), vec![0, 1, 2]);
        assert_eq!(grouped_schedule(&[1, 2, 3]), vec![0, 1, 2]);
    }

    #[test]
    fn scoped_guard_restores_previous_mode() {
        let initial = plan_mode();
        {
            let _g = PlanMode::Sequential.scoped();
            assert_eq!(plan_mode(), PlanMode::Sequential);
            {
                let _inner = PlanMode::Grouped.scoped();
                assert_eq!(plan_mode(), PlanMode::Grouped);
            }
            assert_eq!(plan_mode(), PlanMode::Sequential);
        }
        assert_eq!(plan_mode(), initial);
    }

    #[test]
    fn schedule_respects_plan_mode() {
        let keys = [9u64, 8, 9];
        {
            let _g = PlanMode::Sequential.scoped();
            assert_eq!(schedule(&keys), vec![0, 1, 2]);
        }
        let _g = PlanMode::Grouped.scoped();
        assert_eq!(schedule(&keys), vec![0, 2, 1]);
    }
}
