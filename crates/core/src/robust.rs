//! Robust aggregation primitives: trimmed means, medians, and clipped
//! averaging.
//!
//! Admission control ([`crate::admission`]) rejects payloads that are
//! *malformed*; the helpers here defang payloads that are well-formed but
//! *wrong* — a Byzantine client's label-flipped logits or boosted model
//! update pass every shape and finiteness check. The statistical defenses
//! follow the classic robust-aggregation literature: coordinate-wise
//! trimmed means (breakdown point = the trim fraction), distance-to-median
//! outlier rejection, and norm clipping to the cohort median.
//!
//! All functions are deterministic and allocation-light; ties broken by
//! `f32::total_cmp` keep results bit-identical across platforms.
//!
//! Like the matmul kernels and softmax losses, the order statistics here
//! are two-tiered: the scalar tier fully sorts the floats (the
//! obviously-correct reference), while the fast tier sorts integer
//! `total_cmp` keys for slices of up to 64 values — any realistic
//! per-coordinate cohort — and runs eight coordinates at once through a
//! Batcher sorting network ([`trimmed_mean_lanes`]). Longer slices take
//! the scalar sort in either tier. `total_cmp` is a total order, so the
//! rank-`k..n-k` order statistics form the same value sequence either
//! way, and summing them in sorted order reproduces the reference's `f64`
//! accumulation chain bit for bit — verified by the proptest suite
//! against adversarial inputs (NaN, ±∞, duplicates).
//!
//! One carve-out: when ±∞ mixes into a kept range, the sum runs through
//! `∞ − ∞` or `NaN + NaN`, and IEEE 754 pins neither the sign nor the
//! payload of the resulting NaN — LLVM may commute the addend order
//! between otherwise-identical compilations, flipping which source NaN
//! propagates. The cross-tier contract is therefore "identical bits,
//! except any NaN matches any NaN". Admission control rejects non-finite
//! uploads, so the carve-out never applies on the training path.

use fedpkd_tensor::{kernel_mode, KernelMode};
use std::fmt;

/// Maximum slice length served by the fast tier's stack-resident integer
/// key sort. Comparison-sorting small slices of floats through
/// `total_cmp` re-derives the sign-flip key on *every* comparison; doing
/// the transform once per element and sorting plain integers wins by
/// roughly the comparison count. 64 covers any realistic per-coordinate
/// client cohort.
const MAX_KEY_SORT_LEN: usize = 64;

/// Monotone integer key for `f32::total_cmp` order: flips the low 31 bits
/// of negative values so plain `i32` comparison ranks floats exactly like
/// `total_cmp`. The transform is an involution, so applying it to a key
/// recovers the original value's bits — see [`key_value`].
#[inline]
fn total_cmp_key(v: f32) -> i32 {
    let b = v.to_bits() as i32;
    b ^ (((b >> 31) as u32) >> 1) as i32
}

/// Inverse of [`total_cmp_key`] (the same involution).
#[inline]
fn key_value(k: i32) -> f32 {
    f32::from_bits((k ^ (((k >> 31) as u32) >> 1) as i32) as u32)
}

/// [`total_cmp_key`] for `f64` / `i64`.
#[inline]
fn total_cmp_key64(v: f64) -> i64 {
    let b = v.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Inverse of [`total_cmp_key64`].
#[inline]
fn key_value64(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

/// Aggregation failed in a way the caller must handle (never a panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AggregationError {
    /// No payloads to aggregate.
    Empty,
    /// Payload shapes disagree (across clients, or with the reference).
    ShapeMismatch,
}

impl fmt::Display for AggregationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "nothing to aggregate"),
            Self::ShapeMismatch => write!(f, "payload shapes disagree"),
        }
    }
}

impl std::error::Error for AggregationError {}

/// Which knowledge-aggregation rule the server applies to admitted uploads.
///
/// `Off` is the paper-faithful path — variance-weighted Eqs. 6–7 and the
/// size-weighted Eq. 8 mean. `Trimmed` swaps in the robust variants:
/// coordinate-wise trimmed-mean logit ensembling and distance-to-median
/// prototype outlier rejection, both parameterized by the same trim
/// fraction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum RobustAggregation {
    /// Paper-faithful aggregation (Eqs. 6–8 as printed).
    #[default]
    Off,
    /// Trimmed aggregation dropping up to `trim_fraction` of payloads per
    /// coordinate (logits) or per class (prototypes).
    Trimmed {
        /// Fraction of payloads to trim, in `[0, 0.5)`.
        trim_fraction: f32,
    },
}

impl RobustAggregation {
    /// The configured trim fraction, or `None` when robust aggregation is
    /// off.
    pub fn trim_fraction(&self) -> Option<f32> {
        match self {
            Self::Off => None,
            Self::Trimmed { trim_fraction } => Some(*trim_fraction),
        }
    }
}

/// How many elements a trimmed mean over `n` values drops from *each* end:
/// `floor(trim · n)`, capped so at least one value always survives.
pub fn trim_count(n: usize, trim_fraction: f32) -> usize {
    if n == 0 {
        return 0;
    }
    let k = (trim_fraction.clamp(0.0, 0.5) * n as f32).floor() as usize;
    k.min((n - 1) / 2)
}

/// How many independent columns [`trimmed_mean_lanes`] processes at once.
/// Eight `i32` lanes fill a 256-bit vector register; the lanewise
/// min/max compare-exchanges below auto-vectorize to packed integer
/// min/max, so one network pass prices eight columns.
pub const TRIM_LANES: usize = 8;

/// Largest cohort [`trimmed_mean_lanes`] accepts (the stack-resident
/// network size); callers with more members per coordinate fall back to
/// [`trimmed_mean`].
pub const MAX_LANE_COHORT: usize = MAX_KEY_SORT_LEN;

/// One lanewise compare-exchange: after the call, `keys[a]` holds the
/// lane minima and `keys[b]` the lane maxima. Branchless in every lane.
#[inline]
fn lane_compare_exchange(keys: &mut [[i32; TRIM_LANES]], a: usize, b: usize) {
    let (lo, hi) = keys.split_at_mut(b);
    let (x, y) = (&mut lo[a], &mut hi[0]);
    for lane in 0..TRIM_LANES {
        let (p, q) = (x[lane], y[lane]);
        x[lane] = p.min(q);
        y[lane] = p.max(q);
    }
}

/// Sorts each lane of `keys` ascending with Batcher's odd–even merge
/// sort — a fixed, data-independent comparator network, so every lane is
/// sorted by the same branchless compare-exchange sequence. `keys.len()`
/// must be a power of two.
fn batcher_sort_lanes(keys: &mut [[i32; TRIM_LANES]]) {
    let n = keys.len();
    debug_assert!(n.is_power_of_two());
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k.min(n - j - k) {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        lane_compare_exchange(keys, i + j, i + j + k);
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
}

/// Trimmed means of [`TRIM_LANES`] independent columns at once:
/// `columns[c][lane]` is cohort member `c`'s value in that lane's
/// coordinate. Returns the per-lane trimmed means — bit-identical to
/// calling [`trimmed_mean`] on each lane's column separately, under
/// either kernel tier, up to the module-level NaN carve-out (non-finite
/// columns may yield NaNs whose sign/payload is compilation-dependent).
///
/// This is the vectorized heart of the fast tier's trimmed aggregation:
/// the columns are transformed once to `total_cmp`-ordered integer keys,
/// padded to the next power of two with `i32::MAX` sentinels (the
/// maximum key, so the first `len` sorted slots always hold the real
/// multiset — real keys equal to the sentinel are indistinguishable *by
/// value*, which is all the sum reads), and pushed through one Batcher
/// network whose lanewise min/max compare-exchanges vectorize. The kept
/// ranks are then decoded and summed ascending in `f64`, the scalar
/// tier's exact accumulation chain.
///
/// # Panics
///
/// Panics when the cohort is empty or larger than the stack-resident
/// network (64 members); callers fall back to [`trimmed_mean`] per
/// column outside that range.
pub fn trimmed_mean_lanes(columns: &[[f32; TRIM_LANES]], trim_fraction: f32) -> [f32; TRIM_LANES] {
    let len = columns.len();
    assert!(
        (1..=MAX_KEY_SORT_LEN).contains(&len),
        "cohort size {len} outside the batched range 1..=64"
    );
    let k = trim_count(len, trim_fraction);
    let n = len.next_power_of_two();
    let mut keys = [[i32::MAX; TRIM_LANES]; MAX_KEY_SORT_LEN];
    for (dst, col) in keys.iter_mut().zip(columns) {
        for (slot, &v) in dst.iter_mut().zip(col) {
            *slot = total_cmp_key(v);
        }
    }
    batcher_sort_lanes(&mut keys[..n]);
    let kept = (len - 2 * k) as f64;
    let mut out = [0.0f32; TRIM_LANES];
    for (lane, slot) in out.iter_mut().enumerate() {
        let sum: f64 = keys[k..len - k]
            .iter()
            .map(|ranks| f64::from(key_value(ranks[lane])))
            .sum();
        *slot = (sum / kept) as f32;
    }
    out
}

/// Coordinate-wise trimmed mean over `values` (which may be reordered in
/// place): drops [`trim_count`] elements from each end and averages the
/// rest. With `trim_fraction == 0` this is the plain mean.
///
/// The scalar tier fully sorts and sums the kept middle in sorted order.
/// The fast tier sorts stack-resident integer `total_cmp` keys for slices
/// of up to 64 values; longer ones take the scalar sort. Either way the
/// `f64` accumulation visits the identical value sequence, so the result
/// is bit-identical.
///
/// Returns 0.0 for an empty slice.
pub fn trimmed_mean(values: &mut [f32], trim_fraction: f32) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let len = values.len();
    let k = trim_count(len, trim_fraction);
    if kernel_mode() == KernelMode::Fast && len <= MAX_KEY_SORT_LEN {
        // Small cohorts (the per-coordinate hot case): transform once to
        // total_cmp-ordered integer keys on the stack and sort those. The
        // ascending key order is exactly the ascending `total_cmp` value
        // order, so summing the decoded rank-`k..len-k` values visits the
        // identical `f64` accumulation chain as the sorted scalar path.
        let mut keys = [0i32; MAX_KEY_SORT_LEN];
        for (slot, &v) in keys.iter_mut().zip(values.iter()) {
            *slot = total_cmp_key(v);
        }
        let keys = &mut keys[..len];
        keys.sort_unstable();
        let kept = &keys[k..len - k];
        let sum: f64 = kept.iter().map(|&key| f64::from(key_value(key))).sum();
        return (sum / kept.len() as f64) as f32;
    }
    values.sort_unstable_by(f32::total_cmp);
    let kept = &values[k..len - k];
    let sum: f64 = kept.iter().map(|&v| f64::from(v)).sum();
    (sum / kept.len() as f64) as f32
}

/// Median of `values` (which may be reordered in place): midpoint of the
/// two central elements for even lengths. Returns 0.0 for an empty slice.
///
/// The fast tier sorts stack-resident integer `total_cmp` keys for slices
/// of up to 64 values; longer ones take the scalar sort. `total_cmp`
/// ranks are unique, so both tiers read the same one or two values and
/// combine them with the same arithmetic.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let len = values.len();
    let mid = len / 2;
    if kernel_mode() == KernelMode::Fast && len <= MAX_KEY_SORT_LEN {
        let mut keys = [0i64; MAX_KEY_SORT_LEN];
        for (slot, &v) in keys.iter_mut().zip(values.iter()) {
            *slot = total_cmp_key64(v);
        }
        let keys = &mut keys[..len];
        keys.sort_unstable();
        return if len % 2 == 1 {
            key_value64(keys[mid])
        } else {
            0.5 * (key_value64(keys[mid - 1]) + key_value64(keys[mid]))
        };
    }
    values.sort_unstable_by(f64::total_cmp);
    if len % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Coordinate-wise median vector of equal-length rows.
///
/// # Errors
///
/// [`AggregationError::Empty`] with no rows, [`AggregationError::ShapeMismatch`]
/// when row lengths disagree.
pub fn coordinate_median(rows: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
    let first = rows.first().ok_or(AggregationError::Empty)?;
    let dim = first.len();
    if rows.iter().any(|r| r.len() != dim) {
        return Err(AggregationError::ShapeMismatch);
    }
    let mut column = vec![0.0f64; rows.len()];
    Ok((0..dim)
        .map(|j| {
            for (slot, row) in column.iter_mut().zip(rows) {
                *slot = f64::from(row[j]);
            }
            median(&mut column) as f32
        })
        .collect())
}

/// Weighted average of `updates` after clipping each one's deviation from
/// `reference` to the cohort's *median* deviation norm — the standard
/// defense for parameter-averaging aggregation (FedAvg/FedProx): a boosted
/// or sign-flipped update can pull the average no harder than the median
/// honest client does.
///
/// With one or two updates the median equals (one of) the norms themselves,
/// so clipping is a no-op there; protection kicks in from three clients up,
/// and honest runs whose norms are similar are barely perturbed.
///
/// # Errors
///
/// [`AggregationError::Empty`] with no updates or all-zero weights,
/// [`AggregationError::ShapeMismatch`] when lengths disagree.
// `!(x > 0.0)` rather than `x <= 0.0`: a NaN total must also bail out.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn clipped_weighted_average(
    updates: &[Vec<f32>],
    weights: &[f64],
    reference: &[f32],
) -> Result<Vec<f32>, AggregationError> {
    if updates.is_empty() || updates.len() != weights.len() {
        return Err(AggregationError::Empty);
    }
    if updates.iter().any(|u| u.len() != reference.len()) {
        return Err(AggregationError::ShapeMismatch);
    }
    let total_weight: f64 = weights.iter().sum();
    if !(total_weight > 0.0) {
        return Err(AggregationError::Empty);
    }
    let norms: Vec<f64> = updates
        .iter()
        .map(|u| {
            u.iter()
                .zip(reference)
                .map(|(&a, &b)| {
                    let d = f64::from(a) - f64::from(b);
                    d * d
                })
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    let mut sorted_norms = norms.clone();
    let cap = median(&mut sorted_norms);
    let mut out = vec![0.0f64; reference.len()];
    for ((update, &weight), &norm) in updates.iter().zip(weights).zip(&norms) {
        let scale = if norm > cap && norm > 0.0 {
            cap / norm
        } else {
            1.0
        };
        let w = weight / total_weight;
        for ((o, &u), &r) in out.iter_mut().zip(update).zip(reference) {
            let delta = f64::from(u) - f64::from(r);
            *o += w * (f64::from(r) + scale * delta);
        }
    }
    Ok(out.into_iter().map(|v| v as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_count_respects_bounds() {
        assert_eq!(trim_count(0, 0.2), 0);
        assert_eq!(trim_count(5, 0.0), 0);
        assert_eq!(trim_count(5, 0.2), 1);
        assert_eq!(trim_count(10, 0.2), 2);
        // Never trims everything: 3 values at trim 0.5 keeps the median.
        assert_eq!(trim_count(3, 0.5), 1);
        assert_eq!(trim_count(1, 0.5), 0);
        // Out-of-range fractions are clamped.
        assert_eq!(trim_count(10, 2.0), 4);
        assert_eq!(trim_count(10, -1.0), 0);
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let mut vals = [100.0, 1.0, 2.0, 3.0, -100.0];
        // trim 0.2 of 5 → drop one from each end → mean(1, 2, 3).
        assert!((trimmed_mean(&mut vals, 0.2) - 2.0).abs() < 1e-6);
        let mut vals = [1.0, 2.0, 3.0];
        assert!((trimmed_mean(&mut vals, 0.0) - 2.0).abs() < 1e-6);
        assert_eq!(trimmed_mean(&mut [], 0.2), 0.0);
    }

    #[test]
    fn trimmed_mean_below_breakdown_ignores_adversary() {
        // 5 honest values near 1.0 plus one outlier at 1e6; trim 0.2 of 6
        // drops one from each end, so the outlier cannot move the mean far.
        let mut vals = [1.0, 1.1, 0.9, 1.0, 1.05, 1e6];
        let m = trimmed_mean(&mut vals, 0.2);
        assert!((0.9..=1.1).contains(&m), "trimmed mean {m}");
    }

    #[test]
    fn trimmed_mean_above_breakdown_is_overwhelmed() {
        // 2 honest vs 3 adversarial values: a 0.2 trim (drops 1 per end of
        // 5) cannot save the mean — documents the breakdown point.
        let mut vals = [1.0, 1.0, 1e6, 1e6, 1e6];
        let m = trimmed_mean(&mut vals, 0.2);
        assert!(m > 1e5, "mean {m} should be dragged by the majority");
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn coordinate_median_is_per_column() {
        let rows: Vec<&[f32]> = vec![&[1.0, 10.0], &[2.0, 20.0], &[300.0, 0.0]];
        let m = coordinate_median(&rows).unwrap();
        assert_eq!(m, vec![2.0, 10.0]);
        assert_eq!(coordinate_median(&[]), Err(AggregationError::Empty));
        let ragged: Vec<&[f32]> = vec![&[1.0], &[1.0, 2.0]];
        assert_eq!(
            coordinate_median(&ragged),
            Err(AggregationError::ShapeMismatch)
        );
    }

    #[test]
    fn clipping_tames_a_boosted_update() {
        let reference = vec![0.0f32; 2];
        // Two honest unit-norm updates, one boosted 1000×.
        let updates = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1000.0, 0.0]];
        let weights = vec![1.0, 1.0, 1.0];
        let clipped = clipped_weighted_average(&updates, &weights, &reference).unwrap();
        // The boosted update is scaled back to the median norm (1.0), so no
        // coordinate can exceed it.
        assert!(clipped.iter().all(|v| v.abs() <= 1.0), "{clipped:?}");
        // An unclipped average would be dominated by the attacker.
        let unclipped: f32 = (1.0 + 0.0 + 1000.0) / 3.0;
        assert!(clipped[0] < unclipped / 100.0);
    }

    #[test]
    fn clipping_is_noop_for_equal_norms() {
        let reference = vec![1.0f32, 1.0];
        let updates = vec![vec![2.0, 1.0], vec![1.0, 2.0]];
        let weights = vec![1.0, 1.0];
        let clipped = clipped_weighted_average(&updates, &weights, &reference).unwrap();
        assert!((clipped[0] - 1.5).abs() < 1e-6);
        assert!((clipped[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn clipped_average_respects_weights() {
        let reference = vec![0.0f32];
        let updates = vec![vec![1.0], vec![3.0]];
        // Norms 1 and 3; median 2 → second clipped to 2; weights 3:1.
        let clipped = clipped_weighted_average(&updates, &[3.0, 1.0], &reference).unwrap();
        assert!((clipped[0] - (0.75 * 1.0 + 0.25 * 2.0)).abs() < 1e-6);
    }

    #[test]
    fn clipped_average_rejects_bad_inputs() {
        assert_eq!(
            clipped_weighted_average(&[], &[], &[]),
            Err(AggregationError::Empty)
        );
        assert_eq!(
            clipped_weighted_average(&[vec![1.0]], &[1.0], &[1.0, 2.0]),
            Err(AggregationError::ShapeMismatch)
        );
        assert_eq!(
            clipped_weighted_average(&[vec![1.0]], &[0.0], &[0.0]),
            Err(AggregationError::Empty)
        );
    }
}
