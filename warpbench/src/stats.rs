//! The benchmark's own arithmetic: medians, tail-percentile selection,
//! failure ratios, seed derivation and metric-name validity.

/// Standard percentiles the tail is chosen from, highest first, in
/// hundredths of a percent (integer, so rank arithmetic is exact).
const TAIL_LADDER: [u64; 6] = [9999, 9990, 9900, 9500, 9000, 7500];

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of a sample set (mean of the two middle values for an even
/// count). `None` for an empty set.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Nearest-rank percentile: the sample at 1-based rank
/// `ceil(p * n / 10000)` of the sorted set (`p` in hundredths of a
/// percent), with the number of samples strictly beyond it.
fn nearest_rank(sorted: &[f64], p: u64) -> (f64, usize) {
    let n = sorted.len();
    let rank = usize::try_from((p * n as u64).div_ceil(10_000)).unwrap_or(n).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// A tail latency: which percentile it is and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest standard percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it. `None` when the set is too small for any of them.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(&v, p);
        let percentile = p as f64 / 100.0;
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail { percentile, value, beyond })
    })
}

/// Splits `n` completion-ordered samples into `blocks` consecutive runs
/// of (nearly) equal count.
#[must_use]
pub fn block_ranges(n: usize, blocks: usize) -> Vec<std::ops::Range<usize>> {
    let blocks = blocks.clamp(1, n.max(1));
    (0..blocks).map(|k| k * n / blocks..(k + 1) * n / blocks).collect()
}

/// Per-block rate of a completion-ordered series: each block's summed
/// `weight` over its duration, from the previous block's last
/// completion (0 for the first) to its own last completion, in seconds.
#[must_use]
pub fn block_rates(done_s: &[f64], weight: &[f64], blocks: usize) -> Vec<f64> {
    let mut since = 0.0;
    block_ranges(done_s.len(), blocks)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let until = done_s[r.end - 1];
            let rate = weight[r].iter().sum::<f64>() / (until - since).max(1e-9);
            since = until;
            rate
        })
        .collect()
}

/// Share of attempted operations that failed (0 when nothing was
/// attempted, which the caller reports as a failed run anyway).
#[must_use]
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// SplitMix64: one step of the generator the workload data is drawn
/// with, used here to derive independent per-spec data seeds from the
/// benchmark's seed argument.
#[must_use]
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1..=1000: p99.9 leaves 1 beyond, p99 leaves 10 — the first
        // that qualifies.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);

        // 999 samples: p99 is rank 990, 9 beyond — too few; p95 is the tail.
        let t = tail(&v[..999]).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.beyond, 999 - 950);

        // 100k samples reach p99.99 (10 beyond exactly).
        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let t = tail(&big).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.99, 10));
    }

    #[test]
    fn tail_ignores_input_order_and_rejects_tiny_sets() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        // 39 samples: p75 is rank 30, 9 beyond — nothing qualifies.
        assert_eq!(tail(&v[..39]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn blocks_split_evenly_and_rates_use_block_durations() {
        assert_eq!(block_ranges(10, 4), vec![0..2, 2..5, 5..7, 7..10]);
        assert_eq!(block_ranges(3, 8), vec![0..1, 1..2, 2..3]);
        // Four completions at 1, 2, 4, 8 s; two blocks of two.
        let rates = block_rates(&[1.0, 2.0, 4.0, 8.0], &[1.0; 4], 2);
        assert_eq!(rates, vec![2.0 / 2.0, 2.0 / 6.0]);
        let weighted = block_rates(&[1.0, 2.0, 4.0, 8.0], &[3.0, 1.0, 6.0, 6.0], 2);
        assert_eq!(weighted, vec![4.0 / 2.0, 12.0 / 6.0]);
    }

    #[test]
    fn failed_ratio_counts_against_attempts() {
        assert_eq!(failed_ratio(0, 512), 0.0);
        assert_eq!(failed_ratio(3, 12), 0.25);
        assert_eq!(failed_ratio(12, 12), 1.0);
        assert_eq!(failed_ratio(0, 0), 0.0);
    }

    #[test]
    fn metric_names_follow_the_schema() {
        for ok in ["cad_cold_s", "fabric.route_ms.idct", "sim.ns_per_insn", "p50-ms", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".route", "-x", "route ms", "route/ms", "café", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }
}
