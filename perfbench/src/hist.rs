//! A log-linear latency histogram: fixed size, mergeable, and free of
//! allocation while recording.
//!
//! Values below 128 get one bucket each; above that every power of two is
//! split into 128 equal buckets, so a bucket is at most 0.8% wide. Quantiles
//! interpolate linearly inside the bucket that holds the requested rank, so a
//! reported percentile moves smoothly with the data instead of snapping to a
//! bucket edge.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the linear range; covers values up to 2^47 (about 39 hours
/// in nanoseconds).
const OCTAVES: usize = 40;
const BUCKETS: usize = (OCTAVES + 1) * SUB as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn index_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let shift = exp - SUB_BITS;
    let idx = ((shift as u64 + 1) << SUB_BITS) + ((value >> shift) - SUB);
    (idx as usize).min(BUCKETS - 1)
}

/// The half-open value range `[lo, hi)` covered by bucket `idx`.
fn bounds_of(idx: usize) -> (f64, f64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx as f64, idx as f64 + 1.0);
    }
    let shift = (idx >> SUB_BITS) - 1;
    let lo = ((idx & (SUB - 1)) + SUB) << shift;
    (lo as f64, (lo + (1 << shift)) as f64)
}

impl Histogram {
    pub fn record(&mut self, value: u64) {
        self.counts[index_of(value)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q < 1), or 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, hi) = bounds_of(idx);
                let within = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * within;
            }
            seen += c;
        }
        bounds_of(BUCKETS - 1).1
    }

    /// Whether at least ten samples lie beyond the `q`-quantile, the least a
    /// reported tail percentile needs.
    pub fn supports(&self, q: f64) -> bool {
        (self.total as f64 * (1.0 - q)) >= 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        for idx in 1..BUCKETS - 1 {
            let (lo, hi) = bounds_of(idx);
            assert_eq!(bounds_of(idx - 1).1, lo, "gap before bucket {idx}");
            assert!(hi > lo);
            assert!(lo < 128.0 || (hi - lo) / lo <= 1.0 / 128.0 + 1e-12);
        }
        for v in [0u64, 1, 127, 128, 129, 1000, 123_456, 9_876_543_210] {
            let (lo, hi) = bounds_of(index_of(v));
            assert!(
                lo <= v as f64 && (v as f64) < hi,
                "{v} outside [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn quantiles_track_uniform_data() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let want = q * 100_000.0;
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert!(h.supports(0.999) && !h.supports(0.99999));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(0.99) > 900_000.0);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
