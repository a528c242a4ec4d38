//! The one histogram: wide-range, log-linear.
//!
//! Each power-of-two octave is split into [`SUB`] sub-buckets, bounding
//! the relative quantile error at `1/SUB` (12.5%) across the whole `u64`
//! range — microsecond latencies span six orders of magnitude, and the
//! same buckets count retries or graph sizes exactly below [`SUB`]. The
//! buckets are fixed, so an export never depends on the observed range,
//! and merging is bucket-wise addition. Plain data: a recorder's
//! histograms sit behind its mutex, a load-driver connection owns its own.

use crate::json::JsonObj;

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per power-of-two octave.
pub const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

/// The bucket a value lands in. Values below [`SUB`] get exact unit
/// buckets; larger values share an octave sliced into [`SUB`] pieces.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros();
        let sub = ((v >> (octave - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (octave - SUB_BITS + 1) as usize * SUB + sub
    }
}

/// Upper bound of the values mapped to bucket `idx` — the conservative
/// representative reported for percentiles.
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let octave = (idx / SUB - 1) as u32 + SUB_BITS;
        let sub = (idx % SUB) as u64;
        let width = 1u64 << (octave - SUB_BITS);
        (1u64 << octave) + sub * width + (width - 1)
    }
}

/// A log-linear histogram of `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            sum: 0,
            count: 0,
        }
    }

    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Fold another histogram into this one. Merging is associative and
    /// commutative: bucket-wise addition.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the target rank. Empty histograms report 0.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(idx);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Shorthand for the p50/p95/p99 triple.
    pub fn p50_p95_p99(&self) -> (u64, u64, u64) {
        (
            self.percentile(0.50),
            self.percentile(0.95),
            self.percentile(0.99),
        )
    }

    /// The summary as JSON: `{"count", "mean<unit>", "p50<unit>",
    /// "p95<unit>", "p99<unit>"}` — `unit` is the key suffix naming what
    /// was observed (`"_us"` for latencies, `""` for plain counts).
    pub fn to_json(&self, unit: &str) -> String {
        let (p50, p95, p99) = self.p50_p95_p99();
        let mut o = JsonObj::new();
        o.num("count", self.count)
            .float(&format!("mean{unit}"), self.mean())
            .num(&format!("p50{unit}"), p50)
            .num(&format!("p95{unit}"), p95)
            .num(&format!("p99{unit}"), p99);
        o.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev_idx = 0;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "index regressed at {v}");
            assert!(idx <= prev_idx + 1, "index skipped at {v}");
            assert!(bucket_upper(idx) >= v, "upper bound below value at {v}");
            prev_idx = idx;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn upper_bound_error_is_bounded() {
        for v in [10u64, 100, 1_000, 10_000, 1_000_000, 1 << 40] {
            let up = bucket_upper(bucket_index(v));
            assert!(up >= v);
            assert!(
                (up - v) as f64 <= v as f64 / SUB as f64 + 1.0,
                "error too big at {v}: {up}"
            );
        }
    }

    #[test]
    fn percentiles_of_uniform_range() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let (p50, p95, p99) = h.p50_p95_p99();
        // Conservative upper bounds within one sub-bucket of the truth.
        assert!((450..=650).contains(&p50), "p50 = {p50}");
        assert!((900..=1100).contains(&p95), "p95 = {p95}");
        assert!((950..=1150).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(1.0), h.percentile(0.9999));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let mut h = Histogram::new();
            let mut x = seed;
            for _ in 0..n {
                // xorshift64 keeps this deterministic and dependency-free.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.observe(x % 1_000_000);
            }
            h
        };
        let (a, b, c) = (mk(11, 300), mk(23, 500), mk(47, 700));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // b + a == a + b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(left.count(), 1500);
        assert_eq!(left.sum(), a.sum() + b.sum() + c.sum());
    }
}
