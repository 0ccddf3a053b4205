//! Lightweight named counters and latency histograms for accounting.
//!
//! The paper's evaluation reports several *volume* tables (Table IV: bytes
//! seen by the application vs. the FUSE layer vs. the SSD store; Table VII:
//! write-optimization volumes). Every layer of the reproduction stack
//! increments `Counter`s, and experiments snapshot/diff them through a
//! [`StatsRegistry`]. Latency *distributions* (virtual-time span durations
//! per layer per op kind) go into log-bucketed [`Histogram`]s with
//! deterministic percentiles, registered in the same registry.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A monotonically increasing `u64` counter that wraps past `u64::MAX`.
/// A clone is a second handle on the same value, for the one thread that
/// runs the simulation: neither `Send` nor `Sync`.
#[derive(Clone, Debug)]
pub struct Counter {
    name: Rc<str>,
    value: Rc<Cell<u64>>,
}

impl Counter {
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: Rc::from(name.into().into_boxed_str()),
            value: Rc::new(Cell::new(0)),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn add(&self, n: u64) {
        bump(&self.value, n);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.get()
    }

    pub fn reset(&self) {
        self.value.set(0);
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.get())
    }
}

/// Sub-bucket resolution of [`Histogram`]: each power-of-two decade is
/// split into `2^SUB_BITS` linear sub-buckets (~3% relative error).
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
const HIST_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_BUCKETS + SUB_BUCKETS;

/// Bucket index for a value (HdrHistogram-style log-linear layout).
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let major = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) - SUB_BUCKETS;
    major * SUB_BUCKETS + sub
}

/// Largest value falling into bucket `idx` — the deterministic
/// representative reported by [`Histogram::quantile`].
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let major = idx / SUB_BUCKETS;
    let sub = (idx % SUB_BUCKETS) as u128;
    // u128 intermediate: the top bucket's bound exceeds u64 and clamps.
    let hi = ((SUB_BUCKETS as u128 + sub + 1) << (major - 1)) - 1;
    hi.min(u64::MAX as u128) as u64
}

#[derive(Debug)]
struct HistInner {
    buckets: Vec<Cell<u64>>,
    count: Cell<u64>,
    /// Wraps past `u64::MAX`, as the counters do.
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
}

/// Add `n` to a cell, wrapping past `u64::MAX`.
fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get().wrapping_add(n));
}

/// Deterministic percentile triple reported per histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Percentiles {
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// A log-bucketed `u64` histogram with deterministic quantiles.
///
/// Power-of-two major buckets are split into 32 linear sub-buckets, so a
/// reported quantile is within ~3% of the exact order statistic and — more
/// importantly for this repo — is a *pure function of the recorded
/// multiset*: identical runs report identical percentiles. A clone is a
/// second handle on the same buckets, like [`Counter`]'s.
#[derive(Clone, Debug)]
pub struct Histogram {
    name: Rc<str>,
    inner: Rc<HistInner>,
}

impl Histogram {
    pub fn new(name: impl Into<String>) -> Self {
        Histogram {
            name: Rc::from(name.into().into_boxed_str()),
            inner: Rc::new(HistInner {
                buckets: (0..HIST_BUCKETS).map(|_| Cell::new(0)).collect(),
                count: Cell::new(0),
                sum: Cell::new(0),
                min: Cell::new(u64::MAX),
                max: Cell::new(0),
            }),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn record(&self, v: u64) {
        let i = &self.inner;
        bump(&i.buckets[bucket_index(v)], 1);
        bump(&i.count, 1);
        bump(&i.sum, v);
        i.min.set(i.min.get().min(v));
        i.max.set(i.max.get().max(v));
    }

    pub fn count(&self) -> u64 {
        self.inner.count.get()
    }

    pub fn sum(&self) -> u64 {
        self.inner.sum.get()
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.inner.max.get()
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.inner.min.get();
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th smallest sample (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, b) in self.inner.buckets.iter().enumerate() {
            seen += b.get();
            if seen >= rank {
                return bucket_upper(idx).min(self.max());
            }
        }
        self.max()
    }

    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    pub fn reset(&self) {
        let i = &self.inner;
        for b in &i.buckets {
            b.set(0);
        }
        i.count.set(0);
        i.sum.set(0);
        i.min.set(u64::MAX);
        i.max.set(0);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.percentiles();
        write!(
            f,
            "{}: n={} p50={} p95={} p99={} max={}",
            self.name,
            self.count(),
            p.p50,
            p.p95,
            p.p99,
            self.max()
        )
    }
}

/// A registry of counters and histograms so whole subsystems can be
/// snapshotted at once.
#[derive(Clone, Default)]
pub struct StatsRegistry {
    counters: Rc<RefCell<BTreeMap<String, Counter>>>,
    hists: Rc<RefCell<BTreeMap<String, Histogram>>>,
}

impl StatsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter with this name.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.borrow_mut();
        map.entry(name.to_string())
            .or_insert_with(|| Counter::new(name))
            .clone()
    }

    /// Current value of a counter (0 if it does not exist yet).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .borrow()
            .get(name)
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Point-in-time copy of every counter value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            values: self
                .counters
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
        }
    }

    /// Get or create the histogram with this name.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.hists.borrow_mut();
        map.entry(name.to_string())
            .or_insert_with(|| Histogram::new(name))
            .clone()
    }

    /// Every registered histogram, in name order.
    pub fn histograms(&self) -> Vec<Histogram> {
        self.hists.borrow().values().cloned().collect()
    }

    /// Set every counter and histogram back to zero.
    pub fn reset_all(&self) {
        for c in self.counters.borrow().values() {
            c.reset();
        }
        for h in self.hists.borrow().values() {
            h.reset();
        }
    }
}

impl fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StatsRegistry")
            .field("counters", &self.snapshot().values)
            .finish()
    }
}

/// Frozen counter values; subtract two snapshots to get per-phase deltas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub values: BTreeMap<String, u64>,
}

impl Snapshot {
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Per-counter difference `self - earlier` (missing earlier entries
    /// count as zero, so a counter lazily registered *between* the two
    /// snapshots reports its full value — required by the lazy
    /// registration pattern used for shard/integrity counters).
    /// Saturates at zero: a `reset_all()` between the two snapshots makes
    /// the later value smaller, which must read as "no progress since",
    /// not a u64 underflow panic.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            values: self
                .values
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.get(k))))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new("x");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(c.name(), "x");
    }

    #[test]
    fn a_counter_wraps_past_u64_max() {
        let c = Counter::new("x");
        c.add(u64::MAX);
        c.add(3);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn clones_share_value() {
        let c = Counter::new("x");
        let c2 = c.clone();
        c.add(3);
        assert_eq!(c2.get(), 3);
    }

    #[test]
    fn registry_returns_same_counter() {
        let reg = StatsRegistry::new();
        reg.counter("a").add(1);
        reg.counter("a").add(2);
        assert_eq!(reg.get("a"), 3);
        assert_eq!(reg.get("missing"), 0);
    }

    #[test]
    fn snapshot_delta() {
        let reg = StatsRegistry::new();
        reg.counter("a").add(10);
        let s1 = reg.snapshot();
        reg.counter("a").add(5);
        reg.counter("b").add(7);
        let s2 = reg.snapshot();
        let d = s2.delta_since(&s1);
        assert_eq!(d.get("a"), 5);
        assert_eq!(d.get("b"), 7);
    }

    #[test]
    fn reset_all_zeroes() {
        let reg = StatsRegistry::new();
        reg.counter("a").add(10);
        reg.reset_all();
        assert_eq!(reg.get("a"), 0);
    }

    /// Regression: `reset_all()` between snapshots used to make
    /// `delta_since` underflow-panic (`later < earlier`). It must clamp.
    #[test]
    fn delta_since_survives_reset_between_snapshots() {
        let reg = StatsRegistry::new();
        reg.counter("a").add(100);
        reg.counter("b").add(3);
        let s1 = reg.snapshot();
        reg.reset_all();
        reg.counter("a").add(7);
        let s2 = reg.snapshot();
        let d = s2.delta_since(&s1);
        assert_eq!(d.get("a"), 0); // 7 - 100, clamped
        assert_eq!(d.get("b"), 0); // 0 - 3, clamped
    }

    /// Regression: counters lazily registered between two snapshots (the
    /// shard/integrity pattern — `install_shards` creates its
    /// counters only when sharding is configured) appear only in the newer
    /// snapshot and must report their *full* value in the delta, not be
    /// dropped by an intersection over the earlier snapshot's keys.
    #[test]
    fn delta_since_reports_full_value_for_lazily_registered_counters() {
        let reg = StatsRegistry::new();
        reg.counter("store.chunk_reads").add(4);
        let s1 = reg.snapshot();
        // Lazily registered after the baseline snapshot:
        reg.counter("store.shard_rpcs.s0").add(9);
        reg.counter("store.chunk_reads").add(1);
        let s2 = reg.snapshot();
        let d = s2.delta_since(&s1);
        assert_eq!(d.get("store.shard_rpcs.s0"), 9, "late key keeps its value");
        assert_eq!(d.get("store.chunk_reads"), 1);
        assert!(
            d.values.contains_key("store.shard_rpcs.s0"),
            "late key must be present in the delta, not silently dropped"
        );
    }

    #[test]
    fn bucket_layout_is_contiguous_and_ordered() {
        // Exact for small values; upper bounds strictly increase and every
        // value maps into a bucket whose upper bound is >= the value.
        for v in 0..((SUB_BUCKETS as u64) * 4) {
            assert!(bucket_upper(bucket_index(v)) >= v);
        }
        for idx in 1..HIST_BUCKETS {
            assert!(bucket_upper(idx) > bucket_upper(idx - 1));
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_exact_below_subbucket_resolution() {
        let h = Histogram::new("h");
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 55);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(0.0), 1); // rank clamps to 1
    }

    #[test]
    fn histogram_quantiles_within_relative_error() {
        let h = Histogram::new("h");
        for v in 1..=10_000u64 {
            h.record(v * 1000); // 1µs .. 10ms in ns, log-spread
        }
        let p = h.percentiles();
        let within =
            |got: u64, exact: u64| got >= exact && (got - exact) as f64 <= exact as f64 * 0.04;
        assert!(within(p.p50, 5_000_000), "p50={}", p.p50);
        assert!(within(p.p95, 9_500_000), "p95={}", p.p95);
        assert!(within(p.p99, 9_900_000), "p99={}", p.p99);
        assert_eq!(h.quantile(1.0), 10_000_000); // clamped to exact max
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new("h");
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(
            h.percentiles(),
            Percentiles {
                p50: 0,
                p95: 0,
                p99: 0
            }
        );
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new("h");
        h.record(777);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777, "q={q}");
        }
        assert_eq!(h.min(), 777);
        assert_eq!(h.max(), 777);
        assert_eq!(h.sum(), 777);
        // A single zero sample is not confused with "empty".
        let z = Histogram::new("z");
        z.record(0);
        assert_eq!(z.count(), 1);
        assert_eq!(z.quantile(1.0), 0);
        assert!(!z.is_empty());
    }

    #[test]
    fn bucket_boundary_values_round_trip() {
        // Values sitting exactly on bucket boundaries: the reported
        // quantile must still be >= the recorded value and exact for the
        // bucket's upper bound itself.
        for shift in SUB_BITS..63 {
            let v = 1u64 << shift; // first value of a new major bucket
            let h = Histogram::new("h");
            h.record(v);
            h.record(v - 1); // last value of the previous bucket
            h.record(v + 1);
            assert!(h.quantile(1.0) > v, "shift={shift}");
            assert!(h.quantile(0.34) >= v - 1, "shift={shift}");
            assert_ne!(
                bucket_index(v - 1),
                bucket_index(v),
                "power of two must open a fresh bucket (shift={shift})"
            );
        }
        // The sub-bucket/log transition point and u64::MAX extremes.
        let h = Histogram::new("edge");
        h.record(SUB_BUCKETS as u64 - 1);
        h.record(SUB_BUCKETS as u64);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.33), SUB_BUCKETS as u64 - 1); // rank 1 of 3
        assert_eq!(h.quantile(0.66), SUB_BUCKETS as u64); // rank 2 of 3
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_empty_and_reset() {
        let h = Histogram::new("h");
        assert!(h.is_empty());
        assert_eq!(h.percentiles(), Percentiles::default());
        h.record(42);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn registry_returns_same_histogram() {
        let reg = StatsRegistry::new();
        reg.histogram("h").record(5);
        reg.histogram("h").record(9);
        assert_eq!(reg.histogram("h").count(), 2);
        let all = reg.histograms();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].name(), "h");
        reg.reset_all();
        assert!(reg.histogram("h").is_empty());
    }
}
