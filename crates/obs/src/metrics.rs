//! Counters and log₂ histograms, keyed by metric name × [`Labels`].
//!
//! The daemon's telemetry plane is the one producer: it stamps
//! dimensional cells — the `daenerysd.latency_us` histogram split by
//! `tenant`, `daenerysd.phase_nanos` split by `phase` — and a few
//! unlabeled ones into one registry behind one mutex, and a `metrics`
//! scrape renders that registry. The verifier keeps no registry: its
//! counts travel as `VerifyStats` values and its per-query facts as
//! trace events.
//!
//! Each metric name owns a map from [`Labels`] to its counter or
//! [`Histogram`]. Steady-state stamping is two `BTreeMap` lookups and
//! allocates only the first time a (name, labels) pair is seen. All
//! arithmetic saturates — a long-lived daemon pins at `u64::MAX`
//! rather than panicking.

use crate::json::Json;
use crate::labels::Labels;
use std::collections::BTreeMap;

/// Number of log₂ buckets in a [`Histogram`]: bucket 0 holds zeros,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and the last
/// bucket absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 17;

/// A fixed-bucket log₂ histogram of `u64` samples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (meaningless when `count == 0`).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Log₂ bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for a value.
    fn bucket_of(value: u64) -> usize {
        let significant = (64 - value.leading_zeros()) as usize;
        significant.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample. All arithmetic saturates: a long-lived
    /// daemon's histogram can pin at `u64::MAX` but never panic.
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let b = &mut self.buckets[Histogram::bucket_of(value)];
        *b = b.saturating_add(1);
    }

    /// Folds another histogram into this one (saturating, never
    /// panicking — see [`Histogram::record`]).
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) from the log₂ buckets.
    ///
    /// The estimate is the **bucket upper bound** of the bucket holding
    /// the sample of rank `⌈q·count⌉`, clamped to `[min, max]`:
    /// bucket 0 reports 0, bucket `i ≥ 1` reports `2^i − 1`, and the
    /// overflow bucket reports `max`. The estimate therefore never errs
    /// low and overshoots by strictly less than one bucket's width
    /// (< 2×); it is exact for zeros, for the overflow bucket, and for
    /// any single-valued histogram (the `[min, max]` clamp collapses
    /// it). Because the rank, the bucket scan, and the clamp are all
    /// monotone in `q`, `quantile(p) ≤ quantile(q)` whenever `p ≤ q`.
    /// Returns 0 when the histogram is empty; a NaN `q` reads as 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen: u64 = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*b);
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i == HISTOGRAM_BUCKETS - 1 {
                    self.max
                } else {
                    (1u64 << i) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A registry of `(name, labels) → counter/histogram` cells.
///
/// Metric names are dotted paths owned by the stamping subsystem; the
/// daemon's are listed in the `daenerysd::telemetry` module docs. See
/// the [`crate::labels`] module for the label schema.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, BTreeMap<Labels, u64>>,
    histograms: BTreeMap<String, BTreeMap<Labels, Histogram>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Adds `delta` to the `(name, labels)` counter (saturating).
    pub fn add(&mut self, name: &str, labels: &Labels, delta: u64) {
        let cells = match self.counters.get_mut(name) {
            Some(cells) => cells,
            None => self.counters.entry(name.to_string()).or_default(),
        };
        match cells.get_mut(labels) {
            Some(c) => *c = c.saturating_add(delta),
            None => {
                cells.insert(labels.clone(), delta);
            }
        }
    }

    /// Records one sample into the `(name, labels)` histogram.
    pub fn record(&mut self, name: &str, labels: &Labels, value: u64) {
        let mut one = Histogram::default();
        one.record(value);
        self.merge_histogram(name, labels, &one);
    }

    fn merge_histogram(&mut self, name: &str, labels: &Labels, h: &Histogram) {
        let cells = match self.histograms.get_mut(name) {
            Some(cells) => cells,
            None => self.histograms.entry(name.to_string()).or_default(),
        };
        match cells.get_mut(labels) {
            Some(mine) => mine.merge(h),
            None => {
                cells.insert(labels.clone(), h.clone());
            }
        }
    }

    /// Current value of one counter cell (0 when never touched).
    pub fn counter(&self, name: &str, labels: &Labels) -> u64 {
        self.counters
            .get(name)
            .and_then(|cells| cells.get(labels))
            .copied()
            .unwrap_or(0)
    }

    /// One histogram cell, if any sample was recorded.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Option<&Histogram> {
        self.histograms
            .get(name)
            .and_then(|cells| cells.get(labels))
    }

    /// All counter cells, `(name, labels, value)`, in (name, labels)
    /// order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &Labels, u64)> {
        self.counters
            .iter()
            .flat_map(|(name, cells)| cells.iter().map(move |(l, v)| (name.as_str(), l, *v)))
    }

    /// All histogram cells, `(name, labels, histogram)`, in
    /// (name, labels) order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Labels, &Histogram)> {
        self.histograms
            .iter()
            .flat_map(|(name, cells)| cells.iter().map(move |(l, h)| (name.as_str(), l, h)))
    }

    /// The whole registry as one JSON object:
    ///
    /// ```json
    /// {"counters":[{"name":"...","labels":{...},"value":N},...],
    ///  "histograms":[{"name":"...","labels":{...},"count":N,"sum":N,
    ///                 "min":N,"max":N,"mean":F,
    ///                 "p50":N,"p95":N,"p99":N},...]}
    /// ```
    ///
    /// Cells appear in deterministic (name, labels) order; `mean` is
    /// rounded to one decimal, and the quantiles carry the
    /// bucket-upper-bound error documented on [`Histogram::quantile`].
    /// Values at or above 2⁵³ lose precision (JSON numbers are `f64`) —
    /// accepted, since saturated cells are already a signal, not a
    /// measurement.
    pub fn to_json(&self) -> Json {
        let counters = self.counters().map(|(name, labels, v)| {
            Json::obj([
                ("name", name.into()),
                ("labels", labels.to_json()),
                ("value", v.into()),
            ])
        });
        let histograms = self.histograms().map(|(name, labels, h)| {
            // One decimal, rounded as `{:.1}` rounds (`f64::round` differs
            // on ties).
            let mean: f64 = format!("{:.1}", h.mean()).parse().unwrap_or(0.0);
            Json::obj([
                ("name", name.into()),
                ("labels", labels.to_json()),
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("min", if h.count == 0 { 0 } else { h.min }.into()),
                ("max", h.max.into()),
                ("mean", mean.into()),
                ("p50", h.quantile(0.50).into()),
                ("p95", h.quantile(0.95).into()),
                ("p99", h.quantile(0.99).into()),
            ])
        });
        Json::obj([
            ("counters", Json::Arr(counters.collect())),
            ("histograms", Json::Arr(histograms.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1 << 20);
        assert_eq!(h.buckets[0], 1, "zeros");
        assert_eq!(h.buckets[1], 1, "1");
        assert_eq!(h.buckets[2], 2, "2..4");
        assert_eq!(h.buckets[3], 2, "4..8");
        assert_eq!(h.buckets[4], 1, "8..16");
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1, "overflow bucket");
    }

    #[test]
    fn quantile_empty_histogram_is_zero() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn quantile_single_bucket_is_exact() {
        // All samples equal: the [min, max] clamp makes every quantile
        // exactly the sample value even mid-bucket.
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(5);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 5, "q={}", q);
        }
    }

    #[test]
    fn quantile_all_zeros_reports_zero() {
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(0);
        }
        assert_eq!(h.buckets[0], 100);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.95), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::default();
        for v in [0, 1, 3, 7, 12, 100, 1000, 65_000, 1 << 30, u64::MAX] {
            h.record(v);
        }
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "p ≤ q must give quantile(p) ≤ quantile(q)");
        }
        assert!(qs.iter().all(|v| *v >= h.min && *v <= h.max));
        assert_eq!(h.quantile(1.0), h.max, "overflow bucket reports max");
        // The bucket-upper-bound estimate never errs low: p50 of this
        // set (true value 12) reports its bucket's upper bound 15.
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0), "NaN reads as 0");
    }

    fn t(name: &str) -> Labels {
        Labels::none().with("tenant", name)
    }

    #[test]
    fn merges_saturate_instead_of_panicking() {
        let none = Labels::none();
        let mut a = MetricsRegistry::new();
        a.add("c", &none, u64::MAX - 1);
        a.add("c", &none, u64::MAX);
        assert_eq!(a.counter("c", &none), u64::MAX);
        a.add("c", &none, 7);
        assert_eq!(a.counter("c", &none), u64::MAX);

        let mut h = Histogram {
            count: u64::MAX,
            sum: u64::MAX,
            min: 0,
            max: 1,
            buckets: [u64::MAX; HISTOGRAM_BUCKETS],
        };
        let other = h.clone();
        h.merge(&other);
        h.record(1);
        assert_eq!(h.count, u64::MAX);
        assert_eq!(h.buckets[1], u64::MAX);
    }

    #[test]
    fn cells_are_independent_per_label_set() {
        let mut r = MetricsRegistry::new();
        r.add("req", &t("a"), 2);
        r.add("req", &t("b"), 3);
        r.add("req", &t("a"), 1);
        r.record("lat", &t("a"), 10);
        r.record("lat", &t("a"), 20);
        assert_eq!(r.counter("req", &t("a")), 3);
        assert_eq!(r.counter("req", &t("b")), 3);
        assert_eq!(r.counter("req", &t("c")), 0);
        assert_eq!(r.histogram("lat", &t("a")).unwrap().count, 2);
        assert!(r.histogram("lat", &t("b")).is_none());
    }

    #[test]
    fn unlabeled_and_labeled_cells_of_one_name_stay_apart() {
        // An unlabeled cell and a tenant-stamped cell of the same
        // metric name are two cells.
        let mut scrape = MetricsRegistry::new();
        scrape.add("solver.conflict", &Labels::none(), 4);
        scrape.record("fuel", &Labels::none(), 9);
        scrape.add("solver.conflict", &t("a"), 1);
        assert_eq!(scrape.counter("solver.conflict", &Labels::none()), 4);
        assert_eq!(scrape.counter("solver.conflict", &t("a")), 1);
        assert_eq!(scrape.histogram("fuel", &Labels::none()).unwrap().count, 1);
        assert!(scrape.histogram("fuel", &t("a")).is_none());
    }

    #[test]
    fn to_json_parses_and_carries_quantiles() {
        let mut r = MetricsRegistry::new();
        r.add("req", &t("a"), 3);
        for v in [1, 2, 3, 100] {
            r.record("lat", &Labels::none().with("tenant", "a\"quoted"), v);
        }
        let json = r.to_json().render();
        let v = crate::json::parse(&json).expect("scrape is valid JSON");
        let obj = v.as_obj().unwrap();
        let counters = obj["counters"].as_arr().unwrap();
        assert_eq!(counters.len(), 1);
        let c0 = counters[0].as_obj().unwrap();
        assert_eq!(c0["name"].as_str(), Some("req"));
        assert_eq!(c0["value"].as_num(), Some(3.0));
        let hists = obj["histograms"].as_arr().unwrap();
        let h0 = hists[0].as_obj().unwrap();
        assert_eq!(
            h0["labels"].as_obj().unwrap()["tenant"].as_str(),
            Some("a\"quoted"),
            "labels escape correctly"
        );
        let (p50, p95, p99) = (
            h0["p50"].as_num().unwrap(),
            h0["p95"].as_num().unwrap(),
            h0["p99"].as_num().unwrap(),
        );
        assert!(p50 <= p95 && p95 <= p99, "p50 ≤ p95 ≤ p99");
        // Empty registry still renders a parseable shell.
        crate::json::parse(&MetricsRegistry::new().to_json().render()).unwrap();
    }
}
