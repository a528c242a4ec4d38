//! The metrics registry: counters, gauges, and [`Histogram`]s keyed by
//! static names, with per-object and per-transaction-depth breakdowns.
//!
//! Everything is deterministic: keys are `&'static str` (no allocation on
//! the hot path), iteration order is `BTreeMap` order, and histogram
//! buckets are fixed, so a metrics export is a pure function of the run.

use crate::hist::Histogram;
use crate::json::JsonObj;
use std::collections::BTreeMap;

/// The registry. Plain data, no interior mutability: either owned by an
/// executor directly or guarded by the recorder's mutex.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Per-object breakdowns: `(name, object index)` → count.
    by_object: BTreeMap<(&'static str, u32), u64>,
    /// Per-transaction-depth breakdowns: `(name, depth)` → count.
    by_depth: BTreeMap<(&'static str, u32), u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increment a counter.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &'static str, v: i64) {
        self.gauges.insert(name, v);
    }

    /// Record a histogram observation.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().observe(v);
    }

    /// Add `n` to the per-object breakdown of `name`.
    pub fn add_obj(&mut self, name: &'static str, obj: u32, n: u64) {
        *self.by_object.entry((name, obj)).or_insert(0) += n;
    }

    /// Add `n` to the per-depth breakdown of `name`.
    pub fn add_depth(&mut self, name: &'static str, depth: u32, n: u64) {
        *self.by_depth.entry((name, depth)).or_insert(0) += n;
    }

    /// Read a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Read a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Every gauge, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// Every histogram, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, h)| (k, h))
    }

    /// The per-object counts of `name`, sorted by object index.
    pub fn object_breakdown(&self, name: &str) -> Vec<(u32, u64)> {
        self.by_object
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|((_, o), &c)| (*o, c))
            .collect()
    }

    /// The per-depth counts of `name`, sorted by depth.
    pub fn depth_breakdown(&self, name: &str) -> Vec<(u32, u64)> {
        self.by_depth
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|((_, d), &c)| (*d, c))
            .collect()
    }

    /// Merge another registry into this one (counters/histograms add,
    /// gauges overwrite).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.gauges {
            self.gauges.insert(k, v);
        }
        for (&k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
        for (&k, &v) in &other.by_object {
            *self.by_object.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.by_depth {
            *self.by_depth.entry(k).or_insert(0) += v;
        }
    }

    /// Export the whole registry as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut root = JsonObj::new();
        let mut counters = JsonObj::new();
        for (&k, &v) in &self.counters {
            counters.num(k, v);
        }
        root.raw("counters", counters.build());
        let mut gauges = JsonObj::new();
        for (&k, &v) in &self.gauges {
            gauges.inum(k, v);
        }
        root.raw("gauges", gauges.build());
        let mut hists = JsonObj::new();
        for (&k, h) in &self.histograms {
            hists.raw(k, h.to_json(""));
        }
        root.raw("histograms", hists.build());
        root.raw("by_object", breakdown_json(&self.by_object));
        root.raw("by_depth", breakdown_json(&self.by_depth));
        root.build()
    }

    /// A human-readable summary table (plain text, aligned).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<32} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<32} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (count / mean):\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!("  {k:<32} {} / {:.2}\n", h.count(), h.mean()));
            }
        }
        if !self.by_object.is_empty() {
            out.push_str("per-object:\n");
            for ((k, o), v) in &self.by_object {
                out.push_str(&format!("  {k:<28} X{o:<3} {v}\n"));
            }
        }
        if !self.by_depth.is_empty() {
            out.push_str("per-depth:\n");
            for ((k, d), v) in &self.by_depth {
                out.push_str(&format!("  {k:<28} d={d:<3} {v}\n"));
            }
        }
        out
    }
}

fn breakdown_json(map: &BTreeMap<(&'static str, u32), u64>) -> String {
    // {"name": {"0": 3, "1": 5}, ...} with keys in BTreeMap order.
    let mut outer = JsonObj::new();
    let mut current: Option<(&'static str, JsonObj)> = None;
    for (&(name, idx), &v) in map {
        match &mut current {
            Some((n, inner)) if *n == name => {
                inner.num(&idx.to_string(), v);
            }
            _ => {
                if let Some((n, inner)) = current.take() {
                    outer.raw(n, inner.build());
                }
                let mut inner = JsonObj::new();
                inner.num(&idx.to_string(), v);
                current = Some((name, inner));
            }
        }
    }
    if let Some((n, inner)) = current.take() {
        outer.raw(n, inner.build());
    }
    outer.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 2);
        m.gauge_set("g", -5);
        m.observe("h", 3);
        m.observe("h", 100_000);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.gauge("g"), Some(-5));
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 100_003);
        assert_eq!(h.percentile(0.5), 3, "small values are exact");
        assert!(h.percentile(1.0) >= 100_000, "no overflow bucket to cap it");
    }

    #[test]
    fn breakdowns_and_merge() {
        let mut m = MetricsRegistry::new();
        m.add_obj("blocked", 0, 2);
        m.add_obj("blocked", 3, 1);
        m.add_depth("blocked", 1, 4);
        let mut m2 = MetricsRegistry::new();
        m2.add_obj("blocked", 0, 1);
        m.merge(&m2);
        assert_eq!(m.object_breakdown("blocked"), vec![(0, 3), (3, 1)]);
        assert_eq!(m.depth_breakdown("blocked"), vec![(1, 4)]);
    }

    #[test]
    fn json_export_parses() {
        let mut m = MetricsRegistry::new();
        m.inc("ev.lock_acquired");
        m.gauge_set("sg.edges", 12);
        m.observe("wait", 7);
        m.add_obj("blocked", 1, 9);
        m.add_depth("blocked", 2, 9);
        let v = Json::parse(&m.to_json()).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("ev.lock_acquired")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("sg.edges").unwrap().as_num(),
            Some(12.0)
        );
        assert!(v.get("by_object").unwrap().get("blocked").is_some());
        assert!(!m.summary().is_empty());
    }

    #[test]
    fn export_is_deterministic_across_insertion_orders() {
        let mut a = MetricsRegistry::new();
        a.inc("x");
        a.inc("b");
        a.add_obj("k", 2, 1);
        a.add_obj("k", 0, 1);
        let mut b = MetricsRegistry::new();
        b.add_obj("k", 0, 1);
        b.inc("b");
        b.add_obj("k", 2, 1);
        b.inc("x");
        assert_eq!(a.to_json(), b.to_json());
    }
}
