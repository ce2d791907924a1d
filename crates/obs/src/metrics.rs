//! Lock-cheap metrics registry with deterministic rendering.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// Formats a labeled metric name, e.g. `labeled("lam.rows", "db", "avis")`
/// → `lam.rows{db=avis}`.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}={value}}}")
}

/// Nearest-rank quantile of an ascending-sorted sample set, `q` in `[0, 1]`
/// (`0.5` = median, `0.99` = p99). Returns 0 for an empty slice. Histograms
/// stay cheap count/sum/min/max aggregates; callers that need tail latency
/// keep their raw samples and ask here.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregate of observed values for one histogram series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum += value;
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Shared registry of counters, gauges and histograms. Cloning yields
/// another handle onto the same store; a single short mutex hold per update
/// keeps it cheap on the hot path.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter, creating it at zero first if needed. The
    /// name is copied only the first time a series is written.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.counters.get_mut(name) {
            Some(count) => *count += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Reads a counter (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to an absolute value.
    pub fn gauge_set(&self, name: &str, value: i64) {
        let mut inner = self.inner.lock();
        match inner.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Reads a gauge (zero if never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.inner.lock().gauges.get(name).copied().unwrap_or(0)
    }

    /// Records one observation into a histogram series.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock();
        match inner.histograms.get_mut(name) {
            Some(histogram) => histogram.observe(value),
            None => {
                let mut histogram = Histogram::default();
                histogram.observe(value);
                inner.histograms.insert(name.to_string(), histogram);
            }
        }
    }

    /// Reads a histogram aggregate (all-zero if never observed).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.lock().histograms.get(name).copied().unwrap_or_default()
    }

    /// Point-in-time copy of every series, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

/// Sorted point-in-time copy of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Renders every series, one per line, in sorted order — deterministic
    /// for a deterministic run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter   {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge     {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} sum={} min={} max={}\n",
                h.count, h.sum, h.min, h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&samples, 0.5), 50);
        assert_eq!(quantile(&samples, 0.99), 99);
        assert_eq!(quantile(&samples, 1.0), 100);
        assert_eq!(quantile(&samples, 0.0), 1);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m.counter_add("net.messages", 2);
        m2.counter_add("net.messages", 3);
        assert_eq!(m.counter("net.messages"), 5);
    }

    #[test]
    fn histogram_tracks_min_max_sum() {
        let m = MetricsRegistry::new();
        m.observe("lat", 5);
        m.observe("lat", 1);
        m.observe("lat", 9);
        assert_eq!(m.histogram("lat"), Histogram { count: 3, sum: 15, min: 1, max: 9 });
    }

    #[test]
    fn render_is_sorted_and_labeled() {
        let m = MetricsRegistry::new();
        m.counter_add(&labeled("lam.rows", "db", "national"), 2);
        m.counter_add(&labeled("lam.rows", "db", "avis"), 2);
        m.gauge_set("ldbs.commits{db=avis}", 1);
        let text = m.snapshot().render();
        let avis = text.find("lam.rows{db=avis}").unwrap();
        let national = text.find("lam.rows{db=national}").unwrap();
        assert!(avis < national);
        assert!(text.contains("gauge     ldbs.commits{db=avis} = 1"));
    }
}
