//! One-way latency model.

use std::collections::HashMap;
use std::time::Duration;

/// Latency model: a base one-way delay plus per-link overrides. Links are
/// directional; an override for `(a, b)` does not affect `(b, a)`.
#[derive(Debug, Clone, Default)]
pub struct LatencyModel {
    /// Delay applied to every link without an override.
    pub base: Duration,
    overrides: HashMap<(String, String), Duration>,
    /// Injected extra delay per link, added on top of the base/override
    /// (fault injection: latency spikes).
    spikes: HashMap<(String, String), Duration>,
}

impl LatencyModel {
    /// Zero latency everywhere (unit tests).
    pub fn instant() -> Self {
        LatencyModel::default()
    }

    /// Uniform latency on all links.
    pub fn uniform(base: Duration) -> Self {
        LatencyModel { base, ..LatencyModel::default() }
    }

    /// Sets a directional per-link override.
    pub fn set_link(&mut self, from: &str, to: &str, latency: Duration) {
        self.overrides.insert((from.to_string(), to.to_string()), latency);
    }

    /// Sets the same override in both directions.
    pub fn set_link_symmetric(&mut self, a: &str, b: &str, latency: Duration) {
        self.set_link(a, b, latency);
        self.set_link(b, a, latency);
    }

    /// Injects an extra directional delay on top of the link's normal
    /// latency (a fault-injection latency spike).
    pub fn inject_spike(&mut self, from: &str, to: &str, extra: Duration) {
        self.spikes.insert((from.to_string(), to.to_string()), extra);
    }

    /// Removes an injected spike.
    pub fn clear_spike(&mut self, from: &str, to: &str) {
        self.spikes.remove(&(from.to_string(), to.to_string()));
    }

    /// The one-way delay from `from` to `to`, including any injected spike.
    pub fn delay(&self, from: &str, to: &str) -> Duration {
        if self.overrides.is_empty() && self.spikes.is_empty() {
            return self.base;
        }
        let key = (from.to_string(), to.to_string());
        let normal = self.overrides.get(&key).copied().unwrap_or(self.base);
        normal + self.spikes.get(&key).copied().unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_applies_without_override() {
        let m = LatencyModel::uniform(Duration::from_millis(3));
        assert_eq!(m.delay("a", "b"), Duration::from_millis(3));
    }

    #[test]
    fn overrides_are_directional() {
        let mut m = LatencyModel::uniform(Duration::from_millis(3));
        m.set_link("a", "b", Duration::from_millis(10));
        assert_eq!(m.delay("a", "b"), Duration::from_millis(10));
        assert_eq!(m.delay("b", "a"), Duration::from_millis(3));
    }

    #[test]
    fn symmetric_override() {
        let mut m = LatencyModel::instant();
        m.set_link_symmetric("a", "b", Duration::from_millis(7));
        assert_eq!(m.delay("a", "b"), Duration::from_millis(7));
        assert_eq!(m.delay("b", "a"), Duration::from_millis(7));
    }

    #[test]
    fn spikes_stack_on_normal_latency_and_clear() {
        let mut m = LatencyModel::uniform(Duration::from_millis(3));
        m.inject_spike("a", "b", Duration::from_millis(40));
        assert_eq!(m.delay("a", "b"), Duration::from_millis(43));
        assert_eq!(m.delay("b", "a"), Duration::from_millis(3), "spikes are directional");
        m.clear_spike("a", "b");
        assert_eq!(m.delay("a", "b"), Duration::from_millis(3));
    }
}
