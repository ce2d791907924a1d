//! Retry policy and execution-level fault accounting.
//!
//! The paper's prototype ran over an unreliable campus network; §3.2 treats a
//! subquery that cannot be reached as *aborted* and lets the VITAL semantics
//! decide whether the whole statement fails. This module adds the layer the
//! paper leaves to the communication substrate: a bounded retry policy for
//! transient faults (timeouts, dropped messages, partitions that heal), with
//! deterministic backoff so simulated runs stay reproducible.

use netsim::FaultKind;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// How a [`crate::lamclient::LamClient`] responds to transient network
/// faults. The default policy performs a single attempt (no retries), which
/// preserves the seed behaviour: a lost message surfaces as a timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per request, including the first (min 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: Duration,
    /// Overall deadline for one logical request across all its attempts.
    pub deadline: Duration,
    /// Seed for the deterministic jitter mixed into each backoff. Two runs
    /// with the same seed back off identically — no wall-clock randomness.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: one attempt, faults surface immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            deadline: Duration::from_secs(60),
            jitter_seed: 0,
        }
    }

    /// A sensible fault-tolerant policy: `max_attempts` tries with a small
    /// exponential backoff.
    pub fn retries(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(60),
            jitter_seed: 0x5EED,
        }
    }

    /// True when the policy allows more than one attempt.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The pause before attempt `next_attempt` (2 = first retry).
    /// Exponential in the retry index, plus deterministic jitter of at most
    /// half the base backoff, derived from `jitter_seed` and the attempt
    /// number alone.
    pub fn backoff(&self, next_attempt: u32) -> Duration {
        if next_attempt <= 1 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = (next_attempt - 2).min(10);
        let base = self.base_backoff.saturating_mul(1u32 << exp);
        let half = self.base_backoff.as_micros() as u64 / 2;
        let jitter = if half == 0 {
            0
        } else {
            splitmix64(self.jitter_seed ^ u64::from(next_attempt)) % (half + 1)
        };
        base + Duration::from_micros(jitter)
    }
}

/// SplitMix64: a tiny, high-quality mixer for deterministic jitter.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Execution-level fault and retry counters, aggregated across every LAM
/// request a plan (or session) issues. Exposed on
/// [`crate::executor::UpdateReport`] / [`crate::executor::MtxReport`] and via
/// [`crate::federation::Federation::exec_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Logical calls issued (each may span several attempts). The invariant
    /// `retries == attempts - calls` holds by construction.
    pub calls: u64,
    /// Total request attempts, including first tries.
    pub attempts: u64,
    /// Attempts beyond the first (resends).
    pub retries: u64,
    /// Transient faults observed (timeout, drop, partition).
    pub transient_faults: u64,
    /// Terminal faults observed (unknown site, closed endpoint).
    pub terminal_faults: u64,
    /// Requests that ultimately succeeded only after at least one retry.
    pub recovered: u64,
    /// Non-vital subqueries tolerated as failed (graceful degradation,
    /// §3.2's "the multiquery can succeed without them").
    pub degraded: u64,
}

impl ExecStats {
    /// Records one observed fault by kind.
    pub fn record_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Transient => self.transient_faults += 1,
            FaultKind::Terminal => self.terminal_faults += 1,
        }
    }

    /// Records the outcome of one logical call: how many attempts it used
    /// and the faults it saw on the way.
    pub fn record_call(&mut self, attempts: u32, faults: &[FaultKind], succeeded: bool) {
        self.calls += 1;
        self.attempts += u64::from(attempts.max(1));
        self.retries += u64::from(attempts.saturating_sub(1));
        for k in faults {
            self.record_fault(*k);
        }
        if succeeded && attempts > 1 {
            self.recovered += 1;
        }
    }

    /// Folds another stats cell into this one (per-run → per-session
    /// aggregation).
    pub fn merge(&mut self, other: &ExecStats) {
        self.calls += other.calls;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.transient_faults += other.transient_faults;
        self.terminal_faults += other.terminal_faults;
        self.recovered += other.recovered;
        self.degraded += other.degraded;
    }
}

/// Stats shared between a client/factory and the executor that reads them.
pub type SharedExecStats = Arc<Mutex<ExecStats>>;

/// A fresh shared stats cell.
pub fn shared_stats() -> SharedExecStats {
    Arc::new(Mutex::new(ExecStats::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_single_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert!(!p.enabled());
        assert_eq!(p.backoff(2), Duration::ZERO);
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let p = RetryPolicy::retries(5);
        let b2 = p.backoff(2);
        let b3 = p.backoff(3);
        let b4 = p.backoff(4);
        assert_eq!(b2, p.backoff(2), "same seed, same attempt, same pause");
        assert!(b3 >= b2.saturating_sub(p.base_backoff), "roughly doubling");
        assert!(b4 > b2);
        // Jitter is bounded by half the base backoff.
        assert!(b2 <= p.base_backoff + p.base_backoff / 2 + Duration::from_micros(1));
    }

    #[test]
    fn different_seeds_give_different_jitter() {
        let a = RetryPolicy { jitter_seed: 1, ..RetryPolicy::retries(5) };
        let b = RetryPolicy { jitter_seed: 2, ..RetryPolicy::retries(5) };
        // Not guaranteed for every attempt, but across several attempts the
        // sequences must differ.
        let seq_a: Vec<_> = (2..8).map(|i| a.backoff(i)).collect();
        let seq_b: Vec<_> = (2..8).map(|i| b.backoff(i)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn stats_record_call_counts_retries_and_recoveries() {
        let mut s = ExecStats::default();
        s.record_call(1, &[], true);
        s.record_call(3, &[FaultKind::Transient, FaultKind::Transient], true);
        s.record_call(2, &[FaultKind::Transient, FaultKind::Terminal], false);
        assert_eq!(s.calls, 3);
        assert_eq!(s.attempts, 6);
        assert_eq!(s.retries, 3);
        assert_eq!(s.retries, s.attempts - s.calls);
        assert_eq!(s.transient_faults, 3);
        assert_eq!(s.terminal_faults, 1);
        assert_eq!(s.recovered, 1);
    }
}
