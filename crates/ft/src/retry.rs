//! Supervisor retry policy: exponential backoff with deterministic jitter
//! and a hard retry budget.
//!
//! Used by the `feves serve` farm supervisor to pace session restarts after
//! a panic or device fault. The delay for attempt `k` is
//! `base · 2^k + jitter`, where the jitter is a pure function of
//! `(seed, attempt)` bounded to half the exponential term — deterministic,
//! so chaos tests replay exactly, yet decorrelated across jobs when each
//! job derives its seed from its id (no thundering-herd restart).

use std::time::Duration;

use crate::splitmix64;

/// Exponential backoff + deterministic jitter + budget.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Delay of attempt 0 before jitter.
    pub base: Duration,
    /// Ceiling for the exponential term (jitter may exceed it by ≤ 50%).
    pub max_delay: Duration,
    /// Total retries allowed (0 = never retry).
    pub budget: u32,
    /// Jitter seed; derive per job (e.g. from the job id) to decorrelate.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy with `budget` retries starting at `base`, capped at 30 s.
    pub fn new(base: Duration, budget: u32, seed: u64) -> Self {
        RetryPolicy {
            base,
            max_delay: Duration::from_secs(30),
            budget,
            seed,
        }
    }

    /// Whether retry attempt `attempt` (0-based) is within the budget.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.budget
    }

    /// Deterministic delay before retry attempt `attempt` (0-based):
    /// `min(base · 2^attempt, max_delay)` plus a jitter in `[0, term/2]`
    /// hashed from `(seed, attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .min(self.max_delay);
        let span_ms = exp.as_millis() as u64 / 2 + 1;
        let jitter_ms = splitmix64(self.seed ^ u64::from(attempt).rotate_left(32)) % span_ms;
        exp + Duration::from_millis(jitter_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_bounds_attempts() {
        let p = RetryPolicy::new(Duration::from_millis(10), 3, 42);
        assert!(p.allows(0));
        assert!(p.allows(2));
        assert!(!p.allows(3));
        let zero = RetryPolicy::new(Duration::from_millis(10), 0, 42);
        assert!(!zero.allows(0));
    }

    #[test]
    fn delay_grows_exponentially_with_bounded_jitter() {
        let p = RetryPolicy::new(Duration::from_millis(100), 8, 7);
        for attempt in 0..6 {
            let exp = Duration::from_millis(100 * (1 << attempt));
            let d = p.delay(attempt);
            assert!(d >= exp, "attempt {attempt}: {d:?} < {exp:?}");
            assert!(
                d <= exp + exp / 2 + Duration::from_millis(1),
                "attempt {attempt}: jitter exceeds half the exponential term"
            );
        }
    }

    #[test]
    fn delay_is_deterministic_per_seed_and_decorrelated_across_seeds() {
        let a = RetryPolicy::new(Duration::from_millis(50), 8, 1);
        let b = RetryPolicy::new(Duration::from_millis(50), 8, 1);
        let c = RetryPolicy::new(Duration::from_millis(50), 8, 2);
        let seq =
            |p: &RetryPolicy| -> Vec<Duration> { (0..8).map(|k| p.delay(k)).collect::<Vec<_>>() };
        assert_eq!(seq(&a), seq(&b), "same seed must replay exactly");
        assert_ne!(seq(&a), seq(&c), "different seeds must decorrelate");
    }

    #[test]
    fn delay_caps_and_never_overflows() {
        let p = RetryPolicy::new(Duration::from_secs(1), u32::MAX, 3);
        let d = p.delay(200);
        assert!(d >= Duration::from_secs(30));
        assert!(d <= Duration::from_secs(45) + Duration::from_millis(1));
    }
}
