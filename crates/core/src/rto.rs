//! Adaptive retransmission timeout (RTO) estimation.
//!
//! The paper's CHANNEL uses a fixed step function of the fragment count for
//! its retransmission timer (Section 4): good when the network is quiet,
//! hopeless when latency is jittery or a link is congested — every loss is
//! detected exactly one fixed timeout late, and retransmissions pile on at
//! the same fixed cadence.
//!
//! [`RtoEstimator`] layers the classic Jacobson/Karels SRTT/RTTVAR
//! estimator on top, seeded from the step function so the *first* exchange
//! behaves exactly like the paper's (fault-free latency numbers are
//! unchanged):
//!
//! - smoothed RTT: `srtt ← 7/8·srtt + 1/8·sample`
//! - deviation:    `rttvar ← 3/4·rttvar + 1/4·|srtt − sample|`
//! - timeout:      `rto = srtt + 4·rttvar`, clamped to `[min_rto, max_rto]`
//!
//! Karn's rule is enforced by the callers: a sample is only fed for
//! exchanges that completed without a retransmission, since a reply after a
//! retransmission cannot be attributed to a particular send.
//!
//! Retransmissions back off exponentially ([`backoff_rto`]) with a
//! deterministic jitter *subtracted* (never added) so retries desynchronise
//! without ever extending the worst-case detection latency. The jitter draw
//! comes from the simulation PRNG and happens only on retransmission
//! attempts, so a fault-free run consumes exactly the same PRNG stream as
//! before this estimator existed.

/// Jacobson/Karels RTT estimator with paper-step-function seeding.
///
/// All times are nanoseconds of virtual time. Interior mutability is the
/// caller's problem (CHANNEL keeps one per protocol in a `RefCell`; Sun
/// RPC RR keeps one per protocol).
#[derive(Clone, Debug)]
pub struct RtoEstimator {
    /// Smoothed RTT; `None` until the first valid sample.
    srtt: Option<u64>,
    /// Mean deviation of the RTT.
    rttvar: u64,
    /// Initial RTO before any sample arrives (the paper's step function).
    initial: u64,
    /// Floor for the computed RTO.
    min_rto: u64,
    /// Ceiling for the computed RTO (also caps backoff).
    max_rto: u64,
}

impl RtoEstimator {
    /// A fresh estimator whose pre-sample RTO is `initial` (the paper's
    /// step-function value for the exchange at hand).
    pub fn new(initial: u64, min_rto: u64, max_rto: u64) -> RtoEstimator {
        RtoEstimator {
            srtt: None,
            rttvar: 0,
            initial: initial.clamp(min_rto, max_rto),
            min_rto,
            max_rto,
        }
    }

    /// True until the first RTT sample arrives.
    pub fn is_cold(&self) -> bool {
        self.srtt.is_none()
    }

    /// Feeds one RTT measurement. Callers must respect Karn's rule: only
    /// exchanges that completed without any retransmission qualify.
    pub fn observe(&mut self, sample: u64) {
        match self.srtt {
            None => {
                // First measurement: RFC 6298 §2.2.
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let err = srtt.abs_diff(sample);
                self.rttvar = (3 * self.rttvar + err) / 4;
                self.srtt = Some((7 * srtt + sample) / 8);
            }
        }
    }

    /// The current base RTO (before any backoff).
    pub fn rto(&self) -> u64 {
        match self.srtt {
            None => self.initial,
            Some(srtt) => (srtt + 4 * self.rttvar).clamp(self.min_rto, self.max_rto),
        }
    }

    /// Smoothed RTT estimate, or the seed value while cold. Surfaced via
    /// `ControlOp::GetRtt`.
    pub fn srtt(&self) -> u64 {
        self.srtt.unwrap_or(self.initial)
    }

    /// Forgets all samples and re-seeds with a new initial RTO (host
    /// reboot, or `ControlOp::SetTimeout`).
    pub fn reset(&mut self, initial: u64) {
        self.srtt = None;
        self.rttvar = 0;
        self.initial = initial.clamp(self.min_rto, self.max_rto);
    }
}

/// The RTO for retransmission attempt `attempt` (0 = first transmission).
///
/// Doubles per attempt up to `max_backoff` doublings, clamps to `max_rto`,
/// then subtracts `jitter_draw % (rto/8)` so concurrent retriers spread
/// out. Pass `jitter_draw = 0` on attempt 0 (no draw is made — keeps the
/// fault-free PRNG stream untouched).
pub fn backoff_rto(
    base: u64,
    attempt: u32,
    max_backoff: u32,
    max_rto: u64,
    jitter_draw: u64,
) -> u64 {
    let shift = attempt.min(max_backoff).min(20);
    let t = base.saturating_mul(1u64 << shift).min(max_rto).max(1);
    if attempt == 0 {
        return t;
    }
    t - jitter_draw % (t / 8).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_estimator_returns_seed() {
        let e = RtoEstimator::new(100_000_000, 1_000_000, 10_000_000_000);
        assert!(e.is_cold());
        assert_eq!(e.rto(), 100_000_000);
        assert_eq!(e.srtt(), 100_000_000);
    }

    #[test]
    fn first_sample_initialises_srtt_and_var() {
        let mut e = RtoEstimator::new(100_000_000, 1_000_000, 10_000_000_000);
        e.observe(8_000_000);
        assert_eq!(e.srtt(), 8_000_000);
        // rto = srtt + 4·(srtt/2) = 3·srtt
        assert_eq!(e.rto(), 24_000_000);
    }

    #[test]
    fn steady_samples_tighten_the_estimate() {
        let mut e = RtoEstimator::new(100_000_000, 1_000_000, 10_000_000_000);
        for _ in 0..50 {
            e.observe(10_000_000);
        }
        assert_eq!(e.srtt(), 10_000_000);
        // rttvar decays towards zero on a constant series; rto approaches
        // srtt (clamped to min).
        assert!(e.rto() < 12_000_000, "rto {} should tighten", e.rto());
        assert!(e.rto() >= 10_000_000);
    }

    #[test]
    fn jittery_samples_widen_the_estimate() {
        let mut steady = RtoEstimator::new(50_000_000, 1_000_000, 10_000_000_000);
        let mut jittery = steady.clone();
        for i in 0..50u64 {
            steady.observe(10_000_000);
            jittery.observe(if i % 2 == 0 { 5_000_000 } else { 15_000_000 });
        }
        assert!(
            jittery.rto() > steady.rto(),
            "variance must widen rto: {} vs {}",
            jittery.rto(),
            steady.rto()
        );
    }

    #[test]
    fn rto_respects_floor_and_ceiling() {
        let mut e = RtoEstimator::new(5_000_000, 4_000_000, 6_000_000);
        e.observe(10); // Tiny RTT → clamped up.
        assert_eq!(e.rto(), 4_000_000);
        let mut e = RtoEstimator::new(5_000_000, 4_000_000, 6_000_000);
        e.observe(1_000_000_000); // Huge RTT → clamped down.
        assert_eq!(e.rto(), 6_000_000);
    }

    #[test]
    fn reset_forgets_history() {
        let mut e = RtoEstimator::new(100, 1, 1_000_000_000);
        e.observe(500);
        assert!(!e.is_cold());
        e.reset(200);
        assert!(e.is_cold());
        assert_eq!(e.rto(), 200);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_rto(100, 0, 6, 10_000, 0), 100);
        assert_eq!(backoff_rto(100, 1, 6, 10_000, 0), 200);
        assert_eq!(backoff_rto(100, 3, 6, 10_000, 0), 800);
        // Backoff cap: attempts beyond max_backoff stop doubling.
        assert_eq!(backoff_rto(100, 9, 3, 1_000_000, 0), 800);
        // Ceiling cap.
        assert_eq!(backoff_rto(100, 6, 10, 3_000, 0), 3_000);
        // Backoff disabled entirely.
        assert_eq!(backoff_rto(100, 5, 0, 10_000, 0), 100);
    }

    #[test]
    fn jitter_subtracts_at_most_an_eighth() {
        let base = backoff_rto(8_000, 2, 6, 1_000_000, 0);
        for draw in [1u64, 7, 999, u64::MAX] {
            let t = backoff_rto(8_000, 2, 6, 1_000_000, draw);
            assert!(t <= base);
            assert!(t > base - base / 8 - 1, "jitter too deep: {t} vs {base}");
        }
    }
}
