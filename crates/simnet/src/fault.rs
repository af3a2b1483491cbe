//! Deterministic fault injection for the simulated wire.
//!
//! The paper's latency/throughput tests run on an isolated, essentially
//! loss-free Ethernet, but the protocols' interesting machinery (FRAGMENT's
//! persistence, CHANNEL's retransmission and at-most-once filtering) only
//! executes under faults. A [`FaultPlan`] decides, per transmitted packet,
//! whether to deliver, drop, duplicate, corrupt, or delay it. Decisions are
//! driven by the simulation's seeded PRNG and/or an explicit script, so every
//! failure scenario is exactly reproducible.
//!
//! A [`FaultSchedule`] lifts the per-packet plan into virtual time: it wraps
//! a base [`FaultPlan`] with *windows* — directional link partitions that
//! heal at a scheduled instant, burst-loss intervals, and per-destination
//! blackholes — so a scenario can express "the server is unreachable between
//! 100 ms and 400 ms" rather than only uniform randomness.

use std::sync::Arc;

use xkernel::map::Set;
use xkernel::prelude::EthAddr;

/// What should happen to one transmitted packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Deliver with one byte flipped at the default offset (just past the
    /// Ethernet framing, so checksummed network headers must reject it).
    Corrupt,
    /// Deliver with the byte at the given frame offset flipped (clamped to
    /// the last byte). Lets tests aim the flip at a specific layer's bytes,
    /// e.g. past the IP header so only the UDP checksum can catch it.
    CorruptAt(usize),
    /// Deliver, delayed by the given extra nanoseconds (causes reordering).
    Delay(u64),
}

/// A per-packet fault predicate (packet index on this LAN, frame bytes).
pub type FaultFn = Arc<dyn Fn(u64, &[u8]) -> FaultDecision + Send + Sync>;

/// Fault configuration for one LAN segment.
///
/// The three `*_per_mille` rates are interpreted as a single partition of
/// one 0..1000 draw (see [`FaultPlan::decide`]); values above 1000 are
/// clamped to 1000, and rates summing past 1000 saturate in listed order
/// (drop first, then duplicate, then corrupt).
#[derive(Clone, Default)]
pub struct FaultPlan {
    /// Probability of dropping a packet, in per-mille (0..=1000).
    pub drop_per_mille: u32,
    /// Probability of duplicating a packet, in per-mille.
    pub dup_per_mille: u32,
    /// Probability of corrupting a packet, in per-mille.
    pub corrupt_per_mille: u32,
    /// Maximum random extra delay (ns); non-zero values cause reordering.
    pub jitter_ns: u64,
    /// Packet indices to drop unconditionally. Indices are **per-LAN**
    /// transmission counters (each LAN counts its own frames from 0), not
    /// global across the simulation.
    pub drop_script: Set<u64>,
    /// Arbitrary custom decision, consulted first when present.
    pub custom: Option<FaultFn>,
}

impl FaultPlan {
    /// A plan that never injects faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan that drops packets with the given per-mille probability.
    pub fn lossy(drop_per_mille: u32) -> FaultPlan {
        FaultPlan {
            drop_per_mille,
            ..FaultPlan::default()
        }
    }

    /// A plan that drops exactly the listed packet indices (per-LAN counts).
    pub fn drop_exactly(indices: impl IntoIterator<Item = u64>) -> FaultPlan {
        FaultPlan {
            drop_script: indices.into_iter().collect(),
            ..FaultPlan::default()
        }
    }

    /// True when the plan can never perturb a packet (fast path).
    pub fn is_none(&self) -> bool {
        self.drop_per_mille == 0
            && self.dup_per_mille == 0
            && self.corrupt_per_mille == 0
            && self.jitter_ns == 0
            && self.drop_script.is_empty()
            && self.custom.is_none()
    }

    /// Checks the per-mille fields are in range and jointly meaningful.
    /// [`FaultPlan::decide`] clamps out-of-range values anyway; this lets a
    /// scenario author fail fast on a typo like `drop_per_mille: 2000`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("drop_per_mille", self.drop_per_mille),
            ("dup_per_mille", self.dup_per_mille),
            ("corrupt_per_mille", self.corrupt_per_mille),
        ] {
            if v > 1000 {
                return Err(format!("{name} is {v}; per-mille rates must be 0..=1000"));
            }
        }
        let sum = self.drop_per_mille + self.dup_per_mille + self.corrupt_per_mille;
        if sum > 1000 {
            return Err(format!(
                "drop+dup+corrupt rates sum to {sum} per mille; the excess never fires"
            ));
        }
        Ok(())
    }

    /// Decides the fate of packet `index` with frame contents `frame`;
    /// `rng` supplies fresh deterministic randomness per call.
    ///
    /// The three probabilistic faults partition a *single* 0..1000 draw —
    /// `[0, drop)` drops, `[drop, drop+dup)` duplicates,
    /// `[drop+dup, drop+dup+corrupt)` corrupts — so each rate is exact and
    /// unconditional. (Evaluating them as a sequence of independent draws
    /// would condition the later rates on the earlier ones: a 500‰ drop
    /// plus 500‰ dup would duplicate only 25 % of packets, not 50 %.)
    pub fn decide(&self, index: u64, frame: &[u8], mut rng: impl FnMut() -> u64) -> FaultDecision {
        if let Some(f) = &self.custom {
            let d = f(index, frame);
            if d != FaultDecision::Deliver {
                return d;
            }
        }
        if self.drop_script.contains(&index) {
            return FaultDecision::Drop;
        }
        let drop = u64::from(self.drop_per_mille.min(1000));
        let dup = u64::from(self.dup_per_mille.min(1000));
        let corrupt = u64::from(self.corrupt_per_mille.min(1000));
        if drop + dup + corrupt > 0 {
            let r = rng() % 1000;
            if r < drop {
                return FaultDecision::Drop;
            }
            if r < drop + dup {
                return FaultDecision::Duplicate;
            }
            if r < drop + dup + corrupt {
                return FaultDecision::Corrupt;
            }
        }
        if self.jitter_ns > 0 {
            return FaultDecision::Delay(rng() % self.jitter_ns);
        }
        FaultDecision::Deliver
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("drop_per_mille", &self.drop_per_mille)
            .field("dup_per_mille", &self.dup_per_mille)
            .field("corrupt_per_mille", &self.corrupt_per_mille)
            .field("jitter_ns", &self.jitter_ns)
            .field("drop_script", &self.drop_script)
            .field("custom", &self.custom.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// A time-bounded fault effect; active while `from_ns <= now < until_ns`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultWindow {
    /// Virtual time the effect starts (inclusive).
    pub from_ns: u64,
    /// Virtual time the effect heals (exclusive). `u64::MAX` never heals.
    pub until_ns: u64,
    /// What the window does to matching frames.
    pub effect: WindowEffect,
}

/// The effect a [`FaultWindow`] applies while active.
///
/// Address-matched effects apply to *unicast* frames only: the simulated
/// wire makes one fault decision per transmitted frame, and broadcast
/// frames (ARP) reach every receiver or none, so a directional partition
/// deliberately leaves broadcasts alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WindowEffect {
    /// Directional partition: frames from `from` to `to` are dropped.
    Partition {
        /// Sender whose frames are cut.
        from: EthAddr,
        /// Destination the sender cannot reach.
        to: EthAddr,
    },
    /// All unicast frames addressed to `dst` are dropped.
    Blackhole {
        /// The unreachable destination.
        dst: EthAddr,
    },
    /// Extra loss applied to every frame, in per-mille (clamped to 1000).
    BurstLoss {
        /// Drop probability during the window.
        drop_per_mille: u32,
    },
}

/// A time-varying fault configuration: a base [`FaultPlan`] composed with
/// zero or more scheduled [`FaultWindow`]s. Windows are consulted first, in
/// insertion order; the first one that claims the frame wins, and frames no
/// window claims fall through to the per-packet base plan.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// Per-packet decisions applied outside (or under) every window.
    pub base: FaultPlan,
    /// Scheduled effects, consulted in order.
    pub windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// A schedule that never injects faults.
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Wraps a plain per-packet plan (no windows).
    pub fn from_plan(base: FaultPlan) -> FaultSchedule {
        FaultSchedule {
            base,
            windows: Vec::new(),
        }
    }

    /// True when no packet can ever be perturbed (fast path).
    pub fn is_none(&self) -> bool {
        self.base.is_none() && self.windows.is_empty()
    }

    /// True when [`FaultSchedule::decide`] will actually look at the frame's
    /// bytes (only a custom [`FaultFn`] does); lets the wire skip
    /// materializing a contiguous copy of the frame otherwise.
    pub fn wants_frame_bytes(&self) -> bool {
        self.base.custom.is_some()
    }

    /// Adds a window (builder style).
    pub fn with_window(mut self, w: FaultWindow) -> FaultSchedule {
        self.windows.push(w);
        self
    }

    /// Adds a directional partition from `from` to `to` over `[from_ns, until_ns)`.
    pub fn partition(
        self,
        from: EthAddr,
        to: EthAddr,
        from_ns: u64,
        until_ns: u64,
    ) -> FaultSchedule {
        self.with_window(FaultWindow {
            from_ns,
            until_ns,
            effect: WindowEffect::Partition { from, to },
        })
    }

    /// Adds a symmetric partition between `a` and `b` over `[from_ns, until_ns)`.
    pub fn partition_both(
        self,
        a: EthAddr,
        b: EthAddr,
        from_ns: u64,
        until_ns: u64,
    ) -> FaultSchedule {
        self.partition(a, b, from_ns, until_ns)
            .partition(b, a, from_ns, until_ns)
    }

    /// Adds a blackhole for `dst` over `[from_ns, until_ns)`.
    pub fn blackhole(self, dst: EthAddr, from_ns: u64, until_ns: u64) -> FaultSchedule {
        self.with_window(FaultWindow {
            from_ns,
            until_ns,
            effect: WindowEffect::Blackhole { dst },
        })
    }

    /// Adds a burst-loss window over `[from_ns, until_ns)`.
    pub fn burst_loss(self, drop_per_mille: u32, from_ns: u64, until_ns: u64) -> FaultSchedule {
        self.with_window(FaultWindow {
            from_ns,
            until_ns,
            effect: WindowEffect::BurstLoss { drop_per_mille },
        })
    }

    /// Validates the base plan and every burst-loss rate.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        for w in &self.windows {
            if w.from_ns >= w.until_ns {
                return Err(format!(
                    "window [{}, {}) is empty or inverted",
                    w.from_ns, w.until_ns
                ));
            }
            if let WindowEffect::BurstLoss { drop_per_mille } = w.effect {
                if drop_per_mille > 1000 {
                    return Err(format!(
                        "burst loss rate {drop_per_mille} must be 0..=1000 per mille"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Decides the fate of a frame transmitted at virtual time `now` from
    /// `src` to `dst` (the frame's Ethernet addresses; `dst` may be
    /// broadcast). Falls through to the base plan when no window claims it.
    pub fn decide(
        &self,
        now: u64,
        index: u64,
        src: EthAddr,
        dst: EthAddr,
        frame: &[u8],
        mut rng: impl FnMut() -> u64,
    ) -> FaultDecision {
        for w in &self.windows {
            if now < w.from_ns || now >= w.until_ns {
                continue;
            }
            match w.effect {
                WindowEffect::Partition { from, to } => {
                    if src == from && dst == to {
                        return FaultDecision::Drop;
                    }
                }
                WindowEffect::Blackhole { dst: hole } => {
                    if dst == hole {
                        return FaultDecision::Drop;
                    }
                }
                WindowEffect::BurstLoss { drop_per_mille } => {
                    if rng() % 1000 < u64::from(drop_per_mille.min(1000)) {
                        return FaultDecision::Drop;
                    }
                }
            }
        }
        self.base.decide(index, frame, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_rng(vals: Vec<u64>) -> impl FnMut() -> u64 {
        let mut it = vals.into_iter().cycle();
        move || it.next().unwrap()
    }

    #[test]
    fn none_plan_always_delivers() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for i in 0..100 {
            assert_eq!(
                p.decide(i, &[0], fixed_rng(vec![i])),
                FaultDecision::Deliver
            );
        }
    }

    #[test]
    fn script_drops_exact_indices() {
        let p = FaultPlan::drop_exactly([3, 5]);
        assert_eq!(p.decide(3, &[], fixed_rng(vec![999])), FaultDecision::Drop);
        assert_eq!(p.decide(5, &[], fixed_rng(vec![999])), FaultDecision::Drop);
        assert_eq!(
            p.decide(4, &[], fixed_rng(vec![999])),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn probabilistic_drop_uses_rng() {
        let p = FaultPlan::lossy(500);
        assert_eq!(p.decide(0, &[], fixed_rng(vec![499])), FaultDecision::Drop);
        assert_eq!(
            p.decide(0, &[], fixed_rng(vec![500])),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn single_draw_partitions_the_rate_space() {
        // One draw, partitioned: each rate is exact over a full cycle of the
        // 0..1000 draw space, unconditioned on the other rates.
        let p = FaultPlan {
            drop_per_mille: 100,
            dup_per_mille: 50,
            corrupt_per_mille: 25,
            ..FaultPlan::default()
        };
        let mut counts = [0u32; 4]; // drop, dup, corrupt, deliver
        for r in 0..1000 {
            match p.decide(0, &[], fixed_rng(vec![r])) {
                FaultDecision::Drop => counts[0] += 1,
                FaultDecision::Duplicate => counts[1] += 1,
                FaultDecision::Corrupt => counts[2] += 1,
                FaultDecision::Deliver => counts[3] += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(counts, [100, 50, 25, 825]);
    }

    #[test]
    fn per_mille_rates_clamp_to_1000() {
        let p = FaultPlan::lossy(2000);
        assert!(p.validate().is_err());
        // Decide clamps: behaves exactly like 1000‰, never out of range.
        for r in [0, 500, 999] {
            assert_eq!(p.decide(0, &[], fixed_rng(vec![r])), FaultDecision::Drop);
        }
        let sum = FaultPlan {
            drop_per_mille: 600,
            dup_per_mille: 600,
            ..FaultPlan::default()
        };
        assert!(sum.validate().is_err());
        assert!(FaultPlan::lossy(1000).validate().is_ok());
    }

    #[test]
    fn custom_takes_precedence() {
        let p = FaultPlan {
            custom: Some(Arc::new(|i, _| {
                if i == 7 {
                    FaultDecision::Duplicate
                } else {
                    FaultDecision::Deliver
                }
            })),
            drop_script: [7u64].into_iter().collect(),
            ..FaultPlan::default()
        };
        // Custom says duplicate before the script can drop.
        assert_eq!(
            p.decide(7, &[], fixed_rng(vec![0])),
            FaultDecision::Duplicate
        );
    }

    #[test]
    fn jitter_delays() {
        let p = FaultPlan {
            jitter_ns: 100,
            ..FaultPlan::default()
        };
        match p.decide(0, &[], fixed_rng(vec![42])) {
            FaultDecision::Delay(d) => assert!(d < 100),
            other => panic!("expected delay, got {other:?}"),
        }
    }

    #[test]
    fn partition_is_directional_and_heals() {
        let a = EthAddr::from_index(1);
        let b = EthAddr::from_index(2);
        let s = FaultSchedule::none().partition(a, b, 100, 200);
        // Inside the window, a -> b is cut; b -> a is not.
        assert_eq!(
            s.decide(150, 0, a, b, &[], fixed_rng(vec![999])),
            FaultDecision::Drop
        );
        assert_eq!(
            s.decide(150, 0, b, a, &[], fixed_rng(vec![999])),
            FaultDecision::Deliver
        );
        // Before the start and at/after the healing instant: delivered.
        assert_eq!(
            s.decide(99, 0, a, b, &[], fixed_rng(vec![999])),
            FaultDecision::Deliver
        );
        assert_eq!(
            s.decide(200, 0, a, b, &[], fixed_rng(vec![999])),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn blackhole_drops_all_unicast_to_dst() {
        let a = EthAddr::from_index(1);
        let b = EthAddr::from_index(2);
        let c = EthAddr::from_index(3);
        let s = FaultSchedule::none().blackhole(b, 0, u64::MAX);
        assert_eq!(
            s.decide(5, 0, a, b, &[], fixed_rng(vec![999])),
            FaultDecision::Drop
        );
        assert_eq!(
            s.decide(5, 0, c, b, &[], fixed_rng(vec![999])),
            FaultDecision::Drop
        );
        assert_eq!(
            s.decide(5, 0, b, a, &[], fixed_rng(vec![999])),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn burst_loss_applies_only_inside_window() {
        let a = EthAddr::from_index(1);
        let b = EthAddr::from_index(2);
        let s = FaultSchedule::none().burst_loss(1000, 100, 200);
        assert_eq!(
            s.decide(150, 0, a, b, &[], fixed_rng(vec![0])),
            FaultDecision::Drop
        );
        assert_eq!(
            s.decide(250, 0, a, b, &[], fixed_rng(vec![0])),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn windows_compose_with_base_plan() {
        let a = EthAddr::from_index(1);
        let b = EthAddr::from_index(2);
        let s = FaultSchedule::from_plan(FaultPlan::lossy(500)).partition(a, b, 0, 100);
        // Outside the window the base plan still decides.
        assert_eq!(
            s.decide(500, 0, a, b, &[], fixed_rng(vec![499])),
            FaultDecision::Drop
        );
        assert_eq!(
            s.decide(500, 0, a, b, &[], fixed_rng(vec![500])),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn schedule_validate_rejects_bad_windows() {
        let a = EthAddr::from_index(1);
        let b = EthAddr::from_index(2);
        assert!(FaultSchedule::none()
            .partition(a, b, 200, 100)
            .validate()
            .is_err());
        assert!(FaultSchedule::none()
            .burst_loss(1500, 0, 100)
            .validate()
            .is_err());
        assert!(FaultSchedule::none()
            .partition_both(a, b, 0, 100)
            .validate()
            .is_ok());
    }
}
