//! xcheck's dynamic half: vector-clock happens-before tracking and
//! violation detection for the shepherd-process machinery.
//!
//! [`CheckCore`] mirrors the synchronization events `sim.rs` performs —
//! process spawns, semaphore P/V, wakes, crashes — into per-process vector
//! clocks and a resource-holding table, entirely behind the simulator's
//! `check_on` flag (the same zero-overhead-when-disabled discipline as
//! xtrace: a plain bool guards every hook, and the checker's state is a
//! leaf borrow taken last). Four violation classes are detected:
//!
//! * **Double wait** — a process P's a semaphore it already holds a unit
//!   of: with a binary count that is self-deadlock.
//! * **Lost wakeup** — a wake arrives for a process that is gone or not
//!   blocked (outside a crash, where purged wakes are expected), or a
//!   process is still blocked at queue drain with no pending signaler.
//! * **Deadlock cycle** — the wait-for graph over blocked processes
//!   (process → awaited semaphore → holders) contains a cycle.
//! * **Cross-host signal** — a V (or wake) whose releaser runs on a
//!   different simulated host than the waiter: shared-memory signalling
//!   across machines that real hardware would not provide.
//!
//! Every violation carries the event index it surfaced at and renders a
//! replayable repro string over the run's `(seed, sched_trace_hash)` pair
//! — re-running the same scenario with the same seed and scheduler
//! decisions reproduces the violation at the same index.

use std::fmt;

use crate::map::{Map, Set};
use crate::sim::Time;

/// A vector clock: logical-process id → last observed tick of that
/// process. Sparse, since most processes never synchronize.
pub type VClock = Map<u64, u64>;

/// The class of a detected concurrency violation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ViolationKind {
    /// P on a semaphore the process already holds a unit of.
    DoubleWait,
    /// A wake with no blocked waiter, or a waiter no signal can reach.
    LostWakeup,
    /// A cycle in the wait-for graph over blocked processes.
    DeadlockCycle,
    /// A V/wake crossing simulated-host boundaries.
    CrossHostSignal,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::DoubleWait => "DoubleWait",
            ViolationKind::LostWakeup => "LostWakeup",
            ViolationKind::DeadlockCycle => "DeadlockCycle",
            ViolationKind::CrossHostSignal => "CrossHostSignal",
        })
    }
}

/// One detected violation, with everything needed to reproduce it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The logical process at the center of the violation.
    pub lp: u64,
    /// The host that process runs (or ran) on.
    pub host: usize,
    /// The semaphore involved, by label, if one is.
    pub sema: Option<&'static str>,
    /// For deadlocks: the cycle, alternating `lp<N>` and semaphore labels,
    /// closed (first element repeated last).
    pub cycle: Vec<String>,
    /// Scheduler event index the violation surfaced at.
    pub event_index: u64,
    /// Virtual time the violation surfaced at.
    pub time: Time,
    /// Human-readable description.
    pub detail: String,
}

impl Violation {
    /// Renders the replayable repro string for this violation under the
    /// run's seed and schedule hash. Parse it back with [`parse_repro`].
    pub fn repro(&self, seed: u64, sched_hash: u64) -> String {
        format!(
            "xcheck://seed=0x{seed:x}/sched=0x{sched_hash:016x}/ev={}",
            self.event_index
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lp{} host{} ev{} t{}: {}",
            self.kind, self.lp, self.host, self.event_index, self.time, self.detail
        )
    }
}

/// A parsed repro string: the coordinates that pin one violation to one
/// schedule of one seeded run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repro {
    /// The run's PRNG seed.
    pub seed: u64,
    /// The run's scheduler-trace hash (every popped event folded in order).
    pub sched_hash: u64,
    /// The event index the violation surfaced at.
    pub event_index: u64,
}

/// Parses a string produced by [`Violation::repro`].
pub fn parse_repro(s: &str) -> Option<Repro> {
    let rest = s.strip_prefix("xcheck://")?;
    let mut seed = None;
    let mut sched = None;
    let mut ev = None;
    for part in rest.split('/') {
        let (k, v) = part.split_once('=')?;
        match k {
            "seed" => seed = u64::from_str_radix(v.strip_prefix("0x")?, 16).ok(),
            "sched" => sched = u64::from_str_radix(v.strip_prefix("0x")?, 16).ok(),
            "ev" => ev = v.parse().ok(),
            _ => return None,
        }
    }
    Some(Repro {
        seed: seed?,
        sched_hash: sched?,
        event_index: ev?,
    })
}

/// Summary of what the checker observed, returned by `Sim::check_report`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Whether checking was enabled (all other fields are empty if not).
    pub enabled: bool,
    /// Every violation detected, in detection order (deadlock/lost-wakeup
    /// scans of still-blocked processes run at report time and come last).
    pub violations: Vec<Violation>,
    /// Happens-before edges recorded (clock joins through semaphores and
    /// spawns): evidence the tracking was live.
    pub hb_edges: u64,
    /// Logical processes that were tracked.
    pub lps: usize,
    /// Distinct semaphores that participated in a P or V.
    pub semas: usize,
}

/// Per-process wait bookkeeping: which semaphore a blocked process is
/// parked on.
#[derive(Clone, Copy)]
struct Waiting {
    sema: u64,
    label: &'static str,
}

/// The checker state. Lives in `SimCore::check` (a leaf `RefCell`) and is
/// only ever touched when `check_on` is set.
#[derive(Default)]
pub(crate) struct CheckCore {
    /// Mirrors of the scheduler's event counter and clock, updated as each
    /// event is popped, so violations can cite their position.
    event_index: u64,
    now: Time,
    /// Per-process vector clocks.
    clocks: Map<u64, VClock>,
    /// Clock deposited at the last V of each semaphore; joined by the
    /// acquirer (the semaphore happens-before edge).
    sema_deposit: Map<u64, VClock>,
    /// Clock deposited by a spawner, keyed by the spawned Run event's seq;
    /// consumed when the new process starts (the fork edge).
    spawn_deposit: Map<u64, VClock>,
    /// Units currently held: (lp, sema) → count.
    held: Map<(u64, u64), u64>,
    /// Blocked processes and the semaphore each waits on.
    waiting: Map<u64, Waiting>,
    /// Semaphore id → label, for reporting.
    sema_label: Map<u64, &'static str>,
    /// lp → host.
    lp_host: Map<u64, usize>,
    /// Processes whose host crashed: their purged wakes are not lost
    /// wakeups.
    crashed: Set<u64>,
    /// Semaphores proven signal-style: some V came from a process holding
    /// no unit (a reply/condition semaphore, not a mutex). Holding-based
    /// checks (double wait, wait-for-graph holders) only apply to
    /// lock-style semaphores, where P and V pair within one process.
    signal_style: Set<u64>,
    hb_edges: u64,
    violations: Vec<Violation>,
}

impl CheckCore {
    fn tick(&mut self, lp: u64) {
        *self.clocks.entry(lp).or_default().entry(lp).or_insert(0) += 1;
    }

    fn join_from(&mut self, lp: u64, src: VClock) {
        let dst = self.clocks.entry(lp).or_default();
        for (k, v) in src {
            let e = dst.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
        self.hb_edges += 1;
    }

    fn snapshot(&mut self, lp: u64) -> VClock {
        self.tick(lp);
        self.clocks.get(&lp).cloned().unwrap_or_default()
    }

    fn host_of(&self, lp: u64) -> usize {
        self.lp_host.get(&lp).copied().unwrap_or(usize::MAX)
    }

    /// Called once per popped scheduler event.
    pub(crate) fn tick_event(&mut self, index: u64, now: Time) {
        self.event_index = index;
        self.now = now;
    }

    /// A process scheduled a Run event (spawn or timer): deposit its clock
    /// under the event's seq so the new process inherits it.
    pub(crate) fn on_spawn(&mut self, lp: u64, seq: u64) {
        let snap = self.snapshot(lp);
        self.spawn_deposit.insert(seq, snap);
    }

    /// A Run event started a fresh process.
    pub(crate) fn on_lp_start(&mut self, lp: u64, host: usize, seq: u64) {
        self.lp_host.insert(lp, host);
        self.tick(lp);
        if let Some(dep) = self.spawn_deposit.remove(&seq) {
            self.join_from(lp, dep);
        }
    }

    /// The process's host crashed (its pending wakes were purged).
    pub(crate) fn on_lp_killed(&mut self, lp: u64) {
        self.crashed.insert(lp);
        self.waiting.remove(&lp);
    }

    /// A Wake event found no blocked waiter.
    pub(crate) fn on_stale_wake(&mut self, lp: u64) {
        if self.crashed.contains(&lp) {
            return; // the crash purge races a late V; expected
        }
        self.violations.push(Violation {
            kind: ViolationKind::LostWakeup,
            lp,
            host: self.host_of(lp),
            sema: None,
            cycle: Vec::new(),
            event_index: self.event_index,
            time: self.now,
            detail: format!(
                "wake delivered to lp{lp}, which is not blocked: the signal \
                 raced its consumer and is lost"
            ),
        });
    }

    /// Non-blocking acquire (count was positive).
    pub(crate) fn on_acquire(&mut self, lp: u64, sema: u64, label: &'static str, host: usize) {
        self.lp_host.entry(lp).or_insert(host);
        self.sema_label.insert(sema, label);
        self.tick(lp);
        if let Some(dep) = self.sema_deposit.get(&sema).cloned() {
            self.join_from(lp, dep);
        }
        *self.held.entry((lp, sema)).or_insert(0) += 1;
    }

    /// The process is about to block on `sema`.
    pub(crate) fn on_wait_begin(&mut self, lp: u64, sema: u64, label: &'static str, host: usize) {
        self.lp_host.entry(lp).or_insert(host);
        self.sema_label.insert(sema, label);
        self.tick(lp);
        if !self.signal_style.contains(&sema)
            && self.held.get(&(lp, sema)).copied().unwrap_or(0) > 0
        {
            self.violations.push(Violation {
                kind: ViolationKind::DoubleWait,
                lp,
                host,
                sema: Some(label),
                cycle: Vec::new(),
                event_index: self.event_index,
                time: self.now,
                detail: format!(
                    "lp{lp} blocks on semaphore '{label}' while already holding a \
                     unit of it: nothing else can V it first (recursive acquire)"
                ),
            });
        }
        self.waiting.insert(lp, Waiting { sema, label });
    }

    /// The blocked process resumed; `acquired` is false on timeout.
    pub(crate) fn on_wait_end(&mut self, lp: u64, sema: u64, acquired: bool) {
        self.waiting.remove(&lp);
        self.tick(lp);
        if acquired {
            if let Some(dep) = self.sema_deposit.get(&sema).cloned() {
                self.join_from(lp, dep);
            }
            *self.held.entry((lp, sema)).or_insert(0) += 1;
        }
    }

    /// A V: the releaser's clock is deposited on the semaphore; a directly
    /// woken waiter is checked for host affinity.
    pub(crate) fn on_release(
        &mut self,
        lp: Option<u64>,
        sema: u64,
        label: &'static str,
        host: usize,
        woken: Option<u64>,
    ) {
        self.sema_label.insert(sema, label);
        match lp {
            Some(lp) => {
                let snap = self.snapshot(lp);
                self.sema_deposit.insert(sema, snap);
                let h = self.held.entry((lp, sema)).or_insert(0);
                if *h == 0 {
                    // A V from a non-holder: this is a signal, not an
                    // unlock — holding-based checks no longer apply.
                    self.signal_style.insert(sema);
                } else {
                    *h -= 1;
                }
            }
            None => {
                self.signal_style.insert(sema);
            }
        }
        if let Some(w) = woken {
            let waiter_host = self.host_of(w);
            if waiter_host != usize::MAX && waiter_host != host {
                self.violations.push(Violation {
                    kind: ViolationKind::CrossHostSignal,
                    lp: w,
                    host: waiter_host,
                    sema: Some(label),
                    cycle: Vec::new(),
                    event_index: self.event_index,
                    time: self.now,
                    detail: format!(
                        "semaphore '{label}' V'd from host{host} wakes lp{w} on \
                         host{waiter_host}: cross-host shared-memory signalling \
                         that real machines cannot perform"
                    ),
                });
            }
        }
    }

    /// Builds the final report. `blocked` lists the processes still parked
    /// when the event queue drained (sorted by the caller): the wait-for
    /// graph over them yields deadlock cycles; blocked processes outside
    /// any cycle are lost wakeups (nothing pending can signal them).
    pub(crate) fn report(&self, blocked: &[u64]) -> CheckReport {
        let mut violations = self.violations.clone();
        // sema → holders, lock-style semaphores only (a signal-style
        // sema's "holders" are just past waiters), sorted for
        // deterministic cycle enumeration.
        let mut holders: Map<u64, Vec<u64>> = Map::default();
        for (&(lp, sema), &n) in &self.held {
            if n > 0 && !self.signal_style.contains(&sema) {
                holders.entry(sema).or_default().push(lp);
            }
        }
        for hs in holders.values_mut() {
            hs.sort_unstable();
        }
        let mut in_cycle: Set<u64> = Set::default();
        let mut reported: Set<Vec<u64>> = Set::default();
        for &start in blocked {
            let mut path: Vec<u64> = Vec::new();
            self.find_cycles(
                start,
                &holders,
                &mut path,
                &mut in_cycle,
                &mut reported,
                &mut violations,
            );
        }
        for &lp in blocked {
            if !in_cycle.contains(&lp) {
                let w = self.waiting.get(&lp);
                violations.push(Violation {
                    kind: ViolationKind::LostWakeup,
                    lp,
                    host: self.host_of(lp),
                    sema: w.map(|w| w.label),
                    cycle: Vec::new(),
                    event_index: self.event_index,
                    time: self.now,
                    detail: match w {
                        Some(w) => format!(
                            "lp{lp} is still blocked on '{}' at queue drain with no \
                             pending signaler: the wakeup was lost",
                            w.label
                        ),
                        None => format!("lp{lp} is blocked outside any tracked semaphore wait"),
                    },
                });
            }
        }
        CheckReport {
            enabled: true,
            violations,
            hb_edges: self.hb_edges,
            lps: self.clocks.len(),
            semas: self.sema_label.len(),
        }
    }

    /// DFS over the wait-for graph (lp → awaited sema → holder lps). On a
    /// cycle, reports it once (normalized to start at its smallest lp).
    fn find_cycles(
        &self,
        lp: u64,
        holders: &Map<u64, Vec<u64>>,
        path: &mut Vec<u64>,
        in_cycle: &mut Set<u64>,
        reported: &mut Set<Vec<u64>>,
        violations: &mut Vec<Violation>,
    ) {
        if let Some(pos) = path.iter().position(|&p| p == lp) {
            let cycle_lps: Vec<u64> = path[pos..].to_vec();
            // Normalize: rotate so the smallest lp leads.
            let min_idx = cycle_lps
                .iter()
                .enumerate()
                .min_by_key(|(_, &v)| v)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut normalized: Vec<u64> = cycle_lps[min_idx..].to_vec();
            normalized.extend_from_slice(&cycle_lps[..min_idx]);
            if !reported.insert(normalized.clone()) {
                return;
            }
            in_cycle.extend(&normalized);
            // Render the closed cycle alternating lp and sema labels.
            let mut cycle: Vec<String> = Vec::new();
            let mut prose: Vec<String> = Vec::new();
            for (i, &p) in normalized.iter().enumerate() {
                let w = self.waiting.get(&p).expect("cycle member is blocked");
                cycle.push(format!("lp{p}"));
                cycle.push(w.label.to_string());
                let next = normalized[(i + 1) % normalized.len()];
                prose.push(format!("lp{p} waits on '{}' held by lp{next}", w.label));
            }
            cycle.push(format!("lp{}", normalized[0]));
            let head = normalized[0];
            violations.push(Violation {
                kind: ViolationKind::DeadlockCycle,
                lp: head,
                host: self.host_of(head),
                sema: self.waiting.get(&head).map(|w| w.label),
                cycle,
                event_index: self.event_index,
                time: self.now,
                detail: format!("deadlock cycle: {}", prose.join("; ")),
            });
            return;
        }
        let Some(w) = self.waiting.get(&lp) else {
            return; // not blocked on anything tracked: chain ends
        };
        path.push(lp);
        if let Some(hs) = holders.get(&w.sema) {
            for &h in hs {
                if h != lp {
                    self.find_cycles(h, holders, path, in_cycle, reported, violations);
                }
            }
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_strings_roundtrip() {
        let v = Violation {
            kind: ViolationKind::DeadlockCycle,
            lp: 3,
            host: 0,
            sema: Some("A"),
            cycle: Vec::new(),
            event_index: 41,
            time: 1000,
            detail: String::new(),
        };
        let s = v.repro(0x5eed, 0xdead_beef_cafe_f00d);
        let r = parse_repro(&s).expect("parses");
        assert_eq!(
            r,
            Repro {
                seed: 0x5eed,
                sched_hash: 0xdead_beef_cafe_f00d,
                event_index: 41
            }
        );
        assert!(parse_repro("xcheck://seed=0x1/bogus=2").is_none());
        assert!(parse_repro("not-a-repro").is_none());
    }

    #[test]
    fn wait_for_cycle_is_detected_and_normalized() {
        let mut c = CheckCore::default();
        // lp0 holds A waits B; lp1 holds B waits A.
        c.on_acquire(0, 100, "A", 0);
        c.on_acquire(1, 101, "B", 0);
        c.on_wait_begin(0, 101, "B", 0);
        c.on_wait_begin(1, 100, "A", 0);
        let r = c.report(&[0, 1]);
        let dead: Vec<&Violation> = r
            .violations
            .iter()
            .filter(|v| v.kind == ViolationKind::DeadlockCycle)
            .collect();
        assert_eq!(dead.len(), 1, "{:?}", r.violations);
        assert_eq!(dead[0].lp, 0);
        assert_eq!(dead[0].cycle, vec!["lp0", "B", "lp1", "A", "lp0"]);
        // Both members are in the cycle: no LostWakeup reported.
        assert!(!r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::LostWakeup));
    }

    #[test]
    fn blocked_without_signaler_is_a_lost_wakeup() {
        let mut c = CheckCore::default();
        c.on_wait_begin(0, 100, "orphan", 0);
        let r = c.report(&[0]);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, ViolationKind::LostWakeup);
        assert_eq!(r.violations[0].sema, Some("orphan"));
    }

    #[test]
    fn double_wait_and_cross_host_fire() {
        let mut c = CheckCore::default();
        c.on_acquire(0, 100, "pool", 0);
        c.on_wait_begin(0, 100, "pool", 0);
        assert_eq!(c.violations.len(), 1);
        assert_eq!(c.violations[0].kind, ViolationKind::DoubleWait);
        // lp1 on host1 is woken by a V from host0.
        c.on_wait_begin(1, 101, "xhost", 1);
        c.on_release(Some(2), 101, "xhost", 0, Some(1));
        assert!(c
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::CrossHostSignal && v.lp == 1));
    }

    #[test]
    fn clocks_join_through_semaphores_and_spawns() {
        let mut c = CheckCore::default();
        c.on_lp_start(0, 0, 0);
        c.on_spawn(0, 7);
        c.on_lp_start(1, 0, 7);
        // lp1 inherited lp0's clock through the spawn deposit.
        assert!(c.clocks[&1].contains_key(&0));
        let edges_after_spawn = c.hb_edges;
        assert!(edges_after_spawn >= 1);
        // lp0 V's, lp1 acquires: lp1 joins lp0's newer clock.
        c.on_release(Some(0), 100, "s", 0, None);
        c.on_acquire(1, 100, "s", 0);
        assert!(c.hb_edges > edges_after_spawn);
        assert!(c.clocks[&1][&0] >= c.clocks[&0][&0] - 1);
    }
}
