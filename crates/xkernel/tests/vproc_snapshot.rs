//! Snapshot/restore over suspended machine continuations: pause a run
//! mid-blocking-point with [`Sim::run_until_time`], capture it with
//! [`Sim::snapshot`], and prove the restored tail is bit-identical to the
//! uninterrupted run — the continuation state of a [`VProc`] round-trips
//! through the snapshot as pure data.

use std::cell::RefCell;
use std::rc::Rc;

use xkernel::cost::CostModel;
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig, Time, VProc, VStep, WakeReason};

/// A machine that logs the virtual time of each tick. `fork` clones the
/// whole continuation — tick counter, period, and the shared log handle.
#[derive(Clone)]
struct Ticker {
    left: u32,
    period: u64,
    log: Rc<RefCell<Vec<(u32, Time)>>>,
    id: u32,
}

impl VProc for Ticker {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        if self.left == 0 {
            return VStep::Done;
        }
        self.log.borrow_mut().push((self.id, ctx.now()));
        self.left -= 1;
        VStep::Sleep(self.period)
    }

    fn fork(&self) -> Option<Box<dyn VProc>> {
        Some(Box::new(self.clone()))
    }

    fn label(&self) -> &'static str {
        "ticker"
    }
}

fn build(log: &Rc<RefCell<Vec<(u32, Time)>>>) -> Sim {
    let sim = Sim::new(
        SimConfig::scheduled()
            .with_seed(11)
            .with_cost(CostModel::zero()),
    );
    let _a = Kernel::new(&sim, "a");
    let _b = Kernel::new(&sim, "b");
    for (id, (host, left, period)) in [(0usize, 5u32, 1_000u64), (1, 3, 1_700), (0, 4, 2_300)]
        .into_iter()
        .enumerate()
    {
        sim.spawn_vproc(
            HostId(host),
            Box::new(Ticker {
                left,
                period,
                log: Rc::clone(log),
                id: id as u32,
            }),
        );
    }
    sim
}

#[test]
fn restored_tail_is_bit_identical_to_the_uninterrupted_run() {
    // Reference: one uninterrupted run.
    let ref_log = Rc::new(RefCell::new(Vec::new()));
    let ref_report = build(&ref_log).run_until_idle();
    assert_eq!(ref_report.blocked, 0);
    let ref_ticks = ref_log.borrow().clone();
    assert_eq!(ref_ticks.len(), 5 + 3 + 4);

    // Same workload, paused mid-sleep: every machine is suspended at a
    // timer blocking point, which is exactly the snapshot-eligible state.
    let log = Rc::new(RefCell::new(Vec::new()));
    let sim = build(&log);
    let pause = sim.run_until_time(3_000);
    assert!(pause.events > 0, "the pause point is mid-run");
    let snap = sim
        .snapshot()
        .expect("paused machines are snapshot-eligible");
    let ticks_at_pause = log.borrow().len();
    assert!(ticks_at_pause > 0 && ticks_at_pause < ref_ticks.len());

    // Finish the paused run: cumulative report equals the reference.
    let finished = sim.run_until_idle();
    assert_eq!(finished, ref_report, "pausing must not perturb the run");
    assert_eq!(*log.borrow_mut(), ref_ticks);

    // Rewind and replay the tail: the final report — events, ended_at,
    // sched_hash, fuel_used — must land on the same bits again.
    sim.restore(&snap).expect("drained sim restores");
    let replayed = sim.run_until_idle();
    assert_eq!(replayed, ref_report, "restored tail diverged");

    // The log now holds the full run plus the replayed tail, and the
    // replayed tail is tick-for-tick the suffix of the reference.
    let all = log.borrow().clone();
    assert_eq!(all[..ref_ticks.len()], ref_ticks[..]);
    assert_eq!(all[ref_ticks.len()..], ref_ticks[ticks_at_pause..]);
}

#[test]
fn coroutines_are_not_snapshot_eligible() {
    // A suspended *coroutine* is a live stack, not pure data: snapshot
    // must refuse, not silently drop it.
    let sim = Sim::new(
        SimConfig::scheduled()
            .with_seed(3)
            .with_cost(CostModel::zero()),
    );
    let _k = Kernel::new(&sim, "h");
    sim.spawn(HostId(0), |ctx| ctx.sleep(10_000));
    let paused = sim.run_until_time(5_000);
    assert_eq!(paused.blocked, 1);
    assert!(
        sim.snapshot().is_err(),
        "a parked coroutine must block the snapshot"
    );
    sim.run_until_idle();
}

#[test]
fn snapshot_can_fork_a_paused_population_twice() {
    // Restore is not single-shot: the same snapshot replays its tail
    // repeatedly, landing on the same report each time (the fork/bisect
    // workflow of the journal layer depends on this).
    let log = Rc::new(RefCell::new(Vec::new()));
    let sim = build(&log);
    sim.run_until_time(2_500);
    let snap = sim.snapshot().expect("eligible at the pause point");
    let first = sim.run_until_idle();
    for _ in 0..2 {
        sim.restore(&snap).expect("restore replays");
        assert_eq!(sim.run_until_idle(), first);
    }
}

/// A drained `hosts`-host simulator whose clock stands at `at`: one
/// machine on host 0 ticks once at 0, sleeps until `at`, then exits.
fn drained_at(hosts: usize, at: u64) -> Sim {
    let sim = Sim::new(
        SimConfig::scheduled()
            .with_seed(5)
            .with_cost(CostModel::zero()),
    );
    for h in 0..hosts {
        let _k = Kernel::new(&sim, &format!("h{h}"));
    }
    sim.spawn_vproc(
        HostId(0),
        Box::new(Ticker {
            left: 1,
            period: at,
            log: Rc::new(RefCell::new(Vec::new())),
            id: 0,
        }),
    );
    sim.run_until_idle();
    assert_eq!(sim.virtual_now(), at);
    sim
}

#[test]
fn a_refused_restore_leaves_the_simulator_untouched() {
    let snap = drained_at(2, 1_000)
        .snapshot()
        .expect("drained sim snapshots");
    let sim = drained_at(3, 50_000);
    let control = drained_at(3, 50_000);
    let hash = sim.sched_hash();

    assert!(
        sim.restore(&snap).is_err(),
        "a 2-host snapshot must not restore into a 3-host simulator"
    );
    assert_eq!(sim.virtual_now(), 50_000, "refused restore moved the clock");
    assert_eq!(sim.sched_hash(), hash, "refused restore moved sched_hash");

    // The simulator runs on exactly as one that never saw the snapshot.
    let tick = |s: &Sim| {
        s.spawn_vproc(
            HostId(2),
            Box::new(Ticker {
                left: 3,
                period: 700,
                log: Rc::new(RefCell::new(Vec::new())),
                id: 1,
            }),
        );
        s.run_until_idle()
    };
    assert_eq!(tick(&sim), tick(&control));
}
