//! Property tests for the vproc engine's replay stability: the scheduler
//! is a pure function of its inputs, so running the *same* generated
//! workload twice must produce bit-identical [`RunReport`]s — the same
//! event count, the same `sched_hash` interleaving fingerprint, the same
//! `fuel_used` — with no tolerance. Coroutines, stackless machines, timer
//! sleeps, semaphore waits with and without timeouts, and fuel-exhaustion
//! kills all go through the generator.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use xkernel::cost::CostModel;
use xkernel::prelude::*;
use xkernel::sim::{RunReport, SharedSema, Sim, SimConfig, VProc, VStep, WakeReason};

/// A machine that V's `sema` `left` times, `period` ns apart.
#[derive(Clone)]
struct Pinger {
    left: u32,
    period: u64,
    sema: SharedSema,
}

impl VProc for Pinger {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        if self.left == 0 {
            return VStep::Done;
        }
        self.left -= 1;
        self.sema.v(ctx);
        VStep::Sleep(self.period)
    }

    fn label(&self) -> &'static str {
        "pinger"
    }
}

/// A machine that waits on `sema` `left` times under a timeout, tallying
/// how each wait concluded. Always terminates: the timeout is its floor.
#[derive(Clone)]
struct Poller {
    left: u32,
    timeout: u64,
    sema: SharedSema,
    timeouts: Rc<RefCell<u32>>,
}

impl VProc for Poller {
    fn resume(&mut self, ctx: &Ctx, why: WakeReason) -> VStep {
        let _ = ctx;
        if matches!(why, WakeReason::Timeout) {
            *self.timeouts.borrow_mut() += 1;
        }
        if self.left == 0 {
            return VStep::Done;
        }
        self.left -= 1;
        VStep::Wait {
            sema: self.sema.clone(),
            timeout: Some(self.timeout),
        }
    }

    fn label(&self) -> &'static str {
        "poller"
    }
}

/// One generated workload: a few pingers feeding a coroutine waiter and a
/// timeout poller, spread over two hosts.
#[derive(Clone, Debug)]
struct Workload {
    seed: u64,
    pingers: Vec<(u64, u32)>, // (period, count)
    poller_waits: u32,
    poller_timeout: u64,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        any::<u64>(),
        proptest::collection::vec(((1u64..10_000), (1u32..6)), 1..5),
        (1u32..5),
        (1u64..5_000),
    )
        .prop_map(|(seed, pingers, poller_waits, poller_timeout)| Workload {
            seed,
            pingers,
            poller_waits,
            poller_timeout,
        })
}

/// Builds and drains `w`, optionally under a per-process fuel budget.
fn run(w: &Workload, fuel: Option<u64>) -> (RunReport, u32) {
    let mut cfg = SimConfig::scheduled()
        .with_seed(w.seed)
        .with_cost(CostModel::sun3_75());
    if let Some(f) = fuel {
        cfg = cfg.with_fuel(f);
    }
    let sim = Sim::new(cfg);
    let _a = Kernel::new(&sim, "a");
    let _b = Kernel::new(&sim, "b");
    let sema = SharedSema::labeled(0, "replay.sema");
    let total: u32 = w.pingers.iter().map(|&(_, n)| n).sum();
    for (i, &(period, count)) in w.pingers.iter().enumerate() {
        sim.spawn_vproc(
            HostId(i % 2),
            Box::new(Pinger {
                left: count,
                period,
                sema: sema.clone(),
            }),
        );
    }
    // The waiter is a *coroutine*: it burns real stack between the same
    // blocking points the machines use, so the property covers both
    // continuation representations in one schedule.
    let wait_sema = sema.clone();
    sim.spawn(HostId(0), move |ctx| {
        for _ in 0..total {
            wait_sema.p(ctx);
        }
    });
    let timeouts = Rc::new(RefCell::new(0u32));
    sim.spawn_vproc(
        HostId(1),
        Box::new(Poller {
            left: w.poller_waits,
            timeout: w.poller_timeout,
            sema: SharedSema::labeled(0, "replay.poller"),
            timeouts: Rc::clone(&timeouts),
        }),
    );
    let report = sim.run_until_idle();
    let t = *timeouts.borrow_mut();
    (report, t)
}

proptest! {
    /// Same workload, same seed — the whole report must replay bit for
    /// bit: events, ended_at, sched_hash, fuel_used, per-host counters.
    #[test]
    fn same_seed_and_schedule_replay_identically(w in workload()) {
        let (ra, ta) = run(&w, None);
        let (rb, tb) = run(&w, None);
        prop_assert_eq!(&ra, &rb);
        prop_assert_eq!(ta, tb);
        // An unfueled run kills nothing and leaves nothing blocked.
        prop_assert_eq!(ra.blocked, 0);
        prop_assert_eq!(ra.fuel_exhausted, 0);
        prop_assert!(ra.fuel_used > 0, "charged ops must meter fuel");
    }

    /// Fuel exhaustion is part of the schedule, not an abort: two runs
    /// under the same per-process budget kill the same processes at the
    /// same resume points and still replay bit for bit.
    #[test]
    fn fuel_exhaustion_is_replay_stable(w in workload(), fuel in 1u64..60) {
        let (ra, ta) = run(&w, Some(fuel));
        let (rb, tb) = run(&w, Some(fuel));
        prop_assert_eq!(&ra, &rb);
        prop_assert_eq!(ta, tb);
    }
}

/// A budget small enough that the workload cannot finish must kill at
/// least one process — and exactly the same number every time.
#[test]
fn starvation_budget_kills_deterministically() {
    let w = Workload {
        seed: 7,
        pingers: vec![(500, 5), (900, 4)],
        poller_waits: 3,
        poller_timeout: 700,
    };
    let (unfueled, _) = run(&w, None);
    assert_eq!(unfueled.fuel_exhausted, 0);
    let (ra, _) = run(&w, Some(3));
    assert!(
        ra.fuel_exhausted > 0,
        "a 3-resume budget cannot cover a 5-tick pinger"
    );
    let (rb, _) = run(&w, Some(3));
    assert_eq!(ra, rb);
    assert_ne!(
        ra.sched_hash, unfueled.sched_hash,
        "killing processes must change the schedule fingerprint"
    );
}
