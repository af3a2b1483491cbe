//! Deterministic virtual-time execution engine.
//!
//! The x-kernel's concurrency model is the *shepherd process*: a light-weight
//! process that escorts one message up or down through the protocol objects,
//! blocking on a semaphore only when it must wait (for a reply, a free
//! channel, a timer). We reproduce that model exactly, in two modes:
//!
//! * [`Mode::Scheduled`] — a discrete-event simulation. Shepherd processes
//!   are *virtual processes* (see [`crate::vproc`]) multiplexed cooperatively
//!   on the scheduler's own thread: stackful coroutines for thunk bodies,
//!   stackless [`crate::vproc::VProc`] state machines for snapshot-capable
//!   or massive populations. Exactly one runs at a time and blocking happens
//!   only at the declared points (semaphore wait, timer expiry, wire
//!   delivery), so execution is fully deterministic (heap ties broken by
//!   insertion order). Virtual CPU time is charged per primitive operation
//!   (see [`CostModel`]) onto a per-host CPU timeline; the network schedules
//!   packet deliveries as timestamped events. This mode regenerates the
//!   paper's millisecond-scale tables. An optional *fuel* budget
//!   ([`SimConfig::with_fuel`]) kills a runaway process at a deterministic
//!   instant of the schedule.
//! * [`Mode::Inline`] — a synchronous zero-latency network: pushing a packet
//!   invokes the destination kernel's demux on the *same* thread, so an
//!   entire RPC round trip is one call chain with no blocking and no
//!   scheduling. The host-time benchmarks use this mode to measure the real
//!   CPU cost of each protocol path on today's hardware. It doubles as a
//!   borrow-discipline check: holding a `RefCell` borrow of session state
//!   across a lower `push` panics here.
//!
//! A simulation lives on one thread (it is `!Send`), so its state sits in
//! `RefCell`s and `Cell`s rather than locks. The borrow rule, for the engine
//! and every protocol: no `RefCell` borrow is held across a protocol call, a
//! yield (semaphore wait, sleep) or a user closure. Each borrow is a short
//! critical section over plain data, so it can never be re-entered.
//!
//! The same protocol code runs unmodified in both modes.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::cost::Nanos;
pub use crate::vproc::{VProc, VStep};

use crate::check::{CheckCore, CheckReport, Violation};
use crate::cost::CostModel;
use crate::error::{XError, XResult};
use crate::journal::{Journal, JournalRecord, JOURNAL_VERSION};
use crate::kernel::Kernel;
use crate::map::Map;
use crate::msg::{HeaderPolicy, Message, Popped};
use crate::proto::{ProtoId, SnapBlob};
use crate::trace::{
    CostBreakdown, CostEntry, Event, EventKind, FoldedLine, OpClass, SpanKey, TraceCore,
    DEFAULT_RING_CAP, EMPTY_STACK,
};
use crate::vproc;

/// Virtual time, in nanoseconds since simulation start.
pub type Time = u64;

/// Identifies a simulated host (one kernel instance).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Identifies a logical (shepherd) process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LpId(u64);

/// Execution mode; see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Synchronous, same-thread delivery; no virtual time.
    Inline,
    /// Deterministic discrete-event simulation with virtual time.
    Scheduled,
}

/// Why a blocked process resumed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeReason {
    /// A V (or explicit wake) released it.
    Normal,
    /// Its timeout fired first.
    Timeout,
}

/// Handle for cancelling a scheduled timer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle(u64);

impl TimerHandle {
    /// A handle that refers to nothing (inline mode, or already fired).
    pub const NONE: TimerHandle = TimerHandle(u64::MAX);
}

/// Simulation construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Execution mode.
    pub mode: Mode,
    /// Per-primitive virtual CPU costs (ignored in inline mode).
    pub cost: CostModel,
    /// Seed for the simulation-wide deterministic PRNG.
    pub seed: u64,
    /// Whether to record trace events (tests only; costs nothing when off).
    pub trace: bool,
    /// Header-buffer policy for messages created via [`Ctx::msg`] — the
    /// paper's buffer-management design point (see [`crate::msg`]).
    pub policy: HeaderPolicy,
    /// Whether to run the concurrency checker (vector-clock happens-before
    /// tracking plus violation detection; see [`crate::check`]). Costs
    /// nothing when off, exactly like `trace`.
    pub check: bool,
    /// Deterministic fuel budget per virtual process, or `None` for
    /// unlimited. Coroutines pay one unit per charged operation; machines
    /// pay one unit per resume. Exhaustion kills the process reproducibly
    /// (counted in [`RunReport::fuel_exhausted`]).
    pub fuel: Option<u64>,
}

impl SimConfig {
    /// Scheduled mode with the Sun 3/75 calibration.
    pub fn scheduled() -> SimConfig {
        SimConfig {
            mode: Mode::Scheduled,
            cost: CostModel::sun3_75(),
            seed: 0x5eed,
            trace: false,
            policy: HeaderPolicy::default(),
            check: false,
            fuel: None,
        }
    }

    /// Inline mode (host-time measurement with `perfbench` / fast tests).
    pub fn inline_mode() -> SimConfig {
        SimConfig {
            mode: Mode::Inline,
            cost: CostModel::zero(),
            seed: 0x5eed,
            trace: false,
            policy: HeaderPolicy::default(),
            check: false,
            fuel: None,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Enables tracing.
    pub fn with_trace(mut self) -> SimConfig {
        self.trace = true;
        self
    }

    /// Replaces the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> SimConfig {
        self.cost = cost;
        self
    }

    /// Replaces the header-buffer policy.
    pub fn with_policy(mut self, policy: HeaderPolicy) -> SimConfig {
        self.policy = policy;
        self
    }

    /// Enables the concurrency checker.
    pub fn with_check(mut self) -> SimConfig {
        self.check = true;
        self
    }

    /// Sets the per-process fuel budget (see [`SimConfig::fuel`]).
    pub fn with_fuel(mut self, fuel: u64) -> SimConfig {
        self.fuel = Some(fuel);
        self
    }
}

/// Outcome of [`Sim::run_until_idle`]. Derives `Eq` so chaos tests can
/// assert bit-identical runs for identical seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time of the last processed event.
    pub ended_at: Time,
    /// Number of events executed.
    pub events: u64,
    /// Processes still blocked when the event queue drained (deadlock if
    /// non-zero and the workload expected to finish).
    pub blocked: usize,
    /// Per-host robustness counters, indexed by [`HostId`].
    pub hosts: Vec<HostStats>,
    /// Per-layer cost attribution (empty unless tracing was enabled; see
    /// [`crate::trace`]).
    pub breakdown: CostBreakdown,
    /// FNV-1a fold of every live event the scheduler processed, in order:
    /// the run's schedule fingerprint. Two runs with equal hashes executed
    /// the same interleaving; xcheck repro strings embed it.
    pub sched_hash: u64,
    /// Total fuel charged across all hosts: one unit per charged operation
    /// plus one per machine resume. A pure function of the schedule, so
    /// replay-stable.
    pub fuel_used: u64,
    /// Processes killed by fuel exhaustion (always 0 without
    /// [`SimConfig::with_fuel`]).
    pub fuel_exhausted: u64,
    /// High-water mark of simultaneously live processes — the number the
    /// million-client experiments exist to push.
    pub peak_live: usize,
}

/// Per-host robustness counters accumulated during a run. Protocols report
/// the first four via [`Ctx::note`]; the crash/restart machinery maintains
/// the rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Request retransmissions sent by this host's protocols.
    pub retransmits: u64,
    /// Duplicate requests this host suppressed (ack/resend/drop instead of
    /// re-executing).
    pub duplicates_suppressed: u64,
    /// Corrupt frames a checksum on this host rejected.
    pub corrupt_rejected: u64,
    /// Retransmission timeouts that fired on this host.
    pub timeouts_fired: u64,
    /// Times this host crashed.
    pub crashes: u64,
    /// Times this host restarted.
    pub restarts: u64,
    /// The host's final virtual CPU clock, in nanoseconds. With tracing on,
    /// the conservation invariant holds: the host's
    /// [`RunReport::breakdown`] entries sum to exactly this value.
    pub cpu_ns: u64,
}

/// A robustness event a protocol reports via [`Ctx::note`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RobustEvent {
    /// A request was retransmitted.
    Retransmit,
    /// A duplicate request was suppressed instead of re-executed.
    DuplicateSuppressed,
    /// A corrupt frame was rejected by a checksum.
    CorruptRejected,
    /// A retransmission timeout fired.
    TimeoutFired,
}

/// A boxed shepherd-process body.
pub type Thunk = Box<dyn FnOnce(&Ctx) + 'static>;

/// A scheduling-decision oracle for xcheck's bounded schedule exploration.
///
/// The simulator is deterministic: heap ties (events at the same virtual
/// time) break by insertion order. Installing a chooser via
/// [`Sim::set_chooser`] turns every such tie into a *forced-choice point*:
/// the chooser is handed the number of tied live events (in insertion
/// order) and picks which runs first. Enumerating chooser decisions
/// enumerates schedules; see `crates/xcheck`.
pub trait ScheduleChooser {
    /// Picks which of `n` (≥ 2) same-time events to process next; returns
    /// an index in `0..n` (out-of-range values are clamped).
    fn choose(&mut self, n: usize) -> usize;
}

/// FNV-1a offset basis / prime, folding one u64 at a time.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// The body a fresh process starts from: a thunk (run as a stackful
/// coroutine, so it may block anywhere) or a stackless [`VProc`] machine
/// (runs on the scheduler's stack, blocks by returning [`VStep`]s).
enum ProcBody {
    Thunk(Thunk),
    Machine(Box<dyn VProc>),
}

/// The suspended form of a blocked process.
enum LpBody {
    Coro(vproc::Coro),
    Machine(Box<dyn VProc>),
}

enum EvKind {
    Run { host: HostId, body: ProcBody },
    Wake { lp: LpId, reason: WakeReason },
    Crash { host: HostId },
    Restart { host: HostId },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RunState {
    Running,
    Blocked,
    /// The host crashed while this process was blocked; the scheduler reaps
    /// it (unwinding its coroutine via [`CrashKill`]) at the next
    /// deterministic reap point.
    Killed,
}

/// Panic payload used to unwind a shepherd coroutine whose host crashed.
/// Not a failure: the coroutine wrapper filters it out of the panic record.
struct CrashKill;

/// Panic payload used to unwind a shepherd coroutine whose fuel ran out.
/// Filtered like [`CrashKill`], but tallied in [`RunReport::fuel_exhausted`].
struct FuelKill;

struct LpState {
    host: HostId,
    state: RunState,
    wake_reason: WakeReason,
    /// The suspended continuation; `None` while the process is running (its
    /// body is on the driver's stack) or before its first step.
    body: Option<LpBody>,
    /// The checker id of the semaphore a blocked *machine* is waiting on
    /// (`None` for timer blocks and for coroutines, which run their own
    /// wait-end hooks).
    wait_sema: Option<u64>,
    /// Remaining machine fuel (`u64::MAX` = unlimited); coroutines carry
    /// their budget inside the coroutine instead.
    fuel: u64,
}

struct Task {
    lp: LpId,
    host: HostId,
    body: ProcBody,
}

struct Sched {
    now: Time,
    seq: u64,
    heap: BinaryHeap<std::cmp::Reverse<(Time, u64)>>,
    events: Map<u64, EvKind>,
    lps: Map<u64, LpState>,
    next_lp: u64,
    current: Option<LpId>,
    executed: u64,
    panics: Vec<String>,
    /// Processes killed by a crash while blocked, queued for deterministic
    /// reaping (sorted by id) at the top of the run loop.
    reap: Vec<u64>,
    /// Processes killed by fuel exhaustion.
    fuel_exhausted: u64,
    /// High-water mark of `lps.len()`.
    peak_live: usize,
    /// Schedule-exploration oracle; `None` (the default) keeps the plain
    /// deterministic insertion-order tie-break.
    chooser: Option<Box<dyn ScheduleChooser>>,
    /// Running FNV-1a fold over every live event processed (time, seq,
    /// kind tag). Maintained unconditionally — three integer ops per
    /// event — so every run has a schedule fingerprint.
    sched_hash: u64,
}

/// Per-host clocks and counters, split out of [`Sched`] so the hot charging
/// path ([`Ctx::charge`], [`Ctx::now`], [`Ctx::note`]) borrows only these,
/// never the event queue. Both may be borrowed at once (the scheduler does
/// while processing an event); neither borrow is held across a protocol
/// call, a yield or a user closure.
struct Hosts {
    cpu: Vec<Time>,
    down: Vec<bool>,
    epoch: Vec<u32>,
    stats: Vec<HostStats>,
    /// Fuel charged per host: one unit per charged operation plus one per
    /// machine resume ([`RunReport::fuel_used`] is the sum).
    fuel: Vec<u64>,
}

/// A host's kernel as the simulator and its contexts hold it. The public
/// handle is an `Arc`; the simulator wraps it in an `Rc` so that each
/// [`Ctx`] (one per event, and one per frame inline) shares it by bumping
/// a plain counter instead of an atomic one.
struct HostKernel(Arc<Kernel>);

/// Shared simulator state.
pub struct SimCore {
    mode: Mode,
    cost: CostModel,
    policy: HeaderPolicy,
    sched: RefCell<Sched>,
    /// Per-process fuel budget, from [`SimConfig::fuel`].
    fuel_limit: Option<u64>,
    /// Pool of reusable coroutine stacks (bounded; see `STACK_POOL_CAP`).
    stacks: RefCell<Vec<vproc::Stack>>,
    hosts: RefCell<Hosts>,
    kernels: RefCell<Vec<Rc<HostKernel>>>,
    rng: Cell<u64>,
    /// Plain flag checked before any trace work; when false the trace
    /// state is never touched (the zero-overhead-when-disabled guarantee).
    trace_on: bool,
    /// Structured trace state; a leaf borrow (never held while borrowing
    /// any other simulator state).
    trace: RefCell<TraceCore>,
    /// Plain flag checked before any checker work; when false the check
    /// state is never touched (same guarantee as `trace_on`).
    check_on: bool,
    /// Concurrency-checker state; a leaf borrow like `trace`.
    check: RefCell<CheckCore>,
    /// Whether journal recording is on. Toggleable at run time (unlike
    /// `trace_on`/`check_on`) so recording can be scoped to a window; a
    /// flag read guards every journal touch, so recording costs nothing
    /// when off.
    journal_on: Cell<bool>,
    /// Recorded nondeterminism-relevant decisions; a leaf borrow like
    /// `trace`.
    journal: RefCell<Vec<JournalRecord>>,
    /// The configured seed, kept for repro strings.
    seed: u64,
}

/// The simulator: owns hosts, time, and shepherd processes.
///
/// A simulation is built and run on one thread, so `Sim` (like [`Ctx`],
/// [`Kernel`], sessions and messages) is `!Send`; batches of independent
/// simulations fan out by building each one inside its worker (see
/// [`crate::par::run_indexed`]).
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<xkernel::sim::Sim>();
/// ```
#[derive(Clone)]
pub struct Sim {
    core: Rc<SimCore>,
}

impl Sim {
    /// Creates a simulator.
    pub fn new(cfg: SimConfig) -> Sim {
        if cfg.fuel.is_some() {
            // Fuel kills unwind coroutines with a filtered panic payload;
            // install the hook up front so the first kill prints nothing.
            install_crash_hook();
        }
        Sim {
            core: Rc::new(SimCore {
                mode: cfg.mode,
                cost: cfg.cost,
                policy: cfg.policy,
                sched: RefCell::new(Sched {
                    now: 0,
                    seq: 0,
                    heap: BinaryHeap::new(),
                    events: Map::default(),
                    lps: Map::default(),
                    next_lp: 0,
                    current: None,
                    executed: 0,
                    panics: Vec::new(),
                    reap: Vec::new(),
                    fuel_exhausted: 0,
                    peak_live: 0,
                    chooser: None,
                    sched_hash: FNV_OFFSET,
                }),
                fuel_limit: cfg.fuel,
                stacks: RefCell::new(Vec::new()),
                hosts: RefCell::new(Hosts {
                    cpu: Vec::new(),
                    down: Vec::new(),
                    epoch: Vec::new(),
                    stats: Vec::new(),
                    fuel: Vec::new(),
                }),
                kernels: RefCell::new(Vec::new()),
                rng: Cell::new(cfg.seed | 1),
                trace_on: cfg.trace,
                trace: RefCell::new(TraceCore::new(DEFAULT_RING_CAP)),
                check_on: cfg.check,
                check: RefCell::new(CheckCore::default()),
                journal_on: Cell::new(false),
                journal: RefCell::new(Vec::new()),
                seed: cfg.seed,
            }),
        }
    }

    /// Execution mode.
    pub fn mode(&self) -> Mode {
        self.core.mode
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.core.cost
    }

    /// The host id the next [`Sim::add_kernel`] will allocate.
    pub(crate) fn next_host(&self) -> HostId {
        HostId(self.core.kernels.borrow().len())
    }

    /// Registers a kernel under the host id [`Sim::next_host`] named.
    /// Called by `Kernel::new`.
    pub(crate) fn add_kernel(&self, k: &Arc<Kernel>) {
        let mut ks = self.core.kernels.borrow_mut();
        debug_assert_eq!(k.host(), HostId(ks.len()), "host ids allocated in order");
        ks.push(Rc::new(HostKernel(Arc::clone(k))));
        let mut h = self.core.hosts.borrow_mut();
        h.cpu.push(0);
        h.down.push(false);
        h.epoch.push(0);
        h.stats.push(HostStats::default());
        h.fuel.push(0);
    }

    /// The kernel running on `host`.
    pub fn kernel_of(&self, host: HostId) -> Arc<Kernel> {
        Arc::clone(&self.core.kernels.borrow()[host.0].0)
    }

    /// All registered kernels.
    pub fn kernels(&self) -> Vec<Arc<Kernel>> {
        self.core
            .kernels
            .borrow()
            .iter()
            .map(|k| Arc::clone(&k.0))
            .collect()
    }

    /// A context bound to `host` but to no logical process. Suitable for
    /// setup (graph building, enables) and for everything in inline mode;
    /// blocking from it panics.
    pub fn ctx(&self, host: HostId) -> Ctx {
        Ctx::new(&self.core, host, None)
    }

    /// Spawns a shepherd process on `host`. In scheduled mode it is queued
    /// at the current virtual time and run by [`Sim::run_until_idle`]; in
    /// inline mode it executes immediately on the calling thread.
    pub fn spawn(&self, host: HostId, f: impl FnOnce(&Ctx) + 'static) {
        self.ctx(host).spawn_on(host, f);
    }

    fn push_event(&self, t: Time, kind: EvKind) {
        let mut g = self.core.sched.borrow_mut();
        let seq = g.seq;
        g.seq += 1;
        g.events.insert(seq, kind);
        g.heap.push(std::cmp::Reverse((t, seq)));
    }

    /// Schedules a crash of `host` at absolute virtual time `t`. At that
    /// instant every in-flight message addressed to the host, every timer
    /// armed on it, and every blocked process running on it is discarded;
    /// further deliveries are dropped until a restart. Scheduled mode only.
    pub fn crash_at(&self, t: Time, host: HostId) {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "crash/restart require virtual time"
        );
        install_crash_hook();
        self.push_event(t, EvKind::Crash { host });
    }

    /// Crashes `host` at the current virtual time (see [`Sim::crash_at`]).
    pub fn crash(&self, host: HostId) {
        let t = self.virtual_now();
        self.crash_at(t, host);
    }

    /// Schedules a restart of a crashed `host` at absolute virtual time `t`:
    /// the host's boot epoch is bumped and every protocol's
    /// [`crate::proto::Protocol::reboot`] hook runs as a fresh shepherd
    /// process (protocols shed per-connection state and draw new boot
    /// incarnation ids there). Scheduled mode only.
    pub fn restart_at(&self, t: Time, host: HostId) {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "crash/restart require virtual time"
        );
        self.push_event(t, EvKind::Restart { host });
    }

    /// Restarts `host` at the current virtual time (see [`Sim::restart_at`]).
    pub fn restart(&self, host: HostId) {
        let t = self.virtual_now();
        self.restart_at(t, host);
    }

    /// Robustness counters for `host` (also in [`RunReport::hosts`]).
    pub fn host_stats(&self, host: HostId) -> HostStats {
        self.core.hosts.borrow().stats[host.0]
    }

    /// How many times `host` has restarted (0 until its first restart).
    pub fn boot_epoch(&self, host: HostId) -> u32 {
        self.core.hosts.borrow().epoch[host.0]
    }

    /// Whether `host` is currently crashed.
    pub fn is_down(&self, host: HostId) -> bool {
        self.core.hosts.borrow().down[host.0]
    }

    /// Runs queued events until none remain. Scheduled mode only.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) the first panic that occurred inside any
    /// shepherd process, so test failures surface cleanly.
    pub fn run_until_idle(&self) -> RunReport {
        self.run_until_time(Time::MAX)
    }

    /// Runs queued events whose time is `<= stop`, then pauses. Later
    /// events stay queued and blocked processes stay suspended, so the run
    /// continues with another `run_until_time`/[`Sim::run_until_idle`]
    /// call; the returned report describes the state at the pause. When
    /// every process suspended at the pause is a forkable [`VProc`]
    /// machine parked on a timer, the paused instant is
    /// [`Sim::snapshot`]-eligible. Scheduled mode only.
    pub fn run_until_time(&self, stop: Time) -> RunReport {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "run_until_time is meaningful only in scheduled mode"
        );
        let core = &self.core;
        let mut g = core.sched.borrow_mut();
        loop {
            // Reap crash-killed processes first, in sorted-id order, so
            // their unwinds land at a deterministic point of the schedule.
            if !g.reap.is_empty() {
                g.reap.sort_unstable();
                let id = g.reap.remove(0);
                drop(g);
                reap_lp(core, id);
                g = core.sched.borrow_mut();
                continue;
            }
            match advance(core, &mut g, stop) {
                Next::Task(task) => {
                    drop(g);
                    run_task(core, task);
                    g = core.sched.borrow_mut();
                }
                Next::Resume(lp) => {
                    drop(g);
                    resume_lp(core, lp);
                    g = core.sched.borrow_mut();
                }
                Next::Drained => {
                    if !g.reap.is_empty() {
                        continue;
                    }
                    break;
                }
            }
        }
        let blocked = g
            .lps
            .values()
            .filter(|l| l.state == RunState::Blocked)
            .count();
        let (hosts, fuel_used) = {
            let h = core.hosts.borrow();
            let fuel_used = h.fuel.iter().sum();
            let hosts = h
                .stats
                .iter()
                .zip(&h.cpu)
                .map(|(s, &cpu)| {
                    let mut s = *s;
                    s.cpu_ns = cpu;
                    s
                })
                .collect();
            (hosts, fuel_used)
        };
        let report = RunReport {
            ended_at: g.now,
            events: g.executed,
            blocked,
            hosts,
            breakdown: breakdown_of(core),
            sched_hash: g.sched_hash,
            fuel_used,
            fuel_exhausted: g.fuel_exhausted,
            peak_live: g.peak_live,
        };
        let panic = g.panics.first().cloned();
        drop(g);
        if let Some(p) = panic {
            panic!("shepherd process panicked: {p}");
        }
        report
    }

    /// Spawns a stackless [`VProc`] machine as a shepherd process on
    /// `host`, queued at the current virtual time. Scheduled mode only —
    /// machines have no meaning without a scheduler to perform their
    /// blocking points.
    pub fn spawn_vproc(&self, host: HostId, m: Box<dyn VProc>) {
        self.ctx(host).spawn_vproc_on(host, m);
    }

    /// Virtual CPU time of `host`.
    pub fn now_of(&self, host: HostId) -> Time {
        self.core.hosts.borrow().cpu[host.0]
    }

    /// Global virtual time (time of the last processed event).
    pub fn virtual_now(&self) -> Time {
        self.core.sched.borrow().now
    }

    /// Next value from the simulation-wide deterministic PRNG (SplitMix64).
    pub fn next_u64(&self) -> u64 {
        next_u64_of(&self.core)
    }

    /// Whether structured tracing is enabled for this simulation.
    pub fn trace_enabled(&self) -> bool {
        self.core.trace_on
    }

    /// All recorded trace events, host-major in arrival order (empty
    /// unless tracing was enabled). Rings are bounded; old events are
    /// dropped first.
    pub fn trace_events(&self) -> Vec<Event> {
        if !self.core.trace_on {
            return Vec::new();
        }
        self.core.trace.borrow().events()
    }

    /// The protocol-reported annotations among the trace events, with the
    /// host each was noted on (replaces the old string trace lines).
    pub fn trace_notes(&self) -> Vec<(HostId, &'static str)> {
        self.trace_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Note(n) => Some((e.host, n)),
                _ => None,
            })
            .collect()
    }

    /// The per-layer cost ledger accumulated so far (empty unless tracing
    /// was enabled).
    pub fn cost_breakdown(&self) -> CostBreakdown {
        breakdown_of(&self.core)
    }

    /// Flamegraph-compatible folded-stack lines for the ledger accumulated
    /// so far, deterministically sorted.
    pub fn folded(&self) -> Vec<FoldedLine> {
        folded_of(&self.core)
    }

    /// Clears the event rings and the cost ledger (live span stacks
    /// survive, so in-flight call chains stay attributed). Benchmarks call
    /// this after warmup to scope the ledger to the measured window.
    pub fn trace_clear(&self) {
        if !self.core.trace_on {
            return;
        }
        self.core.trace.borrow_mut().clear();
    }

    /// Whether the concurrency checker is enabled for this simulation.
    pub fn check_enabled(&self) -> bool {
        self.core.check_on
    }

    /// The configured PRNG seed (embedded in repro strings).
    pub fn seed(&self) -> u64 {
        self.core.seed
    }

    /// The schedule fingerprint accumulated so far (see
    /// [`RunReport::sched_hash`]).
    pub fn sched_hash(&self) -> u64 {
        self.core.sched.borrow().sched_hash
    }

    /// Installs a scheduling oracle: every same-time event tie becomes a
    /// forced-choice point decided by `chooser`. Used by xcheck's bounded
    /// schedule exploration; replaces any previous chooser.
    pub fn set_chooser(&self, chooser: Box<dyn ScheduleChooser>) {
        self.core.sched.borrow_mut().chooser = Some(chooser);
    }

    /// The checker's findings. Runs the wait-for-graph scan over processes
    /// still blocked right now, so call it after [`Sim::run_until_idle`]
    /// (a blocked process mid-run is not yet a deadlock). Returns a
    /// default (disabled) report when checking is off.
    pub fn check_report(&self) -> CheckReport {
        if !self.core.check_on {
            return CheckReport::default();
        }
        let mut blocked: Vec<u64> = {
            let g = self.core.sched.borrow();
            g.lps
                .iter()
                .filter(|(_, s)| s.state == RunState::Blocked)
                .map(|(&id, _)| id)
                .collect()
        };
        blocked.sort_unstable();
        self.core.check.borrow().report(&blocked)
    }

    /// The replayable repro string for `v` under this run's seed and
    /// schedule fingerprint (see [`crate::check::parse_repro`]).
    pub fn repro(&self, v: &Violation) -> String {
        v.repro(self.core.seed, self.sched_hash())
    }

    /// Starts journal recording (see [`crate::journal`]), discarding any
    /// previously recorded decisions. Costs one flag read per potential
    /// decision when off.
    pub fn journal_enable(&self) {
        self.core.journal.borrow_mut().clear();
        self.core.journal_on.set(true);
    }

    /// Whether journal recording is currently on.
    pub fn journal_enabled(&self) -> bool {
        self.core.journal_on.get()
    }

    /// Stops recording and returns the journal, stamped with this
    /// simulation's seed and the schedule fingerprint accumulated so far —
    /// the cross-check a replay must reproduce.
    pub fn journal_take(&self) -> Journal {
        self.core.journal_on.set(false);
        let records = std::mem::take(&mut *self.core.journal.borrow_mut());
        Journal {
            version: JOURNAL_VERSION,
            seed: self.core.seed,
            sched_hash: self.sched_hash(),
            records,
        }
    }

    /// Captures the complete mutable state of a *quiescent* simulation: the
    /// scheduler scalars (virtual clock, event/process id counters, the
    /// `sched_hash` fingerprint), the PRNG position, per-host clocks,
    /// crash/boot state and robustness counters, and every protocol's
    /// private state via [`crate::proto::Protocol::snap`]. Quiescent means
    /// either [`Sim::run_until_idle`] has drained — no pending events, no
    /// live processes — or the run is paused (see [`Sim::run_until_time`])
    /// with every live process a *forkable* [`VProc`] machine suspended at
    /// a timer blocking point: such continuations are pure data, captured
    /// via [`VProc::fork`] together with their pending wake events (stale
    /// ones included — the `sched_hash` identity folds them too).
    ///
    /// [`Sim::restore`] rewinds the *same* simulator (same kernels, same
    /// protocol graph) to this state; a restored run is bit-identical to
    /// one that never snapshotted. Deliberately not captured: trace rings,
    /// the cost ledger, and checker state — observability, not behavior.
    pub fn snapshot(&self) -> XResult<SimSnapshot> {
        if self.core.mode != Mode::Scheduled {
            return Err(XError::Unsupported("snapshot in inline mode"));
        }
        let (now, seq, next_lp, executed, sched_hash, fuel_exhausted, peak_live, wakes, machines) = {
            let g = self.core.sched.borrow();
            self.require_quiescent(&g)?;
            // Every pending event is a Wake (eligibility above); capture
            // each with the time its heap entry carries, sorted by seq so
            // restore rebuilds the identical queue. Stale wakes (their
            // process already gone) are captured too: the scheduler still
            // processes — and hashes — them.
            let mut wakes: Vec<SnapWake> = g
                .heap
                .iter()
                .filter_map(|&std::cmp::Reverse((t, seq))| match g.events.get(&seq) {
                    Some(&EvKind::Wake { lp, reason }) => Some(SnapWake {
                        t,
                        seq,
                        lp: lp.0,
                        reason,
                    }),
                    _ => None,
                })
                .collect();
            wakes.sort_unstable_by_key(|w| w.seq);
            let mut machines: Vec<SnapMachine> = Vec::with_capacity(g.lps.len());
            for (&id, st) in &g.lps {
                let Some(LpBody::Machine(m)) = &st.body else {
                    unreachable!("eligibility admits only machine continuations");
                };
                machines.push(SnapMachine {
                    lp: id,
                    host: st.host,
                    fuel: st.fuel,
                    m: m.fork().expect("eligibility admits only forkable machines"),
                });
            }
            machines.sort_unstable_by_key(|sm| sm.lp);
            (
                g.now,
                g.seq,
                g.next_lp,
                g.executed,
                g.sched_hash,
                g.fuel_exhausted,
                g.peak_live,
                wakes,
                machines,
            )
        };
        let (cpu, down, epoch, stats, fuel) = {
            let h = self.core.hosts.borrow();
            (
                h.cpu.clone(),
                h.down.clone(),
                h.epoch.clone(),
                h.stats.clone(),
                h.fuel.clone(),
            )
        };
        let rng = self.core.rng.get();
        let journal_len = self.core.journal.borrow().len();
        let kernels = self.kernels();
        let mut protos = Vec::with_capacity(kernels.len());
        for k in &kernels {
            let ctx = self.ctx(k.host());
            let blobs: Vec<Option<SnapBlob>> = k
                .protocol_slots()
                .iter()
                .map(|slot| slot.as_ref().and_then(|p| p.snap(&ctx)))
                .collect();
            protos.push(blobs);
        }
        Ok(SimSnapshot {
            now,
            seq,
            next_lp,
            executed,
            sched_hash,
            rng,
            journal_len,
            cpu,
            down,
            epoch,
            stats,
            fuel,
            fuel_exhausted,
            peak_live,
            wakes,
            machines,
            protos,
        })
    }

    /// Rewinds this simulator to `snap` (which [`Sim::snapshot`] captured
    /// from the *same* simulator). Requires quiescence, exactly like
    /// snapshotting. Scheduler scalars, PRNG, host clocks, and every
    /// protocol's private state are overwritten in place; the journal is
    /// truncated to its capture-time length so a resumed recording matches
    /// an uninterrupted one.
    pub fn restore(&self, snap: &SimSnapshot) -> XResult<()> {
        if self.core.mode != Mode::Scheduled {
            return Err(XError::Unsupported("restore in inline mode"));
        }
        // Every check runs before anything is overwritten, so a refused
        // snapshot leaves the simulator exactly as it was.
        self.require_quiescent(&self.core.sched.borrow())?;
        let hosts = self.core.hosts.borrow().cpu.len();
        if hosts != snap.cpu.len() {
            return Err(XError::Config(format!(
                "snapshot holds {} hosts but the simulator has {hosts}",
                snap.cpu.len()
            )));
        }
        let kernels = self.kernels();
        if kernels.len() != snap.protos.len() {
            return Err(XError::Config(
                "snapshot is from a different rig (kernel count mismatch)".into(),
            ));
        }
        let kernel_slots: Vec<_> = kernels.iter().map(|k| k.protocol_slots()).collect();
        for ((k, slots), blobs) in kernels.iter().zip(&kernel_slots).zip(&snap.protos) {
            if slots.len() != blobs.len() {
                return Err(XError::Config(format!(
                    "snapshot is from a different rig ({} protocol slots vs {} on {})",
                    blobs.len(),
                    slots.len(),
                    k.name()
                )));
            }
        }
        let machines = snap
            .machines
            .iter()
            .map(|sm| {
                sm.m.fork().map(|m| (sm, m)).ok_or_else(|| {
                    XError::Config("snapshotted machine refused to fork on restore".into())
                })
            })
            .collect::<XResult<Vec<_>>>()?;
        {
            let mut g = self.core.sched.borrow_mut();
            g.now = snap.now;
            g.seq = snap.seq;
            g.next_lp = snap.next_lp;
            g.executed = snap.executed;
            g.sched_hash = snap.sched_hash;
            g.fuel_exhausted = snap.fuel_exhausted;
            g.peak_live = snap.peak_live;
            // The heap may hold entries for cancelled or already-drained
            // events; with `seq` rewound they would alias freshly allocated
            // sequence numbers, so they must go — as must any machine
            // continuations of the pre-restore present, which the
            // snapshot's copies replace wholesale.
            g.heap.clear();
            g.events.clear();
            g.lps.clear();
            g.reap.clear();
            g.panics.clear();
            for w in &snap.wakes {
                g.events.insert(
                    w.seq,
                    EvKind::Wake {
                        lp: LpId(w.lp),
                        reason: w.reason,
                    },
                );
                g.heap.push(std::cmp::Reverse((w.t, w.seq)));
            }
            for (sm, m) in machines {
                g.lps.insert(
                    sm.lp,
                    LpState {
                        host: sm.host,
                        state: RunState::Blocked,
                        wake_reason: WakeReason::Normal,
                        body: Some(LpBody::Machine(m)),
                        wait_sema: None,
                        fuel: sm.fuel,
                    },
                );
            }
        }
        {
            let mut h = self.core.hosts.borrow_mut();
            h.cpu.clone_from(&snap.cpu);
            h.down.clone_from(&snap.down);
            h.epoch.clone_from(&snap.epoch);
            h.stats.clone_from(&snap.stats);
            h.fuel.clone_from(&snap.fuel);
        }
        self.core.rng.set(snap.rng);
        self.core.journal.borrow_mut().truncate(snap.journal_len);
        for ((k, slots), blobs) in kernels.iter().zip(&kernel_slots).zip(&snap.protos) {
            let ctx = self.ctx(k.host());
            for (slot, blob) in slots.iter().zip(blobs) {
                if let (Some(p), Some(b)) = (slot, blob) {
                    p.restore_snap(&ctx, b)?;
                }
            }
        }
        Ok(())
    }

    /// Errors unless the simulator is quiescent: fully drained, or paused
    /// with only forkable machine continuations suspended on timers (every
    /// pending event a Wake). Anything else — a running process, a
    /// suspended *coroutine* (opaque stack), a machine parked on a
    /// semaphore (waiter queues don't round-trip), an unforkable machine,
    /// a pending Run/Crash/Restart — is not snapshot material.
    fn require_quiescent(&self, g: &Sched) -> XResult<()> {
        let eligible = g.current.is_none()
            && g.reap.is_empty()
            && g.events.values().all(|e| matches!(e, EvKind::Wake { .. }))
            && g.lps.values().all(|st| {
                st.state == RunState::Blocked
                    && st.wait_sema.is_none()
                    && matches!(&st.body, Some(LpBody::Machine(m)) if m.fork().is_some())
            });
        if eligible {
            Ok(())
        } else {
            Err(XError::Config(format!(
                "snapshot/restore require a quiescent simulator \
                 ({} pending event(s), {} live process(es)); \
                 run_until_idle first",
                g.events.len(),
                g.lps.len()
            )))
        }
    }
}

/// A pending wake event captured in a snapshot.
struct SnapWake {
    t: Time,
    seq: u64,
    lp: u64,
    reason: WakeReason,
}

/// A suspended machine continuation captured in a snapshot (via
/// [`VProc::fork`]); restore re-forks it so the snapshot stays reusable.
struct SnapMachine {
    lp: u64,
    host: HostId,
    fuel: u64,
    m: Box<dyn VProc>,
}

/// An opaque whole-sim snapshot; see [`Sim::snapshot`]. Holds the scheduler
/// scalars, PRNG position, per-host state, any suspended machine
/// continuations with their pending wakes, and one
/// [`crate::proto::SnapBlob`] per protocol slot per host.
pub struct SimSnapshot {
    now: Time,
    seq: u64,
    next_lp: u64,
    executed: u64,
    sched_hash: u64,
    rng: u64,
    journal_len: usize,
    cpu: Vec<Time>,
    down: Vec<bool>,
    epoch: Vec<u32>,
    stats: Vec<HostStats>,
    fuel: Vec<u64>,
    fuel_exhausted: u64,
    peak_live: usize,
    wakes: Vec<SnapWake>,
    machines: Vec<SnapMachine>,
    protos: Vec<Vec<Option<SnapBlob>>>,
}

impl SimSnapshot {
    /// The schedule fingerprint at capture time.
    pub fn sched_hash(&self) -> u64 {
        self.sched_hash
    }

    /// Global virtual time at capture.
    pub fn now(&self) -> Time {
        self.now
    }
}

/// Builds the sorted per-layer breakdown from the trace ledger, resolving
/// innermost-layer protocol ids to instance names via the hosts' kernels.
fn breakdown_of(core: &SimCore) -> CostBreakdown {
    if !core.trace_on {
        return CostBreakdown::default();
    }
    let kernels = core.kernels.borrow();
    let tr = core.trace.borrow();
    let mut agg: Map<(usize, Option<ProtoId>, OpClass), Nanos> = Map::default();
    for (host, frames, class, ns) in tr.rows() {
        *agg.entry((host, frames.last().copied(), class))
            .or_insert(0) += ns;
    }
    let mut entries: Vec<CostEntry> = agg
        .into_iter()
        .map(|((host, top, class), ns)| CostEntry {
            host: HostId(host),
            proto: proto_frame_name(&kernels, host, top),
            class,
            ns,
        })
        .collect();
    entries.sort();
    CostBreakdown { entries }
}

/// Builds the sorted folded-stack lines from the trace ledger.
fn folded_of(core: &SimCore) -> Vec<FoldedLine> {
    if !core.trace_on {
        return Vec::new();
    }
    let kernels = core.kernels.borrow();
    let tr = core.trace.borrow();
    let mut lines: Vec<FoldedLine> = tr
        .rows()
        .into_iter()
        .map(|(host, frames, class, ns)| {
            let host_name = kernels
                .get(host)
                .map(|k| k.0.name().to_string())
                .unwrap_or_else(|| format!("host{host}"));
            let mut out = Vec::with_capacity(frames.len() + 2);
            out.push(host_name);
            for p in frames {
                out.push(proto_frame_name(&kernels, host, Some(*p)));
            }
            out.push(class.as_str().to_string());
            FoldedLine {
                host: HostId(host),
                frames: out,
                ns,
            }
        })
        .collect();
    lines.sort();
    lines
}

/// The display name for a span frame: the protocol's configured instance
/// name, or `"(host)"` for the empty stack.
fn proto_frame_name(kernels: &[Rc<HostKernel>], host: usize, proto: Option<ProtoId>) -> String {
    match proto {
        None => "(host)".to_string(),
        Some(p) => kernels
            .get(host)
            .and_then(|k| k.0.name_of(p))
            .unwrap_or_else(|| format!("p{}", p.0)),
    }
}

/// One SplitMix64 step of the simulation-wide PRNG.
fn next_u64_of(core: &SimCore) -> u64 {
    let s = core.rng.get().wrapping_add(0x9e37_79b9_7f4a_7c15);
    core.rng.set(s);
    let mut z = s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the event loop decided after [`advance`] processed events.
enum Next {
    /// A fresh shepherd process must run; the run token (`current`) is
    /// already set to it. The driver executes its body.
    Task(Task),
    /// A blocked process was woken; the token is set to it. The driver
    /// resumes its suspended continuation.
    Resume(LpId),
    /// No live events remain at or before the stop time.
    Drained,
}

/// Drives the event loop forward: pops live events in deterministic order
/// and processes them until a process claims the run token or the queue
/// drains (or passes `stop`). Must be called with the token free
/// (`current == None`).
fn advance(core: &Rc<SimCore>, g: &mut RefMut<'_, Sched>, stop: Time) -> Next {
    loop {
        // Pop the next live event.
        let next = loop {
            match g.heap.pop() {
                None => break None,
                Some(std::cmp::Reverse((t, seq))) => {
                    if !g.events.contains_key(&seq) {
                        continue; // Cancelled; skip.
                    }
                    if t > stop {
                        // Beyond the pause point: put it back untouched
                        // (before any chooser tie-collection, so pausing
                        // never consumes exploration decisions).
                        g.heap.push(std::cmp::Reverse((t, seq)));
                        break None;
                    }
                    if g.chooser.is_none() {
                        break Some((t, seq));
                    }
                    // A chooser is installed: same-time ties are forced-
                    // choice points. Collect every live event tied at `t`
                    // (they surface seq-ascending), let the chooser pick,
                    // and restore the rest.
                    let mut ties = vec![(t, seq)];
                    while let Some(&std::cmp::Reverse((t2, s2))) = g.heap.peek() {
                        if t2 != t {
                            break;
                        }
                        g.heap.pop();
                        if g.events.contains_key(&s2) {
                            ties.push((t2, s2));
                        }
                    }
                    let pick = if ties.len() > 1 {
                        let n = ties.len();
                        let pick = g
                            .chooser
                            .as_mut()
                            .expect("chooser checked present")
                            .choose(n)
                            .min(n - 1);
                        if core.journal_on.get() {
                            core.journal.borrow_mut().push(JournalRecord::TiePick {
                                n: n as u32,
                                pick: pick as u32,
                            });
                        }
                        pick
                    } else {
                        0
                    };
                    let chosen = ties.remove(pick);
                    for &e in &ties {
                        g.heap.push(std::cmp::Reverse(e));
                    }
                    break Some(chosen);
                }
            }
        };
        let Some((t, seq)) = next else {
            return Next::Drained;
        };
        g.now = t;
        g.executed += 1;
        let kind = g.events.remove(&seq).expect("event checked present");
        g.sched_hash = fnv_fold(
            fnv_fold(fnv_fold(g.sched_hash, t), seq),
            match &kind {
                EvKind::Run { .. } => 1,
                EvKind::Wake { .. } => 2,
                EvKind::Crash { .. } => 3,
                EvKind::Restart { .. } => 4,
            },
        );
        if core.check_on {
            core.check.borrow_mut().tick_event(g.executed, t);
        }
        match kind {
            EvKind::Run { host, body } => {
                let jumped = {
                    let mut h = core.hosts.borrow_mut();
                    if h.down[host.0] {
                        continue; // Scheduled before the crash; dies with it.
                    }
                    let cpu = &mut h.cpu[host.0];
                    let idle = t.saturating_sub(*cpu);
                    *cpu = (*cpu).max(t);
                    (idle, *cpu)
                };
                // The fresh process has no span stack yet; the host sat
                // idle (wire latency, timer wait) until this event.
                if core.trace_on && jumped.0 > 0 {
                    core.trace.borrow_mut().attribute_stack(
                        host.0,
                        EMPTY_STACK,
                        None,
                        OpClass::Idle,
                        jumped.0,
                        jumped.1,
                    );
                }
                let task = new_lp(g, host, body, core.fuel_limit.unwrap_or(u64::MAX));
                if core.check_on {
                    // The new process inherits its spawner's clock via the
                    // deposit keyed by this event's seq (if one was made).
                    core.check.borrow_mut().on_lp_start(task.lp.0, host.0, seq);
                }
                return Next::Task(task);
            }
            EvKind::Crash { host } => {
                {
                    let mut h = core.hosts.borrow_mut();
                    if h.down[host.0] {
                        continue; // Already down.
                    }
                    h.down[host.0] = true;
                    h.stats[host.0].crashes += 1;
                }
                if core.journal_on.get() {
                    core.journal.borrow_mut().push(JournalRecord::Boot {
                        host: host.0 as u32,
                        kind: 0,
                        t,
                    });
                }
                // In-flight deliveries, timers, and spawned runs on the
                // host die with it, as do pending wakes for its
                // processes. Crash/Restart events survive — a scheduled
                // restart must not be purged by its own crash.
                let Sched {
                    events, lps, reap, ..
                } = &mut **g;
                let dead: Vec<u64> = events
                    .iter()
                    .filter(|(_, k)| match k {
                        EvKind::Run { host: h, .. } => *h == host,
                        EvKind::Wake { lp, .. } => lps.get(&lp.0).is_some_and(|s| s.host == host),
                        _ => false,
                    })
                    .map(|(s, _)| *s)
                    .collect();
                for s in dead {
                    events.remove(&s);
                }
                // Blocked processes on the host are killed: the run loop
                // reaps them (unwinding coroutines via a filtered panic)
                // at its next deterministic reap point.
                for (&id, st) in lps.iter_mut() {
                    if st.host == host && st.state == RunState::Blocked {
                        st.state = RunState::Killed;
                        reap.push(id);
                    }
                }
                if core.check_on {
                    // Every process of the crashed host had its pending
                    // wakes purged; late signals to them are expected, not
                    // lost wakeups.
                    let mut doomed: Vec<u64> = lps
                        .iter()
                        .filter(|(_, s)| s.host == host)
                        .map(|(&id, _)| id)
                        .collect();
                    doomed.sort_unstable();
                    let mut chk = core.check.borrow_mut();
                    for lp in doomed {
                        chk.on_lp_killed(lp);
                    }
                }
            }
            EvKind::Restart { host } => {
                let jumped = {
                    let mut h = core.hosts.borrow_mut();
                    if !h.down[host.0] {
                        continue; // Not down; nothing to restart.
                    }
                    h.down[host.0] = false;
                    h.epoch[host.0] += 1;
                    h.stats[host.0].restarts += 1;
                    let cpu = &mut h.cpu[host.0];
                    let idle = t.saturating_sub(*cpu);
                    *cpu = (*cpu).max(t);
                    (idle, *cpu)
                };
                if core.journal_on.get() {
                    core.journal.borrow_mut().push(JournalRecord::Boot {
                        host: host.0 as u32,
                        kind: 1,
                        t,
                    });
                }
                if core.trace_on && jumped.0 > 0 {
                    core.trace.borrow_mut().attribute_stack(
                        host.0,
                        EMPTY_STACK,
                        None,
                        OpClass::Idle,
                        jumped.0,
                        jumped.1,
                    );
                }
                // The kernel reboots as a fresh shepherd process, giving
                // every protocol its reboot hook.
                let f: Thunk = Box::new(move |ctx: &Ctx| {
                    if let Err(e) = ctx.kernel().reboot_protocols(ctx) {
                        panic!("reboot failed on host {}: {e}", ctx.host().0);
                    }
                });
                let task = new_lp(
                    g,
                    host,
                    ProcBody::Thunk(f),
                    core.fuel_limit.unwrap_or(u64::MAX),
                );
                if core.check_on {
                    core.check.borrow_mut().on_lp_start(task.lp.0, host.0, seq);
                }
                return Next::Task(task);
            }
            EvKind::Wake { lp, reason } => {
                let Some(st) = g.lps.get_mut(&lp.0) else {
                    // Process already gone; stale wake.
                    if core.check_on {
                        core.check.borrow_mut().on_stale_wake(lp.0);
                    }
                    continue;
                };
                if st.state != RunState::Blocked {
                    // Stale wake; cancellation should prevent this.
                    if core.check_on {
                        core.check.borrow_mut().on_stale_wake(lp.0);
                    }
                    continue;
                }
                let host = st.host;
                st.state = RunState::Running;
                st.wake_reason = reason;
                g.current = Some(lp);
                let switch = core.cost.proc_switch;
                let jumped = {
                    let mut h = core.hosts.borrow_mut();
                    let cpu = &mut h.cpu[host.0];
                    let idle = t.saturating_sub(*cpu);
                    *cpu = (*cpu).max(t) + switch;
                    (idle, *cpu)
                };
                // Both the wait and the resume switch belong to the woken
                // process's span stack (e.g. CHANNEL blocked for a reply).
                if core.trace_on {
                    let key = SpanKey::Lp(lp.0);
                    let mut tr = core.trace.borrow_mut();
                    tr.attribute(host.0, key, OpClass::Idle, jumped.0, jumped.1);
                    tr.attribute(host.0, key, OpClass::Switch, switch, jumped.1);
                }
                return Next::Resume(lp);
            }
        }
    }
}

/// Registers a fresh logical process (ids allocated in event order, which
/// determinism depends on) and claims the run token for it.
fn new_lp(g: &mut RefMut<'_, Sched>, host: HostId, body: ProcBody, fuel: u64) -> Task {
    let lp = LpId(g.next_lp);
    g.next_lp += 1;
    g.lps.insert(
        lp.0,
        LpState {
            host,
            state: RunState::Running,
            wake_reason: WakeReason::Normal,
            body: None,
            wait_sema: None,
            fuel,
        },
    );
    g.peak_live = g.peak_live.max(g.lps.len());
    g.current = Some(lp);
    Task { lp, host, body }
}

/// Installs (once, process-wide) a panic hook that silences the
/// [`CrashKill`]/[`FuelKill`] unwinds used to reap killed processes;
/// everything else is forwarded to the previous hook.
fn install_crash_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CrashKill>() || info.payload().is::<FuelKill>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Upper bound on pooled coroutine stacks (512 KiB + guard page each).
/// Beyond this, finished stacks are unmapped instead of recycled.
const STACK_POOL_CAP: usize = 256;

/// Starts a fresh process's body. Thunks get a (pooled) stack and run as a
/// coroutine until they block or finish; machines step on this stack.
/// Called with no scheduler borrow held; the run token is already `task.lp`.
fn run_task(core: &Rc<SimCore>, task: Task) {
    match task.body {
        ProcBody::Thunk(f) => {
            let stack = core
                .stacks
                .borrow_mut()
                .pop()
                .unwrap_or_else(|| vproc::Stack::new(vproc::STACK_SIZE));
            let fuel = core.fuel_limit.unwrap_or(u64::MAX);
            let wrapper_core = Rc::clone(core);
            let lp = task.lp;
            let host = task.host;
            let body: Box<dyn FnOnce()> = Box::new(move || {
                let ctx = Ctx::new(&wrapper_core, host, Some(lp));
                let result = catch_unwind(AssertUnwindSafe(move || f(&ctx)));
                if let Err(p) = result {
                    if p.is::<CrashKill>() {
                        // Normal death of a process whose host crashed.
                    } else if p.is::<FuelKill>() {
                        wrapper_core.sched.borrow_mut().fuel_exhausted += 1;
                        if wrapper_core.check_on {
                            // Killed mid-protocol: late signals to it are
                            // expected, not lost wakeups.
                            wrapper_core.check.borrow_mut().on_lp_killed(lp.0);
                        }
                    } else {
                        let text = p
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| p.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        wrapper_core.sched.borrow_mut().panics.push(text);
                    }
                }
            });
            let coro = vproc::Coro::new(stack, body, fuel);
            drive_coro(core, task.lp, coro);
        }
        ProcBody::Machine(m) => {
            step_machine(core, task.lp, task.host, m, WakeReason::Normal);
        }
    }
}

/// Resumes a coroutine and parks or retires it afterwards. Called with
/// no scheduler borrow held.
fn drive_coro(core: &Rc<SimCore>, lp: LpId, mut coro: vproc::Coro) {
    let finished = coro.resume();
    if finished {
        {
            let mut g = core.sched.borrow_mut();
            if g.current == Some(lp) {
                g.current = None;
            }
            g.lps.remove(&lp.0);
        }
        if core.trace_on {
            // The guards unwound with the process; discard its (empty)
            // span stack so the table doesn't grow with process count.
            core.trace.borrow_mut().drop_key(SpanKey::Lp(lp.0));
        }
        let stack = coro.into_stack();
        let mut pool = core.stacks.borrow_mut();
        if pool.len() < STACK_POOL_CAP {
            pool.push(stack);
        }
    } else {
        // Blocked: `block_current` already marked it and released the run
        // token; park the suspended stack with the process.
        let mut g = core.sched.borrow_mut();
        let st = g
            .lps
            .get_mut(&lp.0)
            .expect("suspended process still registered");
        st.body = Some(LpBody::Coro(coro));
    }
}

/// Resumes a blocked process the scheduler just woke. Called with no
/// scheduler borrow held; the run token is already `lp`.
fn resume_lp(core: &Rc<SimCore>, lp: LpId) {
    let (body, host, reason, waited) = {
        let mut g = core.sched.borrow_mut();
        let st = g.lps.get_mut(&lp.0).expect("woken process registered");
        (
            st.body.take().expect("woken process has a continuation"),
            st.host,
            st.wake_reason,
            st.wait_sema.take(),
        )
    };
    match body {
        LpBody::Coro(coro) => drive_coro(core, lp, coro),
        LpBody::Machine(m) => {
            if core.check_on {
                if let Some(sema_id) = waited {
                    // The scheduler performed the machine's wait; close it
                    // out exactly where `p`/`p_timeout` would have.
                    core.check.borrow_mut().on_wait_end(
                        lp.0,
                        sema_id,
                        reason == WakeReason::Normal,
                    );
                }
            }
            step_machine(core, lp, host, m, reason);
        }
    }
}

/// Runs a machine from one blocking point to the next (or to completion),
/// performing the returned [`VStep`]s on its behalf. Called with no
/// scheduler borrow held; the run token is `lp`.
fn step_machine(
    core: &Rc<SimCore>,
    lp: LpId,
    host: HostId,
    mut m: Box<dyn VProc>,
    mut reason: WakeReason,
) {
    let ctx = Ctx::new(core, host, Some(lp));
    loop {
        // Machines pay one fuel unit per resume; exhaustion kills the
        // process at this deterministic point, like a coroutine's FuelKill.
        {
            let mut g = core.sched.borrow_mut();
            let st = g.lps.get_mut(&lp.0).expect("machine process registered");
            if st.fuel == 0 {
                g.fuel_exhausted += 1;
                finalize_lp(core, g, lp);
                if core.check_on {
                    core.check.borrow_mut().on_lp_killed(lp.0);
                }
                return;
            }
            if st.fuel != u64::MAX {
                st.fuel -= 1;
            }
        }
        core.hosts.borrow_mut().fuel[host.0] += 1;
        match m.resume(&ctx, reason) {
            VStep::Done => {
                let g = core.sched.borrow_mut();
                finalize_lp(core, g, lp);
                return;
            }
            VStep::Sleep(dt) => {
                // Mirror `Ctx::sleep` exactly: the wake is stamped from the
                // host clock *before* the switch charge lands.
                let t = ctx.event_time() + dt;
                {
                    let mut g = core.sched.borrow_mut();
                    let seq = g.seq;
                    g.seq += 1;
                    g.events.insert(
                        seq,
                        EvKind::Wake {
                            lp,
                            reason: WakeReason::Normal,
                        },
                    );
                    g.heap.push(std::cmp::Reverse((t, seq)));
                }
                ctx.charge_class(OpClass::Switch, core.cost.proc_switch);
                let mut g = core.sched.borrow_mut();
                let st = g.lps.get_mut(&lp.0).expect("machine process registered");
                st.state = RunState::Blocked;
                st.wait_sema = None;
                st.body = Some(LpBody::Machine(m));
                g.current = None;
                return;
            }
            VStep::Wait { sema, timeout } => {
                if sema.register_wait(&ctx, lp, timeout) {
                    // Fast path: a unit was available; no block happened.
                    reason = WakeReason::Normal;
                    continue;
                }
                ctx.charge_class(OpClass::Switch, core.cost.proc_switch);
                let mut g = core.sched.borrow_mut();
                let st = g.lps.get_mut(&lp.0).expect("machine process registered");
                st.state = RunState::Blocked;
                st.wait_sema = Some(sema.check_id());
                st.body = Some(LpBody::Machine(m));
                g.current = None;
                return;
            }
        }
    }
}

/// Retires a finished or killed process: releases the run token if it holds
/// it, unregisters it, and discards its span stack.
fn finalize_lp(core: &Rc<SimCore>, mut g: RefMut<'_, Sched>, lp: LpId) {
    if g.current == Some(lp) {
        g.current = None;
    }
    g.lps.remove(&lp.0);
    drop(g);
    if core.trace_on {
        core.trace.borrow_mut().drop_key(SpanKey::Lp(lp.0));
    }
}

/// Reaps one crash-killed process: a coroutine is resumed so it unwinds via
/// [`CrashKill`] (running its drop guards), a machine is simply dropped.
/// Called with no scheduler borrow held, with the run token free.
fn reap_lp(core: &Rc<SimCore>, id: u64) {
    let body = {
        let mut g = core.sched.borrow_mut();
        match g.lps.get_mut(&id) {
            Some(st) if st.state == RunState::Killed => st.body.take(),
            // Already gone (e.g. reaped via an earlier crash); nothing to do.
            _ => return,
        }
    };
    match body {
        Some(LpBody::Coro(coro)) => {
            // Resuming lets `block_current` observe Killed and unwind; the
            // wrapper filters the CrashKill payload and the coroutine
            // finishes, so drive_coro retires it and recycles the stack.
            drive_coro(core, LpId(id), coro);
        }
        Some(LpBody::Machine(_)) | None => {
            let g = core.sched.borrow_mut();
            finalize_lp(core, g, LpId(id));
        }
    }
}

/// Execution context handed to every protocol operation: identifies the
/// current host and (in scheduled mode) the current shepherd process, and
/// provides time, charging, timers, and spawning.
#[derive(Clone)]
pub struct Ctx {
    core: Rc<SimCore>,
    /// The kernel of `host`, resolved once so that protocol code reaches
    /// it without a table lookup (`None` for a host with no kernel yet).
    kernel: Option<Rc<HostKernel>>,
    host: HostId,
    lp: Option<LpId>,
}

impl Ctx {
    fn new(core: &Rc<SimCore>, host: HostId, lp: Option<LpId>) -> Ctx {
        Ctx {
            core: Rc::clone(core),
            kernel: core.kernels.borrow().get(host.0).cloned(),
            host,
            lp,
        }
    }

    /// The host this context executes on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Execution mode.
    pub fn mode(&self) -> Mode {
        self.core.mode
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.core.cost
    }

    /// The kernel of the current host.
    ///
    /// # Panics
    ///
    /// Panics if no kernel was registered for the host when this context
    /// was made.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self
            .kernel
            .as_ref()
            .expect("context bound to a host with a kernel")
            .0
    }

    /// The kernel of another host.
    pub fn kernel_of(&self, host: HostId) -> Arc<Kernel> {
        Arc::clone(&self.core.kernels.borrow()[host.0].0)
    }

    /// This context re-bound to another host (used by the inline network to
    /// continue the call chain on the destination kernel).
    pub fn with_host(&self, host: HostId) -> Ctx {
        Ctx::new(&self.core, host, self.lp)
    }

    /// Current virtual time of this host's CPU (0 in inline mode).
    pub fn now(&self) -> Time {
        if self.core.mode == Mode::Inline {
            return 0;
        }
        self.core.hosts.borrow().cpu[self.host.0]
    }

    /// Charges `ns` of virtual CPU time to this host as unclassified
    /// protocol work. No-op in inline mode. Borrows only the host clocks,
    /// never the event queue.
    pub fn charge(&self, ns: Nanos) {
        self.charge_class(OpClass::Compute, ns);
    }

    /// Charges `ns` of virtual CPU time to this host, attributed (when
    /// tracing is on) to the active layer under the given operation class.
    /// Every charge is also one fuel unit: the deterministic budget a
    /// [`SimConfig::with_fuel`] simulation kills runaway processes by.
    pub fn charge_class(&self, class: OpClass, ns: Nanos) {
        if self.core.mode == Mode::Inline || ns == 0 {
            return;
        }
        let t = {
            let mut h = self.core.hosts.borrow_mut();
            h.fuel[self.host.0] += 1;
            let cpu = &mut h.cpu[self.host.0];
            *cpu += ns;
            *cpu
        };
        if self.core.trace_on {
            self.core
                .trace
                .borrow_mut()
                .attribute(self.host.0, self.span_key(), class, ns, t);
        }
        // The exhausting tick is raised only after the charge has landed
        // and every borrow is released, so the kill point is clean.
        if vproc::fuel_tick() {
            panic_any(FuelKill);
        }
    }

    /// The span-stack key of this context: its shepherd process, or the
    /// host's setup stack outside any process.
    fn span_key(&self) -> SpanKey {
        match self.lp {
            Some(lp) => SpanKey::Lp(lp.0),
            None => SpanKey::Host(self.host.0),
        }
    }

    /// Records a robustness event against this context's host. The per-host
    /// tallies surface in [`RunReport::hosts`].
    pub fn note(&self, ev: RobustEvent) {
        let mut h = self.core.hosts.borrow_mut();
        let Some(s) = h.stats.get_mut(self.host.0) else {
            return;
        };
        match ev {
            RobustEvent::Retransmit => s.retransmits += 1,
            RobustEvent::DuplicateSuppressed => s.duplicates_suppressed += 1,
            RobustEvent::CorruptRejected => s.corrupt_rejected += 1,
            RobustEvent::TimeoutFired => s.timeouts_fired += 1,
        }
    }

    /// This host's boot incarnation: 0 at first boot, bumped on every
    /// [`Sim::restart`].
    pub fn boot_epoch(&self) -> u32 {
        self.core
            .hosts
            .borrow()
            .epoch
            .get(self.host.0)
            .copied()
            .unwrap_or(0)
    }

    /// Charges the cost of crossing one protocol layer. The kernel's demux
    /// choke point calls this; protocols call it for their downward calls.
    pub fn charge_layer_call(&self) {
        self.charge_class(OpClass::LayerCall, self.core.cost.layer_call);
    }

    /// Creates a message holding `payload` under the simulation's
    /// header-buffer policy. Protocols create every outgoing message this
    /// way so the policy ablation governs the whole system.
    pub fn msg(&self, payload: Vec<u8>) -> Message {
        Message::from_user_with(self.core.policy, payload)
    }

    /// Creates an empty message under the simulation's header policy.
    pub fn empty_msg(&self) -> Message {
        Message::empty_with(self.core.policy)
    }

    /// Pushes a header onto `msg`, charging for the bytes touched and for
    /// any allocation the message's [`crate::msg::HeaderPolicy`] incurred.
    pub fn push_header(&self, msg: &mut Message, header: &[u8]) {
        let stats = msg.push_header(header);
        if self.core.mode == Mode::Scheduled {
            let c = &self.core.cost;
            self.charge_class(OpClass::Header, header.len() as u64 * c.header_byte);
            self.charge_class(OpClass::Copy, stats.copied as u64 * c.copy_byte);
            if stats.allocated {
                self.charge_class(OpClass::Alloc, c.alloc);
            }
        }
        self.trace_event(EventKind::Header, header.len() as u64);
    }

    /// Pops an `n`-byte header from `msg`, charging for the bytes touched.
    pub fn pop_header<'m>(&self, msg: &'m mut Message, n: usize) -> XResult<Popped<'m>> {
        if self.core.mode == Mode::Scheduled {
            let c = &self.core.cost;
            self.charge_class(OpClass::Header, n as u64 * c.header_byte);
        }
        let popped = msg.pop_header(n)?;
        if self.core.mode == Mode::Scheduled {
            let copied = popped.stats().copied as u64;
            self.charge_class(OpClass::Copy, copied * self.core.cost.copy_byte);
        }
        self.trace_event(EventKind::Header, n as u64);
        Ok(popped)
    }

    /// Spawns a shepherd process on `host` at the current time.
    pub fn spawn_on(&self, host: HostId, f: impl FnOnce(&Ctx) + 'static) {
        match self.core.mode {
            Mode::Inline => {
                let ctx = self.with_host(host);
                f(&ctx);
            }
            Mode::Scheduled => {
                let t = self.event_time();
                self.schedule_run_at(t, host, Box::new(f));
            }
        }
    }

    /// The timestamp outgoing actions of this context carry: the host CPU
    /// clock when inside a process, else the global event clock.
    pub fn event_time(&self) -> Time {
        if self.lp.is_some() {
            // Inside a process the host clock alone decides; skip the
            // scheduler state entirely (hot path for timers and sends).
            self.core.hosts.borrow().cpu[self.host.0]
        } else {
            let g = self.core.sched.borrow();
            let now = g.now;
            drop(g);
            now.max(self.core.hosts.borrow().cpu[self.host.0])
        }
    }

    /// Spawns a stackless [`VProc`] machine as a shepherd process on
    /// `host` at the current time. Scheduled mode only (machines block by
    /// returning [`VStep`]s to the scheduler, which inline mode lacks).
    pub fn spawn_vproc_on(&self, host: HostId, m: Box<dyn VProc>) {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "virtual-process machines require scheduled mode"
        );
        let t = self.event_time();
        self.schedule_proc_at(t, host, ProcBody::Machine(m));
    }

    /// Schedules `f` to run as a new shepherd process on `host` at absolute
    /// virtual time `t`. Scheduled mode only (inline callers use
    /// [`Ctx::spawn_on`]).
    pub fn schedule_run_at(&self, t: Time, host: HostId, f: Thunk) -> TimerHandle {
        self.schedule_proc_at(t, host, ProcBody::Thunk(f))
    }

    fn schedule_proc_at(&self, t: Time, host: HostId, body: ProcBody) -> TimerHandle {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "absolute scheduling requires virtual time"
        );
        let mut g = self.core.sched.borrow_mut();
        if self
            .core
            .hosts
            .borrow()
            .down
            .get(host.0)
            .copied()
            .unwrap_or(false)
        {
            // A crashed host arms no timers and accepts no deliveries; the
            // work is silently dropped, exactly as its in-flight state was.
            return TimerHandle::NONE;
        }
        let seq = g.seq;
        g.seq += 1;
        g.events.insert(seq, EvKind::Run { host, body });
        g.heap.push(std::cmp::Reverse((t, seq)));
        if self.core.check_on {
            if let Some(lp) = self.lp {
                // Fork edge: deposit the spawner's clock under the new Run
                // event's seq; the spawned process joins it at start.
                self.core.check.borrow_mut().on_spawn(lp.0, seq);
            }
        }
        TimerHandle(seq)
    }

    /// Arms a timer: after `dt` of virtual time, `f` runs as a new shepherd
    /// process on this host. In inline mode timers never fire and the
    /// returned handle is inert — protocols must therefore bound any state
    /// they would otherwise rely on a timer to reclaim.
    pub fn schedule_after(&self, dt: Nanos, f: impl FnOnce(&Ctx) + 'static) -> TimerHandle {
        if self.core.mode == Mode::Inline {
            return TimerHandle::NONE;
        }
        self.charge_class(OpClass::Timer, self.core.cost.timer_op);
        let t = self.event_time() + dt;
        self.schedule_run_at(t, self.host, Box::new(f))
    }

    /// Cancels a timer. Harmless if it already fired or is inert.
    pub fn cancel_timer(&self, h: TimerHandle) {
        if h == TimerHandle::NONE || self.core.mode == Mode::Inline {
            return;
        }
        self.charge_class(OpClass::Timer, self.core.cost.timer_op);
        self.core.sched.borrow_mut().events.remove(&h.0);
    }

    /// Blocks the current shepherd process until woken; returns why it woke.
    ///
    /// # Panics
    ///
    /// Panics in inline mode or outside a shepherd process: blocking there
    /// indicates either a borrow-discipline violation or a workload that
    /// genuinely needs scheduled mode.
    pub(crate) fn block_current(&self) -> WakeReason {
        let lp = match (self.core.mode, self.lp) {
            (Mode::Scheduled, Some(lp)) => lp,
            (Mode::Inline, _) => panic!(
                "process would block in inline mode: the awaited event cannot \
                 occur (use scheduled mode for this workload)"
            ),
            (_, None) => panic!("blocking outside a shepherd process"),
        };
        self.charge_class(OpClass::Switch, self.core.cost.proc_switch);
        {
            let mut g = self.core.sched.borrow_mut();
            let st = g.lps.get_mut(&lp.0).expect("current process registered");
            st.state = RunState::Blocked;
            st.wait_sema = None; // Coroutines run their own wait-end hooks.
            g.current = None;
        }
        // Suspend this coroutine; the scheduler's run loop picks the next
        // event. The next resume lands right here.
        vproc::yield_now();
        let g = self.core.sched.borrow();
        let st = g.lps.get(&lp.0).expect("blocked process cannot vanish");
        match st.state {
            RunState::Running => st.wake_reason,
            RunState::Killed => {
                // Host crashed while we were blocked: unwind this process.
                // The coroutine wrapper recognises the payload.
                drop(g);
                panic_any(CrashKill);
            }
            RunState::Blocked => unreachable!("coroutine resumed while still blocked"),
        }
    }

    /// Schedules a wake for a blocked process at this context's current
    /// time. Used by [`SharedSema`]; stale wakes are prevented by timer
    /// cancellation, and ignored defensively by the scheduler.
    pub(crate) fn wake(&self, lp: LpId, reason: WakeReason) {
        let t = self.event_time();
        let mut g = self.core.sched.borrow_mut();
        let seq = g.seq;
        g.seq += 1;
        g.events.insert(seq, EvKind::Wake { lp, reason });
        g.heap.push(std::cmp::Reverse((t, seq)));
    }

    /// Suspends the current process for `dt` of virtual time. No-op in
    /// inline mode.
    pub fn sleep(&self, dt: Nanos) {
        if self.core.mode == Mode::Inline {
            return;
        }
        let lp = self.lp.expect("sleep outside a shepherd process");
        let t = self.event_time() + dt;
        let mut g = self.core.sched.borrow_mut();
        let seq = g.seq;
        g.seq += 1;
        g.events.insert(
            seq,
            EvKind::Wake {
                lp,
                reason: WakeReason::Normal,
            },
        );
        g.heap.push(std::cmp::Reverse((t, seq)));
        drop(g);
        self.block_current();
    }

    /// The current logical process, if any.
    pub(crate) fn lp(&self) -> Option<LpId> {
        self.lp
    }

    /// Next value from the simulation PRNG.
    pub fn next_u64(&self) -> u64 {
        next_u64_of(&self.core)
    }

    /// Records a realized network fault (called by simnet's transmit path
    /// after the fault schedule decides a packet's fate). No-op unless
    /// journaling is on. `kind` is one of the `crate::journal::FAULT_*`
    /// tags; `aux` carries the kind-specific detail.
    pub fn journal_fault(&self, lan: u32, index: u64, kind: u8, aux: u64) {
        if !self.core.journal_on.get() {
            return;
        }
        self.core.journal.borrow_mut().push(JournalRecord::Fault {
            lan,
            index,
            kind,
            aux,
        });
    }

    /// Whether structured tracing is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.core.trace_on
    }

    /// Records a protocol annotation as a structured [`EventKind::Note`]
    /// event, attributed to the active layer. Free when tracing is off;
    /// notes are static strings so no formatting ever happens on the hot
    /// path.
    pub fn trace_note(&self, note: &'static str) {
        self.trace_event(EventKind::Note(note), 0);
    }

    /// Records a structured trace event against the active layer.
    fn trace_event(&self, kind: EventKind, len: u64) {
        if !self.core.trace_on {
            return;
        }
        let t = self.now_for_trace();
        let mut tr = self.core.trace.borrow_mut();
        let proto = tr.top(self.span_key());
        tr.record(Event {
            host: self.host,
            t,
            proto,
            kind,
            len,
            ns: 0,
        });
    }

    /// Enters a protocol layer's span: subsequent charges from this
    /// context (until the guard drops) are attributed to `proto`. The
    /// `dyn Session`/`dyn Protocol` wrappers in [`crate::proto`] call this
    /// at every push/demux boundary; protocol code never needs to.
    pub fn enter_layer(&self, proto: ProtoId, kind: EventKind, msg_len: u64) -> LayerSpan {
        if !self.core.trace_on {
            return LayerSpan { inner: None };
        }
        let t = self.now_for_trace();
        let key = self.span_key();
        let mut tr = self.core.trace.borrow_mut();
        tr.span_push(key, proto);
        tr.record(Event {
            host: self.host,
            t,
            proto: Some(proto),
            kind,
            len: msg_len,
            ns: 0,
        });
        LayerSpan {
            inner: Some((Rc::clone(&self.core), key)),
        }
    }

    /// The per-layer cost ledger accumulated so far (empty unless tracing
    /// is enabled). Callable mid-run from inside a shepherd process, which
    /// is race-free in scheduled mode (one process runs at a time).
    pub fn cost_breakdown(&self) -> CostBreakdown {
        breakdown_of(&self.core)
    }

    /// Clears the event rings and cost ledger; see [`Sim::trace_clear`].
    pub fn trace_clear(&self) {
        if !self.core.trace_on {
            return;
        }
        self.core.trace.borrow_mut().clear();
    }

    fn now_for_trace(&self) -> Time {
        if self.core.mode == Mode::Inline {
            0
        } else {
            self.core.hosts.borrow().cpu[self.host.0]
        }
    }
}

/// RAII guard for one layer's span: created by [`Ctx::enter_layer`], pops
/// the span frame when dropped (including during a crash unwind, so span
/// stacks stay balanced under [`Sim::crash_at`]). Inert when tracing is
/// off — no allocation, no locking.
pub struct LayerSpan {
    inner: Option<(Rc<SimCore>, SpanKey)>,
}

impl Drop for LayerSpan {
    fn drop(&mut self) {
        if let Some((core, key)) = self.inner.take() {
            core.trace.borrow_mut().span_pop(key);
        }
    }
}

struct Waiter {
    lp: LpId,
    timer: Option<TimerHandle>,
    seq: u64,
}

struct SemaState {
    count: i64,
    waiters: VecDeque<Waiter>,
    next_seq: u64,
}

/// The state behind a [`SharedSema`], shared through one `Rc`.
struct SemaCore {
    st: RefCell<SemaState>,
    /// Globally unique identity for the checker's holding/wait-for maps.
    id: u64,
    /// Human-readable label for violation reports.
    label: &'static str,
}

/// Source of semaphore checker identities; process-wide so distinct
/// simulations never alias.
static NEXT_SEMA_ID: AtomicU64 = AtomicU64::new(0);

/// A counting semaphore integrated with the simulator: P blocks the shepherd
/// process in scheduled mode; in inline mode P on a zero count is a
/// programming error for plain [`SharedSema::p`] and a clean `false` for
/// [`SharedSema::p_timeout`] (the awaited event can never arrive inline, so
/// the timeout outcome is the truthful one). Clones share one semaphore,
/// which is how [`SharedSema::p_timeout`] hands it to its timeout closure.
#[derive(Clone)]
pub struct SharedSema(Rc<SemaCore>);

impl SharedSema {
    /// A semaphore with the given initial count.
    pub fn new(initial: i64) -> SharedSema {
        SharedSema::labeled(initial, "sema")
    }

    /// A semaphore with the given initial count and a label that xcheck
    /// violation reports (deadlock cycles, double waits) will carry.
    pub fn labeled(initial: i64, label: &'static str) -> SharedSema {
        SharedSema(Rc::new(SemaCore {
            st: RefCell::new(SemaState {
                count: initial,
                waiters: VecDeque::new(),
                next_seq: 0,
            }),
            id: NEXT_SEMA_ID.fetch_add(1, Ordering::Relaxed),
            label,
        }))
    }

    /// Current count (tests/introspection).
    pub fn count(&self) -> i64 {
        self.0.st.borrow().count
    }

    /// Drops any units left over (a late signal after a timeout), so a
    /// semaphore reused from round to round, such as a channel's reply
    /// semaphore at the start of each call, starts every round at zero.
    /// No process may be parked on it.
    pub fn reset(&self) {
        let mut st = self.0.st.borrow_mut();
        debug_assert!(st.waiters.is_empty(), "sema reset with waiters parked");
        st.count = 0;
    }

    /// Captures `(count, next_seq)` for a whole-sim snapshot. Legal only at
    /// a quiescent instant — no process can be parked on the semaphore
    /// then, so losing the (empty) waiter queue is sound.
    pub fn snap_state(&self) -> (i64, u64) {
        let st = self.0.st.borrow();
        debug_assert!(
            st.waiters.is_empty(),
            "sema snapshot with waiters parked (not quiescent)"
        );
        (st.count, st.next_seq)
    }

    /// Restores state captured by [`SharedSema::snap_state`]. Same
    /// quiescence requirement; any stray waiters are dropped.
    pub fn restore_state(&self, (count, next_seq): (i64, u64)) {
        let mut st = self.0.st.borrow_mut();
        st.waiters.clear();
        st.count = count;
        st.next_seq = next_seq;
    }

    /// P's fast path: charges the operation and takes a unit if one is
    /// free.
    fn try_take(&self, ctx: &Ctx) -> bool {
        ctx.charge_class(OpClass::Sema, ctx.cost().sema_op);
        {
            let mut st = self.0.st.borrow_mut();
            if st.count <= 0 {
                return false;
            }
            st.count -= 1;
        }
        if ctx.core.check_on {
            if let Some(lp) = ctx.lp {
                let mut chk = ctx.core.check.borrow_mut();
                chk.on_acquire(lp.0, self.0.id, self.0.label, ctx.host.0);
            }
        }
        true
    }

    /// Queues `lp` behind the semaphore and returns its place in line.
    fn enqueue(&self, ctx: &Ctx, lp: LpId) -> u64 {
        let seq = {
            let mut st = self.0.st.borrow_mut();
            let seq = st.next_seq;
            st.next_seq += 1;
            st.waiters.push_back(Waiter {
                lp,
                timer: None,
                seq,
            });
            seq
        };
        if ctx.core.check_on {
            let mut chk = ctx.core.check.borrow_mut();
            chk.on_wait_begin(lp.0, self.0.id, self.0.label, ctx.host.0);
        }
        seq
    }

    /// P: acquire one unit, blocking until available.
    pub fn p(&self, ctx: &Ctx) {
        if self.try_take(ctx) {
            return;
        }
        if ctx.mode() == Mode::Inline {
            panic!("SharedSema::p would block in inline mode");
        }
        let lp = ctx.lp().expect("P outside a shepherd process");
        self.enqueue(ctx, lp);
        let reason = ctx.block_current();
        debug_assert_eq!(reason, WakeReason::Normal, "untimed P woke by timeout");
        if ctx.core.check_on {
            ctx.core
                .check
                .borrow_mut()
                .on_wait_end(lp.0, self.0.id, true);
        }
    }

    /// V: release one unit, waking the longest-waiting process if any.
    pub fn v(&self, ctx: &Ctx) {
        ctx.charge_class(OpClass::Sema, ctx.cost().sema_op);
        let woken = {
            let mut st = self.0.st.borrow_mut();
            match st.waiters.pop_front() {
                Some(w) => Some(w),
                None => {
                    st.count += 1;
                    None
                }
            }
        };
        if ctx.core.check_on {
            ctx.core.check.borrow_mut().on_release(
                ctx.lp.map(|l| l.0),
                self.0.id,
                self.0.label,
                ctx.host.0,
                woken.as_ref().map(|w| w.lp.0),
            );
        }
        if let Some(w) = woken {
            if let Some(t) = w.timer {
                ctx.cancel_timer(t);
            }
            ctx.wake(w.lp, WakeReason::Normal);
        }
    }

    /// P with timeout; `true` if acquired.
    pub fn p_timeout(&self, ctx: &Ctx, dt: Nanos) -> bool {
        if self.try_take(ctx) {
            return true;
        }
        if ctx.mode() == Mode::Inline {
            return false;
        }
        let lp = ctx.lp().expect("P outside a shepherd process");
        let seq = self.enqueue(ctx, lp);
        self.arm_timeout(ctx, lp, seq, dt);
        let acquired = matches!(ctx.block_current(), WakeReason::Normal);
        if ctx.core.check_on {
            ctx.core
                .check
                .borrow_mut()
                .on_wait_end(lp.0, self.0.id, acquired);
        }
        acquired
    }

    /// Arms the timer that, `dt` from now, withdraws waiter `seq` (process
    /// `lp`) from the queue and wakes it with [`WakeReason::Timeout`].
    fn arm_timeout(&self, ctx: &Ctx, lp: LpId, seq: u64, dt: Nanos) {
        let me = Rc::clone(&self.0);
        let timer = ctx.schedule_after(dt, move |tctx| {
            let mut st = me.st.borrow_mut();
            if let Some(pos) = st.waiters.iter().position(|w| w.seq == seq) {
                st.waiters.remove(pos);
                drop(st);
                tctx.wake(lp, WakeReason::Timeout);
            }
        });
        let mut st = self.0.st.borrow_mut();
        if let Some(w) = st.waiters.iter_mut().find(|w| w.seq == seq) {
            w.timer = Some(timer);
        }
    }

    /// The checker identity of this semaphore (for [`LpState::wait_sema`]).
    pub(crate) fn check_id(&self) -> u64 {
        self.0.id
    }

    /// Registers a *machine* wait on behalf of the scheduler: the
    /// charge/fast-path/waiter/timer sequence of [`SharedSema::p`] and
    /// [`SharedSema::p_timeout`] without the block itself. Returns `true`
    /// when a unit was acquired immediately (no block needed); otherwise
    /// the waiter (and optional timeout timer) is registered and the
    /// caller parks the machine. The matching `on_wait_end` hook runs when
    /// the scheduler resumes the machine.
    pub(crate) fn register_wait(&self, ctx: &Ctx, lp: LpId, timeout: Option<Nanos>) -> bool {
        if self.try_take(ctx) {
            return true;
        }
        let seq = self.enqueue(ctx, lp);
        if let Some(dt) = timeout {
            self.arm_timeout(ctx, lp, seq, dt);
        }
        false
    }
}
