//! Open- and closed-loop load generation with latency accounting.
//!
//! * **Closed loop**: K client processes, each issuing a call, recording
//!   its latency, thinking for a fixed interval, and repeating until its
//!   measurement window closes — offered load adapts to service rate, the
//!   classic interactive-population model.
//! * **Open loop**: arrivals drawn from a Poisson process at a target rate
//!   (exponential interarrivals from a seeded splitmix64 generator,
//!   precomputed at setup — the per-call hot path is integer-only). Each
//!   arrival is an independent process, so arrivals do **not** wait for
//!   earlier calls: offered load is held constant while the system
//!   saturates, which is what exposes tail latency.
//!
//! Latencies land in a log-scaled integer [`Hist`]; the run's verdict is a
//! [`LoadReport`] of integers deriving `Eq`, so determinism across seeds,
//! repeats, and parallel fan-out is a single assert.

use std::cell::RefCell;
use std::rc::Rc;

use inet::with_concrete;
use sunrpc::sunselect::SunSelect;
use xkernel::prelude::*;
use xkernel::shepherd::ShepherdStats;
use xkernel::sim::RunReport;
use xrpc::procs::ECHO_PROC;

use crate::hist::{Hist, LatencySummary};
use crate::topo::{build_rig, LoadRig, LoadStack, Topology, SUN_PROC, SUN_PROG, SUN_VERS};

/// How calls are generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenMode {
    /// `clients` processes (spread round-robin over the client hosts),
    /// each looping call → think(`think_ns`) for the duration.
    Closed {
        /// Client population.
        clients: u32,
        /// Fixed think time between a reply and the next call (ns).
        think_ns: u64,
    },
    /// Poisson arrivals at `rate_cps` calls/second aggregate, spread
    /// round-robin over the client hosts.
    Open {
        /// Target offered load, calls per (virtual) second.
        rate_cps: u64,
    },
}

impl GenMode {
    /// A short label for reports ("closed8/t1000000", "open400").
    pub fn label(&self) -> String {
        match *self {
            GenMode::Closed { clients, think_ns } => format!("closed{clients}/t{think_ns}"),
            GenMode::Open { rate_cps } => format!("open{rate_cps}"),
        }
    }
}

/// One fully-specified load run. `Copy`, so sweeps are plain vectors.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// The stack under load.
    pub stack: LoadStack,
    /// Client/server placement.
    pub topo: Topology,
    /// Generator shape.
    pub gen: GenMode,
    /// Measurement window (virtual ns).
    pub duration_ns: u64,
    /// Request payload size (bytes; the server echoes it).
    pub payload: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Server shepherd pool size (0 = dispatch inline in demux).
    pub shepherds: u64,
    /// Bounded pending-queue depth behind the pool.
    pub pending: u64,
    /// Overload policy: `true` rejects (NACK/BUSY), `false` drops.
    pub reject: bool,
    /// Enable the structured per-layer cost ledger.
    pub trace: bool,
}

impl LoadSpec {
    /// The graph parameters this spec splices into the pool-owning line.
    fn pool_params(&self) -> String {
        if self.shepherds == 0 {
            String::new()
        } else {
            format!(
                "shepherds={} pending={} policy={}",
                self.shepherds,
                self.pending,
                if self.reject { "reject" } else { "drop" }
            )
        }
    }

    /// Runs the load and returns its report.
    ///
    /// # Panics
    ///
    /// Panics if the testbed fails to build or any process is left blocked
    /// at the end of the run — both are harness bugs, not load outcomes.
    pub fn run(&self) -> LoadReport {
        let rig = self.build_warm();
        self.measure(&rig)
    }

    /// Builds the rig, registers the echo server, and warms every client —
    /// exactly the state a fork sweep ([`crate::fork`]) snapshots. The rig
    /// is quiescent on return, so [`xkernel::sim::Sim::snapshot`] is legal.
    ///
    /// # Panics
    ///
    /// Panics if the testbed fails to build or warm-up fails.
    pub fn build_warm(&self) -> LoadRig {
        let rig = build_rig(
            self.topo,
            self.stack,
            &self.pool_params(),
            self.seed,
            self.trace,
        )
        .expect("load testbed builds");
        serve_echo(&self.stack, &rig.server);
        warm(&rig, &self.stack);
        rig
    }

    /// Runs the measured window on an already-warmed rig and collects the
    /// report. Separate from [`LoadSpec::run`] so a fork sweep can measure
    /// the same warmed state repeatedly under different policies.
    ///
    /// # Panics
    ///
    /// Panics if any process is left blocked at the end of the run — a
    /// harness bug, not a load outcome.
    pub fn measure(&self, rig: &LoadRig) -> LoadReport {
        let shards = match self.gen {
            GenMode::Closed { clients, think_ns } => self.spawn_closed(rig, clients, think_ns),
            GenMode::Open { rate_cps } => self.spawn_open(rig, rate_cps),
        };
        let run = rig.sim.run_until_idle();
        assert_eq!(
            run.blocked,
            0,
            "{}: load left blocked processes",
            self.label()
        );

        let mut hist = Hist::new();
        let mut attempted = 0u64;
        let mut completed = 0u64;
        let mut failed = 0u64;
        for shard in &shards {
            let s = shard.borrow();
            hist.merge(&s.hist);
            attempted += s.attempted;
            completed += s.completed;
            failed += s.failed;
        }
        let shepherd = shepherd_stats(&self.stack, &rig.server);
        let scale =
            |n: u64| ((u128::from(n) * 1_000_000_000) / u128::from(self.duration_ns.max(1))) as u64;
        LoadReport {
            label: self.label(),
            stack: self.stack.name().to_string(),
            topo: self.topo.label(),
            gen: self.gen.label(),
            seed: self.seed,
            duration_ns: self.duration_ns,
            attempted,
            completed,
            failed,
            offered_cps: scale(attempted),
            goodput_cps: scale(completed),
            latency: hist.summary(),
            shepherd,
            run,
        }
    }

    fn label(&self) -> String {
        format!(
            "{}/{}/{}/seed={}",
            self.stack.name(),
            self.topo.label(),
            self.gen.label(),
            self.seed
        )
    }

    /// Closed loop: one process per client, measuring its own window.
    fn spawn_closed(&self, rig: &LoadRig, clients: u32, think_ns: u64) -> Vec<Rc<RefCell<Shard>>> {
        let n_hosts = rig.clients.len();
        let mut shards = Vec::with_capacity(clients as usize);
        for j in 0..clients as usize {
            let shard = Rc::new(RefCell::new(Shard::default()));
            shards.push(Rc::clone(&shard));
            let host = rig.clients[j % n_hosts].host();
            let stack = self.stack;
            let (server_ip, payload, duration) = (rig.server_ip, self.payload, self.duration_ns);
            rig.sim.spawn(host, move |ctx| {
                let end = ctx.now() + duration;
                while ctx.now() < end {
                    let t0 = ctx.now();
                    let got = do_call(&stack, ctx, server_ip, payload);
                    let dt = ctx.now() - t0;
                    let mut s = shard.borrow_mut();
                    s.attempted += 1;
                    match got {
                        Ok(r) if r.len() == payload => {
                            s.completed += 1;
                            s.hist.record(dt);
                        }
                        _ => s.failed += 1,
                    }
                    drop(s);
                    ctx.sleep(think_ns);
                }
            });
        }
        shards
    }

    /// Open loop: every Poisson arrival becomes its own process, scheduled
    /// at an *absolute* virtual instant before the window starts. Arrivals
    /// never wait for earlier calls — and because the schedule is absolute,
    /// CPU burned by in-flight calls cannot stretch it (a relative sleep
    /// against the shared host clock would quietly turn the loop closed).
    /// A call process only exists from its arrival until its reply, so
    /// in-flight calls, not total arrivals, bound the engine's footprint.
    fn spawn_open(&self, rig: &LoadRig, rate_cps: u64) -> Vec<Rc<RefCell<Shard>>> {
        let n_hosts = rig.clients.len();
        let offsets = poisson_offsets(self.seed, rate_cps, self.duration_ns);
        let shards: Vec<Rc<RefCell<Shard>>> = (0..n_hosts)
            .map(|_| Rc::new(RefCell::new(Shard::default())))
            .collect();
        // One common window start: no host may sit in its past.
        let base = rig
            .clients
            .iter()
            .map(|k| rig.sim.ctx(k.host()).event_time())
            .max()
            .expect("at least one client host");
        for (i, &offset) in offsets.iter().enumerate() {
            let h = i % n_hosts;
            let shard = Rc::clone(&shards[h]);
            let host = rig.clients[h].host();
            let stack = self.stack;
            let (server_ip, payload) = (rig.server_ip, self.payload);
            rig.sim.ctx(host).schedule_run_at(
                base + offset,
                host,
                Box::new(move |ctx| {
                    let t0 = ctx.now();
                    let got = do_call(&stack, ctx, server_ip, payload);
                    let dt = ctx.now() - t0;
                    let mut s = shard.borrow_mut();
                    s.attempted += 1;
                    match got {
                        Ok(r) if r.len() == payload => {
                            s.completed += 1;
                            s.hist.record(dt);
                        }
                        _ => s.failed += 1,
                    }
                }),
            );
        }
        shards
    }
}

/// Per-client (closed) or per-host (open) tally shard; merged in index
/// order after the run, so the merged result is deterministic. Shared with
/// [`crate::mclient`], whose machine clients tally per *host*.
#[derive(Default)]
pub(crate) struct Shard {
    pub(crate) hist: Hist,
    pub(crate) attempted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
}

/// Everything observable about one load run, all integers, `Eq`-comparable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// `stack/topo/gen/seed`, for assertion messages.
    pub label: String,
    /// Stack name.
    pub stack: String,
    /// Topology label.
    pub topo: String,
    /// Generator label.
    pub gen: String,
    /// Simulation seed.
    pub seed: u64,
    /// Measurement window (virtual ns).
    pub duration_ns: u64,
    /// Calls issued.
    pub attempted: u64,
    /// Calls that returned the full-length echo.
    pub completed: u64,
    /// Calls that errored (e.g. rejected under the `reject` policy).
    pub failed: u64,
    /// Attempted calls normalized to calls/second of window.
    pub offered_cps: u64,
    /// Completed calls normalized to calls/second of window.
    pub goodput_cps: u64,
    /// The latency distribution summary.
    pub latency: LatencySummary,
    /// Server-side shepherd pool counters.
    pub shepherd: ShepherdStats,
    /// The simulator's verdict (events, blocked, per-host counters, and —
    /// when tracing — the per-layer cost ledger).
    pub run: RunReport,
}

/// Registers the echo procedure on the server for `stack`.
pub(crate) fn serve_echo(stack: &LoadStack, server: &Kernel) {
    match stack {
        LoadStack::Paper(def) => {
            xrpc::serve(server, def.entry, ECHO_PROC, |_ctx, msg| Ok(msg)).expect("serve echo")
        }
        LoadStack::SunRpcUdp => with_concrete::<SunSelect, _>(server, "sunselect", |s| {
            s.serve(SUN_PROG, SUN_VERS, SUN_PROC, |_ctx, msg| Ok(msg))
        })
        .expect("sunselect registered"),
    }
}

/// One echo call on `stack` from the calling process's host.
pub(crate) fn do_call(
    stack: &LoadStack,
    ctx: &Ctx,
    server_ip: IpAddr,
    payload: usize,
) -> XResult<Vec<u8>> {
    let body = vec![0xa5u8; payload];
    match stack {
        LoadStack::Paper(def) => {
            let k = ctx.kernel();
            xrpc::call(ctx, k, def.entry, server_ip, ECHO_PROC, body)
        }
        LoadStack::SunRpcUdp => with_concrete::<SunSelect, _>(ctx.kernel(), "sunselect", |s| {
            s.call(ctx, server_ip, SUN_PROG, SUN_VERS, SUN_PROC, body)
        })
        .expect("sunselect registered"),
    }
}

/// One echo call from every client host on the quiet wire, so ARP caches,
/// routes, and session/channel state are warm before the measured window.
pub(crate) fn warm(rig: &LoadRig, stack: &LoadStack) {
    // One host at a time: concurrent warm-ups could trip a deliberately
    // tiny reject-policy pool, and warm-up must never fail.
    for k in &rig.clients {
        let stack = *stack;
        let server_ip = rig.server_ip;
        rig.sim.spawn(k.host(), move |ctx| {
            do_call(&stack, ctx, server_ip, 8).expect("warm-up call on the quiet wire");
        });
        assert_eq!(
            rig.sim.run_until_idle().blocked,
            0,
            "warm-up left a blocked process"
        );
    }
}

/// Reads the server-side shepherd pool counters for `stack`.
fn shepherd_stats(stack: &LoadStack, server: &Kernel) -> ShepherdStats {
    match stack {
        LoadStack::Paper(def) if def.entry == "mrpc" => {
            with_concrete::<xrpc::mrpc::Mrpc, _>(server, "mrpc", |m| m.shepherd_stats())
                .expect("mrpc registered")
        }
        LoadStack::Paper(_) => {
            with_concrete::<xrpc::select::Select, _>(server, "select", |s| s.shepherd_stats())
                .expect("select registered")
        }
        LoadStack::SunRpcUdp => {
            with_concrete::<sunrpc::rr::RequestReply, _>(server, "request_reply", |r| {
                r.shepherd_stats()
            })
            .expect("request_reply registered")
        }
    }
}

/// Precomputes Poisson arrival offsets (ns from window start) for
/// `rate_cps` over `duration_ns`: exponential interarrivals via inverse
/// CDF over a splitmix64 stream. Floating point runs only here, at setup;
/// the schedule the engine executes is integers.
pub fn poisson_offsets(seed: u64, rate_cps: u64, duration_ns: u64) -> Vec<u64> {
    assert!(rate_cps > 0, "open loop needs a positive rate");
    let mean_ns = 1_000_000_000.0 / rate_cps as f64;
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut step = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut out = Vec::new();
    let mut t = 0u64;
    loop {
        // Uniform in (0, 1]: never 0, so ln() is finite.
        let u = ((step() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        let dt = (-u.ln() * mean_ns) as u64;
        t = t.saturating_add(dt.max(1));
        if t >= duration_ns {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_offsets_are_deterministic_and_rate_shaped() {
        let a = poisson_offsets(7, 1000, 1_000_000_000);
        let b = poisson_offsets(7, 1000, 1_000_000_000);
        assert_eq!(a, b, "same seed, same schedule");
        // ~1000 arrivals expected; Poisson stddev ~32.
        assert!(a.len() > 800 && a.len() < 1200, "got {}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets ascend");
        assert!(*a.last().unwrap() < 1_000_000_000);
        let c = poisson_offsets(8, 1000, 1_000_000_000);
        assert_ne!(a, c, "different seed, different schedule");
    }
}
