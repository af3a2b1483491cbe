//! The scheduled-mode workloads (`load_open`, `mclient`): whole simulated
//! windows driven through `xload`'s public API and timed from outside.

use std::sync::Arc;
use std::time::Instant;

use simnet::{LanId, LanStats};
use xkernel::prelude::*;
use xload::{build_rig, GenMode, LoadSpec, LoadStack, MClientReport, MClientSpec, Topology};
use xrpc::procs::ECHO_PROC;

use crate::calib;
use crate::stats::{fnv1a, splitmix};
use crate::trace;

/// Virtual length of each stack's `load_open` window. Long enough that
/// SUNRPC-UDP's retransmission backlog reaches its steady state, which a
/// window of a few hundred milliseconds hides.
pub const LOAD_WINDOW_NS: u64 = 5_000_000_000;

/// `mclient` population.
pub const MCLIENT_CLIENTS: u32 = 200_000;

/// The `load_open` spec for one stack: open-loop Poisson at 400 calls per
/// virtual second from 4 client hosts to 1 server on one segment, 64 B
/// echo, 2 shepherds, 16 pending slots, drop policy.
pub fn load_spec(stack: LoadStack, seed: u64) -> LoadSpec {
    LoadSpec {
        stack,
        topo: Topology::Segment { hosts: 4 },
        gen: GenMode::Open { rate_cps: 400 },
        duration_ns: LOAD_WINDOW_NS,
        payload: 64,
        seed,
        shepherds: 2,
        pending: 16,
        reject: false,
        trace: false,
    }
}

/// The segment every `Topology::Segment` rig puts its hosts on.
const SEGMENT: LanId = LanId(0);

/// Requests the server's shepherd pool has executed so far: the counter
/// `LoadReport::shepherd` reads at the end of a window, read here before it
/// so that the warm-up calls are left out.
fn shepherd_executed(stack: LoadStack, server: &Arc<Kernel>) -> u64 {
    let pool = server
        .get(stack.pool_instance())
        .expect("pool owner registered");
    let any = pool.as_any();
    if let Some(m) = any.downcast_ref::<xrpc::mrpc::Mrpc>() {
        m.shepherd_stats().executed
    } else if let Some(s) = any.downcast_ref::<xrpc::select::Select>() {
        s.shepherd_stats().executed
    } else if let Some(r) = any.downcast_ref::<sunrpc::rr::RequestReply>() {
        r.shepherd_stats().executed
    } else {
        panic!("{} owns no shepherd pool", stack.pool_instance())
    }
}

/// Windows per stack in one `load_open` round, each with its own seed.
/// SUNRPC-UDP's collapse under a Poisson burst is metastable and only
/// some seeds set it off, so one window per stack would make the
/// workload's cost swing with the seed; many windows average it while
/// still showing the collapse on every run.
pub const LOAD_SEEDS_PER_STACK: u64 = 32;

/// One stack's share of a `load_open` round, summed over its windows.
#[derive(Default)]
pub struct LoadStackRun {
    /// The stack.
    pub stack: &'static str,
    /// Host seconds of `LoadSpec::build_warm`.
    pub setup_s: f64,
    /// Host seconds of `LoadSpec::measure`.
    pub measure_s: f64,
    /// Scheduler events the measured windows executed.
    pub events: u64,
    /// Frames sent on the segment during the measured windows.
    pub frames: u64,
    /// Allocations during the measured windows (traced run only).
    pub allocs: u64,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls completed.
    pub completed: u64,
    /// Calls the simulated protocol reported failed: a simulated result,
    /// such as SUNRPC-UDP's timeouts under its retransmission collapse.
    pub failed: u64,
    /// Calls neither completed nor failed, or counted as both: a fault of
    /// the simulator.
    pub unaccounted: u64,
    /// Requests the server's shepherd pool executed in the windows.
    pub executed: u64,
    /// Request retransmissions summed over every host.
    pub retransmits: u64,
    /// Highest `peak_live` of any window.
    pub peak_live: usize,
    /// Host speed over the stack's windows (see [`crate::calib`]).
    pub speed: f64,
    /// Every window drained with no process blocked and with
    /// `attempted == completed + failed`.
    pub consistent: bool,
}

/// One `load_open` round: every `LoadStack::all()` stack over
/// [`LOAD_SEEDS_PER_STACK`] windows, each built, warmed and measured.
/// Traced, each build is an `xload.build_warm` span and each window an
/// `xload.measure` span. Returns the per-stack sums and the round's digest,
/// which covers every `LoadReport` and the segment's `LanStats`.
pub fn load_round(seed: u64, traced: bool) -> (Vec<LoadStackRun>, u64) {
    let mut out = Vec::new();
    let mut text = String::new();
    for (tag, stack) in LoadStack::all().into_iter().enumerate() {
        let mut agg = LoadStackRun {
            stack: stack.name(),
            consistent: true,
            ..LoadStackRun::default()
        };
        // Calibrated per stack, not per round: a round takes several
        // seconds, longer than the host's faster swings.
        let bracket = calib::Bracket::open();
        for k in 0..LOAD_SEEDS_PER_STACK {
            let spec = load_spec(stack, splitmix(splitmix(seed) ^ ((tag as u64) << 32) ^ k));
            let t = Instant::now();
            let span = traced.then(|| trace::open("xload.build_warm", 0, tag as u32));
            let rig = spec.build_warm();
            span.map(trace::close);
            agg.setup_s += t.elapsed().as_secs_f64();
            // A run on a quiescent simulator executes nothing and reports
            // the events executed so far, i.e. the build's and warm-up's.
            let warm_events = rig.sim.run_until_idle().events;
            let lan_before = rig.net.stats(SEGMENT);
            let executed_before = shepherd_executed(stack, &rig.server);
            let t = Instant::now();
            let span = traced.then(|| trace::open("xload.measure", 0, tag as u32));
            let r = spec.measure(&rig);
            agg.allocs += span.map_or(0, |s| trace::close(s).allocs);
            agg.measure_s += t.elapsed().as_secs_f64();
            let lan: LanStats = rig.net.stats(SEGMENT);
            text += &format!("{r:?}|{lan:?}\n");
            agg.events += r.run.events - warm_events;
            agg.frames += lan.sent - lan_before.sent;
            agg.attempted += r.attempted;
            agg.completed += r.completed;
            agg.failed += r.failed;
            agg.unaccounted += r.attempted.abs_diff(r.completed + r.failed);
            agg.executed += r.shepherd.executed - executed_before;
            agg.retransmits += r.run.hosts.iter().map(|h| h.retransmits).sum::<u64>();
            agg.peak_live = agg.peak_live.max(r.run.peak_live);
            agg.consistent &= r.run.blocked == 0 && r.attempted == r.completed + r.failed;
        }
        agg.speed = bracket.speed();
        out.push(agg);
    }
    (out, fnv1a(&text))
}

/// The `mclient` spec: `MClientSpec::sized(200_000)` with its seed
/// generated from the workload seed.
pub fn mclient_spec(seed: u64) -> MClientSpec {
    MClientSpec {
        seed: splitmix(seed),
        ..MClientSpec::sized(MCLIENT_CLIENTS)
    }
}

/// Builds, serves and warms the rig `MClientSpec::run` starts from, with
/// the same public calls it makes, and returns the host seconds taken.
/// `run` cannot be split, so this is how `mclient` measures its set-up.
pub fn mclient_setup(spec: &MClientSpec) -> f64 {
    let t = Instant::now();
    let rig = build_rig(
        spec.topo,
        spec.stack,
        &format!(
            "shepherds={} pending={} policy=reject",
            spec.shepherds, spec.pending
        ),
        spec.seed,
        false,
    )
    .expect("mclient testbed builds");
    let LoadStack::Paper(def) = spec.stack else {
        panic!("mclient runs a paper stack");
    };
    xrpc::serve(&rig.server, def.entry, ECHO_PROC, |_ctx, msg| Ok(msg)).expect("serve echo");
    for k in &rig.clients {
        let (entry, server_ip) = (def.entry, rig.server_ip);
        rig.sim.spawn(k.host(), move |ctx| {
            let kernel = ctx.kernel();
            xrpc::call(ctx, &kernel, entry, server_ip, ECHO_PROC, vec![0xa5; 8])
                .expect("warm-up call on the quiet wire");
        });
        assert_eq!(rig.sim.run_until_idle().blocked, 0, "warm-up drains");
    }
    let s = t.elapsed().as_secs_f64();
    drop(rig);
    s
}

/// One `mclient` population run: (report, host seconds, allocations).
/// Traced, the run is an `mclient.run` span.
pub fn mclient_round(spec: &MClientSpec, traced: bool) -> (MClientReport, f64, u64) {
    let t = Instant::now();
    let span = traced.then(|| trace::open("mclient.run", 0, 0));
    let report = spec.run();
    let allocs = span.map_or(0, |s| trace::close(s).allocs);
    (report, t.elapsed().as_secs_f64(), allocs)
}

/// Calls of an `mclient` run neither completed nor failed, or counted as
/// both: a fault of the simulator.
pub fn mclient_unaccounted(r: &MClientReport) -> u64 {
    r.attempted.abs_diff(r.completed + r.failed)
}

/// The run drained with no process blocked, made every client's calls, and
/// accounted for each one, with the whole population resident at once.
pub fn mclient_consistent(spec: &MClientSpec, r: &MClientReport) -> bool {
    r.run.blocked == 0
        && r.attempted == r.completed + r.failed
        && r.attempted == u64::from(spec.clients) * u64::from(spec.calls_per_client)
        && r.run.peak_live >= spec.clients as usize
}
