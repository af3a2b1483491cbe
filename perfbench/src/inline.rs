//! The inline-mode workloads (`null_rpc`, `bulk_16k`) and host-time
//! Table III: one `xrpc::call` is one synchronous call chain on this
//! thread, so its host time is measured directly around the call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use inet::testbed::{base_registry, two_hosts, TwoHosts};
use simnet::LanConfig;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};
use xrpc::pinger::Pinger;
use xrpc::procs::{NULL_PROC, SINK_PROC};
use xrpc::stacks::{StackDef, ALL_RPC_STACKS, TABLE3_STACKS};

use crate::stats::{fnv1a, median_u64, splitmix};
use crate::trace;

/// Request size of `bulk_16k`: the paper's largest throughput message.
pub const BULK_BYTES: usize = 16 * 1024;

/// Which inline workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Null request, null reply.
    Null,
    /// 16 KiB request, null reply.
    Bulk,
}

impl Kind {
    /// Calls per stack in one round, and calls per stack before moving to
    /// the next stack (a divisor of the first). A round is under a second,
    /// so a run holds a dozen or more of them (and of their set-ups), and
    /// each round's 99th percentile has at least 250 calls beyond it.
    fn sizes(self) -> (u32, u32) {
        match self {
            Kind::Null => (20_000, 500),
            Kind::Bulk => (5_000, 100),
        }
    }
}

/// The registry of every constructor the five paper stacks use.
fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    reg
}

/// The five paper stacks, built, served and warmed: everything before the
/// first measured call.
pub struct Setup {
    rigs: Vec<(StackDef, TwoHosts)>,
    kind: Kind,
    request: Vec<u8>,
    bad_requests: Arc<AtomicU64>,
}

/// The request body every call of `kind` sends, generated from `seed`.
fn request_for(kind: Kind, seed: u64) -> Vec<u8> {
    match kind {
        Kind::Null => Vec::new(),
        Kind::Bulk => (0..BULK_BYTES as u64)
            .map(|i| splitmix(splitmix(seed) ^ (i / 8)).to_le_bytes()[(i % 8) as usize])
            .collect(),
    }
}

/// True when `msg` holds exactly `want`, compared segment by segment so
/// the check allocates nothing.
fn same_bytes(msg: &Message, want: &[u8]) -> bool {
    if msg.len() != want.len() {
        return false;
    }
    let mut at = 0;
    let mut same = true;
    msg.for_each_segment(|seg| {
        same &= want.get(at..at + seg.len()) == Some(seg);
        at += seg.len();
    });
    same
}

/// Builds, serves and warms the five stacks. The server procedure is the
/// benchmark's own: it returns the same empty reply as the standard NULL
/// and SINK procedures, checks the request, and (traced) records a
/// `server.proc` span under the call that caused it.
pub fn setup(kind: Kind, seed: u64, traced: bool) -> Setup {
    let reg = registry();
    let request = request_for(kind, seed);
    let bad_requests = Arc::new(AtomicU64::new(0));
    let (proc_id, want) = match kind {
        Kind::Null => (NULL_PROC, Arc::new(Vec::new())),
        Kind::Bulk => (SINK_PROC, Arc::new(request.clone())),
    };
    let mut rigs = Vec::new();
    for (tag, def) in ALL_RPC_STACKS.iter().enumerate() {
        let tb = two_hosts(SimConfig::inline_mode().with_seed(seed), &reg, def.graph)
            .expect("testbed builds");
        let (want, bad) = (Arc::clone(&want), Arc::clone(&bad_requests));
        xrpc::serve(&tb.server, def.entry, proc_id, move |_ctx, msg| {
            let span = traced.then(|| trace::open("server.proc", trace::current(), tag as u32));
            if !same_bytes(&msg, &want) {
                bad.fetch_add(1, Ordering::Relaxed);
            }
            drop(msg);
            if let Some(span) = span {
                trace::close(span);
            }
            Ok(Message::empty())
        })
        .expect("procedure registers");
        rigs.push((*def, tb));
    }
    let s = Setup {
        rigs,
        kind,
        request,
        bad_requests,
    };
    for (def, tb) in &s.rigs {
        let ctx = tb.sim.ctx(tb.client.host());
        let reply = s.call(&ctx, def, tb, s.request.clone());
        assert_eq!(reply.as_deref(), Ok(&[][..]), "{} warm-up call", def.name);
    }
    s
}

impl Setup {
    fn proc_id(&self) -> u16 {
        match self.kind {
            Kind::Null => NULL_PROC,
            Kind::Bulk => SINK_PROC,
        }
    }

    fn call(&self, ctx: &Ctx, def: &StackDef, tb: &TwoHosts, request: Vec<u8>) -> XResult<Vec<u8>> {
        xrpc::call(
            ctx,
            &tb.client,
            def.entry,
            tb.server_ip,
            self.proc_id(),
            request,
        )
    }
}

/// What one measured round did.
pub struct Round {
    /// Calls made.
    pub calls: u64,
    /// Calls that errored or returned a non-empty reply, plus requests the
    /// server found corrupt.
    pub bad: u64,
    /// Host seconds of the measured phase.
    pub measure_s: f64,
    /// Frames delivered during the phase: the inline counterpart of a
    /// scheduler event (each would be one delivery event in scheduled mode).
    pub delivered: u64,
    /// Frames sent per stack during the phase.
    pub sent: Vec<u64>,
    /// Digest of the round's simulated results.
    pub digest: u64,
}

/// Runs one round on `s`: the round's calls per stack, taken in turn in
/// blocks across the five stacks. Untraced, each call's host time goes to
/// `record`; traced, each call is a `call` span instead.
pub fn measure(s: &Setup, traced: bool, mut record: impl FnMut(u64)) -> Round {
    let (per_stack, block) = s.kind.sizes();
    if traced {
        trace::reserve(2 * (per_stack as usize) * s.rigs.len());
    }
    let stats = |i: usize| s.rigs[i].1.net.stats(s.rigs[i].1.lan);
    let before: Vec<_> = (0..s.rigs.len()).map(stats).collect();
    let bad_before = s.bad_requests.load(Ordering::Relaxed);
    let ctxs: Vec<Ctx> = s
        .rigs
        .iter()
        .map(|(_, tb)| tb.sim.ctx(tb.client.host()))
        .collect();
    let mut bad = 0u64;
    let t0 = Instant::now();
    for _ in 0..per_stack / block {
        for (tag, ((def, tb), ctx)) in s.rigs.iter().zip(&ctxs).enumerate() {
            for _ in 0..block {
                let request = s.request.clone();
                let reply = if traced {
                    let span = trace::open("call", 0, tag as u32);
                    trace::set_current(span.id());
                    let reply = s.call(ctx, def, tb, request);
                    trace::close(span);
                    reply
                } else {
                    let t = Instant::now();
                    let reply = s.call(ctx, def, tb, request);
                    record(t.elapsed().as_nanos() as u64);
                    reply
                };
                if !matches!(reply.as_deref(), Ok([])) {
                    bad += 1;
                }
            }
        }
    }
    let measure_s = t0.elapsed().as_secs_f64();
    trace::set_current(0);
    let after: Vec<_> = (0..s.rigs.len()).map(stats).collect();
    let bad = bad + s.bad_requests.load(Ordering::Relaxed) - bad_before;
    let mut text = String::new();
    for (i, (def, tb)) in s.rigs.iter().enumerate() {
        let (c, v) = (tb.client.host(), tb.server.host());
        text += &format!(
            "{}|{:?}|{:?}|{:?}|{}|{}\n",
            def.name,
            after[i],
            tb.sim.host_stats(c),
            tb.sim.host_stats(v),
            tb.sim.now_of(c),
            tb.sim.now_of(v),
        );
    }
    let calls = u64::from(per_stack) * s.rigs.len() as u64;
    text += &format!("calls={calls} bad={bad}");
    Round {
        calls,
        bad,
        measure_s,
        delivered: after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.delivered - b.delivered)
            .sum(),
        sent: after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.sent - b.sent)
            .collect(),
        digest: fnv1a(&text),
    }
}

/// Names of the five stacks, in tag order.
pub fn stack_names() -> Vec<&'static str> {
    ALL_RPC_STACKS.iter().map(|d| d.name).collect()
}

/// Per-stack medians of the recorded `call` spans and their `server.proc`
/// children: (call ns, allocs, bytes, request ns, reply ns).
pub fn call_medians(spans: &[trace::Span], tag: u32) -> [f64; 5] {
    let mut cols: [Vec<u64>; 5] = Default::default();
    for (i, c) in spans.iter().enumerate() {
        if c.name != "call" || c.tag != tag {
            continue;
        }
        let srv = spans[..i]
            .iter()
            .rev()
            .find(|s| s.parent == c.id)
            .expect("every call has its server.proc span");
        cols[0].push(c.ns());
        cols[1].push(c.allocs);
        cols[2].push(c.bytes);
        cols[3].push(srv.start - c.start);
        cols[4].push(c.end - srv.end);
    }
    cols.map(|v| median_u64(&v))
}

/// Host-time Table III: PINGER round trips over the first three prefixes
/// of SELECT-CHANNEL-FRAGMENT-VIP, in inline mode, each a `pinger.rtt`
/// span tagged 100 + prefix index. Returns (median ns, median allocs) per
/// prefix.
pub fn table3_pinger(seed: u64, rtts: u32) -> Vec<(f64, f64)> {
    let reg = registry();
    let mut out = Vec::new();
    for (row, (name, graph, lower)) in TABLE3_STACKS.iter().enumerate().take(3) {
        let sim = Sim::new(SimConfig::inline_mode().with_seed(seed));
        let net = simnet::SimNet::new(&sim);
        let lan = net.add_lan(LanConfig::default());
        let mut kernels = Vec::new();
        for (i, ip) in ["10.0.0.1", "10.0.0.2"].iter().enumerate() {
            let k = Kernel::new(&sim, &format!("h{i}"));
            net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))
                .expect("attach");
            let spec = format!(
                "{}{graph}pinger echo={i} -> {lower}\n",
                inet::standard_graph("nic0", ip)
            );
            reg.build(&sim, &k, &spec).expect("pinger graph builds");
            kernels.push(k);
        }
        let client = &kernels[0];
        let ctx = sim.ctx(client.host());
        let proto = client.get("pinger").expect("pinger registered");
        let pinger = proto
            .as_any()
            .downcast_ref::<Pinger>()
            .expect("pinger is a Pinger");
        let peer = IpAddr::new(10, 0, 0, 2);
        let echoed = pinger.rtt(&ctx, peer, Vec::new()).expect("warm-up ping");
        assert!(echoed.is_empty(), "{name}: warm-up echo");
        trace::reserve(rtts as usize);
        let tag = 100 + row as u32;
        for _ in 0..rtts {
            let span = trace::open("pinger.rtt", 0, tag);
            let echoed = pinger.rtt(&ctx, peer, Vec::new());
            trace::close(span);
            assert!(matches!(echoed.as_deref(), Ok([])), "{name}: echo");
        }
        let spans = trace::spans();
        let mine: Vec<&trace::Span> = spans.iter().filter(|s| s.tag == tag).collect();
        out.push((
            median_u64(&mine.iter().map(|s| s.ns()).collect::<Vec<_>>()),
            median_u64(&mine.iter().map(|s| s.allocs).collect::<Vec<_>>()),
        ));
    }
    out
}
