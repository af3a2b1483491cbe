//! REQUEST_REPLY — Sun RPC's transaction layer, with *zero-or-more*
//! execution semantics.
//!
//! The client stamps each call with a transaction id (xid), retransmits on
//! timeout, and accepts the first matching reply. The server is stateless:
//! it executes every call it receives — so a retransmitted request can
//! execute **more than once** (and a lost one, zero times). This is exactly
//! the semantic contrast the paper's Mix-and-Match discussion draws: "one
//! can replace the REQUEST_REPLY protocol (which has zero or more
//! semantics) with the CHANNEL protocol (which has at most once semantics)"
//! — the two are interchangeable under SUN_SELECT because both are
//! request/reply transaction layers with the same interface.
//!
//! Header (XDR): xid, message type (0 = call, 1 = reply), protocol number.

use std::any::Any;
use std::cell::{Cell, OnceCell, RefCell};
use std::rc::{Rc, Weak};

use xkernel::map::Map;
use xkernel::prelude::*;
use xkernel::shepherd::{ShepherdConfig, ShepherdStats, Shepherds, Submitted};
use xkernel::sim::Nanos;

use crate::xdr::{XdrReader, XdrWriter};
use xrpc::protnum::rel_proto_num;
use xrpc::rto::{backoff_rto, RtoEstimator};

/// Encoded header length.
pub const RR_HDR_LEN: usize = 12;

const MSG_CALL: u32 = 0;
const MSG_REPLY: u32 = 1;

/// The well-known UDP port used when REQUEST_REPLY is composed over UDP.
pub const RR_UDP_PORT: Port = 111;

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RrConfig {
    /// Retransmission timeout (and the adaptive estimator's cold seed).
    pub timeout_ns: Nanos,
    /// Retransmissions before giving up.
    pub max_retries: u32,
    /// Adaptive SRTT/RTTVAR retransmission timeout (see [`xrpc::rto`]).
    /// When false, `timeout_ns` times every attempt, as in the paper.
    pub adaptive: bool,
    /// Floor for the adaptive RTO.
    pub min_rto_ns: Nanos,
    /// Ceiling for the adaptive RTO (also caps exponential backoff).
    pub max_rto_ns: Nanos,
    /// Server-side shepherd pool (workers == 0 keeps dispatch synchronous).
    /// REQUEST_REPLY is zero-or-more, so both overload policies behave as
    /// a drop: the client's retransmission machinery recovers.
    pub shepherds: ShepherdConfig,
}

impl Default for RrConfig {
    fn default() -> RrConfig {
        RrConfig {
            timeout_ns: 150_000_000,
            max_retries: 6,
            adaptive: true,
            min_rto_ns: 1_000_000,
            max_rto_ns: 10_000_000_000,
            shepherds: ShepherdConfig::default(),
        }
    }
}

fn encode_hdr(xid: u32, mtype: u32, proto_num: u32) -> Vec<u8> {
    let mut w = XdrWriter::new();
    w.u32(xid).u32(mtype).u32(proto_num);
    w.finish()
}

struct Out {
    sema: SharedSema,
    reply: Option<Message>,
}

/// Default cap on consecutive exponential-backoff doublings; the
/// `SetBackoff` control op overrides it until the next reboot.
const DEFAULT_MAX_BACKOFF: u32 = 6;

/// Run-time-tunable knobs (`SetTimeout` / `SetBackoff` control ops).
struct Tunables {
    timeout_ns: Cell<u64>,
    adaptive: Cell<bool>,
    max_backoff: Cell<u32>,
}

/// The REQUEST_REPLY protocol object.
pub struct RequestReply {
    weak_self: Weak<RequestReply>,
    me: ProtoId,
    lower: ProtoId,
    cfg: RrConfig,
    tunables: Tunables,
    lower_name: OnceCell<&'static str>,
    next_xid: Cell<u32>,
    estimator: RefCell<RtoEstimator>,
    enables: RefCell<Map<u32, ProtoId>>,
    outstanding: RefCell<Map<u32, Out>>,
    sessions: RefCell<Map<(u32, u32), SessionRef>>,
    lowers: RefCell<Map<u32, SessionRef>>,
    shepherds: Rc<Shepherds>,
}

impl RequestReply {
    /// Creates REQUEST_REPLY above `lower` (UDP, IP, VIP, or FRAGMENT).
    pub fn new(me: ProtoId, lower: ProtoId, cfg: RrConfig) -> Rc<RequestReply> {
        Rc::new_cyclic(|weak_self| RequestReply {
            weak_self: weak_self.clone(),
            me,
            lower,
            tunables: Tunables {
                timeout_ns: Cell::new(cfg.timeout_ns),
                adaptive: Cell::new(cfg.adaptive),
                max_backoff: Cell::new(DEFAULT_MAX_BACKOFF),
            },
            cfg,
            lower_name: OnceCell::new(),
            next_xid: Cell::new(0),
            estimator: RefCell::new(RtoEstimator::new(
                cfg.timeout_ns,
                cfg.min_rto_ns,
                cfg.max_rto_ns,
            )),
            enables: RefCell::new(Map::default()),
            outstanding: RefCell::new(Map::default()),
            sessions: RefCell::new(Map::default()),
            lowers: RefCell::new(Map::default()),
            shepherds: Shepherds::new(cfg.shepherds),
        })
    }

    /// Shepherd-pool counters (zeros while the pool is disabled).
    pub fn shepherd_stats(&self) -> ShepherdStats {
        self.shepherds.stats()
    }

    /// Switches between the adaptive RTO and the fixed timeout at run time.
    pub fn set_adaptive(&self, on: bool) {
        self.tunables.adaptive.set(on);
    }

    /// Current backoff-doubling cap, as `SetBackoff` last left it (resets
    /// to the default on reboot).
    pub fn max_backoff(&self) -> u32 {
        self.tunables.max_backoff.get()
    }

    /// Whether the adaptive RTO is currently in effect (resets to the
    /// configured value on reboot).
    pub fn adaptive(&self) -> bool {
        self.tunables.adaptive.get()
    }

    /// Smoothed round-trip estimate (virtual ns; 0 until the first reply).
    pub fn rtt_estimate(&self) -> u64 {
        let e = self.estimator.borrow();
        if e.is_cold() {
            0
        } else {
            e.srtt()
        }
    }

    fn lower_parts(&self, peer: Option<IpAddr>) -> XResult<ParticipantSet> {
        let lname = self.lower_name.get().expect("request_reply booted");
        if *lname == "udp" {
            let local = Participant::default().with_port(RR_UDP_PORT);
            return Ok(match peer {
                None => ParticipantSet::local(local),
                Some(p) => ParticipantSet::pair(local, Participant::host_port(p, RR_UDP_PORT)),
            });
        }
        let local = Participant::proto(rel_proto_num(lname, "request_reply")?);
        Ok(match peer {
            None => ParticipantSet::local(local),
            Some(p) => ParticipantSet::pair(local, Participant::host(p)),
        })
    }

    fn lower_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<SessionRef> {
        if let Some(s) = self.lowers.borrow().get(&peer.0) {
            return Ok(Rc::clone(s));
        }
        let parts = self.lower_parts(Some(peer))?;
        let s = ctx.kernel().open(ctx, self.lower, self.me, &parts)?;
        self.lowers.borrow_mut().insert(peer.0, Rc::clone(&s));
        Ok(s)
    }

    /// One transaction: send, await the first matching reply, retransmit on
    /// timeout. Zero-or-more: no duplicate suppression anywhere.
    fn transact(&self, ctx: &Ctx, peer: IpAddr, proto_num: u32, msg: Message) -> XResult<Message> {
        let lower = self.lower_for(ctx, peer)?;
        let xid = self.next_xid.get().wrapping_add(1);
        self.next_xid.set(xid);
        let sema = SharedSema::new(0);
        self.outstanding.borrow_mut().insert(
            xid,
            Out {
                sema: sema.clone(),
                reply: None,
            },
        );
        let hdr = encode_hdr(xid, MSG_CALL, proto_num);
        let fixed = self.tunables.timeout_ns.get();
        let adaptive = self.tunables.adaptive.get();
        let max_backoff = self.tunables.max_backoff.get();
        let sent_at = ctx.now();
        let mut attempts = 0u32;
        loop {
            // Cold estimator → the configured fixed timeout, so fault-free
            // behaviour matches the paper's; warm → measured RTO. Retries
            // back off exponentially with jitter (drawn only on
            // retransmissions, preserving the fault-free PRNG stream).
            let timeout = if adaptive {
                let base = {
                    let e = self.estimator.borrow();
                    if e.is_cold() {
                        fixed
                    } else {
                        e.rto()
                    }
                };
                let jitter = if attempts > 0 { ctx.next_u64() } else { 0 };
                backoff_rto(base, attempts, max_backoff, self.cfg.max_rto_ns, jitter)
            } else {
                fixed
            };
            let mut wire = msg.clone();
            ctx.push_header(&mut wire, &hdr);
            ctx.charge_layer_call();
            if let Err(e) = lower.push(ctx, wire) {
                // Drop the transaction record on a synchronous send
                // failure; a late reply for this xid must find nothing.
                self.outstanding.borrow_mut().remove(&xid);
                return Err(e);
            }
            let _ = sema.p_timeout(ctx, timeout);
            {
                let mut out = self.outstanding.borrow_mut();
                if let Some(o) = out.get_mut(&xid) {
                    if let Some(reply) = o.reply.take() {
                        out.remove(&xid);
                        drop(out);
                        // Karn's rule: only unretransmitted transactions
                        // yield an attributable RTT sample.
                        if attempts == 0 {
                            self.estimator
                                .borrow_mut()
                                .observe(ctx.now().saturating_sub(sent_at));
                        }
                        return Ok(reply);
                    }
                }
            }
            ctx.note(RobustEvent::TimeoutFired);
            attempts += 1;
            if attempts > self.cfg.max_retries || ctx.mode() == Mode::Inline {
                self.outstanding.borrow_mut().remove(&xid);
                return Err(XError::Timeout(format!(
                    "request_reply xid {xid} to {peer} after {attempts} attempts"
                )));
            }
            ctx.note(RobustEvent::Retransmit);
        }
    }
}

/// A client session towards one (peer, high-level protocol); stateless, so
/// concurrent pushes are fine (each gets its own xid).
pub struct RrClientSession {
    parent: Weak<RequestReply>,
    peer: IpAddr,
    proto_num: u32,
}

impl RrClientSession {
    fn parent(&self) -> Rc<RequestReply> {
        self.parent
            .upgrade()
            .expect("a protocol outlives its sessions")
    }
}

impl Session for RrClientSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent().me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.parent()
            .transact(ctx, self.peer, self.proto_num, msg)
            .map(Some)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetRtt => Ok(ControlRes::U64(self.parent().rtt_estimate())),
            ControlOp::SetTimeout(ns) => {
                self.parent().tunables.timeout_ns.set(*ns);
                Ok(ControlRes::Done)
            }
            ControlOp::SetBackoff(n) => {
                self.parent().tunables.max_backoff.set(*n);
                Ok(ControlRes::Done)
            }
            other => {
                let lower = self.parent().lower_for(ctx, self.peer)?;
                lower.control(ctx, other)
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A per-request server session: pushing into it sends the reply for the
/// request it was created for.
pub struct RrServerSession {
    parent: Weak<RequestReply>,
    xid: u32,
    proto_num: u32,
    lls: SessionRef,
}

impl RrServerSession {
    fn parent(&self) -> Rc<RequestReply> {
        self.parent
            .upgrade()
            .expect("a protocol outlives its sessions")
    }
}

impl Session for RrServerSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent().me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        let hdr = encode_hdr(self.xid, MSG_REPLY, self.proto_num);
        let mut wire = msg;
        ctx.push_header(&mut wire, &hdr);
        ctx.charge_layer_call();
        self.lls.push(ctx, wire)?;
        Ok(None)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        self.lls.control(ctx, op)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Protocol for RequestReply {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::request_reply()
    }

    fn name(&self) -> &'static str {
        "request_reply"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel();
        let lower = kernel.proto(self.lower)?;
        self.lower_name
            .set(lower.name())
            .map_err(|_| XError::Config("request_reply double boot".into()))?;
        let parts = self.lower_parts(None)?;
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        // Stateless semantics make this easy: forget in-flight transactions
        // and cached sessions; xid counter and enables survive.
        self.outstanding.borrow_mut().clear();
        self.sessions.borrow_mut().clear();
        self.lowers.borrow_mut().clear();
        self.tunables.timeout_ns.set(self.cfg.timeout_ns);
        // Every RTO knob re-cold-seeds, including the run-time overrides
        // (`SetBackoff` / `set_adaptive`): a fresh incarnation must not
        // inherit policy its config never specified.
        self.tunables.max_backoff.set(DEFAULT_MAX_BACKOFF);
        self.tunables.adaptive.set(self.cfg.adaptive);
        self.estimator.borrow_mut().reset(self.cfg.timeout_ns);
        Ok(())
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("request_reply open needs a protocol number".into()))?;
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("request_reply open needs a peer host".into()))?;
        if let Some(s) = self.sessions.borrow().get(&(peer.0, proto_num)) {
            return Ok(Rc::clone(s));
        }
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        let s: SessionRef = Rc::new(RrClientSession {
            parent: Weak::clone(&self.weak_self),
            peer,
            proto_num,
        });
        self.sessions
            .borrow_mut()
            .insert((peer.0, proto_num), Rc::clone(&s));
        Ok(s)
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("request_reply enable needs a protocol number".into()))?;
        self.enables.borrow_mut().insert(proto_num, upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, RR_HDR_LEN)?;
        let mut r = XdrReader::new(&bytes);
        let xid = r.u32()?;
        let mtype = r.u32()?;
        let proto_num = r.u32()?;
        drop(bytes);
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        match mtype {
            MSG_CALL => {
                let upper = self
                    .enables
                    .borrow()
                    .get(&proto_num)
                    .copied()
                    .ok_or_else(|| XError::NoEnable(format!("request_reply proto {proto_num}")))?;
                ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                let sess: SessionRef = Rc::new(RrServerSession {
                    parent: Weak::clone(&self.weak_self),
                    xid,
                    proto_num,
                    lls: Rc::clone(lls),
                });
                if self.shepherds.config().workers == 0 || ctx.mode() == Mode::Inline {
                    // Synchronous dispatch: the historical (and default) path.
                    return ctx.kernel().demux_to(ctx, upper, &sess, msg);
                }
                let submitted = self.shepherds.submit(
                    ctx,
                    Box::new(move |jctx| {
                        if jctx.kernel().demux_to(jctx, upper, &sess, msg).is_err() {
                            jctx.trace_note("shepherd dispatch failed");
                        }
                    }),
                );
                match submitted {
                    Submitted::Ran | Submitted::Accepted => Ok(()),
                    // Zero-or-more semantics: an overloaded call is simply
                    // not executed; the client retransmits under the same
                    // xid, so at-most-once is the caller's concern, not ours.
                    Submitted::Overloaded(_) => Ok(()),
                }
            }
            MSG_REPLY => {
                let mut out = self.outstanding.borrow_mut();
                if let Some(o) = out.get_mut(&xid) {
                    if o.reply.is_none() {
                        o.reply = Some(msg);
                        let sema = o.sema.clone();
                        drop(out);
                        sema.v(ctx);
                    }
                }
                // Unknown xid: a reply to a transaction we gave up on, or a
                // duplicate — zero-or-more semantics, just drop it.
                Ok(())
            }
            _ => {
                ctx.trace_note("unknown mtype");
                Ok(())
            }
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            ControlOp::GetMaxPacket => {
                let r = ctx
                    .kernel()
                    .control(ctx, self.lower, &ControlOp::GetMaxPacket)?;
                Ok(ControlRes::Size(r.size()?.saturating_sub(RR_HDR_LEN)))
            }
            // The RTO knobs are protocol-wide (sessions store into the same
            // tunables), so policy sweeps can set them without a session.
            ControlOp::SetTimeout(ns) => {
                self.tunables.timeout_ns.set(*ns);
                Ok(ControlRes::Done)
            }
            ControlOp::SetBackoff(n) => {
                self.tunables.max_backoff.set(*n);
                Ok(ControlRes::Done)
            }
            _ => Err(XError::Unsupported("request_reply control")),
        }
    }

    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        debug_assert!(
            self.outstanding.borrow().is_empty(),
            "request_reply snapshot with an outstanding transaction (not quiescent)"
        );
        Some(Rc::new(RrSnap {
            next_xid: self.next_xid.get(),
            estimator: self.estimator.borrow().clone(),
            timeout_ns: self.tunables.timeout_ns.get(),
            adaptive: self.tunables.adaptive.get(),
            max_backoff: self.tunables.max_backoff.get(),
            enables: self.enables.borrow().clone(),
            sessions: self.sessions.borrow().clone(),
            lowers: self.lowers.borrow().clone(),
            shepherds: self.shepherds.stats(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<RrSnap>(blob, "request_reply")?;
        self.next_xid.set(s.next_xid);
        *self.estimator.borrow_mut() = s.estimator.clone();
        self.tunables.timeout_ns.set(s.timeout_ns);
        self.tunables.adaptive.set(s.adaptive);
        self.tunables.max_backoff.set(s.max_backoff);
        self.outstanding.borrow_mut().clear();
        *self.enables.borrow_mut() = s.enables.clone();
        *self.sessions.borrow_mut() = s.sessions.clone();
        *self.lowers.borrow_mut() = s.lowers.clone();
        self.shepherds.restore_stats(s.shepherds);
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct RrSnap {
    next_xid: u32,
    estimator: RtoEstimator,
    timeout_ns: u64,
    adaptive: bool,
    max_backoff: u32,
    enables: Map<u32, ProtoId>,
    sessions: Map<(u32, u32), SessionRef>,
    lowers: Map<u32, SessionRef>,
    shepherds: ShepherdStats,
}
