//! CHANNEL — request/reply transactions with at-most-once semantics.
//!
//! The middle layer of the layered Sprite RPC decomposition. Each channel is
//! a separate session; a high-level protocol pushes a request into it and
//! the reply message is returned from `push`. The algorithm is Sprite's
//! (implicit acknowledgement, after Birrell & Nelson):
//!
//! * the receipt of a reply acknowledges the request;
//! * the receipt of a new request on a channel acknowledges the previous
//!   reply (the server may then discard its saved copy);
//! * a retransmitted request for work in progress elicits an explicit ACK
//!   so the client stops resending;
//! * a retransmitted request matching the last completed sequence number
//!   elicits a retransmission of the saved reply;
//! * boot ids detect peer reincarnation and reset sequence state.
//!
//! CHANNEL's timeout is the paper's *step function*: for single-fragment
//! messages it is short, while for multi-fragment messages it asks the layer
//! below (`GetFragCount`) and waits "long enough to be sure that the
//! fragmentation layer is not in the middle of transmitting the message".

use std::any::Any;
use std::cell::{Cell, OnceCell, RefCell};
use std::rc::{Rc, Weak};

use xkernel::map::Map;
use xkernel::prelude::*;
use xkernel::sim::Nanos;

use crate::hdr::{flags, ChannelHdr, CHANNEL_HDR_LEN};
use crate::protnum::{peer_key, rel_proto_num, PeerKey};
use crate::rto::{backoff_rto, RtoEstimator};

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ChanConfig {
    /// Timeout for single-fragment requests.
    pub base_timeout_ns: Nanos,
    /// Extra wait per additional fragment the layer below must move.
    pub per_frag_ns: Nanos,
    /// Retransmissions before giving up.
    pub max_retries: u32,
    /// Adaptive SRTT/RTTVAR retransmission timeout (see [`crate::rto`]).
    /// When false, the paper's fixed step function times every attempt.
    pub adaptive: bool,
    /// Floor for the adaptive RTO.
    pub min_rto_ns: Nanos,
    /// Ceiling for the adaptive RTO (also caps exponential backoff).
    pub max_rto_ns: Nanos,
}

impl Default for ChanConfig {
    fn default() -> ChanConfig {
        ChanConfig {
            base_timeout_ns: 100_000_000,
            per_frag_ns: 25_000_000,
            max_retries: 8,
            adaptive: true,
            min_rto_ns: 1_000_000,
            max_rto_ns: 10_000_000_000,
        }
    }
}

struct Outstanding {
    seq: u32,
    reply: Option<Result<Message, u16>>,
    acked: bool,
    sent_at: u64,
}

/// Default cap on consecutive exponential-backoff doublings; the
/// `SetBackoff` control op overrides it until the next reboot.
const DEFAULT_MAX_BACKOFF: u32 = 6;

/// Run-time-tunable knobs (the `SetTimeout` / `SetBackoff` control ops).
struct Tunables {
    base_timeout_ns: Cell<u64>,
    peer_boot: Cell<u32>,
    adaptive: Cell<bool>,
    max_backoff: Cell<u32>,
}

struct ClientState {
    seq: u32,
    outstanding: Option<Outstanding>,
}

/// A client channel: one outstanding RPC at a time.
pub struct ChanClientSession {
    parent: Weak<Channel>,
    chan: u16,
    proto_num: u32,
    peer: IpAddr,
    lower: SessionRef,
    /// Signalled when the outstanding request's reply or ACK arrives; one
    /// per channel, reset as each request starts.
    sema: SharedSema,
    st: RefCell<ClientState>,
}

impl ChanClientSession {
    fn parent(&self) -> Rc<Channel> {
        self.parent
            .upgrade()
            .expect("a protocol outlives its sessions")
    }
}

impl ChanClientSession {
    /// The size-dependent component of the paper's step function: extra
    /// wait for each additional fragment the layer below must move. RTT
    /// samples are taken on whatever traffic runs first, so the adaptive
    /// RTO keeps this allowance too — a warm estimate from small exchanges
    /// must not time a multi-fragment transfer.
    fn frag_allowance(&self, ctx: &Ctx, wire_len: usize) -> Nanos {
        let frags = self
            .lower
            .control(ctx, &ControlOp::GetFragCount(wire_len))
            .and_then(|r| r.size())
            .unwrap_or(1);
        self.parent().cfg.per_frag_ns * (frags.saturating_sub(1) as u64)
    }
}

impl Session for ChanClientSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent().me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        let parent = self.parent();
        let seq = {
            let mut st = self.st.borrow_mut();
            if st.outstanding.is_some() {
                return Err(XError::Config(format!(
                    "channel {} already has an outstanding request",
                    self.chan
                )));
            }
            st.seq = st.seq.wrapping_add(1);
            st.outstanding = Some(Outstanding {
                seq: st.seq,
                reply: None,
                acked: false,
                sent_at: ctx.now(),
            });
            st.seq
        };
        let sema = &self.sema;
        sema.reset();

        let boot_id = parent.boot_id();
        let mut hdr = ChannelHdr {
            flags: flags::REQUEST,
            channel: self.chan,
            protocol_num: self.proto_num,
            sequence_num: seq,
            error: 0,
            boot_id,
        };
        let extra = self.frag_allowance(ctx, msg.len() + CHANNEL_HDR_LEN);
        let step = parent.tunables.base_timeout_ns.get() + extra;
        let adaptive = parent.tunables.adaptive.get();
        let max_backoff = parent.tunables.max_backoff.get();
        let mut attempts = 0u32;
        loop {
            let timeout = if adaptive {
                // The step function seeds the estimator's cold state, so
                // attempt 0 of a fresh conversation waits exactly as long
                // as the paper's fixed scheme; once samples arrive the RTO
                // tracks measured RTT (plus the per-fragment allowance).
                // Retries back off exponentially with jitter (drawn only
                // here, keeping fault-free runs on the same PRNG stream as
                // the fixed scheme).
                let base = {
                    let e = parent.estimator.borrow();
                    if e.is_cold() {
                        step
                    } else {
                        e.rto() + extra
                    }
                };
                let jitter = if attempts > 0 { ctx.next_u64() } else { 0 };
                backoff_rto(base, attempts, max_backoff, parent.cfg.max_rto_ns, jitter)
            } else {
                step
            };
            let mut wire = msg.clone();
            ctx.push_header(&mut wire, &hdr.encode());
            ctx.charge_layer_call();
            if let Err(e) = self.lower.push(ctx, wire) {
                // A synchronous lower-layer failure (e.g. ARP could not
                // resolve the peer) must not leave the channel poisoned
                // with a forever-outstanding request.
                self.st.borrow_mut().outstanding = None;
                return Err(e);
            }

            // Wait for the reply; an explicit ACK re-arms the wait without
            // counting as a retransmission round.
            let outcome = loop {
                let _signalled = sema.p_timeout(ctx, timeout);
                let mut st = self.st.borrow_mut();
                let out = st
                    .outstanding
                    .as_mut()
                    .expect("outstanding present until we clear it");
                if let Some(r) = out.reply.take() {
                    let sent_at = out.sent_at;
                    st.outstanding = None;
                    break Some((r, sent_at));
                }
                if out.acked {
                    out.acked = false;
                    if ctx.mode() == Mode::Inline {
                        // Inline mode cannot wait again; treat as timeout.
                        break None;
                    }
                    continue; // Server is alive and working: wait again.
                }
                break None;
            };
            match outcome {
                Some((Ok(reply), sent_at)) => {
                    // Karn's rule: a reply that followed a retransmission
                    // cannot be attributed to a particular send, so only
                    // clean exchanges feed the estimator.
                    if attempts == 0 {
                        parent.observe_rtt(ctx.now().saturating_sub(sent_at));
                    }
                    return Ok(Some(reply));
                }
                Some((Err(code), _)) => {
                    return Err(XError::Remote(format!(
                        "channel {} request {seq}: server error {code}",
                        self.chan
                    )))
                }
                None => ctx.note(RobustEvent::TimeoutFired),
            }
            attempts += 1;
            if attempts > parent.cfg.max_retries || ctx.mode() == Mode::Inline {
                self.st.borrow_mut().outstanding = None;
                return Err(XError::Timeout(format!(
                    "channel {} request {seq} to {} after {attempts} attempts",
                    self.chan, self.peer
                )));
            }
            // Retransmission: ask for an explicit ack so a busy server can
            // quiet us down.
            ctx.note(RobustEvent::Retransmit);
            hdr.flags = flags::REQUEST | flags::PLEASE_ACK;
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetRtt => Ok(ControlRes::U64(self.parent().rtt_estimate())),
            ControlOp::GetMyBootId => Ok(ControlRes::U32(self.parent().boot_id())),
            ControlOp::GetPeerBootId => Ok(ControlRes::U32(self.parent().tunables.peer_boot.get())),
            ControlOp::SetTimeout(ns) => {
                self.parent().tunables.base_timeout_ns.set(*ns);
                Ok(ControlRes::Done)
            }
            ControlOp::SetBackoff(n) => {
                self.parent().tunables.max_backoff.set(*n);
                Ok(ControlRes::Done)
            }
            other => self.lower.control(ctx, other),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct ServerState {
    last_boot: u32,
    last_seq: u32,
    in_progress: Option<u32>,
    saved_reply: Option<(u32, Message)>,
}

/// A server channel: tracks at-most-once state for one (peer, channel).
pub struct ChanServerSession {
    parent: Weak<Channel>,
    chan: u16,
    proto_num: u32,
    // The lower session replies travel down on; refreshed on each request
    // so replies follow the path the latest request arrived by.
    lls: RefCell<SessionRef>,
    st: RefCell<ServerState>,
}

impl ChanServerSession {
    fn parent(&self) -> Rc<Channel> {
        self.parent
            .upgrade()
            .expect("a protocol outlives its sessions")
    }
}

impl Session for ChanServerSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent().me
    }

    /// The high-level protocol pushes the *reply* into the server channel.
    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        let seq = {
            let mut st = self.st.borrow_mut();
            st.in_progress.take().ok_or_else(|| {
                XError::Config(format!("channel {}: reply without request", self.chan))
            })?
        };
        let hdr = ChannelHdr {
            flags: flags::REPLY,
            channel: self.chan,
            protocol_num: self.proto_num,
            sequence_num: seq,
            error: 0,
            boot_id: self.parent().boot_id(),
        };
        let mut wire = msg;
        ctx.push_header(&mut wire, &hdr.encode());
        {
            let mut st = self.st.borrow_mut();
            st.last_seq = seq;
            // Retain the encoded reply until implicitly acknowledged by the
            // next request on this channel.
            st.saved_reply = Some((seq, wire.clone()));
        }
        let lls = Rc::clone(&self.lls.borrow());
        ctx.charge_layer_call();
        lls.push(ctx, wire)?;
        Ok(None)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMyBootId => Ok(ControlRes::U32(self.parent().boot_id())),
            // An overloaded upper layer dropped the request it was just
            // handed (shepherd pool full, Drop policy): clear the
            // in-progress slot so the client's retransmission is delivered
            // again instead of being acknowledged as still-working.
            ControlOp::Custom("chan_abort", _) => {
                self.st.borrow_mut().in_progress = None;
                Ok(ControlRes::Done)
            }
            other => {
                let lls = Rc::clone(&self.lls.borrow());
                lls.control(ctx, other)
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The CHANNEL protocol object.
pub struct Channel {
    weak_self: Weak<Channel>,
    me: ProtoId,
    lower: ProtoId,
    cfg: ChanConfig,
    tunables: Tunables,
    lower_name: OnceCell<&'static str>,
    boot: Cell<u32>,
    next_chan: Cell<u16>,
    estimator: RefCell<RtoEstimator>,
    enables: RefCell<Map<u32, ProtoId>>,
    clients: RefCell<Map<(u16, u32), Rc<ChanClientSession>>>,
    servers: RefCell<Map<(PeerKey, u16, u32), Rc<ChanServerSession>>>,
}

impl Channel {
    /// Creates CHANNEL above `lower` (FRAGMENT, a virtual protocol, IP, or
    /// raw ETH — anything that can move one packet unreliably).
    pub fn new(me: ProtoId, lower: ProtoId, cfg: ChanConfig) -> Rc<Channel> {
        Rc::new_cyclic(|weak_self| Channel {
            weak_self: weak_self.clone(),
            me,
            lower,
            tunables: Tunables {
                base_timeout_ns: Cell::new(cfg.base_timeout_ns),
                peer_boot: Cell::new(0),
                adaptive: Cell::new(cfg.adaptive),
                max_backoff: Cell::new(DEFAULT_MAX_BACKOFF),
            },
            cfg,
            lower_name: OnceCell::new(),
            boot: Cell::new(0),
            next_chan: Cell::new(0),
            estimator: RefCell::new(RtoEstimator::new(
                cfg.base_timeout_ns,
                cfg.min_rto_ns,
                cfg.max_rto_ns,
            )),
            enables: RefCell::new(Map::default()),
            clients: RefCell::new(Map::default()),
            servers: RefCell::new(Map::default()),
        })
    }

    /// This kernel's boot incarnation id.
    pub fn boot_id(&self) -> u32 {
        self.boot.get()
    }

    /// Overrides the boot id (tests simulate reboot/reincarnation).
    pub fn set_boot_id(&self, id: u32) {
        self.boot.set(id);
    }

    /// Allocates a fresh, kernel-unique channel number. Skips numbers that
    /// still name a live client session: after 2^16 allocations the counter
    /// wraps, and handing out a channel with an exchange outstanding would
    /// alias two conversations onto one at-most-once state machine. Id 0 is
    /// never issued — fresh counters start above it, so a post-wrap 0 would
    /// be an id no other allocation path can produce.
    pub fn alloc_channel(&self) -> u16 {
        let clients = self.clients.borrow();
        for _ in 0..=u16::MAX as u32 {
            let cand = self.next_chan.get().wrapping_add(1);
            self.next_chan.set(cand);
            if cand == 0 {
                continue;
            }
            if !clients.keys().any(|&(chan, _)| chan == cand) {
                return cand;
            }
        }
        // All 2^16 channel numbers live at once: structurally impossible
        // for bounded pools, but never hand out an aliased id silently.
        panic!("channel namespace exhausted");
    }

    fn observe_rtt(&self, sample: u64) {
        self.estimator.borrow_mut().observe(sample);
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

    /// Switches between the adaptive RTO and the paper's fixed step
    /// function at run time (chaos experiments compare the two).
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

    fn request_in(
        &self,
        ctx: &Ctx,
        lls: &SessionRef,
        hdr: ChannelHdr,
        msg: Message,
    ) -> XResult<()> {
        let pk = peer_key(ctx, lls)?;
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let sess = {
            let mut servers = self.servers.borrow_mut();
            match servers.get(&(pk, hdr.channel, hdr.protocol_num)) {
                Some(s) => {
                    *s.lls.borrow_mut() = Rc::clone(lls);
                    Rc::clone(s)
                }
                None => {
                    ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                    let s = Rc::new(ChanServerSession {
                        parent: Weak::clone(&self.weak_self),
                        chan: hdr.channel,
                        proto_num: hdr.protocol_num,
                        lls: RefCell::new(Rc::clone(lls)),
                        st: RefCell::new(ServerState {
                            last_boot: hdr.boot_id,
                            last_seq: 0,
                            in_progress: None,
                            saved_reply: None,
                        }),
                    });
                    servers.insert((pk, hdr.channel, hdr.protocol_num), Rc::clone(&s));
                    drop(servers);
                    // The open-done upcall: tell the high-level protocol a
                    // session was passively created on its behalf,
                    // completing its earlier open_enable.
                    if let Some(upper) = self.enables.borrow().get(&hdr.protocol_num).copied() {
                        let parts = ParticipantSet::local(
                            Participant::proto(hdr.protocol_num).with_port(hdr.channel),
                        );
                        let sref: SessionRef = Rc::clone(&s) as SessionRef;
                        ctx.kernel().open_done(ctx, upper, self.me, &sref, &parts)?;
                    }
                    s
                }
            }
        };

        enum Action {
            Deliver,
            Ack,
            ResendReply(Message),
            Drop,
        }
        let action = {
            let mut st = sess.st.borrow_mut();
            if hdr.boot_id != st.last_boot {
                // Client reincarnated: reset at-most-once state.
                st.last_boot = hdr.boot_id;
                st.last_seq = 0;
                st.in_progress = None;
                st.saved_reply = None;
            }
            if st.in_progress == Some(hdr.sequence_num) {
                Action::Ack
            } else if st
                .saved_reply
                .as_ref()
                .is_some_and(|(s, _)| *s == hdr.sequence_num)
            {
                let (_, saved) = st.saved_reply.as_ref().expect("checked");
                Action::ResendReply(saved.clone())
            } else if hdr.sequence_num <= st.last_seq && st.last_seq != 0 {
                Action::Drop
            } else {
                // New request: implicitly acknowledges the previous reply.
                st.saved_reply = None;
                st.in_progress = Some(hdr.sequence_num);
                Action::Deliver
            }
        };

        match action {
            Action::Drop => {
                ctx.note(RobustEvent::DuplicateSuppressed);
                Ok(())
            }
            Action::Ack => {
                ctx.note(RobustEvent::DuplicateSuppressed);
                let ack = ChannelHdr {
                    flags: flags::ACK,
                    channel: hdr.channel,
                    protocol_num: hdr.protocol_num,
                    sequence_num: hdr.sequence_num,
                    error: 0,
                    boot_id: self.boot_id(),
                };
                let mut pkt = ctx.empty_msg();
                ctx.push_header(&mut pkt, &ack.encode());
                ctx.charge_layer_call();
                lls.push(ctx, pkt)?;
                Ok(())
            }
            Action::ResendReply(saved) => {
                ctx.note(RobustEvent::DuplicateSuppressed);
                ctx.charge_layer_call();
                lls.push(ctx, saved)?;
                Ok(())
            }
            Action::Deliver => {
                let upper = self.enables.borrow().get(&hdr.protocol_num).copied();
                match upper {
                    Some(upper) => {
                        let sref: SessionRef = sess;
                        ctx.kernel().demux_to(ctx, upper, &sref, msg)
                    }
                    None => {
                        // No such service: answer with an error reply so the
                        // client fails fast instead of retransmitting.
                        sess.st.borrow_mut().in_progress = None;
                        let err = ChannelHdr {
                            flags: flags::REPLY,
                            channel: hdr.channel,
                            protocol_num: hdr.protocol_num,
                            sequence_num: hdr.sequence_num,
                            error: 1,
                            boot_id: self.boot_id(),
                        };
                        let mut pkt = ctx.empty_msg();
                        ctx.push_header(&mut pkt, &err.encode());
                        ctx.charge_layer_call();
                        lls.push(ctx, pkt)?;
                        Ok(())
                    }
                }
            }
        }
    }

    fn reply_or_ack_in(&self, ctx: &Ctx, hdr: ChannelHdr, msg: Message) -> XResult<()> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let client = self
            .clients
            .borrow()
            .get(&(hdr.channel, hdr.protocol_num))
            .cloned();
        let Some(client) = client else {
            ctx.trace_note("reply for unknown channel");
            return Ok(());
        };
        // Peer reincarnation check, *before* borrowing this client's
        // state (the reset below borrows the map and then each session; no
        // path may hold a session borrow while borrowing the map).
        let prev = self.tunables.peer_boot.replace(hdr.boot_id);
        if prev != 0 && prev != hdr.boot_id {
            ctx.trace_note("peer rebooted");
            // Sequence numbers and RTT history from the old incarnation
            // are meaningless; reset every channel not mid-exchange.
            for c in self.clients.borrow().values() {
                let mut cst = c.st.borrow_mut();
                if cst.outstanding.is_none() {
                    cst.seq = 0;
                }
            }
            self.estimator.borrow_mut().reset(self.cfg.base_timeout_ns);
        }
        let mut st = client.st.borrow_mut();
        let Some(out) = st.outstanding.as_mut() else {
            return Ok(()); // Late duplicate; already satisfied.
        };
        if out.seq != hdr.sequence_num {
            return Ok(()); // Stale sequence number.
        }
        if hdr.flags & flags::ACK != 0 {
            out.acked = true;
            drop(st);
            client.sema.v(ctx);
            return Ok(());
        }
        if out.reply.is_none() {
            out.reply = Some(if hdr.error != 0 {
                Err(hdr.error)
            } else {
                Ok(msg)
            });
            drop(st);
            client.sema.v(ctx);
        }
        Ok(())
    }
}

impl Protocol for Channel {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::channel()
    }

    fn name(&self) -> &'static str {
        "channel"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel();
        let lower = kernel.proto(self.lower)?;
        self.lower_name
            .set(lower.name())
            .map_err(|_| XError::Config("channel double boot".into()))?;
        self.boot.set((ctx.next_u64() & 0xffff_ffff) as u32 | 1);
        let parts =
            ParticipantSet::local(Participant::proto(rel_proto_num(lower.name(), "channel")?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn reboot(&self, ctx: &Ctx) -> XResult<()> {
        // Fresh incarnation: a new boot id and no surviving channels; the
        // graph wiring (enables, lower binding) persists from build time.
        self.boot.set((ctx.next_u64() & 0xffff_ffff) as u32 | 1);
        self.clients.borrow_mut().clear();
        self.servers.borrow_mut().clear();
        self.tunables.peer_boot.set(0);
        self.tunables.base_timeout_ns.set(self.cfg.base_timeout_ns);
        // Every RTO knob re-cold-seeds, including the run-time overrides
        // (`SetBackoff` / `set_adaptive`): a fresh incarnation must not
        // inherit policy its config never specified.
        self.tunables.max_backoff.set(DEFAULT_MAX_BACKOFF);
        self.tunables.adaptive.set(self.cfg.adaptive);
        self.estimator.borrow_mut().reset(self.cfg.base_timeout_ns);
        Ok(())
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("channel open needs a protocol number".into()))?;
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("channel open needs a peer host".into()))?;
        let chan = match parts.local_part().and_then(|p| p.port) {
            Some(c) => c,
            None => self.alloc_channel(),
        };
        if let Some(s) = self.clients.borrow().get(&(chan, proto_num)) {
            return Ok(Rc::clone(s) as SessionRef);
        }
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        let lname = self.lower_name.get().expect("channel booted");
        let lparts = ParticipantSet::pair(
            Participant::proto(rel_proto_num(lname, "channel")?),
            Participant::host(peer),
        );
        let lower = ctx.kernel().open(ctx, self.lower, self.me, &lparts)?;
        let s = Rc::new(ChanClientSession {
            parent: Weak::clone(&self.weak_self),
            chan,
            proto_num,
            peer,
            lower,
            sema: SharedSema::new(0),
            st: RefCell::new(ClientState {
                seq: 0,
                outstanding: None,
            }),
        });
        self.clients
            .borrow_mut()
            .insert((chan, proto_num), Rc::clone(&s));
        Ok(s)
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("channel enable needs a protocol number".into()))?;
        self.enables.borrow_mut().insert(proto_num, upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, CHANNEL_HDR_LEN)?;
        let hdr = ChannelHdr::decode(&bytes)?;
        drop(bytes);
        if hdr.flags & flags::REQUEST != 0 {
            self.request_in(ctx, lls, hdr, msg)
        } else {
            self.reply_or_ack_in(ctx, hdr, msg)
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            // Asked by VIP: CHANNEL adds one header to whatever its user
            // pushes, and its users (SELECT) keep requests within one packet
            // when FRAGMENT is not below.
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            ControlOp::GetMyBootId => Ok(ControlRes::U32(self.boot_id())),
            ControlOp::GetRtt => Ok(ControlRes::U64(self.rtt_estimate())),
            ControlOp::GetFragCount(n) => {
                ctx.kernel()
                    .control(ctx, self.lower, &ControlOp::GetFragCount(*n))
            }
            ControlOp::GetMaxPacket => {
                let r = ctx
                    .kernel()
                    .control(ctx, self.lower, &ControlOp::GetMaxPacket)?;
                Ok(ControlRes::Size(r.size()?.saturating_sub(CHANNEL_HDR_LEN)))
            }
            // The RTO knobs are protocol-wide (sessions store into the same
            // tunables), so policy sweeps can set them without a session.
            ControlOp::SetTimeout(ns) => {
                self.tunables.base_timeout_ns.set(*ns);
                Ok(ControlRes::Done)
            }
            ControlOp::SetBackoff(n) => {
                self.tunables.max_backoff.set(*n);
                Ok(ControlRes::Done)
            }
            _ => Err(XError::Unsupported("channel control")),
        }
    }

    // Sessions are captured *with* their mutable state: a client channel's
    // sequence counter and a server channel's at-most-once record (last
    // seq, saved reply) both advance during a run and must rewind with it.
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        let clients = self
            .clients
            .borrow()
            .iter()
            .map(|(k, c)| {
                let st = c.st.borrow();
                debug_assert!(
                    st.outstanding.is_none(),
                    "channel snapshot with an outstanding request (not quiescent)"
                );
                (*k, (Rc::clone(c), st.seq))
            })
            .collect();
        let servers = self
            .servers
            .borrow()
            .iter()
            .map(|(k, srv)| {
                let st = srv.st.borrow();
                let snap = ServerSnap {
                    lls: Rc::clone(&srv.lls.borrow()),
                    last_boot: st.last_boot,
                    last_seq: st.last_seq,
                    in_progress: st.in_progress,
                    saved_reply: st.saved_reply.clone(),
                };
                (*k, (Rc::clone(srv), snap))
            })
            .collect();
        Some(Rc::new(ChanSnap {
            boot: self.boot_id(),
            next_chan: self.next_chan.get(),
            estimator: self.estimator.borrow().clone(),
            base_timeout_ns: self.tunables.base_timeout_ns.get(),
            peer_boot: self.tunables.peer_boot.get(),
            adaptive: self.tunables.adaptive.get(),
            max_backoff: self.tunables.max_backoff.get(),
            enables: self.enables.borrow().clone(),
            clients,
            servers,
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<ChanSnap>(blob, "channel")?;
        self.boot.set(s.boot);
        self.next_chan.set(s.next_chan);
        *self.estimator.borrow_mut() = s.estimator.clone();
        self.tunables.base_timeout_ns.set(s.base_timeout_ns);
        self.tunables.peer_boot.set(s.peer_boot);
        self.tunables.adaptive.set(s.adaptive);
        self.tunables.max_backoff.set(s.max_backoff);
        *self.enables.borrow_mut() = s.enables.clone();
        {
            let mut clients = self.clients.borrow_mut();
            clients.clear();
            for (k, (sess, seq)) in &s.clients {
                let mut st = sess.st.borrow_mut();
                st.seq = *seq;
                st.outstanding = None;
                clients.insert(*k, Rc::clone(sess));
            }
        }
        {
            let mut servers = self.servers.borrow_mut();
            servers.clear();
            for (k, (sess, snap)) in &s.servers {
                *sess.lls.borrow_mut() = Rc::clone(&snap.lls);
                let mut st = sess.st.borrow_mut();
                st.last_boot = snap.last_boot;
                st.last_seq = snap.last_seq;
                st.in_progress = snap.in_progress;
                st.saved_reply = snap.saved_reply.clone();
                servers.insert(*k, Rc::clone(sess));
            }
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct ServerSnap {
    lls: SessionRef,
    last_boot: u32,
    last_seq: u32,
    in_progress: Option<u32>,
    saved_reply: Option<(u32, Message)>,
}

struct ChanSnap {
    boot: u32,
    next_chan: u16,
    estimator: RtoEstimator,
    base_timeout_ns: u64,
    peer_boot: u32,
    adaptive: bool,
    max_backoff: u32,
    enables: Map<u32, ProtoId>,
    clients: Map<(u16, u32), (Rc<ChanClientSession>, u32)>,
    servers: Map<(PeerKey, u16, u32), (Rc<ChanServerSession>, ServerSnap)>,
}
