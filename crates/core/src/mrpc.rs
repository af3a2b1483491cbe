//! M_RPC — monolithic Sprite RPC.
//!
//! One protocol doing everything the SELECT/CHANNEL/FRAGMENT stack does —
//! procedure dispatch, fixed channels with at-most-once semantics and
//! implicit acknowledgement, and built-in fragmentation with partial
//! retransmission — behind the single 36-byte header from the paper's
//! appendix. Semantically equivalent to the layered version (L_RPC) but a
//! different wire protocol; the two cannot interoperate, exactly as the
//! paper notes.
//!
//! The implicit-acknowledgement scheme is Sprite's: a reply acknowledges
//! the request it answers, a new request on a channel acknowledges the
//! previous reply, explicit ACKs (carrying the received-fragment mask) are
//! only elicited by retransmissions, and boot ids guard at-most-once across
//! reincarnations. Requests and replies up to 16 fragments are fragmented
//! and re-assembled inside this one protocol; an ACK's `frag_mask` lets the
//! client retransmit only the fragments the server is missing.

use std::any::Any;
use std::cell::{Cell, OnceCell, RefCell};
use std::rc::{Rc, Weak};

use xkernel::map::Map;
use xkernel::prelude::*;
use xkernel::shepherd::{Overload, ShepherdConfig, ShepherdStats, Shepherds, Submitted};
use xkernel::sim::Nanos;

use crate::hdr::{flags, frag_fields_valid, full_mask, SpriteHdr, SPRITE_HDR_LEN};
use crate::protnum::rel_proto_num;
use crate::select::Handler;

/// Maximum fragments per message (16-bit mask).
pub const MAX_FRAGS: usize = 16;

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct MrpcConfig {
    /// Fixed client channel set per server host.
    pub channels_per_peer: usize,
    /// Timeout for single-fragment requests.
    pub base_timeout_ns: Nanos,
    /// Extra wait per additional fragment in flight.
    pub per_frag_ns: Nanos,
    /// Retransmission rounds before giving up.
    pub max_retries: u32,
    /// Server-side shepherd pool (workers == 0 keeps dispatch synchronous).
    pub shepherds: ShepherdConfig,
}

impl Default for MrpcConfig {
    fn default() -> MrpcConfig {
        MrpcConfig {
            channels_per_peer: 8,
            base_timeout_ns: 100_000_000,
            per_frag_ns: 25_000_000,
            max_retries: 8,
            shepherds: ShepherdConfig::default(),
        }
    }
}

struct Outstanding {
    seq: u32,
    reply_mask: u16,
    reply_num: u16,
    done: Option<Message>,
    // Server-acknowledged request fragments (from an explicit ACK).
    server_has: u16,
    acked: bool,
}

struct MChanState {
    seq: u32,
    out: Option<Outstanding>,
    /// Reply fragments of the outstanding call, by index. Kept across
    /// calls so its capacity is reused.
    reply_frags: Vec<Option<Message>>,
}

/// One client channel.
struct MChan {
    chan: u16,
    /// Signalled when the outstanding call's reply (or an ACK or NACK)
    /// arrives; one per channel, reset as each call starts.
    sema: SharedSema,
    st: RefCell<MChanState>,
}

struct Pool {
    sema: SharedSema,
    free: RefCell<Vec<Rc<MChan>>>,
}

#[derive(Clone)]
struct ServerState {
    last_boot: u32,
    last_seq: u32,
    in_progress: Option<u32>,
    // The in-progress request was handed to a shepherd (its fragments have
    // been consumed); retransmissions must be ACKed, not re-assembled.
    dispatched: bool,
    req_num: u16,
    req_mask: u16,
    req_parts: Vec<Option<Message>>,
    saved_reply_seq: u32,
    saved_reply: Vec<Message>,
}

struct MServer {
    clnt: IpAddr,
    chan: u16,
    st: RefCell<ServerState>,
}

/// The monolithic Sprite RPC protocol object.
pub struct Mrpc {
    weak_self: Weak<Mrpc>,
    me: ProtoId,
    lower: ProtoId,
    /// ARP capability, required when `lower` is raw ETH: monolithic Sprite
    /// RPC identifies hosts by internet address even on the bare wire, so it
    /// performs the same IP→hardware mapping VIP does.
    arp: Option<ProtoId>,
    cfg: MrpcConfig,
    lower_name: OnceCell<&'static str>,
    my_ip: OnceCell<IpAddr>,
    boot: Cell<u32>,
    next_chan: Cell<u16>,
    handlers: RefCell<Map<u16, Handler>>,
    pools: RefCell<Map<u32, Rc<Pool>>>,
    chans: RefCell<Map<u16, Rc<MChan>>>,
    servers: RefCell<Map<(u32, u16), Rc<MServer>>>,
    sessions: RefCell<Map<(u32, u16), SessionRef>>,
    lowers: RefCell<Map<u32, (SessionRef, usize)>>,
    shepherds: Rc<Shepherds>,
}

impl Mrpc {
    /// Creates monolithic Sprite RPC above `lower` (raw ETH, IP, or VIP).
    /// `arp` is required when `lower` is raw ETH.
    pub fn new(me: ProtoId, lower: ProtoId, arp: Option<ProtoId>, cfg: MrpcConfig) -> Rc<Mrpc> {
        Rc::new_cyclic(|weak_self| Mrpc {
            weak_self: weak_self.clone(),
            me,
            lower,
            arp,
            cfg,
            lower_name: OnceCell::new(),
            my_ip: OnceCell::new(),
            boot: Cell::new(0),
            next_chan: Cell::new(0),
            handlers: RefCell::new(Map::default()),
            pools: RefCell::new(Map::default()),
            chans: RefCell::new(Map::default()),
            servers: RefCell::new(Map::default()),
            sessions: RefCell::new(Map::default()),
            lowers: RefCell::new(Map::default()),
            shepherds: Shepherds::new(cfg.shepherds),
        })
    }

    /// Shepherd-pool counters (zeros while the pool is disabled).
    pub fn shepherd_stats(&self) -> ShepherdStats {
        self.shepherds.stats()
    }

    fn self_rc(&self) -> Rc<Mrpc> {
        self.weak_self.upgrade().expect("mrpc alive")
    }

    fn my_ip(&self) -> IpAddr {
        *self.my_ip.get().expect("mrpc booted")
    }

    /// This kernel's boot incarnation.
    pub fn boot_id(&self) -> u32 {
        self.boot.get()
    }

    /// Overrides the boot id (tests simulate reincarnation).
    pub fn set_boot_id(&self, id: u32) {
        self.boot.set(id);
    }

    /// Registers the procedure for `command`.
    pub fn serve<F>(&self, command: u16, f: F)
    where
        F: Fn(&Ctx, Message) -> XResult<Message> + 'static,
    {
        self.handlers.borrow_mut().insert(command, Rc::new(f));
    }

    fn lower_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<(SessionRef, usize)> {
        if let Some(hit) = self.lowers.borrow().get(&peer.0) {
            return Ok(hit.clone());
        }
        let lname = self.lower_name.get().expect("mrpc booted");
        let mut remote = Participant::host(peer);
        if *lname == "eth" {
            // Raw Ethernet below: map the peer's internet address to its
            // hardware address, exactly as VIP does.
            let arp = self.arp.ok_or_else(|| {
                XError::Config("sprite over raw eth needs an arp capability".into())
            })?;
            let hw = ctx
                .kernel()
                .control(ctx, arp, &ControlOp::Resolve(peer))?
                .eth()?;
            remote = remote.with_eth(hw);
        }
        let parts =
            ParticipantSet::pair(Participant::proto(rel_proto_num(lname, "sprite")?), remote);
        let sess = ctx.kernel().open(ctx, self.lower, self.me, &parts)?;
        let opt = sess
            .control(ctx, &ControlOp::GetOptPacket)
            .and_then(|r| r.size())
            .unwrap_or(1500);
        let frag_size = opt - SPRITE_HDR_LEN;
        self.lowers
            .borrow_mut()
            .insert(peer.0, (Rc::clone(&sess), frag_size));
        Ok((sess, frag_size))
    }

    fn pool_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<Rc<Pool>> {
        if let Some(p) = self.pools.borrow().get(&peer.0) {
            return Ok(Rc::clone(p));
        }
        let mut chans = Vec::with_capacity(self.cfg.channels_per_peer);
        for _ in 0..self.cfg.channels_per_peer {
            let chan = self.next_chan.get().wrapping_add(1);
            self.next_chan.set(chan);
            let mc = Rc::new(MChan {
                chan,
                sema: SharedSema::new(0),
                st: RefCell::new(MChanState {
                    seq: 0,
                    out: None,
                    reply_frags: Vec::new(),
                }),
            });
            self.chans.borrow_mut().insert(chan, Rc::clone(&mc));
            chans.push(mc);
            ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        }
        let pool = Rc::new(Pool {
            sema: SharedSema::new(self.cfg.channels_per_peer as i64),
            free: RefCell::new(chans),
        });
        Ok(Rc::clone(
            self.pools.borrow_mut().entry(peer.0).or_insert(pool),
        ))
    }

    /// Sends the fragments of `msg` selected by `mask`.
    #[allow(clippy::too_many_arguments)]
    fn send_frags(
        &self,
        ctx: &Ctx,
        lower: &SessionRef,
        frag_size: usize,
        base: &SpriteHdr,
        msg: &Message,
        mask: u16,
    ) -> XResult<()> {
        for (i, frag) in msg.chunks(frag_size).enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let mut hdr = *base;
            hdr.frag_mask = 1 << i;
            // The dual data-size/offset fields carry this packet's payload
            // extent, which is what lets Sprite RPC trim link-level padding
            // (the appendix notes the layered version doesn't need them).
            hdr.data1_sz = frag.len() as u16;
            hdr.data1_offset = (i * frag_size) as u16;
            let mut pkt = frag;
            ctx.push_header(&mut pkt, &hdr.encode());
            ctx.charge_layer_call();
            lower.push(ctx, pkt)?;
        }
        Ok(())
    }

    /// The full client call path.
    fn call(&self, ctx: &Ctx, peer: IpAddr, command: u16, args: Message) -> XResult<Message> {
        let (lower, frag_size) = self.lower_for(ctx, peer)?;
        let num_frags = args.len().max(1).div_ceil(frag_size);
        if num_frags > MAX_FRAGS {
            return Err(XError::TooBig {
                size: args.len(),
                max: MAX_FRAGS * frag_size,
            });
        }
        let pool = self.pool_for(ctx, peer)?;
        pool.sema.p(ctx); // Blocks when all channels are in use.
        let chan = pool
            .free
            .borrow_mut()
            .pop()
            .expect("semaphore-guarded pool");

        let result = self.call_on_channel(
            ctx,
            &chan,
            &lower,
            frag_size,
            peer,
            command,
            args,
            num_frags as u16,
        );

        pool.free.borrow_mut().push(chan);
        pool.sema.v(ctx);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn call_on_channel(
        &self,
        ctx: &Ctx,
        chan: &Rc<MChan>,
        lower: &SessionRef,
        frag_size: usize,
        peer: IpAddr,
        command: u16,
        args: Message,
        num_frags: u16,
    ) -> XResult<Message> {
        let seq = {
            let mut st = chan.st.borrow_mut();
            debug_assert!(st.out.is_none(), "channel pool guarantees exclusivity");
            st.seq = st.seq.wrapping_add(1);
            st.reply_frags.clear();
            st.out = Some(Outstanding {
                seq: st.seq,
                reply_mask: 0,
                reply_num: 0,
                done: None,
                server_has: 0,
                acked: false,
            });
            st.seq
        };
        let sema = &chan.sema;
        sema.reset();

        let mut hdr = SpriteHdr {
            flags: flags::REQUEST,
            clnt_host: self.my_ip(),
            srvr_host: peer,
            channel: chan.chan,
            srvr_process: 0,
            sequence_num: seq,
            num_frags,
            frag_mask: 0,
            command,
            boot_id: self.boot_id(),
            data1_sz: 0, // Filled per fragment at transmission time.
            data2_sz: 0,
            data1_offset: 0,
            data2_offset: 0,
        };
        let timeout = self.cfg.base_timeout_ns
            + self.cfg.per_frag_ns * u64::from(num_frags.saturating_sub(1));

        let mut attempts = 0u32;
        let mut send_mask = full_mask(num_frags);
        loop {
            if let Err(e) = self.send_frags(ctx, lower, frag_size, &hdr, &args, send_mask) {
                // A synchronous send failure must clear the outstanding
                // slot: the channel goes back to the pool on return, and
                // the next caller asserts it is clean.
                chan.st.borrow_mut().out = None;
                return Err(e);
            }
            let outcome = loop {
                let _ = sema.p_timeout(ctx, timeout);
                let mut st = chan.st.borrow_mut();
                let out = st.out.as_mut().expect("outstanding until cleared");
                if let Some(reply) = out.done.take() {
                    st.out = None;
                    break Some(reply);
                }
                if out.acked {
                    out.acked = false;
                    let has = out.server_has;
                    if ctx.mode() == Mode::Inline {
                        break None;
                    }
                    // The server told us which fragments it has; narrow the
                    // retransmission set and wait again.
                    send_mask = full_mask(num_frags) & !has;
                    continue;
                }
                break None;
            };
            if let Some(reply) = outcome {
                return Ok(reply);
            }
            ctx.note(RobustEvent::TimeoutFired);
            attempts += 1;
            if attempts > self.cfg.max_retries || ctx.mode() == Mode::Inline {
                chan.st.borrow_mut().out = None;
                return Err(XError::Timeout(format!(
                    "sprite rpc {command} seq {seq} to {peer} after {attempts} attempts"
                )));
            }
            ctx.note(RobustEvent::Retransmit);
            hdr.flags = flags::REQUEST | flags::PLEASE_ACK;
        }
    }

    fn server_for(&self, hdr: &SpriteHdr) -> Rc<MServer> {
        let key = (hdr.clnt_host.0, hdr.channel);
        let mut servers = self.servers.borrow_mut();
        Rc::clone(servers.entry(key).or_insert_with(|| {
            Rc::new(MServer {
                clnt: hdr.clnt_host,
                chan: hdr.channel,
                st: RefCell::new(ServerState {
                    last_boot: hdr.boot_id,
                    last_seq: 0,
                    in_progress: None,
                    dispatched: false,
                    req_num: 0,
                    req_mask: 0,
                    req_parts: Vec::new(),
                    saved_reply_seq: 0,
                    saved_reply: Vec::new(),
                }),
            })
        }))
    }

    fn request_in(&self, ctx: &Ctx, hdr: SpriteHdr, msg: Message) -> XResult<()> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let server = self.server_for(&hdr);

        enum Action {
            None,
            Ack(u16),
            ResendReply(Vec<Message>),
            Dispatch(Message),
        }
        let action = {
            let mut st = server.st.borrow_mut();
            if hdr.boot_id != st.last_boot {
                st.last_boot = hdr.boot_id;
                st.last_seq = 0;
                st.in_progress = None;
                st.dispatched = false;
                st.saved_reply.clear();
                st.saved_reply_seq = 0;
            }
            if st.saved_reply_seq == hdr.sequence_num && !st.saved_reply.is_empty() {
                // Client retransmission of an already-answered request.
                // Resend the saved reply — but only for the *first* fragment
                // of the retransmitted request, else every late duplicate
                // fragment of a multi-fragment request would trigger its own
                // full reply resend (a retransmission storm).
                ctx.note(RobustEvent::DuplicateSuppressed);
                if hdr.frag_mask & 1 != 0 {
                    Action::ResendReply(st.saved_reply.clone())
                } else {
                    Action::None
                }
            } else if hdr.sequence_num <= st.last_seq && st.last_seq != 0 {
                ctx.note(RobustEvent::DuplicateSuppressed);
                Action::None // Ancient duplicate.
            } else if st.in_progress == Some(hdr.sequence_num) && st.dispatched {
                // Retransmission while a shepherd is (or is queued to be)
                // executing this request: the fragments are consumed, so
                // just tell the client we have them all.
                ctx.note(RobustEvent::DuplicateSuppressed);
                Action::Ack(full_mask(st.req_num))
            } else {
                if st.in_progress != Some(hdr.sequence_num) {
                    // New request: implicitly acknowledges the saved reply.
                    st.in_progress = Some(hdr.sequence_num);
                    st.dispatched = false;
                    st.saved_reply.clear();
                    st.saved_reply_seq = 0;
                    st.req_num = hdr.num_frags;
                    st.req_mask = 0;
                    st.req_parts.clear();
                    st.req_parts
                        .resize_with(usize::from(hdr.num_frags), || None);
                }
                let idx = hdr.frag_mask.trailing_zeros() as usize;
                let dup = idx < st.req_parts.len() && st.req_parts[idx].is_some();
                if idx < st.req_parts.len() && !dup {
                    st.req_parts[idx] = Some(msg);
                    st.req_mask |= 1 << idx;
                }
                if st.req_mask == full_mask(st.req_num) {
                    st.dispatched = true;
                    Action::Dispatch(Message::concat(st.req_parts.drain(..).flatten()))
                } else if dup || hdr.flags & flags::PLEASE_ACK != 0 {
                    // Retransmission while incomplete: tell the client what
                    // we have so it can resend just the missing fragments.
                    Action::Ack(st.req_mask)
                } else {
                    Action::None
                }
            }
        };

        match action {
            Action::None => Ok(()),
            Action::Ack(have) => {
                let (lower, _) = self.lower_for(ctx, hdr.clnt_host)?;
                let ack = SpriteHdr {
                    flags: flags::ACK,
                    clnt_host: hdr.clnt_host,
                    srvr_host: self.my_ip(),
                    channel: hdr.channel,
                    sequence_num: hdr.sequence_num,
                    num_frags: hdr.num_frags,
                    frag_mask: have,
                    command: hdr.command,
                    boot_id: self.boot_id(),
                    ..SpriteHdr::default()
                };
                let mut pkt = ctx.empty_msg();
                ctx.push_header(&mut pkt, &ack.encode());
                ctx.charge_layer_call();
                lower.push(ctx, pkt)?;
                Ok(())
            }
            Action::ResendReply(frags) => {
                let (lower, _) = self.lower_for(ctx, hdr.clnt_host)?;
                for f in frags {
                    ctx.charge_layer_call();
                    lower.push(ctx, f)?;
                }
                Ok(())
            }
            Action::Dispatch(body) => {
                if self.shepherds.config().workers == 0 || ctx.mode() == Mode::Inline {
                    // Synchronous dispatch: the historical (and default) path.
                    return self.dispatch(ctx, &server, hdr, body);
                }
                let me = self.self_rc();
                let job_server = Rc::clone(&server);
                let submitted = self.shepherds.submit(
                    ctx,
                    Box::new(move |jctx| {
                        if me.dispatch(jctx, &job_server, hdr, body).is_err() {
                            jctx.trace_note("shepherd dispatch failed");
                        }
                    }),
                );
                match submitted {
                    Submitted::Ran | Submitted::Accepted => Ok(()),
                    Submitted::Overloaded(policy) => {
                        // Roll the channel back so the client's retransmission
                        // is treated as a fresh request.
                        {
                            let mut st = server.st.borrow_mut();
                            st.in_progress = None;
                            st.dispatched = false;
                            st.req_num = 0;
                            st.req_mask = 0;
                            st.req_parts.clear();
                        }
                        match policy {
                            Overload::Drop => Ok(()),
                            // Sprite's NACK: "no server process available".
                            Overload::Reject => self.send_nack(ctx, &hdr),
                        }
                    }
                }
            }
        }
    }

    /// Tells the client no shepherd could take its request (Sprite's NACK);
    /// the client retries without waiting out the full timeout.
    fn send_nack(&self, ctx: &Ctx, hdr: &SpriteHdr) -> XResult<()> {
        let (lower, _) = self.lower_for(ctx, hdr.clnt_host)?;
        let nack = SpriteHdr {
            flags: flags::NACK,
            clnt_host: hdr.clnt_host,
            srvr_host: self.my_ip(),
            channel: hdr.channel,
            sequence_num: hdr.sequence_num,
            num_frags: 0,
            frag_mask: 0,
            command: hdr.command,
            boot_id: self.boot_id(),
            ..SpriteHdr::default()
        };
        let mut pkt = ctx.empty_msg();
        ctx.push_header(&mut pkt, &nack.encode());
        ctx.charge_layer_call();
        lower.push(ctx, pkt)?;
        Ok(())
    }

    /// Runs the procedure and sends (and saves) the fragmented reply.
    fn dispatch(
        &self,
        ctx: &Ctx,
        server: &Rc<MServer>,
        hdr: SpriteHdr,
        body: Message,
    ) -> XResult<()> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup); // Procedure table.
        let handler = self.handlers.borrow().get(&hdr.command).cloned();
        let result = match handler {
            Some(h) => h(ctx, body),
            None => Err(XError::Remote(format!("no procedure {}", hdr.command))),
        };
        let reply_body = result.unwrap_or_else(|_| ctx.empty_msg());
        let (lower, frag_size) = self.lower_for(ctx, server.clnt)?;
        let num = reply_body.len().max(1).div_ceil(frag_size) as u16;
        let rhdr = SpriteHdr {
            flags: flags::REPLY,
            clnt_host: server.clnt,
            srvr_host: self.my_ip(),
            channel: server.chan,
            sequence_num: hdr.sequence_num,
            num_frags: num,
            frag_mask: 0,
            command: hdr.command,
            boot_id: self.boot_id(),
            ..SpriteHdr::default()
        };
        // Build and save the wire fragments, then send copies of them.
        let num_saved = {
            let mut st = server.st.borrow_mut();
            st.saved_reply.clear();
            for (i, frag) in reply_body.chunks(frag_size).enumerate() {
                let mut h = rhdr;
                h.frag_mask = 1 << i;
                h.data1_sz = frag.len() as u16;
                h.data1_offset = (i * frag_size) as u16;
                let mut pkt = frag;
                ctx.push_header(&mut pkt, &h.encode());
                st.saved_reply.push(pkt);
            }
            st.in_progress = None;
            st.last_seq = hdr.sequence_num;
            st.saved_reply_seq = hdr.sequence_num;
            st.saved_reply.len()
        };
        for i in 0..num_saved {
            let Some(f) = server.st.borrow().saved_reply.get(i).cloned() else {
                break;
            };
            ctx.charge_layer_call();
            lower.push(ctx, f)?;
        }
        Ok(())
    }

    fn reply_in(&self, ctx: &Ctx, hdr: SpriteHdr, msg: Message) -> XResult<()> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let chan = self.chans.borrow().get(&hdr.channel).cloned();
        let Some(chan) = chan else {
            return Ok(());
        };
        let mut guard = chan.st.borrow_mut();
        let st = &mut *guard;
        let Some(out) = st.out.as_mut() else {
            return Ok(());
        };
        if out.seq != hdr.sequence_num {
            return Ok(());
        }
        if hdr.flags & flags::NACK != 0 {
            // Server overload rejection: wake the caller so it retransmits
            // (counted as a retry) instead of waiting out the timeout.
            drop(guard);
            chan.sema.v(ctx);
            return Ok(());
        }
        if hdr.flags & flags::ACK != 0 {
            out.acked = true;
            out.server_has = hdr.frag_mask;
            drop(guard);
            chan.sema.v(ctx);
            return Ok(());
        }
        // Reply fragment.
        let frags = &mut st.reply_frags;
        if frags.is_empty() {
            out.reply_num = hdr.num_frags;
            frags.resize_with(usize::from(hdr.num_frags), || None);
        }
        let idx = hdr.frag_mask.trailing_zeros() as usize;
        if idx < frags.len() && frags[idx].is_none() {
            frags[idx] = Some(msg);
            out.reply_mask |= 1 << idx;
        }
        if out.reply_mask == full_mask(out.reply_num) && out.done.is_none() {
            out.done = Some(Message::concat(frags.drain(..).flatten()));
            drop(guard);
            chan.sema.v(ctx);
        }
        Ok(())
    }
}

/// A client session bound to one (server, procedure).
pub struct MrpcSession {
    parent: Weak<Mrpc>,
    peer: IpAddr,
    command: u16,
}

impl MrpcSession {
    fn parent(&self) -> Rc<Mrpc> {
        self.parent
            .upgrade()
            .expect("a protocol outlives its sessions")
    }
}

impl Session for MrpcSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent().me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.parent()
            .call(ctx, self.peer, self.command, msg)
            .map(Some)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetMaxPacket => {
                let (_, frag_size) = self.parent().lower_for(ctx, self.peer)?;
                Ok(ControlRes::Size(MAX_FRAGS * frag_size))
            }
            _ => Err(XError::Unsupported("mrpc session control")),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Protocol for Mrpc {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::sprite()
    }

    fn name(&self) -> &'static str {
        "sprite"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel();
        let lower = kernel.proto(self.lower)?;
        self.lower_name
            .set(lower.name())
            .map_err(|_| XError::Config("mrpc double boot".into()))?;
        self.boot.set((ctx.next_u64() & 0xffff_ffff) as u32 | 1);
        // Our host identity: from the lower protocol if it speaks internet
        // addresses, else from ARP (the raw-Ethernet configuration).
        let my_ip = lower
            .control(ctx, &ControlOp::GetMyHost)
            .and_then(|r| r.ip())
            .or_else(|_| match self.arp {
                Some(arp) => kernel.control(ctx, arp, &ControlOp::GetMyHost)?.ip(),
                None => Err(XError::Config(
                    "sprite cannot learn its host address".into(),
                )),
            })?;
        let _ = self.my_ip.set(my_ip);
        let parts =
            ParticipantSet::local(Participant::proto(rel_proto_num(lower.name(), "sprite")?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn reboot(&self, ctx: &Ctx) -> XResult<()> {
        // Fresh incarnation: new boot id, all channel/session state gone.
        // Registered procedures and graph wiring survive.
        self.boot.set((ctx.next_u64() & 0xffff_ffff) as u32 | 1);
        self.pools.borrow_mut().clear();
        self.chans.borrow_mut().clear();
        self.servers.borrow_mut().clear();
        self.sessions.borrow_mut().clear();
        self.lowers.borrow_mut().clear();
        Ok(())
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("sprite open needs a server host".into()))?;
        let command = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("sprite open needs a command".into()))?
            as u16;
        if let Some(s) = self.sessions.borrow().get(&(peer.0, command)) {
            return Ok(Rc::clone(s));
        }
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        let s: SessionRef = Rc::new(MrpcSession {
            parent: Weak::clone(&self.weak_self),
            peer,
            command,
        });
        self.sessions
            .borrow_mut()
            .insert((peer.0, command), Rc::clone(&s));
        Ok(s)
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        // Dispatch is by registered handlers.
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, SPRITE_HDR_LEN)?;
        let hdr = SpriteHdr::decode(&bytes)?;
        drop(bytes);
        if hdr.flags & (flags::REQUEST | flags::REPLY) != 0 {
            // A data packet names a fragment count a message can have and
            // one of those fragments; anything else cannot come from a
            // sender and must not reach reassembly.
            if !frag_fields_valid(hdr.num_frags, hdr.frag_mask) {
                ctx.note(RobustEvent::CorruptRejected);
                ctx.trace_note("sprite: impossible fragment count or mask");
                return Ok(());
            }
            // Trim link-level padding using the packet's data size.
            msg.truncate(usize::from(hdr.data1_sz));
        }
        if hdr.flags & flags::REQUEST != 0 {
            self.request_in(ctx, hdr, msg)
        } else {
            self.reply_in(ctx, hdr, msg)
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            // The paper's example: "Sprite RPC reports that it never sends a
            // message greater than 1500-bytes (it has its own fragmentation
            // mechanism for handling larger messages)".
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            ControlOp::GetMyBootId => Ok(ControlRes::U32(self.boot_id())),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("mrpc control"))
            }
        }
    }

    // Client channels are exclusively held during a call, so `out` is None
    // at quiescence and only each channel's sequence counter is captured.
    // Server channels keep durable at-most-once state — including partial
    // request reassemblies, which (unlike FRAGMENT's) have no reclaim timer
    // — so the whole ServerState is cloned.
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        let pools = self
            .pools
            .borrow()
            .iter()
            .map(|(k, p)| {
                (
                    *k,
                    MPoolSnap {
                        pool: Rc::clone(p),
                        sema: p.sema.snap_state(),
                        free: p.free.borrow().clone(),
                    },
                )
            })
            .collect();
        let chans = self
            .chans
            .borrow()
            .iter()
            .map(|(k, c)| {
                let st = c.st.borrow();
                debug_assert!(
                    st.out.is_none(),
                    "mrpc snapshot with an outstanding call (not quiescent)"
                );
                (*k, (Rc::clone(c), st.seq))
            })
            .collect();
        let servers = self
            .servers
            .borrow()
            .iter()
            .map(|(k, srv)| (*k, (Rc::clone(srv), srv.st.borrow().clone())))
            .collect();
        Some(Rc::new(MrpcSnap {
            boot: self.boot_id(),
            next_chan: self.next_chan.get(),
            pools,
            chans,
            servers,
            sessions: self.sessions.borrow().clone(),
            lowers: self.lowers.borrow().clone(),
            shepherds: self.shepherds.stats(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<MrpcSnap>(blob, "sprite")?;
        self.boot.set(s.boot);
        self.next_chan.set(s.next_chan);
        {
            let mut pools = self.pools.borrow_mut();
            pools.clear();
            for (k, ps) in &s.pools {
                ps.pool.sema.restore_state(ps.sema);
                *ps.pool.free.borrow_mut() = ps.free.clone();
                pools.insert(*k, Rc::clone(&ps.pool));
            }
        }
        {
            let mut chans = self.chans.borrow_mut();
            chans.clear();
            for (k, (mc, seq)) in &s.chans {
                let mut st = mc.st.borrow_mut();
                st.seq = *seq;
                st.out = None;
                chans.insert(*k, Rc::clone(mc));
            }
        }
        {
            let mut servers = self.servers.borrow_mut();
            servers.clear();
            for (k, (srv, st)) in &s.servers {
                *srv.st.borrow_mut() = st.clone();
                servers.insert(*k, Rc::clone(srv));
            }
        }
        *self.sessions.borrow_mut() = s.sessions.clone();
        *self.lowers.borrow_mut() = s.lowers.clone();
        self.shepherds.restore_stats(s.shepherds);
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct MPoolSnap {
    pool: Rc<Pool>,
    sema: (i64, u64),
    free: Vec<Rc<MChan>>,
}

struct MrpcSnap {
    boot: u32,
    next_chan: u16,
    pools: Map<u32, MPoolSnap>,
    chans: Map<u16, (Rc<MChan>, u32)>,
    servers: Map<(u32, u16), (Rc<MServer>, ServerState)>,
    sessions: Map<(u32, u16), SessionRef>,
    lowers: Map<u32, (SessionRef, usize)>,
    shepherds: ShepherdStats,
}
