//! FRAGMENT — unreliable but *persistent* bulk transfer.
//!
//! The bottom layer of the layered Sprite RPC decomposition, designed to be
//! reusable ("a bulk transfer protocol that can be reused by other
//! protocols", e.g. Psync and the Sun RPC recomposition):
//!
//! * Each message pushed through FRAGMENT gets a unique sequence number, is
//!   split into ≤16 fragments (one bit each in the 16-bit `frag_mask`), and
//!   is transmitted with a copy retained by the sender.
//! * **Unreliable**: messages may arrive out of order, duplicated, or not at
//!   all; the receiver *never* sends a positive acknowledgement. That
//!   choice — made precisely so Psync could reuse the layer — is the
//!   paper's worked example of choosing decomposition semantics.
//! * **Persistent**: a receiver that detects missing fragments (a gap timer
//!   after the last arrival) sends a NACK naming the missing bits, and the
//!   sender retransmits just those fragments from its retained copy.
//! * The sender discards its copy on a timer; a higher-level retransmission
//!   arriving later is a *new* FRAGMENT message with a new sequence number.

use std::any::Any;
use std::cell::{Cell, OnceCell, RefCell};
use std::rc::{Rc, Weak};

use xkernel::map::Map;
use xkernel::prelude::*;
use xkernel::sim::Nanos;

use crate::hdr::{frag_fields_valid, frag_type, full_mask, FragmentHdr, FRAGMENT_HDR_LEN};
use crate::protnum::rel_proto_num;

/// Maximum fragments per message (one bit each in `frag_mask`).
pub const MAX_FRAGS: usize = 16;

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct FragConfig {
    /// How long the sender retains a transmitted message for NACK service.
    pub discard_ns: Nanos,
    /// Receiver gap timer: how long after the most recent fragment before
    /// concluding some are missing.
    pub gap_ns: Nanos,
    /// How many NACKs to send before giving up on an incomplete message.
    pub nack_retries: u32,
    /// Bound on retained messages (protects inline mode, where discard
    /// timers never fire).
    pub cache_cap: usize,
}

impl Default for FragConfig {
    fn default() -> FragConfig {
        FragConfig {
            discard_ns: 500_000_000,
            gap_ns: 10_000_000,
            nack_retries: 4,
            cache_cap: 64,
        }
    }
}

/// Cumulative traffic counters (tests and benchmarks).
#[derive(Clone, Copy, Debug, Default)]
pub struct FragStats {
    /// Messages pushed through FRAGMENT by upper protocols.
    pub messages_sent: u64,
    /// Data fragments put on the wire (including NACK-driven resends).
    pub fragments_sent: u64,
    /// Complete messages delivered upward.
    pub messages_delivered: u64,
    /// NACKs this host sent (missing-fragment requests).
    pub nacks_sent: u64,
    /// NACKs this host received and serviced.
    pub nacks_received: u64,
}

struct Saved {
    msg: Message,
    dst: IpAddr,
    proto_num: u32,
    num_frags: u16,
    frag_size: usize,
}

struct Rasm {
    num_frags: u16,
    have_mask: u16,
    proto_num: u32,
    total_len: u16,
    parts: Vec<Option<Message>>,
    nacks_left: u32,
    timer_armed: bool,
    /// When the most recent fragment arrived: a gap is only declared after
    /// the wire has been quiet for the full gap interval, so a long
    /// transmission still in progress is never NACKed.
    last_arrival: u64,
}

/// The FRAGMENT protocol object.
pub struct Fragment {
    weak_self: Weak<Fragment>,
    me: ProtoId,
    lower: ProtoId,
    cfg: FragConfig,
    my_ip: OnceCell<IpAddr>,
    lower_name: OnceCell<&'static str>,
    base_frag_size: OnceCell<usize>,
    next_seq: Cell<u32>,
    enables: RefCell<Map<u32, ProtoId>>,
    // Retained sent messages, insertion-ordered for LRU eviction.
    send_cache: RefCell<Vec<(u32, Saved)>>,
    rasm: RefCell<Map<(u32, u32), Rasm>>,
    passive: RefCell<Map<(u32, u32), SessionRef>>,
    lowers: RefCell<Map<u32, (SessionRef, usize)>>,
    counters: RefCell<FragStats>,
}

impl Fragment {
    /// Creates FRAGMENT above `lower` (an IP-addressed delivery protocol:
    /// IP, VIP, or VIPADDR).
    pub fn new(me: ProtoId, lower: ProtoId, cfg: FragConfig) -> Rc<Fragment> {
        Rc::new_cyclic(|weak_self| Fragment {
            weak_self: weak_self.clone(),
            me,
            lower,
            cfg,
            my_ip: OnceCell::new(),
            lower_name: OnceCell::new(),
            base_frag_size: OnceCell::new(),
            next_seq: Cell::new(0),
            enables: RefCell::new(Map::default()),
            send_cache: RefCell::new(Vec::new()),
            rasm: RefCell::new(Map::default()),
            passive: RefCell::new(Map::default()),
            lowers: RefCell::new(Map::default()),
            counters: RefCell::default(),
        })
    }

    fn self_rc(&self) -> Rc<Fragment> {
        self.weak_self.upgrade().expect("fragment alive")
    }

    fn my_ip(&self) -> IpAddr {
        *self.my_ip.get().expect("fragment booted")
    }

    fn my_rel_num(&self) -> XResult<u32> {
        rel_proto_num(self.lower_name.get().expect("fragment booted"), "fragment")
    }

    /// The lower session (and its fragment payload size) towards `peer`.
    fn lower_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<(SessionRef, usize)> {
        if let Some(hit) = self.lowers.borrow().get(&peer.0) {
            return Ok(hit.clone());
        }
        let parts = ParticipantSet::pair(
            Participant::proto(self.my_rel_num()?),
            Participant::host(peer),
        );
        let sess = ctx.kernel().open(ctx, self.lower, self.me, &parts)?;
        let opt = sess
            .control(ctx, &ControlOp::GetOptPacket)
            .and_then(|r| r.size())
            .unwrap_or(1500);
        let frag_size = opt - FRAGMENT_HDR_LEN;
        self.lowers
            .borrow_mut()
            .insert(peer.0, (Rc::clone(&sess), frag_size));
        Ok((sess, frag_size))
    }

    /// Transmits the fragments of `saved` selected by `mask`.
    fn transmit(
        &self,
        ctx: &Ctx,
        lower: &SessionRef,
        saved: &Saved,
        seq: u32,
        mask: u16,
    ) -> XResult<()> {
        for (i, frag) in saved.msg.chunks(saved.frag_size).enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let hdr = FragmentHdr {
                typ: frag_type::DATA,
                clnt_host: self.my_ip(),
                srvr_host: saved.dst,
                protocol_num: saved.proto_num,
                sequence_num: seq,
                num_frags: saved.num_frags,
                frag_mask: 1 << i,
                len: saved.msg.len() as u16,
            };
            let mut pkt = frag;
            ctx.push_header(&mut pkt, &hdr.encode());
            ctx.charge_layer_call();
            self.counters.borrow_mut().fragments_sent += 1;
            lower.push(ctx, pkt)?;
        }
        Ok(())
    }

    /// Sends `msg` to `peer` on behalf of high-level protocol `proto_num`.
    fn send(&self, ctx: &Ctx, peer: IpAddr, proto_num: u32, msg: Message) -> XResult<()> {
        let (lower, frag_size) = self.lower_for(ctx, peer)?;
        let num_frags = msg.len().max(1).div_ceil(frag_size);
        if num_frags > MAX_FRAGS {
            return Err(XError::TooBig {
                size: msg.len(),
                max: MAX_FRAGS * frag_size,
            });
        }
        // The wire header carries the total length in a u16; over a lower
        // layer with a huge MTU, 16 fragments can exceed 65535 bytes and the
        // `as u16` encode would silently truncate, corrupting reassembly on
        // the far side. Refuse such messages up front.
        if msg.len() > u16::MAX as usize {
            return Err(XError::TooBig {
                size: msg.len(),
                max: (u16::MAX as usize).min(MAX_FRAGS * frag_size),
            });
        }
        let seq = self.next_seq.get().wrapping_add(1);
        self.next_seq.set(seq);
        self.counters.borrow_mut().messages_sent += 1;
        // Sequence allocation + retained-copy bookkeeping.
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let saved = Saved {
            msg,
            dst: peer,
            proto_num,
            num_frags: num_frags as u16,
            frag_size,
        };
        self.transmit(ctx, &lower, &saved, seq, full_mask(num_frags as u16))?;

        // Retain a copy for NACK service, bounded and timed.
        {
            let mut cache = self.send_cache.borrow_mut();
            cache.push((seq, saved));
            let cap = self.cfg.cache_cap;
            if cache.len() > cap {
                let excess = cache.len() - cap;
                cache.drain(..excess);
            }
        }
        let parent = self.self_rc();
        ctx.schedule_after(self.cfg.discard_ns, move |_tctx| {
            parent.send_cache.borrow_mut().retain(|(s, _)| *s != seq);
        });
        Ok(())
    }

    fn deliver_up(&self, ctx: &Ctx, from: IpAddr, proto_num: u32, msg: Message) -> XResult<()> {
        self.counters.borrow_mut().messages_delivered += 1;
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = self
            .enables
            .borrow()
            .get(&proto_num)
            .copied()
            .ok_or_else(|| XError::NoEnable(format!("fragment proto {proto_num}")))?;
        let sess = {
            let mut cache = self.passive.borrow_mut();
            match cache.get(&(from.0, proto_num)) {
                Some(s) => Rc::clone(s),
                None => {
                    ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                    let s: SessionRef = Rc::new(FragSession {
                        parent: Weak::clone(&self.weak_self),
                        peer: from,
                        proto_num,
                    });
                    cache.insert((from.0, proto_num), Rc::clone(&s));
                    s
                }
            }
        };
        ctx.kernel().demux_to(ctx, upper, &sess, msg)
    }

    fn arm_gap_timer(&self, ctx: &Ctx, key: (u32, u32)) {
        let parent = self.self_rc();
        ctx.schedule_after(self.cfg.gap_ns, move |tctx| {
            parent.on_gap_timer(tctx, key);
        });
    }

    fn on_gap_timer(&self, ctx: &Ctx, key: (u32, u32)) {
        let nack = {
            let mut rasm = self.rasm.borrow_mut();
            let Some(ent) = rasm.get_mut(&key) else {
                return; // Completed meanwhile.
            };
            ent.timer_armed = false;
            // Fragments still flowing: not a gap, just a long message.
            if ctx.now().saturating_sub(ent.last_arrival) < self.cfg.gap_ns {
                ent.timer_armed = true;
                drop(rasm);
                self.arm_gap_timer(ctx, key);
                return;
            }
            let missing = full_mask(ent.num_frags) & !ent.have_mask;
            if missing == 0 {
                return;
            }
            if ent.nacks_left == 0 {
                rasm.remove(&key);
                ctx.trace_note("reassembly persistence exhausted");
                return;
            }
            ent.nacks_left -= 1;
            ent.timer_armed = true;
            Some((ent.proto_num, ent.num_frags, missing, ent.total_len))
        };
        if let Some((proto_num, num_frags, missing, len)) = nack {
            let from = IpAddr(key.0);
            let hdr = FragmentHdr {
                typ: frag_type::NACK,
                clnt_host: from,
                srvr_host: self.my_ip(),
                protocol_num: proto_num,
                sequence_num: key.1,
                num_frags,
                frag_mask: missing,
                len,
            };
            if let Ok((lower, _)) = self.lower_for(ctx, from) {
                let mut pkt = ctx.empty_msg();
                ctx.push_header(&mut pkt, &hdr.encode());
                ctx.charge_layer_call();
                self.counters.borrow_mut().nacks_sent += 1;
                if lower.push(ctx, pkt).is_err() {
                    ctx.trace_note("nack send failed");
                }
            }
            self.arm_gap_timer(ctx, key);
        }
    }

    fn data_in(&self, ctx: &Ctx, hdr: FragmentHdr, mut msg: Message) -> XResult<()> {
        // Single-fragment fast path: no state, no timers. Trim any
        // link-level padding with the header's total-length field.
        if hdr.num_frags == 1 {
            msg.truncate(usize::from(hdr.len));
            return self.deliver_up(ctx, hdr.clnt_host, hdr.protocol_num, msg);
        }
        let key = (hdr.clnt_host.0, hdr.sequence_num);
        let complete = {
            let mut rasm = self.rasm.borrow_mut();
            let ent = rasm.entry(key).or_insert_with(|| Rasm {
                num_frags: hdr.num_frags,
                have_mask: 0,
                proto_num: hdr.protocol_num,
                total_len: hdr.len,
                parts: (0..hdr.num_frags).map(|_| None).collect(),
                nacks_left: self.cfg.nack_retries,
                timer_armed: false,
                last_arrival: 0,
            });
            ent.last_arrival = ctx.now();
            let idx = hdr.frag_mask.trailing_zeros() as usize;
            if idx >= ent.parts.len() {
                return Ok(()); // Corrupt index; drop.
            }
            if ent.parts[idx].is_none() {
                ent.parts[idx] = Some(msg);
                ent.have_mask |= 1 << idx;
            }
            if ent.have_mask == full_mask(ent.num_frags) {
                let parts = std::mem::take(&mut ent.parts);
                let proto = ent.proto_num;
                rasm.remove(&key);
                Some((proto, parts))
            } else {
                if !ent.timer_armed {
                    ent.timer_armed = true;
                    drop(rasm);
                    self.arm_gap_timer(ctx, key);
                }
                None
            }
        };
        match complete {
            Some((proto, parts)) => {
                let mut whole = Message::concat(parts.into_iter().flatten());
                // Only the final fragment can carry pad bytes, and they sit
                // at the very end of the reassembled message.
                whole.truncate(usize::from(hdr.len));
                self.deliver_up(ctx, hdr.clnt_host, proto, whole)
            }
            None => Ok(()),
        }
    }

    fn nack_in(&self, ctx: &Ctx, hdr: FragmentHdr) -> XResult<()> {
        self.counters.borrow_mut().nacks_received += 1;
        let seq = hdr.sequence_num;
        let found = {
            let cache = self.send_cache.borrow();
            cache.iter().any(|(s, _)| *s == seq)
        };
        if !found {
            // Already discarded: the higher-level protocol's own timeout
            // will resend the whole message under a new sequence number.
            ctx.trace_note("nack for discarded seq");
            return Ok(());
        }
        // Retransmit the missing fragments from the retained copy.
        let (dst, mask) = {
            let cache = self.send_cache.borrow();
            let (_, saved) = cache
                .iter()
                .find(|(s, _)| *s == seq)
                .expect("checked above");
            (saved.dst, hdr.frag_mask)
        };
        let (lower, _) = self.lower_for(ctx, dst)?;
        let cache = self.send_cache.borrow();
        if let Some((_, saved)) = cache.iter().find(|(s, _)| *s == seq) {
            // Rebuild fragment list and send the requested ones. We must not
            // hold the cache borrow across pushes — clone the needed state.
            let saved_copy = Saved {
                msg: saved.msg.clone(),
                dst: saved.dst,
                proto_num: saved.proto_num,
                num_frags: saved.num_frags,
                frag_size: saved.frag_size,
            };
            drop(cache);
            self.transmit(ctx, &lower, &saved_copy, seq, mask)?;
        }
        Ok(())
    }

    /// Observable state for tests: retained send-cache size.
    pub fn retained(&self) -> usize {
        self.send_cache.borrow().len()
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> FragStats {
        *self.counters.borrow()
    }

    /// Observable state for tests: open reassembly buffers.
    pub fn reassembling(&self) -> usize {
        self.rasm.borrow().len()
    }
}

/// A FRAGMENT session towards one (peer, high-level protocol).
pub struct FragSession {
    parent: Weak<Fragment>,
    peer: IpAddr,
    proto_num: u32,
}

impl FragSession {
    fn parent(&self) -> Rc<Fragment> {
        self.parent
            .upgrade()
            .expect("a protocol outlives its sessions")
    }
}

impl Session for FragSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent().me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.parent().send(ctx, self.peer, self.proto_num, msg)?;
        Ok(None)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket => {
                let (_, frag_size) = self.parent().lower_for(ctx, self.peer)?;
                Ok(ControlRes::Size(MAX_FRAGS * frag_size))
            }
            ControlOp::GetOptPacket => {
                let (_, frag_size) = self.parent().lower_for(ctx, self.peer)?;
                Ok(ControlRes::Size(frag_size))
            }
            ControlOp::GetFragCount(size) => {
                let (_, frag_size) = self.parent().lower_for(ctx, self.peer)?;
                Ok(ControlRes::Size(size.max(&1).div_ceil(frag_size)))
            }
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetMyHost => Ok(ControlRes::Ip(self.parent().my_ip())),
            _ => Err(XError::Unsupported("fragment session control")),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Protocol for Fragment {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::fragment()
    }

    fn name(&self) -> &'static str {
        "fragment"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel();
        let lower = kernel.proto(self.lower)?;
        self.lower_name
            .set(lower.name())
            .map_err(|_| XError::Config("fragment double boot".into()))?;
        let my_ip = lower.control(ctx, &ControlOp::GetMyHost)?.ip()?;
        self.my_ip
            .set(my_ip)
            .map_err(|_| XError::Config("fragment double boot".into()))?;
        let opt = lower
            .control(ctx, &ControlOp::GetOptPacket)
            .and_then(|r| r.size())
            .unwrap_or(1500);
        let _ = self.base_frag_size.set(opt - FRAGMENT_HDR_LEN);
        // Receive our own packets.
        let parts = ParticipantSet::local(Participant::proto(self.my_rel_num()?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        // Drop volatile state: the send cache (peers must not NACK-recover
        // messages from the previous incarnation), partial reassemblies,
        // and cached sessions. `next_seq` is deliberately kept — reusing
        // message ids could collide with stale partials on peers.
        self.send_cache.borrow_mut().clear();
        self.rasm.borrow_mut().clear();
        self.passive.borrow_mut().clear();
        self.lowers.borrow_mut().clear();
        Ok(())
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("fragment open needs a protocol number".into()))?;
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("fragment open needs a peer host".into()))?;
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        Ok(Rc::new(FragSession {
            parent: Weak::clone(&self.weak_self),
            peer,
            proto_num,
        }))
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("fragment enable needs a protocol number".into()))?;
        self.enables.borrow_mut().insert(proto_num, upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, FRAGMENT_HDR_LEN)?;
        let hdr = FragmentHdr::decode(&bytes)?;
        drop(bytes);
        // DATA names one fragment of a message, NACK the missing ones: a
        // count no message can have, or a bit beyond the count, cannot
        // come from a sender and must not reach reassembly.
        if !frag_fields_valid(hdr.num_frags, hdr.frag_mask) {
            ctx.note(RobustEvent::CorruptRejected);
            ctx.trace_note("fragment: impossible fragment count or mask");
            return Ok(());
        }
        match hdr.typ {
            frag_type::DATA => self.data_in(ctx, hdr, msg),
            frag_type::NACK => self.nack_in(ctx, hdr),
            _ => {
                ctx.trace_note("unknown fragment type");
                Ok(())
            }
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        let frag_size = *self
            .base_frag_size
            .get()
            .unwrap_or(&(1500 - FRAGMENT_HDR_LEN));
        match op {
            ControlOp::GetMaxPacket => Ok(ControlRes::Size(MAX_FRAGS * frag_size)),
            ControlOp::GetOptPacket => Ok(ControlRes::Size(frag_size)),
            ControlOp::GetFragCount(size) => Ok(ControlRes::Size(size.max(&1).div_ceil(frag_size))),
            // Asked by VIP: FRAGMENT never pushes more than one lower packet
            // at a time (it has its own fragmentation).
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(frag_size + FRAGMENT_HDR_LEN)),
            ControlOp::GetMyHost => Ok(ControlRes::Ip(self.my_ip())),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("fragment control"))
            }
        }
    }

    // The send cache and partial reassemblies are timer-reclaimed and thus
    // empty at any quiescent instant; what persists is the sequence
    // counter, enables, session caches, and traffic counters.
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        debug_assert!(
            self.send_cache.borrow().is_empty() && self.rasm.borrow().is_empty(),
            "fragment snapshot with retained/partial messages (not quiescent)"
        );
        Some(Rc::new(FragSnap {
            next_seq: self.next_seq.get(),
            enables: self.enables.borrow().clone(),
            passive: self.passive.borrow().clone(),
            lowers: self.lowers.borrow().clone(),
            stats: self.stats(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<FragSnap>(blob, "fragment")?;
        self.send_cache.borrow_mut().clear();
        self.rasm.borrow_mut().clear();
        self.next_seq.set(s.next_seq);
        *self.enables.borrow_mut() = s.enables.clone();
        *self.passive.borrow_mut() = s.passive.clone();
        *self.lowers.borrow_mut() = s.lowers.clone();
        *self.counters.borrow_mut() = s.stats;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Clone)]
struct FragSnap {
    next_seq: u32,
    enables: Map<u32, ProtoId>,
    passive: Map<(u32, u32), SessionRef>,
    lowers: Map<u32, (SessionRef, usize)>,
    stats: FragStats,
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use super::*;
    use xkernel::sim::{Sim, SimConfig};

    /// A stand-in lower layer masquerading as VIP with an oversized MTU, so
    /// 16 fragments can span more than 65535 bytes.
    struct BigMtuLower {
        me: ProtoId,
        opt: usize,
    }

    struct BigMtuSession {
        opt: usize,
    }

    impl Protocol for BigMtuLower {
        fn name(&self) -> &'static str {
            "vip"
        }
        fn id(&self) -> ProtoId {
            self.me
        }
        fn open(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
            Ok(Rc::new(BigMtuSession { opt: self.opt }))
        }
        fn open_enable(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
            Ok(())
        }
        fn demux(&self, _c: &Ctx, _l: &SessionRef, _m: Message) -> XResult<()> {
            Ok(())
        }
        fn control(&self, _c: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
            match op {
                ControlOp::GetMyHost => Ok(ControlRes::Ip(IpAddr::new(10, 0, 0, 1))),
                ControlOp::GetOptPacket => Ok(ControlRes::Size(self.opt)),
                _ => Err(XError::Unsupported("big-mtu lower control")),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    impl Session for BigMtuSession {
        fn protocol_id(&self) -> ProtoId {
            ProtoId(0)
        }
        fn push(&self, _c: &Ctx, _m: Message) -> XResult<Option<Message>> {
            Ok(None)
        }
        fn control(&self, _c: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
            match op {
                ControlOp::GetOptPacket => Ok(ControlRes::Size(self.opt)),
                _ => Err(XError::Unsupported("big-mtu session control")),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Regression: with a lower MTU large enough that 16 fragments exceed
    /// 65535 bytes, the wire header's u16 `len` field used to truncate
    /// silently (`as u16`), corrupting reassembly. Such sends must be
    /// refused with `TooBig`, while sends within u16 range still work.
    #[test]
    fn sends_beyond_u16_total_length_are_rejected() {
        let sim = Sim::new(SimConfig::inline_mode());
        let kernel = Kernel::new(&sim, "host-a");
        let opt = 8_192;
        let lower = kernel
            .register("vip", |me| {
                Ok(Rc::new(BigMtuLower { me, opt }) as ProtocolRef)
            })
            .unwrap();
        let frag_id = kernel
            .register("fragment", |me| {
                Ok(Fragment::new(me, lower, FragConfig::default()) as ProtocolRef)
            })
            .unwrap();
        let ctx = sim.ctx(kernel.host());
        let frag = kernel.proto(frag_id).unwrap();
        frag.boot(&ctx).unwrap();

        let parts = ParticipantSet::pair(
            Participant::proto(7),
            Participant::host(IpAddr::new(10, 0, 0, 2)),
        );
        let sess = kernel.open(&ctx, frag_id, frag_id, &parts).unwrap();

        // 60_000 bytes: 8 fragments of ~8k, total within u16 — accepted.
        sess.push(&ctx, ctx.msg(vec![0u8; 60_000])).unwrap();

        // 70_000 bytes: only 9 fragments (passes the 16-fragment cap) but
        // the total cannot be carried in the u16 length field.
        let err = sess.push(&ctx, ctx.msg(vec![0u8; 70_000])).unwrap_err();
        assert!(
            matches!(err, XError::TooBig { size: 70_000, .. }),
            "oversized send must be refused, got {err:?}"
        );
    }
}
