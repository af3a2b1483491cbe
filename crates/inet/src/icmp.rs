//! ICMP — echo request/reply, enough to ping through any IP-like lower
//! layer (including VIP, which is itself a nice demonstration that ICMP
//! only depends on the *semantics* of IP).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xkernel::map::Map;
use xkernel::prelude::*;

use crate::ip::ip_proto;

/// ICMP header length: type(1) code(1) checksum(2) id(2) seq(2).
pub const ICMP_HDR_LEN: usize = 8;

const TYPE_ECHO_REPLY: u8 = 0;
const TYPE_ECHO_REQUEST: u8 = 8;

/// Default ping timeout (virtual ns).
pub const PING_TIMEOUT_NS: u64 = 1_000_000_000;

/// A parked ping: wake signal plus the slot the echoed payload lands in.
type EchoWaiter = (SharedSema, Rc<RefCell<Option<Vec<u8>>>>);

/// The ICMP protocol object.
pub struct Icmp {
    me: ProtoId,
    lower: ProtoId,
    next_seq: Cell<u16>,
    /// Parked pingers keyed by `(peer, id, seq)`. The id must be part of
    /// the key: two concurrent pingers that happen to reuse a sequence
    /// number toward the same peer are distinct conversations, and keying
    /// by `(peer, seq)` alone let one pinger steal (or drop) the other's
    /// reply.
    waiting: RefCell<Map<(u32, u16, u16), EchoWaiter>>,
}

impl Icmp {
    /// Creates ICMP above `lower`.
    pub fn new(me: ProtoId, lower: ProtoId) -> Rc<Icmp> {
        Rc::new(Icmp {
            me,
            lower,
            next_seq: Cell::new(0),
            waiting: RefCell::new(Map::default()),
        })
    }

    fn encode(ty: u8, id: u16, seq: u16, payload: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(ICMP_HDR_LEN + payload.len());
        w.u8(ty).u8(0).u16(0).u16(id).u16(seq).bytes(payload);
        let mut v = w.finish();
        let ck = internet_checksum(&[&v]);
        v[2..4].copy_from_slice(&ck.to_be_bytes());
        v
    }

    /// Pings `dst` with `len` payload bytes; returns the echoed payload.
    pub fn ping(&self, ctx: &Ctx, dst: IpAddr, len: usize) -> XResult<Vec<u8>> {
        let seq = self.next_seq.get().wrapping_add(1);
        self.next_seq.set(seq);
        self.ping_with(ctx, dst, len, 1, seq)
    }

    /// Pings `dst` using an explicit echo `id`/`seq` pair. Concurrent
    /// pingers on one host use distinct ids so their replies cannot be
    /// confused even when sequence numbers collide.
    pub fn ping_with(
        &self,
        ctx: &Ctx,
        dst: IpAddr,
        len: usize,
        id: u16,
        seq: u16,
    ) -> XResult<Vec<u8>> {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let sema = SharedSema::new(0);
        let slot: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
        self.waiting
            .borrow_mut()
            .insert((dst.0, id, seq), (sema.clone(), Rc::clone(&slot)));

        let parts = ParticipantSet::pair(
            Participant::proto(u32::from(ip_proto::ICMP)),
            Participant::host(dst),
        );
        let sess = ctx.kernel().open(ctx, self.lower, self.me, &parts)?;
        let pkt = Self::encode(TYPE_ECHO_REQUEST, id, seq, &payload);
        sess.push(ctx, ctx.msg(pkt))?;
        let got = sema.p_timeout(ctx, PING_TIMEOUT_NS) || slot.borrow().is_some();
        self.waiting.borrow_mut().remove(&(dst.0, id, seq));
        if !got {
            return Err(XError::Timeout(format!("ping {dst} seq {seq}")));
        }
        let data = slot.borrow_mut().take();
        data.ok_or_else(|| XError::Timeout(format!("ping {dst} woke without data")))
    }
}

impl Protocol for Icmp {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::icmp()
    }

    fn name(&self) -> &'static str {
        "icmp"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let parts = ParticipantSet::local(Participant::proto(u32::from(ip_proto::ICMP)));
        ctx.kernel().open_enable(ctx, self.lower, self.me, &parts)
    }

    fn open(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("icmp: use ping()"))
    }

    fn open_enable(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("icmp has no upper protocols"))
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let total = msg.len();
        if total < ICMP_HDR_LEN {
            ctx.note(RobustEvent::CorruptRejected);
            ctx.trace_note("short packet");
            return Ok(());
        }
        let all = msg.peek(total)?;
        if internet_checksum(&[&all]) != 0 {
            ctx.note(RobustEvent::CorruptRejected);
            ctx.trace_note("bad checksum");
            return Ok(());
        }
        ctx.charge_class(OpClass::Checksum, total as u64 * ctx.cost().checksum_byte);
        let hdr = ctx.pop_header(&mut msg, ICMP_HDR_LEN)?;
        let mut r = WireReader::new(&hdr, "icmp");
        let ty = r.u8()?;
        let _code = r.u8()?;
        let _ck = r.u16()?;
        let id = r.u16()?;
        let seq = r.u16()?;
        drop(hdr);
        match ty {
            TYPE_ECHO_REQUEST => {
                let payload = msg.to_vec();
                let reply = Self::encode(TYPE_ECHO_REPLY, id, seq, &payload);
                lls.push(ctx, ctx.msg(reply))?;
                Ok(())
            }
            TYPE_ECHO_REPLY => {
                let peer = lls.control(ctx, &ControlOp::GetPeerHost)?.ip()?;
                if let Some((sema, slot)) = self.waiting.borrow().get(&(peer.0, id, seq)) {
                    *slot.borrow_mut() = Some(msg.to_vec());
                    sema.v(ctx);
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        debug_assert!(
            self.waiting.borrow().is_empty(),
            "icmp snapshot with parked pingers (not quiescent)"
        );
        Some(Rc::new(self.next_seq.get()))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<u16>(blob, "icmp")?;
        self.waiting.borrow_mut().clear();
        self.next_seq.set(*s);
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_packet_checksums() {
        let v = Icmp::encode(TYPE_ECHO_REQUEST, 7, 9, b"abc");
        assert_eq!(v.len(), ICMP_HDR_LEN + 3);
        assert_eq!(internet_checksum(&[&v]), 0);
        assert_eq!(v[0], TYPE_ECHO_REQUEST);
    }
}
