//! UDP — unreliable datagrams with ports.
//!
//! Standard 8-byte header and pseudo-header checksum. Two paper-relevant
//! details are modelled faithfully:
//!
//! * UDP "sends arbitrarily large messages (i.e., it depends on IP to
//!   fragment large messages)" — its `GetMaxMsgSize` answer to VIP is the
//!   full 64 K, which is why VIP keeps an IP session under UDP.
//! * Its addresses are two 16-bit ports, which "cannot be completely mapped
//!   onto a single 8-bit IP protocol number" — the Section 5 reason moving
//!   UDP *under* VIP is hard. [`Udp::new`] therefore requires a lower
//!   protocol that can carry the full port space (IP or VIP), and the
//!   sunrpc/psync crates compose it normally.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use xkernel::map::Map;
use xkernel::prelude::*;

use crate::ip::ip_proto;

/// UDP header length.
pub const UDP_HDR_LEN: usize = 8;
/// Largest UDP payload (IP max payload minus our header).
pub const UDP_MAX_PAYLOAD: usize = 65_515 - UDP_HDR_LEN;

/// The UDP protocol object.
pub struct Udp {
    weak_self: Weak<Udp>,
    me: ProtoId,
    lower: ProtoId,
    enables: RefCell<Map<Port, ProtoId>>,
    // Active sessions keyed (local port, peer ip, peer port); passive
    // sessions created by demux are cached here too.
    sessions: RefCell<Map<(Port, u32, Port), SessionRef>>,
    next_ephemeral: Cell<Port>,
}

impl Udp {
    /// Creates UDP above `lower` (IP, or any protocol with the same
    /// host-addressed unreliable-delivery semantics).
    pub fn new(me: ProtoId, lower: ProtoId) -> Rc<Udp> {
        Rc::new_cyclic(|weak_self| Udp {
            weak_self: weak_self.clone(),
            me,
            lower,
            enables: RefCell::new(Map::default()),
            sessions: RefCell::new(Map::default()),
            next_ephemeral: Cell::new(49_152),
        })
    }

    fn ports_of(&self, parts: &ParticipantSet) -> XResult<(Port, IpAddr, Port)> {
        // Clients that don't name a local port get an ephemeral one.
        let local = match parts.local_part().and_then(|p| p.port) {
            Some(p) => p,
            None => self.ephemeral_port(),
        };
        let remote = parts
            .remote_part()
            .ok_or_else(|| XError::Config("udp open needs a peer".into()))?;
        let rip = remote
            .host
            .ok_or_else(|| XError::Config("udp open needs a peer host".into()))?;
        let rport = remote
            .port
            .ok_or_else(|| XError::Config("udp open needs a peer port".into()))?;
        Ok((local, rip, rport))
    }

    /// Allocates an ephemeral local port (clients that don't care). Skips
    /// ports still owned by a live session or an open_enable registration:
    /// after the 16k ephemeral range wraps, handing out a port with
    /// traffic outstanding would steer the old conversation's datagrams
    /// into the new session.
    pub fn ephemeral_port(&self) -> Port {
        let p = &self.next_ephemeral;
        let sessions = self.sessions.borrow();
        let enables = self.enables.borrow();
        for _ in 0..16_384u32 {
            let cand = p.get();
            p.set(cand.checked_add(1).unwrap_or(49_152));
            let live =
                sessions.keys().any(|&(local, _, _)| local == cand) || enables.contains_key(&cand);
            if !live {
                return cand;
            }
        }
        // Every ephemeral port has a live session: structurally impossible
        // for bounded workloads, but never hand out an aliased port.
        panic!("udp ephemeral port range exhausted");
    }

    /// Number of live (open) UDP sessions — diagnostic accessor for churn
    /// audits: closed sessions must leave no residue in the demux map.
    pub fn session_count(&self) -> usize {
        self.sessions.borrow().len()
    }
}

/// A UDP session for one (local port, peer host, peer port) triple.
pub struct UdpSession {
    proto_id: ProtoId,
    parent: Weak<Udp>,
    local_port: Port,
    peer: IpAddr,
    peer_port: Port,
    lower: SessionRef,
}

/// Computes the UDP checksum (pseudo-header + header + body) by folding
/// across the message's segments with [`ChecksumAcc`]. The pseudo-header
/// lives on the stack and the body is never materialized contiguously —
/// this is the zero-copy hot path the paper's Section 3 argues for.
pub fn udp_checksum(src: IpAddr, dst: IpAddr, length: u16, hdr: &[u8], body: &Message) -> u16 {
    // Pseudo-header: src, dst, zero+proto, udp length.
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src.0.to_be_bytes());
    pseudo[4..8].copy_from_slice(&dst.0.to_be_bytes());
    pseudo[9] = ip_proto::UDP;
    pseudo[10..12].copy_from_slice(&length.to_be_bytes());
    let mut acc = ChecksumAcc::new();
    acc.add(&pseudo);
    acc.add(hdr);
    acc.add_message(body);
    acc.finish()
}

impl UdpSession {
    fn parent(&self) -> Rc<Udp> {
        self.parent
            .upgrade()
            .expect("a protocol outlives its sessions")
    }
}

impl UdpSession {
    fn checksum(&self, ctx: &Ctx, src: IpAddr, payload: &Message, hdr: &mut [u8]) -> XResult<()> {
        let length = (payload.len() + UDP_HDR_LEN) as u16;
        ctx.charge_class(
            OpClass::Checksum,
            (12 + hdr.len() + payload.len()) as u64 * ctx.cost().checksum_byte,
        );
        let ck = udp_checksum(src, self.peer, length, hdr, payload);
        let ck = if ck == 0 { 0xffff } else { ck };
        hdr[6..8].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }
}

impl Session for UdpSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto_id
    }

    fn push(&self, ctx: &Ctx, mut msg: Message) -> XResult<Option<Message>> {
        if msg.len() > UDP_MAX_PAYLOAD {
            return Err(XError::TooBig {
                size: msg.len(),
                max: UDP_MAX_PAYLOAD,
            });
        }
        let mut hdr = FixedWriter::<UDP_HDR_LEN>::new()
            .u16(self.local_port)
            .u16(self.peer_port)
            .u16((msg.len() + UDP_HDR_LEN) as u16)
            .u16(0)
            .finish();
        // The UDP checksum is *optional* (checksum field 0 = not computed),
        // and it needs the IP pseudo-header. Over a lower layer that has no
        // host addresses — VIP's raw-Ethernet path — we send without it,
        // which is exactly what lets UDP sit above a virtual protocol
        // (Figure 2) where TCP, whose checksum is mandatory, cannot.
        if let Ok(r) = self.lower.control(ctx, &ControlOp::GetMyHost) {
            let src = r.ip()?;
            self.checksum(ctx, src, &msg, &mut hdr)?;
        }
        ctx.push_header(&mut msg, &hdr);
        ctx.charge_layer_call();
        self.lower.push(ctx, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket => Ok(ControlRes::Size(UDP_MAX_PAYLOAD)),
            ControlOp::GetMyPort => Ok(ControlRes::Port(self.local_port)),
            ControlOp::GetPeerPort => Ok(ControlRes::Port(self.peer_port)),
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            other => self.lower.control(ctx, other),
        }
    }

    fn close(&self, _ctx: &Ctx) -> XResult<()> {
        self.parent()
            .sessions
            .borrow_mut()
            .remove(&(self.local_port, self.peer.0, self.peer_port));
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Protocol for Udp {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::udp()
    }

    fn name(&self) -> &'static str {
        "udp"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let parts = ParticipantSet::local(Participant::proto(u32::from(ip_proto::UDP)));
        ctx.kernel().open_enable(ctx, self.lower, self.me, &parts)
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let (local, rip, rport) = self.ports_of(parts)?;
        if let Some(s) = self.sessions.borrow().get(&(local, rip.0, rport)) {
            return Ok(Rc::clone(s));
        }
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        let lparts = ParticipantSet::pair(
            Participant::proto(u32::from(ip_proto::UDP)),
            Participant::host(rip),
        );
        let lower = ctx.kernel().open(ctx, self.lower, self.me, &lparts)?;
        let s: SessionRef = Rc::new(UdpSession {
            proto_id: self.me,
            parent: Weak::clone(&self.weak_self),
            local_port: local,
            peer: rip,
            peer_port: rport,
            lower,
        });
        self.sessions
            .borrow_mut()
            .insert((local, rip.0, rport), Rc::clone(&s));
        Ok(s)
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let port = parts
            .local_part()
            .and_then(|p| p.port)
            .ok_or_else(|| XError::Config("udp enable needs a local port".into()))?;
        self.enables.borrow_mut().insert(port, upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let hdr = ctx.pop_header(&mut msg, UDP_HDR_LEN)?;
        let mut r = FixedReader::<UDP_HDR_LEN>::new(&hdr, "udp")?;
        let src_port = r.u16();
        let dst_port = r.u16();
        let length = r.u16();
        let ck = r.u16();
        let hdr_bytes: [u8; UDP_HDR_LEN] = hdr[..UDP_HDR_LEN].try_into().expect("popped 8 bytes");
        drop(hdr);
        let payload_len = usize::from(length).saturating_sub(UDP_HDR_LEN);
        if msg.len() < payload_len {
            ctx.note(RobustEvent::CorruptRejected);
            ctx.trace_note("truncated datagram dropped");
            return Ok(());
        }
        msg.truncate(payload_len);
        // Checksum verification cost, charged whether or not the sender
        // computed one (a real stack still inspects the field).
        ctx.charge_class(
            OpClass::Checksum,
            (UDP_HDR_LEN + msg.len()) as u64 * ctx.cost().checksum_byte,
        );
        // Verify when the sender computed a checksum (field 0 = "not
        // computed", the raw-Ethernet-under-VIP path) and the lower layer
        // can reconstruct the pseudo-header. Summing over the header with
        // its transmitted checksum in place must yield 0 (or 0xffff, the
        // ones-complement negative zero).
        if ck != 0 {
            let ends = lls
                .control(ctx, &ControlOp::GetPeerHost)
                .and_then(|r| r.ip())
                .and_then(|src| {
                    let dst = lls.control(ctx, &ControlOp::GetMyHost)?.ip()?;
                    Ok((src, dst))
                });
            if let Ok((src, dst)) = ends {
                let sum = udp_checksum(src, dst, length, &hdr_bytes, &msg);
                if sum != 0 && sum != 0xffff {
                    ctx.note(RobustEvent::CorruptRejected);
                    ctx.trace_note("checksum mismatch: dropped");
                    return Ok(());
                }
            }
        }

        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = self
            .enables
            .borrow()
            .get(&dst_port)
            .copied()
            .ok_or_else(|| XError::NoEnable(format!("udp port {dst_port}")))?;
        // Over VIP's raw-Ethernet path the lower session has no internet
        // address for the peer; key the session on the unspecified address
        // (replies still work — the lls is addressed back to the sender).
        let peer = lls
            .control(ctx, &ControlOp::GetPeerHost)
            .and_then(|r| r.ip())
            .unwrap_or(IpAddr::ANY);
        let sess = {
            let mut cache = self.sessions.borrow_mut();
            match cache.get(&(dst_port, peer.0, src_port)) {
                Some(s) => Rc::clone(s),
                None => {
                    ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                    let s: SessionRef = Rc::new(UdpSession {
                        proto_id: self.me,
                        parent: Weak::clone(&self.weak_self),
                        local_port: dst_port,
                        peer,
                        peer_port: src_port,
                        lower: Rc::clone(lls),
                    });
                    cache.insert((dst_port, peer.0, src_port), Rc::clone(&s));
                    s
                }
            }
        };
        ctx.kernel().demux_to(ctx, upper, &sess, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket => Ok(ControlRes::Size(UDP_MAX_PAYLOAD)),
            // Asked by VIP: UDP relies on the layer below to fragment, so it
            // may push messages up to the full IP payload.
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(UDP_MAX_PAYLOAD + UDP_HDR_LEN)),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("udp control"))
            }
        }
    }

    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        Some(Rc::new(UdpSnap {
            enables: self.enables.borrow().clone(),
            sessions: self.sessions.borrow().clone(),
            next_ephemeral: self.next_ephemeral.get(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<UdpSnap>(blob, "udp")?;
        *self.enables.borrow_mut() = s.enables.clone();
        *self.sessions.borrow_mut() = s.sessions.clone();
        self.next_ephemeral.set(s.next_ephemeral);
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Clone)]
struct UdpSnap {
    enables: Map<Port, ProtoId>,
    sessions: Map<(Port, u32, Port), SessionRef>,
    next_ephemeral: Port,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_8_bytes() {
        let hdr = FixedWriter::<UDP_HDR_LEN>::new()
            .u16(1)
            .u16(2)
            .u16(8)
            .u16(0)
            .finish();
        let mut r = FixedReader::<UDP_HDR_LEN>::new(&hdr, "udp").unwrap();
        assert_eq!([r.u16(), r.u16(), r.u16(), r.u16()], [1, 2, 8, 0]);
    }
}
