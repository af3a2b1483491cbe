//! ETH — the Ethernet framing protocol.
//!
//! Sits directly above a [`simnet::Nic`]. 14-byte header (destination,
//! source, 16-bit type), demultiplexing on the type field. The paper leans
//! on Ethernet's 16-bit type space ("the ethernet supports 65,536 high-level
//! protocols") — VIP maps 8-bit IP protocol numbers into an unused range of
//! it, and RPC protocols configured directly over ETH claim types of their
//! own.

use std::any::Any;
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

use xkernel::map::Map;
use xkernel::prelude::*;

/// Ethernet header length.
pub const ETH_HDR_LEN: usize = 14;
/// Ethernet payload MTU.
pub const ETH_MTU: usize = 1500;

/// Well-known Ethernet types used in this suite.
pub mod eth_type {
    /// Internet Protocol.
    pub const IP: u16 = 0x0800;
    /// Address Resolution Protocol.
    pub const ARP: u16 = 0x0806;
    /// Base of the range VIP maps 8-bit IP protocol numbers onto.
    pub const VIP_BASE: u16 = 0x3900;
    /// Monolithic Sprite RPC directly on the wire.
    pub const SPRITE_RPC: u16 = 0x3e00;
}

/// The ETH protocol object.
pub struct Eth {
    me: ProtoId,
    nic: ProtoId,
    my_eth: OnceCell<EthAddr>,
    nic_sess: OnceCell<SessionRef>,
    enables: RefCell<Map<u16, ProtoId>>,
    // Cached sessions for the upward path, keyed (peer, type): the paper's
    // "cache open sessions" efficiency rule.
    passive: RefCell<Map<(EthAddr, u16), SessionRef>>,
}

impl Eth {
    /// Creates an ETH protocol above NIC `nic`.
    pub fn new(me: ProtoId, nic: ProtoId) -> Rc<Eth> {
        Rc::new(Eth {
            me,
            nic,
            my_eth: OnceCell::new(),
            nic_sess: OnceCell::new(),
            enables: RefCell::new(Map::default()),
            passive: RefCell::new(Map::default()),
        })
    }

    /// This host's hardware address (available after boot).
    pub fn my_eth(&self) -> EthAddr {
        *self.my_eth.get().expect("eth booted")
    }

    fn nic_session(&self) -> XResult<&SessionRef> {
        self.nic_sess
            .get()
            .ok_or_else(|| XError::Config("eth used before boot".into()))
    }

    fn type_of(parts: &ParticipantSet) -> XResult<u16> {
        parts
            .local_part()
            .and_then(|p| p.proto_num)
            .map(|n| n as u16)
            .ok_or_else(|| XError::Config("eth open needs a type number".into()))
    }

    fn make_session(&self, dst: EthAddr, ty: u16) -> XResult<SessionRef> {
        Ok(Rc::new(EthSession {
            proto: self.me,
            dst,
            src: self.my_eth(),
            ty,
            nic: Rc::clone(self.nic_session()?),
        }))
    }
}

/// An ETH session: one (peer, type) conversation.
pub struct EthSession {
    proto: ProtoId,
    dst: EthAddr,
    src: EthAddr,
    ty: u16,
    nic: SessionRef,
}

impl Session for EthSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, mut msg: Message) -> XResult<Option<Message>> {
        if msg.len() > ETH_MTU {
            return Err(XError::TooBig {
                size: msg.len(),
                max: ETH_MTU,
            });
        }
        let hdr = FixedWriter::<ETH_HDR_LEN>::new()
            .eth(self.dst)
            .eth(self.src)
            .u16(self.ty)
            .finish();
        ctx.push_header(&mut msg, &hdr);
        ctx.charge_layer_call();
        self.nic.push(ctx, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => Ok(ControlRes::Size(ETH_MTU)),
            ControlOp::GetMyEth => Ok(ControlRes::Eth(self.src)),
            ControlOp::GetMyProto => Ok(ControlRes::U32(u32::from(self.ty))),
            // Peer identity for upper protocols keying session tables when
            // a headerless virtual protocol delivered straight from ETH.
            ControlOp::Custom("peer-eth", _) => Ok(ControlRes::Eth(self.dst)),
            other => self.nic.control(ctx, other),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Protocol for Eth {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::eth()
    }

    fn name(&self) -> &'static str {
        "eth"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel();
        let sess = kernel.open(ctx, self.nic, self.me, &ParticipantSet::new())?;
        let my = sess.control(ctx, &ControlOp::GetMyEth)?.eth()?;
        self.my_eth
            .set(my)
            .map_err(|_| XError::Config("eth double boot".into()))?;
        self.nic_sess
            .set(sess)
            .map_err(|_| XError::Config("eth double boot".into()))?;
        kernel.open_enable(ctx, self.nic, self.me, &ParticipantSet::new())?;
        Ok(())
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let ty = Self::type_of(parts)?;
        let dst = parts
            .remote_part()
            .and_then(|p| p.eth)
            .ok_or_else(|| XError::Config("eth open needs a peer hardware address".into()))?;
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        self.make_session(dst, ty)
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let ty = Self::type_of(parts)?;
        self.enables.borrow_mut().insert(ty, upper);
        Ok(())
    }

    fn open_disable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let ty = Self::type_of(parts)?;
        let mut e = self.enables.borrow_mut();
        if e.get(&ty) == Some(&upper) {
            e.remove(&ty);
        }
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let hdr = ctx.pop_header(&mut msg, ETH_HDR_LEN)?;
        let mut r = FixedReader::<ETH_HDR_LEN>::new(&hdr, "eth")?;
        let _dst = r.eth();
        let src = r.eth();
        let ty = r.u16();
        drop(hdr);
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = self
            .enables
            .borrow()
            .get(&ty)
            .copied()
            .ok_or_else(|| XError::NoEnable(format!("eth type {ty:#06x}")))?;
        let sess = {
            let mut cache = self.passive.borrow_mut();
            match cache.get(&(src, ty)) {
                Some(s) => Rc::clone(s),
                None => {
                    ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                    let s = self.make_session(src, ty)?;
                    cache.insert((src, ty), Rc::clone(&s));
                    s
                }
            }
        };
        ctx.kernel().demux_to(ctx, upper, &sess, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => Ok(ControlRes::Size(ETH_MTU)),
            ControlOp::GetMyEth => Ok(ControlRes::Eth(self.my_eth())),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("eth control"))
            }
        }
    }

    // The passive-session cache is state, not wiring: a warm entry skips a
    // SessionCreate charge, so restore must rewind it for bit-identity.
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        Some(Rc::new(EthSnap {
            enables: self.enables.borrow().clone(),
            passive: self.passive.borrow().clone(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<EthSnap>(blob, "eth")?;
        *self.enables.borrow_mut() = s.enables.clone();
        *self.passive.borrow_mut() = s.passive.clone();
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Clone)]
struct EthSnap {
    enables: Map<u16, ProtoId>,
    passive: Map<(EthAddr, u16), SessionRef>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_constants_do_not_collide() {
        assert_ne!(eth_type::IP, eth_type::ARP);
        // VIP's mapped range [VIP_BASE, VIP_BASE+256) stays clear of the
        // other types used in the suite.
        for t in [eth_type::IP, eth_type::ARP, eth_type::SPRITE_RPC] {
            assert!(!(eth_type::VIP_BASE..eth_type::VIP_BASE + 256).contains(&t));
        }
    }

    #[test]
    fn header_layout_is_14_bytes() {
        let hdr = FixedWriter::<ETH_HDR_LEN>::new()
            .eth(EthAddr::BROADCAST)
            .eth(EthAddr::from_index(1))
            .u16(eth_type::IP)
            .finish();
        let mut r = FixedReader::<ETH_HDR_LEN>::new(&hdr, "eth").unwrap();
        assert_eq!(r.eth(), EthAddr::BROADCAST);
        assert_eq!(r.eth(), EthAddr::from_index(1));
        assert_eq!(r.u16(), eth_type::IP);
    }
}
