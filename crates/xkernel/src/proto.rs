//! The uniform protocol interface.
//!
//! Every protocol in the suite — device drivers, ETH, IP, VIP, the RPC
//! layers — implements the same two traits. This uniformity is the first of
//! the three x-kernel features the paper leans on: "if two or more protocols
//! provide the same semantics ... it is easy to substitute one for another."
//!
//! * A [`Protocol`] creates sessions (actively via [`Protocol::open`],
//!   passively via [`Protocol::open_enable`] + demux-time `open_done`) and
//!   switches incoming messages to them via [`Protocol::demux`].
//! * A [`Session`] is a run-time instance of a protocol: the end-point of a
//!   connection, holding its local state. Messages move down with
//!   [`Session::push`] and up with [`Session::pop`].
//! * Both support [`Protocol::control`]/[`Session::control`] for the small
//!   set of out-of-band queries (the paper found "on the order of two dozen"
//!   suffice — see [`ControlOp`]).

use std::any::Any;
use std::rc::Rc;

use crate::addr::{EthAddr, IpAddr, ParticipantSet, Port};
use crate::error::{XError, XResult};
use crate::msg::Message;
use crate::sim::Ctx;
use crate::trace::EventKind;

/// Identifies a protocol object within one kernel's configuration.
///
/// Protocol ids are capabilities handed out when the protocol graph is
/// built; a protocol can only open lower protocols it was configured with —
/// the "late binding between protocol layers".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProtoId(pub usize);

/// Shared handle to a session object.
pub type SessionRef = Rc<dyn Session>;

/// Shared handle to a protocol object.
pub type ProtocolRef = Rc<dyn Protocol>;

/// Opaque, protocol-private snapshot state: what [`Protocol::snap`]
/// captures and [`Protocol::restore_snap`] consumes. Each protocol
/// downcasts to its own concrete type; the snapshot machinery only
/// transports the blobs.
pub type SnapBlob = Rc<dyn Any>;

/// Downcasts a snapshot blob to the concrete type `T` the protocol stored,
/// failing with a labeled error when handed some other protocol's blob
/// (slot misalignment: restoring onto a differently configured graph).
pub fn snap_downcast<'a, T: 'static>(blob: &'a SnapBlob, who: &'static str) -> XResult<&'a T> {
    blob.downcast_ref::<T>()
        .ok_or_else(|| XError::Config(format!("{who}: snapshot blob type mismatch")))
}

/// The out-of-band query/command set supported by `control`.
///
/// Mirrors the x-kernel opcodes the paper's protocols rely on. `Custom`
/// keeps the interface uniform for protocol-specific extensions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControlOp {
    /// Largest message the object can carry in one unit (after its own
    /// fragmentation, if any).
    GetMaxPacket,
    /// Largest message that avoids fragmentation anywhere below.
    GetOptPacket,
    /// Asked *of a high-level protocol* (by VIP at open time): the largest
    /// message it will ever push into the protocol below it.
    GetMaxMsgSize,
    /// Local host internet address.
    GetMyHost,
    /// Peer host internet address (sessions only).
    GetPeerHost,
    /// Local hardware address.
    GetMyEth,
    /// The protocol number the queried object demultiplexes on.
    GetMyProto,
    /// Local transport port (sessions of port-based protocols).
    GetMyPort,
    /// Peer transport port.
    GetPeerPort,
    /// Resolve an internet address to a hardware address (ARP). Fails if
    /// the host does not answer on the local wire — which is exactly the
    /// "is this host on my Ethernet?" oracle VIP uses.
    Resolve(IpAddr),
    /// Install a static resolution entry (ARP cache seeding in tests).
    InstallResolve(IpAddr, EthAddr),
    /// How many fragments a message of the given size would need (asked of
    /// FRAGMENT by CHANNEL to tune its step-function timeout).
    GetFragCount(usize),
    /// Current round-trip-time estimate in nanoseconds.
    GetRtt,
    /// Override the object's base timeout (nanoseconds).
    SetTimeout(u64),
    /// Cap on consecutive exponential-backoff doublings a retransmitting
    /// protocol may apply to its RTO (0 disables backoff).
    SetBackoff(u32),
    /// Number of currently free RPC channels (SELECT).
    GetFreeChannels,
    /// The peer's boot id as last observed (CHANNEL / Sprite RPC).
    GetPeerBootId,
    /// Local boot id.
    GetMyBootId,
    /// Protocol-specific escape hatch.
    Custom(&'static str, Vec<u8>),
}

/// Result of a `control` operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControlRes {
    /// Operation performed; nothing to report.
    Done,
    /// A size in bytes.
    Size(usize),
    /// A 32-bit value.
    U32(u32),
    /// A 64-bit value.
    U64(u64),
    /// A truth value.
    Bool(bool),
    /// An internet address.
    Ip(IpAddr),
    /// A hardware address.
    Eth(EthAddr),
    /// A port number.
    Port(Port),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl ControlRes {
    /// Extracts a size, or errors.
    pub fn size(&self) -> XResult<usize> {
        match self {
            ControlRes::Size(n) => Ok(*n),
            other => Err(XError::Malformed(format!("expected Size, got {other:?}"))),
        }
    }

    /// Extracts a `u32`, or errors.
    pub fn u32(&self) -> XResult<u32> {
        match self {
            ControlRes::U32(v) => Ok(*v),
            other => Err(XError::Malformed(format!("expected U32, got {other:?}"))),
        }
    }

    /// Extracts a `u64`, or errors.
    pub fn u64(&self) -> XResult<u64> {
        match self {
            ControlRes::U64(v) => Ok(*v),
            other => Err(XError::Malformed(format!("expected U64, got {other:?}"))),
        }
    }

    /// Extracts an internet address, or errors.
    pub fn ip(&self) -> XResult<IpAddr> {
        match self {
            ControlRes::Ip(v) => Ok(*v),
            other => Err(XError::Malformed(format!("expected Ip, got {other:?}"))),
        }
    }

    /// Extracts a hardware address, or errors.
    pub fn eth(&self) -> XResult<EthAddr> {
        match self {
            ControlRes::Eth(v) => Ok(*v),
            other => Err(XError::Malformed(format!("expected Eth, got {other:?}"))),
        }
    }

    /// Extracts a bool, or errors.
    pub fn bool(&self) -> XResult<bool> {
        match self {
            ControlRes::Bool(v) => Ok(*v),
            other => Err(XError::Malformed(format!("expected Bool, got {other:?}"))),
        }
    }
}

/// A protocol object: creates sessions and demultiplexes incoming messages.
pub trait Protocol {
    /// Short protocol name, e.g. `"ip"`.
    fn name(&self) -> &'static str;

    /// This protocol's id within its kernel.
    fn id(&self) -> ProtoId;

    /// Actively creates a session for communication with the given
    /// participants (all members specified; first is local). `upper` is the
    /// invoking protocol, used for upward demultiplexing and for querying
    /// the opener via `control` (e.g. VIP asking `GetMaxMsgSize`).
    fn open(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef>;

    /// Passively enables session creation: "deliver messages matching
    /// `parts` (local participant at least) up to `upper`".
    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()>;

    /// Revokes a previous [`Protocol::open_enable`].
    fn open_disable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("open_disable"))
    }

    /// Called *on the high-level protocol* when a lower protocol passively
    /// created a session on its behalf (completing an `open_enable`); `lls`
    /// is the freshly created lower session.
    fn open_done(
        &self,
        _ctx: &Ctx,
        _lower: ProtoId,
        _lls: &SessionRef,
        _parts: &ParticipantSet,
    ) -> XResult<()> {
        Ok(())
    }

    /// Switches a message arriving from below to one of this protocol's
    /// sessions (creating one via the open-done path if an enable matches).
    /// `lls` is the lower session the message arrived on.
    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()>;

    /// Reads or sets protocol-wide parameters.
    fn control(&self, _ctx: &Ctx, _op: &ControlOp) -> XResult<ControlRes> {
        Err(XError::Unsupported("protocol control op"))
    }

    /// One-time initialization after the whole protocol graph is built
    /// (bottom-up order). Must not block.
    fn boot(&self, _ctx: &Ctx) -> XResult<()> {
        Ok(())
    }

    /// Re-initialization after a host crash ([`crate::sim::Sim::restart`]):
    /// the protocol discards volatile state (open sessions, partial
    /// reassemblies, in-flight exchanges) and picks a fresh boot
    /// incarnation where it keeps one, while configuration installed at
    /// build time (handlers, enables, graph wiring) survives. Called
    /// bottom-up like [`Protocol::boot`]. Must not block. The default — do
    /// nothing — suits stateless protocols.
    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        Ok(())
    }

    /// Captures this protocol's mutable state for a whole-sim snapshot
    /// (see [`crate::sim::Sim::snapshot`]). Called only at a quiescent
    /// instant — no shepherd process exists, no timer is armed — so
    /// timer-reclaimed state (partial reassemblies, in-flight exchanges)
    /// is empty by construction and a protocol captures exactly its
    /// durable maps, counters, and estimator state. Must not block,
    /// charge, or schedule. The default `None` suits protocols whose only
    /// state is build-time configuration.
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        None
    }

    /// Restores state captured by [`Protocol::snap`] on the *same*
    /// protocol instance (snapshot/restore rewinds a rig in place; it does
    /// not rebuild one). Same quiescence requirement; must not block,
    /// charge, or schedule. Errors if the blob is not this protocol's.
    fn restore_snap(&self, _ctx: &Ctx, _blob: &SnapBlob) -> XResult<()> {
        Ok(())
    }

    /// The declarative composition contract this protocol contributes to
    /// the static graph linter ([`crate::lint`]): address kinds consumed
    /// and produced, header budget, identity preservation, lower-layer
    /// slots, and semaphore discipline. The default is an opaque contract
    /// the linter does not check; protocols override it so composition
    /// errors are caught before the simulator runs.
    fn contract(&self) -> crate::lint::ProtoContract {
        crate::lint::ProtoContract::opaque(self.name())
    }

    /// Downcast support (e.g. registering server procedures on a concrete
    /// SELECT protocol held behind `Rc<dyn Protocol>`).
    fn as_any(&self) -> &dyn Any;
}

/// Span-entering wrapper for [`Session`] handles.
///
/// Implemented for [`SessionRef`] (the `Rc` layer), where method
/// resolution finds it one autoderef step *before* the trait methods on
/// `dyn Session` — so every existing `lower.push(ctx, msg)` call site
/// through a `SessionRef` transparently enters the layer's xtrace span,
/// with no per-protocol edits. The span is an RAII guard: it pops on
/// return and on a crash unwind, so span stacks stay balanced under
/// [`crate::sim::Sim::crash_at`]. Free when tracing is off.
pub trait TracedSession {
    /// [`Session::push`], entering the session's protocol span.
    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>>;
    /// [`Session::pop`], entering the session's protocol span.
    fn pop(&self, ctx: &Ctx, msg: Message) -> XResult<()>;
}

impl TracedSession for SessionRef {
    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        if !ctx.trace_enabled() {
            return Session::push(&**self, ctx, msg);
        }
        let _span = ctx.enter_layer(self.protocol_id(), EventKind::Push, msg.len() as u64);
        Session::push(&**self, ctx, msg)
    }

    fn pop(&self, ctx: &Ctx, msg: Message) -> XResult<()> {
        if !ctx.trace_enabled() {
            return Session::pop(&**self, ctx, msg);
        }
        let _span = ctx.enter_layer(self.protocol_id(), EventKind::Demux, msg.len() as u64);
        Session::pop(&**self, ctx, msg)
    }
}

/// Span-entering wrapper for [`Protocol`] handles; the upward counterpart
/// of [`TracedSession`] (see there for the resolution trick).
pub trait TracedProtocol {
    /// [`Protocol::demux`], entering the protocol's span.
    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()>;
}

impl TracedProtocol for ProtocolRef {
    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
        if !ctx.trace_enabled() {
            return Protocol::demux(&**self, ctx, lls, msg);
        }
        let _span = ctx.enter_layer(self.id(), EventKind::Demux, msg.len() as u64);
        Protocol::demux(&**self, ctx, lls, msg)
    }
}

/// A session object: one end-point of a network connection.
pub trait Session {
    /// The protocol this session belongs to.
    fn protocol_id(&self) -> ProtoId;

    /// Passes a message down through this session. Datagram sessions return
    /// `Ok(None)`; request/reply sessions (CHANNEL, the RPC protocols)
    /// block the shepherd and return `Ok(Some(reply))`.
    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>>;

    /// Passes a message up through this session (invoked by the owning
    /// protocol's demux).
    fn pop(&self, _ctx: &Ctx, _msg: Message) -> XResult<()> {
        Err(XError::Unsupported("session pop"))
    }

    /// Reads or sets session parameters.
    fn control(&self, _ctx: &Ctx, _op: &ControlOp) -> XResult<ControlRes> {
        Err(XError::Unsupported("session control op"))
    }

    /// Releases the session's resources. Idempotent.
    fn close(&self, _ctx: &Ctx) -> XResult<()> {
        Ok(())
    }

    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_res_accessors() {
        assert_eq!(ControlRes::Size(9).size().unwrap(), 9);
        assert!(ControlRes::Done.size().is_err());
        assert!(ControlRes::Bool(true).bool().unwrap());
        assert_eq!(
            ControlRes::Ip(IpAddr::new(1, 2, 3, 4)).ip().unwrap(),
            IpAddr::new(1, 2, 3, 4)
        );
        assert_eq!(
            ControlRes::Eth(EthAddr::from_index(3)).eth().unwrap(),
            EthAddr::from_index(3)
        );
        assert_eq!(ControlRes::U64(7).u64().unwrap(), 7);
        assert!(ControlRes::U32(7).u64().is_err());
    }
}
