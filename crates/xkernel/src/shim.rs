//! Shim protocols used by experiments.
//!
//! * [`NullLayer`] — a trivial but *complete* protocol layer: it has a
//!   4-byte header with its own protocol-number field, a demux map, and
//!   sessions. It does nothing else. This is the paper's "trivial protocols
//!   such as UDP" whose 0.11 msec floor bounds the cost of any layer, and it
//!   powers the "stacks with on the order of ten layers" scaling ablation.
//! * [`HandicapLayer`] — a transparent layer that charges the modelled
//!   overheads of environments we cannot rebuild (native Sprite kernel,
//!   SunOS socket stack). See `DESIGN.md` §1; it adds no header and changes
//!   no bytes.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::addr::ParticipantSet;
use crate::cost::Handicap;
use crate::error::{XError, XResult};
use crate::map::Map;
use crate::msg::Message;
use crate::proto::{ControlOp, ControlRes, ProtoId, Protocol, Session, SessionRef, TracedSession};
use crate::sim::Ctx;
use crate::trace::OpClass;

/// Header length of the null layer: 16-bit protocol number + 16-bit pad.
pub const NULL_HDR_LEN: usize = 4;

/// A do-nothing protocol layer with a real header and demux map.
pub struct NullLayer {
    me: ProtoId,
    name: &'static str,
    down: ProtoId,
    enables: RefCell<Map<u16, ProtoId>>,
    passive: RefCell<Map<u16, SessionRef>>,
}

impl NullLayer {
    /// Creates a null layer above `down`.
    pub fn new(me: ProtoId, down: ProtoId) -> Rc<NullLayer> {
        Rc::new(NullLayer {
            me,
            name: "null",
            down,
            enables: RefCell::new(Map::default()),
            passive: RefCell::new(Map::default()),
        })
    }

    fn num_of(parts: &ParticipantSet) -> XResult<u16> {
        parts
            .local_part()
            .and_then(|p| p.proto_num)
            .map(|n| n as u16)
            .ok_or_else(|| XError::Config("null layer requires a protocol number".into()))
    }
}

struct NullSession {
    proto: ProtoId,
    num: u16,
    lower: SessionRef,
}

impl Session for NullSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, mut msg: Message) -> XResult<Option<Message>> {
        let hdr = [(self.num >> 8) as u8, (self.num & 0xff) as u8, 0, 0];
        ctx.push_header(&mut msg, &hdr);
        ctx.charge_layer_call();
        match self.lower.push(ctx, msg)? {
            None => Ok(None),
            Some(mut reply) => {
                // Request/reply lower: strip our header from the returned
                // reply before handing it to our caller.
                let h = ctx.pop_header(&mut reply, NULL_HDR_LEN)?;
                drop(h);
                Ok(Some(reply))
            }
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => {
                let r = self.lower.control(ctx, op)?;
                Ok(ControlRes::Size(r.size()?.saturating_sub(NULL_HDR_LEN)))
            }
            other => self.lower.control(ctx, other),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Protocol for NullLayer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn contract(&self) -> crate::lint::ProtoContract {
        null_contract()
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let num = Self::num_of(parts)?;
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        let lower = ctx.kernel().open(ctx, self.down, self.me, parts)?;
        Ok(Rc::new(NullSession {
            proto: self.me,
            num,
            lower,
        }))
    }

    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let num = Self::num_of(parts)?;
        self.enables.borrow_mut().insert(num, upper);
        // Propagate the enable downward under the same number so messages
        // reach us in the first place.
        ctx.kernel().open_enable(ctx, self.down, self.me, parts)
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let hdr = ctx.pop_header(&mut msg, NULL_HDR_LEN)?;
        let num = u16::from_be_bytes([hdr[0], hdr[1]]);
        drop(hdr);
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = self
            .enables
            .borrow()
            .get(&num)
            .copied()
            .ok_or_else(|| XError::NoEnable(format!("null layer num {num}")))?;
        // Reuse (or passively create) the session replies travel down on —
        // the paper's "cache open sessions at all levels" rule.
        let sess = {
            let mut cache = self.passive.borrow_mut();
            match cache.get(&num) {
                Some(s) => Rc::clone(s),
                None => {
                    let s: SessionRef = Rc::new(NullSession {
                        proto: self.me,
                        num,
                        lower: Rc::clone(lls),
                    });
                    ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                    cache.insert(num, Rc::clone(&s));
                    s
                }
            }
        };
        ctx.kernel().demux_to(ctx, upper, &sess, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => {
                let r = ctx.kernel().control(ctx, self.down, op)?;
                Ok(ControlRes::Size(r.size()?.saturating_sub(NULL_HDR_LEN)))
            }
            other => ctx.kernel().control(ctx, self.down, other),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A transparent layer charging modelled environment overheads.
pub struct HandicapLayer {
    me: ProtoId,
    down: ProtoId,
    /// The name this layer reports. Defaults to `"handicap"`; a masquerade
    /// name (e.g. `"eth"`) lets upper protocols treat the handicapped stack
    /// exactly as they would the real one (protocol-number tables key on
    /// the lower protocol's name).
    name: &'static str,
    handicap: Handicap,
    upper: Cell<Option<ProtoId>>,
    // Wrapped lower sessions for the upward path, keyed by the identity of
    // the underlying session, so server-side reply pushes are charged too.
    wrapped: RefCell<Vec<(usize, SessionRef)>>,
}

// Charged once per message *sent* (each host pays for the messages it
// originates; the peer pays for its own sends, so a round trip is charged
// exactly twice).
fn charge_msg(handicap: &Handicap, ctx: &Ctx, len: usize) {
    let c = ctx.cost();
    let mut ns = u64::from(handicap.extra_switches_per_msg) * c.proc_switch;
    ns += (len as u64 * u64::from(handicap.extra_copy_256ths) / 256) * c.copy_byte;
    // Half the fixed per-round-trip cost on each direction's send.
    ns += handicap.per_rtt_fixed / 2;
    ctx.charge_class(OpClass::Handicap, ns);
}

impl HandicapLayer {
    /// Creates a handicap layer above `down` charging `handicap`.
    pub fn new(me: ProtoId, down: ProtoId, handicap: Handicap) -> Rc<HandicapLayer> {
        HandicapLayer::with_name(me, down, handicap, "handicap")
    }

    /// Like [`HandicapLayer::new`] but reporting `name` from
    /// [`Protocol::name`].
    pub fn with_name(
        me: ProtoId,
        down: ProtoId,
        handicap: Handicap,
        name: &'static str,
    ) -> Rc<HandicapLayer> {
        Rc::new(HandicapLayer {
            me,
            down,
            name,
            handicap,
            upper: Cell::new(None),
            wrapped: RefCell::new(Vec::new()),
        })
    }
}

struct HandicapSession {
    proto: ProtoId,
    handicap: Handicap,
    lower: SessionRef,
}

impl Session for HandicapSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        charge_msg(&self.handicap, ctx, msg.len());
        ctx.charge_layer_call();
        self.lower.push(ctx, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        self.lower.control(ctx, op)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Protocol for HandicapLayer {
    fn contract(&self) -> crate::lint::ProtoContract {
        handicap_contract()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        self.upper.set(Some(upper));
        let lower = ctx.kernel().open(ctx, self.down, self.me, parts)?;
        Ok(Rc::new(HandicapSession {
            proto: self.me,
            handicap: self.handicap,
            lower,
        }))
    }

    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        self.upper.set(Some(upper));
        ctx.kernel().open_enable(ctx, self.down, self.me, parts)
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
        let upper = self
            .upper
            .get()
            .ok_or_else(|| XError::NoEnable("handicap layer has no upper".into()))?;
        let key = Rc::as_ptr(lls) as *const () as usize;
        let sess = {
            let mut cache = self.wrapped.borrow_mut();
            match cache.iter().find(|(k, _)| *k == key) {
                Some((_, s)) => Rc::clone(s),
                None => {
                    let s: SessionRef = Rc::new(HandicapSession {
                        proto: self.me,
                        handicap: self.handicap,
                        lower: Rc::clone(lls),
                    });
                    cache.push((key, Rc::clone(&s)));
                    s
                }
            }
        };
        ctx.kernel().demux_to(ctx, upper, &sess, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        ctx.kernel().control(ctx, self.down, op)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Lint contract for the `null` layer: a pass-through pushing its 4-byte
/// header, transparent to addressing.
pub fn null_contract() -> crate::lint::ProtoContract {
    crate::lint::ProtoContract::passthrough("null")
        .header(NULL_HDR_LEN)
        .demux_key_bits(16)
}

/// Lint contract for the `handicap` layer: pure pass-through (no header on
/// the wire, only modelled cost).
pub fn handicap_contract() -> crate::lint::ProtoContract {
    crate::lint::ProtoContract::passthrough("handicap")
        .param("as", false, false)
        .param("switches", false, true)
        .param("copy256", false, true)
        .param("fixed_ns", false, true)
}

/// Registers the shim constructors and their lint contracts:
///
/// * `null -> <lower>` — a trivial complete layer (scaling ablation)
/// * `handicap [as=<name>] [switches=N] [copy256=N] [fixed_ns=N] -> <lower>`
///   — modelled-environment overhead layer
pub fn register_ctors(reg: &mut crate::graph::ProtocolRegistry) {
    reg.add_contract(null_contract());
    reg.add_contract(handicap_contract());
    reg.add("null", |a: &crate::graph::GraphArgs<'_>| {
        Ok(NullLayer::new(a.me, a.down(0)?) as crate::proto::ProtocolRef)
    });
    reg.add("handicap", |a: &crate::graph::GraphArgs<'_>| {
        let handicap = Handicap {
            extra_switches_per_msg: a.param_u64("switches", 0)? as u32,
            extra_copy_256ths: a.param_u64("copy256", 0)? as u32,
            per_rtt_fixed: a.param_u64("fixed_ns", 0)?,
        };
        // Masquerade names must be 'static; intern the handful used.
        let name: &'static str = match a.params.get("as").map(String::as_str) {
            None => "handicap",
            Some("eth") => "eth",
            Some("ip") => "ip",
            Some("vip") => "vip",
            Some(other) => {
                return Err(XError::Config(format!(
                    "handicap cannot masquerade as '{other}'"
                )))
            }
        };
        Ok(HandicapLayer::with_name(a.me, a.down(0)?, handicap, name) as crate::proto::ProtocolRef)
    });
}
