//! SUN_SELECT — Sun RPC's selection layer.
//!
//! Maps (program, version, procedure) onto a registered procedure, in XDR
//! as Sun RPC does. It composes with any transaction layer below —
//! REQUEST_REPLY for the classic zero-or-more Sun RPC, or Sprite's CHANNEL
//! for an at-most-once Sun RPC — and with any stack of authentication
//! layers in between. This is the paper's "mix and match RPCs".

use std::any::Any;
use std::cell::RefCell;
use std::rc::{Rc, Weak};

use xkernel::map::Map;
use xkernel::prelude::*;

use crate::xdr::{XdrReader, XdrWriter};
use xrpc::protnum::rel_proto_num;
use xrpc::select::Handler;

/// Encoded header: prog, vers, proc, status.
pub const SUNSEL_HDR_LEN: usize = 16;

/// Reply status values.
pub mod status {
    /// Success.
    pub const OK: u32 = 0;
    /// Program unavailable.
    pub const PROG_UNAVAIL: u32 = 1;
    /// Procedure unavailable within the program.
    pub const PROC_UNAVAIL: u32 = 2;
    /// The procedure itself failed.
    pub const PROC_ERROR: u32 = 3;
}

fn encode_hdr(prog: u32, vers: u32, proc: u32, st: u32) -> Vec<u8> {
    let mut w = XdrWriter::new();
    w.u32(prog).u32(vers).u32(proc).u32(st);
    w.finish()
}

/// The SUN_SELECT protocol object.
pub struct SunSelect {
    weak_self: Weak<SunSelect>,
    me: ProtoId,
    lower: ProtoId,
    lower_name: RefCell<Option<&'static str>>,
    handlers: RefCell<Map<(u32, u32, u32), Handler>>,
    lowers: RefCell<Map<u32, SessionRef>>,
}

impl SunSelect {
    /// Creates SUN_SELECT above `lower` (a transaction layer, possibly with
    /// auth layers in between).
    pub fn new(me: ProtoId, lower: ProtoId) -> Rc<SunSelect> {
        Rc::new_cyclic(|weak_self| SunSelect {
            weak_self: weak_self.clone(),
            me,
            lower,
            lower_name: RefCell::new(None),
            handlers: RefCell::new(Map::default()),
            lowers: RefCell::new(Map::default()),
        })
    }

    /// Registers the procedure for (prog, vers, proc).
    pub fn serve<F>(&self, prog: u32, vers: u32, proc: u32, f: F)
    where
        F: Fn(&Ctx, Message) -> XResult<Message> + 'static,
    {
        self.handlers
            .borrow_mut()
            .insert((prog, vers, proc), Rc::new(f));
    }

    fn lower_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<SessionRef> {
        if let Some(s) = self.lowers.borrow().get(&peer.0) {
            return Ok(Rc::clone(s));
        }
        let lname = self
            .lower_name
            .borrow()
            .ok_or_else(|| XError::Config("sunselect used before boot".into()))?;
        let parts = ParticipantSet::pair(
            Participant::proto(rel_proto_num(lname, "sunselect")?),
            Participant::host(peer),
        );
        let s = ctx.kernel().open(ctx, self.lower, self.me, &parts)?;
        self.lowers.borrow_mut().insert(peer.0, Rc::clone(&s));
        Ok(s)
    }

    /// Invokes (prog, vers, proc) on `peer` with `args`.
    pub fn call(
        &self,
        ctx: &Ctx,
        peer: IpAddr,
        prog: u32,
        vers: u32,
        proc: u32,
        args: Vec<u8>,
    ) -> XResult<Vec<u8>> {
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let lower = self.lower_for(ctx, peer)?;
        let mut wire = ctx.msg(args);
        ctx.push_header(&mut wire, &encode_hdr(prog, vers, proc, status::OK));
        ctx.charge_layer_call();
        let mut reply = lower
            .push(ctx, wire)?
            .ok_or_else(|| XError::Config("transaction layer returned no reply".into()))?;
        let bytes = ctx.pop_header(&mut reply, SUNSEL_HDR_LEN)?;
        let mut r = XdrReader::new(&bytes);
        let (_p, _v, _c) = (r.u32()?, r.u32()?, r.u32()?);
        let st = r.u32()?;
        drop(bytes);
        match st {
            status::OK => Ok(reply.to_vec()),
            status::PROG_UNAVAIL => Err(XError::Remote(format!("program {prog} unavailable"))),
            status::PROC_UNAVAIL => Err(XError::Remote(format!(
                "procedure {prog}.{vers}.{proc} unavailable"
            ))),
            other => Err(XError::Remote(format!(
                "procedure {prog}.{vers}.{proc} failed with status {other}"
            ))),
        }
    }
}

/// A client session bound to one (peer, prog, vers, proc).
pub struct SunSelectSession {
    parent: Weak<SunSelect>,
    peer: IpAddr,
    prog: u32,
    vers: u32,
    proc: u32,
}

impl SunSelectSession {
    fn parent(&self) -> Rc<SunSelect> {
        self.parent
            .upgrade()
            .expect("a protocol outlives its sessions")
    }
}

impl Session for SunSelectSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent().me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.parent()
            .call(
                ctx,
                self.peer,
                self.prog,
                self.vers,
                self.proc,
                msg.to_vec(),
            )
            .map(|v| Some(Message::from_user(v)))
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            _ => Err(XError::Unsupported("sunselect session control")),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Protocol for SunSelect {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::sunselect()
    }

    fn name(&self) -> &'static str {
        "sunselect"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel();
        let lower = kernel.proto(self.lower)?;
        *self.lower_name.borrow_mut() = Some(lower.name());
        let parts = ParticipantSet::local(Participant::proto(rel_proto_num(
            lower.name(),
            "sunselect",
        )?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        // Cached lower sessions referenced the previous incarnation's
        // transaction layer; registered programs survive.
        self.lowers.borrow_mut().clear();
        Ok(())
    }

    /// Uniform-interface open: the (prog, vers, proc) triple is packed into
    /// the participant's protocol number as `prog << 16 | vers << 8 | proc`
    /// (each component ≤ its field width); [`SunSelect::call`] is the
    /// unpacked API.
    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let packed = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("sunselect open needs a packed prog/vers/proc".into()))?;
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("sunselect open needs a peer host".into()))?;
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        Ok(Rc::new(SunSelectSession {
            parent: Weak::clone(&self.weak_self),
            peer,
            prog: packed >> 16,
            vers: (packed >> 8) & 0xff,
            proc: packed & 0xff,
        }))
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        Ok(()) // Dispatch is by registered handlers.
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, SUNSEL_HDR_LEN)?;
        let mut r = XdrReader::new(&bytes);
        let prog = r.u32()?;
        let vers = r.u32()?;
        let proc = r.u32()?;
        let _st = r.u32()?;
        drop(bytes);
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let handler = self.handlers.borrow().get(&(prog, vers, proc)).cloned();
        let (st, body) = match handler {
            Some(h) => match h(ctx, msg) {
                Ok(body) => (status::OK, body),
                Err(e) => {
                    let _ = e;
                    ctx.trace_note("handler failed");
                    (status::PROC_ERROR, ctx.empty_msg())
                }
            },
            None if self.handlers.borrow().keys().any(|(p, _, _)| *p == prog) => {
                (status::PROC_UNAVAIL, ctx.empty_msg())
            }
            None => (status::PROG_UNAVAIL, ctx.empty_msg()),
        };
        let mut wire = body;
        ctx.push_header(&mut wire, &encode_hdr(prog, vers, proc, st));
        ctx.charge_layer_call();
        lls.push(ctx, wire)?;
        Ok(())
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            _ => Err(XError::Unsupported("sunselect control")),
        }
    }

    // Handlers are config, not state; only the lower-session cache matters
    // for replay (a warm cache skips SessionCreate charges below).
    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        Some(Rc::new(SunSelectSnap {
            lowers: self.lowers.borrow().clone(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<SunSelectSnap>(blob, "sunselect")?;
        *self.lowers.borrow_mut() = s.lowers.clone();
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct SunSelectSnap {
    lowers: Map<u32, SessionRef>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_xdr_and_16_bytes() {
        let h = encode_hdr(100003, 2, 1, status::OK);
        assert_eq!(h.len(), SUNSEL_HDR_LEN);
        let mut r = XdrReader::new(&h);
        assert_eq!(r.u32().unwrap(), 100003);
        assert_eq!(r.u32().unwrap(), 2);
        assert_eq!(r.u32().unwrap(), 1);
        assert_eq!(r.u32().unwrap(), status::OK);
    }
}
