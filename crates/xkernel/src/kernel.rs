//! The per-host kernel: a registry of protocol objects.
//!
//! Each simulated host runs one `Kernel`. Protocols are identified by
//! [`ProtoId`] capabilities handed out when the graph is configured; a
//! protocol can only reach the lower protocols whose ids it was given,
//! and binds to them at run time ("late binding between protocol layers").
//!
//! [`Kernel::demux_to`] is the single choke point through which every
//! message travels upward; it charges exactly one layer-crossing cost,
//! which is what makes layers in this kernel "light-weight ... only one
//! procedure call to pass a message from a high-level protocol to a
//! low-level protocol, and vice versa".

use std::cell::RefCell;
use std::sync::Arc;

use crate::addr::ParticipantSet;
use crate::error::{XError, XResult};
use crate::map::Map;
use crate::msg::Message;
use crate::proto::{ControlOp, ControlRes, ProtoId, ProtocolRef, SessionRef, TracedProtocol};
use crate::sim::{Ctx, HostId, Sim};

/// A host's kernel: protocol registry plus identity.
///
/// The simulator holds every kernel, and a kernel holds no pointer back to
/// the simulator, so dropping the last handle to a simulation frees its
/// kernels and their protocol graphs.
pub struct Kernel {
    name: String,
    host: HostId,
    protocols: RefCell<Vec<Option<ProtocolRef>>>,
    by_name: RefCell<Map<String, ProtoId>>,
}

impl Kernel {
    /// Creates a kernel and registers it with the simulator, allocating its
    /// host id.
    ///
    /// The handle is an `Arc` for the sake of existing callers, although a
    /// kernel, like the rest of a simulation, never leaves its thread.
    #[expect(
        clippy::arc_with_non_send_sync,
        reason = "Arc<Kernel> is the public kernel handle; the simulation it belongs to is !Send"
    )]
    pub fn new(sim: &Sim, name: &str) -> Arc<Kernel> {
        let k = Arc::new(Kernel {
            name: name.to_string(),
            host: sim.next_host(),
            protocols: RefCell::new(Vec::new()),
            by_name: RefCell::new(Map::default()),
        });
        sim.add_kernel(&k);
        k
    }

    /// This kernel's host id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The kernel's configured name (e.g. `"client"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserves a protocol id under `name` so the protocol can be
    /// constructed knowing its own capability, then installed.
    pub fn reserve(&self, name: &str) -> XResult<ProtoId> {
        let mut names = self.by_name.borrow_mut();
        if names.contains_key(name) {
            return Err(XError::Config(format!(
                "protocol '{name}' already configured on {}",
                self.name
            )));
        }
        let mut ps = self.protocols.borrow_mut();
        let id = ProtoId(ps.len());
        ps.push(None);
        names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Installs a constructed protocol into its reserved slot.
    pub fn install(&self, id: ProtoId, proto: ProtocolRef) -> XResult<()> {
        let mut ps = self.protocols.borrow_mut();
        let slot = ps
            .get_mut(id.0)
            .ok_or_else(|| XError::Config(format!("install of unreserved id {id:?}")))?;
        if slot.is_some() {
            return Err(XError::Config(format!("double install of {id:?}")));
        }
        *slot = Some(proto);
        Ok(())
    }

    /// Convenience: reserve + construct + install in one step.
    pub fn register<F>(&self, name: &str, ctor: F) -> XResult<ProtoId>
    where
        F: FnOnce(ProtoId) -> XResult<ProtocolRef>,
    {
        let id = self.reserve(name)?;
        let proto = ctor(id)?;
        self.install(id, proto)?;
        Ok(id)
    }

    /// The configured instance name behind a protocol id (the reverse of
    /// [`Kernel::lookup`]); used by the trace layer to label span frames.
    pub fn name_of(&self, id: ProtoId) -> Option<String> {
        self.by_name
            .borrow()
            .iter()
            .find(|(_, v)| **v == id)
            .map(|(n, _)| n.clone())
    }

    /// Resolves a configured protocol name to its id.
    pub fn lookup(&self, name: &str) -> XResult<ProtoId> {
        self.by_name
            .borrow()
            .get(name)
            .copied()
            .ok_or_else(|| XError::Config(format!("no protocol '{name}' on {}", self.name)))
    }

    /// The protocol object behind an id.
    pub fn proto(&self, id: ProtoId) -> XResult<ProtocolRef> {
        self.protocols
            .borrow()
            .get(id.0)
            .and_then(|p| p.clone())
            .ok_or_else(|| XError::Config(format!("protocol id {id:?} not installed")))
    }

    /// The protocol object behind a name.
    pub fn get(&self, name: &str) -> XResult<ProtocolRef> {
        self.proto(self.lookup(name)?)
    }

    /// Runs every installed protocol's [`crate::proto::Protocol::reboot`]
    /// hook in id order — the same bottom-up order the initial boot used.
    /// Invoked by the simulator after [`Sim::restart`] brings the host
    /// back up.
    pub fn reboot_protocols(&self, ctx: &Ctx) -> XResult<()> {
        let ps: Vec<ProtocolRef> = self.protocols.borrow().iter().flatten().cloned().collect();
        for p in ps {
            p.reboot(ctx)?;
        }
        Ok(())
    }

    /// Every protocol slot in id order (with holes where ids were reserved
    /// but never installed). The snapshot machinery aligns per-protocol
    /// state blobs to these slots; see [`crate::sim::Sim::snapshot`].
    pub fn protocol_slots(&self) -> Vec<Option<ProtocolRef>> {
        self.protocols.borrow().clone()
    }

    /// Names of all configured protocols, in configuration order.
    pub fn protocol_names(&self) -> Vec<String> {
        let names = self.by_name.borrow();
        let mut v: Vec<(ProtoId, String)> = names.iter().map(|(n, id)| (*id, n.clone())).collect();
        v.sort();
        v.into_iter().map(|(_, n)| n).collect()
    }

    /// Passes a message up to protocol `upper` — the one-procedure-call
    /// layer crossing. `lls` is the lower session the message arrived on.
    pub fn demux_to(
        &self,
        ctx: &Ctx,
        upper: ProtoId,
        lls: &SessionRef,
        msg: Message,
    ) -> XResult<()> {
        ctx.charge_layer_call();
        self.proto(upper)?.demux(ctx, lls, msg)
    }

    /// Opens lower protocol `lower` on behalf of `upper` — the downward
    /// layer crossing at session-creation time.
    pub fn open(
        &self,
        ctx: &Ctx,
        lower: ProtoId,
        upper: ProtoId,
        parts: &ParticipantSet,
    ) -> XResult<SessionRef> {
        ctx.charge_layer_call();
        self.proto(lower)?.open(ctx, upper, parts)
    }

    /// Enables passive opens on `lower` for `upper`.
    pub fn open_enable(
        &self,
        ctx: &Ctx,
        lower: ProtoId,
        upper: ProtoId,
        parts: &ParticipantSet,
    ) -> XResult<()> {
        ctx.charge_layer_call();
        self.proto(lower)?.open_enable(ctx, upper, parts)
    }

    /// Invokes a protocol's control operation by id.
    pub fn control(&self, ctx: &Ctx, id: ProtoId, op: &ControlOp) -> XResult<ControlRes> {
        ctx.charge_layer_call();
        self.proto(id)?.control(ctx, op)
    }

    /// Notifies `upper` that `lower` passively created session `lls`
    /// (the open-done upcall).
    pub fn open_done(
        &self,
        ctx: &Ctx,
        upper: ProtoId,
        lower: ProtoId,
        lls: &SessionRef,
        parts: &ParticipantSet,
    ) -> XResult<()> {
        ctx.charge_layer_call();
        self.proto(upper)?.open_done(ctx, lower, lls, parts)
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("host", &self.host)
            .field("protocols", &self.protocol_names())
            .finish()
    }
}

/// Re-exported for implementors: everything a protocol module usually needs.
pub mod prelude {
    pub use crate::addr::{EthAddr, IpAddr, Participant, ParticipantSet, Port};
    pub use crate::error::{XError, XResult};
    pub use crate::kernel::Kernel;
    pub use crate::msg::Message;
    pub use crate::proto::{
        snap_downcast, ControlOp, ControlRes, ProtoId, Protocol, ProtocolRef, Session, SessionRef,
        SnapBlob, TracedProtocol, TracedSession,
    };
    pub use crate::sim::{Ctx, HostId, HostStats, Mode, RobustEvent, SharedSema, Sim, TimerHandle};
    pub use crate::trace::{CostBreakdown, CostEntry, Event, EventKind, FoldedLine, OpClass};
    pub use crate::wire::{
        internet_checksum, ChecksumAcc, FixedReader, FixedWriter, WireReader, WireWriter,
    };
}
