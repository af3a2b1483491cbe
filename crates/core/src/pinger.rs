//! PINGER — the measurement protocol for Table III's partial stacks.
//!
//! Table III reports the round-trip latency of VIP alone, FRAGMENT-VIP, and
//! CHANNEL-FRAGMENT-VIP — stacks that are not complete RPC protocols. The
//! paper measures them with a test harness that bounces a null message off
//! the peer; PINGER is that harness, expressed as just another protocol in
//! the uniform interface (which is itself a small demonstration of the
//! interface's point).
//!
//! On the echo side, PINGER pushes every received message straight back
//! down the session it arrived on — which is a datagram session for
//! VIP/FRAGMENT lowers and a reply for a CHANNEL lower. On the client side,
//! [`Pinger::rtt`] completes either synchronously (CHANNEL returns the
//! reply from `push`) or when the echo is demultiplexed back up.

use std::any::Any;
use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use xkernel::map::Map;
use xkernel::prelude::*;

use crate::protnum::rel_proto_num;

/// How long to wait for an echo before failing.
pub const PING_TIMEOUT_NS: u64 = 5_000_000_000;

/// The PINGER protocol object.
pub struct Pinger {
    me: ProtoId,
    lower: ProtoId,
    echo: bool,
    lower_name: OnceCell<&'static str>,
    sessions: RefCell<Map<u32, SessionRef>>,
    /// Whether a [`Pinger::rtt`] is parked for an echo.
    waiting: Cell<bool>,
    /// The parked round trip's wake signal, reset as each one starts.
    echo_sema: SharedSema,
    /// The echoed bytes, once they arrive.
    echoed: RefCell<Option<Vec<u8>>>,
    series: RefCell<Option<Series>>,
}

/// In-flight callback-driven ping-pong series (see [`Pinger::run_series`]).
struct Series {
    remaining: usize,
    payload: Vec<u8>,
    sess: SessionRef,
    done: SharedSema,
}

impl Pinger {
    /// Creates a PINGER above `lower`; `echo` marks the responder side.
    pub fn new(me: ProtoId, lower: ProtoId, echo: bool) -> Rc<Pinger> {
        Rc::new(Pinger {
            me,
            lower,
            echo,
            lower_name: OnceCell::new(),
            sessions: RefCell::new(Map::default()),
            waiting: Cell::new(false),
            echo_sema: SharedSema::new(0),
            echoed: RefCell::new(None),
            series: RefCell::new(None),
        })
    }

    fn session_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<SessionRef> {
        if let Some(s) = self.sessions.borrow().get(&peer.0) {
            return Ok(Rc::clone(s));
        }
        let lname = self.lower_name.get().expect("pinger booted");
        let parts = ParticipantSet::pair(
            Participant::proto(rel_proto_num(lname, "pinger")?),
            Participant::host(peer),
        );
        let s = ctx.kernel().open(ctx, self.lower, self.me, &parts)?;
        self.sessions.borrow_mut().insert(peer.0, Rc::clone(&s));
        Ok(s)
    }

    /// Runs `n` back-to-back round trips of a `payload_len`-byte message and
    /// returns the total virtual time.
    ///
    /// Unlike [`Pinger::rtt`], the next send is issued directly from the
    /// demux of the previous echo — callback style, with no semaphore block
    /// per round trip. This mirrors the paper's measurement of the layers
    /// *below* CHANNEL: the "synchronization and process switching that is
    /// intrinsic to the request/reply paradigm" is a cost CHANNEL adds, so
    /// the harness must not impose it on the lower layers itself. (Over a
    /// CHANNEL lower, `push` blocks and returns the reply, so the intrinsic
    /// cost is naturally included there.)
    pub fn run_series(
        &self,
        ctx: &Ctx,
        peer: IpAddr,
        n: usize,
        payload_len: usize,
    ) -> XResult<u64> {
        assert!(n >= 1, "series needs at least one round trip");
        let sess = self.session_for(ctx, peer)?;
        let payload = vec![0x5Au8; payload_len];
        let t0 = ctx.now();
        let done = SharedSema::new(0);
        {
            let mut series = self.series.borrow_mut();
            *series = Some(Series {
                remaining: n,
                payload: payload.clone(),
                sess: Rc::clone(&sess),
                done: done.clone(),
            });
        }
        if let Some(_reply) = sess.push(ctx, ctx.msg(payload.clone()))? {
            // Synchronous-reply lower (CHANNEL): a plain loop, blocking per
            // call exactly as a real RPC client would.
            *self.series.borrow_mut() = None;
            for _ in 1..n {
                sess.push(ctx, ctx.msg(payload.clone()))?;
            }
            return Ok(ctx.now() - t0);
        }
        // Datagram lower: the demux of each echo launches the next send;
        // block only once, at the end of the whole series.
        if !done.p_timeout(ctx, PING_TIMEOUT_NS.saturating_mul(n as u64)) {
            *self.series.borrow_mut() = None;
            return Err(XError::Timeout(format!("pinger series to {peer}")));
        }
        Ok(ctx.now() - t0)
    }

    /// One round trip of `payload` to the echo host at `peer`; returns the
    /// echoed bytes.
    pub fn rtt(&self, ctx: &Ctx, peer: IpAddr, payload: Vec<u8>) -> XResult<Vec<u8>> {
        let sess = self.session_for(ctx, peer)?;
        self.echo_sema.reset();
        *self.echoed.borrow_mut() = None;
        self.waiting.set(true);
        let pushed = sess.push(ctx, ctx.msg(payload))?;
        if let Some(reply) = pushed {
            // Request/reply lower (CHANNEL): the echo came back in-band.
            self.waiting.set(false);
            return Ok(reply.to_vec());
        }
        let ok = self.echo_sema.p_timeout(ctx, PING_TIMEOUT_NS) || self.echoed.borrow().is_some();
        self.waiting.set(false);
        if !ok {
            return Err(XError::Timeout(format!("pinger echo from {peer}")));
        }
        let data = self.echoed.borrow_mut().take();
        data.ok_or_else(|| XError::Timeout(format!("pinger woke without echo from {peer}")))
    }
}

impl Protocol for Pinger {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::pinger()
    }

    fn name(&self) -> &'static str {
        "pinger"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel();
        let lower = kernel.proto(self.lower)?;
        self.lower_name
            .set(lower.name())
            .map_err(|_| XError::Config("pinger double boot".into()))?;
        let parts =
            ParticipantSet::local(Participant::proto(rel_proto_num(lower.name(), "pinger")?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn open(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("pinger: use rtt()"))
    }

    fn open_enable(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("pinger has no upper protocols"))
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
        if self.echo {
            ctx.charge_layer_call();
            lls.push(ctx, msg)?;
            return Ok(());
        }
        // Callback-driven series: fire the next send from this shepherd.
        let next = {
            let mut series = self.series.borrow_mut();
            match series.as_mut() {
                Some(st) => {
                    st.remaining -= 1;
                    if st.remaining == 0 {
                        let st = series.take().expect("present");
                        Some((None, st.done))
                    } else {
                        Some((
                            Some((Rc::clone(&st.sess), st.payload.clone())),
                            st.done.clone(),
                        ))
                    }
                }
                None => None,
            }
        };
        match next {
            Some((Some((sess, payload)), _done)) => {
                ctx.charge_layer_call();
                sess.push(ctx, ctx.msg(payload))?;
                return Ok(());
            }
            Some((None, done)) => {
                done.v(ctx);
                return Ok(());
            }
            None => {}
        }
        if self.waiting.get() {
            *self.echoed.borrow_mut() = Some(msg.to_vec());
            self.echo_sema.v(ctx);
        }
        Ok(())
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            // Asked by VIP: PINGER bounces whatever it is given; tests keep
            // payloads within one Ethernet frame.
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            _ => Err(XError::Unsupported("pinger control")),
        }
    }

    fn snap(&self, _ctx: &Ctx) -> Option<SnapBlob> {
        debug_assert!(
            !self.waiting.get() && self.series.borrow().is_none(),
            "pinger snapshot with a round trip in flight (not quiescent)"
        );
        Some(Rc::new(PingerSnap {
            sessions: self.sessions.borrow().clone(),
        }))
    }

    fn restore_snap(&self, _ctx: &Ctx, blob: &SnapBlob) -> XResult<()> {
        let s = snap_downcast::<PingerSnap>(blob, "pinger")?;
        self.waiting.set(false);
        *self.series.borrow_mut() = None;
        *self.sessions.borrow_mut() = s.sessions.clone();
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct PingerSnap {
    sessions: Map<u32, SessionRef>,
}
