//! Fork-from-snapshot policy sweeps: warm once, branch many.
//!
//! A policy sweep wants to compare retransmission-timeout and backoff
//! settings under identical load — but a fresh rig per point re-pays the
//! whole warm-up (ARP resolution, session and channel establishment,
//! adaptive-RTO training) and, worse, lets the points drift apart if any
//! warm-up detail differs. The fork sweep instead:
//!
//! 1. builds and warms the rig **once** ([`crate::LoadSpec::build_warm`]),
//! 2. takes a whole-sim snapshot of the warmed, quiescent state
//!    ([`xkernel::sim::Sim::snapshot`] + [`simnet::SimNet::snapshot`]),
//! 3. per policy point: restores the snapshot, applies the point's
//!    `SetTimeout` / `SetBackoff` control ops on every client, and runs
//!    the measured window ([`crate::LoadSpec::measure`]).
//!
//! Every branch therefore starts from the *bit-identical* warmed state:
//! two branches with the same policy produce `Eq`-equal [`LoadReport`]s,
//! and any difference between two branches is attributable to the policy
//! alone. (The snapshot bit-identity guarantee also means a branch equals
//! a from-scratch run that warmed and applied the same policy — forking is
//! an optimization, not a different experiment.)

use inet::with_concrete;
use xkernel::prelude::*;

use crate::gen::{LoadReport, LoadSpec};
use crate::topo::{LoadRig, LoadStack};

/// One branch of a fork sweep: the RTO tunables applied to every client
/// after the warmed snapshot is restored. `None` leaves a knob at the
/// stack's default.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PolicyPoint {
    /// Base retransmission timeout override (ns), via `SetTimeout`.
    pub timeout_ns: Option<u64>,
    /// Cap on exponential-backoff doublings, via `SetBackoff`
    /// (0 disables backoff).
    pub backoff: Option<u32>,
}

impl PolicyPoint {
    /// The stack's own defaults — the control branch of a sweep.
    pub fn baseline() -> PolicyPoint {
        PolicyPoint::default()
    }

    /// A short label for reports ("baseline", "t=10000000", "t=1000/b=0").
    pub fn label(&self) -> String {
        match (self.timeout_ns, self.backoff) {
            (None, None) => "baseline".to_string(),
            (Some(t), None) => format!("t={t}"),
            (None, Some(b)) => format!("b={b}"),
            (Some(t), Some(b)) => format!("t={t}/b={b}"),
        }
    }
}

/// One measured branch of a fork sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Branch {
    /// The policy point's label.
    pub policy: String,
    /// The branch's load report.
    pub report: LoadReport,
}

/// The outcome of a fork sweep: the snapshot instant plus one report per
/// policy point, in sweep order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForkReport {
    /// Virtual time of the warmed snapshot every branch forked from.
    pub warmed_at: u64,
    /// Per-point branches, in the order the points were given.
    pub branches: Vec<Branch>,
}

/// The graph instance owning the run-time RTO knobs for `stack`, if any:
/// REQUEST_REPLY for Sun RPC, CHANNEL for the `select` stacks. The `mrpc`
/// (Sprite) stacks tune retransmission at build time only.
fn rto_instance(stack: &LoadStack) -> Option<&'static str> {
    match stack {
        LoadStack::SunRpcUdp => Some("request_reply"),
        LoadStack::Paper(def) => (def.entry == "select").then_some("channel"),
    }
}

/// Applies `point`'s control ops on every client kernel (retransmission is
/// client-side state). Runs inside sim processes, so the applications are
/// themselves deterministic scheduled events.
fn apply_policy(rig: &LoadRig, stack: &LoadStack, point: &PolicyPoint) {
    let mut ops = Vec::new();
    if let Some(t) = point.timeout_ns {
        ops.push(ControlOp::SetTimeout(t));
    }
    if let Some(b) = point.backoff {
        ops.push(ControlOp::SetBackoff(b));
    }
    if ops.is_empty() {
        return;
    }
    let instance = rto_instance(stack)
        .unwrap_or_else(|| panic!("{} has no run-time RTO knob to sweep", stack.name()));
    for k in &rig.clients {
        let (stack, ops) = (*stack, ops.clone());
        rig.sim.spawn(k.host(), move |ctx| {
            let kernel = ctx.kernel();
            match stack {
                LoadStack::SunRpcUdp => {
                    with_concrete::<sunrpc::rr::RequestReply, _>(kernel, instance, |r| {
                        for op in &ops {
                            r.control(ctx, op).expect("request_reply accepts the knob");
                        }
                    })
                    .expect("request_reply registered")
                }
                LoadStack::Paper(_) => {
                    with_concrete::<xrpc::channel::Channel, _>(kernel, instance, |c| {
                        for op in &ops {
                            c.control(ctx, op).expect("channel accepts the knob");
                        }
                    })
                    .expect("channel registered")
                }
            }
        });
    }
    assert_eq!(
        rig.sim.run_until_idle().blocked,
        0,
        "policy application left a blocked process"
    );
}

/// Warms `spec`'s rig once, snapshots it, and measures one branch per
/// policy point from the restored snapshot.
///
/// # Panics
///
/// Panics if the rig fails to build or warm, if the warmed state cannot be
/// snapshotted or restored (harness bugs), or if a point sets a knob on a
/// stack without a run-time RTO knob (see [`PolicyPoint`]).
pub fn fork_sweep(spec: &LoadSpec, points: &[PolicyPoint]) -> ForkReport {
    let rig = spec.build_warm();
    let sim_snap = rig.sim.snapshot().expect("warmed rig snapshots");
    let net_snap = rig.net.snapshot();
    let mut branches = Vec::with_capacity(points.len());
    for point in points {
        rig.sim
            .restore(&sim_snap)
            .expect("warmed snapshot restores");
        rig.net.restore(&net_snap);
        apply_policy(&rig, &spec.stack, point);
        branches.push(Branch {
            policy: point.label(),
            report: spec.measure(&rig),
        });
    }
    ForkReport {
        warmed_at: sim_snap.now(),
        branches,
    }
}
