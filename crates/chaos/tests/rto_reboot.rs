//! Regression: a crash/restart re-cold-seeds *all* adaptive-RTO state.
//!
//! The Karn-rule estimator, the base-timeout override, the backoff cap,
//! and the adaptive/fixed switch are one policy bundle. `reboot()` must
//! reset every piece: a fresh incarnation inheriting a trained estimator
//! would mis-time its first retransmissions, and one inheriting a
//! `SetBackoff`/`set_adaptive` override would run policy its configuration
//! never specified.

use inet::testbed::{base_registry, two_hosts};
use inet::with_concrete;
use sunrpc::rr::RequestReply;
use sunrpc::sunselect::SunSelect;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;
use xrpc::channel::Channel;
use xrpc::stacks::L_RPC_VIP;

#[test]
fn channel_rto_state_re_cold_seeds_on_reboot() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    let tb = two_hosts(
        SimConfig::scheduled().with_seed(0xc01d),
        &reg,
        L_RPC_VIP.graph,
    )
    .expect("testbed builds");
    xrpc::serve(&tb.server, "select", 7, |_ctx, msg| Ok(msg)).expect("serve");

    // Warm: two calls train the client's estimator.
    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for _ in 0..2 {
            xrpc::call(ctx, k, "select", server_ip, 7, vec![7; 16]).expect("warm call");
        }
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    let warm_rtt = with_concrete::<Channel, _>(&tb.client, "channel", |c| c.rtt_estimate())
        .expect("channel registered");
    assert!(warm_rtt > 0, "replies trained the estimator");

    // Override the run-time policy knobs (protocol-level control ops).
    tb.sim.spawn(tb.client.host(), |ctx| {
        with_concrete::<Channel, _>(ctx.kernel(), "channel", |c| {
            c.control(ctx, &ControlOp::SetTimeout(1_000_000)).unwrap();
            c.control(ctx, &ControlOp::SetBackoff(0)).unwrap();
            c.set_adaptive(false);
        })
        .expect("channel registered");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    with_concrete::<Channel, _>(&tb.client, "channel", |c| {
        assert_eq!(c.max_backoff(), 0, "override in effect");
        assert!(!c.adaptive(), "override in effect");
    })
    .expect("channel registered");

    // Crash and restart the client host.
    let host = tb.client.host();
    let t = tb.sim.ctx(host).event_time();
    tb.sim.crash_at(t + 1_000_000, host);
    tb.sim.restart_at(t + 2_000_000, host);
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    assert_eq!(tb.sim.boot_epoch(host), 1, "the client really rebooted");

    // Everything is factory-fresh again.
    with_concrete::<Channel, _>(&tb.client, "channel", |c| {
        assert_eq!(c.rtt_estimate(), 0, "Karn state re-cold-seeded");
        assert_eq!(c.max_backoff(), 6, "backoff cap back to default");
        assert!(c.adaptive(), "adaptive switch back to configured value");
    })
    .expect("channel registered");

    // And the fresh incarnation is immediately usable.
    tb.sim.spawn(host, move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, k, "select", server_ip, 7, vec![9; 16]).expect("post-reboot call");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
}

#[test]
fn request_reply_rto_state_re_cold_seeds_on_reboot() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    sunrpc::register_ctors(&mut reg);
    let tb = two_hosts(
        SimConfig::scheduled().with_seed(0xc01e),
        &reg,
        chaos::SUNRPC_UDP_GRAPH,
    )
    .expect("testbed builds");
    with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
        s.serve(100_099, 1, 7, |_ctx, msg| Ok(msg))
    })
    .expect("sunselect registered");

    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<SunSelect, _>(ctx.kernel(), "sunselect", |s| {
            for _ in 0..2 {
                s.call(ctx, server_ip, 100_099, 1, 7, vec![7; 16])
                    .expect("warm call");
            }
        })
        .expect("sunselect registered");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    let warm_rtt =
        with_concrete::<RequestReply, _>(&tb.client, "request_reply", |r| r.rtt_estimate())
            .expect("request_reply registered");
    assert!(warm_rtt > 0, "replies trained the estimator");

    tb.sim.spawn(tb.client.host(), |ctx| {
        with_concrete::<RequestReply, _>(ctx.kernel(), "request_reply", |r| {
            r.control(ctx, &ControlOp::SetTimeout(1_000_000)).unwrap();
            r.control(ctx, &ControlOp::SetBackoff(0)).unwrap();
            r.set_adaptive(false);
        })
        .expect("request_reply registered");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);

    let host = tb.client.host();
    let t = tb.sim.ctx(host).event_time();
    tb.sim.crash_at(t + 1_000_000, host);
    tb.sim.restart_at(t + 2_000_000, host);
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    assert_eq!(tb.sim.boot_epoch(host), 1, "the client really rebooted");

    with_concrete::<RequestReply, _>(&tb.client, "request_reply", |r| {
        assert_eq!(r.rtt_estimate(), 0, "Karn state re-cold-seeded");
        assert_eq!(r.max_backoff(), 6, "backoff cap back to default");
        assert!(r.adaptive(), "adaptive switch back to configured value");
    })
    .expect("request_reply registered");

    tb.sim.spawn(host, move |ctx| {
        with_concrete::<SunSelect, _>(ctx.kernel(), "sunselect", |s| {
            s.call(ctx, server_ip, 100_099, 1, 7, vec![9; 16])
                .expect("post-reboot call")
        })
        .expect("sunselect registered");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
}
