//! The whole suite co-resident in one kernel pair: monolithic Sprite RPC,
//! layered Sprite RPC, Sun RPC, and Psync running side by side — with a
//! single shared FRAGMENT instance serving CHANNEL, REQUEST_REPLY, and
//! Psync at once. This is the decomposition thesis end-to-end: "existing
//! protocol pieces can be reused", through real demultiplexing on
//! FRAGMENT's protocol-number field, under a lossy wire.

use std::cell::RefCell;
use std::rc::Rc;

use inet::testbed::{base_registry, two_hosts};
use inet::with_concrete;
use simnet::fault::FaultPlan;
use sunrpc::sunselect::SunSelect;
use xkernel::sim::SimConfig;
use xrpc::fragment::Fragment;

const GRAPH: &str = "\
    vip -> ip eth arp\n\
    fragment -> vip\n\
    channel -> fragment\n\
    select -> channel\n\
    mrpc: sprite -> vip\n\
    request_reply -> fragment\n\
    sunselect -> request_reply\n\
    psync -> fragment\n";

#[test]
fn every_stack_coexists_and_shares_fragment() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    sunrpc::register_ctors(&mut reg);
    psync::register_ctors(&mut reg);
    let tb = two_hosts(SimConfig::scheduled(), &reg, GRAPH).expect("testbed builds");

    // Services on the server.
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    xrpc::procs::register_standard(&tb.server, "mrpc").unwrap();
    with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
        s.serve(100003, 2, 1, |_ctx, msg| Ok(msg));
    })
    .unwrap();
    let conv_server = with_concrete::<psync::Psync, _>(&tb.server, "psync", |p| {
        p.open_conv(&tb.sim.ctx(tb.server.host()), 1, vec![tb.client_ip])
    })
    .unwrap();
    let conv_client = with_concrete::<psync::Psync, _>(&tb.client, "psync", |p| {
        p.open_conv(&tb.sim.ctx(tb.client.host()), 1, vec![tb.server_ip])
    })
    .unwrap();

    // A mildly hostile wire for everyone at once.
    tb.net.set_faults(
        tb.lan,
        FaultPlan {
            drop_per_mille: 25,
            dup_per_mille: 10,
            ..FaultPlan::default()
        },
    );

    let server_ip = tb.server_ip;
    let results: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));

    // Client 1: layered RPC with a 12 k echo.
    let r = Rc::clone(&results);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let body: Vec<u8> = (0..12_000).map(|i| (i % 251) as u8).collect();
        let echoed = xrpc::call(
            ctx,
            k,
            "select",
            server_ip,
            xrpc::procs::ECHO_PROC,
            body.clone(),
        )
        .unwrap();
        assert_eq!(echoed, body);
        r.borrow_mut().push("l_rpc".into());
    });
    // Client 2: monolithic RPC, several small calls.
    let r = Rc::clone(&results);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for i in 0..5u8 {
            let echoed = xrpc::call(
                ctx,
                k,
                "mrpc",
                server_ip,
                xrpc::procs::ECHO_PROC,
                vec![i; 100],
            )
            .unwrap();
            assert_eq!(echoed, vec![i; 100]);
        }
        r.borrow_mut().push("m_rpc".into());
    });
    // Client 3: Sun RPC over the *same* FRAGMENT instance.
    let r = Rc::clone(&results);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<SunSelect, _>(ctx.kernel(), "sunselect", |s| {
            let body: Vec<u8> = (0..9_000).map(|i| (i % 97) as u8).collect();
            let echoed = s.call(ctx, server_ip, 100003, 2, 1, body.clone()).unwrap();
            assert_eq!(echoed, body);
        })
        .unwrap();
        r.borrow_mut().push("sun_rpc".into());
    });
    // Client 4: a Psync exchange, also over the shared FRAGMENT.
    let r = Rc::clone(&results);
    let cc = Rc::clone(&conv_client);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        cc.send(ctx, vec![0xEE; 5_000]).unwrap();
        let reply = cc.receive(ctx, 10_000_000_000).unwrap();
        assert_eq!(reply.data, b"ack".to_vec());
        r.borrow_mut().push("psync".into());
    });
    let cs = Rc::clone(&conv_server);
    tb.sim.spawn(tb.server.host(), move |ctx| {
        let m = cs.receive(ctx, 10_000_000_000).unwrap();
        assert_eq!(m.data.len(), 5_000);
        cs.send(ctx, b"ack".to_vec()).unwrap();
    });

    let report = tb.sim.run_until_idle();
    assert_eq!(report.blocked, 0);
    let mut done = results.borrow().clone();
    done.sort();
    assert_eq!(done, vec!["l_rpc", "m_rpc", "psync", "sun_rpc"]);

    // The reuse claim, verified structurally: ONE fragment protocol moved
    // messages for three different upper protocols (CHANNEL=103,
    // PSYNC=104, REQUEST_REPLY=105), demultiplexing on its own
    // protocol-number field.
    let stats = with_concrete::<Fragment, _>(&tb.client, "fragment", |f| f.stats()).unwrap();
    assert!(
        stats.messages_sent >= 3,
        "client FRAGMENT carried messages for multiple uppers: {stats:?}"
    );
    let server_stats = with_concrete::<Fragment, _>(&tb.server, "fragment", |f| f.stats()).unwrap();
    assert!(server_stats.messages_delivered >= 3);
}

#[test]
fn concurrent_clients_share_channel_pools_under_loss() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    let graph = "vip -> ip eth arp\n\
                 fragment -> vip\n\
                 channel -> fragment\n\
                 select channels=3 -> channel\n";
    let tb = two_hosts(SimConfig::scheduled(), &reg, graph).expect("testbed builds");
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    let hits = Rc::new(RefCell::new(0u32));
    let h2 = Rc::clone(&hits);
    xrpc::serve(&tb.server, "select", 9, move |ctx, msg| {
        *h2.borrow_mut() += 1;
        ctx.sleep(2_000_000); // A little service time to force pool pressure.
        Ok(msg)
    })
    .unwrap();
    // Warm, then make the wire lossy.
    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        xrpc::call(
            ctx,
            k,
            "select",
            server_ip,
            xrpc::procs::NULL_PROC,
            Vec::new(),
        )
        .unwrap();
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    tb.net.set_faults(tb.lan, FaultPlan::lossy(60));

    let completed = Rc::new(RefCell::new(0u32));
    for i in 0..10u32 {
        let c = Rc::clone(&completed);
        tb.sim.spawn(tb.client.host(), move |ctx| {
            let k = ctx.kernel();
            let body = vec![i as u8; 200];
            let echoed = xrpc::call(ctx, k, "select", server_ip, 9, body.clone()).unwrap();
            assert_eq!(echoed, body);
            *c.borrow_mut() += 1;
        });
    }
    let report = tb.sim.run_until_idle();
    assert_eq!(report.blocked, 0);
    assert_eq!(
        *completed.borrow_mut(),
        10,
        "10 concurrent callers over 3 channels"
    );
    assert_eq!(
        *hits.borrow_mut(),
        10,
        "at-most-once held under pool contention"
    );
}
