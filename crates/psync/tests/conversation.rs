//! Psync behaviour: partial-order delivery, context blocking, duplicate
//! suppression, and — the paper's point — reuse of FRAGMENT for large
//! conversation messages.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use inet::testbed::{base_registry, lan_hosts, Lan};
use inet::with_concrete;
use psync::{Conversation, Psync};
use simnet::fault::{FaultDecision, FaultPlan};
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;

const RECV_TIMEOUT: u64 = 3_000_000_000;

fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    psync::register_ctors(&mut reg);
    reg
}

fn conv_of(rig: &Lan, host: usize, id: u32, peers: Vec<IpAddr>) -> Rc<Conversation> {
    let ctx = rig.sim.ctx(rig.kernels[host].host());
    with_concrete::<Psync, _>(&rig.kernels[host], "psync", |p| {
        p.open_conv(&ctx, id, peers)
    })
    .unwrap()
}

#[test]
fn two_party_exchange_with_context() {
    let rig = lan_hosts(
        SimConfig::scheduled(),
        &registry(),
        "vip -> ip eth arp\npsync -> vip\n",
        2,
    )
    .unwrap();
    let (a_ip, b_ip) = (rig.ip_of(0), rig.ip_of(1));
    let conv_a = conv_of(&rig, 0, 1, vec![b_ip]);
    let conv_b = conv_of(&rig, 1, 1, vec![a_ip]);

    let ca = Rc::clone(&conv_a);
    let h0 = rig.kernels[0].host();
    rig.sim.spawn(h0, move |ctx| {
        let m1 = ca.send(ctx, b"question".to_vec()).unwrap();
        // Await the reply and check it names m1 as context.
        let reply = ca.receive(ctx, RECV_TIMEOUT).unwrap();
        assert_eq!(reply.data, b"answer");
        assert_eq!(reply.deps, vec![m1], "reply sent in the question's context");
    });
    let cb = Rc::clone(&conv_b);
    let h1 = rig.kernels[1].host();
    rig.sim.spawn(h1, move |ctx| {
        let q = cb.receive(ctx, RECV_TIMEOUT).unwrap();
        assert_eq!(q.data, b"question");
        cb.send(ctx, b"answer".to_vec()).unwrap();
    });
    let r = rig.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
}

#[test]
fn partial_order_survives_reordering() {
    // Three hosts. A sends m1 to B and C; B replies m2 (context: m1).
    // The copy of m1 travelling A→C is delayed 50 ms, so C *receives*
    // m2 first — but must *deliver* m1 before m2.
    let rig = lan_hosts(
        SimConfig::scheduled(),
        &registry(),
        "vip -> ip eth arp\npsync -> vip\n",
        3,
    )
    .unwrap();
    let (a_ip, b_ip, c_ip) = (rig.ip_of(0), rig.ip_of(1), rig.ip_of(2));
    let conv_a = conv_of(&rig, 0, 5, vec![b_ip, c_ip]);
    let conv_b = conv_of(&rig, 1, 5, vec![a_ip, c_ip]);
    let conv_c = conv_of(&rig, 2, 5, vec![a_ip, b_ip]);

    // Delay frames from A (eth 1) to C (eth 3).
    let a_eth = EthAddr::from_index(1).0;
    let c_eth = EthAddr::from_index(3).0;
    rig.net.set_faults(
        rig.lan,
        FaultPlan {
            custom: Some(Arc::new(move |_, frame| {
                if frame.len() >= 12 && frame[0..6] == c_eth && frame[6..12] == a_eth {
                    FaultDecision::Delay(50_000_000)
                } else {
                    FaultDecision::Deliver
                }
            })),
            ..FaultPlan::default()
        },
    );

    let delivered: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));

    let ca = Rc::clone(&conv_a);
    rig.sim.spawn(rig.kernels[0].host(), move |ctx| {
        ca.send(ctx, b"m1".to_vec()).unwrap();
    });
    let cb = Rc::clone(&conv_b);
    rig.sim.spawn(rig.kernels[1].host(), move |ctx| {
        let m1 = cb.receive(ctx, RECV_TIMEOUT).unwrap();
        assert_eq!(m1.data, b"m1");
        cb.send(ctx, b"m2".to_vec()).unwrap();
    });
    let cc = Rc::clone(&conv_c);
    let d2 = Rc::clone(&delivered);
    rig.sim.spawn(rig.kernels[2].host(), move |ctx| {
        let first = cc.receive(ctx, RECV_TIMEOUT).unwrap();
        let second = cc.receive(ctx, RECV_TIMEOUT).unwrap();
        d2.borrow_mut().push(first.data);
        d2.borrow_mut().push(second.data);
        assert_eq!(second.deps, vec![first.id], "context chain intact");
    });
    let r = rig.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(
        *delivered.borrow_mut(),
        vec![b"m1".to_vec(), b"m2".to_vec()],
        "m1 delivered before the message sent in its context"
    );
}

#[test]
fn message_blocks_until_context_arrives() {
    // Same topology, but A→C's m1 is *dropped*. C holds m2 forever (it is
    // observable in waiting_on_context) and never mis-delivers it.
    let rig = lan_hosts(
        SimConfig::scheduled(),
        &registry(),
        "vip -> ip eth arp\npsync -> vip\n",
        3,
    )
    .unwrap();
    let (a_ip, b_ip, c_ip) = (rig.ip_of(0), rig.ip_of(1), rig.ip_of(2));
    let conv_a = conv_of(&rig, 0, 5, vec![b_ip, c_ip]);
    let conv_b = conv_of(&rig, 1, 5, vec![a_ip, c_ip]);
    let conv_c = conv_of(&rig, 2, 5, vec![a_ip, b_ip]);

    let a_eth = EthAddr::from_index(1).0;
    let c_eth = EthAddr::from_index(3).0;
    rig.net.set_faults(
        rig.lan,
        FaultPlan {
            custom: Some(Arc::new(move |_, frame| {
                if frame.len() >= 12 && frame[0..6] == c_eth && frame[6..12] == a_eth {
                    FaultDecision::Drop
                } else {
                    FaultDecision::Deliver
                }
            })),
            ..FaultPlan::default()
        },
    );

    let ca = Rc::clone(&conv_a);
    rig.sim.spawn(rig.kernels[0].host(), move |ctx| {
        ca.send(ctx, b"m1".to_vec()).unwrap();
    });
    let cb = Rc::clone(&conv_b);
    rig.sim.spawn(rig.kernels[1].host(), move |ctx| {
        cb.receive(ctx, RECV_TIMEOUT).unwrap();
        cb.send(ctx, b"m2".to_vec()).unwrap();
    });
    let cc = Rc::clone(&conv_c);
    rig.sim.spawn(rig.kernels[2].host(), move |ctx| {
        // m2 arrives but must never be delivered without m1.
        let r = cc.receive(ctx, 500_000_000);
        assert!(matches!(r, Err(XError::Timeout(_))));
    });
    rig.sim.run_until_idle();
    assert_eq!(
        conv_c.waiting_on_context(),
        1,
        "m2 parked behind missing m1"
    );
    assert_eq!(conv_c.backlog(), 0);
}

#[test]
fn large_messages_reuse_fragment() {
    // psync -> fragment -> vip: a 12 k message rides the same bulk-transfer
    // layer as layered RPC.
    let rig = lan_hosts(
        SimConfig::scheduled(),
        &registry(),
        "vip -> ip eth arp\nfragment -> vip\npsync -> fragment\n",
        2,
    )
    .unwrap();
    let (a_ip, b_ip) = (rig.ip_of(0), rig.ip_of(1));
    let conv_a = conv_of(&rig, 0, 2, vec![b_ip]);
    let conv_b = conv_of(&rig, 1, 2, vec![a_ip]);
    let big: Vec<u8> = (0..12_000).map(|i| (i % 251) as u8).collect();
    let payload = big.clone();
    let ca = Rc::clone(&conv_a);
    rig.sim.spawn(rig.kernels[0].host(), move |ctx| {
        ca.send(ctx, payload).unwrap();
    });
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g2 = Rc::clone(&got);
    let cb = Rc::clone(&conv_b);
    rig.sim.spawn(rig.kernels[1].host(), move |ctx| {
        *g2.borrow_mut() = cb.receive(ctx, RECV_TIMEOUT).unwrap().data;
    });
    rig.sim.run_until_idle();
    assert_eq!(*got.borrow_mut(), big);
    // The sender's FRAGMENT layer really carried it.
    with_concrete::<xrpc::fragment::Fragment, _>(&rig.kernels[0], "fragment", |f| {
        let st = f.stats();
        assert_eq!(st.messages_sent, 1);
        assert!(st.fragments_sent >= 8, "12k needs ≥8 fragments");
    })
    .unwrap();
}

#[test]
fn oversized_message_without_fragment_is_rejected() {
    // psync directly over VIP cannot move more than one frame — the reason
    // FRAGMENT exists as a reusable layer.
    let rig = lan_hosts(
        SimConfig::scheduled(),
        &registry(),
        "vip -> ip eth arp\npsync -> vip\n",
        2,
    )
    .unwrap();
    let b_ip = rig.ip_of(1);
    let conv_a = conv_of(&rig, 0, 3, vec![b_ip]);
    let err: Rc<RefCell<Option<XError>>> = Rc::new(RefCell::new(None));
    let e2 = Rc::clone(&err);
    let ca = Rc::clone(&conv_a);
    rig.sim.spawn(rig.kernels[0].host(), move |ctx| {
        *e2.borrow_mut() = ca.send(ctx, vec![0u8; 12_000]).err();
    });
    rig.sim.run_until_idle();
    assert!(matches!(*err.borrow_mut(), Some(XError::TooBig { .. })));
}

#[test]
fn duplicates_are_suppressed() {
    let rig = lan_hosts(
        SimConfig::scheduled(),
        &registry(),
        "vip -> ip eth arp\npsync -> vip\n",
        2,
    )
    .unwrap();
    rig.net.set_faults(
        rig.lan,
        FaultPlan {
            dup_per_mille: 1000,
            ..FaultPlan::default()
        },
    );
    let (a_ip, b_ip) = (rig.ip_of(0), rig.ip_of(1));
    let conv_a = conv_of(&rig, 0, 4, vec![b_ip]);
    let conv_b = conv_of(&rig, 1, 4, vec![a_ip]);
    let ca = Rc::clone(&conv_a);
    rig.sim.spawn(rig.kernels[0].host(), move |ctx| {
        for i in 0..5u8 {
            ca.send(ctx, vec![i]).unwrap();
        }
    });
    let seen: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let s2 = Rc::clone(&seen);
    let cb = Rc::clone(&conv_b);
    rig.sim.spawn(rig.kernels[1].host(), move |ctx| {
        for _ in 0..5 {
            s2.borrow_mut()
                .push(cb.receive(ctx, RECV_TIMEOUT).unwrap().data[0]);
        }
        // No sixth message may ever be delivered.
        assert!(cb.receive(ctx, 200_000_000).is_err());
    });
    let r = rig.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(*seen.borrow_mut(), vec![0, 1, 2, 3, 4]);
}
