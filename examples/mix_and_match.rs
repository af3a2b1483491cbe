//! "Mix and Match RPCs" (§5): three Sun RPC stacks assembled from the same
//! parts by editing graph lines only.
//!
//! 1. Classic: SUN_SELECT / AUTH_UNIX / REQUEST_REPLY / UDP.
//! 2. Bulk:    SUN_SELECT / REQUEST_REPLY / FRAGMENT / VIP — FRAGMENT
//!    instead of IP fragmentation ("FRAGMENT is superior to IP as a bulk
//!    transfer protocol because it is persistent").
//! 3. Exactly-once: SUN_SELECT / CHANNEL / FRAGMENT / VIP — Sprite's
//!    CHANNEL swapped in for REQUEST_REPLY, changing the execution
//!    semantics from zero-or-more to at-most-once.
//!
//! ```text
//! cargo run --example mix_and_match
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use inet::with_concrete;
use simnet::fault::FaultPlan;
use sunrpc::sunselect::SunSelect;
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};

const PROG: u32 = 100003; // NFS's program number, for flavor.
const VERS: u32 = 2;
const PROC_STORE: u32 = 1;

fn run_stack(title: &str, graph: &str, payload_len: usize, duplicate_everything: bool) {
    let sim = Sim::new(SimConfig::scheduled());
    let net = simnet::SimNet::new(&sim);
    let lan = net.add_lan(simnet::LanConfig::default());
    if duplicate_everything {
        net.set_faults(
            lan,
            FaultPlan {
                dup_per_mille: 1000,
                ..FaultPlan::default()
            },
        );
    }
    let mut registry = xkernel::graph::ProtocolRegistry::new();
    inet::register_ctors(&mut registry);
    xrpc::register_ctors(&mut registry);
    sunrpc::register_ctors(&mut registry);

    let mut kernels = Vec::new();
    for (i, ip) in ["10.0.0.1", "10.0.0.2"].iter().enumerate() {
        let k = Kernel::new(&sim, if i == 0 { "client" } else { "server" });
        net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))
            .unwrap();
        let spec = format!("{}{}", inet::standard_graph("nic0", ip), graph);
        registry.build(&sim, &k, &spec).unwrap();
        kernels.push(k);
    }

    // The "store" procedure has a visible side effect so execution
    // semantics are observable.
    let executions = Rc::new(RefCell::new(0u32));
    let e2 = Rc::clone(&executions);
    with_concrete::<SunSelect, _>(&kernels[1], "sunselect", |s| {
        s.serve(PROG, VERS, PROC_STORE, move |ctx, msg| {
            *e2.borrow_mut() += 1;
            Ok(ctx.msg((msg.len() as u32).to_be_bytes().to_vec()))
        });
    })
    .unwrap();

    let server_ip = IpAddr::new(10, 0, 0, 2);
    let calls = 5u32;
    let client = Arc::clone(&kernels[0]);
    sim.spawn(client.host(), move |ctx| {
        with_concrete::<SunSelect, _>(ctx.kernel(), "sunselect", |s| {
            for _ in 0..calls {
                let stored = s
                    .call(
                        ctx,
                        server_ip,
                        PROG,
                        VERS,
                        PROC_STORE,
                        vec![7u8; payload_len],
                    )
                    .expect("call succeeds");
                let n = u32::from_be_bytes([stored[0], stored[1], stored[2], stored[3]]);
                assert_eq!(n as usize, payload_len);
            }
        })
        .unwrap();
    });
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    println!(
        "{title}\n    {} calls of {} bytes -> server executed {} time(s); {} frames on the wire",
        calls,
        payload_len,
        *executions.borrow_mut(),
        net.stats(lan).sent
    );
}

fn main() {
    run_stack(
        "1. classic Sun RPC (SUN_SELECT/AUTH_UNIX/REQUEST_REPLY/UDP):",
        "request_reply -> udp\n\
         auth: auth_unix uid=501 gid=20 machine=sun3 -> request_reply\n\
         sunselect -> auth\n",
        512,
        false,
    );
    run_stack(
        "2. bulk transfer via FRAGMENT (no IP fragmentation involved):",
        "vip -> ip eth arp\n\
         fragment -> vip\n\
         request_reply -> fragment\n\
         sunselect -> request_reply\n",
        12_000,
        false,
    );
    println!("\n-- now with every frame duplicated by the fault injector --");
    run_stack(
        "3a. REQUEST_REPLY keeps zero-or-more semantics (over-execution!):",
        "vip -> ip eth arp\n\
         request_reply -> vip\n\
         sunselect -> request_reply\n",
        64,
        true,
    );
    run_stack(
        "3b. CHANNEL swapped in: at-most-once, same SUN_SELECT above:",
        "vip -> ip eth arp\n\
         fragment -> vip\n\
         channel -> fragment\n\
         sunselect -> channel\n",
        64,
        true,
    );
}
